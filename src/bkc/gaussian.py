"""Symplectic spectra and entropies of map rows and single-mode blocks.

Conventions: N modes with quadratures ordered r = (q_1, p_1, ..., q_N, p_N),
hbar = 1, and sigma_ij = <{r_i, r_j}>, so the vacuum covariance is the
identity and every physical symplectic eigenvalue satisfies nu >= 1.
Entropies start from the rows R of the quench map (sigma_A = R R^T), from
their triangular factor, or from a single mode's 2x2 block; the eigenvalues
of Omega_A sigma_A are the tests' oracle, not a route of the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalFailure, within_limit

OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Eigenvalues of a covariance matrix carry absolute floating-point noise that
# scales with the matrix norm; the physical floor nu >= 1 is enforced with a
# tolerance widened accordingly.
_NU_TOL = 1e-8
_NU_SCALE_TOL = 1e-13


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2N x 2N symplectic form Omega for the interleaved ordering."""
    return np.kron(np.eye(n_modes), OMEGA2)


def site_indices(sites, n_sites: int) -> np.ndarray:
    """The 0-based ``sites`` of a chain of ``n_sites`` as ints, in the caller's order: the
    package's one site check. DomainError for an empty list and for an index that is not
    equal to an integer (also NaN and inf), negative, listed twice or not below ``n_sites``.
    """
    values = np.asarray(sites, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise DomainError(f"expected a non-empty list of site indices, got {sites!r}")
    whole = np.isfinite(values) & (values == np.round(values))
    if not whole.all():
        raise DomainError(f"mode index {values[~whole][0]} is not an integer")
    ordered = np.sort(values)
    if ordered[0] < 0:
        raise DomainError(f"mode index {int(ordered[0])} is negative")
    if ordered[-1] >= n_sites:
        raise DomainError(f"mode index {int(ordered[-1])} out of range for {n_sites} modes")
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        raise DomainError(f"mode index {int(repeated[0])} listed more than once")
    return values.astype(int)


def symplectic_eigenvalues_from_rows(rows) -> np.ndarray:
    """Symplectic spectrum of the block sigma_A = R R^T given its map rows R.

    The row route runs rows -> T -> nu -> S; this entry takes rows -> nu.
    R holds the 2l quadrature rows of a symplectic map applied to the vacuum,
    so sigma_A is never formed: R^T is QR-factored as Q T and the nu values
    are the paired singular values of T Omega T^T. Squaring R into R R^T
    doubles the dynamic range and makes small nu values irrecoverable once
    the entries grow past ~1/sqrt(eps); this route keeps the absolute error
    near eps times the block norm instead, which is what resolves nu ~ 1
    modes inside strongly amplified blocks. For one mode the error in nu is
    eps rho from the QR and eps rho^2 from the Gram, rho = sqrt(s00 s11) / nu,
    so ``entropy_from_gram`` serves single modes with rho near 1 (frame-route
    sites: rho <= 1.06 at g = 0-0.3, N = 64-512). Blocks at g < delta never take
    a Gram; at g >= delta they take a bounded cross block's (``_cross_spectrum``).

    ``rows`` may also be a K x 2l x 2N stack; the result is then K x l and
    the whole stack is factored in one batched QR.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim not in (2, 3) or rows.shape[-2] % 2 or rows.shape[-2] > rows.shape[-1]:
        raise ValueError("expected a 2l x 2N row block (or a stack of them) with 2l <= 2N")
    if rows.shape[-2] == 0:
        return np.zeros(rows.shape[:-1])
    return _factor_spectrum(np.linalg.qr(np.swapaxes(rows, -1, -2), mode="r"))


def _factor_spectrum(t_mat: np.ndarray) -> np.ndarray:
    """T -> nu. For a single mode T is 2 x 2 upper triangular and
    T Omega T^T = det(T) Omega, so nu = |T00 T11| without an SVD. Where nu,
    or an entry of T Omega T^T, passes OVERFLOW_LIMIT: OverflowGuard, before
    any SVD sees an inf."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if t_mat.shape[-1] == 2:
                return within_limit(np.abs(t_mat[..., 0, 0] * t_mat[..., 1, 1])[..., None],
                                    "subsystem spectrum")
            # T Omega swaps and negates column pairs; every entry of the product
            # has one nonzero term, so this is T @ Omega bit for bit
            t_omega = np.empty_like(t_mat)
            t_omega[..., 0::2] = -t_mat[..., 1::2]
            t_omega[..., 1::2] = t_mat[..., 0::2]
            product = within_limit(t_omega @ np.swapaxes(t_mat, -1, -2), "subsystem spectrum")
        vals = np.linalg.svd(product, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"row-block symplectic spectrum failed: {exc}") from exc
    return np.sort((vals[..., 0::2] + vals[..., 1::2]) / 2.0, axis=-1)


def _entropy_from_spectrum(nus: np.ndarray, scale):
    """nu -> S: the clamped kernel sum, its noise floor widened by the block ``scale``."""
    floor = 1.0 - (_NU_TOL + _NU_SCALE_TOL * np.maximum(1.0, scale))
    if np.any(nus < floor[..., None]):
        raise DomainError(f"subsystem spectrum dips below 1 beyond noise floor: "
                          f"min {nus.min()!r}")
    return np.sum(entropy_kernel(np.maximum(nus, 1.0)), axis=-1)


def subsystem_entropy_from_rows(rows):
    """Entanglement entropy of the block sigma_A = R R^T from its map rows.

    Runs the whole row route, rows -> T -> nu -> S. nu below 1 by no more
    than a noise floor scaled by the block norm ||R||^2 is clamped to 1; a
    lower one raises DomainError. A K x 2l x 2N stack gives an array of K
    entropies, each checked against its own floor.
    """
    rows = np.asarray(rows, dtype=float)
    out = _entropy_from_spectrum(symplectic_eigenvalues_from_rows(rows),
                                 np.einsum("...ij,...ij->...", rows, rows))
    return float(out) if rows.ndim == 2 else out


def entropy_from_factor(t_mat) -> np.ndarray:
    """Entropies of a K x 2l x 2l stack of upper-triangular factors T.

    Enters the row route at T, T -> nu -> S, for a caller that already holds
    the factor of R^T = Q T: sigma_A = R R^T = T^T T, and the noise floor
    scales with ||T||^2 = ||R||^2.
    """
    t_mat = np.asarray(t_mat, dtype=float)
    return _entropy_from_spectrum(_factor_spectrum(t_mat),
                                  np.einsum("...ij,...ij->...", t_mat, t_mat))


def entropy_from_gram(blocks) -> np.ndarray:
    """Entropies of a K x 2 x 2 stack of single-mode blocks sigma_j = R_j R_j^T.

    For one mode nu = sqrt(det sigma_j), taken as tr sqrt(det(sigma_j / tr))
    with tr = tr sigma_j, so that det never squares the entries out of float
    range; the noise floor scales with tr = ||R_j||^2.
    ``symplectic_eigenvalues_from_rows`` bounds its error.
    """
    nu, trace = _gram_nu(blocks)
    return _entropy_from_spectrum(nu[..., None], trace)


def _gram_nu(blocks) -> tuple[np.ndarray, np.ndarray]:
    """nu = tr sqrt(det(sigma_j / tr)) and tr = tr sigma_j of a K x 2 x 2 stack."""
    blocks = np.asarray(blocks, dtype=float)
    trace = blocks[..., 0, 0] + blocks[..., 1, 1]
    unit = blocks / trace[..., None, None]
    det = unit[..., 0, 0] * unit[..., 1, 1] - unit[..., 0, 1] * unit[..., 1, 0]
    return trace * np.sqrt(np.maximum(det, 0.0)), trace


def entropy_kernel(x):
    """Von Neumann entropy of one Gaussian mode with symplectic eigenvalue x.

    s(x) = (v+1) ln(v+1) - v ln v with v = (x-1)/2, evaluated as the one
    expression log1p(v) + v log1p(1/v): no difference of logarithms, so it
    stays within 2 eps relative from x = 1 + 2^-52 to the largest float
    (against 800-digit values, ``tests/kernel_reference.py``). s(1) = 0
    exactly and NaN stays NaN. Values in [1 - 1e-8, 1] are clamped to 1;
    anything lower raises DomainError. Accepts scalars or arrays.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 1.0 - _NU_TOL):
        raise DomainError(f"symplectic eigenvalue below 1: min {arr.min()!r}")
    v = (np.maximum(arr, 1.0) - 1.0) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(v == 0.0, 0.0, np.log1p(v) + v * np.log1p(1.0 / v))
    return float(out) if out.ndim == 0 else out


def site_correlators(block):
    """Occupation n = <a^dag a> and pair amplitude m = <a a> of a single-mode 2x2
    block; a K x 2 x 2 stack gives arrays of K values."""
    block = np.asarray(block, dtype=float)
    if block.shape[-2:] != (2, 2):
        raise ValueError("site_correlators expects a 2x2 block or a stack of them")
    qq, pp = block[..., 0, 0], block[..., 1, 1]
    qp = (block[..., 0, 1] + block[..., 1, 0]) / 2.0
    n = (qq + pp - 2.0) / 4.0
    m = (qq - pp + 2.0j * qp) / 4.0
    return (float(n), complex(m)) if block.ndim == 2 else (n, m)


@dataclass(frozen=True)
class LocalDecomposition:
    """Single-mode block factored as a rotated squeezed thermal state.

    The block equals R(theta) diag(e^{2 beta + 2 z}, e^{2 beta - 2 z}) R(theta)^T
    with R(theta) the counterclockwise rotation; e^{2 beta} is the thermal
    symplectic eigenvalue and z the squeeze strength along the theta axis.
    """

    z: float
    beta: float
    theta: float

    def reconstruct(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        rot = np.array([[c, -s], [s, c]])
        lam = np.array([math.exp(2 * self.beta + 2 * self.z),
                        math.exp(2 * self.beta - 2 * self.z)])
        return (rot * lam) @ rot.T


def local_decompose(block) -> LocalDecomposition:
    """Factor a 2x2 covariance block into (z, beta, theta); see LocalDecomposition."""
    arr = np.asarray(block, dtype=float)
    if arr.shape != (2, 2):
        raise ValueError("local_decompose expects a 2x2 block")
    sym = (arr + arr.T) / 2.0
    lam, vec = np.linalg.eigh(sym)
    if lam[0] <= 0.0:
        raise DomainError(f"block is not positive definite: eigenvalues {lam!r}")
    lo, hi = float(lam[0]), float(lam[1])
    vmax = vec[:, 1]
    theta = math.atan2(vmax[1], vmax[0])
    if theta <= -math.pi / 2:
        theta += math.pi
    elif theta > math.pi / 2:
        theta -= math.pi
    dec = LocalDecomposition(
        z=0.25 * math.log(hi / lo),
        beta=0.25 * math.log(hi * lo),
        theta=theta,
    )
    resid = float(np.max(np.abs(dec.reconstruct() - sym)))
    if resid > 1e-9 * max(1.0, hi):
        raise NumericalFailure(f"local decomposition reconstruction off by {resid:.3e}")
    return dec
