"""Independent oracles of the test suite, each written once.

The package computes its maps, spectra and averages by fast routes; these
are the slow, direct forms the tests compare them with:

* ``dense_map``: the lab quench map S(t) = expm(Omega h t) by scipy;
* ``symplectic_residual``: how far a matrix is from preserving Omega;
* ``frame_matrix``, ``frame_inverse_matrix`` and ``validate_frame``: the
  block-diagonal squeezing frame F and the hopping form it must produce;
* ``periodic_bdg`` and ``dynamical_spectrum``: the generator with the
  bond from site N back to site 1, and the eigenvalues of Omega h;
* ``mode_covariance``, ``dephased_mode_covariance`` and
  ``dephased_covariance``: the initial covariance X = G G^T in the normal
  modes, and its exact infinite-time average by the stationary-block rules;
* ``critical_uv``: the g == delta closed form's U(t) and V(t) summed over all
  N modes in long double;
* ``symplectic_eigenvalues`` and ``subsystem_entropy``: the covariance
  eigen-route, the paired eigenvalues of Omega_A sigma_A of a block sigma_A
  and the clamped entropy sum over them.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from bkc.gaussian import OMEGA2, _entropy_from_spectrum, site_indices, symplectic_form
from bkc.model import (
    ModelParams,
    SqueezingFrame,
    _bond_block,
    bdg_matrices,
    squeezing_frame,
    tight_binding_spectrum,
)


def dense_map(params: ModelParams, t: float) -> np.ndarray:
    """S(t) = scipy.linalg.expm(Omega h t) of the lab quench map (open chain)."""
    h_mat, omega = bdg_matrices(params)
    return scipy.linalg.expm(omega @ h_mat * t)


def symplectic_residual(s_mat) -> float:
    """Scaled violation of S Omega S^T = Omega, entrywise relative to row norms."""
    s_mat = np.asarray(s_mat, dtype=float)
    omega = symplectic_form(s_mat.shape[0] // 2)
    diff = s_mat @ omega @ s_mat.T - omega
    rows = np.linalg.norm(s_mat, axis=1)
    return float(np.max(np.abs(diff) / (1.0 + np.outer(rows, rows))))


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    n = blocks.shape[0]
    out = np.zeros((2 * n, 2 * n))
    for j in range(n):
        out[2 * j:2 * j + 2, 2 * j:2 * j + 2] = blocks[j]
    return out


def frame_matrix(frame: SqueezingFrame) -> np.ndarray:
    """Block-diagonal map F with r_frame = F r_lab."""
    return _block_diagonal(frame.site_factors)


def frame_inverse_matrix(frame: SqueezingFrame) -> np.ndarray:
    """Block-diagonal F^{-1} from the frame's exact ``inverse_factors``."""
    return _block_diagonal(frame.inverse_factors())


def validate_frame(frame: SqueezingFrame) -> float:
    """Largest entry of |F^{-T} h F^{-1} - (J/2) hopping form| over the chain.

    The frame must map h onto (J/2) (q_j q_{j+1} + p_j p_{j+1}) bonds, whose
    quadrature rotation frequencies are J cos(pi n / (N+1)).
    """
    params = frame.params
    h, _ = bdg_matrices(params)
    f_inv = frame_inverse_matrix(frame)
    coupling = np.eye(params.n_sites, k=1) + np.eye(params.n_sites, k=-1)
    expected = (params.hopping / 2.0) * np.kron(coupling, np.eye(2))
    return float(np.max(np.abs(f_inv.T @ h @ f_inv - expected)))


def periodic_bdg(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """``bdg_matrices`` of the ring: the open chain plus the bond from site N to site 1."""
    h, omega = bdg_matrices(params)
    bond = _bond_block(params)
    h[-2:, :2] = bond
    h[:2, -2:] = bond.T
    return h, omega


def dynamical_spectrum(params: ModelParams, periodic: bool = False) -> np.ndarray:
    """Sorted eigenvalues of the equation-of-motion generator Omega h."""
    h, omega = periodic_bdg(params) if periodic else bdg_matrices(params)
    return np.sort_complex(np.linalg.eigvals(omega @ h))


def mode_covariance(params: ModelParams) -> np.ndarray:
    """Initial (vacuum) covariance in the normal-mode frame, X = G G^T with G = Psi2 F."""
    psi2 = np.kron(tight_binding_spectrum(params).modes, np.eye(2))
    g_mat = psi2 @ frame_matrix(squeezing_frame(params))
    return g_mat @ g_mat.T


def dephased_mode_covariance(params: ModelParams) -> np.ndarray:
    """Exact infinite-time average of B(t) X B(t)^T in the normal-mode frame.

    B(t) rotates each mode's (q, p) pair at its tight-binding frequency, so
    averaging kills every 2x2 block of X except the stationary ones: both
    frequencies zero, equal frequencies (a == b), and opposite frequencies
    (the mirror pair a + b == N - 1).
    """
    n = params.n_sites
    x = mode_covariance(params)
    freqs = params.hopping * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    tiny = 1e-12 * params.hopping
    avg = np.zeros_like(x)
    for a in range(n):
        for b in range(n):
            blk = x[2 * a:2 * a + 2, 2 * b:2 * b + 2]
            if abs(freqs[a]) < tiny and abs(freqs[b]) < tiny:
                kept = blk
            elif a == b:
                kept = (blk - OMEGA2 @ blk @ OMEGA2) / 2.0
            elif a + b == n - 1:
                kept = (blk + OMEGA2 @ blk @ OMEGA2) / 2.0
            else:
                continue
            avg[2 * a:2 * a + 2, 2 * b:2 * b + 2] = kept
    return avg


def dephased_covariance(params: ModelParams) -> np.ndarray:
    """Exact infinite-time average of the lab covariance sigma(t), G^-1 Xbar G^-T."""
    psi2 = np.kron(tight_binding_spectrum(params).modes, np.eye(2))
    g_inv = frame_inverse_matrix(squeezing_frame(params)) @ psi2.T
    return g_inv @ dephased_mode_covariance(params) @ g_inv.T


def critical_uv(params: ModelParams, t: float) -> tuple[np.ndarray, np.ndarray]:
    """U(t) and V(t) of the g == delta closed form (``bkc.dynamics``), N x N each:
    U = D Psi E Psi D*, V = (2 delta / w) D Psi (E K - K E) Psi D*, every mode summed on
    its own, in long double, with no pairing of the +-c_n modes; rounded to float64."""
    n, ld = params.n_sites, np.longdouble
    labels = np.arange(1, n + 1, dtype=ld)
    angle = 4 * np.arctan(ld(1)) / (n + 1)
    psi = np.sqrt(ld(2) / (n + 1)) * np.sin(angle * np.outer(labels, labels))
    cosines = np.cos(angle * labels)
    shift = np.eye(n, k=1, dtype=ld)
    a_mat = psi @ (shift - shift.T) @ psi / 2
    gap = cosines[None, :] - cosines[:, None]
    same = np.eye(n, dtype=bool)
    k_mat = np.where(same, ld(0), a_mat / np.where(same, ld(1), gap))
    turn = np.array([1, 1j, -1, -1j], dtype=np.clongdouble)[np.arange(n) % 4]   # D = diag(i^j)
    decay = np.exp(-1j * (ld(params.w) * ld(t)) * cosines)      # E
    u_mat = (turn[:, None] * psi) @ (decay[:, None] * psi) * turn.conj()
    inner = decay[:, None] * k_mat - k_mat * decay[None, :]
    v_mat = (2 * ld(params.delta) / ld(params.w)) * ((turn[:, None] * psi) @ inner @ psi
                                                      * turn.conj())
    return u_mat.real.astype(float), v_mat.real.astype(float)


def quadrature_rows(sites) -> np.ndarray:
    """Interleaved (q, p) row indices 2j, 2j+1 of every site j of ``sites``, in order."""
    sites = np.asarray(sites)
    return np.stack([2 * sites, 2 * sites + 1], axis=1).reshape(-1)


def _block(sigma, modes) -> np.ndarray:
    arr = np.asarray(sigma, dtype=float)
    if modes is None:
        return arr
    idx = quadrature_rows(np.sort(site_indices(modes, arr.shape[0] // 2)))
    return arr[np.ix_(idx, idx)]


def symplectic_eigenvalues(sigma, modes=None) -> np.ndarray:
    """Symplectic spectrum of the covariance ``sigma`` restricted to ``modes``.

    Eigenvalues of Omega_A sigma_A come in pairs +/- i nu; the result holds
    the nu sorted ascending, one per mode, raw (not clamped at 1).
    """
    arr = _block(sigma, modes)
    if arr.size == 0:
        return np.zeros(0)
    vals = np.sort(np.abs(np.linalg.eigvals(symplectic_form(arr.shape[0] // 2) @ arr).imag))
    assert vals.size % 2 == 0, "symplectic spectrum did not pair up"
    return (vals[0::2] + vals[1::2]) / 2.0


def subsystem_entropy(sigma, modes=None) -> float:
    """Entropy of ``modes`` from the block spectrum, with the package's noise floor
    (``_entropy_from_spectrum``) scaled by the block's largest entry."""
    arr = _block(sigma, modes)
    scale = float(np.max(np.abs(arr))) if arr.size else 1.0
    return float(_entropy_from_spectrum(symplectic_eigenvalues(arr), scale))
