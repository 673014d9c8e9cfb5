"""Four-point consistency checks for the single-site entropy argument.

The long-time entropy formulas replace time averages of products of
correlators by products of time averages. The two quantities here put a
number on that replacement: epsilon4 compares the averaged square of the
on-site density (and pairing) against the square of the averages, and
log_correction measures the variance term dropped when the average moves
inside the logarithm. Both are expected to fade as 1/N deep in the
non-reciprocal phase.

Both averages are exact. In the hopping frame the on-site density is a
sum of terms e^{i (eps_k - eps_q) t} and the pairing of terms
e^{-i (eps_k + eps_q) t}. The infinite-time average of |sum_x c_x
e^{i f_x t}|^2 is sum_w |sum_{f_x = w} c_x|^2, so the coefficients are
added per distinct frequency first. This takes every resonance, also the
accidental ones of composite N + 1.

Public ``site`` arguments are 0-based; mode labels n = 1..N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import AveragingProtocol, _sampler
from .errors import DomainError
from .gaussian import site_indices
from .model import ModelParams, PhaseRegime, squeezing_frame

_RESONANCE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class InitialMomentumCorrelators:
    """Post-quench mode-space correlator matrices.

    ``normal[k-1, q-1]`` holds <b_k^dag b_q> and ``anomalous[k-1, q-1]``
    holds <b_k b_q>, both at t = 0. normal is Hermitian (here real
    symmetric) and anomalous is complex symmetric.
    """

    normal: np.ndarray = field(repr=False)
    anomalous: np.ndarray = field(repr=False)

    @property
    def n_modes(self) -> int:
        return self.normal.shape[0]


def momentum_correlators(params: ModelParams) -> InitialMomentumCorrelators:
    """Full mode-space correlator matrices of the post-quench vacuum.

    Built from the site-profile kernels of the squeezing frame: the
    normal part folds a cosh profile, the anomalous part a sinh profile
    with an alternating sign. The profile is centred at (N+1)/2, which
    makes both matrices invariant under mirroring every index
    n -> N+1-n. Non-reciprocal regime only.
    """
    frame = squeezing_frame(params)
    if frame.regime is not PhaseRegime.NONRECIPROCAL:
        raise DomainError("momentum correlator profiles require the non-reciprocal regime")
    n = params.n_sites
    sites = np.arange(1, n + 1, dtype=float)
    labels = np.arange(1, n + 1, dtype=float)
    ts = np.sin(np.pi * np.outer(labels, sites) / (n + 1))
    ch0, sh0 = math.cosh(2 * frame.r0), math.sinh(2 * frame.r0)
    prof = 2.0 * frame.r * (sites - frame.j0)
    h_vals = 0.5 * np.cosh(prof) * ch0 - 0.5
    g_vals = -0.5 * np.sinh(prof) * ch0 + 0.5j * sh0
    alt = np.where(np.arange(1, n + 1) % 2 == 0, 1.0, -1.0)
    pref = 2.0 / (n + 1)
    normal = pref * (ts * h_vals) @ ts.T
    anomalous = pref * (ts * (g_vals * alt)) @ ts.T
    return InitialMomentumCorrelators(normal=normal, anomalous=anomalous)


def a_kernel(n: int, l: int, n_sites: int) -> float:
    """Closed form of the first-site quartic mode kernel.

    Equals (2/(N+1)) sum_k sin^2(pi k/(N+1)) sin(pi k l/(N+1))
    sin(pi k n/(N+1)): 1/2 on the diagonal (3/4 at the band edges n = 1
    and n = N), -1/4 two labels apart, zero otherwise.
    """
    if not (1 <= n <= n_sites and 1 <= l <= n_sites):
        raise DomainError(f"mode labels ({n}, {l}) out of range for {n_sites} modes")
    if n == l:
        out = 0.5
        if n == 1:
            out += 0.25
        if n == n_sites:
            out += 0.25
        return out
    if abs(n - l) == 2:
        return -0.25
    return 0.0


def _dephased_sums(freqs: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, complex]:
    """Coefficient sums of sum_x c_x e^{i f_x t} over each distinct frequency.

    Frequencies closer than ``_RESONANCE_TOL`` to their sorted neighbour
    count as one. Returns the sum for every distinct frequency and the sum
    at f = 0; the infinite-time average of |.|^2 is the summed squared
    moduli of the first.
    """
    order = np.argsort(freqs, axis=None, kind="stable")
    f = freqs.ravel()[order]
    c = coeffs.ravel()[order]
    runs = np.concatenate(([0], np.cumsum(np.diff(f) >= _RESONANCE_TOL)))
    sums = np.bincount(runs, c.real) + 1j * np.bincount(runs, c.imag)
    return sums, complex(sums[runs[np.abs(f).argmin()]])


def epsilon4(params: ModelParams, site: int = 0) -> float:
    """Relative error of squaring the averages instead of averaging squares.

    (avg<d^dag d>^2 - avg|<dd>|^2) over ((avg<d^dag d>)^2 - |avg<dd>|^2),
    minus one. Vanishes as O(1/N) in the non-reciprocal phase. ``site``
    is 0-based.
    """
    n = params.n_sites
    site_indices([site], n)   # DomainError unless a site of the chain
    corr = momentum_correlators(params)
    labels = np.arange(1, n + 1, dtype=float)
    eps = np.cos(np.pi * labels / (n + 1))
    t = np.sin(np.pi * labels * (site + 1) / (n + 1))
    # the ratio is blind to a common factor of the coefficients: the weights
    # carry (2/(N+1))^2 rather than 2/(N+1), and the correlators are taken
    # in a power-of-two unit near the largest so that no product overflows
    weight = (2.0 / (n + 1)) ** 2 * np.outer(t, t)
    nm, am = corr.normal, corr.anomalous
    unit = 2.0 ** -int(np.frexp(max(np.abs(nm).max(), np.abs(am).max()))[1])
    density, density0 = _dephased_sums(np.subtract.outer(eps, eps), weight * (nm * unit))
    pairing, pairing0 = _dephased_sums(np.add.outer(eps, eps), weight * (am * unit))
    denominator = abs(density0) ** 2 - abs(pairing0) ** 2
    if denominator == 0.0:
        raise DomainError("degenerate denominator in epsilon4")
    numerator = np.sum(np.abs(density) ** 2) - np.sum(np.abs(pairing) ** 2)
    return float(numerator / denominator - 1.0)


def log_correction(
    params: ModelParams,
    site: int = 0,
    protocol: AveragingProtocol | None = None,
) -> float:
    """Variance of nu_t^2 relative to its squared mean at one site.

    One draw of the protocol's ``initial_samples`` grid times, with no
    convergence loop; the sampler checks ``site`` and the grid. Small values
    justify replacing the average of ln nu_t^2 by the log of the averaged
    nu_t^2. The ratio is taken on x = (nu_t / max nu_t)^2, so that no power
    of nu leaves float range.
    """
    draw, protocol = _sampler(params, [site], lambda prop, sites, grid:
                              prop.spectrum(sites, grid)[0][:, 0], protocol)
    nu = draw(0, protocol.initial_samples)
    x = (nu / nu.max()) ** 2
    return float(np.var(x) / np.mean(x) ** 2)


@dataclass(frozen=True)
class FourPointReport:
    """Bundle of the two consistency numbers for one parameter point."""

    params: ModelParams
    site: int
    epsilon4: float
    one_over_eps4: float
    log_correction: float


def fourpoint_report(
    params: ModelParams,
    site: int = 0,
    protocol: AveragingProtocol | None = None,
) -> FourPointReport:
    """Evaluate epsilon4 and the log correction at one site."""
    eps = epsilon4(params, site)
    return FourPointReport(params=params, site=site, epsilon4=eps,
                           one_over_eps4=math.inf if eps == 0.0 else 1.0 / eps,
                           log_correction=log_correction(params, site, protocol))
