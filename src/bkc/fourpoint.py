"""Four-point consistency checks for the single-site entropy argument.

The long-time entropy formulas replace time averages of products of
correlators by products of time averages. The two quantities here put a
number on that replacement: epsilon4 compares the averaged square of the
on-site density (and pairing) against the square of the averages, and
log_correction measures the variance term dropped when the average moves
inside the logarithm. Both are expected to fade as 1/N deep in the
non-reciprocal phase.

Sums run over resonant quadruples of the hopping band. For generic N the
resonances are exhausted by three index sets (diagonal, mirror, exchange)
plus their overlaps; accidental extra resonances trigger a
DegenerateSpectrum warning.

Public ``site`` arguments are 0-based; mode labels n = 1..N.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import AveragingProtocol, _sample
from .errors import DegenerateSpectrum, DomainError
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


def momentum_correlators(
    params: ModelParams, j0: float | None = None
) -> InitialMomentumCorrelators:
    """Full mode-space correlator matrices of the post-quench vacuum.

    Built from the site-profile kernels of the squeezing frame: the
    normal part folds a cosh profile, the anomalous part a sinh profile
    with an alternating sign. The default gauge centres the profile at
    (N+1)/2, which makes both matrices invariant under mirroring every
    index n -> N+1-n. Non-reciprocal regime only.
    """
    frame = squeezing_frame(params, j0)
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


def _warn_on_extra_resonances(n_sites: int) -> None:
    """Scan pair sums of the hopping band for accidental resonances.

    A quadruple resonance eps_q + eps_q' = eps_k + eps_k' is a collision
    between two unordered pair sums. The generic collisions are the same
    pair twice and the zero-sum mirror pairs; anything else is flagged.
    """
    eps = np.cos(np.pi * np.arange(1, n_sites + 1) / (n_sites + 1))
    qs, ks = np.triu_indices(n_sites)
    sums = eps[qs] + eps[ks]
    order = np.argsort(sums)
    sums, qs, ks = sums[order], qs[order], ks[order]
    is_mirror = qs + ks == n_sites - 1
    start = 0
    for stop in range(1, len(sums) + 1):
        if stop < len(sums) and sums[stop] - sums[stop - 1] < _RESONANCE_TOL:
            continue
        group = slice(start, stop)
        start = stop
        if stop - group.start < 2:
            continue
        near_zero = np.all(np.abs(sums[group]) < _RESONANCE_TOL)
        if near_zero and bool(np.all(is_mirror[group])):
            continue
        if not near_zero and bool(np.all(qs[group] == qs[group.start])) and bool(
            np.all(ks[group] == ks[group.start])
        ):
            continue
        warnings.warn(
            f"accidental resonance among hopping-band pair sums near "
            f"{sums[group.start]:.6f} for N = {n_sites}; selection sums "
            f"omit its contribution",
            DegenerateSpectrum,
            stacklevel=3,
        )
        return


@dataclass(frozen=True)
class SelectionSums:
    """Resonant-set contributions to the averaged four-point functions.

    i_a_r/i_b_r/i_c_r are the diagonal, mirror and exchange sums for the
    squared density; i_a_a/i_b_a/i_c_a the same sets for the squared
    pairing. The pairwise and triple overlap sums let the exact union be
    assembled by inclusion-exclusion instead of the O(1/N) bookkeeping
    being waved away.
    """

    i_a_r: float
    i_b_r: float
    i_c_r: float
    i_a_a: float
    i_b_a: float
    i_c_a: float
    ab_r: float
    ac_r: float
    bc_r: float
    abc_r: float
    ab_a: float
    ac_a: float
    bc_a: float
    abc_a: float

    @property
    def union_normal(self) -> float:
        return (
            self.i_a_r + self.i_b_r + self.i_c_r
            - self.ab_r - self.ac_r - self.bc_r + self.abc_r
        )

    @property
    def union_anomalous(self) -> float:
        return (
            self.i_a_a + self.i_b_a + self.i_c_a
            - self.ab_a - self.ac_a - self.bc_a + self.abc_a
        )


def selection_sums(params: ModelParams, site: int = 0) -> SelectionSums:
    """Evaluate all resonant-set sums for the on-site four-point averages.

    ``site`` is 0-based. The diagonal set reproduces the square of the
    averaged density, the mirror set of the pairing; the exchange set
    duplicates them through the symmetry of the correlator matrices.
    """
    return _selection_sums(params, site, normalize=False)


def _selection_sums(params: ModelParams, site: int, normalize: bool) -> SelectionSums:
    """selection_sums; ``normalize`` takes the correlators in units of a power of two near
    the largest, so no product overflows and, the sums being quadratic, ratios keep every bit."""
    n = params.n_sites
    if not 0 <= site < n:
        raise DomainError(f"site {site} out of range for {n} sites")
    corr = momentum_correlators(params)
    _warn_on_extra_resonances(n)
    jj = site + 1
    labels = np.arange(1, n + 1, dtype=float)
    t = np.sin(np.pi * labels * jj / (n + 1))
    t2 = t * t
    pref2 = (2.0 / (n + 1)) ** 2
    weight = np.outer(t2, t2)
    nm = corr.normal
    am = corr.anomalous
    if normalize:
        unit = 2.0 ** -int(np.frexp(max(np.abs(nm).max(), np.abs(am).max()))[1])
        nm, am = nm * unit, am * unit
    nm_mirror = nm[::-1, ::-1]
    anti_n = np.diag(nm[:, ::-1]).copy()
    anti_a = np.diag(am[:, ::-1]).copy()

    i_a_r = pref2 * float(np.sum(weight * np.outer(np.diag(nm), np.diag(nm))))
    i_b_r = pref2 * float(np.real(np.sum(weight * nm * nm_mirror)))
    i_c_r = pref2 * float(np.real(np.sum(weight * nm * nm.T.conj())))
    i_a_a = pref2 * float(np.sum(weight * np.abs(am) ** 2))
    mirror_fold = (2.0 / (n + 1)) * complex(np.sum(t2 * anti_a))
    i_b_a = abs(mirror_fold) ** 2
    i_c_a = pref2 * float(np.real(np.sum(weight * am.T * am.conj())))

    t4 = t2 * t2
    diag_n = np.diag(nm)
    ab_r = pref2 * float(np.real(np.sum(t4 * diag_n * diag_n[::-1])))
    ac_r = pref2 * float(np.sum(t4 * diag_n ** 2))
    bc_r = pref2 * float(np.sum(t4 * np.abs(anti_n) ** 2))
    ab_a = pref2 * float(np.sum(t4 * np.abs(anti_a) ** 2))
    ac_a = pref2 * float(np.sum(t4 * np.abs(np.diag(am)) ** 2))
    bc_a = ab_a
    if n % 2:
        mid = (n - 1) // 2
        abc_r = pref2 * float(t4[mid] * diag_n[mid] ** 2)
        abc_a = pref2 * float(t4[mid] * abs(am[mid, mid]) ** 2)
    else:
        abc_r = abc_a = 0.0
    return SelectionSums(
        i_a_r=i_a_r, i_b_r=i_b_r, i_c_r=i_c_r,
        i_a_a=i_a_a, i_b_a=i_b_a, i_c_a=i_c_a,
        ab_r=ab_r, ac_r=ac_r, bc_r=bc_r, abc_r=abc_r,
        ab_a=ab_a, ac_a=ac_a, bc_a=bc_a, abc_a=abc_a,
    )


def epsilon4(params: ModelParams, site: int = 0) -> float:
    """Relative error of squaring the averages instead of averaging squares.

    (avg<d^dag d>^2 - avg|<dd>|^2) over ((avg<d^dag d>)^2 - |avg<dd>|^2),
    minus one. Vanishes as O(1/N) in the non-reciprocal phase.
    """
    sums = _selection_sums(params, site, normalize=True)
    numerator = sums.union_normal - sums.union_anomalous
    denominator = sums.i_a_r - sums.i_b_a
    if denominator == 0.0:
        raise DomainError("degenerate denominator in epsilon4")
    return numerator / denominator - 1.0


def log_correction(
    params: ModelParams,
    site: int = 0,
    protocol: AveragingProtocol | None = None,
) -> float:
    """Variance of nu_t^2 relative to its squared mean at one site.

    Sampled on the protocol time grid with the fixed initial batch size.
    Small values justify replacing the average of ln nu_t^2 by the log of
    the averaged nu_t^2. The ratio is taken on x = (nu_t / max nu_t)^2, so
    that no power of nu leaves float range.
    """
    n = params.n_sites
    if not 0 <= site < n:
        raise DomainError(f"site {site} out of range for {n} sites")
    if protocol is None:
        protocol = AveragingProtocol.for_params(params)
    # a cap equal to the initial batch draws exactly that batch
    batch = dataclasses.replace(protocol, max_samples=protocol.initial_samples)
    # nu of the sampler's spectrum, in units of 2^500 (which leaves x unchanged)
    # so that the sampler's variance check of nu stays in float range
    nu, _ = _sample(params, [site], None, batch,
                    spectrum_reduce=lambda nus, scale: nus[:, 0] * 2.0 ** -500)
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
