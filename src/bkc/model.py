"""Chain Hamiltonian, phase classification, and the local squeezing frame.

The chain couples N bosonic modes through nearest-neighbour hopping of
strength w, gain/loss-free pairing of strength delta, and a beam-splitter
term of strength g:

    H = 1/2 sum_j [ (g + i w) a_{j+1}^dag a_j + i delta a_{j+1}^dag a_j^dag + h.c. ]

Site positions j run 1..N in the formulas below; public site *indices*
elsewhere in the package are 0-based. The stability condition w > delta is
enforced at construction.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OVERFLOW_LIMIT, CriticalFrameUndefined, DomainError, OverflowGuard
from .gaussian import symplectic_form


class PhaseRegime(enum.Enum):
    """Dynamical regime selected by the ratio of g to delta."""

    NONRECIPROCAL = "nonreciprocal"
    CRITICAL = "critical"
    RECIPROCAL = "reciprocal"


@dataclass(frozen=True)
class ModelParams:
    """Couplings and size of the chain.

    Attributes
    ----------
    w:
        Hopping strength; must exceed delta for the dynamics to stay bounded
        in the squeezed frame.
    delta:
        Pairing strength, >= 0.
    g:
        Beam-splitter strength, >= 0. g < delta is the non-reciprocal
        regime, g > delta the reciprocal one, g == delta the critical line.
    n_sites:
        Number of modes, >= 2.
    """

    w: float
    delta: float
    g: float
    n_sites: int

    def __post_init__(self):
        for name in ("w", "delta", "g"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val!r}")
            object.__setattr__(self, name, float(val))
        if not isinstance(self.n_sites, (int, np.integer)) or self.n_sites < 2:
            raise ValueError(f"n_sites must be an integer >= 2, got {self.n_sites!r}")
        object.__setattr__(self, "n_sites", int(self.n_sites))
        if self.w <= 0.0:
            raise ValueError(f"w must be positive, got {self.w!r}")
        if self.delta < 0.0 or self.g < 0.0:
            raise ValueError("delta and g must be non-negative")
        if self.w <= self.delta:
            raise ValueError(
                f"requires w > delta for bounded squeezed-frame dynamics, "
                f"got w={self.w!r}, delta={self.delta!r}"
            )

    @property
    def hopping(self) -> float:
        """Effective tight-binding hopping J = sqrt(w^2 + g^2 - delta^2)."""
        return math.sqrt(self.w ** 2 + self.g ** 2 - self.delta ** 2)


def classify_phase(params: ModelParams) -> PhaseRegime:
    """Regime of the entanglement dynamics; the comparison g vs delta is exact."""
    if params.g < params.delta:
        return PhaseRegime.NONRECIPROCAL
    if params.g > params.delta:
        return PhaseRegime.RECIPROCAL
    return PhaseRegime.CRITICAL


def bdg_matrices(params: ModelParams):
    """Quadratic-form matrix h and symplectic form Omega of the open chain.

    H = 1/2 r^T h r in the ordering r = (q_1, p_1, ..., q_N, p_N), with one
    bond block per pair of neighbours j, j+1 and none from site N back to
    site 1; the equation-of-motion generator is M = Omega h.
    """
    n = params.n_sites
    h = np.zeros((2 * n, 2 * n))
    bond = _bond_block(params)
    for a in range(n - 1):
        h[2 * a:2 * a + 2, 2 * a + 2:2 * a + 4] = bond
        h[2 * a + 2:2 * a + 4, 2 * a:2 * a + 2] = bond.T
    return h, symplectic_form(n)


def _bond_block(params: ModelParams) -> np.ndarray:
    """2x2 block of h between (q_j, p_j) and (q_{j+1}, p_{j+1})."""
    g, w, delta = params.g, params.w, params.delta
    return np.array([[g / 2.0, (w + delta) / 2.0],
                     [(delta - w) / 2.0, g / 2.0]])


def _quarter_turn(jays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(pi j / 2) and sin(pi j / 2) evaluated exactly from j mod 4.

    np.cos(pi*j/2) returns O(1e-14) instead of 0; after amplification by the
    exponential site factors that noise would dominate entire rows, so the
    quarter-turn case uses a lookup table.
    """
    cos_tab = np.array([1.0, 0.0, -1.0, 0.0])
    sin_tab = np.array([0.0, 1.0, 0.0, -1.0])
    rem = np.remainder(jays, 4).astype(int)
    return cos_tab[rem], sin_tab[rem]


@dataclass(frozen=True, eq=False)
class SqueezingFrame:
    """Site-local Bogoliubov frame that maps the chain onto a tight-binding one.

    Site j (1-based) carries the mode d_j = abar_j a_j + bbar_j a_j^dag with

        abar_j = e^{-i phi j} [cosh(r (j - j0)) cosh r0 + i sinh(r (j - j0)) sinh r0]
        bbar_j = e^{-i phi j} [i cosh(r (j - j0)) sinh r0 - sinh(r (j - j0)) cosh r0]

    The stored 2x2 quadrature factors are built from the equivalent product
    R(phi j) diag(e^{-r(j-j0)}, e^{r(j-j0)}) Sq(r0), which keeps each factor
    symplectic to machine precision even when the exponentials span many
    orders of magnitude.
    """

    params: ModelParams
    regime: PhaseRegime
    j0: float
    r0: float
    r: float
    phi: float
    site_factors: np.ndarray = field(repr=False)

    def inverse_factors(self) -> np.ndarray:
        """Exact inverse -Omega2 S^T Omega2 of each unit-determinant site factor."""
        return _factor_inverse(self.site_factors)


def _factor_inverse(factors: np.ndarray) -> np.ndarray:
    """Inverse of unit-determinant 2x2 factors (last two axes), exact in floating point."""
    out = np.empty_like(factors)
    out[..., 0, 0] = factors[..., 1, 1]
    out[..., 0, 1] = -factors[..., 0, 1]
    out[..., 1, 0] = -factors[..., 1, 0]
    out[..., 1, 1] = factors[..., 0, 0]
    return out


def squeezing_frame(params: ModelParams, j0: float | None = None) -> SqueezingFrame:
    """Construct the squeezing frame centred at j0 (1-based, default (N+1)/2).

    Raises CriticalFrameUndefined exactly at g == delta, where the frame
    parameters diverge, and OverflowGuard where a site factor
    e^{r |j - j0|} would pass OVERFLOW_LIMIT.
    """
    regime = classify_phase(params)
    if regime is PhaseRegime.CRITICAL:
        raise CriticalFrameUndefined(
            f"no squeezing frame at g == delta == {params.g!r}"
        )
    n = params.n_sites
    if j0 is None:
        j0 = (n + 1) / 2.0
    j0 = float(j0)
    jays = np.arange(1, n + 1, dtype=float)
    if regime is PhaseRegime.NONRECIPROCAL:
        kappa = math.sqrt(params.delta ** 2 - params.g ** 2)
        r0 = 0.5 * math.atanh(params.g / params.delta)
        r = math.atanh(kappa / params.w)
        phi = math.pi / 2.0
        cos_j, sin_j = _quarter_turn(jays)
    else:
        kappa = math.sqrt(params.g ** 2 - params.delta ** 2)
        r0 = 0.5 * math.atanh(params.delta / params.g)
        r = 0.0
        phi = math.atan2(params.w, kappa)
        cos_j, sin_j = np.cos(phi * jays), np.sin(phi * jays)
    if r * max(j0 - 1.0, n - j0) > math.log(OVERFLOW_LIMIT):
        raise OverflowGuard(
            f"squeezing frame factors pass {OVERFLOW_LIMIT:g} for w={params.w!r}, "
            f"delta={params.delta!r}, g={params.g!r}, N={n}"
        )
    rot = np.empty((n, 2, 2))
    rot[:, 0, 0] = cos_j
    rot[:, 0, 1] = sin_j
    rot[:, 1, 0] = -sin_j
    rot[:, 1, 1] = cos_j
    stretch = np.exp(np.outer(jays - j0, np.array([-r, r])))
    sq = np.array([[math.cosh(r0), math.sinh(r0)],
                   [math.sinh(r0), math.cosh(r0)]])
    factors = rot @ (stretch[:, :, None] * sq[None, :, :])
    return SqueezingFrame(
        params=params, regime=regime, j0=j0, r0=r0, r=r, phi=phi,
        site_factors=factors,
    )


@dataclass(frozen=True, eq=False)
class TightBindingSpectrum:
    """Spectral data of the frame Hamiltonian H_d = J sum_j (d_{j+1}^dag d_j + h.c.).

    energies[n-1] = -2 J cos(pi n / (N+1)) for mode labels n = 1..N, and
    modes[n-1, j-1] = sqrt(2/(N+1)) sin(pi n j / (N+1)) are the standing
    waves of the open chain (real, orthonormal, symmetric as a matrix).
    """

    hopping: float
    energies: np.ndarray = field(repr=False)
    modes: np.ndarray = field(repr=False)


def tight_binding_spectrum(params: ModelParams) -> TightBindingSpectrum:
    """Open-chain eigenmodes and energies of the effective hopping Hamiltonian."""
    n = params.n_sites
    hop = params.hopping
    labels = np.arange(1, n + 1, dtype=float)
    energies = -2.0 * hop * np.cos(np.pi * labels / (n + 1))
    modes = math.sqrt(2.0 / (n + 1)) * np.sin(
        np.pi * np.outer(labels, labels) / (n + 1)
    )
    return TightBindingSpectrum(hopping=hop, energies=energies, modes=modes)


def frame_hopping_sign(frame: SqueezingFrame) -> float:
    """Sign of the transformed hopping read off a bond at the profile centre.

    Edge bonds of the transformed form carry the largest floating-point
    noise, so the sign is sampled where the site factors are O(1). The bond
    block of F^{-T} h F^{-1} is F_a^{-T} h_ab F_b^{-1} with h_ab the 2x2
    bond block of h, so only the two centre factors enter.
    """
    params = frame.params
    mid = min(max(int(round(frame.j0)) - 1, 0), params.n_sites - 2)
    inv_a, inv_b = _factor_inverse(frame.site_factors[mid:mid + 2])
    val = (inv_a.T @ _bond_block(params) @ inv_b)[0, 0]
    half = params.hopping / 2.0
    if abs(abs(val) - half) > 1e-6 * max(1.0, half):
        raise DomainError(
            f"transformed centre bond {val!r} does not match |J|/2 = {half!r}"
        )
    return math.copysign(1.0, val)
