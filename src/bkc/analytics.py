"""Closed-form long-time entanglement predictions and scaling-collapse tools.

All formulas follow from expanding the post-quench vacuum in the frame
modes: conserved occupations pair with the anomalous correlator between a
mode n and its energy mirror N+1-n, and dephasing kills everything else.
Site positions j run 1..N inside formulas; public ``site`` arguments are
0-based indices. A block of l sites has the one law l S1, which ``bkc
analytic`` applies as min(l, N - l) S1 in every phase.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingReference
from .gaussian import entropy_kernel, site_indices
from .model import (
    ModelParams,
    PhaseRegime,
    classify_phase,
    squeezing_frame,
)


def avg_site_correlators(params: ModelParams, site: int):
    """Exact long-time averages (nbar, mbar) of the on-site correlators at a site.

    The averages are taken in the hopping frame (the locally squeezed
    picture where the chain is a plain tight-binding model), centred at
    (N+1)/2. Local squeezing leaves the single-site symplectic eigenvalue
    alone, so nu^2 = (2 nbar + 1)^2 - 4 |mbar|^2 is also the lab-frame value
    even though nbar and mbar themselves are frame quantities. ``site`` is
    0-based.
    """
    n = params.n_sites
    site_indices([site], n)   # DomainError unless a site of the chain
    frame = squeezing_frame(params)
    jj = site + 1
    ch0, sh0 = math.cosh(2 * frame.r0), math.sinh(2 * frame.r0)
    sign = 1.0 if jj % 2 else -1.0  # (-1)^(j+1): mirror-mode fold parity
    if frame.regime is PhaseRegime.NONRECIPROCAL:
        # about the centre the site j and its mirror N+1-j add equal cosh and
        # opposite sinh edge terms, and the bulk sinh term vanishes
        r = frame.r
        bulk = math.sinh(r * n) / math.sinh(r)
        edge = math.cosh(2 * r * (jj - frame.j0))
        nbar = -0.5 + ch0 / (2.0 * (n + 1)) * (bulk + edge)
        return float(nbar), complex(-0.5j * sign * sh0)
    theta = math.pi - 2.0 * frame.phi
    nbar = 0.5 * (ch0 - 1.0)
    edge = 0.5 * (np.exp(1j * theta * jj) + np.exp(1j * theta * (n + 1 - jj)))
    bulk = (1.0 - np.exp(1j * theta * n)) / (1.0 - np.exp(-1j * theta))
    mbar = -1j * sign * sh0 / (2.0 * (n + 1)) * (edge - bulk)
    return float(nbar), complex(mbar)


def nu_bar_squared(params: ModelParams) -> float:
    """Leading-order squared symplectic eigenvalue of the averaged single site.

    Uses the bulk term of the averaged correlators; exactly on the critical
    line the two-sided limit 1 + delta^2 (N+1)^2 / (3 w^2) applies. This is
    the leading order for large nu_bar only: 0.5 ln of it differs from the
    converged single-site entropy by an N-independent O(1) remainder, so
    it is a relative match only where the entropy itself is large.
    """
    n = params.n_sites
    regime = classify_phase(params)
    if regime is PhaseRegime.CRITICAL:
        return 1.0 + params.delta ** 2 * (n + 1) ** 2 / (3.0 * params.w ** 2)
    frame = squeezing_frame(params)
    if regime is PhaseRegime.NONRECIPROCAL:
        y = (n + 1) * frame.r
        return 1.0 + math.cosh(2 * frame.r0) ** 2 * (math.sinh(y) ** 2 / y ** 2 - 1.0)
    z = (n + 1) * (math.pi - 2.0 * frame.phi)
    return 1.0 + math.sinh(2 * frame.r0) ** 2 * (1.0 - 2.0 * (1.0 - math.cos(z)) / z ** 2)


# Crossover points (in units of |g^2 - delta^2| N^2 / w^2) where the
# near-critical expansion stops being more accurate than the deep-phase
# forms, calibrated against converged time averages on the standard grid.
# The expansion stays good much longer on the non-reciprocal side because
# there the entropy keeps growing with N, while on the reciprocal side it
# saturates to an N-independent value almost immediately.
_EXPANSION_WINDOW_NONRECIP = 42.0
_EXPANSION_WINDOW_RECIP = 7.0


def s1_prediction(params: ModelParams) -> float:
    """Closed-form long-time single-site entropy.

    Near criticality the expansion
    ln N + (delta^2 - g^2) N^2 / (15 w^2) + ln(delta / (sqrt(3) w)) + 1 - ln 2
    applies; deeper in the non-reciprocal phase ln nu_bar is used, and in
    the reciprocal phase the saturation value s(g / sqrt(g^2 - delta^2)).
    The handover points are the calibrated window constants above.

    The slope 1/15 in x = (delta^2 - g^2) N^2 / w^2 is the |x| << 1 limit of
    0.5 ln nu_bar^2 (up to the (N+1)^2 / N^2 factor); across a window that
    spans |x| of tens the fitted slope of that form is smaller.

    The prediction is not continuous at the non-reciprocal handover x = 42:
    ln nu_bar omits an O(1) remainder (+0.22 at g = 0.24), so crossing it
    drops the value by 0.40, 0.44, 0.46 and 0.49 at N = 64, 96, 128 and 256
    while the measured entropy is smooth in g.

    At delta == 0 the chain is passive (it conserves the boson number), so
    the vacuum stays the vacuum and the entropy is exactly 0; the expansion
    would take ln 0 there.
    """
    if params.delta == 0.0:
        return 0.0
    n = params.n_sites
    window = abs(params.g ** 2 - params.delta ** 2) * n ** 2 / params.w ** 2
    regime = classify_phase(params)
    limit = (
        _EXPANSION_WINDOW_RECIP
        if regime is PhaseRegime.RECIPROCAL
        else _EXPANSION_WINDOW_NONRECIP
    )
    if window < limit:
        return (
            math.log(n)
            + (params.delta ** 2 - params.g ** 2) * n ** 2 / (15.0 * params.w ** 2)
            + math.log(params.delta / (math.sqrt(3.0) * params.w))
            + 1.0
            - math.log(2.0)
        )
    if regime is PhaseRegime.NONRECIPROCAL:
        return 0.5 * math.log(nu_bar_squared(params))
    sat = params.g / math.sqrt(params.g ** 2 - params.delta ** 2)
    return entropy_kernel(sat)


_COLLAPSE_BINS = 10


@dataclass(frozen=True, eq=False)
class CollapseResult:
    """Rescaled dataset and the within-bin variance quality metric."""

    x: np.ndarray
    y: np.ndarray
    g_values: np.ndarray
    n_values: np.ndarray
    nu_exp: float
    kind: str
    quality: float


def scaling_collapse(points, delta: float, nu_exp: float, kind: str = "site") -> CollapseResult:
    """Collapse entropy data onto x = (g^2 - delta^2) N^(1/nu_exp).

    ``points`` holds rows (g, N, value). For every N present the row with
    g == delta (exact float match) supplies the reference; missing
    references raise MissingReference. y is value minus reference, divided
    by N for ``kind="quarter"``. The quality metric partitions the x axis
    into ten equal-width bins and averages the y variance over bins
    holding at least two points from at least two system sizes. Lower is
    better; a dataset with a single N always scores zero.
    """
    if kind not in ("site", "quarter"):
        raise ValueError(f"kind must be 'site' or 'quarter', got {kind!r}")
    arr = np.asarray([(float(g), float(n), float(v)) for g, n, v in points])
    if arr.size == 0:
        raise ValueError("empty collapse dataset")
    gs, ns, vals = arr[:, 0], arr[:, 1], arr[:, 2]
    refs = {}
    for n in sorted(set(ns.tolist())):
        match = (ns == n) & (gs == float(delta))
        if not match.any():
            raise MissingReference(f"no g == {delta!r} reference row for N = {int(n)}")
        refs[n] = vals[match].mean()
    y = vals - np.array([refs[n] for n in ns])
    if kind == "quarter":
        y = y / ns
    x = (gs ** 2 - float(delta) ** 2) * ns ** (1.0 / nu_exp)
    edges = np.linspace(x.min(), x.max(), _COLLAPSE_BINS + 1)
    which = np.clip(np.digitize(x, edges) - 1, 0, len(edges) - 2)
    variances = []
    for b in range(len(edges) - 1):
        members = which == b
        if members.sum() >= 2 and len(set(ns[members].tolist())) >= 2:
            variances.append(float(np.var(y[members])))
    quality = float(np.mean(variances)) if variances else 0.0
    return CollapseResult(
        x=x, y=y, g_values=gs, n_values=ns.astype(int),
        nu_exp=float(nu_exp), kind=kind, quality=quality,
    )
