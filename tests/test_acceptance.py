"""Headline quantitative checks on the standard coupling/size grid.

Every test here drives the public API end to end: converged time
averages against the closed forms, scaling collapses, and the
consistency quantities. Tolerances are fixed up front; sweep results
are memoized in the session-scoped ``averages`` store.
"""
import math

import numpy as np

from bkc.analytics import nu_bar_squared, s1_prediction, scaling_collapse
from bkc.dynamics import (
    AveragingProtocol,
    build_propagator,
    page_curve,
    profiles,
    series_fluctuation_ratio,
)
from bkc.fourpoint import a_kernel, epsilon4, log_correction
from bkc.gaussian import entropy_kernel
from bkc.model import ModelParams
from oracles import dense_map, symplectic_eigenvalues

GRID_GS = (0.0, 0.2, 0.24, 0.245, 0.249, 0.25, 0.251, 0.255, 0.26)
GRID_NS = (16, 32, 48, 64, 96, 128)


def _params(g, n, w=1.0, delta=0.25):
    return ModelParams(w=w, delta=delta, g=g, n_sites=n)


def _protocol(params):
    return AveragingProtocol.for_params(params, max_samples=60000)


def _r_squared(xs, ys):
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return 1.0 - np.sum(resid ** 2) / np.sum((ys - np.mean(ys)) ** 2)


def test_quarter_entropy_scaling_exponents(averages):
    sizes = np.array([32, 64, 96, 128], dtype=float)
    dense = [averages.quarter(0.0, int(n)).mean for n in sizes]
    slope_dense = np.polyfit(np.log(sizes), np.log(np.array(dense) / sizes), 1)[0]
    assert abs(slope_dense - 1.0) <= 0.15

    flat = [averages.quarter(0.3, int(n)).mean for n in sizes]
    slope_flat = np.polyfit(np.log(sizes), np.log(np.array(flat) / sizes), 1)[0]
    assert abs(slope_flat) <= 0.1


def test_super_volume_magnitude(averages):
    # S ~ r l N is derived for l/N << 1 (a quarter cut bends over with the
    # Page curve, S(l) = S(N - l)), so r = 1/2 ln(5/3) is read off the
    # growth of fixed small blocks; the difference cancels the O(1) offset
    # of S_1 and leaves -ln(129/97)/32 of its -ln N term
    r = 0.5 * math.log(5.0 / 3.0)
    for l in (1, 2, 3):
        growth = (averages.mean(0.0, 128, range(l))
                  - averages.mean(0.0, 96, range(l))) / (32 * l)
        assert abs(growth - r) / r <= 0.15, (l, growth, r)


def test_single_site_closed_form_agreement(averages):
    for g in (0.0, 0.2, 0.24):
        for n in (48, 64, 96, 128):
            meas = averages.mean(g, n, [0])
            # 0.5 ln nu_bar^2 leaves an O(1) remainder, so inside the
            # near-critical window the expansion is the closed form
            pred = s1_prediction(_params(g, n))
            assert abs(meas - pred) / meas <= 0.05, (g, n, meas, pred)


def test_reciprocal_saturation_value(averages):
    meas = averages.mean(0.3, 128, [0])
    pred = float(entropy_kernel(0.3 / math.sqrt(0.3 ** 2 - 0.0625)))
    assert abs(meas - pred) / pred <= 0.05


def _slope_in_x(s1, points):
    """Fitted slope of s1(g, N) - s1(delta, N) against x = (delta^2 - g^2) N^2."""
    xs = [(0.0625 - g ** 2) * n ** 2 for g, n in points]
    ys = [s1(g, n) - s1(0.25, n) for g, n in points]
    return np.polyfit(xs, ys, 1)[0]


def _closed_form_s1(g, n):
    return 0.5 * math.log(nu_bar_squared(_params(g, n)))


def test_near_critical_expansion_slope(averages):
    grid = [(g, n) for n in (64, 96, 128) for g in (0.245, 0.249, 0.251, 0.255)]
    slope = _slope_in_x(lambda g, n: averages.mean(g, n, [0]), grid)
    # the grid spans |x| up to ~41, where the closed form is no longer
    # linear in x, so the reference slope is fitted on the same points
    pred = _slope_in_x(_closed_form_s1, grid)
    assert abs(slope - pred) / pred <= 0.2, (slope, pred)

    # 1/15 is the |x| << 1 limit; (N+1)^2 / N^2 sets the residual gap
    small_x = [(math.sqrt(0.0625 - x / n ** 2), n)
               for n in (256, 384, 512) for x in (-0.1, -0.05, 0.05, 0.1)]
    limit = _slope_in_x(_closed_form_s1, small_x)
    assert abs(limit - 1.0 / 15.0) / (1.0 / 15.0) <= 0.02, limit


def test_scaling_collapse_quality_ratio(averages):
    site_pts, quarter_pts = [], []
    for g in GRID_GS:
        for n in GRID_NS:
            site_pts.append((g, n, averages.mean(g, n, [0], rel_threshold=5e-3)))
            quarter_pts.append(
                (g, n, averages.quarter(g, n, rel_threshold=5e-3).mean)
            )
    for pts, kind in ((site_pts, "site"), (quarter_pts, "quarter")):
        good = scaling_collapse(pts, delta=0.25, nu_exp=0.5, kind=kind).quality
        poor = scaling_collapse(pts, delta=0.25, nu_exp=1.0, kind=kind).quality
        assert good <= poor / 3.0, (kind, good, poor)


def test_page_curves_nearly_indistinguishable():
    curves = {}
    for g in (0.24, 0.3):
        p = _params(g, 32)
        curve = page_curve(p, _protocol(p))
        curves[g] = curve.entropies / np.max(curve.entropies)
    assert np.max(np.abs(curves[0.24] - curves[0.3])) <= 0.1


def test_uniform_entropy_vs_thermal_proxy():
    p = _params(0.0, 32)
    prof = profiles(p, _protocol(p))
    bulk = prof.entropies[4:28]
    assert (bulk.max() - bulk.min()) / bulk.mean() <= 0.10
    # lab-frame proxy: maximum entropy at fixed occupation bounds every
    # site from above, and the e^(2r|j - j0|) occupations make it rise by
    # 2r = ln(5/3) per site away from the centre j0
    s_th = prof.thermal_entropies()
    assert np.all(s_th >= prof.entropies)
    dist = np.abs(np.arange(4, 28) - 15.5)
    outer = dist >= 4
    rise = np.polyfit(dist[outer], s_th[4:28][outer], 1)[0]
    assert abs(rise - math.log(5.0 / 3.0)) / math.log(5.0 / 3.0) <= 0.10, rise


def test_entropy_fluctuation_ratios(averages):
    for sites_of in (lambda n: [0], lambda n: range(n // 4)):
        ratios = []
        for n in (16, 32, 48, 64):
            values = averages.result(0.0, n, sites_of(n)).values
            ratios.append(series_fluctuation_ratio(values))
        for r in ratios:
            assert 1e-3 <= r <= 0.3
        for prev, nxt in zip(ratios, ratios[1:]):
            assert nxt <= prev * 1.05


def test_small_block_extensivity(averages):
    s1 = averages.mean(0.0, 128, [0])
    for l in (1, 2, 3):
        meas = averages.mean(0.0, 128, range(l))
        assert abs(meas - l * s1) / (l * s1) <= 0.10


def test_inverse_eps4_linear_in_size():
    sizes = np.array([48, 64, 80, 96, 112], dtype=float)
    for g in (0.0, 0.2):
        inv = np.array([1.0 / epsilon4(_params(g, int(n))) for n in sizes])
        assert _r_squared(sizes, inv) >= 0.95


def test_log_correction_plateau_and_decay():
    sizes = (16, 32, 48, 64)
    vals, ratios = [], []
    for n in sizes:
        p = _params(0.0, n)
        v = log_correction(p, 0, AveragingProtocol.for_params(p))
        vals.append(v)
        ratios.append(v / math.log(nu_bar_squared(p)))
    v48, v64 = vals[2], vals[3]
    assert 0.5 <= v48 / v64 <= 2.0
    for prev, nxt in zip(ratios, ratios[1:]):
        assert nxt < prev


def test_route_equivalence_and_purity():
    # frame rotations against the raw matrix exponential
    for g in (0.1, 0.4):
        p = _params(g, 6)
        for t in (1.3, 7.7, 20.0 / p.hopping):
            s_frame = build_propagator(p).symplectic(t)
            sig_frame = s_frame @ s_frame.T
            s_lab = dense_map(p, t)
            sig_lab = s_lab @ s_lab.T
            assert np.max(np.abs(sig_frame - sig_lab)) <= 1e-8

    # trajectories stay pure
    for g in (0.1, 0.4):
        p = _params(g, 32)
        prop = build_propagator(p)
        for t in (5.0 / p.hopping, 20.0 / p.hopping, 50.0 / p.hopping):
            s = prop.symplectic(t)
            nus = symplectic_eigenvalues(s @ s.T)
            assert np.max(np.abs(nus - 1.0)) <= 1e-5

    # quartic mode kernel against the direct lattice sum
    ks = np.arange(1, 10)
    for n_lab in range(1, 10):
        for l_lab in range(1, 10):
            brute = 0.2 * np.sum(
                np.sin(np.pi * ks / 10.0) ** 2
                * np.sin(np.pi * ks * l_lab / 10.0)
                * np.sin(np.pi * ks * n_lab / 10.0)
            )
            assert abs(a_kernel(n_lab, l_lab, 9) - brute) <= 1e-12
