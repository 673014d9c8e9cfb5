"""Closed forms: exact dephased site correlators, nu_bar, S1 and the collapse tools."""
import math

import numpy as np
import pytest

from bkc.analytics import (
    avg_site_correlators,
    nu_bar_squared,
    s1_prediction,
    scaling_collapse,
)
from bkc.errors import DomainError, MissingReference
from bkc.gaussian import entropy_kernel
from bkc.model import ModelParams, squeezing_frame, tight_binding_spectrum
from oracles import dephased_mode_covariance


def _params(g, n, w=1.0, delta=0.25):
    return ModelParams(w=w, delta=delta, g=g, n_sites=n)


def _occ_of(blk):
    return (blk[0, 0] + blk[1, 1] - 2.0) / 4.0


def _pair_of(cross):
    return ((cross[0, 0] - cross[1, 1]) + 1j * (cross[0, 1] + cross[1, 0])) / 4.0


def test_avg_site_matches_dephased_blocks():
    for g, n in [(0.0, 10), (0.2, 9), (0.3, 10)]:
        p = _params(g, n)
        spec = tight_binding_spectrum(p)
        psi2 = np.kron(spec.modes, np.eye(2))
        site_avg = psi2.T @ dephased_mode_covariance(p) @ psi2
        for j in range(n):
            blk = site_avg[2 * j:2 * j + 2, 2 * j:2 * j + 2]
            nbar, mbar = avg_site_correlators(p, j)
            assert abs(nbar - _occ_of(blk)) < 1e-13
            assert abs(mbar - _pair_of(blk)) < 1e-13
            nu2_blk = (2 * _occ_of(blk) + 1.0) ** 2 - 4 * abs(_pair_of(blk)) ** 2
            nu2 = (2 * nbar + 1.0) ** 2 - 4 * abs(mbar) ** 2
            assert nu2 == pytest.approx(nu2_blk, rel=1e-12, abs=1e-12)


def test_avg_site_validation():
    with pytest.raises(DomainError):
        avg_site_correlators(_params(0.1, 8), 8)
    with pytest.raises(DomainError):
        avg_site_correlators(_params(0.1, 8), -1)


def test_nu_bar_critical_closed_form():
    p = _params(0.25, 48)
    assert nu_bar_squared(p) == pytest.approx(1.0 + 0.0625 * 49 ** 2 / 3.0, rel=1e-14)
    assert nu_bar_squared(p) == pytest.approx(51.020833333333336, rel=1e-13)
    assert nu_bar_squared(_params(0.2, 48)) == pytest.approx(34286.881445273786, rel=1e-12)


def test_nu_bar_tracks_averaged_site():
    # bulk leading-order value vs the exact averaged centre site
    for g, tol_log in [(0.0, 0.03), (0.2, 0.03)]:
        p = _params(g, 64)
        nbar, mbar = avg_site_correlators(p, 31)
        nu2 = (2 * nbar + 1.0) ** 2 - 4 * abs(mbar) ** 2
        assert 0.5 * math.log(nu_bar_squared(p)) == pytest.approx(
            0.5 * math.log(nu2), rel=tol_log
        )
    p = _params(0.3, 64)
    nbar, mbar = avg_site_correlators(p, 31)
    nu2 = (2 * nbar + 1.0) ** 2 - 4 * abs(mbar) ** 2
    assert nu_bar_squared(p) == pytest.approx(nu2, rel=1e-2)


def test_s1_prediction_branches():
    # near-critical expansion, explicit form
    expected = (
        math.log(64)
        + (0.0625 - 0.24 ** 2) * 64 ** 2 / 15.0
        + math.log(0.25 / math.sqrt(3.0))
        + 1.0
        - math.log(2.0)
    )
    assert s1_prediction(_params(0.24, 64)) == pytest.approx(expected, rel=1e-14)
    assert s1_prediction(_params(0.24, 64)) == pytest.approx(3.8681620640124477, rel=1e-13)
    assert s1_prediction(_params(0.25, 64)) == pytest.approx(2.5301353973457807, rel=1e-13)
    # handover to the deep-phase forms on each side
    assert s1_prediction(_params(0.24, 96)) == 0.5 * math.log(nu_bar_squared(_params(0.24, 96)))
    assert s1_prediction(_params(0.255, 64)) == float(
        entropy_kernel(0.255 / math.sqrt(0.255 ** 2 - 0.0625))
    )
    assert s1_prediction(_params(0.255, 48)) != float(
        entropy_kernel(0.255 / math.sqrt(0.255 ** 2 - 0.0625))
    )
    assert s1_prediction(_params(0.0, 128)) == pytest.approx(28.760167320636853, rel=1e-13)
    assert s1_prediction(_params(0.26, 96)) == pytest.approx(1.5861672909269182, rel=1e-13)


def test_s1_prediction_is_zero_without_pairing():
    # a passive chain keeps the vacuum: expansion window, reciprocal saturation
    for g, n in ((0.0, 16), (0.01, 16), (0.0, 128), (0.5, 64)):
        assert s1_prediction(_params(g, n, delta=0.0)) == 0.0


def test_s1_prediction_tracks_converged_averages():
    # reference values are converged protocol outputs (rel <= 5e-3),
    # one per dispatcher branch
    measured = {
        (0.24, 48): 2.980580,   # expansion, non-reciprocal side
        (0.2, 128): 16.463527,  # deep non-reciprocal
        (0.251, 128): 2.7089,   # saturation, just past critical
        (0.26, 96): 1.5715,     # deep reciprocal
    }
    for (g, n), ref in measured.items():
        pred = s1_prediction(_params(g, n))
        assert abs(pred - ref) / ref <= 0.05, (g, n, pred, ref)


def test_continuum_params_fields():
    # decay length xi = 1/r, length L = N + 1 and centre x0 = j0, read off the frame
    frame = squeezing_frame(_params(0.2, 32))
    assert 1.0 / frame.r == pytest.approx(1.0 / math.atanh(0.15), rel=1e-14)
    assert 1.0 / frame.r == pytest.approx(6.616363078510365, rel=1e-13)
    assert frame.params.n_sites + 1 == 33
    assert frame.j0 == 16.5
    assert squeezing_frame(_params(0.3, 32)).r == 0.0   # xi = inf


def test_scaling_collapse_expansion_slope():
    # every point below sits inside the expansion window on both sides,
    # where value - reference is exactly -x/15
    pts = []
    for n in (64, 96, 128):
        for g in (0.2492, 0.2496, 0.25, 0.2504, 0.2508):
            pts.append((g, n, s1_prediction(_params(g, n))))
    res = scaling_collapse(pts, delta=0.25, nu_exp=0.5, kind="site")
    slope = np.polyfit(res.x, res.y, 1)[0]
    assert slope == pytest.approx(-1.0 / 15.0, rel=1e-9)
    bad = scaling_collapse(pts, delta=0.25, nu_exp=1.0, kind="site")
    assert res.quality < bad.quality / 2.0


def test_scaling_collapse_mechanics():
    rows = []
    for n in (8, 16):
        for g in (0.25, 0.3, 0.35):
            x = (g ** 2 - 0.0625) * n ** 2
            rows.append((g, n, 3.0 + x))
    res = scaling_collapse(rows, delta=0.25, nu_exp=0.5, kind="site")
    assert np.allclose(res.y, res.x, atol=1e-12)
    assert set(res.n_values) == {8, 16}

    quarter = []
    for n in (8, 16):
        for g in (0.25, 0.3):
            x = (g ** 2 - 0.0625) * n ** 2
            quarter.append((g, n, n * (0.7 + 2.0 * x)))
    res_q = scaling_collapse(quarter, delta=0.25, nu_exp=0.5, kind="quarter")
    assert np.allclose(res_q.y, 2.0 * res_q.x, atol=1e-12)


def test_scaling_collapse_validation():
    with pytest.raises(MissingReference):
        scaling_collapse([(0.25, 8, 1.0), (0.3, 16, 2.0)], delta=0.25, nu_exp=0.5)
    with pytest.raises(ValueError):
        scaling_collapse([], delta=0.25, nu_exp=0.5)
    with pytest.raises(ValueError):
        scaling_collapse([(0.25, 8, 1.0)], delta=0.25, nu_exp=0.5, kind="half")
    single = scaling_collapse(
        [(0.25, 8, 1.0), (0.3, 8, 2.0), (0.35, 8, 2.5)], delta=0.25, nu_exp=0.5
    )
    assert single.quality == 0.0
