"""Four-point averages: correlators, kernels, epsilon4 against oracles."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from bkc.analytics import avg_site_correlators
from bkc.dynamics import AveragingProtocol, build_propagator, time_series
from bkc.errors import CriticalFrameUndefined, DomainError
from bkc.fourpoint import (
    a_kernel,
    epsilon4,
    fourpoint_report,
    log_correction,
    momentum_correlators,
)
from bkc.gaussian import symplectic_eigenvalues_from_rows
from bkc.model import ModelParams, squeezing_frame
from oracles import mode_covariance


def _params(g, n, w=1.0, delta=0.25):
    return ModelParams(w=w, delta=delta, g=g, n_sites=n)


def _normal_of(x, k, q):
    blk = x[2 * k:2 * k + 2, 2 * q:2 * q + 2]
    out = (blk[0, 0] + blk[1, 1] + 1j * (blk[0, 1] - blk[1, 0])) / 4.0
    if k == q:
        out -= 0.5
    return out


def _anomalous_of(x, k, q):
    blk = x[2 * k:2 * k + 2, 2 * q:2 * q + 2]
    return ((blk[0, 0] - blk[1, 1]) + 1j * (blk[0, 1] + blk[1, 0])) / 4.0


def test_momentum_correlators_match_mode_blocks():
    for g, n in [(0.0, 8), (0.2, 9), (0.1, 12)]:
        p = _params(g, n)
        corr = momentum_correlators(p)
        x = mode_covariance(p)
        nm_ref = np.array([[_normal_of(x, k, q) for q in range(n)] for k in range(n)])
        am_ref = np.array([[_anomalous_of(x, k, q) for q in range(n)] for k in range(n)])
        assert np.max(np.abs(corr.normal - nm_ref)) < 5e-15
        assert np.max(np.abs(corr.anomalous - am_ref)) < 5e-15
        # centre gauge: mirror invariance and the stated symmetries
        assert np.max(np.abs(corr.normal - corr.normal[::-1, ::-1])) < 5e-15
        assert np.max(np.abs(corr.anomalous - corr.anomalous[::-1, ::-1])) < 5e-15
        assert np.max(np.abs(np.imag(nm_ref))) < 1e-15
        assert np.allclose(corr.anomalous, corr.anomalous.T, atol=1e-15)
        assert corr.n_modes == n


def test_momentum_correlators_regime_guard():
    with pytest.raises(DomainError):
        momentum_correlators(_params(0.3, 8))
    with pytest.raises(CriticalFrameUndefined):
        momentum_correlators(_params(0.25, 8))


def test_a_kernel_matches_lattice_sum():
    nn = 9
    ks = np.arange(1, nn + 1)
    for n_lab in range(1, nn + 1):
        for l_lab in range(1, nn + 1):
            brute = 2.0 / (nn + 1) * np.sum(
                np.sin(np.pi * ks / (nn + 1)) ** 2
                * np.sin(np.pi * ks * l_lab / (nn + 1))
                * np.sin(np.pi * ks * n_lab / (nn + 1))
            )
            assert a_kernel(n_lab, l_lab, nn) == pytest.approx(brute, abs=1e-12)
    assert a_kernel(1, 1, 9) == 0.75
    assert a_kernel(9, 9, 9) == 0.75
    assert a_kernel(5, 5, 9) == 0.5
    assert a_kernel(3, 5, 9) == -0.25
    assert a_kernel(4, 8, 9) == 0.0
    with pytest.raises(DomainError):
        a_kernel(0, 1, 9)
    with pytest.raises(DomainError):
        a_kernel(1, 10, 9)


def _site_weights(n, site=0):
    """2/(N+1) sin(pi k j/(N+1)) sin(pi q j/(N+1)) for 1-based j = site + 1."""
    t = np.sin(np.pi * np.arange(1, n + 1) * (site + 1) / (n + 1))
    return 2.0 / (n + 1) * np.outer(t, t)


def test_selection_set_invariants():
    # the f = 0 sums: the density's diagonal k = q, the pairing's mirror q = N+1-k
    for g, n in [(0.0, 16), (0.2, 16), (0.245, 48)]:
        p = _params(g, n)
        corr = momentum_correlators(p)
        weight = _site_weights(n)
        density0 = np.sum(np.diag(weight * corr.normal))
        pairing0 = np.sum(np.diag((weight * corr.anomalous)[:, ::-1]))
        nbar, _ = avg_site_correlators(p, 0)
        assert density0 ** 2 == pytest.approx(nbar ** 2, rel=1e-12)
        r0 = squeezing_frame(p).r0
        if g == 0.0:
            assert abs(pairing0) ** 2 < 1e-25
        else:
            assert abs(pairing0) ** 2 == pytest.approx(math.sinh(2 * r0) ** 2 / 4.0, rel=1e-12)
    with pytest.raises(DomainError):
        epsilon4(_params(0.2, 8), site=8)


def test_epsilon4_matches_brute_resonance_enumeration():
    # (0.2, 17) and (0.2, 23): N + 1 composite, with resonances beyond k = q and mirrors
    for g, n in [(0.2, 6), (0.1, 7), (0.0, 6), (0.2, 17), (0.2, 23)]:
        p = _params(g, n)
        corr = momentum_correlators(p)
        weight = _site_weights(n)
        nm, am = weight * corr.normal, weight * corr.anomalous
        eps = np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
        # every quadruple (q, k, q2, k2), axes in that order
        e_q, e_k = eps[:, None, None, None], eps[None, :, None, None]
        e_q2, e_k2 = eps[None, None, :, None], eps[None, None, None, :]
        n_n = np.real(nm[:, :, None, None] * nm[None, None, :, :])
        n_a = np.real(am[:, :, None, None] * np.conj(am)[None, None, :, :])
        num_n = np.sum(n_n, where=np.abs(e_q + e_q2 - e_k - e_k2) < 1e-9)
        num_a = np.sum(n_a, where=np.abs(e_q + e_k - e_q2 - e_k2) < 1e-9)
        den_n = np.sum(n_n, where=(np.abs(e_q - e_k) < 1e-9) & (np.abs(e_q2 - e_k2) < 1e-9))
        den_a = np.sum(n_a, where=(np.abs(e_q + e_k) < 1e-9) & (np.abs(e_q2 + e_k2) < 1e-9))
        brute = (num_n - num_a) / (den_n - den_a) - 1.0
        assert epsilon4(p) == pytest.approx(brute, rel=1e-12)


def test_epsilon4_matches_time_average():
    samples = 2000
    for g in (0.2, 0.0):
        p = _params(g, 16)
        proto = AveragingProtocol.for_params(p)
        prop = build_propagator(p)
        n_t = np.empty(samples)
        m_t = np.empty(samples, dtype=complex)
        for k in range(samples):
            blk_rows = prop.entropy_rows(proto.time(k), [0])
            blk = blk_rows @ blk_rows.T
            n_t[k] = (blk[0, 0] + blk[1, 1] - 2.0) / 4.0
            m_t[k] = ((blk[0, 0] - blk[1, 1]) + 1j * (blk[0, 1] + blk[1, 0])) / 4.0
        num = np.mean(n_t ** 2) - np.mean(np.abs(m_t) ** 2)
        den = np.mean(n_t) ** 2 - np.abs(np.mean(m_t)) ** 2
        assert num / den - 1.0 == pytest.approx(epsilon4(p), rel=3e-2)


def test_epsilon4_values_and_decay():
    assert epsilon4(_params(0.2, 48)) == pytest.approx(-0.057056591483915176, rel=1e-12)
    for g in (0.0, 0.2, 0.245):
        assert epsilon4(_params(g, 48)) < 0.0
    e48 = epsilon4(_params(0.2, 48))
    e96 = epsilon4(_params(0.2, 96))
    assert abs(e96) < abs(e48)
    assert 48 * abs(e48) == pytest.approx(96 * abs(e96), rel=2e-2)


def test_mirror_cancellation_estimate():
    # the mirror set of the squared density against the diagonal set of the squared pairing
    p = _params(0.0, 48)
    corr = momentum_correlators(p)
    t2 = np.sin(np.pi * np.arange(1, 49) / 49.0) ** 2
    weight = np.outer(t2, t2)
    i_b_r = (2.0 / 49.0) ** 2 * np.sum(weight * corr.normal * corr.normal[::-1, ::-1])
    i_a_a = (2.0 / 49.0) ** 2 * np.sum(weight * np.abs(corr.anomalous) ** 2)
    exact = i_b_r - i_a_a
    assert exact == pytest.approx(-156.57955772709101, rel=1e-12)
    fr = squeezing_frame(p)
    form = (2.0 / 49.0) ** 2 * (
        48 - math.cosh(2 * fr.r0) * math.sinh(48 * fr.r) / math.sinh(fr.r)
    ) / 2.0
    assert form == pytest.approx(-340.38659544578303, rel=1e-12)
    assert exact < 0.0 and form < 0.0
    assert 1.0 / 3.0 < exact / form < 3.0


def test_log_correction_and_report():
    p = _params(0.2, 10)
    proto = AveragingProtocol(t_min=100.0, dt=7.3, initial_samples=400)
    val = log_correction(p, 0, proto)
    assert 0.0 <= val < 5.0
    with pytest.raises(DomainError):
        log_correction(p, 10, proto)
    rep = fourpoint_report(p, 0, proto)
    assert rep.epsilon4 == epsilon4(p)
    assert rep.one_over_eps4 == 1.0 / rep.epsilon4
    assert rep.log_correction >= 0.0
    assert rep.site == 0
    assert rep.params is p


@pytest.mark.parametrize("n", [128, 256])
def test_log_correction_past_the_square_root_of_float_range(n):
    # nu reaches about 1e77 at N = 128 and 1e161 at N = 256, so nu^4 and nu^2 overflow
    p = _params(0.0, n, delta=0.9)
    proto = AveragingProtocol.for_params(p, initial_samples=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = fourpoint_report(p, n // 2, proto)
    assert np.isfinite([rep.epsilon4, rep.one_over_eps4, rep.log_correction]).all()
    # the same ratio from the row route's nu; its sampler's variance check may overflow
    with np.errstate(over="ignore"):
        nu = time_series(p, [n // 2], lambda rows: symplectic_eigenvalues_from_rows(rows)[:, 0],
                         dataclasses.replace(proto, max_samples=200)).values
    x = (nu / nu.max()) ** 2
    assert rep.log_correction == pytest.approx(np.var(x) / np.mean(x) ** 2, rel=1e-12)
