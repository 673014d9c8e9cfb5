"""Quench propagation: route cross-checks, purity, averaging protocol."""
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bkc import dynamics
from bkc.analytics import avg_site_correlators
from bkc.dynamics import (
    AveragingProtocol,
    PropagationMode,
    Propagator,
    build_propagator,
    evolve,
    page_curve,
    profiles,
    series_fluctuation_ratio,
    time_averaged_entropy,
    time_series,
)
from bkc.errors import DomainError, NonConvergence
from bkc.fourpoint import epsilon4, log_correction
from bkc.gaussian import (
    site_correlators,
    site_indices,
    subsystem_entropy_from_rows,
)
from bkc.model import ModelParams, tight_binding_spectrum
from oracles import (
    dense_map,
    dephased_covariance,
    frame_matrix,
    quadrature_rows,
    symplectic_eigenvalues,
    symplectic_residual,
)


def _params(g, n, w=1.0, delta=0.25):
    return ModelParams(w=w, delta=delta, g=g, n_sites=n)


def test_protocol_grid_scales_with_hopping():
    p = _params(0.2, 24)
    proto = AveragingProtocol.for_params(p)
    hop = math.sqrt(1.0 + 0.2**2 - 0.25**2)
    assert proto.t_min == pytest.approx(240.0 / hop, rel=1e-12)
    assert proto.dt == pytest.approx(10.0 / hop, rel=1e-12)
    assert proto.time(0) == proto.t_min
    assert proto.time(7) == pytest.approx(proto.t_min + 7 * proto.dt, rel=1e-14)


def test_protocol_validation():
    with pytest.raises(ValueError):
        AveragingProtocol(t_min=-1.0, dt=1.0)
    with pytest.raises(ValueError):
        AveragingProtocol(t_min=0.0, dt=0.0)
    with pytest.raises(ValueError):
        AveragingProtocol(t_min=0.0, dt=1.0, initial_samples=0)
    with pytest.raises(ValueError):
        AveragingProtocol(t_min=0.0, dt=1.0, initial_samples=30, max_samples=20)
    with pytest.raises(ValueError):
        AveragingProtocol(t_min=0.0, dt=1.0, rel_threshold=0.0)
    for bad in ({"t_min": math.nan}, {"t_min": math.inf}, {"dt": math.nan}, {"dt": math.inf},
                {"rel_threshold": math.nan}, {"rel_threshold": math.inf}):
        with pytest.raises(ValueError):
            AveragingProtocol(**{"t_min": 0.0, "dt": 1.0, **bad})


def test_build_propagator_mode_selection():
    assert build_propagator(_params(0.2, 8)).mode is PropagationMode.FRAME_EXACT
    assert build_propagator(_params(0.25, 8)).mode is PropagationMode.FRAME_EXACT
    assert build_propagator(_params(0.25, 8)).frame is None
    assert build_propagator(_params(0.2, 8)) is build_propagator(_params(0.2, 8))
    with pytest.raises(ValueError, match="mode=None only"):
        build_propagator(_params(0.2, 8), PropagationMode.FRAME_EXACT)


def test_frame_route_matches_matrix_exponential():
    for n in (7, 32):
        for g in (0.0, 0.2, 0.3):
            p = _params(g, n)
            t = 3.7
            sig_frame = evolve(p, t)
            s_lab = dense_map(p, t)
            sig_lab = s_lab @ s_lab.T
            scale = np.max(np.abs(sig_lab))
            assert np.max(np.abs(sig_frame - sig_lab)) <= 1e-9 * scale


def test_symplectic_map_basics():
    p = _params(0.2, 6)
    prop = build_propagator(p)
    assert np.array_equal(prop.symplectic(0.0), np.eye(12))
    s = prop.symplectic(5.3)
    assert symplectic_residual(s) <= 1e-10
    rows = quadrature_rows([1, 4])
    assert np.allclose(prop.subsystem_rows(5.3, [1, 4]), s[rows], atol=1e-12)
    w = prop.entropy_map(5.3)
    assert np.allclose(prop.entropy_rows(5.3, [1, 4]), w[rows], atol=1e-12)


def test_entropy_map_reproduces_lab_entropies():
    # the entropy frame differs from the lab by per-site symplectics only
    p = _params(0.2, 9)
    prop = build_propagator(p)
    for t in (2.3, 11.0, 47.7):
        for cut in ([0], [4], [0, 1, 2], list(range(6))):
            s_lab = subsystem_entropy_from_rows(prop.subsystem_rows(t, cut))
            s_frame = subsystem_entropy_from_rows(prop.entropy_rows(t, cut))
            assert s_frame == pytest.approx(s_lab, abs=1e-8)


def test_evolved_state_stays_pure():
    nus = symplectic_eigenvalues(evolve(_params(0.25, 16), 50.0))
    assert np.max(np.abs(nus - 1.0)) <= 1e-9
    nus = symplectic_eigenvalues(evolve(_params(0.2, 11), 30.0))
    assert np.max(np.abs(nus - 1.0)) <= 1e-9


def test_mode_occupations_conserved_after_quench():
    p = _params(0.2, 9)
    prop = build_propagator(p)
    spec = tight_binding_spectrum(p)
    psi2 = np.kron(spec.modes, np.eye(2))
    occs = []
    for t in (0.0, 3.1, 17.9, 64.2):
        bg = psi2 @ prop.entropy_map(t)
        occs.append(
            [site_correlators(bg[2 * k:2 * k + 2] @ bg[2 * k:2 * k + 2].T)[0]
             for k in range(9)]
        )
    occs = np.array(occs)
    assert np.allclose(occs, occs[0], rtol=1e-9)
    assert occs[0].min() > 0.0


def test_time_average_deterministic_grid():
    p = _params(0.1, 6)
    proto = AveragingProtocol(t_min=80.0, dt=9.7, initial_samples=40,
                              batch_samples=20, max_samples=80, rel_threshold=1.0)
    r1 = time_averaged_entropy(p, [3], proto)
    r2 = time_averaged_entropy(p, [3], proto)
    assert np.array_equal(r1.values, r2.values)
    assert r1.converged and r1.n_samples == 40
    assert r1.mean == pytest.approx(float(r1.values.mean()), rel=1e-14)
    assert r1.stderr > 0.0


def test_time_average_same_samples_both_routes():
    p = _params(0.2, 6)
    proto = AveragingProtocol(t_min=60.0, dt=7.3, initial_samples=40,
                              batch_samples=20, max_samples=80, rel_threshold=1.0)
    r_frame = time_averaged_entropy(p, [0, 1], proto)
    assert build_propagator(p, None).mode is PropagationMode.FRAME_EXACT
    rows = quadrature_rows([0, 1])
    r_lab = [subsystem_entropy_from_rows(dense_map(p, t)[rows])
             for t in proto.times(0, r_frame.n_samples)]
    assert np.allclose(r_frame.values, r_lab, atol=1e-8)


def _held_bytes(prop):
    return sum(v.nbytes for v in vars(prop).values() if isinstance(v, np.ndarray))


def test_frame_propagator_holds_one_dense_map():
    n = 64
    prop = build_propagator(_params(0.3, n))
    prop.mode_map  # built at the first block request
    assert _held_bytes(prop) <= 1.3 * (2 * n) ** 2 * 8


def _longdouble_site_rows(prop, site, t):
    """Rows 2j, 2j+1 of W(t) in long double from the analytic sine modes.

    The phases are the float64 fl(t omega_i) of the h = N // 2 lowest modes,
    mirrored to -fl(t omega_i) for their partners and 0 for an odd N's middle
    mode; every other step, the mode sums included, runs in long double.
    """
    n, h = prop.params.n_sites, prop.params.n_sites // 2
    ld = np.longdouble
    labels = np.arange(1, n + 1, dtype=ld)
    angles = 4 * np.arctan(ld(1)) * np.outer(labels, labels) / (n + 1)
    modes = np.sqrt(ld(2) / (n + 1)) * np.sin(angles)
    phase = np.zeros(n, dtype=ld)
    phase[:h] = t * prop.frequencies[:h]
    phase[n - h:] = -phase[h - 1::-1]
    cos_part = (modes[:, site] * np.cos(phase)) @ modes
    sin_part = (modes[:, site] * np.sin(phase)) @ modes
    g = prop.frame.site_factors.astype(ld)
    return np.stack([cos_part[:, None] * g[:, 0] + sin_part[:, None] * g[:, 1],
                     cos_part[:, None] * g[:, 1] - sin_part[:, None] * g[:, 0]]).reshape(2, 2 * n)


def test_site_rows_match_full_map():
    for g in (0.0, 0.2, 0.3):
        for n in (7, 8, 9, 64, 512):
            prop = build_propagator(_params(g, n))
            proto = AveragingProtocol.for_params(prop.params)
            times = np.array([proto.t_min, proto.time(777)])
            full = [prop.entropy_map(t) for t in times]
            for site in (0, n // 2, n - 1):
                rows = quadrature_rows([site])
                stack = prop.entropy_rows(times, [site])
                for got, t, dense in zip(stack, times, full):
                    ref = _longdouble_site_rows(prop, site, t)
                    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
                    # the dense map rounds each phase of a +-omega pair on its own
                    phase = t * prop.frequencies
                    slip = np.max(np.abs(phase + phase[::-1]))
                    dense = dense[rows]
                    assert np.max(np.abs(got - dense)) <= slip * np.max(np.abs(dense))


def test_site_average_builds_no_mode_map():
    n = 64
    p = _params(0.2, n)
    proto = AveragingProtocol.for_params(p, initial_samples=50, rel_threshold=1.0)
    build_propagator.cache_clear()
    time_averaged_entropy(p, [n // 2], proto)
    prop = build_propagator(p, None)
    assert "mode_map" not in vars(prop)
    assert _held_bytes(prop) <= 0.3 * (2 * n) ** 2 * 8
    time_averaged_entropy(p, range(n // 4), proto)
    assert "mode_map" in vars(prop)


def test_site_gram_matches_longdouble_rows():
    # twice the rows bound: each entry sums products of two rows
    for g in (0.0, 0.2, 0.3):
        for n in (7, 8, 9, 64, 512):
            prop = build_propagator(_params(g, n))
            proto = AveragingProtocol.for_params(prop.params)
            times = np.array([proto.t_min, proto.time(777)])
            for site in (0, n // 2, n - 1):
                blocks = prop._site_gram(site, times)
                assert blocks.shape == (2, 2, 2)
                for got, t in zip(blocks, times):
                    rows = _longdouble_site_rows(prop, site, t)
                    ref = (rows @ rows.T).astype(float)
                    assert np.max(np.abs(got - ref)) <= 2e-13 * np.max(np.abs(ref))


def test_grid_phases_depend_on_the_index_only(monkeypatch):
    # chunks of 146 and 366 site samples, 9 and 22 quarter samples (its complement reads
    # the quarter, so it takes the same), none a multiple of the anchor stride. (Chunks of
    # one or two N = 64 quarter samples round differently, anchored or not: their GEMMs
    # have M <= 32.)
    cases = [(_params(0.2, 64), [32]), (_params(0.25, 64), range(16)),
             (_params(0.25, 64), range(16, 64))]
    values = []
    for budget in (600_000, 1_500_000):
        monkeypatch.setattr(dynamics, "_CHUNK_BYTES", budget)
        values.append([time_averaged_entropy(p, sites, AveragingProtocol.for_params(
            p, initial_samples=300, rel_threshold=1.0)).values for p, sites in cases])
    for one, other in zip(*values):
        assert one.size == 300 and np.array_equal(one, other)
    # sub-ranges of at least two indices give the rows of a full-range batch
    prop = build_propagator(_params(0.2, 64))
    proto = AveragingProtocol.for_params(prop.params)
    grid = dynamics._GridBatch(proto, 0, 778, {})
    for k0, k1 in ((0, 2), (31, 34), (776, 778)):
        part = dynamics._GridBatch(proto, k0, k1, grid.offsets)
        assert np.array_equal(part.times, grid.times[k0:k1])
        for site in (0, 32, 63):
            assert np.array_equal(prop._site_gram(site, part), prop._site_gram(site, grid)[k0:k1])


@pytest.mark.parametrize("g", [0.2, 0.25])
def test_cut_past_half_is_chunked_by_the_sites_its_route_reads(monkeypatch, g):
    # spectrum serves the N - 1 cut from site 0, so the sampler sizes its chunks for one
    # site's rows too: the same spectrum calls on the same grid batches as site 0
    p = _params(g, 64)
    proto = AveragingProtocol.for_params(p, initial_samples=1500, rel_threshold=1.0)
    real = Propagator.spectrum
    batches = {}

    def counted(self, sites, times):
        batches.setdefault(len(sites), []).append((times.k0, times.k1))
        return real(self, sites, times)

    monkeypatch.setattr(Propagator, "spectrum", counted)
    site = time_averaged_entropy(p, [0], proto).values
    assert batches.pop(1) == [(0, 1024), (1024, 1500)]
    cut = time_averaged_entropy(p, range(1, 64), proto).values
    assert batches == {63: [(0, 1024), (1024, 1500)], 1: [(0, 1024), (1024, 1500)]}
    # so it gives site 0's values bit for bit (on g == delta the parent's chunks did not)
    assert np.array_equal(cut, site)


@pytest.mark.parametrize("g, n", [(0.2, 64), (0.2, 512), (0.25, 96)])
def test_grid_phase_accuracy(g, n):
    # long-double trig of the float64 frequencies on the real grid t_min + k dt;
    # anchored and direct phases both within 2 eps max|omega t_k| (bound set before the run)
    prop = build_propagator(_params(g, n))
    proto = AveragingProtocol.for_params(prop.params)
    offsets = {}
    ld = np.longdouble
    bound = 2 * np.finfo(float).eps * np.max(np.abs(prop.frequencies)) * proto.time(19_999)
    for k0 in (0, 19_000):
        k = np.arange(k0, k0 + 1000)
        phase = np.multiply.outer(ld(proto.t_min) + k.astype(ld) * ld(proto.dt),
                                  prop.frequencies.astype(ld))
        ref = np.stack([np.cos(phase), np.sin(phase)])
        for times in (dynamics._GridBatch(proto, k0, k0 + 1000, offsets),
                      proto.times(k0, k0 + 1000)):
            assert np.max(np.abs(dynamics._phases(prop.frequencies, times) - ref)) <= bound


def test_protocol_rejects_grids_past_phase_resolution():
    # at t = 1e18 one ulp of t is 128, so phases J t carry no digits
    p = _params(0.2, 8)
    with pytest.raises(ValueError, match="phase"):
        AveragingProtocol.for_params(p, t_min=1e18)
    AveragingProtocol.for_params(p)
    # a protocol built directly meets the same check when an average samples it
    direct = AveragingProtocol(t_min=1e18, dt=10.0)
    for average in (lambda: time_averaged_entropy(p, [3], direct), lambda: page_curve(p, direct),
                    lambda: profiles(p, direct), lambda: log_correction(p, 0, direct)):
        with pytest.raises(ValueError, match="phase"):
            average()
    # the late window [T, 2T] at T = 40 N^2 / J, N = 2048: J t eps = 7.5e-8 rad
    big = _params(0.2, 2048)
    late = 40.0 * 2048 ** 2 / big.hopping
    AveragingProtocol.for_params(big, t_min=late, dt=late / 20000)


def test_site_average_matches_row_route():
    # at delta = 0.9 and 0.99 the Gram entries pass 1e155, so det sigma_j = nu^2
    # would overflow; the rows and det(sigma_j / tr) stay in range
    cases = [(_params(g, n), 200) for g in (0.0, 0.2, 0.3) for n in (64, 512)]
    cases += [(_params(0.0, 256, delta=0.9), 50), (_params(0.0, 140, delta=0.99), 50)]
    for p, samples in cases:
        n = p.n_sites
        proto = AveragingProtocol.for_params(p, initial_samples=samples, rel_threshold=1.0)
        got = time_averaged_entropy(p, [n // 2], proto)
        ref = time_series(p, [n // 2], subsystem_entropy_from_rows, proto)
        assert got.n_samples == ref.n_samples == samples
        assert np.max(np.abs(got.values - ref.values) / ref.values) <= 1e-14


@pytest.mark.parametrize("n", [16, 64])
def test_site_gram_near_criticality_matches_dense_expm(n):
    for g in (0.25 - 1e-6, 0.25 + 1e-6):
        p = _params(g, n)
        proto = AveragingProtocol.for_params(p, initial_samples=40, rel_threshold=1.0)
        for site in (0, n // 2):
            got = time_averaged_entropy(p, [site], proto)
            rows = quadrature_rows([site])
            ref = [subsystem_entropy_from_rows(dense_map(p, t)[rows])
                   for t in proto.times(0, got.n_samples)]
            assert got.n_samples == 40
            assert np.max(np.abs(got.values - ref)) <= 1e-9


def test_site_average_takes_gram_blocks(monkeypatch):
    calls = {"qr": 0, "rows": 0}
    qr, entropy_rows = np.linalg.qr, Propagator.entropy_rows

    def counted_qr(*args, **kwargs):
        calls["qr"] += 1
        return qr(*args, **kwargs)

    def counted_rows(self, *args, **kwargs):
        calls["rows"] += 1
        return entropy_rows(self, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(Propagator, "entropy_rows", counted_rows)
    n = 64
    p = _params(0.2, n)
    proto = AveragingProtocol.for_params(p, initial_samples=50, rel_threshold=1.0)
    build_propagator.cache_clear()
    assert time_averaged_entropy(p, [n // 2], proto).n_samples == 50
    assert log_correction(p, n // 2, proto) > 0.0
    assert calls == {"qr": 0, "rows": 0}
    assert "mode_map" not in vars(build_propagator(p, None))
    # the critical line takes the shear-reduced spectrum: no rows, no QR either
    time_averaged_entropy(_params(0.25, n), [n // 2], proto)
    assert calls == {"qr": 0, "rows": 0}


@pytest.mark.parametrize("n", [32, 64])
def test_critical_spectrum_matches_dense_expm(n):
    p = _params(0.25, n)
    proto = AveragingProtocol.for_params(p, initial_samples=40, rel_threshold=1.0)
    for sites in ([n // 2], range(n // 4)):
        got = time_averaged_entropy(p, sites, proto)
        rows = quadrature_rows(sites)
        ref = np.array([subsystem_entropy_from_rows(dense_map(p, t)[rows])
                        for t in proto.times(0, got.n_samples)])
        assert got.n_samples == 40
        assert np.max(np.abs(got.values - ref) / ref) <= 1e-10


@pytest.mark.parametrize("n", [128, 256])
def test_critical_spectrum_matches_row_route(n):
    p = _params(0.25, n)
    proto = AveragingProtocol.for_params(p, initial_samples=30, rel_threshold=1.0)
    # a site, the quarter, the even sites, and a cut of 7N/8 sites against the rows
    # of its complement: its own rows carry 3N/4 spurious nu near 1, which move
    # S by 1.5e-11 relative at N = 256
    for sites, ref_sites in (([n // 2],) * 2, (range(n // 4),) * 2, (range(0, n, 2),) * 2,
                             (range(n // 8, n), range(n // 8))):
        got = time_averaged_entropy(p, sites, proto)
        ref = time_series(p, ref_sites, subsystem_entropy_from_rows, proto)
        assert np.max(np.abs(got.values - ref.values) / ref.values) <= 1e-12


@pytest.mark.parametrize("n, g, delta", [
    pytest.param(64, 0.25, 0.25, id="64"),
    pytest.param(128, 0.25, 0.25, id="128"),
    # frame points: a cut of more than N/2 sites takes its complement's spectrum there too
    pytest.param(64, 0.0, 0.9, id="frame-g0-delta0.9-64"),
    pytest.param(64, 0.2, 0.25, id="frame-g0.2-64"),
    pytest.param(64, 0.3, 0.25, id="frame-g0.3-64"),
])
def test_critical_spectrum_mirror_and_whole_chain(n, g, delta):
    p = _params(g, n, delta=delta)
    proto = AveragingProtocol.for_params(p, initial_samples=30, rel_threshold=1.0)
    for sites, bound in ((range(n // 4), 1e-12), ([n // 3], 1e-10)):
        rest = sorted(set(range(n)) - set(sites))
        got = time_averaged_entropy(p, sites, proto).values
        mirror = time_averaged_entropy(p, rest, proto).values
        assert np.max(np.abs(got - mirror)) <= bound
    # the whole chain is pure: every nu is exactly 1 and S exactly 0
    nu, _ = build_propagator(p, None).spectrum(np.arange(n), proto.times(0, 3))
    assert np.array_equal(nu, np.ones((3, n)))
    assert not time_averaged_entropy(p, range(n), proto).values.any()


def test_nonconvergence_carries_partial_result():
    p = _params(0.1, 6)
    proto = AveragingProtocol(t_min=100.0, dt=9.7, initial_samples=30,
                              batch_samples=10, max_samples=50, rel_threshold=1e-9)
    with pytest.raises(NonConvergence) as exc:
        time_averaged_entropy(p, [2], proto)
    partial = exc.value.result
    assert partial.n_samples == 50
    assert not partial.converged
    assert partial.mean > 0.0 and math.isfinite(partial.stderr)


def test_series_fluctuation_ratio_sinusoid():
    k = np.arange(20000)
    values = 5.0 + 0.5 * np.sin(0.73 * k)
    assert series_fluctuation_ratio(values) == pytest.approx(
        0.5 / math.sqrt(2.0) / 5.0, rel=5e-3
    )
    with pytest.raises(ValueError):
        series_fluctuation_ratio([])
    with pytest.raises(ValueError):
        series_fluctuation_ratio([1.0, -1.0])


def test_page_curve_complement_symmetric():
    p = _params(0.1, 8)
    proto = AveragingProtocol(t_min=80.0, dt=9.7, initial_samples=150,
                              batch_samples=50, max_samples=300, rel_threshold=1.0)
    curve = page_curve(p, proto)
    assert np.array_equal(curve.lengths, np.arange(1, 8))
    # every sample is a pure-state cut, so S(l) = S(N - l) holds exactly
    assert np.allclose(curve.entropies, curve.entropies[::-1],
                       atol=1e-8 * max(1.0, curve.entropies.max()))
    assert curve.entropies.min() > 0.0
    assert curve.n_samples == 150


def test_page_curve_consistent_with_scalar_average():
    p = _params(0.2, 6)
    proto = AveragingProtocol(t_min=60.0, dt=7.3, initial_samples=60,
                              batch_samples=30, max_samples=120, rel_threshold=1.0)
    curve = page_curve(p, proto)
    for l in (1, 2, 3):
        scalar = time_averaged_entropy(p, range(l), proto)
        assert curve.entropies[l - 1] == pytest.approx(scalar.mean, abs=1e-10)


@pytest.mark.parametrize("n", [8, 32])
def test_page_curve_samples_match_per_cut_rows(monkeypatch, n):
    # one QR of the full map per sample gives every cut through its R block;
    # the reference factors each cut's own rows W[:2l]
    p = _params(0.2, n)
    proto = AveragingProtocol.for_params(p, initial_samples=40, batch_samples=20,
                                         max_samples=80, rel_threshold=1.0)
    loop, seen = dynamics._converge_series, []

    def keep(*args):
        seen.append(loop(*args))
        return seen[-1]

    monkeypatch.setattr(dynamics, "_converge_series", keep)
    curve = page_curve(p, proto)
    values = seen[0][0]
    prop = build_propagator(p)
    ref = np.array([[subsystem_entropy_from_rows(w_map[:2 * l]) for l in range(1, n)]
                    for w_map in map(prop.entropy_map, proto.times(0, curve.n_samples))])
    assert values.shape == (40, n - 1)
    assert np.max(np.abs(values - ref) / np.abs(ref)) <= 1e-13


def test_page_curve_factors_each_chunk_once(monkeypatch):
    # N = 8 fits the whole draw in one chunk: one QR serves every cut
    p = _params(0.2, 8)
    proto = AveragingProtocol.for_params(p, initial_samples=40, max_samples=40,
                                         rel_threshold=1.0)
    qr, calls = np.linalg.qr, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    page_curve(p, proto)
    assert calls == [(40, 16, 16)]


@pytest.mark.parametrize("g, n", [(0.2, 32), (0.25, 16)])
def test_page_curve_samples_match_refactored_cut_blocks(monkeypatch, g, n):
    # cut l reads the leading 2l x 2l block of R off the one QR; passing its
    # transpose back through the row route factors it again and must agree
    # bit for bit (frame route at g = 0.2, closed form at g = Delta)
    p = _params(g, n)
    proto = AveragingProtocol.for_params(p, initial_samples=40, batch_samples=20,
                                         max_samples=80, rel_threshold=1.0)
    loop, seen, stacks = dynamics._converge_series, [], []
    entropy_rows = Propagator.entropy_rows

    def keep(*args):
        seen.append(loop(*args))
        return seen[-1]

    def keep_rows(*args, **kwargs):
        stack = entropy_rows(*args, **kwargs)
        stacks.append(stack.copy())
        return stack

    monkeypatch.setattr(dynamics, "_converge_series", keep)
    monkeypatch.setattr(Propagator, "entropy_rows", keep_rows)
    page_curve(p, proto)
    ref = []
    for stack in stacks:
        r_mat = np.linalg.qr(np.swapaxes(stack, -1, -2), mode="r")
        ref.append(np.stack([subsystem_entropy_from_rows(np.swapaxes(r_mat[:, :2 * l, :2 * l],
                                                                      -1, -2))
                             for l in range(1, n)], axis=1))
    assert np.array_equal(seen[0][0], np.concatenate(ref))


@pytest.mark.parametrize("n", [8, 16])
def test_critical_page_curve_matches_dense_expm(n):
    p = _params(0.25, n)
    proto = AveragingProtocol.for_params(p, initial_samples=120, batch_samples=60,
                                         max_samples=240, rel_threshold=1e-3)
    dense = np.array([[subsystem_entropy_from_rows(lab_map[:2 * l]) for l in range(1, n)]
                      for lab_map in (dense_map(p, t) for t in proto.times(0, proto.max_samples))])
    ref, ref_converged = dynamics._converge_series(lambda k0, k1: dense[k0:k1], proto)
    try:
        curve = page_curve(p, proto)
    except NonConvergence as exc:
        curve = exc.result
    assert curve.n_samples == ref.shape[0] and curve.converged == ref_converged
    # relative to the curve's peak: a map error enters through the near-pure
    # modes of a block, so it is absolute and largest at l = N - 1
    mean = ref.mean(axis=0)
    assert np.max(np.abs(curve.entropies - mean)) <= 1e-10 * mean.max()


def test_profiles_against_exact_dephasing():
    p = _params(0.1, 10)
    proto = AveragingProtocol.for_params(p, rel_threshold=5e-3, max_samples=60000)
    prof = profiles(p, proto)
    assert prof.converged
    sig_bar = dephased_covariance(p)
    for j in range(10):
        blk_exact = sig_bar[2 * j:2 * j + 2, 2 * j:2 * j + 2]
        occ_exact, _ = site_correlators(blk_exact)
        assert prof.occupations[j] == pytest.approx(occ_exact, rel=0.06)
        assert np.max(np.abs(prof.mean_blocks[j] - blk_exact)) <= 0.06 * np.max(
            np.abs(blk_exact)
        )
    assert prof.entropies.min() > 0.0
    assert prof.stderrs.min() > 0.0


def _block_gap(blocks, ref):
    """Largest entry gap of each 2x2 block relative to that block's largest entry."""
    return np.max(np.abs(blocks - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2)))


def _lab_block_mean(maps):
    """Average of the 2x2 site blocks of S S^T, from the site rows of each map."""
    n = maps[0].shape[0] // 2
    return sum(s.reshape(n, 2, -1) @ s.reshape(n, 2, -1).transpose(0, 2, 1)
               for s in maps) / len(maps)


@pytest.mark.parametrize("n", [8, 32])
def test_profiles_match_per_time_maps(n):
    # the oracle takes each time's full maps: entropies from the site blocks
    # of entropy_map(t), mean blocks from the row Gram sums of symplectic(t)
    p = _params(0.2, n)
    proto = AveragingProtocol.for_params(p, initial_samples=90, batch_samples=30,
                                         max_samples=150, rel_threshold=1.0)
    prof = profiles(p, proto)
    prop = build_propagator(p)
    times = proto.times(0, prof.n_samples)
    ref = np.array([subsystem_entropy_from_rows(prop.entropy_map(t).reshape(n, 2, 2 * n))
                    for t in times])
    assert prof.n_samples == 90
    assert np.max(np.abs(prof.entropies - ref.mean(axis=0)) / ref.mean(axis=0)) <= 1e-13
    err = ref.std(axis=0, ddof=1) / math.sqrt(times.size)
    assert np.max(np.abs(prof.stderrs - err) / err) <= 1e-13
    lab_blocks = _lab_block_mean([prop.symplectic(t) for t in times])
    assert _block_gap(prof.mean_blocks, lab_blocks) <= 1e-13


@pytest.mark.parametrize("n", [8, 16])
def test_critical_profiles_match_dense_expm(n):
    p = _params(0.25, n)
    proto = AveragingProtocol.for_params(p, initial_samples=120, batch_samples=60,
                                         max_samples=240, rel_threshold=1e-3)
    maps = [dense_map(p, t) for t in proto.times(0, proto.max_samples)]
    dense = np.array([subsystem_entropy_from_rows(s.reshape(n, 2, 2 * n)) for s in maps])
    ref, ref_converged = dynamics._converge_series(lambda k0, k1: dense[k0:k1], proto)
    try:
        prof = profiles(p, proto)
    except NonConvergence as exc:
        prof = exc.result
    assert prof.n_samples == ref.shape[0] and prof.converged == ref_converged
    assert np.max(np.abs(prof.entropies - ref.mean(axis=0)) / ref.mean(axis=0)) <= 1e-10
    assert _block_gap(prof.mean_blocks, _lab_block_mean(maps[:ref.shape[0]])) <= 1e-10


def test_frame_route_averages_never_build_the_lab_map(monkeypatch):
    def refuse(self, t):
        raise AssertionError(f"full lab map built at t = {t!r}")

    monkeypatch.setattr(Propagator, "symplectic", refuse)
    p = _params(0.2, 8)
    proto = AveragingProtocol.for_params(p, initial_samples=20, rel_threshold=1.0)
    for cut in ([3], [0, 1, 2]):
        assert time_series(p, cut, subsystem_entropy_from_rows, proto).n_samples == 20
    assert page_curve(p, proto).n_samples == 20
    assert profiles(p, proto).n_samples == 20


def test_evolve_at_time_zero_is_vacuum():
    sig = evolve(_params(0.2, 5), 0.0)
    assert np.array_equal(sig, np.eye(10))


@pytest.mark.parametrize("n", [32, 64])
def test_critical_rows_match_dense_expm(n):
    # g == delta: the averages take the closed-form rows; the oracle takes a
    # dense expm at every grid time
    p = _params(0.25, n)
    proto = AveragingProtocol.for_params(p, initial_samples=120, batch_samples=60,
                                         max_samples=240, rel_threshold=2e-3)
    cuts = ([n // 2], list(range(n // 4)))
    dense = np.array([
        [subsystem_entropy_from_rows(lab_map[quadrature_rows(cut)]) for cut in cuts]
        for lab_map in (dense_map(p, t) for t in proto.times(0, proto.max_samples))
    ])
    for i, cut in enumerate(cuts):
        ref, ref_converged = dynamics._converge_series(
            lambda k0, k1: dense[k0:k1, i], proto)
        got = time_series(p, cut, subsystem_entropy_from_rows, proto)
        assert got.n_samples == ref.size and got.converged == ref_converged
        assert np.max(np.abs(got.values - ref) / np.abs(ref)) <= 1e-10


@pytest.mark.parametrize("n", [8, 32, 96])
def test_critical_map_matches_expm(n):
    p = _params(0.25, n)
    prop = build_propagator(p)
    proto = AveragingProtocol.for_params(p)
    for t in (proto.dt, proto.t_min, proto.time(1000)):
        mine = prop.symplectic(t)
        ref = dense_map(p, t)
        assert np.linalg.norm(mine - ref) / np.linalg.norm(ref) <= 1e-10
        assert symplectic_residual(mine) <= 1e-12


def test_critical_line_average_imports_no_scipy():
    code = ("import sys\n"
            "from bkc.dynamics import AveragingProtocol, time_averaged_entropy\n"
            "from bkc.model import ModelParams\n"
            "p = ModelParams(w=1.0, delta=0.25, g=0.25, n_sites=8)\n"
            "proto = AveragingProtocol.for_params(p, initial_samples=50, rel_threshold=1.0)\n"
            "assert time_averaged_entropy(p, [4], proto).n_samples == 50\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _site_profiles_at_16(proto_kw):
    out = []
    for g in (0.2, 0.25):
        p = _params(g, 16)
        try:
            out.append((g, profiles(p, AveragingProtocol.for_params(p, **proto_kw))))
        except NonConvergence as exc:
            out.append((g, exc.result))
    return out


def test_chunk_budget_of_one_sample_changes_nothing(monkeypatch):
    proto_kw = dict(initial_samples=60, batch_samples=40, max_samples=140,
                    rel_threshold=1e-3)
    cases = [(_params(g, 16), cut) for g in (0.2, 0.25) for cut in ([8], [0, 1, 2, 3])]
    chunked = []
    for p, cut in cases:
        proto = AveragingProtocol.for_params(p, **proto_kw)
        chunked.append(time_series(p, cut, subsystem_entropy_from_rows, proto))
    # at N = 32 a page chunk holds 16 samples, so the reference spans several
    page_params = _params(0.2, 32)
    page_proto = AveragingProtocol.for_params(page_params, initial_samples=60,
                                              rel_threshold=1.0)
    page = page_curve(page_params, page_proto)
    chunked_profiles = _site_profiles_at_16(proto_kw)
    monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 1)
    one_page = page_curve(page_params, page_proto)
    assert one_page.n_samples == page.n_samples
    assert np.max(np.abs(one_page.entropies - page.entropies) / page.entropies) <= 1e-14
    assert np.max(np.abs(one_page.stderrs - page.stderrs) / page.stderrs) <= 1e-14
    for (g, one), (_, ref) in zip(_site_profiles_at_16(proto_kw), chunked_profiles):
        assert one.n_samples == ref.n_samples
        assert np.max(np.abs(one.entropies - ref.entropies) / ref.entropies) <= 1e-14
        assert np.max(np.abs(one.stderrs - ref.stderrs) / ref.stderrs) <= 1e-14
        assert _block_gap(one.mean_blocks, ref.mean_blocks) <= 1e-14
    for (p, cut), ref in zip(cases, chunked):
        proto = AveragingProtocol.for_params(p, **proto_kw)
        one = time_series(p, cut, subsystem_entropy_from_rows, proto)
        assert one.n_samples == ref.n_samples
        assert np.max(np.abs(one.values - ref.values) / np.abs(ref.values)) <= 1e-14


@pytest.mark.parametrize("n", [8, 64, 256])
def test_rotated_map_matches_paired_row_formula(n):
    prop = build_propagator(_params(0.3, n))
    top, bot = prop.mode_map[0::2], prop.mode_map[1::2]
    for t in (0.0, 1.3, *AveragingProtocol.for_params(prop.params).times(0, 4), 1e4):
        cos_t = np.cos(prop.frequencies * t)[:, None]
        sin_t = np.sin(prop.frequencies * t)[:, None]
        expected = np.empty_like(prop.mode_map)
        expected[0::2] = cos_t * top + sin_t * bot
        expected[1::2] = cos_t * bot - sin_t * top
        assert np.array_equal(prop._rotated_map(t), expected)


def test_entropy_rows_stack_matches_scalar_calls():
    for g in (0.2, 0.25):
        p = _params(g, 10)
        prop = build_propagator(p)
        proto = AveragingProtocol.for_params(p)
        times = proto.times(0, 12)
        for cut in ([4], [0, 1, 2], [2, 5]):
            rows = quadrature_rows(cut)
            single = np.stack([prop.entropy_rows(t, cut) for t in times])
            if prop.frame is None:
                # on g == delta the rows are S(t) P
                half_turns = np.kron(np.eye(10), [[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
                dense = np.stack([dense_map(p, t) @ half_turns for t in times])[:, rows]
            else:
                # elsewhere they are F S(t)
                dense = np.stack([frame_matrix(prop.frame) @ dense_map(p, t) for t in times])[:, rows]
            stack = prop.entropy_rows(times, cut)
            assert stack.shape == (12, rows.size, 20)
            for ref in (single, dense):
                assert np.allclose(stack, ref, rtol=1e-10, atol=1e-12 * np.abs(ref).max())
            # sites out of order give the same site rows, reordered
            flipped = prop.entropy_rows(times, cut[::-1])
            reordered = stack.reshape(12, -1, 2, 20)[:, ::-1].reshape(stack.shape)
            assert np.allclose(flipped, reordered, rtol=0, atol=1e-13 * np.abs(stack).max())
            # spectrum takes times as entropy_rows does: one time, a list or an array
            nu = prop.spectrum(cut, times)[0]
            assert np.array_equal(prop.spectrum(cut, list(times))[0], nu)
            for i in (0, 7):
                one = prop.spectrum(cut, times[i:i + 1])[0]
                for form in (float(times[i]), [float(times[i])], np.float64(times[i])):
                    assert np.array_equal(prop.spectrum(cut, form)[0], one)
                assert np.allclose(one[0], nu[i], rtol=1e-10, atol=0)


def test_chunk_memory_is_bounded_and_views_are_copied(monkeypatch):
    def first(stack):
        return stack[:, 0, 0]

    # a reduce that returns a view of the rows keeps no chunk alive: 1,000
    # samples of 32 KiB rows stay within two chunk budgets
    p = _params(0.2, 64)
    build_propagator(p, None).mode_map   # the cached propagator is built before tracing
    proto = AveragingProtocol.for_params(p, initial_samples=1000, max_samples=1000)
    tracemalloc.start()
    try:
        result = time_series(p, range(16), first, proto)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_samples == 1000
    assert peak <= 2 * dynamics._CHUNK_BYTES
    # and gets the values of a copying one
    monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 16 * 20 * 8 * 2)
    for g in (0.2, 0.25):
        p = _params(g, 10)
        proto = AveragingProtocol.for_params(p, initial_samples=50, batch_samples=30,
                                             max_samples=110, rel_threshold=1e-9)
        for cut in ([4], [0, 1, 2]):
            shared = time_series(p, cut, first, proto)
            copied = time_series(p, cut, lambda stack: stack[:, 0, 0].copy(), proto)
            assert shared.n_samples == copied.n_samples == 110
            assert np.array_equal(shared.values, copied.values)


def test_average_inside_reduce_gets_its_own_values():
    p = _params(0.2, 10)
    proto = AveragingProtocol.for_params(p, initial_samples=40, rel_threshold=1.0)
    inner = []

    def nested(stack):
        first = stack[:, 0, 0]
        inner.append(time_series(p, [1], lambda s: s[:, 1, 3], proto).mean)
        return first

    got = time_series(p, [4], nested, proto)
    ref = time_series(p, [4], lambda stack: stack[:, 0, 0], proto)
    assert np.array_equal(got.values, ref.values)
    assert inner[0] == time_series(p, [1], lambda s: s[:, 1, 3], proto).mean


def test_subsystems_validated():
    p = _params(0.2, 8)
    with pytest.raises(DomainError, match="mode index 8 out of range"):
        time_averaged_entropy(p, [8])
    with pytest.raises(DomainError, match="mode index 0 listed more than once"):
        time_averaged_entropy(p, [0, 0])
    with pytest.raises(DomainError, match="mode index -1"):
        time_averaged_entropy(p, [-1, 2])
    # the public row and spectrum methods take the same check, on both routes
    times = AveragingProtocol.for_params(p).times(0, 2)
    for g in (0.2, 0.25):
        prop = build_propagator(_params(g, 8))
        for sites in ([], [-1], [2, 2], [8], [1.5]):
            for call in (lambda: prop.spectrum(sites, times), lambda: prop.entropy_rows(3.0, sites),
                         lambda: prop.subsystem_rows(3.0, sites)):
                with pytest.raises(DomainError):
                    call()


def test_non_integer_sites_rejected():
    p = _params(0.2, 8)
    with pytest.raises(DomainError, match="mode index 2.7 is not an integer"):
        site_indices([2.7, 0], 8)
    with pytest.raises(DomainError, match="not an integer"):
        time_averaged_entropy(p, [1.5])
    for entry in (log_correction, avg_site_correlators, epsilon4):
        with pytest.raises(DomainError, match="not an integer"):
            entry(p, 1.5)
    assert site_indices([2.0, 0], 8).tolist() == [2, 0]


def test_frame_block_entropies_match_row_route():
    # spectrum's block branch makes the calls of subsystem_entropy_from_rows; a cut of
    # more than N/2 sites takes its complement's spectrum, here site 0's Gram block
    for g in (0.0, 0.2, 0.3):
        p = _params(g, 32)
        proto = AveragingProtocol.for_params(p, initial_samples=60, rel_threshold=1.0)
        for cut in (range(8), [3, 17], range(1, 32)):
            got = time_averaged_entropy(p, cut, proto)
            if len(cut) > 16:
                ref = time_averaged_entropy(p, [0], proto)
            else:
                ref = time_series(p, cut, subsystem_entropy_from_rows, proto)
            assert got.n_samples == ref.n_samples == 60
            assert np.array_equal(got.values, ref.values)
