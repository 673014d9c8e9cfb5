"""Quench propagation: route cross-checks, purity, averaging protocol."""
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bkc import dynamics
from bkc.dynamics import (
    AveragingProtocol,
    PropagationMode,
    Propagator,
    build_propagator,
    evolve,
    fluctuation_ratio,
    lab_exponential_evolve,
    page_curve,
    profiles,
    series_fluctuation_ratio,
    time_averaged_entropy,
    time_series,
)
from bkc.errors import DomainError, NonConvergence, OverflowGuard
from bkc.gaussian import (
    quadrature_indices,
    site_correlators,
    subsystem_entropy_from_rows,
    symplectic_eigenvalues,
    symplectic_residual,
)
from bkc.model import (
    ModelParams,
    frame_hopping_sign,
    squeezing_frame,
    tight_binding_spectrum,
)

OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _params(g, n, w=1.0, delta=0.25):
    return ModelParams(w=w, delta=delta, g=g, n_sites=n)


def _dephased_covariance(params):
    """Exact infinite-time average of sigma(t): drop all oscillating blocks.

    In the normal-mode frame the evolved covariance is B(t) X B(t)^T with
    X = G G^T and B(t) independent 2x2 rotations at the tight-binding
    frequencies. Averaging kills every block except the stationary
    combinations: both frequencies zero, equal frequencies (a == b), and
    opposite frequencies (the mirror pair a + b == n - 1).
    """
    n = params.n_sites
    frame = squeezing_frame(params)
    spec = tight_binding_spectrum(params)
    psi2 = np.kron(spec.modes, np.eye(2))
    g_mat = psi2 @ frame.matrix()
    g_inv = frame.inverse_matrix() @ psi2.T
    x = g_mat @ g_mat.T
    freqs = frame_hopping_sign(frame) * params.hopping * np.cos(
        np.pi * np.arange(1, n + 1) / (n + 1)
    )
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
    return g_inv @ avg @ g_inv.T


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


def test_build_propagator_mode_selection():
    assert build_propagator(_params(0.2, 8)).mode is PropagationMode.FRAME_EXACT
    assert build_propagator(_params(0.25, 8)).mode is PropagationMode.FRAME_EXACT
    assert build_propagator(_params(0.25, 8)).frame is None
    assert build_propagator(_params(0.2, 8)) is build_propagator(_params(0.2, 8))


def test_frame_route_matches_matrix_exponential():
    for n in (7, 32):
        for g in (0.0, 0.2, 0.3):
            p = _params(g, n)
            t = 3.7
            sig_frame = evolve(p, t, PropagationMode.FRAME_EXACT).data
            sig_lab = lab_exponential_evolve(p, t).data
            scale = np.max(np.abs(sig_lab))
            assert np.max(np.abs(sig_frame - sig_lab)) <= 1e-9 * scale


def test_symplectic_map_basics():
    p = _params(0.2, 6)
    prop = build_propagator(p)
    assert np.array_equal(prop.symplectic(0.0), np.eye(12))
    s = prop.symplectic(5.3)
    assert symplectic_residual(s) <= 1e-10
    rows = quadrature_indices([1, 4])
    assert np.allclose(prop.subsystem_rows(5.3, rows), s[rows], atol=1e-12)
    w = prop.entropy_map(5.3)
    assert np.allclose(prop.entropy_rows(5.3, rows), w[rows], atol=1e-12)


def test_entropy_map_reproduces_lab_entropies():
    # the entropy frame differs from the lab by per-site symplectics only
    p = _params(0.2, 9)
    prop = build_propagator(p)
    for t in (2.3, 11.0, 47.7):
        for cut in ([0], [4], [0, 1, 2], list(range(6))):
            rows = quadrature_indices(cut)
            s_lab = subsystem_entropy_from_rows(prop.subsystem_rows(t, rows))
            s_frame = subsystem_entropy_from_rows(prop.entropy_rows(t, rows))
            assert s_frame == pytest.approx(s_lab, abs=1e-8)


def test_evolved_state_stays_pure():
    crit = _params(0.25, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        nus = symplectic_eigenvalues(evolve(crit, 50.0).data)
    assert np.max(np.abs(nus - 1.0)) <= 1e-9
    nus = symplectic_eigenvalues(evolve(_params(0.2, 11), 30.0).data)
    assert np.max(np.abs(nus - 1.0)) <= 1e-9


def test_overflow_guard_on_extreme_times():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(OverflowGuard):
            lab_exponential_evolve(_params(0.25, 16), 1e30)


def test_mode_occupations_conserved_after_quench():
    p = _params(0.2, 9)
    prop = build_propagator(p)
    spec = tight_binding_spectrum(p)
    psi2 = np.kron(spec.modes, np.eye(2))
    occs = []
    for t in (0.0, 3.1, 17.9, 64.2):
        bg = psi2 @ prop.entropy_map(t)
        occs.append(
            [site_correlators(bg[2 * k:2 * k + 2] @ bg[2 * k:2 * k + 2].T, 0)[0]
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
    lab = build_propagator(p, PropagationMode.LAB_EXPONENTIAL)
    rows = quadrature_indices([0, 1])
    r_lab = [subsystem_entropy_from_rows(lab.symplectic(t)[rows])
             for t in proto.times(0, r_frame.n_samples)]
    assert np.allclose(r_frame.values, r_lab, atol=1e-8)


def _held_bytes(prop):
    return sum(v.nbytes for v in vars(prop).values() if isinstance(v, np.ndarray))


def test_frame_propagator_holds_one_dense_map():
    n = 64
    prop = build_propagator(_params(0.3, n))
    prop.mode_map  # built at the first block request
    assert _held_bytes(prop) <= 1.3 * (2 * n) ** 2 * 8


def test_site_rows_match_full_map():
    for g in (0.0, 0.2, 0.3):
        for n in (8, 64, 512):
            prop = build_propagator(_params(g, n))
            proto = AveragingProtocol.for_params(prop.params)
            times = np.array([proto.t_min, proto.time(777)])
            full = [prop.entropy_map(t) for t in times]
            for site in (0, n // 2, n - 1):
                rows = quadrature_indices([site])
                stack = prop.entropy_rows(times, rows)
                for got, ref in zip(stack, full):
                    ref = ref[rows]
                    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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


def test_fluctuation_ratio_matches_series():
    p = _params(0.2, 6)
    proto = AveragingProtocol(t_min=60.0, dt=7.3, initial_samples=50,
                              batch_samples=20, max_samples=100, rel_threshold=1.0)
    result = time_averaged_entropy(p, [0], proto)
    assert fluctuation_ratio(p, [0], proto) == pytest.approx(
        series_fluctuation_ratio(result.values), rel=1e-12
    )


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


@pytest.mark.parametrize("n", [8, 16])
def test_critical_page_curve_matches_dense_expm(n):
    p = _params(0.25, n)
    proto = AveragingProtocol.for_params(p, initial_samples=120, batch_samples=60,
                                         max_samples=240, rel_threshold=1e-3)
    prop = build_propagator(p, PropagationMode.LAB_EXPONENTIAL)
    dense = np.array([[subsystem_entropy_from_rows(lab_map[:2 * l]) for l in range(1, n)]
                      for lab_map in map(prop.symplectic, proto.times(0, proto.max_samples))])
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
    sig_bar = _dephased_covariance(p)
    for j in range(10):
        occ_exact, _ = site_correlators(sig_bar, j)
        assert prof.occupations[j] == pytest.approx(occ_exact, rel=0.06)
        blk_exact = sig_bar[2 * j:2 * j + 2, 2 * j:2 * j + 2]
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
    prop = build_propagator(p, PropagationMode.LAB_EXPONENTIAL)
    maps = [prop.symplectic(t) for t in proto.times(0, proto.max_samples)]
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
    assert np.array_equal(sig.data, np.eye(10))


@pytest.mark.parametrize("n", [32, 64])
def test_critical_stepped_rows_match_dense_expm(n):
    # g == delta: the averages take the closed-form rows; the oracle takes a
    # dense expm at every grid time
    p = _params(0.25, n)
    proto = AveragingProtocol.for_params(p, initial_samples=120, batch_samples=60,
                                         max_samples=240, rel_threshold=2e-3)
    prop = build_propagator(p, PropagationMode.LAB_EXPONENTIAL)
    cuts = ([n // 2], list(range(n // 4)))
    dense = np.array([
        [subsystem_entropy_from_rows(lab_map[quadrature_indices(cut)]) for cut in cuts]
        for lab_map in map(prop.symplectic, proto.times(0, proto.max_samples))
    ])
    for i, cut in enumerate(cuts):
        ref, ref_converged = dynamics._converge_series(
            lambda k0, k1: dense[k0:k1, i], proto)
        got = time_series(p, cut, subsystem_entropy_from_rows, proto)
        assert got.n_samples == ref.size and got.converged == ref_converged
        assert np.max(np.abs(got.values - ref) / np.abs(ref)) <= 1e-10


@pytest.mark.parametrize("n", [8, 32, 96])
def test_expm_matches_scipy(n):
    import scipy.linalg

    p = _params(0.25, n)
    prop = build_propagator(p, PropagationMode.LAB_EXPONENTIAL)
    proto = AveragingProtocol.for_params(p)
    for t in (proto.dt, proto.t_min, proto.time(1000)):
        mine = dynamics._expm(prop.generator * t)
        ref = scipy.linalg.expm(prop.generator * t)
        assert np.linalg.norm(mine - ref) / np.linalg.norm(ref) <= 1e-10
        assert symplectic_residual(mine) <= 1e-12


@pytest.mark.parametrize("n", [8, 32, 96])
def test_critical_map_matches_expm(n):
    import scipy.linalg

    p = _params(0.25, n)
    prop = build_propagator(p)
    generator = build_propagator(p, PropagationMode.LAB_EXPONENTIAL).generator
    proto = AveragingProtocol.for_params(p)
    for t in (proto.dt, proto.t_min, proto.time(1000)):
        mine = prop.symplectic(t)
        ref = scipy.linalg.expm(generator * t)
        assert np.linalg.norm(mine - ref) / np.linalg.norm(ref) <= 1e-10
        assert symplectic_residual(mine) <= 1e-12


def test_critical_averages_never_exponentiate(monkeypatch):
    def refuse(mat):
        raise AssertionError("matrix exponential on the sampling path")

    monkeypatch.setattr(dynamics, "_expm", refuse)
    p = _params(0.25, 12)
    proto = AveragingProtocol.for_params(p, initial_samples=20, rel_threshold=1.0)
    for cut in ([6], [0, 1, 2]):
        assert time_series(p, cut, subsystem_entropy_from_rows, proto).n_samples == 20
    assert page_curve(p, proto).n_samples == 20
    assert profiles(p, proto).n_samples == 20


def test_step_matrix_at_512_sites_has_no_subnormals():
    p = _params(0.25, 512)
    generator = Propagator(p, PropagationMode.LAB_EXPONENTIAL).generator
    step = dynamics._expm(generator * AveragingProtocol.for_params(p).dt)
    magnitude = np.abs(step)
    assert np.count_nonzero((magnitude > 0) & (magnitude < np.finfo(float).tiny)) == 0


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
        lab = build_propagator(p, PropagationMode.LAB_EXPONENTIAL)
        proto = AveragingProtocol.for_params(p)
        times = proto.times(0, 12)
        for cut in ([4], [0, 1, 2], [2, 5]):
            rows = quadrature_indices(cut)
            single = np.stack([prop.entropy_rows(t, rows) for t in times])
            if prop.frame is None:
                # on g == delta the rows are S(t) P
                half_turns = np.kron(np.eye(10), [[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
                dense = np.stack([lab.symplectic(t) @ half_turns for t in times])[:, rows]
            else:
                # elsewhere they are F S(t)
                dense = np.stack([prop.frame.matrix() @ lab.symplectic(t) for t in times])[:, rows]
            stack = prop.entropy_rows(times, rows)
            assert stack.shape == (12, rows.size, 20)
            for ref in (single, dense):
                assert np.allclose(stack, ref, rtol=1e-10, atol=1e-12 * np.abs(ref).max())
            # rows out of site order are the same rows, reordered
            flipped = prop.entropy_rows(times, rows[::-1].copy())
            assert np.allclose(flipped, stack[:, ::-1], rtol=0, atol=1e-13 * np.abs(stack).max())


def test_entropy_rows_fill_out_bit_for_bit():
    for g in (0.2, 0.25):
        p = _params(g, 10)
        prop = build_propagator(p, None)
        proto = AveragingProtocol.for_params(p)
        times = proto.times(0, 12)
        for cut in ([4], [0, 1, 2]):
            rows = quadrature_indices(cut)
            out = np.full((12, rows.size, 20), np.nan)
            stack = prop.entropy_rows(times, rows, out=out)
            assert stack is out
            assert np.array_equal(out, prop.entropy_rows(times, rows))
        with pytest.raises(ValueError, match="C-contiguous"):
            prop.entropy_rows(times, rows, out=np.empty((12, 20, rows.size)).T)


def test_averages_share_one_rows_buffer(monkeypatch):
    # every chunk of every average writes its rows into the same memory, and a
    # reduce that returns a view of them still gets its own values back
    monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 16 * 20 * 8 * 2)
    addresses = set()

    def view(stack):
        addresses.add(stack.__array_interface__["data"][0])
        return stack[:, 0, 0]

    for g in (0.2, 0.25):
        p = _params(g, 10)
        proto = AveragingProtocol.for_params(p, initial_samples=50, batch_samples=30,
                                             max_samples=110, rel_threshold=1e-9)
        for cut in ([4], [0, 1, 2]):
            shared = time_series(p, cut, view, proto)
            copied = time_series(p, cut, lambda stack: stack[:, 0, 0].copy(), proto)
            assert shared.n_samples == copied.n_samples == 110
            assert np.array_equal(shared.values, copied.values)
    assert len(addresses) == 1


def test_average_inside_reduce_gets_its_own_rows_buffer():
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

