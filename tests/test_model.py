"""Chain parameters, BdG matrices, squeezing frame, tight-binding spectra."""
import dataclasses
import math

import numpy as np
import pytest

from bkc.dynamics import evolve
from bkc.errors import CriticalFrameUndefined
from bkc.gaussian import symplectic_form
from bkc.model import (
    ModelParams,
    PhaseRegime,
    bdg_matrices,
    classify_phase,
    squeezing_frame,
    tight_binding_spectrum,
)
from oracles import (
    dynamical_spectrum,
    frame_inverse_matrix,
    frame_matrix,
    periodic_bdg,
    symplectic_residual,
    validate_frame,
)


def test_classify_phase():
    assert classify_phase(ModelParams(1.0, 0.25, 0.2, 8)) is PhaseRegime.NONRECIPROCAL
    assert classify_phase(ModelParams(1.0, 0.25, 0.25, 8)) is PhaseRegime.CRITICAL
    assert classify_phase(ModelParams(1.0, 0.25, 0.3, 8)) is PhaseRegime.RECIPROCAL


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(w=0.2, delta=0.25, g=0.0, n_sites=8)  # w < delta
    with pytest.raises(ValueError):
        ModelParams(w=0.25, delta=0.25, g=0.0, n_sites=8)  # w == delta
    with pytest.raises(ValueError):
        ModelParams(w=1.0, delta=0.25, g=-0.1, n_sites=8)
    with pytest.raises(ValueError):
        ModelParams(w=1.0, delta=0.25, g=0.0, n_sites=1)
    with pytest.raises(ValueError):
        ModelParams(w=float("nan"), delta=0.25, g=0.0, n_sites=8)


def test_bdg_matrices_structure():
    p = ModelParams(w=1.0, delta=0.25, g=0.1, n_sites=5)
    h, omega = bdg_matrices(p)
    assert np.array_equal(h, h.T)
    assert np.array_equal(omega, -omega.T)
    assert np.array_equal(omega @ omega, -np.eye(10))
    assert np.array_equal(omega, symplectic_form(5))


def test_generator_number_conserving_limit():
    # g = delta = 0 leaves only the w term: qdot couples to neighbour q's and
    # pdot to neighbour p's is forbidden; each quadrature couples only to the
    # opposite quadrature's neighbours through h, i.e. q rows of Omega h stay
    # inside the q sector.
    p = ModelParams(w=1.0, delta=0.0, g=0.0, n_sites=6)
    h, omega = bdg_matrices(p)
    m = omega @ h
    n = p.n_sites
    q_idx = [2 * j for j in range(n)]
    p_idx = [2 * j + 1 for j in range(n)]
    assert np.all(m[np.ix_(q_idx, p_idx)] == 0)
    assert np.all(m[np.ix_(p_idx, q_idx)] == 0)
    for j in range(n - 1):
        assert m[2 * j, 2 * (j + 1)] != 0.0


def test_generator_row_entries_match_equations_of_motion():
    w, delta = 1.0, 0.25
    p = ModelParams(w=w, delta=delta, g=0.0, n_sites=4)
    h, omega = bdg_matrices(p)
    m = omega @ h
    for j in range(1, 3):
        row = m[2 * j]
        assert row[2 * (j - 1)] == pytest.approx((w + delta) / 2, rel=1e-15)
        assert row[2 * (j + 1)] == pytest.approx(-(w - delta) / 2, rel=1e-15)


def test_generator_matches_finite_difference_derivative():
    p = ModelParams(w=1.0, delta=0.2, g=0.35, n_sites=3)
    h, omega = bdg_matrices(p)
    m = omega @ h
    eps = 1e-5
    plus = evolve(p, eps)
    minus = evolve(p, -eps)
    dot = (plus - minus) / (2 * eps)
    expected = m + m.T  # sigma(0) = identity
    assert np.max(np.abs(dot - expected)) < 1e-6


def test_periodic_boundary_adds_wraparound_bond():
    p = ModelParams(w=1.0, delta=0.25, g=0.1, n_sites=5)
    h_open, _ = bdg_matrices(p)
    h_per, _ = periodic_bdg(p)
    wrap = h_per - h_open
    assert np.any(wrap[8:10, 0:2] != 0)
    assert np.all(wrap[2:8, 2:8] == 0)


def test_frame_nonreciprocal_constants():
    p = ModelParams(w=1.0, delta=0.25, g=0.0, n_sites=8)
    f = squeezing_frame(p)
    assert f.r0 == 0.0
    assert f.phi == pytest.approx(math.pi / 2, rel=1e-15)
    assert f.r == pytest.approx(0.5 * math.log(5 / 3), rel=1e-14)
    assert f.r == pytest.approx(0.25541281188299536, rel=1e-14)


def test_frame_zero_pairing_is_rotation_only():
    p = ModelParams(w=1.0, delta=0.0, g=0.5, n_sites=6)
    f = squeezing_frame(p)
    assert f.r0 == 0.0
    assert f.r == 0.0
    assert f.phi == pytest.approx(math.atan(2.0), rel=1e-14)


def test_frame_reciprocal_constants():
    p = ModelParams(w=1.0, delta=0.25, g=0.3, n_sites=8)
    f = squeezing_frame(p)
    assert f.r0 == pytest.approx(0.5 * math.atanh(0.25 / 0.3), rel=1e-14)
    assert f.r == 0.0
    assert f.phi == pytest.approx(math.atan2(1.0, math.sqrt(0.3**2 - 0.25**2)), rel=1e-14)


def test_frame_undefined_at_critical_point():
    with pytest.raises(CriticalFrameUndefined):
        squeezing_frame(ModelParams(w=1.0, delta=0.25, g=0.25, n_sites=8))
    # g = delta = 0 sits on the critical line under the exact-equality rule
    with pytest.raises(CriticalFrameUndefined):
        squeezing_frame(ModelParams(w=1.0, delta=0.0, g=0.0, n_sites=8))


def test_frame_factors_are_symplectic():
    for g in (0.0, 0.1, 0.4):
        p = ModelParams(w=1.0, delta=0.25, g=g, n_sites=9)
        f = squeezing_frame(p)
        for j in range(p.n_sites):
            assert symplectic_residual(f.site_factors[j]) < 1e-12


def test_frame_global_matrix_symplectic():
    p = ModelParams(w=1.0, delta=0.25, g=0.1, n_sites=8)
    f = squeezing_frame(p)
    assert symplectic_residual(frame_matrix(f)) < 1e-10
    ident = frame_matrix(f) @ frame_inverse_matrix(f)
    assert np.max(np.abs(ident - np.eye(16))) < 1e-10


def test_validate_frame_reference_point():
    p = ModelParams(w=1.0, delta=0.25, g=0.0, n_sites=8)
    assert validate_frame(squeezing_frame(p)) < 1e-10


def test_validate_frame_grid():
    for delta in (0.1, 0.25):
        for g in (0.0, 0.1, 0.2, 0.3, 0.5):
            if g == delta:
                continue
            for n in (4, 8, 16):
                p = ModelParams(w=1.0, delta=delta, g=g, n_sites=n)
                assert validate_frame(squeezing_frame(p)) < 1e-10, (delta, g, n)


def test_validate_frame_detects_corruption():
    p = ModelParams(w=1.0, delta=0.25, g=0.1, n_sites=6)
    f = squeezing_frame(p)
    bad = f.site_factors.copy()
    bad[2] = bad[2] @ np.diag([math.exp(0.7), math.exp(-0.7)])
    broken = dataclasses.replace(f, site_factors=bad)
    assert validate_frame(broken) > 0.1


def test_tight_binding_hopping_amplitude():
    p = ModelParams(w=1.0, delta=0.25, g=0.0, n_sites=8)
    assert p.hopping == pytest.approx(math.sqrt(0.9375), rel=1e-15)
    assert p.hopping == pytest.approx(0.9682458365518543, rel=1e-15)
    tb = tight_binding_spectrum(p)
    assert tb.hopping == p.hopping


def test_tight_binding_energies_n3():
    p = ModelParams(w=1.0, delta=0.25, g=0.0, n_sites=3)
    tb = tight_binding_spectrum(p)
    assert abs(tb.energies[1]) <= 4e-16 * tb.hopping  # cos(pi/2) in floats
    assert tb.energies[0] == pytest.approx(-1.3693063937629153, rel=1e-14)
    assert tb.energies[0] == pytest.approx(-2 * p.hopping * math.cos(math.pi / 4), rel=1e-14)


def test_tight_binding_spectrum_symmetry_and_orthogonality():
    p = ModelParams(w=1.0, delta=0.25, g=0.2, n_sites=12)
    tb = tight_binding_spectrum(p)
    assert np.allclose(tb.energies, -tb.energies[::-1], atol=1e-14)
    gram = tb.modes @ tb.modes.T
    assert np.max(np.abs(gram - np.eye(12))) < 1e-12


def test_dynamical_spectrum_open_chain_is_oscillatory():
    # open-boundary generator eigenvalues are purely imaginary pairs +-i lam,
    # i.e. the frequencies lam are real, for any g
    for g in (0.0, 0.2, 0.3):
        p = ModelParams(w=1.0, delta=0.25, g=g, n_sites=16)
        vals = dynamical_spectrum(p)
        assert np.max(np.abs(vals.real)) < 1e-8


def test_dynamical_spectrum_periodic_nonreciprocal_winds():
    p = ModelParams(w=1.0, delta=0.25, g=0.0, n_sites=16)
    vals = dynamical_spectrum(p, periodic=True)
    assert np.max(np.abs(vals.real)) > 0.01


def test_dynamical_spectrum_matches_standing_wave_frequencies():
    # mode frequencies are J cos(pi n/(N+1)): half the advertised band labels
    for g in (0.0, 0.3):
        p = ModelParams(w=1.0, delta=0.25, g=g, n_sites=10)
        vals = dynamical_spectrum(p)
        tb = tight_binding_spectrum(p)
        freqs = np.sort(np.abs(tb.energies / 2.0))
        got = np.sort(np.abs(vals.imag))
        assert np.allclose(got, np.repeat(freqs, 2), atol=1e-8)
