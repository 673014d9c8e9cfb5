"""Spectra and entropies of map rows and single-mode blocks, local decompositions."""
import math

import numpy as np
import pytest
from scipy.linalg import expm

from bkc.dynamics import SiteProfiles
from bkc.errors import DomainError, OverflowGuard
from bkc.gaussian import (
    LocalDecomposition,
    entropy_from_factor,
    entropy_from_gram,
    entropy_kernel,
    local_decompose,
    site_correlators,
    subsystem_entropy_from_rows,
    symplectic_eigenvalues_from_rows,
    symplectic_form,
)
from oracles import subsystem_entropy, symplectic_eigenvalues, symplectic_residual

RNG = np.random.default_rng(20260814)


def random_symplectic(n_modes, rng, scale=0.3):
    """exp(Omega A) with A symmetric is symplectic for the quadratic flow."""
    dim = 2 * n_modes
    a = rng.normal(scale=scale, size=(dim, dim))
    a = (a + a.T) / 2.0
    return expm(symplectic_form(n_modes) @ a)


def two_mode_squeezed(r):
    """Covariance of the two-mode squeezed vacuum built from its generator."""
    gen = np.zeros((4, 4))
    gen[0, 2] = gen[2, 0] = 1.0
    gen[1, 3] = gen[3, 1] = -1.0
    s = expm(r * gen)
    return s @ s.T


def test_vacuum_spectrum_all_ones():
    nus = symplectic_eigenvalues(np.eye(8))
    assert np.allclose(nus, 1.0, atol=1e-12)


def test_vacuum_subsystem_entropy_zero():
    sig = np.eye(10)
    for cut in ([0], [1, 3], [0, 1, 2, 3, 4]):
        assert subsystem_entropy(sig, cut) == pytest.approx(0.0, abs=1e-10)


def test_symplectic_form_blocks():
    om = symplectic_form(2)
    assert np.array_equal(om[:2, :2], np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.array_equal(om[2:, :2], np.zeros((2, 2)))
    assert np.array_equal(om, -om.T)


def test_two_mode_squeezed_single_mode_nu():
    r = 0.7
    sig = two_mode_squeezed(r)
    nus = symplectic_eigenvalues(sig, [0])
    assert nus.shape == (1,)
    assert nus[0] == pytest.approx(math.cosh(2 * r), rel=1e-12)


def test_diagonal_thermal_spectrum_reads_off():
    nbars = [0.0, 0.5, 3.0]
    sig = np.diag(np.repeat([2 * n + 1 for n in nbars], 2))
    nus = symplectic_eigenvalues(sig)
    assert np.allclose(nus, sorted(2 * n + 1 for n in nbars), atol=1e-12)


def test_entropy_kernel_values():
    assert entropy_kernel(1.0) == 0.0
    assert entropy_kernel(3.0) == pytest.approx(2 * math.log(2), rel=1e-14)
    # saturation eigenvalue g / sqrt(g^2 - delta^2) at g=0.3, delta=0.25
    nu_sat = 0.3 / math.sqrt(0.3**2 - 0.25**2)
    assert nu_sat == pytest.approx(1.8090680674665818, rel=1e-12)
    assert entropy_kernel(nu_sat) == pytest.approx(0.8432392273339276, rel=1e-12)


def test_entropy_kernel_clamps_noise_and_rejects_unphysical():
    assert entropy_kernel(1.0 - 5e-9) == 0.0
    with pytest.raises(DomainError):
        entropy_kernel(0.9)


def test_entropy_kernel_huge_argument():
    # ln(x/2) + 1 asymptote must survive arguments near the float ceiling
    x = 1e300
    assert entropy_kernel(x) == pytest.approx(math.log(x / 2) + 1.0, rel=1e-12)


def test_subsystem_entropy_complement_symmetry():
    s = random_symplectic(4, RNG)
    sig = s @ s.T
    for cut in ([0], [0, 2], [1, 2, 3]):
        comp = [j for j in range(4) if j not in cut]
        sa = subsystem_entropy(sig, cut)
        sb = subsystem_entropy(sig, comp)
        assert abs(sa - sb) <= 1e-6 * max(1.0, sa)


def test_chain_of_pairs_entropy_adds():
    r = 0.45
    pairs = 3
    blk = two_mode_squeezed(r)
    sig = np.zeros((4 * pairs, 4 * pairs))
    for k in range(pairs):
        sig[4 * k:4 * k + 4, 4 * k:4 * k + 4] = blk
    left = [2 * k for k in range(pairs)]
    expected = pairs * entropy_kernel(math.cosh(2 * r))
    assert subsystem_entropy(sig, left) == pytest.approx(expected, rel=1e-10)


def test_site_correlators_vacuum():
    n, m = site_correlators(np.eye(2))
    assert n == 0.0
    assert m == 0.0


def test_site_correlators_squeezed_vacuum():
    r = 0.6
    sig = np.diag([math.exp(-2 * r), math.exp(2 * r)])
    n, m = site_correlators(sig)
    assert n == pytest.approx(math.sinh(r) ** 2, rel=1e-12)
    assert abs(m) == pytest.approx(0.5 * math.sinh(2 * r), rel=1e-12)


def test_site_correlators_thermal_block():
    nbar = 2.5
    sig = np.diag([2 * nbar + 1, 2 * nbar + 1])
    n, m = site_correlators(sig)
    assert n == pytest.approx(nbar, rel=1e-12)
    assert m == 0.0


def test_site_correlators_phase_convention():
    # off-diagonal qp element feeds the imaginary part of m
    sig = np.array([[2.0, 0.5], [0.5, 2.0]])
    _, m = site_correlators(sig)
    assert m.imag == pytest.approx(0.25, rel=1e-12)


def test_site_correlators_take_a_stack_of_blocks():
    s = random_symplectic(3, RNG)
    sig = s @ s.T
    blocks = np.stack([sig[2 * j:2 * j + 2, 2 * j:2 * j + 2] for j in range(3)])
    occs, pairs = site_correlators(blocks)
    for j in range(3):
        n, m = site_correlators(blocks[j])
        assert occs[j] == n and pairs[j] == m
    for bad in (np.eye(4), np.ones(2), np.ones((3, 2, 3))):
        with pytest.raises(ValueError):
            site_correlators(bad)


def test_site_correlators_give_the_block_spectrum():
    # nu^2 = (2n + 1)^2 - 4|m|^2 of a single mode, against the eigen-route
    for _ in range(25):
        s = random_symplectic(3, RNG)
        sig = s @ s.T
        for j in range(3):
            n, m = site_correlators(sig[2 * j:2 * j + 2, 2 * j:2 * j + 2])
            direct = symplectic_eigenvalues(sig, [j])[0]
            nu = math.sqrt((2 * n + 1) ** 2 - 4 * abs(m) ** 2)
            assert nu == pytest.approx(direct, abs=1e-10 * direct)


def test_thermal_entropy_values():
    # SiteProfiles' thermal proxy at n = 0, 1, 10 and a rounding-negative occupation
    occupations = np.array([0.0, 1.0, 10.0, -1e-6])
    prof = SiteProfiles(entropies=np.zeros(4), stderrs=np.zeros(4), occupations=occupations,
                        pair_amplitudes=np.zeros(4, dtype=complex),
                        mean_blocks=np.zeros((4, 2, 2)), n_samples=1, converged=True)
    s_thermal = prof.thermal_entropies()
    assert s_thermal[0] == 0.0
    assert s_thermal[1] == pytest.approx(2 * math.log(2), rel=1e-14)
    nbar = 10.0
    assert s_thermal[2] == pytest.approx(nbar * math.log1p(1 / nbar) + math.log1p(nbar),
                                         rel=1e-14)
    assert s_thermal[3] == 0.0


def test_local_decompose_identity():
    dec = local_decompose(np.eye(2))
    assert dec.z == pytest.approx(0.0, abs=1e-14)
    assert dec.beta == pytest.approx(0.0, abs=1e-14)


def test_local_decompose_squeezed_vacuum():
    r = 0.35
    dec = local_decompose(np.diag([math.exp(-2 * r), math.exp(2 * r)]))
    assert dec.z == pytest.approx(r, rel=1e-12)
    assert dec.beta == pytest.approx(0.0, abs=1e-13)


def test_local_decompose_thermal():
    dec = local_decompose(np.diag([3.0, 3.0]))
    assert dec.z == pytest.approx(0.0, abs=1e-14)
    assert dec.beta == pytest.approx(0.5 * math.log(3), rel=1e-13)


def test_local_decompose_reconstructs_random_blocks():
    for _ in range(30):
        s = random_symplectic(1, RNG, scale=0.8)
        blk = (s @ s.T) * math.exp(RNG.uniform(0.0, 2.0))
        dec = local_decompose(blk)
        assert np.max(np.abs(dec.reconstruct() - blk)) <= 1e-9 * max(
            1.0, np.max(np.abs(blk))
        )
        assert math.exp(2 * dec.beta) == pytest.approx(
            symplectic_eigenvalues(blk)[0], rel=1e-10
        )


def test_local_decompose_rejects_non_positive():
    with pytest.raises(DomainError):
        local_decompose(np.diag([1.0, -1.0]))


def test_local_squeezer_keeps_vacuum_sites_pure():
    r = 1.1
    sq = np.eye(6)
    sq[2:4, 2:4] = np.diag([math.exp(-r), math.exp(r)])
    out = sq @ np.eye(6) @ sq.T
    for j in range(3):
        assert subsystem_entropy(out, [j]) == pytest.approx(0.0, abs=1e-9)


def test_symplectic_spectrum_invariance():
    for _ in range(10):
        s0 = random_symplectic(3, RNG)
        sig = s0 @ s0.T
        ref = symplectic_eigenvalues(sig)
        s = random_symplectic(3, RNG)
        moved = s @ sig @ s.T
        assert np.allclose(symplectic_eigenvalues(moved), ref, atol=1e-9 * ref.max())
        assert symplectic_residual(s) <= 1e-10


def test_local_symplectic_invariance_of_entropy():
    # per-site symplectics inside or outside the cut leave the entropy alone
    s0 = random_symplectic(4, RNG)
    sig = s0 @ s0.T
    cut = [0, 2]
    ref = subsystem_entropy(sig, cut)
    local = np.eye(8)
    for j in range(4):
        sj = random_symplectic(1, RNG, scale=0.6)
        local[2 * j:2 * j + 2, 2 * j:2 * j + 2] = sj
    moved = local @ sig @ local.T
    assert subsystem_entropy(moved, cut) == pytest.approx(ref, abs=1e-9 * max(1.0, ref))


def test_uncertainty_floor_on_constructed_states():
    for _ in range(10):
        s = random_symplectic(3, RNG, scale=0.7)
        nus = symplectic_eigenvalues(s @ s.T)
        assert nus.min() >= 1.0 - 1e-8


def test_local_decomposition_fields_roundtrip():
    dec = LocalDecomposition(z=0.2, beta=0.1, theta=0.3)
    blk = dec.reconstruct()
    back = local_decompose(blk)
    assert back.z == pytest.approx(0.2, rel=1e-10)
    assert back.beta == pytest.approx(0.1, rel=1e-10)
    assert back.theta == pytest.approx(0.3, rel=1e-9)


def test_rows_spectrum_matches_eig_route():
    for _ in range(10):
        s = random_symplectic(4, RNG)
        for cut in ([0], [0, 1], [0, 1, 2], [1, 3]):
            rows = s[np.sort(np.concatenate([[2 * j, 2 * j + 1] for j in cut]))]
            ref = symplectic_eigenvalues(rows @ rows.T)
            got = symplectic_eigenvalues_from_rows(rows)
            assert np.allclose(got, ref, atol=1e-10 * max(1.0, ref.max()))
            assert subsystem_entropy_from_rows(rows) == pytest.approx(
                subsystem_entropy(rows @ rows.T), abs=1e-9
            )


def test_rows_spectrum_full_system_williamson():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(8, 8))
    a = (a + a.T) / 2.0
    smat = expm(symplectic_form(4) @ a * 0.3)
    nus_in = np.array([1.0, 1.0 + 1e-7, 2.5, 40.0])
    rows = smat @ np.kron(np.diag(np.sqrt(nus_in)), np.eye(2))
    out = symplectic_eigenvalues_from_rows(rows)
    assert np.allclose(out, nus_in, rtol=1e-12)


def test_rows_spectrum_survives_large_local_scaling():
    # local squeezing inflates the block entries far past sqrt(1/eps) while
    # the spectrum stays cosh(2r); forming R R^T first loses it, the rows
    # route does not
    r, z, th = 0.7, 12.0, 0.3
    gen = np.zeros((4, 4))
    gen[0, 2] = gen[2, 0] = 1.0
    gen[1, 3] = gen[3, 1] = -1.0
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    local = rot @ np.diag([math.exp(-z), math.exp(z)]) @ rot.T
    rows = local @ expm(r * gen)[:2]
    want = math.cosh(2 * r)
    assert np.max(np.abs(rows @ rows.T)) > 1e10
    nu = symplectic_eigenvalues_from_rows(rows)[0]
    assert nu == pytest.approx(want, rel=1e-4)
    nu_squared_route = symplectic_eigenvalues(rows @ rows.T)[0]
    assert abs(nu_squared_route - want) / want > 1e-2
    assert subsystem_entropy_from_rows(rows) == pytest.approx(
        entropy_kernel(want), rel=1e-4
    )


def test_rows_entropy_empty_and_validation():
    assert subsystem_entropy_from_rows(np.zeros((0, 8))) == 0.0
    with pytest.raises(ValueError):
        symplectic_eigenvalues_from_rows(np.zeros((3, 8)))
    with pytest.raises(ValueError):
        symplectic_eigenvalues_from_rows(np.zeros((4, 2)))


def test_rows_entropy_rejects_unphysical():
    with pytest.raises(DomainError):
        subsystem_entropy_from_rows(0.5 * np.eye(2))


def test_factor_entropy_matches_rows_and_checks_floor():
    rows = np.stack([random_symplectic(4, RNG)[:4] for _ in range(5)])
    t_mat = np.linalg.qr(np.swapaxes(rows, -1, -2), mode="r")
    # the QR of T^T returns T unchanged, so both entries see the same factor
    assert np.array_equal(entropy_from_factor(t_mat),
                          subsystem_entropy_from_rows(np.swapaxes(t_mat, -1, -2)))
    assert np.allclose(entropy_from_factor(t_mat), subsystem_entropy_from_rows(rows),
                       rtol=1e-13, atol=0.0)
    with pytest.raises(DomainError):
        entropy_from_factor(0.5 * np.eye(4)[None])


def test_gram_entropy_matches_rows_and_checks_floor():
    rows = np.stack([random_symplectic(3, RNG)[2:4] for _ in range(5)])
    blocks = rows @ np.swapaxes(rows, -1, -2)
    assert np.allclose(entropy_from_gram(blocks), subsystem_entropy_from_rows(rows),
                       rtol=1e-13, atol=0.0)
    with pytest.raises(DomainError):
        entropy_from_gram(np.stack([0.25 * np.eye(2)] * 3))


def test_spectra_past_sqrt_of_float_range():
    # nu = 1e200: det sigma = nu^2 is past float range, det(sigma / tr) is not
    assert entropy_from_gram(1e200 * np.eye(2)[None]) == pytest.approx(
        [entropy_kernel(1e200)], rel=1e-14)
    # nu = 1e280 per mode stays in range on the row route
    wide = 1e140 * np.eye(4)
    assert subsystem_entropy_from_rows(wide) == pytest.approx(
        2 * entropy_kernel(1e280), rel=1e-14)
    # past it the row route stops before the SVD, with no floating-point warning
    for rows in (1e200 * np.eye(2, 4), 1e160 * np.eye(4), 1e160 * np.eye(4)[None]):
        with pytest.raises(OverflowGuard, match="spectrum overflowed"):
            subsystem_entropy_from_rows(rows)


def test_stacked_rows_entropy_matches_per_block_calls():
    for cut in ([1], [0, 1], [0, 2, 3]):
        idx = np.sort(np.concatenate([[2 * j, 2 * j + 1] for j in cut]))
        stack = np.stack([random_symplectic(5, RNG)[idx] for _ in range(7)])
        single = np.array([subsystem_entropy_from_rows(blk) for blk in stack])
        batched = subsystem_entropy_from_rows(stack)
        assert batched.shape == (7,)
        if len(cut) == 1:
            assert np.allclose(batched, single, rtol=1e-14, atol=0.0)
        else:
            assert np.array_equal(batched, single)
            nus = symplectic_eigenvalues_from_rows(stack)
            assert np.array_equal(nus, [symplectic_eigenvalues_from_rows(b) for b in stack])


def test_single_mode_nu_without_svd_matches_block_spectrum():
    for _ in range(10):
        rows = random_symplectic(4, RNG)[2:4]
        assert symplectic_eigenvalues_from_rows(rows)[0] == pytest.approx(
            symplectic_eigenvalues(rows @ rows.T)[0], rel=1e-12
        )


def test_stacked_rows_floor_checked_per_block():
    good = random_symplectic(3, RNG)[:2]
    stack = np.stack([good, 0.5 * np.eye(2, 6)])
    with pytest.raises(DomainError):
        subsystem_entropy_from_rows(stack)
    assert subsystem_entropy_from_rows(np.zeros((3, 0, 6))).shape == (3,)
