import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amnm.algebra import build_commutative_algebra, build_full_matrix_algebra, direct_sum
from amnm.errors import DomainError, PreconditionError
from amnm.multilinear import LinearMap, defect
from amnm.perturbation import (
    absorption_check,
    clone_constant,
    corner_restriction,
    dichotomy_roots,
    equivalent_projection_check,
    norm_dichotomy_check,
    orthogonal_family_scan,
    small_on_identity,
)
from amnm.rng import complex_gaussian, stream


def _bisect_fixed_point(c):
    """Independent oracle: smallest root of u = u^2 + c by bisection."""
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - mid * mid - c >= 0:
            hi = mid
        else:
            lo = mid
    return hi


def test_dichotomy_roots_frozen_values():
    u1, u2, bound = dichotomy_roots(0.1)
    assert u1 == pytest.approx(_bisect_fixed_point(0.1), abs=1e-12)
    assert u1 == pytest.approx(0.11270166537925831, abs=1e-12)
    assert u1 <= 0.15
    assert u2 == pytest.approx(1.0 - u1)


def test_dichotomy_roots_endpoints():
    u1, u2, bound = dichotomy_roots(0.0)
    assert u1 == 0.0 and u2 == 1.0
    u1, u2, bound = dichotomy_roots(2.0 / 9.0)
    assert u1 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert bound == pytest.approx(1.0 / 3.0, abs=1e-12)
    with pytest.raises(DomainError):
        dichotomy_roots(0.3)
    with pytest.raises(DomainError):
        dichotomy_roots(-0.01)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0 / 9.0, allow_nan=False))
def test_dichotomy_envelope_property(c):
    u1, u2, bound = dichotomy_roots(c)
    assert min(u1, 1.0 - u1) <= bound + 1e-12
    assert bound <= 1.0 / 3.0 + 1e-12
    # both roots solve u = u^2 + c
    assert u1 == pytest.approx(u1 * u1 + c, abs=1e-12)
    assert u2 == pytest.approx(u2 * u2 + c, abs=1e-12)


def test_clone_constant_values():
    assert clone_constant(1.0) == pytest.approx(1.0 / 6.0)
    assert clone_constant(2.0) == pytest.approx(1.0 / 48.0)
    with pytest.raises(DomainError):
        clone_constant(0.5)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1.0, max_value=100.0), st.floats(min_value=0.001, max_value=10.0))
def test_clone_constant_monotone(c1, gap):
    assert clone_constant(c1) > clone_constant(c1 + gap)


def small_map(a, seed, scale):
    return LinearMap(a, a, scale * complex_gaussian(stream(seed, 0), (a.dim, a.dim)))


def test_norm_dichotomy_large_branch():
    a = build_full_matrix_algebra(2)
    from amnm.suites import unit_killing_perturbation

    gamma = unit_killing_perturbation(a, stream(71, 0), 1e-4)
    psi = LinearMap(a, a, np.eye(4) + gamma)
    delta = defect(psi, restarts=0, seed=1).upper * 1.5 + 1e-12
    verdict = norm_dichotomy_check(psi, a.basis_element(0), delta)
    assert verdict.branch == "large"
    assert verdict.value >= verdict.threshold_large


def test_norm_dichotomy_small_branch_scalar():
    c1 = build_commutative_algebra(1, norm_mode="frobenius")
    eps = 0.2
    psi = LinearMap(c1, c1, np.array([[eps]], dtype=complex))
    eta = eps - eps * eps
    verdict = norm_dichotomy_check(psi, c1.unit(), eta + 1e-15)
    assert verdict.branch == "small"
    assert verdict.value == pytest.approx(eps)


def test_norm_dichotomy_exact_thresholds_at_boundary():
    a = build_full_matrix_algebra(2)
    psi = LinearMap(a, a, np.zeros((4, 4)))
    verdict = norm_dichotomy_check(psi, a.basis_element(0), 2.0 / 9.0)
    assert verdict.threshold_small == 1.5 * (2.0 / 9.0)
    assert verdict.threshold_small == 1.0 / 3.0
    assert abs(verdict.threshold_large - 2.0 / 3.0) < 1e-15


def test_norm_dichotomy_refusals():
    a = build_full_matrix_algebra(2)
    psi = small_map(a, 72, 0.01)
    delta = defect(psi, restarts=0, seed=4).upper + 1e-12
    with pytest.raises(PreconditionError):
        norm_dichotomy_check(psi, a.element([0.4, 0.1, 0, 0]), delta)
    with pytest.raises(PreconditionError):
        norm_dichotomy_check(psi, a.basis_element(0), 0.5)
    with pytest.raises(PreconditionError):
        norm_dichotomy_check(psi, a.basis_element(0), delta * 1e-6)


def test_absorption_trivial_and_generic():
    a = build_full_matrix_algebra(2)
    zero = LinearMap(a, a, np.zeros((4, 4)))
    cert = absorption_check(zero, a.basis_element(0), a.basis_element(1), "left", 1e-3)
    assert cert.lhs == 0.0
    psi = small_map(a, 73, 0.01)
    eta = defect(psi, restarts=0, seed=6).upper * 1.1 + 1e-12
    cert = absorption_check(psi, a.basis_element(0), a.basis_element(1), "left", eta)
    assert cert.ok
    # right-sided variant: b a = b with a = e22, b = e12
    cert = absorption_check(psi, a.basis_element(3), a.basis_element(1), "right", eta)
    assert cert.ok


def test_absorption_refusals():
    a = build_full_matrix_algebra(2)
    psi = small_map(a, 74, 0.01)
    eta = defect(psi, restarts=0, seed=7).upper * 1.1 + 1e-12
    with pytest.raises(PreconditionError):
        absorption_check(psi, a.basis_element(1), a.basis_element(0), "left", eta)
    big = LinearMap(a, a, 3.0 * np.eye(4))
    with pytest.raises(PreconditionError):
        absorption_check(big, a.unit(), a.basis_element(1), "left", 100.0)


def test_equivalent_projection_transfer():
    a = build_full_matrix_algebra(2)
    psi = small_map(a, 75, 0.01)
    eta = defect(psi, restarts=0, seed=8).upper * 1.1 + 1e-12
    cert = equivalent_projection_check(psi, a.basis_element(1), a.basis_element(2), eta)
    assert cert.ok
    # u = v = 1: the conclusion is the hypothesis
    cert = equivalent_projection_check(psi, a.unit(), a.unit(), eta)
    assert cert.ok


def test_equivalent_projection_refuses_large_combo():
    a = build_full_matrix_algebra(2)
    psi = small_map(a, 76, 0.01)
    with pytest.raises(PreconditionError):
        equivalent_projection_check(psi, 2.0 * a.basis_element(1), 2.0 * a.basis_element(2), 0.02)


def test_small_on_identity_scalar_equality_case():
    c1 = build_commutative_algebra(1, norm_mode="frobenius")
    for eps in (0.05, 0.2, 1.0 / 3.0):
        psi = LinearMap(c1, c1, np.array([[eps]], dtype=complex))
        eta = abs(eps - eps * eps) + 1e-15
        cert = small_on_identity(psi, eta, seed=10)
        assert cert.lhs == pytest.approx(eps, abs=1e-12)
        assert cert.lhs <= 1.5 * eta + 1e-9


def test_small_on_identity_refuses_large_unit_image():
    a = build_full_matrix_algebra(2)
    big = LinearMap(a, a, np.eye(4))
    with pytest.raises(PreconditionError):
        small_on_identity(big, 10.0, seed=11)


def test_scan_all_survive_for_zero_map():
    a = build_full_matrix_algebra(2)
    zero = LinearMap(a, a, np.zeros((4, 4)))
    family = [a.basis_element(0), a.basis_element(3)]
    report = orthogonal_family_scan(zero, family, L=1.0, eta=1e-3)
    assert report.survivors == [0, 1]
    assert report.large == []


def test_scan_separation_distances():
    # block homomorphism kills the second summand; retained blocks separate
    q = direct_sum(build_full_matrix_algebra(2), build_full_matrix_algebra(2))
    mat = np.zeros((8, 8), dtype=complex)
    mat[:4, :4] = np.eye(4)
    psi = LinearMap(q, q, mat)
    family = []
    for i in (0, 3, 4, 7):
        coords = np.zeros(8, dtype=complex)
        coords[i] = 1.0
        family.append(q.element(coords))
    report = orthogonal_family_scan(psi, family, L=1.0, eta=1e-3)
    assert report.survivors == [2, 3]
    assert report.large == [0, 1]
    assert report.distances_ok and report.count_ok
    # the witnesses live in orthogonal ranges: distance sqrt(2), far above
    # the required separation
    assert report.min_distance == pytest.approx(np.sqrt(2.0))
    assert report.min_distance >= report.separation - 1e-12


def test_scan_refuses_non_orthogonal():
    a = build_full_matrix_algebra(2)
    psi = small_map(a, 77, 0.01)
    eta = defect(psi, restarts=0, seed=14).upper * 1.1 + 1e-12
    family = [a.basis_element(0), a.unit()]
    with pytest.raises(PreconditionError):
        orthogonal_family_scan(psi, family, L=2.0, eta=eta)


def test_equivalence_pipeline_end_to_end():
    """Scan, transfer along a factorization, conclude smallness on the corner.

    The corner plays the model space: its identity is vu for the block shift
    u, v, and the final norm bound is (3/2) times the certified defect."""
    q = build_full_matrix_algebra(4)
    k = 4
    idx = lambda i, j: i * k + j
    blocks = []
    for blk in range(2):
        coords = np.zeros(16, dtype=complex)
        coords[idx(2 * blk, 2 * blk)] = 1.0
        coords[idx(2 * blk + 1, 2 * blk + 1)] = 1.0
        blocks.append(q.element(coords))
    u_coords = np.zeros(16, dtype=complex)
    u_coords[idx(2, 0)] = 1.0
    u_coords[idx(3, 1)] = 1.0
    v_coords = np.zeros(16, dtype=complex)
    v_coords[idx(0, 2)] = 1.0
    v_coords[idx(1, 3)] = 1.0
    u, v = q.element(u_coords), q.element(v_coords)
    assert np.allclose((u * v).coords, blocks[1].coords)
    assert np.allclose((v * u).coords, blocks[0].coords)

    psi = LinearMap(q, q, 0.0015 * complex_gaussian(stream(78, 0), (16, 16)))
    eta = defect(psi, restarts=0, seed=15).upper * 1.1 + 1e-12
    assert eta <= clone_constant(u.norm() * v.norm())

    scan = orthogonal_family_scan(psi, blocks, L=1.0, eta=eta)
    assert 1 in scan.survivors
    equivalent_projection_check(psi, u, v, eta)
    corner_basis = [q.basis_element(idx(i, j)) for i in range(2) for j in range(2)]
    restricted, _ = corner_restriction(psi, corner_basis)
    cert = small_on_identity(restricted, eta, seed=17)
    assert cert.lhs <= 1.5 * eta + 1e-9
