import tracemalloc

import numpy as np
import pytest

from amnm.algebra import (
    Algebra,
    _realization_tol,
    build_commutative_algebra,
    build_full_matrix_algebra,
    direct_sum,
    generated_subalgebra,
    opposite,
    summand_quotient,
    unitize,
)
from amnm.errors import ConfigError, DomainError
from amnm.rng import complex_gaussian, stream


def test_matrix_unit_relations():
    m2 = build_full_matrix_algebra(2)
    e12, e21, e11 = m2.basis_element(1), m2.basis_element(2), m2.basis_element(0)
    assert np.allclose((e12 * e21).coords, e11.coords)
    assert np.allclose((e21 * e12).coords, m2.basis_element(3).coords)


def test_commutative_pointwise_product():
    c2 = build_commutative_algebra(2)
    x, y = c2.element([1, 2]), c2.element([3, 4])
    assert np.allclose((x * y).coords, [3, 8])
    e1, e2 = c2.basis_element(0), c2.basis_element(1)
    assert np.allclose((e1 * e2).coords, 0)
    assert np.allclose((e1 * e1).coords, e1.coords)


def test_identity_multiplication():
    for alg in (build_full_matrix_algebra(3), build_commutative_algebra(4)):
        one = alg.unit()
        rng = stream(11, alg.dim)
        a = alg.element(complex_gaussian(rng, alg.dim))
        assert np.allclose((one * a).coords, a.coords)
        assert np.allclose((a * one).coords, a.coords)


def test_mismatched_parents_refused():
    m2 = build_full_matrix_algebra(2)
    c2 = build_commutative_algebra(2)
    with pytest.raises(DomainError):
        m2.basis_element(0) * c2.element([1, 0])


def test_scalar_algebra():
    m1 = build_full_matrix_algebra(1)
    assert m1.dim == 1
    assert np.allclose(m1.unit_coords, [1.0])
    with pytest.raises(DomainError):
        build_full_matrix_algebra(0)


def test_unit_coords_of_m3():
    m3 = build_full_matrix_algebra(3)
    expected = np.zeros(9)
    expected[[0, 4, 8]] = 1.0
    assert np.allclose(m3.unit_coords, expected)


def test_norms():
    m2 = build_full_matrix_algebra(2)  # spectral
    assert m2.basis_element(0).norm() == pytest.approx(1.0)
    assert m2.unit().norm() == pytest.approx(1.0)
    m2f = build_full_matrix_algebra(2, norm_mode="frobenius")
    assert m2f.unit().norm() == pytest.approx(np.sqrt(2))


def test_spectral_without_realization_refused():
    struct = np.zeros((1, 1, 1), dtype=complex)
    struct[0, 0, 0] = 1.0
    with pytest.raises(ConfigError):
        Algebra(struct, np.array([1.0]), "spectral", None)


def test_unitization_norm_and_product():
    m2 = build_full_matrix_algebra(2)
    u = unitize(m2)
    a = u.element([2, 0.5, 0, 0, 0])
    assert a.norm() == pytest.approx(2.5)
    assert np.allclose(u.unit_coords, [1, 0, 0, 0, 0])
    # the base embeds multiplicatively: (0,a)(0,b) = (0, ab)
    rng = stream(3, 1)
    x, y = complex_gaussian(rng, 4), complex_gaussian(rng, 4)
    prod = u.multiply_coords(np.concatenate([[0], x]), np.concatenate([[0], y]))
    assert abs(prod[0]) < 1e-12
    assert np.allclose(prod[1:], m2.multiply_coords(x, y))


def test_unitization_submultiplicative_sampled():
    u = unitize(build_full_matrix_algebra(2))
    rng = stream(17, 0)
    for _ in range(200):
        a = complex_gaussian(rng, u.dim)
        b = complex_gaussian(rng, u.dim)
        lhs = u.element_norm(u.multiply_coords(a, b))
        assert lhs <= u.element_norm(a) * u.element_norm(b) * (1 + 1e-9) + 1e-12


def test_a_unitization_is_exactly_its_base_with_the_unit_adjoined():
    m2 = build_full_matrix_algebra(2)
    u = unitize(m2)
    again = Algebra(u.structure, u.unit_coords, "unitization-composite", None, base=m2)
    assert np.array_equal(again.structure, u.structure)
    # a base block moved by one ulp, a unit row or a base product with a
    # unit component: each is refused, though the unit laws still hold
    for index in ((1, 1, 1), (0, 1, 2), (1, 2, 0)):
        structure = u.structure.copy()
        structure[index] = np.nextafter(structure[index].real, 2.0)
        with pytest.raises(ConfigError, match="not the unitization of its base"):
            Algebra(structure, u.unit_coords, "unitization-composite", None, base=m2)


def test_unitization_of_m6_peaks_under_8_mib():
    m6 = build_full_matrix_algebra(6)
    u = unitize(m6)
    tracemalloc.start()
    try:
        Algebra(u.structure, u.unit_coords, "unitization-composite", None, base=m6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_direct_sum_structure():
    m2 = build_full_matrix_algebra(2)
    c2 = build_commutative_algebra(2)
    s = direct_sum(m2, c2)
    assert s.dim == m2.dim + c2.dim
    left = np.concatenate([complex_gaussian(stream(5, 0), 4), np.zeros(2)])
    right = np.concatenate([np.zeros(4), complex_gaussian(stream(5, 1), 2)])
    assert np.allclose(s.multiply_coords(left, right), 0)
    with pytest.raises(ConfigError):
        direct_sum(m2, build_commutative_algebra(2, norm_mode="frobenius"))


def test_generated_subalgebra_unit_generator():
    m2 = build_full_matrix_algebra(2)
    d, _ = generated_subalgebra(m2, [m2.unit()], unital=True)
    assert d.dim == 1


def test_generated_subalgebra_diagonal():
    # closure of {diag(1,0)} with the unit: iterating products stabilizes at 2
    m2 = build_full_matrix_algebra(2)
    d, emb = generated_subalgebra(m2, [m2.basis_element(0)], unital=True)
    assert d.dim == 2
    # embedding is an algebra map: products agree through the embedding
    rng = stream(6, 0)
    x, y = complex_gaussian(rng, 2), complex_gaussian(rng, 2)
    via_d = emb.embed_coords(d.multiply_coords(x, y))
    via_a = m2.multiply_coords(emb.embed_coords(x), emb.embed_coords(y))
    assert np.allclose(via_d, via_a)


def test_generated_subalgebra_full_closure():
    # e12 and e21 generate everything: closure enumeration reaches dim 4
    m2 = build_full_matrix_algebra(2)
    d, _ = generated_subalgebra(m2, [m2.basis_element(1), m2.basis_element(2)], unital=False)
    assert d.dim == 4
    assert d.unit_coords is not None


def test_opposite_reverses_products():
    m2 = build_full_matrix_algebra(2)
    op = opposite(m2)
    e12, e21 = op.basis_element(1), op.basis_element(2)
    # in the opposite algebra e12 o e21 = e21 e12 = e22
    assert np.allclose((e12 * e21).coords, op.basis_element(3).coords)
    rng = stream(8, 0)
    a = complex_gaussian(rng, 4)
    assert m2.element_norm(a) == pytest.approx(op.element_norm(a))


def test_opposite_involution_and_commutative_fixed():
    m2 = build_full_matrix_algebra(2)
    double = opposite(opposite(m2))
    assert np.abs(double.structure - m2.structure).max() < 1e-15
    c3 = build_commutative_algebra(3)
    assert np.abs(opposite(c3).structure - c3.structure).max() < 1e-15


def _opposite_rebuilt(a):
    """The reversal built afresh on every call, without the cache."""
    realization = None if a.realization is None else np.swapaxes(a.realization, 1, 2)
    base = None if a.base is None else _opposite_rebuilt(a.base)
    kind = {"name": a.kind.get("name", "")}
    if "summands" in a.kind:
        kind["summands"] = tuple(_opposite_rebuilt(s) for s in a.kind["summands"])
    return Algebra(np.swapaxes(a.structure, 0, 1), a.unit_coords, a.norm_mode, realization, kind=kind, base=base)


def _arrays_equal(x, y):
    return (x is None and y is None) or (x is not None and y is not None and np.array_equal(x, y))


def _assert_same_algebra(got, want):
    assert np.array_equal(got.structure, want.structure)
    assert _arrays_equal(got.realization, want.realization)
    assert _arrays_equal(got.unit_coords, want.unit_coords)
    assert _arrays_equal(got.idempotent_frame, want.idempotent_frame)
    assert got.norm_mode == want.norm_mode
    assert type(got.unit_ball) is type(want.unit_ball)
    assert got.kind.get("name") == want.kind.get("name")
    for s, t in zip(got.kind.get("summands", ()), want.kind.get("summands", ()), strict=True):
        _assert_same_algebra(s, t)
    assert (got.base is None) == (want.base is None)
    if got.base is not None:
        _assert_same_algebra(got.base, want.base)


def _reversal_cases():
    from amnm.cli import RunConfig, generate_instance

    m2 = build_full_matrix_algebra(2)
    scenario_d = [generate_instance(RunConfig(command="stabilize", seed=3, matrix_dim=k)).embedding.sub
                  for k in (2, 3, 4)]
    return [m2, build_commutative_algebra(3), direct_sum(m2, build_commutative_algebra(2)), unitize(m2)] + scenario_d


def test_opposite_once_per_algebra_and_involutive():
    for a in _reversal_cases():
        op = opposite(a)
        assert opposite(a) is op
        assert opposite(op) is a
        assert opposite(opposite(op)) is op
        _assert_same_algebra(op, _opposite_rebuilt(a))
        # swapping twice only permutes entries back: the source's arrays bit for bit
        _assert_same_algebra(a, _opposite_rebuilt(op))
        for s, s_op in zip(a.kind.get("summands", ()), op.kind.get("summands", ()), strict=True):
            assert s_op is opposite(s) and opposite(s_op) is s
        if a.base is not None:
            assert op.base is opposite(a.base) and opposite(op.base) is a.base


def test_opposite_checks_each_reversal_once(monkeypatch):
    m2, c3 = build_full_matrix_algebra(2), build_commutative_algebra(3)
    fresh_m2 = Algebra(m2.structure, m2.unit_coords, "spectral", m2.realization, kind={"name": "matrix"})
    fresh_c3 = Algebra(c3.structure, c3.unit_coords, "spectral", c3.realization, kind={"name": "commutative"})
    total = direct_sum(fresh_m2, fresh_c3)
    unital = unitize(Algebra(m2.structure, m2.unit_coords, "spectral", m2.realization))
    invariants, submult = [], []
    check_invariants, check_submultiplicative = Algebra._check_invariants, Algebra._check_submultiplicative
    monkeypatch.setattr(Algebra, "_check_invariants", lambda self: (invariants.append(self), check_invariants(self)))
    monkeypatch.setattr(Algebra, "_check_submultiplicative",
                        lambda self: (submult.append(self), check_submultiplicative(self)))
    for _ in range(3):
        for a in (fresh_m2, total, unital):
            opposite(opposite(a))
    # the sum's summands and the unitization's base reverse once, through the same call
    reversed_ = [opposite(a) for a in (fresh_m2, fresh_c3, total, unital, unital.base)]
    assert len({id(x) for x in reversed_}) == 5
    # each reversal ran its construction checks exactly once, at its first
    # call; only the unitization's composite norm is not a realization's
    # own, so only its reversal ran the sampled check
    assert sorted(map(id, invariants)) == sorted(map(id, reversed_))
    assert submult == [opposite(unital)]


def test_summand_quotient():
    s = direct_sum(build_full_matrix_algebra(2), build_commutative_algebra(2))
    q, qmat = summand_quotient(s, keep=0)
    assert q.dim == 4
    rng = stream(9, 0)
    a, b = complex_gaussian(rng, 6), complex_gaussian(rng, 6)
    # the quotient map is an algebra homomorphism
    assert np.allclose(qmat @ s.multiply_coords(a, b), q.multiply_coords(qmat @ a, qmat @ b))


def test_kind_holds_only_a_name_and_summands():
    m2, c2 = build_full_matrix_algebra(2), build_commutative_algebra(2)
    s = direct_sum(m2, c2)
    d, _ = generated_subalgebra(m2, [m2.basis_element(0)], unital=True)
    for alg in (m2, c2, s, d, unitize(m2), opposite(m2), opposite(s)):
        assert set(alg.kind) <= {"name", "summands"}
    assert [a.dim for a in opposite(s).kind["summands"]] == [4, 2]


def test_invalid_structure_rejected():
    bad = np.zeros((2, 2, 2), dtype=complex)
    bad[0, 0, 1] = 1.0
    bad[1, 1, 0] = 1.0
    bad[0, 1, 0] = 1.0  # breaks associativity
    with pytest.raises(ConfigError):
        Algebra(bad, None, "frobenius")


def _semigroup_structure(left_zero: bool) -> np.ndarray:
    """e_i e_j = e_i (left zero) or e_j (right zero): associative, with a
    one-sided identity only."""
    c = np.zeros((2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            c[i, j, i if left_zero else j] = 1.0
    return c


@pytest.mark.parametrize("left_zero", [False, True], ids=["left-unit-only", "right-unit-only"])
def test_one_sided_unit_rejected(left_zero):
    # e_1 is a left identity of the right-zero algebra and a right identity
    # of the left-zero one, never two-sided
    with pytest.raises(ConfigError, match="two-sided identity"):
        Algebra(_semigroup_structure(left_zero), np.array([1.0, 0.0]), "frobenius")


def test_non_orthonormal_realization_rejected():
    scalar = np.ones((1, 1, 1), dtype=complex)
    with pytest.raises(ConfigError, match="Frobenius-orthonormal"):
        Algebra(scalar, np.array([1.0]), "frobenius", 2.0 * np.ones((1, 1, 1)))


def test_realization_must_reproduce_structure():
    # C^2 realized by e11 and e12: orthonormal, but e11 e12 = e12 while e1 e2 = 0
    realization = np.zeros((2, 2, 2), dtype=complex)
    realization[0, 0, 0] = realization[1, 0, 1] = 1.0
    with pytest.raises(ConfigError, match="do not reproduce"):
        Algebra(build_commutative_algebra(2).structure, np.ones(2), "frobenius", realization)


def _associativity_gap(c: np.ndarray) -> float:
    """The largest entry of (e_i e_j) e_k - e_i (e_j e_k), over the
    associativity gate's scale max(1, |c|max^2)."""
    gap = np.einsum("ijm,mkl->ijkl", c, c) - np.einsum("jkm,iml->ijkl", c, c)
    return np.abs(gap).max() / max(1.0, np.abs(c).max() ** 2)


def _perturbed_matrix_structure(k: int, delta: float) -> tuple[np.ndarray, Algebra]:
    """M_k's structure with e_11 e_12 = (1 + delta) e_12: its realization's
    residual is delta, in one entry."""
    mk = build_full_matrix_algebra(k)
    c = mk.structure.copy()
    c[0, 1, 1] += delta
    return c, mk


def test_realized_non_associative_structure_refused_by_its_realization():
    c, m2 = _perturbed_matrix_structure(2, 1e-3)
    assert _associativity_gap(c) > 1e-9
    for mode in ("spectral", "frobenius"):
        with pytest.raises(ConfigError, match="do not reproduce"):
            Algebra(c, m2.unit_coords, mode, m2.realization)


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
@pytest.mark.parametrize("k", [2, 3])
def test_realization_tolerance_boundary(k, mode):
    tol = _realization_tol(k * k, k)
    # never looser than the reproduction tolerance realized algebras had
    assert tol < 1e-9
    c, mk = _perturbed_matrix_structure(k, 0.99 * tol)
    alg = Algebra(c, mk.unit_coords, mode, mk.realization)
    # accepted, so it passes the associativity and sampled checks it no longer runs
    assert _associativity_gap(c) <= 1e-9
    alg._check_submultiplicative()
    c, mk = _perturbed_matrix_structure(k, 1.01 * tol)
    with pytest.raises(ConfigError, match="do not reproduce"):
        Algebra(c, mk.unit_coords, mode, mk.realization)


def test_nearly_orthonormal_frobenius_realization_still_refused():
    # C realized by the 1x1 matrix r with |r|^2 = 1 + 5e-9: the product
    # x y r has coordinate norm |x| |y| |r| > |x| |y| (1 + 1e-9), and the
    # Gram check, within 1e-8 of the identity, no longer lets it through
    r = np.sqrt(1 + 5e-9)
    with pytest.raises(ConfigError):
        Algebra(np.full((1, 1, 1), r), np.array([1 / r]), "frobenius", np.full((1, 1, 1), r))


def test_realized_m6_construction_peaks_under_8_mib():
    m6 = build_full_matrix_algebra(6)
    tracemalloc.start()
    try:
        Algebra(m6.structure, m6.unit_coords, "spectral", m6.realization)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_non_submultiplicative_norm_rejected():
    # x * y = 2xy on C with |x| as the norm
    with pytest.raises(ConfigError, match="not submultiplicative"):
        Algebra(np.full((1, 1, 1), 2.0), None, "frobenius")


def test_algebra_arrays_are_read_only():
    m2 = build_full_matrix_algebra(2)
    structure = m2.structure.copy()
    alg = Algebra(structure, m2.unit_coords, "spectral", m2.realization)
    for array in (alg.structure, alg.unit_coords, alg.realization):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5.0
    # the algebra holds its own copy of what it was given
    structure[0, 0, 0] = 5.0
    assert alg.structure[0, 0, 0] == 1.0


def test_library_algebras_built_once_per_value():
    for mode in ("spectral", "frobenius"):
        m2 = build_full_matrix_algebra(2, mode)
        assert build_full_matrix_algebra(2, norm_mode=mode) is m2
        assert build_commutative_algebra(3, mode) is build_commutative_algebra(3, norm_mode=mode)
        assert unitize(m2) is unitize(m2)
    assert build_full_matrix_algebra(2) is build_full_matrix_algebra(2, "spectral")
    assert build_full_matrix_algebra(2, "spectral") is not build_full_matrix_algebra(2, "frobenius")
