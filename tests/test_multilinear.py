import numpy as np
import pytest

from amnm.algebra import (
    build_commutative_algebra,
    build_full_matrix_algebra,
    direct_sum,
    generated_subalgebra,
    unitize,
)
from amnm.errors import DomainError
from amnm.multilinear import (
    Cochain,
    LinearMap,
    coboundary,
    defect,
    defect_cochain,
    identity_map,
    restrict_slot,
)
from amnm.rng import complex_gaussian, stream


def random_map(a, b, seed, scale=1.0):
    return LinearMap(a, b, scale * complex_gaussian(stream(seed, 0), (b.dim, a.dim)))


def test_defect_cochain_of_homomorphism_vanishes():
    m2 = build_full_matrix_algebra(2)
    chain = defect_cochain(identity_map(m2))
    assert np.abs(chain.tensor).max() == 0.0


def test_defect_cochain_scalar_closed_form():
    c1 = build_commutative_algebra(1, norm_mode="frobenius")
    lam = 0.7 + 0.2j
    chain = defect_cochain(LinearMap(c1, c1, np.array([[lam]])))
    assert chain.tensor[0, 0, 0] == pytest.approx(lam - lam * lam)


def test_defect_cochain_matches_brute_evaluation():
    m2 = build_full_matrix_algebra(2)
    phi = random_map(m2, m2, 21)
    chain = defect_cochain(phi)
    for i in range(4):
        for j in range(4):
            a = np.eye(4)[i]
            b = np.eye(4)[j]
            direct = phi.apply(m2.multiply_coords(a, b)) - m2.multiply_coords(
                phi.apply(a), phi.apply(b)
            )
            assert np.allclose(chain.tensor[:, i, j], direct)


def test_maps_are_immutable_and_build_one_defect_cochain():
    m2 = build_full_matrix_algebra(2)
    source = complex_gaussian(stream(24, 0), (4, 4))
    phi = LinearMap(m2, m2, source)
    source[0, 0] = 0.0  # the map holds its own copy
    assert phi.matrix[0, 0] != 0.0
    with pytest.raises(ValueError):
        phi.matrix[0, 0] = 1.0
    with pytest.raises(AttributeError):
        phi.matrix = np.eye(4)
    chain = defect_cochain(phi)
    assert defect_cochain(phi) is chain
    with pytest.raises(ValueError):
        chain.tensor[0, 0, 0] = 0.0
    # a new map with the same matrix gets its own cochain with the same tensor
    twin = defect_cochain(LinearMap(m2, m2, phi.matrix))
    assert twin is not chain and np.array_equal(twin.tensor, chain.tensor)


def test_coboundary_degree_one_formula():
    m2 = build_full_matrix_algebra(2)
    phi = random_map(m2, m2, 22)
    gamma = random_map(m2, m2, 23)
    out = coboundary(phi, Cochain((m2,), m2, gamma.matrix))
    for i in range(4):
        for j in range(4):
            a, b = np.eye(4)[i], np.eye(4)[j]
            expected = (
                m2.multiply_coords(phi.apply(a), gamma.apply(b))
                - gamma.apply(m2.multiply_coords(a, b))
                + m2.multiply_coords(gamma.apply(a), phi.apply(b))
            )
            assert np.allclose(out.tensor[:, i, j], expected)


def test_two_cocycle_identity_many_maps():
    m2 = build_full_matrix_algebra(2)
    for seed in range(25):
        phi = random_map(m2, m2, 100 + seed)
        chain = defect_cochain(phi)
        resid = np.abs(coboundary(phi, chain).tensor).max()
        scale = (1 + np.abs(phi.matrix).max()) ** 3
        assert resid <= 1e-10 * scale


def test_multiplicative_map_gives_complex():
    # for a homomorphism the coboundary squares to zero on any cochain
    m2 = build_full_matrix_algebra(2)
    phi = identity_map(m2)
    psi = Cochain((m2,), m2, complex_gaussian(stream(24, 0), (4, 4)))
    dd = coboundary(phi, coboundary(phi, psi))
    assert np.abs(dd.tensor).max() < 1e-12


def _einsum_coboundary(phi, psi):
    """d^n as a three-operand ``einsum`` per target product and a
    ``tensordot`` per inner fold (the formula the BLAS form replaced)."""
    n, a, b = psi.arity, phi.source, phi.target
    total = np.einsum("pi,pqt,q...->ti...", phi.matrix, b.structure, psi.tensor, optimize=True)
    for j in range(1, n + 1):
        contracted = np.moveaxis(np.tensordot(psi.tensor, a.structure, axes=(j, 2)), (n, n + 1), (j, j + 1))
        total = total + ((-1) ** j) * contracted
    flat = psi.tensor.reshape(b.dim, -1)
    last = np.einsum("pqt,pR,qj->tRj", b.structure, flat, phi.matrix, optimize=True)
    return total + ((-1) ** (n + 1)) * last.reshape(total.shape)


_COBOUNDARY_ALGEBRAS = {
    "M_2": lambda: build_full_matrix_algebra(2),
    "C^5": lambda: build_commutative_algebra(5),
    "M_2 + C^2": lambda: direct_sum(build_full_matrix_algebra(2), build_commutative_algebra(2)),
    "M_4": lambda: build_full_matrix_algebra(4),
    "unitized M_2": lambda: unitize(build_full_matrix_algebra(2)),
}


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_COBOUNDARY_ALGEBRAS))
def test_coboundary_matches_the_einsum_formula(name, arity):
    a = _COBOUNDARY_ALGEBRAS[name]()
    rng = stream(29, arity)
    phi = LinearMap(a, a, complex_gaussian(rng, (a.dim, a.dim)))
    psi = Cochain((a,) * arity, a, complex_gaussian(rng, (a.dim,) * (arity + 1)))
    got = coboundary(phi, psi).tensor
    want = _einsum_coboundary(phi, psi)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _einsum_defect(phi):
    """phi(ab) - phi(a)phi(b) as the ``einsum`` pair the BLAS form replaced,
    with the larger of its two terms' entries as the scale of a comparison."""
    lin = np.einsum("ijm,tm->tij", phi.source.structure, phi.matrix)
    quad = np.einsum("pqt,pi,qj->tij", phi.target.structure, phi.matrix, phi.matrix)
    return lin - quad, max(np.abs(lin).max(), np.abs(quad).max())


def _m2_into_m3():
    return build_full_matrix_algebra(2), build_full_matrix_algebra(3)


# source and target; an endomorphism's algebra is built once
_DEFECT_PAIRS = {name: (lambda build=build: (build(),) * 2) for name, build in _COBOUNDARY_ALGEBRAS.items()}
_DEFECT_PAIRS.update({"M_3": lambda: (build_full_matrix_algebra(3),) * 2, "M_2 -> M_3": _m2_into_m3})


@pytest.mark.parametrize("near_identity", [False, True])
@pytest.mark.parametrize("name", sorted(_DEFECT_PAIRS))
def test_defect_cochain_matches_the_einsum_formula(name, near_identity):
    a, b = _DEFECT_PAIRS[name]()
    gamma = complex_gaussian(stream(31, int(near_identity)), (b.dim, a.dim))
    # near a homomorphism (the identity, or the corner inclusion of M_2 in M_3)
    # the two terms cancel, so the defect is far below its scale
    start = np.eye(b.dim, a.dim) if a is b else np.kron(np.eye(3, 2), np.eye(3, 2))
    phi = LinearMap(a, b, start + 1e-3 * gamma if near_identity else gamma)
    got = defect_cochain(phi).tensor
    want, scale = _einsum_defect(phi)
    assert got.shape == want.shape == (b.dim, a.dim, a.dim)
    assert np.abs(got - want).max() <= 1e-13 * scale


def test_coboundary_arity_zero_refused():
    m2 = build_full_matrix_algebra(2)
    with pytest.raises(DomainError):
        Cochain((), m2, np.zeros((4,)))


def test_restrict_first_full_algebra_is_basis_change():
    m2 = build_full_matrix_algebra(2)
    phi = random_map(m2, m2, 25)
    chain = defect_cochain(phi)
    d, emb = generated_subalgebra(m2, [m2.basis_element(1), m2.basis_element(2)], unital=False)
    assert d.dim == 4
    restricted = restrict_slot(chain, 0, emb)
    # evaluating on embedded basis vectors agrees with direct evaluation
    for m in range(4):
        got = restricted.tensor[:, m, :]
        want = np.tensordot(chain.tensor, emb.matrix[:, m], axes=(1, 0))
        assert np.allclose(got, want)


def test_restrict_first_scalar_subalgebra_kills_defect():
    # on the span of the unit, a unit-preserving map has no first-slot defect
    m2 = build_full_matrix_algebra(2)
    gamma = complex_gaussian(stream(26, 0), (4, 4))
    unit = m2.unit_coords
    gamma -= np.outer(gamma @ unit, unit.conj()) / np.vdot(unit, unit)
    phi = LinearMap(m2, m2, np.eye(4) + gamma)
    d, emb = generated_subalgebra(m2, [m2.unit()], unital=True)
    restricted = restrict_slot(defect_cochain(phi), 0, emb)
    assert np.abs(restricted.tensor).max() < 1e-12


def test_linearization_identity_tensors():
    m2 = build_full_matrix_algebra(2)
    for seed in range(25):
        phi = random_map(m2, m2, 200 + seed)
        gamma = random_map(m2, m2, 300 + seed)
        lhs = defect_cochain(LinearMap(m2, m2, phi.matrix + gamma.matrix)).tensor
        gg = np.einsum("pqt,pi,qj->tij", m2.structure, gamma.matrix, gamma.matrix)
        rhs = (
            defect_cochain(phi).tensor
            - coboundary(phi, Cochain((m2,), m2, gamma.matrix)).tensor
            - gg
        )
        scale = (1 + np.abs(phi.matrix).max() + np.abs(gamma.matrix).max()) ** 2
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_defect_homomorphism_interval_zero():
    m2 = build_full_matrix_algebra(2)
    est = defect(identity_map(m2), seed=1, restarts=4)
    assert est.lower == 0.0 and est.upper == 0.0


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
def test_cached_upper_only_defect_is_the_estimators_own(mode):
    from dataclasses import fields

    from amnm.multilinear import multilinear_norm

    m2 = build_full_matrix_algebra(2, mode)
    phi = random_map(m2, m2, 29, scale=0.1)
    want = multilinear_norm(defect_cochain(phi), restarts=0)
    assert want.factor is not None
    for seed, claim in ((0, None), (7, 0.5)):
        got = defect(phi, restarts=0, seed=seed, claim=claim)
        assert (got.seed, got.claim) == (seed, claim)
        for name in {f.name for f in fields(got)} - {"seed", "claim", "witness"}:
            assert getattr(got, name) == getattr(want, name)
        assert len(got.witness) == len(want.witness)
        assert all(np.array_equal(g, w) for g, w in zip(got.witness, want.witness))


def test_defect_nested_domains():
    m2 = build_full_matrix_algebra(2)
    d, emb = generated_subalgebra(m2, [m2.basis_element(0)], unital=True)
    phi = random_map(m2, m2, 27)
    dd = defect(phi, left=emb, right=emb, restarts=8, seed=5)
    da = defect(phi, left=emb, restarts=8, seed=5)
    # smaller sup domain: the both-restricted lower cannot beat the one-sided upper
    assert dd.lower <= da.upper * (1 + 1e-9)


def test_defect_perturbation_bound():
    m2 = build_full_matrix_algebra(2)
    hom = identity_map(m2)
    gamma = random_map(m2, m2, 28, scale=0.05)
    combined = LinearMap(m2, m2, hom.matrix + gamma.matrix)
    est = defect(combined, restarts=8, seed=6)
    from amnm.multilinear import linear_map_norm

    g = linear_map_norm(gamma, restarts=0)
    h = linear_map_norm(hom, restarts=0)
    assert est.lower <= (2 * h.upper + 1) * g.upper + g.upper**2 + 1e-12
