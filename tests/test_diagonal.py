import numpy as np
import pytest

from amnm.algebra import (
    Algebra,
    build_commutative_algebra,
    build_full_matrix_algebra,
    direct_sum,
    generated_subalgebra,
    identity_embedding,
    opposite,
    unitize,
)
from amnm.diagonal import (
    NoLibraryDiagonal,
    TensorRep,
    _average_tensor,
    _scenario,
    average,
    library_diagonal,
    split,
    verify_diagonal,
)
from amnm.errors import PreconditionError
from amnm.multilinear import Cochain, LinearMap, defect_cochain, identity_map
from amnm.normest import BoxBall, SpectralBall
from amnm.rng import complex_gaussian, stream
from amnm.stabilizer import unitized_embedding


def test_m2_diagonal_by_direct_computation():
    # Delta = (1/2)(e11 x e11 + e12 x e21 + e21 x e12 + e22 x e22)
    m2 = build_full_matrix_algebra(2)
    cert = library_diagonal(m2)
    assert cert.valid
    assert cert.residual_commute == 0.0 and cert.residual_unit == 0.0
    w = cert.rep.dense()
    expected = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 0), (1, 2), (2, 1), (3, 3)):
        expected[i, j] = 0.5
    assert np.allclose(w, expected)
    # under the Frobenius norm each leg has norm 1, so the bound is 2
    m2f = build_full_matrix_algebra(2, norm_mode="frobenius")
    assert library_diagonal(m2f).K == pytest.approx(2.0)


def test_commutative_diagonal():
    c2 = build_commutative_algebra(2)
    cert = library_diagonal(c2)
    assert cert.valid and cert.residual_commute == 0.0 and cert.residual_unit == 0.0
    assert np.allclose(cert.rep.dense(), np.eye(2))
    # under Euclidean coordinates the representation bound k is tight
    cf = library_diagonal(build_commutative_algebra(3, norm_mode="frobenius"))
    assert cf.K == pytest.approx(3.0)


def test_direct_sum_diagonal_concatenates():
    m2 = build_full_matrix_algebra(2)
    c1 = build_commutative_algebra(1)
    s = direct_sum(m2, c1)
    cert = library_diagonal(s)
    assert cert.valid
    assert cert.K == pytest.approx(library_diagonal(m2).K + library_diagonal(c1).K)


def test_unitization_diagonal():
    d0 = build_commutative_algebra(2)
    du = unitize(d0)
    cert = library_diagonal(du)
    assert cert.valid
    # scalar head plus the base diagonal
    assert cert.K == pytest.approx((1 + 1) ** 2 + 2.0)


def test_library_diagonal_built_once_with_read_only_legs():
    for alg in (build_full_matrix_algebra(3), unitize(build_commutative_algebra(2))):
        cert = library_diagonal(alg)
        assert library_diagonal(alg) is cert
        c, d = cert.rep.pairs[0]
        for leg in (c, d):
            with pytest.raises(ValueError):
                leg[0] = 0.0
        with pytest.raises(AttributeError):
            cert.K = 0.0


def test_generated_subalgebra_diagonal_via_idempotents():
    m2 = build_full_matrix_algebra(2)
    d, _ = generated_subalgebra(m2, [m2.basis_element(0)], unital=True)
    cert = library_diagonal(d)
    assert cert.valid
    assert cert.K == pytest.approx(2.0)


def test_full_span_pullback_diagonal():
    m2 = build_full_matrix_algebra(2)
    d, _ = generated_subalgebra(m2, [m2.basis_element(1), m2.basis_element(2)], unital=False)
    assert d.dim == 4
    cert = library_diagonal(d)
    assert cert.valid


def _unnamed(alg):
    """The same algebra built from its arrays alone, with no ``kind``."""
    return Algebra(alg.structure, alg.unit_coords, alg.norm_mode, alg.realization)


def _rotated_m2(mode):
    """M_2 in a random Frobenius-orthonormal basis, structure read off the
    realized products."""
    q, _ = np.linalg.qr(complex_gaussian(stream(46, 0), (4, 4)))
    real = np.tensordot(q, np.eye(4).reshape(4, 2, 2), axes=(1, 0))
    flat = real.reshape(4, -1)
    prods = (real[:, None] @ real[None, :]).reshape(16, -1)
    structure = (prods @ flat.conj().T).reshape(4, 4, 4)
    unit = flat.conj() @ np.eye(2).reshape(-1)
    return Algebra(structure, unit, mode, real)


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
def test_library_diagonal_chosen_by_structure(mode):
    m2, c3 = build_full_matrix_algebra(2, mode), build_commutative_algebra(3, mode)
    for alg, k in ((m2, 2), (c3, 3), (opposite(m2), 2), (opposite(c3), 3)):
        for built in (alg, _unnamed(alg)):
            cert = library_diagonal(built)
            assert cert.valid
            assert cert.K == pytest.approx(k, rel=1e-12)
    # matrix units read off a rotated realized basis
    cert = library_diagonal(_rotated_m2(mode))
    assert cert.valid and cert.K == pytest.approx(2.0, rel=1e-12)


def test_idempotent_frame_of_commutative_library_is_the_identity():
    # C^k takes its diagonal from the frame, so its legs must stay the unit vectors
    for mode in ("spectral", "frobenius"):
        for k in range(1, 7):
            frame = build_commutative_algebra(k, mode).idempotent_frame
            assert np.array_equal(frame, np.eye(k))


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
def test_one_frame_serves_the_ball_and_the_diagonal(mode):
    for k in (2, 3):
        _, emb, cert = _scenario(k, mode)
        d = emb.sub
        frame = d.idempotent_frame
        assert d.idempotent_frame is frame
        with pytest.raises(ValueError):
            frame[0, 0] = 0.0
        if mode == "spectral":
            # the box is the spectral ball on the diagonal, at a cheaper step
            box = d.unit_ball
            assert isinstance(box, BoxBall) and np.array_equal(box.frame, frame)
            points = complex_gaussian(stream(131, k), (50, d.dim))
            spectral = SpectralBall(d.realization)
            np.testing.assert_allclose(box.norm(points), spectral.norm(points), rtol=1e-14)
            np.testing.assert_allclose(box.norm_and_dual(points)[0], spectral.norm_and_dual(points)[0], rtol=1e-14)
        legs = np.array([c for c, _ in cert.rep.pairs]).T
        assert np.array_equal(legs, frame)
        assert all(np.array_equal(c, dd) for c, dd in cert.rep.pairs)


def test_unsupported_algebra_refused():
    # upper triangular matrices: no library diagonal on offer
    m2 = build_full_matrix_algebra(2)
    d, _ = generated_subalgebra(m2, [m2.basis_element(0), m2.basis_element(1)], unital=True)
    assert d.dim == 3
    with pytest.raises(NoLibraryDiagonal):
        library_diagonal(d)


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
def test_no_frame_without_a_commutative_semisimple_algebra(mode):
    # span{1, e12} is commutative but e12 is nilpotent: every multiplication
    # operator has a repeated eigenvalue, so no frame and no library diagonal
    m2 = build_full_matrix_algebra(2, mode)
    nil, _ = generated_subalgebra(m2, [m2.basis_element(1)], unital=True)
    assert nil.dim == 2
    assert nil.idempotent_frame is None
    assert m2.idempotent_frame is None  # not commutative
    with pytest.raises(NoLibraryDiagonal):
        library_diagonal(nil)


def _verify_by_basis(algebra, rep):
    """verify_diagonal's residuals as one basis vector at a time: the loop the
    stacked commutator residual replaced, kept as its reference."""
    d = algebra.dim
    w = rep.dense()
    scale = max(1.0, float(np.abs(w).max()))
    commute = 0.0
    basis = np.eye(d)
    for i in range(d):
        lmat = algebra.left_mult_matrix(basis[i])
        rmat = algebra.right_mult_matrix(basis[i])
        commute = max(commute, float(np.abs(lmat @ w - w @ rmat.T).max()))
    pi = np.zeros(d, dtype=complex)
    for c, dd in rep.pairs:
        pi += algebra.multiply_coords(c, dd)
    rows = [prod - basis[i] for i in range(d)
            for prod in (algebra.multiply_coords(basis[i], pi), algebra.multiply_coords(pi, basis[i]))]
    norms = algebra.unit_ball.norm(np.concatenate([np.array(rows), basis]))
    unit_resid = float(norms[: 2 * d].max())
    valid = commute <= 1e-10 * scale and unit_resid <= 1e-10 * max(1.0, float(norms[2 * d :].max()))
    return rep.proj_bound, commute, unit_resid, bool(valid)


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
def test_verify_diagonal_matches_the_basis_loop_bit_for_bit(mode):
    algebras = [build_full_matrix_algebra(k, mode) for k in range(1, 5)]
    algebras += [build_commutative_algebra(k, mode) for k in range(1, 7)]
    algebras += [
        direct_sum(build_full_matrix_algebra(2, mode), build_commutative_algebra(2, mode)),
        direct_sum(build_full_matrix_algebra(3, mode), build_full_matrix_algebra(2, mode)),
        unitize(build_full_matrix_algebra(2, mode)),
        _scenario(2, mode)[1].sub,
        _scenario(3, mode)[1].sub,
    ]
    for n, alg in enumerate(algebras):
        rng = stream(151, n)
        reps = [library_diagonal(alg).rep, TensorRep(alg, [])]
        reps += [TensorRep(alg, [(complex_gaussian(rng, alg.dim), complex_gaussian(rng, alg.dim))
                                 for _ in range(3)]) for _ in range(2)]
        for rep in reps:
            cert = verify_diagonal(alg, rep)
            got = (cert.K, cert.residual_commute, cert.residual_unit, cert.valid)
            want = _verify_by_basis(alg, rep)
            assert [float(x).hex() for x in got] == [float(x).hex() for x in want], alg


def test_verify_flags_bad_representations():
    m2 = build_full_matrix_algebra(2)
    one_one = TensorRep(m2, [(m2.unit_coords, m2.unit_coords)])
    cert = verify_diagonal(m2, one_one)
    assert not cert.valid
    assert cert.residual_commute > 0.1  # witnessed by e12
    zero = TensorRep(m2, [])
    zcert = verify_diagonal(m2, zero)
    assert not zcert.valid
    assert zcert.residual_unit == pytest.approx(1.0)  # max ||a|| over the basis


def test_flip_carries_diagonal_to_opposite():
    for alg in (build_full_matrix_algebra(2), build_commutative_algebra(3)):
        cert = library_diagonal(alg)
        op = opposite(alg)
        flipped = cert.rep.flip(op)
        cert_op = verify_diagonal(op, flipped)
        assert cert_op.valid
        assert cert_op.K == pytest.approx(cert.K)


def test_verify_checks_the_unit_law_on_both_sides():
    # in the column algebra span{e11, e21} of M_2, pi(e11 (x) e11) = e11 is a
    # unit from the right (a e11 = a) but not from the left (e11 e21 = 0)
    m2 = build_full_matrix_algebra(2)
    col, emb = generated_subalgebra(m2, [m2.basis_element(0), m2.basis_element(2)], unital=False)
    e11 = emb.matrix.conj().T @ m2.basis_element(0).coords
    pi = col.multiply_coords(e11, e11)
    basis = np.eye(col.dim)
    assert max(np.abs(col.multiply_coords(basis[i], pi) - basis[i]).max() for i in range(col.dim)) < 1e-12
    cert = verify_diagonal(col, TensorRep(col, [(e11, e11)]))
    assert cert.residual_unit > 0.5
    assert not cert.valid


def test_average_single_pair_matches_direct_formula():
    m2 = build_full_matrix_algebra(2)
    emb = identity_embedding(m2)
    rng = stream(41, 0)
    phi = LinearMap(m2, m2, complex_gaussian(rng, (4, 4)))
    psi = Cochain((m2, m2), m2, complex_gaussian(rng, (4, 4, 4)))
    c, d = complex_gaussian(rng, 4), complex_gaussian(rng, 4)
    avg = average(phi, emb, TensorRep(m2, [(c, d)]), psi)
    for i in range(4):
        a = np.eye(4)[i]
        expected = m2.multiply_coords(phi.apply(c), psi.evaluate(d, a))
        assert np.allclose(avg.evaluate(a), expected)


def test_average_zero_rep_gives_zero():
    m2 = build_full_matrix_algebra(2)
    emb = identity_embedding(m2)
    phi = identity_map(m2)
    psi = Cochain((m2, m2), m2, complex_gaussian(stream(42, 0), (4, 4, 4)))
    avg = average(phi, emb, TensorRep(m2, []), psi)
    assert np.abs(avg.tensor).max() == 0.0


def test_average_representation_independent():
    # the operator depends only on the tensor the pairs define
    m2 = build_full_matrix_algebra(2)
    emb = identity_embedding(m2)
    rng = stream(43, 0)
    phi = LinearMap(m2, m2, complex_gaussian(rng, (4, 4)))
    psi = Cochain((m2, m2), m2, complex_gaussian(rng, (4, 4, 4)))
    c, d = complex_gaussian(rng, 4), complex_gaussian(rng, 4)
    rep1 = TensorRep(m2, [(c, d)])
    rep2 = TensorRep(m2, [(0.5 * c, d), (0.5 * c, d)])
    a1 = average(phi, emb, rep1, psi)
    a2 = average(phi, emb, rep2, psi)
    assert np.allclose(a1.tensor, a2.tensor)


def test_split_requires_valid_cert():
    m2 = build_full_matrix_algebra(2)
    emb = identity_embedding(m2)
    bad = verify_diagonal(m2, TensorRep(m2, [(m2.unit_coords, m2.unit_coords)]))
    psi = Cochain((m2, m2), m2, np.zeros((4, 4, 4)))
    with pytest.raises(PreconditionError):
        split(identity_map(m2), emb, bad, psi)


def test_split_hand_expanded_m2():
    # D = M2: the sum runs over the four matrix-unit pairs
    m2 = build_full_matrix_algebra(2)
    emb = identity_embedding(m2)
    cert = library_diagonal(m2)
    rng = stream(44, 0)
    phi = LinearMap(m2, m2, complex_gaussian(rng, (4, 4)))
    chain = defect_cochain(phi)
    out = split(phi, emb, cert, chain)
    k = 2
    idx = lambda i, j: i * k + j
    hand = np.zeros((4, 4), dtype=complex)
    for i in range(k):
        for j in range(k):
            c = np.zeros(4)
            c[idx(i, j)] = 1.0 / k
            d = np.zeros(4)
            d[idx(j, i)] = 1.0
            for a_i in range(4):
                hand[:, a_i] += m2.multiply_coords(
                    phi.apply(c), chain.evaluate(d, np.eye(4)[a_i])
                )
    assert np.allclose(out.tensor, hand)


def test_split_scalar_subalgebra_fixes_unit_preserving_maps():
    # D = span(1): the defect cochain vanishes on D so the correction is zero
    m2 = build_full_matrix_algebra(2)
    d, emb = generated_subalgebra(m2, [m2.unit()], unital=True)
    cert = library_diagonal(d)
    gamma = complex_gaussian(stream(45, 0), (4, 4))
    unit = m2.unit_coords
    gamma -= np.outer(gamma @ unit, unit.conj()) / np.vdot(unit, unit)
    phi = LinearMap(m2, m2, np.eye(4) + gamma)
    out = split(phi, emb, cert, defect_cochain(phi))
    assert np.abs(out.tensor).max() < 1e-12


def test_split_multiplicative_map_is_fixed():
    m2 = build_full_matrix_algebra(2)
    emb = identity_embedding(m2)
    cert = library_diagonal(m2)
    out = split(identity_map(m2), emb, cert, defect_cochain(identity_map(m2)))
    assert np.abs(out.tensor).max() == 0.0


def _average_per_leg(phi, embedding, rep, psi):
    """The averaging operator one leg pair at a time, the reference for the
    stacked kernel."""
    b = phi.target
    out = np.zeros((b.dim,) + psi.tensor.shape[2:], dtype=complex)
    for c, d in rep.pairs:
        phi_c = phi.apply(embedding.embed_coords(c))
        psi_d = np.tensordot(psi.tensor, embedding.embed_coords(d), axes=(1, 0))
        prod = np.einsum("pqt,p,qR->tR", b.structure, phi_c, psi_d.reshape(b.dim, -1))
        out += prod.reshape(out.shape)
    return out


def _averaging_cases():
    """(embedding, representation) pairs: random representations with 0, 1
    and 2 pairs and one with repeated legs on the identity embedding of each
    algebra, each algebra's own library diagonal, the scenario diagonals of
    M_2..M_4 (K = 2..4) and the unitized M_2 with its unitized diagonal."""
    algebras = [
        build_full_matrix_algebra(2),
        build_commutative_algebra(5),
        direct_sum(build_full_matrix_algebra(2), build_commutative_algebra(2)),
        build_full_matrix_algebra(3),
        build_full_matrix_algebra(4),
    ]
    cases = []
    for j, alg in enumerate(algebras):
        emb = identity_embedding(alg)
        rng = stream(80 + j, 0)
        legs = [(complex_gaussian(rng, alg.dim), complex_gaussian(rng, alg.dim)) for _ in range(3)]
        for k in range(3):
            cases.append((emb, TensorRep(alg, legs[:k])))
        cases.append((emb, TensorRep(alg, [legs[0], legs[1], legs[0], legs[0]])))
        cases.append((emb, library_diagonal(alg).rep))
    for k in (2, 3, 4):
        _, emb, cert = _scenario(k, "spectral")
        cases.append((emb, cert.rep))
    _, emb, _ = _scenario(2, "spectral")
    a_u = unitize(emb.parent)
    emb_u = unitized_embedding(emb, a_u, unitize(emb.sub))
    cases.append((emb_u, library_diagonal(emb_u.sub).rep))
    return cases


def _maxabs(x):
    return float(np.abs(x).max()) if np.size(x) else 0.0


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_average_kernel_matches_per_leg_sum(arity):
    for n, (emb, rep) in enumerate(_averaging_cases()):
        a = emb.parent
        rng = stream(90 + n, arity)
        phi = LinearMap(a, a, complex_gaussian(rng, (a.dim, a.dim)))
        psi = Cochain((a,) * arity, a, complex_gaussian(rng, (a.dim,) + (a.dim,) * arity))
        cs, ds = rep.legs()
        got = _average_tensor(a.structure, phi.matrix, emb.matrix, cs, ds, psi.tensor)
        if arity > 1:  # an arity-1 average has no slots left, so only the kernel takes it
            assert np.array_equal(average(phi, emb, rep, psi).tensor, got)
        scale = (_maxabs(a.structure) * _maxabs(phi.matrix) * _maxabs(emb.matrix) ** 2
                 * _maxabs(cs) * _maxabs(ds) * _maxabs(psi.tensor))
        assert np.abs(got - _average_per_leg(phi, emb, rep, psi)).max() <= 1e-13 * scale


def test_average_kernel_between_different_algebras():
    # a map M_2 -> M_3 averaged against M_2's diagonal subalgebra
    _, emb, cert = _scenario(2, "spectral")
    a, b = emb.parent, build_full_matrix_algebra(3)
    rng = stream(95, 0)
    phi = LinearMap(a, b, complex_gaussian(rng, (b.dim, a.dim)))
    psi = Cochain((a, a), b, complex_gaussian(rng, (b.dim, a.dim, a.dim)))
    got = average(phi, emb, cert.rep, psi).tensor
    assert got.shape == (b.dim, a.dim)
    scale = _maxabs(b.structure) * _maxabs(phi.matrix) * _maxabs(psi.tensor)
    assert np.abs(got - _average_per_leg(phi, emb, cert.rep, psi)).max() <= 1e-13 * scale


def test_legs_stack_the_pairs_as_columns():
    m2 = build_full_matrix_algebra(2)
    rep = library_diagonal(m2).rep
    cs, ds = rep.legs()
    assert cs.shape == ds.shape == (4, len(rep.pairs))
    for k, (c, d) in enumerate(rep.pairs):
        assert np.array_equal(cs[:, k], c) and np.array_equal(ds[:, k], d)
    empty_c, empty_d = TensorRep(m2, []).legs()
    assert empty_c.shape == empty_d.shape == (4, 0)
