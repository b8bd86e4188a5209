import numpy as np
import pytest

from amnm.algebra import (
    build_commutative_algebra,
    build_full_matrix_algebra,
    direct_sum,
    generated_subalgebra,
    unitize,
)
from amnm.errors import DomainError, FalsificationError
from amnm.multilinear import Cochain, DefectEstimate, LinearMap, defect, linear_map_norm, multilinear_norm
from amnm.normest import ball_for, BoxBall, SpectralBall, CompositeSumBall
from amnm.rng import complex_gaussian, stream
from amnm.algebra import opposite


def frob_pair(dim_a, dim_b):
    a = build_commutative_algebra(dim_a, norm_mode="frobenius")
    b = build_commutative_algebra(dim_b, norm_mode="frobenius")
    return a, b


def test_rank_one_bilinear_exact():
    # psi(x, y) = <u, x> <v, y> w has norm |u| |v| |w| with equality certified
    a, b = frob_pair(3, 4)
    rng = stream(31, 0)
    u, v = complex_gaussian(rng, 3), complex_gaussian(rng, 3)
    w = complex_gaussian(rng, 4)
    tensor = np.einsum("t,i,j->tij", w, np.conj(u), np.conj(v))
    est = multilinear_norm(Cochain((a, a), b, tensor), restarts=4, seed=2)
    expected = np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(w)
    assert est.lower == pytest.approx(expected, rel=1e-9)
    assert est.upper == pytest.approx(expected, rel=1e-9)


def test_scalar_defect_closed_form():
    c1 = build_commutative_algebra(1, norm_mode="frobenius")
    phi = LinearMap(c1, c1, np.array([[2.0]]))
    est = defect(phi, restarts=2, seed=0)
    assert est.lower == pytest.approx(2.0)
    assert est.upper == pytest.approx(2.0)


def _grid_oracle(tensor, resolution=0.05):
    """Exhaustive real-sphere grid search; slots of dimension 2 or 3."""
    def sphere(dim):
        if dim == 2:
            angles = np.arange(0.0, 2 * np.pi, resolution)
            return np.stack([np.cos(angles), np.sin(angles)], axis=1)
        pts = []
        for theta in np.arange(0.0, np.pi + resolution, resolution):
            for phi in np.arange(0.0, 2 * np.pi, resolution):
                pts.append(
                    [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
                )
        return np.asarray(pts)

    xs = sphere(tensor.shape[1])
    ys = sphere(tensor.shape[2])
    vals = np.einsum("tij,ai,bj->tab", tensor, xs, ys)
    return float(np.linalg.norm(vals, axis=0).max())


def test_lower_matches_grid_oracle():
    rng = stream(32, 0)
    a, _ = frob_pair(2, 2)
    a3 = build_commutative_algebra(3, norm_mode="frobenius")
    b = build_commutative_algebra(3, norm_mode="frobenius")
    tensor = rng.standard_normal((3, 2, 3))
    est = multilinear_norm(Cochain((a, a3), b, tensor.astype(complex)), restarts=16, seed=3)
    grid = _grid_oracle(tensor)
    scale = np.abs(tensor).sum()
    assert est.lower >= grid - 1e-9  # the grid is a subset of the ball
    assert abs(est.lower - grid) <= 0.1 * scale * 0.05  # within grid resolution
    assert est.lower <= est.upper * (1 + 1e-9)


def test_arity_three_norm_refused():
    a, b = frob_pair(2, 2)
    chain = Cochain((a, a, a), b, np.zeros((2, 2, 2, 2)))
    with pytest.raises(DomainError):
        multilinear_norm(chain)


def test_restart_monotonicity():
    a, b = frob_pair(4, 4)
    tensor = complex_gaussian(stream(33, 0), (4, 4, 4))
    chain = Cochain((a, a), b, tensor)
    lows = [multilinear_norm(chain, restarts=r, seed=9).lower for r in (1, 2, 4, 8, 16)]
    for small, big in zip(lows, lows[1:]):
        assert big >= small - 1e-15


def test_witness_achieves_lower():
    m2 = build_full_matrix_algebra(2)
    phi = LinearMap(m2, m2, complex_gaussian(stream(34, 0), (4, 4)))
    est = defect(phi, restarts=8, seed=4)
    chain_tensor = np.einsum("ijm,tm->tij", m2.structure, phi.matrix) - np.einsum(
        "pqt,pi,qj->tij", m2.structure, phi.matrix, phi.matrix
    )
    x, y = est.witness
    value = m2.element_norm(np.einsum("tij,i,j->t", chain_tensor, x, y))
    assert value == pytest.approx(est.lower, rel=1e-9, abs=1e-12)
    assert m2.element_norm(x) <= 1 + 1e-9 and m2.element_norm(y) <= 1 + 1e-9
    assert est.lower <= est.upper * (1 + 1e-9)


def test_identity_map_norm_frobenius():
    m2 = build_full_matrix_algebra(2, norm_mode="frobenius")
    from amnm.multilinear import identity_map

    est = linear_map_norm(identity_map(m2))
    assert est.lower == pytest.approx(1.0) and est.upper == pytest.approx(1.0)


def test_zero_map_norm():
    m2 = build_full_matrix_algebra(2)
    est = linear_map_norm(LinearMap(m2, m2, np.zeros((4, 4))), restarts=2)
    assert est.lower == 0.0 and est.upper == 0.0


def test_conjugation_norm_against_sampling_oracle():
    # ||a -> M a M^-1|| on the spectral ball, against exhaustive sampling
    m2 = build_full_matrix_algebra(2)
    rng = stream(35, 0)
    m = complex_gaussian(rng, (2, 2)) + 2 * np.eye(2)
    minv = np.linalg.inv(m)
    cols = []
    for i in range(4):
        x = m2.realization[i]
        cols.append(np.einsum("kab,ab->k", np.conj(m2.realization), m @ x @ minv))
    phi = LinearMap(m2, m2, np.stack(cols, axis=1))
    est = linear_map_norm(phi, restarts=16, seed=7)
    best = 0.0
    for _ in range(10_000):
        x = complex_gaussian(rng, (2, 2))
        x /= np.linalg.svd(x, compute_uv=False)[0]
        best = max(best, np.linalg.svd(m @ x @ minv, compute_uv=False)[0])
    kappa = np.linalg.cond(m, 2)
    assert best <= est.lower * (1 + 1e-6) + 1e-9  # sampling cannot beat the certified witness
    assert est.lower <= kappa * (1 + 1e-9)
    assert est.upper >= kappa * (1 - 1e-2) or est.upper >= est.lower


def test_ball_types_recognized():
    m2 = build_full_matrix_algebra(2)
    assert isinstance(ball_for(m2), SpectralBall)
    c3 = build_commutative_algebra(3)
    assert isinstance(ball_for(c3), BoxBall)
    d, _ = generated_subalgebra(m2, [m2.basis_element(0)], unital=True)
    assert isinstance(ball_for(d), BoxBall)  # minimal idempotents recovered
    u = unitize(m2)
    assert isinstance(ball_for(u), CompositeSumBall)
    m3 = build_full_matrix_algebra(3)
    e = m3.basis_element
    cm2, _ = generated_subalgebra(m3, [e(0), e(4) + e(8), e(5), e(7)], unital=True)
    ball = ball_for(cm2)  # C + M_2: adjoint-closed, so polar steps are exact
    assert isinstance(ball, SpectralBall) and ball.exact is True
    t2, _ = generated_subalgebra(m2, [m2.basis_element(0), m2.basis_element(1)], unital=True)
    ball = ball_for(t2)  # upper-triangular: the inscribed fallback
    assert isinstance(ball, SpectralBall) and ball.exact is False


def _exactness_cases():
    m2, m3, m4 = (build_full_matrix_algebra(k) for k in (2, 3, 4))
    e2, e3, e4 = m2.basis_element, m3.basis_element, m4.basis_element
    cm2, _ = generated_subalgebra(m3, [e3(0), e3(4) + e3(8), e3(5), e3(7)], unital=True)
    corner, _ = generated_subalgebra(m4, [e4(0), e4(1), e4(4), e4(5)], unital=False)
    block = direct_sum(build_full_matrix_algebra(2), build_commutative_algebra(2))
    t2, _ = generated_subalgebra(m2, [e2(0), e2(1)], unital=True)
    column, _ = generated_subalgebra(m2, [e2(0), e2(2)], unital=False)
    return {"C+M_2": (cm2, True), "corner": (corner, True), "M_2+C_2": (block, True),
            "T_2": (t2, False), "span{e11, e21}": (column, False)}


@pytest.mark.parametrize("name", list(_exactness_cases()))
def test_spectral_ball_exact_iff_adjoint_closed(name):
    algebra, exact = _exactness_cases()[name]
    ball = algebra.unit_ball
    assert ball.dim < ball.k ** 2
    assert ball.exact is exact
    if not exact:
        return
    # the projected polar factor attains the nuclear norm inside the ball
    rng = stream(39, 0)
    adjoints = np.conj(np.swapaxes(algebra.realization, 1, 2))
    for _ in range(5):
        c = complex_gaussian(rng, algebra.dim)
        value, x = ball.maximize(c)
        nuclear = np.linalg.svd(np.tensordot(c, adjoints, axes=(0, 0)), compute_uv=False).sum()
        assert value == pytest.approx(nuclear, rel=1e-12)
        assert abs(c @ x) == pytest.approx(nuclear, rel=1e-12)
        assert ball.norm(x) <= 1 + 1e-9


def test_inverted_interval_is_a_falsification():
    with pytest.raises(FalsificationError):
        DefectEstimate(2.0, 1.0)


def test_box_ball_linear_functional():
    c3 = build_commutative_algebra(3)
    ball = ball_for(c3)
    c = np.array([1.0, -2.0, 3.0j])
    value, x = ball.maximize(c)
    assert value == pytest.approx(6.0)
    assert abs(c @ x) == pytest.approx(6.0)
    assert ball.norm(x) == pytest.approx(1.0)


def test_spectral_ball_polar_maximizer():
    m2 = build_full_matrix_algebra(2)
    ball = ball_for(m2)
    rng = stream(36, 0)
    c = complex_gaussian(rng, 4)
    value, x = ball.maximize(c)
    mat = np.tensordot(c, np.conj(np.swapaxes(m2.realization, 1, 2)), axes=(0, 0))
    assert value == pytest.approx(np.linalg.svd(mat, compute_uv=False).sum())
    assert ball.norm(x) == pytest.approx(1.0)
    assert abs(c @ x) == pytest.approx(value)


def test_swapped_witness_certifies_opposite_side():
    # the A x D defect's witness, swapped, is a D x A witness on the opposites
    m2 = build_full_matrix_algebra(2)
    _, emb = generated_subalgebra(m2, [m2.basis_element(0)], unital=True)
    phi = LinearMap(m2, m2, np.eye(4) + 0.1 * complex_gaussian(stream(37, 0), (4, 4)))
    est_ad = defect(phi, right=emb, restarts=8, seed=11)

    m2_op = opposite(m2)
    phi_op = LinearMap(m2_op, m2_op, phi.matrix)
    x, y = est_ad.witness
    val = m2_op.element_norm(
        np.einsum("tij,i,j->t", _defect_tensor(phi_op), emb.matrix @ y, x)
    )
    assert val == pytest.approx(est_ad.lower, rel=1e-9, abs=1e-12)


def _defect_tensor(phi):
    a, b = phi.source, phi.target
    return np.einsum("ijm,tm->tij", a.structure, phi.matrix) - np.einsum(
        "pqt,pi,qj->tij", b.structure, phi.matrix, phi.matrix
    )


def test_defect_estimate_serialization_schema():
    m2 = build_full_matrix_algebra(2)
    phi = LinearMap(m2, m2, complex_gaussian(stream(38, 0), (4, 4)))
    est = defect(phi, restarts=4, seed=12)
    doc = est.to_json_dict()
    assert set(doc) == {"lower", "upper", "witness", "restarts_used", "seed"}
    assert doc["restarts_used"] == 4 and doc["seed"] == 12
    assert len(doc["witness"]) == 2
