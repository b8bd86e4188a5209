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
from amnm import normest, suites
from amnm.normest import (
    PROVED_SWEEPS,
    SWEEP_TOL,
    TIE_TOL,
    BoxBall,
    CompositeSumBall,
    EuclideanBall,
    FalsificationGuard,
    SpectralBall,
    _svd_start,
    _unfolding_uppers,
    estimate_tensor_norm,
)
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
    assert isinstance(m2.unit_ball, SpectralBall)
    c3 = build_commutative_algebra(3)
    assert isinstance(c3.unit_ball, BoxBall)
    d, _ = generated_subalgebra(m2, [m2.basis_element(0)], unital=True)
    assert isinstance(d.unit_ball, BoxBall)  # minimal idempotents recovered
    u = unitize(m2)
    assert isinstance(u.unit_ball, CompositeSumBall)
    m3 = build_full_matrix_algebra(3)
    e = m3.basis_element
    cm2, _ = generated_subalgebra(m3, [e(0), e(4) + e(8), e(5), e(7)], unital=True)
    ball = cm2.unit_ball  # C + M_2: adjoint-closed, so polar steps are exact
    assert isinstance(ball, SpectralBall) and ball.exact is True
    t2, _ = generated_subalgebra(m2, [m2.basis_element(0), m2.basis_element(1)], unital=True)
    ball = t2.unit_ball  # upper-triangular: the inscribed fallback
    assert isinstance(ball, SpectralBall) and ball.exact is False
    # span{1, N}, N = [[1, 1], [0, 2]]: commutative with a frame, but not
    # adjoint-closed, so its idempotents have spectral norm sqrt(2), not 1
    n = m2.element([1.0, 1.0, 0.0, 2.0])
    sn, _ = generated_subalgebra(m2, [n], unital=True)
    ball = sn.unit_ball
    assert isinstance(ball, SpectralBall) and ball.exact is False
    assert sn.idempotent_frame is not None
    for p in sn.idempotent_frame.T:
        assert sn.element_norm(p) == pytest.approx(np.sqrt(2.0), rel=1e-12)


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
    # the guard is relative: an inverted interval at tiny scale is caught too
    with pytest.raises(FalsificationGuard):
        DefectEstimate(5e-13, 1e-20)


def test_box_ball_linear_functional():
    c3 = build_commutative_algebra(3)
    ball = c3.unit_ball
    c = np.array([1.0, -2.0, 3.0j])
    value, x = ball.maximize(c)
    assert value == pytest.approx(6.0)
    assert abs(c @ x) == pytest.approx(6.0)
    assert ball.norm(x) == pytest.approx(1.0)


def test_spectral_ball_polar_maximizer():
    m2 = build_full_matrix_algebra(2)
    ball = m2.unit_ball
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
    # an unclaimed estimate ends at the cheap stage only with its bracket closed
    assert doc["restarts_used"] == 4 or (doc["restarts_used"] == 1 and est.upper <= est.factor * est.lower)
    assert doc["seed"] == 12
    assert len(doc["witness"]) == 2


# -- the batched estimator against a per-restart reference -------------------------


def _reference_apply(tensor, xs):
    out = tensor
    for x in xs:
        out = np.tensordot(out, x, axes=(1, 0))
    return out


def _contract_all_but(tensor, dual, xs, skip):
    out = np.tensordot(dual, tensor, axes=(0, 0))
    for s, x in enumerate(xs):
        if s == skip:
            continue
        out = np.tensordot(out, x, axes=(0 if s < skip else 1, 0))
    return out


def _sweep(tensor, balls, target, xs, sweeps):
    xs = [x.copy() for x in xs]
    best_val, dual = target.norm_and_dual(_reference_apply(tensor, xs))
    best_xs = [x.copy() for x in xs]
    prev = best_val
    for _ in range(sweeps):
        for s in range(len(xs)):
            g = _contract_all_but(tensor, dual, xs, s)
            val, xnew = balls[s].maximize(g)
            if balls[s].exact or val >= abs(g @ xs[s]):
                xs[s] = xnew
        v, dual = target.norm_and_dual(_reference_apply(tensor, xs))
        if v > best_val:
            best_val = v
            best_xs = [x.copy() for x in xs]
        if abs(v - prev) < SWEEP_TOL:
            break
        prev = v
    return best_val, best_xs


def _full_search(tensor, balls, target, restarts, sweeps, seed):
    """The full witness search at this budget under the estimate's upper:
    what an estimate returns when the cheap stage does not end it."""
    upper = estimate_tensor_norm(tensor, balls, target, restarts=0).upper
    return normest._search(tensor, balls, target, restarts, sweeps, seed, upper)


def reference_estimate(tensor, balls, target, restarts, sweeps, seed):
    """One single-vector sweep per restart, in restart order: the estimator
    before restarts were batched.  Returns the lower bound, the winning
    restart and every restart's best iterate."""
    iterates, best, best_val = [], None, -1.0
    for r in range(restarts):
        if r == 0:
            xs = [x[0] for x in _svd_start(tensor[None], balls)]
        else:
            xs = [balls[s].random_points([stream(seed, r, s)])[0] for s in range(len(balls))]
        val, xs = _sweep(tensor, balls, target, xs, sweeps)
        iterates.append(xs)
        if val > best_val + TIE_TOL:
            best, best_val = r, val
    lower = target.norm(_reference_apply(tensor, iterates[best]))
    return lower, best, iterates


def _ball_cases():
    m2 = build_full_matrix_algebra(2)
    c3 = build_commutative_algebra(3)
    t2, _ = generated_subalgebra(m2, [m2.basis_element(0), m2.basis_element(1)], unital=True)
    return {
        "euclidean": build_full_matrix_algebra(2, norm_mode="frobenius"),
        "spectral": m2,
        "spectral-inexact": t2,
        "box": c3,
        "composite-box": unitize(build_commutative_algebra(2)),
        "composite-spectral": unitize(m2),
    }


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("name", list(_ball_cases()))
def test_batched_estimate_matches_per_restart_reference(name, arity):
    algebra = _ball_cases()[name]
    target = algebra.unit_ball
    balls = [target] * arity
    rng = stream(41, arity)
    for restarts in (1, 2, 5, 16):
        tensor = complex_gaussian(rng, (algebra.dim,) * (arity + 1))
        seed = 100 + restarts
        est = _full_search(tensor, balls, target, restarts, 60, seed)
        lower, winner, iterates = reference_estimate(tensor, balls, target, restarts, 60, seed)
        assert est.lower == pytest.approx(lower, rel=1e-12)
        assert est.restarts_used == restarts
        # the winner is the first restart whose best iterate is the witness
        scale = max(np.abs(np.concatenate(est.witness)).max(), 1.0)
        matches = [
            r for r, xs in enumerate(iterates)
            if max(np.abs(x - w).max() for x, w in zip(xs, est.witness)) <= 1e-8 * scale
        ]
        assert matches and matches[0] == winner


def test_batched_estimate_degenerate_inputs():
    m2 = build_full_matrix_algebra(2)
    ball = m2.unit_ball
    zero = estimate_tensor_norm(np.zeros((4, 4, 4), dtype=complex), [ball, ball], ball, restarts=4)
    assert (zero.lower, zero.upper, zero.restarts_used) == (0.0, 0.0, 0)
    tensor = complex_gaussian(stream(42, 0), (4, 4, 4))
    upper_only = estimate_tensor_norm(tensor, [ball, ball], ball, restarts=0)
    assert upper_only.lower == 0.0 and upper_only.restarts_used == 0
    assert upper_only.upper == estimate_tensor_norm(tensor, [ball, ball], ball, restarts=2).upper
    assert all(not w.any() for w in upper_only.witness)


# -- claims: a proved claim gets only the cheap stage ---------------------------------


def _same_estimate(x, y) -> bool:
    return (x.lower, x.upper, x.restarts_used, x.seed) == (y.lower, y.upper, y.restarts_used, y.seed) and all(
        u.tobytes() == v.tobytes() for u, v in zip(x.witness, y.witness))


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("name", list(_ball_cases()))
def test_stacked_estimates_equal_their_single_calls(name, arity):
    algebra = _ball_cases()[name]
    target = algebra.unit_ball
    balls = [target] * arity
    tensors = np.stack([complex_gaussian(stream(48 + i, arity), (algebra.dim,) * (arity + 1)) for i in range(3)])
    uppers = [estimate_tensor_norm(t, balls, target, restarts=0).upper for t in tensors]
    # a claim its upper proves, no claim, and a claim below the upper, which
    # leaves the estimate to the full search
    seeds, claims = [5, 6, 7], [2.0 * uppers[0], None, 0.5 * uppers[2]]
    stacked = normest.estimate_tensor_norms(tensors, balls, target, 8, 60, seeds, claims)
    for tensor, seed, claim, est in zip(tensors, seeds, claims, stacked):
        alone = estimate_tensor_norm(tensor, balls, target, restarts=8, sweeps=60, seed=seed, claim=claim)
        assert _same_estimate(est, alone)
        assert (est.claim, est.factor) == (alone.claim, alone.factor)
        if claim is not None:
            assert (est.passed, est.proved) == (alone.passed, alone.proved)
    assert stacked[0].proved and stacked[0].restarts_used == 1
    assert not stacked[2].proved and stacked[2].restarts_used == 8


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("name", list(_ball_cases()))
def test_a_met_claim_runs_restart_zero_for_a_few_sweeps(name, arity):
    algebra = _ball_cases()[name]
    target = algebra.unit_ball
    balls = [target] * arity
    tensor = complex_gaussian(stream(43, arity), (algebra.dim,) * (arity + 1))
    full = _full_search(tensor, balls, target, 8, 60, 5)
    proved = estimate_tensor_norm(tensor, balls, target, restarts=8, sweeps=60, seed=5, claim=2.0 * full.upper)
    assert proved.upper == full.upper
    assert proved.restarts_used == 1
    assert proved.lower <= full.lower
    # the cheap stage is restart 0 of the full search, cut at PROVED_SWEEPS sweeps
    prefix = estimate_tensor_norm(tensor, balls, target, restarts=1, sweeps=PROVED_SWEEPS, seed=5)
    assert _same_estimate(proved, prefix)


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("name", list(_ball_cases()))
def test_an_unmet_or_absent_claim_keeps_the_full_search(name, arity):
    # an absent claim is bracketed instead (see the bracket tests below)
    algebra = _ball_cases()[name]
    target = algebra.unit_ball
    balls = [target] * arity
    tensor = complex_gaussian(stream(44, arity), (algebra.dim,) * (arity + 1))
    full = _full_search(tensor, balls, target, 8, 60, 6)
    assert full.restarts_used == 8
    for claim in (np.nextafter(full.upper, 0.0), 0.5 * full.upper, 0.0):
        est = estimate_tensor_norm(tensor, balls, target, restarts=8, sweeps=60, seed=6, claim=claim)
        assert _same_estimate(est, full)


def test_a_witness_that_lifts_the_upper_past_the_claim_gets_the_full_search(monkeypatch):
    # a rank-one tensor on Euclidean balls: the search attains the unfolding
    # bound, so an upper shaded below it is lifted by the witness
    a, b = frob_pair(3, 4)
    rng = stream(45, 0)
    tensor = np.einsum("t,i,j->tij", complex_gaussian(rng, 4), complex_gaussian(rng, 3), complex_gaussian(rng, 3))
    balls, target = [a.unit_ball, a.unit_ball], b.unit_ball
    monkeypatch.setattr(normest, "_unfolding_uppers", lambda t: [u * (1 - 1e-10) for u in _unfolding_uppers(t)])
    raw = normest._unfolding_uppers(tensor[None])[0]
    full = _full_search(tensor, balls, target, 4, 60, 7)
    assert full.lower > raw and full.upper == full.lower
    est = estimate_tensor_norm(tensor, balls, target, restarts=4, sweeps=60, seed=7, claim=raw)
    assert _same_estimate(est, full)


# -- brackets: an unclaimed estimate ends at the cheap stage once upper <= F * lower --------


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("name", list(_ball_cases()))
def test_a_bracket_ends_at_the_cheap_stage_or_keeps_the_full_search(name, arity):
    algebra = _ball_cases()[name]
    target = algebra.unit_ball
    balls = [target] * arity
    for draw in range(3):
        tensor = complex_gaussian(stream(46 + draw, arity), (algebra.dim,) * (arity + 1))
        full = _full_search(tensor, balls, target, 8, 60, 5)
        est = estimate_tensor_norm(tensor, balls, target, restarts=8, sweeps=60, seed=5)
        assert est.factor == estimate_tensor_norm(tensor, balls, target, restarts=0).factor
        assert est.upper == full.upper
        prefix = _full_search(tensor, balls, target, 1, PROVED_SWEEPS, 5)
        if prefix.lower * est.factor >= prefix.upper:
            # the cheap stage is restart 0 of the full search, cut at PROVED_SWEEPS sweeps
            assert _same_estimate(est, prefix)
            assert est.restarts_used == 1 and est.lower <= full.lower
        else:
            # an open bracket leaves the estimate to the full search
            assert _same_estimate(est, full)
            assert est.restarts_used == 8
        assert est.claim is None


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("name", list(_ball_cases()))
def test_doubling_the_restarts_never_lowers_a_bracketed_lower(name, arity):
    algebra = _ball_cases()[name]
    target = algebra.unit_ball
    balls = [target] * arity
    for draw in range(3):
        tensor = complex_gaussian(stream(46 + draw, arity), (algebra.dim,) * (arity + 1))
        lowers = [estimate_tensor_norm(tensor, balls, target, restarts=r, sweeps=60, seed=5).lower
                  for r in (4, 8, 16)]
        assert lowers == sorted(lowers)


def test_a_frobenius_bracket_closes_only_at_lower_equal_upper():
    # every factor is 1 on Euclidean balls, so upper <= F * lower means
    # lower == upper: a rank-one tensor, whose search attains the unfolding
    # bound, and nothing generic
    a, b = frob_pair(3, 4)
    balls, target = [a.unit_ball, a.unit_ball], b.unit_ball
    closed = 0
    for draw in range(4):
        rng = stream(45 + draw, 0)
        rank_one = np.einsum("t,i,j->tij", complex_gaussian(rng, 4), complex_gaussian(rng, 3),
                             complex_gaussian(rng, 3))
        generic = complex_gaussian(rng, (4, 3, 3))
        for tensor in (rank_one, generic):
            est = estimate_tensor_norm(tensor, balls, target, restarts=4, sweeps=60, seed=7)
            assert est.factor == 1.0
            assert (est.restarts_used == 1) == (est.lower == est.upper)
            if est.restarts_used == 4:
                assert _same_estimate(est, _full_search(tensor, balls, target, 4, 60, 7))
            closed += est.restarts_used == 1
        assert est.restarts_used == 4 and est.lower < est.upper  # the generic draw
    assert closed >= 1


def test_the_factor_is_the_conversion_of_the_unfolding_bound():
    m2, c3 = build_full_matrix_algebra(2), build_commutative_algebra(3)
    tensor = complex_gaussian(stream(47, 0), (4, 3, 4))
    balls, target = [c3.unit_ball, m2.unit_ball], m2.unit_ball
    est = estimate_tensor_norm(tensor, balls, target, restarts=2, sweeps=10, seed=1)
    factor = target.target_factor() * c3.unit_ball.coords_factor() * m2.unit_ball.coords_factor()
    assert est.factor == factor
    assert est.upper == pytest.approx(_unfolding_uppers(tensor[None])[0] * factor, rel=1e-15)
    # every return path carries it
    assert estimate_tensor_norm(tensor, balls, target, restarts=0).factor == factor
    assert estimate_tensor_norm(0 * tensor, balls, target).factor == factor
    assert linear_map_norm(LinearMap(*frob_pair(3, 3), np.eye(3))).factor == 1.0


@pytest.mark.parametrize("name", list(_ball_cases()))
def test_ball_methods_act_row_by_row(name):
    ball = _ball_cases()[name].unit_ball
    rows = complex_gaussian(stream(43, 0), (6, ball.dim))
    rows[2] = 0.0  # a zero functional has every ball point as a maximizer
    values, points = ball.maximize(rows)
    norms = ball.norm(rows)
    assert values.shape == norms.shape == (6,) and points.shape == rows.shape
    duals = ball.norm_and_dual(rows)[1]
    for i, row in enumerate(rows):
        value, point = ball.maximize(row)
        assert values[i] == pytest.approx(value, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(points[i], point, rtol=1e-12, atol=1e-14)
        assert norms[i] == pytest.approx(ball.norm(row), rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(duals[i], ball.norm_and_dual(row)[1], rtol=1e-12, atol=1e-14)
    # stacked start points are bit-identical to points drawn one at a time
    starts = ball.random_points([stream(43, r) for r in range(1, 4)])
    for r, start in enumerate(starts, 1):
        assert np.array_equal(start, ball.random_points([stream(43, r)])[0])


@pytest.mark.parametrize("name", list(_ball_cases()))
def test_ball_steps_stay_finite_on_subnormal_functionals(name):
    # complex division by a subnormal size overflows unless it is rescaled
    ball = _ball_cases()[name].unit_ball
    rows = 1e-310 * complex_gaussian(stream(46, 0), (3, ball.dim))
    values, points = ball.maximize(rows)
    assert np.all(np.isfinite(points)) and np.all(np.isfinite(values))
    assert np.all(ball.norm(points) <= 1.0 + 1e-9)


def _count_svd_calls(monkeypatch):
    svd, calls = np.linalg.svd, []

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


@pytest.mark.parametrize("k", [2, 3])
def test_svd_calls_do_not_scale_with_restarts(monkeypatch, k):
    # on M_k all restarts share each stacked SVD: per sweep one step per slot
    # and one target evaluation, which gives the value's norm and the next
    # sweep's dual functional; the random starts of a slot are normed by one
    # stacked SVD, and the slot factors are computed once per ball.  The claim
    # 0 is never proved, so the full search runs
    mk = build_full_matrix_algebra(k)
    phi = LinearMap(mk, mk, np.eye(k * k) + 0.1 * complex_gaussian(stream(44, 1), (k * k, k * k)))
    calls = _count_svd_calls(monkeypatch)
    sweeps, slots = 60, 2
    for restarts in (4, 32):
        calls.clear()
        defect(phi, restarts=restarts, sweeps=sweeps, seed=1, claim=0.0)
        assert len(calls) <= (slots + 1) * sweeps + 16, (restarts, len(calls))


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
def test_sweeps_of_the_stacked_suite_checks_do_not_scale_with_instances(monkeypatch, mode):
    # each check sweeps once per stack (per algebra), however many instances
    # it holds: at the suite's seeds every estimate ends at the cheap stage
    sweep, calls = normest._sweep, []

    def counting_sweep(*args):
        calls.append(1)
        return sweep(*args)

    monkeypatch.setattr(normest, "_sweep", counting_sweep)
    counts = []
    for n in (4, 16):
        calls.clear()
        seeds = [3000 + i for i in range(n)]
        for fn in suites.SEARCHED_CHECKS + (suites.check_improving_bounds,):
            fn(mode, seeds)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0, counts


# -- the fused target step and shared balls -------------------------------------------


@pytest.mark.parametrize("name", list(_ball_cases()))
def test_norm_and_dual_norms_every_row(name):
    target = _ball_cases()[name].unit_ball
    rows = complex_gaussian(stream(47, 0), (6, target.dim))
    rows[2] = 0.0
    rows[3] *= 1e-200  # squared entries underflow
    rows[4] *= 1e-310  # subnormal entries
    values, duals = target.norm_and_dual(rows)
    norms = target.norm(rows)
    if isinstance(target, EuclideanBall):
        assert np.array_equal(values, norms)
    # subnormal values are rounded to multiples of the smallest subnormal
    grid = 8 * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(values - norms) <= 1e-15 * norms + grid)
    # each row's functional norms it ...
    assert np.all(np.abs(np.sum(duals * rows, axis=-1) - values) <= 1e-14 * values + 1e-320)
    # ... at dual norm at most 1: exactly where maximize is exact, and on samples
    if target.exact:
        assert np.all(target.maximize(duals)[0] <= 1 + 1e-12)
    samples = complex_gaussian(stream(47, 1), (200, target.dim))
    assert np.all(np.abs(duals @ samples.T) <= target.norm(samples) * (1 + 1e-12))


def test_euclidean_norms_survive_underflow():
    ball = EuclideanBall(4)
    v = complex_gaussian(stream(48, 0), (3, 4))
    rows = v * np.array([1.0, 1e-200, 1e-310])[:, None]
    norms = ball.norm(rows)
    assert norms[0] == np.linalg.norm(v[0], axis=-1)  # normal rows keep their bits
    assert norms[1] == pytest.approx(1e-200 * np.linalg.norm(v[1]), rel=1e-15)
    # subnormal entries carry about 1e-13 relative rounding of their own
    assert norms[2] == pytest.approx(1e-310 * np.linalg.norm(v[2]), rel=1e-12)
    assert [ball.norm(row) for row in rows[1:]] == pytest.approx(list(norms[1:]), rel=1e-15)
    values, points = ball.maximize(rows)
    assert np.array_equal(values, norms)
    assert ball.norm(points) == pytest.approx([1.0, 1.0, 1.0], rel=1e-15)


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e250, 1e300])
def test_estimates_survive_overflow(scale):
    # entries from about 1e154 on square to inf; such rows are normed after
    # an exact scaling, and rows in range keep their bits
    ball = EuclideanBall(4)
    v = complex_gaussian(stream(49, 0), (2, 4))
    rows = v * np.array([1.0, scale])[:, None]
    norms = ball.norm(rows)
    assert norms[0] == np.linalg.norm(v[0], axis=-1)
    assert norms[1] == pytest.approx(scale * np.linalg.norm(v[1]), rel=1e-15)
    assert ball.norm(rows[1]) == pytest.approx(norms[1], rel=1e-15)

    # Euclidean arity 1 is the top singular value
    mat = complex_gaussian(stream(49, 1), (3, 4))
    est = estimate_tensor_norm(mat * scale, [EuclideanBall(4)], EuclideanBall(3), 4, 60, 0)
    top = np.linalg.svd(mat, compute_uv=False)[0] * scale
    assert est.lower == pytest.approx(top, rel=1e-14) and est.upper == pytest.approx(top, rel=1e-14)

    # Frobenius M_2, arity 2: the interval scales with the tensor
    m2 = build_full_matrix_algebra(2, norm_mode="frobenius")
    tensor = complex_gaussian(stream(49, 2), (4, 4, 4))
    unit = estimate_tensor_norm(tensor, [m2.unit_ball] * 2, m2.unit_ball, 4, 60, 0)
    big = estimate_tensor_norm(tensor * scale, [m2.unit_ball] * 2, m2.unit_ball, 4, 60, 0)
    assert np.isfinite(big.upper) and big.lower <= big.upper
    assert big.lower == pytest.approx(unit.lower * scale, rel=1e-9)
    assert big.upper == pytest.approx(unit.upper * scale, rel=1e-12)


def _ball_arrays(ball):
    for value in vars(ball).values():
        if isinstance(value, np.ndarray):
            yield value
        elif hasattr(value, "maximize"):  # a composite ball's base
            yield from _ball_arrays(value)


def test_cached_ball_arrays_refuse_writes():
    # balls are cached per algebra and shared by every estimate in the process
    algebras = list(_ball_cases().values()) + [a for a, _ in _exactness_cases().values()]
    for algebra in algebras:
        arrays = list(_ball_arrays(algebra.unit_ball))
        assert arrays or isinstance(algebra.unit_ball, EuclideanBall)
        for array in arrays:
            with pytest.raises(ValueError):
                array.flat[0] = 0.0


# -- rank-aware slot factors ----------------------------------------------------------


def test_spectral_coords_factor_is_sqrt_of_span_rank():
    for k in (2, 3, 4):
        assert build_full_matrix_algebra(k).unit_ball.coords_factor() == np.sqrt(k)
    cases = _exactness_cases()
    assert cases["C+M_2"][0].unit_ball.coords_factor() == pytest.approx(np.sqrt(3.0), rel=1e-12)
    corner = cases["corner"][0]
    assert corner.unit_ball.coords_factor() == pytest.approx(np.sqrt(2.0), rel=1e-12)
    # the corner's bilinear upper is the unfolding bound times sqrt(2) per slot
    tensor = complex_gaussian(stream(45, 0), (4, 4, 4))
    est = multilinear_norm(Cochain((corner, corner), corner, tensor), restarts=6, sweeps=40, seed=3)
    unfolding = min(
        np.linalg.svd(np.moveaxis(tensor, a, 0).reshape(4, -1), compute_uv=False)[0] for a in range(3)
    )
    assert est.upper == pytest.approx(2.0 * unfolding, rel=1e-12)


# -- spectral steps on degenerate matrices ---------------------------------------------


def _spectral_cases(k):
    rng = stream(49, 0)
    mats = complex_gaussian(rng, (64, k, k))
    u, _, vh = np.linalg.svd(mats)
    left = complex_gaussian(rng, (16, k, 1))
    cases = {
        "random": mats,
        "unitary-multiples": 10.0 ** np.linspace(-3, 3, 64)[:, None, None] * (u @ vh),
        "nearly-equal-singular-values": u @ ((1.0 - 1e-9 * np.arange(k))[:, None] * vh),
        "ill-conditioned": u @ (np.geomspace(1.0, 1e-7, k)[:, None] * vh),
        "rank-one": left @ np.conj(np.swapaxes(complex_gaussian(rng, (16, k, 1)), 1, 2)),
        "zero": np.zeros((2, k, k), dtype=complex),
    }
    for scale in (1e-310, 1e-200, 1e200):
        cases[f"scaled-{scale:g}"] = scale * mats[:16]
    return cases


@pytest.mark.parametrize("name", list(_spectral_cases(2)))
@pytest.mark.parametrize("k", [2, 3])
def test_spectral_steps_match_lapack_on_degenerate_matrices(k, name):
    mats = _spectral_cases(k)[name]
    mk = build_full_matrix_algebra(k)
    ball, real = mk.unit_ball, mk.realization
    sing = np.linalg.svd(mats, compute_uv=False)
    # subnormal results are rounded to multiples of the smallest subnormal
    grid = 8 * np.finfo(float).smallest_subnormal
    # norm: the matrix of coordinates z is sum_i z_i R_i
    coords = np.einsum("iab,rab->ri", np.conj(real), mats)
    norms = ball.norm(coords)
    assert np.all(np.abs(norms - sing[:, 0]) <= 1e-15 * sing[:, 0] + grid)
    # maximize: the functional c has matrix sum_i c_i R_i^H = mats
    c = np.einsum("iab,rba->ri", real, mats)
    nuclear = sing.sum(axis=-1)
    value, x = ball.maximize(c)
    assert np.all(np.abs(value - nuclear) <= 1e-14 * nuclear + grid)
    assert np.all(np.linalg.svd(np.tensordot(x, real, axes=(1, 0)), compute_uv=False)[:, 0] <= 1 + 1e-12)
    assert np.all(np.abs(np.sum(c * x, axis=-1) - nuclear) <= 1e-14 * nuclear + grid)
    # norm_and_dual: the top singular value and a functional that norms the row
    top, dual = ball.norm_and_dual(coords)
    assert np.all(np.abs(top - norms) <= 1e-15 * norms + grid)
    assert np.all(np.abs(np.sum(dual * coords, axis=-1) - top) <= 1e-14 * top + grid)
    assert np.all(ball.maximize(dual)[0] <= 1 + 1e-12)


def test_box_ball_factor_is_computed_once(monkeypatch):
    ball = BoxBall(np.eye(3))
    first = ball.coords_factor()
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    assert ball.coords_factor() == first
    assert calls == []
