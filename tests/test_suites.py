"""The suite's stacked checks against loop forms of the same checks, its
sampled arity-3 lower, its checker rows and a seeded run of every block."""

import numpy as np
import pytest

from amnm import multilinear, perturbation, suites
from amnm.algebra import build_commutative_algebra, build_full_matrix_algebra, direct_sum, summand_quotient
from amnm.cli import RunConfig
from amnm.diagonal import TensorRep, _scenario, average
from amnm.errors import DomainError
from amnm.jsonio import dumps
from amnm.multilinear import Cochain, LinearMap, coboundary, defect_cochain, multilinear_norm, restrict_slot
from amnm.normest import DefectEstimate
from amnm.rng import complex_gaussian, stream

MODES = ["spectral", "frobenius"]
SEEDS = [0, 1, 2, 5, 611, 10_004]


# -- the exact checks, one product per basis vector, leg and pair ----------------


def _loop_splitting_v1(mode, seed):
    rng = stream(seed, 3)
    a, emb, _ = _scenario(2, mode)
    b = a
    phi = suites.random_map(a, b, rng)
    psi = Cochain((a, a), b, complex_gaussian(rng, (b.dim, a.dim, a.dim)))
    rep = suites.random_tensor_rep(emb.sub, rng)
    lhs = coboundary(phi, average(phi, emb, rep, psi)).tensor + average(phi, emb, rep, coboundary(phi, psi)).tensor
    u = np.zeros(b.dim, dtype=complex)
    for c, dd in rep.pairs:
        u += b.multiply_coords(phi.apply(emb.embed_coords(c)), phi.apply(emb.embed_coords(dd)))
    term1 = np.einsum("p,pqt,qij->tij", u, b.structure, psi.tensor)
    avg1 = average(phi, emb, rep, psi).tensor
    term2 = np.einsum("pqt,pi,qj->tij", b.structure, phi.matrix, avg1)
    term3 = np.zeros_like(term1)
    basis = np.eye(a.dim)
    for i in range(a.dim):
        for c, dd in rep.pairs:
            da = a.multiply_coords(emb.embed_coords(dd), basis[i])
            psi_da = np.tensordot(psi.tensor, da, axes=(1, 0))
            phi_c = phi.apply(emb.embed_coords(c))
            term3[:, i, :] += np.einsum("p,pqt,qj->tj", phi_c, b.structure, psi_da)
    return np.abs(lhs - (term1 + term2 - term3)).max()


def _loop_preserved_by_improvement(mode, seed):
    rng = stream(seed, 5)
    a, emb, _ = _scenario(2, mode)
    gamma = suites.right_modular_perturbation(a, emb, rng, 0.05)
    psi = LinearMap(a, a, np.eye(a.dim) + gamma)
    phi = suites.random_map(a, a, rng)
    rep = suites.random_tensor_rep(emb.sub, rng)
    avg = average(phi, emb, rep, defect_cochain(psi)).tensor
    resid = np.abs(avg @ emb.matrix).max()
    for m in range(emb.sub.dim):
        x = emb.matrix[:, m]
        lhs = avg @ a.right_mult_matrix(x)
        rhs = np.einsum("pi,pqt,q->ti", avg, a.structure, psi.apply(x))
        resid = max(resid, np.abs(lhs - rhs).max())
    return resid


def _loop_linearization(mode, seed):
    rng = stream(seed, 1)
    a = suites._algebra_cycle(mode, seed)
    phi = suites.random_map(a, a, rng)
    gamma = suites.random_map(a, a, rng)
    combined = defect_cochain(LinearMap(a, a, phi.matrix + gamma.matrix))
    cross = coboundary(phi, Cochain((a,), a, gamma.matrix))
    gg = np.einsum("pqt,pi,qj->tij", a.structure, gamma.matrix, gamma.matrix)
    return np.abs(combined.tensor - (defect_cochain(phi).tensor - cross.tensor - gg)).max()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("check, loop", [
    (suites.check_splitting_v1, _loop_splitting_v1),
    (suites.check_preserved_by_improvement, _loop_preserved_by_improvement),
    (suites.check_linearization, _loop_linearization),
])
def test_stacked_exact_checks_match_their_loops(check, loop, mode):
    # the residuals are rounding noise of the same identities, so they agree
    # to rounding of the scale; a mis-stacked term leaves a residual of order one
    for seed in SEEDS:
        row = check(mode, seed)
        scale = row.rhs_hi / suites.EXACT_TOL
        assert row.passed and row.lhs_lo == row.lhs_hi
        assert abs(row.lhs_hi - loop(mode, seed)) <= 1e-13 * scale
        assert row.lhs_hi <= 1e-13 * scale


# -- the sampled arity-3 lower ----------------------------------------------------


def _loop_points(slots, seed, samples):
    rng = stream(seed, 9)
    draws = [[s.unit_ball.random_points([rng])[0] for s in slots] for _ in range(samples)]
    return [np.array([row[k] for row in draws]) for k in range(len(slots))]


def _loop_lower(chain, seed, samples=40):
    best = 0.0
    for args in zip(*_loop_points(chain.slots, seed, samples)):
        best = max(best, chain.target.unit_ball.norm(chain.evaluate(*args)))
    return best


@pytest.mark.parametrize("mode", MODES)
def test_batched_samples_are_the_loop_draws(mode):
    a = build_full_matrix_algebra(2, norm_mode=mode)
    for seed in SEEDS:
        points = suites._sample_points((a, a, a), seed, 40)
        for got, want in zip(points, _loop_points((a, a, a), seed, 40)):
            if mode == "spectral":
                # the 2x2 norm is element-wise, so stacked points keep their bits
                assert np.array_equal(got, want)
            else:
                # the same draws, normed by a stacked l2 norm
                assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("mode", MODES)
def test_batched_sampled_lower_matches_the_loop(mode):
    a = build_full_matrix_algebra(2, norm_mode=mode)
    for seed in SEEDS:
        rng = stream(seed, 10)
        phi = suites.random_map(a, a, rng)
        gamma = suites.random_map(a, a, rng)
        chain = coboundary(phi, coboundary(phi, Cochain((a,), a, gamma.matrix)))
        want = _loop_lower(chain, seed)
        assert suites._sampled_lower_arity3(chain, seed) == pytest.approx(want, rel=1e-14, abs=0)


def test_sampled_points_refuse_balls_drawn_otherwise():
    c2 = build_commutative_algebra(2)  # a box ball draws phases and radii
    with pytest.raises(DomainError):
        suites._sample_points((c2, c2, c2), 0, 4)


# -- checker rows -----------------------------------------------------------------


def test_corner_fixture_restricts_as_corner_restriction_does():
    corner = suites._m4_corner()
    assert suites._m4_corner() is corner
    q_alg, _ = summand_quotient(direct_sum(build_full_matrix_algebra(4), build_full_matrix_algebra(2)), keep=0)
    assert q_alg is build_full_matrix_algebra(4)
    assert corner.parent is q_alg
    psi = LinearMap(q_alg, q_alg, 0.0015 * complex_gaussian(stream(9017, 17), (16, 16)))
    basis = [q_alg.basis_element(4 * i + j) for i in range(2) for j in range(2)]
    restricted, emb = perturbation.corner_restriction(psi, basis)
    assert np.array_equal(emb.matrix, corner.matrix)
    assert np.array_equal(restricted.source.structure, corner.sub.structure)
    assert np.array_equal(restricted.matrix, psi.matrix @ corner.matrix)


_CHECKER_CLAIMS = {"small-on-identity-valid", "equivalence-pipeline"}


def _assert_recomputable(row):
    # small_on_identity compares with rhs (1 + 1e-9) + 1e-12
    claim = row.rhs_hi * (1 + 1e-9) + 1e-12
    assert row.lhs_lo <= row.lhs_hi
    assert row.passed == (row.lhs_lo <= claim)
    assert row.proved == (row.lhs_hi <= claim)


def test_checker_rows_carry_the_upper_that_proves_them(monkeypatch):
    for seed in (9005, 9611):
        rows = [r for r in suites.checker_valid_battery(seed) if r.check in _CHECKER_CLAIMS]
        assert len(rows) == 2
        for row in rows:
            assert row.passed and row.proved
            _assert_recomputable(row)
    # an upper too wide to prove the claim: the row shows it, and is not proved
    norm = perturbation.linear_map_norm

    def widened(*args, **kwargs):
        est = norm(*args, **kwargs)
        return DefectEstimate(est.lower, 1e6 * max(est.upper, 1e-6), est.witness, est.restarts_used, est.seed,
                              est.claim)

    monkeypatch.setattr(perturbation, "linear_map_norm", widened)
    rows = [r for r in suites.checker_valid_battery(9005) if r.check in _CHECKER_CLAIMS]
    assert len(rows) == 2
    for row in rows:
        assert row.passed and not row.proved
        _assert_recomputable(row)


def test_small_branch_draw_is_shrunk_into_the_checker_precondition(monkeypatch):
    # at seed 16511 the drawn small map's certified defect puts delta past
    # 2/9, so the battery halves it once; every row must pass
    deltas = []
    check = suites.norm_dichotomy_check

    def spy(psi, p, delta):
        deltas.append(delta)
        return check(psi, p, delta)

    monkeypatch.setattr(suites, "norm_dichotomy_check", spy)
    rows = suites.checker_valid_battery(16511)
    assert all(row.passed for row in rows)
    assert [row.check for row in rows][1] == "dichotomy-small-branch"
    assert deltas[1] <= 2.0 / 9.0


def _defect_estimated_each_call(phi, left=None, right=None, restarts=multilinear.DEFAULT_RESTARTS,
                                sweeps=multilinear.DEFAULT_SWEEPS, seed=0, claim=None):
    """``defect`` without the per-map cache of its upper-only estimate."""
    chain = defect_cochain(phi)
    if left is not None:
        chain = restrict_slot(chain, 0, left)
    if right is not None:
        chain = restrict_slot(chain, 1, right)
    return multilinear_norm(chain, restarts, sweeps, seed, claim)


def test_upper_only_defect_is_estimated_once_per_map(monkeypatch):
    m4_estimates = []

    def spy(psi, *args, **kwargs):
        restarts = kwargs.get("restarts", args[0] if args else None)
        if restarts == 0 and psi.arity == 2 and psi.slots[0].dim == 16:
            m4_estimates.append(psi)
        return multilinear_norm(psi, *args, **kwargs)

    monkeypatch.setattr(multilinear, "multilinear_norm", spy)
    for seed in (5, 9, 611):
        m4_estimates.clear()
        suites.scan_pipeline_check(seed)
        assert len(m4_estimates) == 1
    monkeypatch.undo()

    for seed in (5, 9, 611):
        with monkeypatch.context() as m:
            m.setattr(suites, "defect", _defect_estimated_each_call)
            m.setattr(perturbation, "defect", _defect_estimated_each_call)
            expected = suites.checker_valid_battery(seed)
        assert suites.checker_valid_battery(seed) == expected


# -- the seeded suite ---------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", [5, 9, 611])
def test_seeded_suite_rows_are_all_passed_and_proved(mode, seed):
    rows = suites.suite_rows(RunConfig(command="suite", seed=seed, norm_mode=mode, instances=10))
    assert len(rows) == 268
    assert [r["id"] for r in rows if not (r["passed"] and r["proved"])] == []


@pytest.mark.parametrize("mode", MODES)
def test_an_instances_rows_do_not_depend_on_how_many_instances_run(mode):
    # the searched estimates of all instances are stacked, yet each row keeps
    # the bytes it has in a smaller suite
    few = suites.suite_rows(RunConfig(command="suite", seed=611, norm_mode=mode, instances=3))
    many = {r["id"]: r for r in suites.suite_rows(RunConfig(command="suite", seed=611, norm_mode=mode, instances=10))}
    assert {r["id"].split("-")[1] for r in few if r["id"].startswith("nofalsify")} == {"0000", "0001", "0002"}
    for row in few:
        assert dumps(row) == dumps(many[row["id"]])


def _random_tensor_rep_per_leg(d, rng, pairs=2):
    """Two draws per leg, the reference for ``random_tensor_rep``'s one draw."""
    return [(complex_gaussian(rng, d.dim), complex_gaussian(rng, d.dim)) for _ in range(pairs)]


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
def test_random_tensor_rep_draws_as_one_gaussian_per_leg(mode):
    d = _scenario(2, mode)[1].sub
    for seed in range(50):
        for pairs in (0, 1, 2, 3):
            ours, ref = stream(seed, 3), stream(seed, 3)
            for _ in range(3):
                rep = suites.random_tensor_rep(d, ours, pairs)
                legs = _random_tensor_rep_per_leg(d, ref, pairs)
                assert len(rep.pairs) == len(legs)
                for (c, dd), (c_ref, d_ref) in zip(rep.pairs, legs):
                    assert np.array_equal(c, c_ref) and np.array_equal(dd, d_ref)
                assert rep.proj_bound == TensorRep(d, legs).proj_bound


def _left_modular_gap_per_vector(phi, emb, rep, psi):
    """phi(x) avg(a) - sum_k phi(x c_k) psi(d_k, a), one basis vector x of
    the subalgebra and one average at a time."""
    d, b = emb.sub, phi.target
    avg1 = average(phi, emb, rep, psi).tensor
    term1 = np.einsum("pm,pqt,qj->tmj", phi.matrix @ emb.matrix, b.structure, avg1)
    term2 = np.zeros_like(term1)
    for m in range(d.dim):
        x = np.zeros(d.dim)
        x[m] = 1.0
        moved = TensorRep(d, [(d.multiply_coords(x, c), dd) for c, dd in rep.pairs])
        term2[:, m, :] = average(phi, emb, moved, psi).tensor
    return term1 - term2


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
@pytest.mark.parametrize("seed", SEEDS)
def test_left_modular_gap_matches_per_vector_moves(mode, seed):
    # the instance check_left_modular draws
    rng = stream(seed, 12)
    a, emb, _ = _scenario(2, mode)
    phi = suites.random_map(a, a, rng)
    psi = Cochain((a, a), a, complex_gaussian(rng, (a.dim, a.dim, a.dim)))
    rep = suites.random_tensor_rep(emb.sub, rng)
    gap = suites._left_modular_gap(phi, emb, rep, psi)
    assert gap.slots == (emb.sub, a)
    cs, ds = rep.legs()
    scale = (np.abs(a.structure).max() ** 2 * np.abs(phi.matrix).max() * np.abs(emb.matrix).max() ** 2
             * np.abs(cs).max() * np.abs(ds).max() * np.abs(psi.tensor).max())
    assert np.abs(gap.tensor - _left_modular_gap_per_vector(phi, emb, rep, psi)).max() <= 1e-13 * scale
