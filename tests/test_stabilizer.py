import numpy as np
import pytest

from amnm import stabilizer
from amnm.algebra import (
    Algebra,
    Embedding,
    build_commutative_algebra,
    build_full_matrix_algebra,
    direct_sum,
    generated_subalgebra,
    opposite,
    unitize,
)
from amnm.diagonal import TensorRep, _scenario, library_diagonal, verify_diagonal
from amnm.errors import ConfigError, PreconditionError
from amnm.multilinear import LinearMap, defect, defect_cochain, identity_map, linear_map_norm
from amnm.rng import complex_gaussian, stream
from amnm.stabilizer import (
    MAX_ITER_CAP,
    IdealData,
    StabilizeConfig,
    decompose_over_ideal,
    improve,
    improve_right,
    modular_residuals,
    stabilize,
    stabilize_via_unitization,
    unitize_map,
    unitized_embedding,
)
from amnm.suites import check_improving_bounds, right_modular_perturbation, unit_killing_perturbation


def m2_diag():
    a = build_full_matrix_algebra(2)
    d, emb = generated_subalgebra(a, [a.basis_element(0), a.basis_element(3)], unital=True)
    return a, emb, library_diagonal(d)


def perturbed_identity(a, seed, scale=1e-3):
    gamma = unit_killing_perturbation(a, stream(seed, 0), scale)
    return LinearMap(a, a, np.eye(a.dim) + gamma)


def test_improve_fixes_homomorphisms():
    a, emb, cert = m2_diag()
    out = improve(identity_map(a), emb, cert)
    assert np.allclose(out.matrix, np.eye(4))


def test_improve_report_trivial_on_homomorphism():
    # at a homomorphism the improving step is trivial: no step, no left
    # defect, the unit kept and right modularity exact
    a, emb, cert = m2_diag()
    phi = identity_map(a)
    out = improve(phi, emb, cert)
    assert linear_map_norm(out - phi, 8, 40, seed=3).upper == 0.0
    assert defect(out, left=emb, restarts=8, sweeps=40, seed=4).upper == 0.0
    assert np.allclose(out.apply(emb.unit_in_parent()), a.unit_coords)
    _, right = modular_residuals(defect_cochain(out).tensor, emb.matrix)
    assert right <= 1e-10


def test_improve_scalar_subalgebra_is_identity_operation():
    a = build_full_matrix_algebra(2)
    d, emb = generated_subalgebra(a, [a.unit()], unital=True)
    cert = library_diagonal(d)
    phi = perturbed_identity(a, 51, 0.05)
    out = improve(phi, emb, cert)
    assert np.allclose(out.matrix, phi.matrix)


def test_improve_hand_expansion_diagonal_subalgebra():
    # F(phi)(a) = phi(a) + sum_k phi(c_k) phi_defect(d_k, a), two pairs for
    # the diagonal subalgebra
    a, emb, cert = m2_diag()
    phi = perturbed_identity(a, 52, 0.1)
    out = improve(phi, emb, cert)
    chain = defect_cochain(phi)
    hand = np.array(phi.matrix, dtype=complex)
    for c, d in cert.rep.pairs:
        ce, de = emb.embed_coords(c), emb.embed_coords(d)
        for i in range(4):
            hand[:, i] += a.multiply_coords(phi.apply(ce), chain.evaluate(de, np.eye(4)[i]))
    assert np.allclose(out.matrix, hand)


def test_improve_refuses_non_unit_preserving():
    a, emb, cert = m2_diag()
    bad = LinearMap(a, a, 0.5 * np.eye(4))
    with pytest.raises(PreconditionError):
        improve(bad, emb, cert)


def test_improve_preserves_right_modularity_exactly():
    a, emb, cert = m2_diag()
    gamma = right_modular_perturbation(a, emb, stream(53, 0), 0.05)
    phi = LinearMap(a, a, np.eye(4) + gamma)
    improved = improve(phi, emb, cert)
    for psi in (phi, improved):
        _, right = modular_residuals(defect_cochain(psi).tensor, emb.matrix)
        assert right <= 1e-10


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
@pytest.mark.parametrize("seed", [7, 54, 611])
def test_improving_bounds_hold(mode, seed):
    rows = check_improving_bounds(mode, seed)
    assert [r.check for r in rows] == [
        "improvement-step-bound", "improvement-defect-bound", "improvement-preserves-unit",
    ]
    assert all(r.passed for r in rows)


def test_stabilize_exact_homomorphism_zero_iterations():
    a, emb, cert = m2_diag()
    cfg = StabilizeConfig(tol=1e-10, max_iter=10, L=2.0, seed=1, restarts=8, sweeps=40)
    report = stabilize(identity_map(a), emb, cert, cfg)
    assert report.converged
    assert len(report.iterates) == 0
    assert report.total_distance.upper <= 1e-12


def test_stabilize_converges_and_certifies():
    a, emb, cert = m2_diag()
    phi = perturbed_identity(a, 55, 1e-3)
    cfg = StabilizeConfig(tol=1e-8, max_iter=30, L=2.0, seed=9, restarts=8, sweeps=60)
    report = stabilize(phi, emb, cert, cfg)
    assert report.converged
    assert report.all_claims_ok
    assert report.total_distance.lower <= report.theorem_bound
    # independent oracle: re-estimate every defect of the final map afresh
    final = report.final_map
    for kw in ({"left": emb}, {"right": emb}, {"left": emb, "right": emb}):
        est = defect(final, restarts=8, sweeps=60, seed=777, **kw)
        assert est.lower <= 1e-7
    assert final.preserves_unit(emb)


def test_max_iter_cap_keeps_a_run_in_its_seed_slots(monkeypatch):
    # a run at the cap seeds its estimates with (seed << 8) + 1 .. + 256, so
    # none shares a stream with the run of seed + 1, whose first is + 257
    with pytest.raises(ConfigError):
        StabilizeConfig(max_iter=64)
    seeds = []
    draw = stabilizer._SeedCounter.next

    def recorded(counter):
        seeds.append(draw(counter))
        return seeds[-1]

    monkeypatch.setattr(stabilizer._SeedCounter, "next", recorded)
    a, emb, cert = m2_diag()
    cfg = StabilizeConfig(tol=1e-300, max_iter=MAX_ITER_CAP, seed=5, check_claim_bounds=False,
                          restarts=1, sweeps=1)
    report = stabilize(perturbed_identity(a, 57), emb, cert, cfg)
    assert len(report.iterates) == MAX_ITER_CAP
    assert seeds == list(range((5 << 8) + 1, (6 << 8) + 1))


def test_stabilize_refuses_oversized_defect():
    a, emb, cert = m2_diag()
    phi = perturbed_identity(a, 56, 0.2)  # way beyond the smallness regime
    cfg = StabilizeConfig(tol=1e-8, max_iter=10, L=2.0, seed=2, check_claim_bounds=True)
    with pytest.raises(PreconditionError):
        stabilize(phi, emb, cert, cfg)


def test_stabilize_deterministic_reports():
    a, emb, cert = m2_diag()
    phi = perturbed_identity(a, 57, 1e-3)
    cfg = StabilizeConfig(tol=1e-8, max_iter=30, L=2.0, seed=11, restarts=8, sweeps=60)
    from amnm.jsonio import dumps

    r1 = stabilize(phi, emb, cert, cfg)
    r2 = stabilize(phi, emb, cert, cfg)
    assert dumps(r1.to_json_dict()) == dumps(r2.to_json_dict())


def _improve_on_opposites(phi, emb, cert):
    """The reference for improve_right: improve on the opposite algebras with
    the flipped, re-verified diagonal, the matrix copied back."""
    a_op, b_op, d_op = opposite(phi.source), opposite(phi.target), opposite(emb.sub)
    cert_op = verify_diagonal(d_op, cert.rep.flip(d_op))
    assert cert_op.valid
    return improve(LinearMap(a_op, b_op, phi.matrix), Embedding(d_op, a_op, emb.matrix), cert_op).matrix


def test_improve_right_matches_opposite_round_trip():
    a, emb, cert = m2_diag()
    m3 = build_full_matrix_algebra(3)
    _, m3_emb = generated_subalgebra(m3, [m3.basis_element(i) for i in range(9)], unital=True)
    m3_cert = library_diagonal(m3_emb.sub)
    a_u = unitize(a)
    emb_u = unitized_embedding(emb, a_u, unitize(emb.sub))
    cert_u = library_diagonal(emb_u.sub)
    for seed in range(4):
        cases = [
            (perturbed_identity(a, 58 + seed, 0.05), emb, cert),
            (perturbed_identity(m3, 58 + seed, 0.05), m3_emb, m3_cert),
            (unitize_map(LinearMap(a, a, np.eye(4) + 0.05 * complex_gaussian(stream(58 + seed, 1), (4, 4)))),
             emb_u, cert_u),
        ]
        for phi, e, c in cases:
            assert np.array_equal(improve_right(phi, e, c).matrix, _improve_on_opposites(phi, e, c))


def test_improve_right_fixes_homomorphisms_and_kills_right_defect():
    a, emb, cert = m2_diag()
    assert np.array_equal(improve_right(identity_map(a), emb, cert).matrix, np.eye(4))
    # once four left steps have made the D x A defect negligible, one right
    # step makes the A x D defect negligible too
    phi = improve(perturbed_identity(a, 63, 1e-3), emb, cert)
    for _ in range(3):
        phi = improve(phi, emb, cert)
    out = improve_right(phi, emb, cert)
    _, right_in = modular_residuals(defect_cochain(phi).tensor, emb.matrix)
    _, right_out = modular_residuals(defect_cochain(out).tensor, emb.matrix)
    assert right_out <= 1e-12 < right_in


def test_improve_right_refusals():
    a, emb, cert = m2_diag()
    with pytest.raises(PreconditionError):
        improve_right(LinearMap(a, a, 0.5 * np.eye(4)), emb, cert)
    bad = verify_diagonal(emb.sub, TensorRep(emb.sub, [(emb.sub.unit_coords, emb.sub.unit_coords)]))
    assert not bad.valid
    with pytest.raises(PreconditionError):
        improve_right(identity_map(a), emb, bad)


def test_unitize_map_values():
    a = build_full_matrix_algebra(2)
    zero = LinearMap(a, a, np.zeros((4, 4)))
    ext = unitize_map(zero)
    lam = 2.5 + 1j
    coords = np.concatenate([[lam], np.zeros(4)])
    assert np.allclose(ext.apply(coords), lam * a.unit_coords)
    # norm: max(||1_B||, ||psi||) in the composite ball
    psi = LinearMap(a, a, complex_gaussian(stream(59, 0), (4, 4)))
    ext2 = unitize_map(psi)
    base = linear_map_norm(psi, restarts=8, seed=4)
    lifted = linear_map_norm(ext2, restarts=8, seed=4)
    assert lifted.lower >= max(1.0, base.lower) - 1e-9
    assert lifted.upper <= max(1.0, base.upper) * (1 + 1e-9) + 1e-12 or lifted.upper >= lifted.lower


def test_stabilize_via_unitization():
    # no unit constraint on the input map: route through the forced unitization
    a = build_full_matrix_algebra(2)
    d0, emb0 = generated_subalgebra(a, [a.basis_element(0), a.basis_element(3)], unital=True)
    rng = stream(60, 0)
    # the unitized subalgebra carries a larger representation bound, so
    # the combined-constant precondition needs a smaller perturbation
    psi_mat = np.eye(4) + 5e-5 * complex_gaussian(rng, (4, 4))
    psi = LinearMap(a, a, psi_mat)
    cfg = StabilizeConfig(tol=1e-8, max_iter=30, L=2.0, seed=13, restarts=8, sweeps=60)
    report, restricted = stabilize_via_unitization(psi, emb0, cfg)
    assert report.converged
    # the restriction is self-modular over the original subalgebra
    chain = defect_cochain(restricted)
    left = np.abs(np.tensordot(chain.tensor, emb0.matrix, axes=(1, 0))).max()
    right = np.abs(np.tensordot(chain.tensor, emb0.matrix, axes=(2, 0))).max()
    assert max(left, right) <= 1e-7


def test_ideal_decomposition_block_model():
    # matrix block is the ideal; the scalar block carries arbitrary behavior
    a = direct_sum(build_full_matrix_algebra(2), build_commutative_algebra(1))
    j_alg, j_emb = generated_subalgebra(a, [a.basis_element(i) for i in range(4)], unital=False)
    e = np.zeros(a.dim, dtype=complex)
    e[[0, 3]] = 1.0
    ideal = IdealData(j_emb, e)
    assert ideal.bound == pytest.approx(1.0)

    theta_mat = np.zeros((a.dim, a.dim), dtype=complex)
    theta_mat[:4, :4] = np.eye(4)
    theta_mat[4, 4] = 0.3 + 0.7j  # not multiplicative on the scalar slot
    theta = LinearMap(a, a, theta_mat)
    phi, theta_s, cert = decompose_over_ideal(theta, ideal)
    assert cert.ok
    assert np.abs(theta_s.matrix @ j_emb.matrix).max() < 1e-12
    assert np.abs(defect_cochain(theta_s).tensor - defect_cochain(theta).tensor).max() < 1e-12
    assert np.allclose(phi.matrix + theta_s.matrix, theta.matrix)


def test_ideal_decomposition_whole_algebra():
    # J = A with e = 1 and theta a homomorphism: phi = theta, singular part 0
    a = build_full_matrix_algebra(2)
    j_alg, j_emb = generated_subalgebra(a, [a.basis_element(i) for i in range(4)], unital=False)
    ideal = IdealData(j_emb, a.unit_coords)
    phi, theta_s, cert = decompose_over_ideal(identity_map(a), ideal)
    assert cert.ok
    assert np.abs(theta_s.matrix).max() < 1e-12
    assert np.allclose(phi.matrix, np.eye(4))


def test_ideal_decomposition_zero_ideal():
    # J = 0 and e = 0: p = 0, phi = 0, the singular part is everything
    a = build_full_matrix_algebra(2)
    zero_alg = Algebra(np.zeros((0, 0, 0)), None, "spectral", np.zeros((0, 2, 2)))
    emb = Embedding(zero_alg, a, np.zeros((4, 0)))
    ideal = IdealData(emb, np.zeros(4))
    theta = LinearMap(a, a, complex_gaussian(stream(61, 0), (4, 4)))
    phi, theta_s, cert = decompose_over_ideal(theta, ideal)
    assert np.abs(phi.matrix).max() == 0.0
    assert np.allclose(theta_s.matrix, theta.matrix)


def test_ideal_decomposition_refuses_non_modular():
    a = direct_sum(build_full_matrix_algebra(2), build_commutative_algebra(1))
    j_alg, j_emb = generated_subalgebra(a, [a.basis_element(i) for i in range(4)], unital=False)
    e = np.zeros(a.dim, dtype=complex)
    e[[0, 3]] = 1.0
    ideal = IdealData(j_emb, e)
    theta = LinearMap(a, a, complex_gaussian(stream(62, 0), (5, 5)))
    with pytest.raises(PreconditionError):
        decompose_over_ideal(theta, ideal)


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
def test_ideal_data_refuses_a_subalgebra_that_is_not_an_ideal(mode):
    # D = span{e11, e22} of M_2 holds the unit, yet e12 e11 = e12 leaves it
    _, emb, _ = _scenario(2, mode)
    with pytest.raises(PreconditionError, match="not a two-sided ideal"):
        IdealData(emb, emb.parent.unit_coords)
    # the ideal check runs before the local-identity check, which e = 0 fails too
    with pytest.raises(PreconditionError, match="not a two-sided ideal"):
        IdealData(emb, np.zeros(4))
    # the first column of M_2 is only a left ideal (e11 e12 = e12), the first row only a right one
    m2 = emb.parent
    for pair in ((0, 2), (0, 1)):
        _, one_sided = generated_subalgebra(m2, [m2.basis_element(i) for i in pair], unital=False)
        with pytest.raises(PreconditionError, match="not a two-sided ideal"):
            IdealData(one_sided, m2.basis_element(0).coords)


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
def test_ideal_data_refuses_a_false_local_identity(mode):
    # M_2 + 0 is an ideal of M_2 + C, but e11 fixes neither e12 from the right nor e21 from the left
    a = direct_sum(build_full_matrix_algebra(2, mode), build_commutative_algebra(1, mode))
    _, j_emb = generated_subalgebra(a, [a.basis_element(i) for i in range(4)], unital=False)
    e11 = np.zeros(a.dim, dtype=complex)
    e11[0] = 1.0
    with pytest.raises(PreconditionError, match="e is not a two-sided identity on the ideal"):
        IdealData(j_emb, e11)
    e11[3] = 1.0
    IdealData(j_emb, e11)  # the block's unit passes


def _right_modular_by_columns(a, emb, rng, scale):
    """right_modular_perturbation with its constraint matrix assembled one
    elementary coefficient matrix at a time: the loop the Kronecker form
    replaced, kept as its reference."""
    d = a.dim
    rights = [a.right_mult_matrix(emb.matrix[:, m]) for m in range(emb.sub.dim)]
    columns = []
    for t in range(d):
        for s in range(d):
            e = np.zeros((d, d))
            e[t, s] = 1.0
            pieces = [(e @ rx - rx @ e).reshape(-1) for rx in rights] + [(e @ emb.matrix).reshape(-1)]
            columns.append(np.concatenate(pieces))
    _, sv, vh = np.linalg.svd(np.stack(columns, axis=1))
    rank = int(np.sum(sv > 1e-9 * sv[0])) if sv.size else 0
    null = vh[rank:].conj().T
    if null.shape[1] == 0:
        return None
    gamma = (null @ complex_gaussian(rng, null.shape[1])).reshape(d, d)
    return gamma / np.linalg.svd(gamma, compute_uv=False)[0] * scale


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
def test_right_modular_perturbation_matches_the_column_loop_bit_for_bit(mode):
    algebras = [build_full_matrix_algebra(k, mode) for k in range(1, 5)]
    algebras += [build_commutative_algebra(k, mode) for k in range(1, 7)]
    algebras += [
        direct_sum(build_full_matrix_algebra(2, mode), build_commutative_algebra(2, mode)),
        direct_sum(build_full_matrix_algebra(3, mode), build_full_matrix_algebra(2, mode)),
    ]
    cases = [_scenario(k, mode)[:2] for k in (2, 3)]  # the suite's fixture is k = 2
    for alg in algebras:
        cases.append((alg, generated_subalgebra(alg, [], unital=True)[1]))
        cases.append((alg, generated_subalgebra(alg, [alg.basis_element(0)], unital=True)[1]))
    _, emb = cases[0]
    a_u = unitize(emb.parent)
    cases.append((a_u, unitized_embedding(emb, a_u, unitize(emb.sub))))
    found = 0
    for n, (alg, emb) in enumerate(cases):
        want = _right_modular_by_columns(alg, emb, stream(152, n), 0.05)
        if want is None:
            with pytest.raises(PreconditionError):
                right_modular_perturbation(alg, emb, stream(152, n), 0.05)
            continue
        found += 1
        assert right_modular_perturbation(alg, emb, stream(152, n), 0.05).tobytes() == want.tobytes(), alg
    assert found >= 20


def test_unitized_embedding_shape():
    a = build_full_matrix_algebra(2)
    d0, emb0 = generated_subalgebra(a, [a.basis_element(0), a.basis_element(3)], unital=True)
    au, du = unitize(a), unitize(d0)
    emb_u = unitized_embedding(emb0, au, du)
    assert emb_u.matrix.shape == (5, 3)
    assert np.allclose(emb_u.embed_coords(du.unit_coords), au.unit_coords)


def test_unitized_defect_interval_transfers():
    # the defect tensors coincide up to zero padding, so the unfolding upper
    # bounds agree exactly and either witness transfers to the other side
    a = build_full_matrix_algebra(2)
    psi = LinearMap(a, a, complex_gaussian(stream(63, 0), (4, 4)))
    ext = unitize_map(psi)
    base = defect(psi, restarts=8, seed=21)
    lifted = defect(ext, restarts=8, seed=21)
    assert lifted.upper == pytest.approx(base.upper, rel=1e-12)
    x, y = base.witness
    lifted_witness_value = a.element_norm(
        defect_cochain(ext).evaluate(np.concatenate([[0], x]), np.concatenate([[0], y]))
    )
    assert lifted_witness_value == pytest.approx(base.lower, rel=1e-9, abs=1e-12)
    assert lifted.lower <= lifted.upper * (1 + 1e-9)


def test_stabilize_frobenius_mode_reports_not_asserts():
    # frobenius-mode runs flag the norm caveat and never hard-fail the
    # distance comparison
    a = build_full_matrix_algebra(2, norm_mode="frobenius")
    d, emb = generated_subalgebra(a, [a.basis_element(0), a.basis_element(3)], unital=True)
    cert = library_diagonal(d)
    gamma = unit_killing_perturbation(a, stream(64, 0), 1e-3)
    phi = LinearMap(a, a, np.eye(4) + gamma)
    cfg = StabilizeConfig(tol=1e-8, max_iter=30, L=2.0, seed=15, restarts=8, sweeps=60)
    report = stabilize(phi, emb, cert, cfg)
    assert report.converged
    assert any("norm_ge_one_may_fail" in note for note in report.notes)
    assert any("upper envelope" in note for note in report.notes)
