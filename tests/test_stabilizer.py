import dataclasses
import json

import numpy as np
import pytest

from amnm import multilinear, normest, stabilizer, suites
from amnm.cli import RunConfig, generate_instance, main
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
    NORM_GROWTH,
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
    for c, d in zip(cert.rep.cs.T, cert.rep.ds.T):
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
    (rows,) = check_improving_bounds(mode, [seed])
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
    draw = stabilizer.SeedCounter.next

    def recorded(counter):
        seeds.append(draw(counter))
        return seeds[-1]

    monkeypatch.setattr(stabilizer.SeedCounter, "next", recorded)
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


def _improve_right_per_leg(phi, emb, cert):
    """improve_right one leg pair at a time, the reference for the kernel."""
    chain = defect_cochain(phi).tensor
    correction = np.zeros_like(phi.matrix)
    for c, d in zip(cert.rep.cs.T, cert.rep.ds.T):
        phi_d = phi.apply(emb.embed_coords(d))
        chain_c = np.tensordot(chain, emb.embed_coords(c), axes=(2, 0))
        correction += np.einsum("pqt,pR,q->tR", phi.target.structure, chain_c, phi_d)
    return phi.matrix + correction


def test_improve_right_matches_per_leg_sum():
    a, emb, cert = m2_diag()
    a_u = unitize(a)
    emb_u = unitized_embedding(emb, a_u, unitize(emb.sub))
    for seed in range(3):
        cases = [(perturbed_identity(a, 70 + seed, 0.05), emb, cert)]
        for k in (3, 4):
            m, m_emb, m_cert = _scenario(k, "spectral")
            cases.append((perturbed_identity(m, 70 + seed, 0.05), m_emb, m_cert))
        cases.append((unitize_map(LinearMap(a, a, np.eye(4) + 0.05 * complex_gaussian(stream(70 + seed, 1), (4, 4)))),
                      emb_u, library_diagonal(emb_u.sub)))
        for phi, e, c in cases:
            cs, ds = c.rep.cs, c.rep.ds
            scale = (np.abs(phi.target.structure).max() * np.abs(phi.matrix).max() * np.abs(e.matrix).max() ** 2
                     * np.abs(cs).max() * np.abs(ds).max() * np.abs(defect_cochain(phi).tensor).max())
            got = improve_right(phi, e, c).matrix
            assert np.abs(got - _improve_right_per_leg(phi, e, c)).max() <= 1e-13 * scale


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


def test_improve_right_refuses_an_opposite_certificate_that_fails(monkeypatch):
    a, emb, cert = m2_diag()
    monkeypatch.setattr(stabilizer, "verify_diagonal",
                        lambda algebra, rep: dataclasses.replace(verify_diagonal(algebra, rep), valid=False))
    with pytest.raises(PreconditionError):
        improve_right(identity_map(a), emb, cert)


def test_improve_right_refusals():
    a, emb, cert = m2_diag()
    with pytest.raises(PreconditionError):
        improve_right(LinearMap(a, a, 0.5 * np.eye(4)), emb, cert)
    bad = verify_diagonal(emb.sub, TensorRep(emb.sub, emb.sub.unit_coords[:, None], emb.sub.unit_coords[:, None]))
    assert not bad.valid
    with pytest.raises(PreconditionError):
        improve_right(identity_map(a), emb, bad)


def _full_search_norm(phi, restarts, seed):
    """``linear_map_norm`` at this budget without the cheap stage: the full
    witness search under the estimate's upper."""
    upper = linear_map_norm(phi, restarts=0).upper
    return normest._search(phi.matrix, [phi.source.unit_ball], phi.target.unit_ball, restarts,
                           normest.DEFAULT_SWEEPS, seed, upper)


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
    base, lifted = (_full_search_norm(f, restarts=8, seed=4) for f in (psi, ext2))
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


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
def test_right_modular_null_space_is_cached_bit_for_bit(mode):
    a, emb, _ = _scenario(2, mode)
    key = ("right_modular_null", emb.matrix.dtype.str, emb.matrix.shape, emb.matrix.tobytes())
    for seed in (0, 5, 3611, 20_017):
        a._cache.pop(key, None)
        fresh = right_modular_perturbation(a, emb, stream(seed, 5), 0.05)
        basis = a._cache[key]
        cached = right_modular_perturbation(a, emb, stream(seed, 5), 0.05)
        assert a._cache[key] is basis  # the second call did not rebuild it
        assert cached.tobytes() == fresh.tobytes()
        assert cached.tobytes() == _right_modular_by_columns(a, emb, stream(seed, 5), 0.05).tobytes()
    with pytest.raises(ValueError):
        basis[0, 0] = 0.0  # shared, so read-only


# -- proved claims ---------------------------------------------------------------------


def _spy_estimates(monkeypatch) -> list:
    """Record every estimate made through ``multilinear``: its claim, budget,
    result and the witness searches it ran, each as its budget, the upper it
    was given and its result.  The estimates of one stacked call have
    distinct seeds, which match them with their searches."""
    records, searches = [], []
    search, cheap, estimate = normest._search, normest._cheap_searches, normest.estimate_tensor_norms

    def spy_search(tensor, balls, target, restarts, sweeps, seed, upper):
        found = search(tensor, balls, target, restarts, sweeps, seed, upper)
        searches.append(((restarts, sweeps), upper, found))
        return found

    def spy_cheap(tensors, balls, target, sweeps, seeds, uppers):
        found = cheap(tensors, balls, target, sweeps, seeds, uppers)
        searches.extend(((1, sweeps), upper, est) for upper, est in zip(uppers, found))
        return found

    def spy_estimate(tensors, balls, target, restarts, sweeps, seeds, claims):
        assert len(set(seeds)) == len(seeds)
        start = len(searches)
        found = estimate(tensors, balls, target, restarts, sweeps, seeds, claims)
        for claim, seed, est in zip(claims, seeds, found):
            records.append((claim, restarts, sweeps, est, [s for s in searches[start:] if s[2].seed == seed]))
        return found

    monkeypatch.setattr(normest, "_search", spy_search)
    monkeypatch.setattr(normest, "_cheap_searches", spy_cheap)
    monkeypatch.setattr(multilinear, "estimate_tensor_norms", spy_estimate)
    return records


def _assert_budgets(records) -> None:
    """One rule for every searched estimate: one with no claim, or whose
    upper proves its claim, ran the cheap stage first and ended there
    exactly when the cheap witness kept the claim proved or closed the
    bracket (upper <= F * lower); otherwise its last search is the full
    budget."""
    for claim, restarts, sweeps, est, searches in records:
        if restarts == 0 or not searches:
            continue
        budget, upper, cheap = searches[0]
        staged = claim is None or upper <= claim
        if staged:
            assert budget == (1, min(sweeps, 3))
            ended = cheap.upper <= claim if claim is not None else cheap.lower * est.factor >= cheap.upper
            assert (len(searches) == 1) == ended
            if ended:
                assert est is cheap
                continue
        assert len(searches) == 1 + staged
        assert searches[-1][0] == (restarts, sweeps)
        assert est is searches[-1][2] and est.restarts_used == restarts


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
@pytest.mark.parametrize("seed", [3005, 3611])
def test_suite_rows_are_proved_exactly_when_their_uppers_decide_them(monkeypatch, mode, seed):
    records = _spy_estimates(monkeypatch)
    checks = [suites.check_perturbed_defect, suites.check_relative_perturbed, suites.check_coboundary_composition,
              suites.check_averaging_bound, suites.check_left_modular, suites.check_splitting_v2]
    proved = 0
    for fn in checks + [suites.check_improving_bounds]:
        del records[:]
        rows = fn(mode, seed) if fn is suites.check_coboundary_composition else fn(mode, [seed])[0]
        rows = rows if isinstance(rows, list) else [rows]
        _assert_budgets(records)
        claimed = [(claim, est) for claim, _, _, est, _ in records if claim is not None]
        if fn is suites.check_relative_perturbed:
            # the row reports the left side, and is proved when both sides are
            assert rows[0].proved == all(est.upper <= claim for claim, est in claimed)
            assert len(claimed) == 2
        for row in rows:
            if row.check == "improvement-preserves-unit":
                assert row.proved == row.passed
            elif fn is not suites.check_relative_perturbed:
                assert row.proved == (row.lhs_hi <= normest.claim_limit(row.rhs_hi))
            assert row.passed
            proved += row.proved
    # the searched rows are decided by the estimates whose claims they read
    for row in suites.run_stabilize_checks(mode, seed + 3000):
        assert row.passed
        if row.check.startswith(("stabilize-claim", "stabilize-distance")):
            assert row.proved == (row.lhs_hi <= row.rhs_hi * (1 + 1e-9) + 1e-15)
        elif row.check.startswith("stabilize-norm-growth"):
            assert row.proved == (row.lhs_hi <= row.rhs_hi * (1 + 1e-9))
        else:
            assert row.proved == row.passed
    _assert_budgets(records)
    for row in suites.checker_valid_battery(seed + 6000):
        assert row.passed and row.proved
    assert proved == 9  # at these seeds every searched row is proved


@pytest.mark.parametrize("mode,k,seed", [("spectral", 2, 3), ("frobenius", 4, 6)])
def test_a_stabilize_run_keeps_the_budget_rule(monkeypatch, mode, k, seed):
    records = _spy_estimates(monkeypatch)
    cfg = RunConfig("stabilize", seed, norm_mode=mode, matrix_dim=k)
    inst = generate_instance(cfg)
    report = stabilize(inst.phi, inst.embedding, inst.cert, dataclasses.replace(cfg.stabilize, seed=seed))
    assert report.converged and report.iterates
    _assert_budgets(records)
    # each iterate's def_dd is the run's one unclaimed searched estimate
    unclaimed = [est for claim, restarts, _, est, _ in records if claim is None and restarts > 0]
    assert len(unclaimed) == len(report.iterates)
    assert all(est is rec.def_dd for est, rec in zip(unclaimed, report.iterates))
    # F = 2 closes the spectral brackets at the cheap stage; F = 1 leaves
    # the Frobenius ones, whose lower stays below the upper, to the full search
    for est in unclaimed:
        if mode == "spectral":
            assert est.factor > 1 and est.restarts_used == 1
        else:
            assert est.factor == 1 and est.lower < est.upper and est.restarts_used == cfg.stabilize.restarts


def test_unit_row_carries_the_residual_it_checked(monkeypatch):
    a, emb, cert = _scenario(2, "spectral")
    phi = LinearMap(a, a, np.eye(4) + unit_killing_perturbation(a, stream(7, 14), 1e-3))
    bound = suites.EXACT_TOL * max(1.0, np.abs(phi.matrix).max() ** 2)
    unit = check_improving_bounds("spectral", [7])[0][2]
    assert unit.check == "improvement-preserves-unit" and unit.passed
    assert unit.rhs_lo == unit.rhs_hi == bound
    assert unit.lhs_lo == unit.lhs_hi == np.abs(improve(phi, emb, cert).apply(emb.unit_in_parent()) - a.unit_coords).max()
    # a step that moves the unit value reports the moved residual, and fails
    shift = np.zeros((4, 4), dtype=complex)
    shift[0, 0] = 1e-6
    moved = LinearMap(a, a, improve(phi, emb, cert).matrix + shift)
    monkeypatch.setattr(suites, "improve", lambda *args: moved)
    row = check_improving_bounds("spectral", [7])[0][2]
    assert row.lhs_lo == row.lhs_hi == np.abs(moved.apply(emb.unit_in_parent()) - a.unit_coords).max() > bound
    assert not row.passed and not row.proved


@pytest.mark.parametrize("mode,k,seed", [("spectral", 2, 3), ("spectral", 2, 8), ("frobenius", 3, 4), ("frobenius", 4, 6)])
def test_stabilize_stops_on_the_defect_upper(mode, k, seed):
    a, emb, cert = _scenario(k, mode)
    phi = LinearMap(a, a, np.eye(a.dim) + unit_killing_perturbation(a, stream(seed, 15), 1e-3))
    report = stabilize(phi, emb, cert, StabilizeConfig(seed=seed, restarts=8, sweeps=60))
    assert report.converged and report.iterates
    last = report.iterates[-1].def_da
    assert last.upper <= 1e-8
    assert all(rec.def_da.upper > 1e-8 for rec in report.iterates[:-1])
    # a tolerance between an iterate's lower and upper does not stop there
    first = report.iterates[0].def_da
    assert first.lower < first.upper
    tol = 0.5 * (first.lower + first.upper)
    again = stabilize(phi, emb, cert, StabilizeConfig(tol=tol, seed=seed, restarts=8, sweeps=60))
    assert again.converged and len(again.iterates) >= 2
    assert all(all(rec.to_json_dict()["proved"].values()) for rec in report.iterates)
    assert report.to_json_dict()["final_distance"]["proved"]


def test_a_row_passed_by_its_lower_alone_is_not_proved(monkeypatch):
    row = suites._nofalsify("bound", normest.DefectEstimate(1.0, 3.0, claim=normest.claim_limit(2.0)), 2.0)
    assert row.passed and not row.proved
    # the relative row is proved only when both of its sides are: widen
    # the right side's upper far past its bound
    norms, sub = suites.multilinear_norms, _scenario(2, "spectral")[1].sub

    def widened(chains, restarts, sweeps, seeds, claims):
        found = norms(chains, restarts, sweeps, seeds, claims)
        return [normest.DefectEstimate(est.lower, 1e6 * est.upper, est.witness, est.restarts_used, est.seed,
                                       est.claim) if chain.slots[1] is sub else est
                for chain, est in zip(chains, found)]

    assert suites.check_relative_perturbed("spectral", [3005])[0].proved
    monkeypatch.setattr(suites, "multilinear_norms", widened)
    (row,) = suites.check_relative_perturbed("spectral", [3005])
    assert row.passed and not row.proved


# -- written verdicts are the estimates' own --------------------------------------------


def _claimed_estimates(monkeypatch) -> list:
    """Every estimate made through the stacked ``multilinear_norms`` (also
    as the suite's import, and as the N = 1 call ``multilinear_norm``)
    with a claim, in order."""
    claimed = []
    norms = multilinear.multilinear_norms

    def spy(*args, **kwargs):
        found = norms(*args, **kwargs)
        claimed.extend(est for est in found if est.claim is not None)
        return found

    monkeypatch.setattr(multilinear, "multilinear_norms", spy)
    monkeypatch.setattr(suites, "multilinear_norms", spy)
    return claimed


@pytest.mark.parametrize("mode,k", [("spectral", 2), ("frobenius", 4)])
def test_written_stabilize_flags_are_the_claimed_estimates_verdicts(monkeypatch, tmp_path, mode, k):
    claimed = _claimed_estimates(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "norm_mode": mode, "dims": {"matrix": k}}))
    assert main(["stabilize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "stabilize_report.json").read_text())
    L = doc["L"]
    # the ||phi|| <= L precondition, three claims per iterate, the distance
    norm0, *per_iterate, distance = claimed
    assert norm0.claim == L * (1 + 1e-9) and norm0.passed
    assert len(per_iterate) == 3 * len(doc["iterates"]) > 0
    fields = {"step": "step_norm", "defect": "def_da", "norm": "norm_phi"}
    for n, rec in enumerate(doc["iterates"]):
        limits = {"step": normest.claim_limit(rec["claim_step_bound"]),
                  "defect": normest.claim_limit(rec["claim_defect_bound"]),
                  "norm": NORM_GROWTH * L * (1 + 1e-9)}
        for name, est in zip(fields, per_iterate[3 * n : 3 * n + 3]):
            written = rec[fields[name]]
            assert est.claim == limits[name]
            assert (written["lower"], written["upper"]) == (est.lower, est.upper)
            assert rec["satisfied"][name] == (written["lower"] <= est.claim)
            assert rec["proved"][name] == (written["upper"] <= est.claim)
    written = doc["final_distance"]
    assert distance.claim == normest.claim_limit(doc["theorem_bound"])
    assert (written["lower"], written["upper"]) == (distance.lower, distance.upper)
    assert written["proved"] == (written["upper"] <= distance.claim)
    assert doc["claims_satisfied"] == all(est.lower <= est.claim for est in claimed[1:])


@pytest.mark.parametrize("mode", ["spectral", "frobenius"])
def test_written_suite_flags_are_the_claimed_estimates_verdicts(monkeypatch, tmp_path, mode):
    claimed = _claimed_estimates(monkeypatch)
    rows_of = []
    nofalsify = suites._nofalsify

    def spy(check, lhs, rhs):
        rows_of.append((check, lhs, rhs))
        return nofalsify(check, lhs, rhs)

    monkeypatch.setattr(suites, "_nofalsify", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "norm_mode": mode, "instances": 1}))
    assert main(["suite", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    written = {}
    for row in json.loads((tmp_path / "suite_report.json").read_text())["rows"]:
        written.setdefault((row["check"], row["lhs"]["lo"], row["lhs"]["hi"]), []).append(row)
    sides = {}
    for check, lhs, rhs in rows_of:
        # the sampled arity-3 row builds its estimate itself; every other
        # row's estimate is one the estimator made with that claim
        assert check == "coboundary-composition-bound" or any(est is lhs for est in claimed)
        growth = check.startswith("stabilize-norm-growth")
        assert lhs.claim == (NORM_GROWTH * StabilizeConfig().L * (1 + 1e-9) if growth else normest.claim_limit(rhs))
        sides.setdefault(check, []).append(lhs)
    # the relative row reports its left side and both sides' verdicts
    relative = sides.pop("relative-perturbed-defect-bound")
    left = written.pop(("relative-perturbed-defect-bound", relative[0].lower, relative[0].upper))
    assert [(r["passed"], r["proved"]) for r in left] == [
        (all(s.lower <= s.claim for s in relative), all(s.upper <= s.claim for s in relative))]
    assert len(sides) == len(rows_of) - 2 > 10
    for check, (lhs,) in sides.items():
        (row,) = written[(check, lhs.lower, lhs.upper)]
        assert (row["passed"], row["proved"]) == (lhs.lower <= lhs.claim, lhs.upper <= lhs.claim)
        assert row["rhs"]["lo"] == row["rhs"]["hi"]
