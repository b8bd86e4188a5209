"""Seeded check instances: exact identities, no-falsification bounds,
checker batteries, and the Tsirelson block.

Every check is a pure function of (norm mode, seed) returning a CheckResult;
the suite command and the acceptance tests drive the same functions.  Exact
identities compare coefficient tensors at 1e-10 of their natural scale;
bound checks compare a certified lower estimate of the left side with the
bound assembled from certified uppers.  ``check_improving_bounds`` is the
one home of the improving operator's one-step contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from .algebra import (
    Algebra,
    Embedding,
    build_commutative_algebra,
    build_full_matrix_algebra,
    direct_sum,
    generated_subalgebra,
    summand_quotient,
)
from .diagonal import TensorRep, _scenario, average, library_diagonal, split
from .errors import PreconditionError
from .multilinear import (
    Cochain,
    LinearMap,
    coboundary,
    defect,
    defect_cochain,
    linear_map_norm,
    multilinear_norm,
    restrict_first,
    unit_killing_perturbation,
)
from .perturbation import (
    absorption_check,
    clone_constant,
    corner_restriction,
    dichotomy_roots,
    equivalent_projection_check,
    norm_dichotomy_check,
    orthogonal_family_scan,
    small_on_identity,
)
from .parallel import run_all
from .rng import complex_gaussian, stream
from .stabilizer import (
    NORM_GROWTH,
    SELF_MODULAR_TOL,
    IdealData,
    StabilizeConfig,
    decompose_over_ideal,
    improve,
    stabilize,
    unitize_map,
)
from .tsirelson import (
    TsirelsonVector,
    basis_vector,
    clone_family,
    clone_family_closed_form,
    intersection_size,
    interval_schreier_report,
    schreier_inequality,
    tsirelson_norm,
)

EXACT_TOL = 1e-10
NF_SLACK = 1e-9  # multiplicative slack for no-falsification comparisons
R = 8  # restart budget inside suite checks; uppers are restart-independent
SW = 60


@dataclass
class CheckResult:
    check: str
    passed: bool
    lhs_lo: float
    lhs_hi: float
    rhs_lo: float
    rhs_hi: float

    def row(self, instance_id: str, seed: int) -> dict:
        return {
            "id": instance_id,
            "check": self.check,
            "instance_seed": seed,
            "passed": bool(self.passed),
            "lhs": {"lo": self.lhs_lo, "hi": self.lhs_hi},
            "rhs": {"lo": self.rhs_lo, "hi": self.rhs_hi},
        }


def _maxabs(arr: np.ndarray) -> float:
    return float(np.abs(arr).max()) if arr.size else 0.0


def _exact(check: str, residual: float, scale: float) -> CheckResult:
    bound = EXACT_TOL * scale
    return CheckResult(check, residual <= bound, residual, residual, bound, bound)


def _nofalsify(check: str, lhs_lo: float, lhs_hi: float, rhs_hi: float) -> CheckResult:
    ok = lhs_lo <= rhs_hi * (1 + NF_SLACK) + 1e-15
    return CheckResult(check, ok, lhs_lo, lhs_hi, rhs_hi, rhs_hi)


# -- seeded building blocks -----------------------------------------------------


# The seed-free composite fixtures (direct sums, subalgebras) are cached
# builders: built once per process and shared across checks.  Library
# algebras need no cache of their own (their constructors build each one once
# per process), nor do diagonals (``library_diagonal`` builds one per
# algebra).  Algebras are immutable and each object is checked once, when it
# is constructed.


@cache
def _m2_plus_c(mode: str, j: int) -> Algebra:
    """M_2 + C^j."""
    return direct_sum(build_full_matrix_algebra(2, norm_mode=mode), build_commutative_algebra(j, norm_mode=mode))


@cache
def _m2_plus_m2() -> Algebra:
    return direct_sum(build_full_matrix_algebra(2), build_full_matrix_algebra(2))


@cache
def _m4_plus_m2() -> Algebra:
    return direct_sum(build_full_matrix_algebra(4), build_full_matrix_algebra(2))


def _algebra_cycle(mode: str, which: int) -> Algebra:
    """Small library algebras, dims <= 6."""
    which = which % 3
    if which == 0:
        return build_full_matrix_algebra(2, norm_mode=mode)
    if which == 1:
        return build_commutative_algebra(5, norm_mode=mode)
    return _m2_plus_c(mode, 2)


def random_map(a: Algebra, b: Algebra, rng, scale: float = 1.0) -> LinearMap:
    return LinearMap(a, b, scale * complex_gaussian(rng, (b.dim, a.dim)))


def random_tensor_rep(d: Algebra, rng, pairs: int = 2) -> TensorRep:
    return TensorRep(d, [(complex_gaussian(rng, d.dim), complex_gaussian(rng, d.dim)) for _ in range(pairs)])


def right_modular_perturbation(a: Algebra, emb: Embedding, rng, scale: float) -> np.ndarray:
    """gamma with gamma(y x) = gamma(y) x for x in the subalgebra and
    gamma = 0 on the subalgebra, so id + gamma is exactly right-modular.

    The constraint matrix acts on gamma's coefficients in row-major order:
    gamma r - r gamma for each right multiplier r by a basis vector of the
    subalgebra, then gamma Q for the embedding Q.  Its Kronecker blocks copy
    the entries of r and Q exactly, as an assembly one elementary matrix at a
    time would.  A seeded null-space combination is rescaled.
    """
    eye = np.eye(a.dim)
    rights = [a.right_mult_matrix(emb.matrix[:, m]) for m in range(emb.sub.dim)]
    full = np.concatenate([np.kron(eye, r.T) - np.kron(r, eye) for r in rights] + [np.kron(eye, emb.matrix.T)])
    _, sv, vh = np.linalg.svd(full)
    rank = int(np.sum(sv > 1e-9 * sv[0])) if sv.size else 0
    null = vh[rank:].conj().T
    if null.shape[1] == 0:
        raise PreconditionError("no nonzero right-modular perturbation exists here")
    coeff = complex_gaussian(rng, null.shape[1])
    gamma = (null @ coeff).reshape(a.dim, a.dim)
    top = np.linalg.svd(gamma, compute_uv=False)[0]
    return gamma / top * scale


# -- exact-identity checks -------------------------------------------------------


def check_two_cocycle(mode: str, seed: int) -> CheckResult:
    rng = stream(seed, 0)
    a = _algebra_cycle(mode, seed)
    phi = random_map(a, a, rng)
    chain = defect_cochain(phi)
    resid = _maxabs(coboundary(phi, chain).tensor)
    scale = (1.0 + _maxabs(phi.matrix)) ** 3
    return _exact("two-cocycle", resid, scale)


def check_linearization(mode: str, seed: int) -> CheckResult:
    rng = stream(seed, 1)
    a = _algebra_cycle(mode, seed)
    phi = random_map(a, a, rng)
    gamma = random_map(a, a, rng)
    combined = defect_cochain(LinearMap(a, a, phi.matrix + gamma.matrix))
    gamma_chain = Cochain((a,), a, gamma.matrix)
    cross = coboundary(phi, gamma_chain)
    gg = np.einsum("pqt,pi,qj->tij", a.structure, gamma.matrix, gamma.matrix)
    recomposed = defect_cochain(phi).tensor - cross.tensor - gg
    resid = _maxabs(combined.tensor - recomposed)
    scale = (1.0 + _maxabs(phi.matrix) + _maxabs(gamma.matrix)) ** 2
    return _exact("linearization-identity", resid, scale)


def check_unitize_tensors(mode: str, seed: int) -> CheckResult:
    rng = stream(seed, 2)
    a = build_full_matrix_algebra(2, norm_mode=mode)
    psi = random_map(a, a, rng)
    ext = unitize_map(psi)
    chain = defect_cochain(psi).tensor
    chain_ext = defect_cochain(ext).tensor
    resid = max(
        _maxabs(chain_ext[:, 1:, 1:] - chain),
        _maxabs(chain_ext[:, 0, :]),
        _maxabs(chain_ext[:, :, 0]),
    )
    scale = (1.0 + _maxabs(psi.matrix)) ** 2
    return _exact("unitized-defect-tensor", resid, scale)


def check_splitting_v1(mode: str, seed: int) -> CheckResult:
    """Three-term identity tying the averaged coboundary to the coboundary
    of the average, for arbitrary tensor representations (arity 2)."""
    rng = stream(seed, 3)
    a, emb, _ = _scenario(2, mode)
    d = emb.sub
    b = a
    phi = random_map(a, b, rng)
    psi = Cochain((a, a), b, complex_gaussian(rng, (b.dim, a.dim, a.dim)))
    rep = random_tensor_rep(d, rng)

    lhs = coboundary(phi, average(phi, emb, rep, psi)).tensor + average(
        phi, emb, rep, coboundary(phi, psi)
    ).tensor

    u = np.zeros(b.dim, dtype=complex)
    for c, dd in rep.pairs:
        u += b.multiply_coords(phi.apply(emb.embed_coords(c)), phi.apply(emb.embed_coords(dd)))
    term1 = np.einsum("p,pqt,qij->tij", u, b.structure, psi.tensor)

    avg1 = average(phi, emb, rep, psi).tensor  # arity 1: (b.dim, a.dim)
    term2 = np.einsum("pqt,pi,qj->tij", b.structure, phi.matrix, avg1)

    term3 = np.zeros_like(term1)
    basis = np.eye(a.dim)
    for i in range(a.dim):
        for c, dd in rep.pairs:
            da = a.multiply_coords(emb.embed_coords(dd), basis[i])
            psi_da = np.tensordot(psi.tensor, da, axes=(1, 0))
            phi_c = phi.apply(emb.embed_coords(c))
            term3[:, i, :] += np.einsum("p,pqt,qj->tj", phi_c, b.structure, psi_da)

    resid = _maxabs(lhs - (term1 + term2 - term3))
    scale = (1.0 + _maxabs(phi.matrix)) ** 2 * (1.0 + _maxabs(psi.tensor)) * (1.0 + rep.proj_bound)
    return _exact("splitting-identity-v1", resid, scale)


def check_average_unit_vanish(mode: str, seed: int) -> CheckResult:
    rng = stream(seed, 4)
    a, emb, _ = _scenario(2, mode)
    gamma = unit_killing_perturbation(a, rng, 0.1)
    psi = LinearMap(a, a, np.eye(a.dim) + gamma)
    phi = random_map(a, a, rng)
    rep = random_tensor_rep(emb.sub, rng)
    avg = average(phi, emb, rep, defect_cochain(psi))
    resid = float(np.abs(avg.evaluate(emb.unit_in_parent())).max())
    scale = (1.0 + _maxabs(phi.matrix)) * (1.0 + _maxabs(psi.matrix)) ** 2 * (1.0 + rep.proj_bound)
    return _exact("average-kills-unit", resid, scale)


def check_preserved_by_improvement(mode: str, seed: int) -> CheckResult:
    """With an exactly right-modular map, the averaged defect vanishes on
    the subalgebra and obeys the right-module identity, exactly."""
    rng = stream(seed, 5)
    a, emb, _ = _scenario(2, mode)
    gamma = right_modular_perturbation(a, emb, rng, 0.05)
    psi = LinearMap(a, a, np.eye(a.dim) + gamma)
    phi = random_map(a, a, rng)
    rep = random_tensor_rep(emb.sub, rng)
    avg = average(phi, emb, rep, defect_cochain(psi)).tensor  # (b.dim, a.dim)
    resid_on_d = _maxabs(avg @ emb.matrix)
    resid_module = 0.0
    b = a
    for m in range(emb.sub.dim):
        x = emb.matrix[:, m]
        lhs = avg @ a.right_mult_matrix(x)
        psi_x = psi.apply(x)
        rhs = np.einsum("pi,pqt,q->ti", avg, b.structure, psi_x)
        resid_module = max(resid_module, _maxabs(lhs - rhs))
    scale = (1.0 + _maxabs(phi.matrix)) * (1.0 + _maxabs(psi.matrix)) ** 2 * (1.0 + rep.proj_bound)
    return _exact("improvement-preserves-right-modularity", max(resid_on_d, resid_module), scale)


def check_diagonal_residuals(mode: str, seed: int) -> CheckResult:
    which = seed % 3
    if which == 0:
        alg = build_full_matrix_algebra(2 + seed % 2, norm_mode=mode)
    elif which == 1:
        alg = build_commutative_algebra(2 + seed % 4, norm_mode=mode)
    else:
        alg = _m2_plus_c(mode, 1 + seed % 3)
    cert = library_diagonal(alg)
    resid = max(cert.residual_commute, cert.residual_unit)
    return _exact("library-diagonal-residuals", resid, 1.0 + cert.K)


@cache
def _m2_ideal(mode: str) -> tuple[Algebra, IdealData]:
    """M_2 + C_1 with its ideal M_2 + 0 and the ideal's unit."""
    a = _m2_plus_c(mode, 1)
    _, j_emb = generated_subalgebra(a, [a.basis_element(i) for i in range(4)], unital=False)
    e_coords = np.zeros(a.dim, dtype=complex)
    e_coords[:4] = build_full_matrix_algebra(2, norm_mode=mode).unit_coords
    return a, IdealData(j_emb, e_coords)


def check_decompose_equality(mode: str, seed: int) -> CheckResult:
    rng = stream(seed, 6)
    a, ideal = _m2_ideal(mode)

    # block map: a unital twist on the matrix block, arbitrary scalar slot
    w = complex_gaussian(rng, (2, 2)) + 2.0 * np.eye(2)
    winv = np.linalg.inv(w)
    theta_mat = np.zeros((a.dim, a.dim), dtype=complex)
    m2 = build_full_matrix_algebra(2, norm_mode=mode)
    for i in range(4):
        x = m2.realization[i]
        theta_mat[:4, i] = np.einsum("kab,ab->k", np.conj(m2.realization), w @ x @ winv)
    theta_mat[4, 4] = complex_gaussian(rng, ())  # arbitrary behavior on the scalar slot
    theta = LinearMap(a, a, theta_mat)

    phi, theta_s, cert = decompose_over_ideal(theta, ideal)
    resid = max(cert.multiplicative_residual, cert.vanishes_on_ideal, cert.defect_tensor_residual)
    scale = (1.0 + _maxabs(theta.matrix)) ** 2
    return _exact("ideal-decomposition", resid, scale)


# -- no-falsification checks -----------------------------------------------------


def check_perturbed_defect(mode: str, seed: int) -> CheckResult:
    rng = stream(seed, 7)
    a = _algebra_cycle(mode, seed)
    psi = random_map(a, a, rng)
    gamma = random_map(a, a, rng, scale=0.1)
    theta = LinearMap(a, a, psi.matrix + gamma.matrix)
    gap = linear_map_norm(theta - psi, 0, SW, seed=seed)
    if gap.upper > 1.0:
        shrink = 0.9 / gap.upper
        gamma = LinearMap(a, a, gamma.matrix * shrink)
        theta = LinearMap(a, a, psi.matrix + gamma.matrix)
        gap = linear_map_norm(theta - psi, 0, SW, seed=seed)
    lhs = defect(theta, restarts=R, sweeps=SW, seed=seed + 1)
    d_psi = defect(psi, restarts=0, sweeps=SW, seed=seed + 2)
    n_psi = linear_map_norm(psi, 0, SW, seed=seed + 3)
    rhs = d_psi.upper + 2.0 * gap.upper * (1.0 + n_psi.upper)
    return _nofalsify("perturbed-defect-bound", lhs.lower, lhs.upper, rhs)


def check_relative_perturbed(mode: str, seed: int) -> CheckResult:
    rng = stream(seed, 8)
    a, emb, _ = _scenario(2, mode)
    phi = random_map(a, a, rng)
    gamma = random_map(a, a, rng, scale=0.2)
    combined = LinearMap(a, a, phi.matrix + gamma.matrix)
    n_phi = linear_map_norm(phi, 0, SW, seed=seed)
    n_gamma = linear_map_norm(gamma, 0, SW, seed=seed + 1)
    sides = []
    for kw in ({"left": emb}, {"right": emb}):
        lhs = defect(combined, restarts=R, sweeps=SW, seed=seed + 2, **kw)
        base = defect(phi, restarts=0, sweeps=SW, seed=seed + 3, **kw)
        rhs = base.upper + (2.0 * n_phi.upper + 1.0) * n_gamma.upper + n_gamma.upper**2
        sides.append(_nofalsify("relative-perturbed-defect-bound", lhs.lower, lhs.upper, rhs))
    left, right = sides
    return replace(left, passed=left.passed and right.passed)  # the row reports the left side


def _sampled_lower_arity3(chain: Cochain, seed: int, samples: int = 40) -> float:
    balls = [s.unit_ball for s in chain.slots]
    target = chain.target.unit_ball
    best = 0.0
    rng = stream(seed, 9)
    for _ in range(samples):
        args = [b.random_points([rng])[0] for b in balls]
        best = max(best, target.norm(chain.evaluate(*args)))
    return best


def check_coboundary_composition(mode: str, seed: int) -> CheckResult:
    """The square of the coboundary is controlled by four defects."""
    rng = stream(seed, 10)
    a = build_full_matrix_algebra(2, norm_mode=mode)
    phi = random_map(a, a, rng)
    gamma = random_map(a, a, rng)
    composed = coboundary(phi, coboundary(phi, Cochain((a,), a, gamma.matrix)))
    lhs = _sampled_lower_arity3(composed, seed)
    d_phi = defect(phi, restarts=0, sweeps=SW, seed=seed + 1)
    n_gamma = linear_map_norm(gamma, 0, SW, seed=seed + 2)
    rhs = 4.0 * d_phi.upper * n_gamma.upper
    return _nofalsify("coboundary-composition-bound", lhs, lhs, rhs)


def check_averaging_bound(mode: str, seed: int) -> CheckResult:
    rng = stream(seed, 11)
    a, emb, _ = _scenario(2, mode)
    phi = random_map(a, a, rng)
    psi = Cochain((a, a), a, complex_gaussian(rng, (a.dim, a.dim, a.dim)))
    rep = random_tensor_rep(emb.sub, rng)
    avg = average(phi, emb, rep, psi)
    lhs = multilinear_norm(avg, R, SW, seed=seed)
    n_phi = linear_map_norm(phi, 0, SW, seed=seed + 1)
    res = multilinear_norm(restrict_first(emb, psi), 0, SW, seed=seed + 2)
    rhs = rep.proj_bound * n_phi.upper * res.upper
    return _nofalsify("averaging-operator-bound", lhs.lower, lhs.upper, rhs)


def check_left_modular(mode: str, seed: int) -> CheckResult:
    rng = stream(seed, 12)
    a, emb, _ = _scenario(2, mode)
    d, b = emb.sub, a
    phi = random_map(a, b, rng)
    psi = Cochain((a, a), b, complex_gaussian(rng, (b.dim, a.dim, a.dim)))
    rep = random_tensor_rep(d, rng)
    avg1 = average(phi, emb, rep, psi).tensor
    term1 = np.einsum("pm,pqt,qj->tmj", phi.matrix @ emb.matrix, b.structure, avg1)
    term2 = np.zeros_like(term1)
    for m in range(d.dim):
        x = np.zeros(d.dim)
        x[m] = 1.0
        moved = TensorRep(d, [(d.multiply_coords(x, c), dd) for c, dd in rep.pairs])
        term2[:, m, :] = average(phi, emb, moved, psi).tensor
    gap = Cochain((d, a), b, term1 - term2)
    lhs = multilinear_norm(gap, R, SW, seed=seed)
    ddd = defect(phi, left=emb, right=emb, restarts=0, sweeps=SW, seed=seed + 1)
    res = multilinear_norm(restrict_first(emb, psi), 0, SW, seed=seed + 2)
    rhs = ddd.upper * rep.proj_bound * res.upper
    return _nofalsify("left-modular-bound", lhs.lower, lhs.upper, rhs)


def check_splitting_v2(mode: str, seed: int) -> CheckResult:
    """Homotopy defect of the splitting operators against 2K defDD."""
    rng = stream(seed, 13)
    a, emb, cert = _scenario(2, mode)
    gamma = unit_killing_perturbation(a, rng, 0.05)
    phi = LinearMap(a, a, np.eye(a.dim) + gamma)
    psi = Cochain((a, a), a, complex_gaussian(rng, (a.dim, a.dim, a.dim)))
    s1 = split(phi, emb, cert, psi)
    inner = coboundary(phi, s1).tensor + split(phi, emb, cert, coboundary(phi, psi)).tensor - psi.tensor
    gap = restrict_first(emb, Cochain((a, a), a, inner))
    lhs = multilinear_norm(gap, R, SW, seed=seed)
    ddd = defect(phi, left=emb, right=emb, restarts=0, sweeps=SW, seed=seed + 1)
    res = multilinear_norm(restrict_first(emb, psi), 0, SW, seed=seed + 2)
    rhs = 2.0 * cert.K * ddd.upper * res.upper
    return _nofalsify("splitting-homotopy-bound", lhs.lower, lhs.upper, rhs)


def check_improving_bounds(mode: str, seed: int) -> list[CheckResult]:
    """One improving step on a seeded M_2 instance: step <= K ||phi|| defDA,
    new defDA <= 3 K^2 ||phi||^2 defDD defDA, and the unit value is kept."""
    rng = stream(seed, 14)
    a, emb, cert = _scenario(2, mode)
    gamma = unit_killing_perturbation(a, rng, 1e-3)
    phi = LinearMap(a, a, np.eye(a.dim) + gamma)
    improved = improve(phi, emb, cert)
    step = linear_map_norm(improved - phi, R, SW, seed=seed)
    norm_phi = linear_map_norm(phi, R, SW, seed=seed + 1)
    dda_in = defect(phi, left=emb, restarts=R, sweeps=SW, seed=seed + 2)
    ddd_in = defect(phi, left=emb, right=emb, restarts=R, sweeps=SW, seed=seed + 3)
    dda_out = defect(improved, left=emb, restarts=R, sweeps=SW, seed=seed + 4)
    step_bound = cert.K * norm_phi.upper * dda_in.upper
    defect_bound = 3.0 * cert.K**2 * norm_phi.upper**2 * ddd_in.upper * dda_in.upper
    unit_resid = _maxabs(improved.apply(emb.unit_in_parent()) - a.unit_coords)
    unit_ok = unit_resid <= EXACT_TOL * max(1.0, _maxabs(phi.matrix) ** 2)
    return [
        _nofalsify("improvement-step-bound", step.lower, step.upper, step_bound),
        _nofalsify("improvement-defect-bound", dda_out.lower, dda_out.upper, defect_bound),
        CheckResult("improvement-preserves-unit", unit_ok, 0.0, 0.0, 0.0, 0.0),
    ]


def run_stabilize_checks(mode: str, seed: int, gamma_norm: float = 1e-3,
                         config: StabilizeConfig | None = None) -> list[CheckResult]:
    """Stabilize one seeded M_2 instance under ``config`` (the suite budget of
    ``R`` restarts and ``SW`` sweeps by default) with its claims checked."""
    config = replace(config or StabilizeConfig(restarts=R, sweeps=SW), seed=seed, check_claim_bounds=True)
    rng = stream(seed, 15)
    a, emb, cert = _scenario(2, mode)
    gamma = unit_killing_perturbation(a, rng, gamma_norm)
    phi = LinearMap(a, a, np.eye(a.dim) + gamma)
    report = stabilize(phi, emb, cert, config)
    results = [
        CheckResult("stabilize-converged", report.converged,
                    float(len(report.iterates)), float(len(report.iterates)),
                    float(config.max_iter), float(config.max_iter)),
        CheckResult("stabilize-distance-bound", report.distance_ok,
                    report.total_distance.lower, report.total_distance.upper,
                    report.theorem_bound, report.theorem_bound),
        CheckResult("stabilize-self-modular", report.self_modular_residual <= SELF_MODULAR_TOL,
                    report.self_modular_residual, report.self_modular_residual, SELF_MODULAR_TOL, SELF_MODULAR_TOL),
    ]
    for rec in report.iterates:
        results.append(CheckResult(f"stabilize-claim-step-{rec.step}", rec.step_ok,
                                   rec.step_norm.lower, rec.step_norm.upper,
                                   rec.claim_step_bound, rec.claim_step_bound))
        results.append(CheckResult(f"stabilize-claim-defect-{rec.step}", rec.defect_ok,
                                   rec.def_da.lower, rec.def_da.upper,
                                   rec.claim_defect_bound, rec.claim_defect_bound))
        results.append(CheckResult(f"stabilize-norm-growth-{rec.step}", rec.norm_ok,
                                   rec.norm_phi.lower, rec.norm_phi.upper,
                                   NORM_GROWTH * config.L, NORM_GROWTH * config.L))
    return results


# -- elementary checker batteries -------------------------------------------------


def _guarded(check: str, thunk) -> CheckResult:
    """The row of ``thunk()``'s (passed, lhs, rhs), or a failed row when the
    checker raises: a valid instance must not be refused."""
    try:
        passed, lhs, rhs = thunk()
    except Exception:
        return CheckResult(check, False, 0, 0, 0, 0)
    return CheckResult(check, passed, lhs, lhs, rhs, rhs)


def _bound(cert) -> tuple:
    return cert.ok, cert.lhs, cert.rhs


def checker_valid_battery(seed: int) -> list[CheckResult]:
    """One valid seeded instance of each elementary checker."""
    rng = stream(seed, 16)
    results = []
    a = build_full_matrix_algebra(2)

    # dichotomy, large branch: a near-identity map at an idempotent
    gamma = unit_killing_perturbation(a, rng, 1e-4)
    psi = LinearMap(a, a, np.eye(a.dim) + gamma)
    dpsi = defect(psi, restarts=0, sweeps=SW, seed=seed)
    delta = dpsi.upper * 1.5 + 1e-12
    p = a.basis_element(0)

    def dichotomy_large():
        verdict = norm_dichotomy_check(psi, p, delta, seed=seed)
        return verdict.branch == "large", verdict.value, verdict.threshold_large

    results.append(_guarded("dichotomy-valid", dichotomy_large))

    # dichotomy, small branch: a uniformly small map
    small = LinearMap(a, a, 0.01 * complex_gaussian(rng, (a.dim, a.dim)))
    dsmall = defect(small, restarts=0, sweeps=SW, seed=seed + 1)
    delta_small = dsmall.upper * 1.5 + 1e-12

    def dichotomy_small():
        if delta_small * p.norm() ** 2 <= 2.0 / 9.0:
            verdict = norm_dichotomy_check(small, p, delta_small, seed=seed + 1)
            return verdict.branch == "small", verdict.value, verdict.threshold_small
        return False, delta_small, 2 / 9

    results.append(_guarded("dichotomy-small-branch", dichotomy_small))

    # absorption: a = e11, b = e12, small psi
    tiny = LinearMap(a, a, 0.01 * complex_gaussian(rng, (a.dim, a.dim)))
    eta = defect(tiny, restarts=0, sweeps=SW, seed=seed + 2).upper * 1.2 + 1e-12
    results.append(_guarded("absorption-valid", lambda: _bound(absorption_check(
        tiny, a.basis_element(0), a.basis_element(1), "left", eta, seed=seed + 2))))

    # equivalent projections: u = e12, v = e21
    results.append(_guarded("projection-transfer-valid", lambda: _bound(equivalent_projection_check(
        tiny, a.basis_element(1), a.basis_element(2), eta, seed=seed + 3))))

    # small on identity: scalar algebra, psi(a) = eps a
    c1 = build_commutative_algebra(1, norm_mode="frobenius")
    eps = 0.1 + 0.2 * float(rng.uniform())
    scal = LinearMap(c1, c1, np.array([[eps]], dtype=complex))
    eta_s = abs(eps - eps * eps) * (1 + 1e-12) + 1e-15
    results.append(_guarded("small-on-identity-valid", lambda: _bound(small_on_identity(scal, eta_s, seed=seed + 4))))

    # orthogonal family scan on a quotient model
    results.append(scan_pipeline_check(seed))
    results.append(scan_separation_check(seed))
    return results


def scan_separation_check(seed: int) -> CheckResult:
    """Family scan with a nonempty large set: a block homomorphism kills
    half the family, and the retained idempotents' witness vectors must stay
    pairwise separated."""
    q = _m2_plus_m2()
    mat = np.zeros((q.dim, q.dim), dtype=complex)
    mat[:4, :4] = np.eye(4)
    psi = LinearMap(q, q, mat)
    family = []
    for i in (0, 3, 4, 7):
        coords = np.zeros(q.dim, dtype=complex)
        coords[i] = 1.0
        family.append(q.element(coords))

    def scan():
        report = orthogonal_family_scan(psi, family, L=1.0, eta=1e-3, seed=seed)
        ok = (report.survivors == [2, 3] and report.large == [0, 1]
              and report.distances_ok and report.count_ok)
        return ok, report.min_distance, report.separation

    return _guarded("scan-separation", scan)


def scan_pipeline_check(seed: int) -> CheckResult:
    """Quotient model, family scan, equivalence transfer, corner smallness.

    The compact part is a direct summand that the quotient drops; the corner
    standing in for the whole space is the upper-left block, whose identity
    is the vu of the shift factorization."""
    rng = stream(seed, 17)
    big = _m4_plus_m2()
    q_alg, _ = summand_quotient(big, keep=0)

    k = 4
    idx = lambda i, j: i * k + j
    blocks = []
    for blk in range(2):
        coords = np.zeros(q_alg.dim, dtype=complex)
        coords[idx(2 * blk, 2 * blk)] = 1.0
        coords[idx(2 * blk + 1, 2 * blk + 1)] = 1.0
        blocks.append(q_alg.element(coords))
    u_coords = np.zeros(q_alg.dim, dtype=complex)
    u_coords[idx(2, 0)] = 1.0
    u_coords[idx(3, 1)] = 1.0
    v_coords = np.zeros(q_alg.dim, dtype=complex)
    v_coords[idx(0, 2)] = 1.0
    v_coords[idx(1, 3)] = 1.0
    u, v = q_alg.element(u_coords), q_alg.element(v_coords)

    factor_const = u.norm() * v.norm()
    threshold = clone_constant(max(1.0, factor_const))
    psi = LinearMap(q_alg, q_alg, 0.0015 * complex_gaussian(rng, (q_alg.dim, q_alg.dim)))
    eta = defect(psi, restarts=0, sweeps=SW, seed=seed).upper * 1.2 + 1e-12
    if eta > threshold:
        return CheckResult("equivalence-pipeline", False, eta, eta, threshold, threshold)

    def pipeline():
        scan = orthogonal_family_scan(psi, blocks, L=1.0, eta=eta, seed=seed + 1)
        if 1 not in scan.survivors:  # index of the u v block
            return False, 0, 0
        equivalent_projection_check(psi, u, v, eta, seed=seed + 2)
        corner_basis = [q_alg.basis_element(idx(i, j)) for i in range(2) for j in range(2)]
        restricted, _ = corner_restriction(psi, corner_basis)
        return _bound(small_on_identity(restricted, eta, seed=seed + 3))

    return _guarded("equivalence-pipeline", pipeline)


def checker_refusal_battery(seed: int) -> list[CheckResult]:
    """Precondition violations must be refused, never silently passed."""
    rng = stream(seed, 18)
    a = build_full_matrix_algebra(2)
    psi = LinearMap(a, a, 0.05 * complex_gaussian(rng, (a.dim, a.dim)))
    eta = defect(psi, restarts=0, sweeps=SW, seed=seed).upper * 1.2 + 1e-12
    results = []

    def expect_refusal(name, thunk):
        try:
            thunk()
        except PreconditionError:
            results.append(CheckResult(name, True, 1, 1, 1, 1))
        except Exception:
            results.append(CheckResult(name, False, 0, 0, 0, 0))
        else:
            results.append(CheckResult(name, False, 0, 0, 0, 0))

    not_idem = a.element([0.5, 0.3, 0.0, 0.0])
    expect_refusal("refuse-non-idempotent",
                   lambda: norm_dichotomy_check(psi, not_idem, eta, seed=seed))
    big_delta = 1.0  # delta ||p||^2 = 1 > 2/9
    expect_refusal("refuse-dichotomy-range",
                   lambda: norm_dichotomy_check(psi, a.basis_element(0), big_delta, seed=seed))
    expect_refusal("refuse-absorption-identity",
                   lambda: absorption_check(psi, a.basis_element(1), a.basis_element(0), "left", eta, seed=seed))
    huge = LinearMap(a, a, np.eye(a.dim) * 3.0)
    expect_refusal("refuse-absorption-large-image",
                   lambda: absorption_check(huge, a.unit(), a.basis_element(1), "left", 100.0, seed=seed))
    expect_refusal("refuse-projection-range",
                   lambda: equivalent_projection_check(psi, 2.0 * a.basis_element(1), 2.0 * a.basis_element(2), 0.2, seed=seed))
    expect_refusal("refuse-small-identity-large",
                   lambda: small_on_identity(huge, 100.0, seed=seed))
    overlapping = [a.basis_element(0), a.element([1, 0, 0, 1])]
    expect_refusal("refuse-non-orthogonal-family",
                   lambda: orthogonal_family_scan(psi, overlapping, L=2.0, eta=eta, seed=seed))
    expect_refusal("refuse-eta-not-certified",
                   lambda: absorption_check(huge, a.basis_element(0), a.basis_element(1), "left", 1e-9, seed=seed))
    return results


def dichotomy_grid_check() -> CheckResult:
    """Envelope of the quadratic dichotomy over the whole admissible range."""
    worst = 0.0
    c = 0.0
    while c <= 0.2221:
        u1, u2, bound = dichotomy_roots(c)
        worst = max(worst, u1 - bound, abs(u1 + u2 - 1.0))
        c += 0.001
    u1, _, bound = dichotomy_roots(2.0 / 9.0)
    worst = max(worst, abs(u1 - 1.0 / 3.0), abs(bound - 1.0 / 3.0))
    return CheckResult("dichotomy-grid", worst <= 1e-12, worst, worst, 1e-12, 1e-12)


# -- Tsirelson block --------------------------------------------------------------


def tsirelson_battery(seed: int) -> list[CheckResult]:
    results = []
    worst = max(abs(tsirelson_norm(basis_vector(n)) - 1.0) for n in range(1, 51))
    results.append(CheckResult("basis-vectors-norm-one", worst == 0.0, worst, worst, 0.0, 0.0))

    rng = stream(seed, 19)
    bad = 0.0
    for _ in range(10):
        positions = rng.choice(np.arange(1, 25), size=8, replace=False)
        values = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        vec = TsirelsonVector({int(p): v for p, v in zip(positions, values)})
        cert = schreier_inequality(vec, {3, 4, 5})
        bad = max(bad, cert.half_sum - cert.norm)
    results.append(CheckResult("schreier-inequality", bad <= 1e-12, bad, bad, 1e-12, 1e-12))

    word_bits = [int(b) for b in rng.integers(0, 2, size=10)]
    fam = clone_family(word_bits, 10)
    closed = all(clone_family_closed_form(word_bits, n) == fam.terms[n - 1] for n in range(1, 11))
    try:
        interval_schreier_report(fam, 64)
        gaps_ok = True
    except Exception:
        gaps_ok = False
    results.append(CheckResult("clone-family-recursion", fam.doubling_ok and closed and gaps_ok, 0, 0, 0, 0))

    w1 = [int(b) for b in rng.integers(0, 2, size=8)]
    w2 = list(w1)
    flip = int(rng.integers(0, 8))
    w2[flip] = 1 - w2[flip]
    rep = intersection_size(w1, w2, 12)
    results.append(CheckResult("clone-intersection", rep.count == rep.first_disagreement,
                               float(rep.count), float(rep.count),
                               float(rep.first_disagreement), float(rep.first_disagreement)))
    return results


# -- suite assembly ----------------------------------------------------------------


def suite_rows(cfg) -> list[dict]:
    """Every row of the suite for a run configuration, sorted by id.

    The rows come in independent blocks, costliest kinds first: one per
    instance, per stabilize run and per checker seed, then the dichotomy
    grid with the Tsirelson battery; ``run_all`` spreads them over the CPUs.
    """
    mode = cfg.norm_mode
    n = cfg.instances
    exact_checks = [
        check_two_cocycle, check_linearization, check_unitize_tensors,
        check_splitting_v1, check_average_unit_vanish, check_preserved_by_improvement,
        check_diagonal_residuals, check_decompose_equality,
    ]
    nofalsify_checks = [
        check_perturbed_defect, check_relative_perturbed, check_coboundary_composition,
        check_averaging_bound, check_left_modular, check_splitting_v2,
    ]
    stabilize_config = replace(cfg.stabilize, restarts=min(cfg.stabilize.restarts, 16),
                               sweeps=min(cfg.stabilize.sweeps, 120))

    def instance_rows(i: int) -> list[dict]:
        seed = cfg.seed + i
        rows = [fn(mode, seed).row(f"exact-{i:04d}-{fn.__name__}", seed) for fn in exact_checks]
        seed = cfg.seed + 3000 + i
        rows += [fn(mode, seed).row(f"nofalsify-{i:04d}-{fn.__name__}", seed) for fn in nofalsify_checks]
        return rows + [r.row(f"nofalsify-{i:04d}-improving-{j}", seed)
                       for j, r in enumerate(check_improving_bounds(mode, seed))]

    def stabilize_rows(i: int) -> list[dict]:
        seed = cfg.seed + 6000 + i
        checks = run_stabilize_checks(mode, seed, cfg.gamma_norm, stabilize_config)
        return [r.row(f"stabilize-{i:04d}-{j:02d}", seed) for j, r in enumerate(checks)]

    def checker_rows(i: int) -> list[dict]:
        seed = cfg.seed + 9000 + i
        rows = [r.row(f"checkers-{i:04d}-{j:02d}", seed)
                for j, r in enumerate(checker_valid_battery(seed))]
        return rows + [r.row(f"refusals-{i:04d}-{j:02d}", seed)
                       for j, r in enumerate(checker_refusal_battery(seed))]

    def tail_rows() -> list[dict]:
        return [dichotomy_grid_check().row("dichotomy-grid-0000", cfg.seed)] + [
            r.row(f"tsirelson-0000-{j:02d}", cfg.seed) for j, r in enumerate(tsirelson_battery(cfg.seed))]

    blocks = [partial(instance_rows, i) for i in range(n)]
    blocks += [partial(stabilize_rows, i) for i in range(max(1, n // 4))]
    blocks += [partial(checker_rows, i) for i in range(max(1, n // 2))]
    blocks.append(tail_rows)
    rows = [row for block in run_all(blocks) for row in block]
    rows.sort(key=lambda r: r["id"])
    return rows
