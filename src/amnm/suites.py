"""Seeded check instances: exact identities, no-falsification bounds,
checker batteries, and the Tsirelson block.

Every check is a pure function of (norm mode, seed) returning a CheckResult,
except the checks with a searched estimate (``SEARCHED_CHECKS`` and
``check_improving_bounds``): they take (norm mode, seeds) and return the
results of every seed, each instance drawn and assembled alone and all
their searched estimates stacked (``multilinear_norms``), which keeps each
result's bits.  The suite command and the acceptance tests drive the same
functions.  Exact identities compare coefficient tensors at 1e-10 of their
natural scale.  A bound check assembles its bound from certified uppers
before it estimates the left side, whose estimate takes the bound's limit
(``normest.claim_limit``) as its claim; the row's verdicts are the
estimate's: ``passed`` (not falsified) when its certified lower meets the
claim, ``proved`` when its certified upper does.  So a row its upper
proves runs only the cheap stage of the witness search.
``check_improving_bounds`` is the one home of the improving operator's
one-step contract.

The checks contract stacked arrays instead of looping over basis vectors,
tensor legs or samples: the splitting identity stacks the diagonal's legs,
the right-module identity the subalgebra's basis, the left-modular bound
its legs moved by every basis vector of the subalgebra (one averaging
kernel call), and the sampled arity-3 lower takes all its points from one
draw.  One check keeps a short loop, whose bits a stacked form would move:
the M_2 twist of ``check_decompose_equality`` builds its seeded map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .algebra import (
    Algebra,
    Embedding,
    build_commutative_algebra,
    build_full_matrix_algebra,
    direct_sum,
    generated_subalgebra,
)
from .diagonal import TensorRep, _average_tensor, _scenario, average, library_diagonal, split
from .errors import DomainError, PreconditionError
from .multilinear import (
    Cochain,
    LinearMap,
    _target_multiply_left,
    coboundary,
    defect,
    defect_cochain,
    linear_map_norm,
    multilinear_norm,
    multilinear_norms,
    restrict_slot,
    unit_killing_perturbation,
)
from .normest import DefectEstimate, EuclideanBall, SpectralBall, claim_limit, estimate_tensor_norm
from .perturbation import (
    BoundCertificate,
    absorption_check,
    clone_constant,
    dichotomy_roots,
    equivalent_projection_check,
    norm_dichotomy_check,
    orthogonal_family_scan,
    small_on_identity,
)
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
    CloneFamily,
    TsirelsonVector,
    basis_vector,
    clone_family_closed_form,
    intersection_size,
    interval_schreier_report,
    schreier_inequality,
    tsirelson_norm,
)

EXACT_TOL = 1e-10
R = 8  # restart budget inside suite checks; uppers are restart-independent
SW = 60


@dataclass
class CheckResult:
    """One row.  ``passed``: the check is not falsified; ``proved``: a
    certified bound decides it, which by default means ``passed`` (exact
    residuals, exactly computed values, checker verdicts)."""

    check: str
    passed: bool
    lhs_lo: float
    lhs_hi: float
    rhs_lo: float
    rhs_hi: float
    proved: bool | None = None

    def __post_init__(self):
        if self.proved is None:
            self.proved = self.passed

    def row(self, instance_id: str, seed: int) -> dict:
        return {
            "id": instance_id,
            "check": self.check,
            "instance_seed": seed,
            "passed": bool(self.passed),
            "proved": bool(self.proved),
            "lhs": {"lo": self.lhs_lo, "hi": self.lhs_hi},
            "rhs": {"lo": self.rhs_lo, "hi": self.rhs_hi},
        }


def _maxabs(arr: np.ndarray) -> float:
    return float(np.abs(arr).max()) if arr.size else 0.0


def _exact(check: str, residual: float, scale: float) -> CheckResult:
    bound = EXACT_TOL * scale
    return CheckResult(check, residual <= bound, residual, residual, bound, bound)


def _nofalsify(check: str, lhs: DefectEstimate, rhs: float) -> CheckResult:
    """The row of the bound ``rhs`` on the left side ``lhs``, an estimate
    that carries the bound's claim and its verdicts."""
    return CheckResult(check, lhs.passed, lhs.lower, lhs.upper, rhs, rhs, lhs.proved)


# -- seeded building blocks -----------------------------------------------------


# The seed-free composite fixtures (direct sums, subalgebras) are cached
# builders: built once per process and shared across checks.  Library
# algebras need no cache of their own (their constructors build each one once
# per process), nor do diagonals (``library_diagonal`` builds one per
# algebra).  Algebras are immutable and each object is checked once, when it
# is constructed (``Algebra._check_invariants``, cheap for realized ones).


@cache
def _m2_plus_c(mode: str, j: int) -> Algebra:
    """M_2 + C^j."""
    return direct_sum(build_full_matrix_algebra(2, norm_mode=mode), build_commutative_algebra(j, norm_mode=mode))


@cache
def _m2_plus_m2() -> Algebra:
    return direct_sum(build_full_matrix_algebra(2), build_full_matrix_algebra(2))


@cache
def _m4_corner() -> Embedding:
    """The upper-left 2x2 corner of M_4, the quotient of M_4 + M_2 by its
    M_2 summand (``summand_quotient`` returns the library M_4 itself), as
    the subalgebra its four matrix units span (``corner_restriction``)."""
    q_alg = build_full_matrix_algebra(4)
    corner_basis = [q_alg.basis_element(4 * i + j) for i in range(2) for j in range(2)]
    return generated_subalgebra(q_alg, corner_basis, unital=False)[1]


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
    """``pairs`` random elementary tensors, every leg from one draw taken in
    leg order (real then imaginary part of c_k, then of d_k), as one
    ``complex_gaussian`` call per leg would take it."""
    x = rng.standard_normal((pairs, 2, 2, d.dim))
    legs = x[:, :, 0] + 1j * x[:, :, 1]  # (k, leg, i)
    return TensorRep(d, legs[:, 0].T, legs[:, 1].T)


def right_modular_perturbation(a: Algebra, emb: Embedding, rng, scale: float) -> np.ndarray:
    """gamma with gamma(y x) = gamma(y) x for x in the subalgebra and
    gamma = 0 on the subalgebra, so id + gamma is exactly right-modular: a
    seeded combination of the null-space basis ``_right_modular_null``,
    rescaled."""
    null = _right_modular_null(a, emb)
    if null.shape[1] == 0:
        raise PreconditionError("no nonzero right-modular perturbation exists here")
    coeff = complex_gaussian(rng, null.shape[1])
    gamma = (null @ coeff).reshape(a.dim, a.dim)
    top = np.linalg.svd(gamma, compute_uv=False)[0]
    return gamma / top * scale


def _right_modular_null(a: Algebra, emb: Embedding) -> np.ndarray:
    """Orthonormal basis (columns) of the right-modular perturbations of
    ``a`` over ``emb``, kept in ``a``'s cache per embedding matrix.

    The constraint matrix acts on gamma's coefficients in row-major order:
    gamma r - r gamma for each right multiplier r by a basis vector of the
    subalgebra, then gamma Q for the embedding Q.  Its Kronecker blocks copy
    the entries of r and Q exactly, as an assembly one elementary matrix at a
    time would.
    """
    key = ("right_modular_null", emb.matrix.dtype.str, emb.matrix.shape, emb.matrix.tobytes())
    null = a._cache.get(key)
    if null is None:
        eye = np.eye(a.dim)
        rights = [a.right_mult_matrix(emb.matrix[:, m]) for m in range(emb.sub.dim)]
        full = np.concatenate([np.kron(eye, r.T) - np.kron(r, eye) for r in rights] + [np.kron(eye, emb.matrix.T)])
        _, sv, vh = np.linalg.svd(full)
        rank = int(np.sum(sv > 1e-9 * sv[0])) if sv.size else 0
        null = a._cache[key] = vh[rank:].conj().T
        null.flags.writeable = False
    return null


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
    gg = _target_multiply_left(a, gamma.matrix, gamma.matrix)  # gamma(a) gamma(b)
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

    avg1 = average(phi, emb, rep, psi)  # arity 1: (b.dim, a.dim)
    lhs = coboundary(phi, avg1).tensor + average(phi, emb, rep, coboundary(phi, psi)).tensor

    # the embedded legs c_k, d_k as columns, one per pair
    cs, ds = emb.matrix @ rep.cs, emb.matrix @ rep.ds
    phi_c = phi.matrix @ cs
    # u = sum_k phi(c_k) phi(d_k)
    u = (phi_c @ (phi.matrix @ ds).T).reshape(-1) @ b.structure.reshape(-1, b.dim)
    term1 = _target_multiply_left(b, u[:, None], psi.tensor)[:, 0]

    term2 = _target_multiply_left(b, phi.matrix, avg1.tensor)

    # term3(e_i, .) = sum_k phi(c_k) psi(d_k e_i, .), every k and i at once
    d_e = (ds.T @ a.structure.reshape(a.dim, -1)).reshape(ds.shape[1], a.dim, a.dim)  # (k, i, m)
    term3 = np.einsum("tkmj,kim->tij", _target_multiply_left(b, phi_c, psi.tensor), d_e)

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
    # avg(y x) against avg(y) psi(x), for every basis vector x of the subalgebra
    x = emb.matrix
    moved = avg @ np.einsum("kji,jm->ikm", a.structure, x).reshape(a.dim, -1)  # (t, k m)
    products = _target_multiply_left(a, avg, psi.matrix @ x)
    resid_module = _maxabs(moved.reshape(products.shape) - products)
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


def _bound_rows(check: str, chains, seeds, bounds) -> list[CheckResult]:
    """The rows of the bounds on the chains' norms: each chain estimated at
    the suite budget with its seed and its bound's limit as its claim, all
    in one stacked call (``multilinear_norms``)."""
    lhs = multilinear_norms(chains, R, SW, seeds, [claim_limit(b) for b in bounds])
    return [_nofalsify(check, est, b) for est, b in zip(lhs, bounds)]


def check_perturbed_defect(mode: str, seeds) -> list[CheckResult]:
    chains, bounds = [], []
    for seed in seeds:
        rng = stream(seed, 7)
        a = _algebra_cycle(mode, seed)
        psi = random_map(a, a, rng)
        gamma = random_map(a, a, rng, scale=0.1)
        theta = LinearMap(a, a, psi.matrix + gamma.matrix)
        gap = linear_map_norm(theta - psi, restarts=0)
        if gap.upper > 1.0:
            shrink = 0.9 / gap.upper
            gamma = LinearMap(a, a, gamma.matrix * shrink)
            theta = LinearMap(a, a, psi.matrix + gamma.matrix)
            gap = linear_map_norm(theta - psi, restarts=0)
        d_psi = defect(psi, restarts=0)
        n_psi = linear_map_norm(psi, restarts=0)
        bounds.append(d_psi.upper + 2.0 * gap.upper * (1.0 + n_psi.upper))
        chains.append(defect_cochain(theta))
    return _bound_rows("perturbed-defect-bound", chains, [seed + 1 for seed in seeds], bounds)


def check_relative_perturbed(mode: str, seeds) -> list[CheckResult]:
    sides = {"left": ([], []), "right": ([], [])}  # the restricted slot: its chains and bounds
    for seed in seeds:
        rng = stream(seed, 8)
        a, emb, _ = _scenario(2, mode)
        phi = random_map(a, a, rng)
        gamma = random_map(a, a, rng, scale=0.2)
        combined = LinearMap(a, a, phi.matrix + gamma.matrix)
        n_phi = linear_map_norm(phi, restarts=0)
        n_gamma = linear_map_norm(gamma, restarts=0)
        for side, (chains, bounds) in sides.items():
            base = defect(phi, restarts=0, **{side: emb})
            bounds.append(base.upper + (2.0 * n_phi.upper + 1.0) * n_gamma.upper + n_gamma.upper**2)
            chains.append(defect_cochain(combined, **{side: emb}))
    left, right = (_bound_rows("relative-perturbed-defect-bound", chains, [seed + 2 for seed in seeds], bounds)
                   for chains, bounds in sides.values())
    # each row reports the left side
    return [replace(lo, passed=lo.passed and ro.passed, proved=lo.proved and ro.proved) for lo, ro in zip(left, right)]


def _sample_points(slots, seed: int, samples: int) -> list[np.ndarray]:
    """``samples`` random points of each slot's unit ball, (samples, dim)
    per slot, from one draw of the stream (seed, 9).

    Row s of the standard-normal draw holds sample s's
    [re_0, im_0, re_1, im_1, ...], the order in which one ``random_points``
    call per sample and slot would draw them.  So the balls must be
    Euclidean or spectral, whose random point is a normed complex Gaussian;
    each slot's points are normed in one stacked call.
    """
    if not all(isinstance(s.unit_ball, (EuclideanBall, SpectralBall)) for s in slots):
        raise DomainError("sampled points need Euclidean or spectral slot balls")
    draw = stream(seed, 9).standard_normal((samples, 2 * sum(s.dim for s in slots)))
    points, start = [], 0
    for s in slots:
        v = draw[:, start : start + s.dim] + 1j * draw[:, start + s.dim : start + 2 * s.dim]
        points.append(v / s.unit_ball.norm(v)[:, None])
        start += 2 * s.dim
    return points


def _sampled_lower_arity3(chain: Cochain, seed: int, samples: int = 40) -> float:
    """The largest target norm of the chain over its sampled points, all
    evaluated in one contraction per slot."""
    points = _sample_points(chain.slots, seed, samples)
    values = np.tensordot(chain.tensor, points[-1], axes=(-1, 1))  # (target, slots.., sample)
    for x in reversed(points[:-1]):
        values = np.einsum("...js,sj->...s", values, x)
    return float(chain.target.unit_ball.norm(values.T).max())


def check_coboundary_composition(mode: str, seed: int) -> CheckResult:
    """The square of the coboundary is controlled by four defects.  The
    arity-3 left side has a sampled lower bound and an unfolding upper."""
    rng = stream(seed, 10)
    a = build_full_matrix_algebra(2, norm_mode=mode)
    phi = random_map(a, a, rng)
    gamma = random_map(a, a, rng)
    composed = coboundary(phi, coboundary(phi, Cochain((a,), a, gamma.matrix)))
    lower = _sampled_lower_arity3(composed, seed)
    upper = estimate_tensor_norm(composed.tensor, [s.unit_ball for s in composed.slots], a.unit_ball, 0).upper
    d_phi = defect(phi, restarts=0)
    n_gamma = linear_map_norm(gamma, restarts=0)
    rhs = 4.0 * d_phi.upper * n_gamma.upper
    # the sampled points lie in the unit balls, so the sampled lower never
    # exceeds the unfolding upper beyond rounding, far inside the slack of
    # the estimate's lower-versus-upper guard
    lhs = DefectEstimate(lower, upper, claim=claim_limit(rhs))
    return _nofalsify("coboundary-composition-bound", lhs, rhs)


def check_averaging_bound(mode: str, seeds) -> list[CheckResult]:
    chains, bounds = [], []
    for seed in seeds:
        rng = stream(seed, 11)
        a, emb, _ = _scenario(2, mode)
        phi = random_map(a, a, rng)
        psi = Cochain((a, a), a, complex_gaussian(rng, (a.dim, a.dim, a.dim)))
        rep = random_tensor_rep(emb.sub, rng)
        chains.append(average(phi, emb, rep, psi))
        n_phi = linear_map_norm(phi, restarts=0)
        res = multilinear_norm(restrict_slot(psi, 0, emb), restarts=0)
        bounds.append(rep.proj_bound * n_phi.upper * res.upper)
    return _bound_rows("averaging-operator-bound", chains, seeds, bounds)


def _left_modular_gap(phi: LinearMap, emb: Embedding, rep: TensorRep, psi: Cochain) -> Cochain:
    """(x, a) -> phi(x) avg(a) - sum_k phi(x c_k) psi(d_k, a) for x in the
    subalgebra, avg the average of ``psi`` against ``rep``."""
    d, b = emb.sub, phi.target
    avg1 = average(phi, emb, rep, psi).tensor
    term1 = _target_multiply_left(b, phi.matrix @ emb.matrix, avg1)  # phi(x_m) avg1(.) over D's basis
    # term2[:, m] averages against the legs moved to (x_m c_k, d_k): every m
    # in one kernel call, the moved legs stacked along a leading axis
    moved = np.swapaxes(d.structure, 1, 2) @ rep.cs  # (m, i, k): x_m c_k
    term2 = _average_tensor(b.structure, phi.matrix, emb.matrix, moved, rep.ds, psi.tensor).swapaxes(0, 1)
    return Cochain((d,) + psi.slots[1:], b, term1 - term2)


def check_left_modular(mode: str, seeds) -> list[CheckResult]:
    chains, bounds = [], []
    for seed in seeds:
        rng = stream(seed, 12)
        a, emb, _ = _scenario(2, mode)
        d, b = emb.sub, a
        phi = random_map(a, b, rng)
        psi = Cochain((a, a), b, complex_gaussian(rng, (b.dim, a.dim, a.dim)))
        rep = random_tensor_rep(d, rng)
        chains.append(_left_modular_gap(phi, emb, rep, psi))
        ddd = defect(phi, left=emb, right=emb, restarts=0)
        res = multilinear_norm(restrict_slot(psi, 0, emb), restarts=0)
        bounds.append(ddd.upper * rep.proj_bound * res.upper)
    return _bound_rows("left-modular-bound", chains, seeds, bounds)


def check_splitting_v2(mode: str, seeds) -> list[CheckResult]:
    """Homotopy defect of the splitting operators against 2K defDD."""
    chains, bounds = [], []
    for seed in seeds:
        rng = stream(seed, 13)
        a, emb, cert = _scenario(2, mode)
        gamma = unit_killing_perturbation(a, rng, 0.05)
        phi = LinearMap(a, a, np.eye(a.dim) + gamma)
        psi = Cochain((a, a), a, complex_gaussian(rng, (a.dim, a.dim, a.dim)))
        s1 = split(phi, emb, cert, psi)
        inner = coboundary(phi, s1).tensor + split(phi, emb, cert, coboundary(phi, psi)).tensor - psi.tensor
        chains.append(restrict_slot(Cochain((a, a), a, inner), 0, emb))
        ddd = defect(phi, left=emb, right=emb, restarts=0)
        res = multilinear_norm(restrict_slot(psi, 0, emb), restarts=0)
        bounds.append(2.0 * cert.K * ddd.upper * res.upper)
    return _bound_rows("splitting-homotopy-bound", chains, seeds, bounds)


def check_improving_bounds(mode: str, seeds) -> list[list[CheckResult]]:
    """One improving step on each seeded M_2 instance: step <= K ||phi||
    defDA, new defDA <= 3 K^2 ||phi||^2 defDD defDA, and the unit value is
    kept; three rows per seed."""
    steps, step_bounds, defects, defect_bounds, units = [], [], [], [], []
    for seed in seeds:
        rng = stream(seed, 14)
        a, emb, cert = _scenario(2, mode)
        gamma = unit_killing_perturbation(a, rng, 1e-3)
        phi = LinearMap(a, a, np.eye(a.dim) + gamma)
        improved = improve(phi, emb, cert)
        # the bounds read only the uppers of the input's estimates
        norm_phi = linear_map_norm(phi, restarts=0)
        dda_in = defect(phi, left=emb, restarts=0)
        ddd_in = defect(phi, left=emb, right=emb, restarts=0)
        step_bounds.append(cert.K * norm_phi.upper * dda_in.upper)
        defect_bounds.append(3.0 * cert.K**2 * norm_phi.upper**2 * ddd_in.upper * dda_in.upper)
        steps.append(Cochain((a,), a, (improved - phi).matrix))
        defects.append(defect_cochain(improved, left=emb))
        unit_resid = _maxabs(improved.apply(emb.unit_in_parent()) - a.unit_coords)
        units.append(_exact("improvement-preserves-unit", unit_resid, max(1.0, _maxabs(phi.matrix) ** 2)))
    step_rows = _bound_rows("improvement-step-bound", steps, seeds, step_bounds)
    defect_rows = _bound_rows("improvement-defect-bound", defects, [seed + 4 for seed in seeds], defect_bounds)
    return [list(rows) for rows in zip(step_rows, defect_rows, units)]


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
        _nofalsify("stabilize-distance-bound", report.total_distance, report.theorem_bound),
        CheckResult("stabilize-self-modular", report.self_modular_residual <= SELF_MODULAR_TOL,
                    report.self_modular_residual, report.self_modular_residual, SELF_MODULAR_TOL, SELF_MODULAR_TOL),
    ]
    for rec in report.iterates:
        results += [
            _nofalsify(f"stabilize-claim-step-{rec.step}", rec.step_norm, rec.claim_step_bound),
            _nofalsify(f"stabilize-claim-defect-{rec.step}", rec.def_da, rec.claim_defect_bound),
            _nofalsify(f"stabilize-norm-growth-{rec.step}", rec.norm_phi, NORM_GROWTH * config.L),
        ]
    return results


# -- elementary checker batteries -------------------------------------------------


def _guarded(check: str, thunk) -> CheckResult:
    """The row of ``thunk()``, a ``BoundCertificate`` or the (passed, lhs,
    rhs) of an exactly computed left side, or a failed row when the checker
    raises: a valid instance must not be refused."""
    try:
        out = thunk()
    except Exception:
        return CheckResult(check, False, 0, 0, 0, 0)
    if isinstance(out, BoundCertificate):
        return CheckResult(check, out.ok, out.lhs, out.lhs_hi, out.rhs, out.rhs, out.proved)
    passed, lhs, rhs = out
    return CheckResult(check, passed, lhs, lhs, rhs, rhs)


def checker_valid_battery(seed: int) -> list[CheckResult]:
    """One valid seeded instance of each elementary checker."""
    rng = stream(seed, 16)
    results = []
    a = build_full_matrix_algebra(2)

    # dichotomy, large branch: a near-identity map at an idempotent
    gamma = unit_killing_perturbation(a, rng, 1e-4)
    psi = LinearMap(a, a, np.eye(a.dim) + gamma)
    dpsi = defect(psi, restarts=0)
    delta = dpsi.upper * 1.5 + 1e-12
    p = a.basis_element(0)

    def dichotomy_large():
        verdict = norm_dichotomy_check(psi, p, delta)
        return verdict.branch == "large", verdict.value, verdict.threshold_large

    results.append(_guarded("dichotomy-valid", dichotomy_large))

    # dichotomy, small branch: a uniformly small map, halved until its
    # certified defect meets the checker's precondition delta ||p||^2 <= 2/9
    small = LinearMap(a, a, 0.01 * complex_gaussian(rng, (a.dim, a.dim)))
    delta_small = defect(small, restarts=0).upper * 1.5 + 1e-12
    while delta_small * p.norm() ** 2 > 2.0 / 9.0:
        small = LinearMap(a, a, small.matrix / 2)
        delta_small = defect(small, restarts=0).upper * 1.5 + 1e-12

    def dichotomy_small():
        verdict = norm_dichotomy_check(small, p, delta_small)
        return verdict.branch == "small", verdict.value, verdict.threshold_small

    results.append(_guarded("dichotomy-small-branch", dichotomy_small))

    # absorption: a = e11, b = e12, small psi
    tiny = LinearMap(a, a, 0.01 * complex_gaussian(rng, (a.dim, a.dim)))
    eta = defect(tiny, restarts=0).upper * 1.2 + 1e-12
    results.append(_guarded("absorption-valid", lambda: absorption_check(
        tiny, a.basis_element(0), a.basis_element(1), "left", eta)))

    # equivalent projections: u = e12, v = e21
    results.append(_guarded("projection-transfer-valid", lambda: equivalent_projection_check(
        tiny, a.basis_element(1), a.basis_element(2), eta)))

    # small on identity: scalar algebra, psi(a) = eps a
    c1 = build_commutative_algebra(1, norm_mode="frobenius")
    eps = 0.1 + 0.2 * float(rng.uniform())
    scal = LinearMap(c1, c1, np.array([[eps]], dtype=complex))
    eta_s = abs(eps - eps * eps) * (1 + 1e-12) + 1e-15
    results.append(_guarded("small-on-identity-valid", lambda: small_on_identity(scal, eta_s, seed=seed + 4)))

    # orthogonal family scan on a quotient model
    results.append(scan_pipeline_check(seed))
    results.append(scan_separation_check())
    return results


def scan_separation_check() -> CheckResult:
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
        report = orthogonal_family_scan(psi, family, L=1.0, eta=1e-3)
        ok = (report.survivors == [2, 3] and report.large == [0, 1]
              and report.distances_ok and report.count_ok)
        return ok, report.min_distance, report.separation

    return _guarded("scan-separation", scan)


def scan_pipeline_check(seed: int) -> CheckResult:
    """Quotient model, family scan, equivalence transfer, corner smallness.

    The compact part is a direct summand that the quotient drops: the
    quotient of M_4 + M_2 by its M_2 summand is M_4 itself (the library
    object ``summand_quotient`` returns), so the check works in M_4.  The
    corner standing in for the whole space is the upper-left block, whose
    identity is the vu of the shift factorization."""
    rng = stream(seed, 17)
    q_alg = build_full_matrix_algebra(4)

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
    eta = defect(psi, restarts=0).upper * 1.2 + 1e-12
    if eta > threshold:
        return CheckResult("equivalence-pipeline", False, eta, eta, threshold, threshold)

    def pipeline():
        scan = orthogonal_family_scan(psi, blocks, L=1.0, eta=eta)
        if 1 not in scan.survivors:  # index of the u v block
            return False, 0, 0
        equivalent_projection_check(psi, u, v, eta)
        corner = _m4_corner()
        restricted = LinearMap(corner.sub, q_alg, psi.matrix @ corner.matrix)
        return small_on_identity(restricted, eta, seed=seed + 3)

    return _guarded("equivalence-pipeline", pipeline)


def checker_refusal_battery(seed: int) -> list[CheckResult]:
    """Precondition violations must be refused, never silently passed."""
    rng = stream(seed, 18)
    a = build_full_matrix_algebra(2)
    psi = LinearMap(a, a, 0.05 * complex_gaussian(rng, (a.dim, a.dim)))
    eta = defect(psi, restarts=0).upper * 1.2 + 1e-12
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
                   lambda: norm_dichotomy_check(psi, not_idem, eta))
    big_delta = 1.0  # delta ||p||^2 = 1 > 2/9
    expect_refusal("refuse-dichotomy-range",
                   lambda: norm_dichotomy_check(psi, a.basis_element(0), big_delta))
    expect_refusal("refuse-absorption-identity",
                   lambda: absorption_check(psi, a.basis_element(1), a.basis_element(0), "left", eta))
    huge = LinearMap(a, a, np.eye(a.dim) * 3.0)
    expect_refusal("refuse-absorption-large-image",
                   lambda: absorption_check(huge, a.unit(), a.basis_element(1), "left", 100.0))
    expect_refusal("refuse-projection-range",
                   lambda: equivalent_projection_check(psi, 2.0 * a.basis_element(1), 2.0 * a.basis_element(2), 0.2))
    expect_refusal("refuse-small-identity-large",
                   lambda: small_on_identity(huge, 100.0, seed=seed))
    overlapping = [a.basis_element(0), a.element([1, 0, 0, 1])]
    expect_refusal("refuse-non-orthogonal-family",
                   lambda: orthogonal_family_scan(psi, overlapping, L=2.0, eta=eta))
    expect_refusal("refuse-eta-not-certified",
                   lambda: absorption_check(huge, a.basis_element(0), a.basis_element(1), "left", 1e-9))
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
    fam = CloneFamily(word_bits, 10)
    closed = all(clone_family_closed_form(word_bits, n) == fam.terms[n - 1] for n in range(1, 11))
    try:
        interval_schreier_report(fam, 64)
        gaps_ok = True
    except Exception:
        gaps_ok = False
    results.append(CheckResult("clone-family-recursion", closed and gaps_ok, 0, 0, 0, 0))

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


EXACT_CHECKS = (
    check_two_cocycle, check_linearization, check_unitize_tensors,
    check_splitting_v1, check_average_unit_vanish, check_preserved_by_improvement,
    check_diagonal_residuals, check_decompose_equality,
)
# the no-falsification checks with a searched estimate, over all seeds at once
# (``check_improving_bounds`` too, with three rows per seed)
SEARCHED_CHECKS = (
    check_perturbed_defect, check_relative_perturbed, check_averaging_bound, check_left_modular, check_splitting_v2,
)


def suite_rows(cfg) -> list[dict]:
    """Every row of the suite for a run configuration, sorted by id.

    Instance i of each block has its own seed: ``cfg.seed + i`` for the
    exact identities, plus 3000 for the no-falsification checks, 6000 for
    the stabilize runs and 9000 for the checker batteries.  Each check with
    a searched estimate runs once over all instances, its estimates stacked.
    """
    mode = cfg.norm_mode
    n = cfg.instances
    stabilize_config = replace(cfg.stabilize, restarts=min(cfg.stabilize.restarts, 16),
                               sweeps=min(cfg.stabilize.sweeps, 120))
    rows = []
    for i in range(n):
        seed = cfg.seed + i
        rows += [fn(mode, seed).row(f"exact-{i:04d}-{fn.__name__}", seed) for fn in EXACT_CHECKS]
        seed = cfg.seed + 3000 + i
        rows.append(check_coboundary_composition(mode, seed).row(
            f"nofalsify-{i:04d}-check_coboundary_composition", seed))
    seeds = [cfg.seed + 3000 + i for i in range(n)]
    for fn in SEARCHED_CHECKS:
        results = fn(mode, seeds)
        rows += [r.row(f"nofalsify-{i:04d}-{fn.__name__}", seed) for i, (seed, r) in enumerate(zip(seeds, results))]
    for i, (seed, results) in enumerate(zip(seeds, check_improving_bounds(mode, seeds))):
        rows += [r.row(f"nofalsify-{i:04d}-improving-{j}", seed) for j, r in enumerate(results)]
    for i in range(max(1, n // 4)):
        seed = cfg.seed + 6000 + i
        checks = run_stabilize_checks(mode, seed, cfg.gamma_norm, stabilize_config)
        rows += [r.row(f"stabilize-{i:04d}-{j:02d}", seed) for j, r in enumerate(checks)]
    for i in range(max(1, n // 2)):
        seed = cfg.seed + 9000 + i
        rows += [r.row(f"checkers-{i:04d}-{j:02d}", seed) for j, r in enumerate(checker_valid_battery(seed))]
        rows += [r.row(f"refusals-{i:04d}-{j:02d}", seed) for j, r in enumerate(checker_refusal_battery(seed))]
    rows.append(dichotomy_grid_check().row("dichotomy-grid-0000", cfg.seed))
    rows += [r.row(f"tsirelson-0000-{j:02d}", cfg.seed) for j, r in enumerate(tsirelson_battery(cfg.seed))]
    rows.sort(key=lambda r: r["id"])
    return rows

