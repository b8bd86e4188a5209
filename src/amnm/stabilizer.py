"""The improving operator and the stabilization iteration.

``improve`` sends a unit-preserving map phi to phi + split(phi, defect
cochain of phi); one application shrinks the left-restricted defect
quadratically while preserving unit values and exact right-modularity.

``stabilize`` iterates ``improve`` until the left-restricted defect's
certified upper bound passes the tolerance, so convergence is certified,
applies the mirrored operator ``improve_right`` once to kill the
right-restricted defect, and records per-step certificate comparisons:

    step n:     ||F^n - F^{n-1}||  vs  K L delta0 2^{-(n-1)}
    defect n:   defDA(F^n)         vs  3 delta0 2^{-2n-1}
    norms:      ||F^n||            vs  5L/4
    total:      ||final - input||  vs  12 K^2 L^3 delta0

with delta0 the max of the two one-sided defect upper estimates at the
input.  The bounds need only delta0, so each left side is estimated with
its bound's limit as the estimate's claim, and the verdicts are read from
the estimate: a claim is *satisfied* when the certified lower meets the
limit (no falsification), and *proved* when the certified upper does.  An
estimate whose upper proves its claim runs only the cheap stage of the
witness search (``normest.estimate_tensor_norm``); each iterate's ``def_dd``
has no claim and ends there once its upper is within its factor F of its lower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, Embedding, opposite, unitize
from .diagonal import DiagonalCert, split, verify_diagonal
from .errors import ConfigError, DomainError, FalsificationError, PreconditionError
from .multilinear import DefectEstimate, LinearMap, defect, defect_cochain, linear_map_norm
from .normest import DEFAULT_RESTARTS, DEFAULT_SWEEPS, claim_limit

UNIT_PRESERVE_TOL = 1e-9
SELF_MODULAR_TOL = 1e-8
NORM_GROWTH = 1.25
IDEAL_TOL = 1e-9


# A run makes 3 + 4 * max_iter + 1 estimates; at 63 iterations they fill
# the 256 seed slots of SeedCounter without reaching the next seed's.
MAX_ITER_CAP = 63
# theorem_bound is 12 K^2 L^3 delta0 in Python floats: L**3 overflows past
# about 5.6e102, and at 1e100 the bound stays finite for K^2 delta0 < 1e7.
L_CAP = 1e100
# the columns of a run's iterates.csv, in order
CSV_COLUMNS = (
    "iter", "step_norm_lo", "step_norm_hi", "def_da_lo", "def_da_hi", "claim_step", "claim_defect",
)


@dataclass
class StabilizeConfig:
    """Settings of the stabilization iteration, with their defaults and
    range checks.

    ``L`` is the declared norm bound of the input map, ``tol`` the target for
    the left-restricted defect's upper estimate, ``check_claim_bounds``
    switches the certificate comparisons (and their preconditions) on.
    """

    tol: float = 1e-8
    max_iter: int = 30
    L: float = 2.0
    seed: int = 0
    check_claim_bounds: bool = True
    restarts: int = DEFAULT_RESTARTS
    sweeps: int = DEFAULT_SWEEPS

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ConfigError("tol must be positive and finite")
        if not 1 <= self.max_iter <= MAX_ITER_CAP:
            raise ConfigError(f"max_iter must lie in [1, {MAX_ITER_CAP}]")
        if not 1 <= self.L <= L_CAP:
            raise ConfigError(f"declared norm bound L must lie in [1, {L_CAP:g}]")
        if not (1 <= self.restarts <= 4096) or not (1 <= self.sweeps <= 100000):
            raise ConfigError("restart/sweep budgets out of range")


@dataclass
class IterateRecord:
    step: int
    step_norm: DefectEstimate
    def_da: DefectEstimate
    def_dd: DefectEstimate
    norm_phi: DefectEstimate
    claim_step_bound: float
    claim_defect_bound: float

    @property
    def claimed(self) -> dict[str, DefectEstimate]:
        """The estimates that carry the iterate's claims, by claim name."""
        return {"step": self.step_norm, "defect": self.def_da, "norm": self.norm_phi}

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "step_norm": {"lower": self.step_norm.lower, "upper": self.step_norm.upper},
            "def_da": {"lower": self.def_da.lower, "upper": self.def_da.upper},
            "def_dd": {"lower": self.def_dd.lower, "upper": self.def_dd.upper},
            "norm_phi": {"lower": self.norm_phi.lower, "upper": self.norm_phi.upper},
            "claim_step_bound": self.claim_step_bound,
            "claim_defect_bound": self.claim_defect_bound,
            "satisfied": {name: est.passed for name, est in self.claimed.items()},
            "proved": {name: est.proved for name, est in self.claimed.items()},
        }


@dataclass
class StabilizeReport:
    iterates: list[IterateRecord]
    final_map: LinearMap
    total_distance: DefectEstimate
    theorem_bound: float
    delta0: float
    K: float
    L: float
    converged: bool
    self_modular_residual: float
    notes: list[str] = field(default_factory=list)

    @property
    def all_claims_ok(self) -> bool:
        claims = [est for r in self.iterates for est in r.claimed.values()] + [self.total_distance]
        return all(est.passed for est in claims)

    def to_json_dict(self) -> dict:
        return {
            "iterates": [r.to_json_dict() for r in self.iterates],
            "final_distance": {
                "lower": self.total_distance.lower,
                "upper": self.total_distance.upper,
                "proved": self.total_distance.proved,
            },
            "theorem_bound": self.theorem_bound,
            "delta0": self.delta0,
            "K": self.K,
            "L": self.L,
            "converged": self.converged,
            "switch_applied": self.converged,  # the right-sided pass runs once converged
            "claims_satisfied": self.all_claims_ok,
            "self_modular_residual": self.self_modular_residual,
            "notes": list(self.notes),
        }

    def csv_rows(self) -> list[dict]:
        """One row per iterate, keyed by ``CSV_COLUMNS``."""
        return [
            dict(zip(CSV_COLUMNS, (
                r.step, r.step_norm.lower, r.step_norm.upper, r.def_da.lower, r.def_da.upper,
                r.claim_step_bound, r.claim_defect_bound,
            )))
            for r in self.iterates
        ]


def _require_unit_preserving(phi: LinearMap, emb: Embedding) -> None:
    if not phi.preserves_unit(emb, UNIT_PRESERVE_TOL):
        raise PreconditionError("map does not send the subalgebra unit to the target unit")


def improve(phi: LinearMap, emb: Embedding, cert: DiagonalCert) -> LinearMap:
    """One application of the improving operator: phi + split of its defect."""
    _require_unit_preserving(phi, emb)
    correction = split(phi, emb, cert, defect_cochain(phi))
    return LinearMap(phi.source, phi.target, phi.matrix + correction.tensor)


def improve_right(phi: LinearMap, emb: Embedding, cert: DiagonalCert) -> LinearMap:
    """The mirrored improving operator: phi + sum_k D_phi(., c_k) phi(d_k).

    It is ``improve`` on the opposite algebras, with the same matrix, the
    embedding re-parented and the flipped diagonal re-verified there; the
    improved matrix is copied back.  It refuses what ``improve`` refuses: a
    map that does not preserve the unit and an unverified diagonal, on
    either side.
    """
    if not cert.valid:
        raise PreconditionError("refusing to split against an unverified diagonal")
    d_op = opposite(emb.sub)
    emb_op = Embedding(d_op, opposite(emb.parent), emb.matrix)
    cert_op = verify_diagonal(d_op, cert.rep.flip(d_op))
    mirrored = LinearMap(opposite(phi.source), opposite(phi.target), phi.matrix)
    return LinearMap(phi.source, phi.target, improve(mirrored, emb_op, cert_op).matrix)


def modular_residuals(chain: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """Max basis-pair residuals of the defect tensor ``chain`` with its first
    and with its second argument in the subalgebra spanned by the columns of
    ``q``: phi(x a) - phi(x) phi(a) and phi(a x) - phi(a) phi(x) for x in D.
    Both are 0 for the zero subalgebra."""
    if not q.size:
        return 0.0, 0.0
    left = np.tensordot(chain, q, axes=(1, 0))
    right = np.tensordot(chain, q, axes=(2, 0))
    return float(np.abs(left).max()), float(np.abs(right).max())


def stabilize(
    phi: LinearMap, emb: Embedding, cert: DiagonalCert, config: StabilizeConfig
) -> StabilizeReport:
    """Iterate the improving operator, then improve once from the right.

    Stops when the left-restricted defect's upper estimate passes
    ``config.tol`` (or at ``max_iter``, flagged non-converged).  With
    ``check_claim_bounds`` the combined-constant precondition
    K^2 L^2 delta0 <= 1/8 is enforced up front and every recorded
    certificate comparison is required.
    """
    _require_unit_preserving(phi, emb)
    if not cert.valid:
        raise PreconditionError("diagonal certificate is not valid")
    k_const = cert.K
    L = config.L
    counter = SeedCounter(config.seed)
    notes = [
        "amenability constant uses the representation bound; theorem_bound is an upper envelope",
    ]

    budget = {"restarts": config.restarts, "sweeps": config.sweeps}
    # delta0 reads only the uppers of the input's one-sided defects, which
    # take no seed; their two seed slots stay reserved, so later ones keep theirs
    seeds = [counter.next() for _ in range(3)]
    dda = defect(phi, left=emb, restarts=0)
    dad = defect(phi, right=emb, restarts=0)
    delta0 = max(dda.upper, dad.upper)

    frobenius_mode = phi.source.norm_mode == "frobenius" or phi.target.norm_mode == "frobenius"
    if frobenius_mode:
        notes.append("norm_ge_one_may_fail: frobenius-mode run; bounds relying on ||phi|| >= 1 are reported, not asserted")

    if config.check_claim_bounds:
        norm0 = linear_map_norm(phi, seed=seeds[2], claim=L * (1 + 1e-9), **budget)
        if not norm0.passed:
            raise PreconditionError(
                f"precondition violated: certified ||phi|| lower {norm0.lower} exceeds declared L={L}"
            )
        if k_const**2 * L**2 * delta0 > 0.125 * (1 + 1e-12):
            raise PreconditionError(
                f"precondition violated: K^2 L^2 delta0 = {k_const**2 * L**2 * delta0} > 1/8"
            )

    norm_limit = NORM_GROWTH * L * (1 + 1e-9)
    iterates: list[IterateRecord] = []
    current = phi
    converged = dda.upper <= config.tol
    n = 0
    while not converged and n < config.max_iter:
        n += 1
        claim_step = k_const * L * delta0 * 2.0 ** (-(n - 1))
        claim_defect = 3.0 * delta0 * 2.0 ** (-2 * n - 1)
        improved = improve(current, emb, cert)
        seeds = [counter.next() for _ in range(4)]
        step = linear_map_norm(improved - current, seed=seeds[0], claim=claim_limit(claim_step), **budget)
        dda = defect(improved, left=emb, seed=seeds[1], claim=claim_limit(claim_defect), **budget)
        ddd = defect(improved, left=emb, right=emb, seed=seeds[2], **budget)
        norm_n = linear_map_norm(improved, seed=seeds[3], claim=norm_limit, **budget)
        iterates.append(IterateRecord(n, step, dda, ddd, norm_n, claim_step, claim_defect))
        current = improved
        converged = dda.upper <= config.tol

    # right-sided pass: one mirrored improvement kills the right-restricted
    # defect because the both-restricted defect is already below tolerance
    if converged:
        current = improve_right(current, emb, cert)

    theorem_bound = 12.0 * k_const**2 * L**3 * delta0
    total = linear_map_norm(current - phi, seed=counter.next(), claim=claim_limit(theorem_bound), **budget)
    if config.check_claim_bounds and converged and not frobenius_mode and not total.passed:
        raise FalsificationError(f"total distance lower {total.lower} exceeds 12 K^2 L^3 delta0 = {theorem_bound}")

    self_mod = max(modular_residuals(defect_cochain(current).tensor, emb.matrix))
    return StabilizeReport(
        iterates,
        current,
        total,
        theorem_bound,
        delta0,
        k_const,
        L,
        converged,
        self_mod,
        notes,
    )


class SeedCounter:
    """The seed slots of a run: estimate n draws ``(seed << 8) + n``.

    A run owns the 256 slots below the next seed's first, so runs at
    neighbouring seeds share no stream; ``stabilize`` stays within them by
    MAX_ITER_CAP, ``defect`` takes five.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._n = 0

    def next(self) -> int:
        self._n += 1
        return (self.seed << 8) + self._n


def unitize_map(psi: LinearMap) -> LinearMap:
    """Extend psi: A -> B to the unitization, (lambda, a) -> lambda 1_B + psi(a)."""
    if not psi.target.is_unital:
        raise DomainError("target must be unital to extend over the adjoined unit")
    source_u = unitize(psi.source)
    matrix = np.zeros((psi.target.dim, source_u.dim), dtype=complex)
    matrix[:, 0] = psi.target.unit_coords
    matrix[:, 1:] = psi.matrix
    return LinearMap(source_u, psi.target, matrix)


def unitized_embedding(emb: Embedding, parent_u: Algebra, sub_u: Algebra) -> Embedding:
    """Embedding of the unitized subalgebra into the unitized parent."""
    matrix = np.zeros((parent_u.dim, sub_u.dim), dtype=complex)
    matrix[0, 0] = 1.0
    matrix[1:, 1:] = emb.matrix
    return Embedding(sub_u, parent_u, matrix)


def stabilize_via_unitization(
    psi: LinearMap, emb0: Embedding, config: StabilizeConfig
) -> tuple[StabilizeReport, LinearMap]:
    """Route a map with no unit constraint through the forced unitization.

    The source and the subalgebra both get a unit adjoined, the library
    diagonal is extended by the direct-sum-with-scalars construction and
    re-verified, and the ordinary iteration runs on the extension.  Returns
    the report together with the restriction of the final map to the
    original source, which is self-modular over the original subalgebra.
    """
    from .diagonal import library_diagonal

    a_u = unitize(psi.source)
    d_u = unitize(emb0.sub)
    emb_u = unitized_embedding(emb0, a_u, d_u)
    psi_u = unitize_map(psi)
    cert_u = library_diagonal(d_u)
    report = stabilize(psi_u, emb_u, cert_u, config)
    restricted = LinearMap(psi.source, psi.target, report.final_map.matrix[:, 1:])
    return report, restricted


@dataclass
class IdealData:
    """A two-sided ideal with its local identity.

    ``emb`` embeds the ideal J into the ambient algebra; ``e_coords`` (in
    ambient coordinates) acts as a two-sided identity on J, the
    finite-dimensional stand-in for a bounded approximate identity, with
    bound M = ||e||.
    """

    emb: Embedding
    e_coords: np.ndarray

    def __post_init__(self):
        self.e_coords = np.asarray(self.e_coords, dtype=complex)
        parent, q = self.emb.parent, self.emb.matrix
        c = parent.structure
        # prods[:, :, j] = e_i x and then x e_i over the basis e_i, x = column j of q
        prods = np.concatenate([np.swapaxes(c, 1, 2) @ q, np.transpose(c, (1, 2, 0)) @ q])
        resid = np.linalg.norm(prods - q @ q.conj().T @ prods, axis=1)
        if np.any(resid > IDEAL_TOL * np.maximum(1.0, np.linalg.norm(prods, axis=1))):
            raise PreconditionError("subalgebra is not a two-sided ideal")
        sides = np.stack([parent.left_mult_matrix(self.e_coords), parent.right_mult_matrix(self.e_coords)])
        if np.any(np.abs(sides @ q - q) > IDEAL_TOL):
            raise PreconditionError("e is not a two-sided identity on the ideal")

    @property
    def bound(self) -> float:
        return self.emb.parent.element_norm(self.e_coords)


@dataclass
class DecomposeCert:
    multiplicative_residual: float
    vanishes_on_ideal: float
    defect_tensor_residual: float
    ok: bool


def decompose_over_ideal(theta: LinearMap, ideal: IdealData) -> tuple[LinearMap, LinearMap, DecomposeCert]:
    """Split a J-self-modular map as (homomorphism) + (part vanishing on J).

    With p = theta(e), the pieces are phi(a) = p theta(a) and
    theta_s = theta - phi.  The certificate checks that phi is multiplicative
    on all basis pairs, theta_s vanishes on J, and the defect cochains of
    theta_s and theta agree as tensors.
    """
    parent = theta.source
    if ideal.emb.parent is not parent:
        raise DomainError("ideal does not live in the map's source")
    q = ideal.emb.matrix
    scale = max(1.0, float(np.abs(theta.matrix).max()) ** 2)

    def _maxabs(arr):
        return float(np.abs(arr).max()) if arr.size else 0.0

    # self-modularity over J on basis pairs
    chain = defect_cochain(theta)
    resid = max(modular_residuals(chain.tensor, q))
    if resid > IDEAL_TOL * scale:
        worst = np.unravel_index(
            np.abs(chain.tensor).argmax(), chain.tensor.shape
        )
        raise PreconditionError(
            f"map is not self-modular over the ideal; worst basis pair {worst[1:]} "
            f"residual {resid:.3e}"
        )
    b = theta.target
    p = theta.apply(ideal.e_coords)
    left_p = b.left_mult_matrix(p)
    phi = LinearMap(parent, b, left_p @ theta.matrix)
    theta_s = theta - phi

    phi_chain = defect_cochain(phi)
    mult_resid = _maxabs(phi_chain.tensor)
    vanish = _maxabs(theta_s.matrix @ q)
    tensor_resid = _maxabs(defect_cochain(theta_s).tensor - chain.tensor)
    ok = (
        mult_resid <= IDEAL_TOL * scale
        and vanish <= IDEAL_TOL * scale
        and tensor_resid <= IDEAL_TOL * scale
    )
    return phi, theta_s, DecomposeCert(mult_resid, vanish, tensor_resid, bool(ok))
