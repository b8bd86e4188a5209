"""The improving operator and the stabilization iteration.

``improve`` sends a unit-preserving map phi to phi + split(phi, defect
cochain of phi); one application shrinks the left-restricted defect
quadratically while preserving unit values and exact right-modularity.

``stabilize`` iterates ``improve`` until the left-restricted defect's
certified lower bound passes the tolerance, applies the mirrored operator
``improve_right`` once to kill the right-restricted defect, and records
per-step certificate comparisons:

    step n:     ||F^n - F^{n-1}||_lower  vs  K L delta0 2^{-(n-1)}
    defect n:   defDA(F^n)_lower        vs  3 delta0 2^{-2n-1}
    norms:      ||F^n||_lower           vs  5L/4
    total:      ||final - input||_lower vs  12 K^2 L^3 delta0

with delta0 the max of the two one-sided defect upper estimates at the
input.  All comparisons are no-falsification: certified lower of the left
side against the stated bound built from certified uppers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .algebra import Algebra, Embedding, unitize
from .diagonal import DiagonalCert, split
from .errors import ConfigError, DomainError, FalsificationError, PreconditionError
from .multilinear import DefectEstimate, LinearMap, defect, defect_cochain, linear_map_norm
from .normest import DEFAULT_RESTARTS, DEFAULT_SWEEPS
from .parallel import run_all

UNIT_PRESERVE_TOL = 1e-9
SELF_MODULAR_TOL = 1e-8
NORM_GROWTH = 1.25
IDEAL_TOL = 1e-9


# A run makes 3 + 4 * max_iter + 1 estimates; at 63 iterations they fill
# the 256 seed slots of _SeedCounter without reaching the next seed's.
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
    the left-restricted defect's lower estimate, ``check_claim_bounds``
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
    step_ok: bool
    defect_ok: bool
    norm_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "step_norm": {"lower": self.step_norm.lower, "upper": self.step_norm.upper},
            "def_da": {"lower": self.def_da.lower, "upper": self.def_da.upper},
            "def_dd": {"lower": self.def_dd.lower, "upper": self.def_dd.upper},
            "norm_phi": {"lower": self.norm_phi.lower, "upper": self.norm_phi.upper},
            "claim_step_bound": self.claim_step_bound,
            "claim_defect_bound": self.claim_defect_bound,
            "satisfied": {"step": self.step_ok, "defect": self.defect_ok, "norm": self.norm_ok},
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
    distance_ok: bool
    self_modular_residual: float
    notes: list[str] = field(default_factory=list)

    @property
    def all_claims_ok(self) -> bool:
        return all(r.step_ok and r.defect_ok and r.norm_ok for r in self.iterates) and self.distance_ok

    def to_json_dict(self) -> dict:
        return {
            "iterates": [r.to_json_dict() for r in self.iterates],
            "final_distance": {"lower": self.total_distance.lower, "upper": self.total_distance.upper},
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
    """The mirrored improving operator: phi + sum_k D_phi(., c_k) phi(d_k),
    which is ``improve`` on the opposite algebras with the flipped diagonal.
    """
    _require_unit_preserving(phi, emb)
    if not cert.valid:
        raise PreconditionError("refusing to split against an unverified diagonal")
    chain = defect_cochain(phi).tensor
    correction = np.zeros_like(phi.matrix)
    for c, d in cert.rep.pairs:
        phi_d = phi.apply(emb.embed_coords(d))
        chain_c = np.tensordot(chain, emb.embed_coords(c), axes=(2, 0))
        correction += np.einsum("pqt,pR,q->tR", phi.target.structure, chain_c, phi_d)
    return LinearMap(phi.source, phi.target, phi.matrix + correction)


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

    Stops when the left-restricted defect's lower estimate passes
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
    counter = _SeedCounter(config.seed)
    notes = [
        "amenability constant uses the representation bound; theorem_bound is an upper envelope",
    ]

    # Each round of estimates runs in parallel (run_all).  A map's defect
    # cochain is built before its round, so that helpers inherit it.  The
    # norm of a near-identity map is the longest estimate (it runs to the
    # sweep cap), so it goes first; the seeds keep the order of the report.
    budget = {"restarts": config.restarts, "sweeps": config.sweeps}
    defect_cochain(phi)
    seeds = [counter.next() for _ in range(3)]
    norm0, dda0, dad0 = run_all([
        partial(linear_map_norm, phi, seed=seeds[2], **budget),
        partial(defect, phi, left=emb, seed=seeds[0], **budget),
        partial(defect, phi, right=emb, seed=seeds[1], **budget),
    ])
    delta0 = max(dda0.upper, dad0.upper)

    frobenius_mode = phi.source.norm_mode == "frobenius" or phi.target.norm_mode == "frobenius"
    if frobenius_mode:
        notes.append("norm_ge_one_may_fail: frobenius-mode run; bounds relying on ||phi|| >= 1 are reported, not asserted")

    if config.check_claim_bounds:
        if norm0.lower > L * (1 + 1e-9):
            raise PreconditionError(
                f"precondition violated: certified ||phi|| lower {norm0.lower} exceeds declared L={L}"
            )
        if k_const**2 * L**2 * delta0 > 0.125 * (1 + 1e-12):
            raise PreconditionError(
                f"precondition violated: K^2 L^2 delta0 = {k_const**2 * L**2 * delta0} > 1/8"
            )

    iterates: list[IterateRecord] = []
    current = phi
    dda = dda0
    converged = dda.lower <= config.tol
    n = 0
    while not converged and n < config.max_iter:
        n += 1
        improved = improve(current, emb, cert)
        defect_cochain(improved)
        seeds = [counter.next() for _ in range(4)]
        norm_n, step, dda, ddd = run_all([
            partial(linear_map_norm, improved, seed=seeds[3], **budget),
            partial(linear_map_norm, improved - current, seed=seeds[0], **budget),
            partial(defect, improved, left=emb, seed=seeds[1], **budget),
            partial(defect, improved, left=emb, right=emb, seed=seeds[2], **budget),
        ])
        claim_step = k_const * L * delta0 * 2.0 ** (-(n - 1))
        claim_defect = 3.0 * delta0 * 2.0 ** (-2 * n - 1)
        rec = IterateRecord(
            n,
            step,
            dda,
            ddd,
            norm_n,
            claim_step,
            claim_defect,
            step_ok=bool(step.lower <= claim_step * (1 + 1e-9) + 1e-15),
            defect_ok=bool(dda.lower <= claim_defect * (1 + 1e-9) + 1e-15),
            norm_ok=bool(norm_n.lower <= NORM_GROWTH * L * (1 + 1e-9)),
        )
        iterates.append(rec)
        current = improved
        converged = dda.lower <= config.tol

    # right-sided pass: one mirrored improvement kills the right-restricted
    # defect because the both-restricted defect is already below tolerance
    if converged:
        current = improve_right(current, emb, cert)

    total = linear_map_norm(current - phi, config.restarts, config.sweeps, seed=counter.next())
    theorem_bound = 12.0 * k_const**2 * L**3 * delta0
    distance_ok = bool(total.lower <= theorem_bound * (1 + 1e-9) + 1e-15)
    if config.check_claim_bounds and converged and not frobenius_mode:
        if not distance_ok:
            raise FalsificationError(
                f"total distance lower {total.lower} exceeds 12 K^2 L^3 delta0 = {theorem_bound}"
            )

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
        distance_ok,
        self_mod,
        notes,
    )


class _SeedCounter:
    # estimate n of a run takes seed slot n of 256; MAX_ITER_CAP keeps n <= 256
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
