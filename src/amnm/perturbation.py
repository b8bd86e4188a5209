"""Checkers for the elementary quantitative lemmas.

Each checker certifies its preconditions (refusing, not warning, when they
cannot be certified) and then asserts the conclusion against certified
estimates: eta always enters as an upper bound on the defect, conclusions
are compared against certified lower estimates of their left sides.  The
premise reads an upper-only defect estimate, which draws nothing, so only
``small_on_identity``, whose conclusion is a searched norm estimate, takes a
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Element, Embedding, generated_subalgebra
from .errors import DomainError, FalsificationError, PreconditionError
from .multilinear import DefectEstimate, LinearMap, defect, linear_map_norm

IDEMPOTENT_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-9


def dichotomy_roots(c: float) -> tuple[float, float, float]:
    """Crossing points of u and u^2 + c, with the 3c/2 envelope.

    For 0 <= c <= 2/9 the roots are u1 = (1 - sqrt(1-4c))/2 and u2 = 1 - u1;
    any x with x <= x^2 + c lies in [0, u1] or [u2, inf), and u1 <= 3c/2 <= 1/3.
    """
    if not 0.0 <= c <= 2.0 / 9.0 + 1e-15:
        raise DomainError("constant must lie in [0, 2/9]")
    c = min(c, 2.0 / 9.0)
    u1 = 0.5 * (1.0 - math.sqrt(1.0 - 4.0 * c))
    u2 = 1.0 - u1
    bound = 1.5 * c
    if u1 > bound + 1e-12 or bound > 1.0 / 3.0 + 1e-12:
        raise FalsificationError(f"root {u1} escaped its envelope {bound}")
    return u1, u2, bound


@dataclass
class DichotomyVerdict:
    value: float
    branch: str  # "small" | "large"
    threshold_small: float
    threshold_large: float


def _certify_defect_at_most(psi: LinearMap, eta: float) -> DefectEstimate:
    # the premise consumes only the upper bound, which needs no witness search
    est = defect(psi, restarts=0)
    if est.upper > eta * (1 + 1e-12) + 1e-15:
        raise PreconditionError(
            f"cannot certify eta-multiplicativity: defect upper {est.upper} > eta {eta}"
        )
    return est


def _require_idempotent(p: Element, label: str = "p") -> None:
    resid = (p * p - p).norm()
    if resid > IDEMPOTENT_TOL * max(1.0, p.norm() ** 2):
        raise PreconditionError(f"{label} is not idempotent: residual {resid:.3e}")


def norm_dichotomy_check(psi: LinearMap, p: Element, delta: float) -> DichotomyVerdict:
    """||psi(p)|| avoids the middle band (3/2)||p||^2 delta .. 1 - same.

    Requires p idempotent, delta ||p||^2 <= 2/9, and a certified defect
    upper bound <= delta.  A value inside the forbidden band would falsify
    the dichotomy and raises.
    """
    if p.parent is not psi.source:
        raise DomainError("idempotent lives in a different algebra")
    _require_idempotent(p)
    pnorm = p.norm()
    if delta * pnorm**2 > 2.0 / 9.0 + 1e-15:
        raise PreconditionError(f"delta ||p||^2 = {delta * pnorm ** 2} exceeds 2/9")
    _certify_defect_at_most(psi, delta)
    value = psi.target.element_norm(psi.apply(p.coords))
    t_small = 1.5 * pnorm**2 * delta
    t_large = 1.0 - t_small
    if value <= t_small + 1e-12:
        branch = "small"
    elif value >= t_large - 1e-12:
        branch = "large"
    else:
        raise FalsificationError(
            f"dichotomy falsified: ||psi(p)|| = {value} inside ({t_small}, {t_large})"
        )
    return DichotomyVerdict(value, branch, t_small, t_large)


@dataclass
class BoundCertificate:
    """``ok``: the bound is not falsified; ``proved``: a certified upper of
    the left side, ``lhs_hi``, meets it.  When ``lhs`` is computed exactly,
    ``lhs_hi`` is ``lhs`` and ``proved`` is ``ok``."""

    lhs: float
    rhs: float
    ok: bool
    proved: bool | None = None
    lhs_hi: float | None = None

    def __post_init__(self):
        if self.proved is None:
            self.proved = self.ok
        if self.lhs_hi is None:
            self.lhs_hi = self.lhs


def absorption_check(
    psi: LinearMap, a: Element, b: Element, side: str = "left", eta: float = 0.0
) -> BoundCertificate:
    """From ab = b (left) or ba = b (right) and ||psi(a)|| <= 1/3, conclude
    ||psi(b)|| <= (3/2) eta ||a|| ||b||."""
    if side not in ("left", "right"):
        raise DomainError("side must be 'left' or 'right'")
    prod = a * b if side == "left" else b * a
    resid = (prod - b).norm()
    if resid > ORTHOGONALITY_TOL * max(1.0, a.norm() * b.norm()):
        raise PreconditionError(f"absorption identity fails: residual {resid:.3e}")
    psi_a = psi.target.element_norm(psi.apply(a.coords))
    if psi_a > 1.0 / 3.0 + 1e-12:
        raise PreconditionError(f"||psi(a)|| = {psi_a} exceeds 1/3")
    _certify_defect_at_most(psi, eta)
    lhs = psi.target.element_norm(psi.apply(b.coords))
    rhs = 1.5 * eta * a.norm() * b.norm()
    ok = lhs <= rhs * (1 + 1e-9) + 1e-12
    if not ok:
        raise FalsificationError(f"absorption bound falsified: {lhs} > {rhs}")
    return BoundCertificate(lhs, rhs, ok)


def equivalent_projection_check(psi: LinearMap, u: Element, v: Element, eta: float) -> BoundCertificate:
    """Transfer smallness between the two products of a factorized pair:
    if uv and vu are idempotent, eta ||u||^3 ||v||^3 <= 2/9 and
    ||psi(uv)|| <= 1/3, then ||psi(vu)|| <= 1/3."""
    uv, vu = u * v, v * u
    _require_idempotent(uv, "uv")
    _require_idempotent(vu, "vu")
    combo = eta * u.norm() ** 3 * v.norm() ** 3
    if combo > 2.0 / 9.0 + 1e-15:
        raise PreconditionError(f"eta ||u||^3 ||v||^3 = {combo} exceeds 2/9")
    _certify_defect_at_most(psi, eta)
    psi_uv = psi.target.element_norm(psi.apply(uv.coords))
    if psi_uv > 1.0 / 3.0 + 1e-12:
        raise PreconditionError(f"||psi(uv)|| = {psi_uv} exceeds 1/3")
    lhs = psi.target.element_norm(psi.apply(vu.coords))
    ok = lhs <= 1.0 / 3.0 + 1e-9
    if not ok:
        raise FalsificationError(f"projection transfer falsified: ||psi(vu)|| = {lhs} > 1/3")
    return BoundCertificate(lhs, 1.0 / 3.0, ok)


def small_on_identity(psi: LinearMap, eta: float, seed: int = 0) -> BoundCertificate:
    """||psi(1)|| <= 1/3 forces the whole map small: ||psi|| <= 3 eta / 2."""
    if not psi.source.is_unital:
        raise PreconditionError("source algebra has no unit")
    psi_one = psi.target.element_norm(psi.apply(psi.source.unit_coords))
    if psi_one > 1.0 / 3.0 + 1e-12:
        raise PreconditionError(f"||psi(1)|| = {psi_one} exceeds 1/3")
    _certify_defect_at_most(psi, eta)
    rhs = 1.5 * eta
    claim = rhs * (1 + 1e-9) + 1e-12
    norm_est = linear_map_norm(psi, restarts=6, sweeps=40, seed=seed + 1, claim=claim)
    if not norm_est.passed:
        raise FalsificationError(f"small-norm bound falsified: {norm_est.lower} > {rhs}")
    return BoundCertificate(norm_est.lower, rhs, norm_est.passed, norm_est.proved, norm_est.upper)


@dataclass
class ScanReport:
    survivors: list[int]
    large: list[int]
    threshold: float
    separation: float
    min_distance: float
    packing_bound: float
    count_ok: bool
    distances_ok: bool


def orthogonal_family_scan(psi: LinearMap, family: list[Element], L: float, eta: float) -> ScanReport:
    """Scan a pairwise orthogonal idempotent family for small images.

    Returns the indices with ||psi(p)|| <= 2 eta L^2 and re-runs the
    separation argument at finite scale on the rest: unit vectors y_p are
    built from the model-space realization, their pairwise distances must
    reach (c - 2 eta L^2)/||psi(p)||, and the count of the large set must
    respect a volume packing bound of the model space.
    """
    target = psi.target
    if target.realization is None:
        raise PreconditionError("target needs a model-space realization")
    for idx, p in enumerate(family):
        _require_idempotent(p, f"family[{idx}]")
        if p.norm() > L * (1 + 1e-12):
            raise PreconditionError(f"||family[{idx}]|| exceeds the declared bound L")
        for jdx in range(idx + 1, len(family)):
            q = family[jdx]
            if max((p * q).norm(), (q * p).norm()) > ORTHOGONALITY_TOL * max(1.0, L * L):
                raise PreconditionError(f"family members {idx}, {jdx} are not orthogonal")
    _certify_defect_at_most(psi, eta)
    threshold = 2.0 * eta * L**2
    norms = [target.element_norm(psi.apply(p.coords)) for p in family]
    survivors = [i for i, n in enumerate(norms) if n <= threshold * (1 + 1e-9) + 1e-15]
    large = [i for i in range(len(family)) if i not in survivors]
    if not large:
        return ScanReport(survivors, [], threshold, 0.0, np.inf, np.inf, True, True)
    c = min(norms[i] for i in large)
    dim_x = target.realization.shape[1]
    ys = {}
    for i in large:
        mat = np.tensordot(psi.apply(family[i].coords), target.realization, axes=(0, 0))
        _, _, vh = np.linalg.svd(mat)
        x_unit = vh[0].conj()
        ys[i] = mat @ x_unit  # norm = ||psi(p)|| by choice of x
    separation = min(
        (c - threshold) / norms[i] for i in large
    )
    min_distance = np.inf
    distances_ok = True
    for pos, i in enumerate(large):
        for j in large[pos + 1 :]:
            dist = float(np.linalg.norm(ys[i] - ys[j]))
            min_distance = min(min_distance, dist)
            required = (c - threshold) / max(norms[i], norms[j])
            if dist < required * (1 - 1e-9) - 1e-12:
                distances_ok = False
    radius = max(norms[i] for i in large)
    packing_bound = ((2.0 * radius + separation) / separation) ** (2 * dim_x) if separation > 0 else np.inf
    count_ok = len(large) <= packing_bound
    if not distances_ok or not count_ok:
        raise FalsificationError("separation argument falsified at finite scale")
    return ScanReport(
        survivors, large, threshold, separation, float(min_distance), float(packing_bound), count_ok, distances_ok
    )


def clone_constant(C: float) -> float:
    """The defect threshold 1/(6 C^3) attached to a factorization constant C."""
    if C < 1.0:
        raise DomainError("factorization constant must be at least 1")
    return 1.0 / (6.0 * C**3)


def corner_restriction(psi: LinearMap, corner_basis: list[Element]) -> tuple[LinearMap, Embedding]:
    """Restrict a map to the subalgebra spanned by a corner's basis.

    Used by the equivalence pipeline: after smallness is transferred to the
    sub-block identity e, the conclusion map is psi restricted to e A e.
    """
    sub, emb = generated_subalgebra(psi.source, corner_basis, unital=False)
    return LinearMap(sub, psi.target, psi.matrix @ emb.matrix), emb
