"""Tsirelson-norm evaluation and the binary-branching clone families.

The norm of a finitely supported vector is the fixed point of

    ||x||_0 = ||x||_inf
    ||x||_{m+1} = max(||x||_m, (1/2) max sum_j ||E_j x||_m)

where the inner max runs over admissible families: k intervals
E_1 < ... < E_k of natural numbers with k <= min E_1.  For finite support
the iteration stabilizes after finitely many levels and the computation is
exact.  The value of ||E x|| depends only on the support points inside E, so
each level is a table over contiguous chunks of the support, and the best
admissible sum inside a chunk is a (max,+) matrix product over the ways to
tile it (see ``tsirelson_norm_levels``).

Clone families M(f) = {m_n(f)} follow the doubling recursion
m_1 = 1, m_{n+1} = 2 m_n + f(n) for a binary word f, which forces every
maximal interval between consecutive terms to be a Schreier set; two
families intersect in exactly the terms before the words first disagree.

The Schreier-interval property is what makes the span of each family a
uniformly isomorphic copy of the whole space (with constant 4); that claim
is recorded here as documentation only, and the suite certifies the
interval mechanism behind it rather than computing isomorphism distances.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FalsificationError, PreconditionError
from .rng import stream

SUPPORT_CAP = 64
_LEVEL_CAP = 64


def _is_index(j) -> bool:
    """An integer (Python or numpy), never a boolean."""
    return isinstance(j, (int, np.integer)) and not isinstance(j, bool)


@dataclass
class TsirelsonVector:
    """Finitely supported vector over the unit vector basis (1-indexed)."""

    entries: dict[int, complex]

    def __post_init__(self):
        clean = {}
        for idx, val in self.entries.items():
            if not _is_index(idx) or idx < 1:
                raise DomainError("indices must be integers >= 1")
            if not isinstance(val, numbers.Number) or isinstance(val, bool):
                raise DomainError(f"entries must be numbers, not {val!r}")
            if val != 0:
                clean[int(idx)] = complex(val)
        # also refuses NaN and infinite entries, whose moduli are not finite
        if not math.isfinite(sum(abs(v) for v in clean.values())):
            raise DomainError("entries must be finite with a finite l1 norm")
        self.entries = clean

    @property
    def support(self) -> list[int]:
        return sorted(self.entries)

    @classmethod
    def from_dense(cls, values) -> "TsirelsonVector":
        return cls({i + 1: v for i, v in enumerate(values)})


def basis_vector(n: int) -> TsirelsonVector:
    return TsirelsonVector({n: 1.0})


def tsirelson_norm(x: TsirelsonVector, support_cap: int = SUPPORT_CAP) -> float:
    """Exact norm of a finitely supported vector (support size capped)."""
    return tsirelson_norm_levels(x, support_cap)[-1]


def tsirelson_norm_levels(x: TsirelsonVector, support_cap: int = SUPPORT_CAP) -> list[float]:
    """Per-level values of the defining iteration, ending at stabilization.

    ``table[i, j]`` is the current-level norm of the restriction to support
    points i..j, and -inf marks the empty j < i (the l1 norm is finite, so
    no sum meets inf + -inf).  An admissible family inside chunk [i, j]
    starts at a support point i1 >= i, has at most positions[i1] parts, and
    tiles [i1, j] (coverage can only increase part norms, so tiling is
    optimal).  The best tiling of [i1, t] into p parts is the (max,+)
    product F_p[i1, t] = max_u F_{p-1}[i1, u] + table[u+1, t], F_1 = table;
    a suffix max over i1 gives each chunk's best sum, and the next level is
    max(table, best / 2).  Every sum adds the same two operands as a loop
    over the chunks would, and max is exact, so the levels do not depend on
    the evaluation order.
    """
    support = x.support
    if len(support) > support_cap:
        raise PreconditionError(f"support size {len(support)} exceeds the cap {support_cap}")
    if not support:
        return [0.0]
    q = len(support)
    moduli = np.array([abs(x.entries[i]) for i in support])
    upper = np.triu(np.ones((q, q), dtype=bool))
    table = np.maximum.accumulate(np.where(upper, moduli, -np.inf), axis=1)
    # p parts fit in the chunk [i1, q-1] only when p <= q - i1
    max_parts = max(min(pos, q - i1) for i1, pos in enumerate(support))
    levels = [float(table[0, -1])]
    for _ in range(_LEVEL_CAP):
        after = np.full((q, q), -np.inf)  # after[u, t] = table[u+1, t]
        after[:-1] = table[1:]
        tiled, best, lo = table, table.copy(), 0
        for parts in range(2, max_parts + 1):
            # rows of ``tiled`` are the first points i1 >= lo, those with positions[i1] >= parts
            start = int(np.searchsorted(support, parts))
            tiled = np.max(tiled[start - lo :, :, None] + after, axis=1)
            lo = start
            np.maximum(best[lo:], tiled, out=best[lo:])
        best = np.maximum.accumulate(best[::-1], axis=0)[::-1]
        new = np.maximum(table, 0.5 * best)
        changed = not np.array_equal(new, table)
        table = new
        levels.append(float(table[0, -1]))
        if not changed:
            break
    else:
        raise FalsificationError("norm iteration failed to stabilize within the level cap")
    return levels


@dataclass
class SchreierCert:
    indices: tuple[int, ...]
    schreier: bool
    sigma_bound: float | None


def schreier_check(J) -> SchreierCert:
    """|J| <= min J; Schreier sets carry the coefficient-sum bound 2.

    J is a set: a repeated index is refused, not counted twice."""
    J = list(J)
    if not all(_is_index(j) for j in J):
        raise DomainError("indices must be integers")
    indices = tuple(sorted(int(j) for j in J))
    if any(j < 1 for j in indices):
        raise DomainError("indices must be >= 1")
    if len(set(indices)) < len(indices):
        raise DomainError("indices must be distinct")
    flag = bool(indices) and len(indices) <= indices[0]
    return SchreierCert(indices, flag, 2.0 if flag else None)


@dataclass
class SchreierInequalityCert:
    norm: float
    half_sum: float
    ok: bool


def schreier_inequality(x: TsirelsonVector, J, tol: float = 1e-12) -> SchreierInequalityCert:
    """||x|| >= (1/2) sum_{j in J} |x_j| for a Schreier set J.

    This is the inequality behind the coefficient bound sigma <= 2 on
    intervals avoiding a clone family.
    """
    cert = schreier_check(J)
    if not cert.indices:
        raise DomainError("J must be nonempty")
    if not cert.schreier:
        raise PreconditionError("J is not a Schreier set")
    norm = tsirelson_norm(x)
    half_sum = 0.5 * sum(abs(x.entries.get(j, 0.0)) for j in cert.indices)
    ok = norm >= half_sum - tol
    if not ok:
        raise FalsificationError(f"Schreier inequality falsified: {norm} < {half_sum}")
    return SchreierInequalityCert(norm, half_sum, ok)


@dataclass
class CloneFamily:
    """Index family from the doubling recursion over a binary word.

    ``word[j]`` (0-based storage) is the paper-style f(j+1); positions past
    the stored word are treated as 0, so the word is a genuine prefix.  The
    word may be given as 0/1 integers or as a string of '0'/'1' characters.
    """

    word: tuple[int, ...]
    terms: list[int] = field(default_factory=list)

    def __post_init__(self):
        word = tuple(self.word)
        if any(b not in (0, 1, "0", "1") for b in word):
            raise DomainError("word must be binary")
        self.word = tuple(int(b) for b in word)

    def bit(self, n: int) -> int:
        """f(n), 1-based."""
        return self.word[n - 1] if 1 <= n <= len(self.word) else 0

    @property
    def doubling_ok(self) -> bool:
        """Whether the terms keep to the envelope m_{j+1} <= 2 m_j + 2."""
        return all(b <= 2 * a + 2 for a, b in zip(self.terms, self.terms[1:]))


def clone_family(word, n: int) -> CloneFamily:
    """First n terms of m_1 = 1, m_{j+1} = 2 m_j + f(j)."""
    if n < 1:
        raise DomainError("need at least one term")
    fam = CloneFamily(word)
    terms = [1]
    for j in range(1, n):
        terms.append(2 * terms[-1] + fam.bit(j))
    fam.terms = terms
    if not fam.doubling_ok:
        raise FalsificationError("doubling recursion escaped its envelope")
    return fam


def clone_family_closed_form(word, n: int) -> int:
    """m_n = 2^(n-1) + sum_{j<n} f(j) 2^(n-1-j)."""
    fam = CloneFamily(word)
    return 2 ** (n - 1) + sum(fam.bit(j) * 2 ** (n - 1 - j) for j in range(1, n))


@dataclass
class IntersectionReport:
    count: int
    first_disagreement: int | None
    identical_within_horizon: bool


def intersection_size(f_word, g_word, horizon: int) -> IntersectionReport:
    """|M(f) cap M(g)| within the first ``horizon`` terms, with the first
    word disagreement k; the two agree exactly on their first k terms."""
    if horizon < 1:
        raise DomainError("horizon must be at least 1")
    famf = clone_family(f_word, horizon)
    famg = clone_family(g_word, horizon)
    k = None
    for j in range(1, horizon):
        if famf.bit(j) != famg.bit(j):
            k = j
            break
    common = set(famf.terms) & set(famg.terms)
    count = len(common)
    if k is None:
        return IntersectionReport(count, None, True)
    if count != k:
        raise FalsificationError(
            f"almost-disjointness falsified: intersection {count} != first disagreement {k}"
        )
    return IntersectionReport(count, k, False)


def interval_schreier_report(fam: CloneFamily, horizon: int) -> list[tuple[int, int]]:
    """Maximal intervals between consecutive terms, all certified Schreier.

    Terms are extended past the horizon so every gap inside [1, horizon] is
    a genuine gap of the infinite family; raises if any gap fails
    |J| <= min J.
    """
    terms = list(fam.terms)
    while terms[-1] <= horizon:
        terms.append(2 * terms[-1] + fam.bit(len(terms)))
    gaps = []
    for a, b in zip(terms, terms[1:]):
        lo, hi = a + 1, min(b - 1, horizon)
        if lo > hi:
            continue
        size = hi - lo + 1
        if size > lo:
            raise FalsificationError(f"gap [{lo}, {hi}] is not a Schreier set")
        gaps.append((lo, hi))
        if b - 1 > horizon:
            break
    return gaps


def basis_projection(M, N: int) -> np.ndarray:
    """Coordinate projection onto span(t_m : m in M) on the N-truncation."""
    if N < 1:
        raise DomainError("truncation must be at least 1")
    diag = np.zeros(N)
    for m in M:
        if 1 <= m <= N:
            diag[m - 1] = 1.0
    return np.diag(diag)


@dataclass
class CloneSystemReport:
    idempotent_ok: bool
    contractive_ok: bool
    attains_one_ok: bool
    rank_ok: bool
    checked_pairs: int

    @property
    def ok(self) -> bool:
        return self.idempotent_ok and self.contractive_ok and self.attains_one_ok and self.rank_ok


def clone_system_verify(
    families: list[CloneFamily], N: int, seed: int = 0, samples: int = 20
) -> CloneSystemReport:
    """Verify the basis projections of clone families on a truncation.

    Checks P^2 = P exactly, sampled contractivity ||P x|| <= ||x|| with
    equality 1 at basis vectors of the range, and
    rank(P_M P_M') = |M cap M' cap [1, N]| for every pair.
    """
    mats = []
    index_sets = []
    for fam in families:
        terms = [m for m in fam.terms if m <= N]
        index_sets.append(set(terms))
        mats.append(basis_projection(terms, N))
    idempotent_ok = all(np.array_equal(p @ p, p) for p in mats)

    rng = stream(seed, 0)
    contractive_ok = True
    support_size = min(12, N)
    for _ in range(samples):
        positions = rng.choice(np.arange(1, N + 1), size=support_size, replace=False)
        values = rng.standard_normal(support_size) + 1j * rng.standard_normal(support_size)
        x = TsirelsonVector({int(p): v for p, v in zip(positions, values)})
        nx = tsirelson_norm(x)
        for p, idx in zip(mats, index_sets):
            proj = TsirelsonVector({i: v for i, v in x.entries.items() if i in idx})
            if tsirelson_norm(proj) > nx + 1e-12:
                contractive_ok = False

    attains_one_ok = True
    for p, idx in zip(mats, index_sets):
        for m in idx:
            if abs(tsirelson_norm(basis_vector(m)) - 1.0) > 1e-15:
                attains_one_ok = False

    rank_ok = True
    checked = 0
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            rank = int(np.linalg.matrix_rank(mats[a] @ mats[b]))
            expected = len(index_sets[a] & index_sets[b])
            checked += 1
            if rank != expected:
                rank_ok = False
    return CloneSystemReport(idempotent_ok, contractive_ok, attains_one_ok, rank_ok, checked)
