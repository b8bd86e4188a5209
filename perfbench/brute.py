"""Tsirelson norm by enumeration of admissible families (Casazza-Shura 1989).

The norm is the least solution of

    ||x|| = max(||x||_inf, 1/2 sup sum_i ||E_i x||),

the supremum taken over admissible families k <= E_1 < E_2 < ... < E_k of
finite sets.  Only E_i intersected with the support matters, so a family is
a sequence of nonempty, successive subsets S_1 < ... < S_k of the support
with k <= min S_1 (sets missing the support add nothing and only tighten
the bound on k).  Starting from the sup norm, each level evaluates every
such family on every subset of the support, until no value changes.

This makes no use of the interval-tiling shortcut of ``amnm.tsirelson``; it
is exponential in the support and meant for supports of at most 8.
"""

from __future__ import annotations

MAX_SUPPORT = 8
_LEVEL_CAP = 64


def tsirelson_norm_brute(entries: dict[int, complex]) -> float:
    """Norm of the vector ``{position: value}`` by full enumeration."""
    support = sorted(i for i, v in entries.items() if v != 0)
    q = len(support)
    if q > MAX_SUPPORT:
        raise ValueError(f"support {q} exceeds {MAX_SUPPORT}")
    if q == 0:
        return 0.0
    moduli = [abs(entries[i]) for i in support]
    full = (1 << q) - 1
    norm = [0.0] * (full + 1)
    for mask in range(1, full + 1):
        norm[mask] = max(moduli[b] for b in range(q) if mask >> b & 1)

    for _ in range(_LEVEL_CAP):
        best_tail: dict[tuple[int, int], float] = {}

        def tail(rest: int, parts: int) -> float:
            """Best sum of at most ``parts`` successive blocks inside ``rest``."""
            if parts == 0 or rest == 0:
                return 0.0
            key = (rest, parts)
            if key not in best_tail:
                best = 0.0
                block = rest
                while block:
                    above = rest & ~((1 << block.bit_length()) - 1)
                    best = max(best, norm[block] + tail(above, parts - 1))
                    block = (block - 1) & rest
                best_tail[key] = best
            return best_tail[key]

        new = list(norm)
        for mask in range(1, full + 1):
            best = 0.0
            first = mask
            while first:
                k = support[(first & -first).bit_length() - 1]
                above = mask & ~((1 << first.bit_length()) - 1)
                best = max(best, norm[first] + tail(above, k - 1))
                first = (first - 1) & mask
            new[mask] = max(norm[mask], 0.5 * best)
        if new == norm:
            return norm[full]
        norm = new
    raise RuntimeError("level iteration did not stabilize")
