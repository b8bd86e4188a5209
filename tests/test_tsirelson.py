import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amnm.errors import DomainError, FalsificationError, PreconditionError
from amnm.tsirelson import (
    TsirelsonVector,
    basis_projection,
    basis_vector,
    clone_family,
    clone_family_closed_form,
    clone_system_verify,
    intersection_size,
    interval_schreier_report,
    schreier_check,
    schreier_inequality,
    tsirelson_norm,
    tsirelson_norm_levels,
)
from amnm.rng import stream


def brute_norm(entries: dict, top: int) -> float:
    """Independent oracle: iterate the defining equation over raw interval
    families until the value stabilizes."""
    memo = {}

    def norm(sup):
        if not sup:
            return 0.0
        if sup in memo:
            return memo[sup]
        best = max(abs(entries[i]) for i in sup)
        memo[sup] = best
        changed = True
        while changed:
            changed = False
            cand = best
            for k in range(1, top + 1):
                for fam in families(k, k, top):
                    tot, ok = 0.0, True
                    for a, b in fam:
                        ss = frozenset(i for i in sup if a <= i <= b)
                        if ss == sup:
                            ok = False
                            break
                        tot += norm(ss)
                    if ok and 0.5 * tot > cand:
                        cand = 0.5 * tot
            if cand > best:
                best, changed = cand, True
                memo[sup] = best
        return best

    def families(start, parts, top):
        if parts == 0:
            yield []
            return
        for a in range(start, top + 1):
            for b in range(a, top + 1):
                for rest in families(b + 1, parts - 1, top):
                    yield [(a, b)] + rest

    return norm(frozenset(i for i, v in entries.items() if v != 0))


def reference_levels(positions: list[int], moduli: list[float]) -> list[float]:
    """The level iteration as a nested-loop DP over list-of-lists tables.

    ``table[i][j]`` is the current-level norm of the restriction to support
    points i..j; each entry is recomputed from the best tiling of the chunk
    by admissible families until two consecutive tables agree exactly.
    """
    q = len(positions)
    if not q:
        return [0.0]
    table = [[(max(moduli[i : j + 1]) if j >= i else 0.0) for j in range(q)] for i in range(q)]
    levels = [table[0][q - 1]]
    for _ in range(64):
        new = [[0.0] * q for _ in range(q)]
        changed = False
        for i in range(q):
            for j in range(i, q):
                val = max(table[i][j], 0.5 * reference_best_sum(table, positions, i, j))
                new[i][j] = val
                if val != table[i][j]:
                    changed = True
        table = new
        levels.append(table[0][q - 1])
        if not changed:
            return levels
    raise FalsificationError("norm iteration failed to stabilize within the level cap")


def reference_best_sum(table, positions, i, j) -> float:
    """Best sum over admissible interval families inside support chunk [i, j]:
    the family starts at a support point i1 >= i, has k <= positions[i1]
    parts, and its parts tile the chunk [i1, j]."""
    best = 0.0
    for i1 in range(i, j + 1):
        width = j - i1 + 1
        kmax = min(positions[i1], width)
        prev = [table[i1][t] for t in range(i1, j + 1)]  # one part
        best = max(best, prev[width - 1])
        for parts in range(2, kmax + 1):
            cur = [0.0] * width
            for t in range(i1 + parts - 1, j + 1):
                cur[t - i1] = max(
                    prev[u - i1] + table[u + 1][t] for u in range(i1 + parts - 2, t)
                )
            prev = cur
            best = max(best, prev[width - 1])
    return best


def assert_matches_reference(vec: TsirelsonVector):
    support = vec.support
    assert tsirelson_norm_levels(vec) == reference_levels(support, [abs(vec.entries[i]) for i in support])


def test_levels_bit_identical_to_loop_reference():
    rng = stream(88, 0)
    count = 0
    for size in range(25):
        assert_matches_reference(TsirelsonVector({i: 1.0 for i in range(1, size + 1)}))
        dense = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        assert_matches_reference(TsirelsonVector.from_dense(dense))
        count += 2
        for _ in range(10 if size <= 14 else 1):
            pos = rng.choice(np.arange(1, 2 * size + 10), size=size, replace=False)
            vals = rng.standard_normal(size)
            if count % 3 == 0:
                vals = vals + 1j * rng.standard_normal(size)
            assert_matches_reference(TsirelsonVector({int(p): v for p, v in zip(pos, vals)}))
            count += 1
    assert count >= 200


def full_cube_levels(positions: list[int], moduli: list[float]) -> list[float]:
    """The array DP with every (max,+) product over the full q x q tables:
    the rows of every support point whose position admits the part count,
    every u and every t, the cells that can only hold -inf included."""
    q = len(positions)
    if not q:
        return [0.0]
    upper = np.triu(np.ones((q, q), dtype=bool))
    table = np.maximum.accumulate(np.where(upper, np.array(moduli), -np.inf), axis=1)
    max_parts = max(min(pos, q - i1) for i1, pos in enumerate(positions))
    levels = [float(table[0, -1])]
    for _ in range(64):
        after = np.full((q, q), -np.inf)  # after[u, t] = table[u+1, t]
        after[:-1] = table[1:]
        tiled, best, lo = table, table.copy(), 0
        for parts in range(2, max_parts + 1):
            start = int(np.searchsorted(positions, parts))
            tiled = np.max(tiled[start - lo :, :, None] + after, axis=1)
            lo = start
            np.maximum(best[lo:], tiled, out=best[lo:])
        best = np.maximum.accumulate(best[::-1], axis=0)[::-1]
        new = np.maximum(table, 0.5 * best)
        changed = not np.array_equal(new, table)
        table = new
        levels.append(float(table[0, -1]))
        if not changed:
            return levels
    raise FalsificationError("norm iteration failed to stabilize within the level cap")


def test_live_block_levels_equal_full_cube_up_to_the_cap():
    rng = stream(90, 0)
    count = 0
    for q in range(1, 65):
        supports = [list(range(1, q + 1)), list(range(64, 64 + q))]  # few parts, many parts
        # random positions, fewer at the largest supports, where the full cube is slowest
        supports += [sorted(rng.choice(np.arange(1, 3 * q + 5), size=q, replace=False).tolist())
                     for _ in range(8 if q <= 44 else 2)]
        for n, pos in enumerate(supports):
            if n % 3 == 0:  # ties
                moduli = rng.choice([0.5, 1.0, 2.0], size=q)
            elif n % 3 == 1:
                moduli = 10.0 ** rng.uniform(-13, 13, size=q)
            else:
                moduli = np.abs(rng.standard_normal(q) + 1j * rng.standard_normal(q))
            vec = TsirelsonVector({p: m for p, m in zip(pos, moduli)})
            assert tsirelson_norm_levels(vec) == full_cube_levels(pos, [abs(vec.entries[p]) for p in pos])
            count += 1
    assert count >= 500


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(min_value=1, max_value=30),
                       st.floats(min_value=-1e6, max_value=1e6), max_size=10))
def test_levels_match_loop_reference_fuzzed(entries):
    assert_matches_reference(TsirelsonVector(entries))


def test_support_64_schreier_vector():
    rng = stream(89, 0)
    # the support 64..127 is itself a Schreier set, so ||x|| >= l1 / 2
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    vec = TsirelsonVector({64 + i: v for i, v in enumerate(vals)})
    levels = tsirelson_norm_levels(vec)
    l1 = float(np.abs(vals).sum())
    assert levels[0] == float(np.abs(vals).max())
    assert all(b >= a for a, b in zip(levels, levels[1:])) and levels[-1] == levels[-2]
    assert 0.5 * l1 <= levels[-1] <= l1


def test_basis_vectors_norm_one():
    for n in range(1, 51):
        assert tsirelson_norm(basis_vector(n)) == 1.0


def test_norm_dominates_sup():
    rng = stream(81, 0)
    for _ in range(20):
        pos = rng.choice(np.arange(1, 20), size=6, replace=False)
        vals = rng.standard_normal(6)
        vec = TsirelsonVector({int(p): v for p, v in zip(pos, vals)})
        assert tsirelson_norm(vec) >= max(abs(v) for v in vals) - 1e-15


def test_against_brute_force_oracle():
    rng = stream(82, 0)
    for _ in range(8):
        pos = rng.choice(np.arange(1, 8), size=4, replace=False)
        vals = rng.standard_normal(4)
        entries = {int(p): float(v) for p, v in zip(pos, vals)}
        fast = tsirelson_norm(TsirelsonVector(dict(entries)))
        slow = brute_norm(entries, 7)
        assert fast == pytest.approx(slow, abs=1e-12)


def test_two_basis_vector_sum_from_enumeration():
    assert tsirelson_norm(TsirelsonVector({2: 1, 3: 1})) == pytest.approx(
        brute_norm({2: 1.0, 3: 1.0}, 4), abs=1e-14
    )


def test_levels_monotone_and_stabilize():
    vec = TsirelsonVector({i: 1.0 for i in range(3, 13)})
    levels = tsirelson_norm_levels(vec)
    for a, b in zip(levels, levels[1:]):
        assert b >= a
    assert levels[-1] == levels[-2]  # stabilized


def test_unconditionality():
    rng = stream(83, 0)
    pos = rng.choice(np.arange(1, 18), size=7, replace=False)
    vals = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    vec = TsirelsonVector({int(p): v for p, v in zip(pos, vals)})
    base = tsirelson_norm(vec)
    phases = np.exp(2j * np.pi * rng.uniform(size=7))
    twisted = TsirelsonVector({int(p): v * ph for (p, v), ph in zip(zip(pos, vals), phases)})
    assert tsirelson_norm(twisted) == pytest.approx(base, abs=1e-12)


def test_norm_axioms_on_seeded_triples():
    rng = stream(84, 0)
    for _ in range(10):
        pos = rng.choice(np.arange(1, 14), size=5, replace=False)
        x = {int(p): complex(v) for p, v in zip(pos, rng.standard_normal(5))}
        y = {int(p): complex(v) for p, v in zip(pos, rng.standard_normal(5))}
        lam = complex(rng.standard_normal(), rng.standard_normal())
        nx = tsirelson_norm(TsirelsonVector(dict(x)))
        ny = tsirelson_norm(TsirelsonVector(dict(y)))
        nxy = tsirelson_norm(TsirelsonVector({p: x[p] + y[p] for p in x}))
        nlx = tsirelson_norm(TsirelsonVector({p: lam * v for p, v in x.items()}))
        assert nxy <= nx + ny + 1e-10
        assert nlx == pytest.approx(abs(lam) * nx, rel=1e-10, abs=1e-12)


def test_support_cap_refused():
    vec = TsirelsonVector({i: 1.0 for i in range(1, 66)})
    with pytest.raises(PreconditionError):
        tsirelson_norm(vec)


def test_schreier_check():
    assert schreier_check({2, 3}).schreier
    assert not schreier_check({1, 2}).schreier
    assert schreier_check({2, 3}).sigma_bound == 2.0
    assert schreier_check({10}).schreier


def test_schreier_refuses_repeated_indices():
    # J is a set: [3, 3, 4] would count |x_3| twice and read as a falsification
    with pytest.raises(DomainError):
        schreier_check([3, 3, 4])
    with pytest.raises(DomainError):
        schreier_inequality(TsirelsonVector.from_dense([1, 2, 3, 4]), [3, 3, 4])


def test_library_refuses_coercible_inputs():
    # int(3.7) and complex("3") would silently turn these into other vectors
    for J in ([3.7, 4], [True, 4], ["3", 4], [np.bool_(True), 4]):
        with pytest.raises(DomainError):
            schreier_check(J)
    for entries in ({1: True}, {1: "3"}, {1: None}, {True: 2.0}, {2.0: 1.0}, {1: np.bool_(True)}):
        with pytest.raises(DomainError):
            TsirelsonVector(entries)
    # numpy integers and numbers stay accepted
    assert schreier_check(np.array([3, 4, 5])).indices == (3, 4, 5)
    vec = TsirelsonVector({np.int64(2): np.complex128(1 - 1j), 3: np.float32(2.0), 4: 1})
    assert vec.entries == {2: 1 - 1j, 3: 2 + 0j, 4: 1 + 0j}


def test_schreier_inequality_seeded():
    rng = stream(85, 0)
    for _ in range(50):
        pos = rng.choice(np.arange(1, 25), size=8, replace=False)
        vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        vec = TsirelsonVector({int(p): v for p, v in zip(pos, vals)})
        cert = schreier_inequality(vec, {3, 4, 5})
        assert cert.norm >= cert.half_sum - 1e-12
    with pytest.raises(PreconditionError):
        schreier_inequality(vec, {1, 2})


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12))
def test_clone_recursion_matches_closed_form(word):
    n = len(word) + 1
    fam = clone_family(word, n)
    assert fam.terms[0] == 1
    for j in range(1, n):
        assert fam.terms[j] == 2 * fam.terms[j - 1] + fam.bit(j)
        assert fam.terms[j] <= 2 * fam.terms[j - 1] + 2
    assert fam.terms[-1] == clone_family_closed_form(word, n)


def test_clone_words_must_be_binary():
    assert clone_family("0110", 5).terms == clone_family([0, 1, 1, 0], 5).terms
    for word in ("0x2", "2", "01 ", [0, 2]):
        with pytest.raises(DomainError):
            clone_family(word, 5)
        with pytest.raises(DomainError):
            clone_family_closed_form(word, 5)


def test_clone_families_known_values():
    assert clone_family([0] * 7, 8).terms == [1, 2, 4, 8, 16, 32, 64, 128]
    assert clone_family([1] * 7, 8).terms == [1, 3, 7, 15, 31, 63, 127, 255]


def test_intersection_equals_first_disagreement():
    rep = intersection_size([0, 0, 0], [1, 0, 0], 20)
    assert rep.count == 1 and rep.first_disagreement == 1
    rng = stream(86, 0)
    for _ in range(50):
        w1 = [int(b) for b in rng.integers(0, 2, size=9)]
        w2 = list(w1)
        flip = int(rng.integers(0, 8))
        w2[flip] = 1 - w2[flip]
        rep = intersection_size(w1, w2, 12)
        assert rep.count == rep.first_disagreement == flip + 1


def test_intersection_identical_words_flagged():
    rep = intersection_size([0, 1], [0, 1], 6)
    assert rep.identical_within_horizon
    assert rep.count == 6


def test_interval_schreier_property_exhaustive():
    rng = stream(87, 0)
    for _ in range(20):
        word = [int(b) for b in rng.integers(0, 2, size=10)]
        fam = clone_family(word, 10)
        gaps = interval_schreier_report(fam, 100)
        for lo, hi in gaps:
            assert hi - lo + 1 <= lo


def test_basis_projection_properties():
    p_all = basis_projection(range(1, 21), 20)
    assert np.array_equal(p_all, np.eye(20))
    fam1 = clone_family([0, 0, 0], 6)
    fam2 = clone_family([1, 0, 0], 6)
    p1 = basis_projection(fam1.terms, 20)
    p2 = basis_projection(fam2.terms, 20)
    assert np.array_equal(p1 @ p1, p1)
    inter = set(fam1.terms) & set(fam2.terms) & set(range(1, 21))
    assert np.linalg.matrix_rank(p1 @ p2) == len(inter) == 1
    # norm one on its range
    for m in fam1.terms:
        if m <= 20:
            assert tsirelson_norm(basis_vector(m)) == 1.0


def test_clone_system_verify():
    families = [clone_family([0, 0], 6), clone_family([1, 0], 6), clone_family([1, 1], 6)]
    report = clone_system_verify(families, 20, seed=5, samples=6)
    assert report.ok
    assert report.checked_pairs == 3


def test_vector_validation():
    with pytest.raises(DomainError):
        TsirelsonVector({0: 1.0})
    for entries in ({1: float("nan"), 2: 1.0}, {1: float("inf")}, {1: complex(1.0, -np.inf)},
                    {1: 1e308, 2: 1e308}, {1: complex(1e308, 1e308), 2: 1e308}):
        with pytest.raises(DomainError):
            TsirelsonVector(entries)
    vec = TsirelsonVector({3: 0.0, 5: 2.0})
    assert vec.support == [5]
