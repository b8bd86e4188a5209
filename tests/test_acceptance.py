"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them inline)
and enforces the stated tolerances, instance counts and runtime budgets.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from amnm import suites
from amnm.diagonal import _scenario
from amnm.multilinear import LinearMap
from amnm.perturbation import dichotomy_roots, norm_dichotomy_check
from amnm.rng import stream
from amnm.stabilizer import StabilizeConfig, stabilize
from amnm.suites import unit_killing_perturbation
from amnm.tsirelson import (
    CloneFamily,
    TsirelsonVector,
    basis_projection,
    basis_vector,
    intersection_size,
    interval_schreier_report,
    schreier_inequality,
    tsirelson_norm,
)

INSTANCES = 100


def report(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")


def test_criterion_1_exact_identities():
    t0 = time.time()
    checks = [
        suites.check_two_cocycle,
        suites.check_linearization,
        suites.check_unitize_tensors,
        suites.check_decompose_equality,
        suites.check_average_unit_vanish,
        suites.check_preserved_by_improvement,
        suites.check_splitting_v1,
        suites.check_diagonal_residuals,
    ]
    failures = []
    for i in range(INSTANCES):
        for fn in checks:
            result = fn("spectral", 10_000 + i)
            if not result.passed:
                failures.append((i, fn.__name__, result.lhs_hi, result.rhs_hi))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 30.0
    report("1 exact-identity suite", ok, elapsed, 30, f"{INSTANCES} instances x {len(checks)} identities")
    assert not failures, failures[:5]
    assert elapsed < 30.0


def test_criterion_2_no_falsification():
    t0 = time.time()
    seeds = [20_000 + i for i in range(INSTANCES)]
    results = {fn.__name__: fn("spectral", seeds) for fn in suites.SEARCHED_CHECKS}
    results["check_coboundary_composition"] = [suites.check_coboundary_composition("spectral", s) for s in seeds]
    failures = [(i, name) for name, rows in results.items() for i, result in enumerate(rows) if not result.passed]
    for i, rows in enumerate(suites.check_improving_bounds("spectral", seeds)):
        failures += [(i, result.check) for result in rows if not result.passed]
    # the norm-growth bound comes from iteration runs
    for i in range(10):
        for result in suites.run_stabilize_checks("spectral", 21_000 + i, gamma_norm=4e-4):
            if not result.passed:
                failures.append((i, result.check))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120.0
    report("2 no-falsification suite", ok, elapsed, 120, f"{INSTANCES} instances x 8 bounds")
    assert not failures, failures[:5]
    assert elapsed < 120.0


def test_criterion_3_convergence():
    t0 = time.time()
    a, emb, cert = _scenario(2, "spectral")
    k_const, L = cert.K, 2.0
    converged = 0
    claim_failures = []
    delta0s = []
    for i in range(100):
        seed = 30_000 + i
        gamma = unit_killing_perturbation(a, stream(seed, 15), 4e-4)
        phi = LinearMap(a, a, np.eye(4) + gamma)
        config = StabilizeConfig(
            tol=1e-8, max_iter=30, L=L, seed=seed, check_claim_bounds=True,
            restarts=8, sweeps=60,
        )
        rep = stabilize(phi, emb, cert, config)
        delta0s.append(rep.delta0)
        assert k_const**2 * L**2 * rep.delta0 <= 0.125
        if rep.converged and len(rep.iterates) <= 30:
            converged += 1
            if not rep.all_claims_ok:
                claim_failures.append(seed)
            if rep.total_distance.lower > rep.theorem_bound * (1 + 1e-9):
                claim_failures.append(("distance", seed))
    elapsed = time.time() - t0
    dmin, dmax = min(delta0s), max(delta0s)
    ok = converged >= 95 and not claim_failures and elapsed < 60.0
    report(
        "3 convergence", ok, elapsed, 60,
        f"converged {converged}/100, delta0 in [{dmin:.1e}, {dmax:.1e}]",
    )
    assert converged >= 95
    assert not claim_failures, claim_failures[:5]
    assert 1e-4 <= dmax <= 5e-3  # the perturbations sit in the stated regime
    assert elapsed < 60.0


def test_criterion_4_dichotomy_numerics():
    t0 = time.time()
    worst = 0.0
    c = 0.0
    while c <= 0.2225:
        u1, _, bound = dichotomy_roots(min(c, 2.0 / 9.0))
        worst = max(worst, u1 - bound)
        c += 0.001
    u1_boundary, _, bound_boundary = dichotomy_roots(2.0 / 9.0)
    boundary_gap = abs(u1_boundary - 1.5 * (2.0 / 9.0))

    from amnm.algebra import build_full_matrix_algebra

    m2 = build_full_matrix_algebra(2)
    zero = LinearMap(m2, m2, np.zeros((4, 4)))
    verdict = norm_dichotomy_check(zero, m2.basis_element(0), 2.0 / 9.0)
    thresholds_exact = (
        verdict.threshold_small == 1.0 / 3.0
        and verdict.threshold_large == 1.0 - 1.0 / 3.0
        and abs(verdict.threshold_large - 2.0 / 3.0) < 1e-15
    )
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and boundary_gap <= 1e-12 and thresholds_exact
    report("4 dichotomy numerics", ok, elapsed, 30,
           f"envelope slack {worst:.1e}, boundary gap {boundary_gap:.1e}")
    assert worst <= 1e-12
    assert boundary_gap <= 1e-12
    assert thresholds_exact


def test_criterion_5_checkers():
    t0 = time.time()
    failures = []
    for i in range(INSTANCES):
        seed = 40_000 + i
        for result in suites.checker_valid_battery(seed):
            if not result.passed:
                failures.append((i, result.check))
        for result in suites.checker_refusal_battery(seed):
            if not result.passed:
                failures.append((i, "refusal:" + result.check))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 30.0
    report("5 elementary-lemma checkers", ok, elapsed, 30,
           f"{INSTANCES} valid + {INSTANCES} refusal batteries")
    assert not failures, failures[:5]
    assert elapsed < 30.0


def test_criterion_6_tsirelson():
    t0 = time.time()
    # exact norms of the basis vectors
    assert all(tsirelson_norm(basis_vector(n)) == 1.0 for n in range(1, 51))

    # Schreier inequality on seeded vectors
    rng = stream(60_000, 0)
    for _ in range(500):
        size = int(rng.integers(4, 13))
        pos = rng.choice(np.arange(1, 28), size=size, replace=False)
        vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        vec = TsirelsonVector({int(p): v for p, v in zip(pos, vals)})
        cert = schreier_inequality(vec, {3, 4, 5})
        assert cert.norm >= cert.half_sum - 1e-12

    # 64 binary words of length 10: recursion envelope + interval property
    words = [[(w >> b) & 1 for b in range(10)] for w in range(64)]
    for word in words:
        fam = CloneFamily(word, 10)
        assert all(m2 <= 2 * m1 + 2 for m1, m2 in zip(fam.terms, fam.terms[1:]))
        interval_schreier_report(fam, 600)

    # 50 seeded pairs: intersection size = first disagreement
    rng = stream(60_001, 0)
    for _ in range(50):
        w1 = [int(b) for b in rng.integers(0, 2, size=9)]
        w2 = list(w1)
        flip = int(rng.integers(0, 8))
        w2[flip] = 1 - w2[flip]
        rep = intersection_size(w1, w2, 12)
        assert rep.count == rep.first_disagreement == flip + 1

    # projection ranks on the 20-truncation, all pairs of the 64 words
    projections = []
    sets = []
    for word in words:
        terms = [m for m in CloneFamily(word, 10).terms if m <= 20]
        projections.append(basis_projection(terms, 20))
        sets.append(set(terms))
    for i in range(64):
        for j in range(i + 1, 64):
            rank = int(np.linalg.matrix_rank(projections[i] @ projections[j]))
            assert rank == len(sets[i] & sets[j])
    elapsed = time.time() - t0
    ok = elapsed < 60.0
    report("6 appendix combinatorics", ok, elapsed, 60,
           "norms, Schreier, 64 words, 2016 rank pairs")
    assert elapsed < 60.0


def test_criterion_7_determinism(tmp_path):
    t0 = time.time()
    root = Path(__file__).resolve().parents[1]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 1, "seed": 77, "instances": 2}))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / f"run{run}"
        proc = subprocess.run(
            [sys.executable, "-m", "amnm.cli", "suite", "--config", str(cfg_path),
             "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "suite_report.json").read_bytes())
    identical = blobs[0] == blobs[1]
    elapsed = time.time() - t0
    report("7 determinism", identical, elapsed, 60, "suite bytes of two runs")
    assert identical
