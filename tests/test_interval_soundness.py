"""Randomized stress checks of the certified-interval contract.

Whatever the ball types and tensor shapes, a norm estimate must satisfy
lower <= true <= upper.  The true value is intractable, but three proxies
are enforced here: the witness evaluation equals the lower bound, richer
searches never escape the upper bound, and independently sampled ball
points never beat the upper bound either.
"""

import numpy as np
import pytest

from amnm.algebra import (
    build_commutative_algebra,
    build_full_matrix_algebra,
    direct_sum,
    generated_subalgebra,
    unitize,
)
from amnm.multilinear import Cochain, LinearMap, defect, linear_map_norm, multilinear_norm
from amnm.rng import complex_gaussian, stream
from amnm.stabilizer import StabilizeConfig, stabilize
from amnm.diagonal import library_diagonal


def _slot_pairs():
    m2 = build_full_matrix_algebra(2)
    m2f = build_full_matrix_algebra(2, norm_mode="frobenius")
    c3 = build_commutative_algebra(3)
    mix = direct_sum(build_full_matrix_algebra(2), build_commutative_algebra(1))
    u = unitize(build_commutative_algebra(2))
    m3 = build_full_matrix_algebra(3)
    e = m3.basis_element
    # *-subalgebras that do not span M_k take exact projected polar steps:
    # C + M_2 inside M_3 and the non-unital 2x2 corner of M_4
    cm2, _ = generated_subalgebra(m3, [e(0), e(4) + e(8), e(5), e(7)], unital=True)
    m4 = build_full_matrix_algebra(4)
    corner, _ = generated_subalgebra(m4, [m4.basis_element(i) for i in (0, 1, 4, 5)], unital=False)
    # upper-triangular T_2 is not adjoint-closed: inscribed-Euclidean steps
    t2, _ = generated_subalgebra(m2, [m2.basis_element(0), m2.basis_element(1)], unital=True)
    return [
        ((m2, m2), m2),
        ((m2f, m2f), m2f),
        ((c3, m2), m2),
        ((mix, mix), mix),
        ((u, u), m2),
        ((cm2, cm2), cm2),
        ((corner, corner), corner),
        ((t2, t2), t2),
        ((c3, c3), c3),
    ]


def test_witness_and_sampling_respect_the_interval():
    rng = stream(91, 0)
    for slots, target_alg in _slot_pairs():
        target = target_alg.unit_ball
        balls = [s.unit_ball for s in slots]
        for trial in range(4):
            tensor = complex_gaussian(rng, (target_alg.dim,) + tuple(s.dim for s in slots))
            chain = Cochain(slots, target_alg, tensor)
            est = multilinear_norm(chain, restarts=6, sweeps=40, seed=1000 + trial)
            assert est.lower <= est.upper * (1 + 1e-9)
            value = target.norm(chain.evaluate(*est.witness))
            assert value == pytest.approx(est.lower, rel=1e-9, abs=1e-12)
            for ball, w in zip(balls, est.witness):
                assert ball.norm(w) <= 1 + 1e-9
            # independent sampling stays inside the certified interval
            for _ in range(50):
                args = [b.random_points([rng])[0] for b in balls]
                assert target.norm(chain.evaluate(*args)) <= est.upper * (1 + 1e-9) + 1e-12


def test_richer_search_never_escapes_upper():
    rng = stream(92, 0)
    m2 = build_full_matrix_algebra(2)
    for trial in range(6):
        phi = LinearMap(m2, m2, complex_gaussian(rng, (4, 4)))
        # an unmet claim keeps the full search at either budget
        cheap = defect(phi, restarts=2, sweeps=20, seed=trial, claim=0.0)
        rich = defect(phi, restarts=24, sweeps=200, seed=trial, claim=0.0)
        assert (cheap.restarts_used, rich.restarts_used) == (2, 24)
        assert rich.lower >= cheap.lower - 1e-12
        assert rich.lower <= cheap.upper * (1 + 1e-9)
        assert rich.upper == pytest.approx(cheap.upper)  # unfolding bound is search-free


def test_mode_intervals_are_consistent():
    # the spectral and Euclidean balls/targets are equivalent up to the
    # advertised factors, so the certified intervals must overlap accordingly
    m2s = build_full_matrix_algebra(2, norm_mode="spectral")
    m2f = build_full_matrix_algebra(2, norm_mode="frobenius")
    rng = stream(93, 0)
    for trial in range(4):
        mat = complex_gaussian(rng, (4, 4))
        spec = defect(LinearMap(m2s, m2s, mat), restarts=8, seed=trial)
        frob = defect(LinearMap(m2f, m2f, mat), restarts=8, seed=trial)
        k = 2
        assert spec.lower <= frob.upper * k * (1 + 1e-9)  # spec ball within sqrt(k)-scaled frob ball
        assert frob.lower <= spec.upper * k * (1 + 1e-9)


def test_stabilize_generalizes_to_m3():
    a = build_full_matrix_algebra(3)
    diag = [a.basis_element(i * 3 + i) for i in range(3)]
    d, emb = generated_subalgebra(a, diag, unital=True)
    cert = library_diagonal(d)
    assert cert.K == pytest.approx(3.0)
    rng = stream(94, 0)
    gamma = complex_gaussian(rng, (9, 9))
    unit = a.unit_coords
    gamma -= np.outer(gamma @ unit, unit.conj()) / np.vdot(unit, unit)
    gamma = gamma / np.linalg.svd(gamma, compute_uv=False)[0] * 1e-4
    phi = LinearMap(a, a, np.eye(9) + gamma)
    cfg = StabilizeConfig(tol=1e-8, max_iter=30, L=2.0, seed=3, restarts=8, sweeps=60)
    report = stabilize(phi, emb, cert, cfg)
    assert report.converged and report.all_claims_ok
    assert report.self_modular_residual <= 1e-8


def test_linear_map_norm_unitization_source():
    # maps from a unitization are measured over the composite ball
    base = build_full_matrix_algebra(2)
    u = unitize(base)
    matrix = np.zeros((4, 5), dtype=complex)
    matrix[:, 0] = base.unit_coords  # the adjoined unit goes to 1
    est = linear_map_norm(LinearMap(u, base, matrix), restarts=6, seed=5)
    assert est.lower == pytest.approx(1.0, rel=1e-9)
    assert est.upper >= 1.0 - 1e-12
