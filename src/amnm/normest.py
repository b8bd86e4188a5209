"""Certified estimation of multilinear operator norms.

Norms are reported as intervals [lower, upper]:

* ``lower`` is the value achieved by an explicit witness in the unit balls,
  found by alternating maximization.  Each partial step maximizes a linear
  functional over one slot's unit ball in closed form (a singular-vector
  step on Euclidean balls, the polar factor of the gradient functional on
  spectral balls).  The polar step is exact on every realization whose span
  is closed under adjoints (a *-subalgebra of M_k, unital or not); other
  spans take improving steps over the inscribed Euclidean ball.
* ``upper`` is the smallest spectral norm over the tensor unfoldings,
  converted between norms by the per-slot equivalence factors.

Restart r of an estimate draws its start point from the stream
(seed, r, slot), so enlarging the restart budget never changes earlier
restarts and never decreases the lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, FalsificationError
from .jsonio import complex_to_json
from .rng import complex_gaussian, stream

if TYPE_CHECKING:
    from .algebra import Algebra

DEFAULT_RESTARTS = 32
DEFAULT_SWEEPS = 200
SWEEP_TOL = 1e-12
TIE_TOL = 1e-12
_FRAME_SEED = 0xF4A3E  # fixed stream for structural idempotent recovery


@dataclass
class DefectEstimate:
    """Certified interval for a multilinear norm.

    ``lower`` is achieved by ``witness`` (one coordinate vector per slot);
    ``upper`` dominates the true supremum.
    """

    lower: float
    upper: float
    witness: list[np.ndarray] | None = None
    restarts_used: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.lower > self.upper * (1.0 + 1e-9) + 1e-12:
            raise FalsificationGuard(self.lower, self.upper)
        self.upper = max(self.upper, self.lower)

    def to_json_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "witness": None if self.witness is None else [complex_to_json(w) for w in self.witness],
            "restarts_used": self.restarts_used,
            "seed": self.seed,
        }


class FalsificationGuard(FalsificationError):
    def __init__(self, lower, upper):
        super().__init__(f"certified lower {lower} exceeds certified upper {upper}")


# -- unit balls ----------------------------------------------------------------
#
# Every ball has ``norm``, ``maximize`` (the best value of a linear functional
# over the ball and a maximizer), ``coords_factor`` (the l2 radius of the ball
# in coordinates) and ``random_point``.  The balls of the three norm modes
# (Euclidean, Spectral, CompositeSum over a mode ball) are each algebra's
# ``unit_ball`` and the target norm of every estimate, so they also have a
# ``norm`` batched over leading axes, ``dual_vector`` (a norming functional)
# and ``target_factor`` (norm <= factor * l2).


def _l2_step(c: np.ndarray):
    value = float(np.linalg.norm(c))
    if value == 0.0:
        return 0.0, np.zeros(c.shape[0], dtype=complex)
    return value, np.conj(c) / value


class EuclideanBall:
    """Coordinate l2 ball (frobenius mode, and dual vectors)."""

    exact = True

    def __init__(self, dim: int):
        self.dim = dim

    def maximize(self, c: np.ndarray):
        return _l2_step(c)

    def norm(self, coords: np.ndarray):
        if coords.ndim == 1:
            # the unbatched path keeps the rounding of a single-vector norm
            return float(np.linalg.norm(coords))
        return np.linalg.norm(coords, axis=-1)

    def dual_vector(self, z: np.ndarray) -> np.ndarray:
        return _l2_step(z)[1]  # the l2 ball is self-dual

    def coords_factor(self) -> float:
        return 1.0

    def target_factor(self) -> float:
        return 1.0

    def random_point(self, rng) -> np.ndarray:
        v = complex_gaussian(rng, self.dim)
        n = np.linalg.norm(v)
        return v / n if n > 0 else v


class BoxBall:
    """Sup-norm ball in a frame of orthogonal self-adjoint idempotents.

    Elements x = sum_i t_i p_i with max |t_i| <= 1; columns of ``frame`` are
    the idempotent coordinates.  Covers C^k with the spectral (sup) norm and
    commutative spectral subalgebras via their minimal idempotents.
    """

    exact = True

    def __init__(self, frame: np.ndarray):
        self.frame = frame
        self.dim = frame.shape[0]
        self._inv = np.linalg.inv(frame)

    def maximize(self, c: np.ndarray):
        s = c @ self.frame
        value = float(np.abs(s).sum())
        phases = np.where(np.abs(s) > 0, np.conj(s) / np.maximum(np.abs(s), 1e-300), 0.0)
        return value, self.frame @ phases

    def norm(self, coords: np.ndarray) -> float:
        return float(np.abs(self._inv @ coords).max())

    def coords_factor(self) -> float:
        per_col = np.linalg.norm(self.frame, axis=0).sum()
        sigma = np.linalg.svd(self.frame, compute_uv=False)[0] * np.sqrt(self.frame.shape[1])
        return float(min(per_col, sigma))

    def random_point(self, rng) -> np.ndarray:
        m = self.frame.shape[1]
        t = complex_gaussian(rng, m)
        t = t / np.maximum(np.abs(t), 1e-300)
        t *= rng.uniform(0.2, 1.0, m)
        t /= np.abs(t).max()
        return self.frame @ t


class SpectralBall:
    """Spectral-norm ball of a matrix-realized algebra.

    A linear functional l(x) = tr(M X), M = sum_i c_i R_i*, is maximized over
    the spectral ball of M_k at the polar factor of M (value = nuclear norm
    of M).  The step is exact whenever the realized span S is closed under
    adjoints: then M lies in S, and the Hilbert-Schmidt projection onto the
    *-subalgebra S is a norm-one conditional expectation (Tomiyama), so the
    projected polar factor stays in the ball with the same value.  Otherwise
    (``exact`` False, e.g. upper-triangular matrices) a partial step
    maximizes over the inscribed coordinate-Euclidean ball (contained in the
    spectral ball since ||x||_spec <= ||x||_F) and rescales to the sphere; the
    sweep accepts such steps only when they improve, so it stays monotone,
    the witness stays feasible and the reported lower bound remains
    certified.
    """

    def __init__(self, realization: np.ndarray):
        self.realization = realization
        self.dim = realization.shape[0]
        self.k = realization.shape[1]
        # the realized basis is Frobenius-orthonormal, so it spans M_k iff dim = k^2
        self.exact = self.dim == self.k * self.k or self._adjoint_closed()

    def _adjoint_closed(self) -> bool:
        adjoints = np.conj(np.swapaxes(self.realization, 1, 2))
        coords = np.einsum("jab,iab->ij", np.conj(self.realization), adjoints)
        residual = adjoints - np.tensordot(coords, self.realization, axes=(1, 0))
        return bool(np.abs(residual).max() < 1e-10)

    def _coords_of(self, mat: np.ndarray) -> np.ndarray:
        # Frobenius-orthonormal basis: coordinates are trace inner products,
        # i.e. the Hilbert-Schmidt projection onto the realized span.
        return np.einsum("iab,ab->i", np.conj(self.realization), mat)

    def maximize(self, c: np.ndarray):
        if not self.exact:
            _, x = _l2_step(c)
            n = self.norm(x)
            if n > 0:
                x = x / n
            return float(abs(c @ x)), x
        m = np.tensordot(c, np.conj(np.swapaxes(self.realization, 1, 2)), axes=(0, 0))
        u, sing, vh = np.linalg.svd(m)
        value = float(sing.sum())
        x = vh.conj().T @ u.conj().T
        return value, self._coords_of(x)

    def norm(self, coords: np.ndarray):
        mats = np.tensordot(coords, self.realization, axes=(-1, 0))
        top = np.linalg.svd(mats, compute_uv=False)[..., 0]
        return float(top) if coords.ndim == 1 else top

    def dual_vector(self, z: np.ndarray) -> np.ndarray:
        mat = np.tensordot(z, self.realization, axes=(0, 0))
        if not mat.any():
            return np.zeros(self.dim, dtype=complex)
        u, _, vh = np.linalg.svd(mat)
        p, q = u[:, 0], vh[0].conj()
        return np.einsum("a,iab,b->i", np.conj(p), self.realization, q)

    def coords_factor(self) -> float:
        return float(np.sqrt(self.k))

    def target_factor(self) -> float:
        return 1.0  # spectral norm <= Frobenius norm = coordinate norm

    def random_point(self, rng) -> np.ndarray:
        # drawn in coordinates, not matrix entries: seeded reports depend on this draw
        v = complex_gaussian(rng, self.dim)
        n = self.norm(v)
        return v / n if n > 0 else v


class CompositeSumBall:
    """Unit ball {|lambda| + ||a|| <= 1} of the l1-composite norm.

    Linear functionals attain their maximum at an extreme point: either the
    adjoined-unit direction or a base-ball maximizer.
    """

    def __init__(self, base_ball):
        self.base = base_ball
        self.dim = base_ball.dim + 1
        self.exact = base_ball.exact

    def maximize(self, c: np.ndarray):
        scalar_val = float(abs(c[0]))
        base_val, base_x = self.base.maximize(c[1:])
        coords = np.zeros(self.dim, dtype=complex)
        if scalar_val >= base_val:
            coords[0] = np.conj(c[0]) / scalar_val if scalar_val > 0 else 0.0
            return scalar_val, coords
        coords[1:] = base_x
        return base_val, coords

    def norm(self, coords: np.ndarray):
        value = np.abs(coords[..., 0]) + self.base.norm(coords[..., 1:])
        return float(value) if coords.ndim == 1 else value

    def dual_vector(self, z: np.ndarray) -> np.ndarray:
        # the dual norm is max(|c_0|, ||c'||_*): norm the larger part
        c = np.zeros(self.dim, dtype=complex)
        if abs(z[0]) >= self.base.norm(z[1:]):
            c[0] = np.conj(z[0]) / abs(z[0]) if abs(z[0]) > 0 else 0.0
        else:
            c[1:] = self.base.dual_vector(z[1:])
        return c

    def coords_factor(self) -> float:
        return max(1.0, self.base.coords_factor())

    def target_factor(self) -> float:
        return float(np.sqrt(1.0 + self.base.target_factor() ** 2))

    def random_point(self, rng) -> np.ndarray:
        t = rng.uniform(0.0, 1.0)
        coords = np.zeros(self.dim, dtype=complex)
        phase = np.exp(2j * np.pi * rng.uniform())
        coords[0] = t * phase
        coords[1:] = (1.0 - t) * self.base.random_point(rng)
        return coords


# -- structural recognition -----------------------------------------------------


def _is_commutative(algebra: Algebra) -> bool:
    return bool(np.abs(algebra.structure - np.swapaxes(algebra.structure, 0, 1)).max() < 1e-10)


def minimal_idempotent_frame(algebra: Algebra):
    """Columns = coordinates of minimal orthogonal idempotents summing to 1.

    Works structurally (no realization needed): a generic element of a
    commutative semisimple algebra has simple multiplication spectrum, and
    the normalized eigenvectors of its multiplication operator are the
    component idempotents.  Returns None when recovery fails.
    """
    d = algebra.dim
    if not algebra.is_unital or not _is_commutative(algebra):
        return None
    rng = stream(_FRAME_SEED, d)
    for _ in range(4):
        g = complex_gaussian(rng, d)
        lmat = algebra.left_mult_matrix(g)
        eigvals, eigvecs = np.linalg.eig(lmat)
        if np.min(np.abs(eigvals[:, None] - eigvals[None, :]) + np.eye(d)) < 1e-6:
            continue  # spectrum not simple for this sample; retry
        frame = np.zeros((d, d), dtype=complex)
        ok = True
        for i in range(d):
            v = eigvecs[:, i]
            w = algebra.multiply_coords(v, v)
            denom = np.vdot(v, v)
            lam = np.vdot(v, w) / denom
            if abs(lam) < 1e-10:
                ok = False
                break
            p = v / lam
            if np.abs(algebra.multiply_coords(p, p) - p).max() > 1e-8:
                ok = False
                break
            frame[:, i] = p
        if not ok:
            continue
        # orthogonality and partition of the identity
        for i in range(d):
            for j in range(d):
                if i != j and np.abs(algebra.multiply_coords(frame[:, i], frame[:, j])).max() > 1e-8:
                    ok = False
        if not ok or np.abs(frame.sum(axis=1) - algebra.unit_coords).max() > 1e-8:
            continue
        return frame
    return None


def ball_for(algebra: Algebra):
    """Unit-ball optimizer for a slot in ``algebra`` (cached).

    The algebra's ``unit_ball``, with two exceptions: a unitization takes the
    composite ball over its base's slot ball, and a spectral algebra with
    exact steps whose realization does not span M_k takes the cheaper box
    in its minimal idempotents when it is commutative (they are self-adjoint,
    since the span is adjoint-closed).  Spans that are not adjoint-closed
    keep the inscribed-Euclidean steps of their ``SpectralBall``.
    """
    cached = algebra._cache.get("ball")
    if cached is not None:
        return cached
    ball = _build_ball(algebra)
    algebra._cache["ball"] = ball
    return ball


def _build_ball(algebra: Algebra):
    if algebra.norm_mode == "unitization-composite":
        return CompositeSumBall(ball_for(algebra.base))
    ball = algebra.unit_ball
    if isinstance(ball, SpectralBall) and ball.exact and ball.dim < ball.k * ball.k:
        frame = minimal_idempotent_frame(algebra)
        if frame is not None:
            return BoxBall(frame)
    return ball


# -- the estimator ----------------------------------------------------------------


def _unfolding_upper(tensor: np.ndarray) -> float:
    best = np.inf
    n_axes = tensor.ndim
    for axis in range(n_axes):
        mat = np.moveaxis(tensor, axis, 0).reshape(tensor.shape[axis], -1)
        sigma = np.linalg.svd(mat, compute_uv=False)[0] if mat.any() else 0.0
        best = min(best, float(sigma))
    return best


def _contract_all_but(tensor: np.ndarray, dual: np.ndarray, xs: list, skip: int) -> np.ndarray:
    """Gradient functional coefficients for slot ``skip``."""
    out = np.tensordot(dual, tensor, axes=(0, 0))
    for s, x in enumerate(xs):
        if s == skip:
            continue
        # slots are consumed in ascending order, so the current slot sits at
        # axis 0 until the skipped slot is passed, then at axis 1
        axis = 0 if s < skip else 1
        out = np.tensordot(out, x, axes=(axis, 0))
    return out


def _apply_slots(tensor: np.ndarray, xs: list) -> np.ndarray:
    out = tensor
    for x in xs:
        out = np.tensordot(out, x, axes=(1, 0))
    return out


def _svd_start(tensor: np.ndarray, balls) -> list:
    """Deterministic start from leading singular vectors of slot unfoldings."""
    xs = []
    for s, ball in enumerate(balls):
        axis = s + 1
        mat = np.moveaxis(tensor, axis, 0).reshape(tensor.shape[axis], -1)
        u, _, _ = np.linalg.svd(mat, full_matrices=False)
        x = np.conj(u[:, 0])
        n = ball.norm(x)
        xs.append(x / n if n > 0 else x)
    return xs


def estimate_tensor_norm(
    tensor: np.ndarray,
    slot_balls,
    target,
    restarts: int = DEFAULT_RESTARTS,
    sweeps: int = DEFAULT_SWEEPS,
    seed: int = 0,
) -> DefectEstimate:
    """Interval estimate of sup ||T(x_1..x_n)|| over the slot unit balls.

    ``target`` is the unit ball whose norm measures the values (the target
    algebra's ``unit_ball``).  Restart r > 0 starts slot s from
    ``stream(seed, r, s)``.
    """
    arity = tensor.ndim - 1
    if arity < 1:
        raise DomainError("tensor must have at least one input slot")
    if not tensor.any():
        witness = [np.zeros(b.dim, dtype=complex) for b in slot_balls]
        return DefectEstimate(0.0, 0.0, witness, 0, seed)

    upper = _unfolding_upper(tensor) * target.target_factor()
    for ball in slot_balls:
        upper *= ball.coords_factor()

    if restarts == 0:
        # upper-only mode: the unfolding bound needs no witness search
        witness = [np.zeros(b.dim, dtype=complex) for b in slot_balls]
        return DefectEstimate(0.0, float(upper), witness, 0, seed)

    best_val = -1.0
    best_xs = None
    for r in range(restarts):
        if r == 0:
            xs = _svd_start(tensor, slot_balls)
        else:
            xs = [
                slot_balls[s].random_point(stream(seed, r, s))
                for s in range(arity)
            ]
        val, xs = _sweep(tensor, slot_balls, target, xs, sweeps)
        if val > best_val + TIE_TOL:
            best_val, best_xs = val, xs
    # the witness certifies the lower bound; re-evaluate to be safe
    lower = target.norm(_apply_slots(tensor, best_xs))
    return DefectEstimate(float(lower), float(upper), best_xs, restarts, seed)


def _sweep(tensor, balls, target, xs, sweeps):
    xs = [x.copy() for x in xs]
    z = _apply_slots(tensor, xs)
    best_val = target.norm(z)
    best_xs = [x.copy() for x in xs]
    prev = best_val
    for _ in range(sweeps):
        dual = target.dual_vector(z)
        for s in range(len(xs)):
            g = _contract_all_but(tensor, dual, xs, s)
            val, xnew = balls[s].maximize(g)
            if balls[s].exact or val >= abs(g @ xs[s]):
                xs[s] = xnew
        z = _apply_slots(tensor, xs)
        v = target.norm(z)
        if v > best_val:
            best_val = v
            best_xs = [x.copy() for x in xs]
        if abs(v - prev) < SWEEP_TOL:
            break
        prev = v
    return best_val, best_xs
