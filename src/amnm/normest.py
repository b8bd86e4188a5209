"""Certified estimation of multilinear operator norms.

Each algebra has one unit ball, ``Algebra.unit_ball`` (Euclidean, spectral,
a box in minimal idempotents or a composite), which an estimate reads for its
slots and its target norm alike.  Norms are reported as intervals
[lower, upper]:

* ``lower`` is the value achieved by an explicit witness in the unit balls,
  found by alternating maximization.  Each partial step maximizes a linear
  functional over one slot's unit ball in closed form (a singular-vector
  step on Euclidean balls, a phase per idempotent on boxes, the polar factor
  of the gradient functional on spectral balls).  The polar step is exact on
  every realization whose span is closed under adjoints (a *-subalgebra of
  M_k, unital or not); other spans take improving steps over the inscribed
  Euclidean ball.
* ``upper`` is the smallest spectral norm over the tensor unfoldings,
  converted between norms by the per-slot equivalence factors (for a
  spectral slot, the square root of the largest rank in its span).

Restart 0 of an estimate starts from the leading singular vectors of the
unfoldings and restart r > 0 draws its start point from the stream
(seed, r, slot), so enlarging the restart budget never changes earlier
restarts' starts and never decreases the lower bound beyond rounding (the
batch below can end restart 0 an ulp apart from a one-row search).

The upper bound needs no search, so it is computed first.  It is the
unfolding bound times the equivalence factor F of the target and the slots,
which the estimate carries as ``factor``.  A caller that will compare the
estimate with a bound of its own passes that bound, with its rounding slack
(``claim_limit``), as ``claim``; the estimate carries it and reads the
verdict from it: ``passed`` (not falsified) when the lower meets it,
``proved`` when the upper does.  An estimate with no claim is bracketed
instead, met once ``upper <= F * lower``: the interval's ratio is then at
most F, the conversion slack that the upper carries anyway (``k`` for a
spectral arity-2 estimate on ``M_k``, 1 on Euclidean balls, where only
``lower == upper`` meets it).

The cheap stage decides both: restart 0 for at most ``PROVED_SWEEPS``
sweeps.  It runs when the estimate has no claim or its upper already meets
the claim (no budget could falsify it then), and it ends the estimate when
its witness closes the bracket or keeps the claim proved.  Otherwise the
full budget runs from the start, and the estimate has the bits of
``_search`` at that budget; the cheap stage's few sweeps were spent on top.
The cheap stage is a prefix of the full search (its first restart, its
first sweeps), so a larger budget still never lowers the lower bound
beyond that rounding.

The restarts sweep together as one batch: every ball step acts row by row
on stacked (restarts, dim) arrays, and each restart leaves the batch at its
own stopping sweep, so the streams and the winner (the first restart to
lead by more than ``TIE_TOL``) are those of restarts run one by one.  Each
evaluation of the target gives the value's norm and its norming functional
(the next sweep's dual) from one factorization, ``norm_and_dual``.

``estimate_tensor_norms`` estimates N tensors of one shape over the same
balls, each with its own seed and claim, and ``estimate_tensor_norm`` is its
N = 1 call.  Their cheap stages sweep together, one row per tensor held as a
(1, dim) batch of its own with its own tensor, so every product of a row is
the one-row product of its call alone (a one-row and a many-row matrix
product need not round alike); their full searches run one at a time.

A spectral step on M_k with k >= 3 is one stacked SVD.  On 2x2 realizations
the steps are closed forms, element-wise over the rows.  For M with
singular values s1 >= s2, F = |M|_F^2 and row Gram matrix
M M^H = [[p, g], [conj g, r]]:

* s1^2 = (p + r)/2 + hypot((p - r)/2, |g|) and the nuclear norm
  s1 + s2 = sqrt(F + 2 |det M|) are sums of non-negative terms, so they
  are accurate to a few ulps (the textbook
  s1 = (sqrt(F + 2|det|) + sqrt(F - 2|det|)) / 2 cancels as s2 -> s1);
* the polar factor is U = (M + (det/|det|) adj(M)^H) / (s1 + s2), as
  (det/|det|) adj(M)^H = u diag(s2, s1) v^H; a singular M gets the partial
  isometry M / s1.  A determinant phase rounded by an angle e gives
  u diag(s1 + w s2, s2 + w s1) v^H / (s1 + s2) with w = exp(i e), still a
  contraction, whose value is lower by at most 4 s2: below rounding
  wherever det is so small against F that its phase is unreliable;
* the top singular pair is u1 v1^H = P M / s1 with P = (I + N)/2 the top
  eigenprojector of M M^H, N = [[p - r, 2g], [2 conj g, r - p]] / (2 hypot).
  N has entries of modulus at most 1, so P is rounded by a few ulps in
  absolute terms, which moves <u1 v1^H, M> and its dual norm by a few ulps
  relative however close s2 is to s1 (at s2 = s1, P = I/2 is exact).

Rows whose squares would under- or overflow are first scaled by an exact
power of two (``_in_safe_range``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, FalsificationError
from .jsonio import complex_to_json
from .rng import complex_gaussian, stream

DEFAULT_RESTARTS = 32
DEFAULT_SWEEPS = 200
SWEEP_TOL = 1e-12
TIE_TOL = 1e-12
# the cheap stage, restart 0 alone: the witness search of an estimate with
# no claim, or whose upper proves its claim
PROVED_SWEEPS = 3


def claim_limit(bound: float) -> float:
    """The claim of a comparison with ``bound``: the bound with rounding
    slack."""
    return bound * (1 + 1e-9) + 1e-15


@dataclass
class DefectEstimate:
    """Certified interval for a multilinear norm.

    ``lower`` is achieved by ``witness`` (one coordinate vector per slot);
    ``upper`` dominates the true supremum.  ``claim`` is the limit the
    caller compares the estimate with, if any.  ``factor`` is the
    equivalence factor F by which the upper converts its unfolding bound
    (1 where the value is exact); None only for intervals built by hand.
    """

    lower: float
    upper: float
    witness: list[np.ndarray] | None = None
    restarts_used: int = 0
    seed: int = 0
    claim: float | None = None
    factor: float | None = None

    def __post_init__(self):
        # relative slack for rounding; the absolute slack covers only
        # subnormal rounding, so the guard holds at every scale
        if self.lower > self.upper * (1.0 + 1e-9) + _TINY:
            raise FalsificationGuard(self.lower, self.upper)
        self.upper = max(self.upper, self.lower)

    @property
    def passed(self) -> bool:
        """The claim is not falsified: the certified lower meets it."""
        return bool(self.lower <= self.claim)

    @property
    def proved(self) -> bool:
        """No budget could falsify the claim: the certified upper meets it."""
        return bool(self.upper <= self.claim)

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
        self.lower, self.upper = lower, upper

    def __reduce__(self):
        # pickle re-creates an exception from its args, here only the message
        return type(self), (self.lower, self.upper)


# -- unit balls ----------------------------------------------------------------
#
# Every ball is some algebra's ``unit_ball``, which serves both as a slot
# ball and as the target norm of an estimate.  Each has ``norm``,
# ``maximize`` (the best value of a linear functional over the ball and a
# maximizer), ``norm_and_dual`` (the norm and a norming functional of dual
# norm 1, from one factorization), ``coords_factor`` (the l2 radius of the
# ball in coordinates), ``target_factor`` (norm <= factor * l2) and
# ``random_points`` (one start point per generator, stacked).  ``norm``,
# ``maximize`` and ``norm_and_dual`` act row by row on vectors stacked over
# leading axes; a single vector is one row.  Balls are cached per algebra and
# shared, so their arrays are read-only.

# Singular values of a span's joint column (row) matrix at or below this are
# not counted in its rank; ``SpectralBall`` charges their mass to the factor.
RANK_TOL = 1e-8

_TINY = np.finfo(float).tiny
_TINY_SCALE = 2.0**600
# below this norm squared entries can underflow (they do below about 1e-154)
_SMALL_NORM = 2.0**-500


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _divide(v: np.ndarray, size: np.ndarray) -> np.ndarray:
    """v / size, with 1 in place of a zero size.

    Complex division multiplies by the reciprocal of the divisor, which
    overflows to inf below the smallest normal float, so subnormal sizes
    and their v are first scaled up by a power of two (exactly).
    """
    tiny = (size > 0) & (size < _TINY)
    if np.any(tiny):
        v = np.where(tiny, v * _TINY_SCALE, v)
        size = np.where(tiny, size * _TINY_SCALE, size)
    return v / np.where(size > 0, size, 1.0)


def _conj_phase(v: np.ndarray, size: np.ndarray) -> np.ndarray:
    """conj(v) / size, and conj(v) where size is 0 (then v is 0, unless its
    size underflowed)."""
    return _divide(np.conj(v), size)


def _l2_norm(c: np.ndarray, axis):
    """``np.linalg.norm(c, axis=axis)``, safe from under- and overflow.

    The norm squares the entries, so rows whose norm falls below
    ``_SMALL_NORM`` are normed again after scaling by 2**600, and rows whose
    squares overflow (an infinite norm) after scaling by 2**-600; both
    scalings are exact, and every other row keeps its bits.
    """
    with np.errstate(over="ignore"):
        value = np.linalg.norm(c, axis=axis)
    small = value < _SMALL_NORM
    large = np.isinf(value)
    if np.any(small) or np.any(large):
        scale = np.where(small, _TINY_SCALE, np.where(large, 1.0 / _TINY_SCALE, 1.0))
        value = np.linalg.norm(c * (scale if axis is None else scale[..., None]), axis=axis) / scale
    return value


def _l2_step(c: np.ndarray):
    value = _l2_norm(c, -1)
    return value, _conj_phase(c, value[..., None])


# -- closed-form 2x2 spectral steps ----------------------------------------------
#
# The formulas are in the module docstring; a 2x2 matrix is held as its
# row-major entries (..., 4).  Squares under- and overflow far inside the
# float range.  A batch whose entries all have modulus at most 2^100 and
# whose rows all have F >= 2^-200 is computed as it is; otherwise the rows
# whose largest entry modulus leaves [2^-100, 2^100] are multiplied by the
# power of two that brings it into [1/2, 1) (exact; rows of subnormals stop
# at a factor of 2^1020, which leaves it above 2^-54), their results are
# scaled back with ``ldexp``, and the other rows keep their bits.  Either
# way F >= 2^-200, so a divisor (|det|, or the hypot of the Gram form) below
# the smallest normal float belongs to a negligible s2, or to a negligible
# gap s1^2 - s2^2; it is raised to that float, which keeps the polar factor
# a contraction and the projector's trace at 1.

_LOW_ENTRY = 2.0**-100
_HIGH_ENTRY = 2.0**100
_LOW_SQUARE = 2.0**-200
_EXP_CLIP = 1020
_ADJUGATE_SIGN = np.array([1.0, -1.0, -1.0, 1.0])
_IDENTITY_2X2 = np.array([1.0, 0.0, 0.0, 1.0])


def _in_safe_range(kernel, e: np.ndarray):
    """``kernel(e, |e|)`` -> (F, value, *rest), ``value`` of degree 1 in the
    entries and ``rest`` of degree 0; returns [value, *rest], computing the
    rows out of the safe range after an exact scaling."""
    mags = np.abs(e)
    if mags.max() <= _HIGH_ENTRY:
        f, *out = kernel(e, mags)
        if f.min() >= _LOW_SQUARE:
            return out
    big = mags.max(axis=-1)
    exp = np.where((big >= _LOW_ENTRY) & (big <= _HIGH_ENTRY), 0,
                   np.clip(np.frexp(big)[1], -_EXP_CLIP, _EXP_CLIP))
    scale = np.ldexp(1.0, -exp)[..., None]
    _, value, *rest = kernel(e * scale, mags * scale)
    return [np.ldexp(value, exp), *rest]


def _gram_2x2(e: np.ndarray, mags: np.ndarray):
    """F, (p - r)/2, g and hypot((p - r)/2, |g|) of the row Gram matrix,
    and s1."""
    sq = mags * mags
    pr = sq[..., 0::2] + sq[..., 1::2]
    p, r = pr[..., 0], pr[..., 1]
    gc = e[..., :2] * np.conj(e[..., 2:])
    g = gc[..., 0] + gc[..., 1]
    half = 0.5 * (p - r)
    h = np.hypot(half, np.abs(g))
    f = p + r
    return f, half, g, h, np.sqrt(0.5 * f + h)


def _top_2x2(e: np.ndarray, mags: np.ndarray):
    """F and the largest singular value of each row's matrix."""
    f, _, _, _, top = _gram_2x2(e, mags)
    return f, top


def _polar_2x2(e: np.ndarray, mags: np.ndarray):
    """F, the nuclear norm and the adjoint polar factor U^H (row-major) of
    each row's matrix: tr(M U^H) is the nuclear norm and ||U^H|| <= 1.  A
    zero row gets the identity."""
    f = (mags * mags).sum(axis=-1)
    det = e[..., 0] * e[..., 3] - e[..., 1] * e[..., 2]
    size = np.abs(det)
    nuclear = np.sqrt(f + 2.0 * size)
    phase = np.conj(det) / np.maximum(size, _TINY)
    transpose = np.swapaxes(e.reshape(e.shape[:-1] + (2, 2)), -1, -2).reshape(e.shape)
    # M^H + phase adj(M); reversed, M^T is [d, b, c, a]
    polar = np.conj(transpose) + phase[..., None] * (transpose[..., ::-1] * _ADJUGATE_SIGN)
    polar /= np.maximum(nuclear, _TINY)[..., None]
    if not nuclear.all():
        polar = np.where((nuclear == 0)[..., None], _IDENTITY_2X2, polar)
    return f, nuclear, polar


def _top_pair_2x2(e: np.ndarray, mags: np.ndarray):
    """F, s1 and conj(u1 v1^H) (row-major) of each row's matrix; 0 for a
    zero row."""
    f, half, g, h, top = _gram_2x2(e, mags)
    # P = (I + N)/2 with N = [[x, y], [conj y, -x]]
    h = np.maximum(h, _TINY)
    x = (half / h)[..., None]
    y = (g / h)[..., None]
    rows = e[..., :2], e[..., 2:]
    pm = np.concatenate([(1.0 + x) * rows[0] + y * rows[1], np.conj(y) * rows[0] + (1.0 - x) * rows[1]], axis=-1)
    return f, top, np.conj(pm) / (2.0 * np.maximum(top, _TINY))[..., None]


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
            return float(_l2_norm(coords, None))
        return _l2_norm(coords, -1)

    def norm_and_dual(self, z: np.ndarray):
        return _l2_step(z)  # the l2 ball is self-dual

    def coords_factor(self) -> float:
        return 1.0

    def target_factor(self) -> float:
        return 1.0

    def random_points(self, rngs) -> np.ndarray:
        points = [complex_gaussian(rng, self.dim) for rng in rngs]
        # normed one by one: a single-vector norm keeps its own rounding
        return np.stack([_divide(v, np.linalg.norm(v)) for v in points])


class BoxBall:
    """Sup-norm ball in a frame of orthogonal self-adjoint idempotents.

    Elements x = sum_i t_i p_i with max |t_i| <= 1; columns of ``frame`` are
    the idempotent coordinates.  The unit ball of C^k and of every other
    commutative, adjoint-closed spectral span short of M_k: its minimal
    idempotents are orthogonal projections, so max |t_i| is the spectral
    norm, which is at most the Frobenius norm, i.e. the coordinate l2 norm.
    """

    exact = True

    def __init__(self, frame: np.ndarray):
        self.frame = _read_only(np.array(frame))
        self.dim = frame.shape[0]
        self._inv = _read_only(np.linalg.inv(frame))

    def maximize(self, c: np.ndarray):
        s = c @ self.frame
        mag = np.abs(s)
        return mag.sum(axis=-1), _conj_phase(s, mag) @ self.frame.T

    def norm(self, coords: np.ndarray):
        top = np.abs(coords @ self._inv.T).max(axis=-1)
        return float(top) if coords.ndim == 1 else top

    def norm_and_dual(self, z: np.ndarray):
        # the largest |t_i|, normed by the phased row i of the frame's inverse,
        # a functional of dual norm 1 over the box
        t = z @ self._inv.T
        mag = np.abs(t)
        i = mag.argmax(axis=-1)[..., None]
        top = np.take_along_axis(mag, i, -1)
        return top[..., 0], _conj_phase(np.take_along_axis(t, i, -1), top) * self._inv[i[..., 0]]

    def coords_factor(self) -> float:
        return self._frame_factor

    @cached_property
    def _frame_factor(self) -> float:
        per_col = np.linalg.norm(self.frame, axis=0).sum()
        sigma = np.linalg.svd(self.frame, compute_uv=False)[0] * np.sqrt(self.frame.shape[1])
        return float(min(per_col, sigma))

    def target_factor(self) -> float:
        return 1.0  # box norm = spectral norm <= Frobenius norm = coordinate norm

    def random_points(self, rngs) -> np.ndarray:
        return np.stack([self._random_point(rng) for rng in rngs])

    def _random_point(self, rng) -> np.ndarray:
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

    For k = 2, ``maximize``, ``norm`` and ``norm_and_dual`` take the closed
    forms of the 2x2 steps instead of LAPACK; for k >= 3 each call is one
    stacked SVD.
    """

    def __init__(self, realization: np.ndarray):
        self.realization = realization
        self.dim = realization.shape[0]
        self.k = realization.shape[1]
        self._flat = realization.reshape(self.dim, -1)
        self._adjoints = _read_only(np.conj(np.swapaxes(realization, 1, 2)).reshape(self.dim, -1))
        self._conj_flat_t = _read_only(np.conj(self._flat)).T
        # the realized basis is Frobenius-orthonormal, so it spans M_k iff dim = k^2
        self.exact = self.dim == self.k * self.k or self._adjoint_closed()

    def _adjoint_closed(self) -> bool:
        adjoints = np.conj(np.swapaxes(self.realization, 1, 2))
        coords = np.einsum("jab,iab->ij", np.conj(self.realization), adjoints)
        residual = adjoints - np.tensordot(coords, self.realization, axes=(1, 0))
        return bool(np.abs(residual).max() < 1e-10)

    def _matrices(self, coords: np.ndarray) -> np.ndarray:
        return (coords @ self._flat).reshape(coords.shape[:-1] + (self.k, self.k))

    def _coords_of(self, mats: np.ndarray) -> np.ndarray:
        # Frobenius-orthonormal basis: coordinates are trace inner products,
        # i.e. the Hilbert-Schmidt projection onto the realized span.
        return mats.reshape(mats.shape[:-2] + (-1,)) @ self._conj_flat_t

    def maximize(self, c: np.ndarray):
        if not self.exact:
            _, x = _l2_step(c)
            n = self.norm(x)
            x = _divide(x, np.expand_dims(n, -1))
            return np.abs(np.sum(c * x, axis=-1)), x
        m = c @ self._adjoints
        if self.k == 2:
            nuclear, polar = _in_safe_range(_polar_2x2, m)
            return nuclear, polar @ self._conj_flat_t
        u, sing, vh = np.linalg.svd(m.reshape(c.shape[:-1] + (self.k, self.k)))
        polar = np.conj(np.swapaxes(u @ vh, -1, -2))
        return sing.sum(axis=-1), self._coords_of(polar)

    def norm(self, coords: np.ndarray):
        if self.k == 2:
            top = _in_safe_range(_top_2x2, coords @ self._flat)[0]
        else:
            top = np.linalg.svd(self._matrices(coords), compute_uv=False)[..., 0]
        return float(top) if coords.ndim == 1 else top

    def norm_and_dual(self, z: np.ndarray):
        if self.k == 2:
            top, pair = _in_safe_range(_top_pair_2x2, z @ self._flat)
            return top, pair @ self._flat.T
        mats = self._matrices(z)
        u, sing, vh = np.linalg.svd(mats)
        # coordinates of the functional x -> <p, x q> of the top singular pair
        pair = np.conj(u[..., :, :1] * vh[..., :1, :])
        coords = pair.reshape(pair.shape[:-2] + (-1,)) @ self._flat.T
        return sing[..., 0], np.where(mats.any(axis=(-2, -1))[..., None], coords, 0.0)

    def coords_factor(self) -> float:
        return self._rank_factor

    @cached_property
    def _rank_factor(self) -> float:
        """Bound on ||x||_F / ||x|| over the span: sqrt of the largest rank.

        Every element's rank is at most the dimension r of the span's joint
        column space (likewise of its joint row space), and
        ||x||_F <= sqrt(rank x) ||x||.  Singular values of the joint matrix at
        or below ``RANK_TOL`` are not counted; with e2 the sum of their
        squares, ||x||_F^2 <= r ||x||^2 + e2 ||x||_F^2, so sqrt(r / (1 - e2))
        stays sound whatever the tolerance.
        """
        best = float(self.k)
        for joint in (np.concatenate(self.realization, axis=1), np.concatenate(self.realization, axis=0)):
            sigma = np.linalg.svd(joint, compute_uv=False)
            tail = float(np.sum(sigma[sigma <= RANK_TOL] ** 2))
            best = min(best, np.count_nonzero(sigma > RANK_TOL) / (1.0 - tail))
        return float(np.sqrt(best))

    def target_factor(self) -> float:
        return 1.0  # spectral norm <= Frobenius norm = coordinate norm

    def random_points(self, rngs) -> np.ndarray:
        # drawn in coordinates, not matrix entries: seeded reports depend on
        # this draw; one stacked SVD norms every point
        v = np.stack([complex_gaussian(rng, self.dim) for rng in rngs])
        return _divide(v, self.norm(v)[:, None])


class CompositeSumBall:
    """Unit ball {|lambda| + ||a|| <= 1} of the l1-composite norm.

    Linear functionals attain their maximum at an extreme point: either the
    adjoined-unit direction or a base-ball maximizer, chosen per row.
    """

    def __init__(self, base_ball):
        self.base = base_ball
        self.dim = base_ball.dim + 1
        self.exact = base_ball.exact

    def maximize(self, c: np.ndarray):
        scalar_val = np.abs(c[..., 0])
        base_val, base_x = self.base.maximize(c[..., 1:])
        scalar = scalar_val >= base_val
        coords = np.zeros(c.shape, dtype=complex)
        coords[..., 0] = np.where(scalar, _conj_phase(c[..., 0], scalar_val), 0.0)
        coords[..., 1:] = np.where(scalar[..., None], 0.0, base_x)
        # [()] turns the value of a single vector into a scalar
        return np.where(scalar, scalar_val, base_val)[()], coords

    def norm(self, coords: np.ndarray):
        value = np.abs(coords[..., 0]) + self.base.norm(coords[..., 1:])
        return float(value) if coords.ndim == 1 else value

    def norm_and_dual(self, z: np.ndarray):
        # the dual norm is max(|c_0|, ||c'||_*), so the phase of z_0 and a
        # norming functional of z' together norm z, each part at dual norm 1
        scalar_val = np.abs(z[..., 0])
        base_val, base_dual = self.base.norm_and_dual(z[..., 1:])
        c = np.empty(z.shape, dtype=complex)
        c[..., 0] = _conj_phase(z[..., 0], scalar_val)
        c[..., 1:] = base_dual
        return scalar_val + base_val, c

    def coords_factor(self) -> float:
        return max(1.0, self.base.coords_factor())

    def target_factor(self) -> float:
        return float(np.sqrt(1.0 + self.base.target_factor() ** 2))

    def random_points(self, rngs) -> np.ndarray:
        # each generator draws t and the phase before its base point
        t = [rng.uniform(0.0, 1.0) for rng in rngs]
        phase = [np.exp(2j * np.pi * rng.uniform()) for rng in rngs]
        coords = np.zeros((len(rngs), self.dim), dtype=complex)
        coords[:, 0] = [ti * p for ti, p in zip(t, phase)]
        coords[:, 1:] = (1.0 - np.array(t))[:, None] * self.base.random_points(rngs)
        return coords


# -- the estimator ----------------------------------------------------------------


def _unfolding_uppers(tensors: np.ndarray) -> list[float]:
    """The smallest spectral norm over the unfoldings of each of the tensors
    stacked along the leading axis, one stacked SVD per unfolding."""
    n, axes = len(tensors), range(1, tensors.ndim)
    best = np.full(n, np.inf)
    for axis in axes:
        # the unfolding's columns in the order of the remaining axes
        order = (0, axis, *(a for a in axes if a != axis))
        mats = tensors.transpose(order).reshape(n, tensors.shape[axis], -1)
        best = np.minimum(best, np.linalg.svd(mats, compute_uv=False)[:, 0])
    return np.where(tensors.reshape(n, -1).any(axis=1), best, 0.0).tolist()


def _apply_slots(lead: np.ndarray, xs: list) -> np.ndarray:
    """T(x_1, ..., x_n) from ``lead``, T as a matrix with its first input
    slot leading; the slot vectors may be stacked over a leading axis."""
    out = xs[0] @ lead
    for x in xs[1:]:
        out = (x[..., None, :] @ out.reshape(x.shape[:-1] + (x.shape[-1], -1)))[..., 0, :]
    return out


def _gradient(w: np.ndarray, xs: list, skip: int) -> np.ndarray:
    """Gradient functional coefficients for slot ``skip``, one per row: the
    rows of ``w`` (the dual contracted with the tensor) applied to every
    other slot's point."""
    g = w
    for x in reversed(xs[skip + 1:]):
        g = (g.reshape(x.shape[:-1] + (-1, x.shape[-1])) @ x[..., None])[..., 0]
    for x in xs[:skip]:
        g = (x[..., None, :] @ g.reshape(x.shape[:-1] + (x.shape[-1], -1)))[..., 0, :]
    return g


def _svd_start(tensors: np.ndarray, balls) -> list:
    """Deterministic starts from the leading singular vectors of the slot
    unfoldings of the stacked tensors, (N, dim) per slot."""
    n = len(tensors)
    xs = []
    for s, ball in enumerate(balls):
        axis = s + 2
        mats = np.moveaxis(tensors, axis, 1).reshape(n, tensors.shape[axis], -1)
        u, _, _ = np.linalg.svd(mats, full_matrices=False)
        # normed one by one: a single vector's norm keeps its own rounding
        norms = [(x, ball.norm(x)) for x in np.conj(u[:, :, 0])]
        xs.append(np.stack([x / size if size > 0 else x for x, size in norms]))
    return xs


def _converted(value: float, slot_balls, target) -> float:
    """``value`` times the target's and then each slot's equivalence factor,
    in the order the upper has always been rounded in."""
    value *= target.target_factor()
    for ball in slot_balls:
        value *= ball.coords_factor()
    return value


def estimate_tensor_norm(
    tensor: np.ndarray,
    slot_balls,
    target,
    restarts: int = DEFAULT_RESTARTS,
    sweeps: int = DEFAULT_SWEEPS,
    seed: int = 0,
    claim: float | None = None,
) -> DefectEstimate:
    """Interval estimate of sup ||T(x_1..x_n)|| over the slot unit balls.

    ``target`` is the unit ball whose norm measures the values (the target
    algebra's ``unit_ball``).  Restart 0 starts from the leading singular
    vectors of the unfoldings, restart r > 0 starts slot s from
    ``stream(seed, r, s)``; all restarts sweep together as one batch.
    ``claim`` is the limit the caller compares the estimate with, carried
    by the estimate: when the reported upper meets it, only the cheap stage
    of the search runs.  With no claim, the cheap stage ends the estimate
    once its upper is within its ``factor`` of its lower.  The N = 1 call
    of ``estimate_tensor_norms``.
    """
    return estimate_tensor_norms(tensor[None], slot_balls, target, restarts, sweeps, [seed], [claim])[0]


def estimate_tensor_norms(tensors: np.ndarray, slot_balls, target, restarts: int, sweeps: int, seeds,
                          claims) -> list[DefectEstimate]:
    """``estimate_tensor_norm`` of N tensors of one shape, stacked along the
    leading axis of ``tensors``, each with its own seed and claim.

    The uppers take one stacked SVD per unfolding, and the cheap stages of
    all N run as one batch, one row per tensor; every product of a row is
    taken as a one-row product of its own, so each estimate has the bits of
    its call alone.  An estimate the cheap stage does not end gets its full
    search alone.
    """
    if tensors.ndim < 3:
        raise DomainError("tensor must have at least one input slot")
    factor = _converted(1.0, slot_balls, target)
    uppers = [_converted(u, slot_balls, target) for u in _unfolding_uppers(tensors)]
    found, searched = [None] * len(tensors), []
    for i, tensor in enumerate(tensors):
        if restarts > 0 and tensor.any():
            searched.append(i)
        else:  # upper-only mode, or a zero tensor (upper 0): no witness search
            witness = [np.zeros(b.dim, dtype=complex) for b in slot_balls]
            found[i] = DefectEstimate(0.0, uppers[i], witness, 0, seeds[i], claims[i], factor)
    # a claim decides an estimate; the bracket decides an unclaimed one
    staged = [i for i in searched if claims[i] is None or uppers[i] <= claims[i]]
    if staged:
        cheap = _cheap_searches(tensors[staged], slot_balls, target, min(sweeps, PROVED_SWEEPS),
                                [seeds[i] for i in staged], [uppers[i] for i in staged])
        for i, est in zip(staged, cheap):
            est.claim, est.factor = claims[i], factor
            # the witness may lift the reported upper past the claim, or
            # fall short of the bracket
            if est.proved if est.claim is not None else est.lower * factor >= est.upper:
                found[i] = est
    for i in searched:
        if found[i] is None:
            found[i] = _search(tensors[i], slot_balls, target, restarts, sweeps, seeds[i], uppers[i])
            found[i].claim, found[i].factor = claims[i], factor
    return found


def _search(tensor, slot_balls, target, restarts, sweeps, seed, upper) -> DefectEstimate:
    """The witness search: ``restarts`` restarts of at most ``sweeps``
    sweeps, the winner's value as the lower bound."""
    starts = _svd_start(tensor[None], slot_balls)
    if restarts > 1:
        starts = [
            np.concatenate([x, ball.random_points([stream(seed, r, s) for r in range(1, restarts)])])
            for s, (ball, x) in enumerate(zip(slot_balls, starts))
        ]
    # built once per estimate: for arity >= 2 the reshape copies the tensor
    lead = np.moveaxis(tensor, 0, -1).reshape(tensor.shape[1], -1)
    values, iterates = _sweep(tensor.reshape(tensor.shape[0], -1), lead, slot_balls, target, starts, sweeps)
    # restarts are ranked in order: a later one wins only by more than TIE_TOL
    best = 0
    for r in range(1, restarts):
        if values[r] > values[best] + TIE_TOL:
            best = r
    return _witnessed(lead, [x[best] for x in iterates], target, restarts, seed, upper)


def _cheap_searches(tensors, slot_balls, target, sweeps, seeds, uppers) -> list:
    """Restart 0 of the search of each stacked tensor, for at most
    ``sweeps`` sweeps, all as one batch: row i holds tensor i and its points
    as (1, dim) arrays, so its products are one-row products."""
    n = len(tensors)
    starts = [x[:, None] for x in _svd_start(tensors, slot_balls)]
    leads = np.moveaxis(tensors, 1, -1).reshape(n, tensors.shape[2], -1)
    _, iterates = _sweep(tensors.reshape(n, tensors.shape[1], -1), leads, slot_balls, target, starts, sweeps)
    return [_witnessed(leads[i], [x[i, 0] for x in iterates], target, 1, seeds[i], uppers[i]) for i in range(n)]


def _witnessed(lead, witness, target, restarts, seed, upper) -> DefectEstimate:
    # the witness certifies the lower bound; re-evaluate to be safe
    lower = target.norm(_apply_slots(lead, witness))
    return DefectEstimate(float(lower), upper, witness, restarts, seed)


def _sweep(flat, lead, balls, target, xs, sweeps):
    """Alternating maximization of a batch of rows.

    A row is a restart of one tensor (``flat`` and ``lead`` are its
    matrices, and the points (rows, dim)), or restart 0 of a tensor of its
    own (both stacked one per row, and the points (rows, 1, dim)).  Returns
    every row's best value and best iterate.  Within a sweep the slots
    update in turn (Gauss-Seidel) against the dual functional that the
    previous target evaluation returned with its norm; a row leaves the batch
    at the sweep where its value moves by less than ``SWEEP_TOL``.
    """
    per_row = flat.ndim == 3
    xs = list(xs)
    best_val, dual = target.norm_and_dual(_apply_slots(lead, xs))
    best_val = best_val.reshape(-1)
    best_xs = [x.copy() for x in xs]
    prev = best_val.copy()
    rows = np.arange(len(prev))
    for _ in range(sweeps):
        w = dual @ flat
        for s, ball in enumerate(balls):
            g = _gradient(w, xs, s)
            val, xnew = ball.maximize(g)
            if not ball.exact:
                # inscribed steps are taken only where they do not lose value
                keep = val >= np.abs(np.sum(g * xs[s], axis=-1))
                xnew = np.where(keep[..., None], xnew, xs[s])
            xs[s] = xnew
        v, dual = target.norm_and_dual(_apply_slots(lead, xs))
        v = v.reshape(-1)
        gained = v > best_val[rows]
        best_val[rows[gained]] = v[gained]
        for best, x in zip(best_xs, xs):
            best[rows[gained]] = x[gained]
        live = ~(np.abs(v - prev) < SWEEP_TOL)
        if not live.all():
            if not live.any():
                break
            rows, v, dual = rows[live], v[live], dual[live]
            xs = [x[live] for x in xs]
            if per_row:
                flat, lead = flat[live], lead[live]
        prev = v
    return best_val, best_xs
