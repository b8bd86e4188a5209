"""Finite-dimensional normed algebras presented by structure constants.

An algebra is a basis e_1..e_d with product e_i e_j = sum_k c[i,j,k] e_k,
an (optional) identity element, and one of three norms:

* ``spectral``: largest singular value of the matrix realization; requires
  realizing matrices for the basis.
* ``frobenius``: Euclidean norm of the coordinate vector.  When a
  realization exists the basis is Frobenius-orthonormal, so this equals the
  Frobenius norm of the realized matrix.
* ``unitization-composite``: |lambda| + ||a|| for an element (lambda, a) of
  a unitization, using the base algebra's norm for a.

Each algebra object is checked once, at construction, and everything
downstream assumes the checks (``Algebra._check_invariants``): matrices
reproduce the structure constants (its realization, else its left-regular
matrices; a unitization's structure must be exactly that of its checked base
with the unit adjoined), the unit laws hold, ``||1|| = 1`` in spectral mode,
and unrealized algebras and unitizations pass a sampled submultiplicativity
check.
Algebras are immutable (their arrays are read-only), so one object may be
shared: the library constructors ``build_full_matrix_algebra`` and
``build_commutative_algebra`` build each (k, norm mode) once per process,
``unitize`` builds one unitization per base algebra, and ``opposite`` builds
an opposite once per algebra, with ``opposite(opposite(a)) is a``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ConfigError, DomainError
from .normest import BoxBall, CompositeSumBall, EuclideanBall, SpectralBall
from .rng import complex_gaussian, stream

ASSOC_TOL = 1e-9
UNIT_TOL = 1e-9
RANK_TOL = 1e-9
SUBMULT_TOL = 1e-9
_SUBMULT_SAMPLES = 200
_CHECK_SEED = 0x5EED  # fixed; construction-time checks must not consume user streams
_FRAME_SEED = 0xF4A3E  # fixed stream for structural idempotent recovery

NORM_MODES = ("spectral", "frobenius", "unitization-composite")


def _frozen(values) -> np.ndarray:
    """A read-only complex copy: algebras are shared, so their arrays must not change."""
    out = np.array(values, dtype=complex)
    out.flags.writeable = False
    return out


def _realization_tol(d: int, k: int) -> float:
    """eps such that a realization R_1..R_d in M_k whose Gram matrix and
    residuals E_ij = R_i R_j - sum_m c[i,j,m] R_m are within eps per entry
    passes the two checks it replaces.  To first order in eps (the Gram
    moves each step by a factor 1 + O(d eps)), ||E_ij||_F <= k eps and
    ||R_i|| <= ||R_i||_F = 1.  Associativity (|gap| <= 1e-9 at scale >= 1):
    as matrix products associate, sum_l gap[i,j,k,l] R_l is
    sum_m c[j,k,m] E_im + R_i E_jk - sum_m c[i,j,m] E_mk - E_ij R_k, and
    sum_m |c[i,j,m]| <= sqrt(d) ||R_i R_j - E_ij||_F, so
    |gap| <= 2 k (1 + sqrt d) eps.  Submultiplicativity (relative 1e-9): ab
    realizes to AB - sum a_i b_j E_ij, and |a|_1 |b|_1 <= d |a|_2 |b|_2 <=
    d k ||A|| ||B||, so ||ab|| <= ||a|| ||b|| (1 + d k^2 eps) in the spectral
    norm and the box (the realized spectral norm, see ``unit_ball``); the
    Frobenius coordinate norm is ||A||_F (1 +- d eps / 2) by the Gram, so
    there the factor is 1 + d (k + 3/2) eps.  The denominator below exceeds
    each first-order coefficient (d <= k^2) by more than the higher-order
    terms, and eps is below the 1e-9 reproduction and 1e-8 Gram tolerances
    realized algebras also had to pass (7.3e-13 at M_6): nothing they
    refused passes.
    """
    return min(ASSOC_TOL, SUBMULT_TOL) / (2 * k * (1 + np.sqrt(d)) + d * k * k)


class Algebra:
    """A finite-dimensional normed algebra over the complex numbers.

    ``kind`` holds a name, read only by ``__repr__``, and for a direct sum
    its ``summands``; everything else is read from the structure.
    """

    def __init__(
        self,
        structure: np.ndarray,
        unit_coords=None,
        norm_mode: str = "frobenius",
        realization=None,
        kind: dict | None = None,
        base: "Algebra | None" = None,
    ):
        structure = _frozen(structure)
        if structure.ndim != 3 or len(set(structure.shape)) != 1:
            raise ConfigError("structure tensor must be d x d x d")
        self.structure = structure
        self.dim = structure.shape[0]
        self.unit_coords = None if unit_coords is None else _frozen(unit_coords)
        if norm_mode not in NORM_MODES:
            raise ConfigError(f"unknown norm mode {norm_mode!r}")
        self.norm_mode = norm_mode
        self.realization = None if realization is None else _frozen(realization)
        self.kind = kind or {}
        self.base = base
        self._cache: dict = {}
        if norm_mode == "spectral" and self.realization is None:
            raise ConfigError("spectral mode requires a matrix realization")
        if norm_mode == "unitization-composite" and base is None:
            raise ConfigError("unitization-composite mode requires a base algebra")
        self._check_invariants()

    # -- construction-time invariants -------------------------------------

    def _check_invariants(self) -> None:
        c = self.structure
        d = self.dim
        if d == 0:
            return  # every invariant holds vacuously in the zero algebra
        if self.base is None:
            self._check_reproduction()
        # a unitization is exactly its checked base with the unit adjoined, so
        # its left-regular matrices reproduce its structure as closely as the
        # base's reproduce the base's, at the same scale
        elif self.realization is not None or not np.array_equal(c, _unitization_structure(self.base)):
            raise ConfigError("structure is not the unitization of its base")
        u = self.unit_coords
        if u is not None:
            if u.shape != (d,):
                raise ConfigError("unit coordinate vector has wrong length")
            # row j of each: 1 e_j and e_j 1
            lhs = (u @ c.reshape(d, d * d)).reshape(d, d)
            rhs = np.swapaxes(c, 1, 2) @ u
            if max(np.abs(lhs - np.eye(d)).max(), np.abs(rhs - np.eye(d)).max()) > UNIT_TOL:
                raise ConfigError("unit coordinates are not a two-sided identity")
            if self.norm_mode == "spectral" and abs(self.element_norm(u) - 1.0) > 1e-8:
                raise ConfigError("spectral mode requires ||1|| = 1")
        if self.realization is None or self.norm_mode == "unitization-composite":
            self._check_submultiplicative()

    def _check_reproduction(self) -> None:
        """Matrices m_i with m_i m_j = sum_k c[i,j,k] m_k: the realization,
        else the left-regular matrices (m_i y = e_i y) at the scale
        max(1, |c|max^2)."""
        c, d, m = self.structure, self.dim, self.realization
        if m is None:
            m, tol = np.swapaxes(c, 1, 2), ASSOC_TOL * max(1.0, float(np.abs(c).max()) ** 2)
            failure = "structure constants are not associative"
        else:
            if m.shape[0] != d or m.shape[1] != m.shape[2]:
                raise ConfigError("realization must be one square matrix per basis element")
            tol = _realization_tol(d, m.shape[1])
            flat = m.reshape(d, -1)
            if np.abs(flat @ flat.conj().T - np.eye(d)).max() > tol:
                raise ConfigError("realized basis must be Frobenius-orthonormal")
            failure = "realizing matrices do not reproduce the structure constants"
        # in place: the left-regular products take d^4 entries (2.5 MB at d = 20)
        gap = (m[:, None] @ m[None, :]).reshape(d * d, -1)
        gap -= c.reshape(d * d, d) @ m.reshape(d, -1)
        if np.abs(gap).max() > tol:
            raise ConfigError(failure)

    def _check_submultiplicative(self) -> None:
        d = self.dim
        rng = stream(_CHECK_SEED, d)
        a = complex_gaussian(rng, (_SUBMULT_SAMPLES, d))
        b = complex_gaussian(rng, (_SUBMULT_SAMPLES, d))
        ab = (a[:, :, None] * b[:, None, :]).reshape(-1, d * d) @ self.structure.reshape(d * d, d)
        na, nb, nab = self.unit_ball.norm(np.stack([a, b, ab]))
        good = (na > 0) & (nb > 0)
        if np.any(nab[good] > na[good] * nb[good] * (1.0 + SUBMULT_TOL) + 1e-12):
            raise ConfigError("norm is not submultiplicative on sampled pairs")

    @cached_property
    def unit_ball(self):
        """The unit ball of the norm, for slots and values alike (see
        ``amnm.normest``): Euclidean in frobenius mode, the composite over the
        base's ball for a unitization, the box in the ``idempotent_frame`` of
        an adjoint-closed spectral span short of M_k that has one (its
        idempotents are then orthogonal projections, so the box norm is the
        spectral norm), else the ``SpectralBall``.  The ``||1|| = 1`` check and,
        where the norm is not a realization's own, the sampled check read it
        at construction, so it reads only the structure, realization and base.
        """
        if self.norm_mode == "frobenius":
            return EuclideanBall(self.dim)
        if self.norm_mode == "unitization-composite":
            return CompositeSumBall(self.base.unit_ball)
        ball = SpectralBall(self.realization)
        if ball.exact and ball.dim < ball.k * ball.k and self.idempotent_frame is not None:
            return BoxBall(self.idempotent_frame)
        return ball

    @cached_property
    def idempotent_frame(self) -> np.ndarray | None:
        """Columns = coordinates of minimal orthogonal idempotents summing to 1
        (read-only), or None.

        Works structurally (no realization needed): a generic element of a
        commutative semisimple algebra has simple multiplication spectrum, and
        the normalized eigenvectors of its multiplication operator are the
        component idempotents.  None when the algebra is not unital and
        commutative, or when recovery fails.  Both the box unit ball and the
        library diagonal ``sum p_i (x) p_i`` read this one frame, so it reads
        only the structure constants and the unit, never ``unit_ball``.

        Each eigenvector v is scaled by lam = <v, v v> / <v, v>, one vector at
        a time: the frame's entries reach reports, so they keep the rounding
        of one ``vdot`` each.  The checks only decide, so idempotence and
        orthogonality are read off one contraction of all frame pairs.
        """
        d = self.dim
        if not self.is_unital or not _is_commutative(self):
            return None
        rng = stream(_FRAME_SEED, d)
        for _ in range(4):
            g = complex_gaussian(rng, d)
            eigvals, eigvecs = np.linalg.eig(self.left_mult_matrix(g))
            if np.min(np.abs(eigvals[:, None] - eigvals[None, :]) + np.eye(d)) < 1e-6:
                continue  # spectrum not simple for this sample; retry
            lams = np.array([np.vdot(v, self.multiply_coords(v, v)) / np.vdot(v, v) for v in eigvecs.T])
            if np.abs(lams).min() < 1e-10:
                continue
            frame = eigvecs / lams
            # pairs[i, j] = p_i p_j, less p_i on the diagonal: idempotent and orthogonal iff all vanish
            pairs = np.einsum("ai,bj,abk->ijk", frame, frame, self.structure)
            pairs[range(d), range(d)] -= frame.T
            if np.abs(pairs).max() > 1e-8 or np.abs(frame.sum(axis=1) - self.unit_coords).max() > 1e-8:
                continue
            frame.flags.writeable = False
            return frame
        return None

    # -- arithmetic --------------------------------------------------------

    def multiply_coords(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.structure)

    def left_mult_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> x*y acting on coordinates."""
        return np.einsum("i,ijk->kj", x, self.structure)

    def right_mult_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> y*x acting on coordinates."""
        return np.einsum("j,ijk->ki", x, self.structure)

    def element_norm(self, coords: np.ndarray) -> float:
        return self.unit_ball.norm(np.asarray(coords, dtype=complex))

    # -- element helpers ----------------------------------------------------

    def element(self, coords) -> "Element":
        coords = np.asarray(coords, dtype=complex)
        if coords.shape != (self.dim,):
            raise DomainError("coordinate vector has wrong length")
        return Element(coords, self)

    def basis_element(self, i: int) -> "Element":
        coords = np.zeros(self.dim, dtype=complex)
        coords[i] = 1.0
        return Element(coords, self)

    @property
    def is_unital(self) -> bool:
        return self.unit_coords is not None

    def unit(self) -> "Element":
        if self.unit_coords is None:
            raise DomainError("algebra has no unit")
        return Element(self.unit_coords.copy(), self)

    def __repr__(self):
        name = self.kind.get("name", "algebra")
        return f"Algebra({name}, dim={self.dim}, norm={self.norm_mode})"


def _is_commutative(algebra: Algebra) -> bool:
    return bool(np.abs(algebra.structure - np.swapaxes(algebra.structure, 0, 1)).max() < 1e-10)


@dataclass
class Element:
    """An algebra element as a coordinate vector over its parent's basis."""

    coords: np.ndarray
    parent: Algebra

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=complex)
        if self.coords.shape != (self.parent.dim,):
            raise DomainError("coordinate length does not match the algebra dimension")

    def __mul__(self, other: "Element") -> "Element":
        if other.parent is not self.parent:
            raise DomainError("elements live in different algebras")
        return Element(self.parent.multiply_coords(self.coords, other.coords), self.parent)

    def __add__(self, other: "Element") -> "Element":
        if other.parent is not self.parent:
            raise DomainError("elements live in different algebras")
        return Element(self.coords + other.coords, self.parent)

    def __sub__(self, other: "Element") -> "Element":
        if other.parent is not self.parent:
            raise DomainError("elements live in different algebras")
        return Element(self.coords - other.coords, self.parent)

    def __rmul__(self, scalar) -> "Element":
        return Element(scalar * self.coords, self.parent)

    def norm(self) -> float:
        return self.parent.element_norm(self.coords)


@dataclass
class Embedding:
    """A subalgebra D together with its inclusion into a parent algebra.

    ``matrix`` has orthonormal columns (parent coords x sub coords), so it is
    isometric for coordinate Euclidean norms.
    """

    sub: Algebra
    parent: Algebra
    matrix: np.ndarray

    def embed_coords(self, coords: np.ndarray) -> np.ndarray:
        return self.matrix @ coords

    def unit_in_parent(self) -> np.ndarray:
        return self.embed_coords(self.sub.unit_coords)


def identity_embedding(algebra: Algebra) -> Embedding:
    return Embedding(algebra, algebra, np.eye(algebra.dim, dtype=complex))


# -- constructors ------------------------------------------------------------


def build_full_matrix_algebra(k: int, norm_mode: str = "spectral") -> Algebra:
    """M_k with the matrix-unit basis e_11, e_12, ..., e_kk; one shared object
    per (k, norm_mode) and process."""
    return _full_matrix_algebra(k, norm_mode)


@cache
def _full_matrix_algebra(k: int, norm_mode: str) -> Algebra:
    if k < 1:
        raise DomainError("matrix size must be at least 1")
    i, j, l = np.indices((k, k, k)).reshape(3, -1)
    structure = np.zeros((k * k,) * 3, dtype=complex)
    structure[i * k + j, j * k + l, i * k + l] = 1.0  # e_ij e_jl = e_il
    # e_ij is basis element i k + j, realized as the matrix unit
    realization = np.eye(k * k, dtype=complex).reshape(k * k, k, k)
    unit = np.eye(k, dtype=complex).reshape(-1)
    return Algebra(structure, unit, norm_mode, realization, kind={"name": "matrix"})


def build_commutative_algebra(k: int, norm_mode: str = "spectral") -> Algebra:
    """C^k with pointwise product, realized as diagonal matrix units; one
    shared object per (k, norm_mode) and process."""
    return _commutative_algebra(k, norm_mode)


@cache
def _commutative_algebra(k: int, norm_mode: str) -> Algebra:
    if k < 1:
        raise DomainError("dimension must be at least 1")
    # p_i p_i = p_i, realized as the diagonal matrix unit: the same array
    structure = np.zeros((k, k, k), dtype=complex)
    structure[range(k), range(k), range(k)] = 1.0
    return Algebra(structure, np.ones(k), norm_mode, structure, kind={"name": "commutative"})


def direct_sum(a1: Algebra, a2: Algebra) -> Algebra:
    """Block algebra with componentwise product and vanishing cross terms.

    The shared norm mode is applied to the whole: block-diagonal spectral
    norm (= max of summand norms) or coordinate Euclidean norm.
    """
    if a1.norm_mode != a2.norm_mode:
        raise ConfigError("direct summands must share a norm mode")
    if a1.norm_mode == "unitization-composite":
        raise ConfigError("direct sums of unitizations are not supported")
    d1, d2 = a1.dim, a2.dim
    dim = d1 + d2
    structure = np.zeros((dim, dim, dim), dtype=complex)
    structure[:d1, :d1, :d1] = a1.structure
    structure[d1:, d1:, d1:] = a2.structure
    unit = np.concatenate([a1.unit_coords, a2.unit_coords]) if a1.is_unital and a2.is_unital else None
    realization = None
    if a1.realization is not None and a2.realization is not None:
        k1, k2 = a1.realization.shape[1], a2.realization.shape[1]
        realization = np.zeros((dim, k1 + k2, k1 + k2), dtype=complex)
        realization[:d1, :k1, :k1] = a1.realization
        realization[d1:, k1:, k1:] = a2.realization
    kind = {"name": "direct_sum", "summands": (a1, a2)}
    return Algebra(structure, unit, a1.norm_mode, realization, kind=kind)


def summand_quotient(sum_algebra: Algebra, keep: int) -> tuple[Algebra, np.ndarray]:
    """Quotient of a direct sum by the other summand (coordinates dropped).

    Returns the kept summand and the coordinate matrix of the quotient map.
    """
    if "summands" not in sum_algebra.kind:
        raise DomainError("not a direct sum")
    if keep not in (0, 1):
        raise DomainError("keep must be 0 or 1")
    a1, a2 = sum_algebra.kind["summands"]
    rows = np.eye(a1.dim + a2.dim, dtype=complex)
    return (a1, rows[: a1.dim]) if keep == 0 else (a2, rows[a1.dim :])


def _orthonormal_columns(vectors: np.ndarray) -> np.ndarray:
    """Rank-revealing orthonormal basis (columns) for the span of columns."""
    if vectors.size == 0:
        return vectors
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return u[:, :rank]


def generated_subalgebra(
    parent: Algebra, generators: list[Element], unital: bool = True
) -> tuple[Algebra, Embedding]:
    """Smallest (optionally unital) subalgebra containing the generators.

    Iterates products and re-orthonormalizes until the span stabilizes; the
    returned basis is Frobenius-orthonormal in parent coordinates, and the
    embedding matrix has orthonormal columns.
    """
    if parent.norm_mode == "unitization-composite":
        raise ConfigError("generate inside the base algebra, then unitize")
    cols = []
    for g in generators:
        if g.parent is not parent:
            raise DomainError("generator does not belong to the parent algebra")
        cols.append(g.coords)
    if unital:
        if not parent.is_unital:
            raise DomainError("unital closure requested in a non-unital algebra")
        cols.append(parent.unit_coords)
    if not cols:
        raise DomainError("need at least one generator")
    basis = _orthonormal_columns(np.stack(cols, axis=1))
    while True:
        prods = [
            parent.multiply_coords(basis[:, i], basis[:, j])
            for i in range(basis.shape[1])
            for j in range(basis.shape[1])
        ]
        enlarged = _orthonormal_columns(np.concatenate([basis] + [p[:, None] for p in prods], axis=1))
        if enlarged.shape[1] == basis.shape[1]:
            basis = enlarged
            break
        basis = enlarged
    dim_d = basis.shape[1]
    structure = np.zeros((dim_d, dim_d, dim_d), dtype=complex)
    proj = basis.conj().T
    for i in range(dim_d):
        for j in range(dim_d):
            prod = parent.multiply_coords(basis[:, i], basis[:, j])
            coeffs = proj @ prod
            if np.linalg.norm(prod - basis @ coeffs) > 1e-8 * max(1.0, np.linalg.norm(prod)):
                raise ConfigError("closure failed: product left the candidate span")
            structure[i, j] = coeffs
    unit_coords = proj @ parent.unit_coords if unital else _find_internal_unit(structure)
    realization = None if parent.realization is None else np.tensordot(basis.T, parent.realization, axes=(1, 0))
    sub = Algebra(structure, unit_coords, parent.norm_mode, realization, kind={"name": "generated"})
    return sub, Embedding(sub, parent, basis)


def _find_internal_unit(structure: np.ndarray):
    """Solve for a two-sided identity of the structure tensor, if one exists."""
    d = structure.shape[0]
    # unit u satisfies sum_i u_i c[i,j,k] = delta_jk and sum_j u_j c[i,j,k] = delta_ik
    lhs = np.concatenate(
        [
            structure.reshape(d, d * d).T,  # rows (j,k), cols i
            np.einsum("ijk->jik", structure).reshape(d, d * d).T,
        ]
    )
    target = np.concatenate([np.eye(d).reshape(-1), np.eye(d).reshape(-1)])
    sol, *_ = np.linalg.lstsq(lhs, target, rcond=None)
    residual = np.abs(lhs @ sol - target).max()
    if residual > 1e-9:
        return None
    return sol


def unitize(algebra: Algebra) -> Algebra:
    """Adjoin a unit: (l1, a1)(l2, a2) = (l1 l2, l1 a2 + l2 a1 + a1 a2),
    with the l1-sum norm |lambda| + ||a||.  Built once per base algebra,
    which keeps it in its cache."""
    cached = algebra._cache.get("unitization")
    if cached is None:
        cached = algebra._cache["unitization"] = _unitization(algebra)
    return cached


def _unitization(algebra: Algebra) -> Algebra:
    unit = np.eye(algebra.dim + 1)[0]
    return Algebra(_unitization_structure(algebra), unit, "unitization-composite", None,
                   kind={"name": "unitization"}, base=algebra)


def _unitization_structure(algebra: Algebra) -> np.ndarray:
    dim = algebra.dim + 1
    structure = np.zeros((dim, dim, dim), dtype=complex)
    structure[0] = structure[:, 0] = np.eye(dim)  # 1 e_i = e_i 1 = e_i
    structure[1:, 1:, 1:] = algebra.structure
    return structure


def opposite(algebra: Algebra) -> Algebra:
    """Same space and norm, product reversed (structure transposed in the
    first two indices; realizing matrices transposed).

    Built once per algebra through ``Algebra(...)`` (a realized reversal runs
    the reproduction, unit and ``||1|| = 1`` checks only), and involutive:
    the source keeps its opposite in its cache and the opposite keeps the
    source in its own, so ``opposite(opposite(a)) is a``.  The involution is
    exact, not approximate: both transposes only permute entries, so doing
    them twice gives back ``a``'s arrays bit for bit.  A base and direct
    summands reverse through this call, so they are shared too."""
    cached = algebra._cache.get("opposite")
    if cached is None:
        cached = algebra._cache["opposite"] = _opposite(algebra)
        cached._cache["opposite"] = algebra
    return cached


def _opposite(algebra: Algebra) -> Algebra:
    structure = np.swapaxes(algebra.structure, 0, 1)
    realization = None if algebra.realization is None else np.swapaxes(algebra.realization, 1, 2)
    base = None if algebra.base is None else opposite(algebra.base)
    kind = {"name": algebra.kind.get("name", "")}
    if "summands" in algebra.kind:
        kind["summands"] = tuple(opposite(s) for s in algebra.kind["summands"])
    return Algebra(structure, algebra.unit_coords, algebra.norm_mode, realization, kind=kind, base=base)
