"""Exact diagonals for library algebras, averaging and splitting operators.

A diagonal for D is an element Delta of D (x) D with

    a . Delta = Delta . a     and     a pi(Delta) = pi(Delta) a = a,

where pi multiplies the legs together.  In finite dimensions the library
diagonals satisfy both identities exactly, so the homotopy operators that
are limits in general collapse to a single evaluation:

    split(phi, w, psi)(a_1..a_n) = sum_k phi(c_k) psi(d_k, a_1..a_n).

The amenability bound K is the representation bound sum_k ||c_k|| ||d_k||,
an upper bound for the projective tensor norm; inequalities that consume K
only get stronger under this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .algebra import Algebra, Embedding, _frozen, build_full_matrix_algebra, generated_subalgebra
from .errors import DomainError, PreconditionError
from .multilinear import Cochain, LinearMap

VALID_RESIDUAL_TOL = 1e-10


@dataclass
class TensorRep:
    """An element of D (x) D as a finite sum of elementary tensors.

    ``pairs`` holds (c_k, d_k) coordinate vectors over ``algebra``, as
    read-only copies (library diagonals are shared); ``proj_bound`` is
    sum_k ||c_k|| ||d_k||, recomputable from the pairs.
    """

    algebra: Algebra
    pairs: list[tuple[np.ndarray, np.ndarray]]
    proj_bound: float = field(init=False)

    def __post_init__(self):
        clean = []
        for c, d in self.pairs:
            c = _frozen(c)
            d = _frozen(d)
            if c.shape != (self.algebra.dim,) or d.shape != (self.algebra.dim,):
                raise DomainError("tensor leg has wrong coordinate length")
            clean.append((c, d))
        self.pairs = clean
        self.proj_bound = float(
            sum(self.algebra.element_norm(c) * self.algebra.element_norm(d) for c, d in self.pairs)
        )

    def dense(self) -> np.ndarray:
        """Coefficient matrix W[i, j] = sum_k c_k[i] d_k[j]."""
        w = np.zeros((self.algebra.dim, self.algebra.dim), dtype=complex)
        for c, d in self.pairs:
            w += np.outer(c, d)
        return w

    def legs(self) -> tuple[np.ndarray, np.ndarray]:
        """The legs stacked as columns: (c_1 .. c_K) and (d_1 .. d_K)."""
        legs = np.zeros((2, self.algebra.dim, len(self.pairs)), dtype=complex)
        for k, (c, d) in enumerate(self.pairs):
            legs[0, :, k] = c
            legs[1, :, k] = d
        return legs[0], legs[1]

    def flip(self, opposite_algebra: Algebra) -> "TensorRep":
        """c (x) d -> d (x) c, re-parented to the opposite algebra."""
        return TensorRep(opposite_algebra, [(d, c) for c, d in self.pairs])


@dataclass(frozen=True)
class DiagonalCert:
    """A tensor representation with its verification residuals.

    ``residual_commute`` = max over basis a of the dense-coefficient norm of
    a.Delta - Delta.a; ``residual_unit`` = max over basis a of
    ||a pi(Delta) - a|| and ||pi(Delta) a - a||.  Both vanish (to 1e-10 of
    scale) for an exact diagonal; K is the representation bound, an
    amenability-constant upper bound.
    """

    rep: TensorRep
    K: float
    residual_commute: float
    residual_unit: float
    valid: bool


def verify_diagonal(algebra: Algebra, rep: TensorRep) -> DiagonalCert:
    """Compute both diagonal residuals exactly over a basis of the algebra.

    The commutator residual e_i.Delta - Delta.e_i is one stacked product over
    the structure tensor's slices (left multiplication by e_i is
    ``structure[i].T``, right multiplication ``structure[:, i].T``).  pi(Delta)
    and the unit rows stay one product per vector: they set the reported
    ``residual_unit`` and decide validity near the tolerance, so they keep the
    rounding of ``multiply_coords``.
    """
    if rep.algebra is not algebra:
        raise DomainError("representation parented to a different algebra")
    d = algebra.dim
    w = rep.dense()
    scale = max(1.0, float(np.abs(w).max()))
    commute = float(np.abs(np.swapaxes(algebra.structure, 1, 2) @ w - w @ np.swapaxes(algebra.structure, 0, 1)).max())
    basis = np.eye(d)
    pi = np.zeros(d, dtype=complex)
    for c, dd in rep.pairs:
        pi += algebra.multiply_coords(c, dd)
    # the 2d unit residuals and the d basis vectors, normed in one stacked call
    rows = [prod - basis[i] for i in range(d)
            for prod in (algebra.multiply_coords(basis[i], pi), algebra.multiply_coords(pi, basis[i]))]
    norms = algebra.unit_ball.norm(np.concatenate([np.array(rows), basis]))
    unit_resid = float(norms[: 2 * d].max())
    valid = commute <= VALID_RESIDUAL_TOL * scale and unit_resid <= VALID_RESIDUAL_TOL * max(
        1.0, float(norms[2 * d :].max())
    )
    return DiagonalCert(rep, rep.proj_bound, commute, unit_resid, bool(valid))


class NoLibraryDiagonal(DomainError):
    """The algebra is not in the supported library; supply a representation
    and check it with verify_diagonal."""


def library_diagonal(algebra: Algebra) -> DiagonalCert:
    """Exact diagonal for a library algebra, chosen by structure.

    Supported, in this order:

    * a realization spanning M_k (dim = k^2): Delta = (1/k) sum e_ij (x) e_ji
      over the realized matrix units;
    * a direct sum of supported algebras: the summands' diagonals side by side;
    * a unitization of a supported unital algebra;
    * an algebra with an ``idempotent_frame`` (commutative semisimple, C^k
      among them): Delta = sum p_i (x) p_i over its minimal idempotents.

    Anything else raises ``NoLibraryDiagonal``.  Built and verified once per
    algebra, which keeps the certificate in its cache.
    """
    cached = algebra._cache.get("diagonal")
    if cached is not None:
        return cached
    rep = _library_rep(algebra)
    if rep is None:
        raise NoLibraryDiagonal(f"no library diagonal for {algebra!r}")
    cert = verify_diagonal(algebra, rep)
    if not cert.valid:
        raise NoLibraryDiagonal("constructed representation failed verification")
    algebra._cache["diagonal"] = cert
    return cert


@cache
def _scenario(k: int, norm_mode: str) -> tuple[Algebra, Embedding, DiagonalCert]:
    """M_k, its diagonal subalgebra D with the embedding, and D's library
    diagonal: the seed-free part of every CLI instance and of the suite's
    M_2 checks; built once per process."""
    a = build_full_matrix_algebra(k, norm_mode=norm_mode)
    d, emb = generated_subalgebra(a, [a.basis_element(i * k + i) for i in range(k)], unital=True)
    return a, emb, library_diagonal(d)


def _library_rep(algebra: Algebra) -> TensorRep | None:
    """The library diagonal, chosen by the algebra's structure, or None."""
    real = algebra.realization
    if real is not None and algebra.dim == real.shape[1] ** 2:
        # a Frobenius-orthonormal realized basis spanning M_k: the matrix unit
        # e_ij has coordinates conj(R[:, i, j]), and Delta = (1/k) sum e_ij (x) e_ji
        k = real.shape[1]
        units = np.conj(real)
        return TensorRep(algebra, [(units[:, i, j] / k, units[:, j, i]) for i in range(k) for j in range(k)])
    if "summands" in algebra.kind:
        a1, a2 = algebra.kind["summands"]
        rep1, rep2 = _library_rep(a1), _library_rep(a2)
        if rep1 is None or rep2 is None:
            return None
        d1 = a1.dim
        pairs = []
        for c, d in rep1.pairs:
            pairs.append((_pad(c, 0, algebra.dim), _pad(d, 0, algebra.dim)))
        for c, d in rep2.pairs:
            pairs.append((_pad(c, d1, algebra.dim), _pad(d, d1, algebra.dim)))
        return TensorRep(algebra, pairs)
    if algebra.base is not None:
        base = algebra.base
        if not base.is_unital:
            return None
        base_rep = _library_rep(base)
        if base_rep is None:
            return None
        # through the splitting (lambda, a) -> (lambda, lambda 1 + a) the
        # unitization is a direct sum of the scalars and the base
        head = np.zeros(algebra.dim, dtype=complex)
        head[0] = 1.0
        head[1:] = -base.unit_coords
        pairs = [(head, head.copy())]
        for c, d in base_rep.pairs:
            pairs.append((_pad(c, 1, algebra.dim), _pad(d, 1, algebra.dim)))
        return TensorRep(algebra, pairs)
    frame = algebra.idempotent_frame
    if frame is None:
        return None
    # commutative and semisimple: Delta = sum p_i (x) p_i over the minimal idempotents
    return TensorRep(algebra, [(p, p) for p in frame.T])


def _pad(coords: np.ndarray, offset: int, dim: int) -> np.ndarray:
    out = np.zeros(dim, dtype=complex)
    out[offset : offset + coords.shape[0]] = coords
    return out


def average(phi: LinearMap, embedding: Embedding, rep: TensorRep, psi: Cochain) -> Cochain:
    """The averaging operator: (a_1..a_n) -> sum_k phi(c_k) psi(d_k, a_1..a_n).

    ``psi`` has arity n+1 with first slot equal to phi's source; the legs of
    ``rep`` live in the subalgebra and enter through the embedding.  Linear
    in the representation and independent of its decomposition.

    Computed over the stacked legs (``_average_tensor``), with no loop over
    them: with B = dim(target), A = dim(source), K legs and R the product
    of the remaining slot dimensions, three BLAS products carry the work,
    B A R K multiply-adds to put every d_k into psi, B^2 R K to sum the
    legs and B^3 R for the target product, where the per-leg form paid
    B^3 R per leg.
    """
    if psi.arity < 1:
        raise DomainError("averaging needs arity at least 1")
    if embedding.parent is not phi.source:
        raise DomainError("embedding must land in the map's source algebra")
    if rep.algebra is not embedding.sub:
        raise DomainError("representation must live on the embedded subalgebra")
    if psi.slots[0] is not phi.source:
        raise DomainError("first slot of the cochain must be the map's source")
    cs, ds = rep.legs()
    out = _average_tensor(phi.target.structure, phi.matrix, embedding.matrix, cs, ds, psi.tensor)
    return Cochain(psi.slots[1:], phi.target, out)


def _average_tensor(structure: np.ndarray, phi: np.ndarray, emb: np.ndarray,
                    cs: np.ndarray, ds: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """sum_k phi(E c_k) psi(E d_k, ...) as a coefficient tensor, for the
    target ``structure``, map matrix ``phi``, embedding matrix E = ``emb``,
    legs c_k, d_k as the columns of ``cs``, ``ds`` and a cochain ``tensor``
    of shape (B, A, ...):

        Phi = phi E cs                             (B, K)
        Psi = (psi, first slot moved last) E ds    (B R, K)
        out = structure^T (Phi Psi^T)              (B, R)

    the last with the structure as a (B^2, B) matrix and Phi Psi^T as
    (B^2, R).  ``cs`` may carry leading batch axes, which the output keeps
    in front.  No legs (K = 0) give zeros.
    """
    b, a = tensor.shape[:2]
    moved = tensor.transpose(0, *range(2, tensor.ndim), 1).reshape(-1, a)
    z = (phi @ (emb @ cs)) @ (moved @ (emb @ ds)).T  # (.., B, B R): sum_k phi(c_k)_p psi(d_k)_{q R}
    out = structure.reshape(b * b, b).T @ z.reshape(z.shape[:-2] + (b * b, -1))
    return out.reshape(out.shape[:-1] + tensor.shape[2:])


def split(phi: LinearMap, embedding: Embedding, cert: DiagonalCert, psi: Cochain) -> Cochain:
    """The splitting operator: averaging against a verified exact diagonal,
    at the cost of ``average`` (three BLAS products over the stacked legs)."""
    if not cert.valid:
        raise PreconditionError("refusing to split against an unverified diagonal")
    return average(phi, embedding, cert.rep, psi)
