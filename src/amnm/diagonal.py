"""Exact diagonals for library algebras, averaging and splitting operators.

A diagonal for D is an element Delta of D (x) D with

    a . Delta = Delta . a     and     a pi(Delta) = pi(Delta) a = a,

where pi multiplies the legs together.  In finite dimensions the library
diagonals satisfy both identities exactly, so the homotopy operators that
are limits in general collapse to a single evaluation:

    split(phi, w, psi)(a_1..a_n) = sum_k phi(c_k) psi(d_k, a_1..a_n).

A ``TensorRep`` holds Delta = sum_k c_k (x) d_k once, as two read-only
(dim, K) arrays ``cs`` and ``ds`` whose k-th columns are the legs c_k and
d_k; the library builds them stacked, and averaging reads them as they are.

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
    """An element sum_k c_k (x) d_k of D (x) D, a finite sum of elementary tensors.

    ``cs`` and ``ds`` hold the legs c_k and d_k as the columns of two
    (dim, K) coordinate arrays over ``algebra``, stacked once here into one
    read-only copy (library diagonals are shared); ``proj_bound`` is
    sum_k ||c_k|| ||d_k||, one norm per leg.
    """

    algebra: Algebra
    cs: np.ndarray
    ds: np.ndarray
    proj_bound: float = field(init=False)

    def __post_init__(self):
        shape = np.shape(self.cs)
        if len(shape) != 2 or shape[0] != self.algebra.dim or np.shape(self.ds) != shape:
            raise DomainError("tensor legs must be two (dim, K) coordinate arrays")
        self.cs, self.ds = _frozen((self.cs, self.ds))
        norm = self.algebra.element_norm
        self.proj_bound = float(sum(norm(c) * norm(d) for c, d in zip(self.cs.T, self.ds.T)))

    def dense(self) -> np.ndarray:
        """Coefficient matrix W[i, j] = sum_k c_k[i] d_k[j], summed leg by leg."""
        w = np.zeros((self.algebra.dim, self.algebra.dim), dtype=complex)
        for c, d in zip(self.cs.T, self.ds.T):
            w += np.outer(c, d)
        return w

    def flip(self, opposite_algebra: Algebra) -> "TensorRep":
        """c (x) d -> d (x) c, re-parented to the opposite algebra."""
        return TensorRep(opposite_algebra, self.ds, self.cs)


@dataclass(frozen=True)
class DiagonalCert:
    """A tensor representation with its verification residuals.

    ``residual_commute`` = max over basis a of the dense-coefficient norm of
    a.Delta - Delta.a; ``residual_unit`` = max over basis a of
    ||a pi(Delta) - a|| and ||pi(Delta) a - a||.  Both vanish (to 1e-10 of
    scale) for an exact diagonal; ``K`` reads the representation's
    ``proj_bound``, an amenability-constant upper bound.
    """

    rep: TensorRep
    residual_commute: float
    residual_unit: float
    valid: bool

    @property
    def K(self) -> float:
        return self.rep.proj_bound


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
    for c, dd in zip(rep.cs.T, rep.ds.T):
        pi += algebra.multiply_coords(c, dd)
    # the 2d unit residuals and the d basis vectors, normed in one stacked call
    rows = [prod - basis[i] for i in range(d)
            for prod in (algebra.multiply_coords(basis[i], pi), algebra.multiply_coords(pi, basis[i]))]
    norms = algebra.unit_ball.norm(np.concatenate([np.array(rows), basis]))
    unit_resid = float(norms[: 2 * d].max())
    valid = commute <= VALID_RESIDUAL_TOL * scale and unit_resid <= VALID_RESIDUAL_TOL * max(
        1.0, float(norms[2 * d :].max())
    )
    return DiagonalCert(rep, commute, unit_resid, bool(valid))


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
        # e_ij has coordinates conj(R[:, i, j]), and Delta = (1/k) sum e_ij (x) e_ji,
        # column i k + j holding e_ij / k and e_ji
        k = real.shape[1]
        units = np.conj(real)
        return TensorRep(algebra, units.reshape(-1, k * k) / k, units.transpose(0, 2, 1).reshape(-1, k * k))
    if "summands" in algebra.kind:
        r1, r2 = (_library_rep(a) for a in algebra.kind["summands"])
        if r1 is None or r2 is None:
            return None
        # the summands' legs side by side, block-diagonally over their coordinates
        cs, ds = (np.block([[x1, np.zeros((x1.shape[0], x2.shape[1]))], [np.zeros((x2.shape[0], x1.shape[1])), x2]])
                  for x1, x2 in ((r1.cs, r2.cs), (r1.ds, r2.ds)))
        return TensorRep(algebra, cs, ds)
    if algebra.base is not None:
        base = algebra.base
        if not base.is_unital:
            return None
        base_rep = _library_rep(base)
        if base_rep is None:
            return None
        # through the splitting (lambda, a) -> (lambda, lambda 1 + a) the
        # unitization is a direct sum of the scalars and the base: the head
        # (1, -unit of the base) on both legs, beside the base's legs shifted
        # one coordinate
        cs, ds = (np.block([[np.ones((1, 1)), np.zeros((1, x.shape[1]))], [-base.unit_coords[:, None], x]])
                  for x in (base_rep.cs, base_rep.ds))
        return TensorRep(algebra, cs, ds)
    frame = algebra.idempotent_frame
    if frame is None:
        return None
    # commutative and semisimple: Delta = sum p_i (x) p_i over the minimal idempotents
    return TensorRep(algebra, frame, frame)


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
    out = _average_tensor(phi.target.structure, phi.matrix, embedding.matrix, rep.cs, rep.ds, psi.tensor)
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
