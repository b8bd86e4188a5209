"""Cochain calculus and certified defect estimation.

The central objects:

* ``LinearMap``: a linear map between algebras as a coefficient matrix,
  immutable like the algebras (its matrix is a read-only copy).
* ``Cochain``: an n-multilinear map into a target algebra as a dense
  coefficient tensor, one slot algebra per argument.
* ``defect_cochain(phi)``: the bilinear map (a, b) -> phi(ab) - phi(a)phi(b)
  whose norm is the multiplicative defect of phi, built once per map, as
  is its upper-only estimate (``defect(phi, restarts=0)``).
* ``coboundary(phi, psi)``: the degree-raising operator

      (d psi)(a_1..a_{n+1}) = phi(a_1) psi(a_2..a_{n+1})
                              + sum_j (-1)^j psi(.., a_j a_{j+1}, ..)
                              + (-1)^{n+1} psi(a_1..a_n) phi(a_{n+1})

  which is exact on coefficients for every arity.  Its two target products
  (phi(a_1) psi(..) and psi(..) phi(a_{n+1})) are each two BLAS matrix
  products against the structure tensor, not a three-operand ``einsum``,
  and each inner fold psi(.., a_j a_{j+1}, ..) is one matmul.

The defect cochain is BLAS products too: phi(ab) is the map against the
structure as a (d^2, d) matrix and phi(a)phi(b) is ``_target_multiply_left``
of the map with itself.  ``restrict_slot`` keeps its ``tensordot``, since a
stacked form measured no gain.

Norm estimation supports arities 1 and 2 and always returns an interval
(`DefectEstimate`): a witness-certified lower bound plus an unfolding upper
bound.  Inequalities downstream are therefore tested in
no-falsification form: an estimate given the limit of its comparison as its
``claim`` is ``passed`` when its lower meets it and ``proved`` when its
upper does, and searches for a witness only briefly once its upper proves
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .algebra import Algebra, Embedding, _frozen
from .errors import DomainError
from .normest import (
    DEFAULT_RESTARTS,
    DEFAULT_SWEEPS,
    DefectEstimate,
    EuclideanBall,
    estimate_tensor_norms,
)
from .rng import complex_gaussian


@dataclass(frozen=True)
class LinearMap:
    """A linear map between algebras; ``matrix`` is dim(target) x dim(source).

    Maps are immutable like algebras: ``matrix`` is a read-only copy, so a
    map's defect cochain is built once (``defect_cochain``).
    """

    source: Algebra
    target: Algebra
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise DomainError("matrix shape does not match the algebras")

    @cached_property
    def _defect(self) -> "Cochain":
        a, b = self.source, self.target
        d = a.dim
        # phi(e_i e_j): the structure as a (d^2, d) matrix against the map
        lin = (self.matrix @ a.structure.reshape(d * d, d).T).reshape(b.dim, d, d)
        tensor = lin - _target_multiply_left(b, self.matrix, self.matrix)
        tensor.flags.writeable = False
        return Cochain((a, a), b, tensor)

    @cached_property
    def _defect_bound(self) -> DefectEstimate:
        # the upper-only estimate reads the defect tensor alone, not the seed
        bound = multilinear_norm(self._defect, restarts=0)
        for w in bound.witness:
            w.flags.writeable = False
        return bound

    def apply(self, coords: np.ndarray) -> np.ndarray:
        return self.matrix @ coords

    def __add__(self, other: "LinearMap") -> "LinearMap":
        self._require_same_parents(other)
        return LinearMap(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        self._require_same_parents(other)
        return LinearMap(self.source, self.target, self.matrix - other.matrix)

    def _require_same_parents(self, other):
        if other.source is not self.source or other.target is not self.target:
            raise DomainError("maps have different source or target algebras")

    def preserves_unit(self, embedding: Embedding | None = None, tol: float = 1e-9) -> bool:
        """Does the map send the (embedded sub)unit to the target unit?"""
        unit_src = self.source.unit_coords if embedding is None else embedding.unit_in_parent()
        if unit_src is None or not self.target.is_unital:
            return False
        resid = np.abs(self.apply(unit_src) - self.target.unit_coords).max()
        return bool(resid <= tol * max(1.0, np.abs(self.target.unit_coords).max()))


def identity_map(algebra: Algebra) -> LinearMap:
    return LinearMap(algebra, algebra, np.eye(algebra.dim, dtype=complex))


def unit_killing_perturbation(a: Algebra, rng, scale: float) -> np.ndarray:
    """Coefficient matrix gamma with gamma(1_A) = 0 and top singular value
    exactly ``scale``; the zero matrix when ``scale`` or the projected draw
    is zero."""
    gamma = complex_gaussian(rng, (a.dim, a.dim))
    unit = a.unit_coords
    gamma = gamma - np.outer(gamma @ unit, unit.conj()) / np.vdot(unit, unit)
    top = np.linalg.svd(gamma, compute_uv=False)[0]
    if scale == 0 or top == 0:
        return np.zeros_like(gamma)
    return gamma / top * scale


@dataclass
class Cochain:
    """An n-multilinear map given by its dense coefficient tensor.

    ``tensor`` has shape (dim(target), dim(slot_1), ..., dim(slot_n)).
    Restriction may re-express individual slots in subalgebra coordinates,
    so each slot carries its own algebra.
    """

    slots: tuple[Algebra, ...]
    target: Algebra
    tensor: np.ndarray

    def __post_init__(self):
        self.slots = tuple(self.slots)
        if not self.slots:
            raise DomainError("cochains have arity at least 1")
        self.tensor = np.asarray(self.tensor, dtype=complex)
        expected = (self.target.dim,) + tuple(s.dim for s in self.slots)
        if self.tensor.shape != expected:
            raise DomainError(f"tensor shape {self.tensor.shape} != expected {expected}")

    @property
    def arity(self) -> int:
        return len(self.slots)

    def evaluate(self, *coord_vectors: np.ndarray) -> np.ndarray:
        if len(coord_vectors) != self.arity:
            raise DomainError("wrong number of arguments")
        out = self.tensor
        for x in coord_vectors:
            out = np.tensordot(out, np.asarray(x, dtype=complex), axes=(1, 0))
        return out

    def __add__(self, other: "Cochain") -> "Cochain":
        return Cochain(self.slots, self.target, self.tensor + other.tensor)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return Cochain(self.slots, self.target, self.tensor - other.tensor)


def _target_multiply_left(target: Algebra, coeffs: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Pointwise product in the target algebra, coeffs-element on the left;
    the columns of ``coeffs`` are indexed by a new leading slot.

    Two BLAS products: X[t, i, q] = sum_p coeffs[p, i] structure[p, q, t],
    then X against the tensor's target axis.
    """
    d = target.dim
    lead = (coeffs.T @ target.structure.reshape(d, d * d)).reshape(-1, d, d)  # (i, q, t)
    lead = lead.transpose(2, 0, 1).reshape(-1, d)  # (t i, q)
    out = lead @ tensor.reshape(d, -1)
    return out.reshape((d, coeffs.shape[1]) + tensor.shape[1:])


def _target_multiply_right(target: Algebra, tensor: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Pointwise product, coeffs-element on the right, as a new last slot.

    Two BLAS products: Y[p, t, j] = sum_q structure[p, q, t] coeffs[q, j],
    then the tensor's target axis against Y.
    """
    d = target.dim
    flat = tensor.reshape(d, -1)
    right = np.swapaxes(target.structure, 1, 2).reshape(d * d, d) @ coeffs  # (p t, j)
    out = flat.T @ right.reshape(d, -1)  # (R, t j)
    out = out.reshape(flat.shape[1], d, -1).transpose(1, 0, 2)
    return out.reshape((d,) + tensor.shape[1:] + (coeffs.shape[1],))


def defect_cochain(phi: LinearMap, left: Embedding | None = None, right: Embedding | None = None) -> Cochain:
    """The bilinear map (a, b) -> phi(ab) - phi(a)phi(b), its first/second
    argument restricted to the subalgebra of ``left``/``right`` if given.

    The unrestricted cochain is built on the first call for each map (maps
    are immutable) and shared by every later one, so its tensor is
    read-only.
    """
    chain = phi._defect
    if left is not None:
        chain = restrict_slot(chain, 0, left)
    if right is not None:
        chain = restrict_slot(chain, 1, right)
    return chain


def coboundary(phi: LinearMap, psi: Cochain) -> Cochain:
    """The degree-raising operator d^n attached to phi, exact on coefficients."""
    n = psi.arity
    if n < 1:
        raise DomainError("coboundary needs arity at least 1")
    for s in psi.slots:
        if s is not phi.source:
            raise DomainError("coboundary requires all slots equal to the map's source")
    a, b = phi.source, phi.target
    d = a.dim
    shape = psi.tensor.shape
    products = a.structure.reshape(d * d, d)  # row (i, i'): the coordinates of e_i e_i'
    total = _target_multiply_left(b, phi.matrix, psi.tensor)
    for j in range(1, n + 1):
        # slots j, j+1 (1-based) of the (n+1)-slot output fold through the
        # product into slot j of psi: one matmul, already in place
        folded = products @ psi.tensor.reshape(math.prod(shape[:j]), d, -1)
        total += ((-1) ** j) * folded.reshape(shape[:j] + (d, d) + shape[j + 1 :])
    total += ((-1) ** (n + 1)) * _target_multiply_right(b, psi.tensor, phi.matrix)
    return Cochain((a,) * (n + 1), b, total)


def restrict_slot(psi: Cochain, slot: int, embedding: Embedding) -> Cochain:
    """Re-express one slot in subalgebra coordinates."""
    if psi.slots[slot] is not embedding.parent:
        raise DomainError("embedding parent does not match the slot algebra")
    tensor = np.tensordot(psi.tensor, embedding.matrix, axes=(slot + 1, 0))
    tensor = np.moveaxis(tensor, -1, slot + 1)
    slots = list(psi.slots)
    slots[slot] = embedding.sub
    return Cochain(tuple(slots), psi.target, tensor)


def multilinear_norm(
    psi: Cochain,
    restarts: int = DEFAULT_RESTARTS,
    sweeps: int = DEFAULT_SWEEPS,
    seed: int = 0,
    claim: float | None = None,
) -> DefectEstimate:
    """Certified interval for the norm of an arity-1 or arity-2 cochain.

    Arity 1 with Euclidean source and target balls is solved exactly by SVD.
    ``claim`` is the bound the caller compares the lower bound with; an
    estimate with none stops once its upper is within its equivalence
    factor of its lower (see ``estimate_tensor_norm``).  The N = 1 call of
    ``multilinear_norms``.
    """
    return multilinear_norms([psi], restarts, sweeps, [seed], [claim])[0]


def multilinear_norms(chains, restarts: int, sweeps: int, seeds, claims) -> list[DefectEstimate]:
    """``multilinear_norm`` of each cochain with its own seed and claim; the
    cochains with the same slot and target algebras are estimated as one
    stack (``estimate_tensor_norms``)."""
    groups: dict[tuple, list[int]] = {}
    for i, psi in enumerate(chains):
        if psi.arity > 2:
            raise DomainError("norm estimation supports arities 1 and 2 only")
        groups.setdefault(tuple(map(id, (psi.target,) + psi.slots)), []).append(i)
    found = [None] * len(chains)
    for group in groups.values():
        psi = chains[group[0]]
        balls = [s.unit_ball for s in psi.slots]
        target = psi.target.unit_ball
        if psi.arity == 1 and all(isinstance(b, EuclideanBall) for b in balls + [target]):
            for i in group:
                found[i] = _operator_norm(chains[i].tensor, seeds[i], claims[i])
            continue
        estimates = estimate_tensor_norms(np.stack([chains[i].tensor for i in group]), balls, target, restarts,
                                          sweeps, [seeds[i] for i in group], [claims[i] for i in group])
        for i, est in zip(group, estimates):
            found[i] = est
    return found


def _operator_norm(mat: np.ndarray, seed: int, claim: float | None) -> DefectEstimate:
    """The exact norm of a matrix between Euclidean balls, by SVD."""
    if not mat.any():
        return DefectEstimate(0.0, 0.0, [np.zeros(mat.shape[1], dtype=complex)], 0, seed, claim, 1.0)
    _, s, vh = np.linalg.svd(mat)
    sigma = float(s[0])
    return DefectEstimate(sigma, sigma, [vh[0].conj()], 0, seed, claim, 1.0)


def linear_map_norm(
    phi: LinearMap,
    restarts: int = DEFAULT_RESTARTS,
    sweeps: int = DEFAULT_SWEEPS,
    seed: int = 0,
    claim: float | None = None,
) -> DefectEstimate:
    """Operator norm interval; exact (SVD) when both norms are Euclidean."""
    chain = Cochain((phi.source,), phi.target, phi.matrix)
    return multilinear_norm(chain, restarts, sweeps, seed, claim)


def defect(
    phi: LinearMap,
    left: Embedding | None = None,
    right: Embedding | None = None,
    restarts: int = DEFAULT_RESTARTS,
    sweeps: int = DEFAULT_SWEEPS,
    seed: int = 0,
    claim: float | None = None,
) -> DefectEstimate:
    """Multiplicative defect of phi, optionally restricted per slot.

    ``left``/``right`` restrict the first/second argument to a subalgebra,
    giving the D x A, A x D and D x D defect functionals.  The unrestricted
    upper-only estimate (``restarts=0``) is cached per map, seed and claim aside.
    """
    if restarts == 0 and left is None and right is None:
        return replace(phi._defect_bound, seed=seed, claim=claim)
    return multilinear_norm(defect_cochain(phi, left, right), restarts, sweeps, seed, claim)
