"""Numerical laboratory for stability of approximately multiplicative maps
between finite-dimensional normed algebras."""

import os

# One BLAS thread per process unless the caller chose a number: every
# command runs in one process on tiny matrices, where BLAS threads gain
# nothing, and starting OpenBLAS's thread pool makes ``import numpy``, which
# every CLI process pays, markedly slower.  Set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .algebra import (
    Algebra,
    Element,
    Embedding,
    build_commutative_algebra,
    build_full_matrix_algebra,
    direct_sum,
    generated_subalgebra,
    identity_embedding,
    opposite,
    summand_quotient,
    unitize,
)
from .diagonal import DiagonalCert, TensorRep, average, library_diagonal, split, verify_diagonal
from .errors import ConfigError, DomainError, FalsificationError, PreconditionError
from .multilinear import (
    Cochain,
    DefectEstimate,
    LinearMap,
    coboundary,
    defect,
    defect_cochain,
    identity_map,
    linear_map_norm,
    multilinear_norm,
)
from .stabilizer import (
    IdealData,
    StabilizeConfig,
    StabilizeReport,
    decompose_over_ideal,
    improve,
    improve_right,
    stabilize,
    stabilize_via_unitization,
    unitize_map,
)

__version__ = "0.1.0"
