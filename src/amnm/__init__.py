"""Numerical laboratory for stability of approximately multiplicative maps
between finite-dimensional normed algebras."""

import os

# One BLAS thread per process unless the caller chose a number: commands run
# their independent estimates on the other CPUs (``parallel.run_all``), and
# OpenBLAS's idle threads would spin on those CPUs.  Set before numpy loads.
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
    restrict_first,
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
