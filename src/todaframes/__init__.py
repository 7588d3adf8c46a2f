"""Frenet frames of polynomial Grassmannian curves and nonabelian Toda systems.

The package builds the osculating sequence of a polynomial curve in a
complex Grassmannian with exact arithmetic, evaluates the associated
hermitian frame numerically, constructs and solves the matching block
Toda equations by path integration and block Gauss decomposition, and
verifies every identity tying the two sides together.

Derivative convention used throughout: the minus derivative is d/dz and
the plus derivative is d/dzbar.
"""

from .errors import (
    ConfigError,
    GaussDecompositionFailed,
    InvalidArgument,
    NotConstantRank,
    SingularBeta,
    TodaframesError,
    ZeroFunction,
)
from .frenet import (
    FrenetPointData,
    OsculatingSequence,
    build_osculating,
    connection_coefficients,
    frame_at,
    induced_metric,
    kahler_check,
    linear_fullness,
    verify_frame_equations,
)
from .linalg import (
    BlockStructure,
    GaussFactors,
    HermitianMetric,
    gauss_decompose,
)
from .poly import (
    GaussianRational,
    Poly,
    PolyMatrix,
    adjoin_columns,
    constant_rank_reduce,
    factor_zeros,
    minor_gcd,
)
from .toda import (
    TodaProblem,
    TodaSolution,
    phi_relation,
    solve,
    toda_residual,
)

__version__ = "0.1.0"
