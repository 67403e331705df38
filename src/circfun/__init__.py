"""Function calculus over the commutative ring of complex circulant matrices."""

from types import ModuleType as _ModuleType

from .core import (
    Circulant,
    add,
    elementary,
    frobenius_norm,
    identity,
    mul,
    mul_fft,
    mul_naive,
    neg,
    ones,
    power,
    scale,
    to_dense,
    zero,
)
from .characterize import (
    DegreeReport,
    DivisorReport,
    PathSpec,
    ZeroBoundReport,
    detect_poly_degree,
    entire_zero_bound,
    estimate_divisor,
    logderiv_diag,
)
from .errors import (
    ChannelSingularityError,
    CircfunError,
    DegeneratePolynomialError,
    DimensionError,
    InvalidIncrementError,
    RecombinationLimitError,
    SolverError,
)
from .functions import (
    CircFunction,
    CircPoly,
    Classification,
    ExpPolyFunction,
    IncrementSpec,
    PolyFunction,
    RationalFunction,
    classify,
    numeric_derivative,
)
from .solver import (
    ScalarRoots,
    SolutionSet,
    SolutionStatus,
    residual,
    solve_circ_poly,
    solve_scalar_poly,
)
from .spectral import (
    fourier_matrix,
    from_spectrum,
    is_invertible,
    pseudoinverse,
    spectrum,
)

__version__ = "0.1.0"

#: The names imported above, so that the import lists are the one record
#: of the public API; the submodules themselves are not listed.
__all__ = sorted(k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _ModuleType))
