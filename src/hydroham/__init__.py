"""hydroham: symbolic verification of Hamiltonian operators of hydrodynamic
type (1D and 2D), the degenerate canonical-form catalog, operator
transformations, 2+1 quasilinear Hamiltonian systems and the fourth-order
integrability test for Euler-Lagrange densities."""

from .symbols import FunctionSymbol, Symbol, SymbolError, Workspace
from .expr import Expr, print_expr
from .parser import ParseError, UnknownSymbolError, parse
from .calculus import differentiate, specialize, substitute
from .ratform import (
    NormalizeError,
    RationalForm,
    ZeroDenominatorError,
    normalize,
    ratform_to_expr,
)
from .zerotest import (
    InconclusiveError,
    Point,
    Verdict,
    ZeroTestPolicy,
    evaluate,
    is_zero,
)
from .operators import (
    ConditionReport,
    HydroOperator,
    check_hamiltonian,
    generic_rank,
    is_degenerate,
    is_trivial_pair,
    pencil_compatibility,
    pencil_determinant,
)
from .transform import CoordinateChange, pushforward, verify_invariance
from .hamsys import (
    HamiltonianDensity,
    QuasilinearSystem,
    ReductionCandidate,
    classify_operator_shape,
    dispersion,
    generate_system,
)
from .integrability import LagrangianDensity, fkt_residual, legendre
from . import catalog

__version__ = "0.1.0"
