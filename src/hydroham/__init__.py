"""hydroham: symbolic verification of Hamiltonian operators of hydrodynamic
type (1D and 2D), the degenerate canonical-form catalog, operator
transformations, 2+1 quasilinear Hamiltonian systems and the fourth-order
integrability test for Euler-Lagrange densities.

The names below are imported from their submodule on first access
(PEP 562), so ``import hydroham`` loads no submodule and a command loads
only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it provides; "catalog" is the module itself
_EXPORTS = {
    "symbols": ("FunctionSymbol", "Symbol", "SymbolError", "Workspace"),
    "expr": ("Expr", "print_expr"),
    "parser": ("ParseError", "UnknownSymbolError", "parse"),
    "ratform": ("NormalizeError", "RationalForm", "ZeroDenominatorError",
                "normalize", "ratform_to_expr"),
    "zerotest": ("InconclusiveError", "Verdict", "ZeroTestPolicy", "is_zero"),
    "operators": ("ConditionReport", "HydroOperator", "check_hamiltonian",
                  "generic_rank", "is_degenerate", "is_trivial_pair",
                  "pencil_compatibility", "pencil_determinant"),
    "transform": ("CoordinateChange", "pushforward", "verify_invariance"),
    "hamsys": ("HamiltonianDensity", "QuasilinearSystem",
               "ReductionCandidate", "classify_operator_shape", "dispersion",
               "generate_system"),
    "integrability": ("LagrangianDensity", "fkt_residual", "legendre"),
    "catalog": ("catalog",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}
__all__ = list(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value
