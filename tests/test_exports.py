"""The package's public names: each is imported from its submodule on
first access, so a bare ``import hydroham`` loads no submodule."""

import importlib
import subprocess
import sys

import pytest

import hydroham
from test_cli import _child_env

# the names hydroham/__init__.py imported eagerly, by submodule
EXPORTS = {
    "symbols": ["FunctionSymbol", "Symbol", "SymbolError", "Workspace"],
    "expr": ["Expr", "print_expr"],
    "parser": ["ParseError", "UnknownSymbolError", "parse"],
    "ratform": ["NormalizeError", "RationalForm", "ZeroDenominatorError",
                "normalize", "ratform_to_expr"],
    "zerotest": ["InconclusiveError", "Verdict", "ZeroTestPolicy", "is_zero"],
    "operators": ["ConditionReport", "HydroOperator", "check_hamiltonian",
                  "generic_rank", "is_degenerate", "is_trivial_pair",
                  "pencil_compatibility", "pencil_determinant"],
    "transform": ["CoordinateChange", "pushforward", "verify_invariance"],
    "hamsys": ["HamiltonianDensity", "QuasilinearSystem",
               "ReductionCandidate", "classify_operator_shape", "dispersion",
               "generate_system"],
    "integrability": ["LagrangianDensity", "fkt_residual", "legendre"],
}
NAMES = [name for names in EXPORTS.values() for name in names] + ["catalog"]


def test_bare_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hydroham; print(hydroham.__version__, sorted("
         "m for m in sys.modules if m.startswith('hydroham.')))"],
        env=_child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0.1.0", "[]"]


def test_each_name_is_its_submodule_attribute():
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"hydroham.{module}")
        for name in names:
            assert getattr(hydroham, name) is getattr(source, name), name
    assert hydroham.catalog is importlib.import_module("hydroham.catalog")


def test_all_lists_the_exports_and_star_binds_them():
    assert sorted(hydroham.__all__) == sorted(NAMES)
    namespace = {}
    exec("from hydroham import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)
    assert all(namespace[name] is getattr(hydroham, name) for name in NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hydroham.no_such_name


@pytest.mark.parametrize("name", ["evaluate", "Point"])
def test_expr_tree_evaluator_is_gone(name):
    """Forms are evaluated by zerotest.form_value alone."""
    with pytest.raises(AttributeError, match=name):
        getattr(hydroham, name)
    assert not hasattr(importlib.import_module("hydroham.zerotest"), name)
