"""JSON file formats: operators, coordinate changes, densities, reduction
candidates, Lagrangian densities and Legendre inputs.  All expression fields
are strings in the expression grammar.

Each loader imports the module of the object it builds, so reading one
kind of file loads none of the others' modules.
"""

from __future__ import annotations

import json

from . import expr as ex
from .parser import parse
from .symbols import InputError, Workspace
from .zerotest import DEFAULT_POLICY

# type checkers read this name as typing.TYPE_CHECKING, which would cost a
# cold call the 5 ms import of typing
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .hamsys import HamiltonianDensity, ReductionCandidate
    from .integrability import LagrangianDensity
    from .operators import HydroOperator
    from .transform import CoordinateChange


class FileFormatError(InputError):
    pass


def _require(data: dict, key: str, kind=None):
    if not isinstance(data, dict):
        raise FileFormatError(f"expected an object with key {key!r}")
    if key not in data:
        raise FileFormatError(f"missing required key {key!r}")
    value = data[key]
    # JSON true/false load as bool, a subclass of int
    if kind is not None and (not isinstance(value, kind)
                             or kind is int and isinstance(value, bool)):
        raise FileFormatError(f"key {key!r} has the wrong type")
    return value


def _optional_list(data: dict, key: str) -> list:
    """The list under an optional key; an absent key gives []."""
    return _require(data, key, list) if key in data else []


def _functions(data: dict) -> list:
    """The (name, args) of the optional "functions" declarations."""
    return [(_require(fn, "name", str), _require(fn, "args", list))
            for fn in _optional_list(data, "functions")]


def _workspace(data: dict, variables, constants=()) -> Workspace:
    """A workspace of the given symbols and the file's functions."""
    ws = Workspace()
    ws.add_variables(*variables)
    ws.add_constants(*constants)
    for name, args in _functions(data):
        ws.add_function(name, args)
    return ws.freeze()


def load_operator(data: dict) -> HydroOperator:
    from .operators import ALPHA_LABELS, HydroOperator
    d = _require(data, "dimension", int)
    if not 1 <= d <= len(ALPHA_LABELS):
        raise FileFormatError(
            f"dimension must be between 1 and {len(ALPHA_LABELS)}, got {d}")
    n = _require(data, "components", int)
    ws = _workspace(data, _require(data, "variables", list),
                    _optional_list(data, "constants"))
    if len(ws.variables) != n:
        raise FileFormatError("variables list must have `components` entries")
    metrics = _require(data, "metrics", dict)
    bs = _require(data, "b", dict)
    labels = ALPHA_LABELS[:d]
    for block in (metrics, bs):
        extra = set(block) - set(labels)
        if extra:
            raise FileFormatError(
                f"unexpected independent-variable keys {sorted(extra)} "
                f"for dimension {d}"
            )
    g, b = [], []
    for a, label in enumerate(labels):
        gm = metrics.get(label)
        bm = bs.get(label)
        if gm is None or bm is None:
            raise FileFormatError(f"missing {label!r} block")
        if not _is_nest(gm, 2, n):
            raise FileFormatError(f"metrics[{label!r}] must be {n}x{n}")
        if not _is_nest(bm, 3, n):
            raise FileFormatError(f"b[{label!r}] must be {n}x{n}x{n}")
        g.append([[parse(cell, ws) for cell in row] for row in gm])
        b.append([[[parse(cell, ws) for cell in col] for col in row]
                  for row in bm])
    return HydroOperator(ws, d, n, g, b)


def _is_nest(value, depth: int, n: int) -> bool:
    """Is value a list of n entries, `depth` levels deep?"""
    return depth == 0 or (isinstance(value, list) and len(value) == n
                          and all(_is_nest(v, depth - 1, n) for v in value))


def dump_operator(op: HydroOperator) -> dict:
    from .operators import ALPHA_LABELS, _map_nested
    data = {
        "dimension": op.d,
        "components": op.n,
        "variables": [s.name for s in op.ws.variables[: op.n]],
    }
    if op.ws.constants:
        data["constants"] = [s.name for s in op.ws.constants]
    if op.ws.functions:
        data["functions"] = [
            {"name": fn.name, "args": [a.name for a in fn.args]}
            for fn in op.ws.functions.values()
        ]
    for key, table in (("metrics", op.g), ("b", op.b)):
        data[key] = {label: _map_nested(part, ex.print_expr)
                     for label, part in zip(ALPHA_LABELS, table)}
    return data


def load_change(data: dict, src_ws: Workspace,
                policy=DEFAULT_POLICY) -> CoordinateChange:
    from .transform import coordinate_change
    forward = _require(data, "forward", dict)
    inverse = _require(data, "inverse", dict)
    if set(forward) != {s.name for s in src_ws.variables}:
        raise FileFormatError("forward keys must be the operator variables")
    dst_ws = src_ws.derive(variables=list(inverse))
    fwd = {name: parse(text, dst_ws) for name, text in forward.items()}
    inv = {name: parse(text, src_ws) for name, text in inverse.items()}
    return coordinate_change(src_ws, fwd, inv, dst_ws, policy)


def load_density(data: dict, op: HydroOperator) -> HamiltonianDensity:
    from .hamsys import HamiltonianDensity
    text = _require(data, "h", str)
    ws = op.ws
    for name, args in _functions(data):
        if ws.lookup(name) is None:
            ws = ws.derive(functions=[(name, args)])
    return HamiltonianDensity(parse(text, ws), ws)


def load_candidate(data: dict) -> ReductionCandidate:
    from .hamsys import ReductionCandidate
    m = _require(data, "m", int)
    if m < 1:
        raise FileFormatError("m must be >= 1")
    ws = _workspace(data, [f"R{i}" for i in range(1, m + 1)])
    u = [parse(t, ws) for t in _require(data, "u", list)]
    lam = [parse(t, ws) for t in _require(data, "lambda", list)]
    mu = [parse(t, ws) for t in _require(data, "mu", list)]
    if len(lam) != m or len(mu) != m:
        raise FileFormatError("lambda and mu must each list m speeds")
    v = None
    if data.get("v") is not None:
        v = [parse(t, ws) for t in _require(data, "v", list)]
        if len(v) != m:
            raise FileFormatError("v must list m speeds")
    return ReductionCandidate(ws, m, u, lam, mu, v)


def load_lagrangian(data: dict) -> LagrangianDensity:
    """The density f(a, b, c) of the fourth-order test."""
    from .integrability import LagrangianDensity
    return LagrangianDensity.from_text(_require(data, "f", str),
                                       _functions(data))


def load_legendre(data: dict):
    """(h, its workspace over rho, u, v, rhot, inverse) for `legendre`."""
    from .integrability import LEGENDRE_VARS
    ws = _workspace(data, LEGENDRE_VARS)
    return (parse(_require(data, "h", str), ws), ws,
            parse(_require(data, "inverse", str), ws))


def read_json(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            data = json.loads(fh.read().decode("utf-8"))
    except OSError as e:
        raise FileFormatError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise FileFormatError(f"{path} is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise FileFormatError(f"{path} must hold a JSON object")
    return data
