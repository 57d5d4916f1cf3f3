"""Every function in `src/hydroham` is reached by what the commands run.

A child interpreter installs a `sys.setprofile` hook before it imports
hydroham, then imports every exported name, runs every golden CLI case in
both formats, a few more commands, `catalog.verify_all()` and the mutation
scan of one entry, and prints the (file, first line) of every code object
that ran.  A fresh child keeps the caches earlier tests filled (the ring
cache, the workspace signature tables) from hiding a function.  Every
`def` in the package, nested ones included, must then be reached unless
`UNREACHED` lists it, and every function `UNREACHED` lists must exist and
be unreached, so the list cannot go stale.
"""

import ast
import json
import os
import subprocess
import sys

import hydroham
from test_cli import _child_env

SRC = hydroham.__path__[0]
TESTS = os.path.dirname(os.path.abspath(__file__))

# qualified name (module.Class.function) -> why no command reaches it; a
# name also covers the functions defined inside it, so a module covers all
# of its own
UNREACHED = {
    "calculus": "reference: Expr calculus the tests and the benchmark's "
                "trace check the ring against",
    "cli._Parser.error": "error path: a malformed command line",
    "expr.Expr.__sub__": "dunder: library API the tests use",
    "expr.Expr.key": "dunder: the abstract key of __eq__ and __hash__",
    "expr.Quot.key": "dunder: no command hashes or compares a quotient",
    "integrability.FktResult.integrable": "library API",
    "integrability.FktResult.proven": "library API",
    "operators.ConditionReport.failures": "library API",
    "operators.ResidualRecord.__eq__": "dunder: records compared by tests",
    "parser.ParseError.__init__": "error path: text that does not parse",
    "parser.UnknownSymbolError.__init__": "error path: an unknown name",
    "poly.Poly.__hash__": "dunder",
    "poly.PolyRing._pack": "library API: packs term_new's exponent tuple",
    "poly.PolyRing.term_new": "library API: a term from an exponent tuple",
    "poly._too_high": "error path: a total degree past the cap",
    "ratform.RationalForm.__hash__": "dunder",
    "ratform.normalize": "library API",
    "symbols.FunctionSymbol.__eq__": "dunder",
    "symbols.FunctionSymbol.__hash__": "dunder",
    "symbols.FunctionSymbol.__repr__": "dunder: printed in input errors",
    "symbols.Symbol.__repr__": "dunder",
    "zerotest.Verdict.__eq__": "dunder: verdicts compared by tests",
    "zerotest.is_zero": "library API",
}

# argv (a JSON list of argument lists) -> one JSON line, the
# [file, first line] of every code object that ran
CHILD = """
import contextlib, io, json, sys

seen = set()


def hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)


sys.setprofile(hook)
sys.path.insert(0, %r)
import hydroham

for name in hydroham.__all__:
    getattr(hydroham, name)
from hydroham import catalog, mutation
from hydroham.cli import main
from test_golden import CASES, CHECK_ENTRY, _make_inputs

_make_inputs()
commands = [["--format", fmt] + argv for argv in CASES.values()
            for fmt in ("json", "text")]
for argv in json.loads(sys.argv[1]) + commands:
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
assert all(v.ok for v in catalog.verify_all())
mutation.scan(catalog.instantiate(CHECK_ENTRY)[0])
sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in seen})))
""" % (TESTS,)

EXTRA = [["catalog", "list"], ["catalog", "show", "T2.4"],
         ["catalog", "verify", "--all"],
         ["system", "export.json", "h.json", "--classify"]]


def _defs():
    """{qualified name: (file, first line)} of every def in the package;
    the first line of a decorated function is its first decorator's."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, ast.FunctionDef):
                name = f"{prefix}.{child.name}"
                out[name] = (path, min([child.lineno] + [
                    d.lineno for d in child.decorator_list]))
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}.{child.name}"
            walk(child, name, path)

    for file in sorted(os.listdir(SRC)):
        if file.endswith(".py"):
            path = os.path.join(SRC, file)
            with open(path) as fh:
                walk(ast.parse(fh.read()), file[:-3], path)
    return out


def _covers(entry, name):
    return name == entry or name.startswith(entry + ".")


def test_every_function_is_reached_or_listed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(EXTRA)], cwd=tmp_path,
        env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    ran = {tuple(key) for key in json.loads(proc.stdout)}
    defs = _defs()
    unreached = {name for name, key in defs.items() if key not in ran}
    listed = {name for name in defs
              if any(_covers(entry, name) for entry in UNREACHED)}
    missing = sorted(unreached - listed)
    assert not missing, f"unreached, not listed: {missing}"
    reached = sorted(listed - unreached)
    assert not reached, f"reached, yet listed: {reached}"
    gone = sorted(entry for entry in UNREACHED
                  if not any(_covers(entry, name) for name in defs))
    assert not gone, f"listed, but no such function: {gone}"
