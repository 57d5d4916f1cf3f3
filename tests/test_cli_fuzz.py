"""The CLI contract under fuzz: whatever the document or the argument list,
``cli.main`` returns an exit code in {0, 1, 2, 3} and lets no exception
escape.  An exit 3, and an exit 2 without a report, print exactly one line
on stderr; exits 0 and 1 print nothing there.

Documents are an exported catalog operator with edits: entries drawn from
the expression grammar (exp/ln/sqrt and an abstract function included),
shape and type edits, and deleted keys.  Argument lists are drawn over the
global flags and the ``catalog`` options.  Sizes stay bounded so a call
stays cheap: at most 50 samples, 256 bits of precision and exponents up
to 4, but for two leaves past the total degree cap.  The draws are derandomized, so a run is reproducible.
"""

import contextlib
import copy
import io
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hydroham import catalog
from hydroham.cli import main
from hydroham.fileio import dump_operator
from test_cli import _child_env

FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


def _base_document() -> dict:
    """T2.4 (d = 2, n = 2) as `catalog export` writes it, with an abstract
    function f(u1, u2) declared for the entries to use."""
    doc = dump_operator(catalog.instantiate("T2.4")[0])
    doc["functions"] = [{"name": "f", "args": ["u1", "u2"]}]
    return doc


BASE = _base_document()


def _paths(value, prefix=()):
    """Every key path into a JSON value, the root's included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for pos, item in enumerate(value):
            yield from _paths(item, prefix + (pos,))


PATHS = [p for p in _paths(BASE) if p]
CELLS = [p for p in PATHS if p[0] in ("metrics", "b")
         and isinstance(p[-1], int) and len(p) in (4, 5)]

# the expression grammar; a leaf may be malformed or unregistered
LEAVES = ("u1", "u2", "eps", "0", "1", "-2", "1/3", "f", "f_1", "f_12",
          "f(u2, u1)", "exp(2*u1) - exp(u1)^2", "w9", "1/0", "u1^", "(",
          "", "u1^40000", "(u1*u2)^20000")
EXPRS = st.recursive(
    st.sampled_from(LEAVES),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(inner, st.integers(-2, 4)).map(
            lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(("exp", "ln", "sqrt")), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
    ),
    max_leaves=4,
)
JUNK = st.sampled_from([None, 0, 1, 5, -1, 2.5, True, "x", "", [], {},
                        ["u1"], {"x": []}])

EDITS = st.one_of(
    st.tuples(st.just("entry"), st.sampled_from(CELLS), EXPRS),
    st.tuples(st.just("type"), st.sampled_from(PATHS), JUNK),
    st.tuples(st.just("shape"), st.sampled_from(PATHS),
              st.sampled_from(("drop", "extra"))),
    st.tuples(st.just("delete"), st.sampled_from(PATHS), st.none()),
)


def _edited(edits) -> dict:
    """BASE with the edits applied in turn; an edit whose path an earlier
    edit removed or retyped is skipped."""
    doc = copy.deepcopy(BASE)
    for kind, path, payload in edits:
        try:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            last = path[-1]
            if kind in ("entry", "type"):
                parent[last] = payload
            elif kind == "delete":
                del parent[last]
            elif payload == "drop":
                parent[last].pop()
            else:
                parent[last].append(copy.deepcopy(parent[last][0]))
        except (KeyError, IndexError, TypeError, AttributeError):
            continue
    return doc


def run(argv):
    """Calls cli.main, which must exit with a code of the contract, print
    as it says and raise nothing else."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:     # argparse: --version, or a bad argument
            code = e.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code in (0, 1) or code == 2 and out:
        assert err == "", (argv, code, err)
    else:
        # no report: one line, which says why
        assert out == "", (argv, out)
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
        prefix = "input error: " if code == 3 else "inconclusive: "
        assert err.startswith(prefix), (argv, err)


GLOBAL_FLAGS = st.lists(st.one_of(
    st.tuples(st.just("--format"), st.sampled_from(["json", "text"])),
    st.tuples(st.just("--samples"), st.integers(-3, 50).map(str)),
    st.tuples(st.just("--seed"), st.integers(-2**70, 2**70).map(str)),
    st.tuples(st.just("--precision"), st.integers(-2, 256).map(str)),
    st.tuples(st.just("--max-residual-chars"),
              st.integers(-5, 500).map(str)),
), max_size=4).map(lambda pairs: [x for pair in pairs for x in pair])
# tokens argparse refuses or acts on before any command runs
STRAYS = [["--samples", "many"], ["--bogus"], ["--version"],
          ["--format", "xml"], ["--seed", "1.5"], ["--precision", ""]]


def _with_stray(data, argv: list) -> list:
    """argv, about one time in eight with a stray token inserted somewhere
    (hypothesis favours the ends of a range, so the test is in between)."""
    if data.draw(st.integers(0, 7)) == 5:
        at = data.draw(st.integers(0, len(argv)))
        argv = argv[:at] + data.draw(st.sampled_from(STRAYS)) + argv[at:]
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(st.lists(EDITS, max_size=3), GLOBAL_FLAGS,
       st.sampled_from([["check"], ["pencil"], ["pencil", "--compatibility"]]),
       st.data())
def test_edited_documents_keep_the_contract(workdir, edits, flags, command,
                                            data):
    path = workdir / "op.json"
    path.write_text(json.dumps(_edited(edits)))
    run(_with_stray(data, flags + command[:1] + [str(path)] + command[1:]))


IDS = ["T2.2/1", "T2.4", "APP/rk2_2D_1", "T2.7/rank2_P_6", "P_gas",
       "no/such/id"]
# p and q of APP/rk2_2D_1 are declared over u3; the last replacement uses
# u1 too, which is an input error
SETS = ["p=exp(u3)", "p=ln(u3)", "p=sqrt(u3)", "p=u3^4", "p=0", "p=1/0",
        "p=", "q=1", "bogus", "p=exp(u1)*exp(u3)"]
KAPPAS = ["2", "-2/3", "0", "1/0", "x"]


@st.composite
def catalog_argv(draw, workdir):
    action = draw(st.sampled_from(["list", "show", "export", "verify"]))
    argv = ["catalog", action]
    if action != "list" or draw(st.booleans()):
        argv.append(draw(st.sampled_from(IDS)))
    if action == "verify":
        argv += [x for s in draw(st.lists(st.sampled_from(SETS), max_size=2))
                 for x in ("--set", s)]
        if draw(st.booleans()):
            argv += ["--kappa", draw(st.sampled_from(KAPPAS))]
        if draw(st.booleans()):
            argv += ["--eps", draw(st.sampled_from(["-1", "1", "0", "abc"]))]
    if action == "export" and draw(st.booleans()):
        argv += ["-o", draw(st.sampled_from([
            str(workdir / "out.json"), str(workdir / "missing" / "x.json"),
            str(workdir)]))]
    return argv


@FUZZ
@given(st.data())
def test_drawn_argument_lists_keep_the_contract(workdir, data):
    argv = data.draw(GLOBAL_FLAGS) + data.draw(catalog_argv(workdir))
    run(_with_stray(data, argv))


# a malformed input of each kind, run in a fresh interpreter: exit 3 with
# one line and no traceback
CHILD_CASES = [
    (["check", "{doc}"], [("type", ("dimension",), "two")]),
    (["check", "{doc}"], [("entry", ("metrics", "x", 0, 1), "ln(0)")]),
    (["pencil", "{doc}"], [("shape", ("b", "y", 1), "drop")]),
    (["--samples", "0", "check", "{doc}"],
     [("entry", ("metrics", "y", 1, 1), "exp(u1)^2 - exp(2*u1)")]),
    (["catalog", "export", "P_gas", "-o", "{dir}/missing/x.json"], []),
]


def test_child_processes_print_no_traceback(workdir):
    for n, (argv, edits) in enumerate(CHILD_CASES):
        doc = workdir / f"child{n}.json"
        doc.write_text(json.dumps(_edited(edits)))
        argv = [a.format(doc=doc, dir=workdir) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "hydroham.cli", "--format", "json", *argv],
            capture_output=True, text=True, env=_child_env(), timeout=60)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        assert proc.returncode == 3 and proc.stdout == "", argv
        assert proc.stderr.startswith("input error: ")
        assert proc.stderr.count("\n") == 1, (argv, proc.stderr)
