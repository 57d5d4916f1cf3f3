"""The benchmark's workloads: catalog, mutation and cli.

Each ``setup_<name>(seed, smoke, ctx)`` makes its inputs from the seed and
returns a ``Workload``: a round of ops, each a call into the program plus a
check of its output against an independent computation (``reference``) or
a property the method must have.  A check returns None when the output is
right and a message when it is not.  Ops labelled with a ``fault`` are
known to give a wrong answer today; a wrong answer there counts the op as
failed, not the run as incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

from hydroham import catalog, mutation
from hydroham.expr import print_expr
from hydroham.fileio import dump_operator
from hydroham.operators import (
    MokhovChecker,
    check_hamiltonian,
    pencil_determinant,
)

RELATION_COUNTS = {
    "a1": lambda d, n: d * n * (n - 1) // 2,
    "a2": lambda d, n: d * n ** 3,
    "a3": lambda d, n: d * d * n ** 3,
    "a4": lambda d, n: d * d * n ** 3,
    "a5": lambda d, n: d * d * n ** 4,
    "a6": lambda d, n: d * d * n ** 4,
    "a7": lambda d, n: d * d * n ** 5,
}


def expected_records(d: int, n: int) -> int:
    """Number of a1..a7 residuals with all free indices enumerated."""
    return sum(count(d, n) for count in RELATION_COUNTS.values())


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    fault: str | None = None


@dataclass
class Workload:
    ops: list
    warm: Callable[[], None] = lambda: None
    # run-level check after the last round
    finish: Callable[[], str | None] = lambda: None
    cleanup: Callable[[], None] = lambda: None


@dataclass
class Context:
    """What a workload needs from the runner."""
    root: str                  # checkout root
    ref: object                # reference.Client
    tracer: object = None      # tracing.Tracer in traced runs, else None


def operator_doc(op) -> dict:
    """Coefficient strings of an operator, as the reference reads them."""
    ws = op.ws
    return {
        "d": op.d,
        "n": op.n,
        "variables": [s.name for s in ws.variables],
        "constants": [s.name for s in ws.constants],
        "functions": {f.name: [a.name for a in f.args]
                      for f in ws.functions.values()},
        "g": [[[print_expr(e) for e in row] for row in plane]
              for plane in op.g],
        "b": [[[[print_expr(e) for e in col] for col in row] for row in plane]
              for plane in op.b],
    }


def export_doc(data: dict) -> dict:
    """The reference's operator dict of an operator file (the JSON that
    ``dump_operator`` and ``transform --emit`` write), strings as written."""
    labels = "xyzw"[:data["dimension"]]
    return {
        "d": data["dimension"],
        "n": data["components"],
        "variables": data["variables"],
        "constants": data.get("constants", []),
        "functions": {f["name"]: f["args"]
                      for f in data.get("functions", [])},
        "g": [data["metrics"][a] for a in labels],
        "b": [data["b"][a] for a in labels],
    }


def _warm_checkers(ops):
    """Builds the sympy rings the timed rounds use."""
    for op in ops:
        MokhovChecker(op)
        pencil_determinant(op)


# -- catalog ------------------------------------------------------------------

SMOKE_ENTRIES = ("T2.2/1", "T2.2/2", "T2.3/rank1_3", "T2.4")


def _catalog_entries(smoke):
    entries = catalog.list_entries()
    if smoke:
        entries = [e for e in entries if e.id in SMOKE_ENTRIES]
    return entries


def setup_catalog(seed: int, smoke: bool, ctx: Context) -> Workload:
    entries = _catalog_entries(smoke)
    random.Random(seed).shuffle(entries)
    bases = {e.id: catalog.instantiate(e.id)[0] for e in entries}
    ops = [Op(e.id, lambda e=e: catalog.verify_entry(e.id),
              _catalog_check(e, bases[e.id], seed, ctx)) for e in entries]
    return Workload(ops, warm=lambda: _warm_checkers(bases.values()))


def _catalog_check(entry, base, seed, ctx):
    facts = {}

    def check(v):
        rep = v.report
        if rep.overall != "proven_pass":
            return f"overall {rep.overall}"
        want = expected_records(entry.d, entry.n)
        if len(rep.records) != want:
            return f"{len(rep.records)} residuals, expected {want}"
        if any(r.verdict.kind != "proven_zero" for r in rep.records):
            return "a residual is not ProvenZero"
        if not v.degenerate or v.rank != entry.rank_label:
            return f"degenerate={v.degenerate} rank={v.rank}"
        if v.trivial is not (False if entry.d == 2 else None):
            return f"trivial={v.trivial}"
        if not facts:  # independent of the program's answer: once a run
            facts.update(ctx.ref.call("catalog_facts", operator_doc(base),
                                      seed))
        if not facts["dets_zero"] or facts["rank"] != entry.rank_label:
            return (f"reference pencil: det zero {facts['dets_zero']}, "
                    f"rank {facts['rank']}")
        if facts["nonzero"]:
            return f"reference finds nonzero residuals {facts['nonzero']}"
        return None
    return check


# -- mutation -----------------------------------------------------------------

def setup_mutation(seed: int, smoke: bool, ctx: Context) -> Workload:
    entries = _catalog_entries(smoke)
    bases, items = [], []
    for e in entries:
        op, _ws = catalog.instantiate(e.id)
        bases.append(op)
        for m, mutant in mutation.mutants(op):
            items.append((e.id, m, mutant))
    random.Random(seed).shuffle(items)

    def verdict(mutant):
        found = mutation.first_proven_failure(mutant)
        report = check_hamiltonian(mutant) if found is None else None
        return found, report

    tally = {"caught": 0, "total": 0}

    def make_check(mutant):
        def check(out):
            found, report = out
            tally["total"] += 1
            tally["caught"] += found is not None
            if found is None:
                if report.overall != "proven_pass":
                    return f"survivor fails the full check: {report.overall}"
                return None
            rel, idx, _rf = found
            if not ctx.ref.call("relation_nonzero", operator_doc(mutant),
                                rel, idx, seed):
                return f"reference finds {rel}{idx} zero"
            return None
        return check

    ops = [Op(f"{eid}:{m.kind}{m.index}", lambda mut=mut: verdict(mut),
              make_check(mut)) for eid, m, mut in items]

    def finish():
        caught, total = tally["caught"], tally["total"]
        if not smoke and caught < 0.95 * total:
            return f"only {caught}/{total} mutants caught"
        return None
    return Workload(ops, warm=lambda: _warm_checkers(bases), finish=finish)


# -- cli ----------------------------------------------------------------------

# 2D, n = 3 entries whose checks cost about the same
CLI_ENTRIES = ("T2.6/rank1_P_1/1", "T2.6/rank1_P_2/1", "T2.7/rank2_P_1/1",
               "T2.7/rank2_P_2/1", "T2.7/rank2_P_4/1", "APP/rank1_sol2")
CLI_BOOT = "import sys; from hydroham.cli import main; sys.exit(main())"
GAS_DENSITY = {"h": "1/2*u1*(u2^2 + u3^2) + k(u1)",
               "functions": [{"name": "k", "args": ["u1"]}]}
FKT = {"bf": "a^2 + b^2 - 2*exp(c)", "quadratic": "a^2 + b^2 + c^2",
       "quartic": "a^4 + b^2 + c^2"}
LEGENDRE = {"h": "1/2*rho*(u^2 + v^2) + 1/2*rho^2",
            "inverse": "rhot - 1/2*(u^2 + v^2)"}


def _op_1d2(g, functions=()):
    zero = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    return {"dimension": 1, "components": 2, "variables": ["u1", "u2"],
            "functions": [{"name": f, "args": a} for f, a in functions],
            "metrics": {"x": g}, "b": {"x": zero}}


# inputs that do not depend on the seed, with the fault each shows today
FAULTS = {
    "fault-nested-atoms": (
        _op_1d2([["1", "exp(exp(u1))"], ["exp(exp(u2))", "1"]]),
        "nested atoms get colliding signatures in ratform.atom_signature; "
        "the a1 record says ProvenZero"),
    "fault-transcendental-argument": (
        _op_1d2([["1", "f(ln(exp(u1)))"], ["f(u1)", "1"]], [("f", ["u1"])]),
        "an abstract atom with an exp/ln argument is treated as exact; "
        "the a1 record says ProvenNonzero"),
    "fault-zero-denominator": (
        _op_1d2([["1/(u1-u1)", "0"], ["0", "1"]]),
        "ZeroDenominatorError escapes as a traceback with exit 1 instead "
        "of exit 3 and one line on stderr"),
}


@dataclass
class CliResult:
    code: int
    out: str
    err: str

    def doc(self):
        return json.loads(self.out)


def setup_cli(seed: int, smoke: bool, ctx: Context) -> Workload:
    rng = random.Random(seed)
    work = os.path.join(ctx.root, "bench", ".work", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)

    def put(name, doc):
        path = os.path.join(work, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return os.path.relpath(path, ctx.root)

    entry = catalog.get_entry(rng.choice(CLI_ENTRIES))
    op, _ws = catalog.instantiate(entry.id)
    ham = put("ham.json", dump_operator(op))
    # a sign flip of a nonzero b^{ij}_k breaks a2 at its own index, so every
    # flip mutant of a Hamiltonian operator is non-Hamiltonian
    flips = [mut for m, mut in mutation.mutants(op) if m.kind == "flip"]
    mutant = rng.choice(flips)
    mutant_file = put("mutant.json", dump_operator(mutant))
    gas_doc = dump_operator(catalog.instantiate("P_gas")[0])
    gas = put("gas.json", gas_doc)
    h = put("h.json", GAS_DENSITY)
    # P_gas through a rational change takes minutes: the CLI op shears
    a, b = rng.choice("+-"), rng.choice("+-")
    flip = {"+": "-", "-": "+"}
    change_doc = {
        "forward": {"u1": "v1", "u2": f"v2 {a} 1", "u3": f"v3 {b} v1"},
        "inverse": {"v1": "u1", "v2": f"u2 {flip[a]} 1",
                    "v3": f"u3 {flip[b]} u1"}}
    change = put("change.json", change_doc)
    pushed = os.path.join(work, "pushed.json")
    fkt = {k: put(f"fkt_{k}.json", {"f": f}) for k, f in FKT.items()}
    leg = put("legendre.json", LEGENDRE)
    flags = ["--format", "json", "--seed", str(rng.randint(0, 2 ** 16))]

    cases = [
        ("check", ["check", ham], _expect_ham(entry)),
        ("check-mutant", ["check", mutant_file],
         _expect_mutant(mutant, seed, ctx)),
        ("pencil", ["pencil", gas, "--compatibility"], _expect_pencil),
        ("transform", ["transform", gas, change, "--emit",
                       os.path.relpath(pushed, ctx.root)],
         _expect_transform(gas_doc, change_doc, pushed, seed, ctx)),
        ("system", ["system", gas, h, "--classify"], _expect_system(ctx)),
        ("dispersion", ["dispersion", gas, h], _expect_dispersion(ctx)),
        ("fkt-bf", ["fkt", fkt["bf"]], _expect_all_ok),
        ("fkt-quadratic", ["fkt", fkt["quadratic"]], _expect_all_ok),
        ("fkt-quartic", ["fkt", fkt["quartic"]], _expect_quartic(ctx)),
        ("legendre", ["legendre", leg], _expect_all_ok),
        ("catalog-verify", ["catalog", "verify", entry.id],
         _expect_verify(entry)),
    ]
    ops = [Op(name, _cli_runner(flags + argv, ctx), check)
           for name, argv, check in cases]
    for name, (doc, why) in FAULTS.items():
        path = put(f"{name}.json", doc)
        ops.append(Op(name, _cli_runner(["--format", "json", "check", path],
                                         ctx),
                      _FAULT_CHECKS[name], fault=why))
    if smoke:
        ops = [o for o in ops if o.name in ("check", "transform",
                                            "fkt-quartic",
                                            "fault-zero-denominator")]

    def cleanup():
        for f in os.listdir(work):
            os.remove(os.path.join(work, f))
        os.rmdir(work)
    return Workload(ops, cleanup=cleanup)


def _cli_runner(argv, ctx):
    if ctx.tracer is not None:
        return lambda: _cli_in_process(argv, ctx)
    env = dict(os.environ)
    src = os.path.join(ctx.root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def run():
        p = subprocess.run([sys.executable, "-c", CLI_BOOT, *argv],
                           cwd=ctx.root, env=env, capture_output=True,
                           text=True, timeout=120)
        return CliResult(p.returncode, p.stdout, p.stderr)
    return run


def _cli_in_process(argv, ctx):
    from hydroham import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with ctx.tracer.span("cli.main"):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
            except Exception:
                # what the interpreter does with an uncaught exception
                traceback.print_exc()
                code = 1
    return CliResult(code, out.getvalue(), err.getvalue())


def _code(res, want):
    if res.code != want:
        last = (res.err.strip().splitlines() or [""])[-1]
        return f"exit {res.code}, expected {want}: {last[:200]}"
    return None


def _expect_all_ok(res):
    bad = _code(res, 0)
    if bad:
        return bad
    doc = res.doc()
    if not all(c["ok"] for c in doc["checks"]):
        return "a check is not ok"
    return None


def _notes(doc):
    return {n["key"]: n["value"] for n in doc["notes"]}


def _expect_ham(entry):
    def check(res):
        bad = _expect_all_ok(res)
        if bad:
            return bad
        doc = res.doc()
        want = expected_records(entry.d, entry.n)
        if doc["overall"] != "proven_pass" or len(doc["checks"]) != want:
            return f"{doc['overall']} with {len(doc['checks'])} checks"
        return None
    return check


def _expect_mutant(mutant, seed, ctx):
    mdoc = operator_doc(mutant)

    def check(res):
        bad = _code(res, 1)
        if bad:
            return bad
        doc = res.doc()
        failing = [c for c in doc["checks"] if not c["ok"]]
        if doc["overall"] != "fail" or not failing:
            return "mutant not reported as failing"
        if not all("residual" in c for c in failing):
            return "a failing check carries no residual"
        first = failing[0]
        if not ctx.ref.call("relation_nonzero", mdoc, first["name"],
                            first["indices"], seed):
            return f"reference finds {first['name']}{first['indices']} zero"
        return None
    return check


def _expect_pencil(res):
    bad = _expect_all_ok(res)
    if bad:
        return bad
    notes = _notes(res.doc())
    if (notes.get("degenerate") is not True or notes.get("generic rank") != 2
            or notes.get("trivial pair") is not False):
        return f"pencil notes {notes}"
    return None


def _expect_transform(src, change, pushed, seed, ctx):
    def check(res):
        bad = _expect_all_ok(res)
        if bad:
            return bad
        with open(pushed) as fh:
            dst = json.load(fh)
        os.remove(pushed)  # the next round must write its own
        if not ctx.ref.call("pushed_metric_matches", export_doc(src),
                            export_doc(dst), change["forward"],
                            change["inverse"], seed):
            return "pushed metric differs from K g K^T"
        return None
    return check


def _expect_system(ctx):
    def check(res):
        bad = _code(res, 0)
        if bad:
            return bad
        notes = _notes(res.doc())
        if "euler-lagrange-reducible" not in str(notes.get("reduced shape")):
            return f"reduced shape {notes.get('reduced shape')}"
        return ctx.ref.call("gas_system_mismatch", notes)
    return check


def _expect_dispersion(ctx):
    def check(res):
        return _code(res, 0) or ctx.ref.call("gas_dispersion_mismatch",
                                             _notes(res.doc()))
    return check


def _expect_quartic(ctx):
    def check(res):
        bad = _code(res, 1)
        if bad:
            return bad
        got = _notes(res.doc()).get("first failing coefficient da^4 db^0 dc^0")
        if got is None or not ctx.ref.call("equals_polynomial", got,
                                           "-1152*a^2", ["a"]):
            return f"first failing coefficient {got}, expected -1152*a^2"
        return None
    return check


def _expect_verify(entry):
    def check(res):
        bad = _code(res, 0)
        if bad:
            return bad
        summary = _notes(res.doc()).get(entry.id, "")
        r = entry.rank_label
        if not summary.startswith(
                f"proven_pass; degenerate=True; rank {r} (label {r})"):
            return f"summary {summary!r}"
        return None
    return check


def _a1_verdict(res):
    return next(c["verdict"] for c in res.doc()["checks"]
                if c["name"] == "a1")


def _fault_nested(res):
    # exp(exp(u1)) - exp(exp(u2)) is not zero
    bad = _code(res, 1)
    if bad:
        return bad
    v = _a1_verdict(res)
    return None if "Nonzero" in v else f"a1 verdict {v}"


def _fault_transcendental(res):
    # f(ln(exp(u1))) - f(u1) is zero
    if res.code not in (0, 1, 2):
        return f"exit {res.code}"
    v = _a1_verdict(res)
    return None if v.startswith(("ProvenZero", "ProbablyZero")) \
        else f"a1 verdict {v}"


def _fault_zero_denominator(res):
    bad = _code(res, 3)
    if bad:
        return bad
    if len(res.err.strip().splitlines()) != 1 or "Traceback" in res.err:
        return "stderr is not one line"
    return None


_FAULT_CHECKS = {
    "fault-nested-atoms": _fault_nested,
    "fault-transcendental-argument": _fault_transcendental,
    "fault-zero-denominator": _fault_zero_denominator,
}

SETUPS = {
    "catalog": setup_catalog,
    "mutation": setup_mutation,
    "cli": setup_cli,
}
