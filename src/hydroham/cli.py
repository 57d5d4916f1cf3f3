"""Command-line front end.

Exit codes: 0 every check provably passed, 1 some check failed,
2 only probabilistic or inconclusive verdicts (or an analysis that could
not be decided), 3 input error.  Exits 2 and 3 without a report print one
line on stderr.  A report whose reader closes stdout early (a pipe into
``head``) ends the call with exit 2 and nothing more.
JSON reports are byte-identical for identical inputs and seed (they carry
no timing); the text format prints wall time.
Each command handler imports the module that does its work, so a call
loads only what its command runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from . import expr as ex
from .fileio import (
    FileFormatError,
    dump_operator,
    load_candidate,
    load_change,
    load_density,
    load_lagrangian,
    load_legendre,
    load_operator,
    read_json,
)
from .poly import HeuristicGCDFailed
from .symbols import InputError
from .zerotest import (
    InconclusiveError,
    Verdict,
    ZeroTestPolicy,
    overall_result,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_INPUT = 3

_OVERALL_EXIT = {
    "proven_pass": EXIT_PASS,
    "fail": EXIT_FAIL,
    "probably_pass": EXIT_UNDECIDED,
    "inconclusive": EXIT_UNDECIDED,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"input error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


class Report:
    """Accumulates checks; renders deterministically as text or JSON."""

    def __init__(self, args, inputs: list[str]):
        self.command = [args.command] + inputs
        self.format = args.format
        self.max_chars = args.max_residual_chars
        self.inputs = {p: _digest(p) for p in inputs}
        self.checks = []
        self.kinds = []
        # records verified but, to keep the report short, not listed
        self.unlisted_passes = 0
        self.lines = []
        self.t0 = time.perf_counter()

    def add_check(self, name: str, indices, verdict: Verdict, residual=None):
        entry = {
            "name": name,
            "indices": list(indices),
            "verdict": str(verdict),
            "ok": verdict.is_zero_verdict,
        }
        if residual is not None and not verdict.is_zero_verdict:
            entry["residual"] = self._trim(ex.print_expr(residual))
        self.checks.append(entry)
        self.kinds.append(verdict.kind)

    def note(self, key: str, value):
        self.lines.append((key, value))

    def _trim(self, text: str) -> str:
        if len(text) <= self.max_chars:
            return text
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        return text[: self.max_chars] + f"... [sha256:{digest}]"

    @property
    def overall(self) -> str:
        return overall_result(self.kinds)

    def finish(self) -> int:
        overall = self.overall
        if self.format == "json":
            doc = {
                "command": self.command,
                "inputs": self.inputs,
                "notes": [
                    {"key": k, "value": v} for k, v in self.lines
                ],
                "checks": self.checks,
                "overall": overall,
            }
            print(json.dumps(doc, sort_keys=True, indent=2))
        else:
            for key, value in self.lines:
                print(f"{key}: {value}")
            shown = 0
            for c in self.checks:
                if not c["ok"]:
                    idx = ",".join(str(i) for i in c["indices"])
                    print(f"FAIL {c['name']}[{idx}] -> {c['verdict']}"
                          + (f" residual {c['residual']}"
                             if "residual" in c else ""))
                    shown += 1
                    if shown >= 20:
                        print("... further failures suppressed")
                        break
            n_ok = self.unlisted_passes + sum(c["ok"] for c in self.checks)
            n = self.unlisted_passes + len(self.checks)
            print(f"checks: {n_ok}/{n} passed")
            print(f"overall: {overall}")
            print(f"wall time: {time.perf_counter() - self.t0:.3f}s")
        return _OVERALL_EXIT[overall]


def _digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return "unavailable"


def _add_report_records(report: Report, records):
    for rec in records:
        report.add_check(rec.relation, rec.indices, rec.verdict, rec.residual)


def build_parser() -> _Parser:
    p = _Parser(prog="hydroham",
                description="symbolic checks for Hamiltonian operators of "
                            "hydrodynamic type")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--samples", type=int, default=20,
                   help="sample count for probabilistic zero tests")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision", type=int, default=64,
                   help="working precision (bits) for numeric evaluation")
    p.add_argument("--max-residual-chars", type=int, default=400)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check", help="skew-symmetry + Jacobi identity")
    s.add_argument("operator")

    s = sub.add_parser("pencil", help="pencil determinant, degeneracy, rank")
    s.add_argument("operator")
    s.add_argument("--compatibility", action="store_true",
                   help="also check the x/y parts form a compatible pair")

    s = sub.add_parser("transform", help="pushforward + invariance check")
    s.add_argument("operator")
    s.add_argument("change")
    s.add_argument("--emit", metavar="FILE",
                   help="write the transformed operator JSON here")

    s = sub.add_parser("catalog", help="canonical-form fixtures")
    s.add_argument("action", choices=("list", "show", "export", "verify"))
    s.add_argument("id", nargs="?")
    s.add_argument("--all", action="store_true")
    s.add_argument("--eps", type=int)
    s.add_argument("--kappa")
    s.add_argument("--set", action="append", default=[], metavar="NAME=EXPR",
                   help="bind an abstract function slot")
    s.add_argument("-o", "--output", metavar="FILE")

    s = sub.add_parser("system", help="quasilinear system u_t + Au_x + Bu_y")
    s.add_argument("operator")
    s.add_argument("density")
    s.add_argument("--classify", action="store_true",
                   help="reduced-shape classification (abstract density)")

    s = sub.add_parser("dispersion", help="det(E + lam A + mu B)")
    s.add_argument("operator")
    s.add_argument("density")

    s = sub.add_parser("reduction",
                       help="commutativity and reduction residuals")
    s.add_argument("operator")
    s.add_argument("density")
    s.add_argument("candidate")
    s.add_argument("--at", metavar="R1=..,t=..,x=..,y=..",
                   help="evaluate the hodograph residuals of v at a point")

    s = sub.add_parser("fkt", help="fourth-order integrability test")
    s.add_argument("density")

    s = sub.add_parser("legendre", help="partial Legendre transform")
    s.add_argument("density")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "check": _cmd_check,
        "pencil": _cmd_pencil,
        "transform": _cmd_transform,
        "catalog": _cmd_catalog,
        "system": _cmd_system,
        "dispersion": _cmd_dispersion,
        "reduction": _cmd_reduction,
        "fkt": _cmd_fkt,
        "legendre": _cmd_legendre,
    }[args.command]
    try:
        if args.max_residual_chars < 0:
            raise InputError("max-residual-chars must be at least 0, got "
                             f"{args.max_residual_chars}")
        policy = ZeroTestPolicy(samples=args.samples, seed=args.seed,
                                precision=args.precision)
        return handler(args, policy)
    except (InputError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (InconclusiveError, HeuristicGCDFailed) as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_UNDECIDED
    except BrokenPipeError:
        # the flush at exit would meet the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_UNDECIDED


def _cmd_check(args, policy) -> int:
    from .operators import check_hamiltonian
    report = Report(args, [args.operator])
    op = load_operator(read_json(args.operator))
    _add_report_records(report, check_hamiltonian(op, policy).records)
    return report.finish()


def _cmd_pencil(args, policy) -> int:
    from .operators import (
        generic_rank,
        is_degenerate,
        is_trivial_pair,
        pencil_compatibility,
        pencil_determinant,
    )
    report = Report(args, [args.operator])
    op = load_operator(read_json(args.operator))
    coeffs = pencil_determinant(op)
    for exps, coeff in sorted(coeffs.items()):
        report.note(f"det coefficient lam^{exps}", ex.print_expr(coeff))
    try:
        deg = is_degenerate(op, policy)
        report.note("degenerate", deg.degenerate)
        if deg.certificate is not None:
            report.note("certificate", ex.print_expr(deg.certificate))
        report.note("generic rank", generic_rank(op, policy))
        if op.d == 2:
            report.note("trivial pair", is_trivial_pair(op, policy).trivial)
    except InconclusiveError as e:
        report.add_check("pencil", ("analysis",), Verdict("inconclusive"))
        report.note("inconclusive", str(e))
    if args.compatibility:
        result = pencil_compatibility(op, policy)
        _add_report_records(report, result.records)
    return report.finish()


def _cmd_transform(args, policy) -> int:
    from .transform import verify_invariance
    report = Report(args, [args.operator, args.change])
    op = load_operator(read_json(args.operator))
    change = load_change(read_json(args.change), op.ws, policy)
    result = verify_invariance(op, change, policy)
    _add_report_records(report, result.records)
    if args.emit:
        _write(args.emit, json.dumps(dump_operator(result.pushed), indent=2,
                                     sort_keys=True))
        report.note("transformed operator written to", args.emit)
    return report.finish()


def _write(path: str, text: str):
    """Write an output file; a path that cannot be written is an input
    error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror}") from None


def _parse_catalog_params(args, entries) -> list[dict]:
    """Each entry's defaults with the slots --eps, --kappa and --set bind;
    over several entries a flag binds only the entries holding its slot."""
    from . import catalog
    flags = {}
    if args.eps is not None:
        flags["eps"] = Fraction(args.eps)
    if args.kappa is not None:
        try:
            flags["kappa"] = Fraction(args.kappa)
        except (ValueError, ZeroDivisionError):
            raise FileFormatError(f"--kappa: {args.kappa} is not a rational "
                                  "number") from None
    for binding in args.set:
        name, _, text = binding.partition("=")
        if not text:
            raise FileFormatError(f"--set expects NAME=EXPR, got {binding!r}")
        flags[name] = text
    out = [catalog.default_params(entry) for entry in entries]
    for params in out:
        params.update((k, v) for k, v in flags.items()
                      if k in params or len(out) == 1)
    if unknown := sorted(set(flags).difference(*out)):
        raise FileFormatError(f"unknown parameters {unknown} for every "
                              "catalog entry")
    return out


def _cmd_catalog(args, policy) -> int:
    from . import catalog
    if args.action == "list":
        report = Report(args, [])
        for e in catalog.list_entries():
            slots = list(e.const_slots) + [n for n, _ in e.func_slots]
            report.note(e.id, f"d={e.d} n={e.n} rank {e.rank_label}"
                              + (f" slots {','.join(slots)}" if slots else ""))
        return report.finish()

    if args.action in ("show", "export"):
        if not args.id:
            raise FileFormatError(f"catalog {args.action} needs an entry id")
        params, = _parse_catalog_params(args, [catalog.get_entry(args.id)])
        op, _ws = catalog.instantiate(args.id, params)
        doc = dump_operator(op)
        text = json.dumps(doc, indent=2, sort_keys=True)
        if args.action == "export" and args.output:
            _write(args.output, text + "\n")
            print(f"{args.id} written to {args.output}")
        else:
            print(text)
        return EXIT_PASS

    # verify
    report = Report(args, [])
    entries = (catalog.list_entries() if args.all or not args.id
               else [catalog.get_entry(args.id)])
    for entry, params in zip(entries, _parse_catalog_params(args, entries)):
        v = catalog.verify_entry(entry.id, params, policy)
        summary = (f"{v.report.overall}; degenerate={v.degenerate}; "
                   f"rank {v.rank} (label {v.rank_label})")
        if v.trivial is not None:
            summary += f"; trivial={v.trivial}"
        report.note(entry.id, summary)
        listed = [rec for rec in v.report.nonzero
                  if not rec.verdict.is_zero_verdict]
        report.unlisted_passes += v.report.count - len(listed)
        # unlisted ProbablyZero records still make the result a probable pass
        report.kinds += [rec.verdict.kind for rec in v.report.nonzero
                         if rec.verdict.is_zero_verdict]
        for rec in listed:
            report.add_check(f"{entry.id}:{rec.relation}", rec.indices,
                             rec.verdict, rec.residual)
        if not v.matches_label:
            report.add_check(f"{entry.id}:summary", ("entry",),
                             Verdict("proven_nonzero"))
    return report.finish()


def _cmd_system(args, policy) -> int:
    from .hamsys import classify_operator_shape, generate_system
    report = Report(args, [args.operator, args.density])
    op = load_operator(read_json(args.operator))
    density = load_density(read_json(args.density), op)
    sys_ = generate_system(op, density)
    for label, matrix in (("A", sys_.A), ("B", sys_.B)):
        for i, row in enumerate(matrix):
            report.note(f"{label}[{i + 1}]",
                        "[" + ", ".join(ex.print_expr(e) for e in row) + "]")
    if args.classify:
        shape = classify_operator_shape(op, policy)
        report.note("reduced shape", str(shape))
    return report.finish()


def _cmd_dispersion(args, policy) -> int:
    from .hamsys import dispersion, generate_system
    report = Report(args, [args.operator, args.density])
    op = load_operator(read_json(args.operator))
    density = load_density(read_json(args.density), op)
    rel = dispersion(generate_system(op, density))
    for exps, coeff in sorted(rel.coefficients.items()):
        report.note(f"lam^{exps[0]} mu^{exps[1]}", ex.print_expr(coeff))
    return report.finish()


def _cmd_reduction(args, policy) -> int:
    from .hamsys import (
        commutativity_residual,
        generate_system,
        hodograph_residual,
        reduction_residual,
    )
    from .operators import _record
    report = Report(args, [args.operator, args.density, args.candidate])
    op = load_operator(read_json(args.operator))
    density = load_density(read_json(args.density), op)
    cand = load_candidate(read_json(args.candidate))
    if args.at is not None and cand.v is None:
        raise ValueError("--at: the candidate lists no speeds v")
    sys_ = generate_system(op, density)
    residuals = []
    if cand.m >= 2:
        residuals += [("commutativity", *c)
                      for c in commutativity_residual(cand, policy)]
    residuals += [("reduction", *c) for c in reduction_residual(cand, sys_)]
    numeric = []
    if cand.v is not None:
        coords = {"t": 0, "x": 0, "y": 0, **_parse_at(args.at, cand.m)}
        point = {f"R{i}": coords.get(f"R{i}", Fraction(i))
                 for i in range(1, cand.m + 1)}
        symbolic, numeric = hodograph_residual(
            cand, point, coords["t"], coords["x"], coords["y"], policy)
        residuals += [("hodograph", *c) for c in symbolic]
    _add_report_records(report, (_record(*r, policy) for r in residuals))
    for i, value in numeric:
        if not isinstance(value, Fraction):    # to the precision's digits
            from mpmath import libmp, nstr
            value = nstr(value, libmp.prec_to_dps(policy.precision))
        report.note(f"hodograph residual at point, i={i}", str(value))
    return report.finish()


def _parse_at(text: str | None, m: int) -> dict:
    """{name: Fraction} of a --at list; the names are R1..Rm, t, x and y."""
    names = [f"R{i}" for i in range(1, m + 1)] + ["t", "x", "y"]
    coords = {}
    for item in text.split(",") if text else ():
        name, _, value = (part.strip() for part in item.partition("="))
        if name not in names:
            raise ValueError(f"--at: unknown coordinate {name!r}, expected "
                             f"one of {', '.join(names)}")
        if name in coords:
            raise ValueError(f"--at: {name} is given twice")
        try:
            coords[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--at: {name}={value} is not a rational "
                             "number") from None
    return coords


def _cmd_fkt(args, policy) -> int:
    from .integrability import DegenerateLagrangianError, fkt_residual
    report = Report(args, [args.density])
    density = load_lagrangian(read_json(args.density))
    try:
        result = fkt_residual(density, policy)
    except DegenerateLagrangianError as e:
        report.note("inapplicable", str(e))
        report.add_check("fkt", ("H",), Verdict("inconclusive"))
        return report.finish()
    report.note("hessian determinant", ex.print_expr(result.hessian))
    for m in sorted(result.verdicts, reverse=True):
        report.add_check("fkt-coefficient", m, result.verdicts[m],
                         result.residual[m])
    first = result.first_failure()
    if first is not None:
        m, coeff = first
        report.note(f"first failing coefficient da^{m[0]} db^{m[1]} dc^{m[2]}",
                    ex.print_expr(coeff))
    report.note("euler-lagrange fluxes",
                "(" + ", ".join(map(ex.print_expr, result.fluxes)) + ")")
    return report.finish()


def _cmd_legendre(args, policy) -> int:
    from .integrability import legendre
    report = Report(args, [args.density])
    result = legendre(*load_legendre(read_json(args.density)), policy)
    report.note("f(a, b, c)", ex.print_expr(result.density.f))
    for label, residual, verdict in result.identity_residuals:
        report.add_check("legendre-identity", (label,), verdict, residual)
    return report.finish()


if __name__ == "__main__":
    raise SystemExit(main())
