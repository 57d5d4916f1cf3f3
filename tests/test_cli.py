"""CLI dispatch, exit codes, deterministic JSON reports."""

import copy
import json
import os
import re
import resource
import subprocess
import sys

import pytest

import hydroham
from hydroham import catalog, cli, transform
from hydroham.cli import main
from hydroham.fileio import dump_operator, load_change, load_operator, read_json


@pytest.fixture
def gas_file(tmp_path):
    op, _ = catalog.instantiate("P_gas")
    path = tmp_path / "gas.json"
    path.write_text(json.dumps(dump_operator(op)))
    return str(path)


def test_check_gas_passes(gas_file, capsys):
    assert main(["check", gas_file]) == 0
    out = capsys.readouterr().out
    assert "overall: proven_pass" in out


def test_check_broken_operator(tmp_path, capsys):
    doc = {
        "dimension": 1, "components": 2, "variables": ["u1", "u2"],
        "metrics": {"x": [["0", "1"], ["0", "0"]]},
        "b": {"x": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    assert "FAIL a1" in capsys.readouterr().out


def test_fkt_quartic_fails_with_coefficient(tmp_path, capsys):
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps({"f": "a^4 + b^2 + c^2"}))
    assert main(["fkt", str(path)]) == 1
    out = capsys.readouterr().out
    assert "-1152*a^2" in out and "da^4" in out


def test_fkt_boyer_finley_passes(tmp_path, capsys):
    path = tmp_path / "bf.json"
    path.write_text(json.dumps({"f": "a^2 + b^2 - 2*exp(c)"}))
    assert main(["fkt", str(path)]) == 0


def test_fkt_degenerate_inapplicable(tmp_path, capsys):
    path = tmp_path / "deg.json"
    path.write_text(json.dumps({"f": "a^2 + b^2"}))
    assert main(["fkt", str(path)]) == 2
    assert "inapplicable" in capsys.readouterr().out


def test_catalog_verify_all_row_count(capsys):
    assert main(["catalog", "verify", "--all"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l.split(":")[0].strip()
            in {e.id for e in catalog.list_entries()}]
    assert len(rows) == 31


def test_catalog_export_and_check(tmp_path, capsys):
    out_path = tmp_path / "op.json"
    assert main(["catalog", "export", "T2.7/rank2_P_5",
                 "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["check", str(out_path)]) == 0


def test_transform_command(tmp_path, gas_file, capsys):
    change = tmp_path / "change.json"
    change.write_text(json.dumps({
        "forward": {"u1": "v1", "u2": "v2", "u3": "v3 + v1"},
        "inverse": {"v1": "u1", "v2": "u2", "v3": "u3 - u1"},
    }))
    emitted = tmp_path / "pushed.json"
    assert main(["transform", gas_file, str(change),
                 "--emit", str(emitted)]) == 0
    capsys.readouterr()
    assert main(["check", str(emitted)]) == 0


def test_transform_emit_pushes_forward_twice(tmp_path, gas_file, capsys,
                                             monkeypatch):
    """verify_invariance pushes forward and back; --emit writes the pushed
    operator it returns instead of pushing forward a third time."""
    calls = []
    push = transform.pushforward

    def counted(op, change):
        calls.append(op)
        return push(op, change)

    for module in (transform, cli):     # every binding of the function
        if getattr(module, "pushforward", None) is push:
            monkeypatch.setattr(module, "pushforward", counted)
    change = tmp_path / "change.json"
    change.write_text(json.dumps({
        "forward": {"u1": "v1", "u2": "v2 + 1", "u3": "v3 - v1"},
        "inverse": {"v1": "u1", "v2": "u2 - 1", "v3": "u3 + u1"},
    }))
    emitted = tmp_path / "pushed.json"
    assert main(["transform", gas_file, str(change),
                 "--emit", str(emitted)]) == 0
    capsys.readouterr()
    assert len(calls) == 2
    gas = load_operator(read_json(gas_file))
    pushed = push(gas, load_change(read_json(str(change)), gas.ws))
    assert json.loads(emitted.read_text()) == dump_operator(pushed)


def test_transform_through_an_abstract_function(tmp_path, capsys):
    """u1 = v1 + f(v2) puts f' in the pushed metric and f'' in its b, and
    a7 differentiates b twice more: the pushed forms hold f to fourth
    order (to second order, f'''(v2) was not in their context)."""
    op = tmp_path / "op.json"
    op.write_text(json.dumps({
        "dimension": 1, "components": 2, "variables": ["u1", "u2"],
        "functions": [{"name": "f", "args": ["u2"]}],
        "metrics": {"x": [["1", "0"], ["0", "1"]]},
        "b": {"x": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}}))
    change = tmp_path / "change.json"
    change.write_text(json.dumps({
        "forward": {"u1": "v1 + f(v2)", "u2": "v2"},
        "inverse": {"v1": "u1 - f(u2)", "v2": "u2"}}))
    emitted = tmp_path / "pushed.json"
    assert main(["--format", "json", "transform", str(op), str(change),
                 "--emit", str(emitted)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] == "proven_pass" and len(doc["checks"]) == 101
    pushed = json.loads(emitted.read_text())
    assert pushed["metrics"]["x"] == [["f'(v2)^2 + 1", "-f'(v2)"],
                                      ["-f'(v2)", "1"]]
    assert pushed["b"]["x"] == [[["0", "f'(v2)*f''(v2)"], ["0", "0"]],
                                [["0", "-f''(v2)"], ["0", "0"]]]


def test_pencil_command(gas_file, capsys):
    assert main(["pencil", gas_file, "--compatibility"]) == 0
    out = capsys.readouterr().out
    assert "degenerate: True" in out and "generic rank: 2" in out


def test_pencil_compatibility_of_a_1d_operator_exits_3(tmp_path, capsys):
    """The x/y pair check needs d = 2.  On a d = 1 export the flag is an
    input error: one line, no report.  It used to be dropped without a
    word, with exit 0 and no compatibility record."""
    path = tmp_path / "op.json"
    assert main(["catalog", "export", "T2.2/1", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["--format", "json", "pencil", str(path),
                 "--compatibility"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: compatibility expects a d = 2 operator\n")


def test_system_and_dispersion(tmp_path, gas_file, capsys):
    density = tmp_path / "h.json"
    density.write_text(json.dumps({
        "h": "1/2*u1*(u2^2 + u3^2) + k(u1)",
        "functions": [{"name": "k", "args": ["u1"]}],
    }))
    assert main(["system", gas_file, str(density), "--classify"]) == 0
    out = capsys.readouterr().out
    assert "euler-lagrange-reducible" in out
    assert main(["dispersion", gas_file, str(density)]) == 0


def test_system_classify_1d_operator(tmp_path, capsys):
    """A d = 1 operator classifies; it used to exit 3 with an input
    error, because the triviality test required d = 2."""
    op, _ = catalog.instantiate("T2.3/rank2_2")
    path = tmp_path / "op.json"
    path.write_text(json.dumps(dump_operator(op)))
    density = tmp_path / "h.json"
    density.write_text(json.dumps({"h": "u1*u2*u3"}))
    assert main(["system", str(path), str(density), "--classify"]) == 0
    captured = capsys.readouterr()
    assert "reduced shape: decoupled-2-component(1d) [frozen: u3]" \
        in captured.out
    assert captured.err == ""


def test_reduction_command(tmp_path, gas_file, capsys):
    density = tmp_path / "h.json"
    density.write_text(json.dumps({
        "h": "1/2*u1*(u2^2 + u3^2) + k(u1)",
        "functions": [{"name": "k", "args": ["u1"]}],
    }))
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({
        "m": 1, "u": ["3", "1", "4"], "lambda": ["R1"], "mu": ["R1^2"],
    }))
    assert main(["reduction", gas_file, str(density), str(cand)]) == 0


@pytest.fixture
def hodograph_files(tmp_path, gas_file):
    density = tmp_path / "h.json"
    density.write_text(json.dumps({
        "h": "1/2*u1*(u2^2 + u3^2) + k(u1)",
        "functions": [{"name": "k", "args": ["u1"]}],
    }))
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({
        "m": 1, "u": ["3", "1", "4"], "lambda": ["R1"], "mu": ["R1^2"],
        "v": ["R1"],
    }))
    return [gas_file, str(density), str(cand)]


def test_reduction_at_point(hodograph_files, capsys):
    argv = ["reduction", *hodograph_files, "--at", "R1=2, t=1/3,x=-1"]
    assert main(argv) == 0
    assert "hodograph residual at point" in capsys.readouterr().out


@pytest.mark.parametrize("v, at, value", [
    ("(R1^2-1)/(R1-1)", "R1=1", "2"),
    ("1/exp(R1)", "R1=0", "1.0"),
    ("1/exp(R1)", "R1=1,t=1/3", "0.0345461078381089883"),
    ("exp(R1)/3", "R1=1,t=1/3", "0.572760609486348412"),
], ids=["removable", "exp-denominator", "exp-denominator-t",
        "exp-numerator"])
def test_reduction_hodograph_values(hodograph_files, tmp_path, capsys, v,
                                    at, value):
    """The residual v - x - lam t - mu y is evaluated as a form: the
    removable singularity of (R1^2-1)/(R1-1) at R1 = 1 is gone, and an
    exact numerator over a real denominator divides as reals."""
    cand = tmp_path / "v.json"
    cand.write_text(json.dumps({
        "m": 1, "u": ["3", "1", "4"], "lambda": ["R1"], "mu": ["R1^2"],
        "v": [v]}))
    assert main(["reduction", *hodograph_files[:2], str(cand),
                 "--at", at]) == 0
    assert f"hodograph residual at point, i=1: {value}\n" in \
        capsys.readouterr().out


def test_reduction_value_digits_follow_precision(hodograph_files, tmp_path,
                                                 capsys):
    """An inexact hodograph value prints the digits its precision carries:
    e/3 at 200 bits agrees with a 300-bit reference to 60 digits, at 24
    bits to 6 (both printed 15 digits once, whatever the precision)."""
    import mpmath

    cand = tmp_path / "v.json"
    cand.write_text(json.dumps({
        "m": 1, "u": ["3", "1", "4"], "lambda": ["R1"], "mu": ["R1^2"],
        "v": ["exp(R1)/3"]}))
    with mpmath.workprec(300):
        exact = mpmath.e / 3
    correct = {}
    for bits in (24, 200):
        assert main(["--precision", str(bits), "reduction",
                     *hodograph_files[:2], str(cand), "--at", "R1=1"]) == 0
        out = capsys.readouterr().out
        text = out.split("hodograph residual at point, i=1: ")[1].split()[0]
        with mpmath.workprec(300):
            error = abs(mpmath.mpf(text) - exact)
        correct[bits] = int(-mpmath.log10(error))
    assert correct[24] >= 6 and correct[200] >= 59, correct


@pytest.mark.parametrize("at, message, speeds", [
    ("R1=1/0", "--at: R1=1/0 is not a rational number", True),
    ("R1=abc", "--at: R1=abc is not a rational number", True),
    ("R7=1,q=2", "--at: unknown coordinate 'R7', expected one of R1, t, "
                 "x, y", True),
    ("R1=1,q=2", "--at: unknown coordinate 'q', expected one of R1, t, "
                 "x, y", True),
    ("R1=2,R1=3", "--at: R1 is given twice", True),
    ("R1=2", "--at: the candidate lists no speeds v", False),
], ids=["zero-denominator", "not-a-number", "unknown-R", "unknown-name",
        "repeated", "no-v"])
def test_reduction_bad_at_exits_3(hodograph_files, capsys, at, message,
                                  speeds):
    if not speeds:
        with open(hodograph_files[2]) as fh:
            cand = json.load(fh)
        del cand["v"]
        with open(hodograph_files[2], "w") as fh:
            json.dump(cand, fh)
    assert main(["reduction", *hodograph_files, "--at", at]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_reduction_singular_point_exits_3(hodograph_files, tmp_path,
                                          capsys):
    """A speed v singular at the --at point is an input error, not a
    traceback."""
    cand = tmp_path / "singular.json"
    cand.write_text(json.dumps({
        "m": 1, "u": ["R1", "0", "0"], "lambda": ["R1"], "mu": ["1"],
        "v": ["1/R1"],
    }))
    argv = ["reduction", *hodograph_files[:2], str(cand), "--at", "R1=0"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "input error: v1 at R1=0: singular denominator R1\n"


def test_reduction_abstract_atom_in_v_exits_3(hodograph_files, tmp_path,
                                              capsys):
    """An abstract atom has no value at a point."""
    cand = tmp_path / "atom.json"
    cand.write_text(json.dumps({
        "m": 1, "u": ["3", "1", "4"], "lambda": ["R1"], "mu": ["R1^2"],
        "v": ["k(R1)"], "functions": [{"name": "k", "args": ["R1"]}],
    }))
    argv = ["reduction", *hodograph_files[:2], str(cand), "--at", "R1=2"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "input error: v1 at R1=2: abstract atom k has no assigned value\n"


def test_legendre_command(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({
        "h": "1/2*rho*(u^2 + v^2) + 1/2*rho^2",
        "inverse": "rhot - 1/2*(u^2 + v^2)",
    }))
    assert main(["legendre", str(path)]) == 0
    assert "f(a, b, c)" in capsys.readouterr().out


def test_json_reports_byte_identical(tmp_path, gas_file, capsys):
    assert main(["--format", "json", "--seed", "7", "check", gas_file]) == 0
    first = capsys.readouterr().out
    assert main(["--format", "json", "--seed", "7", "check", gas_file]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["overall"] == "proven_pass"
    assert list(doc) == sorted(doc)


def test_input_errors_exit_3(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 3
    with pytest.raises(SystemExit) as err:
        main(["bogus-subcommand"])
    assert err.value.code == 3
    with pytest.raises(SystemExit) as err2:
        main(["--bogus-flag", "check", "x.json"])
    assert err2.value.code == 3


def test_zero_denominator_exits_3(tmp_path, capsys):
    doc = {
        "dimension": 1, "components": 2, "variables": ["u1", "u2"],
        "metrics": {"x": [["1/(u1-u1)", "0"], ["0", "1"]]},
        "b": {"x": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]},
    }
    path = tmp_path / "zero_den.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("key, value, message", [
    ("dimension", True, "key 'dimension' has the wrong type"),
    ("components", True, "key 'components' has the wrong type"),
    ("dimension", 5, "dimension must be between 1 and 4, got 5"),
])
def test_bad_counts_exit_3(tmp_path, capsys, key, value, message):
    doc = {
        "dimension": 1, "components": 1, "variables": ["u1"],
        "metrics": {"x": [["1"]]}, "b": {"x": [[["0"]]]},
    }
    doc[key] = value
    path = tmp_path / "bad_count.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


@pytest.mark.parametrize("args", [[[]], [{"u1": 1}], [1], [None]])
def test_function_argument_of_the_wrong_type_exits_3(tmp_path, capsys, args):
    """A declared function argument that is no string once met the symbol
    table's dict as a key: a list raised TypeError, a traceback with exit 1
    (found by tests/test_cli_fuzz.py run with more examples)."""
    doc = {
        "dimension": 1, "components": 1, "variables": ["u1"],
        "functions": [{"name": "f", "args": args}],
        "metrics": {"x": [["1"]]}, "b": {"x": [[["0"]]]},
    }
    path = tmp_path / "bad_args.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 3
    assert _assert_input_error(capsys).startswith(
        f"input error: unknown symbol {args[0]!r}")


def test_undecided_analysis_exits_2(capsys):
    # exp(u2) in the pencil makes its minors' verdicts only probabilistic
    code = main(["catalog", "verify", "T2.6/rank1_P_2/1",
                 "--set", "f=exp(u2)", "--set", "h=u2*u3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("inconclusive: ")
    assert len(err.splitlines()) == 1


def _op_1d2(cell):
    zero = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    return {"dimension": 1, "components": 2, "variables": ["u1", "u2"],
            "metrics": {"x": [[cell, "0"], ["0", "1"]]}, "b": {"x": zero}}


def _assert_input_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert len(captured.err.splitlines()) == 1
    return captured.err


def test_literal_division_by_zero_exits_3(tmp_path, capsys):
    path = tmp_path / "div0.json"
    path.write_text(json.dumps(_op_1d2("1/0")))
    assert main(["check", str(path)]) == 3
    assert "division by zero" in _assert_input_error(capsys)


def test_missing_metric_row_exits_3(tmp_path, capsys):
    """Table shapes are checked once, where the document is read."""
    doc = _op_1d2("1")
    del doc["metrics"]["x"][1]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 3
    assert _assert_input_error(capsys) == (
        "input error: metrics['x'] must be 2x2\n")


@pytest.mark.parametrize("entry, degree", [
    ("u1^40000", 40000), ("(u1*u2)^20000", 40000),
    ("u1^20000*u2^20000", 40000), ("u1^32768", 32768),
])
def test_total_degree_past_the_cap_exits_3(tmp_path, capsys, entry, degree):
    """A monomial's total degree is capped at 2^15 - 1; each entry was
    once accepted."""
    path = tmp_path / "high.json"
    path.write_text(json.dumps(_op_1d2(entry)))
    assert main(["check", str(path)]) == 3
    assert _assert_input_error(capsys) == (
        f"input error: total degree must be at most 32767, got {degree}\n")


def test_deep_nesting_exits_3(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(_op_1d2("(" * 3000 + "u1" + ")" * 3000)))
    assert main(["check", str(path)]) == 3
    assert "nested deeper" in _assert_input_error(capsys)


def test_invalid_change_exits_3(tmp_path, gas_file, capsys):
    change = tmp_path / "change.json"
    change.write_text(json.dumps({
        "forward": {"u1": "v1", "u2": "v1", "u3": "v3"},
        "inverse": {"v1": "u1", "v2": "u2", "v3": "u3"},
    }))
    assert main(["transform", gas_file, str(change)]) == 3
    assert "not the identity" in _assert_input_error(capsys)


def test_catalog_verify_counts_every_record(capsys):
    from hydroham.operators import check_hamiltonian

    op, _ws = catalog.instantiate("T2.2/1")
    n = len(check_hamiltonian(op).records)
    assert main(["catalog", "verify", "T2.2/1"]) == 0
    assert f"checks: {n}/{n} passed" in capsys.readouterr().out.splitlines()


def test_catalog_verify_json_lists_failures_only(capsys):
    assert main(["--format", "json", "catalog", "verify", "T2.2/1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] == [] and doc["overall"] == "proven_pass"


def _edit_entry(monkeypatch, entry_id, g, b, func_slots):
    """Stand a copy of the entry, with g and b entries replaced and the
    given slots, in for the entry during the test.  The edits below build
    the operators that `--set` replacements outside a slot's arguments
    built before those became input errors."""
    entry = copy.copy(catalog.get_entry(entry_id))
    entry.g, entry.b = {**entry.g, **g}, {**entry.b, **b}
    entry.func_slots = func_slots
    monkeypatch.setitem(catalog._BY_ID, entry_id, entry)


def test_catalog_verify_sampled_failure_claims_no_proof(capsys,
                                                       monkeypatch):
    """A failing record that is only probabilistic is listed as itself; no
    entry summary with a ProvenNonzero verdict is added for it.  The entry
    is given a fault: p(u3) is read as exp(u1), so p' is 0."""
    _edit_entry(monkeypatch, "APP/rk2_2D_1", {(1, 1, 1): "exp(u1)"},
                {(1, 1, 1, 3): "0"}, (("q", ("u3",)),))
    assert main(["--format", "json", "catalog", "verify",
                 "APP/rk2_2D_1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["indices"], c["verdict"]) for c in doc["checks"]] \
        == [("APP/rk2_2D_1:a2", ["y", 1, 1, 1],
             "ProbablyNonzero(witness={'u1': '1/7'})")]
    assert doc["overall"] == "fail"


def test_catalog_verify_sampled_pass_is_no_proven_pass(capsys, monkeypatch):
    """exp(2*u3) - exp(u3)^2 is zero, but its two exponentials are separate
    ring generators, so its residuals are only sampled zero: the records
    are not listed, yet the report is a probable pass, not a proven one.
    The entry's p is given the term u1*(exp(2*u3) - exp(u3)^2), with its
    u3 derivative in p'."""
    zero = "u1*(exp(2*u3) - exp(u3)^2)"
    _edit_entry(monkeypatch, "APP/rk2_2D_1", {(1, 1, 1): f"p + {zero}"},
                {(1, 1, 1, 3): f"p'/2 + {zero}"},
                catalog.get_entry("APP/rk2_2D_1").func_slots)
    assert main(["--format", "json", "catalog", "verify", "APP/rk2_2D_1",
                 "--set", "p=exp(u3)"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] == [] and doc["overall"] == "probably_pass"
    assert doc["notes"][0]["value"].startswith("probably_pass;")


def test_catalog_verify_summary_when_a_fact_contradicts_the_label(capsys):
    """With its slots set to zero the entry's y-part vanishes, so the pair
    is trivial: the relations all hold, and the proven triviality is
    reported as the entry's summary check."""
    assert main(["--format", "json", "catalog", "verify", "T2.7/rank2_P_2/1",
                 "--eps", "0", "--set", "p=0", "--set", "q=0",
                 "--set", "r=0"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["verdict"]) for c in doc["checks"]] \
        == [("T2.7/rank2_P_2/1:summary", "ProvenNonzero")]
    assert doc["notes"][0]["value"].startswith("proven_pass;")


@pytest.mark.parametrize("action", ["export", "verify"])
@pytest.mark.parametrize("argv, found", [
    (["--set", "h=u1"], "u1"),
    (["--eps", "1", "--set", "h=eps*u2"], "eps"),
    (["--set", "h=exp(h_2)"], "h"),
], ids=["variable", "constant", "function"])
def test_catalog_set_outside_the_slot_arguments_exits_3(capsys, action,
                                                        argv, found):
    """h of T2.6/rank1_P_1/1 is declared over (u2, u3): a replacement in
    other symbols, or over an abstract function, is no specialization of
    it."""
    assert main(["catalog", action, "T2.6/rank1_P_1/1", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: h may only use its arguments "
                            f"u2, u3; found {found}\n")


@pytest.mark.parametrize("text, code, overall, a1", [
    ("ln(1/exp(u1)) + u1", 2, "probably_pass", "ProbablyZero(20)"),
    ("sqrt(1/exp(u1))", 1, "fail", "ProbablyNonzero(witness={'u1': '1'})"),
], ids=["ln", "sqrt"])
def test_sampled_argument_over_a_real_denominator(tmp_path, capsys, text,
                                                  code, overall, a1):
    """The argument form 1/exp(u1) has an exact numerator and a real
    denominator; sampling once ended in a TypeError (exit 1, no report)."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "dimension": 1, "components": 2, "variables": ["u1", "u2"],
        "metrics": {"x": [["1", text], ["0", "1"]]},
        "b": {"x": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}}))
    assert main(["--format", "json", "check", str(path)]) == code
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] == overall
    assert [c["verdict"] for c in doc["checks"] if c["name"] == "a1"] == [a1]


POLICY_REPRO = ["catalog", "verify", "APP/rk2_2D_1", "--set", "p=exp(u1)"]


@pytest.mark.parametrize("argv, message", [
    (["catalog", "verify", "T2.7/rank2_P_6", "--kappa", "1/0"],
     "--kappa: 1/0 is not a rational number"),
    (["--samples", "0"] + POLICY_REPRO, "samples must be at least 1, got 0"),
    (["--samples", "-3"] + POLICY_REPRO,
     "samples must be at least 1, got -3"),
    (["--precision", "0"] + POLICY_REPRO,
     "precision must be at least 24 bits, got 0"),
    (["--precision", "1"] + POLICY_REPRO,
     "precision must be at least 24 bits, got 1"),
    (["--precision", "65537"] + POLICY_REPRO,
     "precision must be at most 65536 bits, got 65537"),
    (["--precision", "1048576"] + POLICY_REPRO,
     "precision must be at most 65536 bits, got 1048576"),
    (["--precision", "8388608"] + POLICY_REPRO,
     "precision must be at most 65536 bits, got 8388608"),
    (["--samples", "65537"] + POLICY_REPRO,
     "samples must be at most 65536, got 65537"),
], ids=["kappa-zero-denominator", "samples-0", "samples-negative",
        "precision-0", "precision-1", "precision-2^16+1", "precision-2^20",
        "precision-2^23", "samples-2^16+1"])
def test_bad_parameter_exits_3(capsys, argv, message):
    """A --kappa that is no rational, and a zero-test policy that samples
    nothing or cannot tell a value from zero, are input errors.  Such a
    policy once turned the failing APP/rk2_2D_1 repro into a probable
    pass.  So is a precision above 2^16 bits: a sampled verdict at 2^20
    bits did not finish in a minute; and so are more than 2^16 samples:
    a verdict's time grows with its samples, 3 s at 20,000 on a 1D
    operator with two exp entries."""
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_negative_max_residual_chars_exits_3(tmp_path, capsys):
    """A negative --max-residual-chars once cut each residual short of its
    end, before the digest, and exited 1.  0 prints the digest alone."""
    zero = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({
        "dimension": 1, "components": 2, "variables": ["u1", "u2"],
        "metrics": {"x": [["1", "exp(exp(u1))"], ["exp(exp(u2))", "1"]]},
        "b": {"x": zero}}))
    argv = ["--format", "json", "--max-residual-chars"]
    assert main(argv + ["-5", "check", str(path)]) == 3
    assert _assert_input_error(capsys) == \
        "input error: max-residual-chars must be at least 0, got -5\n"
    assert main(argv + ["0", "check", str(path)]) == 1
    residuals = [c["residual"] for c in
                 json.loads(capsys.readouterr().out)["checks"]
                 if "residual" in c]
    assert residuals and all(
        re.fullmatch(r"\.\.\. \[sha256:[0-9a-f]{16}\]", r)
        for r in residuals), residuals


@pytest.mark.parametrize("argv, message", [
    (["catalog", "verify", "T2.7/rank2_P_6", "--eps", "abc"],
     "argument --eps: invalid int value: 'abc'"),
    (["--samples", "x", "check", "gas.json"],
     "argument --samples: invalid int value: 'x'"),
    (["check"], "the following arguments are required: operator"),
    (["reduction", "op.json", "h.json"],
     "the following arguments are required: candidate"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["--bogus-flag", "check", "x.json"],
     "unrecognized arguments: --bogus-flag"),
], ids=["eps-not-int", "samples-not-int", "missing-operator",
        "missing-candidate", "unknown-command", "unknown-flag"])
def test_argument_errors_print_one_line(capsys, argv, message):
    """argparse's own errors exit 3 with one input-error line and no usage
    block."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {message}")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("entry, message", [
    ("ln(0)", "ln(0)"), ("sqrt(-1)", "sqrt(-1)"), ("ln(u1 - u1)", "ln(0)"),
    ("u1*ln(-2)", "ln(-2)"), ("sqrt(-1/2) + u2", "sqrt(-1/2)"),
])
def test_constant_atom_outside_its_domain_exits_3(tmp_path, capsys, entry,
                                                  message):
    """A constant exp/ln/sqrt argument outside the real domain is an input
    error, as 1/0 is; the check was once sampled to an inconclusive
    exit 2."""
    doc = dump_operator(catalog.instantiate("P_gas")[0])
    doc["metrics"]["x"][2][2] = entry
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"input error: {message} is outside the real "
                            "domain\n")


@pytest.mark.parametrize("entry", ["sqrt(0)", "ln(2)", "ln(-u1)", "ln(-1/u1)",
                                   "sqrt(-1/u1)"])
def test_constant_atom_inside_its_domain_is_accepted(tmp_path, capsys, entry):
    doc = dump_operator(catalog.instantiate("P_gas")[0])
    doc["metrics"]["x"][2][2] = entry
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) in (0, 1, 2)
    assert "input error" not in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["0", "sqrt(0)", "ln(1)", "exp(0) - 1",
                                   "sqrt(4) - 2"])
def test_rational_constant_atom_folds(tmp_path, capsys, entry):
    """exp, ln or sqrt of a rational constant with a rational value is that
    value, so each entry is g^{33,x} = 0 and the check is a proof; all but
    the first were once sampled to an undecided exit 2."""
    doc = dump_operator(catalog.instantiate("P_gas")[0])
    doc["metrics"]["x"][2][2] = entry
    path = tmp_path / "folded.json"
    path.write_text(json.dumps(doc))
    assert main(["--format", "json", "check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["overall"] == "proven_pass"


def test_unwritable_export_exits_3(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert main(["catalog", "export", "P_gas", "-o", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"input error: cannot write {path}: "
                            "No such file or directory\n")


def test_unwritable_emit_exits_3(tmp_path, gas_file, capsys):
    change = tmp_path / "change.json"
    change.write_text(json.dumps({
        "forward": {"u1": "v1", "u2": "v2", "u3": "v3"},
        "inverse": {"v1": "u1", "v2": "u2", "v3": "u3"},
    }))
    assert main(["transform", gas_file, str(change),
                 "--emit", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"input error: cannot write {tmp_path}: "
                            "Is a directory\n")


def test_exp_tower_exits_without_traceback(tmp_path):
    # six nested exp outgrow memory at most sample points; the CLI runs in
    # a child process whose address space is capped at 1.5 GB
    tower = "u1"
    for _ in range(6):
        tower = f"exp({tower})"
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(_op_1d2(tower)))
    limit = 1500 * 2**20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "hydroham.cli", "--format", "json", "check",
         str(path)],
        capture_output=True, text=True, env=_child_env(),
        preexec_fn=cap_memory, timeout=300,
    )
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr


def _child_env():
    """The environment of a child interpreter that imports this hydroham."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(hydroham.__path__[0])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_gcd_failure_exits_2(tmp_path, capsys, monkeypatch):
    from hydroham import poly

    # with no evaluation points GCDHEU gives up on the first gcd of two
    # polynomials of more than one term
    monkeypatch.setattr(poly, "HEU_GCD_MAX", 0)
    path = tmp_path / "quot.json"
    path.write_text(json.dumps(_op_1d2("(u1^2 - u2^2)/(u1 + u2)")))
    assert main(["--format", "json", "check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("inconclusive: heuristic gcd")
    assert len(captured.err.splitlines()) == 1


def test_closed_pipe_exits_without_traceback(tmp_path, capsys):
    # the JSON report of this entry is about 344 KB, far more than a pipe
    # holds, so the child is still writing when the reader closes
    path = tmp_path / "ham.json"
    assert main(["catalog", "export", "T2.7/rank2_P_1/1", "-o",
                 str(path)]) == 0
    capsys.readouterr()
    proc = subprocess.Popen(
        [sys.executable, "-m", "hydroham.cli", "--format", "json", "check",
         str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 2, err
    assert err == ""


def test_import_leaves_sympy_out():
    code = ("import sys, hydroham.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'sympy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


OP_1D = {
    "dimension": 1, "components": 2, "variables": ["u1", "u2"],
    "metrics": {"x": [["1", "0"], ["0", "1"]]},
    "b": {"x": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]},
}


@pytest.mark.parametrize("argv, files", [
    (["check", "op.json"],
     {"op.json": dict(OP_1D, metrics={"x": [[1, 0], [0, 1]]})}),
    (["check", "op.json"], {"op.json": dict(OP_1D, metrics={"x": 5})}),
    (["check", "op.json"], {"op.json": dict(OP_1D, variables=[1, 2])}),
    (["check", "op.json"], {"op.json": ["dimension"]}),
    (["check", "op.json"], {"op.json": dict(OP_1D, functions=[5])}),
    (["transform", "op.json", "change.json"],
     {"op.json": OP_1D,
      "change.json": {"forward": {"u1": 3, "u2": "v2"},
                      "inverse": {"v1": "u1", "v2": "u2"}}}),
    (["fkt", "f.json"], {"f.json": {"f": 5}}),
    (["fkt", "f.json"], {"f.json": ["f"]}),
    (["fkt", "f.json"],
     {"f.json": {"f": "k(a)", "functions": [{"name": "k"}]}}),
    (["legendre", "h.json"], {"h.json": {"h": "1/2*rho*u^2"}}),
    (["check", "op.json"], {"op.json": dict(OP_1D, constants="k")}),
    (["check", "op.json"], {"op.json": dict(OP_1D, constants=5)}),
    (["check", "op.json"], {"op.json": dict(OP_1D, constants=[1])}),
    (["check", "op.json"], {"op.json": dict(OP_1D, functions=5)}),
    (["check", "op.json"], {"op.json": dict(OP_1D, functions={})}),
    (["fkt", "f.json"], {"f.json": {"f": "a*b*c", "functions": 5}}),
], ids=["numeric-cells", "numeric-block", "numeric-variables",
        "top-level-array", "function-not-object",
        "numeric-change", "numeric-density", "fkt-top-level-array",
        "function-without-args", "legendre-without-inverse",
        "string-constants", "numeric-constants", "numeric-constant-name",
        "numeric-functions", "object-functions", "fkt-numeric-functions"])
def test_malformed_input_exits_3(tmp_path, capsys, monkeypatch, argv, files):
    monkeypatch.chdir(tmp_path)
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err
