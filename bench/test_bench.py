"""The benchmark's own tests: the reference evaluator, the record counts
and a smoke run of every workload.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest
import sympy as sp

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("catalog", "mutation", "cli")


def test_parser_reads_the_grammar():
    u1, u2, u3 = sp.symbols("u1 u2 u3")
    syms = {"u1": u1, "u2": u2, "u3": u3}
    formal = ref.FunctionModel({"h": ["u2", "u3"], "k": ["u1"]})
    assert ref.to_sympy("-u1^2/2 + 3*u2^(-1)", syms, formal) == \
        -u1 ** 2 / 2 + 3 / u2
    assert ref.to_sympy("h_23 - k''", syms, formal) == \
        sp.Symbol("h__11") - sp.Symbol("k__2")
    model = ref.FunctionModel({"h": ["u2", "u3"]}, random.Random(3))
    h = ref.to_sympy("h", syms, model)
    assert ref.to_sympy("h_3", syms, model) == sp.diff(h, u3)
    shifted = ref.to_sympy("h_2(u1, u3 + 1)", syms, model)
    assert shifted == sp.diff(h, u2).xreplace({u2: u1, u3: u3 + 1})


def test_relations_on_a_known_operator():
    # g = [[1, 0], [0, u1]] with b = 0 breaks a2 at (x, 2, 2, 1) only
    doc = {"d": 1, "n": 2, "variables": ["u1", "u2"], "constants": [],
           "functions": {},
           "g": [[["1", "0"], ["0", "u1"]]],
           "b": [[[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]]}
    assert ref.relation_nonzero(doc, "a2", ("x", 2, 2, 1), seed=1)
    assert not ref.relation_nonzero(doc, "a2", ("x", 1, 1, 1), seed=1)
    assert not ref.relation_nonzero(doc, "a1", ("x", 1, 2), seed=1)
    assert ref.pencil_rank_and_det(doc, seed=1) == (2, False)


def test_pushed_metric_check_sees_an_ignored_change():
    from hydroham import catalog, transform
    from hydroham.fileio import dump_operator, load_change

    gas = catalog.instantiate("P_gas")[0]
    change = {"forward": {"u1": "v1", "u2": "v2 + 1", "u3": "v3 - v1"},
              "inverse": {"v1": "u1", "v2": "u2 - 1", "v3": "u3 + u1"}}
    pushed = transform.pushforward(gas, load_change(change, gas.ws))
    src = workloads.export_doc(dump_operator(gas))
    dst = workloads.export_doc(dump_operator(pushed))
    fwd, inv = change["forward"], change["inverse"]
    assert ref.pushed_metric_matches(src, dst, fwd, inv, seed=1)
    # the gas metric is constant, so an ignored change leaves it as it was
    assert not ref.pushed_metric_matches(src, dict(dst, g=src["g"]), fwd,
                                         inv, seed=1)


def test_expected_record_counts():
    assert workloads.expected_records(2, 3) == 1896
    assert workloads.expected_records(1, 3) == 489


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    p = _run(["--workload", workload, "--seed", "5", "--seconds", "1",
              "--trace", str(trace), "--smoke"])
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # the smoke cli round keeps one known-fault op
    assert result["failed"] == (1 if workload == "cli" else 0)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", ".work",
                                                  "__pycache__"))
    p = _run(["--workload", "catalog", "--seed", "1", "--seconds", "1",
              "--trace", "0"], cwd=tmp_path)
    assert p.returncode != 0
    assert '"attempted"' not in p.stdout
