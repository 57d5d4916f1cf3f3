"""A four-component operator checked end to end: the catalog entry
T2.7/rank2_P_1/1 with a fourth component u4 whose only entry is
g_x^{44} = 1."""

import json

import pytest

from hydroham import catalog
from hydroham.cli import main
from hydroham.fileio import dump_operator, load_change, load_operator
from hydroham.operators import (
    check_hamiltonian,
    generic_rank,
    is_degenerate,
    is_trivial_pair,
)
from hydroham.transform import verify_invariance

ENTRY = "T2.7/rank2_P_1/1"
SHEAR = {"forward": {"u1": "v1", "u2": "v2", "u3": "v3", "u4": "v4 + v1"},
         "inverse": {"v1": "u1", "v2": "u2", "v3": "u3", "v4": "u4 - u1"}}


def four_component_doc() -> dict:
    doc = dump_operator(catalog.instantiate(ENTRY)[0])
    doc["components"] = 4
    doc["variables"].append("u4")
    for label in ("x", "y"):
        metric = doc["metrics"][label]
        for row in metric:
            row.append("0")
        metric.append(["0"] * 4)
        b = doc["b"][label]
        for row in b:
            for col in row:
                col.append("0")
            row.append(["0"] * 4)
        b.append([["0"] * 4 for _ in range(4)])
    doc["metrics"]["x"][3][3] = "1"
    return doc


@pytest.fixture(scope="module")
def op4():
    return load_operator(four_component_doc())


def test_check_passes(op4):
    report = check_hamiltonian(op4)
    assert report.overall == "proven_pass"
    assert len(report.records) == 6796


def test_pencil(op4):
    assert is_degenerate(op4).degenerate
    # the entry's rank label plus one for the new g_x^{44}
    assert generic_rank(op4) == catalog.get_entry(ENTRY).rank_label + 1 == 3
    assert not is_trivial_pair(op4).trivial


def test_shear_invariance(op4):
    change = load_change(SHEAR, op4.ws)
    assert verify_invariance(op4, change).overall == "proven_pass"


def test_cli_check_and_pencil(tmp_path, capsys):
    path = tmp_path / "op4.json"
    path.write_text(json.dumps(four_component_doc()))
    assert main(["--format", "json", "check", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["checks"]) == 6796
    assert main(["--format", "json", "pencil", str(path)]) == 0
    notes = {n["key"]: n["value"]
             for n in json.loads(capsys.readouterr().out)["notes"]}
    assert notes["degenerate"] is True
    assert notes["generic rank"] == 3
    assert notes["trivial pair"] is False
