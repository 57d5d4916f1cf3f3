"""JSON schema loading, validation errors, and round trips."""

import json

import pytest

from hydroham import catalog
from hydroham.fileio import (
    FileFormatError,
    dump_operator,
    load_candidate,
    load_change,
    load_density,
    load_operator,
)
from hydroham.operators import check_hamiltonian
from hydroham.symbols import SymbolError
from hydroham.transform import operator_difference_records


GAS = {
    "dimension": 2,
    "components": 3,
    "variables": ["u1", "u2", "u3"],
    "metrics": {
        "x": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        "y": [["0", "0", "1"], ["0", "0", "0"], ["1", "0", "0"]],
    },
    "b": {
        "x": [[["0"] * 3] * 3,
              [["0"] * 3, ["0"] * 3, ["0", "0", "-1/u1"]],
              [["0"] * 3, ["0", "0", "1/u1"], ["0"] * 3]],
        "y": [[["0"] * 3] * 3,
              [["0"] * 3, ["0"] * 3, ["0", "1/u1", "0"]],
              [["0"] * 3, ["0", "-1/u1", "0"], ["0"] * 3]],
    },
}


def test_load_operator_gas():
    op = load_operator(GAS)
    assert op.d == 2 and op.n == 3
    assert check_hamiltonian(op).overall == "proven_pass"


def test_dump_load_round_trip_all_entries():
    for entry in catalog.list_entries():
        op, ws = catalog.instantiate(entry.id)
        data = json.loads(json.dumps(dump_operator(op)))
        again = load_operator(data)
        records = operator_difference_records(op, again)
        assert all(r.verdict.is_zero_verdict for r in records), entry.id


def test_missing_key():
    bad = dict(GAS)
    del bad["metrics"]
    with pytest.raises(FileFormatError):
        load_operator(bad)


def test_wrong_shape():
    bad = json.loads(json.dumps(GAS))
    bad["metrics"]["x"] = [["0", "1"], ["1", "0"]]
    with pytest.raises(FileFormatError):
        load_operator(bad)


def test_y_keys_rejected_for_1d():
    bad = json.loads(json.dumps(GAS))
    bad["dimension"] = 1
    with pytest.raises(FileFormatError):
        load_operator(bad)


@pytest.mark.parametrize("key", ["dimension", "components"])
def test_boolean_counts_rejected(key):
    bad = json.loads(json.dumps(GAS))
    bad[key] = True
    with pytest.raises(FileFormatError, match=f"key '{key}' has the wrong type"):
        load_operator(bad)


@pytest.mark.parametrize("d", [0, -1, 5, 100])
def test_dimension_out_of_range(d):
    bad = json.loads(json.dumps(GAS))
    bad["dimension"] = d
    with pytest.raises(FileFormatError,
                       match=f"dimension must be between 1 and 4, got {d}"):
        load_operator(bad)


@pytest.mark.parametrize("key", ["constants", "functions"])
@pytest.mark.parametrize("value", ["k", 5, {"k": 1}, ""])
def test_optional_lists_rejected_when_not_lists(key, value):
    # a string used to be iterated character by character
    bad = json.loads(json.dumps(GAS))
    bad[key] = value
    with pytest.raises(FileFormatError, match=f"key '{key}' has the wrong type"):
        load_operator(bad)


@pytest.mark.parametrize("key, value, error", [
    ("constants", [1], SymbolError),
    ("constants", ["k", None], SymbolError),
    ("functions", ["k"], FileFormatError),
    ("functions", [{"name": 5, "args": []}], FileFormatError),
    ("functions", [{"name": "k", "args": [1]}], SymbolError),
])
def test_optional_lists_reject_non_string_names(key, value, error):
    bad = json.loads(json.dumps(GAS))
    bad[key] = value
    with pytest.raises(error):
        load_operator(bad)


def test_load_change_and_density():
    op = load_operator(GAS)
    change = load_change(
        {
            "forward": {"u1": "v1", "u2": "v2", "u3": "v3 + v1"},
            "inverse": {"v1": "u1", "v2": "u2", "v3": "u3 - u1"},
        },
        op.ws,
    )
    assert change.n == 3
    density = load_density(
        {"h": "1/2*u1*(u2^2 + u3^2) + k(u1)",
         "functions": [{"name": "k", "args": ["u1"]}]},
        op,
    )
    assert "k" in density.ws.functions


def test_load_candidate():
    cand = load_candidate({
        "m": 2,
        "u": ["R1", "R2"],
        "lambda": ["R1", "R2"],
        "mu": ["R1^2", "R2^2"],
    })
    assert cand.m == 2 and cand.v is None
    with pytest.raises(FileFormatError):
        load_candidate({"m": 2, "u": [], "lambda": ["R1"], "mu": []})
    with pytest.raises(FileFormatError, match="key 'm' has the wrong type"):
        load_candidate({"m": True, "u": ["R1"], "lambda": ["R1"],
                        "mu": ["R1^2"]})


@pytest.mark.parametrize("v", ["7", 5])
def test_candidate_speeds_must_be_a_list(v):
    # the string "7" used to be read as the one speed 7
    with pytest.raises(FileFormatError, match="key 'v' has the wrong type"):
        load_candidate({"m": 1, "u": ["R1"], "lambda": ["R1"],
                        "mu": ["R1^2"], "v": v})
