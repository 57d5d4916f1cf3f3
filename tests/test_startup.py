"""What a cold `hydroham` process loads.

Each test runs the CLI in a fresh child interpreter: this process has
already imported sympy, and mpmath through it, so an eager import (or a
missing deferred one) would not show here.  Modules loaded before hydroham
is imported are not counted, since `site` hooks may import third-party
packages of their own.
"""

import json
import subprocess
import sys

import pytest

from hydroham import catalog
from hydroham.cli import main
from hydroham.fileio import dump_operator
from test_cli import _child_env
from test_golden import CHECK_ENTRY, GOLDEN

# standard-library modules a cold call need not pay for: `dataclasses`
# imports `inspect`, which imports `ast`, `dis` and `tokenize` (10 ms), and
# each @dataclass then compiles its generated methods with `exec` (another
# 10 ms); `typing` takes 5 ms
HEAVY = ("dataclasses", "inspect", "typing")

# argv (a JSON list of --format json argument lists) -> one JSON line: the
# third-party modules loaded after importing hydroham.cli, then, for each
# command, its exit code, stdout length and SHA-256, the third-party
# modules loaded so far, the hydroham submodules loaded so far and the
# HEAVY modules loaded so far
CHILD = """
import contextlib, hashlib, io, json, sys

start = set(sys.modules)
HEAVY = %r


def third_party():
    return sorted(m for m in set(sys.modules) - start
                  if m.split(".")[0] not in sys.stdlib_module_names
                  and m.split(".")[0] != "hydroham")


def own():
    return sorted(m.split(".")[1] for m in sys.modules
                  if m.startswith("hydroham."))


from hydroham.cli import main

after_import = third_party()
rows = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--format", "json"] + argv)
    out = buf.getvalue().encode()
    rows.append([code, len(out), hashlib.sha256(out).hexdigest(),
                 third_party(), own(),
                 [m for m in HEAVY if m in sys.modules and m not in start]])
print(json.dumps({"mpmath_at_start": "mpmath" in start,
                  "after_import": after_import, "rows": rows}))
""" % (HEAVY,)

# -> one JSON line: the hydroham submodules and the HEAVY modules that
# importing every submodule of hydroham loads
IMPORT_ALL = """
import importlib, json, os, sys

start = set(sys.modules)
import hydroham

for name in sorted(os.listdir(hydroham.__path__[0])):
    if name.endswith(".py") and name != "__init__.py":
        importlib.import_module("hydroham." + name[:-3])
print(json.dumps([sorted(m for m in sys.modules if m.startswith("hydroham.")),
                  [m for m in %r if m in sys.modules and m not in start]]))
""" % (HEAVY,)


def _child(script, *args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=cwd,
        env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _cold(commands, cwd):
    result = _child(CHILD, json.dumps(commands), cwd=cwd)
    assert not result["mpmath_at_start"]
    return result


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup")
    with open(path / "gas.json", "w") as fh:
        json.dump(dump_operator(catalog.instantiate("P_gas")[0]), fh)
    with open(path / "quartic.json", "w") as fh:
        json.dump({"f": "a^4 + b^2 + c^2"}, fh)
    assert main(["catalog", "export", "T2.6/rank1_P_2/1", "--set",
                 "f=exp(u2)", "--set", "h=u2*u3",
                 "-o", str(path / "rank1_exp.json")]) == 0
    return path


def test_rational_commands_load_no_third_party_module(inputs, capsys):
    commands = [["check", "gas.json"], ["pencil", "gas.json"],
                ["fkt", "quartic.json"], ["catalog", "verify", CHECK_ENTRY]]
    result = _cold(commands, inputs)
    assert result["after_import"] == []
    assert [row[0] for row in result["rows"]] == [0, 0, 1, 0]
    for argv, row in zip(commands, result["rows"]):
        assert row[3] == [], argv


def test_sampled_verdict_imports_mpmath_when_needed(inputs):
    """The exp(u2) pencil is the one golden case whose verdicts sample."""
    result = _cold([["pencil", "rank1_exp.json"]], inputs)
    assert result["after_import"] == []
    code, size, digest, loaded, _own, _heavy = result["rows"][0]
    assert (code, size, digest) == GOLDEN["pencil-exp-witness"]
    assert "mpmath" in loaded


# hydroham submodules a command must not load: each imports its domain
# module in its handler, and a file loader imports only what it builds
NOT_LOADED = {
    "check": {"transform", "hamsys", "integrability", "catalog"},
    "pencil": {"transform", "hamsys", "integrability", "catalog"},
    "fkt": {"operators", "transform", "hamsys", "catalog"},
    "catalog": {"transform", "hamsys", "integrability"},
}
COMMANDS = {"check": ["check", "gas.json"],
            "pencil": ["pencil", "gas.json", "--compatibility"],
            "fkt": ["fkt", "quartic.json"],
            "catalog": ["catalog", "verify", CHECK_ENTRY]}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_loads_only_its_modules(inputs, name):
    """Each command runs alone in a fresh child, so what it loads is not
    hidden by an earlier command."""
    result = _cold([COMMANDS[name]], inputs)
    code, _size, _digest, _third, own, heavy = result["rows"][0]
    assert code in (0, 1), code
    assert NOT_LOADED[name].isdisjoint(own), own
    assert "operators" in own or name == "fkt", own
    assert heavy == [], heavy


def test_no_module_loads_a_heavy_stdlib_module():
    """The value types are plain classes: no hydroham submodule imports
    dataclasses (so none loads inspect) or typing."""
    own, heavy = _child(IMPORT_ALL)
    assert "hydroham.transform" in own and "hydroham.cli" in own, own
    assert heavy == [], heavy
