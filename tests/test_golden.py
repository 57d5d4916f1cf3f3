"""Golden CLI outputs: `--format json` stdout bytes and exit codes.

Each case runs the CLI in a fresh directory on input files named by
relative paths, so the reports do not depend on where the test runs.
`GOLDEN` pins the exit code, the length and the SHA-256 of stdout (and of
a file the command writes).  `VERDICTS` pins what a change of printed
expressions must keep: the exit code, the note keys, and the name,
indices and verdict of every check (their count and SHA-256).  To print
new tables after an intended output change, run
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from hydroham import catalog, mutation
from hydroham.cli import main
from hydroham.fileio import dump_operator

GAS_DENSITY = {"h": "1/2*u1*(u2^2 + u3^2) + k(u1)",
               "functions": [{"name": "k", "args": ["u1"]}]}
SHEAR = {"forward": {"u1": "v1", "u2": "v2", "u3": "v3 + v1"},
         "inverse": {"v1": "u1", "v2": "u2", "v3": "u3 - u1"}}
MOBIUS = {"forward": {"u1": "v1", "u2": "v2/(1 + v2)"},
          "inverse": {"v1": "u1", "v2": "u2/(1 - u2)"}}
EXP_DENSITY = {"h": "u1*u2*u3 + exp(u2)"}
LEGENDRE = {"h": "1/2*rho*(u^2 + v^2) + 1/2*rho^2",
            "inverse": "rhot - 1/2*(u^2 + v^2)"}
CHECK_ENTRY = "T2.7/rank2_P_1/1"
# an m = 2 reduction of the gas system whose residuals do not all vanish,
# with commuting-flow speeds v, so that failing residual text and the
# hodograph notes are in the report
CANDIDATE = {"m": 2, "u": ["R1", "R2", "R1*R2"],
             "lambda": ["R1", "R2/(1+R1)"], "mu": ["R1^2", "exp(R2)"],
             "v": ["R2", "2*R1"]}

# name -> argv after `--format json`; the file after `--emit` is emitted
CASES = {
    "check-export": ["check", "export.json"],
    "check-flip-mutant": ["check", "mutant.json"],
    "check-gas-flip-mutant": ["check", "gas_flip.json"],
    "pencil-compatibility": ["pencil", "gas.json", "--compatibility"],
    "pencil-gas-flip-compatibility": ["pencil", "gas_flip.json",
                                      "--compatibility"],
    "pencil-exp-witness": ["pencil", "rank1_exp.json"],
    "system-classify": ["system", "gas.json", "h.json", "--classify"],
    "dispersion": ["dispersion", "gas.json", "h.json"],
    "transform-emit": ["transform", "gas.json", "shear.json",
                       "--emit", "pushed.json"],
    "transform-mobius-emit": ["transform", "t24.json", "mobius.json",
                              "--emit", "pushed_t24.json"],
    "transform-abstract-emit": ["transform", "rank1_f.json", "shear.json",
                                "--emit", "pushed_rank1_f.json"],
    "system-abstract-exp": ["system", "rank1_f.json", "h_exp.json"],
    "dispersion-abstract-exp": ["dispersion", "rank1_f.json", "h_exp.json"],
    "fkt-quartic": ["fkt", "fkt_quartic.json"],
    "fkt-nondiagonal": ["fkt", "fkt_nondiagonal.json"],
    "legendre": ["legendre", "legendre.json"],
    "catalog-verify": ["catalog", "verify", CHECK_ENTRY],
    "reduction-candidate": ["reduction", "gas.json", "h.json",
                            "candidate.json", "--at", "R1=2,R2=3"],
}

# name -> (exit code, stdout length, stdout sha256[, emitted file sha256])
GOLDEN = {
    "catalog-verify": (0, 239,
        "5c7dc5ed4bcb7e8b0e1f85e0a865d2aff1113fdff0d207265ba42b42b9a5e77e"),
    "check-export": (0, 344518,
        "c5ca2ec22dbcbe52c893aac250c188545279d74282c78fe22ca02ac96dad2bf4"),
    "check-flip-mutant": (1, 345095,
        "3015d0f1763ea2be046a52e15e0cbe29cf314bdad8c56acb075b5937837b6c20"),
    "check-gas-flip-mutant": (1, 345933,
        "ff9f377023feda7ae3f4aa6e43ef623eaf332518dca67857aae22f0fc20c9908"),
    "dispersion": (0, 1015,
        "33009fd7d294e97dff19aeae9ff29ddcd8dae80fa1aa7f356e45d37d3431730d"),
    "dispersion-abstract-exp": (0, 524,
        "b99dc2abb343aa792423892f3cc7944e1e89ce712e04e29a73aea4ca719adbf5"),
    "fkt-nondiagonal": (1, 2943,
        "9f71b38b54020ece1c2cf4b01edce6dd91514fa099f0b7dcc1d0d9304a7d1e4e"),
    "fkt-quartic": (1, 2824,
        "2545d35636759c00490c72f31029d646f3c23001fd6af535477b0c4a62f4b0d6"),
    "legendre": (0, 791,
        "09a95d747aed308fabc60407605fe30a42af1789a6100b7957fa0300109da8dc"),
    "pencil-compatibility": (0, 97155,
        "06f568e571c73b2dfe602af1c803fa65cdaf1096761d3311c545884434ed1643"),
    "pencil-exp-witness": (2, 682,
        "51d89314d19d135307d5acc23ebe704369f2c5ea798f98d3d4369e238b86a3db"),
    "pencil-gas-flip-compatibility": (1, 98280,
        "c537d2b31d6430f65617db81672a6cbea07942f8d48ee15f8a3270ec1ea1746b"),
    "reduction-candidate": (1, 3201,
        "a9ef74d11090d8127672dd6eedf5ead5a79e928af3658242485072084b715290"),
    "system-abstract-exp": (0, 760,
        "f4d8306ba203cf90362ed7f52b20d811823aa871da8afdd8e9b053ed3f9644f9"),
    "system-classify": (0, 774,
        "95b17441b9c374608ece8fe2df264b4a2d827562076a0e143da914fd9b0a371d"),
    "transform-abstract-emit": (0, 357058,
        "62ec5425d96c8e725222b9fd1879aeb36777d14913da7ce287a6ad03d8c62039",
        "f671dbc5cd28b3109d487606bb34d2a97114a514b3f7c1fe3a41e5e189b82c88"),
    "transform-emit": (0, 357042,
        "c3e8fc3d8e493db270928d51de22a9461a8bc06c64de945fe4131552e5444867",
        "476d97d6cebce424ab42af6470587c3de874ef0a5fb48b7f0295779dd85201ea"),
    "transform-mobius-emit": (0, 64922,
        "d421d40fe3e88fc3b20da961b72f0bfd8433c7651aaef87d37c5d02962111a10",
        "c209f1ba6d92876544f737b77223d42db2b9c84fb58e8f3430a3cba65a205b50"),
}

# name -> (exit code, note keys, check count, checks sha256)
VERDICTS = {
    "catalog-verify": (0, (
        "T2.7/rank2_P_1/1",
    ), 0,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "check-export": (0, (), 1896,
        "3162e8ea363e4b6e878a976b48a2aac0f3f32c3bbc4b7476ec6f1b22f6fd2a07"),
    "check-flip-mutant": (1, (), 1896,
        "7d303f8c4bd6f77fdd35e2c27a017c6e782409768bf26493ecd4f04173cc91d3"),
    "check-gas-flip-mutant": (1, (), 1896,
        "561768ce10725a625ab2727a262116b49fa97ab0c39da1540e997370e0c364d9"),
    "dispersion": (0, (
        "lam^0 mu^0",
        "lam^0 mu^1",
        "lam^0 mu^2",
        "lam^0 mu^3",
        "lam^1 mu^0",
        "lam^1 mu^1",
        "lam^1 mu^2",
        "lam^2 mu^0",
        "lam^2 mu^1",
        "lam^3 mu^0",
    ), 0,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "dispersion-abstract-exp": (0, (
        "lam^0 mu^0",
        "lam^0 mu^1",
        "lam^1 mu^0",
    ), 0,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "fkt-nondiagonal": (1, (
        "hessian determinant",
        "first failing coefficient da^4 db^0 dc^0",
        "euler-lagrange fluxes",
    ), 15,
        "e77a193b303e4a31df5b8de1eb5f52cc1af1650d53c76ac92d9111df331b0338"),
    "fkt-quartic": (1, (
        "hessian determinant",
        "first failing coefficient da^4 db^0 dc^0",
        "euler-lagrange fluxes",
    ), 15,
        "7dcad53966a7b26b692a0709ba249b54186b1b20350b4e6d24b169892ddce4ed"),
    "legendre": (0, (
        "f(a, b, c)",
    ), 3,
        "23141b288cdbc667c8708997da6a160a32551e39b667dd7768f9b3f18d2d294a"),
    "pencil-compatibility": (0, (
        "det coefficient lam^(0, 0)",
        "degenerate",
        "generic rank",
        "trivial pair",
    ), 489,
        "2def18237a2ca7e8e65e802cf3d45ce80fd7011f84c887e9d543dff84fe999cb"),
    "pencil-exp-witness": (2, (
        "det coefficient lam^(0, 0)",
        "degenerate",
        "inconclusive",
    ), 1,
        "d3998383543974fbf96c29df3bdcc9fc809d071b10a48254a0fddf11333ffcc3"),
    "pencil-gas-flip-compatibility": (1, (
        "det coefficient lam^(0, 0)",
        "degenerate",
        "generic rank",
        "trivial pair",
    ), 489,
        "db89171a06462e93a4615e1701c516fe1494b6391f27ca546229e66d2bebff7c"),
    "reduction-candidate": (1, (
        "hodograph residual at point, i=1",
        "hodograph residual at point, i=2",
    ), 12,
        "a106e63d82c2fc64fdc740036a87bb6cf4e9447c274f5df4e18dacbb53ac7676"),
    "system-abstract-exp": (0, (
        "A[1]",
        "A[2]",
        "A[3]",
        "B[1]",
        "B[2]",
        "B[3]",
    ), 0,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "system-classify": (0, (
        "A[1]",
        "A[2]",
        "A[3]",
        "B[1]",
        "B[2]",
        "B[3]",
        "reduced shape",
    ), 0,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "transform-abstract-emit": (0, (
        "transformed operator written to",
    ), 1968,
        "c21d9b8ba36c56158a77d3e0d9a76782ef15c0847d4cbe5806d7c934edd510a1"),
    "transform-emit": (0, (
        "transformed operator written to",
    ), 1968,
        "c21d9b8ba36c56158a77d3e0d9a76782ef15c0847d4cbe5806d7c934edd510a1"),
    "transform-mobius-emit": (0, (
        "transformed operator written to",
    ), 362,
        "3cbbaba2c8098d4d951d4f472463dc708f0509c1e3febddff53839b9f0a47e41"),
}


def _write(name, doc):
    with open(name, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _cli(argv):
    """Exit code and stdout bytes of one CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode()


def _make_inputs():
    for argv in ([CHECK_ENTRY, "-o", "export.json"],
                 ["T2.6/rank1_P_2/1", "--set", "f=exp(u2)", "--set", "h=u2*u3",
                  "-o", "rank1_exp.json"],
                 ["T2.4", "-o", "t24.json"],
                 ["T2.6/rank1_P_1/2", "-o", "rank1_f.json"]):
        assert _cli(["catalog", "export"] + argv)[0] == 0
    op, _ws = catalog.instantiate(CHECK_ENTRY)
    flip = next(mut for m, mut in mutation.mutants(op) if m.kind == "flip")
    _write("mutant.json", dump_operator(flip))
    gas = catalog.instantiate("P_gas")[0]
    _write("gas.json", dump_operator(gas))
    # flips b^{23,x}_3: nonzero residuals in every relation a2..a7
    gas_flip = next(mut for m, mut in mutation.mutants(gas)
                    if m.kind == "flip" and m.index == (0, 2, 3, 3))
    _write("gas_flip.json", dump_operator(gas_flip))
    _write("h.json", GAS_DENSITY)
    _write("shear.json", SHEAR)
    _write("mobius.json", MOBIUS)
    _write("h_exp.json", EXP_DENSITY)
    _write("fkt_quartic.json", {"f": "a^4 + b^2 + c^2"})
    _write("fkt_nondiagonal.json", {"f": "a*b*c + a^3"})
    _write("legendre.json", LEGENDRE)
    _write("candidate.json", CANDIDATE)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(name):
    argv = CASES[name]
    code, out = _cli(["--format", "json"] + argv)
    row = (code, len(out), _digest(out))
    if "--emit" in argv:
        with open(argv[argv.index("--emit") + 1], "rb") as fh:
            row += (_digest(fh.read()),)
    return row


def _verdicts(name):
    """Exit code, note keys, and the count and digest of the checks'
    (name, indices, verdict)."""
    code, out = _cli(["--format", "json"] + CASES[name])
    doc = json.loads(out)
    checks = [[c["name"], c["indices"], c["verdict"]] for c in doc["checks"]]
    keys = tuple(n["key"] for n in doc["notes"])
    return code, keys, len(checks), _digest(json.dumps(checks).encode())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    cwd = os.getcwd()
    os.chdir(path)
    try:
        _make_inputs()
    finally:
        os.chdir(cwd)
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_json(name, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert _run(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_verdicts(name, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert _verdicts(name) == VERDICTS[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        _make_inputs()
        rows = {case: _run(case) for case in sorted(CASES)}
        pins = {case: _verdicts(case) for case in sorted(CASES)}
    print("GOLDEN = {")
    for case, (code, size, *digests) in rows.items():
        print(f'    "{case}": ({code}, {size},')
        print(",\n".join(f'        "{d}"' for d in digests) + "),")
    print("}")
    print("VERDICTS = {")
    for case, (code, keys, count, digest) in pins.items():
        if keys:
            print(f'    "{case}": ({code}, (')
            print("".join(f'        "{k}",\n' for k in keys)
                  + f"    ), {count},")
        else:
            print(f'    "{case}": ({code}, (), {count},')
        print(f'        "{digest}"),')
    print("}")
