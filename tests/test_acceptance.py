"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

import pytest

from hydroham import Workspace, catalog, is_zero, parse
from hydroham import expr as ex
from hydroham.hamsys import (
    HamiltonianDensity,
    classify_operator_shape,
    dispersion,
    generate_system,
)
from hydroham.integrability import LagrangianDensity, fkt_residual
from hydroham.mutation import scan
from hydroham.operators import (
    check_hamiltonian,
    generic_rank,
    operator_from_entries,
    pencil_compatibility,
    pencil_determinant,
)
from hydroham.transform import (
    coordinate_change,
    operator_difference_records,
    pushforward,
)


def report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_catalog_soundness():
    """All 31 entries, abstract + 3 random rational specializations, pass
    the full condition check with every residual provably zero; < 60 s."""
    t0 = time.time()
    rng = random.Random(20240817)
    entries = catalog.list_entries()
    assert len(entries) == 31
    failures = []
    for entry in entries:
        trials = [catalog.default_params(entry)] + [
            catalog.random_params(entry, rng) for _ in range(3)
        ]
        for params in trials:
            op, _ws = catalog.instantiate(entry.id, params)
            rep = check_hamiltonian(op)
            if rep.overall != "proven_pass":
                failures.append((entry.id, params, rep.overall))
    elapsed = time.time() - t0
    report(1, not failures and elapsed < 60,
           f"31 entries x (abstract + 3 specializations) all ProvenZero "
           f"in {elapsed:.1f}s" if not failures else f"failures: {failures}")


def test_criterion_2_degeneracy_and_rank():
    """Every 2D entry: pencil determinant identically zero, and the generic
    rank equals the theorem's label.  Exact verdicts only."""
    bad = []
    for entry in catalog.list_entries():
        op, ws = catalog.instantiate(entry.id)
        if entry.d == 2:
            coeffs = pencil_determinant(op)
            for exps, coeff in coeffs.items():
                if is_zero(coeff, op.ws).kind != "proven_zero":
                    bad.append((entry.id, exps))
        rank = generic_rank(op)
        if rank != entry.rank_label:
            bad.append((entry.id, "rank", rank))
    report(2, not bad,
           "all 2D pencils identically degenerate, ranks match labels"
           if not bad else f"violations: {bad}")


def test_criterion_3_mutation_sensitivity():
    """>= 95% of non-identity b-mutations produce a provably nonzero
    residual; every survivor is logged."""
    total = caught = 0
    survivors = []
    for entry in catalog.list_entries():
        op, _ws = catalog.instantiate(entry.id)
        res = scan(op)
        total += res.total
        caught += res.caught
        survivors.extend(
            (entry.id, m.describe(), rep.overall) for m, rep in res.survivors
        )
    rate = caught / total
    for eid, desc, overall in survivors:
        print(f"  surviving mutant [{eid}] {desc}: "
              f"full check {overall} (lands back inside the family)")
    report(3, rate >= 0.95,
           f"{caught}/{total} mutants caught ({rate * 100:.2f}%), "
           f"{len(survivors)} survivors logged")


def test_criterion_4_pencil_compatibility():
    """For every 2D entry the formal pencil P_x + lam P_y passes the 1D
    conditions identically in lam."""
    bad = []
    checked = 0
    for entry in catalog.list_entries():
        if entry.d != 2:
            continue
        checked += 1
        op, _ws = catalog.instantiate(entry.id)
        rep = pencil_compatibility(op)
        if rep.overall != "proven_pass":
            bad.append(entry.id)
    report(4, not bad and checked == 21,
           f"all {checked} 2D entries compatible identically in lam"
           if not bad else f"failed: {bad}")


def test_criterion_5_gas_dynamics_pipeline():
    """generate_system on the gas operator with h = rho(u^2+v^2)/2 + k(rho)
    reproduces the A, B matrices (c^2 = rho k'' via p_rho = rho k_rhorho)
    and the dispersion relation factors as w (w^2 - c^2 (lam^2 + mu^2))."""
    ws = Workspace()
    ws.add_variables("u1", "u2", "u3")
    ws.add_function("k", ["u1"])
    ws.freeze()
    entry = catalog.get_entry("P_gas")
    op = operator_from_entries(
        ws, 2, 3,
        {key: parse(text, ws) for key, text in entry.g.items()},
        {key: parse(text, ws) for key, text in entry.b.items()},
    )
    h = HamiltonianDensity(parse("1/2*u1*(u2^2 + u3^2) + k(u1)", ws), ws)
    sys = generate_system(op, h)
    # c^2/rho = k''(rho): the displayed matrices with (rho, u, v) = (u1, u2, u3)
    expect_A = [["u2", "u1", "0"], ["k''", "u2", "0"], ["0", "0", "u2"]]
    expect_B = [["u3", "0", "u1"], ["0", "u3", "0"], ["k''", "0", "u3"]]
    entry_ok = all(
        is_zero(sys.A[i][k] - parse(expect_A[i][k], ws), ws).kind
        == "proven_zero"
        and is_zero(sys.B[i][k] - parse(expect_B[i][k], ws), ws).kind
        == "proven_zero"
        for i in range(3) for k in range(3)
    )
    rel = dispersion(sys)
    lam, mu = rel.params
    w = ex.add(ex.ONE, ex.mul(ex.Var(lam), parse("u2", ws)),
               ex.mul(ex.Var(mu), parse("u3", ws)))
    c2 = parse("u1*k''", ws)
    product = ex.mul(w, ex.add(
        ex.pow_(w, 2),
        ex.neg(ex.mul(c2, ex.add(ex.pow_(ex.Var(lam), 2),
                                 ex.pow_(ex.Var(mu), 2)))),
    ))
    disp_ok = is_zero(rel.det - product, rel.ws).kind == "proven_zero"
    report(5, entry_ok and disp_ok,
           "A, B match the displayed matrices entrywise and "
           "det(E + lam A + mu B) = w (w^2 - c^2 (lam^2 + mu^2)) exactly")


def test_criterion_6_fkt_cases():
    """Boyer-Finley density integrable, quadratic trivially integrable,
    quartic fails with da^4 coefficient -1152 a^2 exactly; < 5 s each."""
    cases = []
    t0 = time.time()
    bf = fkt_residual(LagrangianDensity.from_text("a^2 + b^2 - 2*exp(c)"))
    cases.append(("boyer-finley", bf.integrable, time.time() - t0))

    t0 = time.time()
    quad = fkt_residual(LagrangianDensity.from_text("a^2 + b^2 + c^2"))
    cases.append(("quadratic", quad.integrable and quad.proven,
                  time.time() - t0))

    t0 = time.time()
    quartic = fkt_residual(LagrangianDensity.from_text("a^4 + b^2 + c^2"))
    m, coeff = quartic.first_failure()
    lag_ws = LagrangianDensity.from_text("0").ws
    exact = (m == (4, 0, 0) and is_zero(
        coeff - parse("-1152*a^2", lag_ws), lag_ws).kind == "proven_zero")
    cases.append(("quartic", (not quartic.integrable) and exact,
                  time.time() - t0))

    ok = all(passed and dt < 5 for _, passed, dt in cases)
    report(6, ok, "; ".join(f"{name} {'ok' if passed else 'FAIL'} "
                            f"({dt * 1000:.0f}ms)"
                            for name, passed, dt in cases))


# ten fixture changes: (entry id, params, forward, inverse)
TRANSFORM_FIXTURES = [
    ("T2.2/1", None,
     {"u1": "v1 + v2^2", "u2": "v2"},
     {"v1": "u1 - u2^2", "v2": "u2"}),
    ("T2.2/2", None,
     {"u1": "2*v1", "u2": "v2 + 3"},
     {"v1": "u1/2", "v2": "u2 - 3"}),
    ("T2.4", {"eps": 1},
     {"u1": "v1", "u2": "v2/(1 + v2)"},
     {"v1": "u1", "v2": "u2/(1 - u2)"}),
    ("T2.3/rank0", None,
     {"u1": "v1 + v3", "u2": "v2", "u3": "v3"},
     {"v1": "u1 - u3", "v2": "u2", "v3": "u3"}),
    ("T2.3/rank2_3", None,
     {"u1": "v1", "u2": "v2 + v3^2", "u3": "v3"},
     {"v1": "u1", "v2": "u2 - u3^2", "v3": "u3"}),
    ("T2.5/1", None,
     {"u1": "v1 + 2*v2", "u2": "v2", "u3": "v3"},
     {"v1": "u1 - 2*u2", "v2": "u2", "v3": "u3"}),
    ("T2.6/rank1_P_2/1", None,
     {"u1": "v1 - v3", "u2": "v2", "u3": "v3 + 1"},
     {"v1": "u1 + u3 - 1", "v2": "u2", "v3": "u3 - 1"}),
    ("P_gas", None,
     {"u1": "v1", "u2": "v2 + v1^2", "u3": "v3"},
     {"v1": "u1", "v2": "u2 - u1^2", "v3": "u3"}),
    ("T2.7/rank2_P_5", None,
     {"u1": "v1 + 1", "u2": "v2 - 2", "u3": "v3"},
     {"v1": "u1 - 1", "v2": "u2 + 2", "v3": "u3"}),
    ("T2.7/rank2_P_1/1", {"eps": 1},
     {"u1": "v1 + v2", "u2": "v2", "u3": "2*v3"},
     {"v1": "u1 - u2", "v2": "u2", "v3": "u3/2"}),
]


def test_criterion_7_transform_invariance():
    """Ten fixture changes: the pushforward stays Hamiltonian and
    round-trips to the original with provably zero residuals."""
    assert len(TRANSFORM_FIXTURES) == 10
    bad = []
    for eid, params, fwd, inv in TRANSFORM_FIXTURES:
        op, src = catalog.instantiate(eid, params)
        dst = src.derive(variables=[f"v{i}" for i in range(1, op.n + 1)],
                         constants=[])
        change = coordinate_change(
            src, {k: parse(v, dst) for k, v in fwd.items()},
            {k: parse(v, src) for k, v in inv.items()}, dst)
        pushed = pushforward(op, change)
        rep = check_hamiltonian(pushed)
        if rep.overall != "proven_pass":
            bad.append((eid, "hamiltonian", rep.overall))
            continue
        back = pushforward(pushed, change.inverted())
        records = operator_difference_records(op, back)
        if not all(r.verdict.kind == "proven_zero" for r in records):
            bad.append((eid, "roundtrip"))
    report(7, not bad,
           "10/10 changes preserve the Hamiltonian property and round-trip"
           if not bad else f"failed: {bad}")


def test_criterion_8_reduced_shapes():
    """The structural classifier agrees with the reduced-shape table on
    every covered entry (rank 0 -> trivial, rank 1 -> transport,
    rank 2 -> matching decoupled form or Euler-Lagrange reducible)."""
    covered = [e for e in catalog.list_entries() if e.shape_bucket]
    assert len(covered) == 16
    mismatches = []
    for entry in covered:
        op, _ws = catalog.instantiate(entry.id)
        res = classify_operator_shape(op)
        if res.kind != entry.shape_bucket or (
            entry.shape_form is not None and res.form != entry.shape_form
        ):
            mismatches.append((entry.id, str(res)))
    report(8, not mismatches,
           f"{len(covered)}/{len(covered)} entries agree with the table"
           if not mismatches else f"mismatches: {mismatches}")


def test_criterion_9_property_suites():
    """>= 1000 randomized cases each for differentiation linearity/Leibniz,
    mixed partials, normalize idempotence, parser round-trip; zero
    failures."""
    import test_properties as props

    assert props.N_CASES >= 1000
    props.test_differentiation_linearity_and_leibniz()
    props.test_mixed_partials_commute()
    props.test_normalize_idempotent()
    props.test_parser_round_trip()
    props.test_evaluation_consistency()
    report(9, True,
           f"5 suites x {props.N_CASES} randomized cases, zero failures")
