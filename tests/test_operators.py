"""Mokhov condition fragments, pencil analysis, triviality, compatibility."""

import random
from fractions import Fraction

import pytest

from hydroham import Workspace, parse
from hydroham.calculus import differentiate
from hydroham import expr as ex
from hydroham.operators import (
    ConditionReport,
    HydroOperator,
    OperatorError,
    check_hamiltonian,
    generic_rank,
    is_degenerate,
    is_trivial_pair,
    operator_from_entries,
    pencil_compatibility,
    pencil_determinant,
    zero_operator,
)


@pytest.fixture
def ws2():
    ws = Workspace()
    ws.add_variables("u1", "u2")
    return ws.freeze()


def relation_report(op, *relations):
    """The report of the given relations from the full check."""
    full = check_hamiltonian(op)
    return ConditionReport(
        lambda: (key for key in full.keys() if key[0] in relations),
        {key: recs for key, recs in full.kept.items() if key[0] in relations})


def two_cmpt_form2(ws2):
    """The 1D two-component operator with the 1/u1 lower-order terms."""
    return operator_from_entries(
        ws2, 1, 2,
        {(0, 1, 1): parse("1", ws2)},
        {(0, 1, 2, 2): parse("-1/u1", ws2), (0, 2, 1, 2): parse("1/u1", ws2)},
    )


def test_symmetry_residuals(ws2):
    rep = relation_report(two_cmpt_form2(ws2), "a1")
    assert rep.overall == "proven_pass"
    asym = operator_from_entries(ws2, 1, 2, {(0, 1, 2): parse("1", ws2)}, {})
    rep = relation_report(asym, "a1")
    assert rep.overall == "fail"
    fail = rep.failures()[0]
    assert fail.indices == ("x", 1, 2) and fail.residual == ex.ONE


def test_skew_residuals(ws2):
    rep = relation_report(two_cmpt_form2(ws2), "a2")
    assert rep.overall == "proven_pass"
    # flipping one b sign breaks (a2)
    mutant = operator_from_entries(
        ws2, 1, 2,
        {(0, 1, 1): parse("1", ws2)},
        {(0, 1, 2, 2): parse("1/u1", ws2), (0, 2, 1, 2): parse("1/u1", ws2)},
    )
    assert relation_report(mutant, "a2").overall == "fail"


def test_jacobi_detects_scaled_entry(ws2):
    mutant = operator_from_entries(
        ws2, 1, 2,
        {(0, 1, 1): parse("1", ws2)},
        {(0, 1, 2, 2): parse("-1/u1", ws2), (0, 2, 1, 2): parse("2/u1", ws2)},
    )
    rep = relation_report(mutant, "a3", "a4", "a5", "a6", "a7")
    assert rep.overall == "fail"
    assert {r.relation for r in rep.failures()} <= {"a3", "a4", "a5", "a6", "a7"}


def test_zero_operator_hamiltonian(ws2):
    assert check_hamiltonian(zero_operator(ws2, 1, 2)).overall == "proven_pass"


def test_constant_symmetric_metric(ws2):
    op = operator_from_entries(
        ws2, 1, 2, {(0, 1, 1): parse("2", ws2), (0, 1, 2): parse("3", ws2),
                    (0, 2, 1): parse("3", ws2), (0, 2, 2): parse("5", ws2)}, {})
    assert check_hamiltonian(op).overall == "proven_pass"


def test_rank0_three_component():
    ws = Workspace()
    ws.add_variables("u1", "u2", "u3")
    ws.freeze()
    op = operator_from_entries(
        ws, 1, 3, {},
        {(0, 1, 2, 3): parse("1", ws), (0, 2, 1, 3): parse("-1", ws)},
    )
    assert check_hamiltonian(op).overall == "proven_pass"
    assert generic_rank(op) == 0
    assert is_degenerate(op).degenerate


def test_grinberg_reduction_n1():
    """n = 1: any g with b = g'/2 is Hamiltonian."""
    rng = random.Random(7)
    for _ in range(3):
        ws = Workspace()
        (v,) = ws.add_variables("u1")
        ws.freeze()
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in range(3)]
        g = ex.add(*(ex.mul(ex.Rat(c), ex.pow_(ex.Var(v), k))
                     for k, c in enumerate(coeffs, start=1)))
        op = operator_from_entries(
            ws, 1, 1, {(0, 1, 1): g},
            {(0, 1, 1, 1): ex.div(differentiate(g, v), 2)})
        assert check_hamiltonian(op).overall == "proven_pass"


def test_pencil_determinant_identity_metric(ws2):
    op = operator_from_entries(
        ws2, 1, 2, {(0, 1, 1): ex.ONE, (0, 2, 2): ex.ONE}, {})
    coeffs = pencil_determinant(op)
    assert coeffs == {(2,): ex.ONE}


def test_degeneracy_certificate(ws2):
    op = operator_from_entries(
        ws2, 2, 2, {(0, 1, 1): ex.ONE, (1, 2, 2): ex.ONE}, {})
    res = is_degenerate(op)
    assert not res.degenerate
    assert ex.print_expr(res.certificate) == "lam1*lam2"


def test_zero_metric_degenerate():
    ws = Workspace()
    ws.add_variables("u1", "u2", "u3", "u4")
    ws.freeze()
    op = zero_operator(ws, 1, 4)
    assert is_degenerate(op).degenerate
    assert generic_rank(op) == 0


def test_trivial_pair_examples(ws2):
    base = two_cmpt_form2(ws2)
    scaled = operator_from_entries(
        ws2, 2, 2,
        {(0, 1, 1): parse("1", ws2), (1, 1, 1): parse("3", ws2)},
        {(0, 1, 2, 2): parse("-1/u1", ws2), (0, 2, 1, 2): parse("1/u1", ws2),
         (1, 1, 2, 2): parse("-3/u1", ws2), (1, 2, 1, 2): parse("3/u1", ws2)},
    )
    res = is_trivial_pair(scaled)
    assert res.trivial and res.xi == ex.Rat(3)
    assert is_trivial_pair(zero_operator(ws2, 2, 2)).trivial
    # function-proportional pairs are non-trivial by the constant-xi rule
    func_prop = operator_from_entries(
        ws2, 2, 2,
        {(0, 1, 1): parse("1", ws2), (1, 1, 1): parse("u2", ws2)},
        {(1, 1, 1, 2): parse("1/2", ws2)},
    )
    res2 = is_trivial_pair(func_prop)
    assert not res2.trivial and "not constant" in res2.note


def test_trivial_pair_requires_2d(ws2):
    with pytest.raises(OperatorError):
        is_trivial_pair(two_cmpt_form2(ws2))


def mokhov_two_component(ws2):
    """The non-degenerate 2D two-component operator with metrics
    [[2u1, u2], [u2, 0]] and [[0, u1], [u1, 2u2]]."""
    return operator_from_entries(
        ws2, 2, 2,
        {(0, 1, 1): parse("2*u1", ws2), (0, 1, 2): parse("u2", ws2),
         (0, 2, 1): parse("u2", ws2),
         (1, 1, 2): parse("u1", ws2), (1, 2, 1): parse("u1", ws2),
         (1, 2, 2): parse("2*u2", ws2)},
        {(0, 1, 1, 1): ex.ONE, (0, 2, 1, 2): ex.ONE,
         (1, 1, 2, 1): ex.ONE, (1, 2, 2, 2): ex.ONE},
    )


def test_mokhov_two_component_passes(ws2):
    assert check_hamiltonian(mokhov_two_component(ws2)).overall == \
        "proven_pass"


def test_mokhov_two_component_sign_flip_caught(ws2):
    op = mokhov_two_component(ws2)
    b = [[[list(col) for col in row] for row in plane] for plane in op.b]
    b[0][0][0][0] = ex.Rat(-1)  # flip b^{11,x}_1
    mutant = HydroOperator(ws2, 2, 2, op.g, b)
    rep = check_hamiltonian(mutant)
    assert rep.overall == "fail"
    assert any(r.verdict.kind == "proven_nonzero" for r in rep.failures())


def pair(opx, opy):
    """The 2D operator whose x- and y-parts are the 1D operators opx, opy."""
    return HydroOperator(opx.ws, 2, opx.n, opx.g + opy.g, opx.b + opy.b)


def test_compatibility_self_pair(ws2):
    op = two_cmpt_form2(ws2)
    rep = pencil_compatibility(pair(op, op))
    assert rep.overall == "proven_pass"
    with pytest.raises(OperatorError, match="d = 2"):
        pencil_compatibility(op)


def test_compatibility_detects_mutant(ws2):
    op = two_cmpt_form2(ws2)
    mutant = operator_from_entries(
        ws2, 1, 2,
        {(0, 1, 1): parse("1", ws2)},
        {(0, 1, 2, 2): parse("-1/u1", ws2), (0, 2, 1, 2): parse("2/u1", ws2)},
    )
    assert pencil_compatibility(pair(op, mutant)).overall == "fail"


def test_compatibility_reports_per_lambda_power(ws2):
    op = two_cmpt_form2(ws2)
    rep = pencil_compatibility(pair(op, op))
    powers = {idx[-1] for rec in rep.records for idx in [rec.indices]}
    assert "lam^0" in powers


def test_unregistered_symbols_rejected(ws2):
    other = Workspace()
    other.add_variables("v1", "v2")
    other.freeze()
    with pytest.raises(OperatorError):
        operator_from_entries(ws2, 1, 2, {(0, 1, 1): parse("v1", other)}, {})


@pytest.mark.parametrize("where, text", [
    ((0, 2, 2), "2*v1"), ((0, 2, 2, 2), "exp(v2)"), ((0, 1, 2, 1), "v1*v2"),
])
def test_unregistered_symbol_in_a_nonzero_entry_rejected(ws2, where, text):
    """Rational entries skip the symbol scan, as they hold no symbol;
    every other entry is scanned, wherever it sits among the zeros."""
    other = Workspace()
    other.add_variables("v1", "v2")
    other.freeze()

    def build(e):
        g = {where: e} if len(where) == 3 else {}
        b = {where: e} if len(where) == 4 else {}
        return operator_from_entries(ws2, 1, 2, g, b)

    with pytest.raises(OperatorError, match=r"unregistered symbols \['v"):
        build(ex.add(parse("u1", ws2), parse(text, other)))
    build(ex.Rat(Fraction(3, 2)))
