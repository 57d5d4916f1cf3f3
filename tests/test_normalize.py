"""Canonical rational forms, tri-state zero tests, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from hydroham import (
    InconclusiveError,
    Point,
    Workspace,
    ZeroDenominatorError,
    ZeroTestPolicy,
    evaluate,
    is_zero,
    normalize,
    parse,
    print_expr,
    ratform_to_expr,
)
from hydroham import expr as ex
from hydroham.ratform import (
    coefficients_in,
    derivation_context,
    to_rational_form,
)
from hydroham.symbols import InputError
from hydroham.zerotest import (
    MAX_EXP_ARG,
    MIN_PRECISION,
    EvaluationError,
    SingularPointError,
    verdict_for_ratform,
)
from test_derivation import SETTINGS, VARS, WS, exprs


def test_factor_cancellation(ws3):
    rf = normalize(parse("(u1^2 - u2^2)/(u1 - u2)", ws3), ws3)
    assert str(rf) == "u1 + u2"
    assert print_expr(ratform_to_expr(rf)) == "u1 + u2"


def test_simple_zero_form(ws3):
    assert normalize(parse("u1/u1 - 1", ws3), ws3).is_zero


def test_opaque_atom_power_collection(ws3):
    # checked by evaluation before relying on it: exp(u1)*exp(u1) = exp(u1)^2
    e = parse("exp(u1)*exp(u1) - exp(u1)^2", ws3)
    pol = ZeroTestPolicy(samples=5)
    for seed in range(5):
        u1 = ws3.require_symbol("u1")
        val = evaluate(parse("exp(u1)*exp(u1) - exp(u1)^2", ws3),
                       Point({u1: Fraction(seed + 1, 3),
                              ws3.require_symbol("u2"): Fraction(1),
                              ws3.require_symbol("u3"): Fraction(1)}))
        assert abs(val) < 1e-12
    assert normalize(e, ws3).is_zero


def test_monic_denominator(ws3):
    rf = normalize(parse("u1/(2*u2 + 2*u3)", ws3), ws3)
    assert str(rf) == "(1/2*u1)/(u2 + u3)"


def test_identically_zero_denominator_raises(ws3):
    with pytest.raises(ZeroDenominatorError):
        normalize(parse("u1/(u2 - u2 + 0*u1)", ws3), ws3)


def test_is_zero_commutativity(ws3):
    assert is_zero(parse("u1*u2 - u2*u1", ws3), ws3).kind == "proven_zero"


def test_is_zero_transcendental_identity(ws3):
    v = is_zero(parse("exp(2*u1) - exp(u1)^2", ws3), ws3)
    assert v.kind == "probably_zero" and v.samples == 20


def test_is_zero_transcendental_nonzero_witness(ws3):
    v = is_zero(parse("exp(2*u1) - exp(u1)^2 + u2", ws3), ws3)
    assert v.kind == "probably_nonzero"
    assert v.witness is not None and "u2" in v.witness


def test_is_zero_abstract_atoms_proven(ws3):
    # abstract atoms are algebraically independent: exact verdicts
    assert is_zero(parse("f*q - q*f", ws3), ws3).kind == "proven_zero"
    assert is_zero(parse("f_2 - f_3", ws3), ws3).kind == "proven_nonzero"


def test_evaluate_rational(ws3):
    u1, u2, u3 = (ws3.require_symbol(n) for n in ("u1", "u2", "u3"))
    p = Point({u1: Fraction(2), u2: Fraction(3), u3: Fraction(3)})
    assert evaluate(parse("1/u1", ws3), p) == Fraction(1, 2)


def test_evaluate_singularity(ws3):
    u1, u2, u3 = (ws3.require_symbol(n) for n in ("u1", "u2", "u3"))
    p = Point({u1: Fraction(1), u2: Fraction(3), u3: Fraction(3)})
    assert evaluate(parse("u3*u1 - u2", ws3), p) == 0
    with pytest.raises(SingularPointError):
        evaluate(parse("1/(u3*u1 - u2)", ws3), p)


def test_evaluate_precision(ws3):
    u1 = ws3.require_symbol("u1")
    p = Point({u1: Fraction(1),
               ws3.require_symbol("u2"): Fraction(0),
               ws3.require_symbol("u3"): Fraction(0)})
    val = evaluate(parse("exp(u1)", ws3), p, precision=64)
    assert abs(val - 2.718281828459045) < 1e-15


def test_normalize_reproducible(ws3):
    a = normalize(parse("(u1 + u2)^3/(u3*u1 - u2)", ws3), ws3)
    b = normalize(parse("(u2 + u1)*(u1 + u2)^2/(u1*u3 - u2)", ws3), ws3)
    assert str(a) == str(b)


def test_sampling_singularity_exhaustion(ws3):
    # every sample point hits the singular denominator of sqrt(u1 - u1)...
    # use a denominator that vanishes identically only through the atom
    e = parse("exp(u1)/(sqrt(u1)^2 - u1)", ws3)
    with pytest.raises((InconclusiveError, ZeroDenominatorError)):
        is_zero(e, ws3, ZeroTestPolicy(samples=3, max_retries=5))


@pytest.fixture
def ws_f1():
    ws = Workspace()
    ws.add_variables("u1", "u2")
    ws.add_function("f", ["u1"])
    return ws.freeze()


@pytest.mark.parametrize("text, kind", [
    ("exp(exp(u1)) - exp(exp(u2))", "probably_nonzero"),
    # an abstract atom over an exp/ln/sqrt argument is sampled: the next
    # three are zero, yet their atoms are distinct generators, so distinct
    # generators over such arguments prove nothing
    ("f(exp(u1)) - f(exp(u2))", "probably_nonzero"),
    ("f(ln(exp(u1))) - f(u1)", "probably_nonzero"),
    ("f(sqrt(u1)^2) - f(u1)", "probably_nonzero"),
    ("f(exp(u1)*exp(u2)) - f(exp(u1 + u2))", "probably_nonzero"),
    ("f(f(u1)) - f(f(u2))", "proven_nonzero"),
    ("exp(exp(u1)) - exp(exp(u1))", "proven_zero"),
    ("exp(u2 + exp(u1)) - exp(exp(u1) + u2)", "proven_zero"),
])
def test_nested_atoms_keep_their_signatures(ws_f1, text, kind):
    # atoms that differ only in an inner atom are distinct generators
    assert is_zero(parse(text, ws_f1), ws_f1).kind == kind


def test_exp_argument_bound(ws3):
    u1 = ws3.require_symbol("u1")
    e = parse("exp(u1)", ws3)
    assert evaluate(e, Point({u1: Fraction(MAX_EXP_ARG)})) > 0
    with pytest.raises(EvaluationError):
        evaluate(e, Point({u1: Fraction(10**7)}))


def test_parameter_coefficients(ws3):
    ws = ws3.extended(["lam", "mu"])
    e = parse("(lam*u1 - mu*f)^2/u2 + lam*mu*f*u1/u2 - lam^2*u1^2/u2 + 1", ws)
    coeffs = coefficients_in(normalize(e, ws), ["lam", "mu"])
    assert {m: print_expr(ratform_to_expr(c)) for m, c in coeffs.items()} == {
        (0, 0): "1", (0, 2): "f^2/u2", (1, 1): "(-u1*f)/u2",
    }


# The larger context of the next test: its workspace has a variable before
# and one after those of WS and one more constant, and its expressions hold
# ln/sqrt atoms and abstract atoms over all of them.
WIDE_WS = WS.derive(variables=["u0", "u1", "u2", "u3", "w"],
                    constants=["c1", "lam"])
WIDE_EXPRS = [parse(t, WIDE_WS) for t in (
    "ln(u0 + lam)", "sqrt(w*u2)", "f(u0, w)*q''", "exp(q(w))", "f_23",
    "u1*u3*w")]


def verdict_or_failure(rf):
    try:
        return verdict_for_ratform(rf)
    except InconclusiveError as err:
        return f"inconclusive: {err}"


@SETTINGS
@given(exprs, exprs, st.integers(0, 1))
@example(parse("exp(u2)", WS), parse("f_23 + q''", WS), 1)
@example(parse("exp(exp(u1)) - exp(exp(u2))", WS), parse("ln(u3)", WS), 0)
@example(parse("sqrt(u1^2) - u1", WS), parse("exp(u2)", WS), 0)
@example(parse("exp(u1)/(sqrt(u1)^2 - u1)", WS), parse("u2", WS), 0)
@example(parse("f(u2*exp(u1), u3) - q(ln(u2))", WS), parse("c1", WS), 1)
def test_verdict_depends_only_on_the_form(e, other, order):
    """A form gets the same verdict, samples and witness whether it is
    normalized alone or converted into a larger derivation context."""
    try:
        alone = normalize(e, WS)
    except (ZeroDenominatorError, ZeroDivisionError):
        assume(False)
    ctx = derivation_context(WIDE_WS, VARS,
                             [([other, *WIDE_EXPRS, e], order)])
    inside = to_rational_form(e, ctx)
    assert len(ctx.ring.gens) > len(alone.ctx.ring.gens)
    assert verdict_or_failure(inside) == verdict_or_failure(alone)


def test_witness_lists_only_what_the_form_uses(ws3):
    """u1 and u3 are in the context but not in the form; u2 is drawn for
    the argument of exp(u2) (values at the default seed).  An abstract
    atom's value is drawn whole, so the variables of its arguments are
    not drawn."""
    v = is_zero(parse("exp(u2)*f_3 - exp(u2)*f_3 + exp(u2)", ws3), ws3)
    assert str(v) == "ProbablyNonzero(witness={'u2': '1/7'})"
    v = is_zero(parse("f(u2, exp(u1)) + sqrt(u3)", ws3), ws3)
    assert v.kind == "probably_nonzero"
    assert set(v.witness) == {"u3", "f[0,0](u2,exp(u1))"}, v.witness


@pytest.mark.parametrize("kwargs", [{"samples": 0}, {"samples": -3},
                                    {"precision": MIN_PRECISION - 1}])
def test_vacuous_policy_is_an_input_error(kwargs):
    """A policy that samples nothing, or at a precision whose tolerance
    reads a nonzero value as zero, would make every sampled verdict a
    pass."""
    with pytest.raises(InputError):
        ZeroTestPolicy(**kwargs)
    assert ZeroTestPolicy(samples=1, precision=MIN_PRECISION).samples == 1
