"""Canonical rational forms, tri-state zero tests, evaluation."""

import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given
from hypothesis import strategies as st

from hydroham import (
    InconclusiveError,
    Workspace,
    ZeroDenominatorError,
    ZeroTestPolicy,
    is_zero,
    normalize,
    parse,
    print_expr,
    ratform_to_expr,
)
from hydroham import expr as ex
from hydroham.ratform import (
    NormalizeError,
    RationalForm,
    atom_signature,
    coefficients_in,
    derivation_context,
    to_rational_form,
)
from hydroham.symbols import InputError
from hydroham.zerotest import (
    MAX_EXP_ARG,
    MAX_PRECISION,
    MAX_SAMPLES,
    MIN_PRECISION,
    EvaluationError,
    SingularPointError,
    form_value,
    verdict_for_ratform,
)
from sympy_oracle import sympy_value
from test_derivation import SETTINGS, VARS, WS, exprs


def value_at(text, ws, point, precision=64):
    """form_value of the text's normal form at the point {name: Fraction}."""
    rf = normalize(parse(text, ws), ws)
    return form_value(rf, lambda i, key, ctx: point[key], precision)[0]


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
        val = sympy_value("exp(u1)*exp(u1) - exp(u1)^2",
                          {"u1": Fraction(seed + 1, 3)})
        assert abs(float(val)) < 1e-12
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


def test_each_sample_draws_one_value_per_variable(ws3, count_calls):
    """u1 is met in both exp arguments of every sample: one draw each."""
    from hydroham import zerotest
    draws = count_calls((zerotest._random_fraction, "draws", None))
    v = is_zero(parse("exp(2*u1) - exp(u1)^2", ws3), ws3)
    assert v.kind == "probably_zero" and v.samples == 20
    assert draws["draws"] == 20


def test_is_zero_transcendental_nonzero_witness(ws3):
    v = is_zero(parse("exp(2*u1) - exp(u1)^2 + u2", ws3), ws3)
    assert v.kind == "probably_nonzero"
    assert v.witness is not None and "u2" in v.witness


def test_is_zero_abstract_atoms_proven(ws3):
    # abstract atoms are algebraically independent: exact verdicts
    assert is_zero(parse("f*q - q*f", ws3), ws3).kind == "proven_zero"
    assert is_zero(parse("f_2 - f_3", ws3), ws3).kind == "proven_nonzero"


def test_evaluate_rational(ws3):
    p = {"u1": Fraction(2), "u2": Fraction(3), "u3": Fraction(3)}
    val = value_at("1/u1", ws3, p)
    assert val == Fraction(1, 2) and isinstance(val, Fraction)


def test_evaluate_singularity(ws3):
    p = {"u1": Fraction(1), "u2": Fraction(3), "u3": Fraction(3)}
    assert value_at("u3*u1 - u2", ws3, p) == 0
    # the message names the form's monic denominator
    with pytest.raises(SingularPointError,
                       match="^singular denominator u1\\*u3 - u2$"):
        value_at("2/(2*u3*u1 - 2*u2)", ws3, p)


def test_evaluate_removable_singularity(ws3):
    """The form of (u1^2 - 1)/(u1 - 1) is u1 + 1, so u1 = 1 is no
    singularity."""
    assert value_at("(u1^2 - 1)/(u1 - 1)", ws3, {"u1": Fraction(1)}) == 2


def test_evaluate_precision(ws3):
    """exp/ln/sqrt values are computed at the precision + 32 bits."""
    val = value_at("exp(u1)", ws3, {"u1": Fraction(1)}, precision=64)
    e = sympy_value("exp(1)", {}).evalf(60)
    assert abs(val - 2.718281828459045) < 1e-15
    assert abs(sympy.Float(val, 60) - e) < sympy.Float(2, 60) ** -94


def test_evaluate_asks_for_the_generators_it_meets(ws3):
    """value_of is asked for each variable and abstract atom that the form
    uses, and for those an argument of its exp/ln/sqrt generators uses
    when it meets that generator, in generator order; never for an
    exp/ln/sqrt generator."""
    asked = []

    def value_of(i, key, ctx):
        asked.append(key)
        return Fraction(1, 2)

    rf = normalize(parse("exp(u2)*q + ln(u2 + u3) + f", ws3), ws3)
    form_value(rf, value_of, 64)
    assert asked == ["u2", "f[0,0](u2,u3)", "u2", "u3", "q[0](u3)"]


def test_normalize_reproducible(ws3):
    a = normalize(parse("(u1 + u2)^3/(u3*u1 - u2)", ws3), ws3)
    b = normalize(parse("(u2 + u1)*(u1 + u2)^2/(u1*u3 - u2)", ws3), ws3)
    assert str(a) == str(b)


@pytest.mark.parametrize("text, atom", [
    ("ln(0)", "ln(0)"), ("sqrt(-1)", "sqrt(-1)"), ("ln(u1 - u1)", "ln(0)"),
    ("u1*ln(-2)", "ln(-2)"), ("exp(u1) + ln(-1/3)", "ln(-1/3)"),
    ("sqrt(2*u2 - u2 - u2 - 5)", "sqrt(-5)"), ("q(ln(0))", "ln(0)"),
])
def test_constant_atom_outside_its_domain_raises(ws3, text, atom):
    message = f"{atom} is outside the real domain"
    with pytest.raises(NormalizeError, match=f"^{re.escape(message)}$"):
        normalize(parse(text, ws3), ws3)


@pytest.mark.parametrize("text", ["sqrt(0)", "ln(2)", "ln(-u1)", "exp(-1)",
                                  "sqrt(1/4)", "ln(c1)", "sqrt(u1 - u1)",
                                  "ln(-1/u1)", "sqrt(-1/u1)", "ln(-2/c1)"])
def test_constant_atom_inside_its_domain_normalizes(ws3, text):
    ws = ws3.derive(constants=["c1"]) if "c1" in text else ws3
    folded = {"sqrt(0)": "0", "sqrt(u1 - u1)": "0", "sqrt(1/4)": "1/2"}
    rf = normalize(parse(text, ws), ws)
    assert str(rf) == folded[text] if text in folded else not rf.is_zero


@pytest.mark.parametrize("text, value", [
    ("exp(0)", "1"), ("ln(1)", "0"), ("sqrt(4)", "2"), ("sqrt(9/4)", "3/2"),
    ("exp(0) - 1", "0"), ("sqrt(4) - 2", "0"), ("exp(sqrt(4) - 2)", "1"),
    ("ln(exp(0))", "0"), ("u1*sqrt(4)", "2*u1"),
    ("f(sqrt(4), u3) - f(2, u3)", "0"), ("q(ln(1)) - q(0)", "0"),
    ("exp(1)", "@a0"), ("ln(2)", "@a0"), ("sqrt(2)", "@a0"),
    ("sqrt(1/2)", "@a0"), ("sqrt(8)", "@a0"),
])
def test_rational_constant_atoms_fold(ws3, text, value):
    """exp(0), ln(1) and sqrt(p/q) for squares p and q are rational and
    fold to their value, inside other atoms' arguments too, so the
    verdict on a difference that folds to zero is a proof; other constant
    atoms stay generators."""
    e = parse(text, ws3)
    assert str(normalize(e, ws3)) == value
    if value == "0":
        assert is_zero(e, ws3).kind == "proven_zero"


def test_sampling_singularity_exhaustion(ws3):
    # every sample point hits the singular denominator of sqrt(u1 - u1)...
    # use a denominator that vanishes identically only through the atom
    e = parse("exp(u1)/(sqrt(u1)^2 - u1)", ws3)
    with pytest.raises((InconclusiveError, ZeroDenominatorError)):
        is_zero(e, ws3, ZeroTestPolicy(samples=3))


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
    assert value_at("exp(u1)", ws3, {"u1": Fraction(MAX_EXP_ARG)}) > 0
    with pytest.raises(EvaluationError):
        value_at("exp(u1)", ws3, {"u1": Fraction(10**7)})


def test_parameter_coefficients(ws3):
    ws = ws3.derive(constants=["lam", "mu"])
    e = parse("(lam*u1 - mu*f)^2/u2 + lam*mu*f*u1/u2 - lam^2*u1^2/u2 + 1", ws)
    rf = normalize(e, ws)
    coeffs = coefficients_in(rf, ["lam", "mu"])
    assert {m: print_expr(ratform_to_expr(c)) for m, c in coeffs.items()} == {
        (0, 0): "1", (0, 2): "f^2/u2", (1, 1): "(-u1*f)/u2",
    }
    # the parts times lam^a mu^b sum to the form, and hold no lam or mu
    ctx, ring = rf.ctx, rf.ctx.ring
    lam, mu = (ctx.var_names.index(name) for name in ("lam", "mu"))
    total = ctx.zero
    for (a, b), part in coeffs.items():
        assert {lam, mu}.isdisjoint(part.num.occurring() + part.den.occurring())
        power = ring.gens[lam] ** a * ring.gens[mu] ** b
        total = total + part * RationalForm(power, ring.one, ctx)
    assert total == rf


def _alone(ws):
    """A workspace with the variables and constants of ws, in order, and a
    table of its own, built without derive."""
    fresh = Workspace()
    fresh.add_variables(*(s.name for s in ws.variables))
    fresh.add_constants(*(s.name for s in ws.constants))
    return fresh.freeze()


def _signature(atom, ws):
    try:
        return atom_signature(atom, ws)
    except (NormalizeError, ZeroDivisionError) as err:
        return type(err).__name__


@SETTINGS
@given(st.lists(exprs, min_size=1, max_size=3), st.data())
def test_signature_does_not_depend_on_the_table(args, data):
    """Atoms and partials of f(u2, u3) and q(u3) over shared argument
    expressions (sums, quotients, nested atoms), and exp/ln/sqrt of them,
    signed in turn in a workspace and in a derived workspace with the
    variables reordered, which has a table of its own: each signature is
    the one the atom gets alone, in a fresh workspace with the same
    symbols."""
    base = WS.derive()
    reordered = base.derive(variables=["u3", "u1", "u2"])
    assert reordered.signatures is not base.signatures
    f, q = WS.functions["f"], WS.functions["q"]
    pick, order = st.integers(0, len(args) - 1), st.integers(0, 2)
    atoms = st.one_of(
        st.builds(lambda i, j, di, dj: ex.FuncAtom(
            f, (args[i], args[j]), (di, dj)), pick, pick, order, order),
        st.builds(lambda i, d: ex.FuncAtom(q, (args[i],), (d,)), pick, order),
        st.builds(lambda fn, i: ex.Call(fn, args[i]),
                  st.sampled_from(["exp", "ln", "sqrt"]), pick))
    for atom in data.draw(st.lists(atoms, min_size=1, max_size=6)):
        for ws in (base, reordered):
            assert _signature(atom, ws) == _signature(atom, _alone(ws))


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


def test_precision_above_the_cap_is_an_input_error():
    """A sampled verdict at 2^20 bits does not finish in a minute."""
    with pytest.raises(InputError, match="at most 65536 bits, got 65537"):
        ZeroTestPolicy(precision=MAX_PRECISION + 1)
    assert ZeroTestPolicy(precision=MAX_PRECISION).precision == 2**16


def test_samples_above_the_cap_are_an_input_error():
    """A verdict's time grows with its samples (3 s at 20,000 on a 1D
    operator with two exp entries), so 10^9 would run for days.  The
    policy refuses it before anything is sampled."""
    for samples in (MAX_SAMPLES + 1, 10**9):
        with pytest.raises(InputError,
                           match=f"at most 65536, got {samples}$"):
            ZeroTestPolicy(samples=samples)
    assert ZeroTestPolicy(samples=MAX_SAMPLES).samples == 2**16
