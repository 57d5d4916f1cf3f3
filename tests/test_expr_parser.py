"""Expression construction invariants, the grammar, and printing."""

from fractions import Fraction

import pytest

from hydroham import ParseError, UnknownSymbolError, Workspace, parse, print_expr
from hydroham import expr as ex
from hydroham.symbols import SymbolError


def test_rationals_stored_reduced():
    r = ex.Rat(Fraction(6, 4))
    assert r.value.numerator == 3 and r.value.denominator == 2


def test_sum_collects_numeric_terms(ws3):
    e = parse("1 + u1 + 2", ws3)
    assert isinstance(e, ex.Sum)
    rats = [t for t in e.terms if isinstance(t, ex.Rat)]
    assert len(rats) == 1 and rats[0].value == 3


def test_product_single_leading_coefficient(ws3):
    e = parse("2*u1*3", ws3)
    assert isinstance(e, ex.Prod)
    assert isinstance(e.factors[0], ex.Rat) and e.factors[0].value == 6


def test_power_of_power_flattened(ws3):
    e = ex.pow_(ex.pow_(parse("u1", ws3), 2), 3)
    assert isinstance(e, ex.Pow) and e.exponent == 6


def test_power_zero_and_one(ws3):
    u1 = parse("u1", ws3)
    assert ex.pow_(u1, 0) == ex.ONE
    assert ex.pow_(u1, 1) == u1


def test_zero_denominator_rejected(ws3):
    with pytest.raises(ParseError) as err:
        parse("1/0", ws3)
    assert err.value.offset == 1
    with pytest.raises(ParseError):
        parse("u1 + 0^(-1)", ws3)


def test_nesting_depth_bounded(ws3):
    from hydroham.parser import MAX_DEPTH

    inner = MAX_DEPTH - 1
    assert parse("(" * inner + "u1" + ")" * inner, ws3) == parse("u1", ws3)
    for text in ("(" * 3000 + "u1" + ")" * 3000,
                 "-" * 3000 + "u1",
                 "u1^" + "(" * 3000 + "2" + ")" * 3000):
        with pytest.raises(ParseError, match="nested deeper"):
            parse(text, ws3)


def test_parse_quotient(ws3):
    e = parse("1/u1", ws3)
    assert isinstance(e, ex.Quot)
    assert e.num == ex.ONE


def test_parse_negated_square(ws3):
    e = parse("-(u3*u1 - u2)^2", ws3)
    # negated square of (u3*u1 - u2)
    assert isinstance(e, ex.Prod)
    assert e.factors[0] == ex.Rat(-1)
    assert isinstance(e.factors[1], ex.Pow) and e.factors[1].exponent == 2


def test_operator_symbols_never_parse(ws3):
    with pytest.raises(ParseError) as err:
        parse("u2*dy", ws3)
    assert err.value.offset == 3


def test_unknown_identifier_lists_registered(ws3):
    with pytest.raises(UnknownSymbolError) as err:
        parse("u1 + zz", ws3)
    assert "u1" in str(err.value) and "zz" in str(err.value)
    assert err.value.offset == 5


def test_syntax_error_offset(ws3):
    with pytest.raises(ParseError) as err:
        parse("u1 + ", ws3)
    assert err.value.offset == 5


def test_exponent_must_be_integer(ws3):
    with pytest.raises(ParseError):
        parse("u1^u2", ws3)
    assert parse("u1^(-2)", ws3) == parse("u1^-2", ws3)


def test_function_application_and_suffix(ws3):
    f = ws3.functions["f"]
    assert parse("f(u2,u3)", ws3) == ex.func_atom(f)
    assert parse("f", ws3) == ex.func_atom(f)
    assert parse("f_2", ws3) == ex.func_atom(f, deriv=(1, 0))
    assert parse("f_23", ws3) == ex.func_atom(f, deriv=(1, 1))
    assert parse("f_33", ws3) == ex.func_atom(f, deriv=(0, 2))


def test_suffix_digits_of_non_digit_arguments():
    """An argument whose name has no digit tail is named by its 1-based
    position in a derivative suffix, when parsed and when printed."""
    ws = Workspace()
    ws.add_variables("a", "b")
    ws.add_function("k", ["a", "b"])
    ws.freeze()
    k = ws.functions["k"]
    for text, deriv in (("k_12", (1, 1)), ("k_2", (0, 1)), ("k_11", (2, 0))):
        e = parse(text, ws)
        assert e == ex.func_atom(k, deriv=deriv)
        assert print_expr(e) == text
    with pytest.raises(ParseError, match="derivative index 3"):
        parse("k_3", ws)


def test_prime_notation(ws3):
    q = ws3.functions["q"]
    assert parse("q'", ws3) == ex.func_atom(q, deriv=(1,))
    assert parse("q''", ws3) == ex.func_atom(q, deriv=(2,))
    with pytest.raises(ParseError):
        parse("f'", ws3)  # two arguments: prime notation is ambiguous


def test_arity_checked(ws3):
    with pytest.raises(ParseError):
        parse("f(u2)", ws3)
    with pytest.raises(ParseError):
        parse("exp(u1, u2)", ws3)


def test_print_derivative_atoms(ws3):
    f, q = ws3.functions["f"], ws3.functions["q"]
    assert print_expr(ex.func_atom(f, deriv=(1, 0))) == "f_2"
    assert print_expr(ex.func_atom(f, deriv=(1, 1))) == "f_23"
    assert print_expr(ex.func_atom(q, deriv=(1,))) == "q'"
    shifted = ex.func_atom(q, args=(parse("u3^2", ws3),), deriv=(1,))
    assert print_expr(shifted) == "q'(u3^2)"
    assert parse("q'(u3^2)", ws3) == shifted


@pytest.mark.parametrize("text", [
    "1/u1",
    "-(u3*u1 - u2)^2",
    "u1 - u2/u1",
    "3/4*u1",
    "u1^(-2)",
    "exp(u1)^2",
    "sqrt(u3) + ln(u2)",
    "f_2/2",
    "q'*u3 + q",
    "(u1 + u2)*(u1 - u2)",
    "u1/(u2*u3)",
    "1/2*u1*(u2^2 + u3^2)",
    "2 - u1",
])
def test_parse_print_parse_fixed_point(ws3, text):
    e = parse(text, ws3)
    printed = print_expr(e)
    assert parse(printed, ws3) == e
    assert print_expr(parse(printed, ws3)) == printed


def test_registry_uniqueness_and_freeze():
    ws = Workspace()
    ws.add_variables("u1")
    with pytest.raises(SymbolError):
        ws.add_variables("u1")
    with pytest.raises(SymbolError):
        ws.add_constants("dx")
    ws.freeze()
    with pytest.raises(SymbolError):
        ws.add_variables("u9")


def test_derive_keeps_order_and_functions(ws3):
    ws = ws3.extended(["lam", "lam"])
    assert [s.name for s in ws.constants] == ["lam", "lam1"]
    assert ws.registered_names() == [
        "u1", "u2", "u3", "lam", "lam1", "f", "q"]
    assert ws.frozen and ws3.lookup("lam") is None
    # a frozen component: f keeps its declared argument u2
    ws = ws3.derive(variables=["u1", "u3"], constants=["cu2"],
                    functions=[("h", ["u1", "u3"])])
    assert ws.registered_names() == ["u1", "u3", "cu2", "f", "q", "h"]
    assert ws.functions["f"] is ws3.functions["f"]
    assert parse("f_2 + h(u1, u3)", ws) is not None
    with pytest.raises(SymbolError):
        ws3.derive(variables=["f"])


def test_free_symbols(ws3):
    e = parse("f_2*u1 + q(u3)", ws3)
    names = {s.name for s in ex.free_symbols(e)}
    assert names == {"u1", "u2", "u3"}
