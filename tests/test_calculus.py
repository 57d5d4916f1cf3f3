"""Differentiation and substitution contracts."""

from hydroham import Workspace, is_zero, parse, print_expr
from hydroham import expr as ex
from hydroham.calculus import differentiate, specialize, substitute


def zeroed(e, ws):
    return is_zero(e, ws).kind == "proven_zero"


def test_power_rule(ws3):
    u1 = ws3.require_symbol("u1")
    d = differentiate(parse("1/u1", ws3), u1)
    assert zeroed(d - parse("-1/u1^2", ws3), ws3)


def test_abstract_atom_derivative(ws3):
    u1, u2 = ws3.require_symbol("u1"), ws3.require_symbol("u2")
    f = parse("f(u2,u3)", ws3)
    assert print_expr(differentiate(f, u2)) == "f_2"
    # restricted dependencies: d/du1 f(u2,u3) is exactly zero
    assert differentiate(f, u1) == ex.ZERO


def test_prime_notation_product_rule(ws3):
    u3 = ws3.require_symbol("u3")
    d = differentiate(parse("q(u3)*u3", ws3), u3)
    assert zeroed(d - parse("q'*u3 + q", ws3), ws3)


def test_chain_rule_through_substituted_args(ws3):
    u3 = ws3.require_symbol("u3")
    e = parse("q'(u3^2)", ws3)
    d = differentiate(e, u3)
    assert zeroed(d - parse("q''(u3^2)*2*u3", ws3), ws3)


def test_exp_ln_sqrt_rules(ws3):
    u1 = ws3.require_symbol("u1")
    assert zeroed(
        differentiate(parse("exp(u1^2)", ws3), u1)
        - parse("2*u1*exp(u1^2)", ws3), ws3)
    assert zeroed(
        differentiate(parse("ln(u1)", ws3), u1) - parse("1/u1", ws3), ws3)
    assert zeroed(
        differentiate(parse("sqrt(u1)", ws3), u1)
        - parse("1/(2*sqrt(u1))", ws3), ws3)


def test_substitution_is_simultaneous(ws3):
    u1, u2 = ws3.require_symbol("u1"), ws3.require_symbol("u2")
    e = parse("u1 + u2", ws3)
    out = substitute(e, {u1: parse("u2", ws3), u2: parse("u1", ws3)})
    assert zeroed(out - parse("u1 + u2", ws3), ws3)
    swapped = substitute(parse("u1 - u2", ws3),
                         {u1: parse("u2", ws3), u2: parse("u1", ws3)})
    assert zeroed(swapped - parse("u2 - u1", ws3), ws3)


def test_substitution_identity_cases(ws3):
    u2 = ws3.require_symbol("u2")
    e = parse("1/u1 + f_2", ws3)
    assert substitute(e, {}) == e
    assert substitute(e, {u2: parse("u2", ws3)}) == e


def test_substitute_into_quotient():
    ws = Workspace()
    ws.add_variables("u1", "v1", "v3")
    phi = ws.add_function("phi", ["v3"])
    ws.freeze()
    u1 = ws.require_symbol("u1")
    out = substitute(parse("1/u1", ws), {u1: parse("v1 + phi(v3)", ws)})
    assert print_expr(out) == "1/(v1 + phi)"


def test_specialize_with_derivatives(ws3):
    f = ws3.functions["f"]
    e = parse("f_2/2 + f*u1", ws3)
    out = specialize(e, f, parse("u2*u3", ws3))
    assert zeroed(out - parse("u3/2 + u2*u3*u1", ws3), ws3)


def test_mixed_partials_commute_on_atoms(ws3):
    u2, u3 = ws3.require_symbol("u2"), ws3.require_symbol("u3")
    e = parse("f(u2,u3)^2/u2", ws3)
    d23 = differentiate(differentiate(e, u2), u3)
    d32 = differentiate(differentiate(e, u3), u2)
    assert zeroed(d23 - d32, ws3)
