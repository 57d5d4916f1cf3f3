"""The ring derivation d/du^k against the Expr route, and the checker
tables it builds.

The oracle is ``normalize(calculus.differentiate(e, v))``: differentiate
the tree, then convert.  The ring route converts once and differentiates
the rational form.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hydroham import Workspace, catalog, mutation, normalize, parse
from hydroham.calculus import differentiate
from hydroham import expr as ex
from hydroham.operators import PENCIL_PARAMS, MokhovChecker
from hydroham.ratform import (
    ZeroDenominatorError,
    build_context,
    derivation_context,
    ratform_to_expr,
    to_rational_form,
)


def make_ws():
    ws = Workspace()
    ws.add_variables("u1", "u2", "u3")
    ws.add_constants("c1")
    ws.add_function("f", ["u2", "u3"])
    ws.add_function("q", ["u3"])
    return ws.freeze()


WS = make_ws()
VARS = [WS.require_symbol(n) for n in ("u1", "u2", "u3")]

# Atoms with default arguments, non-default arguments and nested atoms,
# including atoms that differ only in which inner atom they hold, and atoms
# with arguments that hold no variable.
ATOM_TEXTS = (
    "f", "f_2", "f_3", "f_23", "q", "q'", "q''",
    "f(u1, u2^2)", "q(u1*u2)", "q(1/(u1 - u3))", "f_2(u3, c1*u1)",
    "exp(u1)", "ln(u2)", "sqrt(u3)", "exp(u1*u2 + c1)",
    "f(u2*exp(u1), u3)", "q(ln(u2))", "q(ln(u3))", "exp(q)",
    "sqrt(u1 + f)", "sqrt(u1 + f_2)", "q(c1)", "f(c1, u1)", "exp(c1)",
)
ATOMS = [parse(t, WS) for t in ATOM_TEXTS]

leaves = st.one_of(
    st.builds(lambda p, q: ex.Rat(Fraction(p, q)),
              st.integers(-5, 5), st.integers(1, 3)),
    st.sampled_from([ex.Var(s) for s in WS.variables + WS.constants]),
    st.sampled_from(ATOMS),
)


def _pow(base, k):
    try:
        return ex.pow_(base, k)
    except ZeroDivisionError:
        return base


def _div(num, den):
    try:
        return ex.div(num, den)
    except ZeroDivisionError:
        return num


def _extend(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda t: ex.add(*t)),
        st.lists(children, min_size=2, max_size=3).map(lambda t: ex.mul(*t)),
        st.builds(_pow, children, st.integers(-2, 3)),
        st.builds(_div, children, children),
    )


exprs = st.recursive(leaves, _extend, max_leaves=10)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.filter_too_much,
                                           HealthCheck.too_slow])


def same(rf, e) -> bool:
    """Is the rational form equal to the expression as a rational function?"""
    return normalize(ex.add(ratform_to_expr(rf), ex.neg(e)), WS).is_zero


def oracle(e, *vs):
    """normalize(d^k e / dv...) on the Expr route, or None if the
    expression or its derivative has an identically zero denominator."""
    for v in vs:
        e = differentiate(e, v)
    try:
        normalize(e, WS)
    except (ZeroDenominatorError, ZeroDivisionError):
        return None
    return e


def ring_form(e, order):
    """e as a form of a derivation context, and the context's d/dv for
    each v in VARS."""
    ctx = derivation_context(WS, VARS, [([e], order)])
    return to_rational_form(e, ctx), dict(zip(VARS, ctx.deriv))


@SETTINGS
@given(exprs, st.sampled_from(VARS))
@example(parse("(u1 + f)/(q'*u3 + exp(u1))", WS), VARS[2])
@example(parse("ln(u2)/sqrt(u1 + f)^3", WS), VARS[1])
@example(parse("q(1/(u1 - u3))/(c1 + f(u2*exp(u1), u3))", WS), VARS[0])
def test_derivation_matches_expr_route(e, v):
    want = oracle(e, v)
    assume(want is not None)
    rf, d = ring_form(e, 1)
    got = d[v](rf)
    assert same(got, want), (e, v, got)


# a single-term denominator: a nonzero rational times powers of variables,
# constants and atoms, so most are not monic
single_terms = st.builds(
    lambda c, factors: ex.mul(ex.Rat(c), *(ex.pow_(b, k) for b, k in factors)),
    st.sampled_from([Fraction(1), Fraction(-3), Fraction(2, 5)]),
    st.lists(st.tuples(leaves.filter(lambda e: not isinstance(e, ex.Rat)),
                       st.integers(1, 3)), min_size=1, max_size=3),
)


@SETTINGS
@given(exprs, single_terms, st.sampled_from(VARS), st.sampled_from(VARS))
@example(parse("u2", WS), parse("u1^3*u3", WS), VARS[0], VARS[2])
@example(parse("f", WS), parse("u1^2", WS), VARS[0], VARS[1])
@example(parse("exp(u1)", WS), parse("u2", WS), VARS[1], VARS[0])
@example(parse("u1 + q", WS), parse("3*u1^2*exp(u2)", WS), VARS[0], VARS[2])
def test_single_term_denominators_match_expr_route(num, den, v, w):
    """N/D for a single term D, to second order: each quotient-rule step
    then cancels against single terms, by shifting exponents."""
    e = ex.div(num, den)
    want = oracle(e, v)
    assume(want is not None)
    rf, d = ring_form(e, 2)
    assert same(d[v](rf), want), (e, v)
    want = oracle(want, w)
    assume(want is not None)
    assert same(d[w](d[v](rf)), want), (e, v, w)


@SETTINGS
@given(exprs, st.sampled_from(VARS), st.sampled_from(VARS))
def test_second_derivatives_match_expr_route(e, v, w):
    want = oracle(e, v, w)
    assume(want is not None)
    rf, d = ring_form(e, 2)
    got = d[w](d[v](rf))
    assert same(got, want), (e, v, w, got)


@SETTINGS
@given(exprs, st.sampled_from(VARS))
def test_constants_and_other_variables_differentiate_to_zero(e, v):
    rf, d = ring_form(ex.Var(WS.require_symbol("c1")), 1)
    assert d[v](rf).is_zero
    free = ex.free_symbols(e)
    assume(v not in free and not ex.atoms(e))
    try:
        rf, d = ring_form(e, 1)
    except ZeroDenominatorError:
        assume(False)
    assert d[v](rf).is_zero


def test_no_partial_in_an_argument_without_a_variable():
    """q(c1) depends on no variable, so its context holds no partial of
    q; f(c1, u1) gets partials in its second argument only."""
    ctx = derivation_context(WS, VARS, [([parse("q(c1)", WS)], 2)])
    assert ctx.atom_sigs == ("q[0](c1)",)
    assert all(d(to_rational_form(parse("q(c1)", WS), ctx)).is_zero
               for d in ctx.deriv)
    ctx = derivation_context(WS, VARS, [([parse("f(c1, u1)", WS)], 2)])
    assert ctx.atom_sigs == ("f[0,0](c1,u1)", "f[0,1](c1,u1)",
                             "f[0,2](c1,u1)")


@SETTINGS
@given(exprs, exprs)
def test_sub_equals_add_of_negation(a, b):
    ctx = build_context(WS, [a, b])
    try:
        fa, fb = to_rational_form(a, ctx), to_rational_form(b, ctx)
    except ZeroDenominatorError:
        assume(False)
    for x, y in ((fa, fb), (fb, fa), (fa, fa), (fa, fa - fa), (fa - fa, fb)):
        assert x - y == x + (-y)
    assert (fa - fa).is_zero


# -- the checker's lazily built tables against the Expr route ------------------

def _expr_tables(op):
    """dg, db and d2b by calculus.differentiate, as the checker once built
    them, converted over a context of all their atoms and of the pencil's
    parameters, as the operator's forms are."""
    n, d, vs = op.n, op.d, op.variables
    R = range(n)
    dg = [[[[differentiate(op.g[a][i][j], vs[k]) for k in R] for j in R]
           for i in R] for a in range(d)]
    db = [[[[[differentiate(op.b[a][i][j][k], vs[l]) for l in R] for k in R]
            for j in R] for i in R] for a in range(d)]
    d2b = [[[[[[differentiate(db[a][i][j][k][l], vs[m]) for m in R]
               for l in R] for k in R] for j in R] for i in R]
           for a in range(d)]
    flat = []

    def collect(t):
        if isinstance(t, list):
            for item in t:
                collect(item)
        else:
            flat.append(t)
    for table in (op.g, dg, op.b, db, d2b):
        collect(table)
    ctx = derivation_context(op.ws, (), [(flat, 0)], PENCIL_PARAMS[:d])

    def conv(t):
        if isinstance(t, list):
            return [conv(item) for item in t]
        return to_rational_form(t, ctx)
    return ctx, conv(op.g), conv(dg), conv(op.b), conv(db), conv(d2b)


def _oracle_a7(n, G, DG, B, DB, D2B, a, be, i, j, r, k, q, zero):
    """The a7 residual by the product rule on the Expr-route tables."""

    def bracket_deriv(al, be, i, j, r, q, k):
        acc = zero
        for s in range(n):
            acc = acc + DG[al][s][i][k] * (DB[be][j][r][s][q]
                                           - DB[be][j][r][q][s])
            acc = acc + G[al][s][i] * (D2B[be][j][r][s][q][k]
                                       - D2B[be][j][r][q][s][k])
            acc = acc + DB[al][i][j][s][k] * B[be][s][r][q]
            acc = acc + B[al][i][j][s] * DB[be][s][r][q][k]
            acc = acc - DB[al][i][r][s][k] * B[be][s][j][q]
            acc = acc - B[al][i][r][s] * DB[be][s][j][q][k]
        return acc

    def cyclic(al, be, i, j, r, q, k):
        acc = zero
        for ii, jj, rr in ((i, j, r), (j, r, i), (r, i, j)):
            for s in range(n):
                acc = acc + B[be][s][ii][q] * (DB[al][jj][rr][k][s]
                                               - DB[al][jj][rr][s][k])
        return acc

    return (bracket_deriv(a, be, i, j, r, q, k) + cyclic(a, be, i, j, r, q, k)
            + bracket_deriv(be, a, i, j, r, k, q)
            + cyclic(be, a, i, j, r, k, q))


# n = 3, d = 2 mutants with nonzero a5 and a7 residuals; the first two
# carry abstract-function atoms, the last only rational coefficients
MUTANTS = (
    ("T2.6/rank1_P_1/2", "flip", (0, 1, 3, 3)),
    ("T2.6/rank1_P_1/2", "swap", (1, 1, 3, 3)),
    ("T2.6/rank1_P_2/2", "scale", (0, 2, 1, 2)),
)


@pytest.mark.parametrize("entry_id,kind,index", MUTANTS)
def test_checker_tables_and_a7_match_expr_route(entry_id, kind, index):
    op, _ws = catalog.instantiate(entry_id)
    mutant = next(mut for m, mut in mutation.mutants(op)
                  if (m.kind, m.index) == (kind, index))
    checker = MokhovChecker(mutant)
    ctx, G, DG, B, DB, D2B = _expr_tables(mutant)
    # the closure over atoms finds exactly the atoms of the old tables
    assert ctx.atom_sigs == checker.ctx.atom_sigs
    n, d = mutant.n, mutant.d
    for a, i, j, k in itertools.product(range(d), *[range(n)] * 3):
        assert checker.forms.DG[a][i][j][k] == DG[a][i][j][k]
        for l in range(n):
            assert checker.forms.DB[a][i][j][k][l] == DB[a][i][j][k][l]
    # the checker yields the nonzero residuals; the oracle's nonzero a7
    # residuals over every index must be those, in the same order
    got = list(checker.residuals(("a5", "a7")))
    assert {rel for rel, _idx, _rf in got} == {"a5", "a7"}
    zero = ctx.zero
    want = []
    for a, be, i, j, r, k, q in itertools.product(range(d), range(d),
                                                  *[range(n)] * 5):
        rf = _oracle_a7(n, G, DG, B, DB, D2B, a, be, i, j, r, k, q, zero)
        if not rf.is_zero:
            want.append((("xy"[a], "xy"[be], i + 1, j + 1, r + 1, k + 1,
                          q + 1), rf))
    assert [(idx, rf) for rel, idx, rf in got if rel == "a7"] == want
