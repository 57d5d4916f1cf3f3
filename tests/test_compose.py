"""Composition of rational forms in the ring against the Expr route.

The oracle is ``normalize(specialize(substitute(e, images), f, r))``:
substitute and specialize the tree, then convert.  The ring route converts
e once and composes its form (``PolyContext.compose``): variables go to
their images, exp/ln/sqrt and abstract atoms to the atoms over their
composed arguments, and a specialized f_J to d^J r at them.
"""

from fractions import Fraction

from hypothesis import assume, example, given
from hypothesis import strategies as st

from hydroham import normalize, parse
from hydroham import expr as ex
from hydroham.calculus import specialize, substitute
from hydroham.ratform import (
    NormalizeError,
    _canonical_string,
    build_context,
    composed,
    derivation_context,
    to_rational_form,
)
from test_derivation import SETTINGS, WS, _div, _extend, _pow, leaves

F, Q = WS.functions["f"], WS.functions["q"]
SYMBOLS = WS.variables + WS.constants


def _nest(children):
    """The operations of test_derivation, and atoms over drawn arguments:
    f_J and q_J of any order up to 2, and exp/ln/sqrt."""
    order = st.integers(0, 2)
    return st.one_of(
        _extend(children),
        st.builds(lambda a, d: ex.FuncAtom(Q, (a,), (d,)), children, order),
        st.builds(lambda a, b, i, j: ex.FuncAtom(F, (a, b), (i, j)),
                  children, children, order, order),
        st.builds(ex.Call, st.sampled_from(ex.UNARY_FUNCTIONS), children))


exprs = st.recursive(leaves, _nest, max_leaves=8)


def _rational(symbols):
    """Rational expressions over the symbols, with no atom."""
    return st.recursive(
        st.one_of(st.builds(lambda p, q: ex.Rat(Fraction(p, q)),
                            st.integers(-3, 3), st.integers(1, 3)),
                  st.sampled_from([ex.Var(s) for s in symbols])),
        lambda c: st.one_of(
            st.lists(c, min_size=2, max_size=3).map(lambda t: ex.add(*t)),
            st.lists(c, min_size=2, max_size=2).map(lambda t: ex.mul(*t)),
            st.builds(_pow, c, st.integers(-1, 2)),
            st.builds(_div, c, c)),
        max_leaves=4)


def _elementary(symbols):
    """A specialization over a function's arguments: rational, or one
    exp/ln/sqrt of a rational argument times a rational factor."""
    rational = _rational(symbols)
    return st.one_of(rational, st.builds(
        lambda fn, a, c: ex.mul(c, ex.Call(fn, a)),
        st.sampled_from(ex.UNARY_FUNCTIONS), rational, rational))


images = st.dictionaries(st.sampled_from(SYMBOLS), _rational(SYMBOLS),
                         max_size=3)
specializations = st.fixed_dictionaries({}, optional={
    "f": _elementary(F.args), "q": _elementary(Q.args)})


def ring_route(e, bindings, functions):
    src = build_context(WS, [e])
    specs = {}
    for name, r in functions.items():
        ctx = derivation_context(WS, WS.functions[name].args, [([r], 0)])
        specs[name] = to_rational_form(r, ctx)
    images = {s.name: x for s, x in bindings.items()} | specs
    out, = composed([to_rational_form(e, src)], images, WS)
    return out


def tree_route(e, bindings, functions):
    e = substitute(e, bindings)
    for name, r in functions.items():
        e = specialize(e, WS.functions[name], r)
    return normalize(e, WS)


def parsed(text, bindings=None, functions=None):
    return (parse(text, WS),
            {WS.lookup(n): parse(t, WS) for n, t in (bindings or {}).items()},
            {n: parse(t, WS) for n, t in (functions or {}).items()})


@SETTINGS
@given(exprs, images, specializations)
@example(*parsed("f_23(exp(u1), ln(u3)) + q''(u2/c1)", {"u2": "u1^2"},
                 {"f": "exp(u2)*u3 + u2^2", "q": "ln(u3 + 1)"}))
@example(*parsed("q(exp(f(u1, u2)))", {"u1": "u2/(1 + u3)"}, {}))
@example(*parsed("sqrt(u1)*exp(u2 - u3)", {"u1": "u3^2", "u2": "u3"}))
@example(*parsed("f_2 - f_3", {}, {"f": "sqrt(u2*u3)"}))
def test_composition_matches_tree_substitution(e, bindings, functions):
    """The composed form is identical to the normal form of the tree
    substituted and specialized: the same numerator and denominator over
    the same atom signatures.  Inputs that the tree route rejects as
    outside the real domain or with an identically zero denominator are
    skipped, and so are e and specializations that do not normalize."""
    try:
        want = tree_route(e, bindings, functions)
        for x in (e, *functions.values()):
            normalize(x, WS)
    except (NormalizeError, ZeroDivisionError):
        assume(False)
    try:
        got = ring_route(e, bindings, functions)
    except NormalizeError:
        # specialize drops the arguments of an atom whose d^J r does not
        # read them, as ln(f) in f(0, ln(f)) for f = 0; the ring composes
        # them, and may find them outside the domain
        assume(not functions)
        raise
    assert _canonical_string(got) == _canonical_string(want)
