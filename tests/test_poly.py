"""The in-package polynomial ring against sympy's ring over QQ in grevlex
order, which serves as the oracle: arithmetic, term order, printing,
derivatives, the monic gcd and exact quotients, also with exponents at the
edges of the packed fields and in rings of up to 12 generators; splits by
generators against reconstruction; and the guard-bit operations and the
degree cap of the packed monomials."""

from fractions import Fraction
from itertools import combinations, product
from operator import le, sub

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.orderings import grevlex
from sympy.polys.rings import ring as sympy_ring

from hydroham import Workspace, poly
from hydroham.poly import HeuristicGCDFailed, PolyRing
from hydroham.ratform import PolyContext, RationalForm

# ring names as ratform gives them: variables, constants, then atoms
NAMES = ("u1", "u2", "c1", "@a0", "@a1", "@a2", "@a3", "@a4", "@a5", "@a6",
         "@a7", "@a8")


def rings(n):
    names = NAMES[:n]
    return PolyRing(names), sympy_ring(list(names), QQ, grevlex)[0]


def build(terms, n):
    ours, theirs = rings(n)
    p, q = ours.zero, theirs.zero
    for monom, c in terms:
        p = p + ours.term_new(monom, c)
        q = q + theirs.term_new(monom, QQ(c.numerator, c.denominator))
    return p, q


def as_dict(p):
    """Coefficients as Fractions by exponent tuple, for either ring's
    elements."""
    return {m: Fraction(int(c.numerator), int(c.denominator))
            for m, c in p.terms()}


def rebuilt(p):
    """Ours p, built again term by term from its exponent tuples: equal to
    p only when each of p's packed monomials, degree included, is the one
    term_new makes."""
    out = p.ring.zero
    for m, c in p.terms():
        out = out + p.ring.term_new(m, c)
    return out


def occurring(q):
    """The indices of the generators to which sympy's q gives a positive
    degree."""
    return [i for i, e in enumerate(q.degrees()) if e > 0]


def check_split(p, indices):
    """p.split(indices) against reconstruction: each part is nonzero and
    free of the split generators, and the parts times their monomials sum
    to p, with the packed monomials term_new makes."""
    ring, total = p.ring, p.ring.zero
    for exps, part in p.split(indices).items():
        assert part and set(indices).isdisjoint(part.occurring())
        assert part == rebuilt(part)
        monom = [0] * len(ring.names)
        for i, e in zip(indices, exps):
            monom[i] = e
        total = total + part * ring.term_new(tuple(monom), 1)
    assert total == p and total == rebuilt(total)


def same(p, q):
    """Ours p and sympy's q have the same terms and print alike."""
    return (as_dict(p) == as_dict(q) and str(p) == str(q)
            and p == rebuilt(p))


def coefficients(big):
    limit = 10 ** 30 if big else 20
    return st.builds(
        Fraction,
        st.integers(-limit, limit).filter(bool),
        st.integers(1, 10 ** 12 if big else 6),
    )


@st.composite
def poly_terms(draw, n, big=False, max_terms=5):
    monoms = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n),
                           max_size=max_terms, unique=True))
    return [(m, draw(coefficients(big))) for m in monoms]


@st.composite
def poly_pairs(draw, count=2, big=False):
    n = draw(st.integers(1, 5))
    return n, [draw(poly_terms(n, big)) for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
def test_arithmetic_matches_sympy(case):
    n, (ta, tb) = case
    (a, sa), (b, sb) = build(ta, n), build(tb, n)
    assert same(a, sa) and same(b, sb)
    assert same(a + b, sa + sb)
    assert same(a - b, sa - sb)
    assert same(a * b, sa * sb)
    assert same(-a, -sa)
    for k in range(0 if sa else 1, 4):    # sympy refuses 0**0
        assert same(a ** k, sa ** k)
    assert (a == b) == (sa == sb)
    assert a + b - b == a and hash(a + b - b) == hash(a)
    assert bool(a) == bool(sa)


@settings(max_examples=150, deadline=None)
@given(poly_pairs(count=1))
def test_order_and_accessors_match_sympy(case):
    n, (ta,) = case
    a, sa = build(ta, n)
    assert [m for m, _ in a.terms()] == [m for m, _ in sa.terms()]
    assert [Fraction(c) for _, c in a.terms()] == [
        Fraction(int(c.numerator), int(c.denominator)) for _, c in sa.terms()]
    assert Fraction(a.LC) == Fraction(int(sa.LC.numerator),
                                      int(sa.LC.denominator))
    assert a.occurring() == occurring(sa)
    for i in range(n):
        assert same(a.diff(i), sa.diff(sa.ring.gens[i]))
    assert str(a) == str(sa)
    for k in range(n + 1):
        for indices in combinations(range(n), k):
            check_split(a, indices)


@st.composite
def term_cases(draw):
    """(n, two single terms, a polynomial) in n generators."""
    n = draw(st.integers(1, 5))
    terms = [[(draw(st.tuples(*[st.integers(0, 3)] * n)),
               draw(coefficients(False)))] for _ in range(2)]
    return n, terms, draw(poly_terms(n))


@settings(max_examples=150, deadline=None)
@given(term_cases())
def test_single_term_products_and_quotients_match_sympy(case):
    """Products with a single term in either order, and quotients by one,
    divisible or not."""
    n, (tt, tu), ta = case
    (t, st_), (u, su), (a, sa) = build(tt, n), build(tu, n), build(ta, n)
    assert same(t * a, st_ * sa) and same(a * t, sa * st_)
    assert same(t * u, st_ * su)
    assert same((a * t).quo(t), (sa * st_).quo(st_))
    q, r = sa.div(st_)
    if r:
        with pytest.raises(ArithmeticError):
            a.quo(t)
    else:
        assert same(a.quo(t), q)


def test_single_term_quotient_without_generators():
    ring = PolyRing(())
    assert ring.ground_new(6).quo(ring.ground_new(4)) == ring.ground_new(
        Fraction(3, 2))
    assert ring.zero.quo(ring.ground_new(4)) == ring.zero


def test_term_order_matches_sympy_on_every_pair():
    """Every pair of monomials of up to three generators and degree four,
    unsampled: the order of terms() and the LC are sympy's grevlex."""
    for n in range(1, 4):
        ring = PolyRing(NAMES[:n])
        monoms = [m for m in product(range(5), repeat=n) if sum(m) <= 4]
        for m1, m2 in combinations(monoms, 2):
            p = ring.term_new(m1, 1) + ring.term_new(m2, 2)
            first = max(m1, m2, key=grevlex)
            assert [m for m, _ in p.terms()] == [first, min(m1, m2,
                                                            key=grevlex)]
            assert p.LC == dict(p.terms())[first]


def check_gcd(ta, tb, tc, n):
    """gcd(a c, b c) and the quotients by it, against sympy."""
    (a, sa), (b, sb), (c, sc) = build(ta, n), build(tb, n), build(tc, n)
    f, g, sf, sg = a * c, b * c, sa * sc, sb * sc
    h, sh = f.gcd(g), sf.gcd(sg)
    if sh:
        sh = sh.monic()
    assert same(h, sh)
    if h:
        assert h.LC == 1
        assert same(f.quo(h), sf.quo(sh))
        assert same(g.quo(h), sg.quo(sh))
        # the cofactors are coprime
        assert f.quo(h).gcd(g.quo(h)) == h.ring.one




@settings(max_examples=60, deadline=None)
@given(poly_pairs(count=3, big=True))
def test_gcd_with_large_coefficients(case):
    n, (ta, tb, tc) = case
    check_gcd(ta, tb, tc, n)


@st.composite
def deflatable_cases(draw):
    """(n, three term lists) in up to 12 generators, of which the operands
    use at most three, each with exponents that are multiples of its own
    factor 1, 2 or 3: GCDHEU divides a generator's exponents by their gcd
    and skips the generators that do not occur."""
    n = draw(st.integers(1, 12))
    used = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                         unique=True))
    factors = [draw(st.integers(1, 3)) for _ in used]
    big = draw(st.booleans())

    def terms():
        out = {}
        for ks in draw(st.lists(st.tuples(*[st.integers(0, 3)] * len(used)),
                                max_size=4, unique=True)):
            m = [0] * n
            for i, k, factor in zip(used, ks, factors):
                m[i] = k * factor
            out[tuple(m)] = draw(coefficients(big))
        return list(out.items())
    return n, [terms() for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(poly_pairs(count=3), deflatable_cases()))
def test_gcd_and_quotients_match_sympy(case):
    n, (ta, tb, tc) = case
    check_gcd(ta, tb, tc, n)


def test_interpolation_past_the_degree_cap_is_rejected(monkeypatch):
    """An interpolated GCDHEU candidate with a term past MAX_DEGREE divides
    nothing in the ring: _interpolate gives None, and no monomial with a
    guard bit set is ever packed.  At s = 2^14 the third base-x digit would
    go to exponent 2^15."""
    ring = PolyRing(NAMES[:2])
    s, x = 2 ** 14, 10
    y = ring.gens[1]
    packed = []
    new = PolyRing._new

    def recorded(self, terms):
        packed.extend(terms)
        return new(self, terms)

    monkeypatch.setattr(PolyRing, "_new", recorded)
    # 23 = 2*10 + 3 and 23*y - 3: two digits, exponents 0 and s
    assert poly._interpolate(ring.ground_new(23), x, 0, s) == (
        ring.term_new((s, 0), 2) + ring.ground_new(3))
    assert poly._interpolate(y * ring.ground_new(23) - ring.ground_new(3), x,
                             0, s) == (ring.term_new((s, 1), 2)
                                       + ring.term_new((0, 1), 3)
                                       - ring.ground_new(3))
    # the third digit of 123, and of 100*y (digits 0, 0, 1), would go to
    # exponent 2s = 2^15
    assert poly._interpolate(ring.ground_new(123), x, 0, s) is None
    assert poly._interpolate(y * ring.ground_new(100), x, 0, s) is None
    assert all(m & ring._guards == 0 for m in packed)
    # a gcd whose exponents reach 2s = 32766, within the cap, of a
    # generator that is not the first
    s = 16383
    z = ring.term_new((0, s), 1)
    one = ring.one
    h = ((z + one) * (z + one + one)).gcd(
        (z + one) * (z + one + one + one))
    assert h == z + one
    assert all(m & ring._guards == 0 for m in packed)


def test_gcd_needs_a_second_evaluation_point(monkeypatch):
    """A large constant in the common factor defeats the first evaluation
    point: with one point per level GCDHEU gives up, with the default
    number it finds the gcd."""
    one = Fraction(1)
    common = [((1, 0), one), ((0, 0), Fraction(76954519))]     # x + 76954519
    ta = [((0, 1), one), ((0, 0), Fraction(3))]                # y + 3
    tb = [((1, 1), one), ((0, 0), Fraction(-4))]               # x*y - 4
    check_gcd(ta, tb, common, 2)
    (a, _), (b, _), (c, _) = build(ta, 2), build(tb, 2), build(common, 2)
    monkeypatch.setattr(poly, "HEU_GCD_MAX", 1)
    with pytest.raises(HeuristicGCDFailed):
        (a * c).gcd(b * c)


def test_gcd_of_deflatable_exponents():
    """Exponents that are all multiples of 2 in x and of 4 in y, which
    sympy deflates before its gcd."""
    one = Fraction(1)
    common = [((2, 0), one), ((0, 4), Fraction(-3, 2))]        # x^2 - 3/2 y^4
    ta = [((2, 4), one), ((0, 0), Fraction(5))]
    tb = [((4, 0), Fraction(2, 7)), ((0, 8), one)]
    check_gcd(ta, tb, common, 2)


def test_gcd_skips_a_zero_image(monkeypatch):
    """g vanishes at the first evaluation point (x = 31), so that point is
    skipped: it is the only point when there is one per level."""
    one = Fraction(1)
    common = [((1,), one), ((0,), one)]                        # x + 1
    ta, tb = [((1,), one)], [((1,), one), ((0,), Fraction(-31))]
    check_gcd(ta, tb, common, 1)
    (a, _), (b, _), (c, _) = build(ta, 1), build(tb, 1), build(common, 1)
    monkeypatch.setattr(poly, "HEU_GCD_MAX", 1)
    with pytest.raises(HeuristicGCDFailed):
        (a * c).gcd(b * c)


def check_cancel(tn, td, n):
    """num.cancel(den) against sympy's cancel, made monic in the
    denominator: num/den in lowest terms is unique up to that scaling."""
    (num, snum), (den, sden) = build(tn, n), build(td, n)
    p, q = num.cancel(den)
    sp, sq = snum.cancel(sden)
    lc = sq.LC
    assert same(p, sp.quo_ground(lc)) and same(q, sq.quo_ground(lc))
    assert q.LC == 1 and p * den == q * num
    if len(p) > 1 and len(q) > 1:
        assert p.gcd(q) == q.ring.one


@st.composite
def single_term_cases(draw):
    """(n, a single term, a nonzero polynomial) in n generators, the term
    first or second."""
    n = draw(st.integers(1, 5))
    term = draw(poly_terms(n, max_terms=1).filter(bool))
    other = draw(poly_terms(n).filter(bool))
    pair = (term, other) if draw(st.booleans()) else (other, term)
    return n, pair


def _no_gcd(*_args):
    raise AssertionError("a single-term cancellation built a gcd")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(single_term_cases())
def test_single_term_cancel_matches_sympy(monkeypatch, case):
    """With a single-term operand the gcd is the monomial of least
    exponents: both are shifted by it and no gcd is built.  The draws hold
    overlapping and disjoint exponents and non-monic denominators."""
    monkeypatch.setattr(poly.Poly, "gcd", _no_gcd)
    n, (tn, td) = case
    check_cancel(tn, td, n)


@pytest.mark.parametrize("tn, td", [
    # overlapping exponents: x^2 y / (3 x y^3) = x / (3 y^2)
    ([((2, 1, 0), Fraction(1))], [((1, 3, 0), Fraction(3))]),
    # disjoint exponents: x^2 / (-2/5 y z) keeps both
    ([((2, 0, 0), Fraction(1))], [((0, 1, 1), Fraction(-2, 5))]),
    # a term over a sum: x y / (2 x^2 y + 4 x y z) = 1 / (2 x + 4 z)
    ([((1, 1, 0), Fraction(1))],
     [((2, 1, 0), Fraction(2)), ((1, 1, 1), Fraction(4))]),
    # a sum over a term: (x^3 + x y) / (7 x^2) = (x^2 + y) / (7 x)
    ([((3, 0, 0), Fraction(1)), ((1, 1, 0), Fraction(1))],
     [((2, 0, 0), Fraction(7))]),
    # a constant over a term, and a term over a constant
    ([((0, 0, 0), Fraction(-3))], [((0, 2, 0), Fraction(6))]),
    ([((0, 2, 1), Fraction(6))], [((0, 0, 0), Fraction(-3))]),
], ids=["overlapping", "disjoint", "term-over-sum", "sum-over-term",
        "constant-over-term", "term-over-constant"])
def test_single_term_cancel_cases(monkeypatch, tn, td):
    monkeypatch.setattr(poly.Poly, "gcd", _no_gcd)
    check_cancel(tn, td, 3)


def test_cancel_without_generators():
    """In the ring of no generators every operand is a constant."""
    ring = PolyRing(())
    assert ring.ground_new(6).cancel(ring.ground_new(4)) == (
        ring.ground_new(Fraction(3, 2)), ring.one)
    assert ring.zero.cancel(ring.ground_new(-5)) == (ring.zero, ring.one)


@settings(max_examples=60, deadline=None)
@given(poly_pairs(count=3))
def test_cancel_matches_sympy(case):
    """num = a c over den = b c, two or more terms each in most draws, so
    the general gcd runs."""
    n, (ta, tb, tc) = case
    (a, _), (b, _), (c, _) = build(ta, n), build(tb, n), build(tc, n)
    if b and c:
        check_cancel((a * c).terms(), (b * c).terms(), n)


def test_printing_matches_sympy():
    terms = [((2, 0, 0, 1, 0), Fraction(-3, 2)), ((0,) * 5, Fraction(1))]
    p, sp = build(terms, 5)
    assert str(p) == str(sp) == "-3/2*u1**2*@a0 + 1"
    assert str(PolyRing(NAMES).zero) == "0"


# Exponents at and around the edges of the packed fields: a carry from one
# field into the next, or into the degree field, shows as a wrong exponent.
EDGES = [0, 1, 2, 255, 256, 257, 2 ** 14 - 1, 2 ** 14, 2 ** 15 - 2]


@st.composite
def edge_terms(draw, n, budget, max_terms=4):
    """Up to max_terms distinct terms in n generators with exponents from
    EDGES, each of total degree at most budget."""
    monoms = set()
    for _ in range(draw(st.integers(0, max_terms))):
        m, left = [0] * n, budget
        for i in draw(st.permutations(range(n))):
            m[i] = draw(st.sampled_from([e for e in EDGES if e <= left]))
            left -= m[i]
        monoms.add(tuple(m))
    return [(m, draw(coefficients(False))) for m in sorted(monoms)]


@st.composite
def edge_cases(draw):
    """(n, a, b, t): two polynomials and a single term whose pairwise
    products stay within the degree cap."""
    n = draw(st.integers(1, 4))
    budget = draw(st.sampled_from(EDGES[1:]))
    rest = poly.MAX_DEGREE - budget
    return (n, draw(edge_terms(n, budget)), draw(edge_terms(n, rest)),
            draw(edge_terms(n, rest, max_terms=1).filter(bool)))


@settings(max_examples=200, deadline=None)
@given(edge_cases())
def test_packed_fields_match_sympy(case):
    """Products, single-term quotients and cancellations, the generators
    that occur, derivatives, splits and term order, with exponents near the
    field edges."""
    n, ta, tb, tt = case
    (a, sa), (b, sb), (t, st_) = build(ta, n), build(tb, n), build(tt, n)
    assert [m for m, _ in a.terms()] == [m for m, _ in sa.terms()]
    assert str(a) == str(sa)
    assert same(a * b, sa * sb) and same(t * a, st_ * sa)
    assert same((a * t).quo(t), sa)
    q, r = sa.div(st_)
    if r:
        with pytest.raises(ArithmeticError):
            a.quo(t)
    else:
        assert same(a.quo(t), q)
    assert a.occurring() == occurring(sa)
    assert (a * b).occurring() == occurring(sa * sb)
    if a:
        check_cancel(ta, tt, n)
        check_cancel(tt, ta, n)
    for i in range(n):
        assert same(a.diff(i), sa.diff(sa.ring.gens[i]))
    for k in range(n + 1):
        for indices in combinations(range(n), k):
            check_split(a * b, indices)


def test_swar_min_and_divisibility_are_fieldwise():
    """Every pair of monomials of up to three generators with exponents up
    to four, unsampled: the guard-bit min is the tuple one, with its total
    degree, and a single term divides another exactly when each of its
    exponents is at most the other's."""
    for n in range(4):
        ring = PolyRing(NAMES[:n])
        monoms = list(product(range(5), repeat=n))
        packed = {m: next(iter(ring.term_new(m, 1))) for m in monoms}
        for a, b in product(monoms, repeat=2):
            pair = [packed[a], packed[b]]
            low = tuple(map(min, a, b))
            assert poly._fieldwise(ring, pair) == packed[low]
            ta, tb = ring.term_new(a, 1), ring.term_new(b, 3)
            if all(map(le, a, b)):
                assert tb.quo(ta).terms() == [
                    (tuple(map(sub, b, a)), 3)]
            else:
                with pytest.raises(ArithmeticError):
                    tb.quo(ta)


def test_total_degree_cap():
    """A total degree up to MAX_DEGREE = 2^15 - 1 is kept exactly; a
    product, power or term past it raises ValueError before it is built."""
    ring = PolyRing(NAMES[:2])
    x, y = ring.gens
    top = poly.MAX_DEGREE
    assert (x ** top).terms() == [((top, 0), 1)]
    assert ((x + y) * x ** (top - 1)).terms() == [((top, 0), 1),
                                                    ((top - 1, 1), 1)]
    assert (x ** (top - 1) * y).occurring() == [0, 1]
    for make in (lambda: x ** top * y, lambda: y * x ** top,
                 lambda: (x + y) ** (top + 1), lambda: x ** (top + 1),
                 lambda: (x + ring.one) * (x ** top + y),
                 lambda: ring.term_new((top, 1), 1)):
        with pytest.raises(ValueError, match="total degree must be at most "
                                             "32767"):
            make()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_binomial_powers_equal_repeated_products(n):
    """A two-term base is raised by the binomial theorem: every power up
    to 8 of two-term bases with int and Fraction coefficients, a constant
    term among them, equals the repeated product term for term."""
    ring = PolyRing(NAMES[:n])
    monoms = [(0,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (2,),
              (3,) * n]
    coeffs = [1, -2, Fraction(1, 3), Fraction(-5, 2)]
    for (ma, mb), (ca, cb) in product(combinations(monoms, 2),
                                      combinations(coeffs, 2)):
        base = ring.term_new(ma, ca) + ring.term_new(mb, cb)
        assert len(base) == 2
        power = ring.one
        for k in range(9):
            got = base ** k
            assert got == power and str(got) == str(power), (base, k)
            assert got == rebuilt(got)
            power = power * base


# -- single-term rational forms ---------------------------------------------

# two variables and a ground constant; exponents at the packed field edges
FORM_EXPONENTS = [0, 1, 255, 256, 2 ** 14, 2 ** 15 - 2]


def form_workspace():
    ws = Workspace()
    ws.add_variables("u1", "u2")
    ws.add_constants("c1")
    return ws.freeze()


FORM_CTX = PolyContext(form_workspace(), [])
FORM_SYMPY = sympy_ring(list(FORM_CTX.ring.names), QQ, grevlex)[0]

form_coefficients = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(2, 5)))


@st.composite
def form_monomials(draw):
    """An exponent tuple within the degree cap, all zero in one draw of
    five: a ground constant."""
    if draw(st.integers(0, 4)) == 0:
        return (0, 0, 0)
    m = tuple(draw(st.sampled_from(FORM_EXPONENTS)) for _ in range(3))
    assume(sum(m) <= poly.MAX_DEGREE)
    return m


@st.composite
def form_pairs(draw):
    """Two forms, each ((num, c), (den, d)) for c num / (d den) with den
    1 or a monomial.  In half the draws the second shares the first's
    monomials, with its coefficient, its negation or another, so sums
    take the fused path and some cancel."""
    def term():
        return draw(form_monomials()), draw(form_coefficients)

    def over():
        return ((0, 0, 0), 1) if draw(st.booleans()) else term()

    (num, c), den = first = term(), over()
    if draw(st.booleans()):
        other = draw(st.sampled_from([c, -c, draw(form_coefficients)]))
        return first, ((num, other), den)
    return first, (term(), over())


def form_of(spec):
    """The form c num / (d den) reduced by the general path, and its
    numerator and denominator in sympy's ring."""
    (num, c), (den, d) = spec
    ring = FORM_CTX.ring
    rf = RationalForm(ring.term_new(num, c), ring.term_new(den, d), FORM_CTX)
    return (rf, FORM_SYMPY.term_new(num, QQ(c)),
            FORM_SYMPY.term_new(den, QQ(d)))


def outcome(make):
    """('ok', num, den) of the form make() returns, or ('error', message)
    of the ValueError it raises."""
    try:
        rf = make()
    except ValueError as e:
        return "error", str(e)
    return "ok", str(rf.num), str(rf.den)


def sympy_outcome(num, den):
    """num/den cancelled by sympy with a monic denominator, or the
    ValueError message of a numerator, then denominator, past the cap."""
    p, q = num.cancel(den)
    p, q = p.quo_ground(q.LC), q.quo_ground(q.LC)
    for r in (p, q):
        degree = max((sum(m) for m in r.monoms()), default=0)
        if degree > poly.MAX_DEGREE:
            return ("error", f"total degree must be at most "
                             f"{poly.MAX_DEGREE}, got {degree}")
    return "ok", str(p), str(q)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(form_pairs())
def test_single_term_forms_match_general_route_and_sympy(pair):
    """Products, sums and differences of monomials over 1 or a monomial
    take the fused paths of RationalForm: each equals the general route,
    num and den built unreduced and then cancelled, and sympy's cancel,
    with the same str.  A product past the degree cap raises the
    ValueError of the numerator, then the denominator, in lowest terms;
    a sum over different denominators is the general route, which may
    raise before it cancels.  A sum that cancels is the context's zero."""
    (a, an, ad), (b, bn, bd) = form_of(pair[0]), form_of(pair[1])
    cases = [
        (a.__mul__, an * bn, ad * bd, lambda: RationalForm(
            a.num * b.num, a.den * b.den, FORM_CTX)),
        (a.__add__, an * bd + bn * ad, ad * bd, lambda: RationalForm(
            a.num * b.den + b.num * a.den, a.den * b.den, FORM_CTX)),
        (a.__sub__, an * bd - bn * ad, ad * bd, lambda: RationalForm(
            a.num * b.den - b.num * a.den, a.den * b.den, FORM_CTX)),
    ]
    for op, num, den, general in cases:
        got, want = outcome(lambda: op(b)), outcome(general)
        # a sum over two denominators takes the general route itself
        general_sum = op != a.__mul__ and a.den != b.den
        if want[0] == "ok" or not general_sum:
            assert got == sympy_outcome(num, den), (pair, op, got)
        if want[0] == "ok" or general_sum:
            assert got == want, (pair, op, got, want)
            if want[0] == "ok":
                assert op(b) == general()
        if not num:
            assert op(b) is FORM_CTX.zero, (pair, op)
