"""Sparse multivariate polynomials over QQ.

A polynomial is a dict from exponent tuples to nonzero coefficients, each
an ``int`` or a ``Fraction``; the zero polynomial is the empty dict.  Terms
are ordered by graded reverse lexicographic order, and ``str`` prints them
leading term first (``-3/2*u1**2*@a0 + 1``).  Polynomials are never mutated
once built.

The order's sort key, ``(-degree, reversed exponents)``, is a tuple compared
in C, and the leading monomial has the smallest key.  Most operands the
checker makes are single terms, and they take shortcuts: a product with a
single term shifts the other operand's monomials, and an exact quotient by
one subtracts its exponents, neither with a division loop.

A fraction is reduced by ``cancel``.  When either operand is a single
term, their gcd is the monomial of least exponents, so both are shifted by
it and no gcd is built.  Otherwise the gcd clears denominators and runs the
heuristic gcd of Char, Geddes and Gonnet (GCDHEU, J. Symbolic Comput. 7,
1989): evaluate one variable at a large integer, take the gcd of the images
recursively, interpolate, and keep the candidate only if it divides both
operands exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd
from math import isqrt, lcm
from operator import add, gt, sub

# evaluation points GCDHEU tries before it gives up
HEU_GCD_MAX = 6


class HeuristicGCDFailed(ArithmeticError):
    """GCDHEU found no gcd within its HEU_GCD_MAX evaluation points."""


def grevlex(monom: tuple) -> tuple:
    """Sort key of graded reverse lexicographic order, leading monomial
    first: higher degree first, then a smaller exponent of the last
    generator, then of the one before it, and so on."""
    return (-sum(monom), monom[::-1])


def _leading(d: dict) -> tuple:
    if len(d) == 1:
        return next(iter(d))
    return min(d, key=grevlex)


def _quo_coeff(a, b):
    """a / b in QQ, as an int when the quotient is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


class PolyRing:
    """QQ[names] with grevlex order."""

    def __init__(self, names):
        self.names = tuple(names)
        n = len(self.names)
        self.zero_monom = (0,) * n
        self.zero = self._new({})
        self.one = self.ground_new(1)
        self.gens = tuple(
            self.term_new(tuple(int(i == j) for j in range(n)), 1)
            for i in range(n)
        )

    def _new(self, terms: dict) -> Poly:
        p = Poly(terms)
        p.ring = self
        return p

    def term_new(self, monom: tuple, coeff) -> Poly:
        return self._new({monom: coeff} if coeff else {})

    def ground_new(self, coeff) -> Poly:
        return self.term_new(self.zero_monom, coeff)


class Poly(dict):
    """An element of a PolyRing; see the module docstring."""

    __slots__ = ("ring",)

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __neg__(self):
        return self.ring._new({m: -c for m, c in self.items()})

    def __add__(self, other: Poly) -> Poly:
        p = self.ring._new(self)
        get = p.get
        for m, c in other.items():
            c = get(m, 0) + c
            if c:
                p[m] = c
            else:
                del p[m]
        return p

    def __sub__(self, other: Poly) -> Poly:
        p = self.ring._new(self)
        get = p.get
        for m, c in other.items():
            c = get(m, 0) - c
            if c:
                p[m] = c
            else:
                del p[m]
        return p

    def __mul__(self, other: Poly) -> Poly:
        if len(other) == 1:
            self, other = other, self
        if len(self) == 1:
            # shifted monomials are distinct and the coefficients nonzero
            (m1, c1), = self.items()
            return other.ring._new({tuple(map(add, m1, m)): c1 * c
                                    for m, c in other.items()})
        p = {}
        get = p.get
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                m = tuple(map(add, m1, m2))
                p[m] = get(m, 0) + c1 * c2
        return self.ring._new({m: c for m, c in p.items() if c})

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if len(self) == 1:
            (m, c), = self.items()
            return self.ring.term_new(tuple(e * k for e in m), c ** k)
        out, base = self.ring.one, self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def terms(self) -> list:
        """(monomial, coefficient) pairs, leading term first."""
        return [(m, self[m]) for m in sorted(self, key=grevlex)]

    @property
    def LC(self):
        return self[_leading(self)] if self else 0

    def degrees(self) -> tuple:
        """The largest exponent of each generator (-inf for zero)."""
        if not self:
            return (float("-inf"),) * len(self.ring.names)
        return tuple(map(max, zip(*self)))

    def diff(self, index: int) -> Poly:
        """d/dx of the generator at ``index``."""
        out = {}
        for m, c in self.items():
            e = m[index]
            if e:
                out[m[:index] + (e - 1,) + m[index + 1:]] = c * e
        return self.ring._new(out)

    def mul_ground(self, c) -> Poly:
        return self.ring._new({m: v * c for m, v in self.items()})

    def quo_ground(self, c) -> Poly:
        return self.ring._new({m: _quo_coeff(v, c) for m, v in self.items()})

    def quo(self, other: Poly) -> Poly:
        """The exact quotient self / other; other must divide self."""
        if len(other) != 1:
            q = _exquo(self, other, integral=False)
        else:
            (lm, lc), = other.items()
            # a monomial divides self when each exponent of lm is at most
            # that generator's least exponent in self
            q = None if any(map(gt, lm, map(min, zip(*self)))) else {
                tuple(map(sub, m, lm)): _quo_coeff(c, lc)
                for m, c in self.items()}
        if q is None:
            raise ArithmeticError(f"{other} does not divide {self}")
        return self.ring._new(q)

    def gcd(self, other: Poly) -> Poly:
        """The monic greatest common divisor (zero for two zeros).  Raises
        HeuristicGCDFailed when GCDHEU gives up."""
        ring = self.ring
        if not self or not other:
            h = self or other
            return h.quo_ground(h.LC) if h else ring.zero
        if len(self) == 1 or len(other) == 1:
            return ring.term_new(_least_exponents(self, other), 1)
        shrink, grow = _deflation(self, other)
        h = _heugcd(shrink(_cleared(self)), shrink(_cleared(other)))[0]
        h = grow(h)
        lc = h[_leading(h)]
        return ring._new({m: _quo_coeff(c, lc) for m, c in h.items()})

    def cancel(self, other: Poly) -> tuple:
        """(self/h, other/h) for the gcd h of self and a nonzero other,
        scaled so the second is monic; (0, 1) for a zero self.  When either
        has a single term, h is the monomial of least exponents, so both
        are shifted by it: no gcd is built and nothing is divided."""
        ring = self.ring
        if not self or other == ring.one:
            return self, ring.one
        if len(self) == 1 or len(other) == 1:
            low = _least_exponents(self, other)
            if any(low):
                self, other = _shifted(self, low), _shifted(other, low)
        else:
            h = self.gcd(other)
            if h != ring.one:
                self, other = self.quo(h), other.quo(h)
        lc = other.LC
        if lc != 1:
            self, other = self.quo_ground(lc), other.quo_ground(lc)
        return self, other

    def __str__(self):
        if not self:
            return "0"
        parts = []
        for m, c in self.terms():
            parts.append(" - " if c < 0 else " + ")
            c = abs(c)
            factors = [name if e == 1 else f"{name}**{e}"
                       for name, e in zip(self.ring.names, m) if e]
            if c != 1 or not factors:
                factors.insert(0, str(c))
            parts.append("*".join(factors))
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    __repr__ = __str__


def _least_exponents(f: Poly, g: Poly) -> tuple:
    """The monomial gcd of f and g, nonzero and one of them a single term:
    each generator's least exponent over both."""
    return tuple(map(min, *f, *g))


def _shifted(p: Poly, low: tuple) -> Poly:
    """p divided by the monomial low, which divides each of its terms."""
    return p.ring._new({tuple(map(sub, m, low)): c for m, c in p.items()})


# -- exact division ------------------------------------------------------------

def _exquo(f: dict, g: dict, integral: bool):
    """f / g as a dict when g divides f exactly (over ZZ when ``integral``,
    else over QQ), None otherwise.  With a single divisor the division
    algorithm's remainder is unique, so it is zero exactly when g | f."""
    lm_g = _leading(g)
    lc_g = g[lm_g]
    tail = [(m, c) for m, c in g.items() if m != lm_g]
    r = dict(f)
    q = {}
    while r:
        lm = _leading(r)
        if any(a > b for a, b in zip(lm_g, lm)):
            return None
        if integral:
            c, rem = divmod(r.pop(lm), lc_g)
            if rem:
                return None
        else:
            c = _quo_coeff(r.pop(lm), lc_g)
        mq = tuple(map(sub, lm, lm_g))
        q[mq] = c
        for m, cg in tail:
            m = tuple(map(add, mq, m))
            v = r.get(m, 0) - c * cg
            if v:
                r[m] = v
            else:
                del r[m]
    return q


# -- GCDHEU over ZZ ------------------------------------------------------------

def _cleared(p: Poly) -> dict:
    """p times the lcm of its coefficient denominators: integer coefficients."""
    d = lcm(*(c.denominator for c in p.values()))
    return {m: c.numerator * (d // c.denominator) for m, c in p.items()}


def _deflation(f: dict, g: dict):
    """Maps between the exponents of f, g and those of a smaller problem:
    generators absent from both are dropped, and each remaining exponent is
    divided by the gcd of that generator's exponents.  The gcd commutes
    with the substitution x -> x^J, so it can be taken in the small ring."""
    n = len(next(iter(f)))
    steps = [0] * n
    for m in list(f) + list(g):
        for i, e in enumerate(m):
            if e:
                steps[i] = igcd(steps[i], e)
    kept = [(i, s) for i, s in enumerate(steps) if s]

    def shrink(p):
        return {tuple(m[i] // s for i, s in kept): c for m, c in p.items()}

    def grow(p):
        out = {}
        for m, c in p.items():
            full = [0] * n
            for (i, s), e in zip(kept, m):
                full[i] = e * s
            out[tuple(full)] = c
        return out

    return shrink, grow


def _evaluate(f: dict, x: int):
    """f with its first generator set to x: an int for one generator, else a
    dict over the remaining generators."""
    if len(next(iter(f))) == 1:
        return sum(c * x ** m[0] for m, c in f.items())
    out = {}
    for m, c in f.items():
        out[m[1:]] = out.get(m[1:], 0) + c * x ** m[0]
    return {m: c for m, c in out.items() if c}


def _symmetric_mod(c: int, x: int) -> int:
    c %= x
    return c - x if c > x // 2 else c


def _interpolate(h, x: int, n: int) -> dict:
    """The polynomial in n generators whose value at (x, ...) is h, read off
    the balanced base-x digits of h's coefficients, with a positive leading
    coefficient."""
    f = {}
    i = 0
    while h:
        if n == 1:
            digit = _symmetric_mod(h, x)
            h = (h - digit) // x
            if digit:
                f[(i,)] = digit
        else:
            digits = {m: _symmetric_mod(c, x) for m, c in h.items()}
            h = {m: (c - digits[m]) // x for m, c in h.items()
                 if c != digits[m]}
            for m, digit in digits.items():
                if digit:
                    f[(i,) + m] = digit
        i += 1
    if f[_leading(f)] < 0:
        f = {m: -c for m, c in f.items()}
    return f


def _primitive(f: dict) -> dict:
    cont = igcd(*f.values())
    return {m: c // cont for m, c in f.items()}


def _heugcd(f: dict, g: dict):
    """(h, f/h, g/h) with h a gcd of the nonzero integer polynomials f, g."""
    n = len(next(iter(f)))
    cont = igcd(*f.values(), *g.values())
    f = {m: c // cont for m, c in f.items()}
    g = {m: c // cont for m, c in g.items()}
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    x = max(min(bound, 99 * isqrt(bound)),
            2 * min(f_norm // abs(f[_leading(f)]),
                    g_norm // abs(g[_leading(g)])) + 4)
    for _ in range(HEU_GCD_MAX):
        ff, gg = _evaluate(f, x), _evaluate(g, x)
        # a zero image says nothing; try the next point
        if ff and gg:
            found = _heugcd_candidates(f, g, ff, gg, x, n)
            if found is not None:
                h, cff, cfg = found
                return {m: c * cont for m, c in h.items()}, cff, cfg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    raise HeuristicGCDFailed(
        f"heuristic gcd gave up after {HEU_GCD_MAX} evaluation points")


def _heugcd_candidates(f: dict, g: dict, ff, gg, x: int, n: int):
    """(h, f/h, g/h) from the gcd of the images ff = f(x), gg = g(x): the
    interpolated gcd, or a gcd got from either interpolated cofactor, the
    first one that divides both f and g exactly; None if none does."""
    if n == 1:
        hh = igcd(ff, gg)
        cff, cfg = ff // hh, gg // hh
    else:
        hh, cff, cfg = _heugcd(ff, gg)
    h = _primitive(_interpolate(hh, x, n))
    cff_ = _exquo(f, h, integral=True)
    if cff_ is not None:
        cfg_ = _exquo(g, h, integral=True)
        if cfg_ is not None:
            return h, cff_, cfg_
    cff = _interpolate(cff, x, n)
    h = _exquo(f, cff, integral=True)
    if h is not None:
        cfg_ = _exquo(g, h, integral=True)
        if cfg_ is not None:
            return h, cff, cfg_
    cfg = _interpolate(cfg, x, n)
    h = _exquo(g, cfg, integral=True)
    if h is not None:
        cff_ = _exquo(f, h, integral=True)
        if cff_ is not None:
            return h, cff_, cfg
    return None

