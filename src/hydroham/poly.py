"""Sparse multivariate polynomials over QQ.

A polynomial is a dict from monomials to nonzero coefficients, each an
``int`` or a ``Fraction``; the zero polynomial is the empty dict.  Terms
are ordered by graded reverse lexicographic order (grevlex), and ``str``
prints them leading term first (``-3/2*u1**2*@a0 + 1``).  Polynomials are
never mutated once built.

A monomial is one int, a packed exponent vector (Monagan and Pearce, CASC
2007): generator i's exponent fills the W-bit field at bit i*W and the
total degree the field above them, at bit S = n*W.  The invariant is a
total degree of at most MAX_DEGREE = 2^(W-1) - 1, so the top bit of each
field, its guard bit, stays clear; a product or term past this cap raises
ValueError.  A product of monomials is their sum.  Ints order monomials
by degree first, so one check on the largest keys bounds every field of
a product; with the bits below S flipped they sort in grevlex order.  The
guard bits of ((a | G) - b) & G mark each field where a >= b, so a
fieldwise min or a divisibility test is a few int operations, and the OR
of the monomials holds the generators that occur.  ``terms()`` and
``term_new`` speak exponent tuples.

A product with a single term shifts the other operand's monomials, and a
quotient by one subtracts its exponents.  A power of a single term
multiplies its monomial, a power of two terms is expanded by the binomial
theorem, and a power of more is taken by repeated squaring.  ``cancel``
shifts both operands by the monomial of least exponents when either is a
single term, and otherwise divides by their gcd: the heuristic gcd of
Char, Geddes and Gonnet (GCDHEU, J. Symbolic Comput. 7, 1989) over ZZ,
after clearing denominators.  GCDHEU and the general exact division run
on exponent tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd as igcd
from math import isqrt, lcm
from operator import add, or_, sub
from sys import byteorder

# evaluation points GCDHEU tries before it gives up
HEU_GCD_MAX = 6
# bits per exponent field, its guard bit included
W = 16
FIELD = (1 << W) - 1
MAX_DEGREE = (1 << W - 1) - 1


class HeuristicGCDFailed(ArithmeticError):
    """GCDHEU found no gcd within its HEU_GCD_MAX evaluation points."""


def _leading(d: dict) -> tuple:
    return min(d, key=lambda m: (-sum(m), m[::-1]))


def _quo_coeff(a, b):
    """a / b in QQ, as an int when the quotient is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


def _too_high(degree: int) -> ValueError:
    return ValueError(f"total degree must be at most {MAX_DEGREE}, got "
                      f"{degree}")


class PolyRing:
    """QQ[names] with grevlex order."""

    def __init__(self, names):
        self.names = tuple(names)
        n = len(self.names)
        self._shift = n * W
        self._low = (1 << self._shift) - 1
        self._limit = MAX_DEGREE + 1 << self._shift
        self._guards = sum(1 << i * W + W - 1 for i in range(n))
        self._ones = sum(1 << i * W for i in range(n))
        self._order = self._low.__xor__     # sort key, leading term largest
        self.zero = self._new({})
        self.one = self.ground_new(1)
        self.gens = tuple(self._new({1 << i * W | 1 << self._shift: 1})
                          for i in range(n))

    def _new(self, terms: dict) -> Poly:
        p = Poly(terms)
        p.ring = self
        return p

    def _pack(self, monom: tuple) -> int:
        degree = sum(monom)
        if degree > MAX_DEGREE:
            raise _too_high(degree)
        return sum((e << i * W for i, e in enumerate(monom)),
                   degree << self._shift)

    def _unpack(self, m: int) -> tuple:
        # W = 16: each field is one native uint16 of the int's bytes
        return tuple(memoryview((m & self._low).to_bytes(
            self._shift // 8, byteorder)).cast("H"))

    def _tuples(self, p: Poly) -> dict:
        return {self._unpack(m): c for m, c in p.items()}

    def _packed(self, d: dict) -> Poly:
        return self._new({self._pack(m): c for m, c in d.items()})

    def term_new(self, monom: tuple, coeff) -> Poly:
        return self._new({self._pack(monom): coeff} if coeff else {})

    def ground_new(self, coeff) -> Poly:
        return self._new({0: coeff} if coeff else {})


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
        ring = self.ring
        if len(self) == 1:
            (m1, c1), = self.items()
            if other and m1 + max(other) >= ring._limit:
                raise _too_high(m1 + max(other) >> ring._shift)
            # shifted monomials are distinct and the coefficients nonzero
            return ring._new({m1 + m: c1 * c for m, c in other.items()})
        if self and other and max(self) + max(other) >= ring._limit:
            raise _too_high(max(self) + max(other) >> ring._shift)
        p = {}
        get = p.get
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                m = m1 + m2
                p[m] = get(m, 0) + c1 * c2
        return ring._new({m: c for m, c in p.items() if c})

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative power of a polynomial")
        ring = self.ring
        if self and (max(self) >> ring._shift) * k > MAX_DEGREE:
            raise _too_high((max(self) >> ring._shift) * k)
        if len(self) == 1:
            (m, c), = self.items()
            return ring._new({m * k: c ** k})
        if len(self) == 2:
            # the binomial theorem: the k + 1 monomials are distinct and
            # C(k, i+1) = C(k, i) (k - i) / (i + 1) is exact
            (m1, c1), (m2, c2) = self.items()
            powers = [1]
            for _ in range(k):
                powers.append(powers[-1] * c1)
            out, binom, c = {}, 1, 1
            for i in range(k + 1):
                out[(k - i) * m1 + i * m2] = binom * powers[k - i] * c
                binom = binom * (k - i) // (i + 1)
                c *= c2
            return ring._new(out)
        out, base = ring.one, self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def terms(self) -> list:
        """(exponent tuple, coefficient) pairs, leading term first."""
        unpack = self.ring._unpack
        return [(unpack(m), self[m])
                for m in sorted(self, key=self.ring._order, reverse=True)]

    @property
    def LC(self):
        return (self[max(self, key=self.ring._order)] if len(self) > 1
                else next(iter(self.values()), 0))

    def occurring(self) -> list:
        """The indices of the generators that occur, in increasing order:
        the nonzero fields of the OR of the monomials, which never carries."""
        acc, out = reduce(or_, self, 0) & self.ring._low, []
        while acc:
            i = ((acc & -acc).bit_length() - 1) // W
            out.append(i)
            acc &= ~(FIELD << i * W)
        return out

    def diff(self, index: int) -> Poly:
        """d/dx of the generator at ``index``."""
        ring, shift = self.ring, index * W
        unit = 1 << shift | 1 << ring._shift
        return ring._new({m - unit: c * (m >> shift & FIELD)
                          for m, c in self.items() if m >> shift & FIELD})

    def mul_ground(self, c) -> Poly:
        return self.ring._new({m: v * c for m, v in self.items()})

    def quo_ground(self, c) -> Poly:
        return self.ring._new({m: _quo_coeff(v, c) for m, v in self.items()})

    def quo(self, other: Poly) -> Poly:
        """The exact quotient self / other; other must divide self."""
        ring, g = self.ring, self.ring._guards
        if len(other) == 1:
            (lm, lc), = other.items()
            # lm divides m when no field of (m | G) - lm borrows its guard bit
            if all(((m | g) - lm) & g == g for m in self):
                return ring._new({m - lm: _quo_coeff(c, lc)
                                  for m, c in self.items()})
        else:
            q = _exquo(ring._tuples(self), ring._tuples(other), integral=False)
            if q is not None:
                return ring._packed(q)
        raise ArithmeticError(f"{other} does not divide {self}")

    def gcd(self, other: Poly) -> Poly:
        """The monic greatest common divisor (zero for two zeros).  Raises
        HeuristicGCDFailed when GCDHEU gives up."""
        ring = self.ring
        if not self or not other:
            h = self or other
            return h.quo_ground(h.LC) if h else ring.zero
        if len(self) == 1 or len(other) == 1:
            return ring._new({_least_exponents(self, other): 1})
        f, g = _cleared(ring._tuples(self)), _cleared(ring._tuples(other))
        shrink, grow = _deflation(f, g)
        h = ring._packed(grow(_heugcd(shrink(f), shrink(g))[0]))
        return h.quo_ground(h.LC)

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
            if low:
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
        out = ""
        for m, c in self.terms():
            factors = [name if e == 1 else f"{name}**{e}"
                       for name, e in zip(self.ring.names, m) if e]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            out += (" - " if c < 0 else " + ") + "*".join(factors)
        if not out:
            return "0"
        return out[3:] if out[1] == "+" else "-" + out[3:]

    __repr__ = __str__


def _fieldwise(ring: PolyRing, monoms) -> int:
    """The fieldwise min of nonempty monomials."""
    g = ring._guards
    acc, *rest = monoms
    for m in rest:
        # each field where acc >= m, its guard bit spread over its low bits
        t = ((acc | g) - m) & g
        acc ^= (acc ^ m) & (t - (t >> W - 1))
    acc &= ring._low
    # the total degree: field n-1 of acc * ones sums the fields
    return acc | (acc * ring._ones << W >> ring._shift & FIELD) << ring._shift


def _least_exponents(f: Poly, g: Poly) -> int:
    """The monomial gcd of f and g, nonzero and one of them a single term:
    each generator's least exponent over both."""
    return 0 if 0 in f or 0 in g else _fieldwise(f.ring, chain(f, g))


def _shifted(p: Poly, low: int) -> Poly:
    """p divided by the monomial low, which divides each of its terms."""
    return p.ring._new({m - low: c for m, c in p.items()})


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

def _cleared(p: dict) -> dict:
    """p times the lcm of its coefficient denominators: integer coefficients."""
    d = lcm(*(c.denominator for c in p.values()))
    return {m: c.numerator * (d // c.denominator) for m, c in p.items()}


def _deflation(f: dict, g: dict):
    """Maps between the exponents of f, g and those of a smaller problem:
    generators absent from both are dropped, and each remaining exponent is
    divided by the gcd of that generator's exponents.  The gcd commutes
    with the substitution x -> x^J, so it can be taken in the small ring."""
    steps = [igcd(*column) for column in zip(*f, *g)]
    kept = [(i, s) for i, s in enumerate(steps) if s]

    def shrink(p):
        return {tuple(m[i] // s for i, s in kept): c for m, c in p.items()}

    def grow(p):
        out = {}
        for m, c in p.items():
            full = [0] * len(steps)
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
    if n == 1:
        h = {(): h}
    while h:
        digits = {m: _symmetric_mod(c, x) for m, c in h.items()}
        h = {m: (c - digits[m]) // x for m, c in h.items() if c != digits[m]}
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
    if ((cff_ := _exquo(f, h, integral=True)) is not None
            and (cfg_ := _exquo(g, h, integral=True)) is not None):
        return h, cff_, cfg_
    cff = _interpolate(cff, x, n)
    if ((h := _exquo(f, cff, integral=True)) is not None
            and (cfg_ := _exquo(g, h, integral=True)) is not None):
        return h, cff, cfg_
    cfg = _interpolate(cfg, x, n)
    if ((h := _exquo(g, cfg, integral=True)) is not None
            and (cff_ := _exquo(f, h, integral=True)) is not None):
        return h, cff_, cfg
    return None

