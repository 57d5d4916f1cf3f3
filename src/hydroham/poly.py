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
of the monomials holds the generators that occur.  ``terms()``,
``term_new`` and ``split`` speak exponent tuples.

A product with a single term shifts the other operand's monomials, and a
quotient by one subtracts its exponents.  A power of a single term
multiplies its monomial, a power of two terms is expanded by the binomial
theorem, and a power of more is taken by repeated squaring.  ``cancel``
shifts both operands by the monomial of least exponents when either is a
single term, and otherwise divides by their gcd: the heuristic gcd of
Char, Geddes and Gonnet (GCDHEU, J. Symbolic Comput. 7, 1989) over ZZ,
after clearing denominators.  GCDHEU evaluates the first generator that
occurs in place, with its exponents divided by their gcd s, recurses on the
images down to integers and interpolates back at exponents 0, s, 2s, ...
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd as igcd
from math import isqrt, lcm
from operator import or_
from sys import byteorder

# evaluation points GCDHEU tries before it gives up
HEU_GCD_MAX = 6
# bits per exponent field, its guard bit included
W = 16
FIELD = (1 << W) - 1
MAX_DEGREE = (1 << W - 1) - 1


class HeuristicGCDFailed(ArithmeticError):
    """GCDHEU found no gcd within its HEU_GCD_MAX evaluation points."""


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

    def split(self, indices) -> dict:
        """{exponents of the generators at ``indices``: the polynomial of the
        terms with those exponents, with those generators cleared}."""
        ring, parts = self.ring, {}
        mask = sum(FIELD << i * W for i in indices)
        for m, c in self.items():
            part = _with_degree(ring, m & mask)
            parts.setdefault(part, {})[m - part] = c
        return {tuple(part >> i * W & FIELD for i in indices): ring._new(p)
                for part, p in parts.items()}

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
            q = _exquo(self, other, integral=False)
            if q is not None:
                return q
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
        h = _heugcd(_cleared(self), _cleared(other))[0]
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
    return _with_degree(ring, acc & ring._low)


def _with_degree(ring: PolyRing, low: int) -> int:
    """The monomial with the exponent fields of ``low`` and their total."""
    # field n-1 of low * ones sums the fields
    return low | (low * ring._ones << W >> ring._shift & FIELD) << ring._shift


def _least_exponents(f: Poly, g: Poly) -> int:
    """The monomial gcd of f and g, nonzero and one of them a single term:
    each generator's least exponent over both."""
    return 0 if 0 in f or 0 in g else _fieldwise(f.ring, chain(f, g))


def _shifted(p: Poly, low: int) -> Poly:
    """p divided by the monomial low, which divides each of its terms."""
    return p.ring._new({m - low: c for m, c in p.items()})


# -- exact division ------------------------------------------------------------

def _exquo(f: Poly, g: Poly, integral: bool):
    """f / g when g divides f exactly (over ZZ when ``integral``, else over
    QQ), None otherwise.  With a single divisor the division algorithm's
    remainder is unique, so it is zero exactly when g | f.  The int order
    is graded, so max(r) is a leading term and no term of the remainder
    passes f's degree."""
    guards = f.ring._guards
    lm_g = max(g)
    lc_g = g[lm_g]
    tail = [(m, c) for m, c in g.items() if m != lm_g]
    r = dict(f)
    get = r.get
    q = {}
    while r:
        lm = max(r)
        # lm_g divides lm when no field of (lm | G) - lm_g borrows its guard
        if ((lm | guards) - lm_g) & guards != guards:
            return None
        if integral:
            c, rem = divmod(r.pop(lm), lc_g)
            if rem:
                return None
        else:
            c = _quo_coeff(r.pop(lm), lc_g)
        mq = lm - lm_g
        q[mq] = c
        for m, cg in tail:
            m += mq
            v = get(m, 0) - c * cg
            if v:
                r[m] = v
            else:
                del r[m]
    return f.ring._new(q)


# -- GCDHEU over ZZ ------------------------------------------------------------

def _cleared(p: Poly) -> Poly:
    """p times the lcm of its coefficient denominators: integer coefficients."""
    d = lcm(*(c.denominator for c in p.values()))
    return p.ring._new({m: c.numerator * (d // c.denominator)
                        for m, c in p.items()})


def _evaluate(f: Poly, i: int, s: int, x: int) -> Poly:
    """f with generator i set to x^(1/s), s dividing each of its exponents:
    field i and its share of the degree field are read and cleared."""
    shift, top = i * W, f.ring._shift
    out = {}
    get = out.get
    for m, c in f.items():
        e = m >> shift & FIELD
        m -= e << shift | e << top
        out[m] = get(m, 0) + c * x ** (e // s)
    return f.ring._new({m: c for m, c in out.items() if c})


def _interpolate(h: Poly, x: int, i: int, s: int):
    """The polynomial with a positive leading coefficient whose value at
    x_i = x^(1/s) is h: the balanced base-x digits of h's coefficients go to
    x_i's exponents 0, s, 2s, ...  None, never packed, when a term would pass
    MAX_DEGREE, as no such polynomial divides an element of the ring."""
    ring, half = h.ring, (x - 1) // 2
    step = s << i * W | s << ring._shift
    f, offset = {}, 0
    while h:
        if max(h) + offset >= ring._limit:
            return None
        # balanced digits, in (-x/2, x/2]
        digits = {m: (c + half) % x - half for m, c in h.items()}
        h = {m: (c - digits[m]) // x for m, c in h.items() if c != digits[m]}
        for m, digit in digits.items():
            if digit:
                f[m + offset] = digit
        offset += step
    f = ring._new(f)
    return -f if f.LC < 0 else f


def _heugcd(f: Poly, g: Poly):
    """(h, f/h, g/h) with h a gcd of the nonzero integer polynomials f, g."""
    cont = igcd(*f.values(), *g.values())
    f, g = f.quo_ground(cont), g.quo_ground(cont)
    occurring = f.occurring() + g.occurring()
    if not occurring:
        # no generator occurs: f and g are coprime integers
        return f.ring.ground_new(cont), f, g
    i = min(occurring)
    s = igcd(*(m >> i * W & FIELD for m in chain(f, g)))
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    x = max(min(bound, 99 * isqrt(bound)),
            2 * min(f_norm // abs(f.LC), g_norm // abs(g.LC)) + 4)
    for _ in range(HEU_GCD_MAX):
        ff, gg = _evaluate(f, i, s, x), _evaluate(g, i, s, x)
        # a zero image says nothing; try the next point
        if ff and gg:
            found = _heugcd_candidates(f, g, ff, gg, x, i, s)
            if found is not None:
                h, cff, cfg = found
                return h.mul_ground(cont), cff, cfg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    raise HeuristicGCDFailed(
        f"heuristic gcd gave up after {HEU_GCD_MAX} evaluation points")


def _heugcd_candidates(f: Poly, g: Poly, ff, gg, x: int, i: int, s: int):
    """(h, f/h, g/h) from the gcd of the images ff, gg of f, g at
    x_i = x^(1/s): the interpolated gcd, or a gcd got from either
    interpolated cofactor, the first one that divides both f and g exactly;
    None if none does."""
    hh, cff, cfg = _heugcd(ff, gg)
    if (h := _interpolate(hh, x, i, s)) is not None:
        h = h.quo_ground(igcd(*h.values()))
        if ((cff_ := _exquo(f, h, integral=True)) is not None
                and (cfg_ := _exquo(g, h, integral=True)) is not None):
            return h, cff_, cfg_
    if ((cff := _interpolate(cff, x, i, s)) is not None
            and (h := _exquo(f, cff, integral=True)) is not None
            and (cfg_ := _exquo(g, h, integral=True)) is not None):
        return h, cff, cfg_
    if ((cfg := _interpolate(cfg, x, i, s)) is not None
            and (h := _exquo(g, cfg, integral=True)) is not None
            and (cff_ := _exquo(f, h, integral=True)) is not None):
        return h, cff_, cfg
    return None
