"""Tri-state zero testing and point evaluation.

Purely rational expressions (variables, constants, abstract-function atoms)
are decided exactly by the polynomial normal form: the opaque generators
are algebraically independent by construction.  Once exp/ln/sqrt enter,
also inside an abstract atom's arguments, a nonzero normal form proves
nothing, so the verdict falls back to sampling at random points that avoid
denominator zeros.

mpmath is imported only where a value is computed numerically, so a call
whose residuals are all rational never loads it.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import expr as ex
from .ratform import RationalForm, normalize, uses_transcendental
from .symbols import InputError, Symbol, Workspace


class EvaluationError(InputError):
    pass


# exp of a larger argument is not evaluated: an exp tower grows past memory
# within a few levels, so such a point is rejected like a singular one
MAX_EXP_ARG = 10**6


class SingularPointError(EvaluationError):
    """A denominator vanished at the evaluation point."""


class InconclusiveError(Exception):
    """Sampling failed: every candidate point hit a singularity."""


PROVEN_ZERO = "proven_zero"
PROVEN_NONZERO = "proven_nonzero"
PROBABLY_ZERO = "probably_zero"
PROBABLY_NONZERO = "probably_nonzero"
INCONCLUSIVE = "inconclusive"

_ZEROISH = (PROVEN_ZERO, PROBABLY_ZERO)


class Verdict:
    __slots__ = ("kind", "samples", "witness")

    def __init__(self, kind: str, samples: int = 0,
                 witness: dict | None = None):
        self.kind, self.samples, self.witness = kind, samples, witness

    def __eq__(self, other):
        if other.__class__ is not Verdict:
            return NotImplemented
        return (self.kind, self.samples, self.witness) == (
            other.kind, other.samples, other.witness)

    @property
    def is_zero_verdict(self) -> bool:
        return self.kind in _ZEROISH

    @property
    def proven(self) -> bool:
        return self.kind in (PROVEN_ZERO, PROVEN_NONZERO)

    def __str__(self):
        if self.kind == PROBABLY_ZERO:
            return f"ProbablyZero({self.samples})"
        if self.kind == PROBABLY_NONZERO:
            return f"ProbablyNonzero(witness={self.witness})"
        return {
            PROVEN_ZERO: "ProvenZero",
            PROVEN_NONZERO: "ProvenNonzero",
            INCONCLUSIVE: "Inconclusive",
        }[self.kind]


PROVEN_PASS = "proven_pass"
PROBABLY_PASS = "probably_pass"
INCONCLUSIVE_PASS = "inconclusive"
FAIL = "fail"


def overall_result(kinds) -> str:
    """The overall result of a set of verdict kinds: fail on any nonzero
    verdict, else the weakest of proven pass, probable pass and
    inconclusive."""
    worst = PROVEN_PASS
    for k in kinds:
        if k in (PROVEN_NONZERO, PROBABLY_NONZERO):
            return FAIL
        if k == INCONCLUSIVE:
            worst = INCONCLUSIVE_PASS
        elif k == PROBABLY_ZERO and worst == PROVEN_PASS:
            worst = PROBABLY_PASS
    return worst


# the fewest bits a sample is evaluated with: _near_zero's tolerance is
# 2^-(precision//2) of the value's scale, so a coarse one reads nonzero
# values as zero
MIN_PRECISION = 24


class ZeroTestPolicy:
    """How forms are sampled.  A policy that samples nothing, or too
    coarsely to tell a value from zero, would pass any form: it is an
    input error."""

    def __init__(self, samples: int = 20, seed: int = 0,
                 precision: int = 64, max_retries: int = 200):
        if samples < 1:
            raise InputError(f"samples must be at least 1, got {samples}")
        if precision < MIN_PRECISION:
            raise InputError(f"precision must be at least {MIN_PRECISION} "
                             f"bits, got {precision}")
        self.samples, self.seed = samples, seed
        self.precision, self.max_retries = precision, max_retries


DEFAULT_POLICY = ZeroTestPolicy()


class Point:
    """Exact assignment of variables."""

    def __init__(self, values: dict[Symbol, Fraction]):
        self.values = values


def evaluate(e: ex.Expr, point: Point, precision: int = 64):
    """Exact rational value when the expression is rational, else a real at
    the requested binary precision.  Raises SingularPointError when a
    denominator vanishes at the point."""
    import mpmath
    with mpmath.workprec(precision + 16):
        return _eval(e, point, precision)


def _eval(e: ex.Expr, point: Point, precision: int):
    if isinstance(e, ex.Rat):
        return e.value
    if isinstance(e, ex.Var):
        try:
            return point.values[e.symbol]
        except KeyError:
            raise EvaluationError(f"no value assigned to {e.symbol.name}")
    if isinstance(e, ex.Sum):
        return sum(_eval(t, point, precision) for t in e.terms)
    if isinstance(e, ex.Prod):
        out = 1
        for f in e.factors:
            out *= _eval(f, point, precision)
        return out
    if isinstance(e, ex.Pow):
        base = _eval(e.base, point, precision)
        if e.exponent < 0 and base == 0:
            raise SingularPointError(f"zero base in {e}")
        return base ** e.exponent
    if isinstance(e, ex.Quot):
        den = _eval(e.den, point, precision)
        if den == 0:
            raise SingularPointError(f"singular denominator {e.den}")
        return _eval(e.num, point, precision) / den
    if isinstance(e, ex.Call):
        return _apply(e.fn, _eval(e.arg, point, precision))
    if isinstance(e, ex.FuncAtom):
        raise EvaluationError(f"abstract atom {e} has no assigned value")
    raise EvaluationError(f"cannot evaluate {type(e)}")


# -- sampling on rational forms ----------------------------------------------

def _random_fraction(rng: random.Random, positive=False) -> Fraction:
    num = rng.randint(1, 12) if positive else rng.choice(
        [n for n in range(-12, 13) if n != 0]
    )
    return Fraction(num, rng.randint(1, 7))


def _apply(fn: str, arg):
    """exp, ln or sqrt of a value, as a real at the working precision;
    raises outside the real domain."""
    import mpmath
    if isinstance(arg, Fraction):
        arg = mpmath.mpf(arg.numerator) / arg.denominator
    if fn == "exp":
        if arg > MAX_EXP_ARG:
            raise EvaluationError(f"exp argument above {MAX_EXP_ARG}")
        return mpmath.exp(arg)
    if arg < 0 or (fn == "ln" and arg == 0):
        raise SingularPointError(f"{fn} outside the real domain")
    return mpmath.log(arg) if fn == "ln" else mpmath.sqrt(arg)


def _gens(rf: RationalForm) -> list:
    """(index, name or signature, argument form or None) of each generator
    that num or den of rf uses; an exp/ln/sqrt generator is evaluated from
    its argument form."""
    ctx = rf.ctx
    keys = ctx.var_names + ctx.atom_sigs
    return [(i, keys[i], ctx.arg_forms.get(i)) for i, (a, b)
            in enumerate(zip(rf.num.degrees(), rf.den.degrees()))
            if a > 0 or b > 0]


def _positive(rf: RationalForm) -> bool:
    """Is a generator of rf, or of the argument form of one of its
    exp/ln/sqrt generators, ln or sqrt?"""
    return any(arg is not None and (not key.startswith("exp(")
                                    or _positive(arg))
               for _, key, arg in _gens(rf))


def _sample_ratform(rf: RationalForm, policy: ZeroTestPolicy,
                    rng: random.Random):
    """(num value, num scale, values) of rf at a random point.  A value is
    drawn for each variable and abstract atom that rf, or the argument form
    of one of its exp/ln/sqrt generators, uses, in the order they are met;
    values maps their names and signatures to them, so the point does not
    depend on rf's context.  The variables are positive when one of those
    generators is ln or sqrt.  Raises on singularity."""
    import mpmath
    positive = _positive(rf)
    values = {}

    def value(form):
        """(num value, num scale, den value) of the form"""
        gens = {}
        for i, key, arg in _gens(form):
            if arg is not None:
                num, _, den = value(arg)
                gens[i] = _apply(form.ctx.gen_expr(i).fn, num / den)
                continue
            if key not in values:
                values[key] = _random_fraction(
                    rng, positive and i < form.ctx.n_vars)
            gens[i] = values[key]
        num, scale = _eval_poly(form.num, gens)
        den, _ = _eval_poly(form.den, gens)
        if _near_zero(den, 1, policy):
            raise SingularPointError("denominator vanished at sample point")
        return num, scale, den

    with mpmath.workprec(policy.precision + 32):
        num, scale, _ = value(rf)
    return num, scale, values


def _eval_poly(p, gens: dict):
    """(value, sum of the absolute values of the terms) of p, given the
    values of its generators by index."""
    total = scale = 0
    for monom, coeff in p.terms():
        term = Fraction(coeff)
        for i, power in enumerate(monom):
            if power:
                term = term * gens[i] ** power
        total = total + term
        scale += abs(term)
    return total, scale


def _near_zero(value, scale, policy: ZeroTestPolicy) -> bool:
    if isinstance(value, Fraction):
        return value == 0
    import mpmath
    tol = mpmath.mpf(2) ** (-(policy.precision // 2))
    return abs(value) <= tol * (1 + abs(scale))


def verdict_for_ratform(rf: RationalForm,
                        policy: ZeroTestPolicy = DEFAULT_POLICY) -> Verdict:
    """The verdict on rf.  It depends only on the form: a sample draws
    values for what rf uses (see ``_sample_ratform``), whatever else shares
    its context."""
    if rf.is_zero:
        return Verdict(PROVEN_ZERO)
    if not uses_transcendental(rf):
        return Verdict(PROVEN_NONZERO)
    rng = random.Random(policy.seed)
    done = retries = 0
    while done < policy.samples:
        try:
            value, scale, values = _sample_ratform(rf, policy, rng)
        except (SingularPointError, EvaluationError):
            retries += 1
            if retries > policy.max_retries:
                raise InconclusiveError(
                    "all candidate sample points hit singularities"
                )
            continue
        if not _near_zero(value, scale, policy):
            witness = {k: str(v) for k, v in values.items()}
            return Verdict(PROBABLY_NONZERO, done + 1, witness)
        done += 1
    return Verdict(PROBABLY_ZERO, policy.samples)


def is_zero(e: ex.Expr, ws: Workspace,
            policy: ZeroTestPolicy = DEFAULT_POLICY) -> Verdict:
    """Tri-state zero test; exact whenever the expression is rational in the
    variables and opaque atoms."""
    return verdict_for_ratform(normalize(e, ws), policy)
