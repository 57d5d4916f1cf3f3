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
from contextlib import nullcontext
from fractions import Fraction

from . import expr as ex
from .ratform import RationalForm, normalize, poly_to_expr, uses_transcendental
from .symbols import InputError, Workspace


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
# the most bits a sample is evaluated with: the cost of a sampled verdict
# grows fast with the precision (fkt on the density a^2 + b^2 - 2*exp(c)
# takes 0.3-0.5 s at 2^16 bits and does not finish in a minute at 2^20)
MAX_PRECISION = 2**16
# the most samples a verdict draws: its cost grows in proportion (a cold
# check of a 1D operator with g12 = exp(2*u1), g21 = exp(u1)^2 takes 0.4 s
# at 2,000 samples and 3 s at 20,000, so 10^9 would run for days)
MAX_SAMPLES = 2**16
# the singular points a verdict skips before it gives up as Inconclusive
MAX_RETRIES = 200


class ZeroTestPolicy:
    """How forms are sampled.  A policy that samples nothing, or too
    coarsely to tell a value from zero, would pass any form: it is an
    input error.  So is a precision above MAX_PRECISION or more samples
    than MAX_SAMPLES."""

    def __init__(self, samples: int = 20, seed: int = 0,
                 precision: int = 64):
        if samples < 1:
            raise InputError(f"samples must be at least 1, got {samples}")
        if samples > MAX_SAMPLES:
            raise InputError(f"samples must be at most {MAX_SAMPLES}, "
                             f"got {samples}")
        if precision < MIN_PRECISION:
            raise InputError(f"precision must be at least {MIN_PRECISION} "
                             f"bits, got {precision}")
        if precision > MAX_PRECISION:
            raise InputError(f"precision must be at most {MAX_PRECISION} "
                             f"bits, got {precision}")
        self.samples, self.seed, self.precision = samples, seed, precision


DEFAULT_POLICY = ZeroTestPolicy()


# -- sampling on rational forms ----------------------------------------------

def _random_fraction(rng: random.Random, positive=False) -> Fraction:
    num = rng.randint(1, 12) if positive else rng.choice(
        [n for n in range(-12, 13) if n != 0]
    )
    return Fraction(num, rng.randint(1, 7))


def _real(x):
    """x as a real at the working precision; mpmath cannot divide a
    Fraction by a real, nor build a real from a Fraction."""
    if isinstance(x, Fraction):
        import mpmath
        return mpmath.mpf(x.numerator) / x.denominator
    return x


def _apply(fn: str, arg):
    """exp, ln or sqrt of a value, as a real at the working precision;
    raises outside the real domain."""
    import mpmath
    arg = _real(arg)
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
    return [(i, keys[i], ctx.arg_forms.get(i))
            for i in sorted({*rf.num.occurring(), *rf.den.occurring()})]


def _positive(rf: RationalForm) -> bool:
    """Is a generator of rf, or of the argument form of one of its
    exp/ln/sqrt generators, ln or sqrt?"""
    return any(arg is not None and (not key.startswith("exp(")
                                    or _positive(arg))
               for _, key, arg in _gens(rf))


def form_value(rf: RationalForm, value_of, precision: int):
    """(value, numerator value, numerator scale) of rf at a point; the
    scale is the sum of the absolute values of the numerator's terms.

    value_of(i, key, ctx) gives the value of generator i of rf's context, a
    variable or an abstract atom, whose key is its name or signature; it
    is called for each such generator that rf, or the argument form of one
    of its exp/ln/sqrt generators, uses, in the order they are met.  An
    exp/ln/sqrt generator is evaluated from its argument form, as a real
    at precision + 32 bits: mpmath is loaded only when rf's context has
    one, and a value is exact while no such generator is met.  Raises
    SingularPointError when the denominator vanishes at the point."""
    ctx = rf.ctx
    if ctx.arg_forms:
        import mpmath
        working = mpmath.workprec(precision + 32)
    else:
        working = nullcontext()
    with working:
        gens = {}
        for i, key, arg in _gens(rf):
            gens[i] = value_of(i, key, ctx) if arg is None else _apply(
                ctx.gen_expr(i).fn, form_value(arg, value_of, precision)[0])
        num, scale = _eval_poly(rf.num, gens)
        den, _ = _eval_poly(rf.den, gens)
        if _near_zero(den, 1, precision):
            raise SingularPointError("singular denominator "
                                     f"{poly_to_expr(rf.den, ctx)}")
        value = num / den if isinstance(den, Fraction) else _real(num) / den
    return value, num, scale


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


def _near_zero(value, scale, precision: int) -> bool:
    if isinstance(value, Fraction):
        return value == 0
    import mpmath
    tol = mpmath.mpf(2) ** (-(precision // 2))
    return abs(value) <= tol * (1 + abs(scale))


def verdict_for_ratform(rf: RationalForm,
                        policy: ZeroTestPolicy = DEFAULT_POLICY) -> Verdict:
    """The verdict on rf.  A sample draws a value for each variable and
    abstract atom that ``form_value`` meets, and the witness maps their
    names and signatures to them: the verdict depends only on the form,
    whatever else shares its context.  The variables are positive when
    one of rf's exp/ln/sqrt generators, or one inside their arguments, is
    ln or sqrt."""
    if rf.is_zero:
        return Verdict(PROVEN_ZERO)
    if not uses_transcendental(rf):
        return Verdict(PROVEN_NONZERO)
    rng = random.Random(policy.seed)
    positive = _positive(rf)
    values = {}

    def value_of(i, key, ctx):
        if key not in values:
            values[key] = _random_fraction(rng, positive and i < ctx.n_vars)
        return values[key]

    done = retries = 0
    while done < policy.samples:
        values.clear()
        try:
            _, value, scale = form_value(rf, value_of, policy.precision)
        except (SingularPointError, EvaluationError):
            retries += 1
            if retries > MAX_RETRIES:
                raise InconclusiveError(
                    "all candidate sample points hit singularities"
                )
            continue
        if not _near_zero(value, scale, policy.precision):
            witness = {k: str(v) for k, v in values.items()}
            return Verdict(PROBABLY_NONZERO, done + 1, witness)
        done += 1
    return Verdict(PROBABLY_ZERO, policy.samples)


def is_zero(e: ex.Expr, ws: Workspace,
            policy: ZeroTestPolicy = DEFAULT_POLICY) -> Verdict:
    """Tri-state zero test; exact whenever the expression is rational in the
    variables and opaque atoms."""
    return verdict_for_ratform(normalize(e, ws), policy)
