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
from dataclasses import dataclass, field
from fractions import Fraction

from . import expr as ex
from .ratform import (
    RationalForm,
    atom_signature,
    normalize,
    uses_transcendental,
)
from .symbols import Symbol, Workspace


class EvaluationError(Exception):
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


@dataclass(frozen=True)
class Verdict:
    kind: str
    samples: int = 0
    witness: dict | None = None

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


@dataclass(frozen=True)
class ZeroTestPolicy:
    samples: int = 20
    seed: int = 0
    precision: int = 64
    max_retries: int = 200


DEFAULT_POLICY = ZeroTestPolicy()


@dataclass
class Point:
    """Exact assignment of variables (and, internally, opaque atoms)."""

    values: dict[Symbol, Fraction]
    atom_values: dict[str, Fraction] = field(default_factory=dict)

    def as_plain_dict(self) -> dict:
        out = {s.name: str(v) for s, v in self.values.items()}
        out.update({k: str(v) for k, v in self.atom_values.items()})
        return out


def evaluate(e: ex.Expr, point: Point, precision: int = 64,
             ws: Workspace | None = None):
    """Exact rational value when the expression is rational, else a real at
    the requested binary precision.  Raises SingularPointError when a
    denominator vanishes at the point."""
    import mpmath
    with mpmath.workprec(precision + 16):
        return _eval(e, point, precision, ws)


def _eval(e: ex.Expr, point: Point, precision: int, ws: Workspace | None):
    if isinstance(e, ex.Rat):
        return e.value
    if isinstance(e, ex.Var):
        try:
            return point.values[e.symbol]
        except KeyError:
            raise EvaluationError(f"no value assigned to {e.symbol.name}")
    if isinstance(e, ex.Sum):
        return sum(_eval(t, point, precision, ws) for t in e.terms)
    if isinstance(e, ex.Prod):
        out = 1
        for f in e.factors:
            out *= _eval(f, point, precision, ws)
        return out
    if isinstance(e, ex.Pow):
        base = _eval(e.base, point, precision, ws)
        if e.exponent < 0 and base == 0:
            raise SingularPointError(f"zero base in {e}")
        return base ** e.exponent
    if isinstance(e, ex.Quot):
        den = _eval(e.den, point, precision, ws)
        if den == 0:
            raise SingularPointError(f"singular denominator {e.den}")
        return _eval(e.num, point, precision, ws) / den
    if isinstance(e, ex.Call):
        import mpmath
        arg = _eval(e.arg, point, precision, ws)
        if isinstance(arg, Fraction):
            arg = mpmath.mpf(arg.numerator) / arg.denominator
        if e.fn == "exp":
            if arg > MAX_EXP_ARG:
                raise EvaluationError(f"exp argument above {MAX_EXP_ARG}")
            return mpmath.exp(arg)
        if arg < 0 or (e.fn == "ln" and arg == 0):
            raise SingularPointError(f"{e.fn} outside the real domain")
        return mpmath.log(arg) if e.fn == "ln" else mpmath.sqrt(arg)
    if isinstance(e, ex.FuncAtom):
        if ws is not None and point.atom_values:
            sig = atom_signature(e, ws)
            if sig in point.atom_values:
                return point.atom_values[sig]
        raise EvaluationError(f"abstract atom {e} has no assigned value")
    raise EvaluationError(f"cannot evaluate {type(e)}")


# -- sampling on rational forms ----------------------------------------------

def _random_fraction(rng: random.Random, positive=False) -> Fraction:
    num = rng.randint(1, 12) if positive else rng.choice(
        [n for n in range(-12, 13) if n != 0]
    )
    den = rng.randint(1, 7)
    return Fraction(num, den)


def _sample_ratform(rf: RationalForm, ws: Workspace, policy: ZeroTestPolicy,
                    rng: random.Random):
    """One evaluation of num/den at a random point; raises on singularity."""
    import mpmath
    ctx = rf.ctx
    need_positive = any(
        sig.startswith(("ln(", "sqrt(")) for sig in ctx.atom_sigs
    )
    point = Point(values={}, atom_values={})
    for name in ctx.var_names:
        point.values[ws.require_symbol(name)] = _random_fraction(
            rng, positive=need_positive
        )
    for sig, atom in ctx.atom_exprs.items():
        if isinstance(atom, ex.FuncAtom):
            point.atom_values[sig] = _random_fraction(rng)
    gen_values = [point.values[ws.require_symbol(n)] for n in ctx.var_names]
    with mpmath.workprec(policy.precision + 32):
        for sig in ctx.atom_sigs:
            atom = ctx.atom_exprs[sig]
            if isinstance(atom, ex.FuncAtom):
                gen_values.append(point.atom_values[sig])
            else:
                gen_values.append(_eval(atom, point, policy.precision, ws))
        num_val, num_scale = _eval_poly(rf.num, gen_values)
        den_val, _ = _eval_poly(rf.den, gen_values)
        if _near_zero(den_val, 1, policy):
            raise SingularPointError("denominator vanished at sample point")
    return num_val, num_scale, point


def _eval_poly(p, gen_values):
    total = 0
    scale = 0
    for monom, coeff in p.terms():
        term = Fraction(coeff)
        for i, power in enumerate(monom):
            if power:
                term = term * gen_values[i] ** power
        total = total + term
        scale += abs(term)
    return total, scale


def _near_zero(value, scale, policy: ZeroTestPolicy) -> bool:
    if isinstance(value, Fraction):
        return value == 0
    import mpmath
    tol = mpmath.mpf(2) ** (-(policy.precision // 2))
    return abs(value) <= tol * (1 + abs(scale))


def verdict_for_ratform(rf: RationalForm, ws: Workspace,
                        policy: ZeroTestPolicy = DEFAULT_POLICY) -> Verdict:
    if rf.is_zero:
        return Verdict(PROVEN_ZERO)
    if not uses_transcendental(rf):
        return Verdict(PROVEN_NONZERO)
    rng = random.Random(policy.seed)
    done = 0
    retries = 0
    while done < policy.samples:
        try:
            value, scale, point = _sample_ratform(rf, ws, policy, rng)
        except (SingularPointError, EvaluationError):
            retries += 1
            if retries > policy.max_retries:
                raise InconclusiveError(
                    "all candidate sample points hit singularities"
                )
            continue
        if not _near_zero(value, scale, policy):
            return Verdict(PROBABLY_NONZERO, done + 1, point.as_plain_dict())
        done += 1
    return Verdict(PROBABLY_ZERO, policy.samples)


def is_zero(e: ex.Expr, ws: Workspace,
            policy: ZeroTestPolicy = DEFAULT_POLICY) -> Verdict:
    """Tri-state zero test; exact whenever the expression is rational in the
    variables and opaque atoms."""
    rf = normalize(e, ws)
    return verdict_for_ratform(rf, ws, policy)
