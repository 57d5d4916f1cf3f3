"""Canonical rational forms: fractions of multivariate polynomials.

The extended variable set is the workspace's variables and constants in
registration order, then the context's formal parameters (the pencil's
lambdas, say), followed by one opaque generator per distinct atom
(abstract-function derivative atoms and exp/ln/sqrt applications), ordered
by a canonical signature.  Monomial order is graded reverse lexicographic.
Polynomial arithmetic and derivatives are done in the sparse rings over QQ
of ``poly``: an atom's derivative follows the chain rule over its argument
forms, which live in the same context.  Forms are reduced by
``Poly.cancel``, which cancels against a single term by shifting exponents
and runs a gcd only between two sums; a sum whose numerator cancels is the
context's zero form, reduced no further.

Most forms the relations build are a single term over a single term, and
these skip ``Poly.cancel``.  A product of two of them works on the packed
monomials: each numerator cancels against the other's monic denominator
by their fieldwise min, then exponents add and coefficients multiply; a
product past the degree cap takes the general path, which raises.  A sum
of two forms with the same single monomial over the same denominator adds
the coefficients, which keeps the form reduced.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import isqrt

from . import expr as ex
from .poly import PolyRing, _fieldwise
from .symbols import CONSTANT, InputError, Symbol, Workspace


class NormalizeError(InputError):
    pass


class ZeroDenominatorError(NormalizeError):
    """The denominator is identically zero as a rational function."""


_RING_CACHE: dict[tuple[str, ...], PolyRing] = {}
# ring name of the i-th atom generator of a context
_GEN_NAME = re.compile(r"@a(\d+)")
# an exp/ln/sqrt application anywhere in a signature
_TRANSCENDENTAL = re.compile(r"(?<![\w@])(exp|ln|sqrt)\(")


class PolyContext:
    """A fixed ring over the workspace symbols, formal parameters and
    discovered atoms, with its zero and one forms.  ``params`` holds the
    parameters' constants, which come after the workspace's symbols; one
    whose name the workspace or an earlier parameter holds takes the first
    free numeric suffix (lam1 -> lam11).  ``deriv`` holds the derivations
    d/dv of the context, one per variable, when ``derivation_context``
    built it, and is empty otherwise."""

    def __init__(self, ws: Workspace, atom_entries: list[tuple[str, ex.Expr]],
                 params=()):
        self.ws = ws
        symbols = ws.variables + ws.constants
        for base in params:
            symbols.append(Symbol(ws.fresh_name(
                base, [s.name for s in symbols]), CONSTANT))
        self.symbols = tuple(symbols)
        self.params = self.symbols[len(symbols) - len(params):]
        self.var_names = tuple(s.name for s in symbols)
        # atoms sorted by signature for a reproducible order
        atom_entries = sorted(atom_entries, key=lambda kv: kv[0])
        self.atom_sigs = tuple(sig for sig, _ in atom_entries)
        self.atom_exprs = {sig: e for sig, e in atom_entries}
        names = self.var_names + tuple(
            f"@a{i}" for i in range(len(self.atom_sigs))
        )
        self.ring = _RING_CACHE.get(names) or _RING_CACHE.setdefault(
            names, PolyRing(names))
        gens = self.ring.gens
        self.gen_of_name = dict(zip(self.var_names, gens))
        self.gen_of_sig = dict(zip(self.atom_sigs, gens[len(self.var_names):]))
        self.n_vars = len(self.var_names)
        self.zero = RationalForm(self.ring.zero, self.ring.one, self,
                                 reduced=True)
        self.one = RationalForm(self.ring.one, self.ring.one, self,
                                reduced=True)
        self.deriv: list = []
        self._args: dict[int, tuple] = {}
        self.missing: dict = {}     # {signature: atom} that compose lacked

    def gradient(self, rf) -> list:
        """[d(rf) for d in deriv]; a zero form is its own gradient."""
        if rf.is_zero:
            return [rf] * len(self.deriv)
        return [d(rf) for d in self.deriv]

    @cached_property
    def transcendental_gens(self) -> list:
        """The indices of the generators with exp/ln/sqrt anywhere in their
        signature: exp/ln/sqrt atoms, and abstract atoms over them."""
        return [self.n_vars + i for i, sig in enumerate(self.atom_sigs)
                if _TRANSCENDENTAL.search(sig)]

    @cached_property
    def arg_forms(self) -> dict:
        """{index: the argument form} of the exp/ln/sqrt generators."""
        return {i: self.args(i)[0] for i in self.transcendental_gens
                if isinstance(self.gen_expr(i), ex.Call)}

    def args(self, index: int) -> tuple:
        """An atom generator's argument forms, converted once per context."""
        if index not in self._args:
            atom = self.gen_expr(index)
            args = atom.args if isinstance(atom, ex.FuncAtom) else (atom.arg,)
            self._args[index] = tuple(to_rational_form(a, self) for a in args)
        return self._args[index]

    def gen_expr(self, index: int) -> ex.Expr:
        """The Expr a ring generator stands for."""
        if index < self.n_vars:
            return ex.Var(self.symbols[index])
        return self.atom_exprs[self.atom_sigs[index - self.n_vars]]

    def compose(self, rf, images: dict, target: "PolyContext"):
        """rf's image in target under the ring map that sends a variable
        to images[its name] (else to target's generator of that name), an
        exp/ln/sqrt atom to the atom over its composed argument, and
        f_J(args) to f_J over the composed arguments or, where images[f]
        is a form r of a derivation context over f's arguments, to d^J r
        composed at them.  Nested atoms compose innermost first.  Each atom
        of rf that target lacks joins ``target.missing``, and rf's image is
        then None.
        images keeps the generator images, keyed by (context, index)."""
        if rf.is_zero:
            return target.zero
        gens = {}
        for i in set(rf.num.occurring() + rf.den.occurring()):
            if (self, i) not in images:
                images[self, i] = self._image(i, images, target)
            gens[i] = images[self, i]
        if None in gens.values():
            return None
        terms = [rf.num.terms(), rf.den.terms()]
        top = {i: max(m[i] for t in terms for m, _ in t) for i in gens}
        return RationalForm(*(_evaluate(t, gens, top, target.ring)
                              for t in terms), target)

    def _image(self, i: int, images: dict, target: "PolyContext"):
        atom = self.gen_expr(i)
        if i < self.n_vars:
            image = images.get(atom.symbol.name)
            return image or to_rational_form(atom, target)
        names = {s.name for s in ex.free_symbols(atom)} | {
            a.func.name for a in ex.atoms(atom) if isinstance(a, ex.FuncAtom)}
        image = atom    # an atom that no image touches is its own image
        if not names.isdisjoint(images):
            args = [self.compose(a, images, target) for a in self.args(i)]
            if None in args:
                return None
            r = isinstance(atom, ex.FuncAtom) and images.get(atom.func.name)
            if r:
                for t, order in enumerate(atom.deriv):
                    for _ in range(order):
                        r = r.ctx.deriv[t](r)
                return r.ctx.compose(r, {a.name: x for a, x in zip(
                    atom.func.args, args)}, target)
            exprs = [ratform_to_expr(x) for x in args]
            for e, x in zip(exprs, args):
                target.ws.signatures["arg", e.key()] = _canonical_string(x)
            image = (ex.Call(atom.fn, exprs[0]) if isinstance(atom, ex.Call)
                     else ex.FuncAtom(atom.func, exprs, atom.deriv))
        sig = atom_signature(image, target.ws)
        if isinstance(sig, str) and sig not in target.gen_of_sig:
            target.missing[sig] = image
            return None
        return to_rational_form(image, target)


class RationalForm:
    """num/den with gcd(num, den) = 1 and monic denominator."""

    __slots__ = ("num", "den", "ctx")

    def __init__(self, num, den, ctx: PolyContext, reduced=False):
        if not den:
            raise ZeroDenominatorError("denominator is identically zero")
        if not reduced:
            num, den = num.cancel(den)
        self.num = num
        self.den = den
        self.ctx = ctx

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        return (
            isinstance(other, RationalForm)
            and self.ctx.ring == other.ctx.ring
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den == other.den:
            return self._over_den(other, 1)
        return self._over(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    def __sub__(self, other):
        if other.is_zero:
            return self
        if self.is_zero:
            return -other
        if self.den == other.den:
            return self._over_den(other, -1)
        return self._over(self.num * other.den - other.num * self.den,
                          self.den * other.den)

    def _over_den(self, other, sign) -> "RationalForm":
        """self + sign * other over their common denominator.  When both
        numerators are the same single monomial, the coefficients add and
        the form stays reduced, so nothing is cancelled."""
        a, b = self.num, other.num
        if len(a) == 1 == len(b) and a.keys() == b.keys():
            (m, c), = a.items()
            c += sign * b[m]
            return (RationalForm(a.ring._new({m: c}), self.den, self.ctx,
                                 reduced=True) if c else self.ctx.zero)
        return self._over(a + b if sign > 0 else a - b, self.den)

    def _over(self, num, den) -> "RationalForm":
        """num/den reduced; the context's zero form when num cancelled."""
        return RationalForm(num, den, self.ctx) if num else self.ctx.zero

    def __neg__(self):
        return RationalForm(-self.num, self.den, self.ctx, reduced=True)

    def scaled(self, c) -> "RationalForm":
        """c * self for a nonzero rational c: the numerator times a ground
        constant, which keeps the form reduced (no product, no gcd)."""
        if c == 1 or self.is_zero:
            return self
        return RationalForm(self.num.mul_ground(c), self.den, self.ctx,
                            reduced=True)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return self.ctx.zero
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        ring = n1.ring
        if len(n1) == len(d1) == len(n2) == len(d2) == 1:
            # monomials over monomials: a monic denominator's coefficient
            # is 1, and each numerator cancels against the other's
            # denominator by the fieldwise min of the two monomials
            (m1, c1), = n1.items()
            (m2, c2), = n2.items()
            (e1,), (e2,) = d1, d2
            low1 = _fieldwise(ring, (m1, e2)) if m1 and e2 else 0
            low2 = _fieldwise(ring, (m2, e1)) if m2 and e1 else 0
            m, e = m1 - low1 + m2 - low2, e1 - low2 + e2 - low1
            # past the degree cap the general path raises its ValueError
            if m < ring._limit and e < ring._limit:
                return RationalForm(ring._new({m: c1 * c2}),
                                    ring._new({e: 1}), self.ctx, reduced=True)
        if d1 == ring.one and d2 == ring.one:
            return RationalForm(n1 * n2, d1, self.ctx, reduced=True)
        # cross-cancelled factors of two reduced forms give a reduced
        # product with a monic denominator
        num1, den2 = n1.cancel(d2)
        num2, den1 = n2.cancel(d1)
        return RationalForm(num1 * num2, den1 * den2, self.ctx, reduced=True)

    def __truediv__(self, other):
        if other.is_zero:
            raise ZeroDenominatorError("division by an identically zero form")
        if self.is_zero:
            return self
        return self * RationalForm(other.den, other.num, other.ctx)

    def __pow__(self, k: int):
        if k == 0:
            return self.ctx.one
        if k < 0:
            return self.ctx.one / (self ** (-k))
        return RationalForm(self.num ** k, self.den ** k, self.ctx, reduced=True)

    def __str__(self):
        if self.den == self.ctx.ring.one:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


# -- atom signatures ---------------------------------------------------------

def atom_signature(atom: ex.Expr, ws: Workspace) -> str | Fraction:
    """A canonical string identifying an atom up to rational-function
    equality of its arguments, or the atom's value when it is rational.

    Signatures are kept in the workspace's table, and so is the string of each
    atom's argument: f, f_1, f_11, ... normalize their arguments once per
    table, and a composed atom's come from its argument forms.  A stored string
    stays valid: it prints only the symbols it uses, so appending symbols
    cannot change it.  ln of a rational constant <= 0 and sqrt of one < 0 are
    not real, so they are input errors.  exp(0), ln(1) and sqrt(p/q) for
    squares p and q are rational: their value stands for them, so they take no
    generator and a signature over them names the value."""
    key = atom.key()
    sig = ws.signatures.get(key)
    if sig is not None:
        return sig
    if isinstance(atom, ex.Call):
        arg = _argument_string(atom.arg, ws)
        sig = f"{atom.fn}({arg})"
        # a constant argument prints as its value
        if arg.lstrip("-").replace("/", "").isdigit():
            c = Fraction(arg)
            if atom.fn != "exp" and (c < 0 or atom.fn == "ln" and not c):
                raise NormalizeError(f"{sig} is outside the real domain")
            if atom.fn == "sqrt":
                root = Fraction(isqrt(c.numerator), isqrt(c.denominator))
                if root * root == c:
                    sig = root
            elif c == (atom.fn == "ln"):    # exp(0) = 1, ln(1) = 0
                sig = Fraction(atom.fn == "exp")
    elif isinstance(atom, ex.FuncAtom):
        args = ",".join(_argument_string(a, ws) for a in atom.args)
        sig = f"{atom.func.name}[{','.join(map(str, atom.deriv))}]({args})"
    else:
        raise NormalizeError(f"not an atom: {atom}")
    ws.signatures[key] = sig
    return sig


def _argument_string(arg: ex.Expr, ws: Workspace) -> str:
    """An argument's canonical string, kept apart from the atom keys."""
    key = ("arg", arg.key())
    s = ws.signatures.get(key)
    if s is None:
        s = ws.signatures[key] = _canonical_string(_normalize(arg, ws))
    return s


def _canonical_string(rf: RationalForm) -> str:
    """rf printed with its atom generators named by their signatures, so
    the string does not depend on the context it was built in."""
    sigs = rf.ctx.atom_sigs
    return _GEN_NAME.sub(lambda m: sigs[int(m.group(1))], str(rf))


def _atoms(ws: Workspace, exprs):
    """(signature, atom) of each atom of the exprs, nested ones included,
    whose value is not rational.  A rational constant, as most operator
    entries are, has no atom and is skipped."""
    for e in exprs:
        if isinstance(e, ex.Rat):
            continue
        for atom in ex.atoms(e):
            sig = atom_signature(atom, ws)
            if isinstance(sig, str):
                yield sig, atom


def build_context(ws: Workspace, exprs) -> PolyContext:
    entries: dict[str, ex.Expr] = {}
    for sig, atom in _atoms(ws, exprs):
        entries.setdefault(sig, atom)
    return PolyContext(ws, list(entries.items()))


def derivation_context(ws: Workspace, variables, parts,
                       params=()) -> PolyContext:
    """A context whose atoms are closed under partial derivatives, with its
    derivations d/dv for the v in ``variables`` (``ctx.deriv``).

    ``parts`` is a list of (exprs, order).  Each atom of the exprs, nested
    ones included, gets a generator, and so does each partial derivative of
    an abstract atom up to that order, taken in the arguments that hold one
    of ``variables``: these are the atoms the chain rule of ``Derivation``
    meets up to that order.  The first atom of a signature stands for it.
    ``params`` names the formal parameters (see ``PolyContext``).
    """
    vs = set(variables)
    entries: dict[str, ex.Expr] = {}
    for exprs, order in parts:
        found = [entries.setdefault(sig, a) for sig, a in _atoms(ws, exprs)]
        for atom in dict.fromkeys(found):
            if not (order and isinstance(atom, ex.FuncAtom)):
                continue
            slots = [t for t, a in enumerate(atom.args)
                     if vs & ex.free_symbols(a)]
            for k in range(1, order + 1):
                for picks in combinations_with_replacement(slots, k):
                    partial = ex.FuncAtom(atom.func, atom.args, [
                        d + picks.count(t) for t, d in enumerate(atom.deriv)])
                    entries.setdefault(atom_signature(partial, ws), partial)
    ctx = PolyContext(ws, list(entries.items()), params)
    ctx.deriv = [Derivation(ctx, v) for v in variables]
    return ctx


def to_rational_form(e: ex.Expr, ctx: PolyContext) -> RationalForm:
    ring = ctx.ring
    if isinstance(e, ex.Rat):
        v = e.value
        if not v:   # most operator entries: share one zero form
            return ctx.zero
        return RationalForm(
            ring.ground_new(v.numerator if v.denominator == 1 else v),
            ring.one, ctx, reduced=True,
        )
    if isinstance(e, ex.Var):
        gen = ctx.gen_of_name.get(e.symbol.name)
        if gen is None:
            raise NormalizeError(f"symbol {e.symbol.name!r} not in context")
        return RationalForm(gen, ring.one, ctx, reduced=True)
    if isinstance(e, ex.Sum):
        return sum((to_rational_form(t, ctx) for t in e.terms), ctx.zero)
    if isinstance(e, ex.Prod):
        out = ctx.one
        for f in e.factors:
            out = out * to_rational_form(f, ctx)
            if out.is_zero:
                return out
        return out
    if isinstance(e, ex.Pow):
        return to_rational_form(e.base, ctx) ** e.exponent
    if isinstance(e, ex.Quot):
        num = to_rational_form(e.num, ctx)
        den = to_rational_form(e.den, ctx)
        if den.is_zero:
            raise ZeroDenominatorError(
                f"denominator {e.den} is identically zero"
            )
        return num / den
    if isinstance(e, (ex.Call, ex.FuncAtom)):
        sig = atom_signature(e, ctx.ws)
        if isinstance(sig, Fraction):
            return to_rational_form(ex.Rat(sig), ctx)
        gen = ctx.gen_of_sig.get(sig)
        if gen is None:
            raise NormalizeError(f"atom {e} not in context")
        return RationalForm(gen, ring.one, ctx, reduced=True)
    raise NormalizeError(f"cannot normalize {type(e)}")


def composed(forms: list, images: dict, ws: Workspace, variables=(),
             parts=(), order=0, params=()) -> list:
    """The forms, a nest of lists, composed into a derivation context over
    ws and the params built from the parts and the images, in a nest of
    the same shape.  The images map a name to an Expr over ws or to a form
    that specializes a function.  The context is built again with the
    atoms it lacked, closed to the given order, once per level of
    nesting."""
    exprs = [x for x in images.values() if isinstance(x, ex.Expr)]
    flat, atoms = _flatten(forms), []
    while True:
        target = derivation_context(ws, variables,
                                    [*parts, (exprs, 0), (atoms, order)],
                                    params)
        imgs = {name: to_rational_form(x, target)
                if isinstance(x, ex.Expr) else x for name, x in images.items()}
        out = iter([rf.ctx.compose(rf, imgs, target) for rf in flat])
        if not target.missing:
            return _map_nested(forms, lambda _: next(out))
        atoms += target.missing.values()


def _flatten(nested) -> list:
    """The leaves of a nest of lists, or a bare leaf, depth first, in one
    list: one call per list that holds lists, none per leaf."""
    if not isinstance(nested, list):
        return [nested]
    out = []
    for item in nested:
        if isinstance(item, list):
            out += _flatten(item)
        else:
            out.append(item)
    return out


def _map_nested(nested, fn):
    """fn applied to each leaf of a nest of lists, or to a bare leaf, in a
    nest of the same shape; the depth may differ from item to item.  It
    recurses only into lists, so a leaf costs one call of fn."""
    if not isinstance(nested, list):
        return fn(nested)
    return [_map_nested(item, fn) if isinstance(item, list) else fn(item)
            for item in nested]


def _evaluate(terms, gens: dict, top: dict, ring):
    """The polynomial of the terms at gens {index: form}, times each
    generator's denominator to the power top[index]: a polynomial."""
    out = ring.zero
    for m, c in terms:
        term = ring.ground_new(c)
        for i, g in gens.items():
            term = term * g.num ** m[i] * g.den ** (top[i] - m[i])
        out = out + term
    return out


def _normalize(e: ex.Expr, ws: Workspace) -> RationalForm:
    return to_rational_form(e, build_context(ws, [e]))


def normalize(e: ex.Expr, ws: Workspace) -> RationalForm:
    """Canonical form; equal rational functions of the extended variable
    set map to the identical (num, den) pair."""
    return _normalize(e, ws)


# -- the derivation d/dv on rational forms -----------------------------------

class Derivation:
    """The partial derivative d/dv on the rational forms of one context.

    A generator's derivative is worked out on first use and cached: 1 or 0
    for a variable or constant, and for an atom generator the chain rule
    over its argument forms a: exp(a)*a', a'/a, a'/(2*sqrt(a)), or
    sum_t f_{+e_t}(args)*a_t' for an abstract atom f, whose partial
    f_{+e_t} bumps the t-th derivative order.  The context must hold those
    partials; ``derivation_context`` builds one that does.  Polynomials
    follow the chain rule over generators, quotients the quotient rule.
    """

    def __init__(self, ctx: PolyContext, v: Symbol):
        self.ctx = ctx
        self.v = v
        self._gens: dict[int, RationalForm] = {}

    def generator(self, index: int) -> RationalForm:
        hit = self._gens.get(index)
        if hit is None:
            ctx = self.ctx
            if index < ctx.n_vars:
                hit = (ctx.one if ctx.var_names[index] == self.v.name
                       else ctx.zero)
            else:
                hit = self._atom(index)
            self._gens[index] = hit
        return hit

    def _atom(self, index: int) -> RationalForm:
        """sum_t (d atom/d a_t) * a_t' over the argument forms a_t of an atom
        generator with a_t' != 0, with no product where a_t' is 1."""
        ctx, one = self.ctx, self.ctx.ring.one
        atom, x = ctx.gen_expr(index), ctx.ring.gens[index]
        forms = []
        for t, a in enumerate(ctx.args(index)):
            da = self(a)
            if da.is_zero:
                continue
            if isinstance(atom, ex.Call):
                f = RationalForm(*{
                    "exp": (x, one), "ln": (a.den, a.num),
                    "sqrt": (one, x.mul_ground(2))}[atom.fn], ctx)
            else:
                f = to_rational_form(ex.FuncAtom(atom.func, atom.args, [
                    d + (s == t) for s, d in enumerate(atom.deriv)]), ctx)
            forms.append(f if da == ctx.one else f * da)
        return sum(forms[1:], forms[0]) if forms else ctx.zero

    def poly(self, p) -> RationalForm:
        """d/dv of a polynomial: sum over its generators x of
        (dp/dx) * dx/dv.  Polynomial generator derivatives accumulate in one
        polynomial (dp itself where dx/dv is 1); only those with a
        denominator take fraction arithmetic."""
        ctx = self.ctx
        ring = ctx.ring
        acc = ring.zero
        fracs = []
        for index in p.occurring():
            dx = self.generator(index)
            if dx.is_zero:
                continue
            dp = p.diff(index)
            if dx.den == ring.one:
                acc = acc + (dp if dx is ctx.one else dp * dx.num)
            else:
                fracs.append(RationalForm(dp, ring.one, ctx, reduced=True) * dx)
        return sum(fracs, RationalForm(acc, ring.one, ctx, reduced=True))

    def __call__(self, rf: RationalForm) -> RationalForm:
        dnum = self.poly(rf.num)
        ring = self.ctx.ring
        if rf.den == ring.one:
            return dnum
        # (N/D)' = (N' - (N/D) D') / D; no product with a zero D' or N'
        dden = self.poly(rf.den)
        top = dnum if dden.is_zero else dnum - rf * dden
        return top / RationalForm(rf.den, ring.one, self.ctx, reduced=True)


def det(rows) -> RationalForm:
    """The determinant of a square matrix of rational forms of one context,
    expanded by cofactors along the first row.  Zero entries and zero
    minors are skipped, so only the nonzero terms of the Leibniz sum are
    formed.  It never divides, so it takes no gcd."""

    def expand(i, cols):
        if len(cols) == 1:
            return rows[i][cols[0]]
        acc = rows[0][0].ctx.zero
        for pos, j in enumerate(cols):
            if not rows[i][j].is_zero:
                minor = expand(i + 1, cols[:pos] + cols[pos + 1:])
                if not minor.is_zero:
                    term = rows[i][j] * minor
                    acc = acc - term if pos % 2 else acc + term
        return acc

    return expand(0, tuple(range(len(rows))))


# -- back-conversion and parameter extraction --------------------------------

def poly_to_expr(p, ctx: PolyContext) -> ex.Expr:
    return ex.add(*(ex.mul(ex.Rat(Fraction(c)), *(
        ex.pow_(ctx.gen_expr(i), e) for i, e in enumerate(m) if e))
        for m, c in p.terms()))


def ratform_to_expr(rf: RationalForm) -> ex.Expr:
    num = poly_to_expr(rf.num, rf.ctx)
    if rf.den == rf.ctx.ring.one:
        return num
    return ex.div(num, poly_to_expr(rf.den, rf.ctx))


def coefficients_in(rf: RationalForm, param_names: list[str]):
    """Split num by exponents of the given parameter generators.

    Returns {exponent tuple: RationalForm}; requires a parameter-free
    denominator.
    """
    ctx = rf.ctx
    idx = []
    for name in param_names:
        if name not in ctx.gen_of_name:
            raise NormalizeError(f"parameter {name!r} not in context")
        idx.append(ctx.var_names.index(name))
    if not set(idx).isdisjoint(rf.den.occurring()):
        raise NormalizeError("denominator depends on formal parameters")
    return {exps: RationalForm(num, rf.den, ctx)
            for exps, num in sorted(rf.num.split(idx).items())}


def uses_transcendental(rf: RationalForm) -> bool:
    """Does the numerator involve a generator with exp/ln/sqrt anywhere in
    its signature?  That is an exp/ln/sqrt atom, or an abstract atom over
    one: f(ln(exp(u1))) and f(u1) are distinct generators although they
    are equal, so a nonzero form over them proves nothing."""
    gens = rf.ctx.transcendental_gens
    return bool(gens) and any(monom[i] for monom, _ in rf.num.terms()
                              for i in gens)
