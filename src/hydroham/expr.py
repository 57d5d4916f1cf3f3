"""Exact symbolic expression trees.

Nodes: rational constants, symbol references, n-ary sums and products,
integer powers, quotients, the opaque unary functions exp/ln/sqrt, and
abstract-function derivative atoms.  Construction applies only light,
deterministic canonicalisation (flattening, collection of numeric
coefficients, reduced rationals); deciding equality of rational functions
is the job of ratform.normalize.
"""

from __future__ import annotations

from fractions import Fraction

from .symbols import FunctionSymbol, Symbol

UNARY_FUNCTIONS = ("exp", "ln", "sqrt")


class ExprError(Exception):
    pass


class Expr:
    __slots__ = ("_hash",)

    def __sub__(self, other):
        return add(self, neg(as_expr(other)))

    def __str__(self):
        return print_expr(self)

    __repr__ = __str__

    def key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Expr) and self.key() == other.key()

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self.key())
            object.__setattr__(self, "_hash", h)
        return h


class Rat(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", Fraction(value))

    def key(self):
        return ("rat", self.value)


class Var(Expr):
    __slots__ = ("symbol",)

    def __init__(self, symbol: Symbol):
        object.__setattr__(self, "symbol", symbol)

    def key(self):
        return ("var", self.symbol.name)


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))

    def key(self):
        return ("sum", tuple(t.key() for t in self.terms))


class Prod(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))

    def key(self):
        return ("prod", tuple(f.key() for f in self.factors))


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def key(self):
        return ("pow", self.base.key(), self.exponent)


class Quot(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def key(self):
        return ("quot", self.num.key(), self.den.key())


class Call(Expr):
    """Application of one of the opaque unary functions exp, ln, sqrt."""

    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr):
        if fn not in UNARY_FUNCTIONS:
            raise ExprError(f"unknown function {fn!r}")
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)

    def key(self):
        return ("call", self.fn, self.arg.key())


class FuncAtom(Expr):
    """Abstract function application carrying a partial-derivative multi-index.

    ``deriv[t]`` is the derivative order with respect to the t-th declared
    argument; the multi-index length always equals the argument count.
    """

    __slots__ = ("func", "args", "deriv")

    def __init__(self, func: FunctionSymbol, args=None, deriv=None):
        if args is None:
            args = tuple(Var(a) for a in func.args)
        args = tuple(args)
        if deriv is None:
            deriv = (0,) * len(args)
        deriv = tuple(deriv)
        if len(args) != len(func.args) or len(deriv) != len(args):
            raise ExprError(
                f"{func.name} expects {len(func.args)} arguments, got {len(args)}"
            )
        if any(d < 0 for d in deriv):
            raise ExprError("negative derivative order")
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "deriv", deriv)

    def key(self):
        return (
            "func",
            self.func.name,
            self.deriv,
            tuple(a.key() for a in self.args),
        )


ZERO = Rat(0)
ONE = Rat(1)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Rat(x)
    raise ExprError(f"cannot coerce {x!r} to Expr")


# -- smart constructors ------------------------------------------------------

def add(*terms) -> Expr:
    flat, const = _fold(terms, Sum, Fraction(0), lambda x, y: x + y)
    if const != 0:
        flat.append(Rat(const))
    return _node(Sum, flat, ZERO)


def mul(*factors) -> Expr:
    flat, coeff = _fold(factors, Prod, Fraction(1), lambda x, y: x * y)
    if coeff == 0:
        return ZERO
    if coeff != 1:
        flat.insert(0, Rat(coeff))
    return _node(Prod, flat, ONE)


def _fold(items, node, acc, op) -> tuple:
    """The operands of the items, those of a ``node`` spliced in, apart
    from the rational ones, which op folds into acc."""
    flat = []
    for item in map(as_expr, items):
        for x in children(item) if isinstance(item, node) else (item,):
            if isinstance(x, Rat):
                acc = op(acc, x.value)
            else:
                flat.append(x)
    return flat, acc


def _node(cls, flat: list, empty: Expr) -> Expr:
    return cls(flat) if len(flat) > 1 else flat[0] if flat else empty


def neg(e) -> Expr:
    return mul(Rat(-1), as_expr(e))


def pow_(base, exponent: int) -> Expr:
    base = as_expr(base)
    if not isinstance(exponent, int):
        raise ExprError("exponent must be an integer")
    if isinstance(base, Pow):
        exponent *= base.exponent
        base = base.base
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Rat):
        if base.value == 0 and exponent < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return Rat(base.value ** exponent)
    return Pow(base, exponent)


def div(num, den) -> Expr:
    num, den = as_expr(num), as_expr(den)
    if isinstance(den, Rat):
        if den.value == 0:
            raise ZeroDivisionError("division by zero")
        if den.value == 1:
            return num
        return mul(Rat(Fraction(1, 1) / den.value), num)
    if num == ZERO:
        return ZERO
    return Quot(num, den)


def call(fn: str, arg) -> Expr:
    return Call(fn, as_expr(arg))


def func_atom(func: FunctionSymbol, args=None, deriv=None) -> Expr:
    return FuncAtom(func, args, deriv)


# -- traversal ---------------------------------------------------------------

def children(e: Expr) -> tuple:
    if isinstance(e, (Rat, Var)):
        return ()
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Prod):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Quot):
        return (e.num, e.den)
    if isinstance(e, Call):
        return (e.arg,)
    if isinstance(e, FuncAtom):
        return e.args
    raise ExprError(f"unknown node {type(e)}")


def _nodes(e: Expr):
    """The nodes of e, each parent before its children."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node))


def free_symbols(e: Expr) -> set[Symbol]:
    return {node.symbol for node in _nodes(e) if isinstance(node, Var)}


def atoms(e: Expr) -> list[Expr]:
    """All opaque atoms (Call and FuncAtom nodes), outermost first, one
    per key."""
    return list({node.key(): node for node in _nodes(e)
                 if isinstance(node, (Call, FuncAtom))}.values())


# -- printing ----------------------------------------------------------------

_PREC_SUM = 1
_PREC_PROD = 2
_PREC_POW = 3
_PREC_ATOM = 4


def arg_digit(sym: Symbol, position: int) -> str:
    """The digit naming a function's argument in a derivative suffix (f_12):
    the digit tail of its name (u2 -> "2"), else its 1-based position."""
    tail = sym.name.lstrip(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    )
    if tail.isdigit():
        return tail
    return str(position + 1)


def _atom_name(e: FuncAtom) -> str:
    name = e.func.name
    if sum(e.deriv) == 0:
        return name
    if len(e.args) == 1:
        return name + "'" * e.deriv[0]
    digits = "".join(
        arg_digit(e.func.args[t], t) * e.deriv[t] for t in range(len(e.deriv))
    )
    return f"{name}_{digits}"


def _default_args(e: FuncAtom) -> bool:
    return all(
        isinstance(a, Var) and a.symbol == d for a, d in zip(e.args, e.func.args)
    )


def print_expr(e: Expr) -> str:
    return _render(e, 0)


def _render(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Rat):
        s = str(e.value)
        prec = _PREC_ATOM if e.value >= 0 and e.value.denominator == 1 else _PREC_PROD
        if e.value < 0:
            prec = 0
        return _wrap(s, prec, parent_prec)
    if isinstance(e, Var):
        return e.symbol.name
    if isinstance(e, Sum):
        parts = []
        for i, t in enumerate(e.terms):
            neg_part = _negated(t)
            if i == 0:
                # sums are flattened, so the head renders unwrapped
                parts.append(_render(t, 0))
            elif neg_part is not None:
                parts.append(" - " + _render(neg_part, _PREC_PROD))
            else:
                parts.append(" + " + _render(t, _PREC_PROD))
        return _wrap("".join(parts), _PREC_SUM, parent_prec)
    if isinstance(e, Prod):
        factors = e.factors
        prefix = ""
        if isinstance(factors[0], Rat) and factors[0].value < 0 and len(factors) > 1:
            prefix = "-"
            head = Rat(-factors[0].value)
            factors = factors[1:] if head.value == 1 else (head,) + factors[1:]
        parts = []
        for i, f in enumerate(factors):
            min_prec = _PREC_PROD if i == 0 else _PREC_PROD + 1
            parts.append(_render(f, min_prec))
        body = prefix + "*".join(parts) if len(parts) > 1 else prefix + parts[0]
        return _wrap(body, _PREC_SUM if prefix else _PREC_PROD, parent_prec)
    if isinstance(e, Quot):
        num = _render(e.num, _PREC_PROD)
        den = _render(e.den, _PREC_POW)
        return _wrap(f"{num}/{den}", _PREC_PROD, parent_prec)
    if isinstance(e, Pow):
        base = _render(e.base, _PREC_ATOM)
        exp = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        return _wrap(f"{base}^{exp}", _PREC_POW, parent_prec)
    if isinstance(e, Call):
        return f"{e.fn}({_render(e.arg, 0)})"
    if isinstance(e, FuncAtom):
        name = _atom_name(e)
        if _default_args(e):
            return name
        return f"{name}({', '.join(_render(a, 0) for a in e.args)})"
    raise ExprError(f"cannot print {type(e)}")


def _negated(t: Expr):
    """If t renders naturally with a leading minus, return its positive part."""
    if isinstance(t, Rat) and t.value < 0:
        return Rat(-t.value)
    if isinstance(t, Prod) and isinstance(t.factors[0], Rat) and t.factors[0].value < 0:
        return mul(Rat(-t.factors[0].value), *t.factors[1:])
    return None


def _wrap(s: str, prec: int, parent_prec: int) -> str:
    if prec < parent_prec:
        return f"({s})"
    return s
