"""Parser for the expression grammar.

Grammar (ASCII, whitespace insignificant): integers, rationals p/q,
identifiers, binary + - * / ^ (exponents are integer literals), unary -,
exp( ) / ln( ) / sqrt( ), abstract applications f(u2,u3), parentheses.
Identifiers with a derivative suffix (f_23, q'') resolve against declared
abstract functions.  The operator symbols d_x, d_y are structural and never
parse as expressions.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as ex
from .symbols import (
    RESERVED_NAMES,
    FunctionSymbol,
    InputError,
    Symbol,
    Workspace,
)


class ParseError(InputError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnknownSymbolError(ParseError):
    def __init__(self, name: str, offset: int, workspace: Workspace):
        known = ", ".join(workspace.registered_names()) or "<none>"
        super().__init__(
            f"unknown identifier {name!r}; registered symbols: {known}", offset
        )
        self.name = name


class Token:
    __slots__ = ("kind", "text", "offset", "primes")

    def __init__(self, kind: str, text: str, offset: int, primes: int = 0):
        self.kind = kind  # 'int' | 'ident' | 'op' | 'end'
        self.text, self.offset, self.primes = text, offset, primes


_OPS = set("+-*/^(),")


def tokenize(text: str) -> list[Token]:
    if not text.isascii():
        raise ParseError("only ASCII input is supported", 0)
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            primes = 0
            while j < n and text[j] == "'":
                primes += 1
                j += 1
            tokens.append(Token("ident", text[i:j - primes], i, primes))
            i = j
            continue
        if c in _OPS:
            tokens.append(Token("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_BINARY = {
    "+": ex.add,
    "-": lambda a, b: ex.add(a, ex.neg(b)),
    "*": ex.mul,
    "/": ex.div,
    "^": ex.pow_,
}

# bound on nested parentheses, calls and unary minus: deeper input is
# rejected before it can exhaust the interpreter's stack here or in the
# recursive passes over the expression tree
MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens: list[Token], workspace: Workspace, values):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.ws, self.values = workspace, values

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str):
        tok = self.advance()
        if tok.kind == "end" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.offset)

    def parse(self) -> ex.Expr:
        e = self.expression(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return e

    def nest(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} "
                             "levels", self.peek().offset)

    def expression(self, min_prec: int) -> ex.Expr:
        self.nest()
        lhs = self.atom()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in _PREC:
                break
            prec = _PREC[tok.text]
            if prec < min_prec:
                break
            self.advance()
            rhs = (self.exponent() if tok.text == "^"
                   else self.expression(prec + 1))
            try:
                lhs = _BINARY[tok.text](lhs, rhs)
            except ZeroDivisionError as e:
                raise ParseError(str(e), tok.offset) from None
        self.depth -= 1
        return lhs

    def exponent(self) -> int:
        tok = self.advance()
        if tok.kind == "op" and tok.text == "(":
            self.nest()
            inner = self.exponent()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.kind == "op" and tok.text == "-":
            follow = self.advance()
            if follow.kind != "int":
                raise ParseError("exponent must be an integer literal", follow.offset)
            return -int(follow.text)
        if tok.kind == "int":
            return int(tok.text)
        raise ParseError("exponent must be an integer literal", tok.offset)

    def atom(self) -> ex.Expr:
        tok = self.advance()
        if tok.kind == "int":
            return ex.Rat(Fraction(int(tok.text)))
        if tok.kind == "op" and tok.text == "-":
            # unary minus binds tighter than + and - but looser than * / ^
            return ex.neg(self.expression(_PREC["*"]))
        if tok.kind == "op" and tok.text == "(":
            inner = self.expression(0)
            self.expect(")")
            return inner
        if tok.kind == "ident":
            return self.identifier(tok)
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.offset)

    def arglist(self) -> list[ex.Expr]:
        self.expect("(")
        args = [self.expression(0)]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.expression(0))
        self.expect(")")
        return args

    def identifier(self, tok: Token) -> ex.Expr:
        name = tok.text
        if name in RESERVED_NAMES:
            raise ParseError(
                f"{name!r} is an operator symbol, not an expression", tok.offset
            )
        if name in ex.UNARY_FUNCTIONS:
            if tok.primes:
                raise ParseError(f"{name!r} takes no derivative suffix", tok.offset)
            args = self.arglist()
            if len(args) != 1:
                raise ParseError(f"{name} expects one argument", tok.offset)
            return ex.call(name, args[0])

        target = self.ws.lookup(name)
        deriv_digits = ""
        if target is None and "_" in name:
            head, _, tail = name.rpartition("_")
            cand = self.ws.lookup(head)
            if isinstance(cand, FunctionSymbol) and tail.isdigit():
                target, deriv_digits = cand, tail

        if isinstance(target, Symbol):
            if tok.primes:
                raise ParseError(f"{name!r} is not a function", tok.offset)
            return (ex.Rat(self.values[name]) if name in self.values
                    else ex.Var(target))

        if isinstance(target, FunctionSymbol):
            deriv = [0] * len(target.args)
            if tok.primes:
                if len(target.args) != 1:
                    raise ParseError(
                        f"prime notation needs a single-argument function", tok.offset
                    )
                deriv[0] = tok.primes
            for d in deriv_digits:
                pos = next((t for t, a in enumerate(target.args)
                            if ex.arg_digit(a, t) == d), None)
                if pos is None:
                    raise ParseError(
                        f"derivative index {d} does not match an argument of "
                        f"{target.name}", tok.offset
                    )
                deriv[pos] += 1
            args = None
            if self.peek().kind == "op" and self.peek().text == "(":
                args = self.arglist()
                if len(args) != len(target.args):
                    raise ParseError(
                        f"{target.name} expects {len(target.args)} arguments",
                        tok.offset,
                    )
            return ex.func_atom(target, args, deriv)

        raise UnknownSymbolError(name, tok.offset, self.ws)


def parse(text: str, workspace: Workspace, values=None) -> ex.Expr:
    """Parse ``text`` over the workspace's symbols; parse-print-parse is a
    fixed point.  ``values`` maps symbol names to rationals, which their
    occurrences parse as."""
    if not isinstance(text, str):
        raise ParseError("expected an expression string, got "
                         f"{type(text).__name__}", 0)
    return _Parser(tokenize(text), workspace, values or {}).parse()
