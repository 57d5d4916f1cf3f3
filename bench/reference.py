"""Independent reference evaluator for the benchmark's correctness checks.

Coefficient strings in the hydroham expression grammar are read by a parser
of this file's own and turned into sympy expressions.  Abstract functions
become seeded random polynomials (or plain symbols, for comparisons that
keep them formal), derivatives are taken with ``sympy.diff`` and residuals
are evaluated exactly at seeded rational points.  Nothing here imports
hydroham, so a fault in its normal forms, calculus or zero test cannot hide
itself from these checks.

An operator is given as a dict of strings: d, n, variables, constants,
functions {name: [arg names]}, g[alpha][i][j] and b[alpha][i][j][k].

The benchmark runs this file as a separate process (``--serve``) and calls
it through ``Client``, so its sympy work stays out of the measured
process's time, heap and peak memory.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import subprocess
import sys

import sympy as sp

ALPHA = {"x": 0, "y": 1, "z": 2, "w": 3}

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)('*)|(\S))")


class ReferenceParseError(ValueError):
    """A coefficient string the reference parser cannot read."""


class FunctionModel:
    """How abstract functions are evaluated.

    ``args`` maps a function name to its declared argument names.  With an
    ``rng``, each function is a random dense polynomial of total degree
    ``degree`` in its arguments; without one, each derivative atom at the
    default arguments is a free symbol named like ``k__2`` (for k'').
    """

    def __init__(self, args: dict, rng: random.Random | None = None,
                 degree: int = 4):
        self.args = {name: tuple(a) for name, a in args.items()}
        self.rng = rng
        self.degree = degree
        self._polys: dict = {}

    def _poly(self, name):
        if name not in self._polys:
            xs = sp.symbols(f"_x0:{len(self.args[name])}")
            terms = []
            for exps in itertools.product(range(self.degree + 1),
                                          repeat=len(xs)):
                if sum(exps) > self.degree:
                    continue
                c = sp.Rational(self.rng.choice([-3, -2, -1, 1, 2, 3]),
                                self.rng.choice([1, 2, 3]))
                terms.append(c * sp.Mul(*(x ** e for x, e in zip(xs, exps))))
            self._polys[name] = (xs, sp.Add(*terms))
        return self._polys[name]

    def apply(self, name, deriv, call_args, default_args):
        if self.rng is None:
            if call_args is not None:
                raise ReferenceParseError(
                    f"{name} applied to explicit arguments")
            suffix = "".join(str(d) for d in deriv)
            return sp.Symbol(f"{name}__{suffix}")
        xs, poly = self._poly(name)
        for x, d in zip(xs, deriv):
            if d:
                poly = sp.diff(poly, x, d)
        values = call_args if call_args is not None else default_args
        return poly.xreplace(dict(zip(xs, values)))


class _Parser:
    def __init__(self, text: str, symbols: dict, functions: FunctionModel):
        self.tokens = []
        for m in _TOKEN.finditer(text):
            num, ident, primes, op = m.groups()
            if num is not None:
                self.tokens.append(("int", num, 0))
            elif ident is not None:
                self.tokens.append(("ident", ident, len(primes)))
            elif op is not None:
                self.tokens.append(("op", op, 0))
        self.tokens.append(("end", "", 0))
        self.pos = 0
        self.symbols = symbols
        self.functions = functions

    def peek(self):
        return self.tokens[self.pos]

    def take(self, text=None):
        tok = self.tokens[self.pos]
        if text is not None and tok[1] != text:
            raise ReferenceParseError(f"expected {text!r}, got {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self):
        e = self.sum()
        if self.peek()[0] != "end":
            raise ReferenceParseError(f"trailing input {self.peek()[1]!r}")
        return e

    def sum(self):
        e = self.product()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            rhs = self.product()
            e = e + rhs if op == "+" else e - rhs
        return e

    def product(self):
        e = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            rhs = self.unary()
            e = e * rhs if op == "*" else e / rhs
        return e

    def unary(self):
        if self.peek()[1] == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.primary()
        while self.peek()[1] == "^":
            self.take()
            base = base ** self.exponent()
        return base

    def exponent(self):
        if self.peek()[1] == "(":
            self.take()
            k = self.exponent()
            self.take(")")
            return k
        sign = 1
        if self.peek()[1] == "-":
            self.take()
            sign = -1
        kind, text, _ = self.take()
        if kind != "int":
            raise ReferenceParseError("exponent must be an integer")
        return sign * int(text)

    def arglist(self):
        self.take("(")
        args = [self.sum()]
        while self.peek()[1] == ",":
            self.take()
            args.append(self.sum())
        self.take(")")
        return args

    def primary(self):
        kind, text, primes = self.take()
        if kind == "int":
            return sp.Integer(int(text))
        if kind == "op" and text == "(":
            e = self.sum()
            self.take(")")
            return e
        if kind != "ident":
            raise ReferenceParseError(f"unexpected token {text!r}")
        if text in ("exp", "ln", "sqrt"):
            (arg,) = self.arglist()
            return {"exp": sp.exp, "ln": sp.log, "sqrt": sp.sqrt}[text](arg)
        if text in self.symbols and not primes:
            return self.symbols[text]
        return self.function_atom(text, primes)

    def function_atom(self, text, primes):
        fns = self.functions.args
        name, digits = text, ""
        if name not in fns and "_" in name:
            name, _, digits = text.rpartition("_")
        if name not in fns or (digits and not digits.isdigit()):
            raise ReferenceParseError(f"unknown symbol {text!r}")
        arg_names = fns[name]
        deriv = [0] * len(arg_names)
        if primes:
            deriv[0] = primes
        for digit in digits:
            deriv[_digit_position(arg_names, digit)] += 1
        if self.peek()[1] == "(":
            call_args, default_args = self.arglist(), None
        else:
            call_args = None
            default_args = [self.symbols[a] for a in arg_names]
        return self.functions.apply(name, tuple(deriv), call_args,
                                    default_args)


def _digit_position(arg_names, digit):
    for t, a in enumerate(arg_names):
        tail = a.lstrip("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
        if tail == digit or (not tail.isdigit() and str(t + 1) == digit):
            return t
    raise ReferenceParseError(f"derivative digit {digit} matches no argument")


def to_sympy(text: str, symbols: dict, functions: FunctionModel):
    """The sympy expression of one coefficient string."""
    return _Parser(text, symbols, functions).parse()


def random_point(names, rng: random.Random) -> dict:
    return {
        n: sp.Rational(rng.choice([-1, 1]) * rng.randint(1, 9),
                       rng.randint(1, 5))
        for n in names
    }


def value_at(expr, point: dict):
    """Exact value of expr at point, or None where it is singular."""
    v = sp.sympify(expr).xreplace(point)
    if v.has(sp.zoo, sp.nan, sp.oo, -sp.oo) or not v.is_number:
        return None
    return v


class ReferenceOperator:
    """An operator read from coefficient strings, with the seven relations
    a1..a7 written out from their definitions and differentiated by
    sympy."""

    def __init__(self, doc: dict, functions: FunctionModel):
        self.d = doc["d"]
        self.n = doc["n"]
        symbols = {name: sp.Symbol(name) for name in doc["variables"]}
        symbols.update({c: sp.Symbol(c) for c in doc.get("constants", ())})
        self.symbols = symbols
        self.vars = tuple(symbols[name] for name in doc["variables"][: self.n])
        self.g = [[[to_sympy(doc["g"][a][i][j], symbols, functions)
                    for j in range(self.n)] for i in range(self.n)]
                  for a in range(self.d)]
        self.b = [[[[to_sympy(doc["b"][a][i][j][k], symbols, functions)
                     for k in range(self.n)] for j in range(self.n)]
                   for i in range(self.n)] for a in range(self.d)]
        self._diff: dict = {}

    def D(self, e, k):
        key = (e, k)
        if key not in self._diff:
            self._diff[key] = sp.diff(e, self.vars[k])
        return self._diff[key]

    def G(self, a, i, j):
        return self.g[a][i][j]

    def B(self, a, i, j, k):
        return self.b[a][i][j][k]

    def DB(self, a, i, j, k, l):
        """d b^{ij a}_k / du^l."""
        return self.D(self.b[a][i][j][k], l)

    def bracket(self, al, be, i, j, r, q):
        G, B, DB = self.G, self.B, self.DB
        return sp.Add(*(
            G(al, s, i) * (DB(be, j, r, s, q) - DB(be, j, r, q, s))
            + B(al, i, j, s) * B(be, s, r, q)
            - B(al, i, r, s) * B(be, s, j, q)
            for s in range(self.n)
        ))

    def cyclic7(self, al, be, i, j, r, q, k):
        B, DB = self.B, self.DB
        return sp.Add(*(
            B(be, s, ii, q) * (DB(al, jj, rr, k, s) - DB(al, jj, rr, s, k))
            for ii, jj, rr in ((i, j, r), (j, r, i), (r, i, j))
            for s in range(self.n)
        ))

    def residual(self, relation: str, indices):
        """The symbolic residual of one relation at record indices, e.g.
        ("a2", ("x", 1, 2, 2)); labels name alpha/beta, integers are
        1-based component indices."""
        labels = [ALPHA[x] for x in indices if isinstance(x, str)]
        ints = [x - 1 for x in indices if not isinstance(x, str)]
        G, B, DB, n = self.G, self.B, self.DB, self.n
        if relation == "a1":
            (a,), (i, j) = labels, ints
            return G(a, i, j) - G(a, j, i)
        if relation == "a2":
            (a,), (i, j, k) = labels, ints
            return self.D(G(a, i, j), k) - B(a, i, j, k) - B(a, j, i, k)
        a, b = labels
        if relation == "a3":
            i, j, r = ints
            return sp.Add(*(
                G(al, s, i) * B(be, j, r, s) - G(be, s, j) * B(al, i, r, s)
                for al, be in ((a, b), (b, a)) for s in range(n)
            ))
        if relation == "a4":
            i, j, r = ints
            return sp.Add(*(
                G(a, s, ii) * B(b, jj, rr, s) - G(b, s, jj) * B(a, ii, rr, s)
                for ii, jj, rr in ((i, j, r), (j, r, i), (r, i, j))
                for s in range(n)
            ))
        if relation == "a5":
            i, j, r, q = ints
            return self.bracket(a, b, i, j, r, q) + \
                self.bracket(b, a, i, j, r, q)
        if relation == "a6":
            i, j, r, q = ints
            return sp.Add(*(
                G(b, s, i) * DB(a, j, r, q, s)
                - B(b, i, j, s) * B(a, s, r, q)
                - B(b, i, r, s) * B(a, j, s, q)
                - G(a, s, j) * DB(b, i, r, q, s)
                + B(a, j, i, s) * B(b, s, r, q)
                + B(b, i, s, q) * B(a, j, r, s)
                for s in range(n)
            ))
        if relation == "a7":
            i, j, r, k, q = ints
            return (self.D(self.bracket(a, b, i, j, r, q), k)
                    + self.cyclic7(a, b, i, j, r, q, k)
                    + self.D(self.bracket(b, a, i, j, r, k), q)
                    + self.cyclic7(b, a, i, j, r, k, q))
        raise ReferenceParseError(f"unknown relation {relation!r}")

    def point(self, rng: random.Random) -> dict:
        return {self.symbols[k]: v
                for k, v in random_point(self.symbols, rng).items()}


def relation_nonzero(doc: dict, relation: str, indices, seed: int,
                     tries: int = 4) -> bool:
    """True when the named residual is nonzero at some seeded rational point
    for some seeded choice of the abstract functions.  A residual that is a
    nonzero rational function is nonzero at almost every such point, so a
    few tries settle it."""
    for t in range(tries):
        rng = random.Random(f"{seed}/{relation}/{indices}/{t}")
        ref = ReferenceOperator(doc, FunctionModel(doc["functions"], rng))
        v = value_at(ref.residual(relation, indices), ref.point(rng))
        if v is not None and v != 0:
            return True
    return False


def pencil_rank_and_det(doc: dict, seed: int, tries: int = 3):
    """(max rank, all determinants zero) of sum_a lam_a g^a over a few seeded
    points, abstract functions replaced by seeded polynomials."""
    best, dets_zero = 0, True
    for t in range(tries):
        rng = random.Random(f"{seed}/pencil/{t}")
        ref = ReferenceOperator(doc, FunctionModel(doc["functions"], rng))
        point = ref.point(rng)
        lams = [sp.Rational(rng.randint(1, 9), rng.randint(1, 4))
                for _ in range(ref.d)]
        m = sp.Matrix(ref.n, ref.n, lambda i, j: sp.Add(*(
            lams[a] * ref.g[a][i][j].xreplace(point) for a in range(ref.d))))
        if m.has(sp.zoo, sp.nan):
            continue
        best = max(best, m.rank())
        dets_zero = dets_zero and m.det() == 0
    return best, dets_zero


def pushed_metric_matches(src: dict, pushed: dict, forward: dict,
                          inverse: dict, seed: int) -> bool:
    """At a seeded point v*, ghat^{ij a}(v*) = (K g K^T)^{ij a}(phi(v*)) with
    K = d(phi^{-1})/du, all computed here from the strings."""
    rng = random.Random(f"{seed}/pushforward")
    functions = FunctionModel(src["functions"], rng)
    n = src["n"]
    u_names = src["variables"][:n]
    v_names = pushed["variables"][:n]
    consts = {c: sp.Symbol(c) for c in src.get("constants", ())}
    u_syms = {name: sp.Symbol(name) for name in src["variables"]}
    v_syms = {name: sp.Symbol(name) for name in pushed["variables"]}
    g_src = ReferenceOperator(src, functions)
    g_dst = ReferenceOperator(pushed, functions)
    phi = [to_sympy(forward[u], {**v_syms, **consts}, functions)
           for u in u_names]
    inv = [to_sympy(inverse[v], {**u_syms, **consts}, functions)
           for v in v_names]
    for _ in range(4):
        vpt = {v_syms[name]: val for name, val in
               random_point(v_names, rng).items()}
        cpt = {consts[c]: val for c, val in random_point(consts, rng).items()}
        vpt.update(cpt)
        upt = {u_syms[u]: value_at(phi[i], vpt) for i, u in enumerate(u_names)}
        if any(x is None for x in upt.values()):
            continue
        upt.update(cpt)
        K = [[value_at(sp.diff(inv[i], u_syms[u]), upt) for u in u_names]
             for i in range(n)]
        if any(x is None for row in K for x in row):
            continue
        ok = True
        for a in range(src["d"]):
            g = [[value_at(g_src.g[a][p][q], upt) for q in range(n)]
                 for p in range(n)]
            gh = [[value_at(g_dst.g[a][i][j], vpt) for j in range(n)]
                  for i in range(n)]
            if any(x is None for row in g + gh for x in row):
                ok = None
                break
            for i in range(n):
                for j in range(n):
                    want = sum(K[i][p] * K[j][q] * g[p][q]
                               for p in range(n) for q in range(n))
                    ok = ok and gh[i][j] - want == 0
        if ok is not None:
            return bool(ok)
    return False


def _probe_indices(d, n, seed):
    """One seeded index tuple per relation, for spot checks."""
    rng = random.Random(f"{seed}/probe/{d}/{n}")
    labels = "xy"[:d]
    comp = lambda k: tuple(rng.randint(1, n) for _ in range(k))
    lab = lambda k: tuple(rng.choice(labels) for _ in range(k))
    i, j = rng.sample(range(1, n + 1), 2)
    return [("a1", lab(1) + (i, j)), ("a2", lab(1) + comp(3)),
            ("a3", lab(2) + comp(3)), ("a4", lab(2) + comp(3)),
            ("a5", lab(2) + comp(4)), ("a6", lab(2) + comp(4)),
            ("a7", lab(2) + comp(5))]


def catalog_facts(doc: dict, seed: int) -> dict:
    """Pencil rank and degeneracy at seeded points, and the seeded spot
    residuals (one per relation) that are nonzero, which for a Hamiltonian
    operator must be none."""
    rank, dets_zero = pencil_rank_and_det(doc, seed)
    nonzero = [p for p in _probe_indices(doc["d"], doc["n"], seed)
               if relation_nonzero(doc, *p, seed, tries=1)]
    return {"rank": rank, "dets_zero": dets_zero, "nonzero": nonzero}


_GAS = {name: sp.Symbol(name) for name in ("u1", "u2", "u3")}
_GAS_FUNCTIONS = FunctionModel({"k": ["u1"]})


def _gas(text):
    return to_sympy(text, _GAS, _GAS_FUNCTIONS)


def gas_system_mismatch(notes: dict):
    """The A, B matrices of the gas system with h = rho (u^2 + v^2)/2 +
    k(rho), entrywise against the CLI's "A[i]"/"B[i]" notes."""
    want = {"A": [["u2", "u1", "0"], ["k''", "u2", "0"], ["0", "0", "u2"]],
            "B": [["u3", "0", "u1"], ["0", "u3", "0"], ["k''", "0", "u3"]]}
    for label, rows in want.items():
        for i, row in enumerate(rows):
            key = f"{label}[{i + 1}]"
            got = [_gas(t) for t in notes.get(key, "").strip("[]").split(",")]
            if len(got) != len(row) or any(
                    sp.expand(g - _gas(w)) != 0 for g, w in zip(got, row)):
                return f"{key} = {notes.get(key)}"
    return None


def gas_dispersion_mismatch(notes: dict):
    """sum of the "lam^p mu^q" notes against w (w^2 - c^2 (lam^2 + mu^2))
    with w = 1 + lam u2 + mu u3 and c^2 = u1 k''."""
    lam, mu = sp.symbols("lam mu")
    got = 0
    for key, value in notes.items():
        pl, pm = key.split()
        got += (_gas(value) * lam ** int(pl.split("^")[1])
                * mu ** int(pm.split("^")[1]))
    w = 1 + lam * _GAS["u2"] + mu * _GAS["u3"]
    c2 = _GAS["u1"] * _gas("k''")
    if sp.expand(got - w * (w ** 2 - c2 * (lam ** 2 + mu ** 2))) != 0:
        return "dispersion is not w (w^2 - c^2 (lam^2 + mu^2))"
    return None


def equals_polynomial(text: str, want: str, variables) -> bool:
    """Do two polynomial strings in the given variables agree?"""
    syms = {v: sp.Symbol(v) for v in variables}
    none = FunctionModel({})
    return sp.expand(to_sympy(text, syms, none)
                     - to_sympy(want, syms, none)) == 0


SERVED = {f.__name__: f for f in (
    relation_nonzero, catalog_facts, pushed_metric_matches,
    gas_system_mismatch, gas_dispersion_mismatch, equals_polynomial)}


def serve(stdin=sys.stdin, stdout=sys.stdout):
    """Answers one JSON request per line: {"fn": name, "args": [...]}."""
    for line in stdin:
        req = json.loads(line)
        try:
            reply = {"ok": SERVED[req["fn"]](*req["args"])}
        except Exception as e:  # reported to the caller, which fails
            reply = {"error": f"{type(e).__name__}: {e}"}
        stdout.write(json.dumps(reply) + "\n")
        stdout.flush()


class Client:
    """The reference evaluator in a child process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def call(self, fn: str, *args):
        self.proc.stdin.write(json.dumps({"fn": fn, "args": args}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if "error" in reply:
            raise RuntimeError(f"reference {fn}: {reply['error']}")
        return reply["ok"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    serve()
