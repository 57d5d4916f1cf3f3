"""First-order operators of hydrodynamic type and the Mokhov relations.

An operator is the coefficient bundle (d, n, g^{ij alpha}, b^{ij alpha}_k)
of P^{ij} = sum_alpha g^{ij alpha} d/dx^alpha + b^{ij alpha}_k u^k_{x^alpha}.
The seven relations a1..a7 are necessary and sufficient for skew-symmetry
plus the Jacobi identity; they are checked exactly on rational normal
forms, with cyclic sums written out.  The checker yields the nonzero
residuals only; ``residual_keys`` lists every free index, and a report
builds the records of the zero residuals only when they are read.
Derivatives are taken in the polynomial ring, when a relation first needs
them.
"""

from __future__ import annotations

import itertools
from functools import cached_property, partial

from . import expr as ex
from .ratform import (
    build_context,
    coefficients_in,
    derivation_context,
    det,
    ratform_to_expr,
    to_rational_form,
)
from .symbols import InputError, Symbol, Workspace
from .zerotest import (
    DEFAULT_POLICY,
    INCONCLUSIVE,
    PROBABLY_NONZERO,
    PROVEN_NONZERO,
    PROVEN_ZERO,
    InconclusiveError,
    Verdict,
    ZeroTestPolicy,
    overall_result,
    verdict_for_ratform,
)

ALPHA_LABELS = ("x", "y", "z", "w")


class OperatorError(InputError):
    pass


class HydroOperator:
    """Dense coefficient bundle; entries are Exprs over the workspace."""

    def __init__(self, ws: Workspace, d: int, n: int, g: list, b: list):
        if d < 1 or n < 1:
            raise OperatorError("dimension and component count must be >= 1")
        if len(ws.variables) < n:
            raise OperatorError("workspace lacks the operator variables")
        if len(g) != d or len(b) != d:
            raise OperatorError("metric/coefficient arrays must have d slices")
        # g[alpha][i][j] and b[alpha][i][j][k] are Exprs
        self.ws, self.d, self.n, self.g, self.b = ws, d, n, g, b
        allowed = set(ws.variables) | set(ws.constants)
        for e in self.entries():
            if isinstance(e, ex.Rat):   # most entries are 0: no symbols
                continue
            bad = ex.free_symbols(e) - allowed
            if bad:
                raise OperatorError(
                    f"entry {e} uses unregistered symbols {sorted(s.name for s in bad)}"
                )

    @property
    def variables(self) -> list[Symbol]:
        return self.ws.variables[: self.n]

    def entries(self):
        return _entries(self.g, self.b)

    @cached_property
    def forms(self) -> "OperatorForms":
        """g and b as rational forms of one derivation context, built when
        first needed and then shared by every checker of this operator."""
        return OperatorForms.of(self)

    @cached_property
    def pencil(self) -> "MetricPencil":
        """The metric pencil, built when first needed and then shared by
        the pencil analyses (the entries are not changed after
        construction)."""
        return MetricPencil.of(self)


def _entries(g, b):
    """The entries of the tables g and b: for each alpha, i and j, g^{ij}
    and then b^{ij}_k for each k."""
    for g_a, b_a in zip(g, b):
        for g_row, b_row in zip(g_a, b_a):
            for x, b_k in zip(g_row, b_row):
                yield x
                yield from b_k


def zero_operator(ws: Workspace, d: int, n: int) -> HydroOperator:
    g = [[[ex.ZERO] * n for _ in range(n)] for _ in range(d)]
    b = [[[[ex.ZERO] * n for _ in range(n)] for _ in range(n)]
         for _ in range(d)]
    return HydroOperator(ws, d, n, g, b)


def operator_from_entries(ws: Workspace, d: int, n: int, g_entries=None,
                          b_entries=None) -> HydroOperator:
    """Build a dense operator from sparse {(alpha,i,j): Expr} and
    {(alpha,i,j,k): Expr} maps with 1-based indices."""
    g = [[[ex.ZERO] * n for _ in range(n)] for _ in range(d)]
    b = [[[[ex.ZERO] * n for _ in range(n)] for _ in range(n)]
         for _ in range(d)]
    for (a, i, j), e in (g_entries or {}).items():
        g[a][i - 1][j - 1] = ex.as_expr(e)
    for (a, i, j, k), e in (b_entries or {}).items():
        b[a][i - 1][j - 1][k - 1] = ex.as_expr(e)
    return HydroOperator(ws, d, n, g, b)


# -- condition reports ---------------------------------------------------------

class ResidualRecord:
    __slots__ = ("relation", "indices", "residual", "verdict")

    def __init__(self, relation: str, indices: tuple, residual: ex.Expr,
                 verdict: Verdict):
        self.relation, self.indices = relation, indices
        self.residual, self.verdict = residual, verdict

    def __eq__(self, other):
        if other.__class__ is not ResidualRecord:
            return NotImplemented
        return (self.relation, self.indices, self.residual, self.verdict) == (
            other.relation, other.indices, other.residual, other.verdict)


class ConditionReport:
    """The verdicts of a set of residuals.

    ``keys()`` lists (relation, indices) of every residual checked, in
    order.  ``kept`` maps keys, in the same order, to the records built
    when the report was made: one per nonzero residual form (or one per
    lambda power of a pencil residual), built by ``_record``.  Every other
    residual is zero, so ProvenZero; its record, whose indices end in
    ``zero_suffix``, is built only when ``records`` is read."""

    def __init__(self, keys, kept: dict, zero_suffix: tuple = ()):
        self.keys, self.kept, self.zero_suffix = keys, kept, zero_suffix

    @property
    def nonzero(self) -> list[ResidualRecord]:
        """The kept records, in order."""
        return [r for recs in self.kept.values() for r in recs]

    @cached_property
    def count(self) -> int:
        """The number of residuals checked."""
        return sum(1 for _ in self.keys())

    @cached_property
    def records(self) -> list[ResidualRecord]:
        """Every record in key order: the kept ones, and one ProvenZero
        record for each other residual."""
        kept, suffix = self.kept, self.zero_suffix
        out = []
        for key in self.keys():
            recs = kept.get(key)
            if recs is None:
                out.append(ResidualRecord(key[0], key[1] + suffix, ex.ZERO,
                                          _PROVEN_ZERO))
            else:
                out += recs
        return out

    @property
    def overall(self) -> str:
        return overall_result(r.verdict.kind for r in self.nonzero)

    def failures(self) -> list[ResidualRecord]:
        return [
            r for r in self.nonzero
            if r.verdict.kind in (PROVEN_NONZERO, PROBABLY_NONZERO)
        ]


# -- the checker ----------------------------------------------------------------

class OperatorForms:
    """The entries of an operator as rational forms of one derivation
    context over its variables, whose atoms are closed under the
    derivatives the relations take: those of g to first order, those of b
    to second (a7 takes d_k of the a5 brackets, which hold g and d b).

    G[a][i][j] = g^{ij a} and B[a][i][j][k] = b^{ij a}_k are the dense
    tables; the context holds the ring derivations d/du^k (``ctx.deriv``).
    DG[a][i][j][k] = d_k g^{ij a}, DB[a][i][j][k][l] = d_l b^{ij a}_k and
    A2, the nonzero a2 residuals, are built when first needed.

    ``edited`` gives the forms of an operator that differs from this one
    in a few b entries, each a rational multiple of an entry of this b (a
    sign flip, a scaling or a swap).  They share the context, the
    derivations, G and DG; their B, and their DB when first needed, are
    this B and DB with the edited entries scaled, so no entry is converted
    or derived again.  a2 is linear in b, so their A2 is this A2 with only
    the keys the edits touch recomputed."""

    def __init__(self, ctx, G: list, B: list,
                 base: "OperatorForms | None" = None, edits=()):
        self.ctx, self.G, self.B = ctx, G, B
        self._base, self._edits = base, edits

    @classmethod
    def of(cls, op: HydroOperator) -> "OperatorForms":
        ctx = derivation_context(
            op.ws, op.variables,
            [(_flatten(op.g), 1), (_flatten(op.b), 2)],
        )
        # most entries are the zero Rat: no conversion
        conv = lambda e: ctx.zero if e is ex.ZERO else to_rational_form(e, ctx)
        return cls(ctx, _map_nested(op.g, conv), _map_nested(op.b, conv))

    def edited(self, edits) -> "OperatorForms":
        """The forms with B[dst] = c * B[src] for each (dst, src, c) in
        edits, where dst and src are 0-based (a, i, j, k) and c is a
        nonzero rational; the sources are read before any entry changes."""
        return OperatorForms(self.ctx, self.G, _edited(self.B, edits), self,
                             edits)

    @cached_property
    def DG(self) -> list:
        if self._base is not None:
            return self._base.DG
        return _map_nested(self.G, self.ctx.gradient)

    @cached_property
    def DB(self) -> list:
        if self._base is not None:
            return _edited(self._base.DB, self._edits)
        return _map_nested(self.B, self.ctx.gradient)

    @cached_property
    def A2(self) -> dict:
        """{(a, i, j, k): d_k g^{ij a} - b^{ij a}_k - b^{ji a}_k} of the
        nonzero a2 residuals, 0-based.  Edited forms recompute the keys
        (a, i, j, k) and (a, j, i, k) of each edited b^{ij a}_k from their
        own B, so the table is exact whatever the base's residuals."""
        if self._base is None:
            rng = range(len(self.B[0]))
            keys = itertools.product(range(len(self.B)), rng, rng, rng)
            table = {}
        else:
            keys = {key for (a, i, j, k), _src, _c in self._edits
                    for key in ((a, i, j, k), (a, j, i, k))}
            table = dict(self._base.A2)
        DG, B = self.DG, self.B
        for a, i, j, k in keys:
            x = DG[a][i][j][k] - B[a][i][j][k] - B[a][j][i][k]
            if x.is_zero:
                table.pop((a, i, j, k), None)
            else:
                table[a, i, j, k] = x
        return table


def _edited(table: list, edits) -> list:
    """table with table[dst] = c * table[src] for each (dst, src, c), the
    entries at a 4-index being forms (B) or lists of forms (DB).  Only the
    lists on the path to an edited entry are copied; the rest are shared."""
    out = list(table)
    for (a, i, j, k), (sa, si, sj, sk), c in edits:
        src = table[sa][si][sj][sk]
        plane = out[a] = list(out[a])
        row = plane[i] = list(plane[i])
        col = row[j] = list(row[j])
        col[k] = _map_nested(src, lambda x: x.scaled(c))
    return out


class MokhovChecker:
    """Reads a2 from the operator's rational forms (``op.forms``), and
    assembles a3..a7 from them by scattering nonzero products into tables
    keyed by residual indices.

    G, B, DG and DB are the forms' tables (see ``OperatorForms``), and
    C^{jr a}_{sq} = d_q b^{jr a}_s - d_s b^{jr a}_q.  The nonzero entries
    of G, B, DB and C are kept in lists grouped by alpha and by the
    contracted index s.  Each term of a sum joins two such lists on s and
    forms each product once.  Four tables are summed from these products:
    P[al, be, i, j, r] = sum_s g^{si al} b^{jr be}_s, which a3 and a4
    share; the a5 brackets; the a6 table; and the a7 halves, d_k of each
    nonzero bracket plus the cyclic b C terms.  A relation adds each entry
    of its table into the two to six residuals it enters, keyed by the
    indices (alpha positions, 1-based components), then yields the nonzero
    residuals with their keys sorted, which is the order of
    ``residual_keys``, and the alphas printed as labels.  Tables keep only
    their nonzero entries, so no product has a zero factor, and a
    Hamiltonian operator's relation tables are empty; rational forms are
    canonical, so the sums equal the dense ones.

    The brackets come in blocks keyed by (al, be, i), the first three
    indices of a residual, built on first use from the dense g and b of al
    and the C and b lists of be; a6 reads the b b products of the blocks,
    a7 their brackets.  a5 walks the blocks in key order, summing block
    (a, be, i) with (be, a, i): a walk that stops in block (a, be, i) has
    built only that block, the blocks before it and (be, a, i).

    The checker converts nothing: the forms are the operator's, converted
    once per operator (a mutant's are its parent's, edited).  DG, DB and
    the a2 table are built when first needed and kept with the forms (a
    mutant's a2 table is its parent's with the keys of its edits
    recomputed); the checker's own tables are built on first use, so a
    check that stops at a2 never takes d b."""

    def __init__(self, op: HydroOperator):
        self.op = op
        self.d, self.n = op.d, op.n
        self.forms = op.forms
        self.ctx, self.G, self.B = self.forms.ctx, self.forms.G, self.forms.B
        self._blocks: dict = {}

    @property
    def DG(self) -> list:
        return self.forms.DG

    @property
    def DB(self) -> list:
        return self.forms.DB

    def _by_s(self, entries, pos: int) -> list:
        """Entries (alpha, components, x) listed by alpha and by the
        contracted index s, their pos-th component, without s."""
        out = [[[] for _ in range(self.n)] for _ in range(self.d)]
        for e in entries:
            out[e[0]][e[pos + 1] - 1].append(e[:pos + 1] + e[pos + 2:])
        return out

    @cached_property
    def _b_nonzero(self) -> list:
        """(a, i, j, k, b^{ij a}_k) of the nonzero entries of B"""
        return _nonzero(self.B)

    @cached_property
    def _g_s(self) -> list:
        """(al, i, g^{si al}) by al and s"""
        return self._by_s(_nonzero(self.G), 0)

    @cached_property
    def _b_last(self) -> list:
        """(al, i, j, b^{ij al}_s) by al and s"""
        return self._by_s(self._b_nonzero, 2)

    @cached_property
    def _b_first(self) -> list:
        """(be, r, q, b^{sr be}_q) by be and s"""
        return self._by_s(self._b_nonzero, 0)

    @cached_property
    def _c_s(self) -> list:
        """(be, j, r, q, C^{jr be}_{sq}) by be and s, for the (be, j, r) of
        a nonzero b; C is antisymmetric, so each s < q is subtracted once."""
        out = [[[] for _ in range(self.n)] for _ in range(self.d)]
        for be, j, r in dict.fromkeys(e[:3] for e in self._b_nonzero):
            D = self.DB[be][j - 1][r - 1]
            for s, q in itertools.combinations(range(self.n), 2):
                c = D[s][q] - D[q][s]
                if not c.is_zero:
                    out[be][s].append((be, j, r, q + 1, c))
                    out[be][q].append((be, j, r, s + 1, -c))
        return out

    @cached_property
    def P(self) -> dict:
        """P[al, be, i, j, r] = sum_s g^{si al} b^{jr be}_s"""
        return _table(((al, be, i, j, r), g * b) for (al, i, g), (be, j, r, b)
                      in _join(self._g_s, self._b_last))

    def _block(self, al: int, be: int, i: int) -> tuple:
        """The bracket block (al, be, i), i 0-based, built on first use: by
        (j, r, q), the brackets [al, be, i, j, r, q] = sum_s g^{si al}
        C^{jr be}_{sq} + b^{ij al}_s b^{sr be}_q - b^{ir al}_s b^{sj be}_q,
        and the products (j, r, q, b^{ij al}_s b^{sr be}_q)."""
        block = self._blocks.get((al, be, i))
        if block is None:
            c_s, b_s = self._c_s[be], self._b_first[be]
            bb = [(j, r, q, x * y) for j, row in enumerate(self.B[al][i], 1)
                  for x, ys in zip(row, b_s) if ys and not x.is_zero
                  for _be, r, q, y in ys]
            gc = [((j, r, q), g[i] * c) for g, cs in zip(self.G[al], c_s)
                  if cs and not g[i].is_zero for _be, j, r, q, c in cs]
            block = self._blocks[al, be, i] = _table(itertools.chain(
                gc, (((j, r, q), t) for j, r, q, t in bb),
                (((r, j, q), -t) for j, r, q, t in bb))), bb
        return block

    def _block_keys(self):
        return itertools.product(range(self.d), range(self.d), range(self.n))

    def _all_blocks(self) -> dict:
        """{(al, be, i): block} of every bracket block."""
        if len(self._blocks) < self.d * self.d * self.n:
            for key in self._block_keys():
                self._block(*key)
        return self._blocks

    @staticmethod
    def _walk(rel: str, terms):
        """(rel, indices, residual) of the nonzero residuals in index order;
        a residual sums the terms scattered to its key (al, be, ...)."""
        for (al, be, *idx), x in sorted(_table(terms).items()):
            yield rel, (ALPHA_LABELS[al], ALPHA_LABELS[be], *idx), x

    # each generator yields (relation, indices, RationalForm) of the
    # nonzero residuals, in the order of residual_keys

    def residuals_a1(self):
        G = self.G
        for a in range(self.d):
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    x = G[a][i][j] - G[a][j][i]
                    if not x.is_zero:
                        yield "a1", (ALPHA_LABELS[a], i + 1, j + 1), x

    def residuals_a2(self):
        for (a, i, j, k), x in sorted(self.forms.A2.items()):
            yield "a2", (ALPHA_LABELS[a], i + 1, j + 1, k + 1), x

    def residuals_a3(self):
        yield from self._walk("a3", self._a3_terms())

    def _a3_terms(self):
        """a3[a, be, i, j, r] = P[a, be, i, j, r] + P[be, a, i, j, r]
        - P[be, a, j, i, r] - P[a, be, j, i, r]"""
        for (al, be, i, j, r), p in self.P.items():
            m = -p
            yield (al, be, i, j, r), p
            yield (be, al, i, j, r), p
            yield (be, al, j, i, r), m
            yield (al, be, j, i, r), m

    def residuals_a4(self):
        yield from self._walk("a4", self._a4_terms())

    def _a4_terms(self):
        """a4[a, be, i, j, r] = sum over cyclic (i, j, r) of
        P[a, be, i, j, r] - P[be, a, j, i, r]"""
        for (al, be, i, j, r), p in self.P.items():
            m = -p
            for ijr in _cyclic(i, j, r):
                yield (al, be, *ijr), p
            for jir in _cyclic(j, i, r):
                yield (be, al, *jir), m

    def residuals_a5(self):
        """a5[a, be, i, ...] = bracket[a, be, i, ...] + bracket[be, a, i, ...],
        block by block in key order; twice the bracket when a = be."""
        L = ALPHA_LABELS
        for a, be, i in self._block_keys():
            x, y = self._block(a, be, i)[0], self._block(be, a, i)[0]
            if x or y:
                sums = ({k: v.scaled(2) for k, v in x.items()} if a == be
                        else _table(itertools.chain(x.items(), y.items())))
                for jrq, v in sorted(sums.items()):
                    yield "a5", (L[a], L[be], i + 1, *jrq), v

    def residuals_a6(self):
        yield from self._walk("a6", self._a6_terms())

    def _a6_terms(self):
        """a6[a, be, i, j, r, q] = S[a, be, i, j, r, q] - S[be, a, j, i, r, q]
        with the a6 table S = sum_s g^{si be} d_s b^{jr a}_q
        - b^{ij be}_s b^{sr a}_q - b^{ir be}_s b^{js a}_q."""
        def terms():
            db = [(a, j, r, q, s, x) for a, j, r, q, _b in self._b_nonzero
                  for s, x in enumerate(self.DB[a][j - 1][r - 1][q - 1], 1)
                  if not x.is_zero]
            for (be, i, g), (a, j, r, q, x) in _join(self._g_s,
                                                      self._by_s(db, 3)):
                yield (a, be, i, j, r, q), g * x
            for (be, a, i), (_x, bb) in self._all_blocks().items():
                for j, r, q, t in bb:
                    yield (a, be, i + 1, j, r, q), -t
            for (be, i, r, x), (a, j, q, y) in _join(
                    self._b_last, self._by_s(self._b_nonzero, 1)):
                yield (a, be, i, j, r, q), -(x * y)
        for (a, be, i, j, r, q), t in _table(terms()).items():
            yield (a, be, i, j, r, q), t
            yield (be, a, j, i, r, q), -t

    def residuals_a7(self):
        yield from self._walk("a7", self._a7_terms())

    def _a7_terms(self):
        """a7[a, be, i, j, r, k, q] = half[a, be, i, j, r, q, k]
        + half[be, a, i, j, r, k, q], where half[al, be, i, j, r, q, k] is
        d_k of the bracket [al, be, i, j, r, q] plus the sum over cyclic
        (i, j, r) of b^{si be}_q C^{jr al}_{ks}."""
        def halves():
            for (al, be, i), (brackets, _bb) in self._all_blocks().items():
                for (j, r, q), x in brackets.items():
                    for k, deriv in enumerate(self.ctx.deriv, 1):
                        dx = deriv(x)
                        if not dx.is_zero:
                            yield (al, be, i + 1, j, r, q, k), dx
            for (be, i, q, b), (al, j, r, k, c) in _join(self._b_first,
                                                         self._c_s):
                t = -(b * c)        # C^{jr al}_{ks} = -C^{jr al}_{sk}
                for ijr in _cyclic(i, j, r):
                    yield (al, be, *ijr, q, k), t
        for (al, be, i, j, r, q, k), h in _table(halves()).items():
            yield (al, be, i, j, r, k, q), h
            yield (be, al, i, j, r, q, k), h

    def residuals(self, relations):
        """(relation, indices, RationalForm) of the nonzero residuals of
        the relations, in the order of ``residual_keys``."""
        for rel in relations:
            yield from getattr(self, f"residuals_{rel}")()


# (alpha indices, component indices) of the residuals of each relation
_ARITY = {"a1": (1, 2), "a2": (1, 3), "a3": (2, 3), "a4": (2, 3),
          "a5": (2, 4), "a6": (2, 4), "a7": (2, 5)}


def residual_keys(d: int, n: int, relations):
    """(relation, indices) of every residual of the relations, in order:
    each relation's full index product, alpha labels first, then 1-based
    components (i < j for a1).  The one place every index is listed."""
    labels, comps = ALPHA_LABELS[:d], range(1, n + 1)
    for rel in relations:
        n_alpha, n_comp = _ARITY[rel]
        for idx in itertools.product(*[labels] * n_alpha, *[comps] * n_comp):
            if rel != "a1" or idx[1] < idx[2]:
                yield rel, idx


def _join(left, right):
    """The pairs (x, y) of entries of two lists grouped by alpha and s
    that share s."""
    return ((x, y) for ls in left for rs in right for xs, ys in zip(ls, rs)
            if ys for x in xs for y in ys)


def _nonzero(table) -> list:
    """(alpha position, 1-based components, x) of the nonzero entries x of
    a dense table; index tuples are built for its rows and nonzero entries
    only."""
    rows = [((a,), node) for a, node in enumerate(table)]
    while isinstance(rows[0][1][0], list):
        rows = [(idx + (i,), sub) for idx, node in rows
                for i, sub in enumerate(node, 1)]
    return [idx + (i, x) for idx, row in rows
            for i, x in enumerate(row, 1) if not x.is_zero]


def _table(terms) -> dict:
    """{key: the sum of the x over the (key, x) in terms}, without the
    keys whose sum cancels to zero."""
    out: dict = {}
    for key, x in terms:
        old = out.get(key)
        out[key] = x if old is None else old + x
    return {key: x for key, x in out.items() if not x.is_zero}


def _cyclic(i, j, r):
    return (i, j, r), (j, r, i), (r, i, j)


def _flatten(nested) -> list:
    """The Exprs of a nest of lists, or of a bare Expr, depth first, in one
    list: one call per list that holds lists, none per Expr."""
    if isinstance(nested, ex.Expr):
        return [nested]
    out = []
    for item in nested:
        if isinstance(item, ex.Expr):
            out.append(item)
        else:
            out += _flatten(item)
    return out


def _map_nested(nested, fn):
    """fn applied to each leaf of a nest of lists, or to a bare leaf, in a
    nest of the same shape; the depth may differ from item to item.  It
    recurses only into lists, so a leaf costs one call of fn."""
    if not isinstance(nested, list):
        return fn(nested)
    return [_map_nested(item, fn) if isinstance(item, list) else fn(item)
            for item in nested]


ALL_RELATIONS = ("a1", "a2", "a3", "a4", "a5", "a6", "a7")


_PROVEN_ZERO = Verdict(PROVEN_ZERO)


def _record(rel: str, idx: tuple, rf,
            policy: ZeroTestPolicy) -> ResidualRecord:
    """The record of the residual rf: its verdict, Inconclusive when
    sampling fails, and rf printed back to an Expr.  Every record of a
    residual form is built here."""
    if rf.is_zero:
        return ResidualRecord(rel, idx, ex.ZERO, _PROVEN_ZERO)
    try:
        verdict = verdict_for_ratform(rf, policy)
    except InconclusiveError:
        verdict = Verdict(INCONCLUSIVE)
    return ResidualRecord(rel, idx, ratform_to_expr(rf), verdict)


def check_hamiltonian(op: HydroOperator,
                      policy: ZeroTestPolicy = DEFAULT_POLICY) -> ConditionReport:
    """The report of the residuals of a1..a7, one record each; for a
    subset of the relations, use ``MokhovChecker(op).residuals``."""
    return ConditionReport(
        partial(residual_keys, op.d, op.n, ALL_RELATIONS),
        {(rel, idx): [_record(rel, idx, rf, policy)] for rel, idx, rf
         in MokhovChecker(op).residuals(ALL_RELATIONS)})


# -- metric pencil analysis ----------------------------------------------------

PENCIL_PARAMS = ("lam1", "lam2", "lam3", "lam4")


class MetricPencil:
    """The linear matrix pencil unit*E + sum_a lam_a M_a, the formal
    constants lam_a named by ``names`` and added to ``ws``, as rational forms
    of one context built from the entries of the M_a.  ``of(op)`` is the
    metric pencil sum_alpha lam_alpha g^alpha."""

    def __init__(self, ws: Workspace, names, matrices: list, unit=0):
        self.ws = ws.extended(list(names))
        self.params = self.ws.constants[len(ws.constants):]  # the lambdas
        ctx = build_context(self.ws, _flatten(matrices))
        lams = [to_rational_form(ex.Var(p), ctx) for p in self.params]
        diag = ctx.one.scaled(unit) if unit else ctx.zero
        rng = range(len(matrices[0]))
        self.matrix = [[sum((lam * to_rational_form(m[i][j], ctx)
                             for lam, m in zip(lams, matrices)
                             if m[i][j] != ex.ZERO),
                            diag if i == j else ctx.zero) for j in rng]
                       for i in rng]

    @classmethod
    def of(cls, op: HydroOperator) -> "MetricPencil":
        return cls(op.ws, PENCIL_PARAMS[: op.d], op.g)

    @cached_property
    def determinant(self):
        """The determinant of the pencil as one RationalForm."""
        return det(self.matrix)

    @cached_property
    def det_coefficients(self) -> dict:
        """{lambda exponents: RationalForm} of the nonzero coefficients of
        the determinant."""
        return coefficients_in(self.determinant,
                               [p.name for p in self.params])


def pencil_determinant(op: HydroOperator) -> dict[tuple, ex.Expr]:
    """det(sum_alpha lam_alpha g^alpha) expanded by lambda exponents."""
    coeffs = op.pencil.det_coefficients
    return {exps: ratform_to_expr(c) for exps, c in coeffs.items()} \
        or {(0,) * op.d: ex.ZERO}


class DegeneracyResult:
    def __init__(self, degenerate: bool, certificate: ex.Expr | None):
        self.degenerate = degenerate
        self.certificate = certificate  # a nonzero coefficient, if any


def is_degenerate(op: HydroOperator,
                  policy: ZeroTestPolicy = DEFAULT_POLICY) -> DegeneracyResult:
    """True iff every lambda-coefficient of the pencil determinant is
    provably zero.  Probabilistic coefficient verdicts raise
    InconclusiveError."""
    pencil = op.pencil
    for exps, coeff in pencil.det_coefficients.items():
        if _proven_nonzero(coeff, policy):
            monom = ex.mul(*(
                ex.pow_(ex.Var(pencil.params[a]), e)
                for a, e in enumerate(exps) if e
            ))
            return DegeneracyResult(False, ex.mul(ratform_to_expr(coeff),
                                                  monom))
    return DegeneracyResult(True, None)


def _proven_nonzero(rf, policy: ZeroTestPolicy) -> bool:
    """Is rf provably nonzero?  A probabilistic verdict raises
    InconclusiveError."""
    verdict = verdict_for_ratform(rf, policy)
    if not verdict.proven:
        raise InconclusiveError(
            f"verdict for {ratform_to_expr(rf)} is only probabilistic: "
            f"{verdict}"
        )
    return verdict.kind == PROVEN_NONZERO


def generic_rank(op: HydroOperator,
                 policy: ZeroTestPolicy = DEFAULT_POLICY) -> int:
    """Largest r with an r x r pencil minor not identically zero in the
    lambdas and u."""
    pencil = op.pencil
    n = op.n
    if _proven_nonzero(pencil.determinant, policy):
        return n
    for r in range(n - 1, 0, -1):
        for rows in itertools.combinations(range(n), r):
            for cols in itertools.combinations(range(n), r):
                minor = det([[pencil.matrix[i][j] for j in cols]
                             for i in rows])
                if _proven_nonzero(minor, policy):
                    return r
    return 0


class TrivialityResult:
    def __init__(self, trivial: bool, xi: ex.Expr | None, note: str = ""):
        self.trivial, self.xi, self.note = trivial, xi, note


def is_trivial_pair(op: HydroOperator,
                    policy: ZeroTestPolicy = DEFAULT_POLICY) -> TrivialityResult:
    """Is the 2D operator identically zero, or its y-part a constant
    multiple of its x-part (g~ = xi g, b~ = xi b)?  The entries are the
    operator's forms (``op.forms``), paired in the order of
    ``op.entries()``; pairs of zero entries are skipped.  xi and d xi/du
    are forms of the same context."""
    if op.d != 2:
        raise OperatorError("triviality is defined for d = 2 operators")
    ctx = op.forms.ctx
    entries = list(_entries(op.forms.G, op.forms.B))  # x-part, then y-part
    half = len(entries) // 2
    pairs = [(x, y) for x, y in zip(entries[:half], entries[half:])
             if not (x.is_zero and y.is_zero)]
    nonzero = lambda rf: _proven_nonzero(rf, policy)

    def product(a, b):
        """a*b, not formed when a factor is zero"""
        return ctx.zero if a.is_zero or b.is_zero else a * b

    ref = next((pair for pair in pairs if nonzero(pair[0])), None)
    if ref is None:
        # x-part vanishes identically: trivial only if y does as well
        if any(nonzero(y) for _, y in pairs):
            return TrivialityResult(False, None,
                                    "x-part zero but y-part nonzero")
        return TrivialityResult(True, ex.ZERO, "identically zero operator")

    x_ref, y_ref = ref
    xi = y_ref / x_ref
    if any(nonzero(d(xi)) for d in ctx.deriv):
        return TrivialityResult(
            False, None,
            f"proportionality factor {ratform_to_expr(xi)} is not constant",
        )
    if any(nonzero(product(y, x_ref) - product(x, y_ref))
           for x, y in pairs):
        return TrivialityResult(False, None, "not proportional")
    return TrivialityResult(True, ratform_to_expr(xi))


# -- pencil compatibility --------------------------------------------------------

def pencil_compatibility(
        op: HydroOperator,
        policy: ZeroTestPolicy = DEFAULT_POLICY) -> ConditionReport:
    """a1..a7 of the 1D operator g_x + lam g_y, b_x + lam b_y of a 2D
    operator, identically in lam: a relation sums over ordered alpha labels,
    linear in each label's entries, so the lam^k coefficient of a residual
    sums the 2D ones with k labels y (a3[x, y] + a3[y, x] at lam^1).  One
    record per lambda power of each nonzero residual, one ``lam^0`` record
    of each zero one."""
    if op.d != 2:
        raise OperatorError("compatibility expects a d = 2 operator")
    powers: dict = {}
    for rel, idx, rf in MokhovChecker(op).residuals(ALL_RELATIONS):
        a = _ARITY[rel][0]
        powers.setdefault((rel, ("x",) * a + idx[a:]), []).append(
            (idx[:a].count("y"), rf))
    kept = {}
    for (rel, idx), terms in sorted(powers.items()):
        recs = [_record(rel, idx + (f"lam^{k}",), rf, policy)
                for k, rf in sorted(_table(terms).items())]
        if recs:
            kept[rel, idx] = recs
    return ConditionReport(partial(residual_keys, 1, op.n, ALL_RELATIONS),
                           kept, ("lam^0",))
