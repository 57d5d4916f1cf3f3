"""First-order operators of hydrodynamic type and the Mokhov relations.

An operator is the coefficient bundle (d, n, g^{ij alpha}, b^{ij alpha}_k)
of P^{ij} = sum_alpha g^{ij alpha} d/dx^alpha + b^{ij alpha}_k u^k_{x^alpha}.
The seven relations a1..a7 are necessary and sufficient for skew-symmetry
plus the Jacobi identity; they are checked exactly on rational normal
forms, with all free indices enumerated and cyclic sums written out.
Derivatives are taken in the polynomial ring, when a relation first needs
them.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property

from . import expr as ex
from .ratform import (
    Derivation,
    build_context,
    coefficients_in,
    derivation_context,
    det,
    ratform_to_expr,
    to_rational_form,
    zero_form,
)
from .symbols import Symbol, Workspace
from .zerotest import (
    DEFAULT_POLICY,
    INCONCLUSIVE,
    PROBABLY_NONZERO,
    PROBABLY_ZERO,
    PROVEN_NONZERO,
    PROVEN_ZERO,
    InconclusiveError,
    Verdict,
    ZeroTestPolicy,
    verdict_for_ratform,
)

ALPHA_LABELS = ("x", "y", "z", "w")

PROVEN_PASS = "proven_pass"
PROBABLY_PASS = "probably_pass"
INCONCLUSIVE_PASS = "inconclusive"
FAIL = "fail"


class OperatorError(Exception):
    pass


@dataclass
class HydroOperator:
    """Dense coefficient bundle; entries are Exprs over the workspace."""

    ws: Workspace
    d: int
    n: int
    g: list  # [alpha][i][j] -> Expr
    b: list  # [alpha][i][j][k] -> Expr

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise OperatorError("dimension and component count must be >= 1")
        if len(self.ws.variables) < self.n:
            raise OperatorError("workspace lacks the operator variables")
        if len(self.g) != self.d or len(self.b) != self.d:
            raise OperatorError("metric/coefficient arrays must have d slices")
        for a in range(self.d):
            _check_shape(self.g[a], (self.n, self.n), "g")
            _check_shape(self.b[a], (self.n, self.n, self.n), "b")
        allowed = set(self.ws.variables) | set(self.ws.constants)
        for e in self.entries():
            bad = ex.free_symbols(e) - allowed
            if bad:
                raise OperatorError(
                    f"entry {e} uses unregistered symbols {sorted(s.name for s in bad)}"
                )

    @property
    def variables(self) -> list[Symbol]:
        return self.ws.variables[: self.n]

    def entries(self):
        for a in range(self.d):
            for i in range(self.n):
                for j in range(self.n):
                    yield self.g[a][i][j]
                    for k in range(self.n):
                        yield self.b[a][i][j][k]

    @cached_property
    def pencil(self) -> "MetricPencil":
        """The metric pencil, built when first needed and then shared by
        the pencil analyses (the entries are not changed after
        construction)."""
        return MetricPencil.of(self)

    def part(self, alpha: int) -> "HydroOperator":
        """The 1D operator in the alpha-th independent variable."""
        return HydroOperator(
            self.ws, 1, self.n, [self.g[alpha]], [self.b[alpha]]
        )


def _check_shape(arr, shape, what):
    if len(arr) != shape[0]:
        raise OperatorError(f"{what} has wrong shape")
    if len(shape) > 1:
        for sub in arr:
            _check_shape(sub, shape[1:], what)


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

@dataclass
class ResidualRecord:
    relation: str
    indices: tuple
    residual: ex.Expr
    verdict: Verdict


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


@dataclass
class ConditionReport:
    records: list[ResidualRecord] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def overall(self) -> str:
        return overall_result(r.verdict.kind for r in self.records)

    @property
    def passed(self) -> bool:
        return self.overall in (PROVEN_PASS, PROBABLY_PASS)

    def failures(self) -> list[ResidualRecord]:
        return [
            r for r in self.records
            if r.verdict.kind in (PROVEN_NONZERO, PROBABLY_NONZERO)
        ]


# -- the checker ----------------------------------------------------------------

class MokhovChecker:
    """Converts g and b to rational forms once, then assembles each
    relation's residuals by ring arithmetic over nonzero entries only.

    G[a][i][j] = g^{ij a} and B[a][i][j][k] = b^{ij a}_k are the dense
    tables; DG[a][i][j][k] = d_k g^{ij a} and DB[a][i][j][k][l] =
    d_l b^{ij a}_k are built by the ring derivations d/du^k.  The sums over
    the contracted index s run over lists of nonzero entries: GS[a][i]
    holds the (s, g^{si a}), BS[a][i][j] the (s, b^{ij a}_s) and
    BT[a][i][q] the (s, b^{si a}_q).  C[a][j][r][s][q] =
    d_q b^{jr a}_s - d_s b^{jr a}_q is the difference that both the a5
    brackets and the a7 halves contract.  A product is formed only when
    both factors are nonzero; rational forms are canonical, so the sums
    equal the dense ones.  Every table, the a5 brackets and the a7 halves
    are built on first use, so a check that stops at a2 never
    differentiates b."""

    def __init__(self, op: HydroOperator):
        self.op = op
        self.ws = op.ws
        self.d, self.n = op.d, op.n
        cache: dict = {}
        # a7 differentiates the a5 brackets, which hold g and d b
        self.ctx = derivation_context(
            self.ws, op.variables,
            [(list(_flatten(op.g)), 1), (list(_flatten(op.b)), 2)], cache,
        )
        conv = lambda e: to_rational_form(e, self.ctx, cache)
        self.G = _map_nested(op.g, conv)
        self.B = _map_nested(op.b, conv)
        self._deriv = [Derivation(self.ctx, v, cache) for v in op.variables]
        self._zero = zero_form(self.ctx)
        self._brackets: dict = {}
        self._a7_halves: dict = {}

    def _gradient(self, rf) -> list:
        if rf.is_zero:
            return [rf] * self.n
        return [d(rf) for d in self._deriv]

    @cached_property
    def DG(self) -> list:
        return _map_nested(self.G, self._gradient)

    @cached_property
    def DB(self) -> list:
        return _map_nested(self.B, self._gradient)

    @cached_property
    def GS(self) -> list:
        rng = range(self.n)
        return [[_nonzero((s, G[s][i]) for s in rng) for i in rng]
                for G in self.G]

    @cached_property
    def BS(self) -> list:
        rng = range(self.n)
        return [[[_nonzero(enumerate(B[i][j])) for j in rng] for i in rng]
                for B in self.B]

    @cached_property
    def BT(self) -> list:
        rng = range(self.n)
        return [[[_nonzero((s, B[s][i][q]) for s in rng) for q in rng]
                 for i in rng] for B in self.B]

    @cached_property
    def C(self) -> list:
        rng = range(self.n)
        return [[[[[D[j][r][s][q] - D[j][r][q][s] for q in rng] for s in rng]
                  for r in rng] for j in rng] for D in self.DB]

    # each generator yields (relation, indices, RationalForm)

    def residuals_a1(self):
        G = self.G
        for a in range(self.d):
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    yield "a1", (ALPHA_LABELS[a], i + 1, j + 1), \
                        G[a][i][j] - G[a][j][i]

    def residuals_a2(self):
        DG, B = self.DG, self.B
        rng = range(self.n)
        for a in range(self.d):
            for i in rng:
                for j in rng:
                    for k in rng:
                        yield "a2", (ALPHA_LABELS[a], i + 1, j + 1, k + 1), \
                            DG[a][i][j][k] - B[a][i][j][k] - B[a][j][i][k]

    def _dot(self, pairs, factor):
        """sum over (s, x) in pairs of x * factor(s); a zero factor adds
        nothing and is not multiplied."""
        acc = self._zero
        for s, x in pairs:
            y = factor(s)
            if not y.is_zero:
                acc = acc + x * y
        return acc

    def _gb_terms(self, al, be, i, j, r):
        """sum_s g^{si al} b^{jr be}_s - g^{sj be} b^{ir al}_s, the term
        that a3 and a4 add up over index pairs and cyclic shifts."""
        B = self.B
        return (self._dot(self.GS[al][i], B[be][j][r].__getitem__)
                - self._dot(self.GS[be][j], B[al][i][r].__getitem__))

    def residuals_a3(self):
        rng = range(self.n)
        for a in range(self.d):
            for bB in range(self.d):
                for i in rng:
                    for j in rng:
                        for r in rng:
                            yield "a3", (
                                ALPHA_LABELS[a], ALPHA_LABELS[bB],
                                i + 1, j + 1, r + 1,
                            ), (self._gb_terms(a, bB, i, j, r)
                                + self._gb_terms(bB, a, i, j, r))

    def residuals_a4(self):
        rng = range(self.n)
        for a in range(self.d):
            for be in range(self.d):
                for i in rng:
                    for j in rng:
                        for r in rng:
                            yield "a4", (
                                ALPHA_LABELS[a], ALPHA_LABELS[be],
                                i + 1, j + 1, r + 1,
                            ), (self._gb_terms(a, be, i, j, r)
                                + self._gb_terms(a, be, j, r, i)
                                + self._gb_terms(a, be, r, i, j))

    def _a5_bracket(self, al, be, i, j, r, q):
        """sum_s g^{si al} C^{jr be}_{sq}
        + b^{ij al}_s b^{sr be}_q - b^{ir al}_s b^{sj be}_q, built once."""
        key = (al, be, i, j, r, q)
        acc = self._brackets.get(key)
        if acc is None:
            B, C, BS = self.B[be], self.C[be][j][r], self.BS[al][i]
            acc = (self._dot(self.GS[al][i], lambda s: C[s][q])
                   + self._dot(BS[j], lambda s: B[s][r][q])
                   - self._dot(BS[r], lambda s: B[s][j][q]))
            self._brackets[key] = acc
        return acc

    def residuals_a5(self):
        rng = range(self.n)
        for a in range(self.d):
            for be in range(self.d):
                for i, j, r, q in itertools.product(rng, repeat=4):
                    acc = self._a5_bracket(a, be, i, j, r, q) + \
                        self._a5_bracket(be, a, i, j, r, q)
                    yield "a5", (
                        ALPHA_LABELS[a], ALPHA_LABELS[be],
                        i + 1, j + 1, r + 1, q + 1,
                    ), acc

    def residuals_a6(self):
        B, DB, GS, BS = self.B, self.DB, self.GS, self.BS
        dot = self._dot
        rng = range(self.n)
        for a in range(self.d):
            for be in range(self.d):
                for i, j, r, q in itertools.product(rng, repeat=4):
                    acc = (dot(GS[be][i], DB[a][j][r][q].__getitem__)
                           - dot(BS[be][i][j], lambda s: B[a][s][r][q])
                           - dot(BS[be][i][r], lambda s: B[a][j][s][q])
                           - dot(GS[a][j], DB[be][i][r][q].__getitem__)
                           + dot(BS[a][j][i], lambda s: B[be][s][r][q])
                           + dot(BS[a][j][r], lambda s: B[be][i][s][q]))
                    yield "a6", (
                        ALPHA_LABELS[a], ALPHA_LABELS[be],
                        i + 1, j + 1, r + 1, q + 1,
                    ), acc

    def _a7_half(self, al, be, i, j, r, q, k):
        """d_k of the a5 bracket (al, be, i, j, r, q) plus the sum over
        cyclic (i,j,r) of b^{si be}_q C^{jr al}_{ks}.  Each half enters two
        a7 residuals, so it is built once."""
        key = (al, be, i, j, r, q, k)
        acc = self._a7_halves.get(key)
        if acc is None:
            bracket = self._a5_bracket(al, be, i, j, r, q)
            acc = bracket if bracket.is_zero else self._deriv[k](bracket)
            C, BT = self.C[al], self.BT[be]
            for ii, jj, rr in ((i, j, r), (j, r, i), (r, i, j)):
                pairs = BT[ii][q]
                if pairs:
                    acc = acc + self._dot(pairs, C[jj][rr][k].__getitem__)
            self._a7_halves[key] = acc
        return acc

    def residuals_a7(self):
        rng = range(self.n)
        for a in range(self.d):
            for be in range(self.d):
                for i, j, r in itertools.product(rng, repeat=3):
                    for k, q in itertools.product(rng, repeat=2):
                        yield "a7", (
                            ALPHA_LABELS[a], ALPHA_LABELS[be],
                            i + 1, j + 1, r + 1, k + 1, q + 1,
                        ), (self._a7_half(a, be, i, j, r, q, k)
                            + self._a7_half(be, a, i, j, r, k, q))

    def residuals(self, relations):
        for rel in relations:
            yield from getattr(self, f"residuals_{rel}")()


def _nonzero(pairs) -> list:
    """The (s, x) pairs whose rational form x is nonzero."""
    return [(s, x) for s, x in pairs if not x.is_zero]


def _flatten(nested):
    if isinstance(nested, ex.Expr):
        yield nested
        return
    for item in nested:
        yield from _flatten(item)


def _map_nested(nested, fn):
    if not isinstance(nested, list):
        return fn(nested)
    return [_map_nested(item, fn) for item in nested]


ALL_RELATIONS = ("a1", "a2", "a3", "a4", "a5", "a6", "a7")


_PROVEN_ZERO = Verdict(PROVEN_ZERO)


def _record(rel: str, idx: tuple, rf, ws: Workspace,
            policy: ZeroTestPolicy) -> ResidualRecord:
    if rf.is_zero:
        return ResidualRecord(rel, idx, ex.ZERO, _PROVEN_ZERO)
    try:
        verdict = verdict_for_ratform(rf, ws, policy)
    except InconclusiveError:
        verdict = Verdict(INCONCLUSIVE)
    return ResidualRecord(rel, idx, ratform_to_expr(rf), verdict)


def check_hamiltonian(op: HydroOperator,
                      policy: ZeroTestPolicy = DEFAULT_POLICY) -> ConditionReport:
    """One record per residual of a1..a7; for a subset of the relations,
    use ``MokhovChecker(op).residuals(relations)``."""
    checker = MokhovChecker(op)
    t0 = time.perf_counter()
    records = [_record(rel, idx, rf, op.ws, policy)
               for rel, idx, rf in checker.residuals(ALL_RELATIONS)]
    return ConditionReport(records, time.perf_counter() - t0)


# -- metric pencil analysis ----------------------------------------------------

PENCIL_PARAMS = ("lam1", "lam2", "lam3", "lam4")


@dataclass
class MetricPencil:
    ws: Workspace               # extended with the formal lambda constants
    params: list[Symbol]
    matrix: list                # n x n RationalForms, linear in the lambdas

    @classmethod
    def of(cls, op: HydroOperator) -> "MetricPencil":
        ws = op.ws.extended(list(PENCIL_PARAMS[: op.d]))
        params = ws.constants[len(op.ws.constants):]
        cache: dict = {}
        ctx = build_context(ws, _flatten(op.g), cache)
        lams = [to_rational_form(ex.Var(p), ctx) for p in params]
        rng = range(op.n)
        matrix = [[sum((lam * to_rational_form(g[i][j], ctx, cache)
                        for lam, g in zip(lams, op.g) if g[i][j] != ex.ZERO),
                       zero_form(ctx)) for j in rng] for i in rng]
        return cls(ws, params, matrix)

    @cached_property
    def determinant(self):
        """det(sum_alpha lam_alpha g^alpha) as one RationalForm."""
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


@dataclass
class DegeneracyResult:
    degenerate: bool
    certificate: ex.Expr | None  # a nonzero coefficient when not degenerate


def is_degenerate(op: HydroOperator,
                  policy: ZeroTestPolicy = DEFAULT_POLICY) -> DegeneracyResult:
    """True iff every lambda-coefficient of the pencil determinant is
    provably zero.  Probabilistic coefficient verdicts raise
    InconclusiveError."""
    pencil = op.pencil
    for exps, coeff in pencil.det_coefficients.items():
        if _proven_nonzero(coeff, pencil.ws, policy):
            monom = ex.mul(*(
                ex.pow_(ex.Var(pencil.params[a]), e)
                for a, e in enumerate(exps) if e
            ))
            return DegeneracyResult(False, ex.mul(ratform_to_expr(coeff),
                                                  monom))
    return DegeneracyResult(True, None)


def _proven_nonzero(rf, ws: Workspace, policy: ZeroTestPolicy) -> bool:
    """Is rf provably nonzero?  A probabilistic verdict raises
    InconclusiveError."""
    verdict = verdict_for_ratform(rf, ws, policy)
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
    if _proven_nonzero(pencil.determinant, pencil.ws, policy):
        return n
    for r in range(n - 1, 0, -1):
        for rows in itertools.combinations(range(n), r):
            for cols in itertools.combinations(range(n), r):
                minor = det([[pencil.matrix[i][j] for j in cols]
                             for i in rows])
                if _proven_nonzero(minor, pencil.ws, policy):
                    return r
    return 0


@dataclass
class TrivialityResult:
    trivial: bool
    xi: ex.Expr | None
    note: str = ""


def is_trivial_pair(op: HydroOperator,
                    policy: ZeroTestPolicy = DEFAULT_POLICY) -> TrivialityResult:
    """Is the 2D operator identically zero, or its y-part a constant
    multiple of its x-part (g~ = xi g, b~ = xi b)?  The entries, xi and
    d xi/du are rational forms of one derivation context; pairs of zero
    entries are skipped, and entries are converted when first needed."""
    if op.d != 2:
        raise OperatorError("triviality is defined for d = 2 operators")
    ws = op.ws
    entries = list(op.entries())    # the x-part's, then the y-part's
    half = len(entries) // 2
    pairs = [(x, y) for x, y in zip(entries[:half], entries[half:])
             if x != ex.ZERO or y != ex.ZERO]
    cache: dict = {}
    ctx = derivation_context(ws, ws.variables, [(list(_flatten(pairs)), 1)],
                             cache)
    conv = lambda e: to_rational_form(e, ctx, cache)
    nonzero = lambda rf: _proven_nonzero(rf, ws, policy)

    def product(a, b):
        """a*b, not formed when a factor is zero"""
        return zero_form(ctx) if a.is_zero or b.is_zero else a * b

    ref = next((pair for pair in pairs if nonzero(conv(pair[0]))), None)
    if ref is None:
        # x-part vanishes identically: trivial only if y does as well
        if any(nonzero(conv(y)) for _, y in pairs):
            return TrivialityResult(False, None,
                                    "x-part zero but y-part nonzero")
        return TrivialityResult(True, ex.ZERO, "identically zero operator")

    x_ref, y_ref = map(conv, ref)
    xi = y_ref / x_ref
    if any(nonzero(Derivation(ctx, v, cache)(xi)) for v in ws.variables):
        return TrivialityResult(
            False, None,
            f"proportionality factor {ratform_to_expr(xi)} is not constant",
        )
    if any(nonzero(product(conv(y), x_ref) - product(conv(x), y_ref))
           for x, y in pairs):
        return TrivialityResult(False, None, "not proportional")
    return TrivialityResult(True, ratform_to_expr(xi))


# -- pencil compatibility --------------------------------------------------------

def pencil_compatibility(
        opx: HydroOperator, opy: HydroOperator,
        policy: ZeroTestPolicy = DEFAULT_POLICY) -> ConditionReport:
    """Forms the 1D operator g_x + lam g_y, b_x + lam b_y with a formal
    constant lam and checks a1..a7 identically in lam; one record per
    lambda power of each residual."""
    if opx.d != 1 or opy.d != 1:
        raise OperatorError("compatibility expects two 1D operators")
    if opx.n != opy.n or opx.ws is not opy.ws:
        raise OperatorError("operators must share components and workspace")
    ws = opx.ws.extended(["lam"])
    lam = ws.constants[-1]
    n = opx.n
    g = [[[ex.add(opx.g[0][i][j], ex.mul(ex.Var(lam), opy.g[0][i][j]))
           for j in range(n)] for i in range(n)]]
    b = [[[[ex.add(opx.b[0][i][j][k], ex.mul(ex.Var(lam), opy.b[0][i][j][k]))
            for k in range(n)] for j in range(n)] for i in range(n)]]
    pencil_op = HydroOperator(ws, 1, n, g, b)

    t0 = time.perf_counter()
    records = []
    for rel, idx, rf in MokhovChecker(pencil_op).residuals(ALL_RELATIONS):
        parts = {(0,): rf} if rf.is_zero else coefficients_in(rf, [lam.name])
        for (power,), coeff in parts.items():
            records.append(
                _record(rel, idx + (f"lam^{power}",), coeff, ws, policy))
    return ConditionReport(records, time.perf_counter() - t0)
