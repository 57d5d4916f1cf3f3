"""Randomized property suites over a seeded expression generator.

Each suite runs at least 1000 cases: differentiation linearity and the
Leibniz rule, commuting mixed partials, normalize idempotence, parser
round-trip, and the form evaluator against sympy.  A hypothesis suite
checks the sparse Mokhov residual assembly against a dense reference on
random operators (d <= 3), further checks do so on explicit d = 4 operators
and on every catalog entry, the reports' records are checked against an
eager enumeration of every residual, a hypothesis suite checks the pencil
compatibility records against the pencil g_x + lam g_y checked as a 1D
operator, and one checks the cofactor determinant against the Leibniz
sum.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hydroham import (
    Workspace,
    normalize,
    parse,
    print_expr,
)
from hydroham import catalog, mutation
from hydroham.calculus import differentiate
from hydroham import expr as ex
from hydroham.fileio import load_change
from hydroham.operators import (
    ALL_RELATIONS,
    ALPHA_LABELS,
    HydroOperator,
    MokhovChecker,
    _record,
    check_hamiltonian,
    operator_from_entries,
    pencil_compatibility,
)
from hydroham.ratform import (
    Derivation,
    NormalizeError,
    ZeroDenominatorError,
    build_context,
    coefficients_in,
    det,
    to_rational_form,
)
from hydroham.transform import (
    operator_difference_records,
    pushforward,
    verify_invariance,
)
from hydroham.zerotest import (
    DEFAULT_POLICY,
    EvaluationError,
    SingularPointError,
    form_value,
)
from sympy_oracle import as_fraction, sympy_value

N_CASES = 1000


def make_ws():
    ws = Workspace()
    ws.add_variables("u1", "u2", "u3")
    ws.add_function("f", ["u2", "u3"])
    ws.add_function("q", ["u3"])
    return ws.freeze()


WS = make_ws()
VARS = [WS.require_symbol(n) for n in ("u1", "u2", "u3")]


def random_expr(rng: random.Random, depth: int, atoms=True) -> ex.Expr:
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.35:
            return ex.Rat(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        if choice < 0.85 or not atoms:
            return ex.Var(rng.choice(VARS))
        if rng.random() < 0.5:
            return ex.func_atom(WS.functions["f"],
                                deriv=(rng.randint(0, 1), rng.randint(0, 1)))
        return ex.func_atom(WS.functions["q"], deriv=(rng.randint(0, 2),))
    op = rng.choice(["add", "add", "mul", "mul", "pow", "quot"])
    if op == "add":
        return ex.add(*(random_expr(rng, depth - 1, atoms)
                        for _ in range(rng.randint(2, 3))))
    if op == "mul":
        return ex.mul(*(random_expr(rng, depth - 1, atoms)
                        for _ in range(rng.randint(2, 3))))
    if op == "pow":
        return ex.pow_(random_expr(rng, depth - 1, atoms), rng.randint(1, 3))
    num = random_expr(rng, depth - 1, atoms)
    den = random_expr(rng, depth - 1, atoms)
    try:
        return ex.div(num, den)
    except ZeroDivisionError:
        return num


def generate(rng, depth=3, atoms=True):
    """A random expression with a well-defined normal form."""
    while True:
        e = random_expr(rng, depth, atoms)
        try:
            normalize(e, WS)
            return e
        except ZeroDenominatorError:
            continue


def is_provenly_zero(e) -> bool:
    return normalize(e, WS).is_zero


def test_differentiation_linearity_and_leibniz():
    rng = random.Random(101)
    for case in range(N_CASES):
        a = generate(rng, depth=2)
        b = generate(rng, depth=2)
        v = rng.choice(VARS)
        da, db = differentiate(a, v), differentiate(b, v)
        lin = differentiate(ex.add(a, b), v) - da - db
        assert is_provenly_zero(lin), (case, a, b)
        leib = differentiate(ex.mul(a, b), v) - ex.mul(a, db) - ex.mul(b, da)
        assert is_provenly_zero(leib), (case, a, b)


def test_mixed_partials_commute():
    rng = random.Random(202)
    for case in range(N_CASES):
        e = generate(rng, depth=3)
        v1, v2 = rng.sample(VARS, 2)
        d12 = differentiate(differentiate(e, v1), v2)
        d21 = differentiate(differentiate(e, v2), v1)
        assert is_provenly_zero(d12 - d21), (case, e)


def test_normalize_idempotent():
    rng = random.Random(303)
    from hydroham.ratform import ratform_to_expr

    for case in range(N_CASES):
        e = generate(rng, depth=3)
        rf = normalize(e, WS)
        e2 = ratform_to_expr(rf)
        ctx = build_context(WS, [e, e2])
        ra = to_rational_form(e, ctx)
        rb = to_rational_form(e2, ctx)
        assert ra.num == rb.num and ra.den == rb.den, (case, e)


def test_parser_round_trip():
    rng = random.Random(404)
    for case in range(N_CASES):
        e = generate(rng, depth=3)
        text = print_expr(e)
        again = parse(text, WS)
        assert again == e, (case, text)
        assert print_expr(again) == text, (case, text)


def call_expr(rng: random.Random, depth: int) -> ex.Expr:
    """A random rational expression in u1..u3 joined to exp, ln or sqrt
    of another, which may hold calls of its own."""
    arg = (random_expr(rng, depth - 1, atoms=False)
           if depth == 1 or rng.random() < 0.5 else call_expr(rng, depth - 1))
    inner = ex.call(rng.choice(["exp", "ln", "sqrt"]), arg)
    return rng.choice([ex.add, ex.mul, ex.div])(
        random_expr(rng, depth - 1, atoms=False), inner)


# an exact argument numerator over a real denominator, which the sampler
# once divided as a Fraction by an mpf
DIVISION_CASES = ["ln(1/exp(u1)) + u1", "sqrt(1/exp(u1))", "1/exp(u1)"]


def test_evaluation_consistency():
    """form_value against the sympy oracle on the printed expression, at
    seeded rational points: N_CASES rational expressions, whose values
    must be exact and equal, and N_CASES with exp/ln/sqrt whose values
    are real, which must agree to half the working precision.  Points
    where either side has no real value (a vanishing denominator, ln or
    sqrt outside its domain, an exp argument past MAX_EXP_ARG) are
    skipped: the form may be defined where the printed tree is not, as at
    a removable singularity."""
    rng = random.Random(505)
    precision = 64
    tol = sympy.Float(2, 60) ** (-(precision // 2))
    checked = {"rational": 0, "real": 0}
    cases = [(True, parse(t, WS)) for t in DIVISION_CASES]
    while min(checked.values()) < N_CASES:
        if not cases:
            calls = checked["rational"] >= N_CASES
            cases.append((calls, call_expr(rng, 3) if calls
                          else random_expr(rng, 3, atoms=False)))
        calls, e = cases.pop()
        point = {v.name: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for v in VARS}
        try:
            rf = normalize(e, WS)
            got = form_value(rf, lambda i, key, ctx: point[key],
                             precision)[0]
        except (NormalizeError, SingularPointError, EvaluationError):
            continue
        want = sympy_value(print_expr(e), point)
        if not calls:
            if want.is_Rational:    # not zoo or nan
                assert isinstance(got, Fraction), (e, point)
                assert got == as_fraction(want), (e, point)
                checked["rational"] += 1
            continue
        if not (want.is_finite and want.is_real):
            continue
        # exact where the calls fold or cancel, as in exp(0) or ln(1)
        g = (sympy.Rational(got.numerator, got.denominator)
             if isinstance(got, Fraction) else sympy.Float(got, 60))
        w = want.evalf(60)
        assert abs(g - w) <= tol * (1 + abs(w)), (e, point, got, w)
        checked["real"] += not isinstance(got, Fraction)


# -- sparse residual assembly against a dense reference ------------------------

def dense_residuals(checker):
    """(relation, indices, form) of every residual of a1..a7, zero or not,
    in the checker's order, written from the formulas with every sum taken
    over all s.  The tables are
    converted afresh from the operator's Exprs; derivatives of the
    entries come from calculus.differentiate."""
    op, ctx = checker.op, checker.ctx
    d, n = op.d, op.n
    rng = range(n)
    us = op.variables
    conv = lambda e: to_rational_form(e, ctx)
    G = [[[conv(op.g[a][i][j]) for j in rng] for i in rng] for a in range(d)]
    B = [[[[conv(op.b[a][i][j][k]) for k in rng] for j in rng] for i in rng]
         for a in range(d)]
    DG = [[[[conv(differentiate(op.g[a][i][j], us[k])) for k in rng]
            for j in rng] for i in rng] for a in range(d)]
    DB = [[[[[conv(differentiate(op.b[a][i][j][k], us[m])) for m in rng]
             for k in rng] for j in rng] for i in rng] for a in range(d)]
    deriv = [Derivation(ctx, u) for u in us]
    zero = ctx.zero
    L = ALPHA_LABELS
    alphas = list(itertools.product(range(d), repeat=2))

    @functools.cache
    def bracket(al, be, i, j, r, q):
        acc = zero
        for s in rng:
            acc = acc + G[al][s][i] * (DB[be][j][r][s][q] - DB[be][j][r][q][s])
            acc = acc + B[al][i][j][s] * B[be][s][r][q]
            acc = acc - B[al][i][r][s] * B[be][s][j][q]
        return acc

    def half(al, be, i, j, r, q, k):
        acc = deriv[k](bracket(al, be, i, j, r, q))
        for ii, jj, rr in ((i, j, r), (j, r, i), (r, i, j)):
            for s in rng:
                acc = acc + B[be][s][ii][q] * (DB[al][jj][rr][k][s]
                                               - DB[al][jj][rr][s][k])
        return acc

    for a in range(d):
        for i in rng:
            for j in range(i + 1, n):
                yield "a1", (L[a], i + 1, j + 1), G[a][i][j] - G[a][j][i]
    for a in range(d):
        for i, j, k in itertools.product(rng, repeat=3):
            yield "a2", (L[a], i + 1, j + 1, k + 1), \
                DG[a][i][j][k] - B[a][i][j][k] - B[a][j][i][k]
    for a, be in alphas:
        for i, j, r in itertools.product(rng, repeat=3):
            acc = zero
            for al, bt in ((a, be), (be, a)):
                for s in rng:
                    acc = acc + G[al][s][i] * B[bt][j][r][s]
                    acc = acc - G[bt][s][j] * B[al][i][r][s]
            yield "a3", (L[a], L[be], i + 1, j + 1, r + 1), acc
    for a, be in alphas:
        for i, j, r in itertools.product(rng, repeat=3):
            acc = zero
            for ii, jj, rr in ((i, j, r), (j, r, i), (r, i, j)):
                for s in rng:
                    acc = acc + G[a][s][ii] * B[be][jj][rr][s]
                    acc = acc - G[be][s][jj] * B[a][ii][rr][s]
            yield "a4", (L[a], L[be], i + 1, j + 1, r + 1), acc
    for a, be in alphas:
        for i, j, r, q in itertools.product(rng, repeat=4):
            yield "a5", (L[a], L[be], i + 1, j + 1, r + 1, q + 1), \
                bracket(a, be, i, j, r, q) + bracket(be, a, i, j, r, q)
    for a, be in alphas:
        for i, j, r, q in itertools.product(rng, repeat=4):
            acc = zero
            for s in rng:
                acc = acc + G[be][s][i] * DB[a][j][r][q][s]
                acc = acc - B[be][i][j][s] * B[a][s][r][q]
                acc = acc - B[be][i][r][s] * B[a][j][s][q]
                acc = acc - G[a][s][j] * DB[be][i][r][q][s]
                acc = acc + B[a][j][i][s] * B[be][s][r][q]
                acc = acc + B[be][i][s][q] * B[a][j][r][s]
            yield "a6", (L[a], L[be], i + 1, j + 1, r + 1, q + 1), acc
    for a, be in alphas:
        for i, j, r, k, q in itertools.product(rng, repeat=5):
            yield "a7", (L[a], L[be], i + 1, j + 1, r + 1, k + 1, q + 1), \
                half(a, be, i, j, r, q, k) + half(be, a, i, j, r, k, q)


def _entry_text(draw, n, atoms=False):
    """0 about three times in four, else a constant, a low-degree monomial
    sum in u or a constant over one u; with atoms, also a multiple of the
    abstract f(u1..un), of its first partial or of exp of one u."""
    kind = draw(st.sampled_from(["0"] * 12 + ["const", "poly", "poly", "inv"]
                                + ["f", "f_1", "exp"] * atoms))
    if kind == "0":
        return "0"
    c = draw(st.sampled_from(["1", "-1", "2", "-3", "1/2"]))
    u = lambda: f"u{draw(st.integers(1, n))}"
    if kind == "const":
        return c
    if kind == "inv":
        return f"{c}/{u()}"
    if kind == "exp":
        return f"{c}*exp({u()})"
    if kind != "poly":
        return f"{c}*{u()}*{kind}"
    terms = [c + "".join(f"*{u()}" for _ in range(draw(st.integers(0, 2))))
             for _ in range(draw(st.integers(1, 2)))]
    return " + ".join(terms)


@st.composite
def sparse_operators(draw, d=None, atoms=False):
    """Operators with d (1 to 3 when not given) alphas and up to three
    components; with atoms, entries may hold an abstract f(u1..un) and exp."""
    d = d or draw(st.integers(1, 3))
    n = draw(st.integers(1, 2 if d == 3 else 3))
    ws = Workspace()
    us = [f"u{i}" for i in range(1, n + 1)]
    ws.add_variables(*us)
    if atoms:
        ws.add_function("f", us)
    ws.freeze()
    cells = lambda k: itertools.product(range(d), *[range(1, n + 1)] * k)
    g = {key: parse(_entry_text(draw, n, atoms), ws) for key in cells(2)}
    b = {key: parse(_entry_text(draw, n, atoms), ws) for key in cells(3)}
    return operator_from_entries(ws, d, n, g, b)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(sparse_operators())
def test_sparse_residuals_match_dense_reference(op):
    assert_matches_dense(MokhovChecker(op))


def _d4_operator(g_text, b_text):
    """A d = 4, n = 2 operator from {(alpha, i, j): text} and
    {(alpha, i, j, k): text}, alpha 0..3 for x, y, z, w."""
    ws = Workspace()
    ws.add_variables("u1", "u2")
    ws.freeze()
    return operator_from_entries(
        ws, 4, 2, {key: parse(t, ws) for key, t in g_text.items()},
        {key: parse(t, ws) for key, t in b_text.items()})


# d = 4 operators whose nonzero residuals pair w with x, y and z, so a
# walk that sorted the labels as strings ("w" < "x") would misplace them
D4_OPERATORS = {
    "w-and-x": ({(0, 1, 1): "1", (3, 1, 2): "u1", (3, 2, 1): "u1"},
                {(3, 1, 2, 1): "1", (0, 2, 2, 1): "1/u1"}),
    "every-alpha": ({(a, i, i): f"{a + 1}*u{i}" for a in range(4)
                     for i in (1, 2)},
                    {(a, 1, 2, 2): "u1" for a in (1, 3)}),
    "w-only": ({(3, 1, 1): "u2", (3, 2, 2): "1"},
               {(3, 1, 2, 1): "1/2", (3, 2, 1, 2): "-u1"}),
}


@pytest.mark.parametrize("name", sorted(D4_OPERATORS))
def test_d4_residuals_match_dense_reference(name):
    op = _d4_operator(*D4_OPERATORS[name])
    assert_matches_dense(MokhovChecker(op))
    assert check_hamiltonian(op).records == eager_records(op)


@pytest.mark.parametrize("entry_id", [e.id for e in catalog.ENTRIES])
def test_catalog_residuals_match_dense_reference(entry_id):
    """Every residual of a catalog entry vanishes, but its terms do not:
    the sparse tables must cancel them exactly as the dense sums do."""
    assert_matches_dense(MokhovChecker(catalog.instantiate(entry_id)[0]))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(sparse_operators())
def test_sparse_relations_alone_match_dense_reference(op):
    assert_relations_alone_match_dense(op)


@pytest.mark.parametrize("name", sorted(D4_OPERATORS))
def test_d4_relations_alone_match_dense_reference(name):
    assert_relations_alone_match_dense(_d4_operator(*D4_OPERATORS[name]))


def assert_relations_alone_match_dense(op):
    """a5, a6 and a7, each run alone on a fresh checker, yield the nonzero
    residuals of the dense reference: the bracket blocks they share do not
    depend on an earlier relation having run."""
    want = [(rel, idx, rf.num, rf.den)
            for rel, idx, rf in dense_residuals(MokhovChecker(op))
            if not rf.is_zero]
    for rel in ("a5", "a6", "a7"):
        got = [(r, idx, rf.num, rf.den)
               for r, idx, rf in MokhovChecker(op).residuals((rel,))]
        assert got == [w for w in want if w[0] == rel], rel


def assert_matches_dense(checker):
    """The checker yields the nonzero residuals of the dense reference, in
    its order; the reference lists every index, so the zero residuals the
    checker skips are checked too."""
    got = [(rel, idx, rf.num, rf.den)
           for rel, idx, rf in checker.residuals(ALL_RELATIONS)]
    want = [(rel, idx, rf.num, rf.den)
            for rel, idx, rf in dense_residuals(checker) if not rf.is_zero]
    assert got == want


# -- lazy report records against an eager enumeration -------------------------

def eager_records(op):
    """The record of every residual of check_hamiltonian(op), zero or not,
    built from the dense reference."""
    return [_record(rel, idx, rf, DEFAULT_POLICY)
            for rel, idx, rf in dense_residuals(MokhovChecker(op))]


@pytest.mark.parametrize("entry_id", [e.id for e in catalog.ENTRIES])
def test_catalog_records_match_eager_enumeration(entry_id):
    op = catalog.instantiate(entry_id)[0]
    report = check_hamiltonian(op)
    assert report.nonzero == [] and report.overall == "proven_pass"
    assert report.records == eager_records(op)
    assert report.count == len(report.records)


def test_survivor_records_match_eager_enumeration():
    survivors = [mut for entry in catalog.ENTRIES for _m, mut
                 in mutation.mutants(catalog.instantiate(entry.id)[0])
                 if mutation.first_proven_failure(mut) is None]
    assert len(survivors) == 12
    for mut in survivors:
        assert check_hamiltonian(mut).records == eager_records(mut)


def _pencil_operator(op):
    """The 1D operator g_x + lam g_y, b_x + lam b_y of a 2D operator, over
    its workspace with the constant lam added."""
    ws = op.ws.derive(constants=[s.name for s in op.ws.constants] + ["lam"])
    lam = ex.Var(ws.constants[-1])

    def combine(x, y):
        if isinstance(x, list):
            return [combine(a, b) for a, b in zip(x, y)]
        return ex.add(x, ex.mul(lam, y))
    return HydroOperator(ws, 1, op.n, [combine(*op.g)], [combine(*op.b)])


def pencil_records(op):
    """The record of every lambda power of every residual of the 1D pencil
    of the 2D operator, from the dense reference: the route that checks the
    pencil itself and splits each residual by the powers of lam."""
    pencil_op = _pencil_operator(op)
    lam = pencil_op.ws.constants[-1].name
    want = []
    for rel, idx, rf in dense_residuals(MokhovChecker(pencil_op)):
        parts = {(0,): rf} if rf.is_zero else coefficients_in(rf, [lam])
        want += [_record(rel, idx + (f"lam^{p}",), c, DEFAULT_POLICY)
                 for (p,), c in parts.items()]
    return want


@pytest.mark.parametrize("flip", [False, True], ids=["gas", "gas-flip"])
def test_pencil_records_match_eager_enumeration(flip):
    gas = catalog.instantiate("P_gas")[0]
    if flip:
        gas = next(mut for _m, mut in mutation.mutants(gas))
    report = pencil_compatibility(gas)
    assert report.records == pencil_records(gas)
    assert report.overall == ("fail" if flip else "proven_pass")


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(sparse_operators(d=2, atoms=True))
def test_sparse_pencil_records_match_lambda_pencil(op):
    """The compatibility records, regrouped from the residuals of the 2D
    check, are those of the pencil checked and split by lam powers."""
    assert pencil_compatibility(op).records == pencil_records(op)


@pytest.mark.parametrize("flip", [False, True], ids=["gas", "gas-flip"])
def test_invariance_records_match_eager_enumeration(flip):
    gas = catalog.instantiate("P_gas")[0]
    if flip:
        gas = next(mut for _m, mut in mutation.mutants(gas))
    change = load_change(
        {"forward": {"u1": "v1", "u2": "v2 + 1", "u3": "v3 - v1"},
         "inverse": {"v1": "u1", "v2": "u2 - 1", "v3": "u3 + u1"}}, gas.ws)
    report = verify_invariance(gas, change)
    back = pushforward(report.pushed, change.inverted())
    want = (eager_records(report.pushed)
            + operator_difference_records(gas, back))
    assert report.records == want
    assert report.overall == ("fail" if flip else "proven_pass")


# -- the cofactor determinant against the Leibniz sum --------------------------

def _perm_sign(perm) -> int:
    """(-1)^(number of even-length cycles) of a permutation."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(rows):
    """sum over permutations p of sign(p) * prod_i rows[i][p(i)]."""
    ctx = rows[0][0].ctx
    acc = ctx.zero
    for perm in itertools.permutations(range(len(rows))):
        term = ctx.one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        acc = acc + term if _perm_sign(perm) == 1 else acc - term
    return acc


def _det_entry(draw):
    """0 about half the time, else a sum of at most two monomials in
    u1..u3, over a small polynomial denominator one time in three."""
    if draw(st.booleans()):
        return "0"
    c = lambda: draw(st.sampled_from(["1", "-1", "2", "-3", "1/2", "5/3"]))
    u = lambda: f"u{draw(st.integers(1, 3))}"
    num = " + ".join(c() + "".join(f"*{u()}" for _ in range(draw(
        st.integers(0, 2)))) for _ in range(draw(st.integers(1, 2))))
    if draw(st.integers(0, 2)):
        return num
    return f"({num})/({u()} + {c()})"


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 4))
    return [[parse(_det_entry(draw), WS) for _ in range(n)] for _ in range(n)]


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(rational_matrices())
def test_det_matches_leibniz_sum(matrix):
    ctx = build_context(WS, [e for row in matrix for e in row])
    rows = [[to_rational_form(e, ctx) for e in row] for row in matrix]
    got, want = det(rows), leibniz_det(rows)
    assert (got.num, got.den) == (want.num, want.den)
