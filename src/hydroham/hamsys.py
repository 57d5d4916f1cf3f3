"""2+1 quasilinear systems generated by (operator, Hamiltonian density).

u_t + A u_x + B u_y = 0 with A^i_k = sum_j (g^{ij,x} h_{jk} + b^{ij,x}_k h_j)
and B likewise from the y coefficients.  Includes the dispersion relation,
the commuting-flow and reduction residuals, the hodograph residuals, and
the structural classifier for systems generated with an abstract density.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import expr as ex
from .operators import (
    HydroOperator,
    MetricPencil,
    OperatorForms,
    _map_nested,
    is_trivial_pair,
)
from .ratform import (
    composed,
    derivation_context,
    ratform_to_expr,
    to_rational_form,
)
from .symbols import InputError, Symbol, Workspace
from .zerotest import (
    DEFAULT_POLICY,
    EvaluationError,
    ZeroTestPolicy,
    form_value,
    verdict_for_ratform,
)


class HamsysError(InputError):
    pass


class DegenerateCandidateError(HamsysError):
    """Two characteristic speeds coincide as expressions."""


class HamiltonianDensity:
    def __init__(self, h: ex.Expr, ws: Workspace):
        self.h, self.ws = h, ws

    @classmethod
    def abstract(cls, ws: Workspace, n: int, name: str = "h"):
        """A fully generic density h(u^1..u^n) as an abstract atom."""
        fresh = ws.fresh_name(name)
        ws2 = ws.derive(
            functions=[(fresh, [s.name for s in ws.variables[:n]])])
        return cls(ex.func_atom(ws2.functions[fresh]), ws2)


class QuasilinearSystem:
    """u_t + A u_x + B u_y = 0 as rational forms of one derivation context
    over the workspace: ``matrices`` [A, B] and d2h[j][k] = d_k d_j h.
    A and B are printed to Exprs when first read."""

    def __init__(self, ws: Workspace, n: int, matrices: list, d2h: list):
        self.ws, self.n, self.matrices, self.d2h = ws, n, matrices, d2h

    A = cached_property(lambda s: _map_nested(s.matrices[0], ratform_to_expr))
    B = cached_property(lambda s: _map_nested(s.matrices[1], ratform_to_expr))


# the formal parameters of the dispersion relation det(E + lam A + mu B)
DISPERSION_PARAMS = ("lam", "mu")


def generate_system(op: HydroOperator,
                    h: HamiltonianDensity | ex.Expr) -> QuasilinearSystem:
    """A^i_k = sum_j (g^{ij,x} h_{u^j u^k} + b^{ij,x}_k h_{u^j}); B from the
    y part.  d = 1 operators get B = 0.  The operator's forms are moved to
    one ring with h and the dispersion parameters, where h is
    differentiated and the products taken."""
    if op.d > 2:
        raise HamsysError("system generation supports d <= 2")
    if isinstance(h, HamiltonianDensity):
        ws, h_expr = h.ws, h.h
    else:
        ws, h_expr = op.ws, h
    n = op.n
    bad = ex.free_symbols(h_expr) - set(ws.variables) - set(ws.constants)
    if bad:
        raise HamsysError(
            f"density uses unregistered symbols {sorted(s.name for s in bad)}"
        )
    G, B = composed([op.forms.G, op.forms.B], {}, ws, ws.variables[:n],
                    [([h_expr], 2)], params=DISPERSION_PARAMS)
    ctx = G[0][0][0].ctx
    dh = ctx.gradient(to_rational_form(h_expr, ctx))
    d2h = [ctx.gradient(dh_j) for dh_j in dh]
    zero = ctx.zero
    rng = range(n)

    def matrix(alpha: int):
        if alpha >= op.d:
            return [[zero] * n for _ in rng]
        return [[sum((G[alpha][i][j] * d2h[j][k] + B[alpha][i][j][k] * dh[j]
                      for j in rng), zero) for k in rng] for i in rng]

    return QuasilinearSystem(ws, n, [matrix(0), matrix(1)], d2h)


class DispersionRelation:
    def __init__(self, params: tuple[Symbol, ...], det: ex.Expr,
                 coefficients: dict):
        self.params, self.det = params, det
        # (i, j) exponents of (lam, mu) -> Expr
        self.coefficients = coefficients


def dispersion(sys: QuasilinearSystem) -> DispersionRelation:
    """det(E + lam A + mu B) expanded as a polynomial in the formal
    parameters lam, mu of the system's ring."""
    pencil = MetricPencil(sys.matrices, unit=1)
    return DispersionRelation(
        pencil.params, ratform_to_expr(pencil.determinant),
        {exps: ratform_to_expr(c)
         for exps, c in pencil.det_coefficients.items()})


# -- hydrodynamic reduction candidates ----------------------------------------

class ReductionCandidate:
    """u = u(R^1..R^m) with R^i_t = lambda^i R^i_x, R^i_y = mu^i R^i_x."""

    def __init__(self, ws: Workspace, m: int, u: list[ex.Expr],
                 lam: list[ex.Expr], mu: list[ex.Expr],
                 v: list[ex.Expr] | None = None):
        self.ws, self.m = ws, m  # ws: the workspace of the R variables
        self.u = u               # n expressions in R
        self.lam, self.mu = lam, mu  # m characteristic speeds each
        self.v = v               # optional commuting-flow speeds

    @property
    def r_vars(self) -> list[Symbol]:
        return self.ws.variables[: self.m]


def _speed_forms(c: ReductionCandidate, *families) -> list:
    """Lists of Exprs in R as forms of one derivation context over R."""
    ctx = derivation_context(c.ws, c.r_vars, [(sum(families, []), 1)])
    return [[to_rational_form(e, ctx) for e in fam] for fam in families]


def commutativity_residual(c: ReductionCandidate,
                           policy: ZeroTestPolicy = DEFAULT_POLICY):
    """Cleared-denominator commutation constraints, as forms over R:
    d_j lam^i (mu^j - mu^i) - d_j mu^i (lam^j - lam^i), i != j.  Each
    unordered pair of speeds is tested once for coinciding."""
    if c.m < 2:
        raise HamsysError("commutativity needs m >= 2")
    lam, mu = _speed_forms(c, c.lam, c.mu)
    for i in range(c.m):
        for j in range(i + 1, c.m):
            if any(verdict_for_ratform(f[i] - f[j], policy).is_zero_verdict
                   for f in (lam, mu)):
                raise DegenerateCandidateError(
                    f"speeds {i + 1} and {j + 1} coincide"
                )
    return [((i + 1, j + 1), _cleared_commutator(lam, mu, i, j))
            for i in range(c.m) for j in range(c.m) if i != j]


def _cleared_commutator(X, Y, i: int, j: int):
    """d_j X^i (Y^j - Y^i) - d_j Y^i (X^j - X^i) for speed forms X and Y:
    their flows commute iff it vanishes for all i != j."""
    d = X[i].ctx.deriv[j]
    return d(X[i]) * (Y[j] - Y[i]) - d(Y[i]) * (X[j] - X[i])


def reduction_residual(c: ReductionCandidate, sys: QuasilinearSystem):
    """(E + lam^i A + mu^i B) d_i u after substituting u = u(R); n*m
    rational forms of one derivation context over R."""
    n = sys.n
    A, B = composed(
        sys.matrices, {u.name: e for u, e in zip(sys.ws.variables[:n], c.u)},
        c.ws, c.r_vars, [(c.u, 1), (c.lam + c.mu, 0)])
    ctx = A[0][0].ctx
    U, lam, mu = _map_nested([c.u, c.lam, c.mu],
                             lambda e: to_rational_form(e, ctx))
    out = []
    for i, d in enumerate(ctx.deriv):
        du = [d(x) for x in U]
        for row in range(n):
            out.append(((i + 1, row + 1), sum(
                ((lam[i] * A[row][k] + mu[i] * B[row][k]) * du[k]
                 for k in range(n) if not du[k].is_zero), du[row])))
    return out


def hodograph_residual(c: ReductionCandidate, point: dict, t, x, y,
                       policy: ZeroTestPolicy = DEFAULT_POLICY):
    """Residual forms over R of the commuting-flow linear system for v^i,
    and the values of the forms v^i - x - lam^i t - mu^i y at the point
    {name of R^i: value}: exact when rational, else reals at the policy's
    precision."""
    if c.v is None:
        raise HamsysError("candidate carries no commuting-flow speeds v")
    v, lam, mu = _speed_forms(c, c.v, c.lam, c.mu)
    # d_j v^i (lam^j - lam^i) = d_j lam^i (v^j - v^i), and the same against
    # the mu family
    symbolic = [
        ((i + 1, j + 1, fam_name), _cleared_commutator(v, fam, i, j))
        for i in range(c.m) for j in range(c.m) if i != j
        for fam_name, fam in (("lam", lam), ("mu", mu))
    ]

    def value_of(i, key, ctx):
        if i >= ctx.n_vars:
            raise EvaluationError(
                f"abstract atom {ctx.gen_expr(i)} has no assigned value")
        if key not in point:
            raise EvaluationError(f"no value assigned to {key}")
        return Fraction(point[key])

    T, X, Y = (to_rational_form(ex.Rat(Fraction(k)), v[0].ctx)
               for k in (t, x, y))
    numeric = []
    for i in range(c.m):
        form = v[i] - X - lam[i] * T - mu[i] * Y
        try:
            numeric.append(
                (i + 1, form_value(form, value_of, policy.precision)[0]))
        except EvaluationError as e:
            where = ", ".join(f"{k}={v}" for k, v in point.items())
            raise type(e)(f"v{i + 1} at {where}: {e}") from None
    return symbolic, numeric


# -- reduced-shape classification ----------------------------------------------

TRIVIAL = "trivial"
TRANSPORT_1D = "transport-1D"
DECOUPLED_2C = "decoupled-2-component"
EULER_LAGRANGE = "euler-lagrange-reducible"
UNCLASSIFIED = "unclassified"


class ShapeResult:
    def __init__(self, kind: str, form: object = None,
                 frozen: list[str] | None = None):
        self.kind = kind
        self.form = form  # 1 | 2 | 3 | "1d" for decoupled systems
        self.frozen = frozen or []

    def __str__(self):
        tag = self.kind if self.form is None else f"{self.kind}({self.form})"
        if self.frozen:
            tag += f" [frozen: {', '.join(self.frozen)}]"
        return tag


def classify_operator_shape(op: HydroOperator,
                            policy: ZeroTestPolicy = DEFAULT_POLICY) -> ShapeResult:
    """Classify the reduced shape of the system the operator generates with
    an abstract density, by the freezing cascade and coordinate-change
    invariants.  Each step builds the system once, as rational forms, and
    the zero tests run on those forms."""
    zero = lambda rf: verdict_for_ratform(rf, policy).is_zero_verdict
    frozen_names: list[str] = []
    current = op
    while True:
        sys_ = generate_system(current, HamiltonianDensity.abstract(
            current.ws, current.n))
        if current.n == 1:
            # a zero row freezes the last component (fully trivial system);
            # a surviving transport row is the reduced outcome itself
            if all(zero(m[0][0]) for m in sys_.matrices):
                frozen_names.append(current.ws.variables[0].name)
                return ShapeResult(TRIVIAL, frozen=frozen_names)
            return ShapeResult(TRANSPORT_1D, frozen=frozen_names)
        row = _freezable_row(sys_, zero)
        if row is None:
            break
        frozen_names.append(current.ws.variables[row].name)
        current = _freeze_component(current, row)

    n = current.n
    if n == 2:
        form = _decoupled_form(current, zero, policy)
        return ShapeResult(DECOUPLED_2C, form, frozen_names)
    if n == 3 and _is_euler_lagrange(sys_, zero):
        return ShapeResult(EULER_LAGRANGE, frozen=frozen_names)
    return ShapeResult(UNCLASSIFIED, frozen=frozen_names)


def _freezable_row(sys_: QuasilinearSystem, zero) -> int | None:
    """First row i with A^i_k = B^i_k = 0 for every k != i (so the row reads
    u^i_t + phi u^i_x + psi u^i_y = 0)."""
    n = sys_.n
    for i in range(n):
        if all(zero(m[i][k]) for k in range(n) if k != i
               for m in sys_.matrices):
            return i
    return None


_FROZEN_PREFIX = "c"


def _freeze_component(op: HydroOperator, index: int) -> HydroOperator:
    """Remove component `index`, replacing the variable by a fresh formal
    constant in the remaining entries: their forms, composed in the ring."""
    old_ws = op.ws
    keep = [i for i in range(op.n) if i != index]
    frozen_sym = old_ws.variables[index]
    const_name = f"{_FROZEN_PREFIX}{frozen_sym.name}"

    ws = old_ws.derive(
        variables=[old_ws.variables[i].name for i in keep]
        + [s.name for s in old_ws.variables[op.n:]],
        constants=[s.name for s in old_ws.constants] + [const_name],
    )

    G, B = op.forms.G, op.forms.B
    g = [[[G[a][i][j] for j in keep] for i in keep] for a in range(op.d)]
    b = [[[[B[a][i][j][k] for k in keep] for j in keep] for i in keep]
         for a in range(op.d)]
    return HydroOperator.of_forms(ws, op.d, len(keep), OperatorForms.composed(
        [g, b], {frozen_sym.name: ex.Var(ws.require_symbol(const_name))}, ws,
        len(keep)))


def _decoupled_form(op: HydroOperator, zero, policy):
    """Invariants of the frozen 2x2 pair: proportional pair -> "1d" (a d = 1
    operator is a pair with zero y-part, proportional with xi = 0);
    non-constant metrics -> Mokhov form 3; else the pencil-determinant
    discriminant separates diag(d_x, d_y) (two roots) from the triangular
    form (double root)."""
    if op.d == 1 or is_trivial_pair(op, policy).trivial:
        return "1d"
    if any(not zero(d(e)) for g in op.forms.G for row in g for e in row
           for d in e.ctx.deriv):
        return 3
    # det(lam1 g_x + lam2 g_y) = c20 lam1^2 + c11 lam1 lam2 + c02 lam2^2
    pencil = op.pencil
    zero_coeff = pencil.matrix[0][0].ctx.zero
    c20, c11, c02 = (pencil.det_coefficients.get(m, zero_coeff)
                     for m in ((2, 0), (1, 1), (0, 2)))
    return 2 if zero(c11 * c11 - (c20 * c02).scaled(4)) else 1


def _is_euler_lagrange(sys_: QuasilinearSystem, zero) -> bool:
    """Does the abstract-h system match the potential three-component form
    u1_t + (h_2)_x + (h_3)_y, u2_t + (h_1)_x, u3_t + (h_1)_y up to row-wise
    multiples of the potentiality combination u2_y - u3_x?"""
    # per row, the 0-based j of the x- and y-flux h_{j+1}, whose d_k is
    # d2h[j][k]
    targets = [(1, 2), (0, None), (None, 0)]
    A, B = sys_.matrices
    for row, (fx, fy) in enumerate(targets):
        dA = [A[row][k] if fx is None else A[row][k] - sys_.d2h[fx][k]
              for k in range(3)]
        dB = [B[row][k] if fy is None else B[row][k] - sys_.d2h[fy][k]
              for k in range(3)]
        # residual row must be c(u) * (u2_y - u3_x): only dA[2] and dB[1]
        # may survive, with dB[1] = -dA[2]
        survivors = (dA[0], dA[1], dB[0], dB[2], dB[1] + dA[2])
        if not all(zero(e) for e in survivors):
            return False
    return True
