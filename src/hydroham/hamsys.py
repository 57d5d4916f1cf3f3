"""2+1 quasilinear systems generated by (operator, Hamiltonian density).

u_t + A u_x + B u_y = 0 with A^i_k = sum_j (g^{ij,x} h_{jk} + b^{ij,x}_k h_j)
and B likewise from the y coefficients.  Includes the dispersion relation,
the commuting-flow and reduction residuals, the hodograph residuals, and
the structural classifier for systems generated with an abstract density.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import expr as ex
from .calculus import differentiate, substitute
from .operators import (
    HydroOperator,
    _flatten,
    _map_nested,
    is_trivial_pair,
)
from .ratform import (
    coefficients_in,
    derivation_context,
    det,
    matrix_forms,
    ratform_to_expr,
    to_rational_form,
)
from .symbols import InputError, Symbol, Workspace
from .zerotest import (
    DEFAULT_POLICY,
    EvaluationError,
    Point,
    ZeroTestPolicy,
    evaluate,
    is_zero,
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
        arg_names = [s.name for s in ws.variables[:n]]
        fresh = name
        k = 0
        while ws.lookup(fresh) is not None:
            k += 1
            fresh = f"{name}{k}"
        ws2 = ws.derive(functions=[(fresh, arg_names)])
        atom = ex.func_atom(ws2.functions[fresh])
        return cls(atom, ws2)


class QuasilinearSystem:
    def __init__(self, ws: Workspace, n: int, A: list, B: list):
        self.ws, self.n = ws, n
        self.A, self.B = A, B  # n x n Exprs


# A, B, the metrics G and d2h[j][k] = d_k d_j h as rational forms of one
# derivation context, which holds G to first order
_SystemForms = namedtuple("_SystemForms", "ws A B G d2h")


def _system_forms(op: HydroOperator,
                  h: HamiltonianDensity | ex.Expr) -> _SystemForms:
    if op.d > 2:
        raise HamsysError("system generation supports d <= 2")
    if isinstance(h, HamiltonianDensity):
        ws, h_expr = h.ws, h.h
    else:
        ws, h_expr = op.ws, h
    n = op.n
    vars_ = ws.variables[:n]
    bad = ex.free_symbols(h_expr) - set(ws.variables) - set(ws.constants)
    if bad:
        raise HamsysError(
            f"density uses unregistered symbols {sorted(s.name for s in bad)}"
        )
    ctx = derivation_context(ws, vars_, [
        ([h_expr], 2), (list(_flatten(op.g)), 1), (list(_flatten(op.b)), 0),
    ])
    conv = lambda e: to_rational_form(e, ctx)
    G, B = _map_nested(op.g, conv), _map_nested(op.b, conv)
    dh = ctx.gradient(conv(h_expr))
    d2h = [ctx.gradient(dh_j) for dh_j in dh]
    zero = ctx.zero
    rng = range(n)

    def matrix(alpha: int):
        if alpha >= op.d:
            return [[zero] * n for _ in rng]
        return [[sum((G[alpha][i][j] * d2h[j][k] + B[alpha][i][j][k] * dh[j]
                      for j in rng), zero) for k in rng] for i in rng]

    return _SystemForms(ws, matrix(0), matrix(1), G, d2h)


def generate_system(op: HydroOperator,
                    h: HamiltonianDensity | ex.Expr) -> QuasilinearSystem:
    """A^i_k = sum_j (g^{ij,x} h_{u^j u^k} + b^{ij,x}_k h_{u^j}); B from the
    y part.  d = 1 operators get B = 0.  The derivatives of h and the
    products are taken in one ring holding h and the operator entries."""
    forms = _system_forms(op, h)
    return QuasilinearSystem(forms.ws, op.n,
                             _map_nested(forms.A, ratform_to_expr),
                             _map_nested(forms.B, ratform_to_expr))


DISPERSION_PARAMS = ("lam", "mu")


class DispersionRelation:
    def __init__(self, ws: Workspace, params: list[Symbol], det: ex.Expr,
                 coefficients: dict):
        self.ws, self.params, self.det = ws, params, det
        # (i, j) exponents of (lam, mu) -> Expr
        self.coefficients = coefficients


def dispersion(sys: QuasilinearSystem) -> DispersionRelation:
    """det(E + lam A + mu B) expanded as a polynomial in the formal
    constants lam, mu."""
    ws = sys.ws.extended(list(DISPERSION_PARAMS))
    lam, mu = ws.constants[-2:]
    rng = range(sys.n)
    d = det(matrix_forms(ws, [[ex.add(
        ex.ONE if i == k else ex.ZERO, ex.mul(ex.Var(lam), sys.A[i][k]),
        ex.mul(ex.Var(mu), sys.B[i][k])) for k in rng] for i in rng]))
    coeffs = coefficients_in(d, [lam.name, mu.name])
    return DispersionRelation(
        ws, [lam, mu], ratform_to_expr(d),
        {exps: ratform_to_expr(c) for exps, c in coeffs.items()})


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


def commutativity_residual(c: ReductionCandidate,
                           policy: ZeroTestPolicy = DEFAULT_POLICY):
    """Cleared-denominator commutation constraints
    d_j lam^i (mu^j - mu^i) - d_j mu^i (lam^j - lam^i), i != j.  Each
    unordered pair of speeds is tested once for coinciding."""
    if c.m < 2:
        raise HamsysError("commutativity needs m >= 2")
    for i in range(c.m):
        for j in range(i + 1, c.m):
            if is_zero(c.lam[i] - c.lam[j], c.ws, policy).is_zero_verdict or \
               is_zero(c.mu[i] - c.mu[j], c.ws, policy).is_zero_verdict:
                raise DegenerateCandidateError(
                    f"speeds {i + 1} and {j + 1} coincide"
                )
    return [((i + 1, j + 1), _cleared_commutator(c.lam, c.mu, c.r_vars, i, j))
            for i in range(c.m) for j in range(c.m) if i != j]


def _cleared_commutator(X, Y, R, i: int, j: int) -> ex.Expr:
    """d_j X^i (Y^j - Y^i) - d_j Y^i (X^j - X^i): the flows of speeds X and
    Y commute iff it vanishes for all i != j."""
    return ex.add(
        ex.mul(differentiate(X[i], R[j]), ex.add(Y[j], ex.neg(Y[i]))),
        ex.neg(ex.mul(differentiate(Y[i], R[j]), ex.add(X[j], ex.neg(X[i])))),
    )


def reduction_residual(c: ReductionCandidate, sys: QuasilinearSystem):
    """(E + lam^i A + mu^i B) d_i u after substituting u = u(R); n*m
    expressions over the R variables."""
    n = sys.n
    u_vars = sys.ws.variables[:n]
    binding = dict(zip(u_vars, c.u))
    A = [[substitute(sys.A[i][k], binding) for k in range(n)]
         for i in range(n)]
    B = [[substitute(sys.B[i][k], binding) for k in range(n)]
         for i in range(n)]
    out = []
    for i in range(c.m):
        du = [differentiate(c.u[a], c.r_vars[i]) for a in range(n)]
        for row in range(n):
            terms = [du[row]]
            for k in range(n):
                if du[k] == ex.ZERO:
                    continue
                terms.append(ex.mul(c.lam[i], A[row][k], du[k]))
                terms.append(ex.mul(c.mu[i], B[row][k], du[k]))
            out.append(((i + 1, row + 1), ex.add(*terms)))
    return out


def hodograph_residual(c: ReductionCandidate, point: dict, t, x, y,
                       policy: ZeroTestPolicy = DEFAULT_POLICY):
    """Symbolic residuals of the commuting-flow linear system for v^i, and
    numeric residuals v^i(R0) - x - lam^i t - mu^i y at the given point."""
    if c.v is None:
        raise HamsysError("candidate carries no commuting-flow speeds v")
    R = c.r_vars
    # d_j v^i (lam^j - lam^i) = d_j lam^i (v^j - v^i), and the same against
    # the mu family
    symbolic = [
        ((i + 1, j + 1, fam_name), _cleared_commutator(c.v, fam, R, i, j))
        for i in range(c.m) for j in range(c.m) if i != j
        for fam_name, fam in (("lam", c.lam), ("mu", c.mu))
    ]
    pt = Point(values={R[i]: Fraction(point[R[i].name])
                       for i in range(c.m)})
    numeric = []
    for i in range(c.m):
        expr = ex.add(
            c.v[i], ex.neg(ex.as_expr(Fraction(x))),
            ex.neg(ex.mul(ex.as_expr(Fraction(t)), c.lam[i])),
            ex.neg(ex.mul(ex.as_expr(Fraction(y)), c.mu[i])),
        )
        try:
            numeric.append((i + 1, evaluate(expr, pt, policy.precision)))
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
        forms = _system_forms(current, HamiltonianDensity.abstract(
            current.ws, current.n))
        if current.n == 1:
            # a zero row freezes the last component (fully trivial system);
            # a surviving transport row is the reduced outcome itself
            if zero(forms.A[0][0]) and zero(forms.B[0][0]):
                frozen_names.append(current.ws.variables[0].name)
                return ShapeResult(TRIVIAL, frozen=frozen_names)
            return ShapeResult(TRANSPORT_1D, frozen=frozen_names)
        row = _freezable_row(forms, zero)
        if row is None:
            break
        frozen_names.append(current.ws.variables[row].name)
        current = _freeze_component(current, row)

    n = current.n
    if n == 2:
        form = _decoupled_form(current, forms, zero, policy)
        return ShapeResult(DECOUPLED_2C, form, frozen_names)
    if n == 3 and _is_euler_lagrange(forms, zero):
        return ShapeResult(EULER_LAGRANGE, frozen=frozen_names)
    return ShapeResult(UNCLASSIFIED, frozen=frozen_names)


def _freezable_row(forms: _SystemForms, zero) -> int | None:
    """First row i with A^i_k = B^i_k = 0 for every k != i (so the row reads
    u^i_t + phi u^i_x + psi u^i_y = 0)."""
    n = len(forms.A)
    for i in range(n):
        if all(zero(m[i][k]) for k in range(n) if k != i
               for m in (forms.A, forms.B)):
            return i
    return None


_FROZEN_PREFIX = "c"


def _freeze_component(op: HydroOperator, index: int):
    """Remove component `index`, replacing the variable by a fresh formal
    constant in the remaining entries."""
    old_ws = op.ws
    keep = [i for i in range(op.n) if i != index]
    frozen_sym = old_ws.variables[index]
    const_name = f"{_FROZEN_PREFIX}{frozen_sym.name}"

    ws = old_ws.derive(
        variables=[old_ws.variables[i].name for i in keep]
        + [s.name for s in old_ws.variables[op.n:]],
        constants=[s.name for s in old_ws.constants] + [const_name],
    )

    binding = {frozen_sym: ex.Var(ws.require_symbol(const_name))}
    sub = lambda e: substitute(e, binding)
    g = [[[sub(op.g[a][i][j]) for j in keep] for i in keep]
         for a in range(op.d)]
    b = [[[[sub(op.b[a][i][j][k]) for k in keep] for j in keep]
          for i in keep] for a in range(op.d)]
    return HydroOperator(ws, op.d, len(keep), g, b)


def _decoupled_form(op: HydroOperator, forms: _SystemForms, zero, policy):
    """Invariants of the frozen 2x2 pair: proportional pair -> "1d" (a d = 1
    operator is a pair with zero y-part, proportional with xi = 0);
    non-constant metrics -> Mokhov form 3; else the pencil-determinant
    discriminant separates diag(d_x, d_y) (two roots) from the triangular
    form (double root)."""
    if op.d == 1 or is_trivial_pair(op, policy).trivial:
        return "1d"
    if any(not zero(d(e)) for g in forms.G for row in g for e in row
           for d in e.ctx.deriv):
        return 3
    # det(lam1 g_x + lam2 g_y) = c20 lam1^2 + c11 lam1 lam2 + c02 lam2^2
    pencil = op.pencil
    zero_coeff = pencil.matrix[0][0].ctx.zero
    c20, c11, c02 = (pencil.det_coefficients.get(m, zero_coeff)
                     for m in ((2, 0), (1, 1), (0, 2)))
    return 2 if zero(c11 * c11 - (c20 * c02).scaled(4)) else 1


def _is_euler_lagrange(forms: _SystemForms, zero) -> bool:
    """Does the abstract-h system match the potential three-component form
    u1_t + (h_2)_x + (h_3)_y, u2_t + (h_1)_x, u3_t + (h_1)_y up to row-wise
    multiples of the potentiality combination u2_y - u3_x?"""
    # per row, the 0-based j of the x- and y-flux h_{j+1}, whose d_k is
    # d2h[j][k]
    targets = [(1, 2), (0, None), (None, 0)]
    for row, (fx, fy) in enumerate(targets):
        dA = [forms.A[row][k] if fx is None
              else forms.A[row][k] - forms.d2h[fx][k] for k in range(3)]
        dB = [forms.B[row][k] if fy is None
              else forms.B[row][k] - forms.d2h[fy][k] for k in range(3)]
        # residual row must be c(u) * (u2_y - u3_x): only dA[2] and dB[1]
        # may survive, with dB[1] = -dA[2]
        survivors = (dA[0], dA[1], dB[0], dB[2], dB[1] + dA[2])
        if not all(zero(e) for e in survivors):
            return False
    return True
