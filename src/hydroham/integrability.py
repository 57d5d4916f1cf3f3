"""Fourth-order integrability test for first-order Lagrangian densities
f(a, b, c), plus the partial Legendre transform that produces them from
Hamiltonian densities.

The test is run in denominator-cleared form H*d4f - d3f*dH - 3*det(dM),
a homogeneous quartic in the differentials (da, db, dc); the density is
integrable iff all 15 coefficients vanish.  The differentials are formal
constants of an extended workspace, and the calculus is done in one ring
over it: the partials are ring derivations, D = da*d/da + db*d/db + dc*d/dc
is a ring map, the determinants come from `ratform.det`, and each form is
split by `coefficients_in`.  The clearing by H is valid off the H = 0
locus; densities with identically vanishing Hessian determinant are
rejected as inapplicable.
"""

from __future__ import annotations

from functools import cached_property

from . import expr as ex
from .parser import parse
from .ratform import (
    coefficients_in,
    composed,
    derivation_context,
    det,
    ratform_to_expr,
    to_rational_form,
)
from .symbols import InputError, Symbol, Workspace
from .zerotest import (
    DEFAULT_POLICY,
    ZeroTestPolicy,
    verdict_for_ratform,
)


class IntegrabilityError(InputError):
    pass


class DegenerateLagrangianError(IntegrabilityError):
    """H is identically zero; the fourth-order test does not apply."""


LAGRANGIAN_VARS = ("a", "b", "c")
# the variables of a Hamiltonian density h(rho, u, v) and rho_t = h_rho
LEGENDRE_VARS = ("rho", "u", "v", "rhot")
# formal constants for the differentials; D = da*d/da + db*d/db + dc*d/dc
DIFFERENTIALS = ("da", "db", "dc")


class LagrangianDensity:
    def __init__(self, f: ex.Expr, ws: Workspace):
        extra = ex.free_symbols(f) - set(ws.variables[:3]) - set(ws.constants)
        if extra:
            raise IntegrabilityError(
                f"density may only use a, b, c; found "
                f"{sorted(s.name for s in extra)}"
            )
        self.f, self.ws = f, ws

    @classmethod
    def from_text(cls, text: str, functions=()) -> "LagrangianDensity":
        ws = Workspace.of(LAGRANGIAN_VARS, functions=functions)
        return cls(parse(text, ws), ws)

    def vars(self) -> list[Symbol]:
        return self.ws.variables[:3]


def _multi_indices(order: int):
    for i in range(order, -1, -1):
        for j in range(order - i, -1, -1):
            yield (i, j, order - i - j)


class _Ring:
    """The density's workspace extended by the formal constants
    (da, db, dc), in one ring whose atoms are closed under partial
    derivatives of f up to the given order."""

    def __init__(self, density: LagrangianDensity, order: int):
        ws = density.ws.extended(list(DIFFERENTIALS))
        self.names = [c.name for c in ws.constants[-3:]]
        self.ctx = derivation_context(ws, density.vars(),
                                      [([density.f], order)])
        self.dvars = [to_rational_form(ex.Var(c), self.ctx)
                      for c in ws.constants[-3:]]
        self.f = to_rational_form(density.f, self.ctx)

    def D(self, rf, times: int = 1):
        """D rf = da*rf_a + db*rf_b + dc*rf_c, applied `times` times."""
        for _ in range(times):
            grad = self.ctx.gradient(rf)
            rf = sum((dv * x for dv, x in zip(self.dvars, grad)
                      if not x.is_zero), self.ctx.zero)
        return rf

    @cached_property
    def M(self) -> list:
        """The bordered matrix [[0, f_a, f_b, f_c], [f_a, Hessian row], ...]."""
        grad = self.ctx.gradient(self.f)
        return [[self.ctx.zero] + grad] + [
            [g] + self.ctx.gradient(g) for g in grad]

    def hessian(self):
        return det([row[1:] for row in self.M[1:]])

    def det_dM(self):
        """det(M_a da + M_b db + M_c dc): D applied to each entry of M."""
        return det([[self.D(x) for x in row] for row in self.M])

    def split(self, rf, order: int) -> dict:
        """{(i, j, k): coefficient of da^i db^j dc^k} of a form homogeneous
        of the given order, as forms; every multi-index is present."""
        coeffs = coefficients_in(rf, self.names)
        return {m: coeffs.get(m, self.ctx.zero) for m in _multi_indices(order)}


def sym_diff(density: LagrangianDensity, order: int) -> dict:
    """The symmetric differential d^r f as {(i, j, k): coefficient of
    da^i db^j dc^k}, the coefficient being (r! / i!j!k!) * the matching
    partial derivative."""
    if order not in (1, 2, 3, 4):
        raise IntegrabilityError("symmetric differentials of order 1..4 only")
    ring = _Ring(density, order)
    return _exprs(ring.split(ring.D(ring.f, order), order))


def hessian_determinant(density: LagrangianDensity) -> ex.Expr:
    return ratform_to_expr(_Ring(density, 2).hessian())


def bordered_matrix(density: LagrangianDensity) -> list:
    """The 4x4 matrix M = [[0, f_a, f_b, f_c], [f_a, Hessian row], ...]."""
    return [[ratform_to_expr(x) for x in row] for row in _Ring(density, 2).M]


def bordered_matrix_derivatives(density: LagrangianDensity) -> list:
    """M_a, M_b, M_c: entrywise derivatives of M with the (1,1) corner 0."""
    ring = _Ring(density, 3)
    return [[[ratform_to_expr(d(x)) for x in row] for row in ring.M]
            for d in ring.ctx.deriv]


def det_dM(density: LagrangianDensity) -> dict:
    """det(M_a da + M_b db + M_c dc) as {(i, j, k): coefficient}."""
    ring = _Ring(density, 3)
    return _exprs(ring.split(ring.det_dM(), 4))


def _exprs(forms: dict) -> dict:
    return {m: ratform_to_expr(rf) for m, rf in forms.items()}


class FktResult:
    def __init__(self, residual: dict, verdicts: dict, hessian: ex.Expr,
                 fluxes: tuple):
        self.residual = residual  # multi-index -> Expr
        self.verdicts = verdicts  # multi-index -> Verdict
        self.hessian = hessian
        self.fluxes = fluxes      # (f_a, f_b, f_c), the Euler-Lagrange fluxes

    @property
    def integrable(self) -> bool:
        return all(v.is_zero_verdict for v in self.verdicts.values())

    @property
    def proven(self) -> bool:
        return all(v.proven for v in self.verdicts.values())

    def first_failure(self):
        for m in _multi_indices(4):
            v = self.verdicts[m]
            if not v.is_zero_verdict:
                return m, self.residual[m]
        return None


def fkt_residual(density: LagrangianDensity,
                 policy: ZeroTestPolicy = DEFAULT_POLICY) -> FktResult:
    """The cleared-denominator fourth-order integrability residual
    H*d4f - d3f*dH - 3*det(dM); integrable iff all 15 coefficients are
    zero."""
    ring = _Ring(density, 4)
    H = ring.hessian()
    if verdict_for_ratform(H, policy).is_zero_verdict:
        raise DegenerateLagrangianError(
            "the Hessian determinant vanishes identically; the fourth-order "
            "test is inapplicable"
        )
    d3 = ring.D(ring.f, 3)
    dm = ring.det_dM()
    residual = ring.split(H * ring.D(d3) - d3 * ring.D(H) - (dm + dm + dm), 4)
    verdicts = {m: verdict_for_ratform(c, policy) for m, c in residual.items()}
    return FktResult(_exprs(residual), verdicts, ratform_to_expr(H),
                     tuple(map(ratform_to_expr, ring.M[0][1:])))


def euler_lagrange_fluxes(density: LagrangianDensity):
    """(f_a, f_b, f_c): the fluxes whose x, y, t divergence is the
    Euler-Lagrange equation of the density."""
    ring = _Ring(density, 1)
    return tuple(ratform_to_expr(x) for x in ring.ctx.gradient(ring.f))


# -- partial Legendre transform -------------------------------------------------

class LegendreResult:
    def __init__(self, density: LagrangianDensity, identity_residuals: list):
        self.density = density
        # (label, residual, verdict) of the three derivative identities
        self.identity_residuals = identity_residuals


def legendre(h: ex.Expr, ws: Workspace, inverse: ex.Expr,
             policy: ZeroTestPolicy = DEFAULT_POLICY) -> LegendreResult:
    """Partial Legendre transform rho_t = h_rho, h~ = h - rho h_rho.

    `h` is an expression in (rho, u, v); `inverse` expresses rho through
    (rhot, u, v) and must satisfy h_rho(inverse, u, v) = rhot.  The result
    is the Lagrangian density f(a, b, c) = h~ with (u, v, rho_t) renamed to
    (a, b, c), together with the derivative identities h~_rhot = -rho,
    h~_u = h_u, h~_v = h_v and the verdicts that verified them.
    """
    rho, u, v, rhot = (ws.require_symbol(n) for n in LEGENDRE_VARS)
    if rho in ex.free_symbols(inverse):
        raise IntegrabilityError("inverse may not use rho")
    ctx = derivation_context(ws, [rho, u, v, rhot],
                             [([h], 2), ([inverse], 1)])
    H, INV, RHO, RHOT = (to_rational_form(e, ctx)
                         for e in (h, inverse, ex.Var(rho), ex.Var(rhot)))
    dH = ctx.gradient(H)
    F = H - RHO * dH[0]
    dF, dI = ctx.gradient(F), ctx.gradient(INV)
    # one composition, rho -> inverse: inverse holds no rho, so d/dx of
    # F o inverse is (F_x + F_rho * inverse_x) o inverse
    d_rhot, d_u, d_v = (dF[k] + dF[0] * dI[k] for k in (3, 1, 2))
    check, h_tilde, *residuals = composed(
        [dH[0] - RHOT, F, d_rhot + INV, d_u - dH[1], d_v - dH[2]],
        {"rho": inverse}, ws)
    if not verdict_for_ratform(check, policy).is_zero_verdict:
        raise IntegrabilityError(
            "inverse does not satisfy h_rho(inverse, u, v) = rhot"
        )
    checked = [(label, ratform_to_expr(r), verdict_for_ratform(r, policy))
               for label, r in zip(("h~_rhot + rho", "h~_u - h_u",
                                    "h~_v - h_v"), residuals)]
    for label, _, verdict in checked:
        if not verdict.is_zero_verdict:
            raise IntegrabilityError(f"derivative identity {label} failed")

    lag_ws = Workspace.of(LAGRANGIAN_VARS, functions=[
        (fn.name, [a.name for a in fn.args]) for fn in ws.functions.values()])
    f, = composed([h_tilde], {
        n: ex.Var(lag_ws.require_symbol(m))
        for n, m in zip(("u", "v", "rhot"), LAGRANGIAN_VARS)}, lag_ws)
    return LegendreResult(LagrangianDensity(ratform_to_expr(f), lag_ws),
                          checked)
