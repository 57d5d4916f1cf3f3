"""Pushforward of operators under invertible changes of dependent variables.

The metric moves as a (2,0)-tensor; the b coefficients pick up the usual
inhomogeneous connection-like term.  The law is not trusted: the invariance
suite (Hamiltonian property preserved, round-trip to the original) is the
oracle that pins the sign conventions.
"""

from __future__ import annotations

import itertools

from . import expr as ex
from .calculus import substitute
from .operators import (
    ALPHA_LABELS,
    ConditionReport,
    HydroOperator,
    ResidualRecord,
    _flatten,
    _map_nested,
    _record,
    check_hamiltonian,
)
from .ratform import (
    derivation_context,
    det,
    matrix_forms,
    ratform_to_expr,
    to_rational_form,
)
from .symbols import InputError, Symbol, Workspace
from .zerotest import (
    DEFAULT_POLICY,
    ZeroTestPolicy,
    is_zero,
    verdict_for_ratform,
)


class InvalidChangeError(InputError):
    pass


class CoordinateChange:
    """u = phi(v) with an explicitly supplied inverse v = phi^{-1}(u)."""

    def __init__(self, src_ws: Workspace, dst_ws: Workspace,
                 forward: list[ex.Expr], inverse: list[ex.Expr]):
        if len(forward) != len(inverse):
            raise InvalidChangeError("forward/inverse arity mismatch")
        self.src_ws, self.dst_ws = src_ws, dst_ws  # u side, v side
        self.forward = forward  # phi^i, expressions over dst_ws
        self.inverse = inverse  # (phi^{-1})^i, expressions over src_ws

    @property
    def n(self) -> int:
        return len(self.forward)

    @property
    def u_vars(self) -> list[Symbol]:
        return self.src_ws.variables[: self.n]

    @property
    def v_vars(self) -> list[Symbol]:
        return self.dst_ws.variables[: self.n]

    def to_v(self, e: ex.Expr) -> ex.Expr:
        """Express a u-side expression in v coordinates."""
        return substitute(e, dict(zip(self.u_vars, self.forward)))

    def inverted(self) -> "CoordinateChange":
        return CoordinateChange(self.dst_ws, self.src_ws, self.inverse,
                                self.forward)

    def validate(self, policy: ZeroTestPolicy = DEFAULT_POLICY):
        """Checks phi(phi^{-1}(u)) = u, phi^{-1}(phi(v)) = v and det J != 0."""
        for change, label in ((self, "forward o inverse"),
                              (self.inverted(), "inverse o forward")):
            back = dict(zip(change.v_vars, change.inverse))
            for phi, u in zip(change.forward, change.u_vars):
                residual = substitute(phi, back) - ex.Var(u)
                if not is_zero(residual, change.src_ws, policy).is_zero_verdict:
                    raise InvalidChangeError(
                        f"{label} is not the identity on {u.name}")
        J = _jacobian(self, [])[0]
        if verdict_for_ratform(det(J), policy).is_zero_verdict:
            raise InvalidChangeError("Jacobian determinant vanishes identically")
        return self


def coordinate_change(
        src_ws: Workspace, forward: dict[str, ex.Expr],
        inverse: dict[str, ex.Expr], dst_ws: Workspace,
        policy: ZeroTestPolicy = DEFAULT_POLICY) -> CoordinateChange:
    """Build a change from name-keyed maps (u name -> forward expr over the
    v side, v name -> inverse expr over the u side)."""
    u_names = [s.name for s in src_ws.variables]
    v_names = [s.name for s in dst_ws.variables]
    fwd = [forward[name] for name in u_names[: len(forward)]]
    inv = [inverse[name] for name in v_names[: len(inverse)]]
    return CoordinateChange(src_ws, dst_ws, fwd, inv).validate(policy)


def _jacobian(change: CoordinateChange, exprs):
    """J^i_k = d phi^i / d v^k in one derivation context over the v side,
    which holds phi to second order and ``exprs`` at order 0.  Returns J and
    the conversion of an Expr into the context."""
    ctx = derivation_context(change.dst_ws, change.v_vars,
                             [(change.forward, 2), (exprs, 0)])
    conv = lambda e: to_rational_form(e, ctx)
    return [ctx.gradient(conv(phi)) for phi in change.forward], conv


def _inverse(J):
    """J^{-1} = adj(J)/det J: entry (i, j) is the cofactor of J^j_i over
    det J."""
    rng = range(len(J))
    jac = det(J)

    def cofactor(i, j):
        rows = [[J[r][c] for c in rng if c != j] for r in rng if r != i]
        minor = det(rows) if rows else jac.ctx.one
        return -minor if (i + j) % 2 else minor

    return [[cofactor(j, i) / jac for j in rng] for i in rng]


def pushforward(op: HydroOperator, change: CoordinateChange) -> HydroOperator:
    """The transformed operator on the v side, with J = d phi/dv and
    K = J^{-1} (which is d(phi^{-1})/du o phi):

    ghat^{ij a} = K^i_p K^j_q g^{pq a} o phi,
    bhat^{ij a}_k = K^i_p K^j_q (b^{pq a}_r o phi) J^r_k
                    + K^i_p (g^{pq a} o phi) d_k K^j_q.

    Only phi is read: J, K and d_k K are rational forms of one ring over
    the v side, and contractions run one index at a time."""
    n = op.n
    if change.n != n:
        raise InvalidChangeError("change arity does not match the operator")
    gv = [_map_nested(g, change.to_v) for g in op.g]
    bv = [_map_nested(b, change.to_v) for b in op.b]
    J, conv = _jacobian(change, list(_flatten([gv, bv])))
    gv, bv = _map_nested(gv, conv), _map_nested(bv, conv)
    K = _inverse(J)
    ctx = J[0][0].ctx
    # DK[k][j][q] = d_k K^j_q
    DK = [_map_nested(K, d) for d in ctx.deriv]
    zero = ctx.zero
    rng = range(n)
    g_all, b_all = [], []
    for g, b in zip(gv, bv):
        # Kg[i][q] = K^i_p g^{pq}, KbJ[i][q][k] = K^i_p b^{pq}_r J^r_k
        Kg = [[sum((K[i][p] * g[p][q] for p in rng), zero) for q in rng]
              for i in rng]
        bJ = [[[sum((b[p][q][r] * J[r][k] for r in rng), zero) for k in rng]
               for q in rng] for p in rng]
        KbJ = [[[sum((K[i][p] * bJ[p][q][k] for p in rng), zero)
                 for k in rng] for q in rng] for i in rng]
        g_all.append([[sum((Kg[i][q] * K[j][q] for q in rng), zero)
                       for j in rng] for i in rng])
        b_all.append([[[
            sum((KbJ[i][q][k] * K[j][q] + Kg[i][q] * DK[k][j][q]
                 for q in rng), zero)
            for k in rng] for j in rng] for i in rng])
    return HydroOperator(change.dst_ws, op.d, n,
                         _map_nested(g_all, ratform_to_expr),
                         _map_nested(b_all, ratform_to_expr))


def operator_difference_records(
        op1: HydroOperator, op2: HydroOperator,
        policy: ZeroTestPolicy = DEFAULT_POLICY) -> list[ResidualRecord]:
    """Entrywise roundtrip residuals op1 - op2 (same shape and names), the
    entries of both operators converted into one context."""
    if (op1.d, op1.n) != (op2.d, op2.n):
        raise InvalidChangeError("operator shapes differ")
    rename = dict(zip(op2.variables, (ex.Var(v) for v in op1.variables)))
    rng = range(op1.n)
    # keys in the order of HydroOperator.entries()
    keys = [(ALPHA_LABELS[a], part, i + 1, j + 1) + k
            for a in range(op1.d) for i in rng for j in rng
            for part, k in [("g", ())] + [("b", (r + 1,)) for r in rng]]
    f1, f2 = matrix_forms(op1.ws, [
        list(op1.entries()), [substitute(e, rename) for e in op2.entries()]])
    return [_record("roundtrip", idx, x - y, policy)
            for idx, x, y in zip(keys, f1, f2)]


class InvarianceReport(ConditionReport):
    """The report of ``verify_invariance``: the residuals of a check, then
    the round-trip records, of which those of nonzero residuals are kept;
    and the pushed operator they check."""

    def __init__(self, checked: ConditionReport, roundtrip: list,
                 pushed: HydroOperator):
        keys = [(r.relation, r.indices) for r in roundtrip]
        kept = {key: [r] for key, r in zip(keys, roundtrip)
                if r.residual != ex.ZERO}
        super().__init__(lambda: itertools.chain(checked.keys(), keys),
                         {**checked.kept, **kept})
        self.pushed = pushed


def verify_invariance(op: HydroOperator, change: CoordinateChange,
                      policy: ZeroTestPolicy = DEFAULT_POLICY) -> InvarianceReport:
    """check_hamiltonian of the pushforward plus the round-trip residuals
    pushforward(pushforward(op, c), c^{-1}) - op."""
    pushed = pushforward(op, change)
    report = check_hamiltonian(pushed, policy)
    back = pushforward(pushed, change.inverted())
    return InvarianceReport(
        report, operator_difference_records(op, back, policy), pushed)
