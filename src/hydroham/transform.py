"""Pushforward of operators under invertible changes of dependent variables.

The metric moves as a (2,0)-tensor; the b coefficients pick up the usual
inhomogeneous connection-like term.  The law is not trusted: the invariance
suite (Hamiltonian property preserved, round-trip to the original) is the
oracle that pins the sign conventions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import expr as ex
from .calculus import differentiate, substitute
from .operators import (
    ALPHA_LABELS,
    ConditionReport,
    HydroOperator,
    ResidualRecord,
    _flatten,
    _map_nested,
    check_hamiltonian,
)
from .ratform import (
    Derivation,
    derivation_context,
    det,
    matrix_forms,
    ratform_to_expr,
    to_rational_form,
    zero_form,
)
from .symbols import Symbol, Workspace
from .zerotest import (
    DEFAULT_POLICY,
    INCONCLUSIVE,
    InconclusiveError,
    Verdict,
    ZeroTestPolicy,
    is_zero,
    verdict_for_ratform,
)


class InvalidChangeError(Exception):
    pass


@dataclass
class CoordinateChange:
    """u = phi(v) with an explicitly supplied inverse v = phi^{-1}(u)."""

    src_ws: Workspace            # u side
    dst_ws: Workspace            # v side
    forward: list[ex.Expr]       # phi^i, expressions over dst_ws
    inverse: list[ex.Expr]       # (phi^{-1})^i, expressions over src_ws

    def __post_init__(self):
        if len(self.forward) != len(self.inverse):
            raise InvalidChangeError("forward/inverse arity mismatch")

    @property
    def n(self) -> int:
        return len(self.forward)

    @property
    def u_vars(self) -> list[Symbol]:
        return self.src_ws.variables[: self.n]

    @property
    def v_vars(self) -> list[Symbol]:
        return self.dst_ws.variables[: self.n]

    def jacobian(self) -> list[list[ex.Expr]]:
        """J^i_k = d phi^i / d v^k, over the v side."""
        return [
            [differentiate(self.forward[i], v) for v in self.v_vars]
            for i in range(self.n)
        ]

    def inverse_jacobian(self) -> list[list[ex.Expr]]:
        """K^i_p = d (phi^{-1})^i / d u^p, over the u side."""
        return self.inverted().jacobian()

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
        jac = det(matrix_forms(self.dst_ws, self.jacobian()))
        if verdict_for_ratform(jac, self.dst_ws, policy).is_zero_verdict:
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


def pushforward(op: HydroOperator, change: CoordinateChange) -> HydroOperator:
    """The transformed operator on the v side, with K = d(phi^{-1})/du o phi:

    ghat^{ij a} = K^i_p K^j_q g^{pq a} o phi,
    bhat^{ij a}_k = K^i_p K^j_q (b^{pq a}_r o phi) J^r_k
                    + K^i_p (g^{pq a} o phi) d_k K^j_q,

    where d_k K^j_q = (d_r d(phi^{-1})^j/du^q o phi) J^r_k by the chain
    rule.  The entries are built in one ring over the v side, which
    differentiates K; contractions run one index at a time."""
    n = op.n
    if change.n != n:
        raise InvalidChangeError("change arity does not match the operator")
    to_v = change.to_v
    K = _map_nested(change.inverse_jacobian(), to_v)
    J = change.jacobian()
    gv = [_map_nested(g, to_v) for g in op.g]
    bv = [_map_nested(b, to_v) for b in op.b]
    ws = change.dst_ws
    cache: dict = {}
    ctx = derivation_context(ws, change.v_vars, [
        (list(_flatten(K)), 1),
        (list(_flatten([gv, bv, J])), 0),
    ], cache)
    conv = lambda e: to_rational_form(e, ctx, cache)
    K, J, gv, bv = (_map_nested(t, conv) for t in (K, J, gv, bv))
    # DK[k][j][q] = d_k K^j_q
    DK = [_map_nested(K, Derivation(ctx, v, cache)) for v in change.v_vars]
    zero = zero_form(ctx)
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
    return HydroOperator(ws, op.d, n, _map_nested(g_all, ratform_to_expr),
                         _map_nested(b_all, ratform_to_expr))


def operator_difference_records(op1: HydroOperator, op2: HydroOperator,
                                policy: ZeroTestPolicy = DEFAULT_POLICY,
                                label: str = "roundtrip") -> list[ResidualRecord]:
    """Entrywise residuals op1 - op2 (same shape, same variable names)."""
    if (op1.d, op1.n) != (op2.d, op2.n):
        raise InvalidChangeError("operator shapes differ")
    rename = dict(zip(op2.variables, (ex.Var(v) for v in op1.variables)))
    records = []
    for a in range(op1.d):
        for i in range(op1.n):
            for j in range(op1.n):
                pairs = [
                    ((ALPHA_LABELS[a], "g", i + 1, j + 1),
                     op1.g[a][i][j], op2.g[a][i][j]),
                ] + [
                    ((ALPHA_LABELS[a], "b", i + 1, j + 1, k + 1),
                     op1.b[a][i][j][k], op2.b[a][i][j][k])
                    for k in range(op1.n)
                ]
                for idx, e1, e2 in pairs:
                    residual = e1 - substitute(e2, rename)
                    try:
                        verdict = is_zero(residual, op1.ws, policy)
                    except InconclusiveError:
                        verdict = Verdict(INCONCLUSIVE)
                    records.append(
                        ResidualRecord(label, idx, residual, verdict)
                    )
    return records


def verify_invariance(op: HydroOperator, change: CoordinateChange,
                      policy: ZeroTestPolicy = DEFAULT_POLICY) -> ConditionReport:
    """check_hamiltonian of the pushforward plus the round-trip residuals
    pushforward(pushforward(op, c), c^{-1}) - op."""
    t0 = time.perf_counter()
    pushed = pushforward(op, change)
    report = check_hamiltonian(pushed, policy)
    back = pushforward(pushed, change.inverted())
    records = operator_difference_records(op, back, policy)
    out = ConditionReport(report.records + records,
                          time.perf_counter() - t0)
    return out
