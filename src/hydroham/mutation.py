"""Mutation sensitivity scan for the condition checker.

The fixed mutation set acts on b coefficients, one at a time: sign flip,
scaling by 2, and the (i, j) index swap b^{ij a}_k <-> b^{ji a}_k.
Mutations that leave the operator unchanged are skipped.  A mutant
"survives" when every Mokhov residual still vanishes; survivors are
reported, not hidden - some mutations land back inside the classified
family (e.g. negating one 1D part of a rank-0 pair).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from .operators import (
    ALPHA_LABELS,
    HydroOperator,
    MokhovChecker,
    check_hamiltonian,
)
from .ratform import uses_transcendental
from .zerotest import DEFAULT_POLICY, ZeroTestPolicy, is_zero


@dataclass(frozen=True)
class Mutation:
    kind: str            # 'flip' | 'scale' | 'swap'
    index: tuple         # (alpha, i, j, k), 1-based component indices

    def describe(self) -> str:
        a, i, j, k = self.index
        what = f"b^{{{i}{j},{ALPHA_LABELS[a]}}}_{k}"
        if self.kind == "flip":
            return f"sign flip of {what}"
        if self.kind == "scale":
            return f"{what} scaled by 2"
        return f"{what} swapped with b^{{{j}{i},{ALPHA_LABELS[a]}}}_{k}"


def _clone_b(op: HydroOperator):
    return [[[list(col) for col in row] for row in plane] for plane in op.b]


def mutants(op: HydroOperator, policy: ZeroTestPolicy = DEFAULT_POLICY):
    """Yield (mutation, mutated operator) over the fixed mutation set,
    skipping identity mutations."""
    n = op.n
    for a in range(op.d):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    entry = op.b[a][i][j][k]
                    nonzero = not is_zero(entry, op.ws, policy).is_zero_verdict
                    if nonzero:
                        for kind, factor in (("flip", -1), ("scale", 2)):
                            b = _clone_b(op)
                            b[a][i][j][k] = ex.mul(ex.Rat(factor), entry)
                            yield (
                                Mutation(kind, (a, i + 1, j + 1, k + 1)),
                                HydroOperator(op.ws, op.d, n, op.g, b),
                            )
                    if i < j:
                        other = op.b[a][j][i][k]
                        diff = ex.add(entry, ex.neg(other))
                        if is_zero(diff, op.ws, policy).is_zero_verdict:
                            continue
                        b = _clone_b(op)
                        b[a][i][j][k], b[a][j][i][k] = other, entry
                        yield (
                            Mutation("swap", (a, i + 1, j + 1, k + 1)),
                            HydroOperator(op.ws, op.d, n, op.g, b),
                        )


@dataclass
class MutationScan:
    total: int
    caught: int
    survivors: list  # (Mutation, ConditionReport)


# (a2) kills most sign/scale mutants instantly; cheap relations first
_SCAN_ORDER = ("a2", "a1", "a3", "a4", "a5", "a6", "a7")


def first_proven_failure(op: HydroOperator):
    """First residual that is provably nonzero, or None.

    Only valid as a proof for transcendental-free operators (the catalog);
    a nonzero normal form with exp/ln/sqrt atoms is skipped.
    """
    checker = MokhovChecker(op)
    for rel, idx, rf in checker.residuals(_SCAN_ORDER):
        if rf.is_zero or uses_transcendental(rf):
            continue
        return rel, idx, rf
    return None


def scan(op: HydroOperator,
         policy: ZeroTestPolicy = DEFAULT_POLICY) -> MutationScan:
    total = caught = 0
    survivors = []
    for mutation, mutant in mutants(op, policy):
        total += 1
        if first_proven_failure(mutant) is not None:
            caught += 1
        else:
            survivors.append((mutation, check_hamiltonian(mutant, policy)))
    return MutationScan(total, caught, survivors)
