"""Mutation sensitivity scan for the condition checker.

The fixed mutation set acts on b coefficients, one at a time: sign flip,
scaling by 2, and the (i, j) index swap b^{ij a}_k <-> b^{ji a}_k.
Mutations that leave the operator unchanged are skipped.  A mutant
"survives" when every Mokhov residual still vanishes; survivors are
reported, not hidden - some mutations land back inside the classified
family (e.g. negating one 1D part of a rank-0 pair).
"""

from __future__ import annotations

import copy

from . import expr as ex
from .operators import HydroOperator, MokhovChecker, check_hamiltonian
from .ratform import uses_transcendental
from .zerotest import DEFAULT_POLICY, ZeroTestPolicy


class Mutation:
    def __init__(self, kind: str, index: tuple):
        self.kind = kind    # 'flip' | 'scale' | 'swap'
        self.index = index  # (alpha, i, j, k), 1-based component indices


def _mutant(op: HydroOperator, edits) -> HydroOperator:
    """op with b[dst] = c * b[src] for each (dst, src, c) in edits, its
    forms (and later its a2 table) edited from op's.  A copy of op, not
    checked again: its entries are op's or rational multiples of them.  It
    shares op's pencil, if op has built it, since the pencil reads only
    g."""
    b = [[[list(col) for col in row] for row in plane] for plane in op.b]
    for (a, i, j, k), (sa, si, sj, sk), c in edits:
        entry = op.b[sa][si][sj][sk]
        b[a][i][j][k] = entry if c == 1 else ex.mul(ex.Rat(c), entry)
    mutant = copy.copy(op)
    mutant.b, mutant.forms = b, op.forms.edited(edits)
    return mutant


def mutants(op: HydroOperator):
    """Yield (mutation, mutated operator) over the fixed mutation set,
    skipping identity mutations: a zero entry is not flipped or scaled, and
    equal entries are not swapped.  Entries are compared as the normal
    forms of ``op.forms``.  Each mutant's forms are its parent's, with the
    changed entries of B (and later DB) scaled or swapped, so a mutant
    converts nothing and takes no derivative of its own; its a2 table is
    its parent's with the keys of the changed entries recomputed."""
    B = op.forms.B
    rng = range(op.n)
    for a in range(op.d):
        for i in rng:
            for j in rng:
                for k in rng:
                    here = (a, i, j, k)
                    index = (a, i + 1, j + 1, k + 1)
                    if not B[a][i][j][k].is_zero:
                        for kind, factor in (("flip", -1), ("scale", 2)):
                            yield (Mutation(kind, index),
                                   _mutant(op, [(here, here, factor)]))
                    if i < j and B[a][i][j][k] != B[a][j][i][k]:
                        there = (a, j, i, k)
                        yield (Mutation("swap", index),
                               _mutant(op, [(here, there, 1),
                                            (there, here, 1)]))


class MutationScan:
    def __init__(self, total: int, caught: int, survivors: list):
        self.total, self.caught = total, caught
        self.survivors = survivors  # (Mutation, ConditionReport)


# a2 kills most mutants (278 of the catalog's 339) and costs a mutant only
# the keys its edits touch (see OperatorForms.A2); cheap relations first
_SCAN_ORDER = ("a2", "a1", "a3", "a4", "a5", "a6", "a7")


def first_proven_failure(op: HydroOperator):
    """First residual that is provably nonzero, or None.

    Only valid as a proof for transcendental-free operators (the catalog);
    a nonzero normal form with exp/ln/sqrt atoms is skipped.  The checker
    yields only the nonzero residuals, in index order.
    """
    for rel, idx, rf in MokhovChecker(op).residuals(_SCAN_ORDER):
        if not uses_transcendental(rf):
            return rel, idx, rf
    return None


def scan(op: HydroOperator,
         policy: ZeroTestPolicy = DEFAULT_POLICY) -> MutationScan:
    total = caught = 0
    survivors = []
    for mutation, mutant in mutants(op):
        total += 1
        if first_proven_failure(mutant) is not None:
            caught += 1
        else:
            survivors.append((mutation, check_hamiltonian(mutant, policy)))
    return MutationScan(total, caught, survivors)
