"""Mutation sensitivity spot checks (the full catalog sweep runs in the
acceptance suite)."""

from functools import cached_property

from hydroham import catalog, mutation
from hydroham.mutation import Mutation, first_proven_failure, scan
from hydroham.operators import MokhovChecker


def test_sign_flip_detected():
    op, ws = catalog.instantiate("T2.2/2")
    res = scan(op)
    # 2 nonzero b entries: 2 flips + 2 scalings + 1 swap
    assert res.total == 5
    assert res.caught == 5 and not res.survivors


def test_rank0_swap_survives_as_negated_part():
    op, ws = catalog.instantiate("T2.3/rank0")
    res = scan(op)
    assert res.total == 5 and res.caught == 4
    (mutation, report), = res.survivors
    assert mutation.kind == "swap"
    # the survivor is a genuine Hamiltonian operator (the negated pair)
    assert report.overall == "proven_pass"


def test_identity_mutations_skipped():
    op, ws = catalog.instantiate("T2.2/1")  # b = 0: nothing to mutate
    assert scan(op).total == 0


def test_first_proven_failure_none_for_valid():
    op, ws = catalog.instantiate("P_gas")
    assert first_proven_failure(op) is None


def test_mutation_description():
    m = Mutation("flip", (0, 1, 2, 2))
    assert "b^{12,x}_2" in m.describe()


def test_failure_at_a2_builds_no_later_table(monkeypatch):
    """A mutant that fails a2 differentiates g but builds no d b, no C and
    none of the tables of a3-a7."""
    checkers = []

    class Recorded(MokhovChecker):
        def __init__(self, op):
            super().__init__(op)
            checkers.append(self)

    monkeypatch.setattr(mutation, "MokhovChecker", Recorded)
    op, _ws = catalog.instantiate("P_gas")
    _m, mutant = next(mutation.mutants(op))
    assert first_proven_failure(mutant)[0] == "a2"
    built = {name for name in vars(checkers[0])
             if isinstance(getattr(MokhovChecker, name, None),
                           cached_property)}
    assert built == {"DG"}
