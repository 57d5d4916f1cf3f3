"""Mutation sensitivity spot checks (the full catalog sweep runs in the
acceptance suite), and mutants' edited forms against forms converted
afresh."""

import hashlib
from functools import cached_property

import pytest
from hypothesis import HealthCheck, given, settings

from hydroham import catalog, mutation
from hydroham import expr as ex
from hydroham.mutation import first_proven_failure, scan
from hydroham.operators import HydroOperator, MokhovChecker, check_hamiltonian
from hydroham.ratform import RationalForm
from test_properties import sparse_operators

# "<entry id> <kind> <index>" of every mutant of the catalog, one a line in
# catalog order: 339 lines, recorded when mutants() still zero-tested each
# entry as an Expr and built each mutant's forms from its own entries
MUTANT_LIST_SHA256 = (
    "7994116f36b5f3e786eaa78244bc700e05a28525580369c7bc5a96644f3d9ee1")

# repr((relation, indices, str(num), str(den))) of the first proven
# failure of each of those mutants, or "None", one a line in the same
# order, recorded when the checker still yielded every residual, zero or
# not, and first_proven_failure skipped the zero ones
FIRST_FAILURES_SHA256 = (
    "e51304efcf6779676109e26b0ba9bdacdb7c00bfca17f3ce84eedc65c4ed052a")


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


def test_failure_at_a2_builds_no_later_table(monkeypatch):
    """A mutant that fails a2 differentiates g and builds the a2 table
    (its own is its parent's with the edited keys recomputed) but builds
    no d b, no C and none of the tables of a3-a7: neither its checker, nor
    its forms, nor the parent forms they were edited from."""
    checkers = []

    class Recorded(MokhovChecker):
        def __init__(self, op):
            super().__init__(op)
            checkers.append(self)

    def built(obj):
        return {name for name in vars(obj)
                if isinstance(getattr(type(obj), name, None),
                              cached_property)}

    monkeypatch.setattr(mutation, "MokhovChecker", Recorded)
    op, _ws = catalog.instantiate("P_gas")
    _m, mutant = next(mutation.mutants(op))
    assert first_proven_failure(mutant)[0] == "a2"
    checker, = checkers
    assert checker.forms is mutant.forms
    assert built(checker) == set()
    # an operator built from Exprs is given g and b at construction
    assert built(mutant) == built(op) == {"g", "b", "forms"}
    assert built(mutant.forms) == built(op.forms) == {"DG", "A2"}
    assert mutant.forms.DG is op.forms.DG


def test_failure_at_a5_builds_only_the_blocks_it_reads(monkeypatch):
    """A mutant whose first failure lies in bracket block (x, x, 1) builds
    that block and no other, no a6 or a7 table, and forms fewer ring
    products than check_hamiltonian on the same mutant (both with the
    forms' derivatives built)."""
    checkers, tables = [], []

    class Recorded(MokhovChecker):
        def __init__(self, op):
            super().__init__(op)
            checkers.append(self)

        def _a6_terms(self):
            tables.append("a6")
            return super()._a6_terms()

        def _a7_terms(self):
            tables.append("a7")
            return super()._a7_terms()

    products = 0
    mul = RationalForm.__mul__

    def counted(a, b):
        nonlocal products
        products += 1
        return mul(a, b)

    monkeypatch.setattr(mutation, "MokhovChecker", Recorded)
    monkeypatch.setattr(RationalForm, "__mul__", counted)
    op, _ws = catalog.instantiate("T2.6/rank1_P_2/2")
    mutant = next(m for mut, m in mutation.mutants(op)
                  if (mut.kind, mut.index) == ("swap", (0, 1, 2, 2)))
    mutant.forms.DB
    products = 0
    rel, idx, _rf = first_proven_failure(mutant)
    assert (rel, idx[:3]) == ("a5", ("x", "x", 1))
    checker, = checkers
    assert list(checker._blocks) == [(0, 0, 0)]
    assert tables == []
    scan_products, products = products, 0
    assert check_hamiltonian(mutant).overall == "fail"
    assert 0 < scan_products < products, (scan_products, products)


def test_mutants_are_not_checked_again(count_calls):
    """A mutant's entries are its parent's or rational multiples of them,
    so mutants() walks no entry's free symbols (it made 22,092 such walks
    over the catalog when each mutant was checked as a new operator).  A
    mutant shares its parent's g and, once built, its pencil.  The parents'
    pencils and forms are built first: their derivation contexts look for
    the arguments of abstract atoms that hold a variable."""
    parents = [catalog.instantiate(e.id)[0] for e in catalog.ENTRIES]
    for op in parents:
        op.pencil, op.forms
    counts = count_calls((ex.free_symbols, "free_symbols", None))
    pairs = [(op, m) for op in parents for _, m in mutation.mutants(op)]
    assert len(pairs) == 339
    assert counts["free_symbols"] == 0, counts
    assert all(m.g is op.g and m.pencil is op.pencil and m.b is not op.b
               for op, m in pairs)


def test_mutant_list_pinned():
    lines = [f"{entry.id} {m.kind} {m.index}" for entry in catalog.ENTRIES
             for m, _mut in mutation.mutants(catalog.instantiate(entry.id)[0])]
    assert len(lines) == 339
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == MUTANT_LIST_SHA256


def _failure(found):
    if found is None:
        return None
    rel, idx, rf = found
    return rel, idx, str(rf.num), str(rf.den)


def test_first_failures_pinned():
    kills = []
    lines = []
    for entry in catalog.ENTRIES:
        for _m, mut in mutation.mutants(catalog.instantiate(entry.id)[0]):
            found = _failure(first_proven_failure(mut))
            lines.append(repr(found) if found else "None")
            kills.append(found[0] if found else None)
    assert {rel: kills.count(rel) for rel in set(kills)} == \
        {"a2": 278, "a3": 11, "a5": 38, None: 12}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == FIRST_FAILURES_SHA256


def _report(report):
    return [(r.relation, r.indices, str(r.residual), r.verdict.kind)
            for r in report.records]


def assert_matches_scratch(mutant, op):
    """mutant's forms, edited from op's, equal forms converted afresh from
    the mutant's own entries, and give the same verdicts."""
    assert mutant.forms.G is op.forms.G
    fresh = HydroOperator(mutant.ws, mutant.d, mutant.n, mutant.g, mutant.b)
    assert fresh.forms.ctx is not op.forms.ctx
    assert mutant.forms.B == fresh.forms.B
    assert mutant.forms.DB == fresh.forms.DB
    assert mutant.forms.A2 == fresh.forms.A2
    found = first_proven_failure(mutant)
    assert _failure(found) == _failure(first_proven_failure(fresh))
    if found is None:
        assert _report(check_hamiltonian(mutant)) == \
            _report(check_hamiltonian(fresh))


def assert_mutants_match_scratch(op):
    """Every mutant of op, and the last mutant of each mutant (its forms
    edited from forms that were edited themselves), matches forms
    converted afresh."""
    for _m, mutant in mutation.mutants(op):
        assert_matches_scratch(mutant, op)
        chained = [m for _m, m in mutation.mutants(mutant)]
        if chained:
            assert chained[-1].forms._base is mutant.forms
            assert_matches_scratch(chained[-1], op)


@pytest.mark.parametrize("entry_id", [e.id for e in catalog.ENTRIES])
def test_catalog_mutants_match_scratch_forms(entry_id):
    assert_mutants_match_scratch(catalog.instantiate(entry_id)[0])


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(sparse_operators())
def test_random_mutants_match_scratch_forms(op):
    assert_mutants_match_scratch(op)
