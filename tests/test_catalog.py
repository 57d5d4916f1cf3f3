"""Catalog coverage, instantiation, verification."""

import random
import pytest

from hydroham import catalog, is_zero, parse, print_expr, ratform
from hydroham import expr as ex
from hydroham.operators import (
    check_hamiltonian,
    is_trivial_pair,
    pencil_compatibility,
)
from hydroham.zerotest import InconclusiveError


def test_entry_count_and_groups():
    entries = catalog.list_entries()
    assert len(entries) == 31
    by_prefix = {}
    for e in entries:
        key = e.id.split("/")[0]
        by_prefix[key] = by_prefix.get(key, 0) + 1
    assert by_prefix["T2.2"] == 2
    assert by_prefix["T2.3"] == 8
    assert by_prefix["T2.4"] == 1
    assert by_prefix["T2.5"] == 2
    assert by_prefix["T2.6"] == 4
    assert by_prefix["T2.7"] + by_prefix["P_gas"] == 10
    assert by_prefix["APP"] == 4


def test_rank0_entry_has_zero_metric():
    op, ws = catalog.instantiate("T2.3/rank0")
    assert all(op.g[0][i][j] == ex.ZERO for i in range(3) for j in range(3))


def test_catalog_expressions_round_trip():
    """parse(print(e)) = e structurally for every catalog coefficient."""
    for entry in catalog.list_entries():
        ws = entry.workspace()
        for text in list(entry.g.values()) + list(entry.b.values()):
            e = parse(text, ws)
            assert parse(print_expr(e), ws) == e, (entry.id, text)


def test_kappa_slot_present():
    entry = catalog.get_entry("T2.7/rank2_P_6")
    assert "kappa" in entry.const_slots


def test_unknown_id():
    with pytest.raises(catalog.CatalogError):
        catalog.get_entry("nope")


def test_instantiate_T24_eps1():
    op, ws = catalog.instantiate("T2.4", {"eps": 1})
    assert print_expr(op.b[0][0][1][1]) == "-1/u1"
    assert print_expr(op.g[1][0][0]) == "u2"
    op0, _ = catalog.instantiate("T2.4", {"eps": 0})
    assert op0.b[0][0][1][1] == ex.ZERO


def test_instantiate_eps_validation():
    with pytest.raises(catalog.CatalogError):
        catalog.instantiate("T2.4", {"eps": 2})
    with pytest.raises(catalog.CatalogError):
        catalog.instantiate("T2.4", {"eps": 1, "zzz": 3})


def test_abstract_slots_stay_abstract():
    op, ws = catalog.instantiate("T2.6/rank1_P_1/2")
    assert print_expr(op.g[1][0][0]) == "f"
    assert print_expr(op.b[1][0][0][1]) == "1/2*f_2"


def test_zero_slots_give_trivial_pair():
    params = {"eps": 0, "p": "0", "q": "0", "r": "0"}
    op, ws = catalog.instantiate("T2.7/rank2_P_2/1", params)
    res = is_trivial_pair(op)
    assert res.trivial and print_expr(res.xi) == "0"  # y-part vanishes
    nonzero = {"eps": 1, "p": "0", "q": "0", "r": "0"}
    op2, _ = catalog.instantiate("T2.7/rank2_P_2/1", nonzero)
    assert not is_trivial_pair(op2).trivial


# is_trivial_pair on each d = 2 entry, recorded when it converted the
# entries into a context of its own: none is trivial, so none has a xi,
# and the notes are these
TRIVIALITY_NOTES = {
    "T2.4": "proportionality factor u2 is not constant",
    "T2.5/1": "proportionality factor u1 is not constant",
    "T2.5/2": "proportionality factor u3 is not constant",
    "T2.6/rank1_P_1/1": "proportionality factor u2 is not constant",
    "T2.6/rank1_P_1/2": "proportionality factor f is not constant",
    "T2.6/rank1_P_2/1": "proportionality factor f is not constant",
    "T2.6/rank1_P_2/2": "proportionality factor u2 is not constant",
    "T2.7/rank2_P_1/1": "proportionality factor u2 is not constant",
    "T2.7/rank2_P_1/2": "not proportional",
    "T2.7/rank2_P_2/1": "proportionality factor q is not constant",
    "T2.7/rank2_P_2/2": "not proportional",
    "T2.7/rank2_P_3/1": "proportionality factor u3 is not constant",
    "P_gas": "not proportional",
    "T2.7/rank2_P_4/1": "not proportional",
    "T2.7/rank2_P_4/2": "proportionality factor -1/2*u2 is not constant",
    "T2.7/rank2_P_5": "proportionality factor -u3 is not constant",
    "T2.7/rank2_P_6": "not proportional",
    "APP/rank1_sol1": "proportionality factor f is not constant",
    "APP/rank1_sol2": "proportionality factor f is not constant",
    "APP/rk2_2D_1": "proportionality factor q is not constant",
    "APP/rk2_2D_2": "proportionality factor -1/2*u2*p + 2 is not constant",
}


def test_catalog_triviality_pinned():
    ids = [e.id for e in catalog.ENTRIES if e.d == 2]
    assert ids == list(TRIVIALITY_NOTES)
    for entry_id in ids:
        res = is_trivial_pair(catalog.instantiate(entry_id)[0])
        xi = None if res.xi is None else print_expr(res.xi)
        assert (res.trivial, xi, res.note) == \
            (False, None, TRIVIALITY_NOTES[entry_id]), entry_id


def test_triviality_reads_the_operator_forms(count_calls):
    """Once op.forms exists, is_trivial_pair builds no context."""
    ops = [catalog.instantiate(e.id)[0] for e in catalog.ENTRIES if e.d == 2]
    for op in ops:
        op.forms
    counts = count_calls((ratform.derivation_context, "contexts", None),
                         (ratform.build_context, "builds", None))
    for op in ops:
        is_trivial_pair(op)
    assert counts["contexts"] == 0 and counts["builds"] == 0, counts


def test_sampled_triviality_witness_lists_only_the_residual():
    """With f = exp(u2), the reference entry exp(u2) of T2.6/rank1_P_1/2 is
    only probably nonzero.  Its witness names u2 alone: it listed every
    variable and atom of the operator's forms, six h derivative atoms
    among them, when a sample drew a value for each generator of the
    context."""
    entry = catalog.get_entry("T2.6/rank1_P_1/2")
    params = {**catalog.default_params(entry), "f": "exp(u2)"}
    op, _ws = catalog.instantiate(entry.id, params)
    with pytest.raises(InconclusiveError) as err:
        is_trivial_pair(op)
    assert str(err.value) == ("verdict for exp(u2) is only probabilistic: "
                              "ProbablyNonzero(witness={'u2': '1/7'})")


def test_verify_entry_examples():
    v = catalog.verify_entry("T2.7/rank2_P_5")
    assert v.ok and v.rank == 2 and v.degenerate and v.trivial is False
    v = catalog.verify_entry("P_gas")
    assert v.ok
    op, ws = catalog.instantiate("P_gas")
    # the b entries carry 1/u1 poles
    assert print_expr(op.b[0][1][2][2]) == "-1/u1"


def test_gas_operator_is_swapped_rank2_P_3_2():
    """P_gas coincides with the second rank-2 pencil-3 form after the
    u1 <-> u2 relabeling."""
    from hydroham import Workspace
    from hydroham.calculus import substitute
    from hydroham.operators import operator_from_entries

    gas, ws = catalog.instantiate("P_gas")
    # build the unswapped form directly from the displayed matrix
    raw = {
        "g": {(0, 1, 2): "1", (0, 2, 1): "1", (1, 2, 3): "1", (1, 3, 2): "1"},
        "b": {(0, 1, 3, 3): "-1/u2", (0, 3, 1, 3): "1/u2",
              (1, 1, 3, 1): "1/u2", (1, 3, 1, 1): "-1/u2"},
    }
    ws2 = Workspace()
    ws2.add_variables("u1", "u2", "u3")
    ws2.freeze()
    unswapped = operator_from_entries(
        ws2, 2, 3,
        {k: parse(v, ws2) for k, v in raw["g"].items()},
        {k: parse(v, ws2) for k, v in raw["b"].items()},
    )
    assert check_hamiltonian(unswapped).overall == "proven_pass"
    # swap components 1 and 2: relabel indices and substitute variables
    perm = [1, 0, 2]
    u = ws2.variables
    swap = {u[0]: ex.Var(u[1]), u[1]: ex.Var(u[0])}
    for a in range(2):
        for i in range(3):
            for j in range(3):
                got = substitute(unswapped.g[a][perm[i]][perm[j]], swap)
                assert is_zero(got - gas.g[a][i][j], ws2).kind == "proven_zero"
                for k in range(3):
                    got = substitute(
                        unswapped.b[a][perm[i]][perm[j]][perm[k]], swap)
                    assert is_zero(got - gas.b[a][i][j][k],
                                   ws2).kind == "proven_zero"


def test_concrete_specialization_passes():
    rng = random.Random(4242)
    for eid in ("T2.6/rank1_P_2/1", "APP/rank1_sol1", "T2.7/rank2_P_6"):
        entry = catalog.get_entry(eid)
        params = catalog.random_params(entry, rng)
        v = catalog.verify_entry(eid, params)
        assert v.report.overall == "proven_pass", (eid, params)
        assert v.degenerate and v.rank == entry.rank_label


def test_2d_entries_split_into_compatible_parts():
    """Any valid 2D operator's parts form a compatible 1D pair."""
    for eid in ("T2.4", "T2.5/2", "T2.7/rank2_P_1/1", "P_gas",
                "APP/rk2_2D_1"):
        op, ws = catalog.instantiate(eid)
        rep = pencil_compatibility(op)
        assert rep.overall == "proven_pass", eid


def test_rank_minor_structure():
    """rank labels agree with minor vanishing: rank-1 entries have zero 2x2
    pencil minors, rank-2 entries a vanishing determinant only."""
    from hydroham.operators import MetricPencil
    from hydroham.ratform import det
    import itertools

    for eid, label in (("T2.6/rank1_P_2/2", 1), ("T2.7/rank2_P_5", 2),
                       ("T2.5/1", 0)):
        op, ws = catalog.instantiate(eid)
        pencil = MetricPencil.of(op)
        n = op.n
        for r in range(1, n + 1):
            minors_all_zero = True
            for rows in itertools.combinations(range(n), r):
                for cols in itertools.combinations(range(n), r):
                    sub = [[pencil.matrix[i][j] for j in cols] for i in rows]
                    if not det(sub).is_zero:
                        minors_all_zero = False
            if r <= label:
                assert not minors_all_zero, (eid, r)
            else:
                assert minors_all_zero, (eid, r)
