"""Pushforward law, invariance, round trips, functoriality."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from hydroham import Workspace, catalog, is_zero, parse
from hydroham import expr as ex
from hydroham.calculus import differentiate, substitute
from hydroham.mutation import mutants
from hydroham.operators import (
    HydroOperator,
    _flatten,
    check_hamiltonian,
    operator_from_entries,
)
from hydroham.transform import (
    CoordinateChange,
    InvalidChangeError,
    coordinate_change,
    operator_difference_records,
    pushforward,
    verify_invariance,
)


def make_pair(n):
    src = Workspace()
    src.add_variables(*(f"u{i}" for i in range(1, n + 1)))
    src.freeze()
    dst = Workspace()
    dst.add_variables(*(f"v{i}" for i in range(1, n + 1)))
    dst.freeze()
    return src, dst


def make_change(src, dst, forward, inverse):
    return coordinate_change(
        src,
        {k: parse(v, dst) for k, v in forward.items()},
        {k: parse(v, src) for k, v in inverse.items()},
        dst,
    )


def test_single_component_scaling_law():
    src, dst = make_pair(1)
    c = make_change(src, dst, {"u1": "2*v1"}, {"v1": "u1/2"})
    op = operator_from_entries(src, 1, 1, {(0, 1, 1): ex.ONE}, {})
    pushed = pushforward(op, c)
    assert pushed.g[0][0][0] == ex.Rat(Fraction(1, 4))
    assert pushed.b[0][0][0][0] == ex.ZERO


def test_identity_change_is_identity():
    src, dst = make_pair(2)
    c = make_change(src, dst, {"u1": "v1", "u2": "v2"},
                    {"v1": "u1", "v2": "u2"})
    op = operator_from_entries(
        src, 1, 2, {(0, 1, 1): ex.ONE},
        {(0, 1, 2, 2): parse("-1/u1", src), (0, 2, 1, 2): parse("1/u1", src)})
    pushed = pushforward(op, c)
    records = operator_difference_records(pushed, op)
    assert all(r.verdict.is_zero_verdict for r in records)


def test_difference_of_operators_over_permuted_variables_raises():
    """Both operators' forms are composed under one renaming of op2's
    variables to op1's, which cannot also keep op1's u1 and u2 when op2
    reads them as (u2, u1)."""
    src, _dst = make_pair(2)
    swapped = Workspace()
    swapped.add_variables("u2", "u1")
    swapped.freeze()
    op = operator_from_entries(src, 1, 2, {(0, 1, 1): parse("u1", src)})
    again = operator_from_entries(swapped, 1, 2,
                                  {(0, 1, 1): parse("u2", swapped)})
    with pytest.raises(InvalidChangeError, match="other symbols"):
        operator_difference_records(op, again)


def test_linear_change_keeps_b_zero():
    """The metric moves as a (2,0)-tensor: linear changes create no b."""
    src, dst = make_pair(2)
    c = make_change(src, dst,
                    {"u1": "v1 + 2*v2", "u2": "v2"},
                    {"v1": "u1 - 2*u2", "v2": "u2"})
    op = operator_from_entries(
        src, 1, 2, {(0, 1, 1): ex.ONE, (0, 2, 2): ex.Rat(3)}, {})
    pushed = pushforward(op, c)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert pushed.b[0][i][j][k] == ex.ZERO


def test_invariance_with_rational_change():
    src, dst = make_pair(2)
    c = make_change(src, dst,
                    {"u1": "v1 + v2^2", "u2": "v2"},
                    {"v1": "u1 - u2^2", "v2": "u2"})
    op = operator_from_entries(src, 1, 2, {(0, 1, 1): ex.ONE}, {})
    rep = verify_invariance(op, c)
    assert rep.overall == "proven_pass"


def test_invariance_2d_form_moebius_change():
    from hydroham import catalog

    op, src = catalog.instantiate("T2.4", {"eps": 1})
    dst = Workspace()
    dst.add_variables("v1", "v2")
    dst.freeze()
    c = make_change(src, dst,
                    {"u1": "v1", "u2": "v2/(1 + v2)"},
                    {"v1": "u1", "v2": "u2/(1 - u2)"})
    rep = verify_invariance(op, c)
    assert rep.overall == "proven_pass"


def test_cube_reduction_read_backwards():
    """Under u1 = v1, u2 = v2^3 the y-metric (1,1) entry u2 becomes v2^3:
    the canonical-form reduction applied in reverse.  The cube map has no
    rational inverse, so the (2,0) law is applied with the analytic inverse
    jacobian entry dv2/du2 = 1/(3 v2^2)."""
    from hydroham import catalog

    op, src = catalog.instantiate("T2.4", {"eps": 1})
    dst = Workspace()
    dst.add_variables("v1", "v2")
    dst.freeze()
    u1, u2 = src.variables
    to_v = lambda e: substitute(e, {u1: parse("v1", dst),
                                    u2: parse("v2^3", dst)})
    K00 = ex.ONE  # dv1/du1
    ghat11_y = ex.mul(K00, K00, to_v(op.g[1][0][0]))
    assert is_zero(ghat11_y - parse("v2^3", dst), dst).kind == "proven_zero"


def test_degenerate_change_rejected():
    src, dst = make_pair(2)
    with pytest.raises(InvalidChangeError):
        make_change(src, dst, {"u1": "v1", "u2": "v1"},
                    {"v1": "u1", "v2": "u1"})


def test_wrong_inverse_rejected():
    src, dst = make_pair(2)
    with pytest.raises(InvalidChangeError):
        make_change(src, dst, {"u1": "v1 + v2", "u2": "v2"},
                    {"v1": "u1", "v2": "u2"})


def test_rank0_stabilizer_change():
    """u1 = v1 + v3, u2 = v2, u3 = v3 preserves the rank-0 x-part (its
    jacobian satisfies the stabilizer constraint) and keeps g = 0."""
    from hydroham import catalog

    op, src = catalog.instantiate("T2.3/rank0")
    dst = Workspace()
    dst.add_variables("v1", "v2", "v3")
    dst.freeze()
    c = make_change(src, dst,
                    {"u1": "v1 + v3", "u2": "v2", "u3": "v3"},
                    {"v1": "u1 - u3", "v2": "u2", "v3": "u3"})
    # stabilizer constraint d1 phi1 d2 phi2 - d2 phi1 d1 phi2 = (phi3)'
    J = [[differentiate(phi, v) for v in c.v_vars] for phi in c.forward]
    constraint = ex.add(ex.mul(J[0][0], J[1][1]),
                        ex.neg(ex.mul(J[0][1], J[1][0])), ex.neg(J[2][2]))
    assert is_zero(constraint, dst).kind == "proven_zero"
    pushed = pushforward(op, c)
    for i in range(3):
        for j in range(3):
            assert pushed.g[0][i][j] == ex.ZERO
    assert check_hamiltonian(pushed).overall == "proven_pass"
    assert verify_invariance(op, c).overall == "proven_pass"


def compose(c1: CoordinateChange, c2: CoordinateChange) -> CoordinateChange:
    """c2 after c1: u = phi1(phi2(w))."""
    fwd = [substitute(f, dict(zip(c1.v_vars, c2.forward)))
           for f in c1.forward]
    inv = [substitute(g, dict(zip(c2.u_vars, c1.inverse)))
           for g in c2.inverse]
    return CoordinateChange(c1.src_ws, c2.dst_ws, fwd, inv).validate()


def test_functoriality_random_changes():
    rng = random.Random(99)
    src, mid = make_pair(2)
    dst = Workspace()
    dst.add_variables("w1", "w2")
    dst.freeze()
    op = operator_from_entries(
        src, 1, 2, {(0, 1, 1): ex.ONE},
        {(0, 1, 2, 2): parse("-1/u1", src), (0, 2, 1, 2): parse("1/u1", src)})
    for _ in range(3):
        coeff = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        shift = Fraction(rng.randint(-3, 3))
        c1 = make_change(
            src, mid,
            {"u1": f"v1 + ({coeff})*v2^2", "u2": f"v2 + ({shift})"},
            {"v1": f"u1 - ({coeff})*(u2 - ({shift}))^2",
             "v2": f"u2 - ({shift})"},
        )
        a = Fraction(rng.randint(1, 3))
        c2 = make_change(
            mid, dst,
            {"v1": f"({a})*w1", "v2": "w2 + w1"},
            {"w1": f"v1/({a})", "w2": f"v2 - v1/({a})"},
        )
        direct = pushforward(pushforward(op, c1), c2)
        oneshot = pushforward(op, compose(c1, c2))
        records = operator_difference_records(direct, oneshot)
        assert all(r.verdict.is_zero_verdict for r in records)


def test_sqrt_inverse_is_never_composed():
    """u1 = v1^2 with v1 = sqrt(u1): K = J^{-1} = 1/(2 v1) is rational, so
    the pushed metric 1/(4 v1^2) is proven, not sampled.  Composing
    d(sqrt(u1))/du1 with phi left sqrt(v1^2) atoms in every entry."""
    src, dst = make_pair(1)
    c = make_change(src, dst, {"u1": "v1^2"}, {"v1": "sqrt(u1)"})
    op = operator_from_entries(src, 1, 1, {(0, 1, 1): ex.ONE}, {})
    pushed = pushforward(op, c)
    assert ex.print_expr(pushed.g[0][0][0]) == "1/4/v1^2"
    assert is_zero(pushed.g[0][0][0] - parse("1/(4*v1^2)", dst),
                   dst).kind == "proven_zero"
    assert verify_invariance(op, c).overall == "proven_pass"


# forward and inverse maps for n = 2 and n = 3
REFERENCE_CHANGES = {
    2: [({"u1": "v1", "u2": "v2 + v1"}, {"v1": "u1", "v2": "u2 - u1"}),
        ({"u1": "v1", "u2": "v2/(1 + v2)"},
         {"v1": "u1", "v2": "u2/(1 - u2)"})],
    3: [({"u1": "v1", "u2": "v2", "u3": "v3 + v1"},
         {"v1": "u1", "v2": "u2", "v3": "u3 - u1"}),
        ({"u1": "v1", "u2": "v2/(1 + v2)", "u3": "v3"},
         {"v1": "u1", "v2": "u2/(1 - u2)", "v3": "u3"})],
}


def reference_pushforward(op, c):
    """The pushforward law on Expr trees with K = d(phi^{-1})/du o phi,
    differentiated and composed term by term."""
    rng = range(op.n)
    to_v = lambda e: substitute(e, dict(zip(c.u_vars, c.forward)))
    J = [[differentiate(phi, v) for v in c.v_vars] for phi in c.forward]
    K = [[to_v(differentiate(psi, u)) for u in c.u_vars]
         for psi in c.inverse]
    DK = [[[differentiate(K[j][q], v) for q in rng] for j in rng]
          for v in c.v_vars]
    g_all, b_all = [], []
    for a in range(op.d):
        g = [[to_v(e) for e in row] for row in op.g[a]]
        b = [[[to_v(e) for e in row] for row in m] for m in op.b[a]]
        g_all.append([[_sum_of_products(
            (K[i][p], K[j][q], g[p][q]) for p in rng for q in rng)
            for j in rng] for i in rng])
        b_all.append([[[_sum_of_products(itertools.chain(
            ((K[i][p], K[j][q], b[p][q][r], J[r][k])
             for p in rng for q in rng for r in rng),
            ((K[i][p], g[p][q], DK[k][j][q]) for p in rng for q in rng)))
            for k in rng] for j in rng] for i in rng])
    return [g_all, b_all]


def _sum_of_products(factor_lists):
    return ex.add(*(ex.mul(*fs) for fs in factor_lists
                    if all(f != ex.ZERO for f in fs)))


def test_pushforward_matches_composed_inverse_law():
    """K = J^{-1} gives the same operator as the law with the derivative
    of the inverse map composed with phi, on every catalog entry."""
    for entry in catalog.list_entries():
        op, src = catalog.instantiate(entry.id)
        dst = src.derive(variables=[f"v{i}" for i in range(1, op.n + 1)])
        for fwd, inv in REFERENCE_CHANGES[op.n]:
            c = make_change(src, dst, fwd, inv)
            pushed = pushforward(op, c)
            for e1, e2 in zip(_flatten([pushed.g, pushed.b]),
                              _flatten(reference_pushforward(op, c)),
                              strict=True):
                assert e1 == e2 or is_zero(
                    e1 - e2, dst).kind == "proven_zero", \
                    (entry.id, fwd, ex.print_expr(e1))


def rational_change(op, src, component):
    """u_c = v_c/(1 + v_k), every other u_i = v_i, with its inverse, where
    k is 2 for c = 1 and 1 otherwise: u_n = v_n/(1 + v1) for the last
    component and u1 = v1/(1 + v2) for the first."""
    n, k = op.n, 2 if component == 1 else 1
    dst = src.derive(variables=[f"v{i}" for i in range(1, n + 1)])
    forward = {f"u{i}": f"v{i}" for i in range(1, n + 1)}
    inverse = {f"v{i}": f"u{i}" for i in range(1, n + 1)}
    forward[f"u{component}"] = f"v{component}/(1 + v{k})"
    inverse[f"v{component}"] = f"u{component}*(1 + u{k})"
    return make_change(src, dst, forward, inverse)


# The entries whose pushed check takes under 0.1 s under both changes of
# test_rational_changes_keep_verdicts (21 of the 31; the slowest pushed
# check of the other ten, APP/rk2_2D_2's under the change of the last
# component, takes about 1 s).
FAST_ENTRIES = [
    "T2.2/1", "T2.2/2", "T2.3/rank0", "T2.3/rank1_1", "T2.3/rank1_2",
    "T2.3/rank1_3", "T2.3/rank1_4", "T2.3/rank2_1", "T2.3/rank2_2",
    "T2.3/rank2_3", "T2.5/1", "T2.5/2", "T2.6/rank1_P_1/1",
    "T2.6/rank1_P_2/2", "T2.7/rank2_P_1/1", "T2.7/rank2_P_1/2",
    "T2.7/rank2_P_2/2", "T2.7/rank2_P_3/1", "P_gas", "T2.7/rank2_P_4/1",
    "T2.7/rank2_P_4/2",
]
CHANGE_SEED = 14


def changed_operators():
    """(label, operator, its workspace): the fast entries and a seeded
    sample of their mutants, one from each of ten entries that have any."""
    rng, drawn = random.Random(CHANGE_SEED), 0
    for entry_id in rng.sample(FAST_ENTRIES, len(FAST_ENTRIES)):
        op, src = catalog.instantiate(entry_id)
        yield entry_id, op, src
        if drawn < 10 and (pool := list(mutants(op))):
            mutation, mutant = rng.choice(pool)
            drawn += 1
            yield f"{entry_id} {mutation}", mutant, src


@pytest.mark.parametrize("component", ["last", "first"])
def test_rational_changes_keep_verdicts(component):
    """Change of variables keeps the verdict, a metamorphic relation: the
    Hamiltonian property does not depend on coordinates (Dubrovin and
    Novikov 1983), so check_hamiltonian of the pushed operator gives the
    overall verdict of the operator itself, for the fast entries and the
    sampled mutants under u_n = v_n/(1 + v1) and under u1 = v1/(1 + v2).
    The pushed operator is checked on the forms pushforward made; the
    operator read from its printed g and b gives the same records
    (relation, indices, printed residual, verdict)."""
    def records(report):
        return [(r.relation, r.indices, ex.print_expr(r.residual), r.verdict)
                for r in report.records]

    verdicts = Counter()
    for label, op, src in changed_operators():
        c = rational_change(op, src, op.n if component == "last" else 1)
        want = check_hamiltonian(op).overall
        pushed = pushforward(op, c)
        report = check_hamiltonian(pushed)
        assert report.overall == want, label
        verdicts[want] += 1
        again = HydroOperator(pushed.ws, pushed.d, pushed.n, pushed.g,
                              pushed.b)
        assert records(report) == records(check_hamiltonian(again)), label
    assert verdicts == {"proven_pass": 21, "fail": 10}, verdicts

