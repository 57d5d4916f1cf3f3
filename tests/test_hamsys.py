"""System generation, dispersion, reduction residuals, shape classes."""

from fractions import Fraction

import pytest

from hydroham import Workspace, catalog, is_zero, parse, print_expr, zerotest
from hydroham import expr as ex
from hydroham.hamsys import (
    DegenerateCandidateError,
    HamiltonianDensity,
    ReductionCandidate,
    classify_operator_shape,
    commutativity_residual,
    dispersion,
    generate_system,
    hodograph_residual,
    reduction_residual,
)
from hydroham.operators import operator_from_entries, zero_operator
from hydroham.ratform import ratform_to_expr
from hydroham.zerotest import InconclusiveError, verdict_for_ratform
from sympy_oracle import sympy_value


def gas_with_state_function():
    """P_gas plus h = rho(u^2+v^2)/2 + k(rho) in (u1, u2, u3) naming."""
    ws = Workspace()
    ws.add_variables("u1", "u2", "u3")
    ws.add_function("k", ["u1"])
    ws.freeze()
    entry = catalog.get_entry("P_gas")
    op = operator_from_entries(
        ws, 2, 3,
        {k2: parse(v, ws) for k2, v in entry.g.items()},
        {k2: parse(v, ws) for k2, v in entry.b.items()},
    )
    h = parse("1/2*u1*(u2^2 + u3^2) + k(u1)", ws)
    return op, HamiltonianDensity(h, ws), ws


def test_gas_system_matches_displayed_matrices():
    op, h, ws = gas_with_state_function()
    sys = generate_system(op, h)
    expect_A = [["u2", "u1", "0"], ["k''", "u2", "0"], ["0", "0", "u2"]]
    expect_B = [["u3", "0", "u1"], ["0", "u3", "0"], ["k''", "0", "u3"]]
    for i in range(3):
        for k in range(3):
            assert is_zero(sys.A[i][k] - parse(expect_A[i][k], ws),
                           ws).kind == "proven_zero"
            assert is_zero(sys.B[i][k] - parse(expect_B[i][k], ws),
                           ws).kind == "proven_zero"


def test_linear_density_gives_zero_system():
    ws = Workspace()
    ws.add_variables("u1", "u2")
    ws.freeze()
    op = operator_from_entries(ws, 1, 2, {(0, 1, 1): ex.ONE}, {})
    sys = generate_system(op, HamiltonianDensity(parse("2*u1 - u2", ws), ws))
    assert all(e == ex.ZERO for row in sys.A for e in row)
    assert all(e == ex.ZERO for row in sys.B for e in row)


def test_rank0_system_structure():
    """Rows 1, 2 driven only by u3 derivatives; row 3 zero."""
    op, ws = catalog.instantiate("T2.5/1")
    sys = generate_system(op, HamiltonianDensity.abstract(ws, 3))
    for i in (0, 1):
        for k in (0, 1):
            assert sys.A[i][k] == ex.ZERO and sys.B[i][k] == ex.ZERO
        assert sys.A[i][2] != ex.ZERO
    assert all(sys.A[2][k] == ex.ZERO and sys.B[2][k] == ex.ZERO
               for k in range(3))


def test_system_linear_in_density():
    op, ws = catalog.instantiate("T2.7/rank2_P_4/2")
    h1 = HamiltonianDensity(parse("u1^2*u2", ws), ws)
    h2 = HamiltonianDensity(parse("u3^2 + u1*u3", ws), ws)
    both = HamiltonianDensity(
        ex.add(h1.h, h2.h), ws)
    s1, s2, s12 = (generate_system(op, h) for h in (h1, h2, both))
    for i in range(3):
        for k in range(3):
            assert is_zero(
                s12.A[i][k] - s1.A[i][k] - s2.A[i][k], ws
            ).kind == "proven_zero"
            assert is_zero(
                s12.B[i][k] - s1.B[i][k] - s2.B[i][k], ws
            ).kind == "proven_zero"


def test_dispersion_gas_factorization():
    op, h, ws = gas_with_state_function()
    rel = dispersion(generate_system(op, h))
    lam, mu = rel.params
    w = ex.add(ex.ONE, ex.mul(ex.Var(lam), parse("u2", ws)),
               ex.mul(ex.Var(mu), parse("u3", ws)))
    c2 = parse("u1*k''", ws)
    product = ex.mul(w, ex.add(
        ex.pow_(w, 2),
        ex.neg(ex.mul(c2, ex.add(ex.pow_(ex.Var(lam), 2),
                                 ex.pow_(ex.Var(mu), 2)))),
    ))
    assert is_zero(rel.det - product, rel.ws).kind == "proven_zero"


def test_dispersion_trivial_and_n1():
    ws = Workspace()
    ws.add_variables("u1", "u2")
    ws.freeze()
    op = zero_operator(ws, 2, 2)
    rel = dispersion(generate_system(op, HamiltonianDensity(
        parse("u1*u2", ws), ws)))
    assert rel.coefficients == {(0, 0): ex.ONE}

    ws1 = Workspace()
    ws1.add_variables("u1")
    ws1.freeze()
    op1 = operator_from_entries(ws1, 2, 1, {(0, 1, 1): ex.ONE,
                                            (1, 1, 1): ex.Rat(2)}, {})
    sys1 = generate_system(op1, HamiltonianDensity(parse("u1^2/2", ws1), ws1))
    rel1 = dispersion(sys1)
    # 1 + lam*a + mu*b with a = A[0][0], b = B[0][0]
    assert set(rel1.coefficients) == {(0, 0), (1, 0), (0, 1)}
    assert rel1.coefficients[(0, 0)] == ex.ONE


def test_dispersion_degree_and_constant_term():
    for eid in ("P_gas", "T2.7/rank2_P_1/1", "T2.6/rank1_P_2/2"):
        op, ws = catalog.instantiate(eid)
        rel = dispersion(generate_system(
            op, HamiltonianDensity.abstract(ws, op.n)))
        assert all(i + j <= op.n for (i, j) in rel.coefficients)
        assert rel.coefficients[(0, 0)] == ex.ONE


def candidate_ws(m, funcs=()):
    ws = Workspace()
    ws.add_variables(*(f"R{i}" for i in range(1, m + 1)))
    for name, args in funcs:
        ws.add_function(name, args)
    return ws.freeze()


def test_commutativity_r_independent_speeds():
    ws = candidate_ws(2)
    c = ReductionCandidate(
        ws, 2,
        u=[parse("R1", ws), parse("R2", ws)],
        lam=[parse("R1", ws), parse("R2", ws)],
        mu=[parse("R1^2", ws), parse("R2^2", ws)],
    )
    residuals = commutativity_residual(c)
    assert all(verdict_for_ratform(r).kind == "proven_zero"
               for _, r in residuals)


def test_commutativity_affine_relation_degenerate_case():
    """mu^i = a lam^i + b with constant a, b satisfies the constraints
    identically (the travelling-wave case)."""
    ws = candidate_ws(2, [("L1", ["R1", "R2"]), ("L2", ["R1", "R2"])])
    lam = [parse("L1", ws), parse("L2", ws)]
    mu = [parse("3*L1 + 2", ws), parse("3*L2 + 2", ws)]
    c = ReductionCandidate(ws, 2, u=[parse("R1", ws), parse("R2", ws)],
                           lam=lam, mu=mu)
    residuals = commutativity_residual(c)
    assert all(verdict_for_ratform(r).kind == "proven_zero"
               for _, r in residuals)


def test_commutativity_failing_candidate():
    ws = candidate_ws(2)
    c = ReductionCandidate(
        ws, 2,
        u=[parse("R1", ws), parse("R2", ws)],
        lam=[parse("R2", ws), parse("0", ws)],
        mu=[parse("R1", ws), parse("1", ws)],
    )
    residuals = commutativity_residual(c)
    assert any(verdict_for_ratform(r).kind == "proven_nonzero"
               for _, r in residuals)


def test_commutativity_coinciding_speeds_rejected():
    ws = candidate_ws(2)
    c = ReductionCandidate(
        ws, 2,
        u=[parse("R1", ws), parse("R2", ws)],
        lam=[parse("R1 + R2", ws), parse("R2 + R1", ws)],
        mu=[parse("R1", ws), parse("R2", ws)],
    )
    with pytest.raises(DegenerateCandidateError):
        commutativity_residual(c)


def test_commutativity_tests_each_pair_of_speeds_once(count_calls):
    """Each unordered pair of speeds is zero-tested once (lam, then mu): 6
    tests for 3 speeds, 12 when each ordered pair was tested.  The first
    coinciding pair is the one the ordered loop met first."""
    ws = candidate_ws(3)
    R = [parse(f"R{i}", ws) for i in (1, 2, 3)]
    mu = [parse(f"R{i}^2", ws) for i in (1, 2, 3)]
    counts = count_calls((zerotest.verdict_for_ratform, "verdict", None))
    c = ReductionCandidate(ws, 3, u=R, lam=R, mu=mu)
    assert len(commutativity_residual(c)) == 6
    assert counts["verdict"] == 6, counts
    for lam, pair in (([R[0], R[1], R[1]], "2 and 3"),
                      ([R[0], R[1], R[0]], "1 and 3"),
                      ([R[1], R[1], R[1]], "1 and 2")):
        c = ReductionCandidate(ws, 3, u=R, lam=lam, mu=mu)
        with pytest.raises(DegenerateCandidateError,
                           match=f"speeds {pair} coincide"):
            commutativity_residual(c)


def test_reduction_residual_constant_u_is_zero():
    op, h, ws = gas_with_state_function()
    sys = generate_system(op, h)
    rws = candidate_ws(1)
    c = ReductionCandidate(
        rws, 1,
        u=[parse("2", rws), parse("3", rws), parse("5", rws)],
        lam=[parse("R1", rws)],
        mu=[parse("R1^2", rws)],
    )
    out = reduction_residual(c, sys)
    assert all(verdict_for_ratform(e).kind == "proven_zero" for _, e in out)


def test_reduction_residual_numeric_eigen_oracle():
    """Simple wave for gas dynamics at rho=1, u=v=0 with c=1 (k = rho^2/2):
    the dispersion picks lam^2 + mu^2 = 1; a numeric null vector of
    E + lam A + mu B satisfies the reduction residual at the point."""
    numpy = pytest.importorskip("numpy")
    ws = Workspace()
    ws.add_variables("u1", "u2", "u3")
    ws.freeze()
    entry = catalog.get_entry("P_gas")
    op = operator_from_entries(
        ws, 2, 3,
        {k2: parse(v, ws) for k2, v in entry.g.items()},
        {k2: parse(v, ws) for k2, v in entry.b.items()},
    )
    h = HamiltonianDensity(parse("1/2*u1*(u2^2 + u3^2) + 1/2*u1^2", ws), ws)
    sys = generate_system(op, h)
    lam, mu = Fraction(3, 5), Fraction(4, 5)
    A = numpy.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
    B = numpy.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=float)
    M = numpy.eye(3) + float(lam) * A + float(mu) * B
    _, s, vh = numpy.linalg.svd(M)
    assert s[-1] < 1e-12
    xi = vh[-1]
    # candidate: u(R) = u0 + xi*R with constant speeds
    rws = candidate_ws(1)
    xi_fr = [Fraction(x).limit_denominator(10**12) for x in xi]
    c = ReductionCandidate(
        rws, 1,
        u=[ex.add(ex.Rat(u0), ex.mul(ex.Rat(x), parse("R1", rws)))
           for u0, x in zip((1, 0, 0), xi_fr)],
        lam=[ex.Rat(lam)], mu=[ex.Rat(mu)],
    )
    out = reduction_residual(c, sys)
    for _, e in out:
        val = sympy_value(print_expr(ratform_to_expr(e)), {"R1": Fraction(0)})
        assert abs(float(val)) < 1e-9


def test_gas_reduction_implies_potentiality():
    """mu^i (row u) - lam^i (row v) factors as
    (1 + lam h_{rho u} + mu h_{rho v}) (mu du - lam dv)."""
    ws = Workspace()
    ws.add_variables("u1", "u2", "u3")
    ws.add_function("h", ["u1", "u2", "u3"])
    ws.freeze()
    entry = catalog.get_entry("P_gas")
    op = operator_from_entries(
        ws, 2, 3,
        {k2: parse(v, ws) for k2, v in entry.g.items()},
        {k2: parse(v, ws) for k2, v in entry.b.items()},
    )
    sys = generate_system(op, HamiltonianDensity(parse("h", ws), ws))
    # the R workspace also registers u1..u3 so that h's declaration resolves
    rws = Workspace()
    rws.add_variables("R1", "u1", "u2", "u3")
    for name in ("rr", "uu", "vv", "la", "m"):
        rws.add_function(name, ["R1"])
    rws.add_function("h", ["u1", "u2", "u3"])
    rws.freeze()
    c = ReductionCandidate(
        rws, 1,
        u=[parse("rr", rws), parse("uu", rws), parse("vv", rws)],
        lam=[parse("la", rws)],
        mu=[parse("m", rws)],
    )
    rows = {idx: ratform_to_expr(rf)
            for idx, rf in reduction_residual(c, sys)}
    subs = "(rr, uu, vv)"
    potential = parse("m*uu' - la*vv'", rws)

    # the intermediate reduced equations as displayed: mu*(eq_u) - la*(eq_v)
    # factors through the potentiality combination
    eq_u = parse(
        f"(1 + la*h_12{subs} + m*h_13{subs})*uu' + h_11{subs}*la*rr'", rws)
    eq_v = parse(
        f"(1 + la*h_12{subs} + m*h_13{subs})*vv' + h_11{subs}*m*rr'", rws)
    combo = ex.add(ex.mul(parse("m", rws), eq_u),
                   ex.neg(ex.mul(parse("la", rws), eq_v)))
    factor = parse(f"1 + la*h_12{subs} + m*h_13{subs}", rws)
    assert is_zero(combo - ex.mul(factor, potential),
                   rws).kind == "proven_zero"

    # the generated rows differ from eq_u/eq_v by multiples of the same
    # combination, so their mu/la combination factors through it as well
    combo2 = ex.add(ex.mul(parse("m", rws), rows[(1, 2)]),
                    ex.neg(ex.mul(parse("la", rws), rows[(1, 3)])))
    factor2 = parse(f"1 + la*h_2{subs}/rr + m*h_3{subs}/rr", rws)
    assert is_zero(combo2 - ex.mul(factor2, potential),
                   rws).kind == "proven_zero"
    # and for the actual gas density (h_u = rho*u, h_v = rho*v) the two
    # factors coincide: h_u/rho = h_{rho u}, h_v/rho = h_{rho v}


def test_hodograph_identities():
    ws = candidate_ws(2)
    lam = [parse("R1", ws), parse("R2", ws)]
    mu = [parse("R1^2", ws), parse("R2^2", ws)]
    c = ReductionCandidate(ws, 2, u=[parse("R1", ws), parse("R2", ws)],
                           lam=lam, mu=mu, v=list(lam))
    symbolic, numeric = hodograph_residual(
        c, {"R1": 2, "R2": 3}, t=1, x=0, y=0)
    # v^i = lam^i solves the linear system trivially
    assert all(verdict_for_ratform(r).kind == "proven_zero"
               for _, r in symbolic)
    # v^i(R0) - x - lam^i t - mu^i y at t=1, x=0, y=0 equals v^i - lam^i = 0
    assert all(val == 0 for _, val in numeric)


def test_hodograph_mu_solves_its_own_system():
    ws = candidate_ws(2)
    lam = [parse("R1", ws), parse("R2", ws)]
    mu = [parse("R1^2", ws), parse("R2^2", ws)]
    c = ReductionCandidate(ws, 2, u=[parse("R1", ws), parse("R2", ws)],
                           lam=lam, mu=mu, v=list(mu))
    symbolic, _ = hodograph_residual(c, {"R1": 1, "R2": 2}, t=0, x=0, y=0)
    mu_rows = [r for (i, j, fam), r in symbolic if fam == "mu"]
    assert all(verdict_for_ratform(r).kind == "proven_zero" for r in mu_rows)


def test_hodograph_violating_v():
    ws = candidate_ws(2)
    c = ReductionCandidate(
        ws, 2, u=[parse("R1", ws), parse("R2", ws)],
        lam=[parse("R1", ws), parse("R2", ws)],
        mu=[parse("R1^2", ws), parse("R2^2", ws)],
        v=[parse("R2", ws), parse("2*R1", ws)],
    )
    symbolic, _ = hodograph_residual(c, {"R1": 1, "R2": 2}, t=0, x=0, y=0)
    assert any(verdict_for_ratform(r).kind == "proven_nonzero"
               for _, r in symbolic)


def test_shape_table_agreement():
    expected = {e.id: (e.shape_bucket, e.shape_form)
                for e in catalog.list_entries() if e.shape_bucket}
    assert len(expected) == 16
    for eid, (bucket, form) in expected.items():
        op, ws = catalog.instantiate(eid)
        res = classify_operator_shape(op)
        assert res.kind == bucket, (eid, str(res))
        if form is not None:
            assert res.form == form, (eid, str(res))


# str(classify_operator_shape) per catalog entry with its default
# parameters, and (second key True) with every abstract function set to
# exp of its first argument.  Recorded before the classifier moved onto
# the system's rational forms; the three d = 1 rank-2 entries raised
# OperatorError then, because the triviality test required d = 2.  The
# witness was re-recorded when it came to list only the generators of the
# form it judges; it listed every variable and constant of the context.
_EXP_WITNESS = ("raises InconclusiveError: verdict for exp(cu3) is only "
                "probabilistic: ProbablyNonzero(witness={'cu3': '1/7'})")
SHAPES = {
    ("T2.2/1", False): "transport-1D [frozen: u2]",
    ("T2.2/2", False): "transport-1D [frozen: u2]",
    ("T2.3/rank0", False): "trivial [frozen: u3, u1, u2]",
    ("T2.3/rank1_1", False): "transport-1D [frozen: u2, u3]",
    ("T2.3/rank1_2", False): "transport-1D [frozen: u3, u2]",
    ("T2.3/rank1_3", False): "transport-1D [frozen: u2, u3]",
    ("T2.3/rank1_4", False): "transport-1D [frozen: u2, u3]",
    ("T2.3/rank2_1", False): "decoupled-2-component(1d) [frozen: u3]",
    ("T2.3/rank2_2", False): "decoupled-2-component(1d) [frozen: u3]",
    ("T2.3/rank2_3", False): "decoupled-2-component(1d) [frozen: u3]",
    ("T2.4", False): "transport-1D [frozen: u2]",
    ("T2.5/1", False): "trivial [frozen: u3, u1, u2]",
    ("T2.5/2", False): "trivial [frozen: u3, u1, u2]",
    ("T2.6/rank1_P_1/1", False): "transport-1D [frozen: u2, u3]",
    ("T2.6/rank1_P_1/1", True): "transport-1D [frozen: u2, u3]",
    ("T2.6/rank1_P_1/2", False): "transport-1D [frozen: u2, u3]",
    ("T2.6/rank1_P_1/2", True): "transport-1D [frozen: u2, u3]",
    ("T2.6/rank1_P_2/1", False): "transport-1D [frozen: u3, u2]",
    ("T2.6/rank1_P_2/1", True): "transport-1D [frozen: u3, u2]",
    ("T2.6/rank1_P_2/2", False): "transport-1D [frozen: u2, u3]",
    ("T2.7/rank2_P_1/1", False): "decoupled-2-component(3) [frozen: u3]",
    ("T2.7/rank2_P_1/2", False): "euler-lagrange-reducible",
    ("T2.7/rank2_P_2/1", False): "decoupled-2-component(1) [frozen: u3]",
    ("T2.7/rank2_P_2/1", True): _EXP_WITNESS,
    ("T2.7/rank2_P_2/2", False): "decoupled-2-component(2) [frozen: u3]",
    ("T2.7/rank2_P_3/1", False): "decoupled-2-component(2) [frozen: u3]",
    ("P_gas", False): "euler-lagrange-reducible",
    ("T2.7/rank2_P_4/1", False): "euler-lagrange-reducible",
    ("T2.7/rank2_P_4/2", False): "decoupled-2-component(3) [frozen: u3]",
    ("T2.7/rank2_P_5", False): "decoupled-2-component(1) [frozen: u3]",
    ("T2.7/rank2_P_6", False): "decoupled-2-component(1) [frozen: u3]",
    ("APP/rank1_sol1", False): "unclassified",
    ("APP/rank1_sol1", True): "unclassified",
    ("APP/rank1_sol2", False): "transport-1D [frozen: u3, u2]",
    ("APP/rank1_sol2", True): "transport-1D [frozen: u3, u2]",
    ("APP/rk2_2D_1", False): "decoupled-2-component(2) [frozen: u3]",
    ("APP/rk2_2D_1", True): _EXP_WITNESS,
    ("APP/rk2_2D_2", False): "unclassified",
    ("APP/rk2_2D_2", True): "unclassified",
}


def shape_or_error(op) -> str:
    try:
        return str(classify_operator_shape(op))
    except InconclusiveError as e:
        return f"raises InconclusiveError: {e}"


def test_shapes_pinned_for_every_entry():
    got = {}
    for entry in catalog.list_entries():
        got[entry.id, False] = shape_or_error(catalog.instantiate(entry.id)[0])
        if entry.func_slots:
            params = catalog.default_params(entry)
            params.update((name, f"exp({args[0]})")
                          for name, args in entry.func_slots)
            got[entry.id, True] = shape_or_error(
                catalog.instantiate(entry.id, params)[0])
    assert got == SHAPES


@pytest.mark.parametrize("eid", ["T2.3/rank2_1", "T2.3/rank2_2",
                                 "T2.3/rank2_3"])
def test_1d_operator_reduces_to_proportional_pair(eid):
    """A d = 1 operator is a 2D one with zero y-part; once u3 is frozen,
    its pair is proportional with xi = 0."""
    op, _ws = catalog.instantiate(eid)
    res = classify_operator_shape(op)
    assert (res.kind, res.form, res.frozen) == ("decoupled-2-component",
                                                "1d", ["u3"])
