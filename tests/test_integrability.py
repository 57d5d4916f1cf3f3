"""Symmetric differentials, bordered Hessian, the fourth-order test,
Legendre transform, Euler-Lagrange fluxes."""

import random
from fractions import Fraction

import pytest

from hydroham import Workspace, is_zero, parse, print_expr
from hydroham import expr as ex
from hydroham.calculus import differentiate
from hydroham.integrability import (
    DegenerateLagrangianError,
    LagrangianDensity,
    _Ring,
    fkt_residual,
    legendre,
)
from hydroham.ratform import ratform_to_expr
from sympy_oracle import as_fraction, sympy_value


def density(text, functions=()):
    return LagrangianDensity.from_text(text, functions)


def all_zero(forms, ws):
    return all(is_zero(ratform_to_expr(c), ws).is_zero_verdict
               for c in forms.values())


def test_sym_diff_quadratic_third_order_vanishes():
    ring = _Ring(density("a^2 + b^2 + c^2"), 3)
    d3 = ring.split(ring.D(ring.f, 3), 3)
    assert all(c.is_zero for c in d3.values())


def test_sym_diff_boyer_finley():
    """The symmetric differential d^r f = D^r f, split by multi-index."""
    ring = _Ring(density("a^2 + b^2 - 2*exp(c)"), 4)
    d3 = ring.split(ring.D(ring.f, 3), 3)
    nonzero = {m: c for m, c in d3.items() if not c.is_zero}
    assert set(nonzero) == {(0, 0, 3)}
    assert print_expr(ratform_to_expr(nonzero[(0, 0, 3)])) == "-2*exp(c)"
    d4 = ring.split(ring.D(ring.f, 4), 4)
    assert print_expr(ratform_to_expr(d4[(0, 0, 4)])) == "-2*exp(c)"


def test_sym_diff_multinomial_count():
    ring = _Ring(density("a*b*c"), 3)
    d3 = ring.split(ring.D(ring.f, 3), 3)
    assert ratform_to_expr(d3[(1, 1, 1)]) == ex.Rat(6)


def test_sym_diff_multinomial_identity():
    """Coefficient (i,j,k) times i!j!k!/r! equals the raw partial."""
    from math import factorial

    rng = random.Random(11)
    for _ in range(5):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(4)]
        f = density(
            f"({coeffs[0]})*a^3 + ({coeffs[1]})*a*b*c + ({coeffs[2]})*b^2*c"
            f" + ({coeffs[3]})*c^3"
        )
        ring = _Ring(f, 4)
        for order in (3, 4):
            form = ring.split(ring.D(ring.f, order), order)
            vars_ = f.vars()
            for (i, j, k), coeff in form.items():
                raw = f.f
                for v, cnt in zip(vars_, (i, j, k)):
                    for _ in range(cnt):
                        raw = differentiate(raw, v)
                mult = Fraction(factorial(i) * factorial(j) * factorial(k),
                                factorial(order))
                assert is_zero(ex.mul(ex.Rat(mult), ratform_to_expr(coeff))
                               - raw,
                               f.ws).kind == "proven_zero"


def test_hessian_and_bordered_matrix():
    ring = _Ring(density("a^2 + b^2 - 2*exp(c)"), 2)
    assert print_expr(ratform_to_expr(ring.hessian())) == "-8*exp(c)"
    M = [[ratform_to_expr(x) for x in row] for row in ring.M]
    assert M[0][0] == ex.ZERO
    assert print_expr(M[0][3]) == "-2*exp(c)"
    assert print_expr(M[3][3]) == "-2*exp(c)"


def test_bordered_derivatives_match_entrywise():
    """M_x = dM/dx with the fixed zero corner, for a random cubic."""
    rng = random.Random(23)
    coeffs = [Fraction(rng.randint(-3, 3), 1) for _ in range(5)]
    f = density(
        f"({coeffs[0]})*a^3 + ({coeffs[1]})*a^2*b + ({coeffs[2]})*b^2*c"
        f" + ({coeffs[3]})*a*b*c + ({coeffs[4]})*c^3"
    )
    ring = _Ring(f, 3)
    for v, d in zip(f.vars(), ring.ctx.deriv):
        for i in range(4):
            for j in range(4):
                expect = differentiate(ratform_to_expr(ring.M[i][j]), v)
                assert is_zero(ratform_to_expr(d(ring.M[i][j])) - expect,
                               f.ws).kind == "proven_zero"
        assert ratform_to_expr(d(ring.M[0][0])) == ex.ZERO


def test_det_dM_zero_cases():
    """det(M_a da + M_b db + M_c dc) split by multi-index."""
    for text in ("a^2 + b^2 + c^2", "a^2 + b^2 - 2*exp(c)",
                 "a^2 + 3*a*b - b*c + c^2"):
        f = density(text)
        ring = _Ring(f, 3)
        assert all_zero(ring.split(ring.det_dM(), 4), f.ws), text


def test_fkt_boyer_finley_integrable():
    res = fkt_residual(density("a^2 + b^2 - 2*exp(c)"))
    assert res.integrable
    assert all(v.kind == "proven_zero" for v in res.verdicts.values())


def test_fkt_linear_wave_integrable():
    res = fkt_residual(density("a^2 + b^2 + c^2"))
    assert res.integrable and res.proven


def test_fkt_quartic_fails_exactly():
    res = fkt_residual(density("a^4 + b^2 + c^2"))
    assert not res.integrable
    m, coeff = res.first_failure()
    assert m == (4, 0, 0)
    target = parse("-1152*a^2", density("0").ws)
    assert is_zero(coeff - target, density("0").ws).kind == "proven_zero"


def test_fkt_hand_oracle_pieces():
    """H = 48 a^2, H*d4f da^4 = 1152 a^2, d3f*dH da^4 = 2304 a^2,
    det(M_a) = 0."""
    f = density("a^4 + b^2 + c^2")
    H = fkt_residual(f).hessian
    assert is_zero(H - parse("48*a^2", f.ws), f.ws).kind == "proven_zero"
    ring = _Ring(f, 4)
    d4 = ring.split(ring.D(ring.f, 4), 4)
    hd4 = ex.mul(H, ratform_to_expr(d4[(4, 0, 0)]))
    assert is_zero(hd4 - parse("1152*a^2", f.ws), f.ws).kind == "proven_zero"
    d3 = ring.split(ring.D(ring.f, 3), 3)
    term = ex.mul(ratform_to_expr(d3[(3, 0, 0)]),
                  differentiate(H, f.vars()[0]))
    assert is_zero(term - parse("2304*a^2", f.ws), f.ws).kind == "proven_zero"
    assert is_zero(ratform_to_expr(ring.split(ring.det_dM(), 4)[(4, 0, 0)]),
                   f.ws).kind == "proven_zero"


def test_fkt_degenerate_hessian_inapplicable():
    with pytest.raises(DegenerateLagrangianError):
        fkt_residual(density("a^2 + b^2"))


def test_fkt_relabel_invariance():
    """Swapping a and b permutes the residual coefficients accordingly."""
    r1 = fkt_residual(density("a^4 + b^2 + c^2"))
    r2 = fkt_residual(density("b^4 + a^2 + c^2"))
    ws = density("0").ws
    a_sym, b_sym = ws.variables[0], ws.variables[1]
    from hydroham.calculus import substitute

    swap = {a_sym: ex.Var(b_sym), b_sym: ex.Var(a_sym)}
    for (i, j, k), coeff in r1.residual.items():
        other = r2.residual[(j, i, k)]
        assert is_zero(substitute(coeff, swap) - other,
                       ws).kind == "proven_zero"


def test_fkt_cleared_form_matches_divided_form_numerically():
    """At a sample point with H != 0 the cleared residual over H equals
    d4f - d3f dH/H - 3 det(dM)/H, coefficientwise."""
    f = density("a^4 + b^2 + c^2")
    res = fkt_residual(f)
    ws = f.ws
    pt = {"a": Fraction(2), "b": Fraction(1), "c": Fraction(-1)}

    def evaluate(e):
        if not isinstance(e, ex.Expr):
            e = ratform_to_expr(e)
        return as_fraction(sympy_value(print_expr(e), pt))

    Hval = evaluate(res.hessian)
    assert Hval != 0
    ring = _Ring(f, 4)
    d4 = ring.split(ring.D(ring.f, 4), 4)
    d3 = ring.split(ring.D(ring.f, 3), 3)
    dH = [evaluate(differentiate(res.hessian, v)) for v in f.vars()]
    ddm = ring.split(ring.det_dM(), 4)
    for m in d4:
        # the da^i db^j dc^k coefficient of the product d3f * dH
        d3dH = sum(evaluate(d3[m[:x] + (m[x] - 1,) + m[x + 1:]]) * dH[x]
                   for x in range(3) if m[x])
        lhs = evaluate(res.residual[m]) / Hval
        rhs = (evaluate(d4[m]) - d3dH / Hval - 3 * evaluate(ddm[m]) / Hval)
        assert lhs == rhs


def test_euler_lagrange_fluxes():
    """The fluxes (f_a, f_b, f_c) of the fourth-order test, and the first
    row of the bordered matrix of a density with H = 0."""
    bf = density("a^2 + b^2 - 2*exp(c)")
    fa, fb, fc = fkt_residual(bf).fluxes
    assert print_expr(fa) == "2*a"
    assert print_expr(fb) == "2*b"
    assert print_expr(fc) == "-2*exp(c)"
    lin = density("1/2*(a^2 + b^2 + c^2)")
    assert [print_expr(e) for e in fkt_residual(lin).fluxes] == \
        ["a", "b", "c"]
    const = density("7")
    assert all(ratform_to_expr(x) == ex.ZERO
               for x in _Ring(const, 1).M[0][1:])


def legendre_ws():
    ws = Workspace()
    ws.add_variables("rho", "u", "v", "rhot")
    return ws.freeze()


def test_legendre_velocity_coupled():
    ws = legendre_ws()
    h = parse("1/2*rho*(u^2 + v^2) + 1/2*rho^2", ws)
    inverse = parse("rhot - 1/2*(u^2 + v^2)", ws)
    res = legendre(h, ws, inverse)
    expect = parse("-1/2*(c - 1/2*(a^2 + b^2))^2", res.density.ws)
    assert is_zero(res.density.f - expect,
                   res.density.ws).kind == "proven_zero"
    # the derivative identities were verified during construction, and
    # their verdicts come with them
    assert [(lbl, str(v)) for lbl, _, v in res.identity_residuals] == [
        ("h~_rhot + rho", "ProvenZero"), ("h~_u - h_u", "ProvenZero"),
        ("h~_v - h_v", "ProvenZero")]


def test_legendre_pure_quadratic():
    ws = legendre_ws()
    res = legendre(parse("rho^2/2", ws), ws, parse("rhot", ws))
    expect = parse("-1/2*c^2", res.density.ws)
    assert is_zero(res.density.f - expect,
                   res.density.ws).kind == "proven_zero"


def test_legendre_rejects_wrong_inverse():
    from hydroham.integrability import IntegrabilityError

    ws = legendre_ws()
    with pytest.raises(IntegrabilityError):
        legendre(parse("rho^2/2", ws), ws, parse("rhot + u", ws))
