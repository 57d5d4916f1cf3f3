"""Deterministic cost bounds: ring operation counts over one catalog pass
and over the mutation scan, residual records built, the largest ring
built, and context builds of CLI commands and of a sampled verdict.

Timings drift on a shared machine; call counts do not.  The bound is 1.1x
the count recorded when the test was written.  A change that lowers the
count should tighten the bound; one that raises it must say why.
"""

import json
from collections import Counter

import pytest

from hydroham import Workspace, calculus, catalog, hamsys, mutation, parse
from hydroham import operators, poly, ratform, zerotest
from hydroham.cli import main
from hydroham.operators import MetricPencil, check_hamiltonian
from hydroham.poly import Poly
from hydroham.ratform import RationalForm
from hydroham.transform import pushforward
from test_golden import CASES, _make_inputs
from test_transform import rational_change

# RationalForm.__mul__ calls in one catalog.verify_all() pass.  Down from
# 5,084: the quotient rule no longer forms its 259 products with a zero
# factor, while the pencil analysis, now done in the ring, forms 262
# (it formed 117 when its determinants were Expr trees).  Down from 4,970:
# each operator builds its pencil and takes its determinant once, shared
# by is_degenerate and generic_rank (107 products fewer).  Down from 4,863:
# a3-a7 scatter each nonzero product of their sums into tables keyed by
# residual indices, so a product that enters several residuals (or both
# the a5 brackets and a6) is formed once.  Lowered from 2,262, the count
# recorded when the bound was set, to the 2,254 the pass makes.
MUL_CALLS = 2254
# RationalForm.__add__ calls in the same pass; 78,897 when a3-a7 summed
# per index tuple, nearly all of them adding a zero, and 3,199 when a ring
# derivative added a zero fraction to each polynomial part and the
# derivative of an atom was its differentiated Expr converted again.
ADD_CALLS = 2142
# RationalForm.__sub__ calls in the same pass: each entry's a2 table is
# built once, over its d*n^3 keys.
SUB_CALLS = 3326

# Poly.gcd calls in the same pass: general gcds only, of two operands with
# two or more terms each.  A cancellation against a single term shifts both
# operands by the monomial of least exponents and builds no gcd; 3,105 when
# each cancellation of a nonzero numerator against a denominator other
# than 1 built one.
GCD_CALLS = 4

# Poly.cancel calls in the same pass: one per form built unreduced, two per
# product of forms with a denominator.  A sum whose numerator cancels is
# the context's zero form and is not reduced: 5,966 when it was.  Down
# from 4,162: a product of two monomials over monomials cross-cancels on
# the packed monomials, and a sum of two forms with the same single
# monomial over the same denominator adds the coefficients; neither
# cancels.
CANCEL_CALLS = 2206

# poly._exquo calls, the general exact division (the quotient by a
# polynomial of two or more terms and GCDHEU's trial divisions), in the
# same pass.  Down from 288: a quotient by a single term subtracts its
# exponents.  Poly.__mul__ and Poly.quo take their single-term shortcuts
# inside the calls counted above, so those counts do not move.
EXQUO_CALLS = 24

# The same counts over the mutation scan: mutants() on the 31 entries,
# first_proven_failure on each of the 339 mutants, then check_hamiltonian
# on the 12 that survive it.  Before the mutants took their parent's forms
# the scan made 10,098 products and 8,910 sums (9,485 and 8,723 without
# the generation, which is where the parent forms are now built): each
# mutant converted its entries and differentiated b again.  The per-tuple
# sums made 9,142 products and 92,022 sums without the generation, and the
# scan made 2,863 sums before atom derivatives were taken in the ring.
# The a5 brackets are built in blocks keyed by (alpha, beta, i), each on
# first use, so the 38 mutants that first fail a5 form the products of the
# blocks up to their first nonzero residual only: down from 2,383
# products, 2,087 sums and 3,789 gcds, when such a mutant built every
# bracket (and C was subtracted at every index, not once per pair s < q).
# Gcds and cancellations as in the pass: 2,114 gcds and 5,299
# cancellations before single terms cancelled without a gcd and a sum that
# cancelled stopped being reduced, and 3,392 cancellations before products
# and sums of single-term forms stopped cancelling; 1,385 before mutants
# took their parent's a2 table.
SCAN_MUTANTS, SCAN_SURVIVORS = 339, 12
SCAN_MUL_CALLS = 1476
SCAN_ADD_CALLS = 1147
# 21,928 differences when each mutant subtracted its whole d*n^3 a2 table;
# now a mutant's a2 table is its parent's with the two keys of each
# edited entry recomputed, and each parent builds its table once.
SCAN_SUB_CALLS = 5204
SCAN_GCD_CALLS = 4
SCAN_CANCEL_CALLS = 1371
SCAN_EXQUO_CALLS = 24     # 214 before the single-term quotient

# Poly.gcd, Poly.cancel and poly._exquo calls of pushforward plus
# check_hamiltonian for T2.3/rank2_3 and T2.5/1 through u_n = v_n/(1 + v1):
# rational coordinates, where the polynomial catalog's 4 gcds per pass
# become hundreds.  The same 314, 1,420 and 2,174 calls were made when
# GCDHEU and the exact division ran on exponent tuples, and when the
# entries were substituted on Expr trees and normalized; composed in the
# ring, each entry's image is one quotient over the powers of the images'
# denominators.
PUSHED_ENTRIES = ("T2.3/rank2_3", "T2.5/1")
PUSHED_GCD_CALLS = 306
PUSHED_CANCEL_CALLS = 1398
PUSHED_EXQUO_CALLS = 2130

# derivation_context builds, build_context calls and to_rational_form calls
# (the conversion's recursion included) over the same scan.  A mutant's forms are its parent's, edited,
# so the scan builds one context per catalog entry; it built 351 (339
# mutants and the 12 survivors' full checks), with 39,283 conversions and
# 4,527 calculus.differentiate calls.  Atom derivatives are taken in the
# ring, by the chain rule over the argument forms, so the scan makes no
# such call (303 when derivation_context differentiated each atom to find
# the atoms of its derivatives and Derivation converted them).  The chain
# rule converts the arguments of an atom once per context: 2,525
# conversions (2,623 when each derivation converted them again).  Down
# from 2,525 conversions and 184 build_context calls: the zero entries of
# the dense tables take the context's zero form without a conversion, and
# the arguments of abstract atoms are normalized once per workspace, not
# once per partial derivative.
SCAN_CONTEXTS = 31
SCAN_CONVERSIONS = 803
SCAN_BUILDS = 13

# derivation_context builds, build_context calls and to_rational_form calls
# (both recursions included) in one catalog.verify_all() pass.  It made 52
# contexts, 391 builds and 2,942 conversions when is_trivial_pair converted
# the d = 2 entries into a context of its own and each consumer kept its
# own table of atom signatures, which now live on the workspace.  It made
# 262 builds when derivation_context built its ring with build_context;
# the chain rule made 2,714 conversions (2,818 when each derivation
# converted the arguments of abstract atoms again).  It made 231 builds
# when each partial f_J(args) normalized its arguments in a one-expression
# ring of its own (200 of them), and the metric pencil's workspace signed
# the atoms of g again; now the arguments' canonical strings are kept in
# the workspace's table, which the pencil's extended workspace shares.
# The 1,551 zero entries of the dense tables are not converted.
VERIFY_ALL_CONTEXTS = 31
VERIFY_ALL_BUILDS = 44
VERIFY_ALL_CONVERSIONS = 976

# The largest ring built, len(ctx.ring.gens) over the build_context and
# derivation_context calls (the latter built its ring with the former), in
# one catalog.verify_all() pass and in the mutation scan: 25 in both,
# the ring of APP/rank1_sol1 (d = 2, n = 3), its three variables and 22
# abstract atoms.
VERIFY_ALL_RING_GENS = 25
SCAN_RING_GENS = 25

# build_context calls of one CLI command, by golden case (test_golden.py).
# Each verdict is taken on the form the command holds: fkt judges the
# Hessian and its 15 coefficients in its ring (18 builds when each was
# printed and normalized again; its ring is a derivation context, which
# makes no build_context call, so the bound of 2 fell to 0), transform
# converts both operators' entries into one context for the round trip
# (82, one per entry; the bound was 11), and
# legendre reports the verdicts it took (8, when the CLI tested the three
# identities again).  The arguments of abstract atoms are normalized once
# per workspace: dispersion over exp(k(u1)) made 18 builds,
# system --classify 33 and transform over abstract atoms 55 when each
# partial derivative normalized its arguments again.  Compositions are
# taken in the ring, and a composed atom is signed from its argument forms:
# transform made 7 builds (12 over abstract atoms) when it substituted on
# Expr trees and tested each identity of phi and its inverse as an Expr,
# and legendre 5 when it normalized its identities and its density.
# Operators and systems made in the ring are handed on as their forms:
# transform made 3 builds (5 over abstract atoms) when pushforward and the
# round trip converted the printed entries of each operator again, and
# reduction 3 when it converted the printed A and B of the system again.
CLI_BUILDS = {"fkt-quartic": 0, "transform-emit": 0, "legendre": 0,
              "dispersion-abstract-exp": 4, "system-classify": 4,
              "transform-abstract-emit": 2, "reduction-candidate": 2}

# Top-level to_rational_form calls (its recursion not counted) of the
# golden transform-emit case: 334 when both pushforwards and the round
# trip converted printed entries again.
TRANSFORM_EMIT_CONVERSIONS = 104

# derivation_context calls of one CLI command, by golden case: fkt prints
# the Euler-Lagrange fluxes from the gradient its ring holds (2 when it
# built a second ring for them).
CLI_CONTEXTS = {"fkt-quartic": 1, "fkt-nondiagonal": 1}

# build_context calls of is_zero on SAMPLED_EXPR, whose context holds three
# exp/ln atoms: one for the expression and one for each atom's argument,
# when its signature is first made.  The sampler reads the argument forms
# of the expression's context (kept with the signatures before, with no
# more builds); it made 7 when it normalized each argument again.
SAMPLED_EXPR = "exp(2*u1) - exp(u1)^2 + ln(u2) - ln(u2)"
SAMPLED_BUILDS = 4


def run_scan(start):
    """Calls start() after instantiating the catalog entries, runs the
    mutation scan over them and returns what start() returned."""
    parents = [catalog.instantiate(entry.id)[0] for entry in catalog.ENTRIES]
    started = start()
    mutants = [mutant for op in parents
               for _m, mutant in mutation.mutants(op)]
    assert len(mutants) == SCAN_MUTANTS
    survivors = [m for m in mutants
                 if mutation.first_proven_failure(m) is None]
    assert len(survivors) == SCAN_SURVIVORS
    assert all(check_hamiltonian(m).overall == "proven_pass"
               for m in survivors)
    return started


def test_no_record_built_unless_read(count_calls):
    """A report builds the ResidualRecord of a zero residual only when its
    records are read, so a pass over the catalog, whose residuals all
    vanish, and the mutation scan build none (42,348 and 19,938 before)."""
    counts = count_calls((operators.ResidualRecord, "records", None))
    results = catalog.verify_all()
    assert all(r.ok for r in results)
    assert counts["records"] == 0, counts
    run_scan(lambda: None)
    assert counts["records"] == 0, counts
    report = results[0].report
    assert len(report.records) == report.count == counts["records"] > 0


@pytest.fixture
def ring_ops(monkeypatch):
    """A function that starts counting RationalForm products, sums,
    differences, products with a zero operand, Poly.gcd and Poly.cancel
    calls and general exact divisions, and returns the live Counter."""
    counts = Counter()
    mul, add, sub = (RationalForm.__mul__, RationalForm.__add__,
                     RationalForm.__sub__)
    gcd, cancel, exquo = Poly.gcd, Poly.cancel, poly._exquo

    def counted_mul(a, b):
        counts["mul"] += 1
        counts["zero_operand"] += a.is_zero or b.is_zero
        return mul(a, b)

    def counted_add(a, b):
        counts["add"] += 1
        return add(a, b)

    def counted_sub(a, b):
        counts["sub"] += 1
        return sub(a, b)

    def counted_gcd(p, q):
        counts["gcd"] += 1
        return gcd(p, q)

    def counted_cancel(p, q):
        counts["cancel"] += 1
        return cancel(p, q)

    def counted_exquo(*args, **kwargs):
        counts["exquo"] += 1
        return exquo(*args, **kwargs)

    def start():
        monkeypatch.setattr(RationalForm, "__mul__", counted_mul)
        monkeypatch.setattr(RationalForm, "__add__", counted_add)
        monkeypatch.setattr(RationalForm, "__sub__", counted_sub)
        monkeypatch.setattr(Poly, "gcd", counted_gcd)
        monkeypatch.setattr(Poly, "cancel", counted_cancel)
        monkeypatch.setattr(poly, "_exquo", counted_exquo)
        return counts
    return start


def test_verify_all_multiplications(ring_ops):
    counts = ring_ops()
    results = catalog.verify_all()
    assert all(r.ok for r in results)
    assert counts["mul"] <= 1.1 * MUL_CALLS, counts
    assert counts["add"] <= 1.1 * ADD_CALLS, counts
    assert counts["sub"] <= 1.1 * SUB_CALLS, counts
    assert counts["gcd"] <= 1.1 * GCD_CALLS, counts
    assert counts["cancel"] <= 1.1 * CANCEL_CALLS, counts
    assert counts["exquo"] <= 1.1 * EXQUO_CALLS, counts
    assert counts["zero_operand"] == 0, counts


def test_mutation_scan_ring_operations(ring_ops):
    counts = run_scan(ring_ops)
    assert counts["mul"] <= 1.1 * SCAN_MUL_CALLS, counts
    assert counts["add"] <= 1.1 * SCAN_ADD_CALLS, counts
    assert counts["sub"] <= 1.1 * SCAN_SUB_CALLS, counts
    assert counts["gcd"] <= 1.1 * SCAN_GCD_CALLS, counts
    assert counts["cancel"] <= 1.1 * SCAN_CANCEL_CALLS, counts
    assert counts["exquo"] <= 1.1 * SCAN_EXQUO_CALLS, counts
    assert counts["zero_operand"] == 0, counts


def test_rational_change_ring_operations(ring_ops):
    """Gcds, cancellations and general exact divisions of two small entries
    pushed through a rational change and checked."""
    changes = []
    for entry_id in PUSHED_ENTRIES:
        op, src = catalog.instantiate(entry_id)
        changes.append((op, rational_change(op, src, op.n)))
    counts = ring_ops()
    for op, change in changes:
        pushed = pushforward(op, change)
        assert check_hamiltonian(pushed).overall == "proven_pass"
    assert counts["gcd"] <= 1.1 * PUSHED_GCD_CALLS, counts
    assert counts["cancel"] <= 1.1 * PUSHED_CANCEL_CALLS, counts
    assert counts["exquo"] <= 1.1 * PUSHED_EXQUO_CALLS, counts


def test_mutation_scan_conversions(count_calls):
    """Each catalog entry is converted once, in mutants(); no mutant builds
    a context or converts an entry, and no Expr tree is differentiated."""
    # the conversion's recursion is counted, calculus' recursion is not
    counts = run_scan(lambda: count_calls(
        (ratform.derivation_context, "contexts", None),
        (ratform.to_rational_form, "conversions", None),
        (ratform.build_context, "builds", None),
        (calculus.differentiate, "differentiations", "hydroham.calculus"),
    ))
    assert counts["contexts"] <= 1.1 * SCAN_CONTEXTS, counts
    assert counts["conversions"] <= 1.1 * SCAN_CONVERSIONS, counts
    assert counts["builds"] <= 1.1 * SCAN_BUILDS, counts
    assert counts["differentiations"] == 0, counts


def test_verify_all_conversions(count_calls):
    """One derivation context per entry: the checker and the triviality
    test share the operator's forms."""
    counts = count_calls(
        (ratform.derivation_context, "contexts", None),
        (ratform.build_context, "builds", None),
        (ratform.to_rational_form, "conversions", None),
        (calculus.differentiate, "differentiations", "hydroham.calculus"),
    )
    results = catalog.verify_all()
    assert all(r.ok for r in results)
    assert counts["contexts"] == VERIFY_ALL_CONTEXTS, counts
    assert counts["builds"] <= 1.1 * VERIFY_ALL_BUILDS, counts
    assert counts["conversions"] <= 1.1 * VERIFY_ALL_CONVERSIONS, counts
    assert counts["differentiations"] == 0, counts


def test_atom_arguments_normalized_once(count_calls):
    """APP/rank1_sol1 holds f, psi and eta over (u2, u3) and 22 of their
    partials, all in one workspace: u2 and u3 are each normalized once (44
    normalizations when each partial normalized its arguments again)."""
    op = catalog.instantiate("APP/rank1_sol1")[0]
    args = {a for atom in op.forms.ctx.atom_exprs.values() for a in atom.args}
    assert len(args) == 2, args
    counts = count_calls((ratform._normalize, "normalizations", None))
    assert catalog.verify_entry("APP/rank1_sol1").ok
    assert counts["normalizations"] == len(args), counts


def test_pencil_signs_no_atom_again(count_calls):
    """The metric pencil's workspace shares the operator's signature table,
    so building the pencil after the forms normalizes nothing (2 when the
    atoms of g were signed again)."""
    op = catalog.instantiate("APP/rank1_sol1")[0]
    op.forms
    counts = count_calls((ratform._normalize, "normalizations", None))
    MetricPencil.of(op)
    assert counts["normalizations"] == 0, counts


@pytest.fixture
def ring_sizes(rebind):
    """A function that starts recording the generator count of each ring
    ratform.build_context or ratform.derivation_context builds, and returns
    the live list."""
    sizes = []

    def recorded(build):
        def wrapper(*args, **kwargs):
            ctx = build(*args, **kwargs)
            sizes.append(len(ctx.ring.gens))
            return ctx
        return wrapper

    def start():
        for build in (ratform.build_context, ratform.derivation_context):
            rebind(build, recorded(build))
        return sizes
    return start


def test_verify_all_largest_ring(ring_sizes):
    sizes = ring_sizes()
    assert all(r.ok for r in catalog.verify_all())
    assert 0 < max(sizes) <= 1.1 * VERIFY_ALL_RING_GENS, max(sizes)


def test_mutation_scan_largest_ring(ring_sizes):
    sizes = run_scan(ring_sizes)
    assert 0 < max(sizes) <= 1.1 * SCAN_RING_GENS, max(sizes)


def test_verify_all_builds_each_pencil_once(monkeypatch):
    """is_degenerate and generic_rank share one MetricPencil per entry."""
    calls = 0
    build = MetricPencil.of.__func__

    def counted(cls, op):
        nonlocal calls
        calls += 1
        return build(cls, op)

    monkeypatch.setattr(MetricPencil, "of", classmethod(counted))
    results = catalog.verify_all()
    assert all(r.ok for r in results)
    assert calls == len(catalog.ENTRIES) == 31, calls


def test_classifier_builds_one_system_per_step(monkeypatch):
    """classify_operator_shape builds the system of each cascade step once
    (the Euler-Lagrange and decoupled-form tests reuse the last step's
    forms), so the component counts of the builds strictly decrease.
    P_gas is classified from one system; it took two when the
    Euler-Lagrange test generated the system again."""
    sizes = []
    build = hamsys.generate_system

    def counted(op, h):
        sizes.append(op.n)
        return build(op, h)

    monkeypatch.setattr(hamsys, "generate_system", counted)
    for entry in catalog.ENTRIES:
        sizes.clear()
        hamsys.classify_operator_shape(catalog.instantiate(entry.id)[0])
        assert sizes == sorted(set(sizes), reverse=True), (entry.id, sizes)
    sizes.clear()
    shape = hamsys.classify_operator_shape(catalog.instantiate("P_gas")[0])
    assert str(shape) == "euler-lagrange-reducible"
    assert sizes == [3]


def test_sampled_verdict_builds(count_calls):
    ws = Workspace()
    ws.add_variables("u1", "u2")
    ws.freeze()
    e = parse(SAMPLED_EXPR, ws)
    counts = count_calls((ratform.build_context, "builds", None))
    assert zerotest.is_zero(e, ws).kind == "probably_zero"
    assert counts["builds"] <= 1.1 * SAMPLED_BUILDS, counts


@pytest.mark.parametrize("name", sorted(CLI_BUILDS))
def test_cli_context_builds(name, count_calls, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _make_inputs()
    counts = count_calls(
        (ratform.build_context, "builds", None),
        (calculus.differentiate, "differentiations", "hydroham.calculus"))
    main(["--format", "json"] + CASES[name])
    assert counts["builds"] <= 1.1 * CLI_BUILDS[name], counts
    assert counts["differentiations"] == 0, counts


def test_transform_converts_no_printed_entry(rebind, tmp_path, monkeypatch):
    """pushforward composes the operator's forms and hands the pushed
    operator on as forms, so neither its check, nor the push back, nor the
    round trip converts a printed entry."""
    monkeypatch.chdir(tmp_path)
    _make_inputs()
    convert, depth, calls = ratform.to_rational_form, [0], [0]

    def top_level(*args):
        calls[0] += not depth[0]
        depth[0] += 1
        try:
            return convert(*args)
        finally:
            depth[0] -= 1

    rebind(convert, top_level)    # in ratform too, so recursion is seen
    assert main(["--format", "json"] + CASES["transform-emit"]) == 0
    assert 0 < calls[0] <= 1.1 * TRANSFORM_EMIT_CONVERSIONS, calls


@pytest.mark.parametrize("name", sorted(CLI_CONTEXTS))
def test_cli_derivation_contexts(name, count_calls, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _make_inputs()
    counts = count_calls((ratform.derivation_context, "contexts", None))
    main(["--format", "json"] + CASES[name])
    assert counts["contexts"] <= CLI_CONTEXTS[name], counts


def test_pencil_compatibility_checks_once(count_calls, tmp_path, monkeypatch):
    """pencil --compatibility regroups the residuals of one check of the 2D
    operator by lambda power: one derivation context, shared with the
    triviality test, and one checker.  It built two contexts when it
    checked g_x + lam g_y as a 1D operator of its own, over a second
    workspace and ring."""
    monkeypatch.chdir(tmp_path)
    _make_inputs()
    checkers = Counter()
    init = operators.MokhovChecker.__init__

    def counted(self, op):
        checkers[op.d] += 1
        init(self, op)

    monkeypatch.setattr(operators.MokhovChecker, "__init__", counted)
    counts = count_calls((ratform.derivation_context, "contexts", None))
    assert main(["--format", "json", "pencil", "gas.json",
                 "--compatibility"]) == 0
    assert counts["contexts"] == 1 and checkers == {2: 1}, (counts, checkers)


def test_two_term_power_forms_no_product(tmp_path, monkeypatch, capsys):
    """check of a 1D operator with g11 = (u1+1)^3000 raises the two-term
    base by the binomial theorem, so the whole command forms no Poly
    product (18 when the power squared repeatedly, 17 of them schoolbook
    products of 3.6 million term pairs in all)."""
    monkeypatch.chdir(tmp_path)
    zero = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    (tmp_path / "power.json").write_text(json.dumps({
        "dimension": 1, "components": 2, "variables": ["u1", "u2"],
        "metrics": {"x": [["(u1+1)^3000", "0"], ["0", "0"]]},
        "b": {"x": zero}}))
    products = Counter()
    mul = Poly.__mul__

    def counted(p, q):
        products["mul"] += 1
        return mul(p, q)

    monkeypatch.setattr(Poly, "__mul__", counted)
    assert main(["--format", "json", "check", "power.json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] == "fail"
    assert products["mul"] == 0, products
