"""Deterministic cost bounds: ring operation counts over one catalog pass.

Timings drift on a shared machine; call counts do not.  The bound is 1.1x
the count recorded when the test was written.  A change that lowers the
count should tighten the bound; one that raises it must say why.
"""

from hydroham import catalog
from hydroham.operators import MetricPencil
from hydroham.ratform import RationalForm

# RationalForm.__mul__ calls in one catalog.verify_all() pass.  Down from
# 5,084: the quotient rule no longer forms its 259 products with a zero
# factor, while the pencil analysis, now done in the ring, forms 262
# (it formed 117 when its determinants were Expr trees).  Down from 4,970:
# each operator builds its pencil and takes its determinant once, shared
# by is_degenerate and generic_rank (107 products fewer).
MUL_CALLS = 4863


def test_verify_all_multiplications(monkeypatch):
    calls = zero_operand = 0
    mul = RationalForm.__mul__

    def counted(a, b):
        nonlocal calls, zero_operand
        calls += 1
        zero_operand += a.is_zero or b.is_zero
        return mul(a, b)

    monkeypatch.setattr(RationalForm, "__mul__", counted)
    results = catalog.verify_all()
    assert all(r.ok for r in results)
    assert calls <= 1.1 * MUL_CALLS, calls
    assert zero_operand == 0, (zero_operand, calls)


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
