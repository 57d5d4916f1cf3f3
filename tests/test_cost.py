"""Deterministic cost bounds: ring operation counts over one catalog pass.

Timings drift on a shared machine; call counts do not.  The bound is 1.1x
the count recorded when the test was written.  A change that lowers the
count should tighten the bound; one that raises it must say why.
"""

from hydroham import catalog
from hydroham.ratform import RationalForm

# RationalForm.__mul__ calls in one catalog.verify_all() pass.  Down from
# 5,084: the quotient rule no longer forms its 259 products with a zero
# factor, while the pencil analysis, now done in the ring, forms 262
# (it formed 117 when its determinants were Expr trees).
MUL_CALLS = 4970


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
