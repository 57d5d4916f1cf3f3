"""Deterministic cost bounds: ring operation counts over one catalog pass.

Timings drift on a shared machine; call counts do not.  The bound is 1.1x
the count recorded when the test was written.  A change that lowers the
count should tighten the bound; one that raises it must say why.
"""

from hydroham import catalog
from hydroham.ratform import RationalForm

# RationalForm.__mul__ calls in one catalog.verify_all() pass
MUL_CALLS = 5084


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
    assert zero_operand < 0.1 * calls, (zero_operand, calls)
