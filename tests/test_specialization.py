"""Specialization keeps verdicts, a metamorphic relation (Chen et al., ACM
Computing Surveys 51(1), 2018): an identity stays an identity when its
abstract functions are specialized.  Each entry with function slots
passes with the slots abstract, so with every slot set to exp, ln, sqrt
or exp*exp of its arguments (the 32 elementary cases):

- no residual of check_hamiltonian is ProvenNonzero;
- no coefficient of the pencil determinant is ProvenNonzero, though one
  may be inconclusive;
- where generic_rank decides, the rank does not exceed the label.

The specialized entries put exp/ln/sqrt generators into the products and
sums of relation assembly.  The rational specializations are covered in
test_acceptance.py.
"""

import pytest

from hydroham import catalog
from hydroham.operators import check_hamiltonian, generic_rank
from hydroham.zerotest import (
    PROVEN_NONZERO,
    InconclusiveError,
    verdict_for_ratform,
)

SLOTTED = [entry for entry in catalog.ENTRIES if entry.func_slots]

# slot t over the arguments args: the argument sum shifted by t + 1 keeps
# the slots of one entry apart
KINDS = {
    "exp": lambda args, t: f"exp({' + '.join(args)} + {t + 1})",
    "ln": lambda args, t: f"ln({' + '.join(args)} + {t + 1})",
    "sqrt": lambda args, t: f"sqrt({' + '.join(args)} + {t + 1})",
    "exp*exp": lambda args, t: f"exp({args[0]} + {t + 1})*exp({args[-1]})",
}


def test_eight_entries_have_function_slots():
    assert len(SLOTTED) == 8


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("entry", SLOTTED, ids=lambda e: e.id)
def test_elementary_specialization_keeps_verdicts(entry, kind):
    params = catalog.default_params(entry)
    for t, (name, args) in enumerate(entry.func_slots):
        params[name] = KINDS[kind](args, t)
    op, _ws = catalog.instantiate(entry.id, params)
    report = check_hamiltonian(op)
    assert all(r.verdict.kind != PROVEN_NONZERO for r in report.nonzero), (
        [(r.relation, r.indices) for r in report.failures()])
    for exps, coeff in op.pencil.det_coefficients.items():
        try:
            verdict = verdict_for_ratform(coeff)
        except InconclusiveError:
            continue
        assert verdict.kind != PROVEN_NONZERO, exps
    try:
        rank = generic_rank(op)
    except InconclusiveError:
        return
    assert rank <= entry.rank_label
