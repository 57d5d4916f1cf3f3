"""Seeded rational specializations of catalog entries, the draws of the
soundness tests."""

import random
from fractions import Fraction

from hydroham.catalog import CatalogEntry


def random_params(entry: CatalogEntry, rng: random.Random) -> dict:
    """A concrete rational specialization; nonzero constant terms keep
    denominator slots away from the zero function."""
    params = {}
    if "eps" in entry.const_slots:
        params["eps"] = Fraction(rng.choice([0, 1]))
    if "kappa" in entry.const_slots:
        params["kappa"] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                   rng.choice([1, 2]))
    for name, args in entry.func_slots:
        params[name] = _random_poly(args, rng)
    return params


def _random_poly(arg_names, rng: random.Random) -> str:
    def coeff(nonzero=False):
        num = rng.randint(-3, 3)
        while nonzero and num == 0:
            num = rng.randint(-3, 3)
        return Fraction(num, rng.choice([1, 2, 3]))

    terms = [str(coeff(nonzero=True))]
    for a in arg_names:
        c = coeff()
        if c:
            terms.append(f"{c}*{a}")
    if len(arg_names) == 2 and rng.random() < 0.5:
        c = coeff()
        if c:
            terms.append(f"{c}*{arg_names[0]}*{arg_names[1]}")
    return " + ".join(terms).replace("+ -", "- ")
