"""Values of printed expressions, read with sympy.

An oracle for hydroham's evaluator that shares no code with it: it reads
the text ``print_expr`` writes, which is rational numbers, variable names,
+ - * / ^, parentheses and exp, ln, sqrt.  Abstract atoms are not read.
"""

from fractions import Fraction

import sympy

FUNCTIONS = {"exp": sympy.exp, "ln": sympy.log, "sqrt": sympy.sqrt}


def sympy_value(text: str, point: dict):
    """The exact value of text at the point {name: Fraction}, as a sympy
    number: zoo or nan where a denominator vanishes, complex outside the
    real domain of ln and sqrt."""
    names = {name: sympy.Rational(v.numerator, v.denominator)
             for name, v in point.items()}
    return sympy.sympify(text.replace("^", "**"),
                         locals={**names, **FUNCTIONS})


def as_fraction(value) -> Fraction:
    """A rational sympy value as a Fraction."""
    assert value.is_Rational, value
    return Fraction(int(value.p), int(value.q))
