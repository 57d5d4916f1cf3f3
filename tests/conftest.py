import sys
from collections import Counter

import pytest

from hydroham import Workspace


@pytest.fixture
def ws3():
    """Three variables plus the parameter functions used across the suite."""
    ws = Workspace()
    ws.add_variables("u1", "u2", "u3")
    ws.add_function("f", ["u2", "u3"])
    ws.add_function("q", ["u3"])
    return ws.freeze()


@pytest.fixture
def rebind(monkeypatch):
    """A function (fn, replacement, module name or None) that points every
    binding of fn in the loaded hydroham modules at the replacement, except
    in the named module, whose own calls (its recursion, say) keep fn."""
    def point(fn, replacement, skip=None):
        for name, module in list(sys.modules.items()):
            if not name.startswith("hydroham") or name == skip:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)
    return point


@pytest.fixture
def count_calls(rebind):
    """A function that starts counting calls and returns the live Counter.

    It takes (function, counter name, module name or None) triples and
    rebinds each function to a counting wrapper, except in the named
    module."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def start(*counted_fns):
        for fn, name, skip in counted_fns:
            rebind(fn, counted(name, fn), skip)
        return counts
    return start
