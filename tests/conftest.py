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
def count_calls(monkeypatch):
    """A function that starts counting calls and returns the live Counter.

    It takes (function, counter name, module name or None) triples and
    points every binding of each function in the loaded hydroham modules at
    a counting wrapper, except in the named module, whose own calls (its
    recursion, say) are then not counted."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def start(*counted_fns):
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("hydroham")]
        for fn, name, skip in counted_fns:
            wrapper = counted(name, fn)
            for module in modules:
                if module.__name__ == skip:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
        return counts
    return start
