"""Spans and counters recorded from the benchmark's own wrappers.

``install(tracer)`` replaces hydroham's public functions by timing wrappers
in every module namespace where they are looked up: a module that did
``from .calculus import differentiate`` calls the wrapper through its own
binding, while calculus' recursion into itself stays unwrapped, so only
top-level calls are counted.  No file of the program changes.

A span is [name, start, end, parent index, op id].  The op id is "setup"
during set-up, the op's number while it runs, and None in between (warm-up
and checks), which the summary leaves out.  Spans stay in memory and are
summarised and written when the run ends; a span's self time is its
duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import Counter

RELATIONS = ("a1", "a2", "a3", "a4", "a5", "a6", "a7")

# per-layer metric -> (unit, better); the order is the report order
PER_LAYER = {
    "operators.checker_init_s": ("s", "lower"),
    **{f"operators.assembly_{r}_s": ("s", "lower") for r in RELATIONS},
    **{f"operators.residuals_{r}": ("count", "higher") for r in RELATIONS},
    "operators.pencil_s": ("s", "lower"),
    "ratform.mul_calls": ("count", "lower"),
    "ratform.add_calls": ("count", "lower"),
    "ratform.mul_useful_ratio": ("ratio", "higher"),
    "ratform.normalize_s": ("s", "lower"),
    "ratform.to_expr_s": ("s", "lower"),
    "ratform.ring_gens_max": ("count", "lower"),
    "calculus.differentiate_s": ("s", "lower"),
    "calculus.differentiate_calls": ("count", "lower"),
    "zerotest.verdict_s": ("s", "lower"),
    "zerotest.verdicts": ("count", "lower"),
    "zerotest.sampled": ("count", "lower"),
    "mutation.mutants_s": ("s", "lower"),
    "mutation.first_failure_s": ("s", "lower"),
    **{f"mutation.killed_{r}": ("count", "higher") for r in RELATIONS},
    "mutation.survivors": ("count", "lower"),
    "transform.pushforward_s": ("s", "lower"),
    "transform.roundtrip_s": ("s", "lower"),
    "hamsys.system_s": ("s", "lower"),
    "hamsys.classify_s": ("s", "lower"),
    "hamsys.dispersion_s": ("s", "lower"),
    "integrability.fkt_s": ("s", "lower"),
    "parser.parse_s": ("s", "lower"),
    "parser.parse_calls": ("count", "lower"),
    "fileio.load_s": ("s", "lower"),
    "catalog.instantiate_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
}

# span name -> per-layer metric holding its inclusive time
_SPAN_METRIC = {
    "operators.checker_init": "operators.checker_init_s",
    **{f"operators.assembly_{r}": f"operators.assembly_{r}_s"
       for r in RELATIONS},
    "operators.pencil": "operators.pencil_s",
    "ratform.normalize": "ratform.normalize_s",
    "ratform.to_expr": "ratform.to_expr_s",
    "calculus.differentiate": "calculus.differentiate_s",
    "zerotest.verdict": "zerotest.verdict_s",
    "mutation.mutants": "mutation.mutants_s",
    "mutation.first_failure": "mutation.first_failure_s",
    "transform.pushforward": "transform.pushforward_s",
    "transform.roundtrip": "transform.roundtrip_s",
    "hamsys.system": "hamsys.system_s",
    "hamsys.classify": "hamsys.classify_s",
    "hamsys.dispersion": "hamsys.dispersion_s",
    "integrability.fkt": "integrability.fkt_s",
    "parser.parse": "parser.parse_s",
    "fileio.load": "fileio.load_s",
    "catalog.instantiate": "catalog.instantiate_s",
    "cli.main": "cli.main_s",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.setup_counts: Counter = Counter()
        self.op_counts: Counter = Counter()
        self.ring_gens_max = 0
        self.op_id = "setup"

    def count(self, key: str):
        if self.op_id == "setup":
            self.setup_counts[key] += 1
        elif self.op_id is not None:
            self.op_counts[key] += 1

    def start(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.op_id])
        self.stack.append(sid)
        return sid

    def end(self, sid: int):
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.start(name)
        try:
            yield
        finally:
            self.end(sid)

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.start(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(out)
            return out
        return wrapper

    def wrap_generator(self, name: str, fn, count_key: str | None = None):
        """Times each next() of the generator fn returns."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = self.start(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(sid)
                if count_key:
                    self.count(count_key)
                yield item
        return wrapper

    def summary(self, rounds: int) -> dict:
        """Per-layer metrics per round: op-phase spans and counts divided
        by the number of rounds, set-up spans (op id "setup") counted once."""
        inclusive = Counter()
        for name, t0, t1, parent, op in self.spans:
            metric = _SPAN_METRIC.get(name)
            if metric is None or op is None or \
                    self._nested_in_same(parent, name):
                continue
            inclusive[metric] += (t1 - t0) / (1 if op == "setup" else rounds)
        counts = Counter(self.setup_counts)
        for key, value in self.op_counts.items():
            counts[key] += value / rounds
        out = {name: 0.0 for name in PER_LAYER}
        out.update(inclusive)
        out.update((k, v) for k, v in counts.items() if k in out)
        attempts = counts["ratform.mul_calls"]
        out["ratform.mul_useful_ratio"] = (
            counts["ratform.mul_useful"] / attempts if attempts else 0.0)
        out["ratform.ring_gens_max"] = self.ring_gens_max
        return out

    def _nested_in_same(self, parent, name) -> bool:
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def self_times(self) -> dict:
        child = Counter()
        for name, t0, t1, parent, op in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = Counter()
        for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[sid]
        return dict(out)

    def write(self, path):
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "self_s": self.self_times(),
            "setup_counts": dict(self.setup_counts),
            "op_counts": dict(self.op_counts),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _hydroham_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "hydroham" or name.startswith("hydroham.")]


def _rebind(original, replacement, skip=()):
    """Point every hydroham module binding of ``original`` at
    ``replacement``, except in the modules named in ``skip``."""
    for mod in _hydroham_modules():
        if mod.__name__ in skip:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Wrap the program's layer boundaries; call once, after import."""
    import hydroham.calculus as calculus
    import hydroham.catalog as catalog
    import hydroham.cli  # noqa: F401  (bind its names before rebinding)
    import hydroham.fileio as fileio
    import hydroham.hamsys as hamsys
    import hydroham.integrability as integrability
    import hydroham.mutation as mutation
    import hydroham.operators as operators
    import hydroham.parser as parser
    import hydroham.ratform as ratform
    import hydroham.transform as transform
    import hydroham.zerotest as zerotest

    count = tracer.count

    def counted(key, name, fn):
        return tracer.wrap(name, fn, lambda _out: count(key))

    _rebind(parser.parse, counted("parser.parse_calls", "parser.parse",
                                  parser.parse))
    # calculus keeps its own binding, so its recursion is not counted
    _rebind(calculus.differentiate,
            counted("calculus.differentiate_calls", "calculus.differentiate",
                    calculus.differentiate),
            skip=("hydroham.calculus",))

    def verdict_after(v):
        count("zerotest.verdicts")
        if v.kind.startswith("probably"):
            count("zerotest.sampled")
    _rebind(zerotest.verdict_for_ratform,
            tracer.wrap("zerotest.verdict", zerotest.verdict_for_ratform,
                        verdict_after))
    _rebind(ratform.normalize, tracer.wrap("ratform.normalize",
                                           ratform.normalize))
    _rebind(ratform.ratform_to_expr, tracer.wrap("ratform.to_expr",
                                                 ratform.ratform_to_expr))

    def ring_after(ctx):
        tracer.ring_gens_max = max(tracer.ring_gens_max, len(ctx.ring.gens))
    _rebind(ratform.build_context,
            tracer.wrap("ratform.build_context", ratform.build_context,
                        ring_after))

    rf_cls = ratform.RationalForm
    mul, add = rf_cls.__mul__, rf_cls.__add__

    def traced_mul(self, other):
        count("ratform.mul_calls")
        if not self.is_zero and not other.is_zero:
            count("ratform.mul_useful")
        return mul(self, other)

    def traced_add(self, other):
        count("ratform.add_calls")
        return add(self, other)
    rf_cls.__mul__, rf_cls.__add__ = traced_mul, traced_add

    base = operators.MokhovChecker

    class TracedChecker(base):
        __init__ = tracer.wrap("operators.checker_init", base.__init__)

    for rel in RELATIONS:
        method = f"residuals_{rel}"
        setattr(TracedChecker, method, tracer.wrap_generator(
            f"operators.assembly_{rel}", getattr(base, method),
            f"operators.residuals_{rel}"))
    _rebind(base, TracedChecker)

    for fn in (operators.is_degenerate, operators.generic_rank,
               operators.is_trivial_pair, operators.pencil_determinant):
        _rebind(fn, tracer.wrap("operators.pencil", fn))
    _rebind(transform.pushforward, tracer.wrap("transform.pushforward",
                                               transform.pushforward))
    _rebind(transform.operator_difference_records,
            tracer.wrap("transform.roundtrip",
                        transform.operator_difference_records))
    _rebind(catalog.instantiate, tracer.wrap("catalog.instantiate",
                                             catalog.instantiate))
    for fn in (fileio.load_operator, fileio.load_change, fileio.load_density):
        _rebind(fn, tracer.wrap("fileio.load", fn))
    _rebind(hamsys.generate_system, tracer.wrap("hamsys.system",
                                                hamsys.generate_system))
    _rebind(hamsys.classify_operator_shape,
            tracer.wrap("hamsys.classify", hamsys.classify_operator_shape))
    _rebind(hamsys.dispersion, tracer.wrap("hamsys.dispersion",
                                           hamsys.dispersion))
    _rebind(integrability.fkt_residual,
            tracer.wrap("integrability.fkt", integrability.fkt_residual))

    def first_after(found):
        if found is None:
            count("mutation.survivors")
        else:
            count(f"mutation.killed_{found[0]}")
    _rebind(mutation.first_proven_failure,
            tracer.wrap("mutation.first_failure",
                        mutation.first_proven_failure, first_after))
    _rebind(mutation.mutants,
            tracer.wrap_generator("mutation.mutants", mutation.mutants))
