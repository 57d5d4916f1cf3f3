"""Benchmark of the hydroham verifier: one workload per run.

    python3 bench/run.py --workload catalog --seed 1 --seconds 35 --trace 0

Imports hydroham from ``src/`` of the checkout this file sits in, times
that import in eleven fresh interpreters, sets the workload up from the seed
(eleven times; ``setup_s`` is the median import plus the median set-up),
warms the rings, then runs whole rounds of the workload's ops in a closed
loop with one client until another round would pass ``--seconds``. Every
output is checked, against the reference evaluator running in a child
process where the check needs one. The last line of standard output is one
JSON object:

    {"correct": true, "attempted": 62, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the per-layer ones, from wrappers around the program's
layer boundaries, and the spans are written to
``bench/out/trace-<workload>-seed<seed>.json.gz``.  ``--smoke`` runs one
round on tiny inputs.

Times are calibrated.  The speed of the shared machine this runs on
drifts by a quarter and more within seconds, so a fixed probe (a sympy
polynomial product and gcd over QQ, the arithmetic hydroham spends its
time in) runs before every op that starts ``PROBE_EVERY_S`` or more after
the last probe, and at the end of every round.  Each op's time is scaled by
``PROBE_NOMINAL_S`` over the mean of the two probes around it; set-up
times likewise.  The raw figures are printed next to the calibrated ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 11
PROBE_EVERY_S = 0.1
PROBE_NOMINAL_S = 0.0019   # the probe's median on the reference machine

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class Clock:
    """Probes the machine's speed between measured intervals and converts
    raw seconds into calibrated ones.  Build it after importing hydroham,
    so that the probe's sympy import is not counted in the import time."""

    def __init__(self):
        from sympy.polys.domains import QQ
        from sympy.polys.rings import ring

        _ring, x, y, z = ring("x,y,z", QQ)
        self._p = (x + 2 * y - z / 3 + 1) ** 3
        self._q = (x * y - 3 * z + QQ(1, 2)) ** 2
        self.probes: list[float] = []
        self.last = float("-inf")

    def _probe_once(self) -> float:
        t0 = time.perf_counter()
        (self._p * self._q).gcd(self._p)
        return time.perf_counter() - t0

    def probe(self) -> int:
        """Runs the probe (median of three) and returns its index."""
        self.probes.append(statistics.median(
            self._probe_once() for _ in range(3)))
        self.last = time.perf_counter()
        return len(self.probes) - 1

    def probe_if_due(self) -> int:
        """Index of the latest probe, after probing if one is due."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()
        return len(self.probes) - 1

    def calibrated(self, raw: float, before: int, after: int) -> float:
        """raw seconds measured between probes ``before`` and ``after``."""
        speed = (self.probes[before] + self.probes[after]) / 2
        return raw * PROBE_NOMINAL_S / speed


def import_program() -> float:
    """Imports hydroham from this checkout; returns the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "hydroham", "__init__.py")):
        raise SystemExit(f"error: no hydroham package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import hydroham
    import hydroham.fileio  # noqa: F401
    import hydroham.mutation  # noqa: F401
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(hydroham.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: hydroham was imported from "
                         f"{hydroham.__file__}, not from {SRC}")
    return elapsed


def cold_import_s(clock, samples: int = SETUP_REPEATS) -> float:
    """Median time of importing hydroham (and the modules the benchmark
    uses) in a fresh interpreter, calibrated."""
    code = ("import sys, time; t = time.perf_counter(); import hydroham, "
            "hydroham.fileio, hydroham.mutation; "
            "sys.stdout.write(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(samples):
        before = clock.probe()
        p = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=60,
                           check=True)
        times.append(clock.calibrated(float(p.stdout), before,
                                      clock.probe()))
    return statistics.median(times)


def run(args) -> dict:
    import_raw = import_program()
    clock = Clock()
    import_s = cold_import_s(clock)
    sys.path.insert(0, BENCH)
    import reference
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    client = reference.Client()
    try:
        ctx = workloads.Context(ROOT, client, tracer)
        setup = workloads.SETUPS[args.workload]
        gen_raw, gen_times = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            gc.collect()
            before = clock.probe()
            t0 = time.perf_counter()
            wl = setup(args.seed, args.smoke, ctx)
            gen_raw.append(time.perf_counter() - t0)
            gen_times.append(clock.calibrated(gen_raw[-1], before,
                                              clock.probe()))
        setup_raw = import_raw + statistics.median(gen_raw)
        setup_s = import_s + statistics.median(gen_times)
        try:
            if tracer:
                tracer.op_id = None
            wl.warm()
            return measure(args, wl, clock, tracer, import_s, setup_s,
                           setup_raw)
        finally:
            wl.cleanup()
    finally:
        client.close()


def measure(args, wl, clock, tracer, import_s, setup_s, setup_raw) -> dict:
    timings = []       # (raw seconds, index of the probe before, round)
    attempted = failed = 0
    problems, faults = [], {}
    start = time.perf_counter()
    rounds = 0
    while True:
        gc.collect()  # every round starts from the same heap
        clock.probe()
        for op in wl.ops:
            before = clock.probe_if_due()
            if tracer:
                tracer.op_id = attempted
            t0 = time.perf_counter()
            try:
                out, raised = op.run(), None
            except Exception as e:  # an op that raises has failed
                out, raised = None, e
            raw = time.perf_counter() - t0
            if tracer:
                tracer.op_id = None
            attempted += 1
            timings.append((raw, before, rounds))
            if raised is not None:
                problem = f"raised {type(raised).__name__}: {raised}"
            else:
                try:
                    problem = op.check(out)
                except Exception as e:
                    problem = f"check raised {type(e).__name__}: {e}"
            del out
            if problem is None:
                continue
            if op.fault:
                failed += 1
                faults[op.name] = (op.fault, problem)
            else:
                # a wrong answer or an unforeseen error: the run is wrong
                failed += raised is not None
                problems.append(f"{op.name}: {problem}")
        clock.probe()
        rounds += 1
        elapsed = time.perf_counter() - start
        if args.smoke or elapsed * (rounds + 1) / rounds > args.seconds:
            break

    problem = wl.finish()
    if problem:
        problems.append(problem)

    # the probe after an op is the next one taken: before a later op or at
    # the end of the round
    op_times = [clock.calibrated(raw, b, b + 1) for raw, b, _r in timings]
    round_walls = [sum(t for t, (_raw, _b, r) in zip(op_times, timings)
                       if r == k) for k in range(rounds)]
    raw_walls = [sum(raw for raw, _b, r in timings if r == k)
                 for k in range(rounds)]

    print(f"workload {args.workload}, seed {args.seed}: {rounds} round(s) "
          f"of {len(wl.ops)} ops, {attempted} attempted, {failed} failed")
    for name, (why, problem) in sorted(faults.items()):
        print(f"failed op {name}: {why} [{problem}]")
    for p in problems:
        print(f"INCORRECT {p}", file=sys.stderr)
    print(f"raw: setup_s {setup_raw:.4f} s, wall_s "
          f"{statistics.median(raw_walls):.4f} s, op_p50_ms "
          f"{1000 * statistics.median(t[0] for t in timings):.3f} ms; "
          f"probe median {statistics.median(clock.probes) * 1000:.3f} ms "
          f"(nominal {PROBE_NOMINAL_S * 1000:.3f} ms)")

    if tracer:
        from tracing import PER_LAYER

        metrics = tracer.summary(rounds)
        metrics["trace.wall_s"] = statistics.median(round_walls)
        if args.workload == "cli":
            metrics["cli.import_s"] = import_s
        units = {k: u for k, (u, _b) in PER_LAYER.items()}
        out_dir = os.path.join(BENCH, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"trace-{args.workload}-seed{args.seed}.json.gz")
        tracer.write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
               else resource.RUSAGE_SELF)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(round_walls),
            "op_p50_ms": 1000 * statistics.median(op_times),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        units = END_TO_END
        if len(op_times) >= 100:
            p90 = statistics.quantiles(op_times, n=10)[-1]
            print(f"op_p90_ms {1000 * p90:.3f} ms ({len(op_times)} ops)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("catalog", "mutation", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one round on tiny inputs")
    args = p.parse_args(argv)
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
