"""Steadiness check: runs each workload repeatedly and reports the spread
of every end-to-end metric against its bound.

    python3 bench/steady.py --runs 10 [--workloads catalog cli] [--traced 2]

For each workload it runs ``bench/run.py`` once per seed (1..runs), one
run at a time, and prints per metric the median, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
spread (Q3 - Q1) / median next to the metric's bound from BENCHMARK.json; a
spread under a third of the bound is marked "ok". It also checks that the
failed share of operations is the same in every run. With ``--traced N`` it
runs N traced runs with seed 1, checks that the exact counts
(operators.residuals_*, ratform.*_calls, mutation.killed_*) repeat, and
prints the tracing overhead: traced wall_s over untraced wall_s, minus 1."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
EXACT_PREFIXES = ("operators.residuals_", "ratform.mul_calls",
                  "ratform.add_calls", "mutation.killed_",
                  "mutation.survivors")


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {p.returncode}:\n"
                         f"{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="steadiness of the benchmark")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", nargs="*", default=names,
                   help="default: the workloads of BENCHMARK.json")
    p.add_argument("--traced", type=int, default=0)
    args = p.parse_args(argv)

    steady = True
    for workload in args.workloads:
        runs = [run_once(spec, workload, 1 + k, 0)
                for k in range(args.runs)]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"== {workload}: {args.runs} runs, correct={correct}, "
              f"failed share {sorted(str(s) for s in shares)}")
        steady &= correct and len(shares) == 1
        walls = []
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if m["name"] == "wall_s":
                walls = values
            q1, med, q3, s = spread(values)
            ok = s < m["bound"] / 3
            steady &= ok
            print(f"  {m['name']:12s} median {med:.4g} {m['unit']} "
                  f"Q1 {q1:.4g} Q3 {q3:.4g} spread {s:.3f} "
                  f"bound {m['bound']} {'ok' if ok else 'WIDE'}")
            print("    " + " ".join(f"{v:.4g}" for v in values))
        if args.traced:
            traced = [run_once(spec, workload, 1, 1)
                      for _ in range(args.traced)]
            counts = [{k: v["value"] for k, v in t["metrics"].items()
                       if k.startswith(EXACT_PREFIXES)} for t in traced]
            same = all(c == counts[0] for c in counts)
            steady &= same
            tw = statistics.median(t["metrics"]["trace.wall_s"]["value"]
                                   for t in traced)
            print(f"  traced x{args.traced}: exact counts repeat: {same}; "
                  f"tracing overhead "
                  f"{tw / statistics.median(walls) - 1:+.1%}")
    print("STEADY" if steady else "NOT STEADY")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
