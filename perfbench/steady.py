#!/usr/bin/env python3
"""Steadiness check: run each workload on ten seeds and report spreads.

Usage (from the root of a checkout):

    python3 perfbench/steady.py

For every workload in ``BENCHMARK.json`` it runs ``perfbench/run.py``
untraced for ``run_seconds`` once per seed 1-10, then prints, per
end-to-end metric, the median and the quartile spread
``(Q3 - Q1) / median`` as ``statistics.quantiles(values, n=4)`` gives
the quartiles, next to the metric's bound. It then repeats seed 1 and
checks that the deterministic metrics (virtual time, messages, rounds,
allocations) read exactly the same as the first time.

Exits 1 if a spread exceeds its bound, if a deterministic metric
differs between the two runs of seed 1, or if a run reports
``correct: false`` or failed updates.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
DETERMINISTIC = [
    "commit_p50_ms",
    "commit_p99_ms",
    "msgs_per_update",
    "rounds_per_update",
    "allocs_per_update",
]


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            r = run_once(workload, seed, seconds)
            results.append(r)
            ok &= r["correct"] and r["failed"] == 0
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"updates_per_s={r['metrics']['updates_per_s']['value']}",
                  flush=True)
        print(f"\n{workload}: {len(SEEDS)} runs of {seconds} s")
        print(f"  {'metric':20s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            med, sp = spread([r["metrics"][name]["value"] for r in results])
            flag = ""
            if sp > bound:
                flag = "OVER BOUND"
                ok = False
            elif sp > bound / 3:
                flag = "over bound/3"
            print(f"  {name:20s} {med:12.5g} {sp:8.4f} {bound:>6} {flag}")
        again = run_once(workload, SEEDS[0], seconds)
        for name in DETERMINISTIC:
            a = results[0]["metrics"][name]["value"]
            b = again["metrics"][name]["value"]
            same = a == b
            ok &= same
            print(f"  repeat seed {SEEDS[0]}: {name} {a} vs {b}: "
                  f"{'identical' if same else 'DIFFERS'}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
