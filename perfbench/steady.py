#!/usr/bin/env python3
"""Steadiness check: runs one workload k times and reports, for every
end-to-end metric, the median, the quartiles and the spread (interquartile
distance over the median) against the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --workload vsc-t50 --runs 5

Run i uses seed `--seed-base + i`, so every run gets its own seed, as a
regression check does. Every exact count a run prints (pivots, queue pops,
rounds, queries, kept trials, alarms) must be equal between the runs that
print it; seed-dependent counts carry their seed in their name, so they are
not compared across seeds (each run checks the default seed's FAR outputs
against the committed values itself). Exits non-zero on a differing count, a
failed operation, or a spread above its bound, `setup_s` included.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"run failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    lines = proc.stdout.rstrip("\n").split("\n")
    counts = {}
    distribution = []
    for line in lines:
        if line.startswith("count "):
            _, name, value = line.split()
            counts[name] = int(value)
        elif line.startswith(("setup wall", "op wall", "host speed")):
            distribution.append(line)
    return json.loads(lines[-1]), counts, distribution


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    errors = []
    values = {m["name"]: [] for m in spec["end_to_end"]}
    seen = {}
    compared = set()
    for i in range(args.runs):
        seed = args.seed_base + i
        result, counts, distribution = one_run(args.workload, seed, args.seconds)
        row = ", ".join(f"{k} {v['value']:.6g}" for k, v in sorted(result["metrics"].items()))
        print(f"run {i + 1}/{args.runs} seed {seed}: {row}", *distribution, sep="\n    ", flush=True)
        if not result["correct"] or result["failed"]:
            errors.append(f"run {i + 1}: {result['failed']} of {result['attempted']} operations failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        for name, value in counts.items():
            first = seen.setdefault(name, (i + 1, value))
            if first[0] != i + 1:
                compared.add(name)
            if first[1] != value:
                errors.append(f"count {name}: {value} in run {i + 1}, {first[1]} in run {first[0]}")

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s")
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
        if verdict == "TOO WIDE":
            errors.append(f"{name}: spread {spread:.3f} above its bound {bound}")
        print(f"{name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {bound:>6} {verdict}")
    print(f"{len(compared)} exact counts compared between runs")
    for e in errors:
        print("ERROR " + e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
