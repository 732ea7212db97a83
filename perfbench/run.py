#!/usr/bin/env python3
"""Builds and runs the secure-cps end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Rust package next to this file is built in release mode (into
$CARGO_TARGET_DIR, default `.bench_build`), then run for one workload. Its
output is passed through; its last line, the JSON result, is checked against
`BENCHMARK.json` and printed again as the last line. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the per-layer ones, where a
layer the workload does not exercise reads 0. A traced run also writes its
spans to `perfbench/out/<workload>-seed<n>.spans.jsonl`.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

_child = None


def _stop_child(*_):
    """Kills the running child's process group and waits for it."""
    if _child is not None and _child.poll() is None:
        try:
            os.killpg(_child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _child.wait()


def _on_signal(signum, _frame):
    _stop_child()
    sys.exit(128 + signum)


def run_child(cmd, timeout, env=None):
    """Runs `cmd` in its own process group; returns (code, stdout, stderr),
    code None on timeout (the whole group is killed)."""
    global _child
    _child = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = _child.communicate(timeout=timeout)
        return _child.returncode, out, err
    except subprocess.TimeoutExpired:
        _stop_child()
        return None, "", ""
    finally:
        _child = None


def build():
    """Builds the benchmark binary and returns its path, or None."""
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    code, _, err = run_child(cmd, BUILD_TIMEOUT_S, env)
    if code != 0:
        sys.stderr.write(err[-4000:])
        sys.stderr.write("run.py: build failed\n" if code is not None else "run.py: build timed out\n")
        return None
    return target / "release" / "perfbench"


def check_result(result, spec, trace):
    """Validates the binary's result against BENCHMARK.json and fills the
    per-layer metrics a workload does not exercise with 0."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in units:
            raise ValueError(f"undeclared metric {name}")
        if metric["unit"] != units[name]:
            raise ValueError(f"{name}: unit {metric['unit']}, declared {units[name]}")
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        raise ValueError(f"missing end-to-end metrics {missing}")
    if missing:
        print("not exercised by this workload (reported as 0): " + ", ".join(missing))
    result["metrics"] = {
        name: metrics.get(name, {"value": 0.0, "unit": unit}) for name, unit in units.items()
    }
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"run.py: unknown workload {args.workload}")
    binary = build()
    if binary is None:
        sys.exit(1)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    code, out, err = run_child(cmd, RUN_TIMEOUT_S)
    sys.stderr.write(err)
    if code != 0:
        sys.exit(f"run.py: benchmark {'timed out' if code is None else f'exited with {code}'}")
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = check_result(json.loads(lines[-1]), spec, args.trace == 1)
    except (ValueError, KeyError) as e:
        sys.exit(f"run.py: bad result: {e}")
    print(f"run.py: {args.workload} measured in {time.monotonic() - started:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
