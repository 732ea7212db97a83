#!/usr/bin/env bash
# Tests the cargo-free logic of scripts/bench_snapshot.sh: baseline selection
# via `--select-baseline` and the regression gate's direction handling via
# `--compare`. Each case builds synthetic snapshot files and checks the
# script's output / exit status.
set -euo pipefail

script="$(cd "$(dirname "$0")/.." && pwd)/bench_snapshot.sh"
failures=0

check() {
    local label="$1" expected="$2" exclude="$3"
    shift 3
    local dir
    dir="$(mktemp -d)"
    local f
    for f in "$@"; do
        : > "$dir/$f"
    done
    local got
    got="$(cd "$dir" && "$script" --select-baseline "$exclude")"
    if [[ "$got" == "$expected" ]]; then
        echo "ok: $label"
    else
        echo "FAIL: $label: expected '$expected', got '$got'" >&2
        failures=$((failures + 1))
    fi
    rm -rf "$dir"
}

# The highest PR number wins, compared numerically: BENCH_10 beats BENCH_4
# even though it sorts first lexicographically.
check "numeric ordering beats lexicographic" "BENCH_10.json" "" \
    BENCH_2.json BENCH_4.json BENCH_10.json

# The snapshot being written never serves as its own baseline.
check "output file is excluded" "BENCH_4.json" "BENCH_10.json" \
    BENCH_2.json BENCH_4.json BENCH_10.json

# Decoys whose suffix is not a bare decimal number are ignored entirely.
check "non-numeric decoys are skipped" "BENCH_4.json" "" \
    BENCH_4.json BENCH_4_old.json BENCH_smoke.json BENCH_.json BENCH_9x.json

# Leading zeros still parse as decimal (no octal surprises in bash $((...))).
check "leading zeros parse as decimal" "BENCH_010.json" "" \
    BENCH_009.json BENCH_010.json BENCH_8.json

# No qualifying snapshot at all: the selection is empty (the caller then
# skips the regression gate).
check "empty when nothing qualifies" "" "" BENCH_smoke.json notes.json

# Excluding the only candidate also leaves nothing.
check "empty when only candidate is excluded" "" "BENCH_6.json" BENCH_6.json

# --- regression gate direction (via --compare) -------------------------------
# Writes a two-line snapshot pair and asserts whether the gate passes.
# Latency rows (plain names) fail when the value grows; throughput rows
# (`*_per_s`) fail when the value drops. CPS_BENCH_NOISE_FLOOR_NS is zeroed so
# the direction logic is tested in isolation from the latency noise floor.
check_gate() {
    local label="$1" expect="$2" name="$3" old="$4" new="$5"
    local dir
    dir="$(mktemp -d)"
    printf '{\n  "%s": %s\n}\n' "$name" "$old" > "$dir/base.json"
    printf '{\n  "%s": %s\n}\n' "$name" "$new" > "$dir/fresh.json"
    local status=0
    CPS_BENCH_TOLERANCE=25 CPS_BENCH_NOISE_FLOOR_NS=0 \
        "$script" --compare "$dir/base.json" "$dir/fresh.json" > /dev/null || status=$?
    local got="pass"
    ((status == 0)) || got="fail"
    if [[ "$got" == "$expect" ]]; then
        echo "ok: $label"
    else
        echo "FAIL: $label: expected gate to $expect, got $got (exit $status)" >&2
        failures=$((failures + 1))
    fi
    rm -rf "$dir"
}

# Latency (median_ns) rows: bigger is worse.
check_gate "latency growth beyond tolerance fails" fail "group/slow_loop" 100000 200000
check_gate "latency improvement passes" pass "group/slow_loop" 200000 100000

# Throughput (*_per_s) rows: bigger is better — the exact same numeric move
# that fails a latency row must pass a throughput row, and vice versa.
check_gate "throughput increase passes" pass "streaming_far/vsc_traces_per_s" 100000 200000
check_gate "throughput drop beyond tolerance fails" fail "streaming_far/vsc_traces_per_s" 200000 100000
check_gate "throughput drop within tolerance passes" pass "streaming_far/vsc_traces_per_s" 100000 90000

# Throughput rows ignore the latency noise floor: a small-magnitude rate drop
# beyond tolerance fails even when the absolute delta is below the default
# 20000 floor (rates are not nanoseconds).
check_gate_with_floor() {
    local dir
    dir="$(mktemp -d)"
    printf '{\n  "s/x_per_s": 1000\n}\n' > "$dir/base.json"
    printf '{\n  "s/x_per_s": 500\n}\n' > "$dir/fresh.json"
    local status=0
    CPS_BENCH_TOLERANCE=25 \
        "$script" --compare "$dir/base.json" "$dir/fresh.json" > /dev/null || status=$?
    if ((status != 0)); then
        echo "ok: throughput gate ignores the nanosecond noise floor"
    else
        echo "FAIL: throughput drop passed because of the noise floor" >&2
        failures=$((failures + 1))
    fi
    rm -rf "$dir"
}
check_gate_with_floor

# A row present only in the baseline (a retired bench) is reported as
# retired and never fails the gate, while the rows both sides share are
# still compared.
check_retired_row() {
    local dir
    dir="$(mktemp -d)"
    printf '{\n  "g/kept": 100000,\n  "g/retired": 100000\n}\n' > "$dir/base.json"
    printf '{\n  "g/kept": 100000\n}\n' > "$dir/fresh.json"
    local status=0 out
    out="$(CPS_BENCH_TOLERANCE=25 CPS_BENCH_NOISE_FLOOR_NS=0 \
        "$script" --compare "$dir/base.json" "$dir/fresh.json")" || status=$?
    if ((status == 0)) \
        && grep -q "retired bench (baseline only): g/retired" <<< "$out" \
        && grep -q "g/kept" <<< "$out"; then
        echo "ok: a baseline-only row is reported as retired and passes the gate"
    else
        echo "FAIL: retired row (exit $status): $out" >&2
        failures=$((failures + 1))
    fi
    rm -rf "$dir"
}
check_retired_row

if ((failures > 0)); then
    echo "$failures selection test(s) failed" >&2
    exit 1
fi
echo "all baseline-selection tests passed"
