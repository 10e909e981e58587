#!/usr/bin/env sh
# Runs every bench_micro_* Google-Benchmark binary with JSON output and
# merges the results into BENCH_micro.json (one top-level key per binary).
# When a committed BENCH_micro.json already exists, the fresh results are
# diffed against it and per-benchmark real_time deltas are printed — the
# perf trajectory the ROADMAP asks for.
#
# Usage: scripts/bench.sh [--check]
#   --check               exit non-zero when any benchmark regressed by more
#                         than QTDA_BENCH_TOLERANCE (opt-in so noisy hosts
#                         don't fail by default).  Fresh results go to a
#                         temporary file; BENCH_micro.json is left as it is,
#                         so a second check still compares against it.
#   QTDA_BENCH_BUILD_DIR  build directory (default: build-bench; configured
#                         with -DQTDA_BUILD_BENCH=ON if absent)
#   QTDA_BENCH_MIN_TIME   --benchmark_min_time value (default: 0.05)
#   QTDA_BENCH_TOLERANCE  regression threshold for --check (default: 0.25,
#                         i.e. fail on >25% slower real_time)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR=${QTDA_BENCH_BUILD_DIR:-build-bench}
MIN_TIME=${QTDA_BENCH_MIN_TIME:-0.05}
TOLERANCE=${QTDA_BENCH_TOLERANCE:-0.25}
OUT=BENCH_micro.json
CHECK=0
[ "${1:-}" = "--check" ] && CHECK=1

if [ ! -d "$BUILD_DIR" ]; then
  cmake -B "$BUILD_DIR" -S . -DQTDA_BUILD_BENCH=ON
fi
cmake --build "$BUILD_DIR" -j

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# A check leaves the baseline in place and writes the fresh run aside;
# a recording keeps a copy of the old baseline for the diff, then
# overwrites it.
baseline=""
if [ "$CHECK" -eq 1 ]; then
  [ -f "$OUT" ] && baseline="$OUT"
  OUT="$tmp/fresh.json"
elif [ -f "$OUT" ]; then
  baseline="$tmp/baseline.json"
  cp "$OUT" "$baseline"
fi

found=0
first=1
printf '{\n' > "$OUT"
for bench in "$BUILD_DIR"/bench/bench_micro_*; do
  [ -x "$bench" ] || continue
  found=1
  name=$(basename "$bench")
  echo "running $name ..."
  "$bench" --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
    > "$tmp/$name.json"
  [ "$first" -eq 1 ] || printf ',\n' >> "$OUT"
  first=0
  printf '"%s": ' "$name" >> "$OUT"
  cat "$tmp/$name.json" >> "$OUT"
done
printf '\n}\n' >> "$OUT"

if [ "$found" -eq 0 ]; then
  echo "no bench_micro_* binaries found in $BUILD_DIR/bench;" \
       "is Google Benchmark installed?" >&2
  exit 1
fi
[ "$CHECK" -eq 1 ] || echo "wrote $OUT"

# Per-benchmark real_time deltas against the committed baseline.  New or
# vanished benchmarks are reported but never fail the check.
if [ -n "$baseline" ]; then
  python3 - "$baseline" "$OUT" "$TOLERANCE" "$CHECK" <<'PYEOF'
import json, sys

baseline_path, fresh_path, tolerance, check = (
    sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1")

def flatten(path):
    with open(path) as f:
        merged = json.load(f)
    times = {}
    for binary, report in merged.items():
        for bench in report.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            times[f"{binary}:{bench['name']}"] = float(bench["real_time"])
    return times

old, new = flatten(baseline_path), flatten(fresh_path)
regressions = []
print(f"\nperf trajectory vs committed baseline (tolerance {tolerance:.0%}):")
for name in sorted(new):
    if name not in old:
        print(f"  {name:70s}  NEW")
        continue
    delta = new[name] / old[name] - 1.0 if old[name] > 0 else 0.0
    marker = ""
    if delta > tolerance:
        marker = "  << REGRESSION"
        regressions.append((name, delta))
    print(f"  {name:70s}  {delta:+7.1%}{marker}")
for name in sorted(set(old) - set(new)):
    print(f"  {name:70s}  REMOVED")

if regressions:
    print(f"\n{len(regressions)} benchmark(s) slower by more than "
          f"{tolerance:.0%}:")
    for name, delta in regressions:
        print(f"  {name}: {delta:+.1%}")
    if check:
        sys.exit(1)
    print("(informational; re-run with --check to fail on regressions)")
PYEOF
fi
