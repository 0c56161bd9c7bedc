#!/bin/sh
# Build, test, and regenerate every paper figure/table.
#
# Each bench also writes a machine-readable BenchResult (--json) into
# $BENCH_OUT (default bench_results/); the per-bench files are
# aggregated into BENCH_results.json and schema-checked with
# scripts/bench_diff.py. The figure rows are deterministic virtual
# time, so a change that must not move the model byte-compares
# bench_output.txt against a run of the parent commit, minus the
# host-timed micro_ops and fig_aging_frag sections (EXPERIMENTS.md).
# Host performance is gated by benchmark/compare.py against
# BENCHMARK.json instead (docs/performance.md).
#
# Note on error handling: `cmd | tee log` exits with tee's status, so
# `set -e` never sees cmd failing. Every stage below redirects to its
# log file and cats it afterwards instead of piping, and the script
# exits nonzero on the first failing stage or bench.
set -eu
cd "$(dirname "$0")/.."

OUT="${BENCH_OUT:-bench_results}"
mkdir -p "$OUT"

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build > test_output.txt 2>&1 && rc=0 || rc=$?
cat test_output.txt
if [ "$rc" -ne 0 ]; then
    echo "FAILED: ctest (exit $rc)" >&2
    exit "$rc"
fi

# Run the bench binaries concurrently (each is single-threaded and
# deterministic; they share nothing but the output directory), bounded
# by BENCH_JOBS (default: all cores). Output is buffered per bench and
# printed / aggregated strictly in sorted bench-name order, so stdout,
# bench_output.txt and BENCH_results.json are byte-identical no matter
# which bench finishes first.
JOBS="${BENCH_JOBS:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)}"
export OUT
benches=$(for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    basename "$b"
done | sort)

# Each worker records its exit status in $OUT/$name.rc and always
# exits 0 itself, so one failing bench never aborts xargs mid-fleet;
# the ordered report loop below surfaces the first failure.
printf '%s\n' $benches | xargs -P "$JOBS" -n 1 sh -c '
    name="$1"
    build/bench/"$name" --json "$OUT/$name.json" \
        > "$OUT/$name.out" 2>&1
    echo $? > "$OUT/$name.rc"
' run-bench

: > bench_output.txt
for name in $benches; do
    echo "===== $name ====="
    echo "===== $name =====" >> bench_output.txt
    cat "$OUT/$name.out"
    cat "$OUT/$name.out" >> bench_output.txt
    rc=$(cat "$OUT/$name.rc")
    rm -f "$OUT/$name.rc"
    if [ "$rc" -ne 0 ]; then
        echo "FAILED: $name (exit $rc)" >&2
        exit "$rc"
    fi
done

# The ad-hoc driver feeds the same result pipeline: include one quick
# run so the aggregate exercises it.
echo "===== daxsim (sweep) ====="
build/tools/daxsim --workload sweep --threads 4 \
    --json "$OUT/daxsim_sweep.json" > "$OUT/daxsim_sweep.out" 2>&1 \
    && rc=0 || rc=$?
cat "$OUT/daxsim_sweep.out"
cat "$OUT/daxsim_sweep.out" >> bench_output.txt
if [ "$rc" -ne 0 ]; then
    echo "FAILED: daxsim (exit $rc)" >&2
    exit "$rc"
fi

python3 scripts/bench_diff.py aggregate "$OUT" -o BENCH_results.json
python3 scripts/bench_diff.py validate BENCH_results.json

# Deterministic-merge guard (docs/engine.md): the aggregate must be a
# pure function of the per-bench files — sorted bench order, sorted
# keys — independent of completion order above. Re-aggregating must
# reproduce it byte for byte.
python3 scripts/bench_diff.py aggregate "$OUT" -o BENCH_results.rerun.json
if ! cmp -s BENCH_results.json BENCH_results.rerun.json; then
    echo "FAILED: BENCH_results.json aggregation is not deterministic" >&2
    exit 1
fi
rm -f BENCH_results.rerun.json
echo "wrote BENCH_results.json ($(ls "$OUT"/*.json | wc -l) bench results)"
