#!/usr/bin/env python3
"""Aggregate and validate DaxVM bench results.

Every bench binary emits a BenchResult JSON (schema
``daxvm-bench-result-v1``, see docs/metrics.md) when run with
``--json PATH``. This tool, stdlib-only, provides:

  aggregate DIR -o OUT   bundle all per-bench JSONs in DIR into one
                         aggregate file (schema daxvm-bench-aggregate-v1)
  validate FILE...       schema-check BenchResult or aggregate files:
                         figure schema, series shape, and windowed
                         timelines that reconcile with their run totals
  selftest               exercise validate on synthetic documents (clean
                         ones must pass, broken ones must be rejected)

It never compares two runs. Bench output is deterministic virtual time,
so a change that must not move the model is checked byte for byte
against a run of the parent commit (EXPERIMENTS.md), and host
performance is gated only by benchmark/compare.py against
BENCHMARK.json (docs/performance.md).
"""

import argparse
import json
import math
import os
import sys

RESULT_SCHEMA = "daxvm-bench-result-v1"
AGGREGATE_SCHEMA = "daxvm-bench-aggregate-v1"
TIMELINE_SCHEMA = "daxvm-bench-timeline-v1"


def fail(msg):
    print(f"bench_diff: {msg}", file=sys.stderr)
    return 1


def load(path):
    with open(path) as f:
        return json.load(f)


# ----------------------------------------------------------------- validate


def validate_result(doc, name):
    """Return a list of problems with one BenchResult document."""
    problems = []

    def need(key, types):
        if key not in doc:
            problems.append(f"{name}: missing '{key}'")
            return None
        if not isinstance(doc[key], types):
            problems.append(f"{name}: '{key}' has wrong type")
            return None
        return doc[key]

    if doc.get("schema") != RESULT_SCHEMA:
        problems.append(
            f"{name}: schema is {doc.get('schema')!r}, want {RESULT_SCHEMA!r}")
    need("bench", str)
    need("seed", int)
    need("notes", list)
    need("config", dict)
    need("systems_recorded", int)
    figures = need("figures", list)
    for i, fig in enumerate(figures or []):
        where = f"{name}: figures[{i}]"
        if not isinstance(fig, dict):
            problems.append(f"{where} is not an object")
            continue
        for key in ("title", "x_label"):
            if not isinstance(fig.get(key), str):
                problems.append(f"{where}.{key} missing or not a string")
        xs = fig.get("xs")
        if not isinstance(xs, list):
            problems.append(f"{where}.xs missing or not a list")
            xs = []
        series = fig.get("series")
        if not isinstance(series, list):
            problems.append(f"{where}.series missing or not a list")
            series = []
        for j, s in enumerate(series):
            if not isinstance(s, dict) or not isinstance(s.get("name"), str):
                problems.append(f"{where}.series[{j}] malformed")
                continue
            values = s.get("values")
            if not isinstance(values, list):
                problems.append(f"{where}.series[{j}].values missing")
            elif len(values) != len(xs):
                problems.append(
                    f"{where}.series[{j}] has {len(values)} values "
                    f"for {len(xs)} xs")
            else:
                for v in values:
                    if not isinstance(v, (int, float)) or (
                            isinstance(v, float)
                            and not math.isfinite(v)):
                        problems.append(
                            f"{where}.series[{j}] has non-finite value")
                        break
    metrics = need("metrics", dict)
    if metrics is not None:
        for key in ("counters", "gauges", "histograms"):
            if not isinstance(metrics.get(key), dict):
                problems.append(f"{name}: metrics.{key} missing")
    # Optional host wall-clock section (micro_ops): informational only,
    # but it must at least be an object when present.
    if "host" in doc and not isinstance(doc["host"], dict):
        problems.append(f"{name}: 'host' present but not an object")
    # Optional windowed-telemetry section (docs/metrics.md): validated
    # for internal consistency; the series themselves are report-only.
    if "timeline" in doc:
        problems += validate_timeline(doc["timeline"], name)
    # Optional tracing section (only present on --trace runs).
    if "trace" in doc:
        trace = doc["trace"]
        if not isinstance(trace, dict):
            problems.append(f"{name}: 'trace' present but not an object")
        else:
            for key in ("events", "dropped_events"):
                if not isinstance(trace.get(key), int):
                    problems.append(
                        f"{name}: trace.{key} missing or not an int")
    return problems


def validate_timeline(tl, name):
    """Schema-check one daxvm-bench-timeline-v1 section: monotone
    window starts, ordered percentiles, and window sums that reconcile
    with the run totals whenever no window was truncated away."""
    problems = []
    if not isinstance(tl, dict):
        return [f"{name}: 'timeline' is not an object"]
    if tl.get("schema") != TIMELINE_SCHEMA:
        problems.append(
            f"{name}: timeline schema is {tl.get('schema')!r}, "
            f"want {TIMELINE_SCHEMA!r}")
    runs = tl.get("runs")
    if not isinstance(runs, list):
        return problems + [f"{name}: timeline.runs missing or not a list"]
    for i, run in enumerate(runs):
        where = f"{name}: timeline.runs[{i}]"
        if not isinstance(run, dict):
            problems.append(f"{where} is not an object")
            continue
        window_ns = run.get("window_ns")
        if not isinstance(window_ns, int) or window_ns <= 0:
            problems.append(f"{where}.window_ns missing or not positive")
        truncated = run.get("truncated_windows")
        if not isinstance(truncated, int) or truncated < 0:
            problems.append(f"{where}.truncated_windows malformed")
            truncated = 1  # suppress the totals reconciliation below
        windows = run.get("windows")
        if not isinstance(windows, list):
            problems.append(f"{where}.windows missing or not a list")
            continue
        counter_sums, hist_sums = {}, {}
        last_start = None
        for j, win in enumerate(windows):
            wwhere = f"{where}.windows[{j}]"
            if not isinstance(win, dict) or not isinstance(
                    win.get("start_ns"), int):
                problems.append(f"{wwhere} malformed")
                continue
            start = win["start_ns"]
            if last_start is not None and start <= last_start:
                problems.append(
                    f"{wwhere}.start_ns {start} not after previous "
                    f"{last_start}")
            last_start = start
            for cname, v in win.get("counters", {}).items():
                if not isinstance(v, int) or v < 0:
                    problems.append(
                        f"{wwhere}.counters[{cname!r}] malformed")
                    continue
                counter_sums[cname] = counter_sums.get(cname, 0) + v
            for hname, h in win.get("histograms", {}).items():
                if not isinstance(h, dict) or not isinstance(
                        h.get("count"), int) or not isinstance(
                        h.get("sum"), int):
                    problems.append(
                        f"{wwhere}.histograms[{hname!r}] malformed")
                    continue
                ps = [h.get(p) for p in ("p50", "p99", "p999")]
                if any(not isinstance(p, int) for p in ps) or not (
                        ps[0] <= ps[1] <= ps[2]):
                    problems.append(
                        f"{wwhere}.histograms[{hname!r}] percentiles "
                        f"not ordered")
                prev = hist_sums.get(hname, (0, 0))
                hist_sums[hname] = (prev[0] + h["count"],
                                    prev[1] + h["sum"])
        totals = run.get("totals")
        if not isinstance(totals, dict):
            problems.append(f"{where}.totals missing or not an object")
            continue
        if truncated:
            continue  # capped runs legitimately under-sum
        for cname, v in totals.get("counters", {}).items():
            if counter_sums.get(cname, 0) != v:
                problems.append(
                    f"{where}: counter {cname!r} windows sum to "
                    f"{counter_sums.get(cname, 0)}, totals say {v}")
        for hname, h in totals.get("histograms", {}).items():
            got = hist_sums.get(hname, (0, 0))
            want = (h.get("count"), h.get("sum"))
            if got != want:
                problems.append(
                    f"{where}: histogram {hname!r} windows sum to "
                    f"{got}, totals say {want}")
    return problems


def validate_doc(doc, name):
    if doc.get("schema") == AGGREGATE_SCHEMA:
        problems = []
        results = doc.get("results")
        if not isinstance(results, dict) or not results:
            return [f"{name}: aggregate has no results"]
        for bench, sub in sorted(results.items()):
            problems += validate_result(sub, f"{name}:{bench}")
        return problems
    return validate_result(doc, name)


def cmd_validate(args):
    problems = []
    for path in args.files:
        try:
            doc = load(path)
        except (OSError, json.JSONDecodeError) as e:
            problems.append(f"{path}: unreadable: {e}")
            continue
        problems += validate_doc(doc, os.path.basename(path))
    for p in problems:
        print(f"bench_diff: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"validate: {len(args.files)} file(s) OK")
    return 0


# ---------------------------------------------------------------- aggregate


def cmd_aggregate(args):
    results = {}
    names = sorted(n for n in os.listdir(args.dir) if n.endswith(".json"))
    if not names:
        return fail(f"aggregate: no .json files in {args.dir}")
    for name in names:
        path = os.path.join(args.dir, name)
        try:
            doc = load(path)
        except (OSError, json.JSONDecodeError) as e:
            return fail(f"aggregate: {path}: {e}")
        if doc.get("schema") != RESULT_SCHEMA:
            return fail(f"aggregate: {path}: not a {RESULT_SCHEMA}")
        bench = doc.get("bench") or os.path.splitext(name)[0]
        if bench in results:
            return fail(f"aggregate: duplicate bench name {bench!r}")
        results[bench] = doc
    out = {"schema": AGGREGATE_SCHEMA, "results": results}
    with open(args.output, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"aggregate: wrote {args.output} ({len(results)} benches)")
    return 0


# ----------------------------------------------------------------- selftest


def synthetic():
    """A minimal aggregate holding one bench with one figure."""
    return {
        "schema": AGGREGATE_SCHEMA,
        "results": {
            "fake_bench": {
                "schema": RESULT_SCHEMA,
                "bench": "fake_bench",
                "seed": 0,
                "notes": [],
                "config": {},
                "systems_recorded": 1,
                "figures": [{
                    "title": "ops/sec",
                    "x_label": "threads",
                    "xs": ["1", "2"],
                    "series": [{"name": "daxvm", "values": [100.0, 200.0]}],
                }],
                "metrics": {"counters": {}, "gauges": {},
                            "histograms": {}},
            }
        },
    }


def synthetic_timeline(starts=(0, 5_000_000), counts=(10, 20),
                       total=None, p99s=(500, 900)):
    """A minimal daxvm-bench-timeline-v1 section: one run, one counter
    and one histogram spread over ``len(starts)`` windows."""
    total = sum(counts) if total is None else total
    return {
        "schema": TIMELINE_SCHEMA,
        "runs": [{
            "start_ns": starts[0],
            "window_ns": 5_000_000,
            "truncated_windows": 0,
            "windows": [
                {
                    "start_ns": s,
                    "counters": {"openloop.t.requests": c},
                    "histograms": {"openloop.t.latency_ns": {
                        "count": c, "sum": c * 1000,
                        "p50": p99 // 2, "p99": p99, "p999": p99 + 1}},
                }
                for s, c, p99 in zip(starts, counts, p99s)
            ],
            "totals": {
                "counters": {"openloop.t.requests": total},
                "histograms": {"openloop.t.latency_ns": {
                    "count": total, "sum": total * 1000}},
            },
        }],
    }


def cmd_selftest(args):
    del args
    checks = []

    checks.append(("validate clean aggregate",
                   not validate_doc(synthetic(), "selftest-base")))

    # Broken documents must fail validation.
    broken = synthetic()
    broken["results"]["fake_bench"]["figures"][0]["series"][0][
        "values"] = [1.0]  # length mismatch vs xs
    checks.append(("length mismatch rejected",
                   bool(validate_doc(broken, "selftest-broken"))))

    # Windowed-telemetry section: clean timelines validate, window
    # starts must strictly increase, and window sums must reconcile
    # with the run totals (unless windows were truncated away).
    with_tl = synthetic()
    with_tl["results"]["fake_bench"]["timeline"] = synthetic_timeline()
    checks.append(("clean timeline validates",
                   not validate_doc(with_tl, "selftest-timeline")))
    bad_order = synthetic_timeline(starts=(5_000_000, 0))
    checks.append(("non-monotone window starts rejected",
                   bool(validate_timeline(bad_order, "selftest"))))
    bad_sum = synthetic_timeline(total=31)
    checks.append(("window/totals mismatch rejected",
                   bool(validate_timeline(bad_sum, "selftest"))))
    truncated_ok = synthetic_timeline(total=31)
    truncated_ok["runs"][0]["truncated_windows"] = 1
    checks.append(("truncated run skips totals reconciliation",
                   not validate_timeline(truncated_ok, "selftest")))
    bad_pct = synthetic_timeline()
    bad_pct["runs"][0]["windows"][0]["histograms"][
        "openloop.t.latency_ns"]["p999"] = 0
    checks.append(("unordered percentiles rejected",
                   bool(validate_timeline(bad_pct, "selftest"))))

    ok = True
    for name, passed in checks:
        print(f"selftest: {'PASS' if passed else 'FAIL'}: {name}")
        ok = ok and passed
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("aggregate", help="bundle per-bench JSONs")
    p.add_argument("dir")
    p.add_argument("-o", "--output", default="BENCH_results.json")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("validate", help="schema-check result files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("selftest", help="verify validate logic")
    p.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
