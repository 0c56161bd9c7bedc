#!/usr/bin/env python3
"""Aggregate, validate and regression-diff DaxVM bench results.

Every bench binary emits a BenchResult JSON (schema
``daxvm-bench-result-v1``, see docs/metrics.md) when run with
``--json PATH``. This tool, stdlib-only, provides:

  aggregate DIR -o OUT   bundle all per-bench JSONs in DIR into one
                         aggregate file (schema daxvm-bench-aggregate-v1)
  validate FILE...       schema-check BenchResult or aggregate files
  diff OLD NEW           compare two aggregates figure-by-figure and
                         fail (exit 1) on regressions past --threshold
  perf FILE...           schema-check host-perf baselines (schema
                         daxvm-bench-perf-v1, emitted by
                         micro_ops --perf-json) and fail when any
                         fast/reference speedup ratio - or any
                         parallel-engine scaling ratio - is below its
                         required min_ratio (micro_ops embeds
                         parallel min_ratios adapted to the measuring
                         host's CPU count, see docs/engine.md)
  perf-diff OLD NEW      compare two host-perf baselines; gate on the
                         machine-portable speedup ratios (lower is a
                         regression, generous --threshold default 25%
                         for runner noise); raw ns and events/sec are
                         reported but never gate (machine-dependent)
  selftest               exercise diff on synthetic data (a clean pair
                         must pass, a 20% regression must be caught)

Regression direction is inferred from the figure title: a title
containing "lower is better" treats increases as regressions, "higher
is better" (or a plain throughput figure) treats decreases as
regressions. Figures whose title carries no marker are reported but
never gate. The micro_ops bench measures host wall-clock time; its
rows live under the result's separate "host" section, which the
comparator ignores entirely (only "figures" is diffed).
"""

import argparse
import json
import math
import os
import sys

RESULT_SCHEMA = "daxvm-bench-result-v1"
AGGREGATE_SCHEMA = "daxvm-bench-aggregate-v1"
PERF_SCHEMA = "daxvm-bench-perf-v1"
TIMELINE_SCHEMA = "daxvm-bench-timeline-v1"
DEFAULT_THRESHOLD = 10.0  # percent
PERF_DEFAULT_THRESHOLD = 25.0  # percent; host timing is noisy
# Host-time benches: never gate on them.
WALL_CLOCK_BENCHES = {"micro_ops"}


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
    # never compared, but it must at least be an object when present.
    if "host" in doc and not isinstance(doc["host"], dict):
        problems.append(f"{name}: 'host' present but not an object")
    # Optional windowed-telemetry section (docs/metrics.md): validated
    # for internal consistency, but the series are report-only - the
    # diff comparator never gates on them.
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


# --------------------------------------------------------------------- diff


def direction(title):
    """+1 = higher is better, -1 = lower is better, 0 = don't gate."""
    t = title.lower()
    if "lower is better" in t:
        return -1
    if "higher is better" in t:
        return +1
    return 0


def iter_points(doc):
    """Yield (figure_title, series_name, x, value) for one BenchResult."""
    for fig in doc.get("figures", []):
        for s in fig.get("series", []):
            for x, v in zip(fig.get("xs", []), s.get("values", [])):
                yield fig["title"], s["name"], x, v


def slo_guarded(title, base, v):
    """True when a point on an SLO-derived figure should not gate.

    SLO figures (violation shares, saturation-throughput-vs-SLO) read
    exactly 0 when the underlying latency histogram recorded no samples
    or no load point met the target — routine for request-count-scaled
    smoke runs (fig10_openloop --requests). A 0 on either side is
    "no data", not a measured value: report the swing, never gate.
    """
    return "slo" in title.lower() and (base == 0 or v == 0)


def diff_results(old, new, threshold):
    """Compare two aggregates; return (regressions, report_lines)."""
    regressions = []
    lines = []
    old_results = old.get("results", {})
    new_results = new.get("results", {})
    for bench in sorted(set(old_results) | set(new_results)):
        if bench not in new_results:
            lines.append(f"{bench}: MISSING from new results")
            regressions.append(f"{bench}: bench disappeared")
            continue
        if bench not in old_results:
            lines.append(f"{bench}: new bench (no baseline)")
            continue
        old_points = {(t, s, x): v
                      for t, s, x, v in iter_points(old_results[bench])}
        gate = bench not in WALL_CLOCK_BENCHES
        for t, s, x, v in iter_points(new_results[bench]):
            key = (t, s, x)
            if key not in old_points:
                continue
            base = old_points[key]
            if base == 0:
                continue
            pct = 100.0 * (v - base) / abs(base)
            sign = direction(t)
            regressed = (gate and sign != 0 and abs(pct) > threshold
                         and (pct < 0) == (sign > 0)
                         and not slo_guarded(t, base, v))
            marker = " REGRESSION" if regressed else ""
            if abs(pct) > threshold:
                lines.append(
                    f"{bench}: {t} [{s} @ {x}] "
                    f"{base:.3f} -> {v:.3f} ({pct:+.1f}%){marker}")
            if regressed:
                regressions.append(
                    f"{bench}: {t} [{s} @ {x}] {pct:+.1f}%")
    return regressions, lines


def cmd_diff(args):
    try:
        old = load(args.old)
        new = load(args.new)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"diff: {e}")
    for doc, path in ((old, args.old), (new, args.new)):
        if doc.get("schema") != AGGREGATE_SCHEMA:
            return fail(f"diff: {path} is not a {AGGREGATE_SCHEMA}")
    regressions, lines = diff_results(old, new, args.threshold)
    for line in lines:
        print(line)
    if regressions:
        print(f"diff: {len(regressions)} regression(s) past "
              f"{args.threshold:.1f}%:", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        return 1
    print(f"diff: no regressions past {args.threshold:.1f}%")
    return 0


# --------------------------------------------------------------------- perf


def finite_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def validate_perf(doc, name):
    """Return a list of problems with one daxvm-bench-perf-v1 document."""
    problems = []
    if doc.get("schema") != PERF_SCHEMA:
        problems.append(
            f"{name}: schema is {doc.get('schema')!r}, want {PERF_SCHEMA!r}")
    if not isinstance(doc.get("bench"), str):
        problems.append(f"{name}: missing 'bench'")
    prim = doc.get("primitives_ns")
    if not isinstance(prim, dict) or not prim:
        problems.append(f"{name}: 'primitives_ns' missing or empty")
    else:
        for key, v in sorted(prim.items()):
            if not finite_number(v) or v < 0:
                problems.append(f"{name}: primitives_ns[{key!r}] invalid")
    speedups = doc.get("speedups")
    if not isinstance(speedups, dict) or not speedups:
        problems.append(f"{name}: 'speedups' missing or empty")
    else:
        for key, s in sorted(speedups.items()):
            if not isinstance(s, dict):
                problems.append(f"{name}: speedups[{key!r}] not an object")
                continue
            for field in ("fast_ns", "ref_ns", "ratio", "min_ratio"):
                if not finite_number(s.get(field)) or s.get(field) <= 0:
                    problems.append(
                        f"{name}: speedups[{key!r}].{field} invalid")
    if not finite_number(doc.get("events_per_sec")) \
            or doc.get("events_per_sec") <= 0:
        problems.append(f"{name}: 'events_per_sec' invalid")
    # Optional sharded-parallel-engine scaling section (absent from
    # baselines that predate docs/engine.md).
    if "parallel_scaling" in doc:
        scaling = doc["parallel_scaling"]
        if not isinstance(scaling, dict):
            problems.append(f"{name}: 'parallel_scaling' not an object")
        else:
            cpus = scaling.get("host_cpus")
            if not finite_number(cpus) or cpus < 1:
                problems.append(
                    f"{name}: parallel_scaling.host_cpus invalid")
            rows = [k for k in scaling if k.startswith("threads_")]
            if not rows:
                problems.append(
                    f"{name}: parallel_scaling has no threads_N rows")
            for key in sorted(rows):
                s = scaling[key]
                if not isinstance(s, dict):
                    problems.append(
                        f"{name}: parallel_scaling[{key!r}] not an object")
                    continue
                for field in ("ns", "events_per_sec", "ratio",
                              "min_ratio"):
                    if not finite_number(s.get(field)) \
                            or s.get(field) <= 0:
                        problems.append(
                            f"{name}: parallel_scaling[{key!r}]"
                            f".{field} invalid")
    return problems


def perf_gate(doc):
    """Speedup ratios below their required minimum, as failure strings."""
    failures = []
    for key, s in sorted(doc.get("speedups", {}).items()):
        if not isinstance(s, dict):
            continue
        ratio = s.get("ratio", 0.0)
        required = s.get("min_ratio", 0.0)
        if finite_number(ratio) and finite_number(required) \
                and ratio < required:
            failures.append(
                f"{key}: speedup {ratio:.2f}x below required "
                f"{required:.2f}x")
    # Parallel-engine scaling: min_ratio was embedded by micro_ops for
    # the host that produced this document, so the gate is always
    # apples-to-apples (a 1-CPU runner never has to hit the 8-CPU
    # acceptance floor of 2.5x).
    scaling = doc.get("parallel_scaling", {})
    if isinstance(scaling, dict):
        for key in sorted(k for k in scaling if k.startswith("threads_")):
            s = scaling[key]
            if not isinstance(s, dict):
                continue
            ratio = s.get("ratio", 0.0)
            required = s.get("min_ratio", 0.0)
            if finite_number(ratio) and finite_number(required) \
                    and ratio < required:
                failures.append(
                    f"parallel_scaling.{key}: {ratio:.2f}x below "
                    f"required {required:.2f}x")
    return failures


def cmd_perf(args):
    problems = []
    for path in args.files:
        name = os.path.basename(path)
        try:
            doc = load(path)
        except (OSError, json.JSONDecodeError) as e:
            problems.append(f"{path}: unreadable: {e}")
            continue
        doc_problems = validate_perf(doc, name)
        problems += doc_problems
        if doc_problems:
            continue
        for key, s in sorted(doc["speedups"].items()):
            print(f"perf: {name}: {key} {s['ratio']:.2f}x "
                  f"(required >= {s['min_ratio']:.2f}x)")
        print(f"perf: {name}: events_per_sec "
              f"{doc['events_per_sec']:.0f}")
        scaling = doc.get("parallel_scaling", {})
        if isinstance(scaling, dict) and scaling:
            cpus = scaling.get("host_cpus", "?")
            for key in sorted(k for k in scaling
                              if k.startswith("threads_")):
                s = scaling[key]
                print(f"perf: {name}: parallel {key} "
                      f"{s['ratio']:.2f}x "
                      f"(required >= {s['min_ratio']:.2f}x, "
                      f"host_cpus={cpus})")
        problems += [f"{name}: {f}" for f in perf_gate(doc)]
    for p in problems:
        print(f"bench_diff: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"perf: {len(args.files)} file(s) OK")
    return 0


def perf_diff_results(old, new, threshold):
    """Compare two perf baselines; return (regressions, report_lines)."""
    regressions = []
    lines = []

    def pct_change(base, v):
        return 100.0 * (v - base) / abs(base)

    old_speed = old.get("speedups", {})
    new_speed = new.get("speedups", {})
    for key in sorted(set(old_speed) | set(new_speed)):
        if key not in new_speed:
            lines.append(f"speedups.{key}: MISSING from new baseline")
            regressions.append(f"speedups.{key}: disappeared")
            continue
        if key not in old_speed:
            lines.append(f"speedups.{key}: new (no baseline)")
            continue
        base = old_speed[key].get("ratio")
        v = new_speed[key].get("ratio")
        if not finite_number(base) or not finite_number(v) or base == 0:
            continue
        pct = pct_change(base, v)
        regressed = pct < -threshold
        if abs(pct) > threshold or regressed:
            marker = " REGRESSION" if regressed else ""
            lines.append(f"speedups.{key}.ratio: {base:.2f}x -> "
                         f"{v:.2f}x ({pct:+.1f}%){marker}")
        if regressed:
            regressions.append(f"speedups.{key}.ratio {pct:+.1f}%")

    # Raw ns and events/sec depend on the machine the baseline was
    # generated on: report large swings, never gate.
    base = old.get("events_per_sec")
    v = new.get("events_per_sec")
    if finite_number(base) and finite_number(v) and base != 0:
        pct = pct_change(base, v)
        if abs(pct) > threshold:
            lines.append(f"events_per_sec: {base:.0f} -> {v:.0f} "
                         f"({pct:+.1f}%) [informational]")
    old_prim = old.get("primitives_ns", {})
    new_prim = new.get("primitives_ns", {})
    for key in sorted(set(old_prim) & set(new_prim)):
        base, v = old_prim[key], new_prim[key]
        if not finite_number(base) or not finite_number(v) or base == 0:
            continue
        pct = pct_change(base, v)
        if abs(pct) > threshold:
            lines.append(f"primitives_ns.{key}: {base:.1f} -> {v:.1f} "
                         f"({pct:+.1f}%) [informational]")

    # Parallel-engine scaling ratios depend on the host's core count
    # (a laptop baseline vs an 8-core runner is not a regression), so
    # cross-machine diffs report swings but never gate; the absolute
    # floor lives in each document's own min_ratio, enforced by `perf`.
    old_par = old.get("parallel_scaling", {})
    new_par = new.get("parallel_scaling", {})
    if isinstance(old_par, dict) and isinstance(new_par, dict):
        for key in sorted(set(old_par) & set(new_par)):
            if not key.startswith("threads_"):
                continue
            base = old_par[key].get("ratio")
            v = new_par[key].get("ratio")
            if not finite_number(base) or not finite_number(v) \
                    or base == 0:
                continue
            pct = pct_change(base, v)
            if abs(pct) > threshold:
                lines.append(
                    f"parallel_scaling.{key}.ratio: {base:.2f}x -> "
                    f"{v:.2f}x ({pct:+.1f}%) [informational]")
    return regressions, lines


def cmd_perf_diff(args):
    try:
        old = load(args.old)
        new = load(args.new)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"perf-diff: {e}")
    problems = validate_perf(old, args.old) + validate_perf(new, args.new)
    if problems:
        for p in problems:
            print(f"bench_diff: {p}", file=sys.stderr)
        return 1
    regressions, lines = perf_diff_results(old, new, args.threshold)
    for line in lines:
        print(line)
    if regressions:
        print(f"perf-diff: {len(regressions)} regression(s) past "
              f"{args.threshold:.1f}%:", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        return 1
    print(f"perf-diff: no speedup regressions past "
          f"{args.threshold:.1f}%")
    return 0


# ----------------------------------------------------------------- selftest


def synthetic(values, slo=None):
    """A minimal aggregate with one throughput and one latency figure,
    plus (optionally) an SLO-derived saturation figure."""
    thr, lat = values
    doc = {
        "schema": AGGREGATE_SCHEMA,
        "results": {
            "fake_bench": {
                "schema": RESULT_SCHEMA,
                "bench": "fake_bench",
                "seed": 0,
                "notes": [],
                "config": {},
                "systems_recorded": 1,
                "figures": [
                    {
                        "title": "ops/sec (higher is better)",
                        "x_label": "threads",
                        "xs": ["1", "2"],
                        "series": [{"name": "daxvm", "values": thr}],
                    },
                    {
                        "title": "latency us (lower is better)",
                        "x_label": "size",
                        "xs": ["4K", "16K"],
                        "series": [{"name": "mmap", "values": lat}],
                    },
                ],
                "metrics": {"counters": {}, "gauges": {},
                            "histograms": {}},
            }
        },
    }
    if slo is not None:
        doc["results"]["fake_bench"]["figures"].append({
            "title": "saturation throughput vs p99 SLO "
                     "(krps, higher is better)",
            "x_label": "p99 SLO",
            "xs": ["0.5ms", "1ms"],
            "series": [{"name": "tenant", "values": slo}],
        })
    return doc


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


def synthetic_perf(walk_ratio, flush_ratio, par8_ratio=3.0,
                   par8_min=2.5, frame_ratio=4.0):
    """A minimal daxvm-bench-perf-v1 document."""
    return {
        "schema": PERF_SCHEMA,
        "bench": "micro_ops",
        "primitives_ns": {"BM_MmuTranslate": 100.0,
                          "BM_DeviceFlushLoop": 30000.0},
        "speedups": {
            "walk_loop": {"fast_ns": 100.0,
                          "ref_ns": 100.0 * walk_ratio,
                          "ratio": walk_ratio, "min_ratio": 1.5},
            "flush_loop": {"fast_ns": 30000.0,
                           "ref_ns": 30000.0 * flush_ratio,
                           "ratio": flush_ratio, "min_ratio": 1.5},
            "frame_churn": {"fast_ns": 50.0,
                            "ref_ns": 50.0 * frame_ratio,
                            "ratio": frame_ratio, "min_ratio": 1.5},
        },
        "events_per_sec": 25e6,
        "parallel_scaling": {
            "host_cpus": 8,
            "threads_1": {"ns": 8e6, "events_per_sec": 40e6,
                          "ratio": 1.0, "min_ratio": 0.85},
            "threads_8": {"ns": 8e6 / par8_ratio,
                          "events_per_sec": 40e6 * par8_ratio,
                          "ratio": par8_ratio, "min_ratio": par8_min},
        },
    }


def cmd_selftest(args):
    del args
    base = synthetic(([100.0, 200.0], [5.0, 9.0]))
    checks = []

    problems = validate_doc(base, "selftest-base")
    checks.append(("validate clean aggregate", not problems))

    # Identical results: no regressions.
    regs, _ = diff_results(base, synthetic(([100.0, 200.0], [5.0, 9.0])),
                           DEFAULT_THRESHOLD)
    checks.append(("identical pair passes", not regs))

    # 20% throughput drop must be caught.
    regs, _ = diff_results(base, synthetic(([80.0, 200.0], [5.0, 9.0])),
                           DEFAULT_THRESHOLD)
    checks.append(("20% throughput drop caught", len(regs) == 1))

    # 20% latency increase must be caught.
    regs, _ = diff_results(base, synthetic(([100.0, 200.0], [6.0, 9.0])),
                           DEFAULT_THRESHOLD)
    checks.append(("20% latency increase caught", len(regs) == 1))

    # 20% improvement in both directions must NOT be flagged.
    regs, _ = diff_results(base, synthetic(([120.0, 240.0], [4.0, 7.0])),
                           DEFAULT_THRESHOLD)
    checks.append(("improvements pass", not regs))

    # SLO figures: a real 20% saturation-throughput drop gates...
    slo_base = synthetic(([100.0, 200.0], [5.0, 9.0]),
                         slo=[50.0, 80.0])
    regs, _ = diff_results(
        slo_base,
        synthetic(([100.0, 200.0], [5.0, 9.0]), slo=[40.0, 80.0]),
        DEFAULT_THRESHOLD)
    checks.append(("SLO saturation drop caught", len(regs) == 1))
    # ...but a collapse to exactly 0 means "no qualifying data"
    # (zero-count histogram in a scaled-down smoke run): report-only.
    regs, lines = diff_results(
        slo_base,
        synthetic(([100.0, 200.0], [5.0, 9.0]), slo=[0.0, 80.0]),
        DEFAULT_THRESHOLD)
    checks.append(("SLO zero never gates",
                   not regs and any("SLO" in ln for ln in lines)))

    # Broken documents must fail validation.
    broken = synthetic(([1.0, 2.0], [3.0, 4.0]))
    broken["results"]["fake_bench"]["figures"][0]["series"][0][
        "values"] = [1.0]  # length mismatch vs xs
    checks.append(("length mismatch rejected",
                   bool(validate_doc(broken, "selftest-broken"))))

    # Windowed-telemetry section: clean timelines validate, window
    # starts must strictly increase, window sums must reconcile with
    # the run totals (unless windows were truncated away), and the
    # series never gate (a timeline-bearing pair diffs clean).
    with_tl = synthetic(([100.0, 200.0], [5.0, 9.0]))
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
    regs, _ = diff_results(with_tl, with_tl, DEFAULT_THRESHOLD)
    checks.append(("timeline series never gate", not regs))

    # Host-perf baseline logic.
    perf = synthetic_perf(1.8, 2.6)
    checks.append(("perf baseline validates",
                   not validate_perf(perf, "selftest-perf")))
    checks.append(("perf ratios above minimum pass", not perf_gate(perf)))
    checks.append(("perf ratio below minimum caught",
                   len(perf_gate(synthetic_perf(1.2, 2.6))) == 1))
    checks.append(("frame-churn ratio below minimum caught",
                   len(perf_gate(
                       synthetic_perf(1.8, 2.6, frame_ratio=1.2))) == 1))
    checks.append(("parallel scaling below minimum caught",
                   len(perf_gate(
                       synthetic_perf(1.8, 2.6, par8_ratio=2.0))) == 1))
    checks.append(("parallel min_ratio adapts to small hosts",
                   not perf_gate(synthetic_perf(
                       1.8, 2.6, par8_ratio=0.9, par8_min=0.85))))
    legacy = synthetic_perf(1.8, 2.6)
    del legacy["parallel_scaling"]
    checks.append(("baseline without parallel_scaling validates",
                   not validate_perf(legacy, "selftest-legacy")))
    malformed = synthetic_perf(1.8, 2.6)
    del malformed["parallel_scaling"]["threads_8"]["ratio"]
    checks.append(("malformed parallel_scaling rejected",
                   bool(validate_perf(malformed, "selftest-malformed"))))

    # perf-diff: identical pair passes, a >25% ratio drop is caught,
    # improvements and machine-dependent ns swings never gate.
    regs, _ = perf_diff_results(perf, synthetic_perf(1.8, 2.6),
                                PERF_DEFAULT_THRESHOLD)
    checks.append(("perf-diff identical pair passes", not regs))
    regs, _ = perf_diff_results(perf, synthetic_perf(1.8, 1.7),
                                PERF_DEFAULT_THRESHOLD)
    checks.append(("perf-diff ratio drop caught", len(regs) == 1))
    regs, _ = perf_diff_results(
        perf, synthetic_perf(1.8, 2.6, frame_ratio=2.9),
        PERF_DEFAULT_THRESHOLD)
    checks.append(("perf-diff frame-churn drop caught", len(regs) == 1))
    regs, _ = perf_diff_results(perf, synthetic_perf(3.0, 4.0),
                                PERF_DEFAULT_THRESHOLD)
    checks.append(("perf-diff improvements pass", not regs))
    slower_host = synthetic_perf(1.8, 2.6)
    for key in slower_host["primitives_ns"]:
        slower_host["primitives_ns"][key] *= 2.0
    slower_host["events_per_sec"] /= 2.0
    regs, _ = perf_diff_results(perf, slower_host,
                                PERF_DEFAULT_THRESHOLD)
    checks.append(("perf-diff raw ns never gates", not regs))
    # A 1-CPU host baseline diffed against an 8-CPU one swings the
    # parallel ratios wildly; that must be reported, never gated.
    regs, lines = perf_diff_results(
        perf, synthetic_perf(1.8, 2.6, par8_ratio=0.9, par8_min=0.85),
        PERF_DEFAULT_THRESHOLD)
    checks.append(("perf-diff parallel ratios never gate",
                   not regs and any("parallel_scaling" in ln
                                    for ln in lines)))

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

    p = sub.add_parser("diff", help="compare two aggregates")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="regression threshold in percent (default 10)")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("perf", help="validate host-perf baselines and "
                                    "gate on speedup minimums")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser("perf-diff", help="compare two host-perf baselines")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--threshold", type=float,
                   default=PERF_DEFAULT_THRESHOLD,
                   help="speedup-ratio regression threshold in percent "
                        "(default 25)")
    p.set_defaults(func=cmd_perf_diff)

    p = sub.add_parser("selftest", help="verify diff/validate logic")
    p.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
