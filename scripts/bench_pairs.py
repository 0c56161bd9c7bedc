#!/usr/bin/env python3
"""Run alternating parent/change daxbench pairs and compare them.

    scripts/bench_pairs.py --parent REV --workload W --pairs N \\
        --first-seed S [--seconds 10] [--out DIR]

Exports REV with `git archive`, then runs benchmark/run.py there and in
the working tree (each with its own CARGO_TARGET_DIR) on seeds S..S+N-1,
alternating which side runs first. Results go to DIR/parent and DIR/change
(DIR defaults to a new temporary directory). Repeat --workload, or reuse
--out: compare.py wants five runs of every workload per side. Prints each
pair's change/parent host_kops_per_s and setup_s ratios and sim_* match,
the win count and each side's median and quartiles, then exits with
benchmark/compare.py's status.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev, out):
    """Extract @rev under @out once; return its checkout directory."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    src = out / ("parent-" + sha[:12])
    if not src.exists():
        tmp = tempfile.mkdtemp(dir=out)
        subprocess.run(["bash", "-o", "pipefail", "-c", "git archive %s | "
                        "tar -x -C '%s'" % (sha, tmp)], cwd=ROOT, check=True)
        Path(tmp).rename(src)
    return src


def run(side, workload, seed, seconds):
    """Run one untraced measurement on @side; return its result."""
    path = side["results"] / ("%s-%d.json" % (workload, seed))
    env = dict(os.environ, CARGO_TARGET_DIR=str(side["target"]))
    with open(side["log"], "a") as log:
        subprocess.run([sys.executable, "benchmark/run.py", "--workload",
                        workload, "--seed", str(seed), "--seconds",
                        str(seconds), "--trace", "0", "--out", str(path)],
                       cwd=side["root"], env=env, check=True, stdout=log,
                       stderr=log)
    return json.loads(path.read_text())


def metric(doc, name):
    return doc["end_to_end"][name]["value"]


def pairs(sides, workload, args):
    print("%s: pair seed first  host_kops_per_s parent -> change  ratio"
          "  setup_s ratio  sim_*" % workload, flush=True)
    docs = {"parent": [], "change": []}
    wins = 0
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {name: run(sides[name], workload, seed, args.seconds)
               for name in order}
        p, c = got["parent"], got["change"]
        for name in docs:
            docs[name].append(got[name])
        kp, kc = metric(p, "host_kops_per_s"), metric(c, "host_kops_per_s")
        wins += kc > kp
        same = all(m["value"] == c["end_to_end"][n]["value"]
                   for n, m in p["end_to_end"].items() if n.startswith("sim_"))
        print("  %2d %5d %-6s %15.4g -> %-9.4g %6.3fx %12.3fx  %s"
              % (i + 1, seed, order[0], kp, kc, kc / kp,
                 metric(c, "setup_s") / metric(p, "setup_s"),
                 "identical" if same else "DIFFERENT"), flush=True)
    print("  host_kops_per_s wins: %d/%d" % (wins, args.pairs))
    for name in ("host_kops_per_s", "setup_s", "peak_rss_mb"):
        for side, runs in docs.items():
            vals = [metric(d, name) for d in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print("  %-15s %-6s median %.4g (q1-q3 %.4g-%.4g)"
                  % (name, side, statistics.median(vals), q1, q3))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    out = (args.out or Path(tempfile.mkdtemp(prefix="bench_pairs-"))).resolve()
    out.mkdir(parents=True, exist_ok=True)
    try:
        parent = export(args.parent, out)
        sides = {name: {"root": root, "target": out / ("target-" + tag),
                        "results": out / name, "log": out / (name + ".log")}
                 for name, root, tag in (("parent", parent, parent.name),
                                         ("change", ROOT, "change"))}
        for side in sides.values():
            side["results"].mkdir(exist_ok=True)
        for workload in args.workload:
            pairs(sides, workload, args)
    except (subprocess.CalledProcessError, OSError) as e:
        print("bench_pairs.py: %s (logs in %s)" % (e, out), file=sys.stderr)
        return 1
    print("results in %s" % out, flush=True)
    return subprocess.run([sys.executable, str(ROOT / "benchmark/compare.py"),
                           str(out / "parent"), str(out / "change")]).returncode


if __name__ == "__main__":
    sys.exit(main())
