#!/usr/bin/env python3
"""A/B comparison: the same benchmark code against two source trees.

    python3 perfbench/ab.py --base PARENT_TREE --head HEAD_TREE \
        [--workloads dna-long,serve-mix] [--pairs 10] [--seconds 10] [--seed0 1000]

Both trees are repository checkouts, for instance the parent commit
exported with `git archive`. The perfbench sources of THIS tree are
built twice, once against each tree's program, into separate binaries,
so both sides run identical benchmark code with identical settings.
For each workload it runs --pairs pairs, each pair on a fresh seed,
alternating which side goes first. It then reports, per workload and
end-to-end metric, each side's median and quartiles, the head's win
rate over the pairs (ties count for neither side), and a verdict:

  unresolved  fewer than 10 pairs, or either side's spread (IQR /
              median) exceeds the bound and not every head run beats
              every base run;
  regressed   the head's median is worse than the base's by more than
              the bound;
  improved    the head wins at least 9 pairs in 10 and the medians
              differ by more than the base's IQR;
  unchanged   otherwise.

Output goes to stdout and, as JSON, to .bench_build/ab/report.json.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as runner  # noqa: E402  (the build helpers of run.py)


def build_side(name, tree, build_dir):
    """Copy this benchmark's sources, point them at tree, build."""
    src = os.path.join(build_dir, "ab", name, "src")
    shutil.rmtree(src, ignore_errors=True)
    os.makedirs(src)
    for f in os.listdir(HERE):
        if (f.endswith(".go") and not f.endswith("_test.go")) or f in ("go.mod", "workloads.json"):
            shutil.copy(os.path.join(HERE, f), src)
    mod = os.path.join(src, "go.mod")
    with open(mod) as fh:
        text = fh.read()
    text = re.sub(r"(?m)^replace repro => .*$", "replace repro => " + os.path.abspath(tree), text)
    with open(mod, "w") as fh:
        fh.write(text)
    binary = os.path.join(build_dir, "ab", name, "perfbench")
    if runner.build(src, binary, build_dir) != 0:
        sys.exit("ab: building against %s failed" % tree)
    return binary


def run_once(binary, workload, seed, seconds, build_dir):
    workdir = os.path.join(build_dir, "ab", "work")
    proc = subprocess.run([binary, "--workdir", workdir, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("ab: %s %s seed %d failed:\n%s" % (binary, workload, seed, proc.stderr[-3000:]))
    res = json.loads(lines[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(metric, base, head):
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    lower = metric["better"] == "lower"

    def better(h, b):
        return h < b if lower else h > b

    spread = max((bq3 - bq1) / bmed if bmed else float("inf"),
                 (hq3 - hq1) / hmed if hmed else float("inf"))
    wins = sum(1 for b, h in zip(base, head) if better(h, b))
    dominates = all(better(h, b) for h in head for b in base)
    worse = (hmed - bmed) / bmed if lower else (bmed - hmed) / bmed
    if len(base) < 10 or (spread > metric["bound"] and not dominates):
        v = "unresolved"
    elif worse > metric["bound"]:
        v = "regressed"
    elif wins >= 0.9 * len(base) and abs(hmed - bmed) > bq3 - bq1:
        v = "improved"
    else:
        v = "unchanged"
    return {"base": [bq1, bmed, bq3], "head": [hq1, hmed, hq3], "spread": spread,
            "win_rate": wins / len(base), "verdict": v}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", required=True)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--seed0", type=int, default=1000)
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binaries = {"base": build_side("base", args.base, build_dir),
                "head": build_side("head", args.head, build_dir)}

    report = {"seconds": seconds, "pairs": args.pairs, "workloads": {}}
    for w in workloads:
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_once(binaries[side], w, seed, seconds, build_dir))
            print("%s pair %d/%d done" % (w, i + 1, args.pairs), file=sys.stderr)
        rows = {}
        for m in bench["end_to_end"]:
            name = m["name"]
            rows[name] = verdict(m, [r[name] for r in runs["base"]], [r[name] for r in runs["head"]])
        report["workloads"][w] = rows

    print("%-13s %-23s %32s %32s %7s %5s  %s" % ("workload", "metric", "base q1 / median / q3",
                                                  "head q1 / median / q3", "spread", "wins", "verdict"))
    for w, rows in report["workloads"].items():
        for name, r in rows.items():
            print("%-13s %-23s %10.4g /%10.4g /%10.4g %10.4g /%10.4g /%10.4g %7.3f %5.2f  %s" % (
                w, name, *r["base"], *r["head"], r["spread"], r["win_rate"], r["verdict"]))
    out = os.path.join(build_dir, "ab", "report.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
    print("report: %s" % out, file=sys.stderr)


if __name__ == "__main__":
    main()
