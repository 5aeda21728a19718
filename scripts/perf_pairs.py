"""A/B pairs of benchmark runs: a base revision against the working tree.

Run from the repository root:

    python3 scripts/perf_pairs.py --workload mst-dense --seeds 81 82 83 \
        84 85 86 87 88 89 90 --base HEAD

The base revision is exported once with `git archive` into a temporary
directory.  `--workload` takes one or more workloads, which run one after
another, each over every seed.  Each seed is one pair: `perfbench/run.py`
runs once in the base export and once in the working tree, and the side
that goes first alternates from pair to pair.  For each pair the script prints both
`run_rel_p50` values, their ratio and whether the fingerprint lines agree;
then each side's median and quartiles, the number of pairs the working
tree won, and whether the gain rule holds: at least 9 of every 10 pairs
won, over at least 10 pairs, and a median gap wider than the base's
interquartile range.  Every end-to-end metric of `BENCHMARK.json` is then
listed with both sides' medians, their change/base ratio, the fraction by
which the change is worse in the metric's `better` direction, its bound,
and a verdict: `within bound`, `WORSE beyond bound`, or `unresolved` when
the base's own interquartile range over its median is wider than the bound,
not every change run reads better than every base run, and the two sides
differ in some pair.  Last comes the number of pairs whose fingerprint
lines agree.  `--json PATH` writes every run's metrics, by workload,
with that number as `fingerprints_same`.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile


def export(rev: str, dest: str):
    """The files of `rev` under `dest`."""
    tar = subprocess.run(["git", "archive", rev], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def bench(cwd: str, workload: str, seed: int, seconds: float):
    """({metric: value}, fingerprint line) of one benchmark run in `cwd`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=cwd, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    metrics = {k: v["value"] for k, v in json.loads(out[-1])["metrics"].items()}
    fingerprint = next(line for line in out if line.startswith("fingerprint "))
    return metrics, fingerprint


def quartiles(xs):
    """(first quartile, median, third quartile) of `xs`."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def classify(base, change, better, bound):
    """(change/base median ratio, fraction worse, verdict) of one metric
    from each side's values, listed in pair order.  The fraction worse is
    the ratio's distance from 1 in the metric's worse direction (negative
    when it improved).  Sides equal in every pair are within bound,
    however widely the metric spreads across the pairs' seeds."""
    (b1, bm, b3), (_, cm, _) = quartiles(base), quartiles(change)
    if bm:
        ratio, spread = cm / bm, (b3 - b1) / abs(bm)
    else:  # a count that reads 0 on the base
        ratio = 1.0 if cm == 0 else math.inf
        spread = 0.0 if b3 == b1 else math.inf
    lower = better == "lower"
    worse = ratio - 1 if lower else 1 - ratio
    all_better = (max(change) < min(base) if lower
                  else min(change) > max(base))
    if spread > bound and not all_better and list(change) != list(base):
        return ratio, worse, "unresolved"
    return ratio, worse, "WORSE beyond bound" if worse > bound else "within bound"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", required=True,
                    help="one or more workloads, each run over every seed")
    ap.add_argument("--seeds", type=int, nargs="+", required=True,
                    help="one pair per seed")
    ap.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--json", help="write every run's metrics to this file")
    return ap.parse_args(argv)


def compare(sides, workload, seeds, seconds, end_to_end):
    """Run one pair per seed of `workload` in `sides` ({"base": dir,
    "change": dir}), print each pair and the verdicts, and return the
    workload's record: its pairs and how many agree in fingerprint."""
    runs = {"base": [], "change": []}
    pairs, wins = [], 0
    for j, seed in enumerate(seeds):
        order = ("base", "change") if j % 2 == 0 else ("change", "base")
        got = {side: bench(sides[side], workload, seed, seconds)
               for side in order}
        (bm, bfp), (cm, cfp) = got["base"], got["change"]
        runs["base"].append(bm)
        runs["change"].append(cm)
        b, c = bm["run_rel_p50"], cm["run_rel_p50"]
        wins += c < b
        pairs.append({"seed": seed, "first": order[0], "base": bm,
                      "change": cm, "fingerprint_same": bfp == cfp})
        same = "same" if bfp == cfp else f"DIFFERENT\n  base {bfp}\n  change {cfp}"
        print(f"seed {seed}: base {b:.4f} change {c:.4f} "
              f"ratio {c / b:.3f} fingerprint {same}", flush=True)
        if j == 0:
            print(f"  {bfp}")

    base = [m["run_rel_p50"] for m in runs["base"]]
    bq, cq = quartiles(base), quartiles([m["run_rel_p50"] for m in runs["change"]])
    iqr = bq[2] - bq[0]
    gap = bq[1] - cq[1]
    print(f"base   median {bq[1]:.4f} quartiles {bq[0]:.4f} {bq[2]:.4f}")
    print(f"change median {cq[1]:.4f} quartiles {cq[0]:.4f} {cq[2]:.4f}")
    holds = len(base) >= 10 and 10 * wins >= 9 * len(base) and gap > iqr
    print(f"change won {wins} of {len(base)} pairs; median gap {gap:.4f} "
          f"against base IQR {iqr:.4f}; gain rule "
          f"{'holds' if holds else 'does not hold'}")
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        b, c = ([m[name] for m in runs[side]] for side in ("base", "change"))
        ratio, worse, verdict = classify(b, c, metric["better"], bound)
        print(f"  {name:<20} median base {statistics.median(b):.6g} change "
              f"{statistics.median(c):.6g} ratio {ratio:.4f} worse "
              f"{worse:+.2%} bound {bound:.0%}: {verdict}")
    same = sum(p["fingerprint_same"] for p in pairs)
    print(f"fingerprint lines agree in {same} of {len(pairs)} pairs")
    return {"workload": workload, "pairs": pairs, "fingerprints_same": same}


def main(argv=None):
    args = parse_args(argv)
    with open("BENCHMARK.json") as f:
        benchmark = json.load(f)
    seconds = args.seconds
    if seconds is None:
        seconds = benchmark["run_seconds"]

    workloads = []
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        export(args.base, tmp)
        sides = {"base": tmp, "change": os.getcwd()}
        for workload in args.workload:
            print(f"{workload}: {args.base} against the working tree, "
                  f"{seconds:g} s a run")
            workloads.append(compare(sides, workload, args.seeds, seconds,
                                     benchmark["end_to_end"]))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"base": args.base, "seconds": seconds,
                       "workloads": workloads}, f, indent=1)


if __name__ == "__main__":
    main()
