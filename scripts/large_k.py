"""Large runs in strict mode at gamma=0.5 and seed 0.

The default run is `mst.mst` on a weighted G(n=2048, m=524,288), which
puts K = 11,586 small machines on the cluster; `--algo matching` runs
`matching.maximal_matching` on G(n=4096, m=65,536), K = 1,024, and
`--algo estimate` runs `connectivity.mst_weight_estimate` with eps = 0.1
on G(n=1024, m=16,384) with weights in 1..8.

Run from the repository root:

    python3 scripts/large_k.py
    python3 scripts/large_k.py --algo matching
    python3 scripts/large_k.py --algo estimate

Each of three runs is a fresh process.  For each it prints the seconds
of the algorithm's call, the rounds used, the words sent and the peak
resident memory of the process; for MST also the forest weight, for
matching the phase-1 rounds and the matching size, and for the estimate
the estimated forest weight.  Standard library
and the repository's own code only.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

GAMMA, SEED, RUNS = 0.5, 0, 3
# algo -> (n, m, weighted)
SHAPES = {"mst": (2048, 524_288, True), "matching": (4096, 65_536, False),
          "estimate": (1024, 16_384, True)}
EPS, MAX_WEIGHT = 0.1, 8  # of the estimate
NAMES = {"mst": "mst.mst", "matching": "matching.maximal_matching",
         "estimate": "connectivity.mst_weight_estimate"}


def one_run(algo):
    """(seconds, rounds, words sent, peak RSS in MB, the algorithm's
    report) of one run of `algo` in this process."""
    from hetmpc import connectivity, matching, mst
    from hetmpc.graphio import generate_graph
    from hetmpc.simcore import ClusterConfig, init_cluster

    n, m, weighted = SHAPES[algo]
    max_weight = MAX_WEIGHT if algo == "estimate" else None
    graph = generate_graph("gnm", n, seed=SEED, m=m, weighted=weighted,
                           max_weight=max_weight)
    cluster = init_cluster(ClusterConfig(n=n, m=m, gamma=GAMMA, seed=SEED), strict=True)
    run = {"mst": mst.mst, "matching": matching.maximal_matching,
           "estimate": lambda cl, g: connectivity.mst_weight_estimate(
               cl, g, EPS, max_weight=MAX_WEIGHT)}[algo]
    start = time.perf_counter()
    _, report = run(cluster, graph)
    seconds = time.perf_counter() - start
    words = sum(sum(t.sent.values()) for t in cluster.telemetry)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return seconds, cluster.rounds_used, words, peak_mb, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--algo", choices=sorted(SHAPES), default="mst")
    algo = ap.parse_args(argv).algo
    n, m, _ = SHAPES[algo]
    spawn = multiprocessing.get_context("spawn")
    print(f"{NAMES[algo]} on G(n={n}, m={m}), gamma={GAMMA}, seed={SEED}, strict")
    for i in range(1, RUNS + 1):
        with spawn.Pool(1) as pool:
            seconds, rounds, words, peak_mb, report = pool.apply(one_run, (algo,))
        if algo == "mst":
            print(f"run {i}: {seconds:.2f} s, {rounds} rounds, {words:,} words sent, "
                  f"weight {report['total_weight']:,}, peak RSS {peak_mb:.0f} MB",
                  flush=True)
        elif algo == "estimate":
            print(f"run {i}: {seconds:.2f} s, {rounds} rounds, {words:,} words sent, "
                  f"estimate {report['estimate']:,.2f}, peak RSS {peak_mb:.0f} MB",
                  flush=True)
        else:
            print(f"run {i}: {seconds:.2f} s, {rounds} rounds "
                  f"({report['phase1_rounds']} in phase 1), {words:,} words sent, "
                  f"matching size {report['size']:,}, peak RSS {peak_mb:.0f} MB",
                  flush=True)


if __name__ == "__main__":
    main()
