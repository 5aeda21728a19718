"""The large-K MST run: `mst.mst` in strict mode on a weighted G(n=2048,
m=524,288) at gamma=0.5 and seed 0, which puts K = 11,586 small machines
on the cluster.

Run from the repository root:

    python3 scripts/large_k.py

Each of three runs is a fresh process.  For each it prints the seconds
of the `mst.mst` call, the rounds used, the words sent, the forest
weight and the peak resident memory of the process.  Standard library
and the repository's own code only.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

N, M, GAMMA, SEED, RUNS = 2048, 524_288, 0.5, 0, 3


def one_run():
    """(seconds, rounds, words sent, forest weight, peak RSS in MB) of one
    run in this process."""
    from hetmpc import mst
    from hetmpc.graphio import generate_graph
    from hetmpc.simcore import ClusterConfig, init_cluster

    graph = generate_graph("gnm", N, seed=SEED, m=M, weighted=True)
    cluster = init_cluster(ClusterConfig(n=N, m=M, gamma=GAMMA, seed=SEED), strict=True)
    start = time.perf_counter()
    _, report = mst.mst(cluster, graph)
    seconds = time.perf_counter() - start
    words = sum(sum(t.sent.values()) for t in cluster.telemetry)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return seconds, cluster.rounds_used, words, report["total_weight"], peak_mb


def main():
    spawn = multiprocessing.get_context("spawn")
    print(f"mst.mst on G(n={N}, m={M}), gamma={GAMMA}, seed={SEED}, strict")
    for i in range(1, RUNS + 1):
        with spawn.Pool(1) as pool:
            seconds, rounds, words, weight, peak_mb = pool.apply(one_run)
        print(f"run {i}: {seconds:.2f} s, {rounds} rounds, {words:,} words sent, "
              f"weight {weight:,}, peak RSS {peak_mb:.0f} MB", flush=True)


if __name__ == "__main__":
    main()
