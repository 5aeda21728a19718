"""Benchmark workloads: seeded inputs, the timed call, and output checks.

Inputs come from the generators below rather than from `hetmpc.graphio`,
so a change to the library's generators cannot change what is measured.
The checks are written here too, independently of `hetmpc.oracles`, so a
later simplification of the oracles cannot weaken the benchmark's gate.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from hetmpc import SimGraph, connectivity, matching, mst, spanner


def derive_seed(*tags) -> int:
    """A 63-bit seed fixed by the tags (workload name, run seed, index)."""
    raw = repr(tags).encode()
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "big") >> 1


# ---------------------------------------------------------------------------
# input generators


def gnm_weighted(n, m, seed, max_weight):
    """m distinct uniform edges (u < v), weights uniform in 1..max_weight."""
    rng = random.Random(seed)
    chosen = set()
    while len(chosen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            chosen.add((min(u, v), max(u, v)))
    return [(u, v, rng.randint(1, max_weight)) for u, v in sorted(chosen)]


def gnp(n, p, seed):
    """Each pair u < v is an edge independently with probability p."""
    rng = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def with_weights(edges, seed, max_weight):
    rng = random.Random(seed)
    return [(u, v, rng.randint(1, max_weight)) for u, v in edges]


# ---------------------------------------------------------------------------
# independent checks


class _DSU:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def kruskal(n, edges):
    """Minimum spanning forest under the total order (w, min, max)."""
    dsu = _DSU(n)
    order = sorted(edges, key=lambda e: (e[2], min(e[0], e[1]), max(e[0], e[1])))
    return [e for e in order if dsu.union(e[0], e[1])]


def check_forest(n, edges, forest):
    want = sorted((min(u, v), max(u, v), w) for u, v, w in kruskal(n, edges))
    got = sorted((min(u, v), max(u, v), w) for u, v, w in forest)
    return got == want


def check_stretch(n, edges, spanner_edges, bound):
    """Every graph edge (u, v) has a path of at most `bound` hops in the
    spanner, and the spanner uses only graph edges."""
    graph = {(min(u, v), max(u, v)) for u, v in edges}
    adj = [[] for _ in range(n)]
    for u, v in spanner_edges:
        if (min(u, v), max(u, v)) not in graph:
            return False
        adj[u].append(v)
        adj[v].append(u)
    need = [[] for _ in range(n)]
    for u, v in graph:
        need[u].append(v)
    for s in range(n):
        if not need[s]:
            continue
        dist = {s: 0}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            if dist[x] == bound:
                continue
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if any(t not in dist for t in need[s]):
            return False
    return True


def check_matching(n, edges, matching):
    """The matching uses graph edges, shares no vertex, and is maximal."""
    graph = {(min(u, v), max(u, v)) for u, v in edges}
    matched = set()
    for u, v in matching:
        if (min(u, v), max(u, v)) not in graph or u in matched or v in matched:
            return False
        matched.update((u, v))
    return all(u in matched or v in matched for u, v in graph)


def check_estimate(n, edges, estimate, eps):
    exact = sum(w for _, _, w in kruskal(n, edges))
    return (1 - 2 * eps) * exact <= estimate <= (1 + 2 * eps) * exact


# ---------------------------------------------------------------------------
# workloads


K_SPANNER = 2
EPS = 0.1
MAX_WEIGHT = 8


@dataclass
class Case:
    """One input of a workload: the edge list the checks read, the graph
    object the program receives, and the cluster seed."""

    n: int
    edges: list
    graph: object
    cluster_seed: int


@dataclass
class Workload:
    name: str
    pool: int  # distinct inputs per invocation, cycled by the closed loop
    make: Callable  # (derived seed, smoke) -> Case
    call: Callable  # (cluster, case) -> (output, report)
    check: Callable  # (case, output) -> bool
    # per-layer metric name -> key of the report the call returns
    report_counters: dict = field(default_factory=dict)


def _case(n, edges, weighted, seed):
    graph = SimGraph(n, list(edges), weighted=weighted)
    return Case(n, edges, graph, derive_seed("cluster", seed))


def _make_mst(seed, smoke):
    n, m = (32, 128) if smoke else (256, 4096)
    return _case(n, gnm_weighted(n, m, seed, n ** 3), True, seed)


def _make_sketch(seed, smoke):
    n = 32 if smoke else 256
    edges = with_weights(gnp(n, 0.2 if smoke else 0.05, seed), seed + 1, MAX_WEIGHT)
    return _case(n, edges, True, seed)


def _make_spanner(seed, smoke):
    n = 32 if smoke else 256
    return _case(n, gnp(n, 0.3 if smoke else 0.1, seed), False, seed)


def _make_matching(seed, smoke):
    n = 32 if smoke else 512
    return _case(n, gnp(n, 8 / n, seed), False, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mst-dense", 16, _make_mst,
            lambda cl, c: mst.mst(cl, c.graph),
            lambda c, out: check_forest(c.n, c.edges, out),
            {"mst.sampling.reps_per_success": "repetitions_run"},
        ),
        Workload(
            "sketch-estimate", 8, _make_sketch,
            lambda cl, c: connectivity.mst_weight_estimate(
                cl, c.graph, EPS, max_weight=MAX_WEIGHT),
            lambda c, out: check_estimate(c.n, c.edges, out, EPS),
        ),
        Workload(
            "spanner", 12, _make_spanner,
            lambda cl, c: spanner.spanner(cl, c.graph, K_SPANNER),
            lambda c, out: check_stretch(c.n, c.edges, out, 6 * K_SPANNER - 1),
        ),
        Workload(
            "matching-sparse", 16, _make_matching,
            lambda cl, c: matching.maximal_matching(cl, c.graph),
            lambda c, out: check_matching(c.n, c.edges, out),
            {"matching.phase1.rounds": "phase1_rounds",
             "matching.retries": "retried"},
        ),
    )
}
