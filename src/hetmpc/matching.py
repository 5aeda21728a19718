"""Maximal matching on the simulated cluster.

Three phases: a small-machine randomized matching of the low-degree
induced subgraph, a rank-sampled greedy pass over the high-degree
vertices on the large machine, and a residual cleanup of the leftover
free-free edges.  A separate sampling recursion handles clusters whose
large machine has superlinear memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import primitives
from .primitives import _pair
from .simcore import (
    LARGE,
    Cluster,
    ConfigError,
    Records,
    RunFailed,
    Slices,
    as_records,
    distribute_edges,
)


@dataclass
class MatchingState:
    d: int
    deg: dict
    v_low: set
    v_high: set
    m1: list = field(default_factory=list)
    m2: list = field(default_factory=list)
    m3: list = field(default_factory=list)
    residual_count: int = 0

    def matched_vertices(self):
        out = set()
        for u, v in self.m1 + self.m2 + self.m3:
            out.add(u)
            out.add(v)
        return out


def degree_split(cluster: Cluster, graph) -> MatchingState:
    """Arrange the stored edges to learn degrees, then split vertices at
    the d^2 threshold (d = average-degree ceiling)."""
    arranged = primitives.arrange_nodes(cluster, "E")
    cluster.drop("D")
    deg = dict(arranged.deg_out)
    d = max(1, math.ceil(2 * graph.m / graph.n))
    v_low = {v for v, dv in deg.items() if dv <= d * d}
    v_high = set(deg) - v_low
    assert len(v_high) <= graph.n / d, "high-degree count exceeds n/d"
    return MatchingState(d=d, deg=deg, v_low=v_low, v_high=v_high)


MAX_PHASE1_ITERS = 200


def _sends(group, src, dst, rows):
    """One round's `Slices` of the int64 `rows`, row j going from machine
    src[j] to dst[j]: one send per (group, receiver) in order of its first
    row, holding its rows in order (`group` ascends along the rows)."""
    key = group * (int(dst.max(initial=0)) + 1) + dst
    _, first, inv, count = np.unique(key, return_index=True, return_inverse=True,
                                     return_counts=True)
    sends = np.argsort(first)
    return Slices(as_records(rows[np.argsort(first[inv], kind="stable")]),
                  src[first[sends]], dst[first[sends]], count[sends])


def phase1_low_degree(cluster: Cluster, state: MatchingState):
    """Maximal matching of the low-degree induced subgraph, found by the
    small machines alone (default plug-in: round-synchronous randomized
    proposals; each free vertex flips proposer/acceptor, proposers pick a
    random free neighbor, acceptors take the smallest proposal).  Every
    round's messages are int records of one or two fields, built by
    array steps over vertex ids."""
    n, K = cluster.config.n, len(cluster.small_ids)

    def own(v):  # the owners of the vertices v
        return 1 + v % K

    low = np.zeros(n, bool)
    low[list(state.v_low)] = True
    # route every low-low edge to both endpoint owners, each sender's
    # edges in order
    cols = [cluster.machines[mid].state.get("E", Records()).columns()
            for mid in cluster.small_ids]
    src = np.repeat(cluster.small_ids, list(map(len, cols)))
    edges = np.concatenate([c[:, :2] for c in cols if len(c)]
                           + [np.zeros((0, 2), np.int64)])
    keep = low[edges[:, 0]] & low[edges[:, 1]]
    edges, src = edges[keep], np.repeat(src[keep], 2)
    a, b = edges.ravel(), edges[:, ::-1].ravel()  # the arcs a -> b in arrival order
    cluster.round(_sends(src, src, own(a), np.repeat(edges, 2, axis=0)))
    # each owner's adjacency: its arcs sorted by vertex, then neighbour
    # (the pairs "P"), each kept at its first arrival o
    o = np.lexsort((np.arange(len(a)), b, a, own(a)))
    o = o[(np.diff(a[o], prepend=-1) != 0) | (np.diff(b[o], prepend=-1) != 0)]
    a, b = a[o], b[o]
    cluster.store("P", as_records(np.stack([a, b], 1)),
                  np.cumsum(np.bincount(own(a), minlength=K + 1)))
    # by vertex: its arcs' start and stop, its neighbours in arrival
    # order, and the vertices by owner, then by first arrival
    first = np.diff(a, prepend=-1) != 0
    head = np.flatnonzero(first)
    by_arrival = np.lexsort((o, np.cumsum(first)))
    arrival = b[by_arrival].tolist()
    verts = a[head]
    start, stop = np.zeros(n, np.int64), np.zeros(n, np.int64)
    start[verts], stop[verts] = head, np.append(head[1:], len(a))
    verts = verts[np.lexsort((o[by_arrival][head], own(verts)))]

    matched = np.zeros(n, bool)
    m1 = []
    it = 0
    while (~matched[a] & ~matched[b]).any():
        it += 1
        if it > MAX_PHASE1_ITERS:
            cluster.drop("P")
            raise RunFailed("phase-1 proposal rounds did not converge")
        coin = cluster.rng("p1-coin", it)
        free = verts[~matched[verts]]
        proposer = np.zeros(n, bool)
        proposer[free] = [coin.random() < 0.5 for _ in range(len(free))]

        # round A: proposers pick a random believed-free neighbor, one of
        # the c free acceptors they see, in ascending order
        ok = proposer[a] & ~proposer[b] & ~matched[b]
        c = np.bincount(a[ok], minlength=n)
        vs = free[c[free] > 0]
        picks = [cluster.rng("p1-pick", it, v).randrange(k)
                 for v, k in zip(vs.tolist(), c[vs].tolist())]
        ahead = np.cumsum(ok) - ok  # the free acceptor arcs before each arc
        us = b[np.flatnonzero(ok)[ahead[start[vs]] + np.array(picks, np.int64)]]
        cluster.round(_sends(own(vs), own(vs), own(us), np.stack([vs, us], 1)))

        # round B: free acceptors take their smallest proposer and notify
        o = np.lexsort((vs, us))
        first = np.diff(us[o], prepend=-1) != 0
        acc, pro = us[o][first], vs[o][first]
        matched[acc] = matched[pro] = True
        cluster.round(_sends(np.arange(len(acc)), own(acc), own(pro),
                             np.stack([acc, pro], 1)))

        # round C: owners of newly matched vertices tell their neighbors'
        # owners, keeping the believed-free views current; a vertex's
        # neighbours go in the iteration order of a set built in arrival
        # order (set() of a list adds its items in order, as .add does)
        lo, hi = np.minimum(acc, pro), np.maximum(acc, pro)
        ws = np.stack([lo, hi], 1).ravel()
        nbrs = [list(set(arrival[x:y]))
                for x, y in zip(start[ws].tolist(), stop[ws].tolist())]
        size = list(map(len, nbrs))
        told = np.repeat(ws, size)
        dst = own(np.fromiter(chain.from_iterable(nbrs), np.int64, len(told)))
        cluster.round(_sends(np.repeat(np.arange(len(ws)), size), own(told), dst,
                             told[:, None]))
        m1.extend(zip(lo.tolist(), hi.tolist()))

    cluster.drop("P")
    # ship M1 to the large machine
    shard = sorted(m1)
    e = np.array(shard, np.int64).reshape(-1, 2)
    cluster.round(_sends(np.arange(len(e)), own(e[:, 0]), np.full(len(e), LARGE), e))
    state.m1 = shard
    return shard


def _ranked_records(cluster, tag):
    """Attach a fresh uniform rank in {1..n^5} to every stored edge."""
    n5 = cluster.config.n ** 5

    def ranked(i, es):
        rngm = cluster.rng("ranks", tag, i)
        return [(e[0], e[1], rngm.randint(1, n5)) for e in es]

    cluster.local(ranked, "E", "R")


def phase2_high_degree(cluster: Cluster, state: MatchingState):
    """Rank-sampled greedy over V_high on the large machine.

    For each high vertex the large machine collects its lowest-ranked
    incident edges (2d*ceil(log2 n) of them, or all), then matches the
    high vertices in ascending id to their first free collected neighbor.
    """
    n = cluster.config.n
    budget = 2 * state.d * max(1, math.ceil(math.log2(n)))
    matched = state.matched_vertices()

    for attempt in range(2):
        _ranked_records(cluster, attempt)
        arranged = primitives.arrange_nodes(cluster, "R", key=(0, 2))
        k_of = {
            v: min(budget, state.deg.get(v, 0))
            for v in sorted(state.v_high)
        }
        collected = primitives.query_k_lightest(cluster, arranged, k_of)
        cluster.drop("D", "R")
        # a high-high edge can be collected by both endpoints; only two
        # different edges with one rank are a collision
        ranked = {(_pair(r[0], r[1]), r[2])
                  for recs in collected.values() for r in recs}
        if len(ranked) == len({rank for _, rank in ranked}):
            break
        if attempt == 1:
            raise RunFailed("edge ranks collided twice")
    m2 = []
    for v in sorted(state.v_high):
        if v in matched:
            continue
        for _, u, _rank in sorted(collected.get(v, []), key=lambda r: r[2]):
            if u not in matched:
                m2.append(_pair(v, u))
                matched.add(v)
                matched.add(u)
                break
    state.m2 = m2

    _keep_free_free(cluster, "E", matched)
    return m2


def _keep_free_free(cluster, key, matched):
    """Deliver matched statuses by both edge endpoints; each machine drops
    the edges whose endpoint it learned is matched, so the records left
    under key are exactly the free-free edges."""
    status = {v: (1 if v in matched else 0) for v in range(cluster.config.n)}
    for side in (0, 1):
        primitives.deliver_by_endpoint(
            cluster, key, status, side,
            apply=lambda es, got, side=side: [e for e in es if not got[e[side]]],
        )


def _greedy(edges):
    """Greedy matching over the edges in ascending (min, max) order."""
    matched, out = set(), []
    for e in sorted(_pair(e[0], e[1]) for e in edges):
        u, v = e
        if u not in matched and v not in matched:
            out.append(e)
            matched.add(u)
            matched.add(v)
    return out


def phase3_residual(cluster: Cluster, state: MatchingState):
    """Count the free-free residual edges left on the machines; if at most
    2n they ship to the large machine for a final greedy pass, else this
    attempt fails."""
    residual, state.residual_count = primitives.gather_if_fits(
        cluster, "E", 2 * cluster.config.n
    )
    if residual is None:
        return None  # this attempt fails
    state.m3 = _greedy(residual)
    return state.m3


def maximal_matching(cluster: Cluster, graph, placement="seeded"):
    """Maximal matching of the stored graph; returns (edges, report).

    One full retry on a Phase-3 overflow, then RunFailed.  The retry
    draws from fresh substreams; the caller's config seed is restored.
    """
    seed = cluster.config.seed
    try:
        for attempt in range(2):
            distribute_edges(
                cluster,
                [(e[0], e[1]) for e in graph.edges],
                placement=placement,
            )
            if graph.m == 0:
                return [], {"d": 1, "v_high": 0, "phase_sizes": [0, 0, 0],
                            "residual": 0, "phase1_rounds": 0,
                            "post_phase1_rounds": 0, "size": 0, "retried": 0}
            state = degree_split(cluster, graph)
            pre = cluster.rounds_used
            phase1_low_degree(cluster, state)
            phase1_rounds = cluster.rounds_used - pre
            phase2_high_degree(cluster, state)
            m3 = phase3_residual(cluster, state)
            if m3 is None:
                if attempt == 1:
                    raise RunFailed("residual exceeded 2n twice")
                cluster.config.seed += 1 << 32  # fresh substreams for the retry
                continue
            M = sorted(state.m1 + state.m2 + state.m3)
            report = {
                "d": state.d,
                "v_high": len(state.v_high),
                "phase_sizes": [len(state.m1), len(state.m2), len(state.m3)],
                "residual": state.residual_count,
                "phase1_rounds": phase1_rounds,
                "post_phase1_rounds": cluster.rounds_used - pre - phase1_rounds,
                "size": len(M),
                "retried": attempt,
            }
            return M, report
        raise RunFailed("unreachable")
    finally:
        cluster.config.seed = seed


# ---------------------------------------------------------------------------
# superlinear-memory recursion


STOP_C = 4


def matching_superlinear(cluster: Cluster, graph, placement="seeded",
                         stop_c=STOP_C):
    """Maximal matching via the edge-sampling recursion: sample at rate
    n^-f, match the sample recursively, then greedily extend over the
    edges left free-free.  Requires a superlinear large machine."""
    f = cluster.config.f_exp
    if f is None or f <= 0:
        raise ConfigError("matching_superlinear needs a positive memory "
                          "exponent f")
    n = cluster.config.n
    cap = stop_c * math.floor(n ** (1.0 + float(f)))
    p = n ** (-float(f))
    max_depth = math.ceil(1 / float(f)) + 1

    for attempt in range(2):
        distribute_edges(
            cluster,
            [(e[0], e[1]) for e in graph.edges],
            placement=placement,
        )
        try:
            M, depth = _super_rec(cluster, "E", 1, cap, p, attempt)
        except _Overflow:
            if attempt == 1:
                raise RunFailed("free-free edge count overflowed twice")
            continue
        report = {
            "depth": depth,
            "max_depth": max_depth,
            "cap": cap,
            "p": p,
            "size": len(M),
            "retried": attempt,
        }
        return sorted(M), report
    raise RunFailed("unreachable")


class _Overflow(Exception):
    pass


def _super_rec(cluster, key, depth, cap, p, attempt):
    total = primitives.count_records(cluster, key)
    if total <= cap:
        shipped = primitives.gather_to_large(cluster, key)
        return _greedy(shipped), depth

    # sample each stored edge into the next level
    def sample(i, es):
        rngm = cluster.rng("super-sample", attempt, depth, i)
        return [e for e in es if rngm.random() < p]

    cluster.local(sample, key, key + "s")
    try:  # an overflow below leaves no sample behind
        M, sub_depth = _super_rec(cluster, key + "s", depth + 1, cap, p, attempt)
    finally:
        cluster.drop(key + "s")

    # matched statuses out, free-free edges back, then extend greedily
    _keep_free_free(cluster, key, {v for e in M for v in e})
    if primitives.count_records(cluster, key) > cap:
        raise _Overflow
    return M + _greedy(primitives.gather_to_large(cluster, key)), sub_depth
