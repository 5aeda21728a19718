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

from . import primitives
from .primitives import _pair
from .simcore import (
    LARGE,
    Cluster,
    ConfigError,
    Records,
    RunFailed,
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


def _owner(cluster, v):
    return 1 + v % len(cluster.small_ids)


MAX_PHASE1_ITERS = 200


def phase1_low_degree(cluster: Cluster, state: MatchingState):
    """Maximal matching of the low-degree induced subgraph, found by the
    small machines alone (default plug-in: round-synchronous randomized
    proposals; each free vertex flips proposer/acceptor, proposers pick a
    random free neighbor, acceptors take the smallest proposal).  Every
    round's messages are int records of one or two fields."""
    v_low = state.v_low
    # route every low-low edge to both endpoint owners
    sends = []
    for mid in cluster.small_ids:
        buckets = {}
        for e in cluster.machines[mid].state.get("E") or []:
            u, v = e[0], e[1]
            if u in v_low and v in v_low:
                for w in (u, v):
                    buckets.setdefault(_owner(cluster, w), []).append((u, v))
        for dst, recs in buckets.items():
            sends.append((mid, dst, recs))
    primitives.send_rows(cluster, sends)
    # each owner reads the records it got in sender order: the sends
    # ascend by sender
    adj_of = {mid: {} for mid in cluster.small_ids}
    for _, mid, recs in sends:
        adj = adj_of[mid]
        for u, v in recs:
            for a, b in ((u, v), (v, u)):
                if _owner(cluster, a) == mid:
                    adj.setdefault(a, set()).add(b)
    pairs, cut = [], [0]
    for adj in adj_of.values():
        pairs += sorted((a, b) for a, nbrs in adj.items() for b in nbrs)
        cut.append(len(pairs))
    # each owner stores its sorted adjacency pairs
    cluster.store("P", Records(pairs), cut)

    matched = set()
    m1 = []
    it = 0
    while True:
        live = any(
            u not in matched and v not in matched
            for adj in adj_of.values()
            for u, nbrs in adj.items()
            for v in nbrs
        )
        if not live:
            break
        it += 1
        if it > MAX_PHASE1_ITERS:
            raise RunFailed("phase-1 proposal rounds did not converge")
        coin = cluster.rng("p1-coin", it)
        role = {}
        for adj in adj_of.values():
            for v in adj:
                if v not in matched and v not in role:
                    role[v] = coin.random() < 0.5  # True = proposer

        # round A: proposers pick a random believed-free neighbor
        sends = []
        proposals = {}
        for mid in cluster.small_ids:
            buckets = {}
            for v, nbrs in adj_of[mid].items():
                if v in matched or not role.get(v, False):
                    continue
                free = sorted(
                    u for u in nbrs if u not in matched and not role.get(u, False)
                )
                if not free:
                    continue
                u = free[cluster.rng("p1-pick", it, v).randrange(len(free))]
                buckets.setdefault(_owner(cluster, u), []).append((v, u))
            for dst, recs in buckets.items():
                sends.append((mid, dst, recs))
        primitives.send_rows(cluster, sends)
        for _, _, recs in sends:
            for v, u in recs:
                proposals.setdefault(u, []).append(v)

        # round B: free acceptors take their smallest proposer and notify
        sends = []
        new_pairs = []
        for u, props in sorted(proposals.items()):
            if u in matched:
                continue
            v = min(p for p in props if p not in matched) if any(
                p not in matched for p in props
            ) else None
            if v is None:
                continue
            matched.add(u)
            matched.add(v)
            new_pairs.append(_pair(u, v))
            sends.append((_owner(cluster, u), _owner(cluster, v), [(u, v)]))
        primitives.send_rows(cluster, sends)

        # round C: owners of newly matched vertices tell their neighbors'
        # owners, keeping the believed-free views current
        sends = []
        for u, v in new_pairs:
            for w in (u, v):
                own = _owner(cluster, w)
                buckets = {}
                for nb in adj_of[own].get(w, ()):
                    buckets.setdefault(_owner(cluster, nb), []).append((w,))
                for dst, recs in buckets.items():
                    sends.append((own, dst, recs))
        primitives.send_rows(cluster, sends)
        m1.extend(new_pairs)

    cluster.drop("P")
    # ship M1 to the large machine
    shard = sorted(m1)
    primitives.send_rows(cluster, [(_owner(cluster, e[0]), LARGE, [e]) for e in shard])
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
