"""The host-dict matching phase 1 that `matching.phase1_low_degree` replaced
with array steps, kept verbatim as the reference the array version is
compared with (see test_matching.py): per-owner dicts of neighbour sets,
host `role` and `matched` dicts, and one list-built send per bucket
through `primitives.send_rows`.  Its iteration cap is the module's
`MAX_PHASE1_ITERS`, read at call time."""

from __future__ import annotations

from hetmpc import matching, primitives
from hetmpc.matching import MatchingState
from hetmpc.primitives import _pair
from hetmpc.simcore import LARGE, Cluster, Records, RunFailed


def _owner(cluster, v):
    return 1 + v % len(cluster.small_ids)


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
        if it > matching.MAX_PHASE1_ITERS:
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
