"""The three machine-tree walks that the index-keyed walks of
`primitives.tree_broadcast`, `disseminate` and `aggregate` replaced, kept verbatim as the reference the shared
walk is compared with: `tree_broadcast` with its own level loop and
`_children`, `disseminate` with `(level, idx)`-keyed ranges and payloads,
and `aggregate` with a `(level, idx)`-keyed node dict and `parent_rep`."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from hetmpc.primitives import _pad, branching, global_tree_depth
from hetmpc.simcore import LARGE, Cluster

from meter_reference import reference_round  # beside this file


def broadcast_rounds(gamma):
    return global_tree_depth(gamma) + 1


def aggregate_rounds(gamma):
    return global_tree_depth(gamma) + 1


def disseminate_rounds(gamma):
    return global_tree_depth(gamma) + 1


@dataclass
class AggregationTree:
    """b-ary tree over a contiguous machine range; node = first machine of
    its range, so a chain of nodes shares one physical machine and the
    in-chain hops are free."""

    lo: int
    hi: int
    b: int
    levels: list = field(default_factory=list)  # levels[r] = [(lo, hi), ...]

    @classmethod
    def build(cls, lo, hi, b):
        nodes = [(i, i) for i in range(lo, hi + 1)]
        levels = [nodes]
        while len(nodes) > 1:
            nodes = [
                (nodes[j][0], nodes[min(j + b, len(nodes)) - 1][1])
                for j in range(0, len(nodes), b)
            ]
            levels.append(nodes)
        return cls(lo, hi, b, levels)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def root(self) -> int:
        return self.levels[-1][0][0]

    def parent_rep(self, level, idx):
        return self.levels[level + 1][idx // self.b][0]


# ---------------------------------------------------------------------------
# broadcast


def tree_broadcast(cluster: Cluster, value):
    """Large machine sends `value` to every small machine down the global
    tree; returns nothing (value is known host-side, traffic is metered)."""
    start = cluster.rounds_used
    K = len(cluster.small_ids)
    tree = AggregationTree.build(1, K, branching(cluster))
    reference_round(cluster, [(LARGE, tree.root, value)])
    for level in range(tree.depth, 0, -1):
        sends = []
        for idx, (lo, hi) in enumerate(tree.levels[level]):
            rep = lo
            for clo, chi in _children(tree, level, idx):
                if clo != rep:  # first child shares the machine: free
                    sends.append((rep, clo, value))
        reference_round(cluster, sends)
    _pad(cluster, start, broadcast_rounds(cluster.config.gamma))


def _children(tree, level, idx):
    b = tree.b
    return tree.levels[level - 1][idx * b:(idx + 1) * b]



def aggregate(cluster: Cluster, state_key, leaf_fn, reduce_fn):
    """Tree-aggregate f over per-part multisets stored on small machines.

    Requires parts to be contiguous in the machine order (run het_sort
    first if they are not).  Each small machine holding records turns
    them into its leaf values with one call leaf_fn(records) ->
    {part: value} (`per_record` builds one from per-record functions).
    reduce_fn takes a list of values/partials and must satisfy
    f({f(X1),...,f(Xk)}) = f(X1 u ... u Xk).  Returns {part: value}
    computed at the large machine.
    """
    start = cluster.rounds_used
    K = len(cluster.small_ids)
    tree = AggregationTree.build(1, K, branching(cluster))
    results = {}

    # node payloads: {node: (partials dict, min_part, max_part)}
    data = {}
    for i, mid in enumerate(cluster.small_ids, start=1):
        items = cluster.machines[mid].state.get(state_key)
        reduced = leaf_fn(items) if items else {}
        if reduced:
            parts = sorted(reduced)
            data[(0, i - 1)] = (reduced, parts[0], parts[-1])

    for level in range(tree.depth + 1):
        sends = []
        nxt = {}
        for idx in range(len(tree.levels[level])):
            node = data.get((level, idx))
            if node is None:
                continue
            reduced, pmin, pmax = node
            rep = tree.levels[level][idx][0]
            interior = {p: v for p, v in reduced.items() if pmin < p < pmax}
            boundary = {p: v for p, v in reduced.items() if p == pmin or p == pmax}
            if interior:
                sends.append((rep, LARGE, interior))
            if level == tree.depth:
                if boundary:
                    sends.append((rep, LARGE, boundary))
            else:
                pidx = idx // tree.b
                prep = tree.parent_rep(level, idx)
                slot = nxt.setdefault(pidx, {})
                for p, v in boundary.items():
                    slot.setdefault(p, []).append(v)
                if prep != rep and boundary:
                    sends.append((rep, prep, boundary))
        inbox = reference_round(cluster, sends)
        for _, payload in inbox.get(LARGE, []):
            for p, v in payload.items():
                results.setdefault(p, []).append(v)
        if level < tree.depth:
            for pidx, slot in nxt.items():
                merged = {p: reduce_fn(vs) if len(vs) > 1 else vs[0]
                          for p, vs in slot.items()}
                parts = sorted(merged)
                data[(level + 1, pidx)] = (merged, parts[0], parts[-1])

    out = {p: reduce_fn(vs) if len(vs) > 1 else vs[0] for p, vs in results.items()}
    _pad(cluster, start, aggregate_rounds(cluster.config.gamma))
    return out



def disseminate(cluster: Cluster, values: dict, machine_ranges: dict):
    """Deliver values[i] to every small machine whose stored items include
    part i.  machine_ranges maps machine index -> (min part, max part), as
    known after arranging or sorting the parts.  Requires parts contiguous
    in machine order.  Returns {machine index: {part: value}}.
    """
    start = cluster.rounds_used
    gamma = cluster.config.gamma
    K = len(cluster.small_ids)
    tree = AggregationTree.build(1, K, branching(cluster))

    parts_sorted = sorted(values)
    node_range = {}
    for idx, (lo, hi) in enumerate(tree.levels[0]):
        node_range[(0, idx)] = machine_ranges.get(lo)
    for level in range(1, tree.depth + 1):
        for idx in range(len(tree.levels[level])):
            rs = [
                node_range.get((level - 1, c))
                for c in range(idx * tree.b,
                               min((idx + 1) * tree.b, len(tree.levels[level - 1])))
            ]
            rs = [r for r in rs if r is not None]
            node_range[(level, idx)] = (
                (min(r[0] for r in rs), max(r[1] for r in rs)) if rs else None
            )

    def overlap(rng):
        if rng is None:
            return {}
        lo = bisect_left(parts_sorted, rng[0])
        hi = bisect_right(parts_sorted, rng[1])
        return {p: values[p] for p in parts_sorted[lo:hi]}

    # down-phase: large -> root -> ... -> leaves, filtered per subtree
    top = node_range[(tree.depth, 0)]
    payloads = {(tree.depth, 0): overlap(top)}
    reference_round(
        cluster,
        [(LARGE, tree.root, payloads[(tree.depth, 0)])]
        if payloads[(tree.depth, 0)]
        else []
    )
    for level in range(tree.depth, 0, -1):
        sends = []
        nxt = {}
        for idx in range(len(tree.levels[level])):
            have = payloads.get((level, idx))
            if not have:
                continue
            rep = tree.levels[level][idx][0]
            for c in range(idx * tree.b,
                           min((idx + 1) * tree.b, len(tree.levels[level - 1]))):
                crng = node_range[(level - 1, c)]
                if crng is None:
                    continue
                sub = {p: v for p, v in have.items() if crng[0] <= p <= crng[1]}
                if not sub:
                    continue
                nxt[(level - 1, c)] = sub
                crep = tree.levels[level - 1][c][0]
                if crep != rep:
                    sends.append((rep, crep, sub))
        reference_round(cluster, sends)
        payloads = nxt

    delivered = {}
    for idx in range(len(tree.levels[0])):
        got = payloads.get((0, idx))
        if got:
            i = tree.levels[0][idx][0]
            delivered[i] = got
    _pad(cluster, start, disseminate_rounds(gamma))
    return delivered

