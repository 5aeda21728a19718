"""Minimum spanning forest on the simulated cluster.

Pipeline: doubly-exponential Boruvka contraction (step i merges along each
supervertex's 2^(2^i) lightest edges), then amplified random sampling:
sample a subgraph, build its MSF, label it for heaviest-path queries,
filter the remaining edges down to the light ones, and finish the MSF on
the large machine.  A superlinear-memory variant raises the per-step
select counts and drops the sampling probability accordingly.

Each small machine stores edge records (u, v, w, ou, ov): current
supervertex endpoints, weight, and the original edge this record
represents, stored with ou < ov.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

import numpy as np

from . import primitives
from .labels import DIFFERENT_COMPONENTS, flow_label_decode, flow_label_marker
from .simcore import CapacityError, Cluster, RunFailed, distribute_edges


# Unique total order on edge records via the attached original edge:
# (w, ou, ov), with ou < ov as init_state stores it.
wkey = itemgetter(2, 3, 4)


@dataclass
class ContractionState:
    vertices: set
    c: dict  # original vertex -> current supervertex
    forest: list = field(default_factory=list)  # chosen original (u, v, w)

    @property
    def n_super(self):
        return len(self.vertices)


def init_state(cluster: Cluster, graph, placement="seeded") -> ContractionState:
    records = [(u, v, w, min(u, v), max(u, v)) for u, v, w in graph.edges]
    distribute_edges(cluster, records, placement=placement)
    return ContractionState(set(range(graph.n)), {v: v for v in range(graph.n)})


def _safe_merge(collected, deg_out, vertices):
    """Merge supervertices along collected edges, Boruvka-style.

    Sub-iterations: every component repeatedly merges along its minimum
    outgoing collected edge, but a component freezes once some member has
    all its collected edges internal while more of its edges exist
    elsewhere (its true minimum outgoing edge may be uncollected).  Every
    used edge is then the true minimum over its cut, hence an MSF edge.
    Returns (used records, vertex -> new representative map).
    """
    dsu = primitives.DSU(vertices)
    per_vertex = {v: sorted(es, key=wkey) for v, es in collected.items()}
    ptr = {v: 0 for v in per_vertex}
    used = []
    while True:
        comps = {}
        for v in vertices:
            comps.setdefault(dsu.find(v), []).append(v)
        merges = []
        for root, members in comps.items():
            cand, frozen = None, False
            for u in members:
                es = per_vertex.get(u, [])
                i = ptr.get(u, 0)
                while i < len(es) and dsu.find(es[i][1]) == root:
                    i += 1
                ptr[u] = i
                if i == len(es):
                    if deg_out.get(u, 0) > len(es):
                        frozen = True
                        break
                    continue
                e = es[i]
                if cand is None or wkey(e) < wkey(cand):
                    cand = e
            if not frozen and cand is not None:
                merges.append(cand)
        progressed = False
        for e in sorted(merges, key=wkey):
            if dsu.union(e[0], e[1]):
                used.append(e)
                progressed = True
        if not progressed:
            break
    cmap = {v: dsu.find(v) for v in vertices}
    return used, cmap


def _renamed(side):
    """`apply` of the rename by endpoint `side`: the columns of the
    records with that endpoint replaced by the value delivered for it."""
    def apply(es, got):
        if not es:
            return es
        cols = es.columns().copy()
        ends = cols[:, side].tolist()
        cols[:, side] = np.fromiter(map(got.__getitem__, ends), np.int64, len(ends))
        return cols
    return apply


def _drop_self_loops(cut, cols):
    """A `Cluster.segmented` step: the records whose endpoints differ."""
    keep = cols[:, 0] != cols[:, 1]
    return np.cumsum(keep)[cut - 1], cols[keep]


def _pair_key(cols):
    """Column key of the parallel-edge sort: the endpoint pair in (smaller,
    larger) order, then the weight key (w, ou, ov)."""
    u, v = cols[:, 0], cols[:, 1]
    return np.column_stack((np.minimum(u, v), np.maximum(u, v), cols[:, 2:5]))


def _last_pairs(cut, cols):
    """A `Cluster.segmented` step: each machine's last endpoint pair."""
    u, v = cols[cut - 1, 0], cols[cut - 1, 1]
    return list(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))


def _first_per_pair(prevs):
    """The `Cluster.segmented` step that keeps the first record of each
    endpoint pair in each machine's sorted records, but not a first one
    whose pair is its predecessor's last (received in `prevs`, one pair or
    None a busy machine, in machine order, which the groups take in
    turn), so a pair split across machines survives only on the first."""
    pending = list(prevs)

    def step(cut, cols):
        lo, hi = np.minimum(cols[:, 0], cols[:, 1]), np.maximum(cols[:, 0], cols[:, 1])
        first = np.empty(len(cols), bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        start = cut - np.diff(cut, prepend=0)
        first[start] = [pair != prev for pair, prev in zip(
            zip(lo[start].tolist(), hi[start].tolist()), pending)]
        del pending[:len(cut)]
        return np.cumsum(first)[cut - 1], cols[first]
    return step


def boruvka_step(cluster: Cluster, state: ContractionState, s: int) -> ContractionState:
    """One contraction step: collect min(s, deg) lightest outgoing edges
    per supervertex at the large machine, merge safely, rename, and
    dedupe parallel edges keeping the lightest."""
    # by source, then by wkey
    arranged = primitives.arrange_nodes(cluster, "E", key=(0, 2, 3, 4))
    k_of = {v: min(s, d) for v, d in arranged.deg_out.items() if d > 0}
    need = sum(k_of.values()) * 5
    if need > cluster.config.large_budget:
        raise CapacityError(
            f"collection of {need} words exceeds the large budget "
            f"{cluster.config.large_budget}; select count {s} too large"
        )
    collected = primitives.query_k_lightest(cluster, arranged, k_of)
    cluster.drop("D")

    used, cmap = _safe_merge(collected, arranged.deg_out, state.vertices)
    forest = state.forest + [(r[3], r[4], r[2]) for r in used]
    new_vertices = set(cmap.values())

    # deliver the contraction map by each endpoint and rewrite that
    # endpoint from the delivered map
    for side in (0, 1):
        primitives.deliver_by_endpoint(cluster, "E", cmap, side, apply=_renamed(side))
    cluster.segmented(_drop_self_loops, "E", "E")

    # drop parallel edges: sort by (pair, weight key); each machine keeps
    # its first record per pair, and drops its leading pair if the
    # predecessor's trailing pair matches
    primitives.het_sort(cluster, "E", key=_pair_key)
    last_pair = cluster.segmented(_last_pairs, "E")
    pred = primitives.neighbor_shift(cluster, last_pair.get)
    cluster.segmented(_first_per_pair([pred.get(i) for i in last_pair]), "E", "E")

    new_c = {v: cmap[sv] for v, sv in state.c.items()}
    return ContractionState(new_vertices, new_c, forest)


def near_linear_steps(n, m) -> int:
    return math.ceil(math.log2(max(1, math.log2(max(m, 1) / n)))) if m > n else 0


def doubly_exp_boruvka(cluster, state, t, select_counts=None) -> ContractionState:
    for i in range(1, t + 1):
        s = select_counts[i - 1] if select_counts else 2 ** (2 ** i)
        state = boruvka_step(cluster, state, s)
    return state


def kkt_sample(cluster: Cluster, p, tag) -> list | None:
    """Each machine ships each held edge independently with probability p;
    returns the sample at the large machine, or None if the realized
    sample would not fit (repetition aborted).  2 rounds."""
    def draw(i, es):
        rng = cluster.rng("kkt", tag, i)
        return [r for r in es if rng.random() < p]

    cluster.local(draw, "E", "_kkt")
    # a record is 5 words
    sample, _ = primitives.gather_if_fits(
        cluster, "_kkt", cluster.config.large_budget // 5)
    cluster.drop("_kkt")
    return sample


def _kruskal_records(vertices, records):
    dsu = primitives.DSU(vertices)
    chosen = []
    for r in sorted(records, key=wkey):
        if dsu.union(r[0], r[1]):
            chosen.append(r)
    return chosen


def _keep_light(es, got):
    """Local light-edge test on records carrying their side-0 label: keep
    a record iff its endpoints lie in different trees or its weight is at
    most the decoded path maximum."""
    kept = []
    for r in es:
        dec = flow_label_decode(r[5], got[r[1]])
        if dec is DIFFERENT_COMPONENTS or r[2] <= dec:
            kept.append(r[:5])
    return kept


def f_light_filter(cluster: Cluster, labels, threshold):
    """Filter to light edges, count them, and ship them to the large
    machine unless the count exceeds the abort threshold; returns (light
    records or None, count).  Each machine copies its edges "E" to "F",
    which the filter consumes and drops, so "E" is left as it was.  The
    labels are delivered by each endpoint: the first pass appends the
    side-0 label to each record, the second keeps the light records."""
    cluster.segmented(lambda cut, cols: (cut, cols), "E", "F")
    primitives.deliver_by_endpoint(
        cluster, "F", labels, 0,
        apply=lambda es, got: [r + (got[r[0]],) for r in es],
    )
    primitives.deliver_by_endpoint(cluster, "F", labels, 1, apply=_keep_light)
    out = primitives.gather_if_fits(cluster, "F", threshold)
    cluster.drop("F")
    return out


ALPHA = 4


def _finish_by_sampling(cluster, state, p):
    """Amplified sampling stage; returns (chosen records, report).

    Repetitions run one after another until the first success, and each
    is charged its own rounds."""
    n = cluster.config.n
    R = math.ceil(2 * math.log2(n))
    threshold = ALPHA * math.ceil(state.n_super / p) if p < 1 else float("inf")
    light_counts = []
    winner = None
    for rep in range(1, R + 1):
        sample = kkt_sample(cluster, p, rep)
        if sample is None:
            light_counts.append(None)
            continue
        forest = _kruskal_records(state.vertices, sample)
        labels = flow_label_marker(n, [(r[0], r[1], r[2]) for r in forest])
        labels = {v: labels[v] for v in state.vertices}
        light, total = f_light_filter(cluster, labels, threshold)
        light_counts.append(total)
        if light is not None:
            winner = (rep, light, sample)
            break
    if winner is None:
        raise RunFailed(f"all {R} sampling repetitions aborted")
    rep, light, sample = winner
    chosen = _kruskal_records(state.vertices, light + sample)
    report = {
        "repetitions_run": len(light_counts),
        "successful_repetition": rep,
        "f_light_counts": light_counts,
        "abort_threshold": threshold if threshold != float("inf") else None,
    }
    return chosen, report


def _msf(cluster: Cluster, graph, placement, t, select_counts, p):
    """The pipeline both variants share: t contraction steps with the given
    select counts, then amplified sampling at probability p."""
    state = init_state(cluster, graph, placement)
    state = doubly_exp_boruvka(cluster, state, t, select_counts)
    chosen, rep_report = _finish_by_sampling(cluster, state, p)
    forest = state.forest + [(r[3], r[4], r[2]) for r in chosen]
    out = sorted(set(forest), key=lambda e: (e[2], e[0], e[1]))
    n_components = graph.n - len(out)
    report = {
        "t": t,
        "supervertices_after_contraction": state.n_super,
        "components": n_components,
        "connected": n_components == 1,
        "total_weight": sum(w for _, _, w in out),
        **rep_report,
    }
    return out, report


def mst(cluster: Cluster, graph, placement="seeded"):
    """Minimum spanning forest of a weighted graph; returns (edges, report)
    with edges as (u, v, w) sorted by (w, u, v)."""
    n, m = graph.n, graph.m
    return _msf(cluster, graph, placement, near_linear_steps(n, m), None,
                min(1.0, n / max(m, 1)))


def superlinear_params(n, m, f: Fraction):
    f = Fraction(f)
    lognm = Fraction(0)
    if m > n:
        # log_n(m/n) as an exact fraction is irrational in general; the
        # step count only needs the ceiling of a log2, so floats suffice
        lognm = math.log(m / n, n)
    t = max(0, math.ceil(math.log2(max(1e-12, lognm / float(f))))) if lognm > 0 else 0
    counts = []
    for i in range(1, t + 1):
        exp = Fraction(2 ** i) * f
        counts.append(_int_pow_floor(n, exp))
    exp_p = Fraction(2 ** t) * f + f
    p = 1.0 / _int_pow_floor(n, exp_p)
    return t, counts, p


def _int_pow_floor(n, exp: Fraction):
    """floor(n**exp) computed exactly for rational exp."""
    a, b = exp.numerator, exp.denominator
    x = n ** a
    lo, hi = 1, 1 << ((x.bit_length() + b - 1) // b + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** b <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def mst_superlinear(cluster: Cluster, graph, placement="seeded"):
    """MSF with a superlinear large machine: fewer, bigger contraction
    steps (select count n^(2^i f)) and a sparser sample."""
    f = cluster.config.f_exp
    if f is None:
        raise ValueError("cluster config has no superlinear exponent f_exp")
    t, counts, p = superlinear_params(graph.n, graph.m, f)
    out, report = _msf(cluster, graph, placement, t, counts, min(1.0, p))
    return out, {"select_counts": counts, "sample_p": p, **report}
