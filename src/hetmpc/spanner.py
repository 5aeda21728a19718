"""Sparse spanners on the simulated cluster.

The graph is decomposed into per-level clustering graphs over star
centers (edges bucketed by the smaller endpoint degree), a (2k-1)-spanner
is built for every level -- whole levels ship to the large machine, dense
levels run a sub-sampled clustering construction -- and the per-level
spanners plus the star edges combine into a (6k-1)-spanner.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import reduce
from operator import itemgetter, or_

from . import primitives
from .primitives import _pair
from .simcore import (LARGE, Cluster, ConfigError, Packed, Records,
                      distribute_edges, seed_hash)


def _neighbor_or(cluster, masks, bits):
    """Broadcast every vertex's `bits`-wide mask, then OR the masks of each
    vertex's neighbors over the directed edges under "D" (sorted by
    source); returns {vertex: OR of its neighbors' masks}."""
    wb = cluster.config.word_bits
    primitives.tree_broadcast(cluster, [(Packed(masks, cluster.config.n * bits, wb),)])

    def or_all(ps):
        return Packed(reduce(or_, (p.value for p in ps)), bits, wb)

    # each leaf ORs the plain masks of a part and packs the result once
    leaves = cluster.local(primitives.per_record(
        itemgetter(0), lambda r: masks.get(r[1], 0),
        lambda vs: Packed(reduce(or_, vs), bits, wb)), "D")
    got = primitives.aggregate(cluster, leaves, or_all)
    return {v: p.value for v, p in got.items()}


# ---------------------------------------------------------------------------
# clustering decomposition


@dataclass
class ClusteringDecomposition:
    n: int
    delta: int
    levels: int  # L; level indices 0..L-1
    deg: dict
    hitting: list  # D_i per level (level 0 = all vertices)
    b_sets: list  # B_i = union of D_j for j >= i
    sigma: dict  # vertex -> star center
    star_edges: list  # (u, sigma_u) original edges
    bucket_sizes: dict = field(default_factory=dict)  # level -> deduped |E_i|

    def vertices_at(self, i):
        """V_i: the level-i clustering-graph vertex set."""
        return self.b_sets[i]


def bucket_level(min_deg, levels):
    """Level of an edge whose smaller endpoint degree is min_deg: the i
    with min_deg in [2^i, 2^(i+1)), clamped into the level range."""
    return min(int(math.log2(max(1, min_deg))), levels - 1)


def clustering_graphs(cluster: Cluster, graph) -> ClusteringDecomposition:
    """Build the star decomposition and per-level clustering graphs.

    Consumes the edges under state key "E" and leaves per-machine level
    records (level, c, c', wu, wv) under state key "A" -- (c, c') is the
    pair of star centers, (wu, wv) the locally smallest witness edge --
    and returns the host-side decomposition.
    """
    n = cluster.config.n
    seed = cluster.config.seed

    arranged = primitives.arrange_nodes(cluster, "E")
    deg = dict(arranged.deg_out)
    delta = max(deg.values(), default=1)
    L = max(1, math.ceil(math.log2(delta))) if delta >= 2 else 1
    J = max(1, math.ceil(math.log2(n)))

    # hitting-set trials: level i in 1..L-1, trial j in 1..J, each vertex
    # sampled with probability min(1, i/2^i); level 0 is all of V
    rng = cluster.rng("hitting")
    nbits = (L - 1) * J
    sampled = {}
    for v in range(n):
        bits = 0
        for i in range(1, L):
            p = min(1.0, i / 2 ** i)
            for j in range(J):
                if rng.random() < p:
                    bits |= 1 << ((i - 1) * J + j)
        sampled[v] = bits
    # per-vertex OR of the sampled-trial membership over its neighbors
    nbr = _neighbor_or(cluster, sampled, max(1, nbits))

    # patch each trial into a hitting set: add any vertex of degree >= 2^i
    # with no sampled neighbor in the trial; keep the smallest trial
    hitting = [set(range(n))]
    for i in range(1, L):
        best = None
        for j in range(J):
            bit = 1 << ((i - 1) * J + j)
            d = {v for v in range(n) if sampled[v] & bit}
            d |= {
                v for v, dv in deg.items()
                if dv >= 2 ** i and not (nbr.get(v, 0) & bit)
            }
            if best is None or len(d) < len(best):
                best = d
        hitting.append(best if best is not None else set())

    b_sets = [set() for _ in range(L)]
    acc = set()
    for i in range(L - 1, -1, -1):
        acc |= hitting[i]
        b_sets[i] = set(acc)

    # second pass with the patched sets: which D-levels each neighborhood
    # intersects (bit i-1 of the mask = some neighbor lies in D_i)
    patched_mask = {v: 0 for v in range(n)}
    for i in range(1, L):
        for v in hitting[i]:
            patched_mask[v] |= 1 << (i - 1)
    nbr_b = _neighbor_or(cluster, patched_mask, max(1, L - 1))

    def in_b(v, i):
        # v in B_i, read from the broadcast patched masks
        return i == 0 or patched_mask[v] >> (i - 1)

    # i_v: deepest level whose B-set contains v or one of its neighbors
    # (B_0 = V, so the maximum always exists)
    i_of = {
        v: next((i for i in range(L - 1, 0, -1)
                 if in_b(v, i) or nbr_b.get(v, 0) >> (i - 1)), 0)
        for v in range(n)
    }

    # sigma: own id for members of B_{i_v}; otherwise a seeded-random
    # neighbor inside B_{i_v}, chosen by a distributed argmin on a hash.
    # "D" is still sorted by source, so i_u is disseminated over that
    # layout, and each machine keeps the copies (u, v) with u outside and
    # v inside B_{i_u}
    got = primitives.disseminate(
        cluster, {v: i_of[v] for v in deg},
        machine_ranges=arranged.layout.ranges(0),
    )
    def outward(i, copies):
        i_u = got.get(i, {})
        return [(u, v) for u, v in copies
                if not in_b(u, i_u[u]) and in_b(v, i_u[u])]

    cluster.local(outward, "D", "_sigma")
    leaves = cluster.local(primitives.per_record(
        itemgetter(0), lambda r: (seed_hash(seed, "sigma", r[0], r[1]), r[1]),
        min), "_sigma")
    cand = primitives.aggregate(cluster, leaves, min)
    sigma, star_edges = {}, []
    for v in range(n):
        if in_b(v, i_of[v]):
            sigma[v] = v
            continue
        choice = cand.get(v)
        if choice is None:
            # every vertex of degree >= 2^i has a B_i neighbor once the
            # trials are patched into hitting sets
            raise RuntimeError(f"no star center found for vertex {v}")
        sigma[v] = choice[1]
        star_edges.append(_pair(v, sigma[v]))

    # level records from delivered values: (deg, sigma) disseminated over
    # the same layout turns each copy (u, v) with u < v into
    # (v, u, deg_u, sigma_u), and delivering (deg, sigma) by v gives each
    # machine both endpoints' values
    per_vertex = {v: (deg[v], sigma[v]) for v in deg}
    got = primitives.disseminate(
        cluster, per_vertex, machine_ranges=arranged.layout.ranges(0)
    )
    def halves(i, copies):
        mine = got.get(i, {})
        return [(v, u) + mine[u] for u, v in copies if u < v]

    cluster.local(halves, "D", "A")
    cluster.drop("_sigma", "E", "D")

    def level_records(recs, got):
        # (level, c, c', wu, wv) with this machine's lightest witness
        best = {}
        for v, u, deg_u, sigma_u in recs:
            deg_v, sigma_v = got[v]
            if sigma_u == sigma_v:
                continue  # the edge lies inside a star
            key = (bucket_level(min(deg_u, deg_v), L),) + _pair(sigma_u, sigma_v)
            if key not in best or (u, v) < best[key]:
                best[key] = (u, v)
        return [key + w for key, w in best.items()]

    primitives.deliver_by_endpoint(cluster, "A", per_vertex, 0, apply=level_records)
    # the report's (level, c, c') keys, read by a local step that stores
    # nothing
    held = cluster.local(lambda _, recs: [r[:3] for r in recs], "A")
    keys = {k for ks in held.values() for k in ks}
    bucket_sizes = dict(Counter(lvl for lvl, _, _ in keys))

    return ClusteringDecomposition(
        n=n, delta=delta, levels=L, deg=deg, hitting=hitting, b_sets=b_sets,
        sigma=sigma, star_edges=sorted(set(star_edges)),
        bucket_sizes=bucket_sizes,
    )


# ---------------------------------------------------------------------------
# levelled center clustering (the (2k-1)-spanner core)


def _bs_centers_and_histories(rng, vertices, samples, k):
    """Levelled center sampling and re-clustering through the sampled
    subgraphs only; returns (histories, re-cluster edges).

    histories[v] = (c_0(v), ..., c_{t-1}(v)) where t is the step at which
    v became unclustered for good; c_0(v) = v.
    """
    q = max(1, len(vertices)) ** (-1.0 / k)
    adj = []
    for sub in samples:
        a = {}
        for u, v in sub:
            a.setdefault(u, set()).add(v)
            a.setdefault(v, set()).add(u)
        adj.append(a)
    centers = set(vertices)
    c_prev = {v: v for v in vertices}
    hist = {v: [v] for v in vertices}
    recluster = set()
    for i in range(1, k + 1):
        centers = set() if i == k else {c for c in centers if rng.random() < q}
        c_cur = {}
        for v in sorted(c_prev):
            cp = c_prev[v]
            if cp in centers:
                c_cur[v] = cp
                continue
            # re-cluster through a sampled neighbor whose center survived
            best = None
            if i <= len(adj):
                for u in adj[i - 1].get(v, ()):
                    cu = c_prev.get(u)
                    if cu is not None and cu in centers:
                        if best is None or u < best:
                            best = u
            if best is not None:
                c_cur[v] = c_prev[best]
                recluster.add(_pair(v, best))
        for v in c_cur:
            hist[v].append(c_cur[v])
        c_prev = c_cur
    return {v: tuple(h) for v, h in hist.items()}, recluster


def _history(v, tail):
    """(c_0(v), ..., c_{t-1}(v)) from v's history tail padded with -1."""
    return (v,) + tuple(c for c in tail if c >= 0)


def _candidates_for_edge(u, v, lu, lv):
    """Candidate records (removed vertex, prior-level cluster of the other
    endpoint, other endpoint) for an edge whose endpoints have histories
    lu and lv.  Both directions apply when the endpoints were unclustered
    at the same step."""
    out = []
    if len(lv) >= len(lu):
        out.append((u, lv[len(lu) - 1], v))
    if len(lu) >= len(lv):
        out.append((v, lu[len(lv) - 1], u))
    return out


def _baswana_sen(cluster, state_key, a, k, groups):
    """(2k-1)-spanners of the records under state_key, one per group r[:a]:
    a level when a=1, the one empty group of plain edges when a=0.  A
    record's endpoints are r[a] < r[a+1], and its tail r[a+2:] is a witness
    carried along (empty for plain edges).  groups maps each sub-sampled
    group to (p, vertices); the records of other groups ship whole in the
    sample round.  Consumes the records.

    Per group, k-1 sampled subgraphs ship to the large machine, which runs
    the center levels on them alone; the removal edges come from each small
    machine, one aggregated edge per (group, removed vertex, adjacent
    prior-level cluster).  The groups share every round.  Returns
    ({group: {pair: lightest witness}}, records shipped whole), held at
    the large machine.
    """
    def tag(g):
        # a level's RNG tag is the level; plain edges use their state key
        return g[0] if g else state_key

    def sample(i, recs):
        # (the records shipped whole, the samples (group, j, r[a:]))
        drawn = []
        for g, (p, _) in groups.items():
            rngm = cluster.rng("bs-sample", tag(g), i)
            mine = [r for r in recs if r[:a] == g]
            for j in range(1, k):
                drawn.extend(g + (j,) + r[a:] for r in mine if rngm.random() < p)
        return Records(r for r in recs if r[:a] not in groups), drawn

    # one send a machine that ships anything: the samples are its slice,
    # and the records shipped whole, one field fewer, are in its header
    sends = [(i, w, d) for i, (w, d) in cluster.local(sample, state_key).items()
             if w or d]
    primitives.send_rows(cluster, [(i, LARGE, d) for i, _, d in sends],
                         [w.words() for _, w, _ in sends])
    samples = {g: [set() for _ in range(max(0, k - 1))] for g in groups}
    witness = {g: {} for g in groups}
    whole = []
    for _, w, drawn in sends:  # in sender order
        whole.extend(w)
        for r in drawn:
            g = r[:a]
            pr = _pair(r[a + 1], r[a + 2])
            samples[g][r[a] - 1].add(pr)
            if pr not in witness[g] or r[a + 3:] < witness[g][pr]:
                witness[g][pr] = r[a + 3:]
    cluster.local(lambda _, recs: [r for r in recs if r[:a] in groups] or None,
                  state_key, state_key)
    if not groups:
        return {}, whole

    # deliver each history's tail c_1..c_{k-1}, padded with -1 to k-1
    # words (c_0(v) = v costs no word), keyed by (group, v) and by both
    # endpoints: the first delivery appends r[a]'s tail to each record,
    # the second turns each record into its candidates (group, removed
    # vertex, cluster, other endpoint, witness) from the carried and the
    # delivered tail
    chosen, tails = {}, {}
    for g, (_, vertices) in groups.items():
        hist, recluster = _bs_centers_and_histories(
            cluster.rng("bs-centers", tag(g)), vertices, samples[g], k
        )
        chosen[g] = {pr: witness[g][pr] for pr in recluster}
        for v, h in hist.items():
            tails[g + (v,)] = h[1:] + (-1,) * (k - len(h))

    def candidates(recs, got):
        out = []
        for r in recs:
            tail_v = got.get(r[:a] + (r[a + 1],))
            if tail_v is None:
                continue
            cut = len(r) - (k - 1)
            u, v = r[a], r[a + 1]
            out.extend(
                r[:a] + c + r[a + 2:cut] for c in _candidates_for_edge(
                    u, v, _history(u, r[cut:]), _history(v, tail_v))
            )
        return out

    group = tuple(range(a))  # the fields of r[:a]
    primitives.deliver_by_endpoint(
        cluster, state_key, tails, group + (a,),
        apply=lambda recs, got: [r + got[r[:a + 1]] for r in recs
                                 if r[:a + 1] in got],
    )
    primitives.deliver_by_endpoint(
        cluster, state_key, tails, group + (a + 1,), apply=candidates)

    primitives.het_sort(cluster, state_key)  # the part r[:a+2] is a prefix
    leaves = cluster.local(primitives.per_record(
        itemgetter(*range(a + 2)), lambda r: r[a + 2:], min), state_key)
    removal = primitives.aggregate(cluster, leaves, min)
    cluster.drop(state_key)

    for part, r in removal.items():
        chosen[part[:a]][_pair(part[a], r[0])] = r[1:]
    return chosen, whole


def modified_baswana_sen(cluster: Cluster, k, p):
    """(2k-1)-spanner of the unweighted graph stored under "E" as (u, v)
    records with u < v, which it consumes; centers are sampled from all
    of V = {0..n-1}.  Returns the spanner edge list (held at the large
    machine)."""
    _require_k(k)
    vertices = set(range(cluster.config.n))
    chosen, _ = _baswana_sen(cluster, "E", 0, k, {(): (p, vertices)})
    return sorted(chosen[()])


# ---------------------------------------------------------------------------
# per-level spanners and their combination


def greedy_spanner(edges, bound):
    """Add an edge iff the current spanner distance between its endpoints
    exceeds `bound` (classic size bound O(n^(1+1/k)) for bound 2k-1)."""
    adj = {}
    out = []
    for u, v in sorted(edges):
        if u == v:
            continue
        if _bounded_dist(adj, u, v, bound) > bound:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
            out.append((u, v))
    return out


def _bounded_dist(adj, s, t, bound):
    if s == t:
        return 0
    dist = {s: 0}
    q = deque([s])
    while q:
        u = q.popleft()
        du = dist[u]
        if du >= bound:
            continue
        for v in adj.get(u, ()):
            if v not in dist:
                if v == t:
                    return du + 1
                dist[v] = du + 1
                q.append(v)
    return bound + 1


def _require_k(k):
    if k < 1:
        raise ConfigError(f"the stretch parameter k must be at least 1, got {k}")


def level_probability(i, k):
    """Sampling probability for the level-i clustering graph."""
    if i == 0:
        return 1.0
    return min(1.0, k * k * i ** (1.0 + 1.0 / k) / 2 ** i)


def combine_spanners(decomposition, per_level_witnessed):
    """Union of the witness edges of every per-level spanner plus the
    star edges.  per_level_witnessed: level -> {pair: witness edge}."""
    H = set(decomposition.star_edges)
    for lvl, chosen in per_level_witnessed.items():
        for pr, witness in chosen.items():
            if witness is None:
                raise RuntimeError(f"missing witness for level {lvl} edge {pr}")
            H.add(_pair(*witness))
    return sorted(H)


def _level_rounds(gamma):
    """Fixed round charge of the level stage: the sub-sampled case (sample
    ship, two history deliveries, candidate sort, aggregate) bounds the
    whole-level ship."""
    return (
        1
        + 2 * (primitives.sort_rounds(gamma) + primitives.tree_rounds(gamma))
        + primitives.sort_rounds(gamma)
        + primitives.tree_rounds(gamma)
    )


def spanner(cluster: Cluster, graph, k, placement="seeded"):
    """Spanner with stretch at most 6k-1; returns (edges, report).

    All levels run as one stage: one round ships the whole levels and the
    samples of the sub-sampled ones, and the sub-sampled levels then share
    every delivery, sort and aggregation.  The stage is padded to the
    fixed charge `_level_rounds`."""
    _require_k(k)
    distribute_edges(cluster, [(e[0], e[1]) for e in graph.edges],
                     placement=placement)
    deco = clustering_graphs(cluster, graph)
    p_of = {lvl: level_probability(lvl, k) for lvl in range(deco.levels)}

    start = cluster.rounds_used
    sub, whole = _baswana_sen(
        cluster, "A", 1, k,
        {(lvl,): (p, deco.vertices_at(lvl)) for lvl, p in p_of.items() if p < 1.0},
    )
    primitives._pad(cluster, start, _level_rounds(cluster.config.gamma))

    # a whole level keeps the lightest witness per center pair, and the
    # large machine runs a greedy (2k-1)-spanner on it
    per_level = {lvl: {} for lvl, p in p_of.items() if p >= 1.0}
    for lvl, c, cp, wu, wv in whole:
        best, key, w = per_level[lvl], _pair(c, cp), _pair(wu, wv)
        if key not in best or w < best[key]:
            best[key] = w
    for lvl, best in per_level.items():
        per_level[lvl] = {pr: best[pr] for pr in greedy_spanner(best, 2 * k - 1)}
    per_level.update((g[0], chosen) for g, chosen in sub.items())
    report_levels = {
        lvl: {
            "p": p,
            "case": "shipped-whole" if p >= 1.0 else "sub-sampled",
            "clustering_edges": deco.bucket_sizes.get(lvl, 0),
            "spanner_edges": len(per_level[lvl]),
        }
        for lvl, p in p_of.items()
    }

    H = combine_spanners(deco, per_level)
    report = {
        "k": k,
        "stretch_bound": 6 * k - 1,
        "delta": deco.delta,
        "levels": deco.levels,
        "star_edges": len(deco.star_edges),
        "size": len(H),
        "per_level": report_levels,
    }
    return H, report
