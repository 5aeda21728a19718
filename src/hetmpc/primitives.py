"""Constant-round communication primitives.

Distributed sample-sort, tree aggregation, dissemination, broadcast, and
arranging each vertex's outgoing edges on consecutive machines.  Every
primitive executes real message rounds on the cluster and then pads with
empty rounds up to a fixed per-primitive constant (a function of gamma
only), so algorithm round counts are structurally constant.  The tree
walks find each node's machine and children by index arithmetic on
(K, b) (see `_widths`); no tree is built or kept.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .simcore import (LARGE, Cluster, Records, Slices, _stable_order, as_records,
                      global_tree_depth)


def _pair(a, b):
    """An undirected edge's endpoints in canonical (smaller, larger) order."""
    return (a, b) if a < b else (b, a)


# ---------------------------------------------------------------------------
# round-charge constants (functions of gamma only)


def tree_rounds(gamma):
    """Fixed charge of one walk of the global machine tree (broadcast,
    dissemination, aggregation): the hop between the large machine and the
    root, and one round a level."""
    return global_tree_depth(gamma) + 1


def sort_rounds(gamma):
    # sample + splitter broadcast + group route + group sample +
    # group splitters + final route + summary
    return tree_rounds(gamma) + 6


QUERY_ROUNDS = 2


def _pad(cluster: Cluster, start: int, target: int):
    used = cluster.rounds_used - start
    if used > target:
        raise AssertionError(
            f"primitive used {used} rounds, exceeding its fixed charge {target}"
        )
    for _ in range(target - used):
        cluster.empty_round()


def branching(cluster: Cluster) -> int:
    return cluster.config.branching


def send_rows(cluster: Cluster, sends, header=0):
    """One round of the (src, dst, rows) triples `sends`, in send order,
    each `rows` a list of records (one arity over all the sends): one
    `Slices` batch, a send a slice after its `header` words (see
    `Slices`)."""
    src, dst, rows = zip(*sends) if sends else ((), (), ())
    cluster.round(Slices(Records(chain.from_iterable(rows)), np.array(src, np.int64),
                         np.array(dst, np.int64), np.array(list(map(len, rows)), np.int64),
                         np.array(header, np.int64)))


# ---------------------------------------------------------------------------
# machine trees


def _widths(K, b):
    """Node counts of the levels of the b-ary tree over the K small
    machines, from the leaves up to the root.  Node idx on level l is
    machine idx * b^l + 1 (the root is machine 1) and covers the machines
    up to (idx + 1) * b^l; its children are nodes idx * b up to
    min(idx * b + b, widths[l - 1]) - 1 of level l - 1, and the first of
    them sits on its machine."""
    widths = [K]
    while widths[-1] > 1:
        widths.append(-(-widths[-1] // b))
    return widths


def tree_broadcast(cluster: Cluster, value):
    """Large machine sends the record batch `value` (see `as_records`) to
    every small machine down the global tree (value is known host-side,
    traffic is metered).  A level's sends, one a tree edge (see
    `_widths`), are one `Slices` batch, each send all of `value`."""
    start = cluster.rounds_used
    b = branching(cluster)
    widths = _widths(len(cluster.small_ids), b)
    value = as_records(value)
    n = len(value)

    def sends(src, dst):
        return Slices(value.take(np.tile(np.arange(n), len(src))), src, dst,
                      np.full(len(src), n))

    cluster.round(sends(np.array([LARGE]), np.array([1])))
    for level in range(len(widths) - 1, 0, -1):
        step = b ** (level - 1)  # machines under a node of level - 1
        child = np.arange(widths[level - 1])
        child = child[child % b > 0]  # a first child is on its parent's machine
        cluster.round(sends((child - child % b) * step + 1, child * step + 1))
    _pad(cluster, start, tree_rounds(cluster.config.gamma))


# ---------------------------------------------------------------------------
# sorting


@dataclass
class SortedLayout:
    counts: list  # per small machine (index 0 = machine 1)
    boundaries: list  # per machine: (first record, last record) or None
    extras: list  # per machine summarize() Records (or None)

    def ranges(self, side) -> dict:
        """{machine index: (first r[side], last r[side])} over the machines
        that hold records, with r[side] read as in `_fields`; the
        machine_ranges that disseminate takes."""
        get = _fields(side)
        return {i: (get(b[0]), get(b[1]))
                for i, b in enumerate(self.boundaries, start=1) if b is not None}


def _fields(side):
    """Reader of r[side]: one field for an int side, the tuple of the named
    fields for a tuple side."""
    if type(side) is tuple:
        return lambda r: tuple(map(r.__getitem__, side))
    return itemgetter(side)


def _rank(recs, key):
    """Dense rank of each of the Records `recs` in the order (key, r):
    records that compare equal share a rank, and a smaller rank is a
    smaller record.  `key` is None (the records' own order), a tuple F of
    field positions (the order (r[F], r)) or a column key (see
    `het_sort`).

    One sort over packed words when the columns are int64; Python's
    sort of the column rows otherwise (fields that are not ints, ints
    beyond int64).  For a tuple key the columns are the key's fields and
    then the others in record order: (r[F], r) and (r[F], r[the other
    fields]) order alike."""
    if not len(recs):
        return np.zeros(0, np.int64)
    cols = recs.columns()
    if type(key) is tuple:
        rest = [j for j in range(cols.shape[1]) if j not in key]
        cols = cols[:, list(key) + rest]
    elif key is not None:
        cols = np.column_stack((key(cols), cols))
    if cols.dtype == np.int64:
        words = _packed(cols)
        if not words:  # every column constant: all records compare equal
            return np.zeros(len(recs), np.int64)
        order = np.lexsort(words[::-1]) if len(words) > 1 else words[0].argsort()
        step = np.zeros(len(recs) - 1, bool)
        for w in words:
            w = w[order]
            step |= w[1:] != w[:-1]
        rank = np.empty(len(recs), np.int64)
        rank[order] = np.concatenate(([0], np.cumsum(step)))
        return rank
    items = cols.tolist()
    rank, r, prev = [0] * len(items), 0, None
    for j in sorted(range(len(items)), key=items.__getitem__):
        if prev is not None and items[prev] < items[j]:
            r += 1
        rank[j], prev = r, j
    return np.array(rank, np.int64)


def _packed(cols):
    """uint64 words whose lexicographic order is the row order of the
    int64 columns `cols`: each column is offset by its minimum, and
    consecutive columns are concatenated bitwise while they fit in 64 bits
    (a constant column takes no bits, a 64-bit span a word of its own)."""
    words, used = [], 64
    for c in cols.T:
        u = c.view(np.uint64)
        u = u - u[c.argmin()]  # c - min(c), exact modulo 2^64
        bits = int(u.max()).bit_length()
        if not bits:
            continue
        if used + bits <= 64:
            words[-1] = (words[-1] << np.uint64(bits)) | u
            used += bits
        else:
            words.append(u)
            used = bits
    return words


def _sample_positions(counts, k):
    """The even-position samples of shards of `counts` records, k[i] of
    shard i: (shard of each sample, its position in the shard), in shard
    order.  A shard of at most k records is sampled whole, else position
    min(n-1, int(j * (n / k))) for j < k."""
    take = np.minimum(counts, k)
    shard = np.repeat(np.arange(len(counts)), take)
    j = np.arange(len(shard)) - np.repeat(np.cumsum(take) - take, take)
    n, kk = counts[shard], k[shard]
    spread = np.minimum(n - 1, (j * (n / kk)).astype(np.int64))
    return shard, np.where(n <= kk, j, spread)


def _splitters(rank, weight, group, parts):
    """Indices into `rank` of the parts[g]-1 weighted quantile samples of
    each group g of samples (`group` of each), group by group, and each
    group's number of them.  A group's pool is its samples stably sorted
    by rank; its splitter i is the first sample whose running weight
    reaches i * total / parts[g] (else the last).  The running weights are
    one row-wise cumsum of the pools zero-padded into a (groups, largest
    pool) matrix, and the total is Python's sum over the pool: sequential
    float sums, as when the samples are walked one by one."""
    pool = _stable_order(group * (int(rank.max(initial=0)) + 1) + rank)
    g, w = group[pool], weight[pool]
    size = np.bincount(group, minlength=len(parts))
    start = np.cumsum(size) - size
    pad = np.zeros((len(parts), int(size.max(initial=0))))
    pad[g, np.arange(len(pool)) - start[g]] = w
    run = np.cumsum(pad, axis=1)
    w = w.tolist()
    total = np.array([sum(w[a:a + k]) for a, k in zip(start.tolist(), size.tolist())])
    nsplit = np.where(size > 0, parts - 1, 0)
    tg = np.repeat(np.arange(len(parts)), nsplit)
    ends = np.cumsum(nsplit)
    t = (np.arange(1, len(tg) + 1) - (ends - nsplit)[tg]) * total[tg] / parts[tg]
    j = np.concatenate([np.zeros(0, np.int64)] + [
        np.searchsorted(run[gi, :size[gi]], t[e - n:e])
        for gi, (n, e) in enumerate(zip(nsplit.tolist(), ends.tolist())) if n])
    return pool[start[tg] + np.minimum(j, size[tg] - 1)], nsplit


def _cut(split, rank, at):
    """Cut each machine's sorted shard at the sorted splitters `split`:
    the bucket of each position (the number of splitters at or below its
    rank, as bisect_right counts them, so a record equal to a splitter
    goes right) and the first position of each nonempty (machine, bucket)
    slice.  Positions are in (machine `at`, rank) order."""
    bucket = np.searchsorted(split, rank, side="right")
    new = np.ones(len(rank), bool)
    new[1:] = (at[1:] != at[:-1]) | (bucket[1:] != bucket[:-1])
    return bucket, np.flatnonzero(new)


class _Layout(NamedTuple):
    """Records in sorted-shard order: position p holds record rec[p] on
    machine at[p], machine i holds positions bounds[i-1]:bounds[i], and
    ordered[p] is the record (ordered is Records)."""

    rec: np.ndarray
    at: np.ndarray
    bounds: np.ndarray
    ordered: object


def het_sort(cluster: Cluster, state_key="E", key=None, summarize=None) -> SortedLayout:
    """Globally sort the records stored under state_key on the small
    machines (two-phase sample sort; fixed round charge).

    Total order is (key, record); with key=None it is the records' own
    order.  `key` is a tuple of field positions F, for the order (r[F],
    r), or a column key: a function that maps the (len, arity) columns of
    Records to the columns of their keys (one key row per record), for
    the order (key row, r).  Samples, splitters and summary boundaries
    travel as bare records.  `summarize(cut, columns)` may attach
    Records to each machine's summary message to the large machine: it
    gets the columns of every sorted shard joined, machine j holding
    `columns[cut[j-1]:cut[j]]` (from 0 for j = 0), and returns one
    Records per machine, an idle one's included.

    The host ranks every record once in that order (`_rank`), and each
    comparison a machine makes between records it holds or received is a
    comparison of their ranks: the local sorts, the even-position samples,
    the weighted splitter choice at the large machine and at the group
    leaders, and the cuts of each sorted shard at the splitters (a record
    equal to a splitter goes right).  The two sample rounds, the group
    splitters, the two routing rounds and the summary each send one
    `Slices` batch; a sample send carries one header word, the count of
    its sender's records, and a summary send that word and the words of
    its summarize Records.  What is sent is a selection of the key's one
    batch (gathered only when read); a route, which moves every record,
    drops the key before its round and stores the re-cut batch after it.
    """
    start = cluster.rounds_used
    K = len(cluster.small_ids)
    recs, cut = cluster.batch(state_key)
    rank = _rank(recs, key)
    span = len(recs) + 1  # ranks are below it
    ids = np.arange(1, K + 1)

    def local_sort(rec, at):
        # each machine sorts what it holds; ties keep their arrival order
        order = _stable_order(at * span + rank[rec])
        rec, at = rec[order], at[order]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(at, minlength=K + 1)[1:])))
        return _Layout(rec, at, bounds, recs.take(rec))

    def samples(layout, k, dst):
        # each machine sends its count and even-position samples to dst;
        # returns the ranks, weights, record indices and senders (machine
        # index - 1) of every sample
        counts = np.diff(layout.bounds)
        sent = np.minimum(counts, k)
        shard, pos = _sample_positions(counts, k)
        srec = layout.rec[pos + layout.bounds[shard]]
        cluster.round(Slices(recs.take(srec), ids, dst, sent, header=1))
        return rank[srec], counts[shard] / sent[shard], srec, shard

    def route(layout, first, dst):
        # send each (machine, bucket) slice that starts at a first
        # position to the dst of its records, which store it sorted
        rec, at, _, ordered = layout
        cluster.drop(state_key)
        count = np.diff(np.append(first, len(rec)))
        cluster.round(Slices(ordered, at[first], dst[first], count))
        layout = local_sort(rec, dst)
        cluster.store(state_key, layout.ordered, layout.bounds)
        return layout

    # the local sort permutes each machine's records, which meters the
    # same words, so the batch stays as stored until the first route
    layout = local_sort(np.arange(len(recs)), np.repeat(ids, np.diff(cut)))
    srank, weight, srec, _ = samples(layout, np.full(K, branching(cluster)),
                                     np.full(K, LARGE))

    g = max(1, math.ceil(math.sqrt(K)))
    size = math.ceil(K / g)
    lo = np.arange(1, K + 1, size)
    gsize = np.minimum(lo + size, K + 1) - lo
    gsplit, _ = _splitters(srank, weight, np.zeros(len(srank), np.int64),
                           np.array([len(lo)]))
    tree_broadcast(cluster, recs.take(srec[gsplit]))

    # route each record to a machine of its target group (balanced by
    # sender index)
    at = layout.at
    bucket, first = _cut(srank[gsplit], rank[layout.rec], at)
    layout = route(layout, first, lo[bucket] + at % gsize[bucket])

    # phase 2: per-group splitters chosen by the group leader, which sends
    # them to each other member of its group
    group = (ids - 1) // size
    leader = lo[group]
    srank, weight, srec, shard = samples(layout, 2 * gsize[group], leader)
    picked, nsplit = _splitters(srank, weight, group[shard], gsize)
    offset = np.cumsum(nsplit) - nsplit  # where each group's splitters start
    member = ids[ids != leader]
    count = nsplit[group[member - 1]]
    fan = np.repeat(offset[group[member - 1]] - (np.cumsum(count) - count), count)
    fan = recs.take(srec[picked[fan + np.arange(len(fan))]])
    cluster.round(Slices(fan, leader[member - 1], member, count))

    # one cut for all groups: group gi's splitters and records are offset
    # by gi * span
    at = layout.at
    grp = group[at - 1]
    split = np.repeat(np.arange(len(lo)), nsplit) * span + srank[picked]
    bucket, first = _cut(split, grp * span + rank[layout.rec], at)
    layout = route(layout, first, lo[grp] + bucket - offset[grp])

    # the summary: each machine sends the large machine its count (a
    # header word), its first and last records if it holds any, and its
    # summarize Records
    counts = np.diff(layout.bounds)
    full = np.flatnonzero(counts)
    ends = recs.take(layout.rec[np.column_stack((layout.bounds[full],
                                                 layout.bounds[full + 1] - 1)).ravel()])
    header = np.ones(K, np.int64)
    extras = [None] * K
    if summarize is not None:
        extras = summarize(layout.bounds[1:], layout.ordered.columns())
        header += [x.words() for x in extras]
    cluster.round(Slices(ends, ids, np.full(K, LARGE), 2 * (counts > 0), header))
    boundaries = [None] * K
    pairs = iter(ends)
    for i in full.tolist():
        boundaries[i] = (next(pairs), next(pairs))
    counts = counts.tolist()
    _pad(cluster, start, sort_rounds(cluster.config.gamma))
    return SortedLayout(counts, boundaries, extras)


# ---------------------------------------------------------------------------
# aggregation


def _row(part, value):
    """A {part: value} item as one record: the part's fields, then the
    value's (a tuple is its fields, any other value one field)."""
    return ((part if type(part) is tuple else (part,))
            + (value if type(value) is tuple else (value,)))


def aggregate(cluster: Cluster, leaves, reduce_fn):
    """Tree-aggregate f over per-part multisets stored on small machines.

    `leaves` is {i: {part: value}}, small machine i's leaf values, which
    the caller computes in one local step (`Cluster.local`, with
    `per_record` say, or `Cluster.segmented`).  Parts must be contiguous
    in the machine order (run het_sort first if they are not).  reduce_fn
    takes a list of values/partials and must satisfy f({f(X1),...,f(Xk)})
    = f(X1 u ... u Xk).  Returns {part: value} computed at the large
    machine.
    """
    start = cluster.rounds_used
    b = branching(cluster)
    widths = _widths(len(cluster.small_ids), b)
    results = {}

    def up(sends, rep, reduced):
        # the interior parts go straight to the large machine; returns the
        # two boundary parts, which the next node up may share
        parts = sorted(reduced)
        lo, hi = parts[0], parts[-1]
        interior = {p: v for p, v in reduced.items() if lo < p < hi}
        if interior:
            sends.append((rep, LARGE, interior))
        return {p: v for p, v in reduced.items() if p == lo or p == hi}

    def collect(sends):
        # a level's dicts travel as rows (see `_row`); the large machine
        # reads the dicts it got in sender order
        send_rows(cluster, [(src, dst, [_row(p, v) for p, v in payload.items()])
                            for src, dst, payload in sends])
        for _, dst, payload in sorted(sends, key=itemgetter(0)):
            if dst == LARGE:
                for p, v in payload.items():
                    results.setdefault(p, []).append(v)

    # each node's partials on the current level, by index (see `_widths`)
    row = [leaves.get(i, {}) for i in cluster.small_ids]
    for level in range(1, len(widths)):
        step = b ** (level - 1)  # machines under a node of level - 1
        sends, nxt = [], []
        for first in range(0, widths[level - 1], b):
            slot = {}
            for c in range(first, min(first + b, widths[level - 1])):
                if not row[c]:
                    continue
                crep = c * step + 1
                boundary = up(sends, crep, row[c])
                for p, v in boundary.items():
                    slot.setdefault(p, []).append(v)
                if c != first:
                    sends.append((crep, first * step + 1, boundary))
            nxt.append({p: reduce_fn(vs) if len(vs) > 1 else vs[0]
                        for p, vs in slot.items()})
        collect(sends)
        row = nxt
    sends = []
    if row[0]:
        boundary = up(sends, 1, row[0])
        sends.append((1, LARGE, boundary))
    collect(sends)

    out = {p: reduce_fn(vs) if len(vs) > 1 else vs[0] for p, vs in results.items()}
    _pad(cluster, start, tree_rounds(cluster.config.gamma))
    return out


def per_record(part_fn, map_fn, reduce_fn):
    """A `Cluster.local` step computing `aggregate`'s leaves: each record
    r adds map_fn(r) to part part_fn(r), and a part's values are combined
    with reduce_fn."""
    def leaf_fn(_, records):
        vals = {}
        for r in records:
            vals.setdefault(part_fn(r), []).append(map_fn(r))
        return {p: reduce_fn(vs) for p, vs in vals.items()}
    return leaf_fn


# ---------------------------------------------------------------------------
# dissemination


def disseminate(cluster: Cluster, values: dict, machine_ranges: dict):
    """Deliver values[i] to every small machine whose stored items include
    part i.  machine_ranges maps machine index -> (min part, max part), as
    known after arranging or sorting the parts.  Requires parts contiguous
    in machine order.  Returns {machine index: {part: value}}.

    The values walk down the global tree (charge tree_rounds; nodes as in
    `_widths`).  A node keeps the parts from the first of the first busy
    machine under it to the last of the last (the ranges nest); one with
    none ends the walk below it.  The parts' rows (see `_row`) are sorted
    once, and each send is a selection of its node's run of them.
    """
    start = cluster.rounds_used
    busy = sorted(machine_ranges)
    parts = sorted(values)
    vals = [values[p] for p in parts]
    rows = Records(map(_row, parts, vals))
    b = branching(cluster)
    widths = _widths(len(cluster.small_ids), b)

    def narrow(level, idx):
        # the run parts[a:z] that a node keeps, as (a, z), or None
        span = b ** level  # machines idx * span + 1 ... (idx + 1) * span
        i, j = bisect_right(busy, idx * span), bisect_right(busy, (idx + 1) * span)
        if i == j:
            return None
        lo, hi = machine_ranges[busy[i]][0], machine_ranges[busy[j - 1]][1]
        a, z = bisect_left(parts, lo), bisect_right(parts, hi)
        return (a, z) if a < z else None

    def send(sends):
        # one round of (src, dst, run) sends
        src, dst, runs = zip(*sends) if sends else ((), (), ())
        a, z = np.array(runs, np.int64).reshape(-1, 2).T
        count = z - a
        at = np.repeat(a - (np.cumsum(count) - count), count) + np.arange(int(count.sum()))
        cluster.round(Slices(rows.take(at), np.array(src, np.int64),
                             np.array(dst, np.int64), count))

    top = narrow(len(widths) - 1, 0)
    held = {} if top is None else {0: top}  # node index -> its run
    send([(LARGE, 1, top)] if held else [])
    for level in range(len(widths) - 1, 0, -1):
        step = b ** (level - 1)  # machines under a node of level - 1
        sends, nxt = [], {}
        for first in (idx * b for idx in held):
            for c in range(first, min(first + b, widths[level - 1])):
                run = narrow(level - 1, c)
                if run is None:
                    continue
                nxt[c] = run
                if c != first:
                    sends.append((first * step + 1, c * step + 1, run))
        send(sends)
        held = nxt
    _pad(cluster, start, tree_rounds(cluster.config.gamma))
    return {idx + 1: dict(zip(parts[a:z], vals[a:z])) for idx, (a, z) in held.items()}


def deliver_by_endpoint(cluster: Cluster, state_key, values: dict, side, apply):
    """Sort the records under state_key by r[side], deliver values[v] to
    every small machine holding a record whose endpoint r[side] is v, and
    replace the records of each machine that holds some with
    apply(records, got) (see `Cluster.local`).  A tuple side
    names several fields, and values is keyed by their tuples: (0, 2)
    sorts by (r[0], r[2]) and delivers values[(r[0], r[2])].

    got is the dict that machine received and nothing else, so a rewrite
    can only use delivered values; the output (a list, Records, or an
    int64 array of their columns) is stored through `as_records`.  Costs
    sort_rounds + tree_rounds.
    """
    fields = side if type(side) is tuple else (side,)
    layout = het_sort(cluster, state_key, key=fields)
    delivered = disseminate(cluster, values, machine_ranges=layout.ranges(side))
    cluster.local(lambda i, recs: apply(recs, delivered.get(i, {})),
                  state_key, state_key)


# ---------------------------------------------------------------------------
# arranging nodes


@dataclass
class Arranged:
    layout: SortedLayout
    deg_out: dict  # vertex -> out-degree over directed copies
    slices: dict  # vertex -> [(machine index, count here), ...]


def _directed_copies(cut, cols):
    """A `Cluster.segmented` step: each machine's edge records, then each
    with its endpoints swapped, as (cut, columns) of the group."""
    size = np.diff(cut, prepend=0)
    at = np.arange(len(cols)) + np.repeat(cut - size, size)  # row p's place
    out = np.empty((2 * len(cols), cols.shape[1]), cols.dtype)
    out[at] = cols
    out[at + np.repeat(size, size)] = cols[:, [1, 0] + list(range(2, cols.shape[1]))]
    return 2 * cut, out


def _runs(src, cut):
    """The first position of each run of one value in `src` that breaks at
    value changes and at the ends `cut` of its segments."""
    new = np.ones(len(src), bool)
    new[1:] = src[1:] != src[:-1]
    new[cut[cut < len(src)]] = True
    return np.flatnonzero(new)


def _counts_by_vertex(cut, cols):
    """`het_sort`'s summarize of sorted shards: for each machine, Records
    of the (source, count) of each run of one source in its segment of
    `cols`, in one run-length pass over the source column."""
    if not len(cols):
        return [Records()] * len(cut)
    src = cols[:, 0]
    first = _runs(src, cut)
    runs = Records(zip(src[first].tolist(), np.diff(first, append=len(src)).tolist()))
    ends = np.searchsorted(first, cut).tolist()  # runs before each segment end
    return [runs[a:b] for a, b in zip([0] + ends, ends)]


def arrange_nodes(cluster: Cluster, state_key="E", key=None) -> Arranged:
    """Make directed copies of every edge stored under state_key, store
    them under "D" and sort them so each vertex's outgoing edges sit on
    consecutive machines; the large machine learns deg_out(v) and the
    per-machine slice counts, the first of which is on M_first(v).

    `key`, a tuple of field positions or a column key as in `het_sort`,
    must order primarily by source vertex (default None: the record
    itself, i.e. by (source, target, ...)).
    """
    cluster.segmented(_directed_copies, state_key, "D")
    layout = het_sort(cluster, state_key="D", key=key, summarize=_counts_by_vertex)
    deg_out, slices = {}, {}
    for i, extra in enumerate(layout.extras, start=1):
        for v, cnt in extra or []:
            deg_out[v] = deg_out.get(v, 0) + cnt
            slices.setdefault(v, []).append((i, cnt))
    return Arranged(layout, deg_out, slices)


def query_k_lightest(cluster: Cluster, arranged: Arranged, k_of: dict) -> dict:
    """Collection protocol on an arranged layout: the large machine asks
    each machine holding part of v's first k_of[v] outgoing edges for its
    share (queries (v, k)) and gathers the replies.  2 rounds.

    `arranged` is the layout of the batch under "D", sorted by source, so
    a query's reply is the first k records of v's run in its machine's
    shard, which starts where v's run in the batch or the shard starts,
    whichever is later.  The replies are one `Slices` batch, one send a
    querying machine.  Returns {v: its records}, read in sender order."""
    plans = {}
    for v, k in k_of.items():
        left = k
        for mi, cnt in arranged.slices.get(v, []):
            if left <= 0:
                break
            take = min(left, cnt)
            plans.setdefault(mi, []).append((v, take))
            left -= take
    send_rows(cluster, [(LARGE, mi, qs) for mi, qs in plans.items()])

    mids = list(plans)
    recs, cut = cluster.batch("D")
    take = np.array([t for qs in plans.values() for _, t in qs], np.int64)
    at = np.zeros(len(take), np.int64)
    if plans:
        src = recs.columns()[:, 0]
        qv = np.array([v for qs in plans.values() for v, _ in qs], src.dtype)
        mi = np.repeat(mids, [len(qs) for qs in plans.values()])
        at = np.maximum(np.searchsorted(src, qv), cut[mi - 1])
    # the position in recs of each reply record, in plans order
    pos = np.repeat(at - (np.cumsum(take) - take), take) + np.arange(int(take.sum()))
    replies = recs.take(pos)
    count = [sum(t for _, t in qs) for qs in plans.values()]
    cluster.round(Slices(replies, np.array(mids, np.int64),
                         np.full(len(mids), LARGE), np.array(count, np.int64)))

    rows = list(replies)
    ends = np.cumsum(count, dtype=np.int64).tolist()
    starts = [e - c for e, c in zip(ends, count)]
    collected = {}
    for j in sorted(range(len(mids)), key=mids.__getitem__):
        for r in rows[starts[j]:ends[j]]:
            collected.setdefault(r[0], []).append(r)
    return collected


# ---------------------------------------------------------------------------
# small helpers with fixed 1-round charges


def gather_to_large(cluster: Cluster, state_key):
    """Each small machine that stores records under state_key ships them,
    its slice of the key's batch, to the large machine in one round;
    returns the combined list, in machine order."""
    recs, cut = cluster.batch(state_key)
    size = np.diff(cut)
    busy = np.flatnonzero(size)
    cluster.round(Slices(recs, busy + 1, np.full(len(busy), LARGE), size[busy]))
    return list(recs)


def count_records(cluster: Cluster, state_key):
    """Each small machine reports how many records it stores under
    state_key (the diff of the key's cut) to the large machine in one
    round, a header word each; returns the total, the batch's length."""
    recs, _ = cluster.batch(state_key)
    K = len(cluster.small_ids)
    cluster.round(Slices(Records(), np.arange(1, K + 1), np.full(K, LARGE),
                         np.zeros(K, np.int64), header=1))
    return len(recs)


def gather_if_fits(cluster: Cluster, state_key, cap):
    """Count the records under state_key, then ship them to the large
    machine if there are at most cap, else spend one empty round.  Two
    rounds either way; returns (records or None, count)."""
    total = count_records(cluster, state_key)
    if total > cap:
        cluster.empty_round()
        return None, total
    return gather_to_large(cluster, state_key), total


def neighbor_shift(cluster: Cluster, payload_fn):
    """Each machine sends the record payload_fn(machine index) (None:
    nothing) to its successor; one round; returns {machine index: record
    from predecessor}."""
    sends = []
    for i in range(1, len(cluster.small_ids)):
        p = payload_fn(i)
        if p is not None:
            sends.append((i, i + 1, [p]))
    send_rows(cluster, sends)
    return {dst: rows[0] for _, dst, rows in sends}


# ---------------------------------------------------------------------------
# host-side union-find


class DSU:
    """Union-find whose root is always the smallest member, so find()
    names a component by its smallest vertex."""

    def __init__(self, vertices):
        self.p = {v: v for v in vertices}

    def find(self, x):
        r = x
        while self.p[r] != r:
            r = self.p[r]
        while self.p[x] != r:
            self.p[x], x = r, self.p[x]
        return r

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.p[rb] = ra
        return True
