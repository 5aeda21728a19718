"""The tuple sample sort that `primitives.het_sort` replaced, kept verbatim
as the reference its rank-oracle port is compared with: each machine sorts
(key, record) pairs, cuts its shard with bisect, and routes one list-built
message per bucket through the ordinary send list.

Beside it, the per-machine `query_k_lightest` that the segmented pass
replaced, kept verbatim: each queried machine groups its shard's records
by source and replies with one list through the ordinary send list."""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import itemgetter

from hetmpc.primitives import (
    Arranged,
    SortedLayout,
    _pad,
    branching,
    sort_rounds,
    tree_broadcast,
)
from hetmpc.simcore import LARGE, Cluster, Records, _join, as_records

from meter_reference import reference_round  # beside this file

# the unchecked constructor this sort used is gone; the checked one builds
# the same Records
_trusted = Records

_FIRST, _SECOND = itemgetter(0), itemgetter(1)


def place(cluster: Cluster, key, shards):
    """Each machine mid of `shards` ({mid: record batch, or None}) stores
    its batch under `key` as Records, or pops `key` for None, while every
    other machine keeps what it stores: how a test sets up machine state
    machine by machine, through the cluster's one store."""
    held = [cluster.machines[mid].state.get(key) for mid in cluster.machines]
    for mid, recs in shards.items():
        held[mid] = None if recs is None else as_records(recs)
    cluster._store(key, shards=held)


def _even_sample(seq, k):
    if not seq or k <= 0:
        return []
    if len(seq) <= k:
        return list(seq)
    step = len(seq) / k
    return [seq[min(len(seq) - 1, int(i * step))] for i in range(k)]


def _pick_splitters(weighted, parts):
    """weighted: list of (count, [sorted keys]); pick parts-1 quantile keys."""
    pool = []
    for count, keys in weighted:
        if not keys:
            continue
        w = count / len(keys)
        pool.extend((k, w) for k in keys)
    pool.sort(key=_FIRST)
    total = sum(w for _, w in pool)
    if total == 0 or parts <= 1:
        return []
    splitters, acc, j = [], 0.0, 0
    for i in range(1, parts):
        threshold = i * total / parts
        while j < len(pool) and acc + pool[j][1] < threshold:
            acc += pool[j][1]
            j += 1
        splitters.append(pool[min(j, len(pool) - 1)][0])
    return splitters


def _buckets(keys, split):
    """Cut sorted `keys` at sorted splitters: (j, start, stop) for each
    nonempty bucket j, which holds the keys k with split[j-1] <= k <
    split[j] (so j is bisect_right(split, k)), in increasing j."""
    out, a = [], 0
    for j, s in enumerate(split):
        c = bisect_left(keys, s, a)
        if c > a:
            out.append((j, a, c))
            a = c
    if a < len(keys):
        out.append((len(split), a, len(keys)))
    return out


def het_sort(cluster: Cluster, state_key="E", key=None, summarize=None) -> SortedLayout:
    """Globally sort the records stored under state_key on the small
    machines (two-phase sample sort; fixed round charge).

    Total order is (key(record), record); with key=None it is the records'
    own order and they are sorted directly, so a key that is a prefix of
    the record should be passed as None.  Samples, splitters and summary
    boundaries travel as bare records and each receiver evaluates `key` on
    them, so `key` must be a function of the record alone.
    `summarize(shard)` may attach a per-machine payload to the final
    summary message to the large machine.

    Each sorted shard is stored, and routed in slices, as Records: metered
    as len * arity when its records are flat int tuples, else walked.
    """
    start = cluster.rounds_used
    gamma = cluster.config.gamma
    K = len(cluster.small_ids)
    b = branching(cluster)

    def sort_keys(recs):
        # what is compared: the records themselves or (key, record) pairs
        return recs if key is None else list(zip(map(key, recs), recs))

    # keyed[i] / shard[i]: the sort keys and the records of machine i's
    # sorted shard, side by side; computed once per shard and kept
    # machine-local between rounds
    keyed, shard = {}, {}

    def unkey(keys):
        return keys if key is None else list(map(_SECOND, keys))

    def store(i, records):
        keys = sorted(sort_keys(records))
        recs = unkey(keys)
        # a reordering of Records is Records; anything else is checked
        recs = _trusted(recs) if type(records) is Records else as_records(recs)
        keyed[i], shard[i] = (recs if key is None else keys), recs
        place(cluster, state_key, {i: recs})
        return recs

    def sample_keys(msgs):
        # a receiver keys the sampled records it got: [(count, [keys])]
        return [(p[0], sort_keys(p[1:])) for _, p in msgs]

    def route(sends, i, split, dsts):
        # bucket j is one contiguous slice of the sorted shard, sent to dsts[j]
        place(cluster, state_key, {i: None})
        recs = shard[i]
        pack = _trusted if type(recs) is Records else list
        for j, a, c in _buckets(keyed[i], split):
            sends.append((i, dsts[j], pack(recs[a:c])))

    # local sort + seeded-position sample to the large machine
    sends = []
    for i in cluster.small_ids:
        recs = store(i, cluster.machines[i].state.get(state_key) or [])
        sends.append((i, LARGE, [len(recs)] + _even_sample(recs, b)))
    inbox = reference_round(cluster, sends)

    g = max(1, math.ceil(math.sqrt(K)))
    size = math.ceil(K / g)
    groups = [(lo, min(lo + size - 1, K)) for lo in range(1, K + 1, size)]
    # splitter keys; the machines they are broadcast to key the same
    # records to the same values
    gsplit = _pick_splitters(sample_keys(inbox.get(LARGE, [])), len(groups))
    tree_broadcast(cluster, unkey(gsplit))

    # route each record to a machine of its target group (balanced by
    # sender index); gsplit may hold fewer than len(groups) - 1 splitters
    sends = []
    for i in cluster.small_ids:
        route(sends, i, gsplit, [lo + i % (hi - lo + 1) for lo, hi in groups])
    inbox = reference_round(cluster, sends)
    for i in cluster.small_ids:
        store(i, _join([batch for _, batch in inbox.get(i, [])]))

    # phase 2: per-group splitters chosen by the group leader
    sends = []
    for lo, hi in groups:
        for i in range(lo, hi + 1):
            recs = shard[i]
            sends.append((i, lo, [len(recs)] + _even_sample(recs, 2 * (hi - lo + 1))))
    inbox = reference_round(cluster, sends)

    leader_split = {}
    sends = []
    for lo, hi in groups:
        split = _pick_splitters(sample_keys(inbox.get(lo, [])), hi - lo + 1)
        leader_split[lo] = split
        split_recs = unkey(split)  # one object for the whole group
        for i in range(lo + 1, hi + 1):
            sends.append((lo, i, split_recs))
    reference_round(cluster, sends)

    sends = []
    for lo, hi in groups:
        for i in range(lo, hi + 1):
            route(sends, i, leader_split[lo], range(lo, hi + 1))
    inbox = reference_round(cluster, sends)

    sends = []
    for i in cluster.small_ids:
        recs = store(i, _join([batch for _, batch in inbox.get(i, [])]))
        payload = [len(recs)]
        if recs:
            payload.append((recs[0], recs[-1]))
        if summarize is not None:
            payload.append(summarize(recs))
        sends.append((i, LARGE, payload))
    inbox = reference_round(cluster, sends)

    counts, boundaries, extras = [0] * K, [None] * K, [None] * K
    for src, payload in inbox.get(LARGE, []):
        i = src - 1
        counts[i] = payload[0]
        j = 1
        if payload[0]:
            boundaries[i] = payload[1]
            j = 2
        if summarize is not None:
            extras[i] = payload[j] if len(payload) > j else None
    _pad(cluster, start, sort_rounds(gamma))
    return SortedLayout(counts, boundaries, extras)


def query_k_lightest(cluster: Cluster, arranged: Arranged, k_of: dict,
                     dst_key="D") -> dict:
    """Collection protocol on an arranged layout: the large machine asks
    each machine holding part of v's first k_of[v] outgoing edges for its
    share (queries (v, k)) and gathers the replies.  2 rounds."""
    plans = {}
    for v, k in k_of.items():
        left = k
        for mi, cnt in arranged.slices.get(v, []):
            if left <= 0:
                break
            take = min(left, cnt)
            plans.setdefault(mi, []).append((v, take))
            left -= take
    reference_round(cluster, [(LARGE, mi, qs) for mi, qs in plans.items()])

    def reply(mi, shard):
        qs = plans.get(mi)
        if qs is None:
            return None
        by_v = {}
        for r in shard:
            by_v.setdefault(r[0], []).append(r)
        out = []
        for v, take in qs:
            out.extend(by_v.get(v, [])[:take])
        return out

    replies = cluster.local(reply, dst_key)
    inbox = reference_round(cluster, [(mi, LARGE, replies.get(mi, [])) for mi in plans])

    collected = {}
    for _, reply in inbox.get(LARGE, []):
        for r in reply:
            collected.setdefault(r[0], []).append(r)
    return collected
