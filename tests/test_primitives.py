"""Communication primitives: correctness and fixed round charges."""

import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hetmpc import primitives
from hetmpc.graphio import generate_graph
from hetmpc.simcore import (
    CapacityError,
    Cluster,
    ClusterConfig,
    ConfigError,
    Packed,
    Records,
    Slices,
    distribute_edges,
    init_cluster,
)

import sort_reference  # the tuple sort, beside this file
from meter_reference import reference_words  # beside this file
import tree_reference  # the three tree walks, beside this file


def make_cluster(n=64, m=256, gamma=0.5, seed=0):
    return init_cluster(ClusterConfig(n=n, m=m, gamma=gamma, seed=seed))


def scatter_items(cluster, items):
    K = len(cluster.small_ids)
    sort_reference.place(cluster, "E", {i: items[i - 1::K] for i in range(1, K + 1)})


def gathered(cluster, key="E"):
    out = []
    for mid in cluster.small_ids:
        out.extend(cluster.machines[mid].state.get(key) or [])
    return out


def test_sort_reverse_input():
    cl = make_cluster()
    items = [(x,) for x in range(100, 0, -1)]
    scatter_items(cl, items)
    layout = primitives.het_sort(cl)
    assert gathered(cl) == sorted(items)
    assert sum(layout.counts) == 100


def test_sort_idempotent_layout():
    cl = make_cluster()
    scatter_items(cl, [(x,) for x in range(100, 0, -1)])
    primitives.het_sort(cl)
    first = gathered(cl)
    primitives.het_sort(cl)
    assert gathered(cl) == first == sorted(first)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=300))
def test_sort_preserves_multiset(xs):
    cl = make_cluster()
    items = [(x,) for x in xs]
    scatter_items(cl, items)
    primitives.het_sort(cl)
    got = gathered(cl)
    assert got == sorted(items)


def test_sort_round_charge_constant():
    used = []
    for nitems in (5, 300):
        cl = make_cluster()
        scatter_items(cl, [(x % 17,) for x in range(nitems)])
        primitives.het_sort(cl)
        used.append(cl.rounds_used)
    assert used[0] == used[1] == primitives.sort_rounds(0.5)


def test_sort_custom_key():
    cl = make_cluster()
    items = [(x, 99 - x) for x in range(100)]
    scatter_items(cl, items)
    primitives.het_sort(cl, key=(1,))
    assert gathered(cl) == sorted(items, key=lambda r: (r[1], r))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=40),
       st.lists(st.integers(0, 9), max_size=8),
       st.integers(1, 3))
def test_cut_where_bisect_right_routes(keys, split, machines):
    # one sorted shard per machine: the cut sends bucket j of each shard,
    # the keys k with bisect_right(split, k) == j, as one nonempty slice
    at = np.sort(np.array([k % machines for k in keys], np.int64))
    rank = np.array(sorted(keys), np.int64)
    order = np.lexsort((rank, at))
    at, rank = at[order], rank[order]
    bucket, first = primitives._cut(np.array(sorted(split), np.int64), rank, at)
    assert bucket.tolist() == [bisect_right(sorted(split), k) for k in rank.tolist()]
    stops = first.tolist()[1:] + [len(rank)]
    assert all(a < c for a, c in zip(first.tolist(), stops))
    for a, c in zip(first.tolist(), stops):
        assert len(set(bucket[a:c].tolist())) == len(set(at[a:c].tolist())) == 1
        assert c == len(rank) or (at[c], bucket[c]) != (at[a], bucket[a])


INT64 = st.integers(-2**63, 2**63 - 1)
# small values, 40-bit spans, any int64 and the int64 extremes: two wide
# columns need more than one packed word
RANK_FIELDS = st.one_of(st.integers(-3, 3), st.integers(0, 2**40), INT64,
                        st.sampled_from([-2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1]))


@st.composite
def ranked_records(draw):
    """(records of one arity, key): some columns constant, some records
    repeated, some with one field beyond int64, and a key of None or a
    tuple of distinct field positions."""
    arity = draw(st.integers(1, 4))
    recs = draw(st.lists(st.tuples(*[RANK_FIELDS] * arity), max_size=40))
    for j in draw(st.sets(st.integers(0, arity - 1))):
        c = draw(RANK_FIELDS)
        recs = [r[:j] + (c,) + r[j + 1:] for r in recs]
    if recs and draw(st.booleans()):
        i, j = draw(st.integers(0, len(recs) - 1)), draw(st.integers(0, arity - 1))
        wide = draw(st.integers(2**63, 2**70) | st.integers(-2**70, -2**63 - 1))
        recs[i] = recs[i][:j] + (wide,) + recs[i][j + 1:]
    recs += recs[:draw(st.integers(0, len(recs)))]
    key = draw(st.none() | st.lists(st.integers(0, arity - 1), min_size=1,
                                    max_size=arity, unique=True).map(tuple))
    return recs, key


@settings(max_examples=300, deadline=None)
@given(ranked_records())
def test_rank_on_packed_words_matches_sorted(case):
    # the dense rank of each record in the order (key(r), r), from sorted
    recs, key = case
    order = (lambda r: r) if key is None else (
        lambda r: (tuple(r[j] for j in key), r))
    distinct = sorted({order(r) for r in recs})
    want = [bisect_right(distinct, order(r)) - 1 for r in recs]
    # a field beyond int64 leaves the batch Records with no int64 matrix,
    # ranked by Python's sort
    beyond = any(not -2**63 <= x < 2**63 for r in recs for x in r)
    batch = Records(recs)
    assert batch.columns().dtype == (object if beyond else np.int64)
    assert primitives._rank(batch, key).tolist() == want


def record_rounds(cluster):
    """Make cluster.round keep a copy of every round's sends."""
    rounds, deliver = [], cluster.round

    def spy(sends):
        rounds.append(sends if type(sends) is Slices else list(sends))
        return deliver(sends)

    cluster.round = spy
    return rounds


# (key passed to het_sort, the order it must produce): None is the
# records' own order, which is also (prefix, record) order; a tuple of
# field positions F is the order (r[F], r); a column key maps the records'
# columns to key columns, for the order (key row, r)
SORT_KEYS = [
    (None, lambda r: r),
    (None, lambda r: (r[0],)),
    (None, lambda r: (r[0], r[1])),
    (lambda c: c[:, 1], lambda r: (r[1],)),
    (lambda c: c[:, [0, 2, 1]], lambda r: (r[0], (r[2], r[1]))),
    (lambda c: np.column_stack((np.minimum(c[:, 0], c[:, 1]),
                                np.maximum(c[:, 0], c[:, 1]))),
     lambda r: (min(r[0], r[1]), max(r[0], r[1]))),
    (lambda c: -c[:, 2:], lambda r: -r[2]),
    ((1,), itemgetter(1)),
    ((0, 2), itemgetter(0, 2)),
    ((2, 0), itemgetter(2, 0)),
]


def slices_of(batch):
    """The (src, dst, records) of each send of a Slices batch."""
    stop, out = 0, []
    for src, dst, c in zip(batch.src.tolist(), batch.dst.tolist(), batch.count.tolist()):
        out.append((src, dst, batch.records[stop:stop + c]))
        stop += c
    return out


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
             max_size=150),
    st.sampled_from(range(len(SORT_KEYS))),
    st.integers(1, 400),
)
def test_sort_sends_records_in_total_order(records, which, m):
    key, order = SORT_KEYS[which]
    cl = make_cluster(m=m)  # K = ceil(m / 8) small machines
    scatter_items(cl, records)
    before = {i: len(cl.machines[i].state["E"]) for i in cl.small_ids}
    rounds = record_rounds(cl)
    layout = primitives.het_sort(cl, key=key)

    got = gathered(cl)
    assert got == sorted(records, key=lambda r: (order(r), r))
    assert Counter(got) == Counter(records)
    for i in cl.small_ids:
        shard = cl.machines[i].state["E"]
        assert type(shard) is Records  # flat int records are stored as Records
        assert layout.counts[i - 1] == len(shard)
        assert layout.boundaries[i - 1] == ((shard[0], shard[-1]) if shard else None)
    assert layout.ranges(1) == {i: (cl.machines[i].state["E"][0][1],
                                    cl.machines[i].state["E"][-1][1])
                                for i in cl.small_ids if cl.machines[i].state["E"]}
    assert len(rounds) == cl.rounds_used == primitives.sort_rounds(0.5)

    held = set(records)
    bcast = primitives.tree_rounds(0.5)
    # the two routing rounds send every record once, in contiguous
    # Records slices of the senders' sorted shards
    for r in (bcast + 1, bcast + 4):
        batch = rounds[r]
        assert type(batch) is Slices and type(batch.records) is Records
        assert sorted(batch.records) == sorted(records)
        assert all(c > 0 for c in batch.count.tolist())
        assert batch.src.tolist() == sorted(batch.src.tolist())
        for _, _, piece in slices_of(batch):
            assert list(piece) == sorted(piece, key=lambda r: (order(r), r))
    # the sample rounds: every machine sends at most its shard's records,
    # held ones, charged with one header word for its count
    routed = Counter()
    for src, dst, piece in slices_of(rounds[bcast + 1]):
        routed[dst] += len(piece)
    for r, shard in ((0, before), (bcast + 2, routed)):
        batch = rounds[r]
        assert type(batch) is Slices and type(batch.records) is Records
        assert batch.header == 1 and batch.src.tolist() == cl.small_ids
        for src, _, sample in slices_of(batch):
            assert len(sample) <= shard[src] and all(rec in held for rec in sample)
            assert cl.telemetry[r].sent[src] == 3 * len(sample) + 1
    # the splitters broadcast down the tree are held records, one Slices
    # batch a level (the padding rounds send nothing)
    for r in range(1, bcast + 1):
        batch = rounds[r]
        assert type(batch) is Slices or batch == []
        for _, _, payload in slices_of(batch) if batch else []:
            assert type(payload) is Records and all(rec in held for rec in payload)
    # each group leader sends its group's splitters, held records in
    # total order, to every other member of its group
    K = len(cl.small_ids)
    size = math.ceil(K / math.ceil(math.sqrt(K)))
    leader = {i: i - (i - 1) % size for i in cl.small_ids}
    batch = rounds[bcast + 3]
    assert type(batch) is Slices and type(batch.records) is Records
    fan = slices_of(batch)
    assert [dst for _, dst, _ in fan] == [i for i in cl.small_ids if leader[i] != i]
    split = {}
    for src, dst, piece in fan:
        assert src == leader[dst] and split.setdefault(src, piece) == piece
        assert all(rec in held for rec in piece)
        assert list(piece) == sorted(piece, key=lambda r: (order(r), r))


def test_sort_routes_touch_only_busy_machines():
    # a route re-cuts the key's one batch: only the machines that hold or
    # receive records change resident words, and every machine's shard,
    # an idle one's empty Records included, is a slice of the one stored
    # read-only batch
    cl = make_cluster(m=400)  # K = 50
    distribute_edges(cl, [(3, 1), (2, 7), (5, 5)], placement="adversarial",
                     shard_size=1)
    cl.empty_round()
    layout = primitives.het_sort(cl)
    assert gathered(cl) == [(2, 7), (3, 1), (5, 5)]
    holders = {i for i in cl.small_ids if layout.counts[i - 1]}
    touched = set().union(*(t.changed for t in cl.telemetry[1:]))
    assert {1, 2, 3} | holders <= touched and len(touched) <= 9
    records, cut = cl.batch("E")
    for i in cl.small_ids:
        shard = cl.machines[i].state["E"]
        assert type(shard) is Records and shard == records[cut[i - 1]:cut[i]]
    assert not records.columns().flags.writeable


def test_sort_walks_records_with_other_fields():
    # records with a str field are Records with object columns: routed and
    # stored as Records, and charged their walked words
    cl = make_cluster()
    items = [(x % 7, "a" * (x % 3)) for x in range(60)]
    scatter_items(cl, items)
    rounds = record_rounds(cl)
    primitives.het_sort(cl)
    assert gathered(cl) == sorted(items)
    bcast = primitives.tree_rounds(0.5)
    for r in (bcast + 1, bcast + 4):
        # the slices are walked: 2 words a record, whatever its string
        batch = rounds[r]
        assert type(batch) is Slices and type(batch.records) is Records
        assert batch.records.columns().dtype == object
        assert sum(cl.telemetry[r].sent.values()) == batch.records.words()
        assert batch.records.words() == reference_words(list(batch.records))
        assert batch.records.words() == 2 * len(items)
    for i in cl.small_ids:
        shard = cl.machines[i].state["E"]
        assert type(shard) is Records
        assert cl.telemetry[-1].resident[i] == reference_words(list(shard))


def test_record_primitives_name_a_key_that_holds_no_records():
    # a local step whose result on machine 2 is not a record batch (a
    # dict, a batch of mixed arity, bare ints, a 1-d array) raises
    # TypeError naming its output key; every machine runs before any
    # result is stored, so no machine's state or resident words change
    cl = make_cluster()
    scatter_items(cl, [(x,) for x in range(10)])
    cl.empty_round()
    before = {i: dict(cl.machines[i].state) for i in cl.small_ids}
    for bad in ({4: (5, 6)}, [(1,), (2, 3)], [5, 6], np.arange(3)):
        for out in ("E", "X"):
            with pytest.raises(TypeError, match=f"state key {out!r}"):
                cl.local(lambda i, recs: bad if i == 2 else [r + r for r in recs],
                         "E", out)
    for i in cl.small_ids:
        state = cl.machines[i].state
        assert state == before[i] and all(state[k] is v for k, v in before[i].items())
    cl.empty_round()
    assert cl.telemetry[-1].changed == {}


def test_arrange_star_hub():
    cl = make_cluster(n=16, m=5)
    g = generate_graph("star", 6)
    distribute_edges(cl, g.edges)
    arr = primitives.arrange_nodes(cl)
    assert arr.deg_out[0] == 5
    assert cl.rounds_used == primitives.sort_rounds(0.5)


def test_arrange_degrees_match_oracle():
    cl = make_cluster()
    g = generate_graph("gnp", 64, seed=2, p=0.12)
    distribute_edges(cl, g.edges)
    arr = primitives.arrange_nodes(cl)
    degs = g.degrees()
    assert sum(arr.deg_out.values()) == 2 * g.m
    for v, d in enumerate(degs):
        assert arr.deg_out.get(v, 0) == d


def test_aggregate_degree_count():
    cl = make_cluster()
    g = generate_graph("gnp", 64, seed=3, p=0.1)
    distribute_edges(cl, g.edges)
    primitives.arrange_nodes(cl)
    leaves = cl.local(primitives.per_record(lambda r: r[0], lambda r: 1, sum), "D")
    got = primitives.aggregate(cl, leaves, lambda vals: sum(vals))
    assert cl.rounds_used - primitives.sort_rounds(0.5) == primitives.tree_rounds(0.5)
    for v, d in enumerate(g.degrees()):
        assert got.get(v, 0) == d


def test_aggregate_min_per_key():
    cl = make_cluster(n=64, m=64)
    rng = random.Random(7)
    triples = [(rng.randrange(8), rng.randrange(4), rng.randrange(1000))
               for _ in range(200)]
    scatter_items(cl, triples)
    primitives.het_sort(cl, key=(0, 1))
    leaves = cl.local(
        primitives.per_record(lambda r: (r[0], r[1]), lambda r: r[2], min), "E")
    got = primitives.aggregate(cl, leaves, min)
    want = {}
    for v, c, u in triples:
        want[(v, c)] = min(want.get((v, c), u), u)
    assert got == want


def test_disseminate_delivers_per_part():
    cl = make_cluster()
    g = generate_graph("gnp", 64, seed=4, p=0.1)
    distribute_edges(cl, g.edges)
    arr = primitives.arrange_nodes(cl)
    values = {v: v * 10 for v in arr.deg_out}
    before = cl.rounds_used
    got = primitives.disseminate(cl, values, machine_ranges=arr.layout.ranges(0))
    assert cl.rounds_used - before == primitives.tree_rounds(0.5)
    for i in range(1, len(cl.small_ids) + 1):
        held = {r[0] for r in cl.machines[i].state.get("D") or []}
        for v in held:
            assert got.get(i, {}).get(v) == v * 10


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
             min_size=1, max_size=200),
    st.sets(st.integers(0, 60), max_size=30),
    st.sampled_from([0, 1, (0, 1), (1, 0), (1,)]),
)
def test_deliver_by_endpoint_covers_held_endpoints(edges, extra, side):
    # a tuple side names several fields, and values is keyed by their tuples
    def at(r):
        return tuple(r[s] for s in side) if type(side) is tuple else r[side]

    cl = make_cluster()
    scatter_items(cl, edges)
    keys = {at(e) for e in edges} | {at((x, x)) for x in extra}
    values = {v: i for i, v in enumerate(sorted(keys))}
    applied = []

    def apply(records, got):
        # got covers every held endpoint and nothing outside the held range
        assert records
        first, last = at(records[0]), at(records[-1])
        assert got == {v: x for v, x in values.items() if first <= v <= last}
        applied.append(records)
        return records

    before = cl.rounds_used
    primitives.deliver_by_endpoint(cl, "E", values, side, apply=apply)
    assert cl.rounds_used - before == (primitives.sort_rounds(0.5)
                                       + primitives.tree_rounds(0.5))
    # apply ran exactly on the machines that hold records, in ascending
    # order, and each stores what apply returned; an idle machine keeps
    # its empty shard
    shards = [cl.machines[i].state["E"] for i in cl.small_ids]
    assert list(map(id, applied)) == [id(s) for s in shards if s]
    assert sum(map(len, applied)) == len(edges)
    assert sorted(gathered(cl)) == sorted(edges)


def test_deliver_by_endpoint_apply_reads_only_delivered():
    cl = make_cluster()
    g = generate_graph("gnp", 64, seed=4, p=0.1)
    distribute_edges(cl, g.edges)
    values = {v: v * 10 for v in range(64)}

    def apply(records, got):
        values.clear()  # from the first rewrite on, only got is left
        return [r + (got[r[1]],) for r in records]

    primitives.deliver_by_endpoint(cl, "E", values, 1, apply=apply)
    assert all(type(cl.machines[i].state["E"]) is Records for i in cl.small_ids)
    held = gathered(cl)
    assert sorted(r[:2] for r in held) == sorted(g.edges)
    assert all(r[2] == r[1] * 10 for r in held)


def test_broadcast_round_charge_and_traffic():
    cl = make_cluster()
    before = cl.rounds_used
    primitives.tree_broadcast(cl, Records([(1, 2, 3)]))
    assert cl.rounds_used - before == primitives.tree_rounds(0.5)
    # a rep chain covers one machine per tree level for free; every other
    # machine receives the 3-word payload exactly once
    received = sum(sum(t.received.values()) for t in cl.telemetry)
    assert received >= 3 * (len(cl.small_ids) - primitives.global_tree_depth(0.5))


def test_broadcast_charges_every_metered_edge():
    cl = make_cluster(m=1600)  # K = 200, b = 8: a three-level tree
    value = Records([(1, 2, 3), (4, 5, 6)])
    primitives.tree_broadcast(cl, value)
    tree = tree_reference.AggregationTree.build(1, len(cl.small_ids),
                                                primitives.branching(cl))
    assert tree.depth == 3
    edges = 1 + sum(  # large -> root, then each child off its parent's machine
        clo != lo
        for level in range(1, tree.depth + 1)
        for idx, (lo, _) in enumerate(tree.levels[level])
        for clo, _ in tree_reference._children(tree, level, idx)
    )
    sent = sum(sum(t.sent.values()) for t in cl.telemetry)
    assert sent == reference_words(value) * edges


def test_tree_children_are_contiguous_slices():
    # the children of node idx on level l, indices idx * b up to
    # min(idx * b + b, widths[l - 1]) - 1 of level l - 1, are the nodes
    # whose machine ranges lie inside the node's
    for K in range(1, 40):
        for b in range(2, 6):
            tree = tree_reference.AggregationTree.build(1, K, b)
            widths = primitives._widths(K, b)
            for level in range(1, tree.depth + 1):
                for idx, (lo, hi) in enumerate(tree.levels[level]):
                    scan = [nd for nd in tree.levels[level - 1]
                            if lo <= nd[0] and nd[1] <= hi]
                    kids = range(idx * b, min(idx * b + b, widths[level - 1]))
                    assert [tree.levels[level - 1][c] for c in kids] == scan


def test_query_k_lightest_two_rounds():
    cl = make_cluster()
    g = generate_graph("gnp", 64, seed=5, p=0.15)
    distribute_edges(cl, g.edges)
    arr = primitives.arrange_nodes(cl)
    before = cl.rounds_used
    got = primitives.query_k_lightest(cl, arr, {0: 3, 1: 2})
    assert cl.rounds_used - before == primitives.QUERY_ROUNDS
    degs = g.degrees()
    assert len(got.get(0, [])) == min(3, degs[0])
    assert len(got.get(1, [])) == min(2, degs[1])


# (record of edge (u, v) with weight w, vertex id of u): flat ints, a
# weight or vertex ids beyond int64 (object columns), and a field that
# meters itself (object columns, walked)
QUERY_KINDS = {
    "ints": (lambda u, v, w: (u, v, w), lambda u: u),
    "bigweights": (lambda u, v, w: (u, v, w << 62), lambda u: u),
    "bigvertices": (lambda u, v, w: (u << 62, v << 62, w), lambda u: u << 62),
    "labels": (lambda u, v, w: (u, v, Label(w)), lambda u: u),
}


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
             max_size=120),
    st.sampled_from(sorted(QUERY_KINDS)),
    st.sampled_from([None, (0, 2)]),
    st.sampled_from([1, 8, 40, 200, 400]),
    st.sampled_from(["seeded", "roundrobin", "adversarial"]),
    st.dictionaries(st.integers(0, 7), st.integers(0, 12), max_size=8),
)
def test_query_matches_the_reference(raw, kind, key, m, placement, k_raw):
    # m = 1 or 8 gives K = 1; adversarial placement leaves trailing shards
    # empty; vertex 7 has no edges, and k may exceed a degree; with K = 5
    # (m = 40) a vertex's run spans machines
    record, vertex = QUERY_KINDS[kind]
    records = [record(*r) for r in raw]
    k_of = {vertex(v): k for v, k in k_raw.items()}
    out = []
    for query in (primitives.query_k_lightest, sort_reference.query_k_lightest):
        cl = init_cluster(ClusterConfig(n=64, m=m, gamma=0.5, seed=3))
        try:
            distribute_edges(cl, records, placement=placement)
        except CapacityError:
            assume(False)
        arranged = primitives.arrange_nodes(cl, key=key)
        out.append((cl, query(cl, arranged, k_of)))
    (new, got), (ref, want) = out
    assert list(got.items()) == list(want.items())
    assert new.rounds_used == ref.rounds_used
    for t, u in zip(new.telemetry, ref.telemetry):
        assert list(t.sent.items()) == list(u.sent.items())
        assert list(t.received.items()) == list(u.received.items())
        assert (t.changed, t.violations) == (u.changed, u.violations)


def test_gather_and_scatter_single_rounds():
    cl = make_cluster(n=16, m=8)
    distribute_edges(cl, [(i, (i + 1) % 16) for i in range(8)])
    before = cl.rounds_used
    items = primitives.gather_to_large(cl, "E")
    assert cl.rounds_used - before == 1
    assert sorted(items) == sorted((i, (i + 1) % 16) for i in range(8))


def test_gather_if_fits_two_rounds_either_way():
    edges = [(i, (i + 1) % 16) for i in range(8)]
    for cap, fits in ((8, True), (7, False)):
        cl = make_cluster(n=16, m=8)
        distribute_edges(cl, edges)
        before = cl.rounds_used
        got, count = primitives.gather_if_fits(cl, "E", cap)
        assert cl.rounds_used - before == 2
        assert count == 8
        if fits:
            assert sorted(got) == sorted(edges)
        else:
            assert got is None
    before = cl.rounds_used
    assert primitives.count_records(cl, "E") == 8
    assert cl.rounds_used - before == 1


def _tree_depth(K, b):
    """The depth of the reference AggregationTree.build(1, K, b) without
    building the tree: each level has ceil(len / b) nodes of the level
    below."""
    depth = 0
    while K > 1:
        K = -(-K // b)
        depth += 1
    return depth


def test_tree_depth_count_matches_the_tree():
    # no run: against the reference tree, _tree_depth is its depth, and
    # level l of _widths(K, b) has as many nodes as its level l, node idx
    # is machine idx * b^l + 1, the first of its range, and its children
    # are nodes idx * b up to min(idx * b + b, widths[l - 1]) - 1 of
    # level l - 1
    for b in (2, 3, 5, 8, 27):
        edges = {b ** j + d for j in range(1, 20) if b ** j < 20000
                 for d in (-1, 0, 1)}
        for K in sorted(set(range(1, 201)) | edges):
            tree = tree_reference.AggregationTree.build(1, K, b)
            assert _tree_depth(K, b) == tree.depth
            widths = primitives._widths(K, b)
            assert widths == [len(nodes) for nodes in tree.levels]
            for level, nodes in enumerate(tree.levels):
                assert [lo for lo, _ in nodes] == [
                    idx * b ** level + 1 for idx in range(widths[level])]
            for level in range(1, len(widths)):
                for idx in range(widths[level]):
                    kids = range(idx * b, min(idx * b + b, widths[level - 1]))
                    assert [tree.levels[level - 1][c] for c in kids] == (
                        tree_reference._children(tree, level, idx))


def test_accepted_shapes_fit_the_tree_charge():
    # no run: at every n <= 4096, m in {n, n(n-1)/2} and gamma in {0.1,
    # ..., 0.9}, the config rejects the shape exactly when the global
    # machine tree would be deeper than the depth tree_rounds pays for,
    # so no tree walk reaches _pad's assertion
    rejected = 0
    for gamma in [i / 10 for i in range(1, 10)]:
        depth = primitives.global_tree_depth(gamma)
        for n in range(2, 4097):
            b = max(2, int(n ** gamma))
            for m in (n, n * (n - 1) // 2):
                K = max(1, math.ceil(m / n ** gamma))
                fits = _tree_depth(K, b) <= depth
                try:
                    cfg = ClusterConfig(n=n, m=m, gamma=gamma)
                except ConfigError:
                    assert not fits, (n, m, gamma)
                    rejected += 1
                    continue
                assert fits, (n, m, gamma)
                assert (cfg.num_small, cfg.branching, cfg.tree_depth) == (
                    K, b, depth)
    assert rejected > 0
    # the shapes the round-up of the branching factor would accept
    for n, gamma in ((15, 0.5), (8, 0.5), (100, 0.3), (50, 0.4)):
        with pytest.raises(ConfigError):
            ClusterConfig(n=n, m=n * (n - 1) // 2, gamma=gamma)


def test_round_constant_formulas():
    # gamma = 0.5 fixes the vertical tree depth at ceil((2 - g)/g) = 3
    assert primitives.global_tree_depth(0.5) == 3
    assert primitives.tree_rounds(0.5) == 4
    assert primitives.sort_rounds(0.5) == 10


# -- the rank-oracle sort against the tuple sort it replaced --------------


@dataclass(frozen=True, order=True)
class Label:
    """A comparable record field that meters itself, as flow labels do."""

    value: int

    def words(self):
        return 1 + self.value % 3


def _counts_and_ends(shard):
    """Records of one record: the shard's count, then its first record's
    fields (None for an empty shard)."""
    return Records([(len(shard),) + (shard[0] if shard else (None,))])


def _counts_and_ends_by_segment(cut, cols):
    """`_counts_and_ends` of each machine's segment of the sorted columns:
    the summarize that `het_sort` takes."""
    starts = [0] + cut[:-1].tolist()
    return [_counts_and_ends(Records(map(tuple, cols[a:b].tolist())))
            for a, b in zip(starts, cut.tolist())]


RECORD_KINDS = {
    "ints": lambda x, y, z: (x, y, z),
    "bigints": lambda x, y, z: (x, y << 62, z),  # beyond int64 from y = 2 on
    "strings": lambda x, y, z: (x, "s" * y),
    "labels": lambda x, y, z: (x, Label(y * 7 + z)),
}


def _sorted_twice(records, kind, which, m, placement, tight, summarized):
    """(new, reference) clusters after sorting the same placed records;
    when summarized, each machine attaches its count and first record."""
    key = SORT_KEYS[which][0] if kind.endswith("ints") else None
    out = []
    for sort in (primitives.het_sort, sort_reference.het_sort):
        # tight budgets (48 words a small machine): tolerant clusters that
        # log their violations
        cfg = ClusterConfig(n=64, m=m, gamma=0.5, seed=3,
                            polylog_c=1 if tight else 128,
                            polylog_e=1 if tight else 2)
        cl = init_cluster(cfg, strict=not tight)
        try:
            distribute_edges(cl, records, placement=placement)
        except CapacityError:
            assume(False)  # the records do not fit the small machines
        # the reference takes a key as the per-record function of the
        # order it names
        ref = sort is sort_reference.het_sort
        fn = SORT_KEYS[which][1] if key is not None and ref else key
        summarize = (_counts_and_ends if ref else _counts_and_ends_by_segment
                     ) if summarized else None
        layout = sort(cl, key=fn, summarize=summarize)
        out.append((cl, layout))
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
             max_size=120),
    st.sampled_from(sorted(RECORD_KINDS)),
    st.sampled_from(range(len(SORT_KEYS))),
    st.sampled_from([1, 8, 40, 200, 400]),
    st.sampled_from(["seeded", "roundrobin", "adversarial"]),
    st.booleans(),
    st.booleans(),
)
def test_sort_matches_the_tuple_sort(raw, kind, which, m, placement, tight,
                                     summarized):
    # m = 1 or 8 gives K = 1; adversarial placement leaves trailing shards
    # empty; the nested-tuple key and the non-int records take the rank
    # path that sorts in Python
    records = [RECORD_KINDS[kind](*r) for r in raw]
    (new, layout), (ref, want) = _sorted_twice(records, kind, which, m,
                                               placement, tight, summarized)
    for i in new.small_ids:
        got, exp = new.machines[i].state["E"], ref.machines[i].state["E"]
        assert type(got) is type(exp) and got == exp
    assert (layout.counts, layout.boundaries, layout.extras) == (
        want.counts, want.boundaries, want.extras)
    assert new.rounds_used == ref.rounds_used
    for t, u in zip(new.telemetry, ref.telemetry):
        assert list(t.sent.items()) == list(u.sent.items())
        assert list(t.received.items()) == list(u.received.items())
        assert t.resident == u.resident
        assert t.violations == u.violations


# -- the shared tree walk against the three walks it replaced -------------


def _tree_grid():
    # K = 1, 2, b, b + 1 and b^2 + 1 small machines at n = 64; at gamma =
    # 0.8, b^2 + 1 machines need a deeper tree than the fixed charge
    # allows, and the config rejects that shape
    grid = []
    for gamma in (0.3, 0.5, 0.8):
        b = max(2, int(64 ** gamma))
        for K in (1, 2, b, b + 1, b * b + 1):
            m = math.floor((K - 1) * 64 ** gamma) + 1
            if K > b ** primitives.global_tree_depth(gamma):
                with pytest.raises(ConfigError):
                    ClusterConfig(n=64, m=m, gamma=gamma)
                continue
            assert ClusterConfig(n=64, m=m, gamma=gamma).num_small == K
            grid.append((gamma, m))
    return grid


TREE_GRID = _tree_grid()

TREE_VALUES = {
    "records": lambda p: Records([(p, p + 1)] * (p % 3)),  # empty every third
    "packed": lambda p: Packed(p, 7 * (p % 4), 6),
    "ints": lambda p: p,
}

# leaf value of a record (*part, x), and its reduce_fn; a value is one
# field or a flat tuple of fields
TREE_REDUCE = {
    "sum": (itemgetter(-1), sum),
    "min": (lambda r: r[-1:] + r[:-1], min),
    "records": (lambda r: Records([r[-1:]]),
                lambda vs: Records(sorted(r for v in vs for r in v))),
}


def _walked_twice(case, walk):
    """(result or error, telemetry rows) of walk(module, cluster) under the
    new primitives and under the reference."""
    gamma, m = case
    out = []
    for module in (primitives, tree_reference):
        cl = init_cluster(ClusterConfig(n=64, m=m, gamma=gamma, seed=1))
        got = walk(module, cl)
        rows = [(list(t.sent.items()), list(t.received.items()), t.resident,
                 t.violations) for t in cl.telemetry]
        out.append((got, rows))
    return out


def _in_order(x):
    """Nested dicts as item lists, so that comparing them compares order."""
    return [(k, _in_order(v)) for k, v in x.items()] if type(x) is dict else x


def _tree_layout(K, seed, hole, density, tuple_parts):
    """Per-machine part ranges, contiguous in machine order: a machine is
    left without a range with probability `hole`, and a machine may start
    on its predecessor's last part, so one part spans several machines.
    Values cover a `density` share of the parts, some outside every range."""
    rng = random.Random(seed)
    spans, part = {}, 0
    for i in range(1, K + 1):
        if rng.random() < hole:
            continue
        part += rng.choice((0, 0, 1, 2))
        lo = part
        part += rng.choice((0, 1, 3))
        spans[i] = (lo, part)
    name = (lambda p: (p // 3, p)) if tuple_parts else (lambda p: p)
    parts = [p for p in range(part + 3) if rng.random() < density]
    return rng, spans, name, parts


# (the value the reference walk sends, the Records of the same words that
# the shared walk sends); the root send stays for an empty value (het_sort
# broadcasts empty splitters at K = 1)
BROADCAST_VALUES = [
    (Records(()), Records(())),
    (Records([(1, 2), (3, 4)]), Records([(1, 2), (3, 4)])),
    (Packed(0, 0, 6), Records([(Packed(0, 0, 6),)])),
    (Packed(5, 40, 6), Records([(Packed(5, 40, 6),)])),
    (7, Records([(7,)])),
    ([(1, 2), 3], Records([(1, 2, 3)])),
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(TREE_GRID), st.sampled_from(range(len(BROADCAST_VALUES))))
def test_broadcast_matches_the_reference(case, which):
    value, batch = BROADCAST_VALUES[which]
    assert reference_words(value) == batch.words()
    (new, new_rows), (ref, ref_rows) = _walked_twice(
        case, lambda mod, cl: mod.tree_broadcast(
            cl, value if mod is tree_reference else batch))
    assert new == ref and new_rows == ref_rows


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TREE_GRID), st.sampled_from(sorted(TREE_VALUES)),
       st.integers(0, 2 ** 16), st.sampled_from([0.0, 0.3, 1.0]),
       st.sampled_from([0.0, 0.5, 1.0]), st.booleans())
def test_disseminate_matches_the_reference(case, kind, seed, hole, density,
                                           tuple_parts):
    K = ClusterConfig(n=64, m=case[1], gamma=case[0]).num_small
    _, spans, name, parts = _tree_layout(K, seed, hole, density, tuple_parts)
    ranges = {i: (name(lo), name(hi)) for i, (lo, hi) in spans.items()}
    values = {name(p): TREE_VALUES[kind](p) for p in reversed(parts)}
    (new, new_rows), (ref, ref_rows) = _walked_twice(
        case, lambda mod, cl: mod.disseminate(cl, values, ranges))
    assert new_rows == ref_rows
    assert _in_order(new) == _in_order(ref)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TREE_GRID), st.sampled_from(sorted(TREE_REDUCE)),
       st.integers(0, 2 ** 16), st.sampled_from([0.0, 0.3, 1.0]),
       st.booleans())
def test_aggregate_matches_the_reference(case, kind, seed, hole, tuple_parts):
    K = ClusterConfig(n=64, m=case[1], gamma=case[0]).num_small
    rng, spans, name, _ = _tree_layout(K, seed, hole, 1.0, tuple_parts)
    # records (*part, x): a record's fields are not tuples
    flat = (lambda p: name(p)) if tuple_parts else (lambda p: (p,))
    held = {i: [flat(p) + (rng.randrange(10),)
                for p in range(lo, hi + 1) for _ in range(rng.randint(1, 2))]
            for i, (lo, hi) in spans.items()}
    leaf, reduce_fn = TREE_REDUCE[kind]
    part = (lambda r: r[:-1]) if tuple_parts else itemgetter(0)
    leaf_fn = primitives.per_record(part, leaf, reduce_fn)

    def walk(mod, cl):
        sort_reference.place(cl, "A", held)
        if mod is tree_reference:
            return mod.aggregate(cl, "A", lambda recs: leaf_fn(None, recs),
                                 reduce_fn)
        return mod.aggregate(cl, cl.local(leaf_fn, "A"), reduce_fn)

    (new, new_rows), (ref, ref_rows) = _walked_twice(case, walk)
    assert new_rows == ref_rows
    assert _in_order(new) == _in_order(ref)
