"""Minimum spanning forest: contraction, sampling, exactness."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hetmpc import mst, oracles, primitives, spanner
from hetmpc.graphio import SimGraph, generate_graph
from hetmpc.labels import flow_label_marker
from hetmpc.simcore import (
    Cluster,
    ClusterConfig,
    Records,
    as_records,
    distribute_edges,
    init_cluster,
)

import mst_reference  # the tuple steps, beside this file
from meter_reference import reference_words  # beside this file
import sort_reference  # the tuple sort, beside this file


def make_cluster(n, m, seed=0, f_exp=None):
    return init_cluster(
        ClusterConfig(n=n, m=max(1, m), gamma=0.5, seed=seed, f_exp=f_exp)
    )


def msf_weight(edges):
    return sum(w for *_, w in edges)


def run_mst(graph, seed=0):
    cl = make_cluster(graph.n, graph.m, seed=seed)
    forest, report = mst.mst(cl, graph)
    return cl, forest, report


def test_k4_hand_example():
    g = SimGraph(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 4), (1, 3, 5),
                     (2, 3, 6)], weighted=True)
    _, forest, report = run_mst(g)
    assert forest == [(0, 1, 1), (0, 2, 2), (0, 3, 3)]
    assert report["total_weight"] == 6


def test_tree_input_returns_itself():
    g = SimGraph(16, [(i, i + 1, 10 + i) for i in range(15)], weighted=True)
    _, forest, _ = run_mst(g)
    assert sorted(forest) == sorted(g.edges)


def test_boruvka_step_triangle():
    g = SimGraph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)], weighted=True)
    cl = make_cluster(3, 3)
    state = mst.init_state(cl, g)
    state = mst.boruvka_step(cl, state, 1)
    assert state.n_super == 1
    assert sorted(state.forest) == [(0, 1, 1), (1, 2, 2)]


def test_boruvka_step_path_contracts_fully():
    g = SimGraph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)], weighted=True)
    cl = make_cluster(4, 3)
    state = mst.init_state(cl, g)
    state = mst.boruvka_step(cl, state, 2)
    assert state.n_super == 1
    assert sorted(state.forest) == sorted(g.edges)


def test_boruvka_step_disjoint_edges():
    g = SimGraph(4, [(0, 1, 5), (2, 3, 6)], weighted=True)
    cl = make_cluster(4, 2)
    state = mst.init_state(cl, g)
    state = mst.boruvka_step(cl, state, 1)
    assert state.n_super == 2
    assert sorted(state.forest) == sorted(g.edges)


def test_merge_respects_cut_rule():
    # with selection count 2, x and v collect only their two lightest
    # edges, so neither collects the x-v edge; a lightest-first merge over
    # the collected set would wrongly join the halves through u-v (100)
    g = SimGraph(
        7,
        [(0, 1, 10), (1, 2, 5), (1, 3, 7), (4, 5, 3), (4, 6, 4), (1, 4, 20),
         (0, 4, 100)],
        weighted=True,
    )
    _, forest, _ = run_mst(g)
    assert sorted(forest) == sorted(oracles.kruskal_msf(7, g.edges))
    assert (0, 4, 100) not in forest


def test_disconnected_graph():
    g = SimGraph(8, [(0, 1, 1), (1, 2, 2), (4, 5, 3), (5, 6, 4)], weighted=True)
    _, forest, report = run_mst(g)
    assert sorted(forest) == sorted(g.edges)
    assert report["components"] == 4  # two paths + two isolated vertices


def test_edgeless_graph_has_empty_forest():
    _, forest, report = run_mst(SimGraph(8, [], weighted=True))
    assert forest == [] and report["components"] == 8


def test_near_linear_steps():
    assert mst.near_linear_steps(1024, 65536) == 3
    assert mst.near_linear_steps(512, 8192) == 2
    assert mst.near_linear_steps(256, 256) == 0


def test_random_instances_match_kruskal():
    for seed in range(5):
        g = generate_graph("gnm", 64, seed=seed, m=512, weighted=True)
        cl, forest, _ = run_mst(g, seed=seed)
        assert sorted(forest) == sorted(oracles.kruskal_msf(64, g.edges))
        assert not any(t.violations for t in cl.telemetry)


# (m, rounds of one successful repetition's run) for G(256, m) seed 0: at
# m=4096 contraction leaves no edge to sample, at m=512 it runs no step
@pytest.mark.parametrize("m, rounds", [(4096, 134), (512, 32)])
def test_sampling_repetitions_run_in_sequence(monkeypatch, m, rounds):
    # repetition 1 filters but reports an abort, so repetition 2 runs on
    # the restored edges and both are charged their rounds
    g = generate_graph("gnm", 256, seed=0, m=m, weighted=True)
    cl = make_cluster(256, m)
    real = mst.f_light_filter
    stored = []  # edge records on the machines at each filter call

    def first_aborts(cluster, labels, threshold):
        stored.append(sum(len(cluster.machines[mid].state.get("E") or [])
                          for mid in cluster.small_ids))
        light, total = real(cluster, labels, threshold)
        return (None, total) if len(stored) == 1 else (light, total)

    monkeypatch.setattr(mst, "f_light_filter", first_aborts)
    forest, report = mst.mst(cl, g)
    # kkt_sample, two label deliveries, gather_if_fits
    rep_rounds = 2 + 2 * (primitives.sort_rounds(0.5)
                          + primitives.tree_rounds(0.5)) + 2
    assert report["repetitions_run"] == 2
    assert cl.rounds_used == rounds + rep_rounds
    assert stored[0] == stored[1]
    assert sorted(forest) == sorted(oracles.kruskal_msf(256, g.edges))


# sha256 prefix of the telemetry rows of the run above.  The one at m=512
# was re-recorded when the F-light filter moved to a copy "F" of "E": a
# machine holds both during the filter, so its resident words rose (peak
# 929 to 1,009); the rows without them (SENT_ROWS), and the forest, are
# as before
RESTORED_ROWS = {4096: "568cdb5ba46087bf", 512: "d991782c82759e52"}
SENT_ROWS = {4096: "070afb0dbabd848c", 512: "47ff3c199ba26c1c"}


@pytest.mark.parametrize("m", [4096, 512])
def test_sampling_leaves_each_edge_object_in_place(monkeypatch, m):
    # repetition 1 aborts; repetition 2 starts on the very batch the
    # machines stored under "E" before repetition 1 (at m=4096 every
    # machine's shard is an empty Records), since the filter works on its
    # copy "F"; only "E" is left afterwards
    g = generate_graph("gnm", 256, seed=0, m=m, weighted=True)
    cl = make_cluster(256, m)
    real_filter, real_sample = mst.f_light_filter, mst.kkt_sample
    at_start, filtered = [], []

    def first_aborts(cluster, labels, threshold):
        filtered.append(1)
        light, total = real_filter(cluster, labels, threshold)
        return (None, total) if len(filtered) == 1 else (light, total)

    def sample(cluster, p, rep):
        at_start.append((cluster.batch("E"),
                         [cluster.machines[i].state["E"] for i in cluster.small_ids]))
        return real_sample(cluster, p, rep)

    monkeypatch.setattr(mst, "f_light_filter", first_aborts)
    monkeypatch.setattr(mst, "kkt_sample", sample)
    mst.mst(cl, g)
    (first, shards), (second, _) = at_start
    assert first[0] is second[0] and first[1] is second[1]
    if m == 4096:
        assert all(type(a) is Records and not a for a in shards)
    assert {key for i in cl.small_ids for key in cl.machines[i].state} == {"E"}
    rows = repr([(t.round, t.sent, t.received, t.resident, t.violations)
                 for t in cl.telemetry])
    assert hashlib.sha256(rows.encode()).hexdigest()[:16] == RESTORED_ROWS[m]
    rows = repr([(t.round, t.sent, t.received, t.violations) for t in cl.telemetry])
    assert hashlib.sha256(rows.encode()).hexdigest()[:16] == SENT_ROWS[m]


def test_kkt_sample_edge_probabilities():
    g = generate_graph("gnm", 64, seed=3, m=512, weighted=True)
    cl = make_cluster(64, 512, seed=3)
    mst.init_state(cl, g)
    assert mst.kkt_sample(cl, 0.0, "a") == []
    full = mst.kkt_sample(cl, 1.0, "b")
    assert sorted((r[3], r[4]) for r in full) == sorted(
        (u, v) for u, v, _ in g.edges
    )


def test_f_light_oracle_against_brute_force():
    g = generate_graph("gnm", 64, seed=8, m=512, weighted=True)
    half = g.edges[: len(g.edges) // 2]
    forest = oracles.kruskal_msf(64, half)
    kept = oracles.f_light_edges(64, forest, g.edges)
    table = oracles.tree_path_max(64, forest)
    want = [e for e in g.edges if table[e[0]][e[1]] < 0 or e[2] <= table[e[0]][e[1]]]
    assert kept == want
    # every forest edge is trivially light, every non-kept edge closes a
    # cycle whose tree path is strictly lighter
    for e in forest:
        assert e in kept


@pytest.mark.parametrize("m", [8, 512])  # K = 1 and K = 64 small machines
def test_label_records_are_records_metered_as_walked(monkeypatch, m):
    # f_light_filter's first delivery appends each record's side-0 flow
    # label to its copy "F" of the edges, the second keeps the light
    # records: after each, every small machine stores Records under "F",
    # and its resident words are a fresh walk of its records; the labels
    # differ in depth, so in words
    g = generate_graph("gnm", 64, seed=8, m=512, weighted=True)
    cl = make_cluster(64, m, seed=8)
    mst.init_state(cl, g)
    forest = oracles.kruskal_msf(64, g.edges[: len(g.edges) // 4])
    labels = flow_label_marker(64, forest)
    assert len({label.words() for label in labels.values()}) > 2
    deliver, arities = primitives.deliver_by_endpoint, []

    def checked(cluster, *args, **kwargs):
        deliver(cluster, *args, **kwargs)
        cluster.empty_round()  # a barrier, so that a row reads every machine
        resident = cluster.telemetry[-1].resident
        for i in cluster.small_ids:
            state = cluster.machines[i].state
            assert type(state["F"]) is Records
            assert resident[i] == sum(reference_words(list(v)) for v in state.values())
        arities.append({len(r) for i in cluster.small_ids
                        for r in cluster.machines[i].state["F"]})

    monkeypatch.setattr(primitives, "deliver_by_endpoint", checked)
    _, total = mst.f_light_filter(cl, labels, float("inf"))
    assert arities == [{6}, {5}]
    assert total == len(oracles.f_light_edges(64, forest, g.edges))


def test_superlinear_params():
    t, counts, p = mst.superlinear_params(256, 65536, Fraction(1, 2))
    assert t == 1
    # f = 1/log2(n) degenerates to the near-linear schedule
    t2, counts2, p2 = mst.superlinear_params(256, 4096, Fraction(1, 8))
    assert counts2[0] == mst._int_pow_floor(256, Fraction(2, 8))
    assert p2 == 1.0 / mst._int_pow_floor(
        256, Fraction(2 ** t2) * Fraction(1, 8) + Fraction(1, 8)
    )


def test_mst_superlinear_exact():
    g = generate_graph("gnm", 64, seed=2, m=1024, weighted=True)
    cl = make_cluster(64, 1024, seed=2, f_exp=Fraction(1, 2))
    forest, report = mst.mst_superlinear(cl, g)
    assert sorted(forest) == sorted(oracles.kruskal_msf(64, g.edges))
    assert report["t"] == math.ceil(
        math.log2(math.log(1024 / 64, 64) / 0.5)
    )


# -- the column steps against the tuple steps they replaced ---------------

WIDE = 2 ** 64  # a weight beyond int64: its batch has no int64 matrix


@st.composite
def edge_shards(draw):
    """Machine shards of edge records (u, v, w, ou, ov) on 5 vertices, so
    self-loops and parallel pairs are common; some shards empty, some with
    a weight beyond int64."""
    vertex = st.integers(0, 4)
    weight = st.integers(0, 3) | st.just(WIDE)
    record = st.tuples(vertex, vertex, weight, vertex, vertex)
    return draw(st.lists(st.lists(record, max_size=8), min_size=1, max_size=5))


def _forms(recs):
    """The batch in each form a machine may hold it: Records from tuples,
    and (when every field fits) Records from int64 columns."""
    out = [Records(recs)]
    if all(r[2] != WIDE for r in recs):
        out.append(as_records(np.array(recs, np.int64).reshape(len(recs), 5)))
    return out


def _same(got, want):
    """Equal once stored, the way Cluster.local stores a step's output."""
    got, want = as_records(got), as_records(want)
    assert type(got) is type(want) and got == want


def _per_segment(step, es, cut):
    """The `Cluster.segmented` step `step` run once over the columns of
    `es` cut at the ends `cut` (its nonempty segments are the machines),
    split back into each machine's output."""
    ends = [b for a, b in zip([0] + cut[:-1], cut) if b > a]
    if not ends:
        return []
    out_cut, cols = step(np.array(ends), es.columns())
    bounds = [0] + out_cut.tolist()
    return [cols[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=200, deadline=None)
@given(edge_shards(), st.lists(st.integers(0, 4), min_size=5, max_size=5),
       st.data())
def test_mst_column_steps_match_the_reference(shards, rep, data):
    got = dict(enumerate(rep))  # a contraction map over every vertex
    for shard in shards:
        for es in _forms(shard):
            for side in (0, 1):
                _same(mst._renamed(side)(es, got), mst_reference.rename_apply(side)(es, got))
        # the self-loop filter and the directed copies, in every form, and
        # the per-source counts, of the shard cut into machine segments
        # (some empty), each in one pass
        n = len(shard)
        cut = sorted(data.draw(st.lists(st.integers(0, n), max_size=3))) + [n]
        pieces = [shard[a:b] for a, b in zip([0] + cut[:-1], cut) if b > a]
        for es in _forms(shard):
            for step, ref in ((mst._drop_self_loops, mst_reference.drop_self_loops),
                              (primitives._directed_copies, mst_reference.copies)):
                outs = _per_segment(step, es, cut)
                assert len(outs) == len(pieces)
                for out, piece in zip(outs, pieces):
                    _same(out, ref(0, Records(piece)))
        for es in _forms(shard) + _forms(sorted(shard)):
            starts = [0] + cut[:-1]
            summary = primitives._counts_by_vertex(np.array(cut), es.columns())
            assert all(type(runs) is Records for runs in summary)
            assert [list(runs) for runs in summary] == [
                mst_reference.counts_by_vertex(es[a:b]) for a, b in zip(starts, cut)]
        # the parallel-edge sort: ranks in the order (pair key, record),
        # then the first record of each pair, after a predecessor whose
        # last pair is prev (possibly this shard's first pair)
        order = sorted({(mst_reference.pair_key(r), r) for r in shard})
        want = [order.index((mst_reference.pair_key(r), r)) for r in shard]
        pairs = [primitives._pair(r[0], r[1]) for r in shard]
        prev = data.draw(st.sampled_from([None, (0, 1)] + pairs))
        ordered = sorted(shard, key=lambda r: (mst_reference.pair_key(r), r))
        for es in _forms(shard):
            assert primitives._rank(es, mst._pair_key).tolist() == want
        for es in _forms(ordered) if ordered else []:
            (out,) = _per_segment(mst._first_per_pair([prev]), es, [n])
            _same(out, mst_reference.first_per_pair_step({7: prev})(7, es))
            assert mst._last_pairs(np.array([n]), es.columns()) == [
                primitives._pair(*ordered[-1][:2])]


@settings(max_examples=60, deadline=None)
@given(edge_shards(), st.sampled_from([8, 20, 40]))
def test_parallel_edge_filter_matches_the_reference(shards, m):
    # the sort, the predecessor's last pair and first_per_pair over a
    # cluster of small machines, so that a pair spans machines
    records = [r for shard in shards for r in shard]
    assume(records)
    out = []
    for sort, key in ((primitives.het_sort, mst._pair_key),
                      (sort_reference.het_sort, mst_reference.pair_key)):
        cl = make_cluster(16, m)  # K = m / 4 small machines
        distribute_edges(cl, records, placement="roundrobin")
        sort(cl, "E", key=key)
        if sort is primitives.het_sort:
            last = cl.segmented(mst._last_pairs, "E")
            pred = primitives.neighbor_shift(cl, last.get)
            cl.segmented(mst._first_per_pair([pred.get(i) for i in last]), "E", "E")
        else:
            last = cl.local(lambda _, es: primitives._pair(es[-1][0], es[-1][1])
                            if es else None, "E")
            pred = primitives.neighbor_shift(cl, last.get)
            cl.local(mst_reference.first_per_pair_step(pred), "E", "E")
        out.append(([cl.machines[i].state["E"] for i in cl.small_ids],
                    [(t.sent, t.received, t.resident) for t in cl.telemetry]))
    assert out[0] == out[1]


def test_weights_beyond_int64_run_the_same_protocol():
    # an order-preserving map of the weights past int64 leaves every
    # comparison, so every round and word, as it was; those batches have
    # no int64 matrix and take the object-column and Python-sort paths
    g = generate_graph("gnm", 64, seed=3, m=600, weighted=True)
    big = SimGraph(64, [(u, v, w * 2 ** 70 + 5) for u, v, w in g.edges], weighted=True)
    runs = []
    for graph in (g, big):
        cl, forest, _ = run_mst(graph, seed=1)
        assert sorted(forest) == sorted(oracles.kruskal_msf(graph.n, graph.edges))
        runs.append([(t.sent, t.received, t.resident, t.violations) for t in cl.telemetry])
    assert runs[0] == runs[1]


def _local_on_every_machine(self, fn, key, out=None):
    """`Cluster.local` as it ran before idle machines were skipped: fn on
    every small machine, an idle one with an empty batch."""
    results = {}
    for i in self.small_ids:
        value = results[i] = fn(i, self.machines[i].state.get(key, Records()))
        if out is None:
            continue
        sort_reference.place(self, out, {i: value})
    return results


@pytest.mark.parametrize("held", ["absent", "empty"])
def test_kkt_sample_runs_nothing_on_idle_machines(monkeypatch, held):
    # with "E" empty everywhere no machine draws, and the rounds read as
    # when every machine ran its (empty) draw
    rows, draws = [], []
    for local in (Cluster.local, _local_on_every_machine):
        monkeypatch.setattr(Cluster, "local", local)
        cl = make_cluster(256, 4096)
        if held == "empty":
            sort_reference.place(cl, "E", dict.fromkeys(cl.small_ids, Records()))
        calls, rng = [], cl.rng
        cl.rng = lambda *tags: calls.append(tags) or rng(*tags)
        assert mst.kkt_sample(cl, 0.5, 1) == []
        draws.append(len(calls))
        rows.append([(t.sent, t.received, t.resident, t.violations)
                     for t in cl.telemetry])
    assert draws == [0, len(cl.small_ids)] and len(cl.small_ids) == 256
    assert rows[0] == rows[1] and len(rows[0]) == 2


@pytest.mark.parametrize("k", [2, 3])
def test_modified_baswana_sen_spans_graphs_with_isolated_vertices(k):
    # centers are sampled from all of V = {0..n-1}, a third of which has
    # no edge here; the result is still a (2k-1)-spanner of the edges
    for seed in range(3):
        edges = generate_graph("gnp", 64, seed=seed, p=0.15).edges
        g = SimGraph(96, edges)
        cl = make_cluster(g.n, g.m, seed=seed)
        distribute_edges(cl, g.edges)
        H = spanner.modified_baswana_sen(cl, k, g.n ** (-1 / k))
        assert set(H) <= {tuple(sorted(e)) for e in g.edges}
        assert oracles.max_stretch(g, H) <= 2 * k - 1
        assert not any(t.violations for t in cl.telemetry)
