"""Simulated-cost fingerprint: rounds, words sent and peak resident words of
fixed MST, spanner, matching and sketch runs.  A host-speed change must
leave all three bit-identical.  The words are those of het_sort sending
samples, splitters and summary boundaries as bare records."""

import hashlib

import pytest

from hetmpc import connectivity, matching, mst, oracles, spanner
from hetmpc.graphio import generate_graph
from hetmpc.simcore import Cluster, ClusterConfig, distribute_edges, init_cluster

from meter_reference import reference_charges  # beside this file

# seed -> (words sent, max resident words) for mst on weighted G(256, 4096)
MST_FINGERPRINT = {
    0: (655_651, 360),
    1: (659_977, 350),
    2: (668_515, 330),
    3: (665_029, 340),
    4: (656_783, 335),
}

# seed -> (rounds, words sent, max resident words) for spanner(k=2) on
# G(256, p=0.1); the level records are built from values disseminated over
# the arranged directed copies and one delivery by the second endpoint.
# All levels run as one stage through the round barrier, with no
# per-level copy of the records resident
SPANNER_FINGERPRINT = {
    0: (95, 442_342, 346),
    1: (95, 431_150, 148),
    2: (95, 451_168, 200),
}

# seed -> sha256 of the sorted spanner edges of the runs above; a protocol
# change may move the cost fingerprint but must leave these outputs alone
SPANNER_OUTPUT = {
    0: "7c4adea965d25a295cb00999ad021345c3232e63cb3b587e7f43c4fe72974742",
    1: "4fe2fd91956a0b0558ce6177a0f3390deed2912bf8659d64c5da417238d6006b",
    2: "6ee51bb838564036be8377980a96811e0d96a884915151bae37cd1011f8762b7",
}

# seed -> (rounds, words sent, max resident words, |H|) for spanner(k=2) on
# G(128, p=0.8), whose level 6 is sub-sampled (Baswana-Sen on the large
# machine) rather than shipped whole.  Samples, history keys and removal
# candidates carry their level, so that concurrent levels share one stage
SPANNER_SUBSAMPLED_FINGERPRINT = {
    0: (95, 1_505_632, 164, 129),
    1: (95, 1_517_266, 122, 129),
}

SPANNER_SUBSAMPLED_OUTPUT = {
    0: "4963ad92127ad35d0300961285ab965bc56a049d6f87cedd386e9f36933e1f4b",
    1: "1cfa958107cd541432a6132b3f436dfccd632393f349069bdb1e908ad14ca85f",
}

# (rounds, words sent, max resident words, |H|) for
# modified_baswana_sen(k=3, p=0.5) on G(512, p=0.02) seed 0; each record
# carries its first endpoint's history tail (k-1 words) into the second
# delivery
MBS_FINGERPRINT = (43, 156_216, 1152, 2736)
MBS_OUTPUT = "f15cfec470e67a1dcdd7b85631322e7f1d7fcd6264b41a98be56c9a5e97fa4cb"

# seed -> (rounds, words sent, max resident words) for maximal_matching on
# G(512, p=8/512); statuses are delivered by both endpoints and each sort
# carries only the edges still free-free
MATCHING_FINGERPRINT = {
    0: (81, 113_569, 1556),
    1: (75, 114_565, 1217),
    2: (69, 117_233, 623),
}

# (rounds, words sent, max resident words) for connected_components on
# G(128, p=1.5/128) seed 0 (30 components, 6 Boruvka phases); sketch
# partials send only their occupied cells
CC_FINGERPRINT = (18, 36_163, 138)

# (rounds, words sent, max resident words, estimate, components per
# threshold) for mst_weight_estimate on weighted G(64, p=0.1), W=8,
# eps=0.25, seed 0; one aggregation of (vertex, weight class) partials
# whose arranged records keep their weight
ESTIMATE_FINGERPRINT = (
    18, 71_272, 294, 138.68413543701172,
    [33, 33, 33, 33, 19, 8, 8, 4, 3, 1, 1],
)


# run -> sha256 over every telemetry row (round, sent, received, resident,
# violations) in order, dicts in their insertion order; the totals above
# would pass a reordered or shifted row, these would not
TELEMETRY_ROWS = {
    "mst": "4a39fb7526fefbd27bced27939463a990949cb950ca8cd0f0c4157b7d89ee9dc",
    "spanner": "139f1590e6ccac749297c62a049be205e03798265842085791389c7391aa82fb",
    "matching": "82af2773f9fd7d325059cd513740d349fa2eaae26a0cac7674ff2c4d8d4bde62",
    "cc": "af3f70a283f31611c791cf2d6ac89ee259f36287bd0ac02de9d380b6542ca894",
    "estimate": "0e90b999e01600d87f965a17f88602e97702eee025dea449849eb09dc77e143d",
}


def sim_cost(cl):
    words = sum(sum(t.sent.values()) for t in cl.telemetry)
    peak = max(max(t.resident.values(), default=0) for t in cl.telemetry)
    return words, peak


def rows_sha256(cl):
    h = hashlib.sha256()
    for t in cl.telemetry:
        h.update(repr((t.round, t.sent, t.received, t.resident,
                       t.violations)).encode())
    return h.hexdigest()


def edges_sha256(H):
    return hashlib.sha256(repr(sorted(H)).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(MST_FINGERPRINT))
def test_mst_fingerprint(seed):
    g = generate_graph("gnm", 256, seed=seed, m=4096, weighted=True)
    cl = init_cluster(ClusterConfig(n=256, m=4096, gamma=0.5, seed=seed))
    mst.mst(cl, g)
    assert cl.rounds_used == 134
    assert sim_cost(cl) == MST_FINGERPRINT[seed]


@pytest.mark.parametrize("seed", sorted(SPANNER_FINGERPRINT))
def test_spanner_fingerprint(seed):
    g = generate_graph("gnp", 256, seed=seed, p=0.1)
    cl = init_cluster(ClusterConfig(n=256, m=g.m, gamma=0.5, seed=seed))
    H, _ = spanner.spanner(cl, g, 2)
    assert (cl.rounds_used, *sim_cost(cl)) == SPANNER_FINGERPRINT[seed]
    assert edges_sha256(H) == SPANNER_OUTPUT[seed]


@pytest.mark.parametrize("seed", sorted(SPANNER_SUBSAMPLED_FINGERPRINT))
def test_spanner_subsampled_fingerprint(seed):
    g = generate_graph("gnp", 128, seed=seed, p=0.8)
    cl = init_cluster(ClusterConfig(n=128, m=g.m, gamma=0.5, seed=seed))
    H, report = spanner.spanner(cl, g, 2)
    assert report["per_level"][6]["case"] == "sub-sampled"
    got = (cl.rounds_used, *sim_cost(cl), len(H))
    assert got == SPANNER_SUBSAMPLED_FINGERPRINT[seed]
    assert edges_sha256(H) == SPANNER_SUBSAMPLED_OUTPUT[seed]


def test_mbs_fingerprint():
    g = generate_graph("gnp", 512, seed=0, p=0.02)
    cl = init_cluster(ClusterConfig(n=512, m=g.m, gamma=0.5, seed=0))
    distribute_edges(cl, g.edges)
    H = spanner.modified_baswana_sen(cl, 3, 0.5)
    assert (cl.rounds_used, *sim_cost(cl), len(H)) == MBS_FINGERPRINT
    assert edges_sha256(H) == MBS_OUTPUT


@pytest.mark.parametrize("seed", sorted(MATCHING_FINGERPRINT))
def test_matching_fingerprint(seed):
    g = generate_graph("gnp", 512, seed=seed, p=8 / 512)
    cl = init_cluster(ClusterConfig(n=512, m=g.m, gamma=0.5, seed=seed))
    matching.maximal_matching(cl, g)
    assert (cl.rounds_used, *sim_cost(cl)) == MATCHING_FINGERPRINT[seed]


def test_cc_fingerprint():
    g = generate_graph("gnp", 128, seed=0, p=1.5 / 128)
    cl = init_cluster(ClusterConfig(n=128, m=g.m, gamma=0.5, seed=0))
    labels, report = connectivity.connected_components(cl, g)
    assert (cl.rounds_used, *sim_cost(cl)) == CC_FINGERPRINT
    assert [labels[v] for v in range(128)] == oracles.components(128, g.edges)
    assert len(set(labels.values())) == 30
    assert (report["phases"], report["retried"]) == (6, 0)


def test_estimate_fingerprint():
    g = generate_graph("gnp", 64, seed=0, p=0.1, weighted=True, max_weight=8)
    cl = init_cluster(ClusterConfig(n=64, m=g.m, gamma=0.5, seed=0))
    est, report = connectivity.mst_weight_estimate(cl, g, eps=0.25,
                                                   max_weight=8)
    got = (cl.rounds_used, *sim_cost(cl), est, report["cc_per_threshold"])
    assert got == ESTIMATE_FINGERPRINT


def _mst_run():
    g = generate_graph("gnm", 256, seed=0, m=4096, weighted=True)
    cl = init_cluster(ClusterConfig(n=256, m=4096, gamma=0.5, seed=0))
    mst.mst(cl, g)
    return cl


def _spanner_run(n, p):
    g = generate_graph("gnp", n, seed=0, p=p)
    cl = init_cluster(ClusterConfig(n=n, m=g.m, gamma=0.5, seed=0))
    spanner.spanner(cl, g, 2)
    return cl


def _mbs_run():
    g = generate_graph("gnp", 512, seed=0, p=0.02)
    cl = init_cluster(ClusterConfig(n=512, m=g.m, gamma=0.5, seed=0))
    distribute_edges(cl, g.edges)
    spanner.modified_baswana_sen(cl, 3, 0.5)
    return cl


def _matching_run():
    g = generate_graph("gnp", 512, seed=0, p=8 / 512)
    cl = init_cluster(ClusterConfig(n=512, m=g.m, gamma=0.5, seed=0))
    matching.maximal_matching(cl, g)
    return cl


def _cc_run():
    g = generate_graph("gnp", 128, seed=0, p=1.5 / 128)
    cl = init_cluster(ClusterConfig(n=128, m=g.m, gamma=0.5, seed=0))
    connectivity.connected_components(cl, g)
    return cl


def _estimate_run():
    g = generate_graph("gnp", 64, seed=0, p=0.1, weighted=True, max_weight=8)
    cl = init_cluster(ClusterConfig(n=64, m=g.m, gamma=0.5, seed=0))
    connectivity.mst_weight_estimate(cl, g, eps=0.25, max_weight=8)
    return cl


BARRIER_RUNS = {
    "mst": _mst_run,
    "spanner": lambda: _spanner_run(256, 0.1),
    "spanner-subsampled": lambda: _spanner_run(128, 0.8),
    "mbs": _mbs_run,
    "matching": _matching_run,
}


@pytest.mark.parametrize("name", sorted(BARRIER_RUNS))
def test_every_telemetry_row_is_one_round(name, monkeypatch):
    calls = []
    real = Cluster.round

    def counted(self, sends):
        calls.append(len(self.telemetry))
        return real(self, sends)

    monkeypatch.setattr(Cluster, "round", counted)
    cl = BARRIER_RUNS[name]()
    assert len(calls) == cl.rounds_used == len(cl.telemetry)


ROW_RUNS = {
    "mst": _mst_run,
    "spanner": lambda: _spanner_run(256, 0.1),
    "matching": _matching_run,
    "cc": _cc_run,
    "estimate": _estimate_run,
}


@pytest.mark.parametrize("name", sorted(TELEMETRY_ROWS))
def test_telemetry_rows(name):
    assert rows_sha256(ROW_RUNS[name]()) == TELEMETRY_ROWS[name]


@pytest.mark.parametrize("name", sorted(ROW_RUNS))
def test_barrier_charges_match_the_reference_meter(name, monkeypatch):
    # every send of every round re-metered by the slow meter: its header
    # plus the recursive walk of each record of its slice
    real = Cluster.round
    checked = []

    def metered(self, sends):
        want = reference_charges(sends)
        real(self, sends)
        t = self.telemetry[-1]
        assert (list(t.sent.items()), list(t.received.items())) == tuple(
            list(side.items()) for side in want)
        checked.append(len(sends))

    monkeypatch.setattr(Cluster, "round", metered)
    cl = ROW_RUNS[name]()
    assert len(checked) == cl.rounds_used and sum(checked) > 0
