"""Simulated-cost fingerprint: rounds, words sent and peak resident words of
fixed MST, spanner and matching runs.  A host-speed change must leave all
three bit-identical."""

import pytest

from hetmpc import matching, mst, spanner
from hetmpc.graphio import generate_graph
from hetmpc.simcore import ClusterConfig, init_cluster

# seed -> (words sent, max resident words) for mst on weighted G(256, 4096)
MST_FINGERPRINT = {
    0: (881_927, 360),
    1: (887_418, 350),
    2: (899_223, 330),
    3: (894_296, 340),
    4: (883_602, 335),
}

# seed -> (rounds, words sent, max resident words) for spanner(k=2) on
# G(256, p=0.1)
SPANNER_FINGERPRINT = {
    0: (105, 498_830, 545),
    1: (105, 486_573, 192),
    2: (105, 509_069, 299),
}

# seed -> (rounds, words sent, max resident words) for maximal_matching on
# G(512, p=8/512); statuses are delivered by both endpoints and each sort
# carries only the edges still free-free
MATCHING_FINGERPRINT = {
    0: (81, 143_071, 1556),
    1: (75, 144_234, 1217),
    2: (69, 147_538, 623),
}


def sim_cost(cl):
    words = sum(sum(t.sent.values()) for t in cl.telemetry)
    peak = max(max(t.resident.values(), default=0) for t in cl.telemetry)
    return words, peak


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
    spanner.spanner(cl, g, 2)
    assert (cl.rounds_used, *sim_cost(cl)) == SPANNER_FINGERPRINT[seed]


@pytest.mark.parametrize("seed", sorted(MATCHING_FINGERPRINT))
def test_matching_fingerprint(seed):
    g = generate_graph("gnp", 512, seed=seed, p=8 / 512)
    cl = init_cluster(ClusterConfig(n=512, m=g.m, gamma=0.5, seed=seed))
    matching.maximal_matching(cl, g)
    assert (cl.rounds_used, *sim_cost(cl)) == MATCHING_FINGERPRINT[seed]
