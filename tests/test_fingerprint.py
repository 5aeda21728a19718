"""Simulated-cost fingerprint: rounds, words sent and peak resident words of
fixed MST runs.  A host-speed change must leave all three bit-identical."""

import pytest

from hetmpc import mst
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


@pytest.mark.parametrize("seed", sorted(MST_FINGERPRINT))
def test_mst_fingerprint(seed):
    g = generate_graph("gnm", 256, seed=seed, m=4096, weighted=True)
    cl = init_cluster(ClusterConfig(n=256, m=4096, gamma=0.5, seed=seed))
    mst.mst(cl, g)
    words = sum(sum(t.sent.values()) for t in cl.telemetry)
    peak = max(max(t.resident.values(), default=0) for t in cl.telemetry)
    assert cl.rounds_used == 134
    assert (words, peak) == MST_FINGERPRINT[seed]
