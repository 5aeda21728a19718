"""Minimum spanning forest: contraction, sampling, exactness."""

import math
from fractions import Fraction

import pytest

from hetmpc import mst, oracles, primitives
from hetmpc.graphio import SimGraph, generate_graph
from hetmpc.simcore import ClusterConfig, init_cluster


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
