"""Spanner pipeline: clustering decomposition, center levels, combination."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetmpc import oracles, spanner
from hetmpc.graphio import SimGraph, generate_graph
from hetmpc.simcore import ClusterConfig, ConfigError, distribute_edges, init_cluster

import stretch_reference  # the full-BFS max_stretch, beside this file


def make_cluster(n, m, seed=0):
    return init_cluster(ClusterConfig(n=n, m=max(1, m), gamma=0.5, seed=seed))


def decompose(graph, seed=0):
    cl = make_cluster(graph.n, graph.m, seed=seed)
    distribute_edges(cl, graph.edges)
    return cl, spanner.clustering_graphs(cl, graph)


def test_bucket_level_intervals():
    assert spanner.bucket_level(1, 8) == 0
    assert spanner.bucket_level(2, 8) == 1
    assert spanner.bucket_level(3, 8) == 1
    assert spanner.bucket_level(4, 8) == 2
    assert spanner.bucket_level(1 << 20, 8) == 7  # clamped to the top level


def test_decomposition_star_graph():
    g = generate_graph("star", 9)
    _, deco = decompose(g)
    # leaves have degree 1: they sit only in B_0 and center themselves
    for v in range(1, 9):
        assert deco.sigma[v] in (v, 0)
    # every edge is inside a star or in some bucket
    covered = set(deco.star_edges)
    assert all(e in covered or deco.sigma[e[0]] != deco.sigma[e[1]]
               for e in g.edges)


def test_decomposition_invariants_random():
    g = generate_graph("gnp", 64, seed=6, p=0.15)
    _, deco = decompose(g, seed=6)
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    # B sets shrink with the level and B_i contains every sigma image of
    # its members
    for i in range(1, deco.levels):
        assert deco.b_sets[i] <= deco.b_sets[i - 1]
    # hitting property after patching: every vertex of degree >= 2^i has a
    # neighbor in D_i or belongs to D_i itself
    for i in range(1, deco.levels):
        d_i = deco.hitting[i]
        for v, dv in deco.deg.items():
            if dv >= 2 ** i:
                assert v in d_i or any(u in d_i for u in adj[v])
    # sigma maps each vertex into the B set of its own level, and star
    # edges are original edges
    for u, su in deco.sigma.items():
        assert su == u or (min(u, su), max(u, su)) in set(g.edges)
    # every original edge is covered: same star, or recorded in a bucket
    seen = set()
    for lvl in deco.bucket_sizes:
        seen.add(lvl)
    for u, v in g.edges:
        assert deco.sigma[u] == deco.sigma[v] or spanner.bucket_level(
            min(deco.deg[u], deco.deg[v]), deco.levels) in seen


def test_level_records_match_host_reference():
    for seed, p in ((0, 0.1), (6, 0.15), (3, 0.4)):
        g = generate_graph("gnp", 64, seed=seed, p=p)
        cl, deco = decompose(g, seed=seed)
        got = {}
        for mid in cl.small_ids:
            for lvl, c, cp, wu, wv in cl.machines[mid].state["A"]:
                key = (lvl, c, cp)
                got[key] = min(got.get(key, (wu, wv)), (wu, wv))
        want = {}
        for u, v in g.edges:
            su, sv = deco.sigma[u], deco.sigma[v]
            if su == sv:
                continue
            lvl = spanner.bucket_level(min(deco.deg[u], deco.deg[v]), deco.levels)
            key = (lvl, min(su, sv), max(su, sv))
            want[key] = min(want.get(key, (u, v)), (u, v))
        assert want and got == want
        sizes = {}
        for lvl, _, _ in want:
            sizes[lvl] = sizes.get(lvl, 0) + 1
        assert deco.bucket_sizes == sizes
        # the input edges and their directed copies are gone
        assert not any(key in cl.machines[mid].state
                       for mid in cl.small_ids for key in ("E", "D"))


def test_decomposition_size_bounds():
    n = 256
    for seed in range(5):
        g = generate_graph("gnp", n, seed=seed, p=0.1)
        _, deco = decompose(g, seed=seed)
        for i, size in deco.bucket_sizes.items():
            assert size <= 8 * n * 2 ** i
        for i in range(deco.levels):
            assert len(deco.vertices_at(i)) <= 8 * n * max(1, i) / 2 ** i


@st.composite
def graph_and_subgraph(draw):
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30))
    # H is a subset of the edges, plus a few pairs that are not edges
    h = draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    h += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return SimGraph(n, draw(st.permutations(edges))), h


@settings(max_examples=300, deadline=None)
@given(graph_and_subgraph())
def test_max_stretch_matches_the_reference(case):
    # the same value, None included when H leaves some edge disconnected
    g, h = case
    assert oracles.max_stretch(g, h) == stretch_reference.max_stretch(g, h)


def test_mbs_full_probability_classic_stretch():
    g = generate_graph("gnp", 64, seed=1, p=0.15)
    cl = make_cluster(64, g.m, seed=1)
    distribute_edges(cl, g.edges)
    H = spanner.modified_baswana_sen(cl, 2, 1.0)
    assert oracles.max_stretch(g, H) <= 3  # 2k-1 with k=2


def test_mbs_k1_keeps_whole_graph():
    g = generate_graph("gnp", 32, seed=2, p=0.2)
    cl = make_cluster(32, g.m, seed=2)
    distribute_edges(cl, g.edges)
    H = spanner.modified_baswana_sen(cl, 1, 1.0)
    assert oracles.max_stretch(g, H) == 1


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_is_config_error(k):
    g = generate_graph("gnp", 32, seed=1, p=0.2)
    with pytest.raises(ConfigError):
        spanner.spanner(make_cluster(g.n, g.m), g, k)
    cl = make_cluster(g.n, g.m)
    distribute_edges(cl, g.edges)
    with pytest.raises(ConfigError):
        spanner.modified_baswana_sen(cl, k, 1.0)
    assert cl.rounds_used == 0


def test_greedy_spanner_bound():
    g = generate_graph("gnp", 64, seed=3, p=0.3)
    H = spanner.greedy_spanner(g.edges, 3)
    assert oracles.max_stretch(g, H) <= 3
    assert len(H) <= len(g.edges)


def test_level_probability():
    assert spanner.level_probability(0, 2) == 1.0
    assert spanner.level_probability(1, 2) == 1.0  # k^2 * 1 / 2 >= 1
    assert 0 < spanner.level_probability(12, 2) < 1


def test_spanner_tree_input_contains_bridges():
    edges = [(i, i + 1) for i in range(31)]
    g = SimGraph(32, edges)
    cl = make_cluster(32, len(edges), seed=4)
    H, _ = spanner.spanner(cl, g, 2)
    assert sorted(H) == sorted(edges)


def test_spanner_stretch_and_report():
    g = generate_graph("gnp", 128, seed=5, p=0.1)
    cl = make_cluster(128, g.m, seed=5)
    H, report = spanner.spanner(cl, g, 2)
    assert oracles.max_stretch(g, H) <= 11  # 6k-1 with k=2
    assert report["size"] == len(H)
    assert not any(t.violations for t in cl.telemetry)


def test_spanner_large_k_polylog():
    g = generate_graph("gnm", 256, seed=7, m=8192)
    cl = make_cluster(256, g.m, seed=7)
    k = 8
    H, _ = spanner.spanner(cl, g, k)
    assert len(H) <= 64 * 256  # near-linear for large k
    assert oracles.max_stretch(g, H) <= 6 * k - 1
