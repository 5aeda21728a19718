"""Maximal matching: the three phases and the superlinear recursion."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hetmpc import matching, oracles
from hetmpc.graphio import SimGraph, generate_graph
from hetmpc.simcore import ClusterConfig, RunFailed, distribute_edges, init_cluster

import matching_reference  # the host-dict phase 1, beside this file


def make_cluster(n, m, seed=0, f_exp=None):
    return init_cluster(
        ClusterConfig(n=n, m=max(1, m), gamma=0.5, seed=seed, f_exp=f_exp)
    )


def run_matching(graph, seed=0):
    cl = make_cluster(graph.n, graph.m, seed=seed)
    M, report = matching.maximal_matching(cl, graph)
    return cl, M, report


def test_empty_graph():
    _, M, report = run_matching(SimGraph(8, []))
    assert M == []
    # the report has every key of a run on edges, with zeros
    _, _, full = run_matching(SimGraph(4, [(1, 2)]))
    assert set(report) == set(full)
    assert report["size"] == report["retried"] == 0
    assert report["post_phase1_rounds"] == 0


def test_perfect_matching_input():
    edges = [(2 * i, 2 * i + 1) for i in range(8)]
    _, M, _ = run_matching(SimGraph(16, edges))
    assert sorted(M) == sorted(edges)


def test_single_edge():
    _, M, _ = run_matching(SimGraph(4, [(1, 2)]))
    assert M == [(1, 2)]


def test_odd_cycle_c9():
    edges = [(i, (i + 1) % 9) for i in range(9)]
    g = SimGraph(9, edges)
    _, M, _ = run_matching(g)
    assert len(M) == 4
    assert oracles.is_maximal_matching(g, M)


def test_complete_bipartite_k88():
    edges = [(i, 8 + j) for i in range(8) for j in range(8)]
    g = SimGraph(16, edges)
    _, M, _ = run_matching(g)
    assert len(M) == 8
    assert oracles.is_maximal_matching(g, M)


def test_degree_split_threshold():
    g = generate_graph("gnp", 64, seed=1, p=0.2)
    cl = make_cluster(64, g.m, seed=1)
    distribute_edges(cl, g.edges)
    state = matching.degree_split(cl, g)
    d = state.d
    degs = g.degrees()
    for v in state.v_low:
        assert degs[v] <= d * d
    for v in state.v_high:
        assert degs[v] > d * d
    assert len(state.v_high) <= g.n / d


def test_low_degree_graph_phase1_maximal():
    # all degrees <= d^2: Phase 1 alone must leave no low-low edge free
    g = generate_graph("grid", 64, seed=2)
    cl, M, report = run_matching(g)
    assert report["v_high"] == 0
    assert report["phase_sizes"][1] == 0
    assert oracles.is_maximal_matching(g, M)


def test_random_graphs_maximal():
    for seed in range(8):
        kind = ["gnp", "gnm", "star", "grid"][seed % 4]
        kwargs = {"p": 0.05} if kind == "gnp" else {"m": 512} if kind == "gnm" else {}
        g = generate_graph(kind, 128, seed=seed, **kwargs)
        cl, M, report = run_matching(g, seed=seed)
        assert oracles.is_matching(M)
        assert oracles.is_maximal_matching(g, M)
        assert not any(t.violations for t in cl.telemetry)


def test_planted_hubs():
    rngedges = set()
    for h in range(4):  # hubs 0..3 adjacent to everything
        for v in range(4, 128):
            rngedges.add((h, v))
    g = SimGraph(128, sorted(rngedges))
    _, M, _ = run_matching(g, seed=9)
    assert oracles.is_maximal_matching(g, M)
    matched = {v for e in M for v in e}
    assert all(h in matched for h in range(4))


def test_adjacent_hubs_collect_their_shared_edges():
    # each hub-hub edge is collected by both of its endpoints in phase 2,
    # which must not count as a rank collision
    edges = {(a, b) for a in range(4) for b in range(a + 1, 4)}
    edges |= {(h, v) for h in range(4) for v in range(4, 256)
              if (h + v) % 3 != 0}
    edges |= {(v, v + 1) for v in range(4, 256, 2)}
    g = SimGraph(256, sorted(edges))
    assert g.m == 804
    for seed in range(20):
        _, M, _ = run_matching(g, seed=seed)
        assert oracles.is_maximal_matching(g, M)


def test_superlinear_small_input_depth1():
    g = generate_graph("gnm", 64, seed=3, m=128)
    cl = make_cluster(64, g.m, seed=3, f_exp=Fraction(1, 2))
    M, report = matching.matching_superlinear(cl, g)
    assert report["depth"] == 1
    assert oracles.is_maximal_matching(g, M)


def test_superlinear_depth_bound_and_maximality():
    for seed in range(5):
        g = generate_graph("gnm", 64, seed=seed, m=1500)
        cl = make_cluster(64, g.m, seed=seed, f_exp=Fraction(1, 2))
        M, report = matching.matching_superlinear(cl, g)
        assert report["depth"] <= 3
        assert oracles.is_maximal_matching(g, M)


def test_superlinear_recursion_depth2_maximal():
    # stop_c=1 lowers the cap below m, so the recursion samples once and
    # extends the sampled matching over the delivered free-free edges
    for seed in range(3):
        g = generate_graph("gnm", 128, seed=seed, m=2048)
        cl = make_cluster(128, g.m, seed=seed, f_exp=Fraction(1, 2))
        M, report = matching.matching_superlinear(cl, g, stop_c=1)
        assert report["depth"] == 2
        assert oracles.is_maximal_matching(g, M)


def test_phase2_leaves_exactly_free_free_edges():
    # hubs 0 and 1 see every other vertex; 2..251 pair up, so phase 1
    # matches them and a hub's collected edges may all lead to matched
    # vertices, leaving hub edges to the free vertices 252..255
    n = 256
    edges = [(h, v) for h in (0, 1) for v in range(2, n)]
    edges += [(v, v + 1) for v in range(2, 252, 2)]
    g = SimGraph(n, edges)
    cl = make_cluster(n, g.m, seed=0)
    distribute_edges(cl, g.edges)
    state = matching.degree_split(cl, g)
    matching.phase1_low_degree(cl, state)
    matching.phase2_high_degree(cl, state)
    matched = state.matched_vertices()
    want = {e for e in g.edges if e[0] not in matched and e[1] not in matched}
    held = [e for mid in cl.small_ids for e in cl.machines[mid].state.get("E") or []]
    assert want
    assert sorted(held) == sorted(want)


def test_superlinear_requires_f():
    g = generate_graph("gnm", 64, seed=1, m=128)
    cl = make_cluster(64, g.m)
    try:
        matching.matching_superlinear(cl, g)
    except Exception:
        return
    raise AssertionError("expected a configuration error without f")


def test_retry_leaves_config_seed_unchanged(monkeypatch):
    g = generate_graph("gnp", 64, seed=4, p=0.1)
    real = matching.phase3_residual
    calls = []

    def fail_once(cluster, state):
        calls.append(1)
        return None if len(calls) == 1 else real(cluster, state)

    monkeypatch.setattr(matching, "phase3_residual", fail_once)
    cl = make_cluster(64, g.m, seed=7)
    M, report = matching.maximal_matching(cl, g)
    assert report["retried"] == 1 and len(calls) == 2
    assert cl.config.seed == 7
    assert oracles.is_maximal_matching(g, M)
    # the retry drew from the substreams of seed + 2^32
    monkeypatch.setattr(matching, "phase3_residual", real)
    fresh, _ = matching.maximal_matching(make_cluster(64, g.m, seed=7 + (1 << 32)), g)
    assert M == fresh


def test_failed_retry_leaves_config_seed_unchanged(monkeypatch):
    g = generate_graph("gnp", 64, seed=4, p=0.1)
    monkeypatch.setattr(matching, "phase3_residual", lambda *args: None)
    cl = make_cluster(64, g.m, seed=7)
    with pytest.raises(RunFailed):
        matching.maximal_matching(cl, g)
    assert cl.config.seed == 7


@st.composite
def phase1_cases(draw):
    """(graph, gamma, cluster seed): a gnp, gnm, star or grid graph with
    at least one edge on n <= 128 vertices."""
    kind = draw(st.sampled_from(["gnp", "gnm", "star", "grid"]))
    n = draw(st.integers(2, 128))
    kwargs = ({"p": draw(st.floats(0.0, 0.3))} if kind == "gnp"
              else {"m": draw(st.integers(1, min(4 * n, n * (n - 1) // 2)))}
              if kind == "gnm" else {})
    g = generate_graph(kind, n, seed=draw(st.integers(0, 2 ** 16)), **kwargs)
    assume(g.m > 0)
    return g, draw(st.sampled_from([0.5, 0.8])), draw(st.integers(0, 2 ** 32))


def phase1_trace(phase1, g, gamma, seed):
    """(M1, what phase 1 stored as (key, records, cut), every telemetry
    row as (sent items, received items, resident, violations), the
    cluster, the state) of `phase1` on a fresh cluster of `g`."""
    cl = init_cluster(ClusterConfig(n=g.n, m=g.m, gamma=gamma, seed=seed))
    distribute_edges(cl, g.edges)
    state = matching.degree_split(cl, g)
    stored, store = [], cl.store

    def spy(key, records, cut):
        stored.append((key, records, list(cut)))
        store(key, records, cut)

    cl.store = spy
    m1 = phase1(cl, state)
    rows = [(list(t.sent.items()), list(t.received.items()), t.resident, t.violations)
            for t in cl.telemetry]
    return m1, stored, rows, cl, state


# K = 1 (m <= n^gamma); a star, whose hub is high-degree and which has no
# low-low edge; a grid of low-degree vertices only
@example(case=(generate_graph("gnm", 128, seed=1, m=40), 0.8, 5))
@example(case=(generate_graph("star", 64), 0.5, 3))
@example(case=(generate_graph("grid", 100, seed=2), 0.5, 11))
@settings(max_examples=100, deadline=None)
@given(phase1_cases())
def test_phase1_matches_the_reference(case):
    # the array steps send, store and match exactly what the host dicts did
    new = phase1_trace(matching.phase1_low_degree, *case)
    ref = phase1_trace(matching_reference.phase1_low_degree, *case)
    assert new[:3] == ref[:3]
    assert [key for key, _, _ in new[1]] == ["P"]


@example(case=(generate_graph("star", 64), 0.5, 3))
@settings(max_examples=50, deadline=None)
@given(phase1_cases())
def test_phase1_leaves_no_free_low_low_edge(case):
    g = case[0]
    m1, _, _, cl, state = phase1_trace(matching.phase1_low_degree, *case)
    matched = [v for e in m1 for v in e]
    assert len(matched) == len(set(matched))
    assert set(m1) <= set(g.edges)
    low = state.v_low
    assert not [e for e in g.edges if low.issuperset(e) and not set(e) & set(matched)]
    assert "P" not in cl.machines[1].state
