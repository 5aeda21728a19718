"""Graph text format and generators."""

import pytest

from hetmpc import oracles
from hetmpc.graphio import format_graph, generate_graph, parse_graph
from hetmpc.simcore import ConfigError


def test_complete_n4_has_six_edges():
    g = generate_graph("complete", 4)
    assert g.n == 4 and g.m == 6
    assert sorted((u, v) for u, v, *_ in g.edges) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    ]


def test_two_cycles_split():
    g = generate_graph("two-cycles", 8, split=2)
    assert g.m == 8
    labels = oracles.components(8, [(u, v) for u, v, *_ in g.edges])
    assert len(set(labels)) == 2
    g1 = generate_graph("two-cycles", 8, split=1)
    assert g1.m == 8
    labels1 = oracles.components(8, [(u, v) for u, v, *_ in g1.edges])
    assert len(set(labels1)) == 1
    # the smallest accepted n: triangles
    g = generate_graph("two-cycles", 6, split=2)
    assert sorted(g.edges) == [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    assert generate_graph("two-cycles", 3, split=1).m == 3


@pytest.mark.parametrize("n,split", [(0, 1), (2, 1), (3, 2), (4, 2), (5, 2)])
def test_two_cycles_shorter_than_three_rejected(n, split):
    with pytest.raises(ConfigError):
        generate_graph("two-cycles", n, split=split)


def test_gnm_deterministic():
    a = format_graph(generate_graph("gnm", 100, seed=7, m=500))
    b = format_graph(generate_graph("gnm", 100, seed=7, m=500))
    assert a == b


def test_format_parse_roundtrip():
    for weighted in (False, True):
        g = generate_graph("gnp", 32, seed=3, p=0.2, weighted=weighted)
        h = parse_graph(format_graph(g))
        assert h.n == g.n and h.edges == g.edges


def test_gnp_edges_normalized_and_simple():
    g = generate_graph("gnp", 64, seed=1, p=0.1)
    seen = set()
    for u, v, *_ in g.edges:
        assert 0 <= u < v < 64
        assert (u, v) not in seen
        seen.add((u, v))


def test_star_and_grid_shapes():
    star = generate_graph("star", 9)
    assert star.m == 8
    degs = star.degrees()
    assert max(degs) == 8 and sorted(degs)[:-1] == [1] * 8
    grid = generate_graph("grid", 16)
    # 4x4 grid: 2 * 4 * 3 edges
    assert grid.m == 24


def test_unknown_kind_rejected():
    with pytest.raises(Exception):
        generate_graph("nosuch", 8)
