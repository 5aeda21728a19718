"""Randomized retries: one forced failure is retried to a valid output,
two raise RunFailed, and either way every small machine is left storing
only keys that a clean run of the same input leaves."""

import random
from fractions import Fraction

import pytest

from hetmpc import matching, mst, oracles
from hetmpc.graphio import generate_graph
from hetmpc.simcore import ClusterConfig, RunFailed, init_cluster


def make_cluster(graph, seed=0, f_exp=None):
    return init_cluster(ClusterConfig(n=graph.n, m=max(1, graph.m), gamma=0.5,
                                      seed=seed, f_exp=f_exp))


def keys_left(cluster):
    return {key for i in cluster.small_ids for key in cluster.machines[i].state}


def clean_keys(run, graph, **kwargs):
    cl = make_cluster(graph, **kwargs)
    run(cl, graph)
    return keys_left(cl)


@pytest.mark.parametrize("failures", [1, "all"])
def test_mst_sampling_repetitions(monkeypatch, failures):
    # at m = 2n contraction runs no step, so every repetition samples and
    # filters edges; a forced abort discards a filter's light edges
    g = generate_graph("gnm", 64, seed=5, m=128, weighted=True)
    clean = clean_keys(mst.mst, g)
    real, calls = mst.f_light_filter, []

    def aborts(cluster, labels, threshold):
        calls.append(1)
        light, total = real(cluster, labels, threshold)
        return (None, total) if failures == "all" or len(calls) <= failures else (light, total)

    monkeypatch.setattr(mst, "f_light_filter", aborts)
    cl = make_cluster(g)
    if failures == "all":
        with pytest.raises(RunFailed, match="sampling repetitions aborted"):
            mst.mst(cl, g)
        assert len(calls) > 2
    else:
        forest, report = mst.mst(cl, g)
        assert report["repetitions_run"] == 2
        assert sorted(forest) == sorted(oracles.kruskal_msf(g.n, g.edges))
    assert keys_left(cl) <= clean == {"E"}


class _Tied(random.Random):
    """A stream whose every rank is the lowest one."""

    def randint(self, a, b):
        return a


@pytest.mark.parametrize("collisions", [1, 2])
def test_matching_phase2_rank_collisions(collisions):
    # the star's hub is its one high-degree vertex and collects several
    # edges, so equal ranks on every edge collide
    g = generate_graph("star", 16)
    clean = clean_keys(matching.maximal_matching, g)
    cl = make_cluster(g)
    real, attempts = cl.rng, set()

    def rng(*tags):
        if tags[0] != "ranks":
            return real(*tags)
        attempts.add(tags[1])
        return _Tied() if tags[1] < collisions else real(*tags)

    cl.rng = rng
    if collisions == 2:
        with pytest.raises(RunFailed, match="collided twice"):
            matching.maximal_matching(cl, g)
    else:
        M, _ = matching.maximal_matching(cl, g)
        assert oracles.is_maximal_matching(g, M)
    assert attempts == {0, 1}
    assert keys_left(cl) <= clean == {"E"}


# (stop_c, repeated overflows) on G(64, 512) seed 10: at 1/8 the first
# attempt overflows and the second fits, at 1/16 both overflow
@pytest.mark.parametrize("stop_c, retried", [(Fraction(1, 8), 1), (Fraction(1, 16), 2)])
def test_matching_superlinear_overflows(stop_c, retried):
    g = generate_graph("gnm", 64, seed=10, m=512)
    f = Fraction(1, 2)
    clean = clean_keys(matching.matching_superlinear, g, seed=10, f_exp=f)
    cl = make_cluster(g, seed=10, f_exp=f)
    if retried == 2:
        with pytest.raises(RunFailed, match="overflowed twice"):
            matching.matching_superlinear(cl, g, stop_c=stop_c)
    else:
        M, report = matching.matching_superlinear(cl, g, stop_c=stop_c)
        assert report["retried"] == 1
        assert oracles.is_maximal_matching(g, M)
    # no sample key "Es", "Ess", ... is left behind
    assert keys_left(cl) <= clean == {"E"}
