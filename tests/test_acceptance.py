"""Acceptance gate: the thirteen required behaviors at full scale.

Each test prints one `[criterion N] PASS/FAIL` line (past the capture) and
asserts the same condition, so the gate reads as a checklist.
"""

import math
import time
from fractions import Fraction

import numpy as np

from hetmpc import connectivity as cn
from hetmpc import matching, mst, oracles, spanner
from hetmpc.cli import main as cli_main
from hetmpc.graphio import generate_graph
from hetmpc.labels import flow_label_decode, flow_label_marker
from hetmpc.simcore import (
    LARGE,
    ClusterConfig,
    Records,
    Slices,
    distribute_edges,
    init_cluster,
)


def emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def no_violations(cluster):
    return not any(t.violations for t in cluster.telemetry)


def make_cluster(n, m, seed, f_exp=None):
    return init_cluster(
        ClusterConfig(n=n, m=max(1, m), gamma=0.5, seed=seed, f_exp=f_exp)
    )


def test_criterion_01_mst_exact_100_seeds(capsys):
    t0 = time.monotonic()
    clean = True
    for seed in range(100):
        g = generate_graph("gnm", 256, seed=seed, m=4096, weighted=True)
        cl = make_cluster(256, 4096, seed)
        forest, _ = mst.mst(cl, g)
        assert sorted(forest) == sorted(oracles.kruskal_msf(256, g.edges))
        clean = clean and no_violations(cl)
    elapsed = time.monotonic() - t0
    ok = clean and elapsed < 60
    emit(capsys, 1, ok, f"100/100 Kruskal-exact in {elapsed:.1f}s (< 60s)")


def test_criterion_02_contraction_rate(capsys):
    results = []
    ok = True
    for (n, m), nseeds in (((1024, 65536), 3), ((512, 8192), 5)):
        t = math.ceil(math.log2(math.log2(m / n)))
        bound = math.ceil(n * n / m)
        worst = 0
        for seed in range(nseeds):
            g = generate_graph("gnm", n, seed=seed, m=m, weighted=True)
            cl = make_cluster(n, m, seed)
            state = mst.doubly_exp_boruvka(cl, mst.init_state(cl, g), t)
            worst = max(worst, state.n_super)
            ok = ok and state.n_super <= bound and no_violations(cl)
        results.append(f"(n={n},m={m}): t={t}, max supervertices {worst} <= {bound}")
    emit(capsys, 2, ok, "; ".join(results))


def test_criterion_03_f_light_expectation(capsys):
    import random

    n, p = 64, 1 / 8
    counts = []
    for seed in range(50):
        g = generate_graph("gnm", n, seed=seed, m=1024, weighted=True)
        rng = random.Random(seed)
        sample = [e for e in g.edges if rng.random() < p]
        forest = oracles.kruskal_msf(n, sample)
        counts.append(len(oracles.f_light_edges(n, forest, g.edges)))
    mean = sum(counts) / len(counts)
    bound = 2 * n / p
    emit(capsys, 3, mean <= bound,
         f"mean F-light {mean:.1f} <= {bound:.0f} over 50 seeds")


def test_criterion_04_label_decode_exact(capsys):
    import random

    n = 256
    for seed in range(20):
        rng = random.Random(seed)
        edges = [(rng.randrange(v), v, rng.randint(1, n ** 3))
                 for v in range(1, n)]
        labels = flow_label_marker(n, edges)
        table = oracles.tree_path_max(n, edges)
        for u in range(n):
            for v in range(u + 1, n):
                assert flow_label_decode(labels[u], labels[v]) == table[u][v]
    emit(capsys, 4, True, "20 random trees (n=256) decode all pairs exactly")


def test_criterion_05_round_constancy(capsys):
    grid = (64, 128, 256, 512)
    ok = True
    details = []

    rounds = set()
    for n in grid:
        g = generate_graph("gnp", n, seed=1, p=0.1)
        cl = make_cluster(n, g.m, 1)
        spanner.spanner(cl, g, 2)
        rounds.add(cl.rounds_used)
    ok = ok and len(rounds) == 1
    details.append(f"spanner={sorted(rounds)}")

    rounds = set()
    for n in grid:
        g = generate_graph("gnp", n, seed=2, p=1.5 / n)
        cl = make_cluster(n, g.m, 2)
        cn.connected_components(cl, g)
        rounds.add(cl.rounds_used)
    ok = ok and len(rounds) == 1
    details.append(f"cc={sorted(rounds)}")

    rounds = set()
    for n in grid:
        g = generate_graph("gnp", n, seed=3, p=0.05, weighted=True,
                           max_weight=64)
        cl = make_cluster(n, g.m, 3)
        cn.mst_weight_estimate(cl, g, eps=0.1, max_weight=64)
        rounds.add(cl.rounds_used)
    ok = ok and len(rounds) == 1
    details.append(f"mst-approx={sorted(rounds)}")

    rounds = set()
    for n in grid:
        g = generate_graph("gnp", n, seed=4, p=8 / n)
        cl = make_cluster(n, g.m, 4)
        _, report = matching.maximal_matching(cl, g)
        rounds.add(report["post_phase1_rounds"])
    ok = ok and len(rounds) == 1
    details.append(f"matching-post-phase1={sorted(rounds)}")

    # mst: rounds = a*t + b with the same a, b across the whole grid
    by_t = {}
    for n in grid:
        for mult, t_want in ((1, 0), (4, 1), (16, 2)):
            m = mult * n
            g = generate_graph("gnm", n, seed=5, m=m, weighted=True)
            cl = make_cluster(n, m, 5)
            _, report = mst.mst(cl, g)
            assert report["t"] == t_want
            by_t.setdefault(t_want, set()).add(cl.rounds_used)
    ok = ok and all(len(v) == 1 for v in by_t.values())
    r = {t: v.pop() for t, v in by_t.items()}
    a = r[1] - r[0]
    ok = ok and r[2] == r[0] + 2 * a
    details.append(f"mst a={a}, b={r[0]}")
    emit(capsys, 5, ok, "; ".join(details))


def test_criterion_06_spanner_quality(capsys):
    n = 256
    ok = True
    details = []
    for k in (2, 3):
        sizes = []
        for seed in range(50):
            g = generate_graph("gnp", n, seed=seed, p=0.1)
            cl = make_cluster(n, g.m, seed)
            H, _ = spanner.spanner(cl, g, k)
            stretch = oracles.max_stretch(g, H)
            ok = ok and stretch is not None and stretch <= 6 * k - 1
            ok = ok and no_violations(cl)
            sizes.append(len(H))
        C = (sum(sizes) / len(sizes)) / n ** (1 + 1 / k)
        ok = ok and C <= 64
        details.append(f"k={k}: stretch<= {6 * k - 1}, C={C:.2f} <= 64")
    emit(capsys, 6, ok, "; ".join(details))


def test_criterion_07_modified_baswana_sen(capsys):
    n, k = 512, 3
    ok = True
    means = {}
    for p in (0.5, 0.25):
        sizes = []
        for seed in range(50):
            g = generate_graph("gnp", n, seed=seed, p=0.02)
            cl = make_cluster(n, g.m, seed)
            distribute_edges(cl, g.edges)
            H = spanner.modified_baswana_sen(cl, k, p)
            stretch = oracles.max_stretch(g, H)
            ok = ok and stretch is not None and stretch <= 2 * k - 1
            ok = ok and no_violations(cl)
            sizes.append(len(H))
        means[p] = sum(sizes) / len(sizes)
    ratio = means[0.25] / means[0.5]
    ok = ok and ratio <= 3
    emit(capsys, 7, ok,
         f"stretch <= 5 on all 100 runs; size ratio p=1/4 vs p=1/2 "
         f"= {ratio:.2f} <= 3")


def test_criterion_08_matching_maximality(capsys):
    ok = True
    residual_ok = 0
    for seed in range(100):
        kind = ("gnp", "gnm", "star", "grid")[seed % 4]
        n = (64, 128, 256, 512)[(seed // 4) % 4]
        kwargs = ({"p": 4 / n} if kind == "gnp"
                  else {"m": 4 * n} if kind == "gnm" else {})
        g = generate_graph(kind, n, seed=seed, **kwargs)
        cl = make_cluster(n, g.m, seed)
        M, report = matching.maximal_matching(cl, g)
        ok = ok and oracles.is_maximal_matching(g, M) and no_violations(cl)
        if report.get("residual", 0) <= 2 * n:
            residual_ok += 1
    ok = ok and residual_ok >= 95
    emit(capsys, 8, ok,
         f"100/100 maximal; residual <= 2n on {residual_ok}/100 (>= 95)")


def test_criterion_09_connectivity(capsys):
    n = 256
    matches = 0
    for seed in range(100):
        g = generate_graph("gnp", n, seed=seed, p=1.2 / n)
        cl = make_cluster(n, g.m, seed)
        labels, _ = cn.connected_components(cl, g)
        want = oracles.components(n, g.edges)
        if [labels[v] for v in range(n)] == want:
            matches += 1
        assert no_violations(cl)
    distinguished = True
    for seed in range(10):
        got = {}
        for split in (1, 2):
            g = generate_graph("two-cycles", n, split=split)
            cl = make_cluster(n, g.m, seed)
            labels, _ = cn.connected_components(cl, g)
            got[split] = len(set(labels.values()))
        distinguished = distinguished and got == {1: 1, 2: 2}
    ok = matches >= 99 and distinguished
    emit(capsys, 9, ok,
         f"oracle match on {matches}/100 (>= 99); 2-vs-1 cycles "
         f"distinguished on 10/10 seed pairs")


def test_criterion_10_weight_estimate(capsys):
    n, W, eps = 256, 64, 0.1
    good = 0
    for seed in range(50):
        g = generate_graph("gnp", n, seed=seed, p=0.05, weighted=True,
                           max_weight=W)
        cl = make_cluster(n, g.m, seed)
        est, _ = cn.mst_weight_estimate(cl, g, eps=eps, max_weight=W)
        true = sum(w for *_, w in oracles.kruskal_msf(n, g.edges))
        if 0.8 * true <= est <= 1.2 * true:
            good += 1
        assert no_violations(cl)
    emit(capsys, 10, good >= 48,
         f"ratio in [0.8, 1.2] on {good}/50 seeds (>= 48)")


def test_criterion_11_superlinear_variants(capsys):
    n, m, f = 128, 2048, Fraction(1, 2)
    t_want = math.ceil(math.log2(math.log(m / n, n) / float(f)))
    ok = True
    for seed in range(20):
        g = generate_graph("gnm", n, seed=seed, m=m, weighted=True)
        cl = make_cluster(n, m, seed, f_exp=f)
        forest, report = mst.mst_superlinear(cl, g)
        ok = ok and sorted(forest) == sorted(oracles.kruskal_msf(n, g.edges))
        ok = ok and report["t"] == t_want and no_violations(cl)
    depth_max = 0
    for seed in range(20):
        g = generate_graph("gnm", n, seed=seed, m=m)
        cl = make_cluster(n, m, seed, f_exp=f)
        M, report = matching.matching_superlinear(cl, g)
        ok = ok and oracles.is_maximal_matching(g, M) and no_violations(cl)
        depth_max = max(depth_max, report["depth"])
    ok = ok and depth_max <= 3
    emit(capsys, 11, ok,
         f"mst-super exact with t={t_want} on 20 seeds; matching-super "
         f"maximal, max depth {depth_max} <= 3")


def test_criterion_12_budget_soundness(capsys):
    # strict-mode cleanliness is asserted inside every criterion above;
    # here: one injected overspend -> exactly one logged violation, and a
    # forced violation through the CLI -> nonzero exit
    cfg = ClusterConfig(n=16, m=64, gamma=0.5, polylog_c=1, polylog_e=1)
    cl = init_cluster(cfg, strict=False)
    cl.round(Slices(Records([tuple(range(cfg.small_budget + 1))]), np.array([1]),
                    np.array([LARGE]), np.array([1])))
    cl.empty_round()
    injected = [v for t in cl.telemetry for v in t.violations]
    code = cli_main(["run", "--algo", "mst", "--gen", "gnm", "--n", "64",
                     "--m", "512", "--weighted", "--polylog-c", "1",
                     "--seed", "1"])
    ok = injected == [(1, "SendBudget")] and code != 0
    emit(capsys, 12, ok,
         f"injected overflow -> {len(injected)} violation(s); CLI exit {code}")


def test_criterion_13_numeric_inequality(capsys):
    ells = sorted({max(1, round(10 ** (6 * i / 199))) for i in range(200)})
    x_lo, x_hi = 1 + 2 ** -10, 10 ** 4
    xs = [x_lo * (x_hi / x_lo) ** (i / 199) for i in range(200)]
    checked = 0
    for ell in ells:
        log_ell = math.log(ell)
        for x in xs:
            assert log_ell + ell * math.log1p(-1 / x) < math.log(x)
            checked += 1
    emit(capsys, 13, True,
         f"l*(1-1/x)^l < x on all {checked} grid points")
