"""Command-line front end: graph generation and experiment runs.

Subcommands:
  hetmpc gen --gen KIND --n N [--m M --p P --weighted ...] --out FILE
  hetmpc run --algo ALGO (--graph FILE | --gen KIND ...) [flags]

Reports are JSON (one document per invocation, one entry per seed) with
a CSV summary beside them.  Exit status is 0 iff every run finishes with
zero budget violations and, when --verify is set, passes its oracle.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction

from . import connectivity, matching, mst, oracles, spanner
from .graphio import SimGraph, format_graph, generate_graph, load_graph
from .simcore import (
    BudgetError,
    CapacityError,
    ClusterConfig,
    ConfigError,
    RunFailed,
    init_cluster,
    telemetry_json,
)

ALGOS = ("mst", "mst-super", "spanner", "matching", "matching-super",
         "cc", "mst-approx")

DEFAULTS = {
    "gamma": 0.5,
    "polylog_c": 128,
    "polylog_e": 2,
    "k": 2,
    "eps": 0.1,
    "split": 2,
    "max_weight": None,
}


def build_parser():
    ap = argparse.ArgumentParser(prog="hetmpc")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--gen", choices=["gnp", "gnm", "two-cycles", "grid",
                                         "star", "complete"])
        p.add_argument("--n", type=int)
        p.add_argument("--m", type=int)
        p.add_argument("--p", type=float)
        p.add_argument("--split", type=int)
        p.add_argument("--weighted", action="store_true", default=None)
        p.add_argument("--max-weight", type=int, dest="max_weight")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")

    g = sub.add_parser("gen", help="write a generated graph file")
    common(g)

    r = sub.add_parser("run", help="run an algorithm over seeds")
    common(r)
    r.add_argument("--algo", choices=ALGOS)
    r.add_argument("--graph", help="input graph file (overrides --gen)")
    r.add_argument("--k", type=int)
    r.add_argument("--eps", type=float)
    r.add_argument("--gamma", type=float)
    r.add_argument("--polylog-c", type=int, dest="polylog_c")
    r.add_argument("--polylog-e", type=int, dest="polylog_e")
    r.add_argument("--f", help="superlinear memory exponent (e.g. 1/2)")
    r.add_argument("--seeds", help="comma-separated seed list")
    r.add_argument("--verify", action="store_true", default=None)
    r.add_argument("--tolerant", action="store_true", default=None)
    r.add_argument("--config", help="key=value config file; flags win")
    r.add_argument("--report", help="report JSON path (CSV written beside)")
    return ap


def read_config_file(path):
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {raw.rstrip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def merge_config(args, file_cfg):
    """Start from hard defaults, overlay the config file, then overlay
    explicitly given flags (flags win).  A file key must name an option of
    the command."""
    unknown = sorted(file_cfg.keys() - vars(args).keys() - {"command"})
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    cfg = dict(DEFAULTS)
    flag = lambda s: s.lower() in ("1", "true", "yes")
    casts = {
        "n": int, "m": int, "p": float, "k": int, "eps": float,
        "gamma": float, "polylog_c": int, "polylog_e": int, "seed": int,
        "split": int, "max_weight": int,
        "weighted": flag, "verify": flag, "tolerant": flag,
    }
    for key, val in file_cfg.items():
        cfg[key] = casts.get(key, str)(val)
    for key, val in vars(args).items():
        if val is not None:
            cfg[key] = val
    return cfg


def make_graph(cfg):
    if cfg.get("graph"):
        return load_graph(cfg["graph"])
    if not cfg.get("gen"):
        raise ConfigError("need --graph or --gen")
    if cfg.get("n") is None:
        raise ConfigError("generators need --n")
    return generate_graph(
        cfg["gen"], cfg["n"], seed=cfg.get("seed") or 0,
        m=cfg.get("m"), p=cfg.get("p"),
        weighted=bool(cfg.get("weighted")),
        max_weight=cfg.get("max_weight"),
        split=cfg.get("split", 2),
    )


def _weighted_view(graph):
    if graph.weighted:
        return graph
    return SimGraph(graph.n, [(u, v, 1) for u, v in graph.edges],
                    weighted=True)


def _verify_forest(graph, edges):
    wg = _weighted_view(graph)
    oracle = oracles.kruskal_msf(wg.n, wg.edges)
    got = sum(e[2] for e in edges)
    want = sum(e[2] for e in oracle)
    same_comps = oracles.components(
        wg.n, [(u, v) for u, v, *_ in edges]
    ) == oracles.components(wg.n, [(u, v) for u, v, *_ in oracle])
    return {
        "oracle_weight": want,
        "weight": got,
        "pass": got == want and len(edges) == len(oracle) and same_comps,
    }


def run_one(algo, graph, cfg, seed, strict, verify):
    config = ClusterConfig(
        n=graph.n, m=max(1, graph.m),
        gamma=cfg["gamma"], polylog_c=cfg["polylog_c"],
        polylog_e=cfg["polylog_e"],
        f_exp=Fraction(cfg["f"]) if cfg.get("f") else None,
        seed=seed,
    )
    cluster = init_cluster(config, strict=strict)
    metrics = {}
    output = None
    check = None

    if algo in ("mst", "mst-super"):
        run = mst.mst if algo == "mst" else mst.mst_superlinear
        edges, rep = run(cluster, _weighted_view(graph))
        metrics = {"t": rep["t"], "total_weight": rep["total_weight"],
                   "edges": len(edges)}
        output = [" ".join(map(str, e)) for e in edges]
        if verify:
            check = _verify_forest(graph, edges)
    elif algo == "spanner":
        edges, rep = spanner.spanner(cluster, graph.unweighted(), cfg["k"])
        metrics = {"size": rep["size"], "levels": rep["levels"],
                   "stretch_bound": rep["stretch_bound"]}
        output = [f"{u} {v}" for u, v in edges]
        if verify:
            stretch = oracles.max_stretch(graph.unweighted(), edges)
            metrics["stretch"] = stretch
            check = {"stretch": stretch,
                     "pass": stretch is not None
                     and stretch <= rep["stretch_bound"]}
    elif algo == "matching":
        M, rep = matching.maximal_matching(cluster, graph.unweighted())
        metrics = {"size": len(M), "d": rep["d"],
                   "residual": rep.get("residual", 0),
                   "phase1_rounds": rep.get("phase1_rounds", 0),
                   "post_phase1_rounds": rep.get("post_phase1_rounds", 0)}
        output = [f"{u} {v}" for u, v in M]
        if verify:
            ok = oracles.is_maximal_matching(graph.unweighted(), M)
            check = {"pass": ok}
    elif algo == "matching-super":
        M, rep = matching.matching_superlinear(cluster, graph.unweighted())
        metrics = {"size": len(M), "depth": rep["depth"]}
        output = [f"{u} {v}" for u, v in M]
        if verify:
            ok = oracles.is_maximal_matching(graph.unweighted(), M)
            check = {"pass": ok}
    elif algo == "cc":
        g = graph.unweighted()
        labels, rep = connectivity.connected_components(cluster, g)
        ncomp = len(set(labels.values()))
        metrics = {"components": ncomp, "phases": rep["phases"]}
        output = [f"{v} {labels[v]}" for v in sorted(labels)]
        if verify:
            want = oracles.components(g.n, g.edges)
            got = [labels[v] for v in range(g.n)]
            check = {"pass": got == want}
    elif algo == "mst-approx":
        wg = _weighted_view(graph)
        w_hat, rep = connectivity.mst_weight_estimate(
            cluster, wg, cfg["eps"], max_weight=cfg.get("max_weight")
        )
        metrics = {"estimate": w_hat, "thresholds": rep["thresholds"],
                   "cc_per_threshold": rep["cc_per_threshold"]}
        if verify:
            exact = sum(e[2] for e in oracles.kruskal_msf(wg.n, wg.edges))
            lo = (1 - 2 * cfg["eps"]) * exact
            hi = (1 + 2 * cfg["eps"]) * exact
            check = {"exact": exact,
                     "pass": (lo <= w_hat <= hi) if exact else w_hat == 0}
    else:
        raise ConfigError(f"unknown algorithm {algo!r}")

    tel = telemetry_json(cluster)
    return {
        "seed": seed,
        "rounds_used": tel["rounds_used"],
        "violations": tel["violations"],
        "metrics": metrics,
        "verify": check,
    }, output


def cmd_gen(args):
    cfg = merge_config(args, {})
    graph = make_graph(cfg)
    text = format_graph(graph)
    if cfg.get("out"):
        with open(cfg["out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args):
    file_cfg = read_config_file(args.config) if args.config else {}
    cfg = merge_config(args, file_cfg)
    algo = cfg.get("algo")
    if algo not in ALGOS:
        raise ConfigError(f"--algo must be one of {', '.join(ALGOS)}")
    if algo in ("mst-super", "matching-super") and not cfg.get("f"):
        raise ConfigError(f"{algo} needs --f")
    strict = not cfg.get("tolerant")
    verify = bool(cfg.get("verify"))
    seeds = [int(s) for s in str(cfg.get("seeds") or
                                 cfg.get("seed") or "0").split(",")]

    graph = make_graph(cfg)
    runs = []
    outputs = {}
    ok = True
    for seed in seeds:
        entry, output = run_one(algo, graph, cfg, seed, strict, verify)
        runs.append(entry)
        outputs[seed] = output
        if entry["violations"]:
            ok = False
        if verify and entry["verify"] is not None and not entry["verify"]["pass"]:
            ok = False

    report = {
        "algorithm": algo,
        "config": {k: (str(v) if isinstance(v, Fraction) else v)
                   for k, v in sorted(cfg.items()) if k != "config"},
        "runs": runs,
        "passed": ok,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if cfg.get("report"):
        with open(cfg["report"], "w") as fh:
            fh.write(text + "\n")
        csv_path = cfg["report"].rsplit(".", 1)[0] + ".csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "rounds_used", "violations",
                             "verified", "metrics"])
            for entry in runs:
                writer.writerow([
                    entry["seed"], entry["rounds_used"],
                    len(entry["violations"]),
                    "" if entry["verify"] is None
                    else entry["verify"]["pass"],
                    json.dumps(entry["metrics"], sort_keys=True),
                ])
    else:
        print(text)
    if cfg.get("out"):
        last = outputs[seeds[-1]]
        if last is not None:
            with open(cfg["out"], "w") as fh:
                fh.write("\n".join(last) + ("\n" if last else ""))
    return 0 if ok else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        return cmd_run(args)
    except (ConfigError, ValueError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except (CapacityError, BudgetError) as exc:
        print(json.dumps({"error": "capacity", "message": str(exc)}),
              file=sys.stderr)
        return 3
    except RunFailed as exc:
        print(json.dumps({"error": "run-failed", "message": str(exc)}),
              file=sys.stderr)
        return 4
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}),
              file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
