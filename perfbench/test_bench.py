"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import importlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace=0, seed=5):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    fingerprint = next(l.split()[-1] for l in lines if l.startswith("fingerprint "))
    return json.loads(lines[-1]), fingerprint


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    result, _ = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in listed}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_same_fingerprint():
    first, fp1 = bench("mst-dense", seed=11)
    second, fp2 = bench("mst-dense", seed=11)
    _, other = bench("mst-dense", seed=12)
    assert fp1 == fp2 != other
    for name in ("sim_rounds", "sim_words_sent", "sim_max_load_ratio"):
        assert first["metrics"][name] == second["metrics"][name]


def _swap_forest_edge(case, forest):
    """Replace one forest edge by a graph edge outside the forest."""
    used = set(forest)
    spare = next(e for e in case.edges if e not in used)
    return [spare] + list(forest[1:])


CORRUPT = {
    "mst-dense": _swap_forest_edge,
    "sketch-estimate": lambda case, estimate: estimate * 3,
    "spanner": lambda case, edges: [e for e in edges if edges[0][0] not in e],
    "matching-sparse": lambda case, edges: list(edges[1:]),
}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_corrupted_output_counts_as_failed(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(HERE)
    run = importlib.import_module("run")
    wl, pool = run.setup(workload, 5, smoke=True)
    calls = []

    def corrupt_first(cluster, case):
        out, report = wl.call(cluster, case)
        calls.append(case)
        return (CORRUPT[workload](case, out) if len(calls) == 1 else out), report

    loop = run.measure(dataclasses.replace(wl, call=corrupt_first), pool, 0)
    metrics = run.end_to_end(loop, setup_s=1.0)
    assert loop.failed == 1 and loop.attempted == len(pool)
    assert metrics["ok_frac"] == 1 - 1 / len(pool)
