"""scripts/perf_pairs.py on made-up runs: the bound classifier, the
arguments and the fingerprint count."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                     "perf_pairs.py")
_SPEC = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)


@pytest.mark.parametrize("base, change, better, bound, want", [
    # base median 2.0, quartiles 1.98 and 2.02: a 1% spread
    ([1.96, 1.98, 2.0, 2.02, 2.04], [1.6] * 5, "lower", 0.24, "within bound"),
    ([1.96, 1.98, 2.0, 2.02, 2.04], [2.4] * 5, "lower", 0.24, "within bound"),
    ([1.96, 1.98, 2.0, 2.02, 2.04], [2.6] * 5, "lower", 0.24,
     "WORSE beyond bound"),
    # a higher-is-better metric that fell 10% against a 5% bound
    ([1.0] * 5, [0.9] * 5, "higher", 0.05, "WORSE beyond bound"),
    ([1.0] * 5, [1.2] * 5, "higher", 0.05, "within bound"),
    # identical counts, zero included
    ([7] * 5, [7] * 5, "lower", 0.05, "within bound"),
    ([0] * 5, [0] * 5, "lower", 0.05, "within bound"),
    # base spread 0.3 / 0.5 = 60% > 25%: unresolved either way ...
    ([0.2, 0.4, 0.5, 0.7, 0.9], [0.45, 0.5, 0.55, 0.6, 0.65], "lower", 0.25,
     "unresolved"),
    ([0.2, 0.4, 0.5, 0.7, 0.9], [0.9, 1.0, 1.1], "lower", 0.25, "unresolved"),
    # ... unless every change run reads better than every base run
    ([0.2, 0.4, 0.5, 0.7, 0.9], [0.1, 0.15], "lower", 0.25, "within bound"),
    # a deterministic metric, equal on both sides of every pair, spread
    # 16% across the pairs' seeds against a 15% bound
    ([0.2606, 0.2243, 0.3094], [0.2606, 0.2243, 0.3094], "lower", 0.15,
     "within bound"),
    # equal medians but not equal pairs: still unresolved
    ([0.2606, 0.2243, 0.3094], [0.2243, 0.2606, 0.3094], "lower", 0.15,
     "unresolved"),
])
def test_classify(base, change, better, bound, want):
    assert perf_pairs.classify(base, change, better, bound)[2] == want


def test_classify_reports_ratio_and_worse_fraction():
    ratio, worse, _ = perf_pairs.classify([2.0] * 3, [2.5] * 3, "lower", 0.24)
    assert ratio == pytest.approx(1.25) and worse == pytest.approx(0.25)
    ratio, worse, _ = perf_pairs.classify([2.0] * 3, [2.5] * 3, "higher", 0.24)
    assert ratio == pytest.approx(1.25) and worse == pytest.approx(-0.25)


def test_parse_args_takes_several_workloads():
    args = perf_pairs.parse_args(["--workload", "mst-dense", "spanner",
                                  "--seeds", "1", "2", "--base", "abc"])
    assert args.workload == ["mst-dense", "spanner"]
    assert args.seeds == [1, 2] and args.base == "abc"
    assert args.seconds is None and args.json is None
    assert perf_pairs.parse_args(["--workload", "spanner", "--seeds", "3"]
                                 ).workload == ["spanner"]
    with pytest.raises(SystemExit):
        perf_pairs.parse_args(["--workload", "--seeds", "1"])


def test_fingerprint_agreement_is_counted(tmp_path, monkeypatch, capsys):
    # no run: bench is made up, and the change's fingerprint line differs
    # from the base's in the pair of seed 2 only
    def bench(cwd, workload, seed, seconds):
        line = "fingerprint rounds=7"
        if cwd == str(tmp_path) and seed == 2:  # the working tree
            line = "fingerprint rounds=8"
        return {"run_rel_p50": 1.0, "ok_frac": 1.0}, line

    monkeypatch.setattr(perf_pairs, "bench", bench)
    monkeypatch.setattr(perf_pairs, "export", lambda rev, dest: None)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [
            {"name": "ok_frac", "better": "higher", "bound": 0.05}]}))
    perf_pairs.main(["--workload", "spanner", "matching-sparse", "--seeds",
                     "1", "2", "3", "--json", "out.json"])
    out = capsys.readouterr().out
    assert out.count("fingerprint lines agree in 2 of 3 pairs") == 2
    got = json.loads((tmp_path / "out.json").read_text())
    assert [(w["workload"], w["fingerprints_same"], len(w["pairs"]))
            for w in got["workloads"]] == [("spanner", 2, 3),
                                           ("matching-sparse", 2, 3)]
