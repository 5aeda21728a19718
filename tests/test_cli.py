"""Command-line interface: generation, runs, reports, exit codes."""

import json

import pytest

from hetmpc.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_gen_complete_n4(tmp_path, capsys):
    assert run_cli("gen", "--gen", "complete", "--n", "4") == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "4 6"
    assert len(lines) == 7


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        assert run_cli("gen", "--gen", "gnm", "--n", "100", "--m", "500",
                       "--seed", "7", "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_mst_on_tree_verify_outputs_input(tmp_path):
    graph = tmp_path / "tree.txt"
    lines = ["8 7 w"] + [f"{i} {i + 1} {10 + i}" for i in range(7)]
    graph.write_text("\n".join(lines) + "\n")
    out = tmp_path / "mst.txt"
    code = run_cli("run", "--algo", "mst", "--graph", str(graph),
                   "--verify", "--out", str(out),
                   "--report", str(tmp_path / "r.json"))
    assert code == 0
    got = sorted(tuple(map(int, l.split())) for l in out.read_text().split("\n") if l)
    assert got == [(i, i + 1, 10 + i) for i in range(7)]


def test_report_json_and_csv(tmp_path):
    rep = tmp_path / "rep.json"
    code = run_cli("run", "--algo", "matching", "--gen", "gnp", "--n", "64",
                   "--p", "0.1", "--seeds", "1,2", "--verify",
                   "--report", str(rep))
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["passed"] is True
    assert [r["seed"] for r in doc["runs"]] == [1, 2]
    assert all(r["violations"] == [] for r in doc["runs"])
    csv_text = (tmp_path / "rep.csv").read_text().splitlines()
    assert csv_text[0].startswith("seed,rounds_used,violations")
    assert len(csv_text) == 3


def test_report_deterministic_modulo_timestamp(tmp_path):
    docs = []
    for name in ("r1.json", "r2.json"):
        rep = tmp_path / name
        assert run_cli("run", "--algo", "spanner", "--gen", "gnp", "--n", "64",
                       "--p", "0.1", "--k", "2", "--seed", "3", "--verify",
                       "--report", str(rep)) == 0
        doc = json.loads(rep.read_text())
        doc.pop("timestamp")
        doc["config"].pop("report")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_config_file_flags_win(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("k = 3\nn = 64\np = 0.1\ngen = gnp\n# comment\n")
    rep = tmp_path / "rep.json"
    assert run_cli("run", "--algo", "spanner", "--config", str(cfgfile),
                   "--k", "2", "--seed", "1", "--report", str(rep)) == 0
    doc = json.loads(rep.read_text())
    assert doc["config"]["k"] == 2  # flag beats file
    assert doc["config"]["n"] == 64  # file beats default


def test_config_file_value_used_without_flag(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("k = 3\nn = 64\np = 0.1\ngen = gnp\n")
    rep = tmp_path / "rep.json"
    assert run_cli("run", "--algo", "spanner", "--config", str(cfgfile),
                   "--seed", "1", "--report", str(rep)) == 0
    assert json.loads(rep.read_text())["config"]["k"] == 3


def test_missing_algo_is_config_error(capsys):
    assert run_cli("run", "--gen", "gnp", "--n", "64", "--p", "0.1") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_strict_flag_is_gone(capsys):
    # runs are strict unless --tolerant; argparse rejects the old flag
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--algo", "mst", "--gen", "gnm", "--n", "64",
                "--m", "512", "--weighted", "--strict")
    assert exc.value.code == 2
    assert "--strict" in capsys.readouterr().err


def test_super_algos_require_f():
    assert run_cli("run", "--algo", "mst-super", "--gen", "gnm", "--n", "64",
                   "--m", "512", "--weighted") == 2


def test_cc_beyond_sketch_field_is_config_error(capsys):
    code = run_cli("run", "--algo", "cc", "--gen", "gnm", "--n", "2048",
                   "--m", "2048", "--seed", "1")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


@pytest.mark.parametrize("argv", [
    # more small machines than the charged machine tree holds
    ("--algo", "mst", "--gen", "complete", "--n", "15", "--weighted"),
    ("--algo", "mst", "--gen", "complete", "--n", "100", "--gamma", "0.3",
     "--weighted"),
    ("--algo", "spanner", "--gen", "gnp", "--n", "64", "--p", "0.1", "--k", "0"),
    ("--algo", "spanner", "--gen", "gnp", "--n", "64", "--p", "0.1", "--k", "-1"),
    ("--algo", "cc", "--gen", "two-cycles", "--n", "4"),
    ("--algo", "cc", "--gen", "two-cycles", "--n", "2", "--split", "1"),
])
def test_out_of_range_input_is_config_error(capsys, argv):
    assert run_cli("run", *argv, "--verify") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_missing_graph_file_is_io_error(tmp_path):
    assert run_cli("run", "--algo", "mst",
                   "--graph", str(tmp_path / "nope.txt")) == 5


def test_absurd_budget_is_capacity_error(capsys):
    code = run_cli("run", "--algo", "mst", "--gen", "gnm", "--n", "64",
                   "--m", "512", "--weighted", "--polylog-c", "1",
                   "--seed", "1")
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "capacity"


@pytest.mark.parametrize("algo,extra", [
    ("mst", ["--weighted"]),
    ("cc", []),
    ("mst-approx", ["--weighted", "--max-weight", "16"]),
    ("matching-super", ["--f", "1/6"]),
    ("mst-super", ["--weighted", "--f", "1/2"]),
])
def test_algos_verify_exit_zero(tmp_path, algo, extra):
    rep = tmp_path / "rep.json"
    code = run_cli("run", "--algo", algo, "--gen", "gnp", "--n", "64",
                   "--p", "0.08", "--seed", "2", "--verify",
                   "--report", str(rep), *extra)
    assert code == 0
    assert json.loads(rep.read_text())["passed"] is True


@pytest.mark.parametrize("line,code,error", [
    ("tolerant = false", 3, "capacity"),  # strict: the violation raises
    ("tolerant = yes", 1, None),  # tolerant: it is logged, the run fails
    ("strict = 0", 2, "config"),  # not an option: rejected, not copied
])
def test_config_file_tolerant_is_a_boolean(tmp_path, capsys, line, code,
                                           error):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{line}\npolylog_c = 2\n")
    rep = tmp_path / "rep.json"
    assert run_cli("run", "--algo", "spanner", "--gen", "gnp", "--n", "64",
                   "--p", "0.1", "--seed", "1", "--config", str(cfgfile),
                   "--report", str(rep)) == code
    if error is None:
        doc = json.loads(rep.read_text())
        assert doc["runs"][0]["violations"]
    else:
        assert json.loads(capsys.readouterr().err)["error"] == error
