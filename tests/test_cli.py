import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from threshold_lab import cli
from threshold_lab.cli import EXIT_BUDGET, EXIT_PIPE, EXIT_USAGE, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema"] == "1"
    return payload


def test_classify_star(capsys):
    payload = run_json(capsys, "classify", "--graph6", "D?{")
    assert payload["chromatic_number"] == 2
    assert payload["cloud_forest"] is True
    assert "witnesses" in payload


def test_classify_k3(capsys):
    payload = run_json(capsys, "classify", "--graph6", "Bw")
    assert payload["chromatic_number"] == 3
    assert payload["cloud_forest"] is False
    assert payload["forest_in_decomposition_family"] is True


def test_threshold_k3(capsys):
    payload = run_json(capsys, "threshold", "--graph6", "Bw")
    assert payload["delta_chi"] == "1/3"


def test_threshold_edge_list_file(tmp_path, capsys):
    path = tmp_path / "k3.txt"
    path.write_bytes(b"3 3\n0 1\n0 2\n1 2\n")
    payload = run_json(capsys, "threshold", "--edge-list", str(path))
    assert payload["delta_chi"] == "1/3"


def test_threshold_star(capsys):
    from threshold_lab.constructions import blow_up
    from threshold_lab.formats import write_graph6
    from threshold_lab.graphs import Graph
    code = write_graph6(blow_up(Graph.cycle(5), 2)).decode("ascii")
    payload = run_json(capsys, "threshold-star", "--graph6", code)
    assert payload["delta_chi_star"] == "0"


def test_regimes_c5(capsys):
    payload = run_json(capsys, "regimes", "--graph6", "DLo")
    values = [row["value"] for row in payload["rows"]]
    assert values[:4] == [
        {"kind": "Exact", "v": "0"},
        {"kind": "Exact", "v": "1/3"},
        {"kind": "Exact", "v": "1/2"},
        {"kind": "Exact", "v": "1"},
    ]


def test_regimes_table_format(capsys):
    code, out, err = run_cli(capsys, "regimes", "--graph6", "DLo",
                             "--format", "table")
    assert code == 0
    assert "1/3" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_regimes_star(capsys):
    payload = run_json(capsys, "regimes-star", "--graph6", "Bw")
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["range"]["lo"]["exp"] == "1/2"


def test_zykov_build(capsys):
    payload = run_json(capsys, "zykov", "--trees", "A_", "--r", "3", "--t", "1")
    assert payload["vertices"] == 4
    assert len(payload["roles"]) == 4


def test_zykov_search(capsys):
    payload = run_json(capsys, "zykov-search", "--graph6", "DLo",
                       "--max-l", "2", "--max-t", "3", "--max-tree-size", "3")
    assert payload["found"] is True
    payload = run_json(capsys, "zykov-search", "--graph6", "Bw",
                       "--max-l", "2", "--max-t", "2", "--max-tree-size", "3")
    assert payload["found"] is False
    assert payload["note"] == "not found within bounds"


@pytest.mark.parametrize("argv", [
    ["classify", "--graph6", "FhCKG"],
    ["threshold-star", "--graph6", "FhCKG"],
    ["zykov-search", "--graph6", "DLo", "--max-l", "3", "--max-t", "7", "--max-tree-size", "7"],
])
def test_verbs_leave_no_reference_cycles(capsys, argv):
    """Reference counting frees everything a verb made, so the cyclic
    collector has nothing to do after it. The parser, built once per
    process, is built first."""
    cli._parser()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()


def test_sample_deterministic(capsys):
    a = run_json(capsys, "sample", "--n", "12", "--p", "0.5", "--seed", "9")
    b = run_json(capsys, "sample", "--n", "12", "--p", "0.5", "--seed", "9")
    assert a == b
    assert a["params"]["rng"] == "splitmix64-v1"


def test_stdin_input(capsys, monkeypatch):
    import io
    import sys

    class FakeStdin:
        buffer = io.BytesIO(b"Bw\n")

    monkeypatch.setattr(sys, "stdin", FakeStdin())
    payload = run_json(capsys, "threshold", "--stdin")
    assert payload["delta_chi"] == "1/3"


def test_experiment_verb(capsys):
    payload = run_json(capsys, "experiment", "--n", "40", "--p", "0.5",
                       "--k", "3", "--trials", "3", "--seed", "4")
    assert payload["trials"] == 3
    assert len(payload["per_trial"]) == 3


def test_audit_verb(capsys):
    payload = run_json(capsys, "audit", "--graph6", "D?{", "--p", "0.5",
                       "--set-size-cap", "1", "--samples", "20")
    assert "A1" in payload and "A2" in payload and "A3" in payload


def test_usage_errors_exit_3(capsys):
    code, out, err = run_cli(capsys, "regimes")
    assert code == 3 and "usage" in err.lower()
    code, out, err = run_cli(capsys, "threshold", "--graph6", "Bw",
                             "--graph6-oops", "x")
    assert code == 3
    code, out, err = run_cli(capsys, "threshold", "--graph6", "!!bad!!")
    assert code == 3


def test_domain_error_exit_1(capsys):
    code, out, err = run_cli(capsys, "threshold", "--graph6", "@")
    assert code == 1 and "domain" in err.lower()


def test_experiment_k0_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "experiment", "--n", "10", "--p", "0",
                             "--k", "0", "--trials", "1")
    assert (code, out) == (1, "")
    assert err == "domain error: k must be at least 1\n"


def test_budget_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("THRESHOLD_LAB_BUDGET", "5")
    code, out, err = run_cli(capsys, "threshold", "--graph6", "DLo")
    assert code == 2


def test_memory_error_exits_2(capsys, monkeypatch):
    def runs_out(args, budget):
        raise MemoryError("no room for the subset tables")

    monkeypatch.setitem(cli._COMMANDS, "classify", runs_out)
    code, out, err = run_cli(capsys, "classify", "--graph6", "DLo")
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == "out of memory: no room for the subset tables\n"


def test_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("THRESHOLD_LAB_BUDGET", "5")
    code, out, err = run_cli(capsys, "threshold", "--graph6", "DLo",
                             "--budget", "1000000")
    assert code == 0


GRAPH = {"--graph6", "--edge-list", "--stdin"}
FLAGS = {
    "classify": GRAPH | {"--budget"},
    "threshold": GRAPH | {"--budget"},
    "threshold-star": GRAPH | {"--budget"},
    "regimes": GRAPH | {"--budget", "--format"},
    "regimes-star": GRAPH | {"--budget", "--format"},
    "zykov": {"--trees", "--r", "--t"},
    "zykov-search": GRAPH | {"--budget", "--max-l", "--max-t", "--max-tree-size"},
    "sample": {"--n", "--p", "--seed"},
    "experiment": {"--budget", "--seed", "--trials", "--config", "--n", "--p",
                   "--k", "--gamma", "--d"},
    "audit": GRAPH | {"--seed", "--p", "--set-size-cap", "--samples"},
}


def test_each_verb_takes_exactly_its_flags():
    subs = next(a for a in build_parser()._actions if a.dest == "verb")
    got = {verb: {flag for action in sub._actions for flag in action.option_strings
                  if flag not in ("-h", "--help")}
           for verb, sub in subs.choices.items()}
    assert got == FLAGS
    assert sum(map(len, got.values())) == 51


@pytest.mark.parametrize("argv,message", [
    (["classify", "--graph6", "Bw", "--seed", "1"], "unrecognized arguments: --seed"),
    (["zykov", "--trees", "A_", "--budget", "5"], "unrecognized arguments: --budget"),
    (["sample", "--n", "3", "--p", "0.5", "--format", "table"],
     "unrecognized arguments: --format"),
    (["audit", "--graph6", "D?{", "--p", "0.5", "--samples", "0"], "--samples: 0 is below 1"),
    (["audit", "--graph6", "D?{", "--p", "0.5", "--samples", "-2"], "--samples: -2 is below 1"),
    (["experiment", "--n", "40", "--p", "0.5", "--k", "3", "--trials", "-1"],
     "--trials: -1 is below 0"),
    (["classify", "--graph6", "Bw", "--budget", "-5"], "--budget: -5 is below 0"),
])
def test_parse_time_usage_errors_exit_3(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "") and message in err


EXPERIMENT = ["experiment", "--trials", "1"]


@pytest.mark.parametrize("argv,config,message", [
    (["sample", "--n", "3", "--p", "1/0"], None, "p is not a rational number: '1/0'"),
    (["audit", "--graph6", "D?{", "--p", "1/0"], None, "p is not a rational number: '1/0'"),
    (EXPERIMENT + ["--n", "20", "--p", "1/2", "--k", "3", "--gamma", "1/0"], None,
     "gamma is not a rational number: '1/0'"),
    (EXPERIMENT, [20, "1/2", 3], "config is not a JSON object"),
    (EXPERIMENT, {"n": "20", "p": "1/2", "k": 3}, "n is not an integer: '20'"),
    (EXPERIMENT, {"n": 20, "p": [1], "k": 3}, "p is not a rational number: [1]"),
    (EXPERIMENT, {"n": 20, "p": True, "k": 3}, "p is not a rational number: True"),
    (EXPERIMENT, {"n": 20, "p": "1/2", "k": 3, "gamma": False},
     "gamma is not a rational number: False"),
    (EXPERIMENT, {"n": 20, "p": "1/2", "k": 3, "d": True}, "d is not a rational number: True"),
])
def test_malformed_numbers_exit_3(capsys, tmp_path, argv, config, message):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("parse error: ") and message in err


def test_config_numbers_read_as_the_flags_do(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 20, "p": 0.5, "k": 3, "gamma": 0.25, "d": "3/5"}))
    from_config = run_json(capsys, *EXPERIMENT, "--config", str(path))
    from_flags = run_json(capsys, *EXPERIMENT, "--n", "20", "--p", "1/2", "--k", "3",
                          "--gamma", "1/4")
    assert from_config == from_flags


def test_unknown_config_fields_exit_3(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 20, "p": "1/2", "k": 3, "trials": 2, "seed": 9}))
    code, out, err = run_cli(capsys, *EXPERIMENT, "--config", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"usage error: {path}: unknown config fields ['seed', 'trials']\n"


def test_negative_budget_in_the_environment_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("THRESHOLD_LAB_BUDGET", "-5")
    code, out, err = run_cli(capsys, "classify", "--graph6", "Bw")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "usage error: THRESHOLD_LAB_BUDGET must be an integer of at least 0\n"


def test_a_budget_of_zero_is_valid(capsys, monkeypatch):
    for env, flags in (("0", []), ("5", ["--budget", "0"])):
        monkeypatch.setenv("THRESHOLD_LAB_BUDGET", env)
        code, out, err = run_cli(capsys, "classify", "--graph6", "Bw", *flags)
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == "budget exceeded: classify: search budget of 0 nodes exceeded\n"


def test_budget_env_only_read_by_verbs_with_budget(capsys, monkeypatch):
    monkeypatch.setenv("THRESHOLD_LAB_BUDGET", "x")
    run_json(capsys, "sample", "--n", "3", "--p", "0.5")
    code, out, err = run_cli(capsys, "threshold", "--graph6", "Bw")
    assert code == EXIT_USAGE and "THRESHOLD_LAB_BUDGET" in err


def test_default_budget_is_shared_by_the_whole_verb(capsys, monkeypatch):
    from threshold_lab.constructions import blow_up
    from threshold_lab.formats import write_graph6
    from threshold_lab.graphs import Graph
    code = write_graph6(blow_up(Graph.cycle(5), 2)).decode("ascii")
    spent = []

    def metered(fn):
        def call(*args):
            budget = args[-1]
            before = budget.used
            try:
                return fn(*args)
            finally:
                spent.append(budget.used - before)
        return call

    for name in ("pattern_chi", "is_cloud_forest", "is_thundercloud_forest",
                 "is_near_acyclic", "has_forest_in_decomposition_family",
                 "is_r_near_acyclic", "decomposition_family"):
        monkeypatch.setattr(cli, name, metered(getattr(cli, name)))
    run_json(capsys, "classify", "--graph6", code)
    assert len(spent) == 7
    limit = (max(spent) + sum(spent)) // 2
    assert max(spent) < limit < sum(spent)
    monkeypatch.setattr("threshold_lab.errors.DEFAULT_BUDGET", limit)
    for flags in ([], ["--budget", str(limit)]):
        got, out, err = run_cli(capsys, "classify", "--graph6", code, *flags)
        assert (got, out) == (EXIT_BUDGET, "")
        assert f"classify: search budget of {limit} nodes exceeded" in err
    monkeypatch.setattr("threshold_lab.errors.DEFAULT_BUDGET", sum(spent))
    run_json(capsys, "classify", "--graph6", code)


# C5 blown up by 2 (chi 3) and the wheel on 8 vertices (chi 4)
@pytest.mark.parametrize("code,n", [("I]KoWZBoo", 10), ("GhCKN{", 8)])
@pytest.mark.parametrize("verb", ["classify", "threshold", "regimes"])
def test_one_chromatic_number_per_verb(capsys, monkeypatch, verb, code, n):
    exact = sys.modules["threshold_lab.exact"]
    right = exact.chromatic_number
    calls = []

    def counted(g, budget=None):
        calls.append(g.n)
        return right(g, budget)

    monkeypatch.setattr(exact, "chromatic_number", counted)
    run_json(capsys, verb, "--graph6", code)
    assert calls == [n]


@pytest.mark.parametrize("argv,message", [
    (["threshold-star", "--graph6", "LhCGGC@?G?_@_@"],
     "quotients_with_partitions: size cap of 12 vertices exceeded"),
    (["zykov", "--trees", ",".join(["A_"] * 11)], "zykov: size cap of 10 trees exceeded"),
    (["zykov-search", "--graph6", "Bw", "--max-l", "11"],
     "search_zykov_witness: size cap of 10 trees exceeded"),
])
def test_size_caps_name_their_unit(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_BUDGET and message in err


def test_audit_output_is_strict_json(capsys):
    def reject(name):
        raise AssertionError(f"non-JSON constant {name}")

    reports = {}
    for p in ("0", "0.5"):
        code, out, err = run_cli(capsys, "audit", "--graph6", "D?{", "--p", p,
                                 "--samples", "3")
        assert code == 0, err
        reports[p] = json.loads(out, parse_constant=reject)
    assert [a["relative_deviation"] for a in reports["0"]["A1"]] == [None] * 3
    assert reports["0"]["A3"]["mean_relative_deviation"] is None
    assert reports["0.5"]["A3"]["max_relative_deviation"] is not None


def test_stdout_pure_json(capsys):
    code, out, err = run_cli(capsys, "classify", "--graph6", "Bw")
    json.loads(out)  # the whole stream is one JSON document
    assert code == 0


def run_module(argv, **streams):
    """Run the CLI in a fresh interpreter with the given stdout/stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "threshold_lab.cli", *argv],
                          env=env, timeout=120, **streams)


def test_closed_stdout_exits_cleanly():
    # the read end is closed before the CLI starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module(["classify", "--graph6", "FhCKG"],
                          stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PIPE
    assert proc.stderr == b""


def test_closed_stderr_keeps_the_exit_code():
    # a parse error whose diagnostic cannot be written still exits 3
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module(["classify", "--graph6", "!!"],
                          stdout=subprocess.PIPE, stderr=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == b""
