"""Self-tests of the benchmark. Run from the repository root with

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def first_inputs(workload):
    out = []
    for _ in range(2):
        inputs = workload.next_inputs()
        # atlas-n7 hands each build a seeded generator for its relabellings
        out.append([inputs.getrandbits(64) for _ in range(8)]
                   if hasattr(inputs, "getrandbits") else inputs)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    make = workloads.WORKLOADS[name]
    assert first_inputs(make(7)) == first_inputs(make(7))
    assert first_inputs(make(7)) != first_inputs(make(8))


@pytest.mark.parametrize("count, expected", [
    (1, 100.0), (19, 100.0), (20, 50.0), (40, 75.0), (100, 90.0), (150, 100 * 140 / 150),
    (1000, 99.0),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    summary = run.latency_summary([i / 1000 for i in range(1, count + 1)])
    assert summary["tail_percentile"] == pytest.approx(expected)
    assert summary["samples"] == count


def test_tail_value_has_ten_samples_beyond_it():
    for count in range(20, 2000):
        samples = [i / 1000 for i in range(count, 0, -1)]
        summary = run.latency_summary(samples)
        assert sum(s * 1e3 > summary["tail_ms"] for s in samples) == 10, count
    assert run.latency_summary([0.003, 0.001, 0.002])["p50_ms"] == pytest.approx(2.0)


def test_oracle_chromatic_numbers():
    assert oracles.chromatic_number(workloads._cycle(5)) == 3
    assert oracles.chromatic_number(workloads._cycle(6)) == 2
    assert oracles.chromatic_number(workloads._complete_multipartite([1, 1, 1, 1])) == 4
    assert oracles.chromatic_number(workloads._blow_up(workloads._cycle(5), 2)) == 3
    assert oracles.chromatic_number((0, 0, 0)) == 1


def run_main(capsys, monkeypatch, tmp_path, workload, trace):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_wrong_chromatic_number_counts_as_failure(capsys, monkeypatch, tmp_path):
    exact = sys.modules["threshold_lab.exact"]
    right = exact.chromatic_number

    def off_by_one(g, budget=None):
        return right(g, budget) + 1

    for name, module in list(sys.modules.items()):
        if name.startswith("threshold_lab") and getattr(module, "chromatic_number", None) is right:
            monkeypatch.setattr(module, "chromatic_number", off_by_one)
    final = run_main(capsys, monkeypatch, tmp_path, "pattern-queries", 0)
    assert final["failed"] > 0 and final["correct"] is False
    assert final["attempted"] >= final["failed"]


def test_denser_template_sample_counts_as_failure(monkeypatch):
    harness = sys.modules["threshold_lab.harness"]
    right = harness._edge_threshold
    monkeypatch.setattr(harness, "_edge_threshold", lambda p: right(p * 11 / 10))
    workload = workloads.TemplateExperiment(3)
    assert all(workload.run(seed).failures for seed in (1, 2, 3))


def test_oracle_sample_matches_the_documented_stream():
    harness = sys.modules["threshold_lab.harness"]
    for seed in (0, 5, 2**63 + 9):
        assert oracles.trial_seed(seed, 2) == harness.derive_trial_seed(seed, 2)
        params = harness.GnpParams(30, "1/3", seed)
        assert oracles.sample_gnp(30, params.p, seed) == harness.sample_gnp(params).adj


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_printed_metrics_are_declared(name, trace, capsys, monkeypatch, tmp_path):
    # smaller atlas and fixed star set, so each run takes seconds
    monkeypatch.setattr(workloads, "ATLAS_COUNTS", workloads.ATLAS_COUNTS[:6])
    monkeypatch.setattr(workloads, "STAR_FIXED", workloads.STAR_FIXED[:1])
    final = run_main(capsys, monkeypatch, tmp_path, name, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in final["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert final["correct"] is True and final["failed"] == 0
    if not trace:
        assert all(v["value"] > 0 for v in final["metrics"].values())
    assert sys.modules["threshold_lab.cli"].main.__module__ == "threshold_lab.cli"
