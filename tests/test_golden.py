"""The CLI prints exactly the bytes of the golden corpus.

``tests/golden/corpus.jsonl`` holds the exit code and stdout of four verbs
on every graph with at most 6 vertices and on a few named graphs, and of the
seeded ``sample`` and ``experiment`` verbs on fixed arguments;
``tests/golden/regenerate.py`` rebuilds it.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from threshold_lab.cli import main

CORPUS = Path(__file__).parent / "golden" / "corpus.jsonl"
ENTRIES = [json.loads(line) for line in CORPUS.read_text().splitlines()]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("verb", ["classify", "threshold", "regimes", "threshold-star"])
def test_cli_output_matches_golden_corpus(verb, monkeypatch):
    monkeypatch.delenv("THRESHOLD_LAB_BUDGET", raising=False)
    entries = [e for e in ENTRIES if e["verb"] == verb]
    assert len(entries) == 217
    for entry in entries:
        got = run([verb, "--graph6", entry["graph6"]])
        assert got == (entry["exit"], entry["stdout"]), entry["name"]


@pytest.mark.parametrize("verb, count", [("sample", 75), ("experiment", 11)])
def test_seeded_output_matches_golden_corpus(verb, count, monkeypatch):
    monkeypatch.delenv("THRESHOLD_LAB_BUDGET", raising=False)
    entries = [e for e in ENTRIES if e["verb"] == verb]
    assert len(entries) == count
    for entry in entries:
        assert run(entry["argv"]) == (entry["exit"], entry["stdout"]), entry["name"]
