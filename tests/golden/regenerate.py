"""Regenerate the golden CLI corpus.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

It runs the ``classify``, ``threshold``, ``regimes`` and ``threshold-star``
verbs through ``cli.main`` on every graph with at most 6 vertices and on a
few named graphs, and writes each exit code and stdout to ``corpus.jsonl``
beside this script, one JSON object per line. ``tests/test_golden.py`` asserts that the CLI still
prints exactly these bytes. Regenerate only when an output change is
intended, and say why in the change log.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from threshold_lab.atlas import atlas
from threshold_lab.cli import main
from threshold_lab.constructions import blow_up
from threshold_lab.formats import write_graph6
from threshold_lab.graphs import Graph

VERBS = ("classify", "threshold", "regimes", "threshold-star")
CORPUS = Path(__file__).with_name("corpus.jsonl")


def named_graphs() -> list[tuple[str, Graph]]:
    petersen = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                + [(i, i + 5) for i in range(5)]
                                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    wheel = Graph.from_edges(12, [(i, (i + 1) % 11) for i in range(11)]
                             + [(11, i) for i in range(11)])
    return [
        ("C5", Graph.cycle(5)),
        ("C7", Graph.cycle(7)),
        ("C9", Graph.cycle(9)),
        ("K4", Graph.complete(4)),
        ("K333", Graph.complete_multipartite([3, 3, 3])),
        ("Petersen", petersen),
        ("W12", wheel),
        ("C5x2", blow_up(Graph.cycle(5), 2)),
    ]


def inputs() -> list[tuple[str, str]]:
    """(name, graph6) pairs: the atlas up to 6 vertices, then the named graphs."""
    out = []
    for g in atlas(6):
        code = write_graph6(g).decode("ascii")
        out.append((code, code))
    for name, g in named_graphs():
        out.append((name, write_graph6(g).decode("ascii")))
    return out


def run(verb: str, graph6: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([verb, "--graph6", graph6])
    return code, out.getvalue()


def main_regenerate() -> None:
    os.environ.pop("THRESHOLD_LAB_BUDGET", None)
    entries = []
    for name, graph6 in inputs():
        for verb in VERBS:
            code, stdout = run(verb, graph6)
            entries.append({"name": name, "graph6": graph6, "verb": verb,
                            "exit": code, "stdout": stdout})
    CORPUS.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in entries))


if __name__ == "__main__":
    main_regenerate()
