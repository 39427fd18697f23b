"""Regenerate the golden CLI corpus.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

It runs the ``classify``, ``threshold``, ``regimes`` and ``threshold-star``
verbs through ``cli.main`` on every graph with at most 6 vertices and on a
few named graphs, then the ``sample`` and ``experiment`` verbs on the seeded
cases of ``seeded_cases``, and writes each exit code and stdout to
``corpus.jsonl`` beside this script, one JSON object per line. A seeded entry
also records its ``argv``. ``tests/test_golden.py`` asserts that the CLI still
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


MAX_SEED = (1 << 64) - 1  # the generator state wraps on its first step


def seeded_cases() -> list[tuple[str, list[str]]]:
    """(name, argv) pairs for the seeded verbs: G(n, p) samples over sizes,
    probabilities and seeds, and template experiments at k = 3 (n = 40 also
    at other k and p, one of them a domain error)."""
    cases = []
    for n in (0, 1, 2, 40, 200):
        for p in ("0", "1/3", "0.3", "1/2", "1"):
            for seed in (0, 1, MAX_SEED):
                cases.append((f"sample n={n} p={p} seed={seed}",
                              ["sample", "--n", str(n), "--p", p, "--seed", str(seed)]))
    runs = [(200, "1/2", 3, 4, seed) for seed in (0, 635340061525167377, MAX_SEED)]
    runs += [(40, "1/2", 3, 10, seed) for seed in (0, 7, MAX_SEED)]
    runs += [(40, "3/10", 3, 10, 7)]
    runs += [(40, "1/2", k, 10, 7) for k in (1, 2, 4, 5)]
    for n, p, k, trials, seed in runs:
        cases.append((f"experiment n={n} p={p} k={k} seed={seed}",
                      ["experiment", "--n", str(n), "--p", p, "--k", str(k),
                       "--trials", str(trials), "--seed", str(seed)]))
    return cases


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def main_regenerate() -> None:
    os.environ.pop("THRESHOLD_LAB_BUDGET", None)
    entries = []
    for name, graph6 in inputs():
        for verb in VERBS:
            code, stdout = run([verb, "--graph6", graph6])
            entries.append({"name": name, "graph6": graph6, "verb": verb,
                            "exit": code, "stdout": stdout})
    for name, argv in seeded_cases():
        code, stdout = run(argv)
        entries.append({"name": name, "argv": argv, "verb": argv[0],
                        "exit": code, "stdout": stdout})
    CORPUS.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in entries))


if __name__ == "__main__":
    main_regenerate()
