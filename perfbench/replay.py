"""Untraced replay of a traced run: run the first ``blocks`` blocks of a
workload and print what they measured as one JSON line. ``run.py`` starts
this in a fresh interpreter, so that the replay meets every input for the
first time, as the traced pass did.

Usage: python3 perfbench/replay.py <workload> <seed> <blocks>
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402 - needs the path above
import workloads  # noqa: E402

name, seed, blocks = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
result = run.run_pass(workloads.WORKLOADS[name](seed), 0, blocks=blocks)
print(json.dumps({key: result[key] for key in ("seconds", "verbs", "attempted", "failures")}))
