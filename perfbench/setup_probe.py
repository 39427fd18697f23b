"""Set-up probe: start, import the library and the benchmark, and generate
the first block's inputs, then exit. ``run.py`` times fresh runs of this
script for ``setup_s``.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402 - needs the path above

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).next_inputs()
