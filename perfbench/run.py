"""threshold-lab benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it runs the workload traced for half of ``--seconds``,
replays the same blocks untraced in a fresh interpreter, and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the run environment and the details behind the metrics.
Metric names and units are declared in BENCHMARK.json. Workloads and
metrics are described in perfbench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("atlas-n7", "pattern-queries", "star-quotients", "template-experiment")
SETUP_RUNS = 7  # set-up probes per run; setup_s is their median
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile


# -- statistics ------------------------------------------------------------------


def tail_rank(count: int) -> int:
    """1-based rank of the tail sample: the highest rank that leaves at
    least TAIL_BEYOND samples above it, so the eleventh-largest sample. Below
    twice TAIL_BEYOND samples that rank would fall under the median, and the
    maximum is used instead."""
    return count - TAIL_BEYOND if count >= 2 * TAIL_BEYOND else count


def latency_summary(seconds: list[float]) -> dict:
    """Median and tail in ms, the tail's percentile and the sample count.
    Ranks are taken as integers, so no float rounding moves the tail."""
    ordered = sorted(seconds)
    count = len(ordered)
    rank = tail_rank(count)
    return {"p50_ms": ordered[(count + 1) // 2 - 1] * 1e3,
            "tail_ms": ordered[rank - 1] * 1e3,
            "tail_percentile": 100 * rank / count, "samples": count}


# -- environment -------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the library sources, which identifies the code measured
    even where the checkout has no git metadata."""
    sha = hashlib.sha256()
    for path in sorted((SRC / "threshold_lab").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- running -----------------------------------------------------------------------


class SetupProbes:
    """Times fresh interpreters that import the library and generate the
    first block's inputs, one at a time. The probes are spread over the
    measuring period (between blocks, never during a timed call), so their
    median samples the machine in the same states as the workload does."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.seconds = seconds
        self.times: list[float] = []

    def probe(self) -> None:
        t0 = perf_counter()
        subprocess.run(self.argv, check=True, stdin=subprocess.DEVNULL)
        self.times.append(perf_counter() - t0)

    def due(self, measured: float) -> None:
        """Run the probes whose share of the run length has passed."""
        while len(self.times) < SETUP_RUNS \
                and measured >= len(self.times) * self.seconds / SETUP_RUNS:
            self.probe()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_RUNS:
            self.probe()
        return self.times


def run_pass(workload, seconds: float, tracer=None, blocks: int | None = None,
             probes: SetupProbes | None = None) -> dict:
    """Run whole blocks until the timed seconds reach ``seconds`` (or run
    exactly ``blocks`` blocks) and pool what they measured."""
    pooled = {"latencies": [], "verbs": {}, "units": 0, "seconds": 0.0,
              "attempted": 0, "failures": [], "digests": [], "successes": 0,
              "trials": 0, "blocks": 0}
    while (pooled["blocks"] < blocks) if blocks is not None else (pooled["seconds"] < seconds):
        if probes is not None:
            probes.due(pooled["seconds"])
        block = workload.run(workload.next_inputs(), tracer)
        pooled["blocks"] += 1
        pooled["latencies"] += block.latencies
        for verb, times in block.verbs.items():
            pooled["verbs"].setdefault(verb, []).extend(times)
        for key in ("units", "seconds", "attempted", "successes", "trials"):
            pooled[key] += getattr(block, key)
        pooled["failures"] += block.failures
        pooled["digests"].append(block.digest)
    return pooled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(result: dict, setup: list[float]) -> dict:
    lat = latency_summary(result["latencies"])
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (result["units"] / result["seconds"], "1/s"),
        "tail_ms": (lat["tail_ms"], "ms"),
    }


VERBS = ("classify", "threshold", "regimes", "threshold-star", "experiment")


def success_rate(result: dict) -> float:
    """Share of template trials that met the degree target (0 without trials)."""
    return result["successes"] / result["trials"] if result["trials"] else 0.0


def per_layer(tracer, traced: dict, untraced: dict, threshold_distinct: int) -> dict:
    metrics = {}
    for i, name in enumerate(tracer.names):
        metrics[f"{name}.calls"] = (tracer.calls[i], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[i], "s")
        if tracer.has_budget[i]:
            metrics[f"{name}.nodes"] = (tracer.nodes[i], "count")

    def ratio(num, den):
        return num / den if den else 0.0

    idx = tracer.index
    metrics["exact.chromatic_number.distinct_ratio"] = (
        ratio(len(tracer.chromatic_inputs), tracer.calls[idx["exact.chromatic_number"]]),
        "ratio")
    metrics["thresholds.chromatic_threshold.distinct_ratio"] = (
        ratio(threshold_distinct, tracer.calls[idx["thresholds.chromatic_threshold"]]), "ratio")
    metrics["atlas.dedup_ratio"] = (
        ratio(tracer.items[idx["atlas.atlas_level"]],
              tracer.child_calls("atlas.atlas_level", "exact.canonical_form")), "ratio")
    metrics["thresholds.quotient_yield_ratio"] = (
        ratio(tracer.items[idx["thresholds.quotients_with_partitions"]],
              tracer.child_calls("thresholds.quotients_with_partitions",
                                 "exact.canonical_form")), "ratio")
    metrics["harness.success_rate"] = (success_rate(traced), "ratio")
    metrics["trace.overhead_s"] = (traced["seconds"] - untraced["seconds"], "s")
    for verb in VERBS:
        times = untraced["verbs"].get(verb)
        lat = latency_summary(times) if times else {"p50_ms": 0.0, "tail_ms": 0.0}
        metrics[f"verb.{verb}.p50_ms"] = (lat["p50_ms"], "ms")
        metrics[f"verb.{verb}.tail_ms"] = (lat["tail_ms"], "ms")
    return metrics


def distinct_by_canonical_form(inputs) -> int:
    """Distinct isomorphism classes among labelled (n, adj) inputs, computed
    after the traced pass with the tracer inactive."""
    from threshold_lab.exact import canonical_form
    from threshold_lab.graphs import Graph

    return len({canonical_form(Graph(n, adj)) for n, adj in inputs})


def untraced_replay(workload: str, seed: int, blocks: int) -> dict:
    """The same blocks as the traced pass, run untraced in a fresh
    interpreter, so that no input of the replay has been seen by the process
    that runs it. The parent waits, idle, until the replay has ended."""
    done = subprocess.run([sys.executable, str(HERE / "replay.py"), workload, str(seed),
                           str(blocks)],
                          check=True, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def traced_run(workload: str, seed: int, seconds: float):
    """Run traced for half of ``seconds``, then replay the same blocks
    untraced in a fresh interpreter, so that a traced run takes about as
    long as an untraced one. Returns the tracer, both passes and the
    per-layer metrics."""
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workloads.WORKLOADS[workload](seed), seconds / 2, tracer)
    finally:
        tracer.uninstall()
    distinct = distinct_by_canonical_form(tracer.threshold_inputs)
    replay = untraced_replay(workload, seed, traced["blocks"])
    return tracer, traced, replay, per_layer(tracer, traced, replay, distinct)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "threshold_lab" / "__init__.py").is_file():
        print(f"error: no threshold_lab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("THRESHOLD_LAB_BUDGET", None)  # every run uses the default budgets
    import workloads

    env = environment(args.seed)
    make = workloads.WORKLOADS[args.workload]
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace}
    if args.trace:
        tracer, result, replay, metrics = traced_run(args.workload, args.seed, args.seconds)
        passes = [result, replay]
        details.update(untraced_s=replay["seconds"], spans_kept=len(tracer.spans),
                       spans_dropped=tracer.dropped_spans)
    else:
        probes = SetupProbes(args.workload, args.seed, args.seconds)
        result = run_pass(make(args.seed), args.seconds, probes=probes)
        passes = [result]
        metrics = end_to_end(result, probes.finish())
        details["setup_runs_s"] = probes.times

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    env["loadavg_end"] = os.getloadavg()
    details.update({
        "env": env,
        "unit": make.unit,
        "blocks": result["blocks"],
        "units": result["units"],
        "timed_s": result["seconds"],
        "latency": latency_summary(result["latencies"]),
        "verbs": {verb: latency_summary(times) for verb, times in result["verbs"].items()},
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "success_rate": success_rate(result) if result["trials"] else None,
        "outputs_sha256_by_block": result["digests"],
    })
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_spans(str(RESULTS / f"{stem}.spans.jsonl"))
    final = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps({**details, "result": final}, indent=1))
    print(json.dumps(details))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
