"""The four benchmark workloads: seeded inputs, timed requests, and checks.

Each workload runs in blocks. A block is a fixed mix of requests; the run
repeats blocks until the timed seconds reach the run length, so every run
measures whole blocks of the same mix. Inputs come from the benchmark's own
``random.Random``, seeded from the workload name and the seed, never from
the library's generator. Requests run one at a time in this process (a
closed loop with one client). Correctness checks run after each block,
outside the timed calls, and count towards the failed operations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import oracles
from threshold_lab import atlas, cli
from threshold_lab.graphs import Graph

DENSITIES = (0.3, 0.4, 0.5, 0.6)


@dataclass
class Block:
    """What one block measured and what its checks found."""

    latencies: list[float] = field(default_factory=list)  # seconds per request
    verbs: dict[str, list[float]] = field(default_factory=dict)  # seconds per CLI call
    units: int = 0  # throughput units: graphs, patterns or trials
    seconds: float = 0.0  # timed seconds, the sum over all calls
    attempted: int = 0
    failures: list[str] = field(default_factory=list)  # one per failed operation
    digest: str = ""
    successes: int = 0  # template trials that met the degree target
    trials: int = 0


def timed(fn, tracer=None):
    """Run ``fn()`` once; return (seconds, result, error text).

    An exception from the library is a failed operation, not a crash of the
    benchmark, so it is caught and described."""
    if tracer is not None:
        tracer.request += 1
        tracer.active = True
    t0 = perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # noqa: BLE001 - the boundary reports any failure
        result, error = None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    return seconds, result, error


def run_cli(argv: list[str]):
    """``threshold_lab.cli.main`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_json(code, stdout: str, error) -> tuple[dict | None, str | None]:
    """The parsed payload of a CLI call, or why the call failed."""
    if error is not None:
        return None, error
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"unparseable JSON: {exc}"


def checked(check, *args) -> list[str]:
    """What a check finds wrong in a call's output. Output the check cannot
    read (a missing key, a wrong type, a value out of range) is a failure of
    the call, not a crash of the benchmark."""
    try:
        found = check(*args)
    except Exception as exc:  # noqa: BLE001 - any unreadable output fails the call
        return [f"malformed output: {type(exc).__name__}: {exc}"]
    return [found] if isinstance(found, str) else list(found or ())


def untimed_threshold(graph6: str) -> Fraction:
    """delta_chi of a graph, asked through the CLI outside the timed region."""
    code, out = run_cli(["threshold", "--graph6", graph6])
    payload, why = cli_json(code, out, None)
    if payload is None:
        raise ValueError(f"threshold check call failed: {why}")
    return Fraction(payload["delta_chi"])


def random_pattern(rng: random.Random, n: int, density: float) -> tuple[int, ...]:
    """Uniform random graph on n vertices with round(density * C(n, 2))
    edges. A fixed edge count, unlike G(n, p), keeps sparse draws with many
    more quotients from deciding a run's cost."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rows = [0] * n
    for u, v in rng.sample(pairs, round(density * len(pairs))):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def random_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


class Workload:
    name = ""
    unit = ""
    verbs: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.block_index = 0

    def next_inputs(self):
        """Generate the next block's inputs (advances the seeded stream)."""
        inputs = self.make_inputs(self.block_index)
        self.block_index += 1
        return inputs

    def make_inputs(self, index: int):
        raise NotImplementedError

    def run(self, inputs, tracer=None) -> Block:
        raise NotImplementedError


# -- atlas-n7 ----------------------------------------------------------------


ATLAS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044)  # graphs on 0..7 vertices


class AtlasN7(Workload):
    """All graphs on up to seven vertices, one ``atlas_level`` call per
    representative. A block is one full build from E0; the next level is the
    union of the calls' outputs. Each build relabels every representative by
    a fresh seeded permutation, so no labelled input recurs while the output
    must not change."""

    name = "atlas-n7"
    unit = "graph"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.counts = ATLAS_COUNTS
        self.first_levels: list[set[str]] | None = None

    def make_inputs(self, index):
        return random.Random(self.rng.getrandbits(64))

    def run(self, rng, tracer=None) -> Block:
        block = Block()
        levels: list[set[str]] = []
        reps = [()]
        for level in range(1, len(self.counts)):
            kept: set[str] = set()
            failed_here = 0
            for rows in reps:
                g = Graph(len(rows), oracles.relabel(rows, random_perm(rng, len(rows))))
                seconds, out, error = timed(lambda: atlas.atlas_level([g]), tracer)
                block.latencies.append(seconds)
                block.seconds += seconds
                block.attempted += 1
                why = error
                if why is None:
                    codes = [oracles.encode_graph6(x.adj) for x in out]
                    if any(x.n != level for x in out):
                        why = f"level {level}: output graph of the wrong order"
                    elif len(set(codes)) != len(codes):
                        why = f"level {level}: repeated canonical form in one call"
                    kept.update(codes)
                if why is not None:
                    block.failures.append(why)
                    failed_here += 1
            if len(kept) != self.counts[level]:
                # a wrong count cannot be traced to one call: all of them fail
                block.failures += [f"level {level}: {len(kept)} classes, "
                                   f"expected {self.counts[level]}"] * (len(reps) - failed_here)
            levels.append(kept)
            block.units += len(kept)
            reps = [oracles.decode_graph6(code) for code in sorted(kept)]
        if self.first_levels is None:
            self.first_levels = levels
        elif levels != self.first_levels:
            block.failures.append("relabelled build gave a different atlas")
        block.digest = hashlib.sha256(
            "\n".join(code for kept in levels for code in sorted(kept)).encode()).hexdigest()
        return block


# -- pattern-queries -----------------------------------------------------------


class PatternQueries(Workload):
    """Seeded random patterns; each gets ``classify``, ``threshold`` and
    ``regimes`` back to back, as one session asking three questions about
    one H. A block holds one pattern for each n in 5..9 and each density."""

    name = "pattern-queries"
    unit = "pattern"
    verbs = ("classify", "threshold", "regimes")

    def make_inputs(self, index):
        cells = [(n, p) for n in range(5, 10) for p in DENSITIES]
        self.rng.shuffle(cells)
        return [random_pattern(self.rng, n, p) for n, p in cells]

    def run(self, patterns, tracer=None) -> Block:
        block = Block(verbs={verb: [] for verb in self.verbs})
        sha = hashlib.sha256()
        for rows in patterns:
            code = oracles.encode_graph6(rows)
            payloads = {}
            latency = 0.0
            for verb in self.verbs:
                seconds, got, error = timed(lambda: run_cli([verb, "--graph6", code]), tracer)
                latency += seconds
                block.verbs[verb].append(seconds)
                block.attempted += 1
                exit_code, stdout = got if got is not None else (None, "")
                sha.update(stdout.encode())
                payloads[verb], why = cli_json(exit_code, stdout, error)
                if why is not None:
                    block.failures.append(f"{verb} {code}: {why}")
            block.latencies.append(latency)
            block.seconds += latency
            block.units += 1
            if all(payloads.values()):
                block.failures += [f"{code}: {why}" for why in checked(self.check, rows, payloads)]
        block.digest = sha.hexdigest()
        return block

    @staticmethod
    def check(rows, out) -> list[str]:
        """Failed checks, at most one message per call."""
        r = oracles.chromatic_number(rows)
        cls, thr, reg = out["classify"], out["threshold"], out["regimes"]
        witnesses = cls["witnesses"]
        near, forest = cls["near_acyclic"], cls["forest_in_decomposition_family"]
        cloud, thunder = cls["cloud_forest"], cls["thundercloud_forest"]
        classify_ok = (
            cls["chromatic_number"] == r
            and (not thunder or cloud)
            and (not cloud or (r <= 3 and _split_ok(rows, witnesses["cloud_forest"]["cloud"],
                                                    witnesses["cloud_forest"]["forest"])))
            and (not near or _split_ok(rows, witnesses["near_acyclic"]["independent"],
                                       witnesses["near_acyclic"]["forest"]))
            and (r != 3 or (sum([near, forest and not near, not forest]) == 1
                            and cls["r_near_acyclic"] == near
                            and (not thunder or near)
                            and (not cloud or forest))))
        bad = [] if classify_ok else [f"classify disagrees with chi={r} or with itself"]
        case = thr["witness"]["case"]
        threshold_ok = ((case == "bipartite") == (r == 2)
                        and Fraction(thr["delta_chi"]) == oracles.delta_formula(case, r))
        if threshold_ok and r >= 3 and classify_ok:
            threshold_ok = case == ("r-near-acyclic" if cls["r_near_acyclic"] else
                                    "forest-in-decomposition-family" if forest else
                                    "no-forest-in-decomposition-family")
        if not threshold_ok:
            bad.append(f"threshold case {case!r} value {thr['delta_chi']} wrong at chi={r}")
        first = reg["rows"][0]["value"]
        if first.get("kind") != "Exact" or Fraction(first["v"]) != Fraction(thr["delta_chi"]):
            bad.append("regimes constant-p row differs from delta_chi")
        return bad


def _split_ok(rows, independent, forest) -> bool:
    """``independent`` is independent, ``forest`` is acyclic, and together
    they partition the vertices."""
    i_mask = sum(1 << v for v in independent)
    f_mask = sum(1 << v for v in forest)
    return (i_mask & f_mask == 0 and i_mask | f_mask == (1 << len(rows)) - 1
            and oracles.is_independent(rows, i_mask) and oracles.is_forest(rows, f_mask))


# -- star-quotients ------------------------------------------------------------

# The fixed patterns are built here, not with threshold_lab.constructions,
# so that no input depends on the code under test.

def _cycle(n):
    return tuple((1 << (v - 1) % n) | (1 << (v + 1) % n) for v in range(n))


def _complete_multipartite(sizes):
    n = sum(sizes)
    rows, start = [], 0
    for size in sizes:
        part = ((1 << size) - 1) << start
        rows += [((1 << n) - 1) & ~part] * size
        start += size
    return tuple(rows)


def _blow_up(rows, t):
    n = len(rows)
    out = [0] * (n * t)
    for u in range(n):
        for v in range(n):
            if rows[u] >> v & 1:
                for a in range(t):
                    for b in range(t):
                        out[u * t + a] |= 1 << (v * t + b)
    return tuple(out)


# Symmetric patterns with many isomorphic quotients: shared work, and
# canonical forms of symmetric graphs.
STAR_FIXED = (
    ("C7", _cycle(7)),
    ("C9", _cycle(9)),
    ("K333", _complete_multipartite([3, 3, 3])),
    ("C5x2", _blow_up(_cycle(5), 2)),
)


class StarQuotients(Workload):
    """``threshold-star`` on seeded random patterns (one for each n in 6..8
    and each density per block) and, once per run in the first block, the
    fixed symmetric set. The fixed set keeps its labelling: the cost of a
    symmetric graph's quotient search swings by a factor of two with the
    labelling, which would make runs unsteady."""

    name = "star-quotients"
    unit = "pattern"
    verbs = ("threshold-star",)

    def make_inputs(self, index):
        cells = [(n, p) for n in range(6, 9) for p in DENSITIES]
        self.rng.shuffle(cells)
        items = [("random", random_pattern(self.rng, n, p)) for n, p in cells]
        return list(STAR_FIXED) + items if index == 0 else items

    def run(self, items, tracer=None) -> Block:
        block = Block(verbs={"threshold-star": []})
        sha = hashlib.sha256()
        for name, rows in items:
            code = oracles.encode_graph6(rows)
            seconds, got, error = timed(lambda: run_cli(["threshold-star", "--graph6", code]),
                                        tracer)
            block.latencies.append(seconds)
            block.verbs["threshold-star"].append(seconds)
            block.seconds += seconds
            block.attempted += 1
            block.units += 1
            exit_code, stdout = got if got is not None else (None, "")
            sha.update(stdout.encode())
            payload, why = cli_json(exit_code, stdout, error)
            found = [why] if why is not None else checked(self.check, name, rows, payload)
            block.failures += [f"threshold-star {name} {code}: {why}" for why in found]
        block.digest = sha.hexdigest()
        return block

    @staticmethod
    def check(name, rows, out) -> str | None:
        star = Fraction(out["delta_chi_star"])
        if star > untimed_threshold(oracles.encode_graph6(rows)):
            return "delta* exceeds delta"
        witness = out["witness"]
        try:
            q_rows = oracles.decode_graph6(witness["quotient_graph6"])
        except ValueError as exc:
            return str(exc)
        if len(q_rows) > len(rows) or witness["quotient_vertices"] != len(q_rows):
            return "quotient has the wrong number of vertices"
        classes = witness["partition"]
        flat = sorted(v for c in classes for v in c)
        if flat != list(range(len(rows))) or not all(
                oracles.is_independent(rows, sum(1 << v for v in c)) for c in classes):
            return "partition is not a partition into independent classes"
        if not oracles.isomorphic(oracles.quotient(rows, classes), q_rows):
            return "quotient graph6 is not the quotient by the partition"
        if untimed_threshold(witness["quotient_graph6"]) != star:
            return "the quotient does not attain delta*"
        if name == "C5x2" and star != 0:
            return f"blow-up of C5 by 2 gave {star}, expected 0"
        return None


# -- template-experiment ---------------------------------------------------------


TEMPLATE_N, TEMPLATE_P, TEMPLATE_K, TEMPLATE_TRIALS = 200, "1/2", 3, 4
# a trial succeeds at min degree >= (d - gamma) p n with the CLI defaults
# d = 3/5, gamma = 1/10
TEMPLATE_NEED = (Fraction(3, 5) - Fraction(1, 10)) * Fraction(TEMPLATE_P) * TEMPLATE_N


class TemplateExperiment(Workload):
    """The ``experiment`` verb at n=200, p=1/2, k=3: one call of a few trials
    per block. The first call uses the workload seed itself, later calls
    fresh seeds drawn from it. A min-degree miss is an experiment outcome,
    counted in the success rate, not a failure."""

    name = "template-experiment"
    unit = "trial"
    verbs = ("experiment",)

    def make_inputs(self, index):
        return self.seed if index == 0 else self.rng.getrandbits(63)

    def run(self, seed, tracer=None) -> Block:
        block = Block(verbs={"experiment": []})
        argv = ["experiment", "--n", str(TEMPLATE_N), "--p", TEMPLATE_P,
                "--k", str(TEMPLATE_K), "--trials", str(TEMPLATE_TRIALS), "--seed", str(seed)]
        seconds, got, error = timed(lambda: run_cli(argv), tracer)
        block.latencies.append(seconds)
        block.verbs["experiment"].append(seconds)
        block.seconds = seconds
        block.attempted = 1
        block.units = TEMPLATE_TRIALS
        exit_code, stdout = got if got is not None else (None, "")
        block.digest = hashlib.sha256(stdout.encode()).hexdigest()
        payload, why = cli_json(exit_code, stdout, error)
        found = [why] if why is not None else checked(self.check, seed, payload)
        block.failures += [f"experiment seed {seed}: {why}" for why in found]
        if not found:
            block.successes, block.trials = payload["successes"], payload["trials"]
        return block

    @staticmethod
    def check(seed, out) -> str | None:
        """Consistency of the report, and for trial 0 the sample and the
        reported minimum degree against the oracle's own draw from the
        trial's seed."""
        trials = out["per_trial"]
        if out["trials"] != TEMPLATE_TRIALS or len(trials) != TEMPLATE_TRIALS:
            return "wrong number of trials"
        if not 0 <= out["successes"] <= out["trials"]:
            return "successes outside [0, trials]"
        if out["successes"] != sum(bool(t["success"]) for t in trials):
            return "successes disagree with the per-trial records"
        for i, t in enumerate(trials):
            if t["trial"] != i:
                return f"trial {i} is out of order"
            meets = t["clique_found"] and t["min_degree"] >= TEMPLATE_NEED
            if bool(t["success"]) != bool(meets):
                return f"trial {i}: success flag disagrees with its min degree"
            if t["clique_found"] and t["x_edges_preserved"] is not True:
                return f"trial {i}: a found clique lost an edge"
            if t["seed"] != oracles.trial_seed(seed, i):
                return f"trial {i}: wrong trial seed"
        first = trials[0]
        sample = oracles.sample_gnp(TEMPLATE_N, Fraction(TEMPLATE_P), first["seed"])
        initial = (1 << (TEMPLATE_K + TEMPLATE_N // TEMPLATE_K)) - 1
        if first["clique_found"] != oracles.has_clique(sample, initial, TEMPLATE_K):
            return "trial 0: clique_found disagrees with the sample"
        if first["clique_found"]:
            low, high = oracles.embedded_min_degree_bounds(sample, TEMPLATE_K)
            if not low <= first["min_degree"] <= high:
                return (f"trial 0: min degree {first['min_degree']} outside "
                        f"[{low}, {high}] of the sample")
        return None


WORKLOADS = {w.name: w for w in (AtlasN7, PatternQueries, StarQuotients, TemplateExperiment)}
