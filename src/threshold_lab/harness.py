"""Seeded G(n,p) sampling and desk-scale experiments.

Randomness comes from a named, versioned generator (splitmix64) so every
experiment is reproducible bit-for-bit from its parameters alone. Per-trial
seeds are derived by mixing the base seed with the trial index, which keeps
trials independent and order-insensitive.

``SplitMix64`` defines the stream. Because splitmix64 is counter-based, draw
``i`` of the stream from ``seed`` is ``mix64(seed + i * gamma)``, so
``sample_gnp`` computes a whole adjacency row of draws at once, packed into
128-bit lanes of one integer, and ``embed_template`` works on whole rows
too: neither has a loop per vertex pair.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import Optional, Sequence, Union

from .errors import BudgetExceededError, DomainError, SizeCapExceededError, as_budget
from .exact import chromatic_number, contains_subgraph
from .graphs import Graph
from .constructions import TemplateGraph

RNG_NAME = "splitmix64-v1"

_MASK64 = (1 << 64) - 1


_GAMMA = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer: one mixing step of the stream."""
    x = (x + _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class SplitMix64:
    """Deterministic 64-bit stream with the splitmix64 update rule."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        x = self._state
        self._state = (x + _GAMMA) & _MASK64
        return mix64(x)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection."""
        if bound <= 0:
            raise DomainError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def sample(self, items: Sequence, k: int) -> list:
        """k distinct items, order-independent of the input sequence type."""
        pool = list(items)
        if k > len(pool):
            raise DomainError("sample larger than population")
        out = []
        for _ in range(k):
            i = self.below(len(pool))
            out.append(pool.pop(i))
        return out


def parse_probability(p: Union[str, float, int, Fraction]) -> Fraction:
    """Exact rational probability from a string, float, int, or Fraction.

    Decimal strings are read exactly (``"0.3"`` becomes 3/10, not the nearest
    float).
    """
    q = Fraction(p)
    if not 0 <= q <= 1:
        raise DomainError(f"probability {p} outside [0, 1]")
    return q


def _edge_threshold(p: Fraction) -> int:
    """round(p * 2^64) with ties to even, so inclusion is u64 < threshold."""
    scaled = p * (1 << 64)
    floor = scaled.numerator // scaled.denominator
    rem = scaled - floor
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and floor % 2 == 1):
        floor += 1
    return floor


@dataclass(frozen=True)
class GnpParams:
    n: int
    p: Fraction
    seed: int

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("n must be non-negative")
        object.__setattr__(self, "p", parse_probability(self.p))
        object.__setattr__(self, "seed", self.seed & _MASK64)

    def to_json(self):
        return {"n": self.n, "p": str(self.p), "seed": self.seed, "rng": RNG_NAME}


def derive_trial_seed(seed: int, trial: int) -> int:
    return mix64((seed & _MASK64) ^ trial)


_LANE = 16  # bytes per lane: a 64-bit value times a 64-bit constant fits


def _lanes(values) -> int:
    """The values, each below 2^128, packed one per lane, lane 0 lowest."""
    return int.from_bytes(b"".join(v.to_bytes(_LANE, "little") for v in values),
                          "little")


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _flags_to_mask(flags) -> int:
    """Bit j set iff ``flags[j]`` is 1, for a non-empty byte string of 0s
    and 1s."""
    return int(flags[::-1].translate(_BIT_DIGITS), 2)


def sample_gnp(params: GnpParams) -> Graph:
    """One G(n,p) sample; pairs drawn in lexicographic order.

    Pair ``(u, v)``, ``u < v``, takes the next draw of ``SplitMix64(seed)``
    and is an edge iff the draw is below round(p * 2^64), ties to even. Row
    ``u`` takes draws ``b`` to ``b + n - 2 - u`` of the stream, counted from
    0, where ``b`` counts the pairs of earlier rows, so its states are
    ``seed + (b + 1) * gamma`` plus multiples of gamma. They are computed
    together, one per 128-bit lane of one integer: every step of the
    finaliser keeps each lane below 2^128, and the masks after each shift
    drop the bits that cross a lane boundary. Lane ``j`` of
    ``2^64 + t - 1 - z`` has bit 64 set exactly when its draw ``z`` is below
    the threshold ``t``, and it never borrows from the next lane, for every
    ``t`` in ``[0, 2^64]``. The flags of all rows fill the upper triangle of
    an n-by-n byte matrix, whose columns give the lower triangle.
    """
    n = params.n
    guard = (1 << 64) + _edge_threshold(params.p) - 1
    width = max(n - 1, 0)
    ones = _lanes([1] * width)
    low64 = ones * _MASK64
    steps = _lanes([j * _GAMMA & _MASK64 for j in range(width)])
    matrix = bytearray(n * n)
    state = (params.seed + _GAMMA) & _MASK64  # the state of the first draw
    for u in range(n - 1):
        m = n - 1 - u
        keep = (1 << 128 * m) - 1
        lane_ones, lane_low = ones & keep, low64 & keep
        z = (state * lane_ones + (steps & keep)) & lane_low
        z = ((z ^ (z >> 30)) & lane_low) * 0xBF58476D1CE4E5B9 & lane_low
        z = ((z ^ (z >> 27)) & lane_low) * 0x94D049BB133111EB & lane_low
        z ^= (z >> 31) & lane_low
        below = (guard * lane_ones - z).to_bytes(_LANE * m, "little")[8::_LANE]
        matrix[u * n + u + 1:(u + 1) * n] = below
        state = (state + m * _GAMMA) & _MASK64  # the next row's first draw
    rows = tuple(_flags_to_mask(matrix[v * n:(v + 1) * n]) | _flags_to_mask(matrix[v::n])
                 for v in range(n))
    return Graph(n, rows)


# -- definitional quantities -------------------------------------------------------


def robust_second_neighbourhood(g: Graph, v: int, d, p) -> list[int]:
    """Vertices sharing at least d * p^2 * n common neighbours with v."""
    if not 0 <= v < g.n:
        raise DomainError("vertex out of range")
    cutoff = Fraction(d) * parse_probability(p) ** 2 * g.n
    return [
        w for w in range(g.n)
        if w != v and (g.adj[v] & g.adj[w]).bit_count() >= cutoff
    ]


def count_completable(g: Graph, u: int, v: int, s: int,
                      candidates: Sequence[int],
                      exhaustive_limit: int = 200_000,
                      sample_count: int = 20_000,
                      seed: int = 0,
                      budget=None) -> dict:
    """Number of s-subsets Z of the candidates with at least s common
    neighbours of Z inside each of N(u) and N(v).

    Exhaustive when the number of subsets is at most exhaustive_limit;
    otherwise a uniform sample gives an estimate with a normal-approximation
    95 percent confidence interval.
    """
    if u == v:
        raise DomainError("u and v must differ")
    if s < 1:
        raise DomainError("subset size must be positive")
    budget = as_budget(budget, "count_completable")
    cand = sorted(set(candidates))
    total = math.comb(len(cand), s)

    def completable(z) -> bool:
        common = g.common_neighbourhood(z)
        return ((common & g.adj[u]).bit_count() >= s
                and (common & g.adj[v]).bit_count() >= s)

    if total <= exhaustive_limit:
        hits = []
        count = 0
        for z in combinations(cand, s):
            budget.spend()
            if completable(z):
                count += 1
                if len(hits) < 10:
                    hits.append(list(z))
        return {"mode": "exhaustive", "count": count, "subsets": total,
                "sample": hits}
    rng = SplitMix64(seed)
    found = 0
    hits = []
    for _ in range(sample_count):
        budget.spend()
        z = tuple(sorted(rng.sample(cand, s)))
        if completable(z):
            found += 1
            if len(hits) < 10:
                hits.append(list(z))
    rate = found / sample_count
    half = 1.96 * math.sqrt(max(rate * (1 - rate), 1e-12) / sample_count)
    return {"mode": "sampled", "subsets": total, "sampled": sample_count,
            "estimate": rate * total,
            "ci95": [max(0.0, (rate - half)) * total, (rate + half) * total],
            "sample": hits, "rng": RNG_NAME, "seed": seed}


def bad_pair_count(g: Graph, set_u: Sequence[int], set_w: Sequence[int],
                   gamma, p) -> int:
    """Unordered pairs in U whose common neighbourhood inside W has size at
    most gamma * p^2 * |W|."""
    uu = sorted(set(set_u))
    wmask = 0
    for w in set_w:
        wmask |= 1 << w
    if any(1 << x & wmask for x in uu):
        raise DomainError("U and W must be disjoint")
    cutoff = Fraction(gamma) * parse_probability(p) ** 2 * wmask.bit_count()
    count = 0
    for a, b in combinations(uu, 2):
        if (g.adj[a] & g.adj[b] & wmask).bit_count() <= cutoff:
            count += 1
    return count


def lower_regular_check(g: Graph, set_a: Sequence[int], set_b: Sequence[int],
                        eps, d, p,
                        sample_count: Optional[int] = None,
                        seed: int = 0) -> dict:
    """Check e(X,Y) >= (d-eps) p |X||Y| for all X in A, Y in B with
    |X| >= eps|A| and |Y| >= eps|B|.

    Exhaustive (exact) when both sides have at most 16 vertices: for each X,
    the minimising Y of each size is the set of that many vertices of B with
    the fewest X-neighbours, found by sorting. Larger sides require a
    declared sample_count and only ever certify a found violation.
    """
    aa = sorted(set(set_a))
    bb = sorted(set(set_b))
    if set(aa) & set(bb):
        raise DomainError("A and B must be disjoint")
    eps = Fraction(eps)
    need = Fraction(d) - eps
    pq = parse_probability(p)
    min_x = math.ceil(eps * len(aa))
    min_y = math.ceil(eps * len(bb))

    def check_pair(xs: tuple[int, ...], ys: tuple[int, ...]) -> bool:
        ymask = 0
        for y in ys:
            ymask |= 1 << y
        e = sum((g.adj[x] & ymask).bit_count() for x in xs)
        return e >= need * pq * len(xs) * len(ys)

    if sample_count is None:
        if len(aa) > 16 or len(bb) > 16:
            raise SizeCapExceededError("lower_regular_check", 16, "vertices per side")
        for xsize in range(max(min_x, 1), len(aa) + 1):
            for xs in combinations(aa, xsize):
                degs = sorted(
                    (sum(g.adj[x] >> b & 1 for x in xs), b) for b in bb
                )
                prefix = 0
                worst: list[int] = []
                for m, (dg, b) in enumerate(degs, start=1):
                    prefix += dg
                    worst.append(b)
                    if m >= max(min_y, 1) and prefix < need * pq * xsize * m:
                        return {"mode": "exhaustive", "regular": False,
                                "violating_x": list(xs),
                                "violating_y": sorted(worst)}
        return {"mode": "exhaustive", "regular": True}
    rng = SplitMix64(seed)
    for _ in range(sample_count):
        xsize = max(min_x, 1) + rng.below(len(aa) - max(min_x, 1) + 1)
        ysize = max(min_y, 1) + rng.below(len(bb) - max(min_y, 1) + 1)
        xs = tuple(sorted(rng.sample(aa, xsize)))
        ys = tuple(sorted(rng.sample(bb, ysize)))
        if not check_pair(xs, ys):
            return {"mode": "sampled", "regular": False,
                    "violating_x": list(xs), "violating_y": list(ys),
                    "rng": RNG_NAME, "seed": seed}
    return {"mode": "sampled", "regular": True, "checked": sample_count,
            "note": "no violation in sample; not a proof",
            "rng": RNG_NAME, "seed": seed}


# -- ambient property audit ---------------------------------------------------------


def check_ambient_properties(g: Graph, p, set_size_cap: int = 3,
                             sample_count: int = 200, seed: int = 0) -> dict:
    """Report-only audit of the three ambient pseudorandomness checks:

    A1: common neighbourhoods of small sets S have size about p^{|S|} n.
    A2: sets U of size >= p n span at most about p |U|^2 edges, and few
        vertices have U-degree far above p |U|.
    A3: disjoint U, V have about p |U| |V| cross edges.

    Deviations are reported relative to the stated expectations, and as
    null where the expectation is 0; no pass or fail verdict is attached
    unless the caller applies one.
    """
    if sample_count < 1:
        raise DomainError("sample count must be positive")
    pq = parse_probability(p)
    pf = float(pq)
    n = g.n
    rng = SplitMix64(seed)
    report = {"rng": RNG_NAME, "seed": seed, "p": str(pq), "n": n}

    a1 = []
    for size in range(1, set_size_cap + 1):
        if size > n:
            break
        expected = pf ** size * n
        devs = []
        for _ in range(sample_count):
            s = rng.sample(range(n), size)
            actual = g.common_neighbourhood(s).bit_count()
            devs.append(actual - expected)
        mean_actual = expected + sum(devs) / len(devs)
        rel = abs(mean_actual - expected) / expected if expected else None
        a1.append({"set_size": size, "expected": expected,
                   "mean_observed": mean_actual, "relative_deviation": rel})
    report["A1"] = a1

    usize = max(2, math.ceil(pf * n))
    a2 = []
    for _ in range(min(sample_count, 50)):
        if usize > n:
            break
        uu = rng.sample(range(n), usize)
        umask = 0
        for x in uu:
            umask |= 1 << x
        internal = g.edge_count_within(umask)
        bound = pf * usize * usize
        heavy_cut = 2 * pf * usize
        heavy = sum(1 for x in uu if (g.adj[x] & umask).bit_count() > heavy_cut)
        a2.append({"internal_edges": internal, "bound": bound,
                   "exceeds": internal > bound, "heavy_vertices": heavy})
    report["A2"] = {"set_size": usize, "trials": a2,
                    "violations": sum(1 for t in a2 if t["exceeds"])}

    a3 = []
    half = max(1, n // 4)
    for _ in range(min(sample_count, 50)):
        if 2 * half > n:
            break
        picks = rng.sample(range(n), 2 * half)
        umask = vmask = 0
        for x in picks[:half]:
            umask |= 1 << x
        for x in picks[half:]:
            vmask |= 1 << x
        cross = g.edge_count_between(umask, vmask)
        expected = pf * half * half
        if expected:
            a3.append(abs(cross - expected) / expected)
    report["A3"] = {
        "set_size": half,
        "mean_relative_deviation": sum(a3) / len(a3) if a3 else None,
        "max_relative_deviation": max(a3) if a3 else None,
    }
    return report


# -- template embedding experiment ---------------------------------------------------


def _find_clique(g: Graph, within: Sequence[int], k: int, budget) -> Optional[tuple[int, ...]]:
    """Exhaustive k-clique search inside the given vertices, lex-first."""
    return _extend_clique(g.adj, k, budget, [], sum(1 << v for v in set(within)))


def _extend_clique(adj, k: int, budget, chosen: list[int],
                   candidates: int) -> Optional[tuple[int, ...]]:
    # A module-level function, not a closure that calls itself: such a
    # closure is a reference cycle, which would keep each sample alive until
    # the cyclic collector runs.
    budget.spend()
    need = k - len(chosen)
    if not need:
        return tuple(chosen)
    # ``candidates`` is the common neighbourhood of ``chosen`` among the
    # vertices still to try; stop where too few are left to finish the clique
    while candidates.bit_count() >= need:
        low = candidates & -candidates
        candidates ^= low
        chosen.append(low.bit_length() - 1)
        got = _extend_clique(adj, k, budget, chosen, candidates & adj[chosen[-1]])
        if got is not None:
            return got
        chosen.pop()
    return None


def _row_map(phi: list[int]):
    """The map that takes an adjacency row to its image under the vertex
    permutation ``phi``. ``phi`` permutes the vertices below some ``low`` and
    fixes the rest, so a row keeps its bits from ``low`` up, and its lower
    bits move together, as one string of binary digits."""
    low = max((v + 1 for v, w in enumerate(phi) if v != w), default=0)
    if not low:
        return lambda row: row
    inverse = [0] * low
    for v in range(low):
        inverse[phi[v]] = v
    # digit i of a low-bit string is vertex low - 1 - i
    pick = itemgetter(*(low - 1 - inverse[low - 1 - i] for i in range(low)))
    low_mask = (1 << low) - 1
    digits = f"0{low}b"

    def move(row: int) -> int:
        return row & ~low_mask | int("".join(pick(format(row & low_mask, digits))), 2)

    return move


def embed_template(template: TemplateGraph, params: GnpParams, gamma,
                   budget=None) -> dict:
    """Two-round exposure: find a clique for X among the initial vertices,
    map the template onto the sample, and intersect.

    Round 1 exposes the pairs among the first |X| + |Y| vertices and looks
    for an |X|-clique there. Round 2 maps X to the clique, Y to the other
    initial vertices, everything else in order, and keeps exactly the
    template edges present in the full sample; clique edges all survive
    because round 1 exposed them. The intersection is taken row by row:
    each template row is mapped through the vertex map and ANDed with the
    sample's row, and the record reads its degrees from those rows.
    """
    budget = as_budget(budget, "embed_template")
    g = template.graph
    if g.n != params.n:
        raise DomainError("template size must match the sample size")
    k = len(template.set_x)
    initial = k + len(template.set_y)
    if initial > params.n:
        raise DomainError("X and Y larger than the sample")
    sample = sample_gnp(params)  # one exposure; rounds read disjoint pairs
    clique = _find_clique(sample, range(initial), k, budget) if k else ()
    record = {
        "seed": params.seed,
        "rng": RNG_NAME,
        "clique_found": clique is not None,
    }
    if clique is None:
        record.update({"min_degree": None, "min_degree_ratio": None,
                       "x_edges_preserved": None})
        return record
    n = params.n
    phi = [0] * n
    for v, c in zip(template.set_x, clique):
        phi[v] = c
    in_x, in_clique = set(template.set_x), set(clique)
    rest = (v for v in range(n) if v not in in_clique)
    for v in range(n):
        if v not in in_x:
            phi[v] = next(rest)
    move = _row_map(phi)
    mapped = [0] * n
    for u, row in enumerate(g.adj):
        mapped[phi[u]] = move(row)
    result = [t & s for t, s in zip(mapped, sample.adj)]
    clique_mask = sum(1 << c for c in clique)
    min_deg = min((row.bit_count() for row in result), default=0)
    expected = float(params.p) * n
    record.update({
        "min_degree": min_deg,
        "min_degree_ratio": min_deg / expected if expected else None,
        "x_edges_preserved": all(not mapped[c] & clique_mask & ~result[c]
                                 for c in clique),
    })
    return record


def evaluate_candidate(g: Graph, h: Graph, d, p, budget=None) -> dict:
    """The three quantities a threshold statement quantifies over: pattern
    freeness, minimum degree against d*p*n, and the chromatic number."""
    budget = as_budget(budget, "evaluate_candidate")
    record = {}
    try:
        record["h_free"] = contains_subgraph(g, h, budget) is None
    except BudgetExceededError:
        record["h_free"] = None
        record["h_free_note"] = "budget exceeded"
    min_deg = g.min_degree()
    cutoff = Fraction(d) * parse_probability(p) * g.n
    record["min_degree"] = min_deg
    record["min_degree_ratio"] = float(Fraction(min_deg) / cutoff) if cutoff else None
    record["degree_ok"] = Fraction(min_deg) >= cutoff
    try:
        record["chromatic_number"] = chromatic_number(g, budget)
    except BudgetExceededError:
        record["chromatic_number"] = None
        record["chromatic_number_note"] = "budget exceeded"
    return record


# -- experiment reports ---------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport:
    trials: int
    successes: int
    per_trial: tuple[dict, ...]
    summary: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.successes > self.trials or len(self.per_trial) != self.trials:
            raise DomainError("inconsistent report counts")

    def to_json_lines(self) -> str:
        lines = [json.dumps(t, sort_keys=True) for t in self.per_trial]
        lines.append(json.dumps({
            "summary": True, "trials": self.trials,
            "successes": self.successes, "rng": RNG_NAME,
            **self.summary,
        }, sort_keys=True))
        return "\n".join(lines) + "\n"


def run_template_experiment(template: TemplateGraph, n: int, p, seed: int,
                            trials: int, gamma, d, budget=None) -> ExperimentReport:
    """Repeat the two-round embedding over derived per-trial seeds; a trial
    succeeds if the clique is found and the intersection keeps minimum degree
    at least (d - gamma) * p * n."""
    pq = parse_probability(p)
    need = (Fraction(d) - Fraction(gamma)) * pq * n
    records = []
    successes = 0
    for i in range(trials):
        params = GnpParams(n, pq, derive_trial_seed(seed, i))
        rec = embed_template(template, params, gamma, budget)
        rec["trial"] = i
        ok = bool(rec["clique_found"]) and rec["min_degree"] is not None \
            and rec["min_degree"] >= need
        rec["success"] = ok
        successes += ok
        records.append(rec)
    return ExperimentReport(trials, successes, tuple(records),
                            {"n": n, "p": str(pq), "base_seed": seed,
                             "gamma": str(Fraction(gamma)), "d": str(Fraction(d))})
