"""Exact chromatic-threshold values and piecewise regime tables.

All values are exact rationals. A regime table row pairs a symbolic p-range
(dense end first) with a threshold value and the name of the supporting
result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Optional

from .errors import DomainError, SizeCapExceededError, as_budget
from .classify import (
    _forest_removal,
    _near_acyclic_witness,
    _r_near_acyclic_masks,
    _removal_sequence,
    is_cloud_forest,
    is_thundercloud_forest,
)
from .atlas import _orbit_leaders
from .exact import _facts, _min_code, canonical_form, pattern_chi, two_density
from .formats import pack_graph6
from .graphs import Graph, _degree_rows, bits


# -- threshold values ----------------------------------------------------------


@dataclass(frozen=True)
class ThresholdValue:
    kind: str  # "Exact" | "Interval" | "Unknown"
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    note: str = ""

    def __post_init__(self):
        if self.kind == "Exact":
            assert self.lo == self.hi and self.lo is not None
        elif self.kind == "Interval":
            assert 0 <= self.lo < self.hi <= 1
        elif self.kind == "Unknown":
            assert self.note
        else:
            raise DomainError(f"bad threshold kind {self.kind!r}")

    @staticmethod
    def exact(value) -> "ThresholdValue":
        q = Fraction(value)
        return ThresholdValue("Exact", q, q)

    @staticmethod
    def interval(lo, hi, note="") -> "ThresholdValue":
        return ThresholdValue("Interval", Fraction(lo), Fraction(hi), note)

    @staticmethod
    def unknown(note: str) -> "ThresholdValue":
        return ThresholdValue("Unknown", note=note)

    def to_json(self):
        out = {"kind": self.kind}
        if self.kind == "Exact":
            out["v"] = str(self.lo)
        elif self.kind == "Interval":
            out["lo"], out["hi"] = str(self.lo), str(self.hi)
        if self.note:
            out["note"] = self.note
        return out


# -- symbolic p-range boundaries ------------------------------------------------

_RANKS = {"Constant": 0, "SubpolynomialOne": 1, "PowerOfN": 2, "LogOverN": 3}


@dataclass(frozen=True)
class PBoundary:
    """A symbolic density scale: constant, n^{-o(1)}, n^{-a}, or log n / n."""

    kind: str
    exponent: Optional[Fraction] = None  # the a of n^{-a}, PowerOfN only
    side: str = "open-below"  # which side of the boundary the row occupies

    def __post_init__(self):
        if self.kind not in _RANKS:
            raise DomainError(f"bad boundary kind {self.kind!r}")
        if self.kind == "PowerOfN":
            if self.exponent is None or not 0 < self.exponent <= 1:
                raise DomainError("PowerOfN exponent must lie in (0, 1]")
        elif self.exponent is not None:
            raise DomainError("only PowerOfN carries an exponent")

    def order_key(self):
        """Sort key: denser (larger p) scales first."""
        return (_RANKS[self.kind], self.exponent or Fraction(0))

    def describe(self) -> str:
        if self.kind == "Constant":
            return "p constant"
        if self.kind == "SubpolynomialOne":
            return "n^{-o(1)}"
        if self.kind == "LogOverN":
            return "log n / n"
        return f"n^{{-{self.exponent}}}"

    def to_json(self):
        out = {"kind": self.kind, "side": self.side}
        if self.exponent is not None:
            out["exp"] = str(self.exponent)
        return out


def _b(kind, exponent=None):
    return PBoundary(kind, Fraction(exponent) if exponent is not None else None)


@dataclass(frozen=True)
class RegimeRow:
    upper: Optional[PBoundary]  # dense end; None only for the constant-p row
    lower: Optional[PBoundary]  # sparse end; None means all the way down
    value: ThresholdValue
    source: str

    def describe_range(self) -> str:
        if self.upper is not None and self.upper.kind == "Constant" \
                and self.lower is not None and self.lower.kind == "Constant":
            return "p constant"
        if (self.upper is not None and self.lower is not None
                and self.upper.order_key() == self.lower.order_key()):
            return f"p = Theta({self.upper.describe()})"
        up = "1" if self.upper is None or self.upper.kind == "Constant" \
            else self.upper.describe()
        lo = self.lower.describe() if self.lower else "0"
        return f"{lo} << p << {up}"

    def to_json(self):
        return {
            "range": {
                "hi": self.upper.to_json() if self.upper else None,
                "lo": self.lower.to_json() if self.lower else None,
            },
            "value": self.value.to_json(),
            "source": self.source,
        }


@dataclass(frozen=True)
class RegimeTable:
    rows: tuple[RegimeRow, ...]

    def __post_init__(self):
        # rows must run densest to sparsest without overlap
        keys = []
        for row in self.rows:
            up = row.upper.order_key() if row.upper else (-1, 0)
            lo = row.lower.order_key() if row.lower else (99, 0)
            assert up <= lo, f"inverted range in row {row}"
            keys.append((up, lo))
        for a, b in zip(keys, keys[1:]):
            assert a[1] <= b[0], "rows overlap or are out of order"

    def to_json(self):
        return {"rows": [row.to_json() for row in self.rows]}


# -- threshold classification ----------------------------------------------------


def _threshold_case(h: Graph, budget) -> tuple[Fraction, str, object]:
    """The chromatic threshold of ``h``, which has an edge, the case that
    decides it, and the masks that decide the case: ``(removed, part)`` from
    ``classify._r_near_acyclic_masks`` for "r-near-acyclic", the removed
    mask from ``classify._forest_removal`` for
    "forest-in-decomposition-family", and ``None`` otherwise. No witness is
    built; ``chromatic_threshold`` builds it from the masks."""
    r = pattern_chi(h, budget)
    if r == 2:
        return Fraction(0), "bipartite", None
    near = _r_near_acyclic_masks(h, r, budget)
    if near is not None:
        return Fraction(r - 3, r - 2), "r-near-acyclic", near
    removed = _forest_removal(h, r, budget)
    if removed is None:
        return Fraction(r - 2, r - 1), "no-forest-in-decomposition-family", None
    return Fraction(2 * r - 5, 2 * r - 3), "forest-in-decomposition-family", removed


def chromatic_threshold(h: Graph, budget=None) -> tuple[ThresholdValue, dict]:
    """Exact chromatic threshold with a certifying witness bundle.

    For chi(h) = r >= 3 the value is (r-3)/(r-2) when h is r-near-acyclic,
    (r-2)/(r-1) when no forest lies in the decomposition family, and
    (2r-5)/(2r-3) otherwise. The case search is ``_threshold_case``, and the
    witness is built from the masks it returns, the same witness that
    ``is_r_near_acyclic`` and ``has_forest_in_decomposition_family`` give.
    """
    budget = as_budget(budget, "chromatic_threshold")
    if h.edge_count() == 0:
        raise DomainError("chromatic threshold needs at least one edge")
    value, case, masks = _threshold_case(h, budget)
    witness = {"case": case}
    r = pattern_chi(h, budget)
    if case == "r-near-acyclic":
        removals, near = _near_acyclic_witness(h, r, *masks, budget)
        witness.update(removals=removals.to_json(), near_acyclic=near.to_json())
    elif case == "forest-in-decomposition-family":
        witness["removals"] = _removal_sequence(h, masks, r - 2, budget).to_json()
    return ThresholdValue.exact(value), witness


# -- quotients -------------------------------------------------------------------


QUOTIENT_VERTEX_CAP = 12


def _merge(adj, i: int, j: int) -> tuple[int, ...]:
    """The rows of the graph ``adj`` with the non-adjacent vertex ``j`` merged
    into ``i < j``: ``i`` takes both neighbourhoods, and the vertices above
    ``j`` move down one place."""
    keep = (1 << j) - 1
    rows = []
    for v, row in enumerate(adj):
        if v == j:
            continue
        if v == i:
            row |= adj[j]
        elif row >> j & 1:
            row |= 1 << i
        rows.append(row & keep | row >> (j + 1) << j)
    return tuple(rows)


def _pair_image(perm, pair: tuple[int, int]) -> tuple[int, int]:
    """The pair ``(a, b)``, ``a < b``, that ``perm`` maps ``pair`` onto."""
    a, b = perm[pair[0]], perm[pair[1]]
    return (a, b) if a < b else (b, a)


def quotients_with_partitions(h: Graph, budget=None
                              ) -> Iterator[tuple[Graph, list[list[int]], bytes]]:
    """One quotient of ``h`` by a partition into independent classes for
    each isomorphism class of such quotients, with a partition realising it
    (vertex ``i`` of the quotient is class ``i``) and its canonical form.
    Patterns above ``QUOTIENT_VERTEX_CAP`` vertices are refused.

    The search runs level by level, from ``h`` down: merging two
    non-adjacent vertices of a quotient gives a quotient with one vertex
    fewer, because the union of two independent classes with no edge
    between them is independent. Every partition is reached this way, by
    merging its classes one pair at a time; and isomorphic quotients have
    the same merges up to isomorphism, so merging one representative of
    each class of a level, deduplicated by canonical code, reaches every
    class of the next. Two pairs that an automorphism of the
    representative maps onto each other give isomorphic merges, so only
    the least pair of each orbit of ``Aut(q)`` on the non-edges is merged;
    the generators come from the same search that gave ``q`` its code
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).

    Two merges whose rows, relabelled least degree first
    (``graphs._degree_rows``), are equal are isomorphic, and merging one
    partition along two paths often gives such rows. So at each level only
    the first merge with given relabelled rows gets a canonical search; a
    later one is isomorphic to a quotient whose code is already known, and
    a search of every merge would drop it too.

    The partition is the one carried along the merges, not the first in
    restricted-growth order. Each merge searched spends the nodes of its
    canonical search.

    Each quotient but the first (``h`` itself) is recorded as a merge of
    the quotient it came from (``exact._facts``). Merging two non-adjacent
    vertices never lowers chi and raises it by at most one, so its chi,
    the parent's or one more, costs one colourability test when it is
    first asked for (``exact.pattern_chi``); the search spends nothing on
    it.
    """
    budget = as_budget(budget, "quotients_with_partitions")
    if h.n > QUOTIENT_VERTEX_CAP:
        raise SizeCapExceededError("quotients_with_partitions",
                                   QUOTIENT_VERTEX_CAP, "vertices")
    code, _, gens = _min_code(h.n, h.adj, budget)
    root = Graph._trusted(h.n, h.adj)
    level = [(root, [1 << v for v in range(h.n)], gens)]
    yield root, [[v] for v in range(h.n)], pack_graph6(h.n, code)
    while level:
        seen: set[int] = set()
        searched: set[tuple[int, ...]] = set()
        merged = []
        for parent, classes, gens in level:
            adj, n = parent.adj, parent.n
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if not adj[i] >> j & 1]
            for i, j in _orbit_leaders(pairs, gens, _pair_image):
                rows = _merge(adj, i, j)
                key = _degree_rows(rows, (1 << n - 1) - 1)
                if key in searched:
                    continue
                searched.add(key)
                code, _, sub_gens = _min_code(len(rows), rows, budget)
                if code in seen:
                    continue
                seen.add(code)
                parts = classes[:j] + classes[j + 1:]
                parts[i] = classes[i] | classes[j]
                q = Graph._trusted(len(rows), rows)
                _facts(q, parent)
                merged.append((q, parts, sub_gens))
                yield q, [list(bits(c)) for c in parts], pack_graph6(len(rows), code)
        level = merged


def _partitions_into(h: Graph, k: int, budget, classes: list[int], v: int = 0
                     ) -> Iterator[list[int]]:
    """Partitions of V(h) into exactly ``k`` independent classes, as class
    bitmasks, in restricted-growth order, spending one node per partition.
    ``classes`` holds the classes of the vertices below ``v``, and vertex
    ``v`` tries them in order, then a new one; it joins none of them once
    too few vertices would remain to reach ``k`` classes. The list yielded
    is ``classes`` itself, reused."""
    if v == h.n:
        budget.spend()
        yield classes
        return
    m = len(classes)
    if m + h.n - 1 - v >= k:  # staying at m classes can still reach k
        for c in range(m):
            if not classes[c] & h.adj[v]:
                classes[c] |= 1 << v
                yield from _partitions_into(h, k, budget, classes, v + 1)
                classes[c] ^= 1 << v
    if m < k:
        classes.append(1 << v)
        yield from _partitions_into(h, k, budget, classes, v + 1)
        classes.pop()


def _first_partition(h: Graph, q: Graph, canon: bytes, budget) -> list[list[int]]:
    """The first partition of V(h) into independent classes, in
    restricted-growth order, whose quotient has the canonical form
    ``canon`` of ``q``. Only partitions into ``q.n`` classes can qualify,
    and a quotient must match the degree sequence of ``q`` (and so its
    edge count) before its canonical form is computed."""
    k = q.n
    degrees = sorted(row.bit_count() for row in q.adj)
    for classes in _partitions_into(h, k, budget, []):
        rows = []
        for part in classes:
            reach = 0
            for v in bits(part):
                reach |= h.adj[v]
            rows.append(sum(1 << j for j, other in enumerate(classes) if reach & other))
        if sorted(row.bit_count() for row in rows) == degrees \
                and canonical_form(Graph._trusted(k, tuple(rows)), budget) == canon:
            return [list(bits(c)) for c in classes]
    raise AssertionError("no partition realises the quotient")


def chromatic_threshold_star(h: Graph, budget=None) -> tuple[ThresholdValue, dict]:
    """min delta_chi over homomorphic images; quotients by independent-class
    partitions realise every relevant image.

    The minimum is taken over the isomorphism classes of quotients, one
    representative each, from the merge search of
    ``quotients_with_partitions``; isomorphic quotients have the same
    threshold, so one representative per class is exact. Each quotient's
    value comes from the case search of ``chromatic_threshold``
    (``_threshold_case``), and no quotient's witness is built. The minimising
    witness is chosen deterministically: least value, then fewest vertices,
    then least canonical form. Its partition is the first in
    restricted-growth order whose quotient has that canonical form. The
    search does not carry that partition, so it is recovered afterwards:
    the partitions into as many classes as the winner has vertices come in
    restricted-growth order, and the first whose quotient has the winner's
    canonical form is the one.
    """
    budget = as_budget(budget, "chromatic_threshold_star")
    if h.edge_count() == 0:
        raise DomainError("chromatic threshold needs at least one edge")
    best = None  # ((value, n, canon), graph)
    for q, _, canon in quotients_with_partitions(h, budget):
        key = (_threshold_case(q, budget)[0], q.n, canon)
        if best is None or key < best[0]:
            best = (key, q)
    assert best is not None
    (value, _, canon), q = best
    return ThresholdValue.exact(value), {
        "quotient_graph6": canon.decode("ascii"),
        "quotient_vertices": q.n,
        "partition": _first_partition(h, q, canon, budget),
    }


# -- regime tables ----------------------------------------------------------------


def _is_cycle(h: Graph) -> bool:
    """Connected and 2-regular; with chi 3, an odd cycle."""
    return h.is_connected() and all(h.degree(v) == 2 for v in range(h.n))


SRC_CONSTANT = "constant-p threshold equals the classical chromatic threshold"
SRC_BIPARTITE = "bipartite patterns have threshold zero at every density"
SRC_DENSE_HIGH_CHI = "sparse Turan-type upper bound with matching blow-up construction"
SRC_SPARSE_ONE = "below the 2-density scale a free spanning subgraph stays H-free"
SRC_BOUNDARY_OPEN = "behaviour at the 2-density scale itself is open"
SRC_SPARSE_4CHI_OPEN = "sparse regime for 4-chromatic patterns with m2 <= 2 is open"
SRC_DENSE_3CHI = "dense-window trichotomy for 3-chromatic patterns"
SRC_THUNDER_CONJ = "only an upper bound of 1/3 is known; conjectured to be 0"
SRC_ODD_CYCLE = "dense-window threshold vanishes for odd cycles of length >= 7"
SRC_C5_DISPLAY = "four-regime table for the 5-cycle"
SRC_TRIVIAL_SPARSE = "isolated vertices appear below log n / n"
SRC_3CHI_SPARSE_OPEN = "3-chromatic behaviour below n^{-o(1)} is open here"
SRC_STAR_DENSE = "approximate threshold equals its p=1 value above the 2-density scale"
SRC_STAR_SPARSE = "approximate threshold is 1 between log n / n and the 2-density scale"
SRC_M2_UNDEFINED = "2-density is undefined or degenerate for this pattern"


def _chain(steps) -> RegimeTable:
    """The rows of a regime table from steps ``(value, source, lower)``,
    densest first. Each row runs from where the previous one ended, first
    from constant p, down to the scale ``lower``, or all the way down if
    ``lower`` is None. A row is open below its upper boundary and open
    above its lower one, except for a step that stays at the scale it
    starts from: that is the row ``p = Theta(lower)``, which keeps the side
    it starts on and ends open below, where the next row starts. A value
    of None is unknown, with the source as its note."""
    rows, edge = [], _b("Constant")
    for value, source, lower in steps:
        if lower is not None and lower.order_key() == edge.order_key():
            upper, lower = edge, replace(lower, side="open-below")
        else:
            upper = replace(edge, side="open-below")
            lower = None if lower is None else replace(lower, side="open-above")
        value = ThresholdValue.unknown(source) if value is None else value
        rows.append(RegimeRow(upper, lower, value, source))
        edge = lower
    return RegimeTable(tuple(rows))


def regime_table(h: Graph, budget=None) -> RegimeTable:
    """Piecewise table of the threshold as a function of the density p.

    With chi >= 3, ``h`` has an induced odd cycle ``C_k``, whose
    ``(k-1)/(k-2)`` is above 1, so ``1/m2`` is a valid exponent."""
    budget = as_budget(budget, "regime_table")
    if h.edge_count() == 0:
        raise DomainError("regime table needs at least one edge")
    delta, _ = chromatic_threshold(h, budget)
    steps = [(delta, SRC_CONSTANT, _b("Constant"))]
    r = pattern_chi(h, budget)
    if r == 2:
        steps.append((ThresholdValue.exact(0), SRC_BIPARTITE, _b("LogOverN")))
    elif r >= 4:
        m2 = two_density(h, budget)
        dense_lo = min(1 / m2, Fraction(1, 2))
        steps.append((ThresholdValue.exact(Fraction(r - 2, r - 1)), SRC_DENSE_HIGH_CHI,
                      _b("PowerOfN", dense_lo)))
        if dense_lo < 1 / m2:
            steps.append((None, SRC_SPARSE_4CHI_OPEN, _b("PowerOfN", 1 / m2)))
        steps.append((None, SRC_BOUNDARY_OPEN, _b("PowerOfN", 1 / m2)))
        sparse = (ThresholdValue.exact(1), SRC_SPARSE_ONE) if r >= 5 or m2 > 2 \
            else (None, SRC_SPARSE_4CHI_OPEN)
        steps.append((*sparse, _b("LogOverN")))
    elif _is_cycle(h) and h.n == 5:
        steps += [(ThresholdValue.exact(Fraction(1, 3)), SRC_C5_DISPLAY, _b("PowerOfN", "1/2")),
                  (ThresholdValue.exact(Fraction(1, 2)), SRC_C5_DISPLAY, _b("PowerOfN", "3/4")),
                  (ThresholdValue.exact(1), SRC_C5_DISPLAY, _b("LogOverN"))]
    else:
        if _is_cycle(h) and h.n >= 7:
            dense = ThresholdValue.exact(0), SRC_ODD_CYCLE
        elif is_cloud_forest(h, budget) is None:
            dense = ThresholdValue.exact(Fraction(1, 2)), SRC_DENSE_3CHI
        elif is_thundercloud_forest(h, budget) is None:
            dense = ThresholdValue.exact(Fraction(1, 3)), SRC_DENSE_3CHI
        else:
            dense = ThresholdValue.interval(0, Fraction(1, 3), SRC_THUNDER_CONJ), SRC_DENSE_3CHI
        steps += [(*dense, _b("SubpolynomialOne")),
                  (None, SRC_3CHI_SPARSE_OPEN, _b("LogOverN"))]
    steps.append((ThresholdValue.exact(0), SRC_TRIVIAL_SPARSE, None))
    return _chain(steps)


def regime_table_star(h: Graph, budget=None) -> RegimeTable:
    """Two-row table for the approximate threshold."""
    budget = as_budget(budget, "regime_table_star")
    star, _ = chromatic_threshold_star(h, budget)
    m2 = two_density(h, budget) if h.n >= 3 else None
    if m2 is None or m2 <= 1:
        return _chain([(None, SRC_M2_UNDEFINED, None)])
    return _chain([(star, SRC_STAR_DENSE, _b("PowerOfN", 1 / m2)),
                   (ThresholdValue.exact(1), SRC_STAR_SPARSE, _b("LogOverN"))])
