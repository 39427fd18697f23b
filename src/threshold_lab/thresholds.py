"""Exact chromatic-threshold values and piecewise regime tables.

All values are exact rationals. A regime table row pairs a symbolic p-range
(dense end first) with a threshold value and the name of the supporting
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import DomainError, SizeCapExceededError, as_budget
from .classify import (
    has_forest_in_decomposition_family,
    is_cloud_forest,
    is_r_near_acyclic,
    is_thundercloud_forest,
)
from .exact import canonical_form, pattern_chi, two_density
from .graphs import Graph, bits


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


def _b(kind, exponent=None, side="open-below"):
    return PBoundary(kind, Fraction(exponent) if exponent is not None else None, side)


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


def chromatic_threshold(h: Graph, budget=None) -> tuple[ThresholdValue, dict]:
    """Exact chromatic threshold with a certifying witness bundle.

    For chi(h) = r >= 3 the value is (r-3)/(r-2) when h is r-near-acyclic,
    (r-2)/(r-1) when no forest lies in the decomposition family, and
    (2r-5)/(2r-3) otherwise.
    """
    budget = as_budget(budget, "chromatic_threshold")
    if h.edge_count() == 0:
        raise DomainError("chromatic threshold needs at least one edge")
    r = pattern_chi(h, budget)
    if r == 2:
        return ThresholdValue.exact(0), {"case": "bipartite"}
    near = is_r_near_acyclic(h, r, budget)
    if near is not None:
        removals, witness = near
        return ThresholdValue.exact(Fraction(r - 3, r - 2)), {
            "case": "r-near-acyclic",
            "removals": removals.to_json(),
            "near_acyclic": witness.to_json(),
        }
    forest = has_forest_in_decomposition_family(h, budget)
    if forest is None:
        return ThresholdValue.exact(Fraction(r - 2, r - 1)), {
            "case": "no-forest-in-decomposition-family",
        }
    return ThresholdValue.exact(Fraction(2 * r - 5, 2 * r - 3)), {
        "case": "forest-in-decomposition-family",
        "removals": forest.to_json(),
    }


# -- quotients -------------------------------------------------------------------


QUOTIENT_VERTEX_CAP = 12


def _independent_partitions(h: Graph) -> Iterator[list[int]]:
    """Partitions of V(h) into independent classes, as class bitmasks,
    in restricted-growth order."""
    classes: list[int] = []

    def rec(v: int):
        if v == h.n:
            yield classes[:]
            return
        for i in range(len(classes)):
            if not classes[i] & h.adj[v]:
                classes[i] |= 1 << v
                yield from rec(v + 1)
                classes[i] &= ~(1 << v)
        classes.append(1 << v)
        yield from rec(v + 1)
        classes.pop()

    yield from rec(0)


def _quotient(h: Graph, classes: list[int]) -> Graph:
    k = len(classes)
    rows = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if h.edge_count_between(classes[i], classes[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(k, tuple(rows))


def quotients_with_partitions(h: Graph, budget=None
                              ) -> Iterator[tuple[Graph, list[list[int]], bytes]]:
    """Deduplicated quotients by independent-class partitions, each with the
    first partition (in enumeration order) realising it and its canonical
    form. Patterns above ``QUOTIENT_VERTEX_CAP`` vertices are refused."""
    budget = as_budget(budget, "quotients_with_partitions")
    if h.n > QUOTIENT_VERTEX_CAP:
        raise SizeCapExceededError("quotients_with_partitions",
                                   QUOTIENT_VERTEX_CAP, "vertices")
    seen: set[bytes] = set()
    for classes in _independent_partitions(h):
        budget.spend()
        q = _quotient(h, classes)
        key = canonical_form(q, budget)
        if key in seen:
            continue
        seen.add(key)
        yield q, [list(bits(c)) for c in classes], key


def chromatic_threshold_star(h: Graph, budget=None) -> tuple[ThresholdValue, dict]:
    """min delta_chi over homomorphic images; quotients by independent-class
    partitions realise every relevant image.

    The minimising witness is chosen deterministically: least value, then
    fewest vertices, then least canonical form.
    """
    budget = as_budget(budget, "chromatic_threshold_star")
    if h.edge_count() == 0:
        raise DomainError("chromatic threshold needs at least one edge")
    best = None  # (value, n, canon, graph, partition)
    for q, partition, canon in quotients_with_partitions(h, budget):
        value, _ = chromatic_threshold(q, budget)
        key = (value.lo, q.n, canon)
        if best is None or key < best[0]:
            best = (key, q, partition)
    assert best is not None
    (value, _, canon), q, partition = best
    return ThresholdValue.exact(value), {
        "quotient_graph6": canon.decode("ascii"),
        "quotient_vertices": q.n,
        "partition": partition,
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


def regime_table(h: Graph, budget=None) -> RegimeTable:
    """Piecewise table of the threshold as a function of the density p."""
    budget = as_budget(budget, "regime_table")
    if h.edge_count() == 0:
        raise DomainError("regime table needs at least one edge")
    delta, _ = chromatic_threshold(h, budget)
    rows = [RegimeRow(_b("Constant"), _b("Constant"), delta, SRC_CONSTANT)]
    r = pattern_chi(h, budget)
    if r == 2:
        rows.append(RegimeRow(_b("Constant", side="open-below"), _b("LogOverN", side="open-above"),
                              ThresholdValue.exact(0), SRC_BIPARTITE))
        rows.append(RegimeRow(_b("LogOverN", side="open-below"), None,
                              ThresholdValue.exact(0), SRC_TRIVIAL_SPARSE))
        return RegimeTable(tuple(rows))

    m2 = two_density(h, budget)

    if r >= 4:
        if m2 <= 1:
            rows.append(RegimeRow(_b("Constant", side="open-below"), None,
                                  ThresholdValue.unknown(SRC_M2_UNDEFINED), SRC_M2_UNDEFINED))
            return RegimeTable(tuple(rows))
        inv_m2 = 1 / m2
        dense_lo = min(inv_m2, Fraction(1, 2))
        rows.append(RegimeRow(_b("Constant", side="open-below"),
                              _b("PowerOfN", dense_lo, side="open-above"),
                              ThresholdValue.exact(Fraction(r - 2, r - 1)),
                              SRC_DENSE_HIGH_CHI))
        if dense_lo < inv_m2:
            rows.append(RegimeRow(_b("PowerOfN", dense_lo, side="open-below"),
                                  _b("PowerOfN", inv_m2, side="open-above"),
                                  ThresholdValue.unknown(SRC_SPARSE_4CHI_OPEN),
                                  SRC_SPARSE_4CHI_OPEN))
        rows.append(RegimeRow(_b("PowerOfN", inv_m2, side="open-above"),
                              _b("PowerOfN", inv_m2, side="open-below"),
                              ThresholdValue.unknown(SRC_BOUNDARY_OPEN),
                              SRC_BOUNDARY_OPEN))
        if r >= 5 or m2 > 2:
            sparse_value = ThresholdValue.exact(1)
            sparse_src = SRC_SPARSE_ONE
        else:
            sparse_value = ThresholdValue.unknown(SRC_SPARSE_4CHI_OPEN)
            sparse_src = SRC_SPARSE_4CHI_OPEN
        rows.append(RegimeRow(_b("PowerOfN", inv_m2, side="open-below"),
                              _b("LogOverN", side="open-above"),
                              sparse_value, sparse_src))
        rows.append(RegimeRow(_b("LogOverN", side="open-below"), None,
                              ThresholdValue.exact(0), SRC_TRIVIAL_SPARSE))
        return RegimeTable(tuple(rows))

    # r == 3
    cycle = _is_cycle(h)
    if cycle and h.n == 5:
        rows.append(RegimeRow(_b("Constant", side="open-below"),
                              _b("PowerOfN", Fraction(1, 2), side="open-above"),
                              ThresholdValue.exact(Fraction(1, 3)), SRC_C5_DISPLAY))
        rows.append(RegimeRow(_b("PowerOfN", Fraction(1, 2), side="open-below"),
                              _b("PowerOfN", Fraction(3, 4), side="open-above"),
                              ThresholdValue.exact(Fraction(1, 2)), SRC_C5_DISPLAY))
        rows.append(RegimeRow(_b("PowerOfN", Fraction(3, 4), side="open-below"),
                              _b("LogOverN", side="open-above"),
                              ThresholdValue.exact(1), SRC_C5_DISPLAY))
        rows.append(RegimeRow(_b("LogOverN", side="open-below"), None,
                              ThresholdValue.exact(0), SRC_TRIVIAL_SPARSE))
        return RegimeTable(tuple(rows))

    if cycle and h.n >= 7:
        dense_value = ThresholdValue.exact(0)
        dense_src = SRC_ODD_CYCLE
    elif is_cloud_forest(h, budget) is None:
        dense_value = ThresholdValue.exact(Fraction(1, 2))
        dense_src = SRC_DENSE_3CHI
    elif is_thundercloud_forest(h, budget) is None:
        dense_value = ThresholdValue.exact(Fraction(1, 3))
        dense_src = SRC_DENSE_3CHI
    else:
        dense_value = ThresholdValue.interval(0, Fraction(1, 3), SRC_THUNDER_CONJ)
        dense_src = SRC_DENSE_3CHI
    rows.append(RegimeRow(_b("Constant", side="open-below"),
                          _b("SubpolynomialOne", side="open-above"),
                          dense_value, dense_src))
    rows.append(RegimeRow(_b("SubpolynomialOne", side="open-below"),
                          _b("LogOverN", side="open-above"),
                          ThresholdValue.unknown(SRC_3CHI_SPARSE_OPEN),
                          SRC_3CHI_SPARSE_OPEN))
    rows.append(RegimeRow(_b("LogOverN", side="open-below"), None,
                          ThresholdValue.exact(0), SRC_TRIVIAL_SPARSE))
    return RegimeTable(tuple(rows))


def regime_table_star(h: Graph, budget=None) -> RegimeTable:
    """Two-row table for the approximate threshold."""
    budget = as_budget(budget, "regime_table_star")
    star, _ = chromatic_threshold_star(h, budget)
    if h.n >= 3:
        m2 = two_density(h, budget)
    else:
        m2 = None
    if m2 is None or m2 <= 1:
        return RegimeTable((
            RegimeRow(_b("Constant"), None,
                      ThresholdValue.unknown(SRC_M2_UNDEFINED), SRC_M2_UNDEFINED),
        ))
    inv_m2 = 1 / m2
    return RegimeTable((
        RegimeRow(_b("Constant"), _b("PowerOfN", inv_m2, side="open-above"),
                  star, SRC_STAR_DENSE),
        RegimeRow(_b("PowerOfN", inv_m2, side="open-below"),
                  _b("LogOverN", side="open-above"),
                  ThresholdValue.exact(1), SRC_STAR_SPARSE),
    ))
