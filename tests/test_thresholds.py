import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st
import pytest

from threshold_lab import thresholds
from threshold_lab.atlas import _orbit_leaders
from threshold_lab.classify import is_cloud_forest, is_thundercloud_forest
from threshold_lab.constructions import blow_up
from threshold_lab.errors import Budget, BudgetExceededError, DomainError
from threshold_lab.exact import (
    _min_code, are_isomorphic, canonical_form, chromatic_number, pattern_chi,
)
from threshold_lab.formats import pack_graph6, parse_graph6
from threshold_lab.graphs import Graph, bits
from threshold_lab.harness import GnpParams, sample_gnp
from threshold_lab.thresholds import (
    SRC_3CHI_SPARSE_OPEN, SRC_BIPARTITE, SRC_BOUNDARY_OPEN, SRC_C5_DISPLAY, SRC_CONSTANT,
    SRC_DENSE_3CHI, SRC_DENSE_HIGH_CHI, SRC_M2_UNDEFINED, SRC_ODD_CYCLE, SRC_SPARSE_4CHI_OPEN,
    SRC_SPARSE_ONE, SRC_STAR_DENSE, SRC_STAR_SPARSE, SRC_THUNDER_CONJ, SRC_TRIVIAL_SPARSE,
    PBoundary,
    RegimeRow,
    RegimeTable,
    ThresholdValue,
    _first_partition,
    _merge,
    _pair_image,
    chromatic_threshold,
    chromatic_threshold_star,
    quotients_with_partitions,
    regime_table,
    regime_table_star,
)


def exact(v):
    return ThresholdValue.exact(v)


# -- threshold values ---------------------------------------------------------------


def test_value_invariants():
    assert exact("1/3").lo == Fraction(1, 3)
    iv = ThresholdValue.interval(0, "1/3", "conjectured zero")
    assert iv.lo == 0 and iv.hi == Fraction(1, 3)
    with pytest.raises(AssertionError):
        ThresholdValue.interval("1/3", "1/3")
    with pytest.raises(DomainError):
        ThresholdValue("Nope")


def test_pboundary_invariants():
    with pytest.raises(DomainError):
        PBoundary("PowerOfN", Fraction(2))
    with pytest.raises(DomainError):
        PBoundary("Constant", Fraction(1, 2))
    assert PBoundary("Constant").order_key() < \
        PBoundary("SubpolynomialOne").order_key() < \
        PBoundary("PowerOfN", Fraction(1, 3)).order_key() < \
        PBoundary("PowerOfN", Fraction(1, 2)).order_key() < \
        PBoundary("LogOverN").order_key()


# -- chromatic_threshold ----------------------------------------------------------


@pytest.mark.parametrize("g,value", [
    (Graph.complete(3), Fraction(1, 3)),
    (Graph.cycle(5), Fraction(0)),
    (Graph.cycle(7), Fraction(0)),
    (Graph.cycle(9), Fraction(0)),
    (Graph.complete(4), Fraction(3, 5)),
    (Graph.complete(5), Fraction(5, 7)),
    (Graph.path(4), Fraction(0)),
])
def test_threshold_known_values(g, value):
    got, _ = chromatic_threshold(g)
    assert got.kind == "Exact" and got.lo == value


def test_threshold_three_cases_shape():
    for seed in range(20):
        g = sample_gnp(GnpParams(6, "0.5", seed))
        if g.edge_count() == 0:
            continue
        r = chromatic_number(g)
        got, witness = chromatic_threshold(g)
        if r == 2:
            assert got.lo == 0
        else:
            allowed = {Fraction(r - 3, r - 2), Fraction(2 * r - 5, 2 * r - 3),
                       Fraction(r - 2, r - 1)}
            assert got.lo in allowed
            assert Fraction(r - 3, r - 2) < Fraction(2 * r - 5, 2 * r - 3) \
                < Fraction(r - 2, r - 1)


def test_threshold_needs_an_edge():
    with pytest.raises(DomainError):
        chromatic_threshold(Graph.empty(3))


# -- quotients -----------------------------------------------------------------------


def quotients(h):
    return [q for q, _, _ in quotients_with_partitions(h)]


def test_quotients_k3_only_itself():
    qs = quotients(Graph.complete(3))
    assert len(qs) == 1 and are_isomorphic(qs[0], Graph.complete(3))


def test_quotients_c4():
    codes = {canonical_form(q) for q in quotients(Graph.cycle(4))}
    assert canonical_form(Graph.complete(2)) in codes
    assert canonical_form(Graph.cycle(4)) in codes


def test_quotients_c6():
    codes = {canonical_form(q) for q in quotients(Graph.cycle(6))}
    for expected in (Graph.cycle(6), Graph.complete(2), Graph.complete(3)):
        assert canonical_form(expected) in codes


def test_quotients_include_self_and_are_valid():
    for seed in range(10):
        g = sample_gnp(GnpParams(6, "0.5", seed))
        got_self = False
        for q, partition, canon in quotients_with_partitions(g):
            assert canon == canonical_form(q)
            classes = [set(c) for c in partition]
            assert sorted(v for c in classes for v in c) == list(range(g.n))
            for ci in classes:
                assert not any(g.has_edge(u, v) for u in ci for v in ci if u < v)
            index = {v: i for i, c in enumerate(classes) for v in c}
            for u, v in g.edges():
                assert q.has_edge(index[u], index[v])
            if q.n == g.n:
                got_self = True
        assert got_self


@settings(max_examples=50)  # a sparse 9-vertex pattern has about 2,000 classes
@given(st.integers(1, 9), st.integers(0, 100), st.integers(0, 2**64 - 1))
def test_chi_of_a_merge_is_the_parents_or_one_more(n, percent, seed):
    p = sample_gnp(GnpParams(n, f"{percent}/100", seed))
    chi = chromatic_number(p)
    for i in range(n):
        for j in range(i + 1, n):
            if not p.has_edge(i, j):
                rows = _merge(p.adj, i, j)
                assert chromatic_number(Graph(len(rows), rows)) in (chi, chi + 1)
    for q, _, _ in quotients_with_partitions(p):
        assert pattern_chi(q) == chromatic_number(Graph(q.n, q.adj))


def test_quotient_vertex_cap():
    with pytest.raises(BudgetExceededError,
                       match="quotients_with_partitions: size cap of 12 vertices"):
        quotients(Graph.empty(13))


# -- chromatic_threshold_star -------------------------------------------------------


def test_star_k3():
    got, _ = chromatic_threshold_star(Graph.complete(3))
    assert got.lo == Fraction(1, 3)


def test_star_blow_up_c5():
    h = blow_up(Graph.cycle(5), 2)
    got, witness = chromatic_threshold_star(h)
    assert got.lo == 0
    quotient = parse_graph6(witness["quotient_graph6"].encode("ascii"))
    assert are_isomorphic(quotient, Graph.cycle(5))


def test_star_bipartite_is_zero():
    got, witness = chromatic_threshold_star(Graph.cycle(6))
    assert got.lo == 0


def test_star_at_most_plain():
    for seed in range(10):
        g = sample_gnp(GnpParams(6, "0.5", seed))
        if g.edge_count() == 0:
            continue
        star, _ = chromatic_threshold_star(g)
        plain, _ = chromatic_threshold(g)
        assert star.lo <= plain.lo



def test_star_c11_within_node_budget():
    """The class search with orbit cuts and the capped witness recovery
    stay far below the 1.8 M nodes that one canonical form per partition
    took."""
    got, witness = chromatic_threshold_star(Graph.cycle(11), Budget(300_000))
    assert got.lo == 0
    assert witness == {"quotient_graph6": "DLo", "quotient_vertices": 5,
                       "partition": [[0, 2, 4, 6], [1, 3, 5, 7], [8], [9], [10]]}


WHEEL_12 = Graph.from_edges(12, [(v, 11) for v in range(11)]
                            + [(v, (v + 1) % 11) for v in range(11)])


@pytest.mark.parametrize("h,before,value,witness", [
    (Graph.cycle(11), 141_042, 0,
     {"quotient_graph6": "DLo", "quotient_vertices": 5,
      "partition": [[0, 2, 4, 6], [1, 3, 5, 7], [8], [9], [10]]}),
    (WHEEL_12, 734_805, Fraction(1, 2),
     {"quotient_graph6": "ELrw", "quotient_vertices": 6,
      "partition": [[0, 2, 4, 6], [1, 3, 5, 7], [8], [9], [10], [11]]}),
], ids=["C11", "W12"])
def test_star_spends_fewer_nodes_than_a_search_per_merge(h, before, value, witness):
    """``before`` is what the default budget paid when every merge had its
    own canonical search and every quotient a witness."""
    budget = Budget()
    got, got_witness = chromatic_threshold_star(h, budget)
    assert (got.lo, got_witness) == (value, witness)
    assert budget.used < before


# -- the per-merge search oracle ------------------------------------------------------


def oracle_quotient_search(h: Graph, budget: Budget):
    """The merge search of ``quotients_with_partitions`` with one canonical
    search per merge: each level keeps a merge whose code it has not seen.
    Yields the rows, the partition and the canonical form of each class."""
    code, _, gens = _min_code(h.n, h.adj, budget)
    level = [(h.adj, [1 << v for v in range(h.n)], gens)]
    yield h.adj, [[v] for v in range(h.n)], pack_graph6(h.n, code)
    while level:
        seen = set()
        merged = []
        for adj, classes, gens in level:
            n = len(adj)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if not adj[i] >> j & 1]
            for i, j in _orbit_leaders(pairs, gens, _pair_image):
                rows = _merge(adj, i, j)
                code, _, sub_gens = _min_code(len(rows), rows, budget)
                if code in seen:
                    continue
                seen.add(code)
                parts = classes[:j] + classes[j + 1:]
                parts[i] = classes[i] | classes[j]
                merged.append((rows, parts, sub_gens))
                yield rows, [list(bits(c)) for c in parts], pack_graph6(len(rows), code)
        level = merged


def assert_matches_per_merge_search(h: Graph) -> tuple[int, int]:
    """The nodes that the shared searches and the per-merge search spent."""
    shared, per_merge = Budget(), Budget()
    got = [(q.adj, partition, canon)
           for q, partition, canon in quotients_with_partitions(h, shared)]
    assert got == list(oracle_quotient_search(h, per_merge))
    assert shared.used <= per_merge.used
    return shared.used, per_merge.used


@given(st.integers(1, 9), st.integers(0, 100), st.integers(0, 2**64 - 1))
def test_shared_searches_match_the_per_merge_search(n, percent, seed):
    rng = random.Random(seed)
    g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                             if rng.randrange(100) < percent])
    assert_matches_per_merge_search(g.relabel(rng.sample(range(n), n)))


@pytest.mark.parametrize("h", [Graph.cycle(7), Graph.cycle(9),
                               Graph.complete_multipartite([3, 3, 3]),
                               blow_up(Graph.cycle(5), 2), Graph.cycle(11)],
                         ids=["C7", "C9", "K333", "C5x2", "C11"])
def test_shared_searches_match_the_per_merge_search_on_symmetric_patterns(h):
    shared, per_merge = assert_matches_per_merge_search(h)
    assert shared < per_merge  # each has merges with equal relabelled rows


# -- the partition-by-partition oracle ------------------------------------------------


def oracle_partitions(h: Graph):
    """Every partition of V(h) into independent classes, as class bitmasks,
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


def oracle_quotient(h: Graph, classes: list[int]) -> Graph:
    k = len(classes)
    rows = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if h.edge_count_between(classes[i], classes[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(k, tuple(rows))


def oracle_quotients(h: Graph) -> dict:
    """Canonical form -> (quotient, partition) for the first partition in
    restricted-growth order of each isomorphism class of quotients."""
    found: dict = {}
    for classes in oracle_partitions(h):
        q = oracle_quotient(h, classes)
        found.setdefault(canonical_form(q), (q, [list(bits(c)) for c in classes]))
    return found


def oracle_star(h: Graph):
    """delta* and its witness from every quotient, by the same key."""
    (value, n, canon), partition = min(
        ((chromatic_threshold(q)[0].lo, q.n, canon), partition)
        for canon, (q, partition) in oracle_quotients(h).items())
    return value, {"quotient_graph6": canon.decode("ascii"), "quotient_vertices": n,
                   "partition": partition}


def assert_matches_oracle(h: Graph):
    canons = [canon for _, _, canon in quotients_with_partitions(h)]
    assert len(canons) == len(set(canons))  # each class once
    found = oracle_quotients(h)
    assert set(canons) == set(found)
    for canon, (q, partition) in found.items():  # the recovery, for every class
        assert _first_partition(h, q, canon, Budget()) == partition
    if h.edge_count():
        value, witness = chromatic_threshold_star(h)
        assert (value.lo, witness) == oracle_star(h)


@settings(max_examples=50)  # a sparse 9-vertex example costs the oracle up to 1 s
@given(st.integers(1, 9), st.integers(0, 100), st.integers(0, 2**64 - 1))
def test_class_search_matches_oracle(n, percent, seed):
    rng = random.Random(seed)
    g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                             if rng.randrange(100) < percent])
    assert_matches_oracle(g.relabel(rng.sample(range(n), n)))


@pytest.mark.parametrize("h", [Graph.cycle(7), Graph.cycle(9),
                               Graph.complete_multipartite([3, 3, 3]),
                               blow_up(Graph.cycle(5), 2)],
                         ids=["C7", "C9", "K333", "C5x2"])
def test_class_search_matches_oracle_on_symmetric_patterns(h):
    assert_matches_oracle(h)


# -- regime tables ---------------------------------------------------------------------


def row_values(table):
    return [(r.describe_range(), r.value) for r in table.rows]


def test_regime_c5_display():
    table = regime_table(Graph.cycle(5))
    vals = [r.value for r in table.rows]
    assert [v.kind for v in vals] == ["Exact"] * 5
    assert [v.lo for v in vals] == [0, Fraction(1, 3), Fraction(1, 2), 1, 0]
    b = table.rows
    assert b[1].lower.exponent == Fraction(1, 2)
    assert b[2].upper.exponent == Fraction(1, 2)
    assert b[2].lower.exponent == Fraction(3, 4)
    assert b[3].upper.exponent == Fraction(3, 4)
    assert b[3].lower.kind == "LogOverN"


def test_regime_k5():
    table = regime_table(Graph.complete(5))
    assert table.rows[0].value.lo == Fraction(5, 7)
    assert table.rows[1].value.lo == Fraction(3, 4)
    assert table.rows[1].lower.exponent == Fraction(1, 3)
    theta = table.rows[2]
    assert theta.value.kind == "Unknown"
    sparse = table.rows[3]
    assert sparse.value.lo == 1 and sparse.upper.exponent == Fraction(1, 3)
    assert sparse.lower.kind == "LogOverN"


def test_regime_bipartite_all_zero():
    table = regime_table(Graph.path(3))
    assert all(r.value.kind == "Exact" and r.value.lo == 0 for r in table.rows)


def test_regime_chi3_trichotomy():
    blow = blow_up(Graph.cycle(5), 2)  # not cloud-forest
    assert regime_table(blow).rows[1].value.lo == Fraction(1, 2)
    c7 = Graph.cycle(7)  # thundercloud odd cycle: refined to exact zero
    assert regime_table(c7).rows[1].value.lo == 0
    c9_plus_leaf = Graph.from_edges(
        10, [(i, (i + 1) % 9) for i in range(9)] + [(0, 9)])
    row = regime_table(c9_plus_leaf).rows[1]  # thundercloud, not a pure cycle
    assert row.value.kind == "Interval"
    assert (row.value.lo, row.value.hi) == (0, Fraction(1, 3))


def test_regime_rows_ordered_disjoint():
    for g in (Graph.complete(3), Graph.cycle(5), Graph.complete(5),
              Graph.path(4), blow_up(Graph.cycle(5), 2)):
        table = regime_table(g)  # RegimeTable asserts order on construction
        assert isinstance(table, RegimeTable)
        assert all(r.source for r in table.rows)


def test_regime_star_k3():
    table = regime_table_star(Graph.complete(3))
    assert len(table.rows) == 2
    dense, sparse = table.rows
    assert dense.value.lo == Fraction(1, 3)
    assert dense.lower.exponent == Fraction(1, 2)
    assert sparse.value.lo == 1
    assert sparse.upper.exponent == Fraction(1, 2)
    assert sparse.lower.kind == "LogOverN"


def test_regime_star_blow_up_and_bipartite():
    assert regime_table_star(blow_up(Graph.cycle(5), 2)).rows[0].value.lo == 0
    assert regime_table_star(Graph.cycle(6)).rows[0].value.lo == 0
    # K_2 has no 3-vertex subgraph: 2-density undefined, single Unknown row
    table = regime_table_star(Graph.complete(2))
    assert table.rows[0].value.kind == "Unknown" or table.rows[0].value.lo == 0


def test_table_json_shape():
    table = regime_table(Graph.cycle(5))
    data = table.to_json()
    row = data["rows"][2]
    assert row["range"]["lo"]["kind"] == "PowerOfN"
    assert row["range"]["lo"]["exp"] == "3/4"
    assert row["range"]["hi"]["exp"] == "1/2"
    assert row["value"] == {"kind": "Exact", "v": "1/2"}
    assert isinstance(row["source"], str)


# -- regime tables against the row-by-row oracle -------------------------------------


def boundary(kind, exponent=None, side="open-below"):
    return PBoundary(kind, None if exponent is None else Fraction(exponent), side)


def oracle_regime_table(h: Graph) -> RegimeTable:
    """The regime table written out row by row, with the side of each
    boundary named at each row; it reads the 2-density through the module,
    so a test can patch it on both sides."""
    delta, _ = chromatic_threshold(h)
    rows = [RegimeRow(boundary("Constant"), boundary("Constant"), delta, SRC_CONSTANT)]
    r = pattern_chi(h)
    if r == 2:
        rows.append(RegimeRow(boundary("Constant"), boundary("LogOverN", side="open-above"),
                              exact(0), SRC_BIPARTITE))
        rows.append(RegimeRow(boundary("LogOverN"), None, exact(0), SRC_TRIVIAL_SPARSE))
        return RegimeTable(tuple(rows))
    m2 = thresholds.two_density(h)
    if r >= 4:
        if m2 <= 1:
            rows.append(RegimeRow(boundary("Constant"), None,
                                  ThresholdValue.unknown(SRC_M2_UNDEFINED), SRC_M2_UNDEFINED))
            return RegimeTable(tuple(rows))
        inv_m2 = 1 / m2
        dense_lo = min(inv_m2, Fraction(1, 2))
        rows.append(RegimeRow(boundary("Constant"), boundary("PowerOfN", dense_lo, "open-above"),
                              exact(Fraction(r - 2, r - 1)), SRC_DENSE_HIGH_CHI))
        if dense_lo < inv_m2:
            rows.append(RegimeRow(boundary("PowerOfN", dense_lo),
                                  boundary("PowerOfN", inv_m2, "open-above"),
                                  ThresholdValue.unknown(SRC_SPARSE_4CHI_OPEN),
                                  SRC_SPARSE_4CHI_OPEN))
        rows.append(RegimeRow(boundary("PowerOfN", inv_m2, "open-above"),
                              boundary("PowerOfN", inv_m2),
                              ThresholdValue.unknown(SRC_BOUNDARY_OPEN), SRC_BOUNDARY_OPEN))
        if r >= 5 or m2 > 2:
            sparse_value, sparse_src = exact(1), SRC_SPARSE_ONE
        else:
            sparse_value = ThresholdValue.unknown(SRC_SPARSE_4CHI_OPEN)
            sparse_src = SRC_SPARSE_4CHI_OPEN
        rows.append(RegimeRow(boundary("PowerOfN", inv_m2), boundary("LogOverN", side="open-above"),
                              sparse_value, sparse_src))
        rows.append(RegimeRow(boundary("LogOverN"), None, exact(0), SRC_TRIVIAL_SPARSE))
        return RegimeTable(tuple(rows))
    cycle = h.is_connected() and all(h.degree(v) == 2 for v in range(h.n))
    if cycle and h.n == 5:
        rows.append(RegimeRow(boundary("Constant"), boundary("PowerOfN", "1/2", "open-above"),
                              exact(Fraction(1, 3)), SRC_C5_DISPLAY))
        rows.append(RegimeRow(boundary("PowerOfN", "1/2"),
                              boundary("PowerOfN", "3/4", "open-above"),
                              exact(Fraction(1, 2)), SRC_C5_DISPLAY))
        rows.append(RegimeRow(boundary("PowerOfN", "3/4"), boundary("LogOverN", side="open-above"),
                              exact(1), SRC_C5_DISPLAY))
        rows.append(RegimeRow(boundary("LogOverN"), None, exact(0), SRC_TRIVIAL_SPARSE))
        return RegimeTable(tuple(rows))
    if cycle and h.n >= 7:
        dense_value, dense_src = exact(0), SRC_ODD_CYCLE
    elif is_cloud_forest(h) is None:
        dense_value, dense_src = exact(Fraction(1, 2)), SRC_DENSE_3CHI
    elif is_thundercloud_forest(h) is None:
        dense_value, dense_src = exact(Fraction(1, 3)), SRC_DENSE_3CHI
    else:
        dense_value = ThresholdValue.interval(0, Fraction(1, 3), SRC_THUNDER_CONJ)
        dense_src = SRC_DENSE_3CHI
    rows.append(RegimeRow(boundary("Constant"), boundary("SubpolynomialOne", side="open-above"),
                          dense_value, dense_src))
    rows.append(RegimeRow(boundary("SubpolynomialOne"), boundary("LogOverN", side="open-above"),
                          ThresholdValue.unknown(SRC_3CHI_SPARSE_OPEN), SRC_3CHI_SPARSE_OPEN))
    rows.append(RegimeRow(boundary("LogOverN"), None, exact(0), SRC_TRIVIAL_SPARSE))
    return RegimeTable(tuple(rows))


def oracle_regime_table_star(h: Graph) -> RegimeTable:
    star, _ = chromatic_threshold_star(h)
    m2 = thresholds.two_density(h) if h.n >= 3 else None
    if m2 is None or m2 <= 1:
        return RegimeTable((RegimeRow(boundary("Constant"), None,
                                      ThresholdValue.unknown(SRC_M2_UNDEFINED),
                                      SRC_M2_UNDEFINED),))
    inv_m2 = 1 / m2
    return RegimeTable((
        RegimeRow(boundary("Constant"), boundary("PowerOfN", inv_m2, "open-above"),
                  star, SRC_STAR_DENSE),
        RegimeRow(boundary("PowerOfN", inv_m2), boundary("LogOverN", side="open-above"),
                  exact(1), SRC_STAR_SPARSE),
    ))


def test_regime_tables_match_the_oracle_on_the_atlas(atlas_by_n):
    for g in atlas_by_n.up_to(7):
        if g.edge_count():
            assert regime_table(g).to_json() == oracle_regime_table(g).to_json()
            if g.n <= 6:
                assert regime_table_star(g).to_json() == oracle_regime_table_star(g).to_json()


@pytest.mark.parametrize("m2", [Fraction(9, 5), Fraction(2), Fraction(5, 2)])
def test_regime_table_matches_the_oracle_at_each_sparse_row(atlas_by_n, monkeypatch, m2):
    # 9/5 gives the row between n^{-1/2} and n^{-1/m2}, 2 the open sparse
    # row of a 4-chromatic pattern and 5/2 the sparse row of value 1
    monkeypatch.setattr(thresholds, "two_density", lambda h, budget=None: m2)
    patterns = [g for g in atlas_by_n.up_to(6) if pattern_chi(g) >= 4]
    sparse_sources = set()
    for g in patterns:
        table = regime_table(g)
        assert table.to_json() == oracle_regime_table(g).to_json()
        assert regime_table_star(g).to_json() == oracle_regime_table_star(g).to_json()
        sparse_sources.add(table.rows[-2].source)
    assert len(table.rows) == (6 if m2 < 2 else 5)
    # 4-chromatic patterns keep the sparse row open up to a 2-density of 2
    assert sparse_sources == ({SRC_SPARSE_4CHI_OPEN, SRC_SPARSE_ONE} if m2 <= 2
                              else {SRC_SPARSE_ONE})


def test_regime_table_of_a_3_chromatic_pattern_reads_no_2_density(monkeypatch):
    def unread(h, budget=None):
        raise AssertionError("two_density called on a 3-chromatic pattern")

    monkeypatch.setattr(thresholds, "two_density", unread)
    for h in (Graph.complete(3), Graph.cycle(5), Graph.cycle(7), blow_up(Graph.cycle(5), 2)):
        regime_table(h)
