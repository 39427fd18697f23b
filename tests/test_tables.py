"""Subset tables against per-subset oracles, and the scans that read them
under tiny budgets."""

import random

from hypothesis import given, strategies as st
import pytest

from threshold_lab.classify import (
    decomposition_family,
    has_forest_in_decomposition_family,
    is_cloud_forest,
    is_cloud_forest_alt,
    is_near_acyclic,
    is_r_near_acyclic,
    is_thundercloud_forest,
)
from threshold_lab.constructions import search_zykov_witness
from threshold_lab.errors import Budget, BudgetExceededError, DomainError
from threshold_lab.exact import (
    chromatic_number, colouring_with, contains_subgraph, count_bicliques, embed_forest,
    masks_by_size, pattern_chi, subset_tables, two_density,
)
from threshold_lab.graphs import Graph, is_bipartite
from threshold_lab.thresholds import (
    chromatic_threshold, chromatic_threshold_star, quotients_with_partitions, regime_table,
    regime_table_star,
)


def gnp(n: int, percent: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                                if rng.randrange(100) < percent])


@given(st.integers(0, 10), st.integers(0, 100), st.integers(0, 2**64 - 1))
def test_tables_match_oracles(n, percent, seed):
    g = gnp(n, percent, seed)
    tables = subset_tables(g)
    for mask in range(1 << n):  # before the chi table, bipartite 2-colours
        sub = g.induced_mask(mask)
        assert tables.forest[mask] == sub.is_forest()
        assert tables.indep[mask] == g.is_independent(mask)
        assert tables.bipartite(mask) == (is_bipartite(sub) is not None)
    chi = tables.chi_table()
    for mask in range(1 << n):
        assert chi[mask] == chromatic_number(g.induced_mask(mask))
        assert [tables.colourable(mask, k) for k in range(5)] \
            == [chi[mask] <= k for k in range(5)]
    by_size = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
    assert list(masks_by_size(n)) == by_size
    assert tables.indep_by_size == [m for m in by_size if g.is_independent(m)]


def test_tables_are_built_once_per_graph():
    g = Graph.cycle(7)
    budget = Budget()
    first = subset_tables(g, budget)
    assert budget.used == 1 << 7  # one node per mask
    assert subset_tables(g, budget) is first
    assert budget.used == 1 << 7
    assert subset_tables(Graph.cycle(7)) is not first  # no cache across instances


def test_budget_too_small_for_tables_leaves_none_behind():
    g = Graph.cycle(7)
    with pytest.raises(BudgetExceededError):
        subset_tables(g, Budget((1 << 7) - 1))
    assert "tables" not in g._facts
    assert subset_tables(g).chi_table()[(1 << 7) - 1] == 3


def test_chi_table_charges_its_search_and_is_kept_only_when_complete():
    wheel = Graph.from_edges(8, [(v, 7) for v in range(7)]
                             + [(v, (v + 1) % 7) for v in range(7)])
    budget = Budget()
    chi = subset_tables(wheel).chi_table(budget)
    assert chi[(1 << 8) - 1] == 4
    assert budget.used > 1 << 8  # one node per mask and one per candidate J
    tables = subset_tables(Graph(wheel.n, wheel.adj))
    with pytest.raises(BudgetExceededError):
        tables.chi_table(Budget(budget.used - 1))
    assert tables.chi_table() == chi


def test_chi_is_computed_once_and_kept_only_when_complete():
    wheel = Graph.from_edges(8, [(v, 7) for v in range(7)]
                             + [(v, (v + 1) % 7) for v in range(7)])
    with pytest.raises(BudgetExceededError):
        is_near_acyclic(wheel, Budget(2))  # runs out inside chi
    assert "chi" not in wheel._facts
    budget = Budget()
    assert pattern_chi(wheel, budget) == 4 and budget.used > 0
    spent = budget.used
    assert is_near_acyclic(wheel, budget) is None and budget.used == spent
    assert "tables" not in wheel._facts  # chi alone builds no tables
    assert "_facts" not in Graph(wheel.n, wheel.adj).__dict__


def test_chi_of_a_merge_is_kept_only_when_complete():
    wheel = Graph.from_edges(8, [(v, 7) for v in range(7)]
                             + [(v, (v + 1) % 7) for v in range(7)])
    root, merge = [q for q, _, _ in quotients_with_partitions(wheel)][:2]
    assert pattern_chi(root) == 4  # so only the merge's own test spends
    with pytest.raises(BudgetExceededError):
        pattern_chi(merge, Budget(2))  # runs out inside the 4-colourability test
    assert "chi" not in merge._facts
    assert pattern_chi(merge) == chromatic_number(Graph(merge.n, merge.adj))


SCANS = {
    "is_cloud_forest": is_cloud_forest,
    "is_thundercloud_forest": is_thundercloud_forest,
    "is_cloud_forest_alt": is_cloud_forest_alt,
    "is_near_acyclic": is_near_acyclic,
    "is_r_near_acyclic": lambda h, budget: is_r_near_acyclic(h, chromatic_number(h), budget),
    "has_forest_in_decomposition_family": has_forest_in_decomposition_family,
    "decomposition_family": decomposition_family,
    "chromatic_threshold": chromatic_threshold,
    "chromatic_threshold_star": chromatic_threshold_star,
    "quotients_with_partitions": lambda h, budget: list(quotients_with_partitions(h, budget)),
    "search_zykov_witness": lambda h, budget: search_zykov_witness(h, 3, 1, 4, budget),
    "two_density": two_density,
    "regime_table": regime_table,
    "regime_table_star": regime_table_star,
}

# Solvers that finish the sparse pattern below within 1000 nodes (C5 search
# 106, 3-colouring 17, K_{2,2} count 120, P3 embedding 4), so they only join
# the tiny-budget property.
SOLVERS = {
    "contains_subgraph": lambda h, budget: contains_subgraph(h, Graph.cycle(5), budget),
    "colouring_with": lambda h, budget: colouring_with(h, chromatic_number(h), budget),
    "count_bicliques": lambda h, budget: count_bicliques(h, 2, budget),
    "embed_forest": lambda h, budget: embed_forest(h, Graph.path(3), budget),
}


def outcome(scan, h: Graph, budget):
    try:
        return scan(h, budget)
    except DomainError:
        return "domain error"


@given(st.integers(1, 7), st.integers(0, 100), st.integers(0, 2**64 - 1),
       st.integers(0, 400))
def test_tiny_budget_never_changes_an_answer(n, percent, seed, limit):
    h = gnp(n, percent, seed)
    for name, scan in {**SCANS, **SOLVERS}.items():
        expected = outcome(scan, Graph(h.n, h.adj), None)
        # a fresh instance, so the budget also pays for building the tables
        try:
            got = outcome(scan, Graph(h.n, h.adj), Budget(limit))
        except BudgetExceededError:
            continue
        assert got == expected, name


def pendant_cycle(n: int) -> Graph:
    """The cycle on n - 1 vertices with one pendant vertex: sparse, chi 3
    when n - 1 is odd."""
    return Graph.from_edges(n, [(v, (v + 1) % (n - 1)) for v in range(n - 1)]
                            + [(0, n - 1)])


def test_sparse_pattern_under_small_budget_raises():
    h = pendant_cycle(16)
    for scan in SCANS.values():
        with pytest.raises(BudgetExceededError):
            scan(Graph(h.n, h.adj), Budget(1000))


def test_three_chromatic_scans_never_build_the_chi_table():
    h = pendant_cycle(16)
    for name in ("is_cloud_forest", "is_thundercloud_forest", "is_near_acyclic",
                 "is_r_near_acyclic", "has_forest_in_decomposition_family",
                 "chromatic_threshold"):
        SCANS[name](h, None)
    assert subset_tables(h)._chi is None
