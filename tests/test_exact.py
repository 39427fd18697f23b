"""Exact solvers checked against brute-force oracles built from scratch."""

import gc
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

from hypothesis import given, strategies as st
import pytest

from threshold_lab import classify, thresholds
from threshold_lab.errors import Budget, BudgetExceededError, DomainError
from threshold_lab.exact import (
    Embedding,
    are_isomorphic,
    canonical_form,
    chromatic_number,
    colouring_with,
    contains_subgraph,
    count_bicliques,
    embed_forest,
    greedy_clique,
    greedy_colouring,
    masks_by_size,
    pattern_chi,
    subset_tables,
    two_density,
)
from threshold_lab.formats import parse_graph6, write_graph6
from threshold_lab.graphs import Graph
from threshold_lab.harness import GnpParams, SplitMix64, sample_gnp


# -- oracles -------------------------------------------------------------------


def oracle_contains(host: Graph, pattern: Graph) -> bool:
    """Brute force over injective maps."""
    for combo in permutations(range(host.n), pattern.n):
        if all(host.has_edge(combo[u], combo[v]) for u, v in pattern.edges()):
            return True
    return False


def oracle_two_density(g: Graph) -> Fraction:
    """Second enumeration: iterate subsets as vertex lists, count edges
    pairwise."""
    best = None
    for size in range(3, g.n + 1):
        for sub in combinations(range(g.n), size):
            e = sum(1 for i, u in enumerate(sub) for v in sub[i + 1:]
                    if g.has_edge(u, v))
            val = Fraction(e - 1, size - 2)
            if best is None or val > best:
                best = val
    return best


def oracle_chromatic(g: Graph) -> int:
    """Fewest colours over every proper colouring, tried in full."""
    return min(max(c, default=-1) + 1 for c in _colourings(g.n)
               if all(c[u] != c[v] for u, v in g.edges()))


def _colourings(n):
    """Every colouring of n vertices up to renaming the colours: each vertex
    takes a colour already used or the next new one."""
    out = [[]]
    for _ in range(n):
        out = [c + [k] for c in out for k in range(max(c, default=-1) + 2)]
    return out


def oracle_independent_sets(g: Graph):
    """All independent sets (the empty one included) by size, then in
    lexicographic order, from every vertex combination."""
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if g.is_independent(sum(1 << v for v in combo)):
                yield combo


# -- chromatic number ------------------------------------------------------------


@pytest.mark.parametrize("g,chi", [
    (Graph.empty(0), 0),
    (Graph.empty(4), 1),
    (Graph.path(5), 2),
    (Graph.cycle(5), 3),
    (Graph.cycle(6), 2),
    (Graph.complete(5), 5),
    (Graph.complete_multipartite([2, 2, 2]), 3),
])
def test_chromatic_known(g, chi):
    assert chromatic_number(g) == chi


@given(st.integers(0, 8), st.integers(0, 100), st.integers(0, 2**64 - 1))
def test_chromatic_against_oracle(n, percent, seed):
    g = sample_gnp(GnpParams(n, Fraction(percent, 100), seed))
    assert chromatic_number(g) == oracle_chromatic(g)


def test_colouring_with():
    c5 = Graph.cycle(5)
    assert colouring_with(c5, 2) is None
    col = colouring_with(c5, 3)
    assert col is not None
    assert all(col[u] != col[v] for u, v in c5.edges())


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        chromatic_number(Graph.cycle(7), Budget(2))


# -- independent sets --------------------------------------------------------------


def test_independent_sets_order_and_content():
    masks = subset_tables(Graph.cycle(4)).indep_by_size
    assert masks == [0, 0b1, 0b10, 0b100, 0b1000, 0b101, 0b1010]
    sets = list(oracle_independent_sets(Graph.cycle(4)))
    assert sets == [(), (0,), (1,), (2,), (3,), (0, 2), (1, 3)]


def test_independent_masks_match_sets():
    for seed in range(10):
        g = sample_gnp(GnpParams(7, "0.4", seed))
        masks = subset_tables(g).indep_by_size
        from_sets = sorted(
            (sum(1 << v for v in s) for s in oracle_independent_sets(g)),
            key=lambda m: (m.bit_count(), m),
        )
        assert masks == from_sets


# -- two density --------------------------------------------------------------------


def test_two_density_known():
    assert two_density(Graph.complete(3)) == 2
    assert two_density(Graph.complete(4)) == Fraction(5, 2)
    assert two_density(Graph.complete(5)) == 3
    assert two_density(Graph.cycle(5)) == Fraction(4, 3)
    for n in range(3, 10):
        assert two_density(Graph.empty(n)) == Fraction(-1, n - 2)
        assert two_density(Graph.from_edges(n, [(0, n - 1)])) == 0
    with pytest.raises(DomainError):
        two_density(Graph.complete(2))


def test_two_density_matches_oracle_on_the_atlas(atlas_by_n):
    for n in range(3, 8):
        for g in atlas_by_n[n]:
            assert two_density(g) == oracle_two_density(g), write_graph6(g)


def test_two_density_oracle_sampled_6_vertex():
    for seed in range(15):
        g = sample_gnp(GnpParams(6, "0.5", seed))
        assert two_density(g) == oracle_two_density(g)


@given(st.integers(3, 12), st.integers(0, 100), st.integers(0, 2**64 - 1))
def test_two_density_matches_oracle_on_gnp(n, percent, seed):
    g = sample_gnp(GnpParams(n, Fraction(percent, 100), seed))
    assert two_density(g) == oracle_two_density(g)


def test_two_density_refuses_a_large_graph_before_allocating():
    g = Graph.empty(40)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            two_density(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


# -- subgraph containment -------------------------------------------------------------


def test_contains_subgraph_oracle():
    patterns = [Graph.path(3), Graph.cycle(3), Graph.cycle(4),
                Graph.complete(4), Graph.cycle(5)]
    for seed in range(20):
        host = sample_gnp(GnpParams(6, "0.5", seed))
        for pat in patterns:
            emb = contains_subgraph(host, pat)
            assert (emb is not None) == oracle_contains(host, pat)
            if emb is not None:
                assert emb.validate(host, pat)


def test_embedding_validate():
    host = Graph.cycle(4)
    assert Embedding((0, 1)).validate(host, Graph.complete(2))
    assert not Embedding((0, 2)).validate(host, Graph.complete(2))
    assert not Embedding((0, 0)).validate(host, Graph.complete(2))


# -- bicliques ---------------------------------------------------------------------


def test_count_bicliques_edges():
    for seed in range(10):
        g = sample_gnp(GnpParams(8, "0.5", seed))
        assert count_bicliques(g, 1) == g.edge_count()


def test_count_bicliques_known():
    assert count_bicliques(Graph.complete_multipartite([2, 2]), 2) == 1
    assert count_bicliques(Graph.complete_multipartite([3, 3]), 3) == 1
    assert count_bicliques(Graph.cycle(4), 2) == 1
    assert count_bicliques(Graph.complete(4), 2) == 3


# -- forest embedding ---------------------------------------------------------------


@given(st.integers(1, 6), st.integers(0, 20), st.integers(0, 2**64 - 1))
def test_embed_forest_guarantee(fsize, spare, seed):
    """e(G) >= v(F) * v(G) forces an embedding, and the greedy path finds
    it: under Budget(0) the fallback search fails on its first node."""
    rng = SplitMix64(seed)
    f = _random_forest(fsize, rng)
    n = 2 * fsize + 1 + spare  # the least n with room for fsize * n edges
    g = _graph_with_edges(n, fsize * n, rng)
    assert g.edge_count() == fsize * n
    emb = embed_forest(g, f, Budget(0))
    assert emb is not None and emb.validate(g, f)


def _random_forest(size, rng):
    edges = []
    for v in range(1, size):
        if rng.below(5):  # leave some vertices isolated
            edges.append((rng.below(v), v))
    return Graph.from_edges(size, edges)


def _graph_with_edges(n, count, rng):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, rng.sample(pairs, count))


def test_embed_forest_rejects_non_forest():
    with pytest.raises(DomainError):
        embed_forest(Graph.complete(5), Graph.cycle(3))


# -- canonical form ----------------------------------------------------------------


def test_canonical_form_permutation_invariance():
    rng = SplitMix64(7)
    for trial in range(100):
        g = sample_gnp(GnpParams(7, "0.5", trial))
        perm = rng.sample(range(7), 7)
        assert canonical_form(g) == canonical_form(g.relabel(perm))


def test_canonical_form_separates():
    assert canonical_form(Graph.path(4)) != canonical_form(Graph.cycle(4))
    assert are_isomorphic(Graph.cycle(4).relabel([2, 0, 3, 1]), Graph.cycle(4))
    assert not are_isomorphic(Graph.path(4), Graph.cycle(4))


def test_canonical_form_is_valid_graph6():
    g = Graph.complete_multipartite([2, 3])
    rep = parse_graph6(canonical_form(g))
    assert are_isomorphic(rep, g)


# -- reference cycles ------------------------------------------------------------------


FHCKG = parse_graph6(b"FhCKG")

# every public solver of exact, classify and thresholds, called once on a
# fresh instance
SOLVERS = {
    "greedy_clique": greedy_clique,
    "greedy_colouring": greedy_colouring,
    "chromatic_number": chromatic_number,
    "colouring_with": lambda g: colouring_with(g, 3),
    "masks_by_size": lambda g: list(masks_by_size(g.n)),
    "pattern_chi": pattern_chi,
    "subset_tables": lambda g: subset_tables(g).chi_table(),
    "two_density": two_density,
    "contains_subgraph": lambda g: contains_subgraph(g, Graph.cycle(5)),
    "count_bicliques": lambda g: count_bicliques(g, 2),
    "embed_forest": lambda g: embed_forest(g, Graph.path(4)),
    "canonical_form": canonical_form,
    "are_isomorphic": lambda g: are_isomorphic(g, FHCKG),
    "is_cloud_forest": classify.is_cloud_forest,
    "is_thundercloud_forest": classify.is_thundercloud_forest,
    "is_cloud_forest_alt": classify.is_cloud_forest_alt,
    "is_near_acyclic": classify.is_near_acyclic,
    "is_r_near_acyclic": lambda g: classify.is_r_near_acyclic(g, 3),
    "has_forest_in_decomposition_family": classify.has_forest_in_decomposition_family,
    "decomposition_family": classify.decomposition_family,
    "chromatic_threshold": thresholds.chromatic_threshold,
    "chromatic_threshold_star": thresholds.chromatic_threshold_star,
    "quotients_with_partitions": lambda g: list(thresholds.quotients_with_partitions(g)),
    "regime_table": thresholds.regime_table,
    "regime_table_star": thresholds.regime_table_star,
}


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_solvers_leave_no_reference_cycles(name):
    """Reference counting frees everything a call made, so the cyclic
    collector has nothing to do after it."""
    assert chromatic_number(FHCKG) == 3
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        SOLVERS[name](Graph(FHCKG.n, FHCKG.adj))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
