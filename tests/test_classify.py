"""Class recognisers checked clause by clause against an oracle that
enumerates odd cycles explicitly."""

from itertools import combinations

from hypothesis import given, strategies as st
import pytest

from threshold_lab.classify import (
    _removals,
    decomposition_family,
    has_forest_in_decomposition_family,
    is_cloud_forest,
    is_cloud_forest_alt,
    is_near_acyclic,
    is_r_near_acyclic,
    is_thundercloud_forest,
)
from threshold_lab.constructions import blow_up
from threshold_lab.errors import Budget, DomainError
from threshold_lab.exact import (
    are_isomorphic, canonical_form, chromatic_number, masks_by_size, pattern_chi,
    subset_tables,
)
from threshold_lab.graphs import Graph
from threshold_lab.harness import GnpParams, sample_gnp


# -- oracle helpers ------------------------------------------------------------


def all_cycles(g: Graph):
    """Every cycle as a vertex tuple, found by DFS from each start vertex."""
    cycles = set()

    def walk(path, seen):
        v = path[-1]
        for u in g.neighbours(v):
            if u == path[0] and len(path) >= 3:
                best = min(
                    tuple(path[i:] + path[:i]) for i in range(len(path))
                )
                cycles.add(min(best, tuple(reversed(best))))
            elif u not in seen and u > path[0]:
                walk(path + [u], seen | {u})

    for start in range(g.n):
        walk([start], {start})
    return cycles


def odd_cycles(g: Graph):
    return [c for c in all_cycles(g) if len(c) % 2 == 1]


def is_independent_set(g: Graph, vs) -> bool:
    return all(not g.has_edge(u, v) for u, v in combinations(vs, 2))


def induces_forest(g: Graph, vs) -> bool:
    return not any(set(c) <= set(vs) for c in all_cycles(g))


def oracle_cloud_forest(g: Graph, cloud) -> bool:
    """The defining clauses, checked one by one."""
    cloud = set(cloud)
    rest = [v for v in range(g.n) if v not in cloud]
    if not is_independent_set(g, cloud):
        return False
    if not induces_forest(g, rest):
        return False
    deg_f = {v: sum(1 for u in g.neighbours(v) if u in rest) for v in rest}
    for v in rest:
        touches = any(u in cloud for u in g.neighbours(v))
        if touches and deg_f[v] > 1:
            return False
    for v in rest:
        for u in g.neighbours(v):
            if u in rest and deg_f[v] == 1 and deg_f[u] == 1:
                if any(x in cloud for x in g.neighbours(v)) and \
                        any(x in cloud for x in g.neighbours(u)):
                    return False
    return True


def oracle_thundercloud(g: Graph, cloud) -> bool:
    if not oracle_cloud_forest(g, cloud):
        return False
    cloud = set(cloud)
    return all(len(set(c) & cloud) >= 2 for c in odd_cycles(g))


def oracle_near_acyclic(g: Graph, part_i) -> bool:
    part_i = set(part_i)
    rest = [v for v in range(g.n) if v not in part_i]
    if chromatic_number(g) != 3:
        return False
    if not is_independent_set(g, part_i) or not induces_forest(g, rest):
        return False
    return all(len(set(c) & part_i) >= 2 for c in odd_cycles(g))


# -- ground truths ---------------------------------------------------------------


def test_k3_not_cloud_forest():
    assert is_cloud_forest(Graph.complete(3)) is None
    assert not any(
        oracle_cloud_forest(Graph.complete(3), set(c))
        for r in range(4) for c in combinations(range(3), r)
    )


def test_c5_cloud_not_thunder():
    c5 = Graph.cycle(5)
    w = is_cloud_forest(c5)
    assert w is not None
    assert oracle_cloud_forest(c5, w.cloud)
    assert is_thundercloud_forest(c5) is None


@pytest.mark.parametrize("k", [3, 4])
def test_long_odd_cycles_thundercloud(k):
    g = Graph.cycle(2 * k + 1)
    w = is_thundercloud_forest(g)
    assert w is not None
    assert oracle_thundercloud(g, w.cloud)


def test_even_cycle_cloud_forest():
    w = is_cloud_forest(Graph.cycle(6))
    assert w is not None and oracle_cloud_forest(Graph.cycle(6), w.cloud)


# -- witness validity on random graphs ----------------------------------------------


def test_witnesses_against_oracle():
    for seed in range(40):
        g = sample_gnp(GnpParams(7, "0.35", seed))
        w = is_cloud_forest(g)
        if w is not None:
            assert oracle_cloud_forest(g, w.cloud)
        else:
            assert not any(
                oracle_cloud_forest(g, c)
                for r in range(g.n + 1) for c in combinations(range(g.n), r)
            )
        t = is_thundercloud_forest(g)
        if t is not None:
            assert oracle_thundercloud(g, t.cloud)
        n = is_near_acyclic(g)
        if n is not None:
            assert oracle_near_acyclic(g, n.independent_part)


def test_alt_formulation_matches_on_random_graphs():
    for seed in range(40):
        g = sample_gnp(GnpParams(6, "0.4", seed))
        assert (is_cloud_forest(g) is None) == (is_cloud_forest_alt(g) is None)


def test_alt_witness_clauses():
    w = is_cloud_forest_alt(Graph.cycle(5))
    assert w is not None
    g = Graph.cycle(5)
    si, sj, fp = set(w.set_i), set(w.set_j), set(w.forest_f_prime)
    assert si | sj | fp == set(range(5)) and not (si & sj or si & fp or sj & fp)
    assert is_independent_set(g, si) and is_independent_set(g, sj)
    assert induces_forest(g, fp)
    assert not any(u in fp for v in si for u in g.neighbours(v))
    assert all(sum(1 for u in g.neighbours(v) if u in fp) <= 1 for v in sj)


@given(st.integers(3, 8), st.integers(0, 100), st.integers(0, 2**64 - 1), st.data())
def test_a_triangle_rules_out_the_classes(n, percent, seed, data):
    """An independent set meets a triangle at most once, so no cloud,
    thundercloud or near-acyclic part exists, and an r-near-acyclic
    witness keeps no triangle."""
    a, b, c = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3,
                                        unique=True)))
    g = sample_gnp(GnpParams(n, f"{percent}/100", seed))
    g = Graph.from_edges(n, g.edges() + [(a, b), (a, c), (b, c)])
    for size in range(n + 1):
        for part in combinations(range(n), size):
            if is_independent_set(g, part):
                assert not oracle_cloud_forest(g, part)
                assert not oracle_thundercloud(g, part)
                assert not oracle_near_acyclic(g, part)
    assert is_cloud_forest(g) is None
    assert is_thundercloud_forest(g) is None
    assert is_near_acyclic(g) is None
    got = is_r_near_acyclic(g, chromatic_number(g))  # chi >= 3 with a triangle
    if got is not None:
        removed = set().union(*map(set, got[0].sets))
        kept = g.induced([v for v in range(n) if v not in removed])
        assert not any(len(cycle) == 3 for cycle in all_cycles(kept))


# -- near-acyclic and the r-generalisation -------------------------------------------


def test_near_acyclic_ground_truth():
    assert is_near_acyclic(Graph.complete(3)) is None
    w = is_near_acyclic(Graph.cycle(5))
    assert w is not None and oracle_near_acyclic(Graph.cycle(5), w.independent_part)
    assert is_near_acyclic(Graph.cycle(6)) is None  # chi = 2


def test_r_near_acyclic_wheel():
    w7 = Graph.from_edges(8, [(i, (i + 1) % 7) for i in range(7)]
                          + [(7, i) for i in range(7)])
    assert chromatic_number(w7) == 4
    got = is_r_near_acyclic(w7, 4)
    assert got is not None
    removals, witness = got
    assert len(removals.sets) == 1
    removed = set().union(*map(set, removals.sets))
    kept = [v for v in range(8) if v not in removed]
    sub = w7.induced(kept)
    assert chromatic_number(sub) == 3
    translated = [kept.index(v) for v in witness.independent_part]
    assert oracle_near_acyclic(sub, translated)


def test_r_near_acyclic_rejects_k4_and_bad_r():
    assert is_r_near_acyclic(Graph.complete(4), 4) is None
    with pytest.raises(DomainError):
        is_r_near_acyclic(Graph.complete(4), 3)


# -- decomposition family --------------------------------------------------------------


def test_decomposition_family_k3():
    fam = decomposition_family(Graph.complete(3))
    assert len(fam) == 1 and are_isomorphic(fam[0], Graph.complete(2))


def test_decomposition_family_c5():
    fam = decomposition_family(Graph.cycle(5))
    assert all(chromatic_number(f) <= 2 for f in fam)
    assert any(f.is_forest() for f in fam)


def oracle_decomposition_family(h: Graph) -> list[Graph]:
    """Every removal of chi(h) - 2 independent sets by (popcount, value),
    one canonical form per bipartite rest, and the first rest of each class
    kept, sorted by canonical form."""
    r = chromatic_number(h)
    tables = subset_tables(h)
    full = (1 << h.n) - 1
    seen = {}
    for removed in masks_by_size(h.n):
        rest = full & ~removed
        if tables.colourable(removed, r - 2) and tables.bipartite(rest):
            sub = h.induced_mask(rest)
            seen.setdefault(canonical_form(sub), sub)
    return [seen[code] for code in sorted(seen)]


@given(st.integers(2, 9), st.integers(0, 100), st.integers(0, 2**64 - 1))
def test_decomposition_family_matches_oracle(n, percent, seed):
    h = sample_gnp(GnpParams(n, f"{percent}/100", seed))
    if chromatic_number(h) >= 2:
        assert decomposition_family(h) == oracle_decomposition_family(Graph(h.n, h.adj))


@pytest.mark.parametrize("h", [Graph.cycle(k) for k in range(5, 16)]
                         + [blow_up(Graph.cycle(5), 2),
                            Graph.complete_multipartite([2, 2, 2])],
                         ids=[f"C{k}" for k in range(5, 16)] + ["C5x2", "K222"])
def test_decomposition_family_of_symmetric_patterns_matches_oracle(h):
    assert decomposition_family(h) == oracle_decomposition_family(Graph(h.n, h.adj))


@given(st.integers(0, 8), st.integers(0, 100), st.integers(0, 2**64 - 1), st.integers(0, 3))
def test_removals_match_the_mask_filter(n, percent, seed, count):
    h = sample_gnp(GnpParams(n, f"{percent}/100", seed))
    tables = subset_tables(h)
    assert list(_removals(h, count, Budget())) == [
        m for m in masks_by_size(n) if tables.colourable(m, count)]


def test_forest_in_family():
    assert has_forest_in_decomposition_family(Graph.complete(3)) is not None
    assert has_forest_in_decomposition_family(Graph.cycle(5)) is not None
    assert has_forest_in_decomposition_family(blow_up(Graph.cycle(5), 2)) is None
    with pytest.raises(DomainError):
        has_forest_in_decomposition_family(Graph.path(3))


def test_forest_removal_witness_is_valid():
    h = Graph.complete(4)
    seq = has_forest_in_decomposition_family(h)
    assert seq is not None and len(seq.sets) == 2
    for s in seq.sets:
        assert is_independent_set(h, s)
    removed = set().union(*map(set, seq.sets))
    rest = h.induced([v for v in range(4) if v not in removed])
    assert rest.is_forest()


# -- nodes of the scans ---------------------------------------------------------------


def test_scans_spend_the_nodes_of_their_separate_walks(atlas_by_n):
    # Each scan on a fresh instance, so it builds its own record, with the
    # default budget, summed over the atlas up to 7 vertices. The shared walk
    # ``_forest_parts`` spends one node per independent mask it visits, and a
    # scan that visited more masks, or charged more per mask, would move these.
    spent = dict.fromkeys(["cloud", "thunder", "near", "r_near"], 0)
    scans = {"cloud": is_cloud_forest, "thunder": is_thundercloud_forest,
             "near": is_near_acyclic, "r_near": is_r_near_acyclic}
    for g in atlas_by_n.up_to(7):
        chi = pattern_chi(g)
        for name, scan in scans.items():
            budget = Budget()
            if name != "r_near":
                scan(Graph._trusted(g.n, g.adj), budget)
            elif chi >= 3:
                scan(Graph._trusted(g.n, g.adj), chi, budget)
            spent[name] += budget.used
    assert spent == {"cloud": 17_590, "thunder": 18_066, "near": 3_648, "r_near": 74_744}
