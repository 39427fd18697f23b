import pytest

from threshold_lab.classify import is_near_acyclic
from threshold_lab.constructions import (
    TemplateGraph,
    ZykovSpec,
    all_trees,
    blow_up,
    canonical_bipartition,
    join,
    make_template,
    search_zykov_witness,
    verify_zykov_containment,
    zykov,
)
from threshold_lab.errors import Budget, BudgetExceededError, DomainError
from threshold_lab.exact import (
    are_isomorphic,
    chromatic_number,
    contains_subgraph,
)
from threshold_lab.formats import write_graph6
from threshold_lab.graphs import Graph
from threshold_lab.harness import SplitMix64


# -- blow-up and join -----------------------------------------------------------


def test_blow_up_known():
    assert are_isomorphic(blow_up(Graph.complete(2), 2), Graph.cycle(4))
    b = blow_up(Graph.cycle(5), 2)
    assert b.n == 10 and b.edge_count() == 20
    g = Graph.path(4)
    assert blow_up(g, 1) == g
    with pytest.raises(DomainError):
        blow_up(g, 0)


def test_blow_up_contains_original_and_keeps_chi(atlas_by_n):
    rng = SplitMix64(11)
    pool = [g for g in atlas_by_n.up_to(5) if g.n >= 2]
    for g in rng.sample(pool, 12):
        for t in (2, 3):
            b = blow_up(g, t)
            emb = contains_subgraph(b, g)
            assert emb is not None and emb.validate(b, g)
            assert chromatic_number(b) == chromatic_number(g)


def test_join():
    w7 = join(Graph.empty(1), Graph.cycle(7))
    assert w7.n == 8 and w7.edge_count() == 14
    assert are_isomorphic(join(Graph.empty(1), Graph.empty(1)), Graph.complete(2))
    rng = SplitMix64(3)
    from threshold_lab.harness import GnpParams, sample_gnp
    for seed in range(10):
        g1 = sample_gnp(GnpParams(4, "0.5", seed))
        g2 = sample_gnp(GnpParams(5, "0.5", seed + 100))
        j = join(g1, g2)
        assert j.edge_count() == g1.edge_count() + g2.edge_count() + 20


# -- Zykov construction -----------------------------------------------------------


def test_zykov_edge_spec_is_path():
    spec = ZykovSpec((Graph.complete(2),), 3, 1)
    built = zykov(spec)
    assert are_isomorphic(built.graph, Graph.path(4))
    assert spec.vertex_count() == 4


def test_zykov_vertex_count_formula():
    rng = SplitMix64(9)
    trees_by_size = all_trees(6)
    flat = [t for level in trees_by_size for t in level]
    for _ in range(50):
        ell = 1 + rng.below(3)
        trees = tuple(flat[rng.below(len(flat))] for _ in range(ell))
        r = 3 + rng.below(3)
        t = 1 + rng.below(3)
        spec = ZykovSpec(trees, r, t)
        built = zykov(spec)
        expected = sum(tr.n for tr in trees) + ((1 << ell) + r - 3) * t
        assert built.graph.n == expected == spec.vertex_count()


def test_zykov_structure_invariants():
    spec = ZykovSpec((Graph.complete(2), Graph.path(3)), 5, 2)
    built = zykov(spec)
    g = built.graph
    by_role = {}
    for v, role in enumerate(built.roles):
        by_role.setdefault(role.rsplit(":", 1)[0] if role.startswith("tree")
                           else role, []).append(v)
    for role, verts in by_role.items():
        if role.startswith("S"):
            assert not any(g.has_edge(a, b) for a in verts for b in verts if a < b)
        if role.startswith("S'"):
            for v in verts:
                assert g.degree(v) == g.n - spec.t
    # connector classes avoid the opposite side of each tree
    sides = spec.sides()
    offsets = [0, spec.trees[0].n]
    for v, role in enumerate(built.roles):
        if role.startswith("S:"):
            imask = int(role.split(":")[1])
            for j, tree in enumerate(spec.trees):
                wrong = sides[j][1] if imask >> j & 1 else sides[j][0]
                for u in wrong:
                    assert not g.has_edge(v, offsets[j] + u)


def test_zykov_r3_triangle_free():
    spec = ZykovSpec((Graph.path(3), Graph.complete(2)), 3, 2)
    g = zykov(spec).graph
    assert not any(g.adj[u] & g.adj[v] for u, v in g.edges())


def test_zykov_rejects_bad_specs():
    with pytest.raises(DomainError):
        ZykovSpec((Graph.cycle(3),), 3, 1)
    with pytest.raises(DomainError):
        ZykovSpec((Graph.complete(2),), 2, 1)
    with pytest.raises(DomainError):
        ZykovSpec((Graph.complete(2),), 3, 0)
    with pytest.raises(DomainError):
        ZykovSpec((Graph.complete(2),), 3, 1, ((0, 1),))
    with pytest.raises(BudgetExceededError, match="zykov: size cap of 10 trees"):
        zykov(ZykovSpec(tuple(Graph.complete(2) for _ in range(11)), 3, 1))


def test_canonical_bipartition_least_vertex_in_a():
    a, b = canonical_bipartition(Graph.path(4))
    assert 0 in a
    assert sorted(a + b) == [0, 1, 2, 3]


# -- containment and search ---------------------------------------------------------


def test_verify_containment_matches_direct_search():
    spec = ZykovSpec((Graph.path(5),), 3, 2)
    host = zykov(spec).graph
    for pattern in (Graph.cycle(7), Graph.complete(3), Graph.path(4)):
        got = verify_zykov_containment(pattern, spec)
        direct = contains_subgraph(host, pattern)
        assert (got is None) == (direct is None)
        if got is not None:
            assert got.validate(host, pattern)


def test_search_simple_cases():
    found = search_zykov_witness(Graph.complete(2), 2, 2, 3)
    assert found is not None
    assert search_zykov_witness(Graph.complete(3), 3, 3, 3) is None
    found = search_zykov_witness(Graph.cycle(5), 2, 5, 5)
    assert found is not None
    spec, emb = found
    assert emb.validate(zykov(spec).graph, Graph.cycle(5))


def test_search_deterministic():
    a = search_zykov_witness(Graph.cycle(5), 2, 5, 5)
    b = search_zykov_witness(Graph.cycle(5), 2, 5, 5)
    assert a[0] == b[0] and a[1] == b[1]


def test_search_found_implies_near_acyclic(atlas_by_n):
    rng = SplitMix64(17)
    pool = [g for g in atlas_by_n.up_to(6)
            if g.n >= 3 and chromatic_number(g) == 3]
    for g in rng.sample(pool, 25):
        found = search_zykov_witness(g, 2, 4, 4)
        if found is not None:
            assert is_near_acyclic(g) is not None


def test_all_trees_counts():
    # numbers of trees on 1..7 vertices
    assert [len(level) for level in all_trees(7)[1:]] == [1, 1, 1, 2, 3, 6, 11]


def test_all_trees_are_the_connected_forests_of_the_atlas(atlas_by_n):
    trees = all_trees(7)
    assert trees[0] == []
    for k in range(1, 8):
        assert [write_graph6(t) for t in trees[k]] == [
            write_graph6(g) for g in atlas_by_n[k] if g.is_connected() and g.is_forest()], k


# -- template ------------------------------------------------------------------------


def test_make_template_invariants():
    tpl = make_template(Graph.complete(3), 12, 3)
    g = tpl.graph
    assert g.n == 12 and len(tpl.set_x) == 3 and len(tpl.set_y) == 4
    assert are_isomorphic(g.induced(list(tpl.set_x)), Graph.complete(3))
    assert chromatic_number(g.induced(list(tpl.set_x))) == 3
    xmask = sum(1 << v for v in tpl.set_x)
    ymask = sum(1 << v for v in tpl.set_y)
    assert g.edge_count_between(xmask, ymask) == 0
    assert g.edge_count_within(ymask) == 0


def test_template_min_degree_scales():
    tpl = make_template(Graph.complete(3), 200, 3)
    assert tpl.graph.min_degree() >= 120  # 0.6 * n


def test_template_validation():
    with pytest.raises(DomainError):
        make_template(Graph.complete(3), 12, 4)
    with pytest.raises(DomainError, match="k must be at least 1"):
        make_template(Graph.empty(0), 10, 0)
    with pytest.raises(DomainError):
        TemplateGraph(Graph.complete(4), (0, 1), (2, 3))


def test_search_refuses_a_pattern_with_k_r_at_once():
    # spec graphs have clique number r - 1, with r = max(3, chi(h))
    for n in (6, 7):
        assert search_zykov_witness(Graph.complete(n), 2, 2, 4, Budget(10_000)) is None
