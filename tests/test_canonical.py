"""canonical_form against a plain search for the same least code.

``oracle_min_code`` tries every unused vertex at every depth and cuts a
branch only when its prefix exceeds the best code found so far; it knows
nothing of the independent-set, least-row, twin and automorphism cuts.
canonical_form must give the same bytes on every input.
"""

import random
from itertools import combinations, permutations
from math import factorial
from typing import Optional

from hypothesis import assume, given, strategies as st

from threshold_lab.atlas import _mask_image, _orbit_leaders
from threshold_lab.errors import Budget, BudgetExceededError
from threshold_lab.exact import _min_code, canonical_form
from threshold_lab.formats import write_graph6
from threshold_lab.graphs import Graph
from threshold_lab.thresholds import _pair_image


def oracle_min_code(g: Graph, budget) -> tuple[int, ...]:
    """Lexicographically least upper-triangle bit string over all orderings.

    Backtracking with prefix pruning: a partial ordering whose bits already
    exceed the best known prefix cannot produce the minimum.
    """
    n = g.n
    best: Optional[list[int]] = None
    order: list[int] = []
    prefix: list[int] = []
    used = [False] * n
    # candidates tried low-degree-first so a near-minimal code is found early
    by_degree = sorted(range(n), key=lambda v: (g.degree(v), v))

    def rec(depth: int):
        nonlocal best
        budget.spend()
        if depth == n:
            if best is None or prefix < best:
                best = prefix[:]
            return
        base = len(prefix)
        for v in by_degree:
            if used[v]:
                continue
            row = [g.adj[v] >> u & 1 for u in order]
            if best is not None:
                prefix.extend(row)
                worse = prefix > best[: base + depth]
                del prefix[base:]
                if worse:
                    continue
            used[v] = True
            order.append(v)
            prefix.extend(row)
            rec(depth + 1)
            del prefix[base:]
            order.pop()
            used[v] = False

    rec(0)
    assert best is not None or n == 0
    return tuple(best or ())


def oracle_canonical_form(g: Graph) -> bytes:
    if g.n == 0:
        return write_graph6(g)
    code = oracle_min_code(g, Budget())
    rows = [0] * g.n
    pos = 0
    for j in range(1, g.n):
        for i in range(j):
            if code[pos]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return write_graph6(Graph(g.n, tuple(rows)))


def random_relabelling(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


@given(st.integers(0, 10), st.integers(0, 2**64 - 1))
def test_matches_oracle_on_random_graphs(n, seed):
    # G(n, 1/2): its automorphism group is almost always trivial, which
    # keeps the factorial oracle fast at n = 10
    rng = random.Random(seed)
    g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                             if rng.random() < 0.5])
    h = random_relabelling(g, rng)
    assert canonical_form(h) == oracle_canonical_form(h)


def test_matches_oracle_on_atlas(atlas_by_n):
    rng = random.Random(20140101)
    for g in atlas_by_n.up_to(7):
        h = random_relabelling(g, rng)
        assert canonical_form(h) == oracle_canonical_form(h), write_graph6(g)


def test_matches_oracle_on_symmetric_graphs():
    rng = random.Random(7)
    for g in [Graph.empty(8), Graph.complete(8), Graph.cycle(9),
              Graph.complete_multipartite([3, 3, 3]),
              Graph.complete_multipartite([1, 2, 4])]:
        h = random_relabelling(g, rng)
        assert canonical_form(h) == oracle_canonical_form(h), write_graph6(g)


def test_matches_oracle_on_circulants():
    # vertex-transitive graphs: every first vertex is in one orbit, and each
    # cut by an automorphism must fix what it should. E_n and K_n are left
    # out, as the oracle would walk all n! orderings of them
    rng = random.Random(11)
    for n in range(4, 12):
        half = n // 2
        for size in range(1, half):
            for steps in combinations(range(1, half + 1), size):
                g = Graph.from_edges(n, sorted({(min(u, (u + d) % n), max(u, (u + d) % n))
                                                for u in range(n) for d in steps}))
                want = oracle_canonical_form(g)
                for _ in range(5):
                    assert canonical_form(random_relabelling(g, rng)) == want, (n, steps)


def test_twin_classes_cost_one_node_per_depth():
    for g in [Graph.empty(9), Graph.complete(8)]:
        budget = Budget()
        canonical_form(g, budget)
        assert budget.used <= g.n + 1


def test_isomorphic_components_cost_few_nodes():
    # the ten endpoints go first as one independent set, whose order the
    # later rows fix, and swapping two unplaced copies of P3 is an
    # automorphism: no order of the endpoints or of the copies is searched
    # twice
    p3 = Graph.path(3)
    g = Graph.from_edges(15, [(3 * i + u, 3 * i + v) for i in range(5)
                              for u, v in p3.edges()])
    budget = Budget()
    canonical_form(random_relabelling(g, random.Random(5)), budget)
    assert budget.used < 10_000


@given(st.integers(1, 4), st.integers(2, 4), st.integers(0, 3), st.integers(0, 2**64 - 1))
def test_matches_oracle_on_isomorphic_components(size, copies, extra, seed):
    assume(size * copies <= 8)
    rng = random.Random(seed)
    base = Graph.from_edges(size, [(u, v) for v in range(size) for u in range(v)
                                   if rng.random() < 0.5])
    edges = set()
    for i in range(copies):
        part = random_relabelling(base, rng)
        edges |= {(size * i + u, size * i + v) for u, v in part.edges()}
    n = size * copies
    for _ in range(extra):  # optional edges between or inside the copies
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    h = random_relabelling(Graph.from_edges(n, sorted(edges)), rng)
    assert canonical_form(h) == oracle_canonical_form(h)


@given(st.integers(0, 9), st.integers(0, 2**64 - 1), st.integers(0, 400))
def test_budget_only_turns_the_answer_into_an_error(n, seed, limit):
    rng = random.Random(seed)
    p = rng.random()
    g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                             if rng.random() < p])
    h = random_relabelling(g, rng)
    try:
        code = canonical_form(h, Budget(limit))
    except BudgetExceededError:
        return
    assert code == canonical_form(h)


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every permutation of the vertices that is an automorphism of ``g``."""
    return [perm for perm in permutations(range(g.n))
            if all(g.adj[perm[v]] == sum(1 << perm[u] for u in range(g.n) if g.adj[v] >> u & 1)
                   for v in range(g.n))]


def brute_force_leaders(g: Graph, items, image) -> list:
    """The least item of each orbit of Aut(g) on ``items``; ``image`` maps
    an item by one automorphism."""
    auts = automorphisms(g)
    return sorted({min(image(perm, item) for perm in auts) for item in items})


def test_generators_give_the_whole_group(atlas_by_n):
    rng = random.Random(1998)
    counts = []
    for k in range(7):
        total = 0
        for g in atlas_by_n[k]:
            h = random_relabelling(g, rng)
            for perm in _min_code(h.n, h.adj, Budget())[2]:
                assert all(h.adj[perm[v]] == sum(1 << perm[u] for u in range(h.n)
                                                 if h.adj[v] >> u & 1)
                           for v in range(h.n)), write_graph6(g)
            gens = _min_code(h.n, h.adj, Budget())[2]
            non_edges = [(i, j) for i in range(h.n) for j in range(i + 1, h.n)
                         if not h.adj[i] >> j & 1]
            actions = ((range(1 << h.n), _mask_image), (non_edges, _pair_image),
                       ([1 << v for v in range(h.n)], _mask_image))
            leaders = [_orbit_leaders(items, gens, image) for items, image in actions]
            assert leaders == [brute_force_leaders(h, items, image)
                               for items, image in actions], write_graph6(g)
            total += len(leaders[0])
        counts.append(total)
    assert counts == [1, 2, 6, 20, 90, 544, 5096]  # OEIS A000666


def group_order(gens, n: int) -> int:
    """The order of the group that ``gens`` generates, by closure. Each
    permutation is a byte string, so ``translate`` composes two of them."""
    tables = [bytes(g) + bytes(256 - n) for g in gens]
    identity = bytes(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for p in frontier:
            for table in tables:
                q = p.translate(table)
                if q not in group:
                    group.add(q)
                    new.append(q)
        frontier = new
    return len(group)


def test_generators_of_isomorphic_components_give_the_wreath_product(atlas_by_n):
    # Aut(kB) of k copies of a connected B is Aut(B) wr S_k: each copy
    # maps onto itself by Aut(B), and the copies permute among themselves
    rng = random.Random(2014)
    for size in range(1, 5):
        for base in atlas_by_n[size]:
            if not base.is_connected():
                continue
            auts = len(automorphisms(base))
            for k in range(1, 8 // size + 1):
                edges = set()
                for i in range(k):
                    part = random_relabelling(base, rng)
                    edges |= {(size * i + u, size * i + v) for u, v in part.edges()}
                h = random_relabelling(Graph.from_edges(size * k, sorted(edges)), rng)
                gens = _min_code(h.n, h.adj, Budget())[2]
                assert group_order(gens, h.n) == auts ** k * factorial(k), \
                    (write_graph6(base), k)


def test_atlas_search_nodes_stay_at_their_bound(atlas_by_n):
    rng = random.Random(1981)
    total = 0
    for g in atlas_by_n.up_to(7):
        budget = Budget()
        h = random_relabelling(g, rng)
        _min_code(h.n, h.adj, budget)
        total += budget.used
    assert total <= 24_743  # with the component-swap generators; never spend more

