"""canonical_form against a plain search for the same least code.

``oracle_min_code`` tries every unused vertex at every depth and cuts a
branch only when its prefix exceeds the best code found so far; it knows
nothing of the least-row and twin cuts. canonical_form must give the same
bytes on every input.
"""

import random
from typing import Optional

from hypothesis import given, strategies as st

from threshold_lab.errors import Budget
from threshold_lab.exact import canonical_form
from threshold_lab.formats import write_graph6
from threshold_lab.graphs import Graph


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


def test_twin_classes_cost_one_node_per_depth():
    for g in [Graph.empty(9), Graph.complete(8)]:
        budget = Budget()
        canonical_form(g, budget)
        assert budget.used <= g.n + 1
