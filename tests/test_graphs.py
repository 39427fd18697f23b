import random
from itertools import combinations

from hypothesis import given, strategies as st
import pytest

from threshold_lab.errors import DomainError
from threshold_lab.graphs import Graph, _has_triangle, bits, is_bipartite


def test_constructors_basic():
    k4 = Graph.complete(4)
    assert k4.edge_count() == 6
    assert all(k4.degree(v) == 3 for v in range(4))
    c5 = Graph.cycle(5)
    assert c5.edge_count() == 5
    p4 = Graph.path(4)
    assert p4.edge_count() == 3
    assert Graph.empty(3).edge_count() == 0


def test_complete_multipartite():
    g = Graph.complete_multipartite([2, 3])
    assert g.n == 5
    assert g.edge_count() == 6
    assert not g.has_edge(0, 1)
    assert g.has_edge(0, 2)


def test_validation():
    with pytest.raises(DomainError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(DomainError):
        Graph(1, (1,))  # loop
    with pytest.raises(DomainError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(DomainError):
        Graph.from_edges(2, [(1, 1)])


def test_table_shape_messages():
    with pytest.raises(DomainError, match="^vertex count must be non-negative$"):
        Graph(-1, ())
    with pytest.raises(DomainError,
                       match="^adjacency table length must equal vertex count$"):
        Graph(2, (0,))


def oracle_validate(n: int, adj: tuple[int, ...]) -> None:
    """The per-edge check: for each vertex in ascending order, its range,
    then a loop, then each neighbour's row in ascending order."""
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            raise DomainError(f"vertex {v} has a neighbour out of range")
        if row >> v & 1:
            raise DomainError(f"loop at vertex {v}")
        for u in bits(row):
            if not adj[u] >> v & 1:
                raise DomainError(f"asymmetric edge {v}-{u}")


def _outcome(check, n, adj):
    try:
        check(n, adj)
    except DomainError as exc:
        return str(exc)
    return None


@given(st.one_of(st.integers(0, 12), st.just(200)), st.integers(0, 100),
       st.lists(st.tuples(st.sampled_from(["flip", "loop", "high", "negative"]),
                          st.integers(0, 2**64 - 1)), max_size=3),
       st.integers(0, 2**64 - 1))
def test_validation_matches_oracle(n, percent, faults, seed):
    rng = random.Random(seed)
    rows = [0] * n
    for v in range(n):
        for u in range(v):
            if rng.randrange(100) < percent:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    for kind, x in faults if n else ():
        v = x % n
        if kind == "flip":  # one direction of a pair, maybe a loop
            rows[v] ^= 1 << (x >> 8) % n
        elif kind == "loop":
            rows[v] |= 1 << v
        elif kind == "high":  # a bit at or above n
            rows[v] |= 1 << n + (x >> 8) % 70
        else:
            rows[v] = ~rows[v]
    adj = tuple(rows)
    assert _outcome(Graph, n, adj) == _outcome(oracle_validate, n, adj)


def test_bits():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert list(bits(0)) == []


def test_edges_and_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.min_degree() == 1
    assert g.max_degree() == 2
    assert g.neighbours(1) == [0, 2]
    assert g.common_neighbourhood([0, 2]) == 1 << 1


def test_induced_and_relabel():
    c5 = Graph.cycle(5)
    sub = c5.induced([0, 1, 2])
    assert sub.edge_count() == 2
    assert c5.induced_mask(0b111) == sub
    rel = c5.relabel([1, 2, 3, 4, 0])
    assert rel.edge_count() == 5
    assert c5.without([0]).n == 4


def test_counting_within_between():
    k4 = Graph.complete(4)
    assert k4.edge_count_within(0b0111) == 3
    assert k4.edge_count_between(0b0011, 0b1100) == 4


def test_components_connectivity():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    comps = g.components()
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3], [4]]
    assert not g.is_connected()
    assert Graph.cycle(4).is_connected()


def test_forest_and_independent():
    assert Graph.path(5).is_forest()
    assert not Graph.cycle(4).is_forest()
    assert Graph.empty(3).is_forest()
    c4 = Graph.cycle(4)
    assert c4.is_independent(0b0101)
    assert not c4.is_independent(0b0011)


def test_bipartite():
    parts = is_bipartite(Graph.cycle(6))
    assert parts is not None
    a, b = parts
    assert sorted(a + b) == list(range(6))
    g = Graph.cycle(6)
    for u, v in g.edges():
        assert (u in a) != (v in a)
    assert is_bipartite(Graph.cycle(5)) is None
    assert is_bipartite(Graph.complete(3)) is None
    assert is_bipartite(Graph.empty(2)) is not None


def oracle_is_bipartite(g: Graph):
    """Colour each component from its least vertex along a vertex stack,
    and fail on an edge between two vertices of one colour."""
    colour = [-1] * g.n
    for start in range(g.n):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in bits(g.adj[v]):
                if colour[u] < 0:
                    colour[u] = colour[v] ^ 1
                    queue.append(u)
                elif colour[u] == colour[v]:
                    return None
    return (
        [v for v in range(g.n) if colour[v] == 0],
        [v for v in range(g.n) if colour[v] == 1],
    )


@given(st.integers(0, 12), st.integers(0, 100), st.integers(0, 2**64 - 1))
def test_bipartite_matches_oracle(n, percent, seed):
    rng = random.Random(seed)
    g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                             if rng.randrange(100) < percent])
    assert is_bipartite(g) == oracle_is_bipartite(g)


@given(st.integers(0, 10), st.integers(0, 100), st.integers(0, 2**64 - 1))
def test_has_triangle_matches_every_vertex_triple(n, percent, seed):
    rng = random.Random(seed)
    g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                             if rng.randrange(100) < percent])
    mask = rng.getrandbits(n) if n else 0
    assert _has_triangle(g.adj, mask) == any(
        g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
        for a, b, c in combinations(bits(mask), 3))
