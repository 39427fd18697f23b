"""Immutable simple graphs over vertices 0..n-1 with bitmask adjacency rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import DomainError


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph.

    ``adj[v]`` is the neighbourhood of ``v`` as a bitmask. The representation
    is validated on construction: symmetric, loopless, and in range.

    The check reads the whole table at once. ``format`` writes each row as
    ``n`` binary digits, most significant first, and the rows are joined
    from the last one, so the string is the n-by-n adjacency matrix read
    backwards: it equals its transpose exactly when the matrix does. A row
    with a bit at or above ``n`` writes more digits, and a negative row
    starts with a sign, which a symmetric string can only mirror on its
    diagonal. So the table is valid exactly when the string has ``n * n``
    characters, its diagonal is all ``0`` and it equals the join of its
    column slices. Only a table that fails this is checked vertex by vertex,
    to name its first fault.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        n, adj = self.n, self.adj
        if n < 0:
            raise DomainError("vertex count must be non-negative")
        if len(adj) != n:
            raise DomainError("adjacency table length must equal vertex count")
        digits = f"0{n}b"
        matrix = "".join([format(row, digits) for row in reversed(adj)])
        if (len(matrix) != n * n or matrix[::n + 1].count("0") != n
                or matrix != "".join([matrix[v::n] for v in range(n)])):
            _check_by_vertex(n, adj)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A graph from rows the caller built symmetric, loopless and in
        range, without the validation of the constructor. For hot internal
        loops only."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge {u}-{v} out of range for n={n}")
            if u == v:
                raise DomainError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @staticmethod
    def complete(n: int) -> "Graph":
        full = (1 << n) - 1
        return Graph(n, tuple(full ^ (1 << v) for v in range(n)))

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise DomainError("a cycle needs at least 3 vertices")
        return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])

    @staticmethod
    def complete_multipartite(sizes: Iterable[int]) -> "Graph":
        sizes = list(sizes)
        n = sum(sizes)
        rows = [0] * n
        start = 0
        full = (1 << n) - 1
        for size in sizes:
            part = ((1 << size) - 1) << start
            for v in range(start, start + size):
                rows[v] = full & ~part
            start += size
        return Graph(n, tuple(rows))

    # -- basic accessors ---------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        return min((self.degree(v) for v in range(self.n)), default=0)

    def max_degree(self) -> int:
        return max((self.degree(v) for v in range(self.n)), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def neighbours(self, v: int) -> list[int]:
        return list(bits(self.adj[v]))

    def common_neighbourhood(self, vertices: Iterable[int]) -> int:
        """Bitmask of vertices adjacent to every vertex in ``vertices``."""
        mask = (1 << self.n) - 1
        for v in vertices:
            mask &= self.adj[v]
        return mask

    # -- derived graphs ----------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph on ``vertices``, relabelled in ascending order."""
        keep = sorted(set(vertices))
        return Graph(len(keep), _induced_rows(self.adj, keep))

    def induced_mask(self, mask: int) -> "Graph":
        return self.induced(bits(mask))

    def without(self, vertices: Iterable[int]) -> "Graph":
        drop = set(vertices)
        return self.induced(v for v in range(self.n) if v not in drop)

    def relabel(self, perm: list[int]) -> "Graph":
        """Relabel so that old vertex ``perm[i]`` becomes new vertex ``i``."""
        pos = {v: i for i, v in enumerate(perm)}
        rows = [0] * self.n
        for i, v in enumerate(perm):
            for u in bits(self.adj[v]):
                rows[i] |= 1 << pos[u]
        return Graph(self.n, tuple(rows))

    def edge_count_within(self, mask: int) -> int:
        return sum((self.adj[v] & mask).bit_count() for v in bits(mask)) // 2

    def edge_count_between(self, mask_a: int, mask_b: int) -> int:
        return sum((self.adj[v] & mask_b).bit_count() for v in bits(mask_a))

    # -- structure predicates ----------------------------------------------

    def components(self) -> list[list[int]]:
        seen = 0
        out = []
        for start in range(self.n):
            if seen >> start & 1:
                continue
            frontier = 1 << start
            comp = 0
            while frontier:
                comp |= frontier
                nxt = 0
                for v in bits(frontier):
                    nxt |= self.adj[v]
                frontier = nxt & ~comp
            seen |= comp
            out.append(list(bits(comp)))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_forest(self) -> bool:
        """True iff the graph is acyclic: a forest has one edge fewer than
        vertices in each component."""
        return self.edge_count() == self.n - len(self.components())

    def is_independent(self, mask: int) -> bool:
        rest = mask
        for v in bits(mask):
            rest ^= 1 << v
            if self.adj[v] & rest:
                return False
        return True


def _induced_rows(adj, keep: list[int]) -> tuple[int, ...]:
    """The rows of the subgraph that the distinct vertices ``keep`` induce,
    with ``keep[i]`` relabelled ``i``."""
    index = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        for u in bits(adj[v]):
            if u in index:
                rows[index[v]] |= 1 << index[u]
    return tuple(rows)


def _degree_rows(adj, mask: int) -> tuple[int, ...]:
    """The rows of the subgraph that the vertex mask ``mask`` induces in the
    rows ``adj``, relabelled least degree first (degrees in that subgraph,
    ties in ascending order). Equal rows mean isomorphic subgraphs, and
    isomorphic subgraphs often get equal rows, so the rows can key one
    canonical search for many of them."""
    keep = sorted(bits(mask), key=lambda v: (adj[v] & mask).bit_count())
    return _induced_rows(adj, keep)


def _has_triangle(adj, mask: int) -> bool:
    """Whether the vertex mask ``mask`` induces a triangle in the rows
    ``adj``. A triangle is seen from its least vertex ``v``: two neighbours
    of ``v`` above it in ``mask`` that are adjacent."""
    while mask:
        low = mask & -mask
        mask ^= low
        above = adj[low.bit_length() - 1] & mask
        for u in bits(above):
            if adj[u] & above:
                return True
    return False


def _check_by_vertex(n: int, adj: tuple[int, ...]) -> None:
    """``Graph``'s check vertex by vertex, which names the first fault of
    rows that failed the whole-table check: for each vertex in ascending
    order the range, then a loop, then the least neighbour ``u`` whose row
    lacks it."""
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            raise DomainError(f"vertex {v} has a neighbour out of range")
        if row >> v & 1:
            raise DomainError(f"loop at vertex {v}")
        missing = row & ~sum((adj[u] >> v & 1) << u for u in range(n))
        if missing:
            raise DomainError(f"asymmetric edge {v}-{(missing & -missing).bit_length() - 1}")


def _two_colouring(adj, s: int) -> Optional[tuple[int, int]]:
    """The two sides of a 2-colouring of the subgraph that the vertex mask
    ``s`` induces in the rows ``adj``, as masks with the least vertex of
    each component on side 0, or ``None`` if there is none. Each component
    is layered breadth first from its least vertex, and an edge inside one
    parity class closes an odd cycle."""
    even = odd = 0
    while s:
        frontier = s & -s
        sides = [frontier, 0]
        side = 0
        while frontier:
            reach = 0
            rest = frontier
            while rest:
                low = rest & -rest
                reach |= adj[low.bit_length() - 1]
                rest ^= low
            reach &= s
            if reach & sides[side]:
                return None
            side ^= 1
            frontier = reach & ~sides[side]
            sides[side] |= frontier
        even |= sides[0]
        odd |= sides[1]
        s &= ~(sides[0] | sides[1])
    return even, odd


def is_bipartite(g: Graph) -> Optional[tuple[list[int], list[int]]]:
    """Return a two-part vertex partition if one exists, ``None`` otherwise.
    Each part is sorted, and the least vertex of each component is in the
    first."""
    sides = _two_colouring(g.adj, (1 << g.n) - 1)
    if sides is None:
        return None
    return list(bits(sides[0])), list(bits(sides[1]))
