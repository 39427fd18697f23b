"""Small-graph atlas: all graphs up to isomorphism, by vertex extension.

Every (k+1)-vertex graph arises from a k-vertex graph by adding one vertex
with some neighbourhood, so extending canonical representatives and
deduplicating by canonical form enumerates each isomorphism class once.
Two neighbourhoods that an automorphism of the representative maps onto
each other give isomorphic extensions, so only the least neighbourhood of
each orbit of ``Aut(g)`` on the ``2^k`` masks is extended (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
"""

from __future__ import annotations

from typing import Iterator

from .errors import as_budget
from .exact import _min_code, canonical_form
from .formats import parse_graph6
from .graphs import Graph


def _mask_orbit_leaders(g: Graph) -> list[int]:
    """The least mask of each orbit of ``Aut(g)`` on the vertex masks of
    ``g``, ascending. Each generator acts on masks as a bit permutation."""
    size = 1 << g.n
    images = []
    for perm in _min_code(g.n, g.adj, as_budget(None, "atlas_level"))[2]:
        image = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
        images.append(image)
    seen = bytearray(size)
    leaders = []
    for mask in range(size):
        if seen[mask]:
            continue
        leaders.append(mask)
        seen[mask] = 1
        stack = [mask]
        while stack:
            m = stack.pop()
            for image in images:
                if not seen[image[m]]:
                    seen[image[m]] = 1
                    stack.append(image[m])
    return leaders


def _pair_orbit_leaders(n: int, adj, gens) -> list[tuple[int, int]]:
    """The least non-adjacent pair ``(i, j)``, ``i < j``, of each orbit of
    the group generated by ``gens`` on the non-edges of the graph ``adj``,
    ascending. Each generator maps a pair to the pair of its images."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if not adj[i] >> j & 1]
    if not gens:
        return pairs
    seen = set()
    leaders = []
    for pair in pairs:
        if pair in seen:
            continue
        leaders.append(pair)
        seen.add(pair)
        stack = [pair]
        while stack:
            i, j = stack.pop()
            for perm in gens:
                a, b = perm[i], perm[j]
                image = (a, b) if a < b else (b, a)
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
    return leaders


def atlas_level(reps: list[Graph]) -> list[Graph]:
    """All (k+1)-vertex graphs, given the k-vertex representatives."""
    seen: dict[bytes, None] = {}
    for g in reps:
        k = g.n
        for nbrs in _mask_orbit_leaders(g):
            rows = tuple([row | (nbrs >> v & 1) << k for v, row in enumerate(g.adj)])
            seen.setdefault(canonical_form(Graph._trusted(k + 1, rows + (nbrs,))), None)
    return [parse_graph6(code) for code in sorted(seen)]


def atlas(max_n: int) -> Iterator[Graph]:
    """Yield one representative of every graph with 0..max_n vertices."""
    reps = [Graph.empty(0)]
    yield reps[0]
    for _ in range(max_n):
        reps = atlas_level(reps)
        yield from reps
