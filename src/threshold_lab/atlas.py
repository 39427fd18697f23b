"""Isomorph-free generation: the small-graph atlas, the tree list and the
merge pairs of the quotient search.

Every (k+1)-vertex graph arises from a k-vertex graph by adding one vertex
with some neighbourhood, so extending canonical representatives and
deduplicating by canonical form enumerates each isomorphism class once.
Every (k+1)-vertex tree arises in the same way from a k-vertex tree, with a
neighbourhood of one vertex. Two neighbourhoods that an automorphism of the
representative maps onto each other give isomorphic extensions, so only the
least neighbourhood of each orbit of ``Aut(g)`` is extended (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998). The quotient
search of ``thresholds`` takes its merge pairs from the same orbit walk.
"""

from __future__ import annotations

from typing import Iterator

from .errors import as_budget
from .exact import _min_code, canonical_form
from .formats import parse_graph6
from .graphs import Graph


def _orbit_leaders(items, gens, image) -> list:
    """The least item of each orbit of the group that ``gens`` generates,
    ascending. ``items`` must be ascending and closed under the group, and
    ``image(perm, item)`` is the image of ``item`` under the generator
    ``perm``. The walk keeps a set of the items seen, not a table over
    every possible item, so its memory grows with ``items`` alone."""
    if not gens:
        return list(items)
    seen = set()
    leaders = []
    for item in items:
        if item in seen:
            continue
        leaders.append(item)
        seen.add(item)
        stack = [item]
        while stack:
            x = stack.pop()
            for perm in gens:
                y = image(perm, x)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return leaders


def _mask_image(perm, mask: int) -> int:
    """The vertex mask that ``perm`` maps ``mask`` onto."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _extend(reps: list[Graph], leaves: bool) -> list[Graph]:
    """One canonically labelled representative of each class of graphs that
    adding a vertex to a graph of ``reps`` gives, sorted by canonical form.
    The new vertex takes every neighbourhood, or with ``leaves`` a single
    neighbour, one per orbit of ``Aut(g)``."""
    seen: dict[bytes, None] = {}
    for g in reps:
        k = g.n
        gens = _min_code(k, g.adj, as_budget(None, "atlas_level"))[2]
        masks = [1 << v for v in range(k)] if leaves else range(1 << k)
        for nbrs in _orbit_leaders(masks, gens, _mask_image):
            rows = tuple([row | (nbrs >> v & 1) << k for v, row in enumerate(g.adj)])
            seen.setdefault(canonical_form(Graph._trusted(k + 1, rows + (nbrs,))), None)
    return [parse_graph6(code) for code in sorted(seen)]


def atlas_level(reps: list[Graph]) -> list[Graph]:
    """All (k+1)-vertex graphs, given the k-vertex representatives."""
    return _extend(reps, leaves=False)


def atlas(max_n: int) -> Iterator[Graph]:
    """Yield one representative of every graph with 0..max_n vertices."""
    reps = [Graph.empty(0)]
    yield reps[0]
    for _ in range(max_n):
        reps = atlas_level(reps)
        yield from reps
