"""Isomorph-free generation: the small-graph atlas, the tree list, the
merge pairs of the quotient search and the removal sets of the
decomposition family.

The atlas and the trees grow by canonical augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998). Each (k+1)-vertex graph
``h`` has a canonical vertex to delete, up to ``Aut(h)``: among the vertices
of least invariant ``(deg u, sorted degrees of N(u))``, the first in the
order that gives the canonical code. An extension ``h = g + v`` is kept only
if ``v`` lies in that vertex's orbit, and one neighbourhood of each
``Aut(g)``-orbit is tried. Two kept extensions of one class then come from
the same ``g``, the representative of their canonical deletion, and an
isomorphism between them that maps ``v`` to ``v`` restricts to an
automorphism of ``g`` between their neighbourhoods: they are one orbit, so
each class comes out once. A vertex of smaller invariant than ``v`` rejects
``h`` before any search. In a tree the least-degree vertices are the
leaves, so the trees grow by a leaf under the same rule. The quotient
search of ``thresholds`` takes its merge pairs from the same orbit walk,
and ``classify.decomposition_family`` its removal sets, in removal order.
"""

from __future__ import annotations

from typing import Iterator

from .errors import as_budget
from .exact import _min_code
from .formats import pack_graph6, parse_graph6
from .graphs import Graph, bits


def _orbit_leaders(items, gens, image) -> list:
    """The first item of each orbit of the group that ``gens`` generates,
    in the order of ``items``. ``items`` may come in any order but must be
    closed under the group, and ``image(perm, item)`` is the image of
    ``item`` under the generator ``perm``. The walk keeps a set of the items
    seen, not a table over every possible item, so its memory grows with
    ``items`` alone."""
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
    """The canonically labelled classes whose canonical deletion gives a
    class of ``reps``, sorted by canonical form. The new vertex takes every
    neighbourhood, or with ``leaves`` a single neighbour."""
    out = []
    for g in reps:
        k = g.n
        gens = _min_code(k, g.adj, as_budget(None, "atlas_level"))[2]
        masks = [1 << v for v in range(k)] if leaves else range(1 << k)
        for nbrs in _orbit_leaders(masks, gens, _mask_image):
            rows = [row | (nbrs >> v & 1) << k for v, row in enumerate(g.adj)] + [nbrs]
            degs = [row.bit_count() for row in rows]
            if min(degs) < degs[k]:  # the degree alone settles most rejections
                continue
            invs = [(d, sorted([degs[u] for u in bits(row)])) for d, row in zip(degs, rows)]
            least = min(invs)
            if invs[k] != least:
                continue
            code, order, auts = _min_code(k + 1, rows, as_budget(None, "atlas_level"))
            orbit = 1 << next(u for u in order if invs[u] == least)
            grown = 0
            while grown != orbit:
                grown = orbit
                for perm in auts:
                    orbit |= _mask_image(perm, orbit)
            if orbit >> k & 1:
                out.append(pack_graph6(k + 1, code))
    return [parse_graph6(code) for code in sorted(out)]


def atlas_level(reps: list[Graph]) -> list[Graph]:
    """The (k+1)-vertex classes whose canonical deletion gives a class of
    the k-vertex graphs ``reps``, each once, sorted by canonical form. Given
    one representative of every k-vertex class, that is every (k+1)-vertex
    class; given one of them, it is that graph's share, and the shares of
    distinct classes are disjoint."""
    return _extend(reps, leaves=False)


def atlas(max_n: int) -> Iterator[Graph]:
    """Yield one representative of every graph with 0..max_n vertices."""
    reps = [Graph.empty(0)]
    yield reps[0]
    for _ in range(max_n):
        reps = atlas_level(reps)
        yield from reps
