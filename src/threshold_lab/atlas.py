"""Small-graph atlas: all graphs up to isomorphism, by vertex extension.

Every (k+1)-vertex graph arises from a k-vertex graph by adding one vertex
with some neighbourhood, so extending canonical representatives and
deduplicating by canonical form enumerates each isomorphism class once.
"""

from __future__ import annotations

from typing import Iterator

from .exact import canonical_form
from .formats import parse_graph6
from .graphs import Graph


def atlas_level(reps: list[Graph]) -> list[Graph]:
    """All (k+1)-vertex graphs, given the k-vertex representatives."""
    seen: dict[bytes, None] = {}
    for g in reps:
        k = g.n
        for nbrs in range(1 << k):
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
