"""Exact combinatorial primitives: colouring, subgraph search, enumeration.

Every solver here is complete: it either returns the exact answer or raises
BudgetExceededError, never an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .errors import DomainError, as_budget
from .formats import pack_graph6
from .graphs import Graph, bits


@dataclass(frozen=True)
class Embedding:
    """An injective map from pattern vertices to host vertices.

    ``mapping[i]`` is the host image of pattern vertex ``i``. Pattern edges
    must land on host edges (not necessarily induced).
    """

    mapping: tuple[int, ...]

    def validate(self, host: Graph, pattern: Graph) -> bool:
        if len(set(self.mapping)) != len(self.mapping):
            return False
        return all(
            host.has_edge(self.mapping[u], self.mapping[v])
            for u, v in pattern.edges()
        )


# -- colouring ---------------------------------------------------------------


def greedy_clique(g: Graph) -> list[int]:
    """Greedy clique, highest degree first. A lower bound for chi."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    clique: list[int] = []
    cmask = 0
    for v in order:
        if g.adj[v] & cmask == cmask:
            clique.append(v)
            cmask |= 1 << v
    return clique

def greedy_colouring(g: Graph) -> list[int]:
    """DSATUR-style greedy colouring. An upper bound for chi."""
    colour = [-1] * g.n
    sat = [0] * g.n  # bitmask of colours seen in the neighbourhood
    for _ in range(g.n):
        v = max(
            (u for u in range(g.n) if colour[u] < 0),
            key=lambda u: (sat[u].bit_count(), g.degree(u), -u),
        )
        c = 0
        while sat[v] >> c & 1:
            c += 1
        colour[v] = c
        for u in bits(g.adj[v]):
            sat[u] |= 1 << c
    return colour


def _colourable(g: Graph, k: int, order: list[int], budget) -> Optional[list[int]]:
    """Backtracking k-colourability; colours tried lowest-index-first."""
    n = g.n
    colour = [-1] * n
    masks = [0] * (k + 1)  # vertices holding each colour

    def rec(i: int, used: int) -> bool:
        budget.spend()
        if i == n:
            return True
        v = order[i]
        limit = min(used + 1, k)  # symmetry breaking: at most one fresh colour
        for c in range(limit):
            if masks[c] & g.adj[v]:
                continue
            colour[v] = c
            masks[c] |= 1 << v
            if rec(i + 1, max(used, c + 1)):
                return True
            masks[c] &= ~(1 << v)
            colour[v] = -1
        return False

    return colour if rec(0, 0) else None


def chromatic_number(g: Graph, budget=None) -> int:
    """Exact chromatic number via branch and bound (0 for the empty graph)."""
    if g.n == 0:
        return 0
    if g.edge_count() == 0:
        return 1
    budget = as_budget(budget, "chromatic_number")
    lower = len(greedy_clique(g))
    greedy = greedy_colouring(g)
    upper = max(greedy) + 1
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for k in range(lower, upper):
        if _colourable(g, k, order, budget) is not None:
            return k
    return upper


def colouring_with(g: Graph, k: int, budget=None) -> Optional[list[int]]:
    """An explicit proper k-colouring, or None if chi(g) > k."""
    if g.n == 0:
        return []
    budget = as_budget(budget, "colouring_with")
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    return _colourable(g, k, order, budget)


# -- independent sets ---------------------------------------------------------


def independent_set_masks(g: Graph) -> list[int]:
    """All independent sets as bitmasks, ordered by (popcount, value)."""
    out = [0]
    frontier = [0]
    while frontier:
        nxt = []
        for mask in frontier:
            start = mask.bit_length()
            for v in range(start, g.n):
                if g.adj[v] & mask:
                    continue
                m2 = mask | 1 << v
                nxt.append(m2)
        nxt.sort()
        out.extend(nxt)
        frontier = nxt
    return out


# -- subset-lattice tables -------------------------------------------------------


def masks_by_size(n: int) -> Iterator[int]:
    """Every vertex mask over ``n`` vertices, ordered by (popcount, value).

    Within one popcount, Gosper's step gives the next larger mask with as
    many bits.
    """
    yield 0
    top = 1 << n
    for size in range(1, n + 1):
        mask = (1 << size) - 1
        while mask < top:
            yield mask
            low = mask & -mask
            ripple = mask + low
            mask = ripple | ((mask ^ ripple) >> 2) // low


class _SubsetTables:
    """Per-mask facts about the induced subgraphs ``g[S]``, for all ``2^n``
    vertex masks ``S``.

    ``indep[S]`` and ``forest[S]`` say whether ``g[S]`` is independent and
    whether it is a forest; ``indep_by_size`` lists the independent masks by
    (popcount, value). Both tables come from smaller masks. With ``v`` the
    lowest vertex of ``S`` and ``R = S - v``: ``S`` is independent iff ``R``
    is and ``v`` has no neighbour in ``R``; a forest keeps a vertex of degree
    at most 1 and stays a forest without it, while a graph of minimum degree
    2 has a cycle.

    The chromatic number of every mask (``chi_table``) is built only for
    scans that ask whether subsets are ``k``-colourable for some ``k >= 3``;
    ``colourable`` answers smaller ``k`` from ``indep`` or a 2-colouring.
    """

    __slots__ = ("adj", "indep", "forest", "indep_by_size", "_chi")

    def __init__(self, g: Graph):
        adj = g.adj
        size = 1 << g.n
        indep = bytearray(size)
        forest = bytearray(size)
        indep[0] = forest[0] = 1
        for s in range(1, size):
            low = s & -s
            r = s ^ low
            nv = adj[low.bit_length() - 1] & r
            if not nv & (nv - 1):  # deg(v) <= 1
                indep[s] = indep[r] and not nv
                forest[s] = forest[r]
                continue
            for u in bits(r):
                nu = adj[u] & s
                if not nu & (nu - 1):
                    forest[s] = forest[s ^ 1 << u]
                    break
        self.adj = adj
        self.indep = indep
        self.forest = forest
        self.indep_by_size = independent_set_masks(g)
        self._chi = None

    def bipartite(self, s: int) -> bool:
        """Whether ``g[s]`` is 2-colourable: read the chi table if a scan has
        built it, else layer each component breadth first and look for an
        edge inside one parity class."""
        if self._chi is not None:
            return self._chi[s] <= 2
        adj = self.adj
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
                    return False
                side ^= 1
                frontier = reach & ~sides[side]
                sides[side] |= frontier
            s &= ~(sides[0] | sides[1])
        return True

    def colourable(self, s: int, k: int, budget=None) -> bool:
        """Whether chi(g[s]) <= k."""
        if k >= 3:
            return self.chi_table(budget)[s] <= k
        if k == 2:
            return self.bipartite(s)
        return bool(self.indep[s]) if k == 1 else not s

    def chi_table(self, budget=None) -> bytearray:
        """``chi[S]`` for every mask, built on first use.

        ``chi[S]`` is ``k = chi[R]`` or ``k + 1``. It is ``k`` exactly when
        some independent ``J`` in ``R - N(v)`` has ``chi[R - J] <= k - 1``:
        ``J + v`` is then one more colour class, and conversely the class of
        ``v`` in a ``k``-colouring of ``S``, less ``v``, is such a ``J``
        (Lawler, IPL 5, 1976). For ``k <= 2`` a 2-colouring decides it.
        The build spends one node per mask up front and one per candidate
        ``J``, and the table is kept only once it is complete.
        """
        if self._chi is None:
            budget = as_budget(budget, "chi_table")
            indep, adj = self.indep, self.adj
            size = len(indep)
            budget.spend(size)
            chi = bytearray(size)
            for s in range(1, size):
                if indep[s]:
                    chi[s] = 1
                    continue
                low = s & -s
                r = s ^ low
                k = chi[r]
                if k <= 2:
                    chi[s] = 2 if k == 1 or self.bipartite(s) else 3
                    continue
                chi[s] = k + 1
                free = r & ~adj[low.bit_length() - 1]
                if chi[r ^ free] >= k:  # every R - J contains R - free
                    continue
                j = free
                while j:
                    budget.spend()
                    if indep[j] and chi[r ^ j] < k:
                        chi[s] = k
                        break
                    j = (j - 1) & free
            self._chi = chi
        return self._chi


def subset_tables(g: Graph, budget=None) -> _SubsetTables:
    """The subset tables of ``g``, built on first use and kept on ``g``, so
    that the scans of one pattern share them.

    Building them spends one unit of ``budget`` per mask, up front, so a
    budget that runs out leaves nothing half built behind.
    """
    tables = g.__dict__.get("_subset_tables")
    if tables is None:
        as_budget(budget, "subset_tables").spend(1 << g.n)
        tables = _SubsetTables(g)
        object.__setattr__(g, "_subset_tables", tables)
    return tables


# -- 2-density ---------------------------------------------------------------


def two_density(g: Graph, budget=None) -> Fraction:
    """max (e(F)-1)/(v(F)-2) over induced subgraphs F with >= 3 vertices.

    Deleting edges never increases the ratio, so induced subgraphs realise
    the maximum over all subgraphs.
    """
    if g.n < 3:
        raise DomainError("2-density needs at least 3 vertices")
    budget = as_budget(budget, "two_density")
    best: Optional[Fraction] = None
    for size in range(3, g.n + 1):
        for combo in combinations(range(g.n), size):
            budget.spend()
            mask = 0
            for v in combo:
                mask |= 1 << v
            e = g.edge_count_within(mask)
            val = Fraction(e - 1, size - 2)
            if best is None or val > best:
                best = val
    return best


# -- subgraph containment ------------------------------------------------------


def _pattern_order(pattern: Graph) -> list[int]:
    """Connectivity-first vertex order: keeps the partial map constrained."""
    remaining = set(range(pattern.n))
    order: list[int] = []
    placed_mask = 0
    while remaining:
        v = max(
            remaining,
            key=lambda u: ((pattern.adj[u] & placed_mask).bit_count(), pattern.degree(u), -u),
        )
        order.append(v)
        remaining.discard(v)
        placed_mask |= 1 << v
    return order


def contains_subgraph(host: Graph, pattern: Graph, budget=None) -> Optional[Embedding]:
    """Deterministic backtracking search for a (not necessarily induced) copy."""
    if pattern.n > host.n or pattern.edge_count() > host.edge_count():
        return None
    budget = as_budget(budget, "contains_subgraph")
    order = _pattern_order(pattern)
    image = [-1] * pattern.n
    used = 0
    host_all = (1 << host.n) - 1

    def rec(i: int) -> bool:
        nonlocal used
        budget.spend()
        if i == pattern.n:
            return True
        v = order[i]
        cand = host_all & ~used
        deg_v = pattern.degree(v)
        for u in bits(pattern.adj[v]):
            if image[u] >= 0:
                cand &= host.adj[image[u]]
        for w in bits(cand):
            if host.degree(w) < deg_v:
                continue
            image[v] = w
            used |= 1 << w
            if rec(i + 1):
                return True
            used &= ~(1 << w)
            image[v] = -1
        return False

    if rec(0):
        return Embedding(tuple(image))
    return None


# -- biclique counting ---------------------------------------------------------


def count_bicliques(g: Graph, s: int, budget=None) -> int:
    """Exact number of unordered K_{s,s} subgraph copies.

    For each s-set A, every s-subset of the common neighbourhood of A forms
    a copy; each copy is seen once from each side, so halve the total.
    """
    if s < 1:
        raise DomainError("side size must be positive")
    budget = as_budget(budget, "count_bicliques")
    total = 0
    for combo in combinations(range(g.n), s):
        budget.spend()
        common = g.common_neighbourhood(combo).bit_count()
        if common >= s:
            c = 1
            for i in range(s):
                c = c * (common - i) // (i + 1)
            total += c
    assert total % 2 == 0
    return total // 2


# -- forest embedding ----------------------------------------------------------


def embed_forest(g: Graph, f: Graph, budget=None) -> Optional[Embedding]:
    """Embed a forest by peeling to a high-min-degree core, then greedily.

    Guaranteed to succeed without search when g has a vertex and e(g) >=
    v(f) * v(g); below that bound it falls back to the generic subgraph
    search, which may still find a copy.
    """
    if not f.is_forest():
        raise DomainError("pattern is not a forest")
    if f.n == 0:
        return Embedding(())
    k = f.n
    alive = (1 << g.n) - 1
    changed = True
    while changed:
        changed = False
        for v in bits(alive):
            if (g.adj[v] & alive).bit_count() < k:
                alive &= ~(1 << v)
                changed = True
    if alive.bit_count() >= k:
        image = [-1] * f.n
        used = 0
        ok = True
        for comp in f.components():
            root = comp[0]
            spot = alive & ~used
            if not spot:
                ok = False
                break
            w = next(bits(spot))
            image[root] = w
            used |= 1 << w
            queue = [root]
            seen = {root}
            while queue and ok:
                v = queue.pop(0)
                for u in bits(f.adj[v]):
                    if u in seen:
                        continue
                    seen.add(u)
                    spot = g.adj[image[v]] & alive & ~used
                    if not spot:
                        ok = False
                        break
                    w = next(bits(spot))
                    image[u] = w
                    used |= 1 << w
                    queue.append(u)
            if not ok:
                break
        if ok:
            emb = Embedding(tuple(image))
            assert emb.validate(g, f)
            return emb
    return contains_subgraph(g, f, budget)


# -- canonical form ------------------------------------------------------------


def _min_code(n: int, adj: Sequence[int], budget) -> int:
    """The least code over all vertex orderings, as an ``n(n-1)/2``-bit int.

    A search node is a placed prefix of the ordering. ``cand`` lists the
    unused vertices and ``rows[i]`` is the row that ``cand[i]`` would append
    next: its adjacency to the placed vertices in placement order, earliest
    placed most significant.
    """
    total = n * (n - 1) // 2
    twins = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                twins[u] |= 1 << v
                twins[v] |= 1 << u
    best = 1 << total  # above every code, so the first leaf replaces it

    def rec(depth: int, prefix: int, cand: list[int], rows: list[int]):
        nonlocal best
        budget.spend()
        if not cand:
            best = prefix
            return
        least = min(rows)
        prefix = prefix << depth | least
        depth += 1
        if prefix > best >> (total - depth * (depth - 1) // 2):
            return
        tried = 0
        for i, v in enumerate(cand):
            if rows[i] != least or twins[v] & tried:
                continue
            tried |= 1 << v
            rec(depth, prefix, cand[:i] + cand[i + 1:],
                [r << 1 | (adj[u] >> v & 1) for u, r in zip(cand, rows) if u != v])

    # low degree first: a small code turns up early and the prefix cut bites
    rec(0, 0, sorted(range(n), key=lambda v: (adj[v].bit_count(), v)), [0] * n)
    return best


def canonical_form(g: Graph, budget=None) -> bytes:
    """Canonical bytes: equal iff isomorphic. Output is valid graph6.

    The form is the graph6 encoding of the relabelling whose upper triangle,
    read column by column ((0,1), (0,2), (1,2), (0,3), ...), is the
    lexicographically least over all vertex orderings. Placing the ``d``-th
    vertex appends its ``d``-bit row of adjacencies to the vertices already
    placed, so the search extends the ordering one vertex at a time and cuts
    three kinds of branch, none of which can hold the least code:

    - a prefix already greater than the same-length prefix of the best code
      found so far;
    - a next vertex whose row is greater than the least row among the
      unused vertices, since every next row has the same length;
    - a next vertex that is a twin (``N(u) - {v} == N(v) - {u}``) of a
      sibling already tried: swapping two unused twins is an automorphism
      fixing every placed vertex, so both subtrees hold the same codes.

    Every search node spends one unit of ``budget``.
    """
    budget = as_budget(budget, "canonical_form")
    if g.n == 0:
        return pack_graph6(0, 0)
    return pack_graph6(g.n, _min_code(g.n, g.adj, budget))


def are_isomorphic(a: Graph, b: Graph, budget=None) -> bool:
    return a.n == b.n and canonical_form(a, budget) == canonical_form(b, budget)
