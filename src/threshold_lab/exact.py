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
from .graphs import Graph, _two_colouring, bits


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

    try:
        return colour if rec(0, 0) else None
    finally:
        rec = None  # ``rec`` reaches itself through its cell: cut that cycle


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
    (popcount, value), collected in the same ascending pass and then sorted
    stably by popcount. Both tables come from smaller masks. With ``v`` the
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
        indep_by_size = [0]
        for s in range(1, size):
            low = s & -s
            r = s ^ low
            nv = adj[low.bit_length() - 1] & r
            if not nv & (nv - 1):  # deg(v) <= 1
                if indep[r] and not nv:
                    indep[s] = 1
                    indep_by_size.append(s)
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
        indep_by_size.sort(key=int.bit_count)
        self.indep_by_size = indep_by_size
        self._chi = None

    def bipartite(self, s: int) -> bool:
        """Whether ``g[s]`` is 2-colourable: read the chi table if a scan has
        built it, else 2-colour it."""
        if self._chi is not None:
            return self._chi[s] <= 2
        return _two_colouring(self.adj, s) is not None

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


def _facts(g: Graph, parent: Optional[Graph] = None) -> dict:
    """The record of per-pattern facts of this ``Graph`` instance, made on
    first use and never shared with another instance. It holds ``"chi"``
    and ``"tables"``, each added on first request and only once complete,
    so a budget that runs out leaves nothing half built. A record made with
    ``parent``, the graph that ``g`` is a merge of (two non-adjacent
    vertices made one), starts as ``{"parent": parent}``, and ``pattern_chi``
    reads chi(g) off chi(parent): a merge has the parent's chi or one
    more."""
    if "_facts" not in g.__dict__:
        object.__setattr__(g, "_facts", {} if parent is None else {"parent": parent})
    return g._facts


def pattern_chi(g: Graph, budget=None) -> int:
    """chi(g) from the record of ``g``, computed on the first request only,
    so the recognisers of one pattern share it.

    For a merge of ``parent`` that is one ``chi(parent)``-colourability
    test. A colouring of the merge pulls back to the parent, so merging
    never lowers chi, and giving the merged vertex a colour of its own
    raises it by at most one. Otherwise ``chromatic_number`` runs. The
    parent is dropped from the record once chi is known."""
    facts = _facts(g)
    if "chi" not in facts:
        parent = facts.get("parent")
        if parent is None:
            facts["chi"] = chromatic_number(g, budget)
        else:
            k = pattern_chi(parent, budget)
            facts["chi"] = k if colouring_with(g, k, budget) is not None else k + 1
            del facts["parent"]
    return facts["chi"]


def subset_tables(g: Graph, budget=None) -> _SubsetTables:
    """The subset tables of ``g`` from its record, built on first use, so
    that the scans of one pattern share them.

    Building them spends one unit of ``budget`` per mask, up front.
    """
    facts = _facts(g)
    if "tables" not in facts:
        as_budget(budget, "subset_tables").spend(1 << g.n)
        facts["tables"] = _SubsetTables(g)
    return facts["tables"]


# -- 2-density ---------------------------------------------------------------


_PLUS_ONE = bytes(range(1, 256)) + b"\0"  # a ``translate`` table: each byte plus one


def two_density(g: Graph, budget=None) -> Fraction:
    """max (e(F)-1)/(v(F)-2) over induced subgraphs F with >= 3 vertices.

    Deleting edges never increases the ratio, so induced subgraphs realise
    the maximum over all subgraphs. For each size ``k`` only ``E_k``, the
    most edges of a ``k``-vertex induced subgraph, counts, so the answer is
    ``max (E_k - 1)/(k - 2)`` over ``k >= 3``: ``-1/(n-2)`` on an edgeless
    graph and 0 with one edge.

    One pass over the subset lattice counts ``e[S]`` for every vertex mask
    ``S``. With ``v`` the highest vertex of ``S``, ``e[S] = e[S - v] +
    |N(v) & (S - v)|``, and the masks that hold ``v`` come as one block
    after the masks below ``v``. The table is one integer of 16-bit lanes,
    ``e[S]`` in lane ``S``, so each block is the whole table so far plus
    the lanes of ``|N(v) & S|``, which double the same way, once per lower
    vertex. No lane overflows, since a count never exceeds ``e(g)``, which
    is below ``2^16`` up to 362 vertices. The sizes ``|S|`` double
    alongside, in a ``bytearray``.

    The pass spends one node per mask, all before it allocates anything.
    """
    n = g.n
    if n < 3:
        raise DomainError("2-density needs at least 3 vertices")
    as_budget(budget, "two_density").spend(1 << n)
    lanes = 0  # e[S] for every mask S over the vertices so far
    sizes = bytearray(1)  # |S| for the same masks
    for v, row in enumerate(g.adj):
        # |N(v) & S| for every mask S below v: the masks that hold u copy
        # those below u, plus 1 where u is a neighbour; ``ones`` has a 1 in
        # every lane so far
        gained, ones = 0, 1
        for u in range(v):
            gained |= (gained + ones if row >> u & 1 else gained) << (16 << u)
            ones |= ones << (16 << u)
        lanes |= (lanes + gained) << (16 << v)
        sizes += sizes.translate(_PLUS_ONE)
    table = lanes.to_bytes(2 << n, "little")
    most = [-1] * (n + 1)  # E_k
    for k, low, high in set(zip(sizes, table[::2], table[1::2])):
        most[k] = max(most[k], high << 8 | low)
    return max(Fraction(most[k] - 1, k - 2) for k in range(3, n + 1))


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

    try:
        found = rec(0)
    finally:
        rec = None  # ``rec`` reaches itself through its cell: cut that cycle
    return Embedding(tuple(image)) if found else None


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


def _min_code(n: int, adj: Sequence[int], budget) -> tuple[int, list[int], list[tuple[int, ...]]]:
    """The least code over all vertex orderings as an ``n(n-1)/2``-bit int,
    an ordering that gives it, and automorphisms that generate the whole
    group of the graph, each a tuple ``perm`` with ``perm[v]`` the image of
    ``v``: the twin swaps, then those found at leaves in the order found.
    ``canonical_form`` describes the search.

    ``choose`` picks the independent set ``chosen``. ``place`` then extends
    ``seq``, the vertices placed after it, while ``scells`` splits
    ``chosen`` into ordered cells. The unplaced vertices sit in cells
    ``cls`` (masks) by the row ``rws`` that each would append next, in
    ascending row order; the children of a node are the vertices of its
    first cell. ``moved[j]`` masks the vertices that ``gens[j]`` moves.
    """
    if not n:
        return 0, [], []
    total = n * (n - 1) // 2
    full = (1 << n) - 1
    # search in low-degree-first labels: a small code turns up early
    label = sorted(range(n), key=[row.bit_count() for row in adj].__getitem__)
    rank = [0] * n
    for i, v in enumerate(label):
        rank[v] = i
    old = adj
    adj = []
    for v in label:
        row = old[v]
        new = 0
        while row:
            low = row & -row
            row ^= low
            new |= 1 << rank[low.bit_length() - 1]
        adj.append(new)

    gens: list[list[int]] = []
    moved: list[int] = []
    # twins have equal open neighbourhoods if they are not adjacent, and
    # equal closed ones (keyed apart by bit n) if they are
    twins = [0] * n
    classes: dict[int, int] = {}
    for v in range(n):
        for key in (adj[v], adj[v] | 1 << v | 1 << n):
            classes[key] = classes.get(key, 0) | 1 << v
    for same in classes.values():
        first = same & -same
        rest = same ^ first
        u = first.bit_length() - 1
        while rest:  # swaps with the least twin span the class
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            twins[v] |= same ^ low
            twins[u] |= low
            perm = list(range(n))
            perm[u], perm[v] = v, u
            gens.append(perm)
            moved.append(first | low)
    twin_swaps = len(gens)  # whose orbits the twin cut already covers

    def orbit_of(tried: int, fixed: int, stable: int) -> int:
        """The orbit of ``tried`` under the known automorphisms that fix
        ``fixed`` pointwise and map ``stable`` onto itself."""
        active = []
        for g, m in zip(gens, moved):
            if m & fixed:
                continue
            image = rest = stable & m
            while rest:
                low = rest & -rest
                rest ^= low
                image ^= 1 << g[low.bit_length() - 1]
            if not image:
                active.append(g)
        orbit = frontier = tried
        while frontier and active:
            image = 0
            for g in active:
                rest = frontier
                while rest:
                    low = rest & -rest
                    rest ^= low
                    image |= 1 << g[low.bit_length() - 1]
            frontier = image & ~orbit
            orbit |= frontier
        return orbit

    best = 1 << total  # above every code, so the first leaf replaces it
    best_set = 0
    best_seq: list[int] = []
    best_order: list[int] = []
    zeros = 0  # the size of best_set: how many leading rows of best are zero
    seq: list[int] = []
    jump = n  # after an automorphism, the depth of the node to resume at

    def leaf(prefix: int, chosen: int, scells: list[int]) -> None:
        nonlocal best, best_set, best_seq, best_order, zeros, jump
        order = [x for cell in scells for x in bits(cell)] + seq
        if prefix < best:
            best, best_set, best_seq, best_order = prefix, chosen, seq[:], order
            zeros = chosen.bit_count()
            return
        perm = list(range(n))  # equal codes: best_order[i] -> order[i]
        mask = 0
        for x, y in zip(best_order, order):
            if x != y:
                perm[x] = y
                mask |= 1 << x
        gens.append(perm)
        moved.append(mask)
        # the automorphism maps the best leaf's branch at the first node
        # where they part onto this leaf's, and that branch was searched in
        # full: return to that node, or leave this set if it maps best_set
        # onto chosen
        if chosen == best_set:
            jump = zeros + next(i for i, (x, y) in enumerate(zip(best_seq, seq)) if x != y)
        else:
            jump = -1

    def regroup(rws: list[int], cls: list[int], v: int, scells: list[int]):
        """The cells of the vertices still unplaced once placing ``v`` has
        split the cells of ``chosen`` into ``scells``: each row's part over
        ``chosen`` is rebuilt and its part over ``seq`` extended."""
        rows: dict[int, int] = {}
        sizes = [cell.bit_count() for cell in scells]
        q = len(seq) - 1
        keep = (1 << q) - 1
        for old, m in zip(rws, cls):
            m &= ~(1 << v)
            while m:
                low = m & -m
                m ^= low
                a = adj[low.bit_length() - 1]
                r = 0
                for cell, size in zip(scells, sizes):
                    r = r << size | (1 << (cell & a).bit_count()) - 1
                r = (r << q | old & keep) << 1 | (a >> v & 1)
                rows[r] = rows.get(r, 0) | low
        new = sorted(rows)
        return new, [rows[r] for r in new]

    def place(prefix: int, rws: list[int], cls: list[int], chosen: int, scells: list[int]):
        """Search below a node whose ``prefix`` already holds the row of the
        next vertex, ``rws[0]``. A run of nodes with one child each is
        walked in this frame."""
        nonlocal jump
        base = len(seq)
        size = chosen.bit_count()
        while True:
            cell = cls[0]
            p = size + len(seq)
            forced = not cell & (cell - 1)
            tried = orbit = 0
            t = cell
            while t:
                low = t & -t
                t ^= low
                v = low.bit_length() - 1
                if twins[v] & tried or orbit & low:
                    continue
                budget.spend()
                a = adj[v]
                seq.append(v)
                split = scells
                if len(scells) < size:  # some cell of chosen has two vertices
                    split = [c for x in scells for c in (x & ~a, x & a) if c]
                if len(split) > len(scells):
                    nr, nc = regroup(rws, cls, v, split)
                else:  # each row gains v's bit: cells split, order kept
                    split = scells
                    nr = []
                    nc = []
                    m = cell ^ low
                    for i, r in enumerate(rws):
                        if i:
                            m = cls[i]
                        if m & ~a:
                            nr.append(r << 1)
                            nc.append(m & ~a)
                        if m & a:
                            nr.append(r << 1 | 1)
                            nc.append(m & a)
                if not nc:
                    leaf(prefix, chosen, split)
                    del seq[base:]
                    return
                child = prefix << (p + 1) | nr[0]
                if child > best >> (total - (p + 1) * (p + 2) // 2):
                    seq.pop()
                elif forced:
                    prefix, rws, cls, scells = child, nr, nc, split
                    break
                else:
                    place(child, nr, nc, chosen, split)
                    seq.pop()
                    if jump < p:
                        del seq[base:]
                        return
                    jump = n
                tried |= low
                if len(gens) > twin_swaps and t:
                    placed = 0
                    for u in seq:
                        placed |= 1 << u
                    orbit = orbit_of(tried, placed, chosen)
            else:
                del seq[base:]
                return

    def choose(chosen: int, nbrs: int, avail: int) -> None:
        """Search below a node that has chosen the independent set
        ``chosen`` with neighbourhood ``nbrs``; ``avail`` holds the vertices
        above the last chosen that could still join."""
        nonlocal jump
        size = chosen.bit_count()
        if not avail:
            unplaced = full & ~chosen
            if unplaced & ~nbrs or size < zeros:
                return  # not maximal, or smaller than best_set
            if not unplaced:
                leaf(0, chosen, [chosen])
                return
            # a row over the one cell ``chosen`` ends in one 1 per neighbour
            counts = [0] * (size + 1)
            for u in bits(unplaced):
                counts[(adj[u] & chosen).bit_count()] |= 1 << u
            rws = [(1 << k) - 1 for k, m in enumerate(counts) if m]
            if rws[0] <= best >> (total - size * (size + 1) // 2):
                place(rws[0], rws, [m for m in counts if m], chosen, [chosen])
                jump = n
            return
        bound = size + avail.bit_count()
        rest = avail
        while rest:  # a matching in avail: each edge keeps one end out
            low = rest & -rest
            rest ^= low
            mate = adj[low.bit_length() - 1] & rest
            if mate:
                rest ^= mate & -mate
                bound -= 1
        if bound < zeros:
            return
        tried = orbit = 0
        t = avail
        while t and size + t.bit_count() >= zeros:
            low = t & -t
            t ^= low
            v = low.bit_length() - 1
            if twins[v] & tried or orbit & low:
                continue
            budget.spend()
            below = nbrs | adj[v]
            if t & ~adj[v] or not full & ~chosen & ~low & ~below:  # else not maximal
                choose(chosen | low, below, t & ~adj[v])
            tried |= low
            if len(gens) > twin_swaps and t:
                orbit = orbit_of(tried, chosen, 0)

    budget.spend()  # the root
    try:
        choose(0, 0, full)
    finally:
        # the nested functions reach each other through their cells; cut
        # those cycles so that reference counting frees the search at once
        # and the cyclic collector is not set off by every call
        orbit_of = leaf = regroup = place = choose = None
    return (best, [label[v] for v in best_order],
            [tuple([label[g[r]] for r in rank]) for g in gens])


def canonical_form(g: Graph, budget=None) -> bytes:
    """Canonical bytes: equal iff isomorphic. Output is valid graph6.

    The form is the graph6 encoding of the relabelling whose upper triangle,
    read column by column ((0,1), (0,2), (1,2), (0,3), ...), is the
    lexicographically least over all vertex orderings. Placing the ``d``-th
    vertex appends its ``d``-bit row of adjacencies to the vertices already
    placed, earliest placed most significant.

    The least code opens with as many zero rows as it can, so its first
    vertices form a largest independent set ``S``. The search first chooses
    ``S`` as a set, one vertex at a time in ascending order, and cuts a set
    that is not maximal or cannot grow as large as the best so far. The
    order inside ``S`` is left open: it holds cells, and the row of a later
    vertex is least with its ones at the end of each cell. Placing that
    vertex fixes so much of the order by splitting each cell into its
    non-neighbours, then its neighbours. After ``S`` the search extends the
    ordering one vertex at a time. It cuts four kinds of branch, none of
    which can hold the least code:

    - a prefix already greater than the same-length prefix of the best code
      found so far;
    - a next vertex whose row is greater than the least row among the
      unused vertices, since every next row has the same length;
    - a next vertex that is a twin (``N(u) - {v} == N(v) - {u}``) of a
      sibling already tried: swapping two unused twins is an automorphism
      fixing every placed vertex, so both subtrees hold the same codes;
    - a next vertex to which a chain of known automorphisms maps a sibling
      already tried, each fixing the placed vertices and mapping ``S`` onto
      itself (while ``S`` is chosen: fixing the chosen vertices). Such an
      automorphism maps the sibling's subtree onto this one, so again both
      hold the same codes.

    The automorphisms are the twin swaps, known before the search, and
    those found at leaves: two orderings with the same code differ by an
    automorphism (McKay, Congr. Numer. 30, 1981; McKay & Piperno, J. Symb.
    Comput. 60, 2014). It maps the branch that holds the best leaf, at the
    node where the two leaves part, onto the branch that holds the new one.
    The first branch was searched in full, so the search returns to that
    node; if the two leaves chose different sets ``S``, it leaves the new
    set. The automorphisms found generate the whole group of ``g``, so a
    swap of two isomorphic components, like any other automorphism, is a
    product of them and needs no pass of its own.

    Every search node spends one unit of ``budget``.
    """
    budget = as_budget(budget, "canonical_form")
    if g.n == 0:
        return pack_graph6(0, 0)
    return pack_graph6(g.n, _min_code(g.n, g.adj, budget)[0])


def are_isomorphic(a: Graph, b: Graph, budget=None) -> bool:
    return a.n == b.n and canonical_form(a, budget) == canonical_form(b, budget)
