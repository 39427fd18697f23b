"""Witness graph families: blow-ups, joins, modified Zykov graphs, and the
high-minimum-degree template with an embedded core.

Modified Zykov graphs certify (r-)near-acyclicity: a graph with chromatic
number r is r-near-acyclic exactly when it embeds into one of them, which
makes bounded search over small specs a useful cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Iterator, Optional

from .errors import DomainError, SizeCapExceededError, as_budget
from .atlas import _extend
from .exact import Embedding, canonical_form, chromatic_number, contains_subgraph
from .graphs import Graph, is_bipartite

ZYKOV_L_CAP = 10


def blow_up(g: Graph, t: int) -> Graph:
    """Replace each vertex by an independent t-set and each edge by K_{t,t}."""
    if t < 1:
        raise DomainError("blow-up factor must be positive")
    edges = []
    for u, v in g.edges():
        for a in range(t):
            for b in range(t):
                edges.append((u * t + a, v * t + b))
    return Graph.from_edges(g.n * t, edges)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between the two parts."""
    n = g1.n + g2.n
    edges = list(g1.edges())
    edges += [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    edges += [(u, v + g1.n) for u in range(g1.n) for v in range(g2.n)]
    return Graph.from_edges(n, edges)


# -- modified Zykov graphs -------------------------------------------------------


def canonical_bipartition(tree: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The bipartition of a tree with the least vertex on the A side."""
    parts = is_bipartite(tree)
    assert parts is not None
    a, b = parts
    if tree.n and 0 not in a:
        a, b = b, a
    return tuple(a), tuple(b)


@dataclass(frozen=True)
class ZykovSpec:
    """Trees with chosen bipartitions, plus the parameters r and t.

    ``bipartitions[j]`` is the A side of tree j; omitted entries default to
    the canonical orientation (least vertex on the A side).
    """

    trees: tuple[Graph, ...]
    r: int
    t: int
    bipartitions: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        if self.r < 3:
            raise DomainError("r must be at least 3")
        if self.t < 1:
            raise DomainError("t must be positive")
        for tree in self.trees:
            if not tree.is_forest() or not tree.is_connected() or tree.n == 0:
                raise DomainError("every spec graph must be a non-empty tree")
        if self.bipartitions is not None:
            if len(self.bipartitions) != len(self.trees):
                raise DomainError("one bipartition per tree required")
            for tree, side_a in zip(self.trees, self.bipartitions):
                amask = 0
                for v in side_a:
                    if not 0 <= v < tree.n:
                        raise DomainError("bipartition vertex out of range")
                    amask |= 1 << v
                for u, v in tree.edges():
                    if (amask >> u & 1) == (amask >> v & 1):
                        raise DomainError("A side is not one side of the tree")

    def sides(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        out = []
        for j, tree in enumerate(self.trees):
            if self.bipartitions is None:
                out.append(canonical_bipartition(tree))
            else:
                amask = 0
                for v in self.bipartitions[j]:
                    amask |= 1 << v
                a = tuple(v for v in range(tree.n) if amask >> v & 1)
                b = tuple(v for v in range(tree.n) if not amask >> v & 1)
                out.append((a, b))
        return out

    def vertex_count(self) -> int:
        ell = len(self.trees)
        return sum(tree.n for tree in self.trees) + ((1 << ell) + self.r - 3) * self.t

    def to_json(self):
        return {
            "trees": [canonical_form(tree).decode("ascii") for tree in self.trees],
            "bipartitions": [list(a) for a, _ in self.sides()],
            "r": self.r,
            "t": self.t,
        }


@dataclass(frozen=True)
class ZykovGraph:
    graph: Graph
    roles: tuple[str, ...]  # per-vertex: "tree:j:v", "S:<I-mask>", "S':j"

    def roles_json(self):
        return {"roles": list(self.roles)}


def zykov(spec: ZykovSpec) -> ZykovGraph:
    """Build the modified Zykov graph of a spec, with per-vertex role labels.

    Layout: tree vertices first (tree by tree), then the blown-up connector
    classes S_I in increasing order of the subset mask I, then the blown-up
    fully-joined classes S'_j.
    """
    ell = len(spec.trees)
    if ell > ZYKOV_L_CAP:
        raise SizeCapExceededError("zykov", ZYKOV_L_CAP, "trees")
    sides = spec.sides()
    offsets = []
    pos = 0
    for tree in spec.trees:
        offsets.append(pos)
        pos += tree.n
    s_base = pos
    w_base = s_base + (1 << ell) * spec.t
    n = spec.vertex_count()

    edges = []
    roles = [""] * n
    for j, tree in enumerate(spec.trees):
        for u, v in tree.edges():
            edges.append((offsets[j] + u, offsets[j] + v))
        for v in range(tree.n):
            roles[offsets[j] + v] = f"tree:{j}:{v}"
    for imask in range(1 << ell):
        for k in range(spec.t):
            s_vertex = s_base + imask * spec.t + k
            roles[s_vertex] = f"S:{imask}"
            for j in range(ell):
                side = sides[j][0] if imask >> j & 1 else sides[j][1]
                for v in side:
                    edges.append((s_vertex, offsets[j] + v))
    for j in range(spec.r - 3):
        for k in range(spec.t):
            w_vertex = w_base + j * spec.t + k
            roles[w_vertex] = f"S':{j}"
            for other in range(n):
                if w_base + j * spec.t <= other < w_base + (j + 1) * spec.t:
                    continue
                if other < w_vertex:
                    edges.append((other, w_vertex))
    return ZykovGraph(Graph.from_edges(n, edges), tuple(roles))


def verify_zykov_containment(h: Graph, spec: ZykovSpec, budget=None) -> Optional[Embedding]:
    """Embed h into the spec's graph, or None if no copy exists."""
    return contains_subgraph(zykov(spec).graph, h, budget)


# -- tree enumeration and witness search ------------------------------------------


def all_trees(max_n: int) -> list[list[Graph]]:
    """trees[k] = all k-vertex trees up to isomorphism, canonically labeled,
    sorted by canonical form.

    Every (k+1)-vertex tree arises by attaching a leaf to a k-vertex tree.
    The atlas's extension step attaches one leaf per ``Aut``-orbit of the
    tree and keeps a tree only if the new leaf is its canonical deletion: a
    least-degree vertex of a tree on two or more vertices is a leaf, so that
    deletion always leaves a tree.
    """
    levels: list[list[Graph]] = [[], [Graph.empty(1)]]
    for k in range(1, max_n):
        levels.append(_extend(levels[k], leaves=True))
    return levels[: max_n + 1]


def _orientations(tree: Graph) -> list[tuple[int, ...]]:
    """Both A-sides of a tree's bipartition (deduplicated for K_1)."""
    a, b = canonical_bipartition(tree)
    return [a] if not b else [a, b]


def _spec_stream(r: int, max_l: int, max_t: int, levels: list[list[Graph]]
                 ) -> Iterator[ZykovSpec]:
    """Specs ordered by (total tree vertices, l, tree codes), both
    orientations per tree, then t ascending within a shape. ``levels`` is
    ``all_trees(max_tree_size)``, whose trees come in that order already:
    by size, then by canonical form, and each is its own canonical form."""
    flat = [tree for level in levels for tree in level]
    shapes = []
    for ell in range(1, max_l + 1):
        for combo in combinations_with_replacement(range(len(flat)), ell):
            trees = tuple(flat[i] for i in combo)
            shapes.append(trees)
    shapes.sort(key=lambda trees: (sum(tr.n for tr in trees), len(trees)))
    for trees in shapes:
        for sides in product(*(_orientations(tr) for tr in trees)):
            for t in range(1, max_t + 1):
                yield ZykovSpec(trees, r, t, tuple(sides))


def _maximal_hosts(r: int, max_l: int, max_t: int, big: list[Graph]) -> list[Graph]:
    """Zykov graphs that contain every spec graph within the bounds.

    Containment is monotone: raising t or l, or growing a tree (every tree
    extends to one on max_tree_size vertices, preserving its bipartition),
    only adds vertices and edges; and swapping a tree's orientation gives an
    isomorphic graph (relabel each connector class S_I to S_{I xor {j}}).
    So the graphs built from every multiset of max_l maximum-size trees at
    t = max_t dominate the whole search space. ``big`` lists the trees on
    max_tree_size vertices.
    """
    hosts = []
    for combo in combinations_with_replacement(big, max_l):
        hosts.append(zykov(ZykovSpec(tuple(combo), r, max_t)).graph)
    return hosts


def search_zykov_witness(h: Graph, max_l: int, max_t: int, max_tree_size: int,
                         budget=None) -> Optional[tuple[ZykovSpec, Embedding]]:
    """First spec (in a fixed enumeration order) whose graph contains h.

    Absence within the bounds is not a proof of non-near-acyclicity. A
    containment check against the dominating maximal specs runs first, so
    graphs outside the whole bounded family fail fast.
    """
    budget = as_budget(budget, "search_zykov_witness")
    if max_l < 1 or max_t < 1 or max_tree_size < 1:
        raise DomainError("search bounds must be positive")
    if max_l > ZYKOV_L_CAP:
        raise SizeCapExceededError("search_zykov_witness", ZYKOV_L_CAP, "trees")
    r = max(3, chromatic_number(h, budget))
    # a spec graph's tree and connector part is triangle-free and it has
    # r - 3 joined classes, so its clique number is r - 1: K_r never embeds
    if contains_subgraph(h, Graph.complete(r), budget) is not None:
        return None
    levels = all_trees(max_tree_size)
    if all(
        contains_subgraph(host, h, budget) is None
        for host in _maximal_hosts(r, max_l, max_t, levels[max_tree_size])
    ):
        return None
    for spec in _spec_stream(r, max_l, max_t, levels):
        budget.spend()
        emb = verify_zykov_containment(h, spec, budget)
        if emb is not None:
            return spec, emb
    return None


# -- template with planted core -----------------------------------------------------


_FILLER_PARTS = 3


@dataclass(frozen=True)
class TemplateGraph:
    graph: Graph
    set_x: tuple[int, ...]
    set_y: tuple[int, ...]

    def __post_init__(self):
        g = self.graph
        xmask = sum(1 << v for v in self.set_x)
        ymask = sum(1 << v for v in self.set_y)
        if xmask & ymask:
            raise DomainError("X and Y must be disjoint")
        if g.edge_count_between(xmask, ymask) or g.edge_count_within(ymask):
            raise DomainError("no X-Y edges and no edges inside Y allowed")


def make_template(core: Graph, n: int, k: int) -> TemplateGraph:
    """n-vertex graph: X (first k vertices) induces the core, Y (next
    floor(n/k) vertices) is independent with no edges to X, and the rest is
    complete multipartite with ``_FILLER_PARTS`` near-equal parts, fully
    joined to both X and Y.

    The filler join keeps the minimum degree high, which is what the planted
    core is for.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    if core.n != k:
        raise DomainError("core must have exactly k vertices")
    y_size = n // k
    if k + y_size > n:
        raise DomainError("k + floor(n/k) exceeds n")
    rest = n - k - y_size
    r_base = k + y_size
    initial = (1 << r_base) - 1
    filler = ((1 << n) - 1) & ~initial
    rows = [row | filler for row in core.adj] + [filler] * y_size
    for i in range(_FILLER_PARTS):
        size = rest // _FILLER_PARTS + (1 if i < rest % _FILLER_PARTS else 0)
        part = ((1 << size) - 1) << len(rows)
        rows += [initial | filler & ~part] * size
    return TemplateGraph(
        Graph(n, tuple(rows)),
        tuple(range(k)),
        tuple(range(k, k + y_size)),
    )
