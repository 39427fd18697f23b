"""Recognisers, with certified witnesses, for the structural graph classes
that determine chromatic thresholds: cloud-forest, thundercloud-forest,
(r-)near-acyclic, and forest-in-decomposition-family.

All searches enumerate candidate independent sets by increasing size and
lexicographically within a size, and return the first witness found, so
outputs are deterministic. They read chi of the pattern (``exact.pattern_chi``)
and, from its subset tables (``exact.subset_tables``), whether a vertex set
is independent, induces a forest, or has a given chromatic number; both live
in the pattern's record, so each is computed once per pattern. The class
scans walk one generator, ``_forest_parts``, and the decomposition-family
scans another, ``_removals``.

The r-near-acyclic and forest-in-family scans come in two parts: a search
over masks (``_r_near_acyclic_masks``, ``_forest_removal``) returns the
masks that decide the answer, and only the public recognisers and
``thresholds.chromatic_threshold`` build a witness from them, so a caller
that needs only the threshold value builds none.

No graph with a triangle is in any of the first three classes. An
independent set meets a triangle in at most one vertex, so a triangle
either lies in the forest part or meets the independent part once, in an
odd cycle that it meets fewer than twice. In a cloud-forest the two
triangle vertices outside the cloud would be adjacent leaves both
attached to it. So these scans give ``None`` on a triangle before they
walk a candidate (``graphs._has_triangle``), and the r-near-acyclic scan
skips every removal whose rest keeps a triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .atlas import _mask_image, _orbit_leaders
from .errors import DomainError, as_budget
from .exact import _min_code, colouring_with, masks_by_size, pattern_chi, subset_tables
from .formats import pack_graph6
from .graphs import Graph, _degree_rows, _has_triangle, bits


@dataclass(frozen=True)
class CloudForestWitness:
    cloud: tuple[int, ...]
    forest_vertices: tuple[int, ...]

    def to_json(self):
        return {"class": "cloud-forest", "cloud": list(self.cloud),
                "forest": list(self.forest_vertices)}


@dataclass(frozen=True)
class CloudForestAltWitness:
    set_i: tuple[int, ...]
    set_j: tuple[int, ...]
    forest_f_prime: tuple[int, ...]

    def to_json(self):
        return {"class": "cloud-forest-alt", "I": list(self.set_i),
                "J": list(self.set_j), "F_prime": list(self.forest_f_prime)}


@dataclass(frozen=True)
class NearAcyclicWitness:
    independent_part: tuple[int, ...]
    forest_part: tuple[int, ...]

    def to_json(self):
        return {"class": "near-acyclic", "independent": list(self.independent_part),
                "forest": list(self.forest_part)}


@dataclass(frozen=True)
class RemovalSequence:
    sets: tuple[tuple[int, ...], ...]

    def to_json(self):
        return {"class": "removal-sequence", "removals": [list(s) for s in self.sets]}


def _mask_tuple(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


def _forest_parts(tables, keep: int, budget) -> Iterator[int]:
    """Each independent part I inside ``keep`` whose rest ``keep - I``
    induces a forest, by size and then value. One node is spent per
    independent mask of the pattern, inside ``keep`` or not. The masks
    inside ``keep`` come in the order of the same sets in the graph induced
    by ``keep`` relabelled ascending, so the first witness is the same."""
    for part in tables.indep_by_size:
        budget.spend()
        if not part & ~keep and tables.forest[keep & ~part]:
            yield part


def _cloud_conditions(h: Graph, cloud: int, rest: int) -> bool:
    """Whether the forest ``rest`` takes edges from ``cloud`` only at
    vertices of forest degree <= 1, no two of them adjacent (so leaves)."""
    touched = low = 0  # forest vertices with a cloud neighbour; of forest degree <= 1
    for v in bits(rest):
        if h.adj[v] & cloud:
            touched |= 1 << v
        if (h.adj[v] & rest).bit_count() <= 1:
            low |= 1 << v
    return not (touched & ~low) and not any(h.adj[v] & touched for v in bits(touched))


def _odd_cycles_meet_twice(tables, part: int, rest: int) -> bool:
    """Every odd cycle of the graph induced by ``part | rest`` meets ``part``
    in >= 2 vertices, where ``part`` is independent and ``rest`` induces a
    forest. An odd cycle meeting ``part`` in exactly one vertex v lives in
    ``rest + v``, so the condition holds iff each such extension is
    bipartite."""
    return all(tables.bipartite(rest | 1 << v) for v in bits(part))


def _cloud_forest(h: Graph, thunder: bool, budget) -> Optional[CloudForestWitness]:
    """The first cloud-forest witness of ``h``, with ``thunder`` the first
    whose cloud also meets every odd cycle twice; ``None`` on a triangle."""
    full = (1 << h.n) - 1
    if _has_triangle(h.adj, full):
        return None
    tables = subset_tables(h, budget)
    for cloud in _forest_parts(tables, full, budget):
        rest = full & ~cloud
        if _cloud_conditions(h, cloud, rest) \
                and (not thunder or _odd_cycles_meet_twice(tables, cloud, rest)):
            return CloudForestWitness(_mask_tuple(cloud), _mask_tuple(rest))
    return None


def is_cloud_forest(h: Graph, budget=None) -> Optional[CloudForestWitness]:
    """First independent cloud I (by size, then lex) whose complement is a
    forest receiving I-edges only at leaves/isolated vertices, with no two
    adjacent leaves both attached to I. ``None`` at once if ``h`` has a
    triangle: its two vertices outside I would be such leaves."""
    return _cloud_forest(h, False, as_budget(budget, "is_cloud_forest"))


def is_thundercloud_forest(h: Graph, budget=None) -> Optional[CloudForestWitness]:
    """A cloud-forest witness whose cloud also meets every odd cycle twice.
    ``None`` at once if ``h`` has a triangle, which an independent cloud
    meets at most once."""
    return _cloud_forest(h, True, as_budget(budget, "is_thundercloud_forest"))


def is_cloud_forest_alt(h: Graph, budget=None) -> Optional[CloudForestAltWitness]:
    """Partition into independent I and J plus a forest F' with no F'-I edges
    and every J-vertex having at most one F'-neighbour."""
    budget = as_budget(budget, "is_cloud_forest_alt")
    tables = subset_tables(h, budget)
    full = (1 << h.n) - 1
    indep = tables.indep_by_size
    for set_i in indep:
        rest_i = full & ~set_i
        for set_j in indep:
            budget.spend()
            if set_j & set_i:
                continue
            f_prime = rest_i & ~set_j
            if not tables.forest[f_prime]:
                continue
            if any(h.adj[v] & f_prime for v in bits(set_i)):
                continue
            if any((h.adj[v] & f_prime).bit_count() > 1 for v in bits(set_j)):
                continue
            return CloudForestAltWitness(
                _mask_tuple(set_i), _mask_tuple(set_j), _mask_tuple(f_prime)
            )
    return None


def _near_acyclic_part(tables, keep: int, budget) -> Optional[int]:
    """First independent I inside ``keep`` (by size, then value) such that
    ``keep - I`` induces a forest and every odd cycle of the graph induced
    by ``keep`` meets I twice. The caller checks that this graph has chi 3."""
    return next((part for part in _forest_parts(tables, keep, budget)
                 if _odd_cycles_meet_twice(tables, part, keep & ~part)), None)


def is_near_acyclic(h: Graph, budget=None) -> Optional[NearAcyclicWitness]:
    """chi = 3 plus a partition into independent I and a forest such that
    every odd cycle meets I at least twice. The search is
    ``_r_near_acyclic_masks`` with r = 3, so a pattern with a triangle,
    which I meets at most once, gets ``None`` once its chi is known,
    before any subset table is built."""
    budget = as_budget(budget, "is_near_acyclic")
    if pattern_chi(h, budget) != 3:
        return None
    masks = _r_near_acyclic_masks(h, 3, budget)
    return None if masks is None else _near_acyclic_witness(h, 3, *masks, budget)[1]


def _removals(h: Graph, count: int, budget) -> Iterator[int]:
    """Every vertex mask of ``h`` that is the union of ``count`` independent
    sets, by (popcount, value), spending one node per mask tried. For
    ``count == 1`` those are the independent masks, which the subset tables
    already list in this order, so only they are tried."""
    tables = subset_tables(h, budget)
    if count == 1:
        for removed in tables.indep_by_size:
            budget.spend()
            yield removed
        return
    for removed in masks_by_size(h.n):
        budget.spend()
        if tables.colourable(removed, count, budget):
            yield removed


def _removal_sequence(h: Graph, removed_mask: int, count: int, budget) -> RemovalSequence:
    """Split the removed set into ``count`` independent sets via colouring."""
    sub = h.induced_mask(removed_mask)
    vertices = list(bits(removed_mask))
    colours = colouring_with(sub, count, budget)
    assert colours is not None
    sets = [tuple(vertices[i] for i in range(len(vertices)) if colours[i] == c)
            for c in range(count)]
    return RemovalSequence(tuple(sets))


def _r_near_acyclic_masks(h: Graph, r: int, budget) -> Optional[tuple[int, int]]:
    """The masks that decide whether ``h``, of chi ``r >= 3``, is
    r-near-acyclic: the first removed union of r-3 independent sets (by
    popcount, then value) whose rest has an independent part I as in
    ``_near_acyclic_part``, and the first such I; ``None`` if there is none.
    ``_near_acyclic_witness`` turns the masks into the witness.

    A rest with a triangle has no such I, since I meets the triangle at most
    once. So with r = 3 a pattern with a triangle gives ``None`` before the
    subset tables are built, and with r >= 4 a removal whose rest keeps a
    triangle is skipped before its rest's chi is looked up, which may build
    the chi table."""
    full = (1 << h.n) - 1
    if r == 3:  # nothing is removed
        if _has_triangle(h.adj, full):
            return None
        part = _near_acyclic_part(subset_tables(h, budget), full, budget)
        return None if part is None else (0, part)
    tables = subset_tables(h, budget)
    for removed in _removals(h, r - 3, budget):
        keep = full & ~removed
        # chi(keep) >= r - chi(removed) >= 3, so chi(keep) == 3 iff keep is
        # 3-colourable; removing every vertex never qualifies, as chi(h) = r
        if _has_triangle(h.adj, keep) or not tables.colourable(keep, 3, budget):
            continue
        part = _near_acyclic_part(tables, keep, budget)
        if part is not None:
            return removed, part
    return None


def _near_acyclic_witness(h: Graph, r: int, removed: int, part: int, budget
                          ) -> tuple[RemovalSequence, NearAcyclicWitness]:
    """The witness of ``is_r_near_acyclic`` for the masks that
    ``_r_near_acyclic_masks`` found: ``removed`` split into r-3 independent
    sets, and the near-acyclic partition of the rest."""
    rest = ((1 << h.n) - 1) & ~removed & ~part
    removals = _removal_sequence(h, removed, r - 3, budget) if r > 3 else RemovalSequence(())
    return removals, NearAcyclicWitness(_mask_tuple(part), _mask_tuple(rest))


def is_r_near_acyclic(h: Graph, r: int, budget=None
                      ) -> Optional[tuple[RemovalSequence, NearAcyclicWitness]]:
    """Witness that deleting the union of r-3 independent sets leaves a
    near-acyclic graph. Requires r = chi(h) >= 3. The search is
    ``_r_near_acyclic_masks``, and only its answer is built into a
    witness."""
    budget = as_budget(budget, "is_r_near_acyclic")
    chi = pattern_chi(h, budget)
    if r != chi or r < 3:
        raise DomainError(f"r must equal chi(h) >= 3, got r={r}, chi={chi}")
    masks = _r_near_acyclic_masks(h, r, budget)
    return None if masks is None else _near_acyclic_witness(h, r, *masks, budget)


def decomposition_family(h: Graph, budget=None) -> list[Graph]:
    """Every bipartite graph (up to isomorphism) obtained by deleting the
    union of chi(h)-2 independent sets; sorted by canonical form. Each
    class is the graph induced by its first rest in removal order.

    An automorphism of ``h`` maps a removal set onto one whose rest is
    isomorphic, so only the first removal of each ``Aut(h)``-orbit, in
    removal order, gets a canonical search; the generators come from one
    search of ``h`` (McKay, "Isomorph-free exhaustive generation", J.
    Algorithms 26, 1998). The first rest of a class in removal order is the
    first of its orbit, so the kept graphs are those of a search of every
    rest. A rest is searched as rows, relabelled by degree, and rests with
    the same rows share one search; only a kept class becomes a ``Graph``.
    """
    budget = as_budget(budget, "decomposition_family")
    r = pattern_chi(h, budget)
    if r < 2:
        raise DomainError("decomposition family needs chi(h) >= 2")
    tables = subset_tables(h, budget)
    full = (1 << h.n) - 1
    removals = [removed for removed in _removals(h, r - 2, budget)
                if tables.bipartite(full & ~removed)]
    gens = _min_code(h.n, h.adj, budget)[2]
    codes: dict[tuple[int, ...], bytes] = {}
    kept: dict[bytes, int] = {}
    for removed in _orbit_leaders(removals, gens, _mask_image):
        rest = full & ~removed
        rows = _degree_rows(h.adj, rest)
        if rows not in codes:
            codes[rows] = pack_graph6(len(rows), _min_code(len(rows), rows, budget)[0])
        kept.setdefault(codes[rows], rest)
    return [h.induced_mask(kept[code]) for code in sorted(kept)]


def _forest_removal(h: Graph, r: int, budget) -> Optional[int]:
    """The first removed union of r-2 independent sets (by popcount, then
    value) that leaves a forest in ``h``, of chi ``r >= 3``, or ``None``."""
    forest = subset_tables(h, budget).forest
    full = (1 << h.n) - 1
    for removed in _removals(h, r - 2, budget):
        if forest[full & ~removed]:
            return removed
    return None


def has_forest_in_decomposition_family(h: Graph, budget=None) -> Optional[RemovalSequence]:
    """First removal (by union size, then lex) leaving a forest. The search
    is ``_forest_removal``, and only its answer is split into independent
    sets."""
    budget = as_budget(budget, "has_forest_in_decomposition_family")
    r = pattern_chi(h, budget)
    if r < 3:
        raise DomainError("forest-in-family check needs chi(h) >= 3")
    removed = _forest_removal(h, r, budget)
    return None if removed is None else _removal_sequence(h, removed, r - 2, budget)
