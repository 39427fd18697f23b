"""The atlas bytes, level by level.

Each digest is the SHA-256 of the sorted graph6 codes of one level, joined
by newlines. They come from an atlas built by extending every neighbourhood
mask of every representative, so they check that extending one mask per
automorphism orbit loses no graph and changes no byte.

``oracle_extend`` is the extension step that deduplicates by canonical
form; the atlas keeps an extension only if its new vertex is the canonical
deletion, so one call per representative must split each level into
disjoint shares.
"""

import functools
import hashlib
import random

from hypothesis import given, settings, strategies as st

from threshold_lab import atlas
from threshold_lab.atlas import _mask_image, _orbit_leaders, atlas_level
from threshold_lab.constructions import all_trees
from threshold_lab.errors import as_budget
from threshold_lab.exact import _min_code, canonical_form
from threshold_lab.formats import parse_graph6, write_graph6
from threshold_lab.graphs import Graph

LEVEL_DIGESTS = {
    0: (1, "8a8de823d5ed3e12746a62ef169bcf372be0ca44f0a1236abc35df05d96928e1"),
    1: (1, "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae"),
    2: (2, "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1"),
    3: (4, "f78b1e961185bb637907c0c3de52876ceb3eb2fee4073e88b23fc8308cee8ad4"),
    4: (11, "dab260d3a982994a03c9f8dd70c9abd8e47ba43abb270c1a9b8f982fb67c451e"),
    5: (34, "978306f31045f9be78763583548ac8c32ffdd517ddccce984237ab3ec087ddb8"),
    6: (156, "10598a4b41837b791c767d3042b58dc58a723ca5d99144fd8e24085c12a49acb"),
    7: (1044, "4a04fd789269433a870b8b1493182bfa0a73b637fd522eef4abcb1c7da75f9a1"),
    8: (12346, "ef42eb7e810e89b8a5facb660c97839506072a4c5333ff16c4e08e2605e71c69"),
}


def test_atlas_levels_keep_their_bytes(atlas_by_n):
    for k, (count, digest) in LEVEL_DIGESTS.items():
        codes = sorted(write_graph6(g) for g in atlas_by_n[k])
        assert len(codes) == count
        assert hashlib.sha256(b"\n".join(codes)).hexdigest() == digest, k


def oracle_extend(reps, leaves=False):
    """Every class that adding a vertex to a graph of ``reps`` gives, one
    search per orbit-leader extension, deduplicated by canonical form."""
    seen = {}
    for g in reps:
        k = g.n
        gens = _min_code(k, g.adj, as_budget(None, "atlas_level"))[2]
        masks = [1 << v for v in range(k)] if leaves else range(1 << k)
        for nbrs in _orbit_leaders(masks, gens, _mask_image):
            rows = tuple([row | (nbrs >> v & 1) << k for v, row in enumerate(g.adj)])
            seen.setdefault(canonical_form(Graph._trusted(k + 1, rows + (nbrs,))), None)
    return [parse_graph6(code) for code in sorted(seen)]


def test_orbit_leaders_keep_the_first_item_in_the_given_order():
    rotate = (1, 2, 3, 0)  # the rotation of the 4-cycle 0-1-2-3
    masks = [0b0100, 0b0001, 0b1000, 0b0010,
             0b1100, 0b0101, 0b0011, 0b1010, 0b0110, 0b1001]
    assert _orbit_leaders(masks, [rotate], _mask_image) == [0b0100, 0b1100, 0b0101]
    assert _orbit_leaders(masks, [], _mask_image) == masks


@functools.lru_cache(maxsize=None)
def oracle_level(k: int, leaves: bool = False) -> tuple:
    """Level ``k`` of the atlas, or of the trees with ``leaves``, built by
    the oracle alone."""
    if k <= 1:
        return (Graph.empty(k),)
    return tuple(oracle_extend(oracle_level(k - 1, leaves), leaves))


def codes(graphs) -> list[bytes]:
    return [write_graph6(g) for g in graphs]


@settings(max_examples=30)
@given(st.integers(0, 6), st.integers(0, 2**64 - 1))
def test_one_call_per_representative_splits_the_next_level(k, seed):
    rng = random.Random(seed)
    seen = set()
    for g in oracle_level(k):
        perm = list(range(g.n))
        rng.shuffle(perm)
        out = codes(atlas_level([g.relabel(perm)]))
        assert out == sorted(out)
        assert seen.isdisjoint(out)
        seen.update(out)
    assert sorted(seen) == codes(oracle_level(k + 1))


def test_all_trees_match_the_oracle():
    trees = all_trees(10)
    assert [len(level) for level in trees[1:]] == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    for k in range(1, 11):
        assert codes(trees[k]) == codes(oracle_level(k, leaves=True)), k


def test_level_7_takes_few_searches(atlas_by_n, monkeypatch):
    calls = []

    def counted(n, adj, budget):
        calls.append(n)
        return _min_code(n, adj, budget)

    monkeypatch.setattr(atlas, "_min_code", counted)
    assert len(atlas_level(atlas_by_n[6])) == 1044
    assert len(calls) <= 1300
