"""The atlas bytes, level by level.

Each digest is the SHA-256 of the sorted graph6 codes of one level, joined
by newlines. They come from an atlas built by extending every neighbourhood
mask of every representative, so they check that extending one mask per
automorphism orbit loses no graph and changes no byte.
"""

import hashlib

from threshold_lab.formats import write_graph6

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
