"""Independent reference code for the benchmark's correctness checks.

Nothing here imports threshold_lab: a check that leaned on the code under
test could not catch it being wrong. Graphs are plain tuples of bitmask
adjacency rows, and only small graphs (n <= 62) occur.
"""

from __future__ import annotations

from fractions import Fraction


def encode_graph6(rows: tuple[int, ...]) -> str:
    """graph6 text of a graph on at most 62 vertices."""
    n = len(rows)
    bitlist = [rows[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bitlist += [0] * (-len(bitlist) % 6)
    chunks = [bitlist[k:k + 6] for k in range(0, len(bitlist), 6)]
    payload = "".join(chr(63 + int("".join(map(str, c)), 2)) for c in chunks)
    return chr(63 + n) + payload


def decode_graph6(text: str) -> tuple[int, ...]:
    """Adjacency rows of a graph6 string; raises ValueError when malformed."""
    data = text.encode("ascii")
    if not data or not 63 <= data[0] <= 125:
        raise ValueError(f"bad graph6 size byte in {text!r}")
    n = data[0] - 63
    nbits = n * (n - 1) // 2
    payload = data[1:]
    if len(payload) != (nbits + 5) // 6 or any(not 63 <= b <= 126 for b in payload):
        raise ValueError(f"bad graph6 payload in {text!r}")
    bitlist = [(b - 63) >> (5 - k) & 1 for b in payload for k in range(6)]
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bitlist[pos]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return tuple(rows)


def relabel(rows: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    """The graph in which vertex perm[v] plays the role of old vertex v."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        for u in range(len(rows)):
            if row >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return tuple(out)


def is_independent(rows, mask: int) -> bool:
    return all(not rows[v] & mask for v in range(len(rows)) if mask >> v & 1)


def is_forest(rows, mask: int) -> bool:
    """True iff the subgraph induced on ``mask`` has no cycle (union-find)."""
    parent = list(range(len(rows)))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for v in range(len(rows)):
        if not mask >> v & 1:
            continue
        for u in range(v):
            if mask >> u & 1 and rows[v] >> u & 1:
                a, b = find(u), find(v)
                if a == b:
                    return False
                parent[a] = b
    return True


def chromatic_number(rows) -> int:
    """Exact chromatic number by dynamic programming over vertex subsets:
    chi(S) = 1 + min chi(S \\ I) over independent I containing min(S)."""
    n = len(rows)
    full = (1 << n) - 1
    independent = [True] * (full + 1)
    for mask in range(1, full + 1):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        independent[mask] = independent[rest] and not rows[low] & rest
    chi = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        best = n
        sub = rest
        while True:
            if independent[sub | low]:
                best = min(best, chi[rest & ~sub])
            if sub == 0:
                break
            sub = (sub - 1) & rest
        chi[mask] = best + 1
    return chi[full]


def delta_formula(case: str, r: int) -> Fraction:
    """delta_chi for the structural case that holds, at r = chi(H)."""
    if case == "bipartite":
        return Fraction(0)
    if case == "r-near-acyclic":
        return Fraction(r - 3, r - 2)
    if case == "no-forest-in-decomposition-family":
        return Fraction(r - 2, r - 1)
    if case == "forest-in-decomposition-family":
        return Fraction(2 * r - 5, 2 * r - 3)
    raise ValueError(f"unknown threshold case {case!r}")


def quotient(rows, classes: list[list[int]]) -> tuple[int, ...]:
    """Quotient graph: one vertex per class, adjacent iff some edge joins them."""
    masks = [sum(1 << v for v in c) for c in classes]
    out = [0] * len(masks)
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if i != j and any(rows[v] & b for v in range(len(rows)) if a >> v & 1):
                out[i] |= 1 << j
    return tuple(out)


def isomorphic(a, b) -> bool:
    """Backtracking isomorphism test with degree filtering."""
    n = len(a)
    if n != len(b):
        return False
    deg_a = [r.bit_count() for r in a]
    deg_b = [r.bit_count() for r in b]
    if sorted(deg_a) != sorted(deg_b):
        return False
    order = sorted(range(n), key=lambda v: -deg_a[v])
    image = [-1] * n

    def extend(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used >> w & 1 or deg_b[w] != deg_a[v]:
                continue
            if all((a[v] >> u & 1) == (b[w] >> image[u] & 1) for u in order[:i]):
                image[v] = w
                if extend(i + 1, used | 1 << w):
                    return True
        image[v] = -1
        return False

    return extend(0, 0)


# -- the documented G(n, p) stream (splitmix64-v1) and the template embedding --

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def _splitmix_output(state: int) -> int:
    x = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def trial_seed(seed: int, trial: int) -> int:
    """Per-trial seed: one splitmix64 step from ``seed ^ trial``."""
    return _splitmix_output((((seed & MASK64) ^ trial) + GOLDEN_GAMMA) & MASK64)


def sample_gnp(n: int, p: Fraction, seed: int) -> tuple[int, ...]:
    """G(n, p) from the splitmix64 stream started at ``seed``: the pairs
    u < v in lexicographic order each take the next draw, and a pair is an
    edge iff its draw is below round(p * 2^64), ties to even."""
    threshold = round(p * (1 << 64))
    state = seed & MASK64
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            state = (state + GOLDEN_GAMMA) & MASK64
            if _splitmix_output(state) < threshold:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return tuple(rows)


def has_clique(rows, mask: int, k: int) -> bool:
    """True iff the vertices in ``mask`` contain a k-clique."""
    if k == 0:
        return True
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        if has_clique(rows, mask & rows[v], k - 1):
            return True
    return False


TEMPLATE_FILLER_PARTS = 3  # parts of the template's complete multipartite filler


def embedded_min_degree_bounds(sample, k: int) -> tuple[int, int]:
    """Bounds on the minimum degree of a sample intersected with the
    embedded template of the two-round experiment, whatever k-clique the
    embedding picks.

    The template on n vertices has X = the first k vertices (a k-clique),
    Y = the next n // k (independent, no edges to X) and a filler of the
    rest, complete multipartite in TEMPLATE_FILLER_PARTS near-equal parts,
    joined to all of X and Y. The embedding maps X onto a k-clique of the sample among the
    first k + n // k vertices, Y onto the other vertices there, and the
    filler onto itself. So a filler vertex keeps its sample edges into X, Y
    and the other filler parts; an image of Y keeps its sample edges into
    the filler; an image of X keeps those plus k - 1 clique edges. Only
    which k initial vertices take X is open, and the minimum lies between
    the smallest and the (k+1)-th smallest initial degree into the filler,
    capped by the filler's minimum.
    """
    n = len(sample)
    initial = k + n // k
    rest = n - initial
    parts = TEMPLATE_FILLER_PARTS
    sizes = [rest // parts + (i < rest % parts) for i in range(parts)]
    initial_mask = (1 << initial) - 1
    filler_mask = ((1 << n) - 1) & ~initial_mask
    filler_min = n
    start = initial
    for size in sizes:
        part = ((1 << size) - 1) << start
        keep = initial_mask | (filler_mask & ~part)
        filler_min = min(filler_min, *((sample[v] & keep).bit_count()
                                      for v in range(start, start + size)))
        start += size
    into_filler = sorted((sample[w] & filler_mask).bit_count() for w in range(initial))
    return min(filler_min, into_filler[0]), min(filler_min, into_filler[k])
