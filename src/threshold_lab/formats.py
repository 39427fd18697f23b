"""Bit-exact graph6 codec, edge-list text format, and DOT export.

graph6 layout: a size header N(n), then the upper triangle of the adjacency
matrix in column-major order (bit (i,j), i<j, ordered by j then i), packed
into 6-bit chunks, each chunk stored as one byte offset by 63.
"""

from __future__ import annotations

from .errors import GraphFormatError
from .graphs import Graph


def _decode_size(data: bytes):
    """Parse the N(n) header; return (n, payload offset)."""
    if not data:
        raise GraphFormatError("empty graph6 input", 0)
    b0 = data[0]
    if b0 == 126:  # "~" and 3 digits, or "~~" and 6
        start, end = (2, 8) if data[1:2] == b"~" else (1, 4)
        if len(data) < end:
            raise GraphFormatError("truncated graph6 size header", len(data))
        n = 0
        for i in range(start, end):
            if not 63 <= data[i] <= 126:
                raise GraphFormatError(f"out-of-range byte {data[i]}", i)
            n = n << 6 | (data[i] - 63)
        return n, end
    if not 63 <= b0 <= 126:
        raise GraphFormatError(f"out-of-range byte {b0} in size header", 0)
    return b0 - 63, 1


def _encode_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    return bytes([126, 126] + [(n >> s & 63) + 63 for s in range(30, -1, -6)])


def parse_graph6(data: bytes) -> Graph:
    data = bytes(data).rstrip(b"\n")
    n, offset = _decode_size(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    payload = data[offset : offset + nbytes]
    if len(payload) < nbytes:
        raise GraphFormatError("truncated graph6 bit stream", len(data))
    if len(data) > offset + nbytes:
        raise GraphFormatError("trailing bytes after graph6 payload", offset + nbytes)
    bitbuf = 0
    for i, b in enumerate(payload):
        if not 63 <= b <= 126:
            raise GraphFormatError(f"out-of-range byte {b}", offset + i)
        bitbuf = bitbuf << 6 | (b - 63)
    bitbuf >>= 6 * nbytes - nbits  # drop padding
    rows = [0] * n
    # bits arrive most-significant first: (0,1), (0,2), (1,2), (0,3), ...
    pos = nbits
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if bitbuf >> pos & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def pack_graph6(n: int, bitbuf: int) -> bytes:
    """graph6 bytes of an ``n``-vertex graph given its upper triangle as an
    ``n(n-1)/2``-bit integer in graph6 order, bit (0,1) most significant."""
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    bitbuf <<= 6 * nbytes - nbits
    payload = bytes((bitbuf >> 6 * (nbytes - 1 - k) & 63) + 63 for k in range(nbytes))
    return _encode_size(n) + payload


def write_graph6(g: Graph) -> bytes:
    bitbuf = 0
    for j in range(1, g.n):
        for i in range(j):
            bitbuf = bitbuf << 1 | (g.adj[i] >> j & 1)
    return pack_graph6(g.n, bitbuf)


def parse_edge_list(data: bytes) -> Graph:
    """Parse the ``"n m"`` header followed by one 0-indexed ``"u v"`` per line."""
    text = bytes(data).decode("ascii", errors="replace")
    lines = [ln for ln in text.splitlines()]
    offset = 0
    header = None
    edges = []
    for ln in lines:
        stripped = ln.strip()
        if stripped and not stripped.startswith("#"):
            parts = stripped.split()
            if len(parts) != 2:
                raise GraphFormatError(f"expected two fields, got {stripped!r}", offset)
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"non-integer field in {stripped!r}", offset)
            if header is None:
                header = (a, b)
            else:
                edges.append((a, b))
        offset += len(ln) + 1
    if header is None:
        raise GraphFormatError("missing edge-list header", 0)
    n, m = header
    if n < 0 or m < 0:
        raise GraphFormatError("negative counts in edge-list header", 0)
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(edges)}", 0)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge endpoint out of range: {u} {v}", 0)
    return Graph.from_edges(n, edges)


def write_edge_list(g: Graph) -> bytes:
    lines = [f"{g.n} {g.edge_count()}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_graph(data: bytes, fmt: str) -> Graph:
    if fmt == "graph6":
        return parse_graph6(data)
    if fmt == "edge-list":
        return parse_edge_list(data)
    raise GraphFormatError(f"unknown format {fmt!r}")


def write_dot(g: Graph, labels=None) -> str:
    out = ["graph g {"]
    for v in range(g.n):
        label = f' [label="{labels[v]}"]' if labels else ""
        out.append(f"  {v}{label};")
    for u, v in g.edges():
        out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"
