"""Format round-trips, checked against an independently written graph6
decoder (the oracle below shares no code with the library)."""

import pytest

from threshold_lab.errors import GraphFormatError
from threshold_lab.exact import canonical_form
from threshold_lab.formats import (
    parse_edge_list,
    parse_graph,
    parse_graph6,
    write_dot,
    write_edge_list,
    write_graph6,
)
from threshold_lab.graphs import Graph
from threshold_lab.harness import GnpParams, sample_gnp


def oracle_decode_graph6(data: bytes):
    """Separate decoder: returns (n, set of edges)."""
    i = 0
    if data[i] == 126:
        if data[i + 1] == 126:
            chunk, i = data[2:8], 8
        else:
            chunk, i = data[1:4], 4
        n = 0
        for b in chunk:
            n = n * 64 + (b - 63)
    else:
        n, i = data[i] - 63, 1
    bitstream = []
    for b in data[i:]:
        v = b - 63
        bitstream.extend((v >> (5 - k)) & 1 for k in range(6))
    edges = set()
    pos = 0
    for col in range(1, n):
        for row in range(col):
            if bitstream[pos]:
                edges.add((row, col))
            pos += 1
    return n, edges


def to_edge_set(g: Graph):
    return set(g.edges())


def test_known_small_codes():
    star = parse_graph6(b"D?{")
    assert star.n == 5
    n, edges = oracle_decode_graph6(b"D?{")
    assert n == 5 and to_edge_set(star) == edges
    k3 = parse_graph6(b"Bw")
    assert to_edge_set(k3) == {(0, 1), (0, 2), (1, 2)}


@pytest.mark.parametrize("g", [
    Graph.empty(0),
    Graph.empty(1),
    Graph.complete(2),
    Graph.cycle(5),
    Graph.complete(7),
    Graph.path(10),
    Graph.complete_multipartite([3, 4, 5]),
])
def test_roundtrip_and_oracle(g):
    code = write_graph6(g)
    assert parse_graph6(code) == g
    n, edges = oracle_decode_graph6(code)
    assert n == g.n and edges == to_edge_set(g)


def test_random_graphs_against_oracle():
    for seed in range(30):
        g = sample_gnp(GnpParams(20, "0.4", seed))
        code = write_graph6(g)
        n, edges = oracle_decode_graph6(code)
        assert n == 20 and edges == to_edge_set(g)
        assert parse_graph6(code) == g


def test_large_n_header():
    g = Graph.empty(100)
    code = write_graph6(g)
    assert code[0] == 126  # ~ header for n > 62
    assert parse_graph6(code) == g
    n, edges = oracle_decode_graph6(code)
    assert n == 100 and not edges


def test_roundtrip_every_size_through_4_byte_header():
    for n in range(71):
        g = sample_gnp(GnpParams(n, "0.5", n))
        code = write_graph6(g)
        assert code[0] == 126 if n >= 63 else code[0] == n + 63
        assert parse_graph6(code) == g
        assert oracle_decode_graph6(code) == (n, to_edge_set(g))


@pytest.mark.parametrize("g", [Graph.empty(70), Graph.complete(70)])
def test_canonical_form_of_large_twin_class(g):
    # every relabelling of E_n or K_n is the same graph, and the twin prune
    # reaches it in n + 1 search nodes
    assert canonical_form(g) == write_graph6(g)


def test_malformed_graph6():
    with pytest.raises(GraphFormatError):
        parse_graph6(b"")
    with pytest.raises(GraphFormatError):
        parse_graph6(b"D?")  # truncated body
    with pytest.raises(GraphFormatError):
        parse_graph6(b"Bw!")  # trailing garbage
    err = None
    try:
        parse_graph6(b"B\x05")
    except GraphFormatError as exc:
        err = exc
    assert err is not None and err.offset is not None


def _out_of_range_at(header: bytes, i: int, byte: int) -> tuple:
    """``header`` with its ``i``-th byte replaced, and the fault it gives."""
    return header[:i] + bytes([byte]) + header[i + 1:], f"out-of-range byte {byte}", i


HEADER_FAULTS = [
    (b"", "empty graph6 input", 0),
    (b"~", "truncated graph6 size header", 1),
    (b"~??", "truncated graph6 size header", 3),
    (b"~~", "truncated graph6 size header", 2),
    (b"~~?????", "truncated graph6 size header", 7),
    (b"\x3e", "out-of-range byte 62 in size header", 0),
    (b"\x7f", "out-of-range byte 127 in size header", 0),
] + [_out_of_range_at(b"~???", i, byte) for i in (1, 2, 3) for byte in (62, 127)] \
  + [_out_of_range_at(b"~~??????", i, byte) for i in range(2, 8) for byte in (62, 127)]


@pytest.mark.parametrize("data,message,offset", HEADER_FAULTS)
def test_size_header_faults_name_their_byte(data, message, offset):
    with pytest.raises(GraphFormatError) as info:
        parse_graph6(data)
    assert info.value.offset == offset
    assert str(info.value) == f"{message} (byte offset {offset})"


def test_edge_list_roundtrip():
    g = Graph.cycle(6)
    text = write_edge_list(g)
    assert parse_edge_list(text) == g
    assert parse_graph(text, "edge-list") == g
    assert parse_graph(write_graph6(g), "graph6") == g


def test_edge_list_errors():
    with pytest.raises(GraphFormatError):
        parse_edge_list(b"3 1\n")  # missing edge line
    with pytest.raises(GraphFormatError):
        parse_edge_list(b"3 1\n0 5\n")  # endpoint out of range
    with pytest.raises(GraphFormatError):
        parse_edge_list(b"nonsense\n")


def test_dot_output():
    text = write_dot(Graph.complete(3))
    assert "graph" in text and "--" in text
