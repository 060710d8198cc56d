"""graph6 codec conformance."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distlap import (
    Graph, GraphParseError, connected_classes, connected_stacks,
    encode_graph6, encode_graph6_stack, enumerate_connected, parse_graph6,
    read_graph6_stream)
from distlap.graphs import adjacency_graphs, adjacency_stack
from distlap.named_graphs import complete_graph, path_graph

# hand-decoded reference pairs: string -> sorted edge list (offset-63 bytes,
# column-major upper triangle, most significant bit first)
HAND_DECODED = {
    "@": (1, []),
    "A_": (2, [(0, 1)]),
    "A?": (2, []),
    "Bw": (3, [(0, 1), (0, 2), (1, 2)]),
    "Bg": (3, [(0, 1), (1, 2)]),
    "Bo": (3, [(0, 1), (0, 2)]),
    "BW": (3, [(0, 2), (1, 2)]),
    "D~{": (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
                (2, 3), (2, 4), (3, 4)]),
    # path on 4: bits for pairs (0,1),(0,2),(1,2),(0,3),(1,3),(2,3) = 101001,
    # so the body byte is 0b101001 + 63 = 104 = 'h'
    "Ch": (4, [(0, 1), (1, 2), (2, 3)]),
}


def test_hand_decoded_fixtures():
    for s, (n, edges) in HAND_DECODED.items():
        g = parse_graph6(s)
        assert g.n == n, s
        assert g.sorted_edges() == edges, s


def test_header_prefix_tolerated():
    assert parse_graph6(">>graph6<<Bw") == complete_graph(3)
    assert parse_graph6("  Bw \n") == complete_graph(3)


def test_encode_matches_hand_encoded():
    assert encode_graph6(complete_graph(3)) == "Bw"
    assert encode_graph6(path_graph(4)) == "Ch"
    assert encode_graph6(Graph(1, frozenset())) == "@"
    assert encode_graph6(complete_graph(2)) == "A_"


def test_round_trip_small_enumeration():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            assert parse_graph6(encode_graph6(g)) == g


def test_against_networkx_reference():
    nx = pytest.importorskip("networkx")
    for n in (1, 2, 3, 4, 5, 6):
        for g in adjacency_graphs(np.concatenate(list(
                connected_classes(n).stacks()))):
            enc = encode_graph6(g)
            ref = nx.from_graph6_bytes(enc.encode())
            assert set(ref.nodes) == set(range(n))
            assert {tuple(sorted(e)) for e in ref.edges} == set(g.edges)


def test_extended_header_round_trip():
    nx = pytest.importorskip("networkx")
    for n in (63, 64, 100):
        g = path_graph(n)
        enc = encode_graph6(g)
        assert enc.startswith("~")
        assert parse_graph6(enc) == g
        ref = nx.from_graph6_bytes(enc.encode())
        assert {tuple(sorted(e)) for e in ref.edges} == set(g.edges)
        # agree with the reference encoder too
        assert nx.to_graph6_bytes(
            ref, header=False).decode().strip() == enc


def test_decode_errors():
    with pytest.raises(GraphParseError, match="invalid graph6 byte"):
        parse_graph6("B!")
    with pytest.raises(GraphParseError, match="expected"):
        parse_graph6("B")  # missing body byte for n=3
    with pytest.raises(GraphParseError, match="expected"):
        parse_graph6("Bww")  # extra body byte
    with pytest.raises(GraphParseError, match="empty"):
        parse_graph6("")
    with pytest.raises(GraphParseError, match="n = 0"):
        parse_graph6("?")
    with pytest.raises(GraphParseError, match="truncated"):
        parse_graph6("~A")


def test_stream_reader_skips_blanks_and_header():
    lines = [">>graph6<<", "", "Bw", "  ", "A_", ">>graph6<<Bg"]
    got = list(read_graph6_stream(lines))
    assert [lineno for lineno, _ in got] == [3, 5, 6]
    assert got[0][1] == complete_graph(3)
    assert got[1][1] == complete_graph(2)
    assert got[2][1].sorted_edges() == [(0, 1), (1, 2)]


def test_stream_reader_reports_line_number():
    with pytest.raises(GraphParseError, match="line 2"):
        list(read_graph6_stream(["Bw", "B\x1e"]))


@pytest.mark.parametrize(
    "line", [">>graph6<<>>graph6<<Bw", ">>graph6<< Bw", ">>graph6<<Bw"])
def test_stream_reader_and_parser_agree_on_a_line(line):
    # one prefix, then the body as it stands: a line inside a stream is
    # accepted exactly when it is accepted alone
    def outcome(read):
        try:
            return read(line)
        except GraphParseError as exc:
            return str(exc).removeprefix("line 1: ")
    alone = outcome(parse_graph6)
    streamed = outcome(lambda s: next(read_graph6_stream([s]))[1])
    assert streamed == alone
    assert (alone == complete_graph(3)) == (line == ">>graph6<<Bw")


def test_stack_encoder_matches_per_graph_on_connected_stacks():
    for n in range(1, 7):
        for adj in connected_stacks(n):
            assert encode_graph6_stack(adj) == [
                encode_graph6(g) for g in adjacency_graphs(adj)], n


def test_stack_encoder_trims_each_row_of_a_padded_stack():
    # both header forms, every row on its own n, in stack order
    rng = random.Random(16)
    sizes = list(range(1, 21)) + [62, 63, 64]
    rng.shuffle(sizes)
    graphs = [Graph.from_edges(n, [
        p for p in itertools.combinations(range(n), 2) if rng.random() < 0.3])
        for n in sizes]
    adj, n = adjacency_stack(graphs), np.array([g.n for g in graphs])
    lines = encode_graph6_stack(adj, n)
    assert lines == [encode_graph6(g) for g in graphs]
    assert [parse_graph6(line) for line in lines] == graphs
    assert sum(line.startswith("~") for line in lines) == 2
    # rows of one n below the stack's width, as a sweep lists them
    for k in (1, 7, 63):
        assert encode_graph6_stack(adj[n == k], n[n == k]) == [
            encode_graph6(g) for g in graphs if g.n == k]


def test_stack_encoder_of_an_empty_stack():
    assert encode_graph6_stack(np.zeros((0, 5, 5), dtype=bool)) == []
    assert encode_graph6_stack(
        np.zeros((0, 5, 5), dtype=bool), np.zeros(0, dtype=np.int64)) == []


@st.composite
def edge_masks(draw):
    n = draw(st.integers(min_value=2, max_value=62))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return n, [p for k, p in enumerate(pairs) if mask >> k & 1]


@settings(max_examples=100, deadline=None)
@given(edge_masks())
def test_stack_encoder_matches_networkx(case):
    nx = pytest.importorskip("networkx")
    n, edges = case
    adj = np.zeros((1, n, n), dtype=bool)
    for i, j in edges:
        adj[0, i, j] = adj[0, j, i] = True
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from(edges)
    assert encode_graph6_stack(adj) == [
        nx.to_graph6_bytes(ref, header=False).decode().strip()]
