"""Graph construction, edge-list parsing, distances, enumeration."""

import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from distlap import graphs as graphs_module
from distlap import (
    DisconnectedGraphError, Graph, GraphParseError, check_tree_determinant,
    enumerate_connected, parse_edge_list, sample_connected, scan,
    scan_conjecture, scan_soundness)
from distlap.cli import cmd_analyze
from distlap.graphs import (
    _ENUM_CAP, SCAN_CELLS, SCAN_CHUNK, ConnectedClasses, adjacency_graphs,
    adjacency_stack, connected_classes, connected_distances, connected_stacks,
    distance_data, format_edge_list)
from distlap.named_graphs import (
    complete_graph, cycle_graph, fixture_graph, path_graph, star_graph)


def test_from_edges_validates():
    g = Graph.from_edges(3, [(0, 1), (2, 1)])
    assert g.sorted_edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(0, [])


def test_parse_edge_list_basic():
    g = parse_edge_list("3\n0 1\n1 2\n")
    assert g.n == 3 and g.sorted_edges() == [(0, 1), (1, 2)]


def test_parse_edge_list_one_based_and_comments():
    text = "# leading comment\n3 1-based\n1 2  # rung\n\n2 3\n"
    g = parse_edge_list(text)
    assert g.sorted_edges() == [(0, 1), (1, 2)]


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("3\nnope\n")
    with pytest.raises(GraphParseError, match="line 3"):
        parse_edge_list("3\n0 1\n0 1\n")  # duplicate
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("3\n0 3\n")  # out of range
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("2\n1 1\n")  # self loop
    with pytest.raises(GraphParseError, match="line 1"):
        parse_edge_list("x y\n")
    with pytest.raises(GraphParseError, match="flag"):
        parse_edge_list("3 2-based\n")
    with pytest.raises(GraphParseError):
        parse_edge_list("")
    # an integer is an optional '-' and ASCII digits, in the header and in
    # every endpoint alike; int alone would take each of these tokens
    for token in ("1_0", "+1", "\u0662", "\uff12"):
        with pytest.raises(GraphParseError,
                           match="line 3: non-integer endpoint"):
            parse_edge_list(f"11\n0 1\n0 {token}\n")
    with pytest.raises(GraphParseError,
                       match="line 2: expected vertex count"):
        parse_edge_list("# fullwidth three\n\uff13\n0 1\n")


def test_format_edge_list_round_trip():
    g = fixture_graph("g3")
    assert parse_edge_list(format_edge_list(g)) == g
    assert parse_edge_list(format_edge_list(g, one_based=True)) == g


def test_connectivity_and_trees():
    # connectivity is decided where distances are computed; a connected
    # graph is a tree exactly when it has n - 1 edges
    oracles.distance_row(path_graph(6))
    oracles.distance_row(Graph(1, frozenset()))
    for edges in ([(0, 1), (2, 3)], [(0, 1), (1, 2), (0, 2)]):
        with pytest.raises(DisconnectedGraphError):
            oracles.distance_row(Graph(4, frozenset(edges)))
    for g, want in ((star_graph(5), True), (path_graph(6), True),
                    (cycle_graph(4), None), (complete_graph(4), None)):
        assert check_tree_determinant(g, oracles.distance_row(g)) is want, g


def test_distance_data_path4():
    dd = oracles.distance_row(path_graph(4))
    assert dd.dist.tolist() == [
        [0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]
    assert dd.tr.tolist() == [6, 4, 4, 6]
    assert dd.wiener == 10
    assert dd.p.tolist() == [3, 2, 2, 3]
    # sdd[i] = sum_k dist[i][k] * tr[k]
    assert dd.sdd.tolist() == [30, 22, 22, 30]


def test_distance_data_single_vertex():
    dd = oracles.distance_row(Graph(1, frozenset()))
    assert dd.dist.tolist() == [[0]]
    assert dd.wiener == 0 and dd.p.tolist() == [0] and dd.sdd.tolist() == [0]


def test_distance_data_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        oracles.distance_row(Graph(3, frozenset([(0, 1)])))


def test_transmission_regularity():
    # analyze's transmission_regular: the common transmission k, else null
    for name, k in (("C5", 6), ("K4", 3), ("P4", None),
                    # single vertex is trivially regular with k = 0
                    ("K1", 0)):
        doc = json.loads(cmd_analyze(name, fmt="json")[1])
        assert doc["transmission_regular"] == k, name


def test_fixture_transmissions():
    want = {
        "ex1": [4, 6, 5, 5, 6],
        "ex2": [14] * 9,
        "g1": [26, 26, 24, 24, 26, 26, 24, 26, 26, 26, 24, 26],
        "g2": [26, 22, 22, 22, 24, 24, 24, 24, 24, 24, 24, 24],
        "g3": [24, 22, 22, 22, 24, 22, 24, 22, 22, 22, 22, 24],
    }
    for name, tr in want.items():
        dd = oracles.distance_row(fixture_graph(name))
        assert dd.tr.tolist() == tr, name


def test_fixtures_g1_g2_g3_are_cubic():
    for name in ("g1", "g2", "g3"):
        degrees = adjacency_stack([fixture_graph(name)]).sum(axis=-1)
        assert degrees.tolist() == [[3] * 12], name


def test_enumerate_labeled_counts_match_recurrence():
    for n in range(1, 6):
        got = sum(1 for _ in enumerate_connected(n))
        assert got == oracles.labeled_connected_count(n), n
    for n in range(1, 8):
        got = sum(len(a) for a in connected_stacks(n))
        assert got == oracles.labeled_connected_count(n), n
    assert got == 1_866_256


def test_connected_masks_equal_a_bfs_over_every_mask():
    # the stacks, read off the class table, against the oracle BFS of all
    # 2^P masks
    for n in range(1, 7):
        got = [oracles.edge_mask(g.edges, n) for adj in connected_stacks(n)
               for g in adjacency_graphs(adj)]
        assert got == list(oracles.connected_masks(n)), n
    assert oracles.connected_masks(1) == (0,)
    assert oracles.connected_masks(2) == (1,)


def test_enumerate_is_deterministic_and_sorted():
    first = [g.sorted_edges() for g in enumerate_connected(4)]
    second = [g.sorted_edges() for g in enumerate_connected(4)]
    assert first == second
    assert len(set(map(tuple, first))) == len(first)


def test_enumerate_cap():
    with pytest.raises(ValueError, match="graph6"):
        list(enumerate_connected(8))
    with pytest.raises(ValueError):
        list(enumerate_connected(0))


def class_minima(n):
    """The minimum of each isomorphism class on n vertices as a Graph, in
    class order."""
    return [g for adj in connected_classes(n).stacks()
            for g in adjacency_graphs(adj)]


def test_enumerate_dedup_counts():
    for n in range(1, 8):
        got = len(class_minima(n))
        assert got == oracles.UNLABELED_CONNECTED[n], n


def test_enumerate_dedup_classes_match_networkx():
    nx = pytest.importorskip("networkx")
    reps = class_minima(5)
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            ga = nx.Graph(reps[a].sorted_edges())
            ga.add_nodes_from(range(5))
            gb = nx.Graph(reps[b].sorted_edges())
            gb.add_nodes_from(range(5))
            assert not nx.is_isomorphic(ga, gb)


def test_sample_connected_equals_one_draw_at_a_time():
    # n = 12 and 20 draw 66 and 190 pairs, past one 63-bit word; every
    # count spans several blocks of chunk_limit(n) draws
    for n, count, seed in ((1, 300, 1), (2, 600, 2), (7, 600, 7),
                           (12, 300, 4), (20, 100, 6)):
        got = [(g.n, g.edges) for g in sample_connected(n, count, seed)]
        want = oracles.sample_connected_edges(n, count, seed)
        assert got == [(n, edges) for edges in want], n
    assert list(sample_connected(7, 0, seed=7)) == []


def test_sample_connected_deterministic_and_connected():
    a = [g.sorted_edges() for g in sample_connected(6, 50, seed=11)]
    b = [g.sorted_edges() for g in sample_connected(6, 50, seed=11)]
    c = [g.sorted_edges() for g in sample_connected(6, 50, seed=12)]
    assert a == b
    assert a != c
    for edges in a:
        assert float("inf") not in oracles.bfs_distance_matrix(6, edges)[0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_distance_matrix_properties(data):
    n = data.draw(st.integers(min_value=2, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # spanning-tree edges keep it connected, extras drawn freely
    perm = data.draw(st.permutations(range(n)))
    tree = [(min(perm[i], perm[i + 1]), max(perm[i], perm[i + 1]))
            for i in range(n - 1)]
    extra = data.draw(st.lists(st.sampled_from(pairs), max_size=8))
    g = Graph(n, frozenset(tree) | frozenset(extra))
    dd = oracles.distance_row(g)
    d = dd.dist
    assert (d == d.T).all()
    assert (np.diag(d) == 0).all()
    ref = oracles.bfs_distance_matrix(n, g.sorted_edges())
    assert d.tolist() == ref
    # distance 1 exactly on edges
    for i in range(n):
        for j in range(i + 1, n):
            assert (d[i, j] == 1) == ((i, j) in g.edges)
    # triangle inequality
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, j] <= d[i, k] + d[k, j]
    assert dd.tr.tolist() == d.sum(axis=1).tolist()
    assert dd.wiener * 2 == int(d.sum())


@st.composite
def padded_stacks(draw):
    """Graphs of mixed n >= 1 with free edge sets, so both connected and
    disconnected graphs occur, as a (B, N, N) boolean stack padded to their
    largest n, plus their vertex counts and edge lists."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=9),
                          min_size=1, max_size=12))
    edge_sets = []
    for n in sizes:
        pairs = list(itertools.combinations(range(n), 2))
        edge_sets.append(sorted(
            draw(st.sets(st.sampled_from(pairs))) if pairs else []))
    size = max(sizes)
    adj = np.zeros((len(sizes), size, size), dtype=bool)
    for b, edges in enumerate(edge_sets):
        for u, v in edges:
            adj[b, u, v] = adj[b, v, u] = True
    return np.array(sizes), edge_sets, adj


@settings(max_examples=80, deadline=None)
@given(padded_stacks())
def test_connected_distances_match_oracle(stack):
    n, edge_sets, adj = stack
    connected, dist = connected_distances(adj, n)
    assert dist.dtype == np.int64
    assert dist.shape == (connected.sum(), *adj.shape[1:])
    rows = iter(dist)
    for k, edges, flag in zip(n.tolist(), edge_sets, connected.tolist()):
        ref = oracles.bfs_distance_matrix(k, edges)
        assert flag == all(x != float("inf") for row in ref for x in row)
        if flag:
            d = next(rows)
            assert d[:k, :k].tolist() == ref
            assert not d[k:].any() and not d[:, k:].any()


def test_distance_data_batch_matches_single():
    graphs = list(enumerate_connected(5))[::37]
    singles = [oracles.distance_row(g) for g in graphs]
    batch = distance_data(np.stack([dd.dist for dd in singles]))
    for b, dd in enumerate(singles):
        assert dd.dist2 == int((dd.dist ** 2).sum())
        assert dd.tr2 == int((dd.tr ** 2).sum())
        for name in ("tr", "p", "sdd"):
            assert getattr(batch, name)[b].tolist() == getattr(dd, name).tolist()
        for name in ("wiener", "dist2", "tr2"):
            assert type(getattr(dd, name)) is int
            assert int(getattr(batch, name)[b]) == getattr(dd, name)
    # a padded batch of mixed n: each derived field against plain BFS
    # distances, 0 past a graph's own n, and carried by take and row
    graphs = [complete_graph(1), path_graph(2), complete_graph(4),
              cycle_graph(5), star_graph(6), fixture_graph("ex1"),
              complete_graph(7), cycle_graph(6)] + graphs[:3]
    n = np.array([g.n for g in graphs])
    batch = distance_data(
        connected_distances(adjacency_stack(graphs), n)[1], n)
    keep = np.arange(len(graphs)) % 3 != 1
    taken = batch.take(keep)
    for name, value in vars(batch).items():
        assert getattr(taken, name).dtype == value.dtype, name
        assert getattr(taken, name).tolist() == value[keep].tolist(), name
    for b, g in enumerate(graphs):
        d = oracles.bfs_distance_matrix(g.n, g.edges)
        tr = [sum(row) for row in d]
        sdd = [sum(x * t for x, t in zip(row, tr)) for row in d]
        want = {
            "dsq": [sum(row[i] ** 2 for row in d) for i in range(g.n)],
            "q2": [2 * (t * t + x) for t, x in zip(tr, sdd)],
            "regular": min(tr) == max(tr),
            "complete": all(d[i][j] == 1 for i in range(g.n)
                            for j in range(g.n) if i != j)}
        row = batch.row(b)
        for name in ("dsq", "q2"):
            assert getattr(batch, name)[b].tolist() == (
                want[name] + [0] * (n.max() - g.n)), (name, g.n)
            assert getattr(row, name).tolist() == want[name], (name, g.n)
        for name in ("regular", "complete"):
            assert getattr(batch, name).dtype == bool
            assert type(getattr(row, name)) is bool
            assert getattr(row, name) is want[name], (name, g.n)
    # both values of each flag occur: K_n and C_n are regular, the star and
    # ex1 are not, and only K_n is complete
    assert batch.regular.tolist()[:8] == [True] * 4 + [False, False] + [
        True] * 2
    assert batch.complete.tolist() == [True] * 3 + [False] * 3 + [
        True] + [False] * 4


def random_tree(n, rng):
    return Graph(n, frozenset((v, rng.randrange(v)) for v in range(1, n)))


def test_connected_distances_of_small_and_large_graphs():
    rng = random.Random(3)
    for n in (5, 96, 97):
        graphs = [path_graph(n), cycle_graph(n),
                  Graph(n, frozenset((v, v + 1) for v in range(1, n - 1))),
                  random_tree(n, rng)]
        connected, dist = connected_distances(adjacency_stack(graphs))
        assert connected.tolist() == [True, True, False, True]
        assert dist.dtype == np.int64 and dist.shape == (3, n, n)
        singles = [oracles.bfs_distance_matrix(g.n, g.edges)
                   for g in itertools.compress(graphs, connected)]
        assert (dist == np.array(singles)).all(), n
    for g in (path_graph(150), cycle_graph(250), random_tree(200, rng)):
        connected, dist = connected_distances(adjacency_stack([g]))
        assert connected.tolist() == [True]
        assert dist.tolist() == [oracles.bfs_distance_matrix(g.n, g.edges)]
    for n in (4, 97, 250):
        connected, dist = connected_distances(
            adjacency_stack([Graph(n, frozenset([(0, 1)]))]))
        assert connected.tolist() == [False] and dist.shape == (0, n, n)


def test_a_padded_large_stack_matches_single_graphs():
    # padding neither disconnects a graph nor shows in its distances
    cycle = [(v, (v + 1) % 49) for v in range(49)]
    two_cycles = Graph(98, frozenset(
        cycle + [(49 + u, 49 + v) for u, v in cycle]))
    graphs = [path_graph(97), cycle_graph(100), two_cycles, path_graph(150),
              random_tree(200, random.Random(3)), cycle_graph(250)]
    adj = adjacency_stack(graphs)
    assert adj.shape == (6, 250, 250)
    connected, dist = connected_distances(adj, np.array([g.n for g in graphs]))
    assert connected.tolist() == [True, True, False, True, True, True]
    assert dist.dtype == np.int64 and dist.shape == (5, 250, 250)
    alone = [connected_distances(adjacency_stack([g])) for g in graphs]
    assert [flag.tolist() for flag, _ in alone] == [
        [True], [True], [False], [True], [True], [True]]
    kept = [(g, want) for g, (flag, want) in zip(graphs, alone) if flag[0]]
    for d, (g, want) in zip(dist, kept):
        assert d[:g.n, :g.n].tolist() == want[0].tolist()
        assert not d[g.n:].any() and not d[:, g.n:].any()


def test_too_few_edges_is_disconnected_before_any_bfs(monkeypatch):
    # n - 1 edges are needed to connect n vertices; a sparser graph never
    # reaches the reach doubling, at any n, and a Graph of one is rejected,
    # alone or in a sweep, before its adjacency stack is built
    def no_bfs(*args):
        raise AssertionError("BFS on a graph with fewer than n - 1 edges")
    monkeypatch.setattr(graphs_module, "_reach_levels", no_bfs)

    def sparse_graphs(n):
        path = frozenset((v, v + 1) for v in range(1, min(n, 40) - 1))
        return [Graph(n, path), Graph(n, frozenset([(0, 1)]))]
    for n in (3, 96, 97, 150, 250):
        connected, dist = connected_distances(
            adjacency_stack(sparse_graphs(n)))
        assert connected.tolist() == [False, False]
        assert dist.shape == (0, n, n)

    def no_stack(*args):
        raise AssertionError("stack of a graph with fewer than n - 1 edges")
    monkeypatch.setattr(graphs_module, "adjacency_stack", no_stack)
    monkeypatch.setattr(scan, "adjacency_stack", no_stack)
    # the graph6 of a graph on 10^9 vertices holds n(n-1)/2 bits; its
    # vertex count and edges stand in for it
    monkeypatch.setattr(
        scan, "encode_graph6", lambda g: (g.n, g.sorted_edges()))
    message = "graph is disconnected (vertex 0 cannot reach every vertex)"
    for n in (3, 96, 97, 150, 250, 10 ** 9):
        sparse = sparse_graphs(n)
        want = sorted(((g.n, g.sorted_edges()), message) for g in sparse)
        assert scan_conjecture(sparse).errors == want
        assert scan_soundness(sparse).errors == want
        with pytest.raises(DisconnectedGraphError, match="vertex 0"):
            oracles.distance_row(sparse[1])


def test_enumerate_yields_ascending_connected_masks():
    for n in range(1, 7):
        got = [oracles.edge_mask(g.edges, n) for g in enumerate_connected(n)]
        assert got == list(oracles.connected_masks(n)), n
    assert len(got) == oracles.labeled_connected_count(6)


def test_pair_ends_are_the_pair_order_and_read_only():
    for n in (1, 2, 7, 100):
        rows, cols = graphs_module._pair_ends(n)
        pairs = list(itertools.combinations(range(n), 2))
        assert list(zip(rows.tolist(), cols.tolist())) == pairs
        assert graphs_module._pair_ends(n)[0] is rows  # cached per n
        with pytest.raises(ValueError, match="read-only"):
            rows[:1] = 0


def test_connected_stacks_chunk_the_enumerated_graphs():
    # full chunks of SCAN_CHUNK graphs (SCAN_CELLS binds above n = 8 only),
    # holding the graphs of enumerate_connected, or the class minima, in
    # their order
    for n in range(1, 7):
        classes = connected_classes(n)
        for dedup in (False, True):
            stacks = list(classes.stacks() if dedup else connected_stacks(n))
            for a in stacks:
                assert a.dtype == bool and a.shape[1:] == (n, n)
                assert len(a) <= SCAN_CHUNK and a.size <= SCAN_CELLS
            assert all(len(a) == SCAN_CHUNK for a in stacks[:-1])
            assert len(stacks[-1]) > 0
            got = adjacency_graphs(np.concatenate(stacks))
            if dedup:
                assert [oracles.edge_mask(g.edges, n) for g in got] == (
                    classes.minima.tolist()), n
            else:
                assert got == list(enumerate_connected(n)), n


def test_enumerate_dedup_yields_ascending_minimal_representatives():
    for n in range(1, 7):
        reps = [oracles.edge_mask(g.edges, n) for g in class_minima(n)]
        assert reps == sorted(reps)
        assert oracles.canonical_masks(reps, n).tolist() == reps, n


def test_class_table_matches_the_oracles():
    assert (np.iinfo(graphs_module._CLASS).max
            >= oracles.UNLABELED_CONNECTED[_ENUM_CAP])
    # the largest orbit image, every pair's bit set, is exact in the orbit
    # dtype, and so is every smaller integer
    largest = (1 << _ENUM_CAP * (_ENUM_CAP - 1) // 2) - 1
    assert int(graphs_module._ORBIT(largest)) == largest
    for n in range(1, 8):
        classes = connected_classes(n)
        count = len(classes.minima)
        assert count == oracles.UNLABELED_CONNECTED[n], n
        assert classes.weights().sum() == oracles.labeled_connected_count(n)
        assert np.array_equal(classes.table[classes.minima], np.arange(count))
        if n < 7:
            assert np.flatnonzero(classes.table >= 0).tolist() == list(
                oracles.connected_masks(n)), n
        else:
            # the oracle BFS over all 2^21 masks is too slow: the marked
            # masks are the orbits of the minima, so connected when the
            # minima are, and as many as A001187 counts (the weights
            # above), so they are every connected mask
            connected, _ = connected_distances(
                graphs_module._int64_stack(classes.minima, n))
            assert connected.all()
    classes = connected_classes(6)
    assert np.array_equal(classes.weights(),
                          oracles.orbit_sizes(classes.minima, 6))
    with pytest.raises(ValueError, match="graph6"):
        connected_classes(_ENUM_CAP + 1)


def test_class_candidates_hold_every_class_minimum():
    # a candidate that is its own canonical form is the minimum of its
    # class, one per class, so as many of those as classes is every minimum
    for n in range(1, 8):
        candidates = graphs_module._class_candidates(n)
        assert candidates.dtype == np.int64
        assert (np.diff(candidates) > 0).all(), n
        if n < 7:
            assert np.isin(candidates, oracles.connected_masks(n)).all(), n
            fixed = oracles.canonical_masks(candidates, n) == candidates
            assert fixed.sum() == oracles.UNLABELED_CONNECTED[n], n
        else:
            # at n = 7 the oracle BFS over all 2^21 masks and the brute
            # force over 5,040 relabelings are too slow: the candidates are
            # checked by connected_distances, and the minima that
            # test_enumerate_dedup_at_7_is_one_minimum_per_class checks
            # against the oracle stand in
            connected, _ = connected_distances(
                graphs_module._int64_stack(candidates, n))
            assert connected.all()
        assert np.isin(connected_classes(n).minima, candidates).all(), n
    # the reduction itself: a filter that lets more through fails here
    assert len(graphs_module._class_candidates(6)) == 1_069
    assert len(graphs_module._class_candidates(7)) == 15_404


def test_kept_top_parts_are_the_transposition_minimal_masks():
    for m in range(2, 7):
        pairs = list(itertools.combinations(range(m), 2))
        index = {pair: k for k, pair in enumerate(pairs)}
        masks = np.arange(1 << len(pairs), dtype=np.int64)
        bits = (masks[:, None] >> np.arange(len(pairs))) & 1
        kept = np.ones(len(masks), dtype=bool)
        swaps = [p for p in itertools.permutations(range(m))
                 if sum(p[v] != v for v in range(m)) == 2]
        assert len(swaps) == len(pairs)
        for p in swaps:
            pmap = [index[min(p[i], p[j]), max(p[i], p[j])] for i, j in pairs]
            kept &= masks <= (bits << pmap).sum(axis=1)
        got, _ = graphs_module._transposition_minimal(m)
        assert got.tolist() == np.flatnonzero(kept).tolist(), m
    assert len(graphs_module._transposition_minimal(5)[0]) == 43
    assert len(graphs_module._transposition_minimal(6)[0]) == 276


def test_kept_top_parts_carry_their_bfs_components():
    # each column of comps lists, in some order with empty slots, the
    # vertex sets that the oracle BFS reaches from each vertex
    for m in range(0, 7):
        pairs = list(itertools.combinations(range(m), 2))
        kept, comps = graphs_module._transposition_minimal(m)
        assert comps.shape == (m, len(kept)), m
        for mask, column in zip(kept.tolist(), comps.T.tolist()):
            dist = oracles.bfs_distance_matrix(
                m, [p for k, p in enumerate(pairs) if mask >> k & 1])
            want = {sum(1 << u for u in range(m) if row[u] < float("inf"))
                    for row in dist}
            assert sorted(c for c in column if c) == sorted(want), (m, mask)


def test_swap_images_are_built_once_per_k_and_read_only():
    for k in (5, 6):
        images = graphs_module._swap_images(k)
        assert graphs_module._swap_images(k) is images
        assert images.shape == (k * (k - 1) // 2,) * 2
        with pytest.raises(ValueError, match="read-only"):
            images[0, 0] = 0


def test_orbit_images_are_built_once_per_n_and_read_only():
    for n in (6, 7):
        images = connected_classes(n).images
        assert connected_classes(n).images is images
        assert graphs_module._orbit_images(n) is images
        with pytest.raises(ValueError, match="read-only"):
            images[0, 0] = 0


def test_relabelings_follow_itertools_permutations():
    # row p maps each pair to its image under the p-th permutation of
    # itertools.permutations, in its order
    for n in range(1, 8):
        pairs = list(itertools.combinations(range(n), 2))
        index = {pair: k for k, pair in enumerate(pairs)}
        want = [[index[min(p[i], p[j]), max(p[i], p[j])] for i, j in pairs]
                for p in itertools.permutations(range(n))]
        got = graphs_module._relabelings(n)
        assert got.shape == (len(want), len(pairs)), n
        assert got.tolist() == want, n


def test_class_members_are_the_orbit_of_each_minimum():
    for n in range(1, 7):
        classes = connected_classes(n)
        weights = classes.weights()
        every = classes.members(np.arange(len(classes.minima)))
        assert len(every) == len(classes.minima), n
        for c, stack in enumerate(every):
            masks = [oracles.edge_mask(g.edges, n)
                     for g in adjacency_graphs(stack)]
            assert len(masks) == weights[c] and masks == sorted(masks), (n, c)
            assert set(oracles.canonical_masks(masks, n).tolist()) == {
                int(classes.minima[c])}, (n, c)
        assert sorted(oracles.edge_mask(g.edges, n) for stack in every
                      for g in adjacency_graphs(stack)) == list(
            oracles.connected_masks(n)), n


def test_members_are_the_split_stacks_of_the_member_masks():
    for n in range(1, 8):
        classes = connected_classes(n)
        rows = np.arange(0, len(classes.minima), 7)
        masks, counts = classes.member_masks(rows)
        assert masks.dtype == np.int64 and len(counts) == len(rows), n
        assert counts.tolist() == classes.weights()[rows].tolist(), n
        stacks = classes.members(rows)
        assert [len(a) for a in stacks] == counts.tolist(), n
        assert np.array_equal(np.concatenate(stacks),
                              graphs_module._int64_stack(masks, n)), n


def test_members_of_the_classes_the_labeled_scan_lists_at_7(monkeypatch):
    # the rows come from the scan itself, through a spy on member_masks;
    # each class's members are the brute-force orbit of its minimum,
    # ascending
    calls = []
    member_masks = ConnectedClasses.member_masks

    def spy(self, rows):
        calls.append(rows.copy())
        return member_masks(self, rows)

    monkeypatch.setattr(ConnectedClasses, "member_masks", spy)
    classes = connected_classes(7)
    scan_conjecture(classes)
    monkeypatch.undo()
    listed = np.concatenate(calls)
    # 52 classes of strict counterexamples, 1 of equalities within tolerance
    assert len(listed) == 53
    orbits = np.stack(list(oracles.relabeled_masks(classes.minima[listed], 7)))
    for c, stack, orbit in zip(listed.tolist(), classes.members(listed),
                               orbits.T):
        assert stack.dtype == bool, c
        assert [oracles.edge_mask(g.edges, 7)
                for g in adjacency_graphs(stack)] == sorted(set(
                    orbit.tolist())), c


def test_enumerate_dedup_at_7_is_one_minimum_per_class():
    reps = [oracles.edge_mask(g.edges, 7) for g in class_minima(7)]
    assert len(set(reps)) == len(reps)
    assert oracles.canonical_masks(reps, 7).tolist() == reps
    assert (oracles.orbit_sizes(reps, 7).sum()
            == oracles.labeled_connected_count(7))
    nx = pytest.importorskip("networkx")
    atlas = [g for g in nx.graph_atlas_g()
             if len(g) == 7 and nx.is_connected(g)]
    assert len(atlas) == oracles.UNLABELED_CONNECTED[7]
    minima = oracles.canonical_masks(
        [oracles.edge_mask(g.edges, 7) for g in atlas], 7)
    assert sorted(minima.tolist()) == reps
