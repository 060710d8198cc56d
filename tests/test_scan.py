"""Conjecture margin sweeps and the soundness sweep."""

import dataclasses
import math
import random

import numpy as np
import pytest

from distlap import (
    Graph, bounds, certify, connected_classes, connected_stacks,
    encode_graph6, enumerate_connected, operators, read_graph6_stream,
    sample_connected, scan, scan_conjecture, scan_soundness)
from distlap.bounds import _ROW, CLOSED_FORMS, BoundId, closed_form_bounds
from distlap.cli import cmd_scan, scan_document, scan_table, to_canonical_json
from distlap.errors import DisconnectedGraphError
from distlap.graphs import (
    DISCONNECTED, SCAN_CELLS, SCAN_CHUNK, adjacency_graphs, adjacency_stack,
    batch_of_one, chunk_limit, distance_data, too_sparse)
from distlap.named_graphs import (
    complete_graph, cycle_graph, fixture_graph, path_graph, star_graph)
from distlap.scan import (
    HISTOGRAM_EDGES, HISTOGRAM_LABELS, ScanResult, _scan_chunk, _sweep)
from oracles import labeled_connected_count, per_graph_soundness


@pytest.fixture
def chunks(monkeypatch):
    """The (adj.shape, n.tolist()) of each chunk that a sweep cuts its
    stream into, in order, read by a spy on scan._stream_chunks."""
    seen = []

    def spy(source, errors, min_n):
        for chunk in stream_chunks(source, errors, min_n):
            adj, n = chunk[:2]
            seen.append((adj.shape, n.tolist()))
            yield chunk
    stream_chunks = scan._stream_chunks
    monkeypatch.setattr(scan, "_stream_chunks", spy)
    return seen


def test_star5_is_a_strict_counterexample():
    # exact arithmetic: trace bound 8 + 3 = 11, strict bound 7 + sqrt(13.6)
    r = scan_conjecture([star_graph(5)])
    assert r.graphs_tested == 1
    assert len(r.counterexamples) == 1
    g6, trace_bound, strict_bound = r.counterexamples[0]
    assert trace_bound == pytest.approx(11.0, abs=1e-12)
    assert strict_bound == pytest.approx(7 + math.sqrt(13.6), abs=1e-12)
    assert r.min_margin == pytest.approx(math.sqrt(13.6) - 4, abs=1e-12)
    assert r.histogram["< 0"] == 1


def test_star4_is_equality_not_counterexample():
    # both bounds equal 8 exactly on this tree
    r = scan_conjecture([star_graph(4)])
    assert r.min_margin == 0.0
    assert r.counterexamples == []
    assert len(r.equalities) == 1
    assert r.histogram["[0, 0.5)"] == 1


def test_transmission_regular_graphs_are_skipped():
    r = scan_conjecture([cycle_graph(5), complete_graph(4)])
    assert r.graphs_tested == 0
    assert r.skipped_regular == 2
    assert r.min_margin is None
    assert r.counterexamples == [] and r.equalities == []


def test_error_records_instead_of_raises():
    r = scan_conjecture([
        Graph.from_edges(2, [(0, 1)]),          # too small
        Graph(4, frozenset({(0, 1), (2, 3)})),  # disconnected
        star_graph(4),
    ])
    assert r.graphs_tested == 1
    assert len(r.errors) == 2
    messages = sorted(msg for _, msg in r.errors)
    assert any("n >= 3" in m for m in messages)
    assert any("disconnected" in m.lower() or "not connected" in m.lower()
               for m in messages)


def test_too_small_and_disconnected_rows_follow_one_rule():
    # K1, K2, the edgeless graphs on 2 and 3 vertices and P3, as Graphs
    # (the edgeless ones too sparse to be stacked), as one-graph stacks
    # and, for margins, as the classes of n <= 3: the margin sweep lists a
    # graph below 3 vertices as too small before connectivity is tested,
    # and the soundness sweep lists the disconnected graphs only
    k1, k2, e2, e3, p3 = graphs = [
        complete_graph(1), complete_graph(2), Graph(2, frozenset()),
        Graph(3, frozenset()), path_graph(3)]
    stacks = [adjacency_stack([g]) for g in graphs]
    too_small = sorted((encode_graph6(g), f"margin needs n >= 3, got n={g.n}")
                       for g in (k1, k2, e2))
    margin = sorted(too_small + [(encode_graph6(e3), DISCONNECTED)])
    assert scan_conjecture(graphs).errors == margin
    assert scan_conjecture(stacks).errors == margin
    classes = sorted(sum((scan_conjecture(connected_classes(n)).errors
                          for n in (1, 2, 3)), []))
    assert classes == scan_conjecture([k1, k2, p3]).errors == [
        row for row in too_small if row[0] != encode_graph6(e2)]
    soundness = sorted((encode_graph6(g), DISCONNECTED) for g in (e2, e3))
    for form in (graphs, stacks):
        got = scan_soundness(form)
        assert got.errors == soundness and got.graphs_checked == 3


def test_graphs_with_no_vertices_are_error_entries():
    # a Graph on 0 vertices and a (1, 0, 0) stack, alone and beside a
    # graph that both sweeps check, become an error entry in either sweep;
    # chunk_limit counts them as graphs on one vertex
    assert chunk_limit(0) == chunk_limit(1) == SCAN_CHUNK
    empty = ("?", scan.EMPTY)
    for form in (Graph(0, frozenset()), np.zeros((1, 0, 0), dtype=bool)):
        for sweep in (scan_soundness, scan_conjecture):
            assert sweep([form]).errors == [empty], (sweep, form)
            got = sweep([form, star_graph(5), form])
            assert got.errors == [empty, empty], (sweep, form)
        assert scan_soundness([form, star_graph(5)]).graphs_checked == 1
        assert scan_conjecture([star_graph(5), form]).graphs_tested == 1


def test_full_sweep_n4():
    r = scan_conjecture(enumerate_connected(4))
    assert r.graphs_tested + r.skipped_regular == labeled_connected_count(4)
    assert r.skipped_regular == 4  # labeled 4-cycles and the complete graph
    assert r.counterexamples == []
    assert len(r.equalities) == 4  # the labeled stars
    assert r.min_margin == 0.0
    assert sum(r.histogram.values()) == r.graphs_tested


def test_full_sweep_n5_finds_the_stars():
    r = scan_conjecture(enumerate_connected(5))
    assert r.graphs_tested + r.skipped_regular == labeled_connected_count(5)
    assert len(r.counterexamples) == 5  # one per hub choice
    assert r.min_margin == pytest.approx(math.sqrt(13.6) - 4, abs=1e-12)
    # every counterexample is a labeled copy of the 4-spoke star
    star_margin = math.sqrt(13.6) - 4
    for _, trace_bound, strict_bound in r.counterexamples:
        assert strict_bound - trace_bound == pytest.approx(star_margin, abs=1e-12)


def test_n7_classes_list_the_exact_tie_of_k2_join_c5():
    # K2 joined with C5 (T = 8, W = 26, dist2 = 72, tr2 = 392): both
    # bounds are exactly 12, d2 = 8 + sqrt(16) and n3 = 26/3 + sqrt(100/9),
    # and their exact radicands give a margin of exactly 0.0, so its 252
    # labelings are the only equalities at n = 7
    r = scan_conjecture(connected_classes(7))
    assert len(r.equalities) == 252
    assert r.equalities[0][0] == "FLr~w"
    assert "F}vvO" in [g6 for g6, _, _ in r.equalities]
    assert {(trace, strict) for _, trace, strict in r.equalities} == {
        (12.0, 12.0)}
    assert len(r.counterexamples) == 45234


def test_scan_is_stream_order_independent():
    graphs = list(enumerate_connected(5))
    shuffled = graphs[:]
    random.Random(11).shuffle(shuffled)
    a = scan_conjecture(graphs)
    b = scan_conjecture(shuffled)
    assert a.counterexamples == b.counterexamples
    assert a.equalities == b.equalities
    assert a.min_margin == b.min_margin
    assert a.histogram == b.histogram


def test_slack_must_be_finite_and_nonnegative():
    for slack in (-1e-9, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="slack must be finite"):
            scan_conjecture([star_graph(5)], slack=slack)
    r = scan_conjecture([star_graph(5)], slack=0.0)
    assert r.graphs_tested == 1 and len(r.counterexamples) == 1


def test_slack_reclassifies_but_keeps_consistency():
    r = scan_conjecture([star_graph(5)], slack=1.0)
    assert r.counterexamples == []
    assert len(r.equalities) == 1  # negative margin within the wide slack
    assert r.min_margin < 0
    assert r.slack == 1.0


def test_fixture_margins_are_positive():
    expect = {"g1": 0.712478, "g2": 2.176383, "g3": 1.372182}
    for name, want in expect.items():
        r = scan_conjecture([fixture_graph(name)])
        assert r.min_margin == pytest.approx(want, abs=5e-4), name


def test_soundness_clean_small_n():
    for n in range(1, 5):
        rep = scan_soundness(enumerate_connected(n))
        assert rep.graphs_checked == labeled_connected_count(n)
        assert rep.violations == []
        assert rep.errors == []


def test_soundness_clean_on_fixtures():
    rep = scan_soundness(fixture_graph(name)
                         for name in ("ex1", "ex2", "g1", "g2", "g3"))
    assert rep.graphs_checked == 5
    assert rep.violations == []


def test_soundness_records_disconnected_as_error():
    rep = scan_soundness([Graph(4, frozenset({(0, 1), (2, 3)}))])
    assert rep.graphs_checked == 0
    assert len(rep.errors) == 1


def test_a_reversed_pair_is_listed_under_the_real_graph():
    # the trusting constructor may hold a pair (u, v) as (v, u); a row
    # rejected by its edge count, a disconnected row of a stack and a
    # counterexample all list the graph6 of the graph as validated
    cases = [[(1, 0), (3, 2)],                  # too sparse to connect
             [(1, 0), (2, 1), (2, 0), (4, 3)],  # disconnected, stacked
             [(1, 0), (2, 0), (3, 0), (4, 0)]]  # the star, a counterexample
    trusted = [Graph(5, frozenset(pairs)) for pairs in cases]
    valid = [Graph.from_edges(5, pairs) for pairs in cases]
    for g, h in zip(trusted, valid):
        assert encode_graph6(g) == encode_graph6(h)
    got = scan_conjecture(trusted)
    assert got == scan_conjecture(valid)
    assert [g6 for g6, _ in got.errors] == sorted(
        encode_graph6(h) for h in valid[:2])
    assert [row[0] for row in got.counterexamples] == [
        encode_graph6(star_graph(5))]
    assert scan_soundness(trusted) == scan_soundness(valid)


def per_graph_scan(graphs, slack=1e-7):
    """The margin sweep one graph at a time: the L_D2 and L_N3 rows of
    closed_form_bounds on every graph of the stream as a batch of one."""
    result = ScanResult(slack=slack)
    result.histogram = {label: 0 for label in HISTOGRAM_LABELS}
    for g in graphs:
        g6 = encode_graph6(g)
        if g.n < 3:
            result.errors.append((g6, f"margin needs n >= 3, got n={g.n}"))
            continue
        try:
            dd = distance_data(batch_of_one(g))
        except DisconnectedGraphError as exc:
            result.errors.append((g6, str(exc)))
            continue
        if dd.tmin[0] == dd.tmax[0]:
            result.skipped_regular += 1
            continue
        forms = closed_form_bounds(dd, dd.tmin == dd.tmax)[:, 0].tolist()
        upper_strict = forms[CLOSED_FORMS.index(BoundId.L_D2)]
        upper_trace = forms[CLOSED_FORMS.index(BoundId.L_N3)]
        margin = upper_strict - upper_trace
        result.graphs_tested += 1
        if result.min_margin is None or margin < result.min_margin:
            result.min_margin = margin
        result.histogram[next(
            (label for edge, label in zip(HISTOGRAM_EDGES, HISTOGRAM_LABELS)
             if margin < edge), HISTOGRAM_LABELS[-1])] += 1
        if margin < -slack:
            result.counterexamples.append((g6, upper_trace, upper_strict))
        elif margin <= 0.0:
            result.equalities.append((g6, upper_trace, upper_strict))
    for listed in (result.counterexamples, result.equalities, result.errors):
        listed.sort(key=lambda item: item[0])
    return result


def test_chunked_scan_equals_per_graph_evaluation():
    rng = random.Random(5)
    stream = []
    for n, count in ((1, 5), (2, 5), (3, 30), (4, 40), (5, 60), (6, 300),
                     (7, SCAN_CHUNK + 70), (8, 60),
                     (12, SCAN_CELLS // 144 + 7)):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(count):
            density = rng.uniform(0.15, 0.95)
            stream.append(Graph(n, frozenset(
                p for p in pairs if rng.random() < density)))
    stream += [star_graph(n) for n in range(3, 9)]
    stream += [cycle_graph(n) for n in range(3, 9)]
    stream += [complete_graph(n) for n in range(1, 9)]
    # large graphs, one per chunk
    for n in (96, 100):
        stream += [path_graph(n), cycle_graph(n), star_graph(n),
                   Graph(n, frozenset((v, rng.randrange(v))
                                      for v in range(1, n))),
                   Graph(n, frozenset((v, v + 1) for v in range(1, n - 1)))]
    stream += [path_graph(150), cycle_graph(250), Graph(200, frozenset(
        (v, rng.randrange(v)) for v in range(1, 200)))]
    rng.shuffle(stream)
    got = scan_conjecture(stream)
    want = per_graph_scan(stream)
    assert got.counterexamples and got.equalities and got.skipped_regular
    assert {msg.split()[0] for _, msg in got.errors} == {"margin", "graph"}
    for name in ("graphs_tested", "skipped_regular", "min_margin",
                 "counterexamples", "equalities", "histogram", "errors",
                 "slack"):
        assert getattr(got, name) == getattr(want, name), name
    assert type(got.min_margin) is float
    for _, trace_bound, strict_bound in got.counterexamples + got.equalities:
        assert type(trace_bound) is float and type(strict_bound) is float


def test_regular_graphs_in_a_chunk_never_reach_the_bounds(monkeypatch):
    # a regular graph is skipped before the bounds, as one graph at a time,
    # however the chunk is mixed: closed_form_bounds sees the star only
    n = 208
    seen = []

    def spy(dd, regular, count):
        seen.append((dd.tmin == dd.tmax).tolist())
        return closed_form_bounds(dd, regular, count)
    monkeypatch.setattr(scan, "closed_form_bounds", spy)
    result = ScanResult(slack=1e-7)
    result.histogram = {label: 0 for label in HISTOGRAM_LABELS}
    # one chunk of both rows, as no stream of n = 208 would cut it
    stack = adjacency_stack([complete_graph(n), star_graph(n)])
    rows = []
    for dd, weight, listed in _sweep(
            [scan._chunk(stack, np.array([n, n]))], result.errors, 3):
        rows.append(len(dd.n))
        _scan_chunk(result, dd, weight, listed)
    want = per_graph_scan([complete_graph(n), star_graph(n)])
    assert rows == [2]
    assert seen == [[False]]
    assert result.skipped_regular == want.skipped_regular == 1
    assert result.graphs_tested == want.graphs_tested == 1
    assert result.min_margin == want.min_margin
    assert result.histogram == want.histogram


@pytest.mark.parametrize("dedup", [False, True])
def test_sweeps_over_stacks_equal_sweeps_over_graphs(dedup):
    # the labeled stacks of n, or the stacks of its class minima
    for n in range(1, 7):
        stacks = list(connected_classes(n).stacks() if dedup
                      else connected_stacks(n))
        graphs = [g for adj in stacks for g in adjacency_graphs(adj)]
        for sweep in (scan_conjecture, scan_soundness):
            got = sweep(iter(stacks))
            want = sweep(graphs)
            assert got == want, (sweep.__name__, n)
            assert repr(got) == repr(want), (sweep.__name__, n)


def test_class_weighted_scan_equals_the_per_graph_scan():
    # the class path visits one graph per class, so the per-graph sweep of
    # every labeled Graph is its independent check, output included
    for n in range(1, 7):
        got = scan_conjecture(connected_classes(n))
        want = scan_conjecture(enumerate_connected(n))
        assert got == want and repr(got) == repr(want), n
        if n < 3:
            assert got.errors, n  # each member listed as an error
            continue
        params = {"enumerate": n, "dedup": False, "slack": 1e-7}
        assert cmd_scan(enumerate_n=n, fmt="json") == (
            0, to_canonical_json(scan_document(want, params))), n
        assert cmd_scan(enumerate_n=n) == (0, scan_table(want, params)), n
    assert want.counterexamples and want.skipped_regular


def test_mixed_stream_of_graphs_and_stacks_equals_the_graph_stream(
        chunks):
    # runs of same-n graphs, each run either stacked (up to three chunks
    # long, so a stack spans chunks) or left as single Graphs, shuffled
    rng = random.Random(17)
    pieces = []
    for n, count in ((1, 3), (2, 5), (4, 40), (5, 300),
                     (6, 2 * SCAN_CHUNK + 50), (12, 3 * SCAN_CELLS // 144)):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs = []
        for _ in range(count):
            density = rng.uniform(0.15, 0.95)
            graphs.append(Graph(n, frozenset(
                p for p in pairs if rng.random() < density)))
        while graphs:
            size = rng.choice((1, 2, 7, 60, 300, 3 * SCAN_CHUNK))
            run, graphs = graphs[:size], graphs[size:]
            if rng.random() < 0.6:
                pieces.append(([adjacency_stack(run)], run))
            else:
                pieces += [([g], [g]) for g in run]
        pieces.append(([np.zeros((0, n, n), dtype=bool)], []))
    rng.shuffle(pieces)
    mixed = [item for items, _ in pieces for item in items]
    plain = [g for _, run in pieces for g in run]
    assert {type(item) for item in mixed} == {Graph, np.ndarray}

    got = scan_conjecture(mixed)
    chunks = [shape for shape, _ in chunks]
    # a single Graph too sparse to connect is an error without a chunk
    rejected = sum(isinstance(item, Graph) and too_sparse(item)
                   for item in mixed)
    assert rejected and sum(b for b, _, _ in chunks) == len(plain) - rejected
    assert all(b <= SCAN_CHUNK and (b == 1 or b * n * n <= SCAN_CELLS)
               for b, n, _ in chunks)
    want = scan_conjecture(plain)
    assert got.counterexamples and got.errors
    assert got == want and repr(got) == repr(want)
    got = scan_soundness(mixed)
    want = scan_soundness(plain)
    assert got.errors and got.graphs_checked
    assert got == want and repr(got) == repr(want)


def test_stacks_of_one_size_class_pass_through_unpadded(chunks):
    # stacks of n = 4, 5 and 6 in a row, each evaluated as it comes, in
    # unpadded slices of chunk_limit(n), never padded together as the
    # tail of a Graph stream would be; the n = 5 stacks are joined into
    # one, which spans three slices
    stacks = list(connected_stacks(4)) + [
        np.concatenate(list(connected_stacks(5)))] + list(connected_stacks(6))
    graphs = [g for n in (4, 5, 6) for g in enumerate_connected(n)]
    assert sum(map(len, stacks)) == len(graphs)
    want = {sweep: sweep(graphs) for sweep in (scan_conjecture,
                                               scan_soundness)}
    for sweep, result in want.items():
        chunks.clear()
        got = sweep(iter(stacks))
        assert got == result and repr(got) == repr(result), sweep.__name__
        assert len(chunks) == sum(
            -(-len(adj) // chunk_limit(adj.shape[-1])) for adj in stacks)
        for (b, size, _), n in chunks:
            assert set(n) == {size} and b == len(n) <= chunk_limit(size)


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def soundness_stream():
    """A shuffled stream of n = 1..10 longer than one chunk: random graphs
    (some disconnected), complete graphs, cycles, stars, paths, random trees,
    the Petersen graph, the fixtures and K_208."""
    rng = random.Random(9)
    stream = []
    for n, count in ((1, 4), (2, 6), (3, 20), (4, 30), (5, 40), (6, 60),
                     (7, SCAN_CHUNK + 30), (8, 40), (9, 30), (10, 30)):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(count):
            density = rng.uniform(0.15, 0.95)
            stream.append(Graph(n, frozenset(
                p for p in pairs if rng.random() < density)))
    for n in range(3, 11):
        stream += [complete_graph(n), cycle_graph(n), star_graph(n),
                   path_graph(n),
                   Graph(n, frozenset((v, rng.randrange(v))
                                      for v in range(1, n)))]
    stream += [complete_graph(1), complete_graph(2), petersen_graph(),
               complete_graph(208)]
    stream += [fixture_graph(name) for name in ("ex1", "ex2", "g1", "g2")]
    rng.shuffle(stream)
    return stream


def test_chunked_soundness_equals_per_graph_evaluation():
    stream = soundness_stream()
    got = scan_soundness(stream)
    want = per_graph_soundness(stream)
    assert got.errors and not got.violations
    assert got.graphs_checked + len(got.errors) == len(stream)
    assert got == want


@pytest.mark.parametrize(
    "mutation",
    ["bound", "two bounds", "certificate", "guard", "drift", "spectrum",
     "sandwich", "operators"])
def test_chunked_soundness_reports_violations_as_per_graph(
        monkeypatch, mutation):
    # each mutation of shared code makes some graphs of the stream fail, so
    # the chunked sweep has to single them out as one graph at a time does
    eigvalsh = np.linalg.eigvalsh
    if mutation in ("bound", "two bounds"):
        # "bound" raises Q_I5 and Q_I6, which takes the lower bound Q_I5
        # above the radius on most graphs; "two bounds" halves L_I1 (and
        # Q_I2, the same expression) and L_D1, so that a graph fails two
        # bounds, which the sweep must list in the order one graph reports
        # them. bound_values is looked up by name in bounds and in scan
        factor = np.ones((len(BoundId), 1))
        if mutation == "bound":
            factor[[_ROW[BoundId.Q_I5], _ROW[BoundId.Q_I6]]] = 1.001
        else:
            factor[[_ROW[BoundId.L_I1], _ROW[BoundId.Q_I2],
                    _ROW[BoundId.L_D1]]] = 0.5
        for module in (bounds, scan):
            monkeypatch.setattr(
                module, "bound_values", lambda dd, regular, bound=getattr(
                    module, "bound_values"): factor * bound(dd, regular))
    elif mutation == "certificate":
        # every diagnosis meets its radius, so certificates fail
        monkeypatch.setattr(certify, "equality_tol",
                            lambda x: 0.5 + 1e-8 * abs(x))
    elif mutation == "guard":
        # a Wiener index raised by 2% in the closed forms takes the
        # integer L_N3 radicand below 0 on some graphs
        forms = bounds.closed_form_bounds
        monkeypatch.setattr(
            bounds, "closed_form_bounds", lambda dd, regular: forms(
                dataclasses.replace(dd, wiener=dd.wiener + dd.wiener // 50),
                regular))
    elif mutation == "operators":
        # raise one symmetric off-diagonal pair of Q by 1 on the graphs
        # whose trace is 3 mod 7, which moves their Q row sums off the
        # closed form; no graph on one vertex has that trace
        build = operators.build_operators

        def raised(dd):
            ops = build(dd)
            q = ops[2]
            if q.shape[-1] > 1:
                hit = np.trace(q, axis1=-2, axis2=-1) % 7 == 3
                q[..., 0, 1] += hit
                q[..., 1, 0] += hit
            return ops
        monkeypatch.setattr(operators, "build_operators", raised)
    else:
        # shift the spectra of the L and Q matrices whose trace is 3 mod 7:
        # "drift" moves their eigenvalue sums off the trace, "spectrum"
        # keeps the sums and breaks the identities instead, and "sandwich"
        # also takes the radius below the quadratic row-sum sandwich
        def shifted(a):
            w = eigvalsh(a)
            hit = np.trace(a, axis1=-2, axis2=-1) % 7 == 3
            shift = hit * (0.3 * w[..., -1] if mutation == "sandwich"
                           else -1e-3)
            w[..., -1] -= shift
            if mutation != "drift":
                w[..., 0] += shift
            return w
        monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
    stream = soundness_stream()
    got = scan_soundness(stream)
    want = per_graph_soundness(stream)
    assert got == want
    found = {"bound": "Q_I5 unsatisfied", "two bounds": "L_D1 unsatisfied",
             "certificate": "endpoint met",
             "guard": "L_N3: radicand", "drift": "sum drifted",
             "spectrum": "square sum misses",
             "sandwich": "escapes the quadratic row-sum sandwich",
             "operators": "squared signless row sums break the closed form",
             }[mutation]
    assert any(found in message
               for _, message in got.violations + got.errors)
    assert got.graphs_checked > 100


def padded_stream():
    """A shuffled stream of many sizes below 32 vertices, none of which
    fills a chunk of its own n: n = 2 beside n = 3, random graphs of
    n = 4..24 (some disconnected), regular and complete graphs beside
    smaller non-regular ones, disconnected graphs with enough edges to
    reach the BFS, and the stars on 4 and 5 vertices."""
    rng = random.Random(23)
    stream = [path_graph(2), path_graph(3), complete_graph(3)]
    for n, count in ((4, 6), (5, 8), (6, 10), (7, 6), (8, 5), (9, 5),
                     (10, 5), (13, 4), (17, 3), (24, 3)):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(count):
            density = rng.uniform(0.2, 0.9)
            stream.append(Graph(n, frozenset(
                p for p in pairs if rng.random() < density)))
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    stream += [star_graph(4), star_graph(5), complete_graph(7),
               cycle_graph(7), complete_graph(12), cycle_graph(12),
               petersen_graph(), cycle_graph(20), complete_graph(16),
               # K4 plus an isolated vertex, and K4 beside K5
               Graph.from_edges(5, k4),
               Graph.from_edges(9, k4 + [(4 + i, 4 + j) for i, j in k4]
                                + [(4 + i, 8) for i in range(4)])]
    rng.shuffle(stream)
    return stream


@pytest.mark.parametrize("sweep", ["margin", "soundness"])
def test_padded_chunks_equal_per_graph_evaluation(chunks, sweep):
    # every chunk mixes sizes, each graph padded to the chunk's largest n,
    # and the result is the one of the graphs taken one at a time
    stream = padded_stream()
    if sweep == "margin":
        got, want = scan_conjecture(stream), per_graph_scan(stream)
        assert got.counterexamples and got.equalities and got.skipped_regular
        assert {msg for _, msg in got.errors} == {
            "margin needs n >= 3, got n=2", DISCONNECTED}
        # the 4-spoke star, listed from a chunk padded to 7 vertices, under
        # the graph6 of its own 5 vertices
        assert encode_graph6(star_graph(5)) == "Ds_"
        assert "Ds_" in [row[0] for row in got.counterexamples]
    else:
        got, want = scan_soundness(stream), per_graph_soundness(stream)
        assert not got.violations
        assert {msg for _, msg in got.errors} == {DISCONNECTED}
    assert got == want and repr(got) == repr(want)
    # no n fills a chunk during the stream, so all of it is the tail:
    # sorted by n, and cut before the graph that would take a chunk past
    # chunk_limit of its new N (56 at N = 17, 40 at N = 20)
    assert [(len(n), min(n), max(n)) for _, n in chunks] == [
        (56, 2, 17), (4, 20, 24)]
    assert sum((n for _, n in chunks), []) == sorted(
        g.n for g in stream if not too_sparse(g))
    for (_, n), (_, after) in zip(chunks, chunks[1:]):
        assert len(n) + 1 > chunk_limit(after[0])
    for (b, size, _), n in chunks:
        assert b == len(n) <= chunk_limit(size) and size == max(n)
        assert len(set(n)) > 1


def test_a_short_unit_of_six_sizes_forms_one_chunk(chunks):
    # 32 graph6 lines of n = 5..10, as one unit of a sampled stream: no n
    # fills a chunk of chunk_limit(n) graphs, so the tail holds all 32 in
    # one chunk, padded to N = 10
    rng = random.Random(31)
    graphs = [g for n in range(5, 11)
              for g in sample_connected(n, 5, seed=n)]
    graphs += list(sample_connected(7, 2, seed=1))
    rng.shuffle(graphs)
    lines = [encode_graph6(g) + "\n" for g in graphs]
    got = scan_soundness(g for _, g in read_graph6_stream(lines))
    assert got.graphs_checked == len(lines) == 32
    assert chunks == [((32, 10, 10), sorted(g.n for g in graphs))]


@pytest.mark.parametrize("sweep", ["margin", "soundness"])
def test_graphs_fill_unpadded_chunks_of_one_n(chunks, sweep):
    # chunk_limit(n) + extra graphs that reach a chunk at each n, beside
    # too sparse ones, shuffled: while the stream runs, every chunk holds
    # chunk_limit(n) graphs of one n, unpadded, and only the tail, the
    # graphs left of each n, mixes sizes
    rng = random.Random(41)
    stream = []
    count = {n: chunk_limit(n) + extra for n, extra in (
        (4, 30), (5, 9), (6, 41), (7, 256 + 17), (17, 56 + 5), (18, 23),
        (19, 1), (20, 30))}
    for n, k in count.items():
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        while k:
            density = rng.uniform(0.15, 0.95)
            stream.append(Graph(n, frozenset(
                p for p in pairs if rng.random() < density)))
            k -= not too_sparse(stream[-1])
    rng.shuffle(stream)
    if sweep == "margin":
        got, want = scan_conjecture(stream), per_graph_scan(stream)
        assert got.counterexamples and got.skipped_regular
    else:
        got, want = scan_soundness(stream), per_graph_soundness(stream)
        assert not got.violations
    assert {msg for _, msg in got.errors} == {DISCONNECTED}
    assert got == want and repr(got) == repr(want)
    full = sum(k // chunk_limit(n) for n, k in count.items())
    assert full == 10
    for (b, size, _), n in chunks[:full]:
        assert set(n) == {size} and b == chunk_limit(size)
    tail = chunks[full:]
    assert sum((n for _, n in tail), []) == sorted(
        n for n, k in count.items() for _ in range(k % chunk_limit(n)))
    assert any(len(set(n)) > 1 for _, n in tail)
