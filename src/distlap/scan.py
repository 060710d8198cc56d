"""Sweeps over graph streams: conjecture margins and bound soundness.

scan_conjecture tests, on every non-transmission-regular connected graph in
the stream, whether the Laplacian trace/Frobenius upper bound improves on the
strict transmission/Frobenius one, i.e. whether margin = d2 - n3 stays
positive. Strict counterexamples (margin < -slack) and near-equalities
(margin in (-slack, 0]) are reported separately so both the strict and the
weak reading of "improves" can be answered from one result.

scan_soundness runs every proven check (certify.violations) on every
graph and collects violations instead of raising; compute_all_bounds runs
the same pipeline on one graph as a batch of one. No check lives here.

Both sweeps run on one driver. A chunk is (adj, n, weight, listed): a
(B, N, N) boolean adjacency stack of at most graphs.chunk_limit(N) graphs,
their own vertex counts n, the labeled graphs weight[i] that row i stands
for, and listed(rows), the graph6 lines of those graphs for each row of
the index array rows. _stream_chunks cuts a stream into chunks whose rows
stand for themselves; _class_chunks yields the class minima of a
ConnectedClasses, each row weighted by its orbit and listing every member
of its class. One rule, _rejected, names the error of a graph with no
vertices, too small for the sweep or disconnected, and two places record
it: _sweep, for a row of a chunk, under every graph6 the row lists, and
_stream_chunks, for a too_sparse Graph, which is never stacked. Each
sweep binds one min_n for both. _sweep yields the DistanceData of the
rows left, whose (B, N, N) arrays the sweep evaluates at once.

A stream holds Graphs, (B, n, n) boolean adjacency stacks of same-n graphs
(such as graphs.connected_stacks yields), or both, and _stream_chunks
gives its chunk rule. Only the chunks cut when the stream ends mix sizes,
so that a short stream of mixed sizes, such as 32 graphs of n = 5..10,
pays a chunk's fixed cost once. Every bound, identity and diagnosis reads
each graph's own vertices only, and each eigensolve runs on unpadded
matrices. graph6 is written only for a listed graph, at its own n,
straight from its row of the stack (graph6.encode_graph6_stack) or, on
the class path, from its edge mask (graph6.encode_graph6_masks); no Graph
is built for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .bounds import closed_form_bounds
from .certify import violations
from .errors import ConsistencyError
from .graph6 import encode_graph6, encode_graph6_masks, encode_graph6_stack
from .graphs import (
    DISCONNECTED, ConnectedClasses, Graph, adjacency_stack, chunk_limit,
    connected_distances, distance_data, too_sparse)

# the error entry of a graph with no vertices, in either sweep
EMPTY = "graph has no vertices"
HISTOGRAM_EDGES = (0.0, 0.5, 1.0, 2.0, 5.0)
HISTOGRAM_LABELS = ("< 0", "[0, 0.5)", "[0.5, 1)", "[1, 2)", "[2, 5)", ">= 5")


@dataclass
class ScanResult:
    graphs_tested: int = 0
    skipped_regular: int = 0
    min_margin: float | None = None
    counterexamples: list = field(default_factory=list)
    equalities: list = field(default_factory=list)
    histogram: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    slack: float = 0.0


def _rejected(n, min_n):
    """The error of a graph on n vertices that a sweep of graphs on at
    least min_n >= 1 vertices rejects: empty at n = 0, too small below
    min_n, else disconnected. Only the margin sweep has a min_n above 1, so
    the second message names it."""
    if n < 1:
        return EMPTY
    if n < min_n:
        return f"margin needs n >= {min_n}, got n={n}"
    return DISCONNECTED


def _chunk(adj, n):
    """The chunk of a padded adjacency stack of graphs on n vertices, each
    row of weight 1 and listing its own graph6."""
    return adj, n, np.ones(len(n), dtype=np.int64), lambda rows: [
        [g6] for g6 in encode_graph6_stack(adj[rows], n[rows])]


def _stack(graphs):
    """The chunk of a list of Graphs, each padded with isolated vertices to
    the largest vertex count."""
    return _chunk(adjacency_stack(graphs), np.array([g.n for g in graphs]))


def _stream_chunks(source, errors, min_n):
    """The chunks of a stream of Graphs and same-n adjacency stacks. A
    same-n stack is cut as it comes, in slices of chunk_limit(n), unpadded
    and alone. Graphs are held by their n, in stream order, and the
    chunk_limit(n) Graphs of one n are let go as one unpadded chunk, so at
    most one partial chunk per n is held over any stream. A too_sparse
    Graph is never stacked: its error (_rejected) goes to errors at once.
    When the stream ends, the held Graphs are taken in ascending n and cut
    greedily, each chunk padded with isolated vertices to its largest n,
    N, and let go before the next graph would take it past chunk_limit of
    its new N: the only chunks that mix sizes."""
    # n -> (chunk_limit(n), the Graphs on n vertices held, in stream order)
    held = {}
    for item in source:
        if not isinstance(item, Graph):
            n = item.shape[-1]
            size = chunk_limit(n)
            for start in range(0, len(item), size):
                part = item[start:start + size]
                yield _chunk(part, np.full(len(part), n))
            continue
        if too_sparse(item):
            errors.append((encode_graph6(item), _rejected(item.n, min_n)))
            continue
        if item.n not in held:
            held[item.n] = chunk_limit(item.n), []
        size, graphs = held[item.n]
        graphs.append(item)
        if len(graphs) == size:
            del held[item.n]
            yield _stack(graphs)
    graphs = []
    for n in sorted(held):
        size, run = held[n]
        for item in run:
            if len(graphs) >= size:
                yield _stack(graphs)
                graphs = []
            graphs.append(item)
    if graphs:
        yield _stack(graphs)


def _class_chunks(classes):
    """The chunks of the class minima of a ConnectedClasses, each row
    weighted by its orbit size and listing every member of its class,
    ascending, from one encode of the member masks of one listing call."""
    weight = classes.weights()
    first = 0
    for adj in classes.stacks():
        def listed(rows, first=first):
            masks, counts = classes.member_masks(first + rows)
            lines = encode_graph6_masks(masks, classes.n)
            ends = np.cumsum(counts).tolist()
            return [lines[a:b] for a, b in zip([0] + ends, ends)]
        yield (adj, np.full(len(adj), classes.n),
               weight[first:first + len(adj)], listed)
        first += len(adj)


def _sweep(chunks, errors, min_n):
    """(dd, weight, listed) for the connected rows on at least min_n
    vertices of each chunk: their DistanceData, their weights and the
    listing of the chunk restricted to them, listed(rows) reading rows as
    indices into dd. Every other row goes to errors, once under each graph6
    it lists (see _rejected)."""
    for adj, n, weight, listed in chunks:
        kept = n >= min_n
        if not kept.all():
            adj = adj[kept]
        connected, dist = connected_distances(adj, n[kept])
        kept[kept] = connected
        if not kept.all():
            rows = np.flatnonzero(~kept)
            errors += [(g6, _rejected(k, min_n)) for k, g6s in zip(
                n[rows].tolist(), listed(rows)) for g6 in g6s]
        rows = np.flatnonzero(kept)
        if len(rows):
            yield (distance_data(dist, n[rows]), weight[rows],
                   lambda found, rows=rows, listed=listed: listed(
                       rows[found]))


def _scan_chunk(result, dd, weight, listed):
    """Margins of the connected graphs of a padded batch's DistanceData dd,
    as array expressions over the batch.

    Row i stands for weight[i] labeled graphs, and listed(rows) gives the
    graph6 of each graph that the rows of the index array rows stand for,
    one list per row; it is called only for the rows that a list records.

    A row may stand for a whole isomorphism class because the regularity
    test and the margin read only integers that relabeling leaves
    unchanged: n, tmin, tmax, dist2, tr2 and wiener. So every member's
    margin equals the row's bit for bit. A float reduction that depends on
    the vertex order would break that; adding one means dropping the class
    path of scan_conjecture."""
    # transmission-regular graphs never reach the bounds, as one at a time
    tested = ~dd.regular
    result.skipped_regular += int(weight[~tested].sum())
    rows = np.flatnonzero(tested)
    if not len(rows):
        return
    if len(rows) < len(tested):
        dd, weight = dd.take(tested), weight[rows]
    # L_D2 and L_N3, the first two closed forms
    upper_strict, upper_trace = closed_form_bounds(dd)[:2]
    margin = upper_strict - upper_trace
    result.graphs_tested += int(weight.sum())
    low = float(margin.min())
    if result.min_margin is None or low < result.min_margin:
        result.min_margin = low
    # float64 sums of integer weights stay exact below 2^53
    buckets = np.bincount(
        np.searchsorted(HISTOGRAM_EDGES, margin, side="right"),
        weights=weight, minlength=len(HISTOGRAM_LABELS)).astype(np.int64)
    for label, count in zip(HISTOGRAM_LABELS, buckets.tolist()):
        result.histogram[label] += count
    strict = margin < -result.slack
    for found, listed_to in ((strict, result.counterexamples),
                             (~strict & (margin <= 0.0), result.equalities)):
        found = np.flatnonzero(found)
        if len(found):
            listed_to += [
                (g6, trace, bound) for g6s, trace, bound in zip(
                    listed(rows[found]), upper_trace[found].tolist(),
                    upper_strict[found].tolist()) for g6 in g6s]


def scan_conjecture(source, slack=1e-7):
    """Margin sweep of d2 - n3 over a stream of graphs, or over the
    ConnectedClasses of one n.

    Transmission-regular graphs are skipped (the strict bound hypothesis
    excludes them). Disconnected graphs and graphs on fewer than 3
    vertices are recorded as per-graph errors, not raised. A stream is
    evaluated in chunks (see _stream_chunks): each stack as it comes,
    Graphs by their exact n, and the Graphs left when the stream ends
    padded together in its tail, so memory stays flat over any stream.
    ConnectedClasses are evaluated once per isomorphism class and counted
    by orbit size, and each listed class lists every labeled member, so the
    result equals that of the stream connected_stacks(n). This is exact
    because the margin reads only relabeling-invariant integers (see
    _scan_chunk). Result lists are sorted by graph6 encoding so the outcome
    is independent of stream order. A slack that is not finite and >= 0
    raises ValueError.
    """
    if not (math.isfinite(slack) and slack >= 0):
        raise ValueError(f"slack must be finite and >= 0, got {slack!r}")
    result = ScanResult(slack=slack)
    result.histogram = {label: 0 for label in HISTOGRAM_LABELS}
    min_n = 3
    chunks = (_class_chunks(source) if isinstance(source, ConnectedClasses)
              else _stream_chunks(source, result.errors, min_n))
    for dd, weight, listed in _sweep(chunks, result.errors, min_n):
        _scan_chunk(result, dd, weight, listed)
    result.counterexamples.sort(key=itemgetter(0))
    result.equalities.sort(key=itemgetter(0))
    result.errors.sort(key=itemgetter(0))
    strict_failures = (result.min_margin is not None
                       and result.min_margin < -slack)
    if bool(result.counterexamples) != strict_failures:
        raise ConsistencyError(
            "counterexample list disagrees with the minimum margin")
    return result


@dataclass
class SoundnessReport:
    graphs_checked: int = 0
    violations: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def _check_soundness(report, dd):
    """Soundness of the connected graphs of a padded batch's DistanceData
    dd. A graph whose eigensolve or bounds raise is recorded as an error on
    its own, as one at a time: a failing batch is split until it is
    found. A connected graph's adjacency is its distance matrix == 1."""
    try:
        found = violations(dd)
    except ConsistencyError as exc:
        if len(dd.n) == 1:
            report.errors.append(
                (encode_graph6_stack(dd.dist == 1, dd.n)[0], str(exc)))
            return
        first = np.arange(len(dd.n)) < len(dd.n) // 2
        _check_soundness(report, dd.take(first))
        _check_soundness(report, dd.take(~first))
        return
    report.graphs_checked += len(dd.n)
    if found:
        rows = sorted(found)
        for i, g6 in zip(
                rows, encode_graph6_stack(dd.dist[rows] == 1, dd.n[rows])):
            report.violations += [(g6, message) for message in found[i]]


def scan_soundness(source):
    """Check every bound and identity on every graph in the stream.

    Disconnected graphs, and graphs whose eigensolve or bounds fail an
    internal check, are recorded as errors; everything else counts as
    checked, with its violations. The stream is evaluated in chunks (see
    _stream_chunks): each stack as it comes, Graphs by their exact n, and
    the Graphs left when the stream ends padded together in its tail.
    Both lists are sorted by graph6 encoding.

    Unlike scan_conjecture, it has no class path: every labeled graph gets
    its own eigensolve of L and Q (no check reads D's spectrum), because
    eigenvalues are not bit-invariant under relabeling. Of 1,500 random
    relabelings of n = 7 graphs, 1,498 changed the spectra in the last
    bits (by up to 3.9e-14), and 1,200 changed the Laplacian radius.
    """
    report = SoundnessReport()
    min_n = 1
    for dd, _, _ in _sweep(
            _stream_chunks(source, report.errors, min_n), report.errors,
            min_n):
        _check_soundness(report, dd)
    report.violations.sort(key=itemgetter(0))
    report.errors.sort(key=itemgetter(0))
    return report
