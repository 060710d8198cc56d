"""Sweeps over graph streams: conjecture margins and bound soundness.

scan_conjecture tests, on every non-transmission-regular connected graph in
the stream, whether the Laplacian trace/Frobenius upper bound improves on the
strict transmission/Frobenius one, i.e. whether margin = d2 - n3 stays
positive. Strict counterexamples (margin < -slack) and near-equalities
(margin in (-slack, 0]) are reported separately so both the strict and the
weak reading of "improves" can be answered from one result.

scan_soundness runs the full bound battery plus the proven identities on
every graph and collects violations instead of raising; compute_all_bounds
runs the same pipeline on one graph as a batch of one.

A stream holds Graphs, (B, n, n) boolean adjacency stacks of same-n graphs
(such as graphs.connected_stacks yields), or both. Both sweeps group it by n
into chunks of graphs.chunk_limit(n) graphs and evaluate each chunk as
(B, n, n) arrays; a Graph and its graph6 are built only for a listed graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    bound_checks, bound_L_d2, bound_L_n3, bound_values, slack_for)
from .certify import (
    diagnose_all, diagnosis_rows, han_multiplicity_holds, is_complete)
from .errors import ConsistencyError, TheoremViolationError
from .graph6 import encode_graph6
from .graphs import (
    Graph, adjacency_graphs, adjacency_stack, chunk_limit, connected_distances,
    disconnected_error, distance_data, is_transmission_regular, too_sparse)
from .linalg import Spectrum
from .operators import operator_spectra, polynomial_row_sums

HISTOGRAM_EDGES = (0.0, 0.5, 1.0, 2.0, 5.0)
HISTOGRAM_LABELS = ("< 0", "[0, 0.5)", "[0.5, 1)", "[1, 2)", "[2, 5)", ">= 5")
# vertex 0 is the first source that misses a vertex, as one at a time
_DISCONNECTED = str(disconnected_error(0))


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


def _each_chunk(source, evaluate, reject):
    """Calls evaluate on the graphs of source grouped by n, as (B, n, n)
    boolean adjacency stacks of at most chunk_limit(n) graphs, in stream
    order per n, and reject on each too_sparse Graph, whose stack is never
    built. An item of source is a Graph or a same-n adjacency stack, which
    may span chunks. A chunk is let go before the next one fills."""
    pending = {}  # n -> [Graphs and stacks held in order, graphs held]

    def hold(n, part, rows):
        held = pending.get(n)
        if held is None:
            held = pending[n] = [[], 0]
        held[0].append(part)
        held[1] += rows
        if held[1] == chunk_limit(n):
            evaluate(_stack(pending.pop(n)[0]))

    for item in source:
        if isinstance(item, Graph):
            if too_sparse(item):
                reject(item)
            else:
                hold(item.n, item, 1)
            continue
        n = item.shape[-1]
        while len(item):
            part = item[:chunk_limit(n) - pending.get(n, ((), 0))[1]]
            item = item[len(part):]
            hold(n, part, len(part))
    for parts, _ in pending.values():
        evaluate(_stack(parts))


def _stack(parts):
    """One adjacency stack of same-n Graphs and stacks, in order."""
    stacks = [adjacency_stack(list(group)) if graphs
              else np.concatenate(list(group))
              for graphs, group in itertools.groupby(
                  parts, lambda part: isinstance(part, Graph))]
    return stacks[0] if len(stacks) == 1 else np.concatenate(stacks)


def _graph6s(adj):
    """graph6 of each graph of a boolean adjacency stack, in stack order. A
    connected graph's adjacency is its distance matrix == 1."""
    return [encode_graph6(g) for g in adjacency_graphs(adj)]


def _connected(errors, adj):
    """The distance matrices of the connected graphs of a same-n adjacency
    stack, in stack order; each disconnected graph is recorded in errors."""
    connected, dist = connected_distances(adj)
    if not connected.all():
        errors += [(g6, _DISCONNECTED) for g6 in _graph6s(adj[~connected])]
    return dist


def _too_small(n):
    """The error of a graph on n < 3 vertices, which has no margin."""
    return f"margin needs n >= 3, got n={n}"


def _scan_chunk(result, adj):
    """Margins of a same-n adjacency stack, as array expressions over the
    stack; graph6 is encoded only for listed graphs."""
    n = adj.shape[-1]
    if n < 3:
        result.errors += [(g6, _too_small(n)) for g6 in _graph6s(adj)]
        return
    dist = _connected(result.errors, adj)
    tested = ~is_transmission_regular(dist.sum(axis=-1))
    result.skipped_regular += len(tested) - int(tested.sum())
    if not tested.any():
        return
    # transmission-regular graphs never reach the bounds, as one at a time
    dd = distance_data(dist[tested])
    upper_strict = bound_L_d2(dd, np.sqrt(dd.dist2))
    upper_trace = bound_L_n3(dd, np.sqrt(dd.tr2 + dd.dist2))
    margin = upper_strict - upper_trace
    result.graphs_tested += len(margin)
    low = float(margin.min())
    if result.min_margin is None or low < result.min_margin:
        result.min_margin = low
    buckets = np.bincount(
        np.searchsorted(HISTOGRAM_EDGES, margin, side="right"),
        minlength=len(HISTOGRAM_LABELS))
    for label, count in zip(HISTOGRAM_LABELS, buckets.tolist()):
        result.histogram[label] += count
    strict = margin < -result.slack
    for found, listed in ((strict, result.counterexamples),
                          (~strict & (margin <= 0.0), result.equalities)):
        listed += zip(_graph6s(dd.dist[found] == 1),
                      upper_trace[found].tolist(),
                      upper_strict[found].tolist())


def scan_conjecture(source, slack=1e-7):
    """Margin sweep of d2 - n3 over a stream of graphs.

    Transmission-regular graphs are skipped (the strict bound hypothesis
    excludes them). Disconnected or too-small graphs are recorded as
    per-graph errors, not raised. The stream is evaluated in same-n chunks
    (see _each_chunk), so memory stays flat over any stream. Result lists
    are sorted by graph6 encoding so the outcome is independent of stream
    order.
    """
    result = ScanResult(slack=slack)
    result.histogram = {label: 0 for label in HISTOGRAM_LABELS}

    def reject(g):
        message = _too_small(g.n) if g.n < 3 else _DISCONNECTED
        result.errors.append((encode_graph6(g), message))
    _each_chunk(source, lambda chunk: _scan_chunk(result, chunk), reject)
    result.counterexamples.sort(key=lambda item: item[0])
    result.equalities.sort(key=lambda item: item[0])
    result.errors.sort(key=lambda item: item[0])
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


def _identity_failures(dd, q_mat, spectra):
    """The proven identities checked on top of the bound battery, over a
    batch: (failed, message) pairs in report order, failed one flag per
    graph and message a function of a failed graph's row."""
    n = dd.n
    tw = 2.0 * dd.wiener
    lq2 = dd.tr2 + dd.dist2  # ||L||_F^2 = ||Q||_F^2
    vals = spectra.values  # distance, laplacian, signless
    trace = np.array((np.zeros_like(tw), tw, tw))
    frob2 = np.array((dd.dist2, lq2, lq2))
    sums = np.abs(vals.sum(axis=-1) - trace) > 1e-8 * (1.0 + np.abs(trace))
    squares = (np.abs((vals * vals).sum(axis=-1) - frob2)
               > 1e-8 * (1.0 + frob2))
    failures = []
    for k, name in enumerate(("distance", "laplacian", "signless")):
        failures.append(
            (sums[k], lambda i, name=name:
             f"{name} eigenvalue sum misses the trace"))
        failures.append(
            (squares[k], lambda i, name=name:
             f"{name} eigenvalue square sum misses the norm"))

    lvals = vals[1]
    failures.append(
        (np.abs(lvals[:, -1]) > slack_for(np.sqrt(lq2)),
         lambda i: "laplacian smallest eigenvalue is not zero"))
    # every other laplacian eigenvalue is at least n
    below = lvals[:, :n - 1] < n - slack_for(n)
    failures.append(
        (below.any(axis=-1), lambda i:
         f"laplacian eigenvalue {below[i].argmax()} below the vertex count"))

    if n > 2:
        holds = han_multiplicity_holds(Spectrum(values=lvals), is_complete(dd))
        failures.append(
            (~holds,
             lambda i: "largest laplacian eigenvalue multiplicity escapes"))

    # integer interval for the distance-weighted transmission sums
    t = dd.tr.min(axis=-1)
    big = dd.tr.max(axis=-1)
    w2 = 2 * dd.wiener
    lo = (w2 - (n - 1) * t)[:, None] + (t - 1)[:, None] * dd.tr
    up = (w2 - (n - 1) * big)[:, None] + (big - 1)[:, None] * dd.tr
    escapes = (dd.sdd < lo) | (dd.sdd > up)

    def escaped(i):
        u = escapes[i].argmax()
        return (f"weighted transmission sum at vertex {u} escapes "
                f"[{lo[i, u]}, {up[i, u]}]")
    failures.append((escapes.any(axis=-1), escaped))

    # row sums of q^2 against the closed form, exact integers
    rows = polynomial_row_sums(q_mat, (0, 0, 1))
    closed = 2 * dd.tr ** 2 + 2 * dd.sdd
    failures.append(
        ((rows != closed).any(axis=-1),
         lambda i: "squared signless row sums break the closed form"))

    # quadratic row-sum sandwich for p(x) = x^2 - (t - 1) x at the radius
    rows_p = polynomial_row_sums(
        q_mat, (0, -(t - 1), 1)).astype(np.float64)
    rq = vals[2, :, 0]
    value = rq * rq - (t - 1) * rq
    pad = slack_for(np.abs(rows_p).max(axis=-1))
    inside = ((rows_p.min(axis=-1) - pad <= value)
              & (value <= rows_p.max(axis=-1) + pad))
    failures.append(
        (~inside,
         lambda i: "radius escapes the quadratic row-sum sandwich"))
    return failures


def _violations(dist):
    """Violation messages of a (B, n, n) stack of connected graphs' distance
    matrices, by row, for the rows that have any, each row's messages in the
    order one graph reports them: a TheoremViolationError of its diagnoses
    alone, else its unsatisfied bounds and then its failed identities. A
    ConsistencyError of the eigensolve or of a bound propagates."""
    dd = distance_data(dist)
    bundle, spectra = operator_spectra(dd)
    radius_l, radius_q = spectra.largest[1], spectra.largest[2]
    regular = is_transmission_regular(dd.tr)
    values = bound_values(dd, regular)
    value, satisfied, gap = bound_checks(values, radius_l, radius_q)

    found = {}
    for i in np.flatnonzero(
            diagnosis_rows(dd, regular, values, radius_l, radius_q)).tolist():
        try:
            diagnose_all(dict(zip(values, value[:, i].tolist())),
                         Spectrum(values=spectra.values[1, i]),
                         float(radius_q[i]), bundle.b_mat[i], dd.row(i))
        except TheoremViolationError as exc:
            found[i] = [str(exc)]

    failures = [
        (~satisfied[k], lambda i, k=k, bid=bid:
         f"{bid.value} unsatisfied: value {float(value[k, i])!r} vs "
         f"radius gap {float(gap[k, i])!r}")
        for k, bid in enumerate(values)]
    failures += _identity_failures(dd, bundle.q_mat, spectra)

    failed = np.array([bad for bad, _ in failures]).any(axis=0)
    for i in np.flatnonzero(failed).tolist():
        if i not in found:
            found[i] = [message(i) for bad, message in failures if bad[i]]
    return found


def _check_soundness(report, dist):
    """Soundness of the connected same-n graphs with distance matrices dist.
    A graph whose eigensolve or bounds raise is recorded as an error on its
    own, as one at a time: a failing batch is split until it is found."""
    try:
        found = _violations(dist)
    except ConsistencyError as exc:
        if len(dist) == 1:
            report.errors.append((_graph6s(dist == 1)[0], str(exc)))
            return
        half = len(dist) // 2
        _check_soundness(report, dist[:half])
        _check_soundness(report, dist[half:])
        return
    report.graphs_checked += len(dist)
    rows = sorted(found)
    for i, g6 in zip(rows, _graph6s(dist[rows] == 1)):
        report.violations += [(g6, message) for message in found[i]]


def scan_soundness(source):
    """Check every bound and identity on every graph in the stream.

    Disconnected graphs, and graphs whose eigensolve or bounds fail an
    internal check, are recorded as errors; everything else counts as
    checked, with its violations. The stream is evaluated in same-n chunks
    (see _each_chunk). Both lists are sorted by graph6 encoding.
    """
    report = SoundnessReport()

    def check(adj):
        dist = _connected(report.errors, adj)
        if len(dist):
            _check_soundness(report, dist)

    def reject(g):
        report.errors.append((encode_graph6(g), _DISCONNECTED))
    _each_chunk(source, check, reject)
    report.violations.sort(key=lambda item: item[0])
    report.errors.sort(key=lambda item: item[0])
    return report
