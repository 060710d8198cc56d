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

Both group the stream by n into chunks of at most SCAN_CHUNK graphs and
SCAN_CELLS matrix entries and evaluate each chunk as (B, n, n) arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    bound_checks, bound_L_d2, bound_L_n3, bound_values, slack_for)
from .certify import (
    diagnose_all, diagnosis_rows, han_multiplicity_holds, is_complete)
from .errors import ConsistencyError, NotApplicableError, TheoremViolationError
from .graph6 import encode_graph6
from .graphs import (
    connected_distances, disconnected_error, distance_data,
    is_transmission_regular)
from .linalg import Spectrum
from .operators import operator_spectra, polynomial_row_sums

HISTOGRAM_EDGES = (0.0, 0.5, 1.0, 2.0, 5.0)
HISTOGRAM_LABELS = ("< 0", "[0, 0.5)", "[0.5, 1)", "[1, 2)", "[2, 5)", ">= 5")
# A chunk of same-n graphs holds at most SCAN_CHUNK graphs and SCAN_CELLS
# distance-matrix entries. Both are fixed, as they set the memory of a sweep.
SCAN_CHUNK = 256
SCAN_CELLS = SCAN_CHUNK * 8 * 8


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


def _each_chunk(source, evaluate):
    """Calls evaluate on the graphs of source grouped by n, in lists of at
    most SCAN_CHUNK graphs and SCAN_CELLS distance-matrix entries, in stream
    order per n. A chunk is let go before the next one fills."""
    pending = {}
    for g in source:
        chunk = pending.setdefault(g.n, [])
        chunk.append(g)
        if len(chunk) == min(SCAN_CHUNK, max(1, SCAN_CELLS // g.n ** 2)):
            evaluate(pending.pop(g.n))
    for chunk in pending.values():
        evaluate(chunk)


def _connected(errors, graphs):
    """The connected graphs of a same-n list and the stack of their distance
    matrices; each disconnected graph is recorded in errors."""
    connected, dist = connected_distances(graphs)
    # vertex 0 is the first source that misses a vertex, as one at a time
    message = str(disconnected_error(0))
    for g in itertools.compress(graphs, ~connected):
        errors.append((encode_graph6(g), message))
    return list(itertools.compress(graphs, connected)), dist


def _scan_chunk(result, graphs):
    """Margins of a chunk of graphs with the same n, as array expressions
    over the chunk; graph6 is encoded only for listed graphs."""
    n = graphs[0].n
    if n < 3:
        result.errors += [(encode_graph6(g), f"margin needs n >= 3, got n={n}")
                          for g in graphs]
        return
    kept, dist = _connected(result.errors, graphs)
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
    kept = list(itertools.compress(kept, tested))
    for found, listed in ((strict, result.counterexamples),
                          (~strict & (margin <= 0.0), result.equalities)):
        for i in np.flatnonzero(found).tolist():
            listed.append((encode_graph6(kept[i]), float(upper_trace[i]),
                           float(upper_strict[i])))


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
    _each_chunk(source, lambda chunk: _scan_chunk(result, chunk))
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


def _check_soundness(report, graphs, dist):
    """Soundness of connected same-n graphs with distance matrices dist. A
    graph whose eigensolve or bounds raise is recorded as an error on its
    own, as one at a time: a failing batch is split until it is found."""
    try:
        found = _violations(dist)
    except (NotApplicableError, ConsistencyError) as exc:
        if len(graphs) == 1:
            report.errors.append((encode_graph6(graphs[0]), str(exc)))
            return
        half = len(graphs) // 2
        _check_soundness(report, graphs[:half], dist[:half])
        _check_soundness(report, graphs[half:], dist[half:])
        return
    report.graphs_checked += len(graphs)
    for i in sorted(found):
        g6 = encode_graph6(graphs[i])
        report.violations += [(g6, message) for message in found[i]]


def scan_soundness(source):
    """Check every bound and identity on every graph in the stream.

    Disconnected graphs, and graphs whose eigensolve or bounds fail an
    internal check, are recorded as errors; everything else counts as
    checked, with its violations. The stream is evaluated in same-n chunks
    (see _each_chunk). Both lists are sorted by graph6 encoding.
    """
    report = SoundnessReport()

    def check(chunk):
        kept, dist = _connected(report.errors, chunk)
        if kept:
            _check_soundness(report, kept, dist)
    _each_chunk(source, check)
    report.violations.sort(key=lambda item: item[0])
    report.errors.sort(key=lambda item: item[0])
    return report
