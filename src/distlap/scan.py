"""Sweeps over graph streams: conjecture margins and bound soundness.

scan_conjecture tests, on every non-transmission-regular connected graph in
the stream, whether the Laplacian trace/Frobenius upper bound improves on the
strict transmission/Frobenius one, i.e. whether margin = d2 - n3 stays
positive. Strict counterexamples (margin < -slack) and near-equalities
(margin in (-slack, 0]) are reported separately so both the strict and the
weak reading of "improves" can be answered from one result.

scan_soundness runs the full bound battery plus the proven identities on
every graph and collects violations instead of raising.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import bound_L_d2, bound_L_n3, compute_all_bounds, slack_for
from .certify import check_han_multiplicity
from .errors import (
    ConsistencyError, DisconnectedGraphError, GraphParseError,
    NotApplicableError, TheoremViolationError)
from .graph6 import encode_graph6
from .graphs import connected_distances, disconnected_error, distance_data
from .operators import polynomial_row_sums

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


def _scan_chunk(result, graphs):
    """Margins of a chunk of graphs with the same n >= 3, as array
    expressions over the chunk; graph6 is encoded only for listed graphs."""
    connected, dist = connected_distances(graphs)
    # vertex 0 is the first source that misses a vertex, as one at a time
    message = str(disconnected_error(0))
    for g in itertools.compress(graphs, ~connected):
        result.errors.append((encode_graph6(g), message))
    tr = dist.sum(axis=-1)
    tested = ~(tr == tr[:, :1]).all(axis=1)
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
    kept = list(itertools.compress(
        itertools.compress(graphs, connected), tested))
    for found, listed in ((strict, result.counterexamples),
                          (~strict & (margin <= 0.0), result.equalities)):
        for i in np.flatnonzero(found).tolist():
            listed.append((encode_graph6(kept[i]), float(upper_trace[i]),
                           float(upper_strict[i])))


def scan_conjecture(source, slack=1e-7):
    """Margin sweep of d2 - n3 over a stream of graphs.

    Transmission-regular graphs are skipped (the strict bound hypothesis
    excludes them). Disconnected or too-small graphs are recorded as
    per-graph errors, not raised. The stream is grouped by n into chunks of
    at most SCAN_CHUNK graphs and SCAN_CELLS matrix entries, each evaluated
    as (B, n, n) arrays, so memory stays flat over any stream. Result lists
    are sorted by graph6 encoding so the outcome is independent of stream
    order.
    """
    result = ScanResult(slack=slack)
    result.histogram = {label: 0 for label in HISTOGRAM_LABELS}
    pending = {}
    for g in source:
        if g.n < 3:
            result.errors.append(
                (encode_graph6(g), f"margin needs n >= 3, got n={g.n}"))
            continue
        chunk = pending.setdefault(g.n, [])
        chunk.append(g)
        if len(chunk) == min(SCAN_CHUNK, max(1, SCAN_CELLS // g.n ** 2)):
            _scan_chunk(result, chunk)
            del pending[g.n]
    for chunk in pending.values():
        _scan_chunk(result, chunk)
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


def _soundness_identities(report, violations):
    """Proven identities checked on top of the bound battery."""
    dd = report.data
    n = dd.n
    tw = 2.0 * dd.wiener
    lq2 = dd.tr2 + dd.dist2  # ||L||_F^2 = ||Q||_F^2

    for spectrum, trace, frob2, name in (
            (report.spectrum_d, 0.0, dd.dist2, "distance"),
            (report.spectrum_l, tw, lq2, "laplacian"),
            (report.spectrum_q, tw, lq2, "signless")):
        vals = spectrum.values
        if abs(float(vals.sum()) - trace) > 1e-8 * (1.0 + abs(trace)):
            violations.append(f"{name} eigenvalue sum misses the trace")
        if abs(float((vals * vals).sum()) - frob2) > 1e-8 * (1.0 + frob2):
            violations.append(f"{name} eigenvalue square sum misses the norm")

    lvals = report.spectrum_l.values
    zero_slack = slack_for(math.sqrt(lq2))
    if abs(float(lvals[-1])) > zero_slack:
        violations.append("laplacian smallest eigenvalue is not zero")
    # every other laplacian eigenvalue is at least n
    for i in range(n - 1):
        if float(lvals[i]) < n - slack_for(n):
            violations.append(
                f"laplacian eigenvalue {i} below the vertex count")
            break

    if n > 2 and not check_han_multiplicity(report.spectrum_l, report.graph):
        violations.append("largest laplacian eigenvalue multiplicity escapes")

    # integer interval for the distance-weighted transmission sums
    t = int(dd.tr.min())
    big = int(dd.tr.max())
    w2 = 2 * dd.wiener
    for u in range(n):
        lo = w2 + (t - 1) * int(dd.tr[u]) - (n - 1) * t
        up = w2 + (big - 1) * int(dd.tr[u]) - (n - 1) * big
        s = int(dd.sdd[u])
        if not lo <= s <= up:
            violations.append(
                f"weighted transmission sum at vertex {u} escapes [{lo}, {up}]")
            break

    # row sums of q^2 against the closed form, exact integers
    rows = polynomial_row_sums(report.bundle.q_mat, (0, 0, 1))
    closed = 2 * dd.tr.astype(np.int64) ** 2 + 2 * dd.sdd
    if not np.array_equal(rows, closed):
        violations.append("squared signless row sums break the closed form")

    # quadratic row-sum sandwich for p(x) = x^2 - (t - 1) x at the radius
    rows_p = polynomial_row_sums(
        report.bundle.q_mat, (0, -(t - 1), 1)).astype(np.float64)
    rq = report.radius_q
    value = rq * rq - (t - 1) * rq
    pad = slack_for(float(np.abs(rows_p).max()))
    if not rows_p.min() - pad <= value <= rows_p.max() + pad:
        violations.append("radius escapes the quadratic row-sum sandwich")


def scan_soundness(source):
    """Check every bound and identity on every graph in the stream."""
    report = SoundnessReport()
    for g in source:
        try:
            analysis = compute_all_bounds(g)
        except TheoremViolationError as exc:
            report.violations.append((encode_graph6(g), str(exc)))
            report.graphs_checked += 1
            continue
        except (DisconnectedGraphError, GraphParseError, NotApplicableError,
                ConsistencyError) as exc:
            report.errors.append((encode_graph6(g), str(exc)))
            continue
        report.graphs_checked += 1
        found = []
        for entry in analysis.entries:
            if entry.applicable and not entry.satisfied:
                found.append(
                    f"{entry.bound_id.value} unsatisfied: value "
                    f"{entry.value!r} vs radius gap {entry.gap!r}")
        _soundness_identities(analysis, found)
        for msg in found:
            report.violations.append((analysis.graph6, msg))
    report.violations.sort(key=lambda item: item[0])
    report.errors.sort(key=lambda item: item[0])
    return report
