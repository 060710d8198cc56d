"""Command-line interface: analyze one graph, or scan a family.

analyze prints a full report (spectra, bounds, equality diagnoses) as a text
table or canonical JSON. scan sweeps the margin between the two trace-style
upper bounds over an enumerated range or a graph6 file. JSON output is
canonical: one line per document, sorted keys, no space after separators,
shortest-round-trip floats and ASCII-escaped strings, so serializing,
parsing, and serializing again is byte-identical. A compact one-line layout
lets json.dumps run its C encoder; `python -m json.tool` pretty-prints it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .bounds import _ROW, BOUND_META, BoundId, compute_all_bounds
from .certify import check_han_multiplicity, check_tree_determinant
from .errors import (
    ConsistencyError, GraphParseError, TheoremViolationError)
from .graph6 import parse_graph6, read_graph6_stream
from .graphs import connected_classes, parse_edge_list
from .named_graphs import FIXTURES, builtin_graph, fixture_graph
from .scan import scan_conjecture

SCHEMA_VERSION = 2

L_TABLE = (BoundId.L_I1, BoundId.L_D1, BoundId.L_D2,
           BoundId.L_N1, BoundId.L_N2, BoundId.L_N3)
Q_LOWER_TABLE = (BoundId.Q_I3, BoundId.Q_I5, BoundId.Q_CI5)
Q_UPPER_TABLE = (BoundId.Q_I4, BoundId.Q_I6, BoundId.Q_I2,
                 BoundId.Q_CS6, BoundId.Q_CS7)
# the id, target and side of each bound as the document writes them, in
# the BoundId order of a report's rows
_LABELS = tuple((bid.value, meta.target.value, meta.side.value)
                for bid, meta in BOUND_META.items())


def fmt4(x):
    """Four decimals, bankers rounding, trailing zeros stripped."""
    if x is None:
        return "n/a"
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    if s in ("-0", ""):
        s = "0"
    return s


def to_canonical_json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def resolve_graph_input(arg):
    """Turn a CLI graph argument into a Graph.

    Tried in order: an existing file (suffix .g6/.graph6 means graph6, first
    graph of the stream; anything else is parsed as an edge list), a builtin
    name like K5/P4/C6/S5, a shipped fixture name, and finally a literal
    graph6 string.
    """
    if os.path.exists(arg):
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphParseError(f"{arg} is not UTF-8 text: {exc}") from None
        if arg.endswith((".g6", ".graph6")):
            for _, g in read_graph6_stream(text.splitlines()):
                return g
            raise GraphParseError(f"no graph6 data in {arg}")
        return parse_edge_list(text)
    g = builtin_graph(arg)
    if g is not None:
        return g
    if arg in FIXTURES:
        return fixture_graph(arg)
    return parse_graph6(arg)


def report_document(report, target="both"):
    """JSON-ready dict for one analyzed graph."""
    data = report.data
    bounds = [
        {"id": bid, "target": on, "side": side,
         "applicable": value is not None, "value": value, "satisfied": ok,
         "gap": gap, "equality": None if diagnosis is None else {
             "equality_within_tol": diagnosis.equality_within_tol,
             "certificate": diagnosis.certificate}}
        for (bid, on, side), value, ok, gap, diagnosis in zip(
            _LABELS, report.values, report.satisfied, report.gaps,
            report.diagnoses)
        if target in ("both", on)]
    return {
        "schema_version": SCHEMA_VERSION,
        "graph": {
            "n": report.graph.n,
            "edge_count": report.graph.edge_count,
            "edges": [[u, v] for u, v in report.graph.sorted_edges()],
            "graph6": report.graph6,
        },
        "transmissions": data.tr.tolist(),
        "wiener": data.wiener,
        "transmission_regular": data.tmin if data.regular else None,
        "spectra": {
            "distance": report.spectrum_d.tolist(),
            "distance_laplacian": report.spectrum_l.tolist(),
            "distance_signless_laplacian": report.spectrum_q.tolist(),
        },
        "radius": {
            "distance_laplacian": report.radius_l,
            "distance_signless_laplacian": report.radius_q,
        },
        "checks": {
            "han_multiplicity": check_han_multiplicity(
                report.spectrum_l, data),
            "tree_determinant": check_tree_determinant(report.graph, data),
        },
        "bounds": bounds,
    }


def _row(cells, width=10):
    return "  ".join(str(c).ljust(width) for c in cells).rstrip()


def _bound_block(report, ids):
    rows = [_ROW[bid] for bid in ids]
    names = [_LABELS[k][0] for k in rows]
    values = [fmt4(report.values[k]) for k in rows]
    width = max(map(len, names + values))
    return [_row(names, width), _row(values, width)]


def report_table(report, target="both"):
    data = report.data
    values = report.values
    lines = []
    lines.append(
        f"graph: n={report.graph.n} edges={report.graph.edge_count} "
        f"graph6={report.graph6}")
    lines.append(
        f"wiener={data.wiener} transmissions in [{data.tmin}, "
        f"{data.tmax}] transmission-regular="
        + ("yes" if data.regular else "no"))
    lines.append(f"radius: L={fmt4(report.radius_l)} Q={fmt4(report.radius_q)}")
    if target in ("L", "both"):
        lines.append("")
        lines.append("L spectrum: " + ", ".join(
            map(fmt4, report.spectrum_l.tolist())))
        lines.append("L upper bounds:")
        lines.extend("  " + s for s in _bound_block(report, L_TABLE))
        r1 = values[_ROW[BoundId.L_R1]]
        if r1 is not None:
            lines.append(
                f"transmission-regular bounds: r1={fmt4(r1)} "
                f"r2={fmt4(values[_ROW[BoundId.L_R2]])}")
    if target in ("Q", "both"):
        lines.append("")
        lines.append("Q spectrum: " + ", ".join(
            map(fmt4, report.spectrum_q.tolist())))
        lines.append("Q lower bounds:")
        lines.extend("  " + s for s in _bound_block(report, Q_LOWER_TABLE))
        lines.append("Q upper bounds:")
        lines.extend("  " + s for s in _bound_block(report, Q_UPPER_TABLE))
        lines.append(
            f"transmission interval: [{fmt4(values[_ROW[BoundId.Q_TB_LO]])}, "
            f"{fmt4(values[_ROW[BoundId.Q_TB_UP]])}]")
    fired = [
        f"{bid}:{diagnosis.certificate}"
        for (bid, _, _), diagnosis in zip(_LABELS, report.diagnoses)
        if diagnosis is not None and diagnosis.equality_within_tol]
    lines.append("")
    lines.append("equalities: " + (", ".join(sorted(set(fired))) or "none"))
    return "\n".join(lines) + "\n"


def cmd_analyze(arg, fmt="table", target="both"):
    """Returns (exit_code, stdout text)."""
    g = resolve_graph_input(arg)
    report = compute_all_bounds(g)
    if fmt == "json":
        return 0, to_canonical_json(report_document(report, target))
    return 0, report_table(report, target)


def scan_document(result, params):
    return {
        "schema_version": SCHEMA_VERSION,
        "scan": {
            "kind": "margin",
            "params": params,
            "graphs_tested": result.graphs_tested,
            "skipped_regular": result.skipped_regular,
            "min_margin": result.min_margin,
            "has_counterexamples": bool(result.counterexamples),
            # json writes each tuple as an array, the bytes of a list
            "counterexamples": result.counterexamples,
            "equalities_within_tolerance": result.equalities,
            "histogram": result.histogram,
            "errors": result.errors,
        },
    }


def scan_table(result, params):
    lines = [
        f"scan: {params}",
        f"graphs tested: {result.graphs_tested} "
        f"(skipped transmission-regular: {result.skipped_regular})",
        f"min margin: "
        + ("n/a" if result.min_margin is None else f"{result.min_margin:.6f}"),
        "margin histogram:",
    ]
    for label, count in result.histogram.items():
        lines.append(f"  {label:>9}: {count}")
    if result.counterexamples:
        lines.append(f"strict counterexamples: {len(result.counterexamples)}")
        for enc, n3, d2 in result.counterexamples:
            lines.append(f"  {enc}: trace-bound {n3!r} vs strict-bound {d2!r}")
    else:
        lines.append("strict counterexamples: none")
    if result.equalities:
        lines.append(
            f"equalities within tolerance: {len(result.equalities)}")
        for enc, n3, d2 in result.equalities:
            lines.append(f"  {enc}: trace-bound {n3!r} vs strict-bound {d2!r}")
    if result.errors:
        lines.append(f"per-graph errors: {len(result.errors)}")
        for enc, msg in result.errors:
            lines.append(f"  {enc}: {msg}")
    return "\n".join(lines) + "\n"


def cmd_scan(enumerate_n=None, graph6_path=None, slack=1e-7, dedup=False,
             fmt="table"):
    """Returns (exit_code, stdout text). Exit stays 0 even with
    counterexamples; the output carries the distinction."""
    if (enumerate_n is None) == (graph6_path is None):
        raise ValueError("exactly one of --enumerate and --graph6 is required")
    if dedup and enumerate_n is None:
        raise ValueError("--dedup requires --enumerate")
    if enumerate_n is not None:
        if enumerate_n < 3:
            raise ValueError(
                f"margin scan needs n >= 3, got n={enumerate_n}")
        classes = connected_classes(enumerate_n)
        source = classes.stacks() if dedup else classes
        params = {"enumerate": enumerate_n, "dedup": dedup, "slack": slack}
        result = scan_conjecture(source, slack=slack)
    else:
        params = {"graph6": os.path.basename(graph6_path), "slack": slack}
        with open(graph6_path, encoding="utf-8") as fh:
            source = (g for _, g in read_graph6_stream(fh))
            try:
                result = scan_conjecture(source, slack=slack)
            except UnicodeDecodeError as exc:
                raise GraphParseError(
                    f"{graph6_path} is not UTF-8 text: {exc}") from None
    if fmt == "json":
        return 0, to_canonical_json(scan_document(result, params))
    return 0, scan_table(result, params)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="distlap",
        description="Distance Laplacian / signless Laplacian spectra, "
                    "spectral-radius bounds, and margin scans.")
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser(
        "analyze", help="full bound report for one connected graph")
    a.add_argument(
        "input",
        help="edge-list or .g6 file, builtin (K5, P4, C6, S5), fixture name "
             f"({', '.join(FIXTURES)}), or literal graph6 string")
    a.add_argument("--format", choices=("table", "json"), default="table")
    a.add_argument("--target", choices=("L", "Q", "both"), default="both")

    s = sub.add_parser(
        "scan", help="margin scan between the two trace-style upper bounds")
    src = s.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--enumerate", type=int, metavar="N", dest="enumerate_n",
        help="all connected labeled graphs on N vertices (3 <= N <= 7)")
    src.add_argument("--graph6", metavar="PATH", help="graph6 file, one per line")
    s.add_argument("--slack", type=float, default=1e-7)
    s.add_argument(
        "--dedup", action="store_true",
        help="collapse isomorphic duplicates (with --enumerate)")
    s.add_argument("--format", choices=("table", "json"), default="table")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            code, text = cmd_analyze(
                args.input, fmt=args.format, target=args.target)
        else:
            code, text = cmd_scan(
                enumerate_n=args.enumerate_n, graph6_path=args.graph6,
                slack=args.slack, dedup=args.dedup, fmt=args.format)
    except (ValueError, OSError) as exc:
        print(f"distlap: error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, TheoremViolationError) as exc:
        print(f"distlap: internal check failed: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
