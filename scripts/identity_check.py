"""Check that a working tree computes what a parent ref computes.

    python3 scripts/identity_check.py [--parent REF]

Exports the parent ref (default HEAD) and the working tree with
bench_pairs.export, runs a fixed corpus in each tree through a subprocess
that imports distlap from that tree's src/, and compares the reprs item by
item. Exits 1 and prints a diff excerpt per item on any difference, else 0.
An excerpt starts at the item's first differing line, and each of its
lines is clipped to a window at the first differing column, since a
ScanResult repr is one line of up to a few MB.

JSON output is compared by value: each document is parsed and written
again with sorted keys and a two-space indent in both trees, so a change of
layout alone is no difference, while every key, string and float repr
still is.

The corpus:
  - cmd_analyze JSON (without the timing_ms that schema version 1 wrote)
    and table output for the five fixtures, K1, K2, P3, S4, C4, K5, P4,
    C6, S5, K12, K16, P20, C30, S16, K150, K208, P100, C200 and P300
    (K1..C4 sit at the bounds' min_n edges, with a regular and a
    non-regular n = 4 graph);
  - the ScanResult of labeled and of deduplicated n = 3..6, and the
    `scan --enumerate` JSON and table output of the same sweeps, plus the
    ScanResult of deduplicated n = 7, and the ScanResult of the labeled
    n = 7 stacks with the `scan --enumerate 7` JSON output (the largest
    sweep that `scan --enumerate` counts by class; ~10 s on a side that
    visits every labeled graph);
  - the SoundnessReport of all labeled graphs with n <= 6 plus the
    fixtures;
  - the sha256 of the bytes of connected_classes(n).minima, .table and
    .weights() for n = 1..7, of the stacks of connected_stacks(7) one
    after another, and of the member stacks of every class,
    connected_classes(n).members, for n = 1..7 (n = 7 in slices of 64
    classes), each with its dtype and length; and of the ScanResult repr
    of the class path at n = 7, scan_conjecture(connected_classes(7)),
    which lists the labeled members of its 52 counterexample classes;
  - the graph6 lines of enumerate_connected(n) and of the class minima of
    connected_classes(n) for n = 1..6, of the class minima for n = 7 (853
    classes), and of
    sample_connected at (n, count, seed) = (7, 2000, 7), (9, 30, 3) and
    (12, 50, 4);
  - the SoundnessReport and the ScanResult of a seeded, shuffled graph6
    stream of mixed sizes (mixed_lines), read through read_graph6_stream,
    and of the same stream with every other run of same-n graphs turned
    into one adjacency stack (mixed_items);
  - the SoundnessReport and the ScanResult of the chained stacks
    connected_stacks(n) for n = 1..6, several sizes in a row;
  - the SoundnessReport and the ScanResult of a graph6 stream of long and
    of disconnected graphs with n = 100..300 (long_lines);
  - the SoundnessReports of 20 seeded 32-line graph6 units of n = 5..10,
    sparse and dense, some disconnected (unit_lines), each swept alone;
  - the SoundnessReport and the ScanResult of a graph6 tail with one graph
    of each n = 1..31, K1 and K2 included, and of one with K1, K2 and one
    graph of each n = 17..31 (tail_lines): no n fills a chunk, so all
    the graphs are cut together when the stream ends, the second into one
    chunk that pads K1 to N = 31;
  - the SoundnessReport and the ScanResult of a seeded 3,000-line graph6
    stream of n = 3..31, sparse and dense, some disconnected
    (stream_lines), in which chunks fill while the stream runs at many n.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import export  # noqa: E402

ANALYZED = ("ex1", "ex2", "g1", "g2", "g3", "K1", "K2", "P3", "S4", "C4",
            "K5", "P4", "C6", "S5", "K12", "K16", "P20", "C30", "S16",
            "K150", "K208", "P100", "C200", "P300")


def mixed_lines():
    """graph6 lines of n = 1..20 and 95..98, shuffled: sparse graphs (a
    random tree plus a few edges, or less one edge, so some are
    disconnected) and dense ones, the tree, cycle and complete graph of each
    n, the Petersen graph and the 4- and 5-spoke stars."""
    from distlap import Graph, encode_graph6
    from distlap.named_graphs import complete_graph, cycle_graph, star_graph

    rng = random.Random(8)
    graphs = [star_graph(5), star_graph(6), Graph.from_edges(
        10, [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)])]
    for n in list(range(1, 21)) + [95, 96, 97, 98]:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        tree = {(rng.randrange(v), v) for v in range(1, n)}
        graphs.append(Graph(n, frozenset(tree)))
        graphs += [complete_graph(n)] + ([cycle_graph(n)] if n > 2 else [])
        for _ in range(10 if n <= 20 else 2):
            if rng.random() < 0.5:
                density = rng.uniform(0.2, 0.9)
                edges = {p for p in pairs if rng.random() < density}
            else:
                edges = {(rng.randrange(v), v) for v in range(1, n)}
                edges |= set(rng.sample(pairs, min(len(pairs), 3)))
                if edges and rng.random() < 0.3:
                    edges.remove(rng.choice(sorted(edges)))
            graphs.append(Graph(n, frozenset(edges)))
    rng.shuffle(graphs)
    return [encode_graph6(g) + "\n" for g in graphs]


def long_lines():
    """graph6 lines of the path, the cycle and a random tree on n vertices,
    and of a disconnected graph with n - 1 edges, a cycle on n - 1
    vertices plus an isolated one, for n = 100, 150, ..., 300."""
    from distlap import Graph, encode_graph6
    from distlap.named_graphs import cycle_graph, path_graph

    rng = random.Random(9)
    graphs = []
    for n in range(100, 301, 50):
        tree = Graph(n, frozenset((rng.randrange(v), v) for v in range(1, n)))
        apart = Graph(n, cycle_graph(n - 1).edges)
        graphs += [path_graph(n), cycle_graph(n), tree, apart]
    return [encode_graph6(g) + "\n" for g in graphs]


def unit_lines(seed):
    """32 graph6 lines of n = 5..10, seeded: half a random tree plus up to
    three edges, half uniform with edge probability 1/2, so that some are
    disconnected."""
    from distlap import Graph, encode_graph6

    rng = random.Random(seed)
    lines = []
    for _ in range(32):
        n = rng.randint(5, 10)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if rng.random() < 0.5:
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            edges |= set(rng.sample(pairs, rng.randint(0, 3)))
        else:
            edges = {p for p in pairs if rng.random() < 0.5}
        lines.append(encode_graph6(Graph(n, frozenset(edges))) + "\n")
    return lines


def tail_lines(sizes):
    """graph6 lines of one graph of each n in sizes, shuffled: K1, K2, and
    above them in turn a random tree plus a few edges, a cycle and a
    uniform graph with edge probability 1/2."""
    from distlap import Graph, encode_graph6
    from distlap.named_graphs import complete_graph, cycle_graph

    rng = random.Random(10)
    graphs = []
    for n in sizes:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if n < 3:
            graphs.append(complete_graph(n))
        elif n % 3 == 0:
            tree = {(rng.randrange(v), v) for v in range(1, n)}
            graphs.append(Graph(n, frozenset(
                tree | set(rng.sample(pairs, min(len(pairs), 2))))))
        elif n % 3 == 1:
            graphs.append(cycle_graph(n))
        else:
            graphs.append(Graph(n, frozenset(
                p for p in pairs if rng.random() < 0.5)))
    rng.shuffle(graphs)
    return [encode_graph6(g) + "\n" for g in graphs]


def stream_lines():
    """3,000 graph6 lines of n = 3..31, seeded: half a random tree plus up
    to three edges, less one edge in one of ten, half uniform with an edge
    probability in [0.1, 0.9], so that some are disconnected."""
    from distlap import Graph, encode_graph6

    rng = random.Random(11)
    lines = []
    for _ in range(3000):
        n = rng.randint(3, 31)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if rng.random() < 0.5:
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            edges |= set(rng.sample(pairs, rng.randint(0, 3)))
            if rng.random() < 0.1:
                edges.remove(rng.choice(sorted(edges)))
        else:
            density = rng.uniform(0.1, 0.9)
            edges = {p for p in pairs if rng.random() < density}
        lines.append(encode_graph6(Graph(n, frozenset(edges))) + "\n")
    return lines


def mixed_items(lines):
    """The graphs of read_graph6_stream(lines), with every other run of
    same-n graphs, the first included, as one adjacency stack."""
    from distlap import read_graph6_stream
    from distlap.graphs import adjacency_stack

    graphs = (g for _, g in read_graph6_stream(lines))
    items = []
    for k, (_, run) in enumerate(itertools.groupby(graphs, lambda g: g.n)):
        run = list(run)
        items += run if k % 2 else [adjacency_stack(run)]
    return items


def digest(arrays):
    """sha256 of the bytes of an iterable of arrays, one after another,
    with their dtypes, their count and their total length."""
    sha = hashlib.sha256()
    dtypes, count, rows = set(), 0, 0
    for a in arrays:
        sha.update(a.tobytes())
        dtypes.add(str(a.dtype))
        count += 1
        rows += len(a)
    return f"{sorted(dtypes)} x{count}, {rows} rows: {sha.hexdigest()}"


def corpus():
    """repr of every corpus item by name, from the distlap on sys.path."""
    import numpy as np
    from distlap import (
        connected_classes, connected_stacks, encode_graph6,
        enumerate_connected, read_graph6_stream, sample_connected,
        scan_conjecture, scan_soundness)
    from distlap.cli import cmd_analyze, cmd_scan
    from distlap.graphs import adjacency_graphs
    from distlap.named_graphs import FIXTURES, fixture_graph

    def graphs_of(n, dedup):
        # every labeled graph, or one per class, as a stream of Graphs
        if not dedup:
            return enumerate_connected(n)
        return (g for adj in connected_classes(n).stacks()
                for g in adjacency_graphs(adj))

    def by_value(doc):
        # the same text for the same keys and values, whatever the layout
        return json.dumps(doc, sort_keys=True, indent=2)

    out = {}
    for name in ANALYZED:
        doc = json.loads(cmd_analyze(name, fmt="json")[1])
        doc.pop("timing_ms", None)
        out[f"analyze-json {name}"] = by_value(doc)
        out[f"analyze-table {name}"] = cmd_analyze(name)[1]
    for n in range(3, 7):
        for dedup in (False, True):
            out[f"scan n={n} dedup={dedup}"] = repr(
                scan_conjecture(graphs_of(n, dedup)))
            out[f"scan-json n={n} dedup={dedup}"] = by_value(json.loads(
                cmd_scan(enumerate_n=n, dedup=dedup, fmt="json")[1]))
            out[f"scan-table n={n} dedup={dedup}"] = cmd_scan(
                enumerate_n=n, dedup=dedup)[1]
    out["scan n=7 dedup=True"] = repr(scan_conjecture(graphs_of(7, True)))
    out["scan n=7 dedup=False"] = repr(scan_conjecture(connected_stacks(7)))
    out["scan-json n=7 dedup=False"] = by_value(
        json.loads(cmd_scan(enumerate_n=7, fmt="json")[1]))
    graphs = itertools.chain.from_iterable(
        enumerate_connected(n) for n in range(1, 7))
    fixtures = (fixture_graph(name) for name in sorted(FIXTURES))
    out["soundness n<=6 + fixtures"] = repr(
        scan_soundness(itertools.chain(graphs, fixtures)))
    for n in range(1, 7):
        for dedup in (False, True):
            out[f"enumerate n={n} dedup={dedup}"] = "\n".join(
                map(encode_graph6, graphs_of(n, dedup)))
    out["enumerate n=7 dedup=True"] = "\n".join(
        map(encode_graph6, graphs_of(7, True)))
    for n in range(1, 8):
        classes = connected_classes(n)
        for name, a in (("minima", classes.minima), ("table", classes.table),
                        ("weights", classes.weights())):
            out[f"classes n={n} {name} sha256"] = digest([a])
        every = np.arange(len(classes.minima))
        out[f"members n={n} sha256"] = digest(itertools.chain.from_iterable(
            classes.members(every[k:k + 64])
            for k in range(0, len(every), 64)))
    out["scan n=7 classes sha256"] = hashlib.sha256(repr(scan_conjecture(
        connected_classes(7))).encode()).hexdigest()
    out["connected_stacks n=7 sha256"] = digest(connected_stacks(7))
    for n, count, seed in ((7, 2000, 7), (9, 30, 3), (12, 50, 4)):
        out[f"sample n={n} count={count} seed={seed}"] = "\n".join(
            map(encode_graph6, sample_connected(n, count, seed)))
    lines = mixed_lines()
    for name, sweep in (("soundness", scan_soundness),
                        ("scan", scan_conjecture)):
        out[f"{name} mixed graph6 stream"] = repr(
            sweep(g for _, g in read_graph6_stream(lines)))
        out[f"{name} mixed graph6 stream, runs stacked"] = repr(
            sweep(mixed_items(lines)))
        out[f"{name} connected_stacks n=1..6"] = repr(sweep(
            itertools.chain.from_iterable(
                connected_stacks(n) for n in range(1, 7))))
        out[f"{name} long graph6 stream"] = repr(
            sweep(g for _, g in read_graph6_stream(long_lines())))
        for label, sizes in (("1..31", range(1, 32)),
                             ("1,2,17..31", [1, 2, *range(17, 32)])):
            out[f"{name} graph6 tail n={label}"] = repr(sweep(
                g for _, g in read_graph6_stream(tail_lines(sizes))))
        out[f"{name} graph6 stream n=3..31"] = repr(
            sweep(g for _, g in read_graph6_stream(stream_lines())))
    for seed in range(20):
        out[f"soundness unit n=5..10 seed={seed}"] = repr(scan_soundness(
            g for _, g in read_graph6_stream(unit_lines(seed))))
    return out


def first_difference(a, b):
    """The first index at which the sequences a and b differ, else the
    length of the shorter."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


def clip(line, col, width=120):
    """line cut to width characters around column col, '...' marking each
    cut end."""
    if len(line) <= width:
        return line
    lo = max(0, min(col - width // 3, len(line) - width))
    return ("..." if lo else "") + line[lo:lo + width] + (
        "..." if lo + width < len(line) else "")


def run_corpus(tree):
    """The corpus of the distlap in tree/src, computed in a subprocess."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--emit"], cwd=tree,
        env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"corpus failed in {tree}:\n{done.stderr}")
    return json.loads(done.stdout)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", default="HEAD",
                        help="git ref to compare against (default: HEAD)")
    parser.add_argument("--emit", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        json.dump(corpus(), sys.stdout)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        got = {}
        for side, ref in (("parent", args.parent), ("change", None)):
            export(ref, os.path.join(tmp, side))
            got[side] = run_corpus(os.path.join(tmp, side))
    parent, change = got["parent"], got["change"]
    differ = [name for name in parent if parent[name] != change.get(name)]
    differ += [name for name in change if name not in parent]
    for name in differ:
        print(f"DIFFERS: {name}")
        before = parent.get(name, "").splitlines()
        after = change.get(name, "").splitlines()
        # difflib is quadratic in the worst case and runs for many minutes
        # on a 200k-line document, so the excerpt starts at the first line
        # that differs and spans 40 lines of each side
        start = first_difference(before, after)
        col = first_difference(*(
            lines[start] if start < len(lines) else ""
            for lines in (before, after)))
        diff = list(difflib.unified_diff(
            before[start:start + 40], after[start:start + 40], "parent",
            "change", n=1, lineterm=""))
        for line in diff[:20] + (["..."] if len(diff) > 20 else []):
            print(f"  {line[:1]}{clip(line[1:], col)}")
    print(f"{len(parent)} items, {len(differ)} differ "
          f"(parent {args.parent} vs working tree)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
