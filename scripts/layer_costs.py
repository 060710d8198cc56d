"""Per-layer costs of distlap, in microseconds per graph at a fixed n.

    python3 scripts/layer_costs.py [--n N] [--passes K] [--seed S] \
        [--graph NAME] [--parent REF]

Times each layer of the pipeline in one process, on seeded inputs built
before any timer starts: one sweep chunk of chunk_limit(N) uniform
connected labeled graphs on N vertices (sample_connected) and, for the
enumeration layers, the whole of N:

  classes      connected_classes(N), per class
  labeled      connected_stacks(N) read to the end, per labeled graph;
               it builds connected_classes(N) and lists the connected
               masks off its class table, so its time includes the
               classes row's
  graph6       read_graph6_stream over the chunk's graph6 lines
  distances    connected_distances of the chunk's adjacency stack
  spectra      what the soundness sweep solves: build_operators and the
               eigensolve of L and Q
  bounds       bound_values
  diagnose     certify.diagnose
  identities   certify.identity_failures, the soundness sweep's identity
               checks
  render       cmd_analyze's table and JSON text of each graph's report
  one-graph    what one cmd_analyze request computes, per call:
               compute_all_bounds on one graph, the first of the chunk or
               the --graph NAME that cmd_analyze resolves (a fixture such
               as g1, or a builtin such as K12), plus its table and JSON
               text; a pass makes 20 calls in a row, as a closed loop of
               requests does
  one-bounds   compute_all_bounds alone on that graph, per call, 20 calls
               in a row
  listing      the graph6 lines of every labeled member of the classes
               that the margin scan of all labeled graphs on N vertices
               lists (its counterexamples and equalities), in the listing
               calls that scan_conjecture(connected_classes(N)) makes
               (member masks and one mask encode), per member; absent
               where it lists none
  scan-json    the canonical JSON text of that scan's document,
               to_canonical_json(scan_document(...)) as `scan --enumerate
               N --fmt json` writes it, per listed graph; absent with the
               listing row
  soundness-unit
               scan_soundness over a seeded stream of 32 graph6 lines of
               connected graphs on 5..10 vertices (sample_connected, n
               drawn uniformly), read through read_graph6_stream: the
               shape of one soundness-sample unit, per graph, whatever N

Each layer runs alone on inputs that stay warm in cache, so the rows
understate what a layer costs inside a sweep; the soundness-unit row runs
them all in a row, as a sweep does.

A pass runs every layer once, in this order; the script prints the min and
the median over K passes. With --parent, the distlap of REF, exported with
bench_pairs.export, runs the same passes in a second process; the two
alternate which runs each pass first, and the script prints both sides and
the change/parent ratios of the mins and of the medians. Every process
runs with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import ROOT, export  # noqa: E402

# calls in a row of each one-graph row per pass
ONE_GRAPH_CALLS = 20
# graphs and their vertex counts in the stream of the soundness-unit row
UNIT_GRAPHS = 32
UNIT_SIZES = (5, 10)
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def layer_calls(n, seed, name=None):
    """(layer, call, graphs) for every layer, call timing one run of it and
    graphs the count to divide that time by, from the distlap on
    sys.path; the one-graph rows run on the graph that cmd_analyze resolves
    name to, or on the chunk's first graph."""
    from distlap import (
        compute_all_bounds, connected_classes, connected_stacks,
        encode_graph6, read_graph6_stream, sample_connected, scan,
        scan_conjecture, scan_soundness)
    from distlap.bounds import bound_values
    from distlap.certify import diagnose, identity_failures
    from distlap.cli import (
        report_document, report_table, resolve_graph_input, scan_document,
        to_canonical_json)
    from distlap.graphs import (
        adjacency_stack, chunk_limit, connected_distances, distance_data)
    from distlap.linalg import eig_symmetric
    from distlap.operators import build_operators

    graphs = list(sample_connected(n, chunk_limit(n), seed))
    lines = [encode_graph6(g) + "\n" for g in graphs]
    adj = adjacency_stack(graphs)
    dd = distance_data(connected_distances(adj)[1])

    def solve():
        # the spectra of L and Q, as the soundness sweep solves them
        return eig_symmetric(build_operators(dd)[1:], dd.n)
    ops, spectra = build_operators(dd), solve()
    stages = (lambda: bound_values(dd),
              lambda: diagnose(values, ops, spectra, dd),
              lambda: identity_failures(dd, ops, spectra))
    values = stages[0]()
    reports = [compute_all_bounds(g) for g in graphs]
    one = graphs[0] if name is None else resolve_graph_input(name)
    classes = connected_classes(n)
    labeled = sum(len(a) for a in connected_stacks(n))
    # each listing call of the labeled margin scan, as (call, rows), read
    # by a spy on the listings of scan._class_chunks while the scan runs
    calls = []
    class_chunks = scan._class_chunks

    def spy(source):
        for *chunk, listed in class_chunks(source):
            def spied(rows, listed=listed):
                calls.append((listed, rows.copy()))
                return listed(rows)
            yield (*chunk, spied)
    scan._class_chunks = spy
    try:
        result = scan_conjecture(classes)
    finally:
        scan._class_chunks = class_chunks
    params = {"enumerate": n, "dedup": False, "slack": result.slack}

    def read_stacks():
        for _ in connected_stacks(n):
            pass

    def render():
        for report in reports:
            report_table(report)
            to_canonical_json(report_document(report))

    def one_graph():
        for _ in range(ONE_GRAPH_CALLS):
            report = compute_all_bounds(one)
            report_table(report)
            to_canonical_json(report_document(report))

    def one_bounds():
        for _ in range(ONE_GRAPH_CALLS):
            compute_all_bounds(one)

    def listing():
        for call, rows in calls:
            call(rows)

    def scan_json():
        to_canonical_json(scan_document(result, params))

    listed = sum(len(lines) for call, rows in calls for lines in call(rows))
    rng = random.Random(f"soundness-unit:{seed}")
    unit = [encode_graph6(next(sample_connected(
        rng.randint(*UNIT_SIZES), 1, rng.getrandbits(32)))) + "\n"
        for _ in range(UNIT_GRAPHS)]

    def soundness_unit():
        scan_soundness(g for _, g in read_graph6_stream(unit))
    return (
        ("classes", lambda: connected_classes(n), len(classes.minima)),
        ("labeled", read_stacks, labeled),
        ("graph6", lambda: list(read_graph6_stream(lines)), len(graphs)),
        ("distances", lambda: connected_distances(adj), len(graphs)),
        ("spectra", solve, len(graphs)),
        *((layer, stage, len(graphs)) for layer, stage in zip(
            ("bounds", "diagnose", "identities"), stages)),
        ("render", render, len(graphs)),
        ("one-graph", one_graph, ONE_GRAPH_CALLS),
        ("one-bounds", one_bounds, ONE_GRAPH_CALLS),
    ) + ((("listing", listing, listed), ("scan-json", scan_json, listed))
         if calls else ()) + (
        ("soundness-unit", soundness_unit, UNIT_GRAPHS),)


def serve(n, seed, name):
    """Worker loop: build the inputs, print "ready", then answer each line
    of standard input with one pass, a JSON object of us per graph by
    layer."""
    calls = layer_calls(n, seed, name)
    for _, call, _ in calls:  # warm-up
        call()
    print("ready", flush=True)
    for _ in sys.stdin:
        got = {}
        for layer, call, count in calls:
            t0 = time.perf_counter()
            call()
            got[layer] = 1e6 * (time.perf_counter() - t0) / count
        print(json.dumps(got), flush=True)


def start(tree, n, seed, name):
    """A worker process on the distlap in tree/src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **THREAD_ENV)
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--serve", "--n", str(n),
         "--seed", str(seed)] + ([] if name is None else ["--graph", name]),
        cwd=tree, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True)
    if proc.stdout.readline().strip() != "ready":
        stop(proc)
        raise RuntimeError(f"the worker in {tree} did not start")
    return proc


def stop(proc):
    """End a worker: close its input, which ends its loop, and wait."""
    proc.stdin.close()
    proc.wait()
    proc.stdout.close()


def one_pass(proc):
    proc.stdin.write("pass\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())


def spread(passes, layer):
    values = [p[layer] for p in passes]
    return min(values), statistics.median(values)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--n", type=int, default=6, choices=range(3, 8),
                        help="vertex count (default 6)")
    parser.add_argument("--passes", type=int, default=20,
                        help="passes per side (default 20)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the sampled chunk (default 1)")
    parser.add_argument("--graph", metavar="NAME",
                        help="graph of the one-graph rows, as cmd_analyze "
                             "resolves it (default: the chunk's first)")
    parser.add_argument("--parent", help="git ref to compare against")
    parser.add_argument("--serve", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.serve:
        serve(args.n, args.seed, args.graph)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"change": ROOT}
        if args.parent:
            sides = {"parent": os.path.join(tmp, "parent"), **sides}
            export(args.parent, sides["parent"])
        procs = {}
        try:
            for side, tree in sides.items():
                procs[side] = start(tree, args.n, args.seed, args.graph)
            passes = {side: [] for side in procs}
            for k in range(args.passes):
                order = list(procs) if k % 2 == 0 else list(procs)[::-1]
                for side in order:
                    passes[side].append(one_pass(procs[side]))
        finally:
            for proc in procs.values():
                stop(proc)
    print(f"us per graph at n = {args.n}, seed {args.seed}, min / median of "
          f"{args.passes} passes" + (f"; one graph {args.graph}"
                                     if args.graph else "")
          + (f"; parent {args.parent}" if args.parent else ""))
    head = f"{'layer':<15}" + "".join(
        f"{side + ' min':>14}{side + ' med':>14}" for side in passes)
    if args.parent:
        head += f"{'ratio min':>11}{'ratio med':>11}"
    print(head)
    for layer in passes["change"][0]:
        got = {side: spread(p, layer) for side, p in passes.items()}
        row = f"{layer:<15}" + "".join(
            f"{lo:>14.3f}{med:>14.3f}" for lo, med in got.values())
        if args.parent:
            row += "".join(f"{c / p:>11.3f}" for p, c in zip(
                got["parent"], got["change"]))
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
