"""One benchmark child process: set up a workload, report readiness, measure.

Started by run.py; puts the checkout's src/ first on the path. It prints
"ready" on its own line once set-up (imports, input generation and the
warm-up units) is done, then measures for --window seconds and prints one
JSON line; with --window 0 it only sets up and runs the calibration kernel
(calibrate.py) that expresses its set-up time at reference speed. With
--trace 1 it measures a second window with the span tracer installed and
adds the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from collections import Counter
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import distlap  # noqa: E402

if not os.path.abspath(distlap.__file__).startswith(SRC + os.sep):
    sys.exit(f"bench: distlap imported from {distlap.__file__}, not {SRC}")

import numpy  # noqa: E402

from calibrate import Calibrator  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

PER_N_LAYERS = ("graphs", "linalg", "bounds", "certify", "scan")
# seconds of calibration after a set-up that measures nothing
CALIBRATE_S = 0.3


def run_unit(workload, unit, stats, clock=perf_counter):
    t0 = clock()
    try:
        out = workload.run(unit)
        elapsed = clock() - t0
        failed, problems = workload.failures(unit, out)
    except Exception:  # the loop keeps going; the failure is counted
        elapsed = clock() - t0
        traceback.print_exc()
        failed, problems = unit.attempts, []
    for line in problems[:5]:
        print(f"bench: mismatch: {line}", file=sys.stderr)
    stats["attempted"] += unit.attempts
    stats["failed"] += failed
    return elapsed


def measure(workload, tag, window, calibrator, tracer=None, on_counted=None):
    """Run whole units until the window has passed (at least warm_units)
    while the calibrator samples the host's speed, and return each unit's
    time both as measured and at reference speed.

    on_counted(graphs) is called once the first warm_units units are done,
    so that counts taken over them repeat exactly for a seed."""
    stats = Counter()
    latencies = []
    calls = []  # the calibrator's call count before and after each unit
    sizes = Counter()
    deadline = perf_counter() + window
    index = 0
    calibrator.start()
    try:
        while index < workload.warm_units or perf_counter() < deadline:
            unit = workload.unit(tag, index)
            if tracer is not None:
                tracer.request_id = index
                tracer.current_n = unit.n
            first = calibrator.calls
            calibrator.unit_started()
            latencies.append(
                run_unit(workload, unit, stats, calibrator.clock))
            calibrator.unit_done()
            calls.append((first, calibrator.calls))
            stats["graphs"] += unit.graphs
            sizes.update(unit.sizes)
            index += 1
            if index == workload.warm_units and on_counted is not None:
                on_counted(stats["graphs"])
    finally:
        calibrator.stop()
    ref_latencies = [t / calibrator.slowdown(*c)
                     for t, c in zip(latencies, calls)]
    return {"latencies_s": latencies, "busy_s": sum(latencies),
            "ref_latencies_s": ref_latencies, "ref_busy_s": sum(ref_latencies),
            "graphs": stats["graphs"], "attempted": stats["attempted"],
            "failed": stats["failed"], "sizes": sizes,
            "slowdown": calibrator.slowdown()}


def count_hooks(counts):
    """Tracer hooks that count work at the layer boundaries."""
    def enumerate_hook(args, kwargs, yielded):
        n = kwargs.get("n", args[0] if args else None)
        dedup = kwargs.get("dedup", args[1] if len(args) > 1 else False)
        counts["enum_masks"] += 1 << (n * (n - 1) // 2)
        counts["enum_yielded"] += yielded
        if dedup:
            counts["dedup_classes"] += yielded

    def scan_hook(args, kwargs, result):
        tested = getattr(result, "graphs_tested", None)
        if tested is None:
            tested = result.graphs_checked
            seen = tested + len(result.errors)
        else:
            seen = tested + result.skipped_regular + len(result.errors)
        counts["scan_tested"] += tested
        counts["scan_seen"] += seen

    def bounds_hook(args, kwargs, report):
        counts["bound_entries"] += len(report.entries)
        counts["bound_applicable"] += sum(e.applicable for e in report.entries)

    def diagnose_hook(args, kwargs, diagnosis):
        counts["equalities_fired"] += diagnosis.equality_within_tol

    def call_hook(key):
        def hook(args, kwargs, result):
            counts[key] += 1
        return hook

    hooks = {
        "graphs.enumerate_connected": enumerate_hook,
        "scan.scan_conjecture": scan_hook,
        "scan.scan_soundness": scan_hook,
        "bounds.compute_all_bounds": bounds_hook,
        "linalg.eig_symmetric": call_hook("eig_calls"),
        "graph6.encode_graph6": call_hook("encode_calls"),
    }
    for name in ("n1", "n3", "cs7", "tb"):
        hooks[f"certify.diagnose_{name}"] = diagnose_hook
    return hooks


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, traced, untraced, first_counts, first_graphs):
    us = 1e6 / traced["slowdown"]  # seconds as measured to µs at reference
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_us"] = us * ratio(
            tracer.layer_self_s(layer), traced["graphs"])
    for layer in PER_N_LAYERS:
        for n in SIZES:
            out[f"{layer}.n{n}.self_us"] = us * ratio(
                tracer.layer_self_s(layer, n), traced["sizes"][n])
    c = first_counts
    out["graphs.enumerate_yield"] = ratio(c["enum_yielded"], c["enum_masks"])
    out["graphs.dedup_class_ratio"] = ratio(c["dedup_classes"], first_graphs)
    out["scan.tested_ratio"] = ratio(c["scan_tested"], c["scan_seen"])
    out["linalg.eig_calls_per_graph"] = ratio(c["eig_calls"], first_graphs)
    out["bounds.applicable_ratio"] = ratio(
        c["bound_applicable"], c["bound_entries"])
    out["certify.equalities_fired"] = c["equalities_fired"]
    out["graph6.encode_calls_per_graph"] = ratio(
        c["encode_calls"], first_graphs)
    # both windows at reference speed, so host drift between them cancels
    out["trace_overhead_ratio"] = ratio(
        traced["ref_busy_s"] / traced["graphs"],
        untraced["ref_busy_s"] / untraced["graphs"])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--child", type=int, default=0)
    parser.add_argument("--window", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--spans", help="where --trace 1 writes the spans")
    args = parser.parse_args()

    with open(os.path.join(args.reference, f"{args.workload}.json"),
              encoding="utf-8") as fh:
        ref = json.load(fh)
    workload = WORKLOADS[args.workload](args.seed, args.child, ref)
    warm = Counter()
    for index in range(workload.warm_units):
        run_unit(workload, workload.unit("warm", index), warm)
    print("ready", flush=True)

    result = {"attempted": warm["attempted"], "failed": warm["failed"],
              "numpy": numpy.__version__}
    if args.window > 0:
        untraced = measure(workload, "run", args.window, Calibrator())
        for key in ("latencies_s", "busy_s", "ref_latencies_s", "ref_busy_s",
                    "graphs", "slowdown"):
            result[key] = untraced[key]
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
    else:
        calibrator = Calibrator()
        calibrator.calibrate(CALIBRATE_S)
        result["slowdown"] = calibrator.slowdown()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        counts = Counter()
        first = {}

        def on_counted(graphs):
            first.update(counts=Counter(counts), graphs=graphs)

        calibrator = Calibrator()
        tracer = Tracer(count_hooks(counts), clock=calibrator.clock)
        tracer.install()
        try:
            traced = measure(workload, "trace", args.window, calibrator,
                             tracer, on_counted)
        finally:
            tracer.uninstall()
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["layers"] = layer_metrics(
            tracer, traced, untraced, first["counts"], first["graphs"])
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
