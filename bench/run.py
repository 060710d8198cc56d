"""distlap benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run starts five child processes one after another. Each
sets up (interpreter start, imports, input generation, warm-up); the first
then measures for S seconds, and setup_s is the median of the five set-ups.
Every end-to-end time is reported at reference speed: divided by the host's
slowdown, which a calibration kernel interleaved with the work measures in
the same process (see calibrate.py). The figures as measured are printed too.
With --trace 1 one child measures S/2 seconds untraced and S/2 seconds with
the span tracer installed, and the run reports the per-layer metrics.

Every unit's output is checked against the reference in bench/reference.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it repeat the figures for
people, together with the machine they were measured on. The exit code is 1
when any check failed and 2 when the run could not be made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
SETUPS = 5
# one thread per process: the numbers must not depend on the BLAS pool size
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(args, child, window, spans=None):
    """Returns (setup seconds, result dict) of one worker process."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--child", str(child), "--window", repr(window),
           "--trace", str(args.trace), "--reference", args.reference]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker {child} exited with code {proc.returncode}")
    return setup, json.loads(lines[-1])


def tail_percentile(values):
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if len(values) * (100.0 - q) / 100.0 >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return q, cuts[round(q * 10) - 1]
    return None, None


def end_to_end(args, setups, results):
    """The end-to-end metrics, every time at reference speed (calibrate.py),
    and the lines printed before the result: the slowdown, the figures as
    measured, and each workload's own names for them."""
    run = results[0]
    latencies = run["ref_latencies_s"]
    metrics = {
        "setup_s": statistics.median(
            s / r["slowdown"] for s, r in zip(setups, results)),
        "graphs_per_ref_s": run["graphs"] / run["ref_busy_s"],
        "p50_ref_ms": 1000.0 * statistics.median(latencies),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    named = {
        "host_slowdown": (run["slowdown"], "x"),
        "measured_setup_s": (statistics.median(setups), "s"),
        "measured_graphs_per_s": (run["graphs"] / run["busy_s"], "1/s"),
        "measured_p50_ms": (
            1000.0 * statistics.median(run["latencies_s"]), "ms"),
    }
    if args.workload == "soundness-sample":
        named["soundness_graphs_per_s"] = (
            metrics["graphs_per_ref_s"], "1/ref_s")
    elif args.workload == "margin-labeled":
        named["margin_graphs_per_s"] = (metrics["graphs_per_ref_s"], "1/ref_s")
    elif args.workload == "margin-dedup":
        named["dedup_scan_s"] = (metrics["p50_ref_ms"] / 1000.0, "ref_s")
        named["dedup_passes"] = (len(latencies), "count")
    else:
        named["analyze_p50_ms"] = (metrics["p50_ref_ms"], "ref_ms")
        q, value = tail_percentile(latencies)
        if q is not None:
            named[f"analyze_p{q:g}_ms"] = (1000.0 * value, "ref_ms")
        named["analyze_requests"] = (len(latencies), "count")
    return metrics, named


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference", default=os.path.join(BENCH, "reference"),
        help="directory of reference results (default: bench/reference)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "distlap")):
        print(f"bench: no distlap sources under {ROOT}/src", file=sys.stderr)
        return 2
    machine = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "loadavg": os.getloadavg(), "seed": args.seed,
        "commit": git_commit(), "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        if args.trace:
            spans = os.path.join(OUT, f"{args.workload}-spans.npz")
            runs = [run_child(args, 0, args.seconds / 2.0, spans=spans)]
        else:
            runs = [run_child(args, k, args.seconds if k == 0 else 0.0)
                    for k in range(SETUPS)]
    except (RuntimeError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    setups = [s for s, _ in runs]
    results = [r for _, r in runs]
    machine["numpy"] = results[0]["numpy"]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    if args.trace:
        values, named = results[0]["layers"], {}
        kind = "per_layer"
    else:
        values, named = end_to_end(args, setups, results)
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if values.keys() != units.keys():
        print(f"bench: metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    print("machine " + json.dumps(machine))
    for name, (value, unit) in named.items():
        print(f"{name} {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "metrics": metrics,
                   "named": {k: v[0] for k, v in named.items()},
                   "attempted": attempted, "failed": failed}, fh, indent=2)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
