"""Benchmark a working tree against a parent ref in alternating pairs.

    python3 scripts/bench_pairs.py LABEL --run WORKLOAD:FIRST-LAST \
        [--run ...] [--trace WORKLOAD:SEED ...] [--parent REF]

Exports src/, bench/ and BENCHMARK.json of the parent ref (git archive) and
of the working tree into two temporary directories, so that neither run
touches the checkout. For every seed of every --run it runs
`bench/run.py --trace 0` once per side, alternating which side runs first,
and for every --trace (one seed) one `--trace 1` run per side; every run
lasts BENCHMARK.json's run_seconds. It writes BENCH_<LABEL>.json in the
repository root: the machine, the method, every run's record, and per
workload and end-to-end metric the q1/median/q3 of each side, the
change/parent ratio of the medians and the number of pairs the change won
(ties count for neither side), plus failed/attempted units.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREE = ("src", "bench", "BENCHMARK.json")


def export(ref, dest):
    """Copy the benchmark's inputs of ref (None: the working tree) to dest."""
    os.makedirs(dest)
    if ref is None:
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in TREE:
            src = os.path.join(ROOT, name)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(dest, name), ignore=ignore)
            else:
                shutil.copy2(src, dest)
        return
    archive = subprocess.run(["git", "-C", ROOT, "archive", ref, *TREE],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def bench(tree, workload, seed, seconds, trace):
    """One bench/run.py run in tree; returns the record it wrote."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{done.stderr}")
    path = os.path.join(tree, ".bench_out",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values):
    # one run is its own quartiles
    q1, _, q3 = statistics.quantiles(values if len(values) > 1 else values * 2,
                                     n=4, method="inclusive")
    return [round(q1, 4), round(statistics.median(values), 4), round(q3, 4)]


def summarize(pairs, declared):
    """Per end-to-end metric: quartiles per side, ratio of medians, wins."""
    summary = {}
    for metric in declared["end_to_end"]:
        name = metric["name"]
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        summary[name] = {
            "parent_q1_median_q3": quartiles(parent),
            "change_q1_median_q3": quartiles(change),
            "change_over_parent_median": round(
                statistics.median(change) / statistics.median(parent), 4),
            "change_wins": f"{wins}/{len(pairs)}",
        }
    for key in ("failed", "attempted"):
        summary[key] = {"parent": sum(p[key] for p, _ in pairs),
                        "change": sum(c[key] for _, c in pairs)}
    return summary


def parse_run(text):
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def parse_trace(text):
    workload, _, seed = text.partition(":")
    return workload, int(seed)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("label")
    parser.add_argument("--run", action="append", default=[], type=parse_run,
                        help="WORKLOAD:FIRST-LAST, one pair per seed")
    parser.add_argument("--trace", action="append", default=[],
                        type=parse_trace, help="WORKLOAD:SEED, traced once "
                        "per side")
    parser.add_argument("--parent", default="HEAD",
                        help="git ref to compare against (default: HEAD)")
    args = parser.parse_args()
    if not args.run and not args.trace:
        parser.error("give at least one --run or --trace")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"]

    result = {"label": args.label, "machine": None,
              "method": (f"python3 bench/run.py --workload W --seed S "
                         f"--seconds {seconds:g} --trace 0 from copies of "
                         f"src/, bench/ and BENCHMARK.json of each tree "
                         f"(parent {args.parent}; working tree); parent and "
                         f"change alternate which runs first, one pair per "
                         f"seed"),
              "summary": {}, "records": {"parent": [], "change": []},
              "extra": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": os.path.join(tmp, "parent"),
                 "change": os.path.join(tmp, "change")}
        export(args.parent, trees["parent"])
        export(None, trees["change"])
        for workload, seeds in args.run:
            pairs = []
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else (
                    "change", "parent")
                got = {side: bench(trees[side], workload, seed, seconds, 0)
                       for side in order}
                for side in ("parent", "change"):
                    result["records"][side].append(got[side])
                pairs.append((got["parent"], got["change"]))
                rates = {side: got[side]["metrics"]["graphs_per_ref_s"]
                         for side in order}
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {rate['value']:.6g}"
                    for side, rate in rates.items()), flush=True)
            result["summary"][workload] = summarize(pairs, declared)
        for workload, seed in args.trace:
            result["extra"][f"per_layer_{workload}_seed{seed}_trace"] = {
                "method": (f"python3 bench/run.py --workload {workload} "
                           f"--seed {seed} --seconds {seconds:g} "
                           f"--trace 1, once per side"),
                **{side: bench(trees[side], workload, seed, seconds, 1)
                   for side in ("parent", "change")}}
    first = (result["records"]["parent"]
             or [t["parent"] for t in result["extra"].values()])[0]
    result["machine"] = {key: first["machine"][key]
                         for key in ("nproc", "python", "numpy")}
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
