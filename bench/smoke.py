"""Smoke test of the benchmark itself; takes about two minutes.

    python3 bench/smoke.py

1. A one-second run of every workload, untraced and traced, passes its
   correctness gate and prints exactly the metric names and units declared
   in BENCHMARK.json.
2. Against a deliberately wrong reference, every workload reports
   correct=false and exits non-zero.
3. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.

Scratch files go under .bench_out/smoke in the checkout.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SCRATCH = os.path.join(ROOT, ".bench_out", "smoke")


def run(workload, trace=0, root=ROOT, extra=()):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result(lines):
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return doc if isinstance(doc, dict) and "correct" in doc else None


def corrupt(reference):
    """Rewrite each reference file so that the right output no longer
    matches it."""
    def edit(workload, change):
        path = os.path.join(reference, f"{workload}.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        change(doc)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def analyze(doc):
        for entry in doc.values():
            bound = entry["json"]["bounds"][0]
            bound["value"] += 1e-3
            entry["table"] = entry["table"].replace("radius", "radii", 1)

    edit("soundness-sample",
         lambda d: d["violations"].append(["Dhc", "planted violation"]))
    edit("margin-labeled", lambda d: d["counterexamples"].pop())
    edit("margin-dedup", lambda d: d["histogram"].update({"< 0": 8}))
    edit("analyze-single", analyze)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    workloads = [w["name"] for w in declared["workloads"]]
    problems = []
    shutil.rmtree(SCRATCH, ignore_errors=True)

    for workload in workloads:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, err = run(workload, trace)
            doc = result(lines)
            want = {m["name"]: m["unit"] for m in declared[kind]}
            if code != 0 or doc is None or not doc["correct"]:
                problems.append(f"{workload} trace {trace}: exit {code}, "
                                f"result {doc}\n{err[-2000:]}")
                continue
            got = {k: m["unit"] for k, m in doc["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics {got}")
            printed = {line.split()[0] for line in lines[:-1]}
            if not want.keys() <= printed:
                problems.append(f"{workload} trace {trace}: a metric line "
                                "is missing before the result")
            print(f"ok   {workload} trace {trace}", flush=True)

    wrong = os.path.join(SCRATCH, "wrong-reference")
    shutil.copytree(os.path.join(BENCH, "reference"), wrong)
    corrupt(wrong)
    for workload in workloads:
        code, lines, _ = run(workload, extra=("--reference", wrong))
        doc = result(lines)
        if code == 0 or doc is None or doc["correct"] or not doc["failed"]:
            problems.append(
                f"{workload}: wrong reference not caught (exit {code}, {doc})")
        else:
            print(f"ok   {workload} fails on a wrong reference", flush=True)

    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, lines, _ = run(workloads[0], root=bare)
    if code == 0 or result(lines) is not None:
        problems.append(f"bare directory: exit {code}, output {lines[-1:]}")
    else:
        print("ok   bare directory exits non-zero without a result")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
