"""Regenerate bench/reference/*.json from the library in src/.

    python3 bench/make_reference.py

Run it only when the scientific output is meant to change, and review the
diff: the files are the correctness gate of every benchmark run.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from distlap import cli  # noqa: E402

from workloads import (  # noqa: E402
    ANALYZE_NAMES, canonical_analyze, scan_summary)

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference")
MARGIN_N = 6


def margin(dedup):
    _, text = cli.cmd_scan(enumerate_n=MARGIN_N, dedup=dedup, fmt="json")
    return scan_summary(json.loads(text))


def main():
    labeled = margin(False)
    covered = (labeled["graphs_tested"] + labeled["skipped_regular"]
               + len(labeled["errors"]))
    docs = {
        "soundness-sample": {"violations": [], "errors": []},
        "margin-labeled": {"enumerate": MARGIN_N, "labeled_graphs": covered,
                           **labeled},
        "margin-dedup": {"enumerate": MARGIN_N, "labeled_graphs": covered,
                         **margin(True)},
        "analyze-single": {},
    }
    for name in ANALYZE_NAMES:
        doc = json.loads(cli.cmd_analyze(name, fmt="json")[1])
        docs["analyze-single"][name] = {
            "n": doc["graph"]["n"],
            "json": canonical_analyze(doc),
            "table": cli.cmd_analyze(name, fmt="table")[1],
        }
    os.makedirs(REFERENCE, exist_ok=True)
    for workload, doc in docs.items():
        with open(os.path.join(REFERENCE, f"{workload}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
