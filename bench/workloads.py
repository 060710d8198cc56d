"""The four benchmark workloads: input generation, the timed call into the
public distlap API, and the correctness gate against the stored reference.

Each workload hands out units of work. A unit's input is made before its
timer starts, from the workload seed, the child process index, a phase tag
and the unit index, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field

import distlap.cli
import distlap.graph6
import distlap.scan

# Same formula as distlap.bounds.slack_for when the reference was made; kept
# here so that a later change to the library's slack cannot loosen the gate.
SLACK_ABS = 1e-7
SLACK_REL = 1e-9

# Keys of the analyze document whose value legitimately changes between runs
# or releases: per-run timings and the schema version number.
VOLATILE_KEYS = ("timing_ms", "schema_version")

CHUNK = 32
SIZES = range(5, 11)
ANALYZE_NAMES = ("ex1", "ex2", "g1", "g2", "g3", "K12", "P20", "C30", "S16")
FORMATS = ("table", "json")


def slack(x):
    return SLACK_ABS + SLACK_REL * abs(x)


def mismatches(got, ref, path="$"):
    """Yield one line per difference; numbers that are not both integers
    compare within slack of the reference value."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or got.keys() != ref.keys():
            yield f"{path}: keys differ"
            return
        for key in ref:
            yield from mismatches(got[key], ref[key], f"{path}.{key}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            yield f"{path}: list differs"
            return
        for i, (a, b) in enumerate(zip(got, ref)):
            yield from mismatches(a, b, f"{path}[{i}]")
    elif (isinstance(ref, (int, float)) and not isinstance(ref, bool)
          and isinstance(got, (int, float)) and not isinstance(got, bool)):
        if isinstance(ref, int) and isinstance(got, int):
            if got != ref:
                yield f"{path}: {got!r} != {ref!r}"
        elif abs(got - ref) > slack(ref):
            yield f"{path}: {got!r} not within slack of {ref!r}"
    elif type(got) is not type(ref) or got != ref:
        yield f"{path}: {got!r} != {ref!r}"


def canonical_analyze(doc):
    return {k: v for k, v in doc.items() if k not in VOLATILE_KEYS}


def scan_summary(doc):
    """The parts of a margin scan document the gate compares."""
    scan = doc["scan"]
    return {
        "graphs_tested": scan["graphs_tested"],
        "skipped_regular": scan["skipped_regular"],
        "counterexamples": [c[0] for c in scan["counterexamples"]],
        "histogram": scan["histogram"],
        "min_margin": scan["min_margin"],
        "errors": scan["errors"],
    }


@dataclass
class Unit:
    payload: object
    graphs: int  # graphs the unit covers
    attempts: int  # operations that can fail: graphs, passes or requests
    sizes: Counter = field(default_factory=Counter)  # graphs per vertex count
    n: int = 0  # vertex count when every graph of the unit has the same


# -- soundness-sample ------------------------------------------------------

def _connected(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    frontier = [0]
    while frontier:
        frontier = [w for u in frontier for w in adj[u] if w not in seen]
        seen.update(frontier)
    return len(seen) == n


def random_graph(rng):
    """A connected graph on 5..10 vertices: half sparse (a random spanning
    tree plus 0..3 edges, so trees occur), half dense uniform labeled."""
    n = rng.choice(SIZES)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if rng.random() < 0.5:
        perm = list(range(n))
        rng.shuffle(perm)
        edges = set()
        for v in range(1, n):
            a, b = perm[v], perm[rng.randrange(v)]
            edges.add((min(a, b), max(a, b)))
        free = [p for p in pairs if p not in edges]
        edges.update(rng.sample(free, rng.randint(0, 3)))
    else:
        while True:
            edges = {p for p in pairs if rng.random() < 0.5}
            if _connected(n, edges):
                break
    return n, edges


def encode_graph6(n, edges):
    """graph6 line for n <= 62, written independently of the library."""
    bits = [(i, j) in edges for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    body = "".join(
        chr(63 + sum(b << (5 - k) for k, b in enumerate(bits[s:s + 6])))
        for s in range(0, len(bits), 6))
    return chr(63 + n) + body


class SoundnessSample:
    warm_units = 1

    def __init__(self, seed, child, ref):
        self.seed, self.child, self.ref = seed, child, ref

    def unit(self, tag, index):
        rng = random.Random(f"soundness:{self.seed}:{self.child}:{tag}:{index}")
        graphs = [random_graph(rng) for _ in range(CHUNK)]
        lines = [encode_graph6(n, edges) + "\n" for n, edges in graphs]
        return Unit(lines, CHUNK, CHUNK, Counter(n for n, _ in graphs))

    @staticmethod
    def run(unit):
        stream = distlap.graph6.read_graph6_stream(unit.payload)
        return distlap.scan.scan_soundness(g for _, g in stream)

    def failures(self, unit, report):
        problems = list(mismatches(
            {"violations": [list(v) for v in report.violations],
             "errors": [list(e) for e in report.errors]}, self.ref))
        missing = unit.graphs - report.graphs_checked - len(report.errors)
        if missing:
            problems.append(f"{missing} graphs of the stream never checked")
        bad = ({v[0] for v in report.violations}
               | {e[0] for e in report.errors})
        failed = min(unit.attempts, len(bad) + abs(missing))
        return max(failed, int(bool(problems))), problems


# -- margin-labeled and margin-dedup ---------------------------------------

class MarginScan:
    warm_units = 1
    dedup = False

    def __init__(self, seed, child, ref):
        # the input is the whole labeled space on n vertices: no seed to use
        self.ref = ref

    def unit(self, tag, index):
        n = self.ref["enumerate"]
        return Unit(n, self.ref["labeled_graphs"], 1,
                    Counter({n: self.ref["labeled_graphs"]}), n)

    def run(self, unit):
        return distlap.cli.cmd_scan(
            enumerate_n=unit.payload, dedup=self.dedup, fmt="json")

    def failures(self, unit, out):
        code, text = out
        problems = [] if code == 0 else [f"exit code {code}"]
        expect = {k: v for k, v in self.ref.items()
                  if k not in ("enumerate", "labeled_graphs")}
        problems += mismatches(scan_summary(json.loads(text)), expect)
        return int(bool(problems)), problems


class MarginDedup(MarginScan):
    dedup = True


# -- analyze-single --------------------------------------------------------

class AnalyzeSingle:
    warm_units = len(ANALYZE_NAMES) * len(FORMATS)  # one request of each kind

    def __init__(self, seed, child, ref):
        self.seed, self.child, self.ref = seed, child, ref
        self.requests = [(name, fmt) for name in ANALYZE_NAMES
                         for fmt in FORMATS]
        self._cycle = (None, None)  # (phase tag, cycle index), its order

    def unit(self, tag, index):
        cycle, pos = divmod(index, len(self.requests))
        if self._cycle[0] != (tag, cycle):
            rng = random.Random(
                f"analyze:{self.seed}:{self.child}:{tag}:{cycle}")
            self._cycle = ((tag, cycle),
                           rng.sample(self.requests, len(self.requests)))
        name, fmt = self._cycle[1][pos]
        n = self.ref[name]["n"]
        return Unit((name, fmt), 1, 1, Counter({n: 1}), n)

    @staticmethod
    def run(unit):
        name, fmt = unit.payload
        return distlap.cli.cmd_analyze(name, fmt=fmt)

    def failures(self, unit, out):
        name, fmt = unit.payload
        code, text = out
        problems = [] if code == 0 else [f"{name} {fmt}: exit code {code}"]
        if fmt == "json":
            got = canonical_analyze(json.loads(text))
            problems += (f"{name} json {m}" for m in mismatches(
                got, self.ref[name]["json"]))
        elif text != self.ref[name]["table"]:
            problems.append(f"{name} table text differs")
        return int(bool(problems)), problems


WORKLOADS = {
    "soundness-sample": SoundnessSample,
    "margin-labeled": MarginScan,
    "margin-dedup": MarginDedup,
    "analyze-single": AnalyzeSingle,
}
