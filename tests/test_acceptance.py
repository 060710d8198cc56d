"""Acceptance gate: eight criteria, one printed pass/fail line each.

Two criteria fail by design of the checked material itself, not by
implementation defects; each failure message carries the full evidence:

- criterion 2 pins the published 12-vertex reference tables. Seventeen of
  those cells are mutually inconsistent (no 12-vertex graph can produce
  them; see the failure diff) and cannot be reproduced by any correct
  implementation.
- criterion 4 asserts the scanned sweep finds no strict counterexample to
  "the trace bound improves the strict transmission bound". The sweep
  does find counterexamples (stars, verifiable by exact integer
  arithmetic), so the assertion fails and reports them.
"""

import itertools
import time

import numpy as np
import pytest

from distlap import (
    BoundId, check_tree_determinant, compute_all_bounds, connected_stacks,
    enumerate_connected, eig_symmetric, encode_graph6_stack, parse_graph6,
    sample_connected, scan_conjecture, scan_soundness, Graph)
from distlap.graphs import (
    adjacency_graphs, adjacency_stack, chunk_limit, connected_distances,
    distance_data)
from distlap.named_graphs import (
    complete_graph, fixture_graph, path_graph, star_graph)
from oracles import all_labeled_trees, brauer_shift_spectrum, charpoly_eigenvalues

TOL = 5e-4


@pytest.fixture
def report(capsys):
    """One pass/fail line per criterion, on the real terminal even when the
    test passes (capture is suspended for the line)."""
    def _report(num, ok, detail):
        with capsys.disabled():
            print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}",
                  flush=True)
    return _report


def bound_values(r, ids):
    return [r.entry(bid).value for bid in ids]


def test_criterion_1_example_fixtures(report):
    t0 = time.perf_counter()
    ex1 = compute_all_bounds(fixture_graph("ex1"))
    ex2 = compute_all_bounds(fixture_graph("ex2"))
    elapsed = time.perf_counter() - t0

    problems = []
    want_spec = [0.0, 5.0, 5.5858, 7.0, 8.4142]
    got_spec = sorted(ex1.spectrum_l.tolist())
    for want, got in zip(want_spec, got_spec):
        if abs(want - got) > TOL:
            problems.append(f"ex1 L eigenvalue {got:.6f} vs {want}")
    if abs(ex2.radius_l - 19.3723) > TOL:
        problems.append(f"ex2 L radius {ex2.radius_l:.6f} vs 19.3723")
    want_table = [29.4919, 63.0, 21.8740, 27.0, 21.0, 21.4782]
    got_table = bound_values(ex2, (BoundId.L_I1, BoundId.L_D1, BoundId.L_D2,
                                   BoundId.L_N1, BoundId.L_N2, BoundId.L_N3))
    for bid, want, got in zip("i1 d1 d2 n1 n2 n3".split(), want_table, got_table):
        if abs(want - got) > TOL:
            problems.append(f"ex2 {bid} {got:.6f} vs {want}")
    if abs(ex2.radius_q - 28.0) > 1e-6:
        problems.append(f"ex2 Q radius {ex2.radius_q!r} vs 28")
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.3f}s, wanted < 1s")

    report(1, not problems,
           "example fixtures: L-spectrum, L bound table, signless radius"
           f" ({elapsed:.2f}s)")
    assert not problems, "\n".join(problems)


def test_criterion_2_twelve_vertex_tables(report):
    pinned = {
        "g1": {
            "L radius": 33.2915,
            "i1": 54.5307, "d1": 184.0, "d2": 38.5963,
            "n1": 45.0, "n2": 36.0, "n3": 36.4199,
            "Q radius": 50.8062,
            "i3": 49.0, "i5": 48.4974, "ci5": 48.4358,
            "i4": 51.6923, "i6": 51.8459, "i2": 54.5307,
            "cs6": 51.7969, "cs7": 53.2578,
        },
        "g2": {
            "Q radius": 47.5268,
            "i3": 45.6364, "i5": 44.8107, "ci5": 44.5918,
            "i4": 50.1538, "i6": 51.0686, "i2": 54.5307,
            "cs6": 51.2847, "cs7": 49.6175,
        },
        "g3": {
            "Q radius": 45.4891,
            "i3": 44.3636, "i5": 44.1814, "ci5": 44.2380,
            "i4": 47.0, "i6": 47.4974, "i2": 50.1151,
            "cs6": 47.5590, "cs7": 47.2386,
        },
    }
    cell_ids = {
        "i1": BoundId.L_I1, "d1": BoundId.L_D1, "d2": BoundId.L_D2,
        "n1": BoundId.L_N1, "n2": BoundId.L_N2, "n3": BoundId.L_N3,
        "i3": BoundId.Q_I3, "i5": BoundId.Q_I5, "ci5": BoundId.Q_CI5,
        "i4": BoundId.Q_I4, "i6": BoundId.Q_I6, "i2": BoundId.Q_I2,
        "cs6": BoundId.Q_CS6, "cs7": BoundId.Q_CS7,
    }
    diffs = []
    total = 0
    for name, cells in pinned.items():
        t0 = time.perf_counter()
        r = compute_all_bounds(fixture_graph(name))
        elapsed = time.perf_counter() - t0
        for cell, want in cells.items():
            total += 1
            if cell == "L radius":
                got = r.radius_l
            elif cell == "Q radius":
                got = r.radius_q
            else:
                got = r.entry(cell_ids[cell]).value
            if abs(got - want) > TOL:
                diffs.append(f"{name} {cell}: computed {got:.4f}, pinned {want}")
        if elapsed >= 1.0:
            diffs.append(f"{name} runtime {elapsed:.3f}s, wanted < 1s")

    ok = not diffs
    report(2, ok,
           f"12-vertex pinned tables: {total - len(diffs)}/{total} cells match"
           + ("" if ok else f", {len(diffs)} irreproducible"))
    assert ok, "pinned cells not reproduced:\n" + "\n".join(diffs)


def test_criterion_3_soundness_sweep(report):
    t0 = time.perf_counter()
    source = itertools.chain.from_iterable(
        connected_stacks(n) for n in range(1, 7))
    rep = scan_soundness(source)
    exhaustive = rep.graphs_checked
    rep7 = scan_soundness(sample_connected(7, 100000, seed=7))
    elapsed = time.perf_counter() - t0

    problems = []
    if rep.violations or rep.errors:
        problems.append(f"n <= 6: {len(rep.violations)} violations, "
                        f"{len(rep.errors)} errors: {rep.violations[:5]}")
    if rep7.violations or rep7.errors:
        problems.append(f"n = 7 sample: {len(rep7.violations)} violations, "
                        f"{len(rep7.errors)} errors: {rep7.violations[:5]}")
    if exhaustive != 27476:
        problems.append(f"exhaustive count {exhaustive}, wanted 27476")
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.0f}s, wanted < 300s")

    report(3, not problems,
           f"soundness sweep clean on {exhaustive} exhaustive + "
           f"{rep7.graphs_checked} sampled graphs ({elapsed:.0f}s)")
    assert not problems, "\n".join(problems)


def test_criterion_4_conjecture_sweep(report):
    per_n = {}
    worst = None
    for n in (4, 5, 6, 7):
        result = scan_conjecture(connected_stacks(n))
        per_n[n] = result
        if result.min_margin is not None and (
                worst is None or result.min_margin < worst):
            worst = result.min_margin
    strict = sum(len(r.counterexamples) for r in per_n.values())

    ok = strict == 0
    counts = ", ".join(
        f"n={n}: {len(r.counterexamples)}" for n, r in per_n.items())
    report(4, ok,
           "conjecture sweep n in 4..7: "
           + (f"no strict counterexamples, min margin {worst:.6f}" if ok
              else f"{strict} strict counterexamples ({counts}), "
                   f"min margin {worst:.6f}"))
    if not ok:
        # exact-arithmetic witness: the 4-spoke star, margin sqrt(13.6) - 4
        witness = scan_conjecture([star_graph(5)])
        lines = [
            f"the sweep must find zero strict counterexamples; it found {strict}",
            f"per size: {counts}",
            f"worst margin {worst!r} (6-spoke star: trace bound 17 exactly, "
            "strict bound 15.8107)",
            "smallest witness, checkable by hand: the 4-spoke star "
            f"{witness.counterexamples[0][0]!r} has trace bound "
            f"{witness.counterexamples[0][1]!r} (= 8 + 3 exactly) vs strict "
            f"bound {witness.counterexamples[0][2]!r} (= 7 + sqrt(13.6)), "
            f"margin {witness.min_margin!r}",
        ]
        pytest.fail("\n".join(lines))


def test_criterion_5_complete_graph_exactness(report):
    problems = []
    for n in range(3, 11):
        r = compute_all_bounds(complete_graph(n))
        lvals = r.spectrum_l
        if abs(float(lvals[-1])) > 1e-8 or np.abs(lvals[:-1] - n).max() > 1e-8:
            problems.append(f"K{n} L spectrum {lvals}")
        qvals = r.spectrum_q
        if abs(float(qvals[0]) - (2 * n - 2)) > 1e-8 or (
                np.abs(qvals[1:] - (n - 2)).max() > 1e-8):
            problems.append(f"K{n} Q spectrum {qvals}")
        for bid in (BoundId.L_N3, BoundId.Q_CS7, BoundId.Q_TB_UP, BoundId.L_N1):
            diag = r.entry(bid).diagnosis
            if not diag.equality_within_tol:
                problems.append(f"K{n} {bid.value} equality did not fire")

    report(5, not problems,
           "complete graphs n = 3..10: closed-form spectra and equality "
           "diagnoses")
    assert not problems, "\n".join(problems)


def test_criterion_6_eigensolver_oracle(report):
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        a = rng.uniform(-5.0, 5.0, size=(n, n))
        a = (a + a.T) / 2.0
        got = eig_symmetric(a)
        want = charpoly_eigenvalues(a.tolist())
        worst = max(worst, float(np.abs(got - np.array(want)).max()))
    solver_ok = worst <= 1e-7

    # rank-one shift: spectrum of L + ones p^T is the L spectrum with the
    # zero replaced by sum(p), on every connected labeled graph with n <= 6,
    # one stacked solve of each kind per chunk
    shift_worst = 0.0
    imag_worst = 0.0
    for n in range(1, 7):
        for adj in connected_stacks(n):
            connected, dist = connected_distances(adj)
            assert connected.all(), n
            dd = distance_data(dist)
            l_mat = dd.tr[..., None] * np.eye(n, dtype=np.int64) - dd.dist
            ref = brauer_shift_spectrum(l_mat, dd.p)
            imag_worst = max(imag_worst, float(np.abs(ref.imag).max()))
            expected = np.sort(np.concatenate(
                (dd.p.sum(axis=-1, keepdims=True).astype(float),
                 eig_symmetric(l_mat.astype(float))[:, :-1]),
                axis=-1), axis=-1)
            diff = np.abs(expected - np.sort(ref.real, axis=-1))
            shift_worst = max(shift_worst, float(diff.max()))
    shift_ok = shift_worst <= 1e-6 and imag_worst <= 1e-6

    report(6, solver_ok and shift_ok,
           f"eigensolver vs root bracketing (max diff {worst:.2e}), "
           f"rank-one shift identity (max diff {shift_worst:.2e})")
    assert solver_ok, f"largest oracle deviation {worst!r}"
    assert shift_ok, f"shift identity deviation {shift_worst!r} / {imag_worst!r}"


def test_criterion_7_tree_determinant(report):
    count = 0
    for n in range(1, 9):
        trees = all_labeled_trees(n)
        while chunk := list(itertools.islice(trees, chunk_limit(n))):
            graphs = [Graph(n, frozenset(edges)) for edges in chunk]
            connected, dist = connected_distances(adjacency_stack(graphs))
            assert connected.all(), n
            dd = distance_data(dist)
            for i, (g, edges) in enumerate(zip(graphs, chunk)):
                assert check_tree_determinant(g, dd.row(i)), (
                    n, sorted(edges))
            count += len(chunk)
    ok = count == 280393  # 1 + sum of n^(n-2) for n = 2..8
    report(7, ok, f"determinant closed form on all {count} labeled trees n <= 8")
    assert ok, f"tree count {count}"


def test_criterion_8_graph6_conformance(report):
    hand = {
        "@": path_graph(1),
        "A_": complete_graph(2),
        "Bw": complete_graph(3),
        "Bg": path_graph(3),
        "Ch": path_graph(4),
        "D~{": complete_graph(5),
    }
    problems = []
    for text, want in hand.items():
        got = parse_graph6(text)
        if got != want:
            problems.append(f"{text!r} decoded to {got}, wanted {want}")
    count = 0
    for n in range(1, 8):
        # each labeled graph's line, written from its stack row, against
        # the Graph of the same row
        rows = itertools.chain.from_iterable(
            zip(encode_graph6_stack(adj), adjacency_graphs(adj))
            for adj in connected_stacks(n))
        for line, g in rows:
            if parse_graph6(line) != g:
                problems.append(f"round trip broke on {line!r}")
                break
            count += 1

    report(8, not problems,
           f"graph6: {len(hand)} hand-decoded fixtures, {count} round trips")
    assert not problems, "\n".join(problems)
