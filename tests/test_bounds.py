"""Bound values on fixtures, applicability rules, report structure."""

import collections
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from distlap import (
    bounds, certify, linalg, operators, scan)
from distlap import (
    BOUND_META, BoundId, Side, Target, compute_all_bounds,
    connected_classes, encode_graph6, enumerate_connected, sample_connected,
    slack_for)
from distlap.bounds import (
    _FLOAT_N, _ROW, CLOSED_FORMS, bound_L_n2, bound_values,
    closed_form_bounds)
from distlap.errors import ConsistencyError
from distlap.graphs import (
    DistanceData, adjacency_graphs, adjacency_stack, batch_of_one,
    connected_distances, distance_data)
from distlap.named_graphs import (
    FIXTURES, complete_graph, cycle_graph, fixture_graph, path_graph,
    star_graph)
from oracles import bound_formulas

# printed-table precision for the 12-vertex fixtures
TOL = 5e-4


def values_of(report):
    return {e.bound_id: e.value for e in report.entries}


def one_graph(g):
    """The DistanceData of g as a batch of one, the bound functions' input."""
    return distance_data(batch_of_one(g))


def forms_of(dd):
    """The rows of closed_form_bounds on the batch dd, by bound name."""
    rows = closed_form_bounds(dd)
    return {bid.value: row for bid, row in zip(CLOSED_FORMS, rows)}


def test_ex1_bounds_hand_derived():
    # 5-vertex fan: every value below re-derived by hand from the
    # distance matrix (transmissions 4,6,5,5,6, W = 13, ||D||_F^2 = 38)
    r = compute_all_bounds(fixture_graph("ex1"))
    v = values_of(r)
    assert abs(r.radius_l - (7 + math.sqrt(2))) < 1e-9
    assert abs(v[BoundId.L_I1] - (6 + math.sqrt(40))) < 1e-9
    assert v[BoundId.L_D1] == 11.0
    assert abs(v[BoundId.L_D2] - (6 + math.sqrt(10.4))) < 1e-9
    assert v[BoundId.L_N1] == 9.0
    assert v[BoundId.L_N2] == 9.0
    assert abs(v[BoundId.L_N3] - (6.5 + math.sqrt(5.25))) < 1e-9
    assert v[BoundId.L_R1] is None  # not transmission-regular
    assert v[BoundId.L_R2] is None
    assert (v[BoundId.Q_TB_LO], v[BoundId.Q_TB_UP]) == (8.0, 12.0)
    assert v[BoundId.Q_I3] == 9.5
    assert abs(v[BoundId.Q_I4] - 67 / 6) < 1e-9
    assert abs(v[BoundId.Q_I5] - math.sqrt(76)) < 1e-9
    assert abs(v[BoundId.Q_I6] - math.sqrt(134)) < 1e-9
    assert abs(v[BoundId.Q_CI5] - (3 + math.sqrt(217)) / 2) < 1e-9
    assert abs(v[BoundId.Q_CS6] - (5 + math.sqrt(329)) / 2) < 1e-9
    assert abs(v[BoundId.Q_CS7] - (5.2 + math.sqrt(32.64))) < 1e-9


def test_g1_bounds():
    r = compute_all_bounds(fixture_graph("g1"))
    v = values_of(r)
    assert abs(r.radius_l - 36.7446) < TOL
    assert abs(r.radius_q - 50.8062) < TOL
    expect = {
        BoundId.L_I1: 54.5307, BoundId.L_D1: 184.0, BoundId.L_D2: 40.0475,
        BoundId.L_N1: 48.0, BoundId.L_N2: 38.0, BoundId.L_N3: 39.3351,
        BoundId.Q_TB_LO: 48.0, BoundId.Q_TB_UP: 52.0,
        BoundId.Q_I3: 49.3333, BoundId.Q_I4: 51.3846,
        BoundId.Q_I5: 48.6621, BoundId.Q_I6: 51.6914,
        BoundId.Q_I2: 54.5307, BoundId.Q_CI5: 48.4358,
        BoundId.Q_CS6: 51.7969, BoundId.Q_CS7: 53.2578,
    }
    for bid, want in expect.items():
        assert abs(v[bid] - want) < TOL, bid
    assert v[BoundId.L_R1] is None and v[BoundId.L_R2] is None


def test_g2_bounds():
    r = compute_all_bounds(fixture_graph("g2"))
    v = values_of(r)
    assert abs(r.radius_l - 33.2915) < TOL
    assert abs(r.radius_q - 47.5268) < TOL
    expect = {
        BoundId.L_I1: 54.5307, BoundId.L_D1: 164.0, BoundId.L_D2: 38.5963,
        BoundId.L_N1: 45.0, BoundId.L_N2: 36.0, BoundId.L_N3: 36.4199,
        BoundId.Q_TB_LO: 44.0, BoundId.Q_TB_UP: 52.0,
        BoundId.Q_I3: 45.8182, BoundId.Q_I4: 49.5385,
        BoundId.Q_I5: 44.8999, BoundId.Q_I6: 50.7543,
        BoundId.Q_I2: 54.5307, BoundId.Q_CI5: 44.5918,
        BoundId.Q_CS6: 51.2847, BoundId.Q_CS7: 49.6175,
    }
    for bid, want in expect.items():
        assert abs(v[bid] - want) < TOL, bid


def test_g3_bounds():
    r = compute_all_bounds(fixture_graph("g3"))
    v = values_of(r)
    assert abs(r.radius_l - 31.1231) < TOL
    assert abs(r.radius_q - 45.4891) < TOL
    expect = {
        BoundId.L_I1: 50.1151, BoundId.L_D1: 152.0, BoundId.L_D2: 35.5470,
        BoundId.L_N1: 40.0, BoundId.L_N2: 34.0, BoundId.L_N3: 34.1748,
        BoundId.Q_TB_LO: 44.0, BoundId.Q_TB_UP: 48.0,
        BoundId.Q_I3: 44.7273, BoundId.Q_I4: 46.6667,
        BoundId.Q_I5: 44.3621, BoundId.Q_I6: 47.3286,
        BoundId.Q_I2: 50.1151, BoundId.Q_CI5: 44.2380,
        BoundId.Q_CS6: 47.5590, BoundId.Q_CS7: 47.2386,
    }
    for bid, want in expect.items():
        assert abs(v[bid] - want) < TOL, bid


def test_ex2_transmission_regular_collapses():
    # 15 vertices, every transmission 14: the interval closes and all four
    # Hong-style bounds plus the quadratic pair land exactly on 2k = 28
    r = compute_all_bounds(fixture_graph("ex2"))
    v = values_of(r)
    assert abs(r.radius_q - 28.0) < 1e-8
    for bid in (BoundId.Q_TB_LO, BoundId.Q_TB_UP, BoundId.Q_I3, BoundId.Q_I4,
                BoundId.Q_I5, BoundId.Q_I6, BoundId.Q_CI5, BoundId.Q_CS6):
        assert abs(v[bid] - 28.0) < 1e-8, bid
    # regular-only bounds coincide with their general counterparts
    assert v[BoundId.L_R1] == pytest.approx(v[BoundId.L_D2], abs=1e-9)
    assert v[BoundId.L_R2] == pytest.approx(v[BoundId.L_N3], abs=1e-9)
    assert abs(v[BoundId.L_R1] - 21.8740) < TOL
    assert abs(v[BoundId.L_R2] - 21.4782) < TOL
    assert r.entry(BoundId.Q_TB_UP).diagnosis.certificate == "transmission-regular"


def test_vertex_pair_bound_matches_pair_loop():
    graphs = [fixture_graph(name) for name in ("ex1", "ex2", "g1", "g2")]
    graphs += list(sample_connected(9, 30, seed=3))
    # the graphs above take one block of pairs; the 8,256 pairs of a path
    # on 129 vertices take many, and its largest distance, 128, is past
    # int8's +127
    graphs.append(path_graph(129))
    for g in graphs:
        dd = one_graph(g)
        d = dd.dist[0].tolist()
        tr = dd.tr[0].tolist()
        best = max(
            tr[i] + tr[j] + 2 * d[i][j]
            + sum(abs(d[i][k] - d[j][k]) for k in range(g.n) if k not in (i, j))
            for i in range(g.n) for j in range(i + 1, g.n))
        assert bound_L_n2(dd).tolist() == [best / 2.0]


def assert_matches_formulas(values, graphs, ids=tuple(BoundId), pairs=True):
    """Each row of ids in the (len(ids), B) values of graphs within
    slack_for of bound_formulas, and NaN exactly where it gives None."""
    for i, g in enumerate(graphs):
        want = bound_formulas(g.n, g.edges, pairs)
        for k, bid in enumerate(ids):
            got = float(values[k, i])
            if bid.value not in want:
                assert bid is BoundId.L_N2 and not pairs
            elif want[bid.value] is None:
                assert math.isnan(got), (g.n, bid)
            else:
                assert abs(got - want[bid.value]) <= slack_for(
                    want[bid.value]), (g.n, sorted(g.edges), bid, got)


def test_bound_values_match_the_formula_oracle():
    # every class on n <= 6 vertices and the fixtures, padded together to
    # 15 vertices, against each bound's formula over BFS distances; then
    # K150 and P300 as batches of one, and the closed forms of the path and
    # the cycle on 500 vertices, above _FLOAT_N, whose radicands are Python
    # ints
    graphs = [g for n in range(1, 7) for adj in connected_classes(n).stacks()
              for g in adjacency_graphs(adj)]
    graphs += [fixture_graph(name) for name in FIXTURES]
    n = np.array([g.n for g in graphs])
    dd = distance_data(connected_distances(adjacency_stack(graphs), n)[1], n)
    assert len(graphs) == 1 + 1 + 2 + 6 + 21 + 112 + len(FIXTURES)
    assert_matches_formulas(bound_values(dd), graphs)
    for g in (complete_graph(150), path_graph(300)):
        assert_matches_formulas(bound_values(one_graph(g)), [g], pairs=False)
    assert 500 > _FLOAT_N
    for g in (path_graph(500), cycle_graph(500)):
        assert_matches_formulas(
            closed_form_bounds(one_graph(g)), [g], CLOSED_FORMS, pairs=False)


def test_complete_graph_trace_bound_is_exact():
    # the L_N3 and L_R2 radicands of K_n are exactly 0, and the Q_CS7 one
    # is n^2 (n-1), whose scaled root is n - 1. Squared Frobenius norms in
    # floats rounded the L_N3 radicand to -1.85e-9 at n = 208, and put
    # L_R2 at 5.0000000516 on K5 and 1.9e-6 above n on K150
    for n in (*range(2, 301), 577, 1199):
        dist = np.ones((1, n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
        forms = forms_of(distance_data(dist))
        assert forms["L_N3"].tolist() == [n]
        assert forms["L_R2"].tolist() == [n]
        assert forms["Q_CS7"].tolist() == [2 * (n - 1)]
    assert compute_all_bounds(complete_graph(5)).entry(
        BoundId.L_R2).value == 5.0
    r = compute_all_bounds(complete_graph(208))
    assert r.entry(BoundId.L_N3).value == 208.0
    assert r.entry(BoundId.L_N3).diagnosis.certificate == "complete-graph"
    assert all(e.satisfied for e in r.entries if e.applicable)


def test_applicability_follows_the_table():
    graphs = [path_graph(1), path_graph(2), path_graph(3), cycle_graph(3),
              star_graph(4), cycle_graph(4), fixture_graph("ex1"),
              fixture_graph("ex2")]
    for g in graphs:
        r = compute_all_bounds(g)
        regular = r.data.tmin == r.data.tmax
        for e in r.entries:
            meta = BOUND_META[e.bound_id]
            want = g.n >= meta.min_n and (regular or not meta.regular_only)
            assert e.applicable is want, (g.n, e.bound_id)


def test_bound_values_of_a_batch_match_single_graphs():
    # every bound of a mixed same-n batch equals the graph's value as a
    # batch of one (compute_all_bounds), bit for bit; a regular-only bound
    # is NaN on the graphs it does not apply to
    for n in (1, 2, 3, 4, 6, 9):
        graphs = list(sample_connected(n, 12, seed=n))
        if n >= 3:
            graphs += [complete_graph(n), cycle_graph(n), star_graph(n)]
        batch = distance_data(np.concatenate([batch_of_one(g) for g in graphs]))
        values = bound_values(batch)
        assert values.shape == (len(BoundId), len(graphs))
        if n >= 3:
            assert math.isnan(values[_ROW[BoundId.L_R1], -1])  # the star
        for i, g in enumerate(graphs):
            want = {e.bound_id: e.value for e in compute_all_bounds(g).entries
                    if e.applicable}
            for bid in BoundId:
                if bid in want:
                    assert repr(float(values[_ROW[bid], i])) == repr(want[bid])
                else:
                    assert math.isnan(values[_ROW[bid], i])


def test_a_padded_batch_matches_single_graphs():
    # graphs on 1..12 vertices padded with isolated vertices to 12: each
    # graph's L and Q spectra, as the sweep solves them, and its D
    # spectrum, from the D stack solved alone, are bit-identical to its
    # own, and so is every bound that applies to it (min_n per graph, the
    # regular-only bounds on the regular graphs); every other bound is NaN
    graphs = [path_graph(1), path_graph(2), path_graph(3), cycle_graph(3),
              star_graph(4), cycle_graph(4), fixture_graph("ex1"),
              complete_graph(6), star_graph(7), cycle_graph(8),
              fixture_graph("ex2"), cycle_graph(10), complete_graph(11),
              fixture_graph("g1")]
    graphs += list(sample_connected(7, 6, seed=4))
    graphs += list(sample_connected(11, 4, seed=5))
    n = np.array([g.n for g in graphs])
    adj = adjacency_stack(graphs)
    connected, dist = connected_distances(adj, n)
    assert adj.shape[-1] == 12 and connected.all()
    dd = distance_data(dist, n)
    ops = operators.build_operators(dd)
    spectra = np.concatenate((linalg.eig_symmetric(ops[:1], n),
                              linalg.eig_symmetric(ops[1:], n)))
    values = bound_values(dd)
    for i, g in enumerate(graphs):
        r = compute_all_bounds(g)
        for k, spectrum in enumerate(
                (r.spectrum_d, r.spectrum_l, r.spectrum_q)):
            assert spectra[k, i, :g.n].tolist() == spectrum.tolist()
            assert not spectra[k, i, g.n:].any()
        want = {e.bound_id: e.value for e in r.entries if e.applicable}
        for bid in BoundId:
            if bid in want:
                assert repr(float(values[_ROW[bid], i])) == repr(want[bid]), (
                    g.n, bid)
            else:
                assert math.isnan(values[_ROW[bid], i]), (g.n, bid)


def test_one_graph_computes_each_bound_once(monkeypatch):
    # one eigensolve for D, L and Q, one pass of the battery, and the
    # diagnoses read the values the battery computed instead of evaluating
    # their bounds again
    calls = collections.Counter()

    def counted(name, func):
        def spy(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return spy
    names = ("eig_symmetric", "bound_values", "closed_form_bounds",
             "bound_L_n2")
    for module in (linalg, operators, bounds, certify, scan):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(
                    module, name, counted(name, getattr(module, name)))
    for g in (fixture_graph("ex1"), complete_graph(5), path_graph(3)):
        calls.clear()
        r = compute_all_bounds(g)
        assert r.entry(BoundId.L_N3).diagnosis is not None
        assert calls == dict.fromkeys(names, 1), g


def test_sqrt_guard():
    # an integer radicand of 0 passes, and a negative one raises however
    # small its scale makes it: there is no float tolerance. The guard
    # names the first bound, in CLOSED_FORMS order, whose radicand is
    # negative, and the batch's smallest radicand of it
    dd = distance_data(np.stack([batch_of_one(g)[0] for g in (
        path_graph(4), star_graph(4), cycle_graph(4), complete_graph(4))]))
    forms = forms_of(dd)
    assert forms["L_N3"][3] == 4.0 and forms["L_R2"][3] == 4.0

    def radicands(w):
        n, s = dd.n.tolist(), (dd.tr2 + dd.dist2).tolist()
        return [(k - 1) * x - 4 * v * v for k, x, v in zip(n, s, w)]
    # a Wiener index raised by 1 takes every L_N3 radicand of the batch
    # below 0, the cycle's lowest, and leaves L_D2's as they are
    raised = dataclasses.replace(dd, wiener=dd.wiener + 1)
    low = min(radicands(raised.wiener.tolist()))
    assert low == -60
    with pytest.raises(ConsistencyError, match=f"^L_N3: radicand {low} "
                       "is negative$"):
        closed_form_bounds(raised)
    # a raised tr2 takes L_D2's below 0 first, which the guard names
    with pytest.raises(ConsistencyError, match="^L_D2: radicand -"):
        closed_form_bounds(dataclasses.replace(raised, tr2=raised.tr2 * 9))
    # a graph the table excludes is not guarded: L_R2's radicand
    # (n - 1) dist2 - n T^2 of the path is -24, but the path is not regular
    assert ((dd.n - 1) * dd.dist2 - dd.n * dd.tmax ** 2)[0] == -24
    assert math.isnan(forms["L_R2"][0])
    # Python ints, as on a batch padded above _FLOAT_N vertices
    big = _FLOAT_N + 1
    wide = DistanceData(
        n=np.array([big]), dist=np.zeros((1, big, big), dtype=np.int64),
        tr=np.zeros((1, big), dtype=np.int64), wiener=np.array([1 << 40]),
        p=np.zeros((1, big), dtype=np.int64),
        sdd=np.zeros((1, big), dtype=np.int64),
        dsq=np.zeros((1, big), dtype=np.int64),
        q2=np.zeros((1, big), dtype=np.int64), dist2=np.array([1]),
        tr2=np.array([1]), tmin=np.array([1]), tmax=np.array([1]),
        regular=np.array([True]), complete=np.array([False]),
        real=np.ones((1, big), dtype=bool))
    low = (big - 1) * 2 - 4 * (1 << 80)
    assert low < np.iinfo(np.int64).min
    with pytest.raises(ConsistencyError, match=f"^L_N3: radicand {low} is "
                       "negative$"):
        closed_form_bounds(wide)


def test_radicands_above_the_int64_cap_are_python_ints():
    # the path and the cycle on 2100 vertices, above _FLOAT_N: the path's
    # (n-1) (tr2 + dist2) passes 2^63, so its radicand terms must be Python
    # ints; each bound against its closed form in Fractions
    def surd(a, b):
        return float(a) + math.sqrt(b)
    n = 2100
    assert n > _FLOAT_N
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    for dist in (gap, np.minimum(gap, n - gap)):
        dd = distance_data(dist[None])
        tr = dd.tr[0].tolist()
        dist2, t, big = int(dd.dist2[0]), min(tr), max(tr)
        w, tr2 = sum(tr) // 2, sum(x * x for x in tr)
        s = tr2 + dist2
        if dist is gap:
            assert (n - 1) * s > np.iinfo(np.int64).max
        want = {
            "L_D2": surd(big, Fraction(n * dist2 - tr2, n)),
            "L_N3": surd(Fraction(2 * w, n - 1), Fraction(
                (n - 2) * ((n - 1) * s - 4 * w * w), (n - 1) ** 2)),
            "Q_CS7": surd(Fraction(2 * w, n), Fraction(
                (n - 1) * (n * s - 4 * w * w), n * n)),
            "Q_CI5": surd(Fraction(t - 1, 2), Fraction(
                (t - 1) ** 2 + 8 * (t * t + 2 * w - (n - 1) * t), 4)),
            "Q_CS6": surd(Fraction(big - 1, 2), Fraction(
                (big - 1) ** 2 + 8 * (big * big + 2 * w - (n - 1) * big), 4)),
        }
        if t == big:  # the cycle, transmission-regular
            want["L_R1"] = surd(big, dist2 - big * big)
            want["L_R2"] = surd(Fraction(n * big, n - 1), Fraction(
                (n - 2) * ((n - 1) * dist2 - n * big * big), (n - 1) ** 2))
        got = forms_of(dd)
        assert math.isnan(got["L_R1"][0]) is (t != big)
        for name, value in ((name, got[name]) for name in want):
            assert value.dtype == np.float64, name
            assert float(value[0]) == pytest.approx(want[name], rel=1e-12), (
                name, t == big)


def test_slack_for():
    assert slack_for(0.0) == 1e-7
    assert slack_for(100.0) == 1e-7 + 1e-7  # 1e-9 relative part


def test_meta_table():
    # BOUND_META, and so the rows of bound_values, in BoundId order
    assert list(BOUND_META) == list(BoundId)
    assert [_ROW[bid] for bid in BoundId] == list(range(len(BoundId)))
    lowers = {BoundId.Q_TB_LO, BoundId.Q_I3, BoundId.Q_I5, BoundId.Q_CI5}
    for bid, meta in BOUND_META.items():
        assert meta.target is (Target.L if bid.value.startswith("L") else Target.Q)
        assert meta.side is (Side.LOWER if bid in lowers else Side.UPPER)
    assert BOUND_META[BoundId.L_R1].regular_only
    assert BOUND_META[BoundId.L_R2].regular_only
    assert BOUND_META[BoundId.L_D1].min_n == 4


def test_each_battery_entry_shares_one_applicability():
    # bound_values evaluates every bound once, in one stack, and masks each
    # row by its own BOUND_META entry: on a padded batch of K1, K2, P3,
    # C4, the star on 4 vertices and ex1, a bound is a number exactly on
    # the graphs with n >= its min_n that its regular_only admits, and each
    # closed-form row is closed_form_bounds' row bit for bit
    graphs = [path_graph(1), path_graph(2), path_graph(3), cycle_graph(4),
              star_graph(4), fixture_graph("ex1")]
    n = np.array([g.n for g in graphs])
    dd = distance_data(connected_distances(adjacency_stack(graphs), n)[1], n)
    regular = dd.tmin == dd.tmax
    values = bound_values(dd)
    assert regular.tolist() == [True, True, False, True, False, False]
    for bid, meta in BOUND_META.items():
        want = (n >= meta.min_n) & (regular | (not meta.regular_only))
        assert (values[_ROW[bid]] == values[_ROW[bid]]).tolist() == (
            want.tolist()), bid
    forms = closed_form_bounds(dd)
    for bid, row in zip(CLOSED_FORMS, forms):
        assert values[_ROW[bid]].tobytes() == row.tobytes(), bid
    assert values[_ROW[BoundId.Q_I2]].tobytes() == (
        values[_ROW[BoundId.L_I1]].tobytes())


def test_report_structure():
    g = fixture_graph("ex1")
    r = compute_all_bounds(g)
    assert [e.bound_id for e in r.entries] == list(BoundId)
    assert r.graph6 == encode_graph6(g)
    assert len(r.spectrum_l) == g.n
    assert type(r.radius_l) is float and type(r.radius_q) is float
    assert r.radius_l == r.spectrum_l[0]
    assert r.radius_q == r.spectrum_q[0]
    assert r.entry(BoundId.L_D1).value == 11.0
    assert all(r.entry(bid).bound_id is bid for bid in BoundId)
    assert {type(e.diagnosis.certificate) for e in r.entries
            if e.diagnosis is not None} == {str}
    with pytest.raises(KeyError):
        r.entry("L_D1")


def test_every_applicable_bound_holds_small_n():
    # exhaustive over all connected graphs on <= 5 vertices
    for n in range(1, 6):
        for g in enumerate_connected(n):
            r = compute_all_bounds(g)
            for e in r.entries:
                if not e.applicable:
                    assert e.value is None and e.satisfied is None
                    continue
                assert e.satisfied, (n, g.sorted_edges(), e)
                radius = r.radius_l if e.target is Target.L else r.radius_q
                if e.side is Side.UPPER:
                    assert e.gap == pytest.approx(e.value - radius, abs=1e-12)
                else:
                    assert e.gap == pytest.approx(radius - e.value, abs=1e-12)
            v = values_of(r)
            assert v[BoundId.Q_I2] == v[BoundId.L_I1]
            # quadratic pair stays inside the transmission interval
            assert v[BoundId.Q_CI5] >= v[BoundId.Q_TB_LO] - 1e-9
            assert v[BoundId.Q_CS6] <= v[BoundId.Q_TB_UP] + 1e-9
