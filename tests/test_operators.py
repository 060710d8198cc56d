"""Operator bundle construction and polynomial row sums."""

import numpy as np
import pytest

from distlap import (
    build_operators, compute_distance_data, enumerate_connected,
    polynomial_row_sums, sample_connected)
from distlap.graphs import distance_data
from distlap.named_graphs import fixture_graph, path_graph


def bundle_for(g):
    return build_operators(compute_distance_data(g))


def test_p3_matrices():
    b = bundle_for(path_graph(3))
    assert b.d_mat.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert b.l_mat.tolist() == [[3, -1, -2], [-1, 2, -1], [-2, -1, 3]]
    assert b.q_mat.tolist() == [[3, 1, 2], [1, 2, 1], [2, 1, 3]]
    assert b.b_mat.tolist() == [[5, 0, 0], [1, 3, 1], [0, 0, 5]]


def test_matrices_are_integer_exact():
    b = bundle_for(fixture_graph("g1"))
    for m in (b.d_mat, b.l_mat, b.q_mat, b.b_mat):
        assert m.dtype == np.int64


def test_l_rows_vanish_and_b_rows_are_constant():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            b = bundle_for(g)
            assert (b.l_mat.sum(axis=1) == 0).all()
            dd = compute_distance_data(g)
            p_sum = int(dd.p.sum())
            assert (b.b_mat.sum(axis=1) == p_sum).all()


def test_stacks_match_single_graphs():
    graphs = list(sample_connected(6, 8, seed=4))
    dist = np.stack([compute_distance_data(g).dist for g in graphs])
    stacked = build_operators(distance_data(dist))
    t = dist.sum(axis=-1).min(axis=-1)
    rows = polynomial_row_sums(stacked.q_mat, (1, -(t - 1), 1))
    assert rows.dtype == np.int64
    for i, g in enumerate(graphs):
        single = bundle_for(g)
        for name in ("d_mat", "l_mat", "q_mat", "b_mat"):
            assert np.array_equal(getattr(stacked, name)[i],
                                  getattr(single, name)), name
        want = polynomial_row_sums(single.q_mat, (1, -(int(t[i]) - 1), 1))
        assert rows[i].tolist() == want.tolist()


def test_polynomial_row_sums_examples():
    q = bundle_for(path_graph(3)).q_mat
    assert polynomial_row_sums(q, (0, 1)).tolist() == [6, 4, 6]
    assert polynomial_row_sums(q, (0, 0, 1)).tolist() == [34, 20, 34]
    assert polynomial_row_sums(q, (1,)).tolist() == [1, 1, 1]
    assert polynomial_row_sums(q, (2, -1)).tolist() == [-4, -2, -4]


def test_polynomial_row_sums_matches_explicit_power():
    rng = np.random.default_rng(3)
    for n in range(2, 5):
        for g in enumerate_connected(n):
            q = bundle_for(g).q_mat
            c0, c1, c2 = (int(x) for x in rng.integers(-3, 4, size=3))
            via_matvec = polynomial_row_sums(q, (c0, c1, c2))
            explicit = (c0 * np.eye(n, dtype=np.int64)
                        + c1 * q + c2 * (q @ q)).sum(axis=1)
            assert via_matvec.tolist() == explicit.tolist()


def test_polynomial_row_sums_degree_cap():
    q = bundle_for(path_graph(3)).q_mat
    with pytest.raises(ValueError, match="degree"):
        polynomial_row_sums(q, (0, 0, 0, 1))
    with pytest.raises(ValueError, match="degree"):
        polynomial_row_sums(q, ())


def test_polynomial_row_sums_float_coeffs():
    q = bundle_for(path_graph(3)).q_mat
    out = polynomial_row_sums(q, (0.5, 1.0))
    assert out.dtype == np.float64
    assert out.tolist() == [6.5, 4.5, 6.5]


def test_frobenius_identities():
    # ||L||_F^2 = ||Q||_F^2 = sum tr^2 + ||D||_F^2, traces equal 2W
    for g in (path_graph(5), fixture_graph("ex1"), fixture_graph("g2")):
        dd = compute_distance_data(g)
        b = build_operators(dd)
        d2 = int((b.d_mat.astype(np.int64) ** 2).sum())
        tr2 = int((dd.tr.astype(np.int64) ** 2).sum())
        assert int((b.l_mat ** 2).sum()) == tr2 + d2
        assert int((b.q_mat ** 2).sum()) == tr2 + d2
        assert int(np.trace(b.l_mat)) == 2 * dd.wiener
        assert int(np.trace(b.q_mat)) == 2 * dd.wiener
