"""Operator construction: D, L and Q as one integer array."""

import numpy as np

from distlap import build_operators, enumerate_connected, sample_connected
from distlap.graphs import distance_data
from distlap.named_graphs import fixture_graph, path_graph
from oracles import distance_row


def operators_for(g):
    return build_operators(distance_row(g))


def test_p3_matrices():
    d, l, q = operators_for(path_graph(3))
    assert d.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert l.tolist() == [[3, -1, -2], [-1, 2, -1], [-2, -1, 3]]
    assert q.tolist() == [[3, 1, 2], [1, 2, 1], [2, 1, 3]]
    # the Brauer shift L + 1 p^T that certify.diagnose forms for L_N1
    p = distance_row(path_graph(3)).p
    assert (l + p).tolist() == [[5, 0, 0], [1, 3, 1], [0, 0, 5]]


def test_matrices_are_integer_exact():
    g = fixture_graph("g1")
    ops = operators_for(g)
    assert ops.dtype == np.int64
    assert ops.shape == (3, g.n, g.n)


def test_l_rows_vanish_and_b_rows_are_constant():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            l_mat = operators_for(g)[1]
            assert (l_mat.sum(axis=1) == 0).all()
            dd = distance_row(g)
            p_sum = int(dd.p.sum())
            assert ((l_mat + dd.p).sum(axis=1) == p_sum).all()


def test_stacks_match_single_graphs():
    graphs = list(sample_connected(6, 8, seed=4))
    dist = np.stack([distance_row(g).dist for g in graphs])
    stacked = build_operators(distance_data(dist))
    assert stacked.shape == (3, 8, 6, 6)
    assert stacked.dtype == np.int64
    for i, g in enumerate(graphs):
        assert np.array_equal(stacked[:, i], operators_for(g))


def test_frobenius_identities():
    # ||L||_F^2 = ||Q||_F^2 = sum tr^2 + ||D||_F^2, traces equal 2W
    for g in (path_graph(5), fixture_graph("ex1"), fixture_graph("g2")):
        dd = distance_row(g)
        d_mat, l_mat, q_mat = build_operators(dd)
        d2 = int((d_mat ** 2).sum())
        tr2 = int((dd.tr.astype(np.int64) ** 2).sum())
        assert int((l_mat ** 2).sum()) == tr2 + d2
        assert int((q_mat ** 2).sum()) == tr2 + d2
        assert int(np.trace(l_mat)) == 2 * dd.wiener
        assert int(np.trace(q_mat)) == 2 * dd.wiener
