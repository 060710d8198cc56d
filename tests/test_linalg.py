"""Eigensolver contract, irreducibility, multiplicities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from distlap import (
    ConsistencyError, build_operators, eig_symmetric, is_irreducible,
    multiplicity, sample_connected)
from distlap.graphs import distance_data
from distlap.named_graphs import complete_graph, path_graph


def test_eig_symmetric_known_values():
    s = eig_symmetric(np.diag([1.0, 5.0, 3.0]))
    assert s.dtype == np.float64
    assert s.tolist() == [5.0, 3.0, 1.0]
    s = eig_symmetric([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(s, [1.0, -1.0])
    s = eig_symmetric([[2.0]])
    assert s.tolist() == [2.0]


def test_eig_symmetric_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        eig_symmetric(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        eig_symmetric([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        eig_symmetric([[np.nan, 0.0], [0.0, 1.0]])


def test_eig_symmetric_stack_matches_single():
    # the D, L and Q stacks of same-n graphs in one call give every matrix's
    # spectrum bit for bit, and multiplicity counts per spectrum
    for n in (1, 2, 5, 7, 12, 30):
        dist = np.stack([oracles.distance_row(g).dist
                         for g in sample_connected(n, 6, seed=n)])
        mats = build_operators(distance_data(dist)).astype(np.float64)
        stacked = eig_symmetric(mats)
        assert stacked.shape == (3, 6, n)
        assert stacked.dtype == np.float64
        assert stacked.flags.c_contiguous
        for k in range(3):
            for i in range(6):
                single = eig_symmetric(mats[k, i])
                assert stacked[k, i].tolist() == single.tolist()
                assert multiplicity(stacked, stacked[..., 0])[k, i] == \
                    multiplicity(single, single[0])


def test_eig_symmetric_stack_rejects_bad_input():
    good = np.stack([np.eye(3), np.diag([1.0, 2.0, 3.0])])
    with pytest.raises(ValueError, match="square"):
        eig_symmetric(np.ones((2, 2, 3)))
    skew = good.copy()
    skew[1, 0, 1] = 1e-12
    with pytest.raises(ValueError, match="symmetric"):
        eig_symmetric(skew)
    bad = good.copy()
    bad[1, 2, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        eig_symmetric(bad)


def test_eig_symmetric_stack_checks_drift_per_matrix(monkeypatch):
    # the first matrix whose eigenvalue sum misses its trace raises, with
    # the message one matrix alone gives
    eigvalsh = np.linalg.eigvalsh

    def drifting(a):
        w = eigvalsh(a)
        w[..., 0] += (np.trace(a, axis1=-2, axis2=-1) == 6.0) * 1e-3
        return w
    monkeypatch.setattr(np.linalg, "eigvalsh", drifting)
    stack = np.stack([np.eye(3), np.diag([1.0, 2.0, 3.0]), 3 * np.eye(3)])
    with pytest.raises(ConsistencyError) as many:
        eig_symmetric(stack)
    with pytest.raises(ConsistencyError) as one:
        eig_symmetric(stack[1])
    assert str(many.value) == str(one.value) == (
        "eigenvalue sum drifted from trace by 1.000e-03")
    assert eig_symmetric(stack[[0, 2]]).shape == (2, 3)


def test_eig_symmetric_padded_stack_matches_single(monkeypatch):
    # the D, L and Q stack of graphs on 1..12 vertices, padded to 12, gives
    # each graph's unpadded spectrum bit for bit, 0 past its n, in stream
    # order, with its sizes ascending (one run per size) and shuffled (runs
    # of one matrix or a few); a drifted matrix raises from the padded
    # stack as from its own solve
    graphs = [g for n in (1, 2, 3, 5, 7, 12, 7, 5)
              for g in sample_connected(n, 3, seed=n)]
    n = np.array([g.n for g in graphs])
    dist = np.zeros((len(graphs), 12, 12), dtype=np.int64)
    for i, g in enumerate(graphs):
        dist[i, :g.n, :g.n] = oracles.distance_row(g).dist
    mats = build_operators(distance_data(dist, n))
    ascending = np.argsort(n, kind="stable")
    shuffled = np.random.default_rng(5).permutation(len(graphs))
    assert (np.diff(n[ascending]) >= 0).all()
    assert (np.diff(n[shuffled]) < 0).any()
    for order in (np.arange(len(graphs)), ascending, shuffled):
        stacked = eig_symmetric(mats[:, order], n[order])
        assert stacked.shape == (3, len(graphs), 12)
        for k in range(3):
            for row, i in enumerate(order.tolist()):
                size = n[i]
                single = eig_symmetric(mats[k, i, :size, :size])
                assert stacked[k, row, :size].tolist() == single.tolist()
                assert not stacked[k, row, size:].any()
    eigvalsh = np.linalg.eigvalsh

    def drifting(a):
        w = eigvalsh(a)
        w[..., 0] += (np.trace(a, axis1=-2, axis2=-1) == 8.0) * 1e-3
        return w
    monkeypatch.setattr(np.linalg, "eigvalsh", drifting)
    # the L of P3 (trace 8) padded beside two 4 x 4 matrices, and P3 alone
    p3 = np.zeros((3, 4, 4))
    p3[:, :3, :3] = build_operators(oracles.distance_row(path_graph(3)))
    stack = np.stack([np.eye(4), np.diag([1.0, 2.0, 3.0, 5.0]), p3[1]])
    with pytest.raises(ConsistencyError) as many:
        eig_symmetric(stack, np.array([4, 4, 3]))
    with pytest.raises(ConsistencyError) as one:
        eig_symmetric(p3[1, :3, :3])
    assert str(many.value) == str(one.value) == (
        "eigenvalue sum drifted from trace by 1.000e-03")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers())
def test_eig_symmetric_descending_and_trace(n, seed):
    rng = np.random.default_rng(abs(seed) % 2**32)
    a = rng.normal(size=(n, n))
    a = a + a.T
    s = eig_symmetric(a)
    assert all(s[i] >= s[i + 1] for i in range(n - 1))
    assert abs(s.sum() - np.trace(a)) <= 1e-9 * (1 + np.sqrt((a * a).sum()))


def test_is_irreducible_cases():
    assert not is_irreducible(3 * np.eye(3))
    assert is_irreducible([[0, 1], [1, 0]])
    assert not is_irreducible([[1, 1], [0, 1]])  # upper triangular
    assert not is_irreducible([[0, 0], [1, 0]])  # lower triangular
    assert is_irreducible([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # directed cycle
    with pytest.raises(ValueError, match="square"):
        is_irreducible(np.ones((2, 3)))
    with pytest.raises(ValueError, match="empty"):
        is_irreducible(np.zeros((0, 0)))
    assert is_irreducible([[5.0]])
    # distance matrices of connected graphs are positive off-diagonal
    d = oracles.distance_row(path_graph(4)).dist
    assert is_irreducible(d)
    # a non-zero diagonal is no pair of the pattern: these stay irreducible
    assert is_irreducible([[1, 1], [1, 1]])
    assert is_irreducible(np.ones((4, 4)))
    # L + 1p^T: row 0 of P3's is (5, 0, 0), while P4's joins every vertex
    for n, irreducible in ((3, False), (4, True)):
        dd = oracles.distance_row(path_graph(n))
        assert is_irreducible(build_operators(dd)[1] + dd.p) == irreducible


def test_is_irreducible_stack_matches_single():
    # random directed patterns of sizes 1..6 padded to 6, with junk in
    # their padded rows and columns, among them rows that point into real
    # vertices: one stacked call agrees with each matrix alone
    rng = np.random.default_rng(5)
    sizes = np.array([1, 1, 2, 3, 4, 5, 6] * 30)
    mats = np.zeros((len(sizes), 6, 6))
    for i, k in enumerate(sizes.tolist()):
        mats[i, :k, :k] = rng.random((k, k)) < rng.uniform(0.1, 0.7)
        mats[i, k:, :] = rng.random((6 - k, 6)) < 0.5
        mats[i, :, k:] = rng.random((6, 6 - k)) < 0.5
    # K1 both ways, and padded rows that join P2's two vertices
    mats[0, 0, 0], mats[1, 0, 0] = 5.0, 0.0
    mats[2, :2, :2] = [[0, 1], [0, 0]]
    mats[2, 2:, :2] = 1.0
    mats[2, :2, 2:] = 1.0
    got = is_irreducible(mats, sizes)
    want = [is_irreducible(m[:k, :k]) for m, k in zip(mats, sizes.tolist())]
    assert got.tolist() == want
    assert want[:3] == [True, False, False]
    assert 0 < sum(want) < len(want)
    full = mats[sizes == 6]
    assert is_irreducible(full).tolist() == [is_irreducible(m) for m in full]


def test_multiplicity():
    s = eig_symmetric(np.diag([4.0, 4.0, 4.0, 0.0]))
    assert multiplicity(s, 4.0) == 3
    assert multiplicity(s, 0.0) == 1
    assert multiplicity(s, 2.0) == 0
    assert multiplicity(s, 4.0 + 1e-7) == 3  # default tol absorbs it
    assert multiplicity(s, 4.0, tol=1e-12) == 3


def test_complete_graph_multiplicity():
    s = eig_symmetric(
        build_operators(
            oracles.distance_row(complete_graph(6)))[1].astype(float))
    assert multiplicity(s, 6.0) == 5


def test_charpoly_oracle_self_check():
    # the oracle itself must nail an easy known spectrum
    roots = oracles.charpoly_eigenvalues(np.diag([3.0, 1.0, -2.0]))
    assert np.allclose(roots, [3.0, 1.0, -2.0], atol=1e-9)
    assert abs(oracles.lu_determinant([[1, 2], [3, 4]]) + 2.0) < 1e-12
    assert oracles.lu_determinant([[1, 1], [1, 1]]) == 0.0
