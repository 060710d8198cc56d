"""Equality diagnostics: certificates, iff enforcement, identity checks."""

import contextlib
import dataclasses
import math

import numpy as np
import pytest

from distlap import (
    BoundId, EqualityDiagnosis, check_han_multiplicity,
    check_tree_determinant, compute_all_bounds, diagnose, equality_tol,
    sample_connected)
from distlap.bounds import bound_values
from distlap.graphs import adjacency_stack, connected_distances, distance_data
from distlap.errors import TheoremViolationError
from distlap.linalg import eig_symmetric
from distlap.operators import build_operators
from distlap.named_graphs import (
    FIXTURES, complete_graph, cycle_graph, fixture_graph, path_graph,
    star_graph)
from oracles import distance_row


def spectrum_of(values):
    return np.array(values, dtype=float)


@contextlib.contextmanager
def violation(match):
    """Expects a TheoremViolationError matching match, whose message shows
    each number as a Python float does, with no numpy repr. Yields the
    pytest.raises ExceptionInfo."""
    with pytest.raises(TheoremViolationError, match=match) as exc:
        yield exc
    assert "np." not in str(exc.value)


def test_equality_tol():
    assert equality_tol(0.0) == 1e-6
    assert equality_tol(100.0) == pytest.approx(1e-6 + 1e-6)


def test_diagnosis_validates_certificate_pairing():
    with pytest.raises(ValueError):
        EqualityDiagnosis(BoundId.L_N3, True, "none")
    with pytest.raises(ValueError):
        EqualityDiagnosis(BoundId.L_N3, False, "complete-graph")


def test_complete_graphs_hit_every_characterized_equality():
    for n in range(3, 9):
        r = compute_all_bounds(complete_graph(n))
        n3 = r.entry(BoundId.L_N3).diagnosis
        assert n3.equality_within_tol and n3.certificate == "complete-graph"
        cs7 = r.entry(BoundId.Q_CS7).diagnosis
        assert cs7.equality_within_tol and cs7.certificate == "complete-graph"
        tb = r.entry(BoundId.Q_TB_UP).diagnosis
        assert tb.equality_within_tol and tb.certificate == "transmission-regular"
        # row-maxima sum equals the radius n, and the shifted matrix n*I is
        # reducible, as the necessary condition demands
        n1 = r.entry(BoundId.L_N1).diagnosis
        assert n1.equality_within_tol and n1.certificate == "B-reducible-necessary"


def test_p3_three_value_equality():
    # L-spectrum {5, 3, 0}: radius simple, middle value (2W - r)/(n - 2) = 3
    r = compute_all_bounds(path_graph(3))
    d = r.entry(BoundId.L_N3).diagnosis
    assert d.equality_within_tol
    assert d.certificate == "three-distinct-L-eigenvalues"


def test_p3_signless_values():
    r = compute_all_bounds(path_graph(3))
    assert r.radius_q == pytest.approx((7 + math.sqrt(17)) / 2, abs=1e-12)
    cs7 = r.entry(BoundId.Q_CS7)
    assert cs7.value == pytest.approx((8 + 2 * math.sqrt(19)) / 3, abs=1e-12)
    assert not cs7.diagnosis.equality_within_tol  # close (0.011) but no


def test_star_n3_margin_without_radius_equality():
    # the n3 value exceeds the radius by 2 here, so no equality to diagnose
    r = compute_all_bounds(star_graph(5))
    assert r.radius_l == pytest.approx(9.0, abs=1e-9)
    assert r.entry(BoundId.L_N3).value == pytest.approx(11.0, abs=1e-9)
    assert not r.entry(BoundId.L_N3).diagnosis.equality_within_tol


def test_fixture_non_equalities():
    ex2 = compute_all_bounds(fixture_graph("ex2"))
    assert not ex2.entry(BoundId.L_N3).diagnosis.equality_within_tol
    g2 = compute_all_bounds(fixture_graph("g2"))
    assert not g2.entry(BoundId.Q_TB_UP).diagnosis.equality_within_tol
    ex1 = compute_all_bounds(fixture_graph("ex1"))
    assert not ex1.entry(BoundId.L_N1).diagnosis.equality_within_tol


def diagnosed(graphs, spectrum_l=None, radius_q=None, complete=None):
    """certify.diagnose on graphs as one padded batch, as a sweep pads a
    chunk, with its L and Q spectra as the sweep solves them. A batch of
    one graph may take a doctored Laplacian spectrum, signless radius or
    complete flag in place of its own."""
    n = np.array([g.n for g in graphs])
    connected, dist = connected_distances(adjacency_stack(graphs), n)
    assert connected.all()
    dd = distance_data(dist, n)
    ops = build_operators(dd)
    spectra = eig_symmetric(ops[1:], n)
    values = bound_values(dd)
    if spectrum_l is not None:
        spectra[0] = spectrum_of([spectrum_l])
    if radius_q is not None:
        spectra[1, :, 0] = radius_q
    if complete is not None:
        dd = dataclasses.replace(dd, complete=np.array([complete]))
    return diagnose(values, ops, spectra, dd)


def first_violation(g, **doctored):
    """Raises the TheoremViolationError of the first failed diagnosis of g,
    as compute_all_bounds does."""
    for failed, message in diagnosed([g], **doctored)[1]:
        if failed[0]:
            raise TheoremViolationError(message(0))


def test_n1_violation_on_doctored_spectrum():
    # P4's shifted matrix is irreducible, so pretending the radius hits the
    # row-maxima sum (10) must trip the necessary condition
    with violation("irreducible"):
        first_violation(path_graph(4), spectrum_l=[10.0, 5.0, 4.0, 0.0])


def test_n3_violation_nonzero_smallest():
    with violation("smallest eigenvalue 0.5$"):
        first_violation(path_graph(4), spectrum_l=[28 / 3, 6.0, 4.0, 0.5])


def test_n3_violation_wrong_middle_block():
    with violation("three-value"):
        first_violation(path_graph(4), spectrum_l=[28 / 3, 6.0, 4.0, 0.0])


def test_n3_middle_block_message_lists_python_floats():
    # P4's L_N3 value is 28/3 and its Wiener index 10, so the middle value
    # is (20 - 28/3)/2 = 16/3
    with violation("three-value") as exc:
        first_violation(path_graph(4), spectrum_l=[28 / 3, 6.0, 4.0, 0.0])
    message = str(exc.value)
    assert "middle block [6.0, 4.0] vs 5.333333333333333" in message
    assert "array(" not in message


def test_n3_doctored_consistent_spectrum_passes():
    # middle block pinned to (2W - r)/(n - 2) = 16/3 satisfies the shape check
    certificates, failures = diagnosed(
        [path_graph(4)], spectrum_l=[28 / 3, 16 / 3, 16 / 3, 0.0])
    assert certificates[BoundId.L_N3][0] == "three-distinct-L-eigenvalues"
    assert not any(failed[0] for failed, _ in failures)


def test_cs7_violations_both_directions():
    # P3 is not transmission-regular, so a doctored signless radius or
    # complete flag trips the Q_CS7 check alone
    with violation("non-complete"):
        first_violation(path_graph(3), radius_q=(8 + 2 * math.sqrt(19)) / 3)
    with violation("missed"):
        first_violation(path_graph(3), complete=True)


def test_tb_violations_both_directions():
    for g, radius_q, match in (
            (path_graph(4), 12.0, "non-transmission-regular"),
            (cycle_graph(4), 9.0, "missed")):
        with violation(match):
            first_violation(g, radius_q=radius_q)


def test_padded_batch_certificates_match_batches_of_one():
    # P3 (L spectrum {5, 3, 0}) takes the three-value certificate with
    # padded zeros past its middle block, and K1 the B-reducible one
    graphs = [complete_graph(1), complete_graph(2), path_graph(3),
              path_graph(4), cycle_graph(4), star_graph(5), complete_graph(5),
              fixture_graph("ex1"), fixture_graph("g2")]
    certificates, failures = diagnosed(graphs)
    for i, g in enumerate(graphs):
        alone, alone_failures = diagnosed([g])
        assert {bid: certs[i] for bid, certs in certificates.items()} == {
            bid: certs[0] for bid, certs in alone.items()}, g
        assert [bool(failed[i]) for failed, _ in failures] == [
            bool(failed[0]) for failed, _ in alone_failures], g
    assert not np.array([failed for failed, _ in failures]).any()
    assert certificates[BoundId.L_N3][2] == "three-distinct-L-eigenvalues"
    assert certificates[BoundId.L_N1][0] == "B-reducible-necessary"
    assert certificates[BoundId.L_N3][6] == "complete-graph"


def test_han_multiplicity():
    for n in range(3, 8):
        r = compute_all_bounds(complete_graph(n))
        assert check_han_multiplicity(r.spectrum_l, r.data)
    r = compute_all_bounds(path_graph(4))
    assert check_han_multiplicity(r.spectrum_l, r.data)
    assert check_han_multiplicity(
        spectrum_of([2.0, 0.0]), distance_row(path_graph(2))) is None
    # doctored: multiplicity n - 1 on a non-complete graph is a failure
    assert not check_han_multiplicity(
        spectrum_of([7.0, 7.0, 7.0, 0.0]), distance_row(path_graph(4)))
    # doctored: a complete graph must have exactly n - 1
    assert not check_han_multiplicity(
        spectrum_of([4.0, 4.0, 2.0, 0.0]), distance_row(complete_graph(4)))


def test_distance_spectrum_meets_its_trace_and_norm():
    # the sweep solves no D spectrum, so D's identities are checked where
    # one is solved: a report's spectrum_d sums to tr D = 0 and its squares
    # to ||D||_F^2, within the tolerance 1e-8 (1 + target)
    graphs = [fixture_graph(name) for name in FIXTURES]
    graphs += list(sample_connected(9, 30, seed=12))
    for g in graphs:
        r = compute_all_bounds(g)
        spectrum, dist2 = r.spectrum_d, r.data.dist2
        assert len(spectrum) == g.n
        assert abs(float(spectrum.sum())) <= 1e-8
        assert (abs(float((spectrum * spectrum).sum()) - dist2)
                <= 1e-8 * (1.0 + dist2))


def test_tree_determinant_small_closed_forms():
    for g, want in ((path_graph(2), -1.0), (path_graph(3), 4.0),
                    (star_graph(4), -12.0), (path_graph(4), -12.0)):
        dd = distance_row(g)
        det = float(np.linalg.det(dd.dist.astype(float)))
        assert det == pytest.approx(want, abs=1e-9)
        assert check_tree_determinant(g, dd)


def test_tree_determinant_rejects_non_tree():
    g = cycle_graph(4)
    assert check_tree_determinant(g, distance_row(g)) is None


def test_tree_determinant_single_vertex():
    g = path_graph(1)
    assert check_tree_determinant(g, distance_row(g))


def test_tree_determinant_beyond_the_float_range():
    # det D(S_1100) = -1099 * 2^1098 overflows a float, so the check
    # compares signs and log magnitudes; the distance matrix is written
    # down directly, with no BFS
    n = 1100
    dist = np.full((n, n), 2, dtype=np.int64)
    dist[0, :] = dist[:, 0] = 1
    np.fill_diagonal(dist, 0)
    assert check_tree_determinant(
        star_graph(n), distance_data(dist[None]).row(0)) is True
    # two rows swapped keep the magnitude and flip the sign
    swapped = dist[[1, 0, *range(2, n)]]
    assert check_tree_determinant(
        star_graph(n), distance_data(swapped[None]).row(0)) is False
    # K_n's distance matrix has the tree's sign, (-1)^(n-1), but
    # determinant n - 1, far below the tree's magnitude
    complete = 1 - np.eye(n, dtype=np.int64)
    assert check_tree_determinant(
        star_graph(n), distance_data(complete[None]).row(0)) is False
