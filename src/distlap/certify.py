"""Equality-case diagnosis and proven-identity checks.

The diagnose_* functions compare one graph's bound values, as the battery
(bounds.bound_values) computed them, against the relevant spectral radius
at the diagnosis tolerance and attach the structural certificate that the
equality characterization predicts. diagnose_all reads them from one
graph's column of the battery's (K, B) array and diagnosis_rows from its
rows, both through bounds._ROW. When a characterization is an iff, both
directions are enforced and a failure raises TheoremViolationError: that
exception firing on a valid connected graph would mean the implementation
(or the statement) is wrong, so sweeps treat it as a violation, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _ROW, BoundId
from .errors import TheoremViolationError
from .linalg import is_irreducible, multiplicity

DIAG_ABS = 1e-6
DIAG_REL = 1e-8

CERT_NONE = "none"
CERT_COMPLETE = "complete-graph"
CERT_THREE_L = "three-distinct-L-eigenvalues"
CERT_B_REDUCIBLE = "B-reducible-necessary"
CERT_REGULAR = "transmission-regular"


def equality_tol(x):
    return DIAG_ABS + DIAG_REL * abs(x)


def _meets(value, radius):
    """Equality of a bound and its radius within the diagnosis tolerance."""
    return abs(value - radius) <= equality_tol(radius)


@dataclass
class EqualityDiagnosis:
    bound: BoundId
    equality_within_tol: bool
    certificate: str

    def __post_init__(self):
        if (self.certificate == CERT_NONE) == self.equality_within_tol:
            raise ValueError(
                "certificate must be 'none' exactly when equality is absent")


def is_complete(dd):
    """Whether every off-diagonal distance is 1, one flag per graph of a
    batch; a padded vertex's eccentricity is 0, never above a real one's."""
    return (dd.n == 1) | (dd.p.max(axis=-1) == 1)


def diagnose_n1(value, radius, l_mat, p):
    """Equality of the row-maxima sum bound's value and the Laplacian
    radius requires the rank-one (Brauer) shift l_mat + 1 p^T of one graph's
    Laplacian l_mat by its eccentricities p to be reducible (necessary, not
    sufficient). The shift keeps every other eigenvalue of l_mat and adds
    the eccentricity sum; it is generally not symmetric, and it is formed
    only when value meets radius."""
    if _meets(value, radius):
        if is_irreducible(l_mat + p):
            raise TheoremViolationError(
                "row-maxima bound met with an irreducible shifted matrix "
                f"(value {value!r}, radius {radius!r})")
        return EqualityDiagnosis(BoundId.L_N1, True, CERT_B_REDUCIBLE)
    return EqualityDiagnosis(BoundId.L_N1, False, CERT_NONE)


def diagnose_n3(value, spectrum_l, wiener):
    """Equality of the Laplacian trace/Frobenius bound's value and the
    radius of spectrum_l happens exactly for the complete graph or a
    spectrum with three distinct values {r, (2W - r)/(n - 2), 0}."""
    n = len(spectrum_l)
    radius = float(spectrum_l[0])
    if not _meets(value, radius):
        return EqualityDiagnosis(BoundId.L_N3, False, CERT_NONE)
    tol = equality_tol(radius)
    if abs(spectrum_l[-1]) > tol:
        raise TheoremViolationError(
            "trace/Frobenius equality with nonzero smallest eigenvalue "
            f"{float(spectrum_l[-1])!r}")
    if multiplicity(spectrum_l, radius, tol) >= n - 1:
        return EqualityDiagnosis(BoundId.L_N3, True, CERT_COMPLETE)
    mid = (2.0 * wiener - radius) / (n - 2)
    middle = spectrum_l[1:n - 1]
    if np.abs(middle - mid).max() > equality_tol(mid):
        raise TheoremViolationError(
            "trace/Frobenius equality without the predicted "
            f"three-value spectrum (middle block {middle.tolist()!r} vs "
            f"{mid!r})")
    return EqualityDiagnosis(BoundId.L_N3, True, CERT_THREE_L)


def diagnose_cs7(value, radius, complete):
    """Equality of the signless trace/Frobenius bound's value and the
    signless radius iff the graph is complete. Both directions are
    enforced."""
    eq = _meets(value, radius)
    if eq and not complete:
        raise TheoremViolationError(
            "signless trace/Frobenius equality on a non-complete graph "
            f"(value {value!r}, radius {radius!r})")
    if complete and not eq:
        raise TheoremViolationError(
            "complete graph missed signless trace/Frobenius equality "
            f"(value {value!r}, radius {radius!r})")
    if eq:
        return EqualityDiagnosis(BoundId.Q_CS7, True, CERT_COMPLETE)
    return EqualityDiagnosis(BoundId.Q_CS7, False, CERT_NONE)


def diagnose_tb(lo, up, radius, regular):
    """The signless radius hits either transmission endpoint, lo or up, iff
    the graph is transmission-regular (in which case it hits both). Both
    directions are enforced. One diagnosis covers the interval pair; it
    carries the upper-bound id."""
    eq_lo = _meets(lo, radius)
    eq_up = _meets(up, radius)
    if (eq_lo or eq_up) and not regular:
        raise TheoremViolationError(
            "transmission endpoint met by a non-transmission-regular graph "
            f"(radius {radius!r}, interval ({lo!r}, {up!r}))")
    if regular and not (eq_lo and eq_up):
        raise TheoremViolationError(
            "transmission-regular graph missed its endpoint equality "
            f"(radius {radius!r}, interval ({lo!r}, {up!r}))")
    if regular:
        return EqualityDiagnosis(BoundId.Q_TB_UP, True, CERT_REGULAR)
    return EqualityDiagnosis(BoundId.Q_TB_UP, False, CERT_NONE)


def diagnose_all(values, spectrum_l, radius_q, l_mat, dd, complete):
    """The equality diagnoses of one graph by bound id, from its column of
    bound_values (one value per bound in BoundId order, NaN where a bound
    does not apply), its Laplacian spectrum, signless radius, Laplacian
    matrix, DistanceData and whether it is complete (is_complete). They run
    in the order n1, n3 (where L_N3 applies), tb, cs7; the first
    TheoremViolationError propagates."""
    n1, n3, lo, up, cs7 = values[[_ROW[bid] for bid in (
        BoundId.L_N1, BoundId.L_N3, BoundId.Q_TB_LO, BoundId.Q_TB_UP,
        BoundId.Q_CS7)]].tolist()
    found = {BoundId.L_N1: diagnose_n1(n1, float(spectrum_l[0]), l_mat, dd.p)}
    if not math.isnan(n3):
        found[BoundId.L_N3] = diagnose_n3(n3, spectrum_l, dd.wiener)
    found[BoundId.Q_TB_LO] = found[BoundId.Q_TB_UP] = diagnose_tb(
        lo, up, radius_q, dd.tmin == dd.tmax)
    found[BoundId.Q_CS7] = diagnose_cs7(cs7, radius_q, complete)
    return found


def diagnosis_rows(complete, regular, values, radius_l, radius_q):
    """Flags the graphs of a batch on which diagnose_all has more to do than
    find no equality: a diagnosed bound meets its radius, or the graph is
    complete or transmission-regular (the complete and regular flags, one
    per graph). On every other graph each diagnosis is 'none' and none
    raises. values is the batch's (K, B) array of bound_values, NaN on a
    graph where a bound does not apply, which meets no radius."""
    fires = complete | regular
    for radius, ids in ((radius_l, (BoundId.L_N1, BoundId.L_N3)),
                        (radius_q, (BoundId.Q_TB_LO, BoundId.Q_TB_UP,
                                    BoundId.Q_CS7))):
        rows = values[[_ROW[bid] for bid in ids]]
        fires |= _meets(rows, radius).any(axis=0)
    return fires


def han_multiplicity_holds(spectrum_l, complete, n):
    """Largest Laplacian eigenvalue has multiplicity at most n - 2 unless the
    graph is complete, where it is exactly n - 1. For a stack of spectra,
    complete, n and the result are one per spectrum. A spectrum padded with
    zeros past its n eigenvalues counts the same: for n >= 2 the largest
    eigenvalue is at least n, far from 0."""
    m = multiplicity(spectrum_l, spectrum_l[..., 0])
    return np.where(complete, m == n - 1, m <= n - 2)


def check_han_multiplicity(spectrum_l, g):
    """han_multiplicity_holds for the spectrum of graph g: True when the
    spectrum respects it, None for n <= 2, where it does not apply."""
    n = g.n
    if n <= 2:
        return None
    return bool(han_multiplicity_holds(
        spectrum_l, g.edge_count == n * (n - 1) // 2, n))


def check_tree_determinant(g, dd):
    """Distance-matrix determinant of a tree matches the closed form
    (-1)^(n-1) * (n-1) * 2^(n-2): its sign exactly and its log magnitude
    to 1e-6, so that no n overflows a float; None off trees. g is
    connected, as dd is its DistanceData, so it is a tree exactly when it
    has n - 1 edges."""
    n = g.n
    if g.edge_count != n - 1:
        return None
    sign, logdet = np.linalg.slogdet(dd.dist.astype(np.float64))
    if n == 1:
        return bool(sign == 0.0)
    expected = math.log(n - 1) + (n - 2) * math.log(2.0)
    return bool(sign == (-1) ** (n - 1)
                and abs(logdet - expected) <= 1e-6)
