"""Equality-case diagnosis and proven-identity checks.

diagnose compares the bound values that the battery (bounds.bound_values)
computed for a padded batch with the relevant spectral radii at the
diagnosis tolerance, all graphs at once, and attaches to each graph the
structural certificate that the equality characterization predicts. When a
characterization is an iff, both directions are enforced. A failure is a
flagged row with its TheoremViolationError message: that error on a valid
connected graph would mean the implementation (or the statement) is wrong,
so sweeps report it as a violation, not an error, and compute_all_bounds
raises it for its batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _ON_L, _ROW, BoundId
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


# the rows of bound_values that the diagnoses read, in this order, and
# which of them meet the Laplacian radius rather than the signless one
_DIAGNOSED = np.array([_ROW[bid] for bid in (
    BoundId.L_N1, BoundId.L_N3, BoundId.Q_TB_LO, BoundId.Q_TB_UP,
    BoundId.Q_CS7)])
_DIAGNOSED_ON_L = _ON_L[_DIAGNOSED, None]


def diagnose(values, spectrum_l, radius_q, l_mats, dd, complete):
    """The equality diagnoses of a padded batch: (certificates, failures).

    The batch is its (K, B) array of bound_values (NaN where a bound does
    not apply, which meets no radius), its Laplacian spectra, signless
    radii, Laplacian matrices, DistanceData and complete flags
    (is_complete), each 0 past a graph's own n. certificates maps L_N1,
    L_N3, Q_TB_UP and Q_CS7 to one certificate per graph; Q_TB_UP's covers
    the interval pair Q_TB_LO/Q_TB_UP. failures holds (failed, message)
    pairs in the order one graph checks them, n1, n3, tb, cs7: failed is
    one flag per graph, and message(i) is graph i's TheoremViolationError
    message. On a graph that fails, its certificates mean nothing.

    - L_N1: the row-maxima sum meeting the Laplacian radius requires the
      rank-one (Brauer) shift L + 1 p^T of L by the eccentricities p to be
      reducible (necessary, not sufficient). The shift keeps every other
      eigenvalue of L and adds the eccentricity sum; it is generally not
      symmetric, and it is formed only on the graphs that meet the bound,
      all of them tested in one is_irreducible call on their padded stack.
    - L_N3: the trace/Frobenius bound meets the Laplacian radius r exactly
      for the complete graph or a spectrum with three distinct values
      {r, (2W - r)/(n - 2), 0}.
    - Q_TB: the signless radius hits either transmission endpoint iff the
      graph is transmission-regular (then it hits both); both directions
      are enforced.
    - Q_CS7: the signless trace/Frobenius bound meets the signless radius
      iff the graph is complete; both directions are enforced.
    """
    rows = values[_DIAGNOSED]
    n1, _, lo, up, cs7 = rows
    radius_l = spectrum_l[:, 0]
    met_n1, met_n3, eq_lo, eq_up, eq_cs7 = _meets(
        rows, np.where(_DIAGNOSED_ON_L, radius_l, radius_q))
    n = dd.n
    regular = dd.tmin == dd.tmax

    irreducible = met_n1  # all False where no graph meets n1
    if met_n1.any():
        irreducible = met_n1.copy()
        irreducible[met_n1] = is_irreducible(
            l_mats[met_n1] + dd.p[met_n1, None, :], n[met_n1])

    smallest = full = off = met_n3  # all False where no graph meets n3
    if met_n3.any():
        tol = equality_tol(radius_l)
        smallest = met_n3 & (
            np.abs(spectrum_l[np.arange(len(n)), n - 1]) > tol)
        # a met radius is at least 2, far from the zeros past n
        full = multiplicity(spectrum_l, radius_l, tol) >= n - 1
        # the divisor is 0 only for K2, which is complete
        with np.errstate(divide="ignore", invalid="ignore"):
            mid = (2.0 * dd.wiener - radius_l) / (n - 2)
        cols = np.arange(spectrum_l.shape[-1])
        middle = (cols >= 1) & (cols < (n - 1)[:, None])
        off = met_n3 & ~full & (
            np.where(middle, np.abs(spectrum_l - mid[:, None]), 0.0)
            .max(axis=-1) > equality_tol(mid))

    certificates = {
        BoundId.L_N1: np.where(met_n1, CERT_B_REDUCIBLE, CERT_NONE),
        BoundId.L_N3: np.where(
            met_n3, np.where(full, CERT_COMPLETE, CERT_THREE_L), CERT_NONE),
        BoundId.Q_TB_UP: np.where(regular, CERT_REGULAR, CERT_NONE),
        BoundId.Q_CS7: np.where(eq_cs7, CERT_COMPLETE, CERT_NONE),
    }

    def interval(i):
        return (f"(radius {float(radius_q[i])!r}, interval "
                f"({float(lo[i])!r}, {float(up[i])!r}))")

    failures = [
        (irreducible, lambda i:
         "row-maxima bound met with an irreducible shifted matrix "
         f"(value {float(n1[i])!r}, radius {float(radius_l[i])!r})"),
        (smallest, lambda i:
         "trace/Frobenius equality with nonzero smallest eigenvalue "
         f"{float(spectrum_l[i, n[i] - 1])!r}"),
        (off, lambda i:
         "trace/Frobenius equality without the predicted three-value "
         f"spectrum (middle block {spectrum_l[i, 1:n[i] - 1].tolist()!r} "
         f"vs {float(mid[i])!r})"),
        ((eq_lo | eq_up) & ~regular, lambda i:
         "transmission endpoint met by a non-transmission-regular graph "
         + interval(i)),
        (regular & ~(eq_lo & eq_up), lambda i:
         "transmission-regular graph missed its endpoint equality "
         + interval(i)),
        (eq_cs7 & ~complete, lambda i:
         "signless trace/Frobenius equality on a non-complete graph "
         f"(value {float(cs7[i])!r}, radius {float(radius_q[i])!r})"),
        (complete & ~eq_cs7, lambda i:
         "complete graph missed signless trace/Frobenius equality "
         f"(value {float(cs7[i])!r}, radius {float(radius_q[i])!r})"),
    ]
    return certificates, failures


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
