"""Every proven check of the soundness sweep, each source as a list of
(flags, message) pairs in the order one graph reports them: flags holds
one bool per graph of a padded batch, and message is a string or a
function of a failing graph's index. A check reads the batch's
DistanceData, whose fields (the regular and complete flags among them)
graphs.distance_data computed once, its operators
(operators.build_operators) and the (2, B, N) stack of its L and Q
spectra: no check reads D's spectrum.

diagnose compares the bound values that the battery (bounds.bound_values)
computed for a padded batch with the relevant spectral radii at the
diagnosis tolerance, all graphs at once, and attaches to each graph the
structural certificate that the equality characterization predicts. When a
characterization is an iff, both directions are enforced. A failure is a
flagged row with its TheoremViolationError message: that error on a valid
connected graph would mean the implementation (or the statement) is wrong,
so sweeps report it as a violation, not an error, and compute_all_bounds
raises it for its batch of one. identity_failures checks the trace and
Frobenius identities of L and Q and further proven facts of their
spectra and row sums; violations stacks a batch's diagnoses, bounds and
identities into one (35, B) boolean array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    _ON_L, _ROW, BoundId, bound_checks, bound_values, slack_for)
from .linalg import eig_symmetric, is_irreducible, multiplicity
from .operators import build_operators

DIAG_ABS = 1e-6
DIAG_REL = 1e-8

CERT_NONE = "none"
CERT_COMPLETE = "complete-graph"
CERT_THREE_L = "three-distinct-L-eigenvalues"
CERT_B_REDUCIBLE = "B-reducible-necessary"
CERT_REGULAR = "transmission-regular"
_CERTIFICATES = np.array(
    (CERT_NONE, CERT_COMPLETE, CERT_THREE_L, CERT_B_REDUCIBLE, CERT_REGULAR))


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


# the rows of bound_values that the diagnoses read, in this order, and
# which of them meet the Laplacian radius rather than the signless one
_DIAGNOSED = np.array([_ROW[bid] for bid in (
    BoundId.L_N1, BoundId.L_N3, BoundId.Q_TB_LO, BoundId.Q_TB_UP,
    BoundId.Q_CS7)])
_DIAGNOSED_ON_L = _ON_L[_DIAGNOSED, None]


def diagnose(values, ops, spectra, dd):
    """The equality diagnoses of a padded batch: (certificates, failures).

    The batch is its (K, B) array of bound_values (NaN where a bound does
    not apply, which meets no radius), its operators (of which diagnose
    reads L), the (2, B, N) stack of its L and Q spectra (the L spectra
    and both radii spectra[:, :, 0]) and its DistanceData, whose regular
    and complete flags decide the iff characterizations; each is 0 past a
    graph's own n.
    certificates maps L_N1, L_N3, Q_TB_UP and Q_CS7 to one certificate per
    graph; Q_TB_UP's covers the interval pair Q_TB_LO/Q_TB_UP. failures
    holds (failed, message) pairs in the order one graph checks them, n1,
    n3, tb, cs7: failed is one flag per graph, and message(i) is graph i's
    TheoremViolationError message. On a graph that fails, its certificates
    mean nothing.

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
    rows = values.take(_DIAGNOSED, axis=0)
    n1, _, lo, up, cs7 = rows
    l_mats, spectrum_l = ops[1], spectra[0]
    radius_l, radius_q = spectra[:, :, 0]
    met_n1, met_n3, eq_lo, eq_up, eq_cs7 = _meets(
        rows, np.where(_DIAGNOSED_ON_L, radius_l, radius_q))
    n, regular, complete = dd.n, dd.regular, dd.complete

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

    # each certificate as its index in _CERTIFICATES, all four at once
    codes = np.array((met_n1 * 3, met_n3 * (2 - full), regular * 4, eq_cs7))
    certificates = dict(zip(
        (BoundId.L_N1, BoundId.L_N3, BoundId.Q_TB_UP, BoundId.Q_CS7),
        _CERTIFICATES.take(codes)))

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
        # between flags, a > b is a and not b
        ((eq_lo | eq_up) > regular, lambda i:
         "transmission endpoint met by a non-transmission-regular graph "
         + interval(i)),
        (regular > (eq_lo & eq_up), lambda i:
         "transmission-regular graph missed its endpoint equality "
         + interval(i)),
        (eq_cs7 > complete, lambda i:
         "signless trace/Frobenius equality on a non-complete graph "
         f"(value {float(cs7[i])!r}, radius {float(radius_q[i])!r})"),
        (complete > eq_cs7, lambda i:
         "complete graph missed signless trace/Frobenius equality "
         f"(value {float(cs7[i])!r}, radius {float(radius_q[i])!r})"),
    ]
    return certificates, failures


def han_multiplicity_holds(spectrum_l, dd):
    """Largest Laplacian eigenvalue has multiplicity at most n - 2 unless the
    graph is complete, where it is exactly n - 1. For a stack of spectra,
    dd is their batch's DistanceData and the result is one per spectrum. A
    spectrum padded with zeros past its n eigenvalues counts the same: for
    n >= 2 the largest eigenvalue is at least n, far from 0."""
    m = multiplicity(spectrum_l, spectrum_l[..., 0])
    return np.where(dd.complete, m == dd.n - 1, m <= dd.n - 2)


def check_han_multiplicity(spectrum_l, dd):
    """han_multiplicity_holds for the spectrum of one graph, whose
    DistanceData is dd: True when the spectrum respects it, None for
    n <= 2, where it does not apply."""
    return None if dd.n <= 2 else bool(han_multiplicity_holds(spectrum_l, dd))


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


# the messages of the four eigenvalue sum and square-sum identities, the
# first pairs of identity_failures
_SUM_MESSAGES = tuple(
    f"{name} eigenvalue {what}"
    for name in ("laplacian", "signless")
    for what in ("sum misses the trace", "square sum misses the norm"))


def identity_failures(dd, ops, spectra):
    """The proven identities checked on top of the bound battery, over a
    padded batch, as (flags, message) pairs in report order. They read the
    batch's DistanceData dd, the Q matrices of its operators ops and the
    (2, B, N) stack of its L and Q spectra; each reads a graph's own
    vertices and the first n of its eigenvalues, and 0 pads the rest."""
    n, q_mat = dd.n, ops[2]
    w2 = 2 * dd.wiener
    lq2 = dd.tr2 + dd.dist2  # ||L||_F^2 = ||Q||_F^2
    # the eigenvalue sums and square sums of L and Q against their traces
    # and squared norms, as one (2, 2, B) test
    target = np.array(((w2, w2), (lq2, lq2)), dtype=np.float64)
    missed = (np.abs(np.array((spectra, spectra * spectra)).sum(axis=-1)
                     - target) > 1e-8 * (1.0 + target))

    # exact integers: the row sums q1 = Q 1 and q2 = Q^2 1 = Q q1, and the
    # interval [lo, up] of the distance-weighted transmission sums, whose
    # ends read t = tmin and T = tmax alike
    q1 = q_mat @ np.ones(q_mat.shape[-1], dtype=q_mat.dtype)
    q2 = (q_mat @ q1[..., None])[..., 0]
    ends = np.array((dd.tmin, dd.tmax))
    scale = (ends - 1)[..., None]
    lo, up = (w2 - (n - 1) * ends)[..., None] + scale * dd.tr
    escapes = ((dd.sdd < lo) | (dd.sdd > up)) & dd.real
    # the quadratic p(x) = x^2 - (t - 1) x of the row-sum sandwich, at q
    # over the real vertices and at the signless radius
    rows_p = dd.over_real((q2 - scale[0] * q1).astype(np.float64))
    low, high = rows_p.min(axis=-1), rows_p.max(axis=-1)
    rq = spectra[1, :, 0]
    value = rq * rq - scale[0, :, 0] * rq
    # the slack at n, at ||L||_F and at max |p(q)|
    slack = slack_for(np.array((n, np.sqrt(lq2), np.maximum(high, -low))))

    # the smallest laplacian eigenvalue, in column n - 1, is zero, and
    # every other is at least n: one comparison against each column's
    # threshold, n - slack before column n - 1 and none from it on
    # (folding the zero check in as -|x| < -slack took more numpy calls)
    lvals = spectra[0]
    under = lvals < np.where(np.arange(lvals.shape[-1]) < (n - 1)[:, None],
                             (n - slack[0])[:, None], -np.inf)

    def escaped(i):
        u = escapes[i].argmax()
        return (f"weighted transmission sum at vertex {u} escapes "
                f"[{lo[i, u]}, {up[i, u]}]")
    return [
        *zip(missed.transpose(1, 0, 2).reshape(4, -1), _SUM_MESSAGES),
        (np.abs(lvals[np.arange(len(n)), n - 1]) > slack[1],
         "laplacian smallest eigenvalue is not zero"),
        (under.any(axis=-1), lambda i: (
            f"laplacian eigenvalue {under[i].argmax()} below the vertex "
            "count")),
        (~han_multiplicity_holds(lvals, dd) & (n > 2),
         "largest laplacian eigenvalue multiplicity escapes"),
        (escapes.any(axis=-1), escaped),
        # Q^2 1 against its closed form dd.q2 = 2 (tr^2 + sdd); a padded
        # row is 0 on both sides
        ((q2 != dd.q2).any(axis=-1),
         "squared signless row sums break the closed form"),
        (~((low - slack[2] <= value) & (value <= high + slack[2])),
         "radius escapes the quadratic row-sum sandwich"),
    ]


# the name of each bound, by its row of bound_values
_BOUND_NAMES = tuple(bid.value for bid in _ROW)


def _unsatisfied(name, value, gap):
    """The message of the bound name on a graph i that misses it, from the
    bound's rows of values and gaps."""
    return lambda i: (f"{name} unsatisfied: value {float(value[i])!r} vs "
                      f"radius gap {float(gap[i])!r}")


def violations(dd):
    """Violation messages of the connected graphs of a padded batch's
    DistanceData dd, by row, for the rows that have any, each row's
    messages in the order one graph reports them: the first failure of its
    diagnoses (diagnose) alone, else its unsatisfied bounds, in BoundId
    order, and then its failed identities (identity_failures). Only L and
    Q are solved, as no check reads D's spectrum. A ConsistencyError of
    the eigensolve or of a bound propagates. Every check is a row of one
    (35, B) boolean array, and messages are made for its flagged entries
    alone."""
    ops = build_operators(dd)
    spectra = eig_symmetric(ops[1:], dd.n)
    values = bound_values(dd)
    satisfied, gap = bound_checks(values, spectra)
    diagnoses = diagnose(values, ops, spectra, dd)[1]
    checks = (diagnoses
              + [(bad, _unsatisfied(*row)) for bad, *row in zip(
                  ~satisfied, _BOUND_NAMES, values, gap)]
              + identity_failures(dd, ops, spectra))
    failed = np.array([flags for flags, _ in checks])
    found = {}
    for i in np.flatnonzero(failed.any(axis=0)).tolist():
        rows = np.flatnonzero(failed[:, i]).tolist()
        if rows[0] < len(diagnoses):
            rows = rows[:1]  # a failed diagnosis is reported alone
        texts = (checks[k][1] for k in rows)
        found[i] = [text if isinstance(text, str) else text(i)
                    for text in texts]
    return found
