"""Spectral-radius bounds for distance Laplacian and signless Laplacian matrices.

bound_values evaluates the whole battery on the DistanceData of a batch as
one (K, B) array, a row per bound in BoundId order and a column per graph:
a stack of the closed forms in the batch's integers (closed_form_bounds),
two plain rows and three per-vertex expressions, reduced over each graph's
real vertices at once. A square-root bound builds its radicand exactly
from the batch's integer fields (n, dist2, tr2, wiener, tmin, tmax), and
one float root is taken of the stack, so a radicand that is exactly 0, as
on complete graphs, gives a root of exactly 0. A batch may pad its graphs
to a common size: each formula reads each graph's own n, and its min and
max reductions run over real vertices only. BOUND_META (min_n,
regular_only) decides, through applicability, where a bound applies: a
bound is NaN on a graph the table excludes.
bound_checks compares that array with the radii, row by row.
compute_all_bounds runs the same pipeline on one graph, a batch of one, and
reports applicability, satisfaction against the true radii, and equality
diagnoses for the bounds that have characterized equality cases.

Upper bounds must sit above the radius and lower bounds below it, up to the
soundness slack; compute_all_bounds records violations rather than raising,
so sweeps can aggregate them.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConsistencyError, TheoremViolationError
from .graph6 import encode_graph6
from .graphs import _pair_ends, batch_of_one, distance_data
from .operators import operator_spectra

SLACK_ABS = 1e-7
SLACK_REL = 1e-9


def slack_for(x):
    """Numerical slack granted when comparing a bound against a radius."""
    return SLACK_ABS + SLACK_REL * abs(x)


class Target(enum.Enum):
    L = "L"
    Q = "Q"


class Side(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


class BoundId(enum.Enum):
    # members are singletons, so identity hashing is exact; it spares the
    # many dict lookups by id Enum's hash, which runs Python code
    __hash__ = object.__hash__

    L_I1 = "L_I1"
    L_D1 = "L_D1"
    L_D2 = "L_D2"
    L_N1 = "L_N1"
    L_N2 = "L_N2"
    L_N3 = "L_N3"
    L_R1 = "L_R1"
    L_R2 = "L_R2"
    Q_TB_LO = "Q_TB_LO"
    Q_TB_UP = "Q_TB_UP"
    Q_I3 = "Q_I3"
    Q_I4 = "Q_I4"
    Q_I5 = "Q_I5"
    Q_I6 = "Q_I6"
    Q_I2 = "Q_I2"
    Q_CI5 = "Q_CI5"
    Q_CS6 = "Q_CS6"
    Q_CS7 = "Q_CS7"


@dataclass(frozen=True)
class BoundMeta:
    target: Target
    side: Side
    strict: bool = False
    min_n: int = 1
    regular_only: bool = False


BOUND_META = {
    BoundId.L_I1: BoundMeta(Target.L, Side.UPPER),
    BoundId.L_D1: BoundMeta(Target.L, Side.UPPER, min_n=4),
    BoundId.L_D2: BoundMeta(Target.L, Side.UPPER, strict=True, min_n=2),
    BoundId.L_N1: BoundMeta(Target.L, Side.UPPER),
    BoundId.L_N2: BoundMeta(Target.L, Side.UPPER, min_n=2),
    BoundId.L_N3: BoundMeta(Target.L, Side.UPPER, min_n=2),
    BoundId.L_R1: BoundMeta(Target.L, Side.UPPER, strict=True, min_n=2,
                           regular_only=True),
    BoundId.L_R2: BoundMeta(Target.L, Side.UPPER, min_n=2, regular_only=True),
    BoundId.Q_TB_LO: BoundMeta(Target.Q, Side.LOWER),
    BoundId.Q_TB_UP: BoundMeta(Target.Q, Side.UPPER),
    BoundId.Q_I3: BoundMeta(Target.Q, Side.LOWER, min_n=2),
    BoundId.Q_I4: BoundMeta(Target.Q, Side.UPPER, min_n=2),
    BoundId.Q_I5: BoundMeta(Target.Q, Side.LOWER),
    BoundId.Q_I6: BoundMeta(Target.Q, Side.UPPER),
    BoundId.Q_I2: BoundMeta(Target.Q, Side.UPPER),
    BoundId.Q_CI5: BoundMeta(Target.Q, Side.LOWER),
    BoundId.Q_CS6: BoundMeta(Target.Q, Side.UPPER),
    BoundId.Q_CS7: BoundMeta(Target.Q, Side.UPPER),
}


# the row of each bound in bound_values, and BOUND_META as arrays by row:
# targets, sides, and each bound's min_n and whether it admits a graph
# that is not transmission-regular; BOUND_META lists the bounds in BoundId
# order
_ROW = {bid: k for k, bid in enumerate(BOUND_META)}
_ON_L = np.array([meta.target is Target.L for meta in BOUND_META.values()])
_UPPER = np.array([meta.side is Side.UPPER for meta in BOUND_META.values()])
_MIN_N = np.array([[meta.min_n] for meta in BOUND_META.values()])
_ANY_GRAPH = np.array([[not meta.regular_only]
                       for meta in BOUND_META.values()])

# The bounds that are closed forms in the integer fields of DistanceData
# (closed_form_bounds): the square-root bounds in the order their radicands
# are guarded, the margin sweep's L_D2 and L_N3 first, then L_D1 and the
# transmission interval Q_TB
CLOSED_FORMS = (BoundId.L_D2, BoundId.L_N3, BoundId.L_R1, BoundId.L_R2,
                BoundId.Q_CI5, BoundId.Q_CS6, BoundId.Q_CS7, BoundId.L_D1,
                BoundId.Q_TB_LO, BoundId.Q_TB_UP)
_CLOSED_ROWS = [_ROW[bid] for bid in CLOSED_FORMS]
_CLOSED_MIN_N, _CLOSED_ANY = _MIN_N[_CLOSED_ROWS], _ANY_GRAPH[_CLOSED_ROWS]

# the integer fields of DistanceData that the closed forms are polynomials
# in
_VARIABLES = ("n", "wiener", "tmin", "tmax", "dist2", "tr2")


def _closed_forms(n, w, t, big, dist2, tr2):
    """Each bound of CLOSED_FORMS as (r, a_num, a_den, s_num, s_den), its
    value a + sqrt(s r) with a = a_num / a_den and s = s_num / s_den, every
    term a polynomial in n, the Wiener index W, the least and greatest
    transmissions t and T, dist2 = ||D||_F^2 and tr2 = sum(tr^2); r = 0
    where a bound has no root. S = tr2 + dist2 is the squared Frobenius
    norm of L and Q, and k = T on the transmission-regular graphs where
    L_R1 and L_R2 apply."""
    s = tr2 + dist2
    k = big

    def quadratic(e):
        # the quadratic row-sum root (e - 1 + sqrt(r)) / 2 at a
        # transmission e, t or T
        return ((e - 1) ** 2 + 8 * (e * e + 2 * w - (n - 1) * e),
                e - 1, 2, 1, 4)
    return (
        # L_D2 = T + sqrt(||D||_F^2 - tr2 / n), strict
        (n * dist2 - tr2, big, 1, 1, n),
        # L_N3 = 2W/(n-1) + sqrt((n-2)/(n-1) (S - (2W)^2/(n-1)))
        ((n - 1) * s - 4 * w * w, 2 * w, n - 1, n - 2, (n - 1) ** 2),
        # L_R1 = k + sqrt(||D||_F^2 - k^2), strict
        (dist2 - k * k, k, 1, 1, 1),
        # L_R2 = nk/(n-1) + sqrt((n-2)/(n-1) (||D||_F^2 - nk^2/(n-1)))
        ((n - 1) * dist2 - n * k * k, n * k, n - 1, n - 2, (n - 1) ** 2),
        # Q_CI5 and Q_CS6, the roots at t and at T
        quadratic(t), quadratic(big),
        # Q_CS7 = 2W/n + sqrt((n-1)/n (S - (2W)^2/n))
        (n * s - 4 * w * w, 2 * w, n, n - 1, n * n),
        # L_D1 = 2W - n(n-2)
        (0, 2 * w - n * (n - 2), 1, 0, 1),
        # Q_TB = 2t and 2T
        (0, 2 * t, 1, 0, 1), (0, 2 * big, 1, 0, 1))


class _Poly(dict):
    """An integer polynomial in _VARIABLES, as {exponents: coefficient},
    for expanding _closed_forms once into coefficient arrays."""

    @classmethod
    def of(cls, x):
        return x if isinstance(x, _Poly) else cls({(0,) * len(_VARIABLES): x})

    def __add__(self, other):
        out = _Poly(self)
        for exponents, c in _Poly.of(other).items():
            out[exponents] = out.get(exponents, 0) + c
        return out

    def __mul__(self, other):
        out = _Poly()
        for e1, c1 in self.items():
            for e2, c2 in _Poly.of(other).items():
                e = tuple(map(sum, zip(e1, e2)))
                out[e] = out.get(e, 0) + c1 * c2
        return out

    def __sub__(self, other):
        return self + -1 * _Poly.of(other)

    def __pow__(self, power):
        return functools.reduce(_Poly.__mul__, [self] * power, _Poly.of(1))

    __rmul__ = __mul__


def _expand():
    """_closed_forms expanded: (factors, coefficients). Each of the M
    monomials that occur is a product of as many rows of
    (1, *_VARIABLES) as its degree, padded with row 0; factors holds their
    row indices as a (degree, M) array. coefficients holds the
    (5, len(CLOSED_FORMS), M) int64 coefficients of r, a_num, s_num, a_den
    and s_den over the monomials."""
    unit = np.eye(len(_VARIABLES), dtype=int)
    terms = list(zip(*_closed_forms(
        *(_Poly({tuple(e): 1}) for e in unit.tolist()))))
    polys = [_Poly.of(p) for k in (0, 1, 3, 2, 4) for p in terms[k]]
    monomials = sorted({e for p in polys for e in p})
    rows = [[k + 1 for k, power in enumerate(e) for _ in range(power)]
            for e in monomials]
    degree = max(map(len, rows))
    factors = np.array([r + [0] * (degree - len(r)) for r in rows]).T
    coefficients = np.array([[p.get(e, 0) for e in monomials] for p in polys])
    return factors, coefficients.reshape(5, len(CLOSED_FORMS), -1)


_FACTORS, _COEFFICIENTS = _expand()
_FLOAT_COEFFICIENTS = _COEFFICIENTS.astype(np.float64)

# The checks of closed_form_bounds, each greater > lesser + slack_for(of)
# by the rows of CLOSED_FORMS: c2 = L_R2 above c1 = L_R1, and Q_CI5 below
# 2t or Q_CS6 above 2T
_CHECKS = np.array([[CLOSED_FORMS.index(bid) for bid in rows] for rows in (
    (BoundId.L_R2, BoundId.Q_TB_LO, BoundId.Q_CS6),
    (BoundId.L_R1, BoundId.Q_CI5, BoundId.Q_TB_UP),
    (BoundId.L_R1, BoundId.Q_CI5, BoundId.Q_CS6))])

# The rows that bound_values evaluates, in evaluation order: the closed
# forms, L_N1, L_N2, then the minima and the maxima over vertices of its
# three per-vertex expressions; the minimum of the first is unused (None).
# Q_I2 is the L_I1 expression, which bounds the signless radius too.
_EVALUATED = (
    *CLOSED_FORMS, BoundId.L_N1, BoundId.L_N2, None, BoundId.Q_I3,
    BoundId.Q_I5, BoundId.L_I1, BoundId.Q_I4, BoundId.Q_I6)
_TAKE = np.array([_EVALUATED.index(
    BoundId.L_I1 if bid is BoundId.Q_I2 else bid) for bid in BOUND_META])


def applicability(n, regular, min_n=_MIN_N, any_graph=_ANY_GRAPH):
    """Where each bound applies, as a (K, B) boolean array by the rows of
    bound_values: on each graph with n >= its min_n and, for a
    regular-only bound, that regular flags. min_n and any_graph are the
    (K, 1) columns of BOUND_META, or those of some of its rows."""
    return (n >= min_n) & (regular | any_graph)


# Each closed-form polynomial of a connected graph on N vertices has terms
# whose absolute values sum below N^6: every transmission is at most
# N(N-1)/2, so N * tr2 and 4 W^2 are below N^6 / 4, N * dist2 is below
# N^5, and the rest are smaller. _FLOAT_N is the largest N whose N^6 is
# below 2^53, so that float64 holds every monomial, term and partial sum
# exactly; on a batch padded above it, the terms are Python ints instead.
_FLOAT_N = int(2 ** (53 / 6))
while _FLOAT_N ** 6 >= 1 << 53:
    _FLOAT_N -= 1


def _polynomials(dd, count):
    """The (5, count, B) values of the polynomials of _expand for the
    first count bounds of CLOSED_FORMS on the batch dd, exact: float64 up
    to _FLOAT_N vertices, Python ints above."""
    fields = [np.ones_like(dd.n)] + [getattr(dd, name) for name in _VARIABLES]
    if dd.dist.shape[-1] > _FLOAT_N:
        found = np.array(fields).astype(object)
        coefficients = _COEFFICIENTS.astype(object)
    else:
        found = np.array(fields, dtype=np.float64)
        coefficients = _FLOAT_COEFFICIENTS
    # one two-dimensional product
    coefficients = coefficients[:, :count].reshape(5 * count, -1)
    return (coefficients @ found.take(_FACTORS, axis=0).prod(axis=0)
            ).reshape(5, count, -1)


def _first(bad, *xs):
    """Python floats of xs at the first graph where bad holds."""
    i = int(np.argmax(bad))
    return [float(x[i]) for x in xs]


def closed_form_bounds(dd, regular, count=len(CLOSED_FORMS)):
    """The first count bounds of CLOSED_FORMS, all of them by default, on
    every graph of the batch dd, as one (count, B) float64 array by its
    rows, NaN where BOUND_META excludes a graph (regular flags the
    transmission-regular graphs).

    Each bound is a + sqrt(s r), as _closed_forms gives it; every term is
    a polynomial in the batch's integers, and all of them are one product
    of a coefficient array with the batch's monomials (_polynomials). The
    radicands r are exact integers, so a radicand that is exactly 0, as on
    complete graphs, gives a root of exactly 0, and one float root is
    taken of the whole stack. A divisor that is 0 on one vertex, where no
    bound that divides by it applies, is 1 there.

    Each radicand is >= 0 by a theorem, c2 = L_R2 <= c1 = L_R1, and the
    quadratic pair stays inside [2t, 2T]; a graph that breaks one is an
    internal error, raised as ConsistencyError in the battery's order: the
    radicands of L_D2, L_N3, L_R1 and L_R2, then c2 <= c1, then the
    quadratic radicands, then the interval, then the Q_CS7 radicand. A
    negative radicand names its bound and the batch's smallest radicand of
    it. Fewer than all the bounds are guarded by their radicands alone.
    """
    polys = _polynomials(dd, count)
    applies = applicability(
        dd.n, regular, _CLOSED_MIN_N[:count], _CLOSED_ANY[:count])
    exact = np.where(applies, polys[0], 0)
    # the leads a and the scales s, float64 also from Python ints
    a, scale = np.asarray(polys[1:3] / np.maximum(polys[3:], 1),
                          dtype=np.float64)
    # a negative radicand is raised below, before any check reads its root
    negative = exact < 0
    values = np.where(applies, a + np.sqrt(scale * np.asarray(
        np.maximum(exact, 0), dtype=np.float64)), np.nan)
    if count == len(CLOSED_FORMS):
        # a check on a graph where its bounds do not apply compares NaN,
        # which is False
        greater, lesser, of = values.take(_CHECKS, axis=0)
        failed = greater > lesser + slack_for(of)
    else:
        failed = np.zeros((len(_CHECKS), len(dd.n)), dtype=bool)
    if negative.any() or failed.any():
        def radicand(what, rows):
            # rows is a slice, empty past count
            return (negative[rows], lambda: f"{what}: radicand "
                    f"{int(exact[rows].min())} is negative")

        def regular_pair():
            got1, got2 = _first(failed[0], *values[2:4])
            return f"expected c2 <= c1, got c1={got1!r} c2={got2!r}"

        def interval():
            got = _first(failed[1] | failed[2], *values[4:6], dd.tmin,
                         dd.tmax)
            return (f"quadratic pair ({got[0]!r}, {got[1]!r}) escapes "
                    f"[2t, 2T] = ({2 * got[2]!r}, {2 * got[3]!r})")
        for bad, message in (
                *(radicand(bid.value, slice(row, row + 1))
                  for row, bid in enumerate(CLOSED_FORMS[:4])),
                (failed[0], regular_pair),
                radicand("Q_quadratic", slice(4, 6)),
                (failed[1] | failed[2], interval),
                radicand("Q_CS7", slice(6, 7))):
            if bad.any():
                raise ConsistencyError(message())
    return values


# Entries of each bound_L_n2 temporary, 128 KB of int64, fixed so that its
# memory stays flat in n and in the batch size. Each block of pairs costs a
# few numpy calls, so the blocks are as large as stays in cache: a 32-graph
# chunk at N = 10 takes one pass.
_PAIR_CELLS = 1 << 14


def bound_L_n2(dd):
    """Upper bound over vertex pairs:
    max (tr_i + tr_j + 2 dist_ij + sum_{k != i,j} |dist_ik - dist_jk|) / 2,
    as an int64 array. As a + b + |a - b| = 2 max(a, b), and the terms
    k = i and k = j give the 2 dist_ij, it is the max over pairs i < j of
    sum_k max(dist_ik, dist_jk), an integer."""
    d = dd.dist
    n = d.shape[-1]
    first, second = _pair_ends(n)
    step = max(1, _PAIR_CELLS * n // d.size)

    def block(s):
        # the rows of i are a copy, so the maximum reuses it
        rows = d.take(first[s:s + step], axis=-2)
        rows = np.maximum(rows, d.take(second[s:s + step], axis=-2), out=rows)
        # a real i and a padded j give tr_i, never above the value of i and
        # a real j; one vertex has no pair, and its block is empty
        return rows.sum(axis=-1).max(axis=-1, initial=0)
    return functools.reduce(
        np.maximum, map(block, range(0, max(len(first), 1), step)))


def bound_values(dd, regular):
    """Value of every bound on every graph of the batch dd, as one (K, B)
    float64 array: row _ROW[bid] holds bound bid, in BoundId order, and
    column b graph b.

    The battery is one stack of rows: the closed forms
    (closed_form_bounds); L_N1, the sum of row maxima of the distance
    matrix; L_N2 (bound_L_n2); and, over each graph's real vertices, the
    maximum of tr_i + sqrt((n-1) sum_k dist_ki^2) (L_I1, and Q_I2) and the
    minimum and maximum of tr_i + sdd_i / tr_i (Q_I3, Q_I4) and of
    sqrt(2 sdd_i + 2 tr_i^2) (Q_I5, Q_I6).

    applicability decides where a bound applies; elsewhere it is NaN. Every
    row is evaluated on every graph, but a divisor that a graph the table
    excludes would take to 0 is 1 there. A ConsistencyError of
    closed_form_bounds propagates.
    """
    n, tr, d = dd.n, dd.tr, dd.dist
    # each square root is of an exact integer, as in closed_form_bounds
    vertex = dd.over_real(np.array((
        tr + np.sqrt((n - 1)[:, None] * (d * d).sum(axis=-2)),
        # tr_i is 0 only at padding and on one vertex, divided by 1 there
        tr + dd.sdd / np.maximum(tr, 1),
        np.sqrt(2 * (dd.sdd + tr * tr)))))
    found = np.concatenate((
        closed_form_bounds(dd, regular), dd.p.sum(axis=-1)[None],
        bound_L_n2(dd)[None], vertex.min(axis=-1), vertex.max(axis=-1)))
    return np.where(applicability(n, regular), found.take(_TAKE, axis=0),
                    np.nan)


def bound_checks(values, radius_l, radius_q):
    """(satisfied, gap) of the (K, B) array values of bound_values against
    each graph's radius, as (K, B) arrays by the same rows. The gap is
    value - radius for an upper bound, radius - value for a lower one, and
    at least -slack_for(radius) where satisfied; a NaN value, where a bound
    does not apply, is never unsatisfied."""
    radius = np.where(_ON_L[:, None], radius_l, radius_q)
    gap = np.where(_UPPER[:, None], values - radius, radius - values)
    # -slack_for(radius), exactly
    return ~(gap < np.abs(radius) * -SLACK_REL - SLACK_ABS), gap


@dataclass
class BoundEntry:
    bound_id: BoundId
    target: Target
    side: Side
    applicable: bool
    value: Optional[float]
    satisfied: Optional[bool]
    gap: Optional[float]
    diagnosis: object = None  # EqualityDiagnosis when the bound has one


@dataclass
class BoundReport:
    """Everything computed for one graph: its DistanceData (data), its
    operators D, L and Q as one (3, n, n) int64 array
    (operators.build_operators), spectra (descending float64 arrays), radii
    (floats), and the battery as four rows in BoundId order: values (floats,
    None where a bound does not apply), satisfied (bools), gaps (floats)
    and diagnoses (the EqualityDiagnosis of each applicable bound that has
    one), each None where a bound does not apply or has no diagnosis.
    entries holds the same rows as one BoundEntry per bound."""

    graph: object
    graph6: str
    data: object
    operators: np.ndarray
    spectrum_d: np.ndarray
    spectrum_l: np.ndarray
    spectrum_q: np.ndarray
    radius_l: float
    radius_q: float
    values: list
    satisfied: list
    gaps: list
    diagnoses: list

    @functools.cached_property
    def entries(self):
        """The BoundEntry of each bound, in BoundId order."""
        return tuple(
            BoundEntry(bid, meta.target, meta.side, value is not None, value,
                       ok, gap, diagnosis)
            for (bid, meta), value, ok, gap, diagnosis in zip(
                BOUND_META.items(), self.values, self.satisfied, self.gaps,
                self.diagnoses))

    def entry(self, bound_id):
        """The entry of bound_id; entries are in BoundId order."""
        return self.entries[_ROW[bound_id]]


def compute_all_bounds(g):
    """Run every bound on one connected graph and diagnose equality cases.

    The graph runs the soundness sweep's pipeline as a batch of one,
    certify.diagnose included, and its report's rows are column 0 of the
    batch's arrays, each EqualityDiagnosis built from column 0 of its
    certificates. Bounds whose preconditions fail (small n, not
    transmission-regular) come back as inapplicable, never as numbers, and
    with no diagnosis; BOUND_META decides which. Every bound is evaluated
    before the diagnoses, so a ConsistencyError of a bound takes precedence
    over the TheoremViolationError of the first failed diagnosis, which is
    raised.
    """
    from .certify import CERT_NONE, EqualityDiagnosis, diagnose, is_complete

    dd = distance_data(batch_of_one(g))
    ops, spectra = operator_spectra(dd)
    radius_l, radius_q = spectra[1:, :, 0]
    values = bound_values(dd, dd.tmin == dd.tmax)
    satisfied, gaps = bound_checks(values, radius_l, radius_q)
    certificates, failures = diagnose(
        values, spectra[1], radius_q, ops[1], dd, is_complete(dd))
    for failed, message in failures:
        if failed[0]:
            raise TheoremViolationError(message(0))
    diagnoses = {}
    for bid, certs in certificates.items():
        cert = str(certs[0])
        diagnoses[bid] = EqualityDiagnosis(bid, cert != CERT_NONE, cert)
    diagnoses[BoundId.Q_TB_LO] = diagnoses[BoundId.Q_TB_UP]
    # column 0 as Python floats, satisfied as 1.0 or 0.0; a value is NaN,
    # unequal to itself, where its bound does not apply
    column = np.array((values[:, 0], satisfied[:, 0], gaps[:, 0])).tolist()
    rows = [(value, ok == 1.0, gap, diagnoses.get(bid)) if value == value
            else (None,) * 4
            for bid, value, ok, gap in zip(BOUND_META, *column)]
    value_row, ok_row, gap_row, diagnosis_row = map(list, zip(*rows))
    return BoundReport(
        graph=g, graph6=encode_graph6(g), data=dd.row(0), operators=ops[:, 0],
        spectrum_d=spectra[0, 0], spectrum_l=spectra[1, 0],
        spectrum_q=spectra[2, 0], radius_l=float(radius_l[0]),
        radius_q=float(radius_q[0]), values=value_row, satisfied=ok_row,
        gaps=gap_row, diagnoses=diagnosis_row)
