"""Spectral-radius bounds for distance Laplacian and signless Laplacian matrices.

Each bound_* function takes the DistanceData of a batch and returns the
bound value of each graph. A square-root bound builds its radicand exactly
from the batch's integer fields (n, dist2, tr2, wiener, tmin, tmax) and
takes one float root of it (_root), so a radicand that is exactly 0, as
on complete graphs, gives a root of exactly 0. A batch may pad its graphs
to a common size: each formula reads each graph's own n, and its min and
max reductions run over real vertices only. bound_values runs the battery
into one (K, B) array, a row per bound in BoundId order and a column per
graph, and is the one place that applies BOUND_META (min_n,
regular_only): a bound is NaN on a graph the table excludes, and a bound_*
function assumes graphs the table admits.
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
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConsistencyError, TheoremViolationError
from .graph6 import encode_graph6
from .graphs import batch_of_one, distance_data
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


# the row of each bound in bound_values, and BOUND_META's targets and sides
# as arrays by row; BOUND_META lists the bounds in BoundId order
_ROW = {bid: k for k, bid in enumerate(BOUND_META)}
_ON_L = np.array([meta.target is Target.L for meta in BOUND_META.values()])
_UPPER = np.array([meta.side is Side.UPPER for meta in BOUND_META.values()])


# Each radicand term of a connected graph on N vertices is below N^6: every
# transmission is at most N(N-1)/2, so N * tr2 and 4 W^2 are below N^6 / 4,
# and N * dist2 is below N^5. _INT64_N is the largest N whose N^6 fits in
# int64; on a batch padded above it, the terms are Python ints instead.
_INT64_N = int(np.iinfo(np.int64).max ** (1 / 6))


def _exact(dd):
    """dd, or, on a batch padded above _INT64_N vertices, a copy whose
    integer fields n, dist2, tr2, wiener, tmin and tmax are Python ints, so
    that radicands built from them never wrap."""
    if dd.dist.shape[-1] <= _INT64_N:
        return dd
    return replace(dd, **{
        name: getattr(dd, name).astype(object)
        for name in ("n", "dist2", "tr2", "wiener", "tmin", "tmax")})


def _root(exact, scale, what):
    """sqrt(scale * exact) of an integer radicand array exact and a float
    scale. Each radicand is >= 0 by a theorem, so a negative one is an
    internal error."""
    if (exact < 0).any():
        raise ConsistencyError(f"{what}: radicand {exact.min()} is negative")
    return np.sqrt(scale * exact.astype(np.float64))


def _first(bad, *xs):
    """Python floats of xs at the first graph where bad holds."""
    i = int(np.argmax(bad))
    return [float(x[i]) for x in xs]


def bound_L_i1(dd):
    """Upper bound from each vertex's transmission and distance-column energy:
    max over i of tr_i + sqrt((n-1) * sum_k dist_ki^2)."""
    col2 = (dd.dist.astype(np.float64) ** 2).sum(axis=-2)
    vals = dd.tr + np.sqrt((dd.n - 1)[..., None] * col2)
    # a padded vertex's value is 0, never above a real one's
    return vals.max(axis=-1)


def bound_L_d1(dd):
    """Upper bound 2W - n(n-2)."""
    return 2.0 * dd.wiener - dd.n * (dd.n - 2)


def bound_L_d2(dd):
    """Strict upper bound max tr + sqrt(||D||_F^2 - sum(tr^2)/n), whose
    radicand is (n dist2 - tr2) / n."""
    x = _exact(dd)
    return dd.tmax + _root(x.n * x.dist2 - x.tr2, 1.0 / dd.n, "L_D2")


def bound_L_n1(dd):
    """Upper bound: sum of row maxima of the distance matrix."""
    return 1.0 * dd.p.sum(axis=-1)


# Entries of each bound_L_n2 temporary, 128 KB of int64, fixed so that its
# memory stays flat in n and in the batch size. Each block of pairs costs a
# few numpy calls, so the blocks are as large as stays in cache: a 32-graph
# chunk at N = 10 takes one pass.
_PAIR_CELLS = 1 << 14


def bound_L_n2(dd):
    """Upper bound over vertex pairs:
    max (tr_i + tr_j + 2 dist_ij + sum_{k != i,j} |dist_ik - dist_jk|) / 2."""
    d = dd.dist
    tr = dd.tr
    n = d.shape[-1]
    first, second = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    step = max(1, _PAIR_CELLS * n // d.size)
    best = 0
    for s in range(0, len(first), step):
        i, j = first[s:s + step], second[s:s + step]
        # the k = i and k = j terms of the l1 distance contribute dist_ij
        # each, which is the 2 dist_ij term; d[..., i, :] is a copy, so the
        # difference and its absolute value reuse it
        l1 = d[..., i, :]
        l1 -= d[..., j, :]
        l1 = np.abs(l1, out=l1).sum(axis=-1)
        # a real i and a padded j give 2 tr_i, never above the value of i
        # and a real j, which the triangle inequality puts at 2 tr_i or more
        best = np.maximum(best, (tr[..., i] + tr[..., j] + l1).max(axis=-1))
    return best / 2.0


def bound_L_n3(dd):
    """Upper bound from the Laplacian trace 2W and Frobenius norm, whose
    square is S = tr2 + dist2:
    2W/(n-1) + sqrt((n-2)/(n-1) * (S - (2W)^2/(n-1))), whose radicand is
    ((n-1) S - 4W^2) (n-2)/(n-1)^2."""
    x, n = _exact(dd), dd.n
    return 2.0 * dd.wiener / (n - 1) + _root(
        (x.n - 1) * (x.tr2 + x.dist2) - 4 * x.wiener * x.wiener,
        (n - 2) / (n - 1) ** 2, "L_N3")


def bound_L_transmission_regular(dd):
    """The two upper bounds available only for transmission-regular graphs,
    of transmission k.

    Returns (c1, c2) with
      c1 = k + sqrt(||D||_F^2 - k^2)                      (strict)
      c2 = nk/(n-1) + sqrt((n-2)/(n-1)*(||D||_F^2 - nk^2/(n-1)))
    and checks c2 <= c1 before returning. The radicand of c2 is
    ((n-1) dist2 - n k^2) (n-2)/(n-1)^2.
    """
    x, k, n = _exact(dd), dd.tmax, dd.n
    c1 = k + _root(x.dist2 - x.tmax * x.tmax, 1.0, "L_R1")
    c2 = n * k / (n - 1) + _root(
        (x.n - 1) * x.dist2 - x.n * x.tmax * x.tmax, (n - 2) / (n - 1) ** 2,
        "L_R2")
    bad = c2 > c1 + slack_for(c1)
    if bad.any():
        c1, c2 = _first(bad, c1, c2)
        raise ConsistencyError(f"expected c2 <= c1, got c1={c1!r} c2={c2!r}")
    return c1, c2


def bound_Q_tb(dd):
    """Signless radius sits between twice the min and twice the max transmission."""
    return 2.0 * dd.tmin, 2.0 * dd.tmax


def bound_Q_hong_ratio(dd):
    """Lower/upper pair min/max over i of tr_i + sdd_i / tr_i."""
    # a padded vertex's 0 / 0 never happens: it divides 0 by 1
    vals = dd.over_real(dd.tr + dd.sdd / np.where(dd.real, dd.tr, 1))
    return vals.min(axis=-1), vals.max(axis=-1)


def bound_Q_hong_sqrt(dd):
    """Lower/upper pair min/max over i of sqrt(2 sdd_i + 2 tr_i^2)."""
    vals = dd.over_real(
        np.sqrt(2.0 * dd.sdd + 2.0 * dd.tr.astype(np.float64) ** 2))
    return vals.min(axis=-1), vals.max(axis=-1)


def bound_Q_quadratic(dd):
    """Lower/upper pair from a quadratic row-sum argument, evaluated at the
    min and max transmission. Checks the pair stays inside [2t, 2T]."""
    # both ends in one (2, B) stack; integer transmissions are exact floats
    x = _exact(dd)
    e = np.stack((x.tmin, x.tmax))
    rad = (e - 1) ** 2 + 8 * (e * e + 2 * x.wiener - (x.n - 1) * e)
    ends = e.astype(float)
    roots = (ends - 1.0 + _root(rad, 1.0, "Q_quadratic")) / 2.0
    (lo, up), (t, big) = roots, ends
    pad, twice = slack_for(roots), 2.0 * ends
    bad = (lo + pad[0] < twice[0]) | (up > twice[1] + pad[1])
    if bad.any():
        lo, up, t, big = _first(bad, lo, up, t, big)
        raise ConsistencyError(
            f"quadratic pair ({lo!r}, {up!r}) escapes [2t, 2T] = "
            f"({2 * t!r}, {2 * big!r})")
    return lo, up


def bound_Q_cs7(dd):
    """Upper bound 2W/n + sqrt((n-1)/n * (||Q||_F^2 - (2W)^2/n)), where
    ||Q||_F^2 = S = tr2 + dist2, whose radicand is (n S - 4W^2) (n-1)/n^2."""
    x, n = _exact(dd), dd.n
    return 2.0 * dd.wiener / n + _root(
        x.n * (x.tr2 + x.dist2) - 4 * x.wiener * x.wiener, (n - 1) / n ** 2,
        "Q_CS7")


# The battery in evaluation order: each function of the distance data and
# the ids of the bounds whose values it returns; the ids of one entry share
# min_n and regular_only. The lambdas look the bound_* functions up when
# called, so every caller runs the current ones. Q_I2 is the L_I1
# expression, which bounds the signless radius too.
_BATTERY = (
    ((BoundId.L_I1, BoundId.Q_I2), lambda dd: (bound_L_i1(dd),) * 2),
    ((BoundId.L_D1,), lambda dd: (bound_L_d1(dd),)),
    ((BoundId.L_D2,), lambda dd: (bound_L_d2(dd),)),
    ((BoundId.L_N1,), lambda dd: (bound_L_n1(dd),)),
    ((BoundId.L_N2,), lambda dd: (bound_L_n2(dd),)),
    ((BoundId.L_N3,), lambda dd: (bound_L_n3(dd),)),
    ((BoundId.L_R1, BoundId.L_R2),
     lambda dd: bound_L_transmission_regular(dd)),
    ((BoundId.Q_TB_LO, BoundId.Q_TB_UP), lambda dd: bound_Q_tb(dd)),
    ((BoundId.Q_I3, BoundId.Q_I4), lambda dd: bound_Q_hong_ratio(dd)),
    ((BoundId.Q_I5, BoundId.Q_I6), lambda dd: bound_Q_hong_sqrt(dd)),
    ((BoundId.Q_CI5, BoundId.Q_CS6), lambda dd: bound_Q_quadratic(dd)),
    ((BoundId.Q_CS7,), lambda dd: (bound_Q_cs7(dd),)),
)


def bound_values(dd, regular):
    """Value of every bound on every graph of the batch dd, as one (K, B)
    float64 array: row _ROW[bid] holds bound bid, in BoundId order, and
    column b graph b.

    BOUND_META decides where a bound applies: on each graph with n >= its
    min_n and, for a regular-only bound, that regular flags; elsewhere it is
    NaN, and its bound_* function never sees that graph. A ConsistencyError
    of any bound propagates.
    """
    smallest = dd.n.min()
    every = regular.all()
    values = np.full((len(BOUND_META), len(dd.n)), np.nan)
    for ids, evaluate in _BATTERY:
        meta = BOUND_META[ids[0]]
        if smallest >= meta.min_n and (every or not meta.regular_only):
            applies = slice(None)
            found = evaluate(dd)
        else:
            applies = dd.n >= meta.min_n
            if meta.regular_only:
                applies &= regular
            if not applies.any():
                continue
            found = evaluate(dd.take(applies))
        for bid, value in zip(ids, found):
            values[_ROW[bid], applies] = value
    return values


def bound_checks(values, radius_l, radius_q):
    """(satisfied, gap) of the (K, B) array values of bound_values against
    each graph's radius, as (K, B) arrays by the same rows. The gap is
    value - radius for an upper bound, radius - value for a lower one, and
    at least -slack_for(radius) where satisfied; a NaN value, where a bound
    does not apply, is never unsatisfied."""
    radius = np.where(_ON_L[:, None], radius_l, radius_q)
    gap = np.where(_UPPER[:, None], values - radius, radius - values)
    return ~(gap < -slack_for(radius)), gap


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
    (floats), and bound entries."""

    graph: object
    graph6: str
    data: object
    operators: np.ndarray
    spectrum_d: np.ndarray
    spectrum_l: np.ndarray
    spectrum_q: np.ndarray
    radius_l: float
    radius_q: float
    entries: tuple

    def entry(self, bound_id):
        """The entry of bound_id; entries are in BoundId order."""
        return self.entries[_ROW[bound_id]]


def compute_all_bounds(g):
    """Run every bound on one connected graph and diagnose equality cases.

    The graph runs the soundness sweep's pipeline as a batch of one,
    certify.diagnose included, and each EqualityDiagnosis is built from
    column 0 of its certificates. Bounds whose preconditions fail (small n,
    not transmission-regular) come back as inapplicable entries, never as
    numbers, and with no diagnosis; BOUND_META decides which. Every bound
    is evaluated before the diagnoses, so a ConsistencyError of a bound
    takes precedence over the TheoremViolationError of the first failed
    diagnosis, which is raised.
    """
    from .certify import CERT_NONE, EqualityDiagnosis, diagnose, is_complete

    dd = distance_data(batch_of_one(g))
    ops, spectra = operator_spectra(dd)
    spectrum_d, spectrum_l, spectrum_q = spectra[:, 0]
    radius_l, radius_q = spectra[1:, 0, 0].tolist()

    values = bound_values(dd, dd.tmin == dd.tmax)
    satisfied, gap = bound_checks(values, spectra[1, :, 0], spectra[2, :, 0])
    data = dd.row(0)
    certificates, failures = diagnose(
        values, spectra[1], spectra[2, :, 0], ops[1], dd, is_complete(dd))
    for failed, message in failures:
        if failed[0]:
            raise TheoremViolationError(message(0))
    diagnoses = {}
    for bid, certs in certificates.items():
        cert = str(certs[0])
        diagnoses[bid] = EqualityDiagnosis(bid, cert != CERT_NONE, cert)
    diagnoses[BoundId.Q_TB_LO] = diagnoses[BoundId.Q_TB_UP]
    entries = []
    for (bid, meta), *found in zip(BOUND_META.items(), *(
            a[:, 0].tolist() for a in (values, satisfied, gap))):
        applicable = not math.isnan(found[0])
        entries.append(BoundEntry(
            bid, meta.target, meta.side, applicable,
            *(found if applicable else (None, None, None)),
            diagnoses.get(bid) if applicable else None))
    return BoundReport(
        graph=g, graph6=encode_graph6(g), data=data, operators=ops[:, 0],
        spectrum_d=spectrum_d, spectrum_l=spectrum_l, spectrum_q=spectrum_q,
        radius_l=radius_l, radius_q=radius_q, entries=tuple(entries))
