"""Spectral-radius bounds for distance Laplacian and signless Laplacian matrices.

Each bound_* function takes precomputed DistanceData (plus a Frobenius norm
where the formula needs one) of one graph or of a same-n batch and returns
the bound value, a float or one per graph. bound_values runs the battery,
with applicability read from BOUND_META; compute_all_bounds runs it on one
graph and reports applicability, satisfaction against the true radii, and
equality diagnoses for the bounds that have characterized equality cases.

Upper bounds must sit above the radius and lower bounds below it, up to the
soundness slack; compute_all_bounds records violations rather than raising,
so sweeps can aggregate them.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConsistencyError, NotApplicableError
from .graph6 import encode_graph6
from .graphs import (
    compute_distance_data, distance_data, transmission_regularity)
from .linalg import Spectrum, eig_symmetric
from .operators import build_operators

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


def _sqrt_guarded(radicand, what):
    """sqrt with a tiny negative clamp; larger negatives are internal errors.
    A float64 array is clamped and rooted elementwise."""
    batched = isinstance(radicand, np.ndarray)
    low = float(radicand.min()) if batched else float(radicand)
    if low < -1e-9:
        raise ConsistencyError(
            f"{what}: radicand {low!r} is negative beyond tolerance")
    if batched:
        return np.sqrt(np.maximum(radicand, 0.0))
    return math.sqrt(max(radicand, 0.0))


def _value(x):
    """A bound's value: a float for one graph, the array for a batch."""
    return x if getattr(x, "ndim", 0) else float(x)


def _first(bad, *xs):
    """Python floats of xs at the first graph where bad holds."""
    i = int(np.argmax(bad))
    return [float(np.ravel(x)[i]) for x in xs]


def bound_L_i1(dd):
    """Upper bound from each vertex's transmission and distance-column energy:
    max over i of tr_i + sqrt((n-1) * sum_k dist_ki^2)."""
    n = dd.n
    col2 = (dd.dist.astype(np.float64) ** 2).sum(axis=-2)
    vals = dd.tr + np.sqrt((n - 1) * col2)
    return _value(vals.max(axis=-1))


def bound_L_d1(dd):
    """Upper bound 2W - n(n-2); defined for n >= 4."""
    if dd.n < 4:
        raise NotApplicableError(f"needs n >= 4, got n={dd.n}")
    return _value(2.0 * dd.wiener - dd.n * (dd.n - 2))


def bound_L_d2(dd, d_frob):
    """Strict upper bound max tr + sqrt(||D||_F^2 - sum(tr^2)/n)."""
    if dd.n < 2:
        raise NotApplicableError("needs n >= 2")
    rad = d_frob * d_frob - dd.tr2 / dd.n
    return _value(dd.tr.max(axis=-1) + _sqrt_guarded(rad, "L_D2"))


def bound_L_n1(dd):
    """Upper bound: sum of row maxima of the distance matrix."""
    return _value(1.0 * dd.p.sum(axis=-1))


# Entries of each bound_L_n2 temporary, fixed so that its memory stays flat
# in n and in the batch size.
_PAIR_CELLS = 1 << 12


def bound_L_n2(dd):
    """Upper bound over vertex pairs:
    max (tr_i + tr_j + 2 dist_ij + sum_{k != i,j} |dist_ik - dist_jk|) / 2."""
    n = dd.n
    if n < 2:
        raise NotApplicableError("needs n >= 2")
    d = dd.dist
    tr = dd.tr
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
        best = np.maximum(best, (tr[..., i] + tr[..., j] + l1).max(axis=-1))
    return _value(best / 2.0)


def bound_L_n3(dd, l_frob):
    """Upper bound from the Laplacian trace and Frobenius norm:
    2W/(n-1) + sqrt((n-2)/(n-1) * (||L||_F^2 - (2W)^2/(n-1))).
    l_frob is ||L||_F, whose square is tr2 + dist2."""
    n = dd.n
    if n < 2:
        raise NotApplicableError("needs n >= 2")
    tw = 2.0 * dd.wiener
    rad = (n - 2) / (n - 1) * (l_frob * l_frob - tw * tw / (n - 1))
    # an exactly zero radicand (complete graphs) can round to below the
    # sqrt guard's tolerance, so a zero is settled in integers
    exact = (n - 1) * (dd.tr2 + dd.dist2) - 4 * dd.wiener * dd.wiener
    rad = rad * (exact != 0)
    return _value(tw / (n - 1) + _sqrt_guarded(rad, "L_N3"))


def bound_L_transmission_regular(dd, d_frob):
    """The two upper bounds available only for transmission-regular graphs.

    Returns (c1, c2) with
      c1 = k + sqrt(||D||_F^2 - k^2)                      (strict)
      c2 = nk/(n-1) + sqrt((n-2)/(n-1)*(||D||_F^2 - nk^2/(n-1)))
    and checks c2 <= c1 before returning.
    """
    k = transmission_regularity(dd)
    if k is None:
        raise NotApplicableError("graph is not transmission-regular")
    n = dd.n
    if n < 2:
        raise NotApplicableError("needs n >= 2")
    df2 = d_frob * d_frob
    c1 = k + _sqrt_guarded(df2 - k * k, "L_R1")
    rad = (n - 2) / (n - 1) * (df2 - n * k * k / (n - 1))
    c2 = n * k / (n - 1) + _sqrt_guarded(rad, "L_R2")
    bad = c2 > c1 + slack_for(c1)
    if np.any(bad):
        c1, c2 = _first(bad, c1, c2)
        raise ConsistencyError(f"expected c2 <= c1, got c1={c1!r} c2={c2!r}")
    return _value(c1), _value(c2)


def bound_Q_tb(dd):
    """Signless radius sits between twice the min and twice the max transmission."""
    return 2.0 * _value(dd.tr.min(axis=-1)), 2.0 * _value(dd.tr.max(axis=-1))


def bound_Q_hong_ratio(dd):
    """Lower/upper pair min/max over i of tr_i + sdd_i / tr_i."""
    if dd.n < 2:
        raise NotApplicableError("needs n >= 2 (zero transmissions otherwise)")
    vals = dd.tr + dd.sdd / dd.tr
    return _value(vals.min(axis=-1)), _value(vals.max(axis=-1))


def bound_Q_hong_sqrt(dd):
    """Lower/upper pair min/max over i of sqrt(2 sdd_i + 2 tr_i^2)."""
    vals = np.sqrt(2.0 * dd.sdd + 2.0 * dd.tr.astype(np.float64) ** 2)
    return _value(vals.min(axis=-1)), _value(vals.max(axis=-1))


def bound_Q_i2(dd):
    """Same expression as bound_L_i1, valid as a signless upper bound too."""
    return bound_L_i1(dd)


def _quadratic_root(x, n, wiener):
    rad = (x - 1.0) ** 2 + 8.0 * (x * x + 2.0 * wiener - (n - 1.0) * x)
    return (x - 1.0 + _sqrt_guarded(rad, "Q_quadratic")) / 2.0


def bound_Q_quadratic(dd):
    """Lower/upper pair from a quadratic row-sum argument, evaluated at the
    min and max transmission. Checks the pair stays inside [2t, 2T]."""
    t = _value(dd.tr.min(axis=-1))
    big = _value(dd.tr.max(axis=-1))
    lo = _quadratic_root(t, dd.n, dd.wiener)
    up = _quadratic_root(big, dd.n, dd.wiener)
    bad = (lo + slack_for(lo) < 2.0 * t) | (up > 2.0 * big + slack_for(up))
    if np.any(bad):
        lo, up, t, big = _first(bad, lo, up, t, big)
        raise ConsistencyError(
            f"quadratic pair ({lo!r}, {up!r}) escapes [2t, 2T] = "
            f"({2 * t!r}, {2 * big!r})")
    return _value(lo), _value(up)


def bound_Q_cs7(dd, q_frob):
    """Upper bound 2W/n + sqrt((n-1)/n * (||Q||_F^2 - (2W)^2/n))."""
    n = dd.n
    tw = 2.0 * dd.wiener
    rad = (n - 1) / n * (q_frob * q_frob - tw * tw / n)
    return _value(tw / n + _sqrt_guarded(rad, "Q_CS7"))


# The battery in evaluation order: each function of the distance data and
# the ids of the bounds whose values it returns. The lambdas look the
# bound_* functions up when called, so every caller runs the current ones.
_BATTERY = (
    ((BoundId.L_I1, BoundId.Q_I2), lambda dd: (bound_L_i1(dd),) * 2),
    ((BoundId.L_D1,), lambda dd: (bound_L_d1(dd),)),
    ((BoundId.L_D2,), lambda dd: (bound_L_d2(dd, np.sqrt(dd.dist2)),)),
    ((BoundId.L_N1,), lambda dd: (bound_L_n1(dd),)),
    ((BoundId.L_N2,), lambda dd: (bound_L_n2(dd),)),
    ((BoundId.L_N3,),
     lambda dd: (bound_L_n3(dd, np.sqrt(dd.tr2 + dd.dist2)),)),
    ((BoundId.L_R1, BoundId.L_R2),
     lambda dd: bound_L_transmission_regular(dd, np.sqrt(dd.dist2))),
    ((BoundId.Q_TB_LO, BoundId.Q_TB_UP), lambda dd: bound_Q_tb(dd)),
    ((BoundId.Q_I3, BoundId.Q_I4), lambda dd: bound_Q_hong_ratio(dd)),
    ((BoundId.Q_I5, BoundId.Q_I6), lambda dd: bound_Q_hong_sqrt(dd)),
    ((BoundId.Q_CI5, BoundId.Q_CS6), lambda dd: bound_Q_quadratic(dd)),
    ((BoundId.Q_CS7,),
     lambda dd: (bound_Q_cs7(dd, np.sqrt(dd.tr2 + dd.dist2)),)),
)


def applies(bound_id, n, regular):
    """Whether bound_id applies at n vertices: n >= its min_n and, for a
    regular-only bound, the graph is transmission-regular. regular is one
    flag, or one per graph of a batch; then a regular-only bound that
    passes min_n applies where regular holds."""
    meta = BOUND_META[bound_id]
    return n >= meta.min_n and (regular if meta.regular_only else True)


def bound_values(dd, regular):
    """Value of every bound that applies to the graph or batch dd, by id.

    regular flags the transmission-regular graphs (see applies). In a batch,
    a bound that applies to some graphs only is evaluated on those and is
    NaN on the others. A ConsistencyError of any bound propagates.
    """
    values = {}
    for ids, evaluate in _BATTERY:
        rows = applies(ids[0], dd.n, regular)
        if not isinstance(rows, np.ndarray):
            if rows:
                values.update(zip(ids, evaluate(dd)))
        elif rows.any():
            found = np.full((len(ids), len(rows)), np.nan)
            found[:, rows] = evaluate(distance_data(dd.dist[rows]))
            values.update(zip(ids, found))
    return values


@dataclass(frozen=True)
class BoundEntry:
    bound_id: BoundId
    target: Target
    side: Side
    applicable: bool
    value: Optional[float]
    satisfied: Optional[bool]
    gap: Optional[float]
    diagnosis: object = None  # EqualityDiagnosis when the bound has one


@dataclass(frozen=True)
class BoundReport:
    """Everything computed for one graph: spectra, radii, and bound entries."""

    graph: object
    graph6: str
    data: object
    bundle: object
    spectrum_d: Spectrum
    spectrum_l: Spectrum
    spectrum_q: Spectrum
    radius_l: float
    radius_q: float
    entries: tuple
    timing_ms: dict

    def entry(self, bound_id):
        for e in self.entries:
            if e.bound_id is bound_id:
                return e
        raise KeyError(bound_id)


def _entry(bound_id, meta, value, radius, diagnosis):
    """The entry of a bound: inapplicable when value is None."""
    if value is None:
        return BoundEntry(
            bound_id=bound_id, target=meta.target, side=meta.side,
            applicable=False, value=None, satisfied=None, gap=None,
            diagnosis=None)
    if meta.side is Side.UPPER:
        gap = value - radius
    else:
        gap = radius - value
    satisfied = gap >= -slack_for(radius)
    return BoundEntry(
        bound_id=bound_id, target=meta.target, side=meta.side,
        applicable=True, value=float(value), satisfied=bool(satisfied),
        gap=float(gap), diagnosis=diagnosis)


def compute_all_bounds(g):
    """Run every bound on one connected graph and diagnose equality cases.

    Bounds whose preconditions fail (small n, not transmission-regular) come
    back as inapplicable entries, never as numbers; BOUND_META decides which.
    Every bound is evaluated before the diagnoses, so a ConsistencyError of
    a bound takes precedence over a diagnosis's TheoremViolationError, which
    propagates.
    """
    from .certify import diagnose_all

    t0 = time.perf_counter()
    dd = compute_distance_data(g)
    t1 = time.perf_counter()
    bundle = build_operators(dd)
    spectra = eig_symmetric(np.array(
        (bundle.d_mat, bundle.l_mat, bundle.q_mat), dtype=np.float64))
    spectrum_d, spectrum_l, spectrum_q = (
        Spectrum(values=v, tol=spectra.tol) for v in spectra.values)
    radius_l = spectrum_l.largest
    radius_q = spectrum_q.largest
    t2 = time.perf_counter()

    values = bound_values(dd, transmission_regularity(dd) is not None)
    diagnoses = diagnose_all(bundle, spectrum_l, spectrum_q, dd)
    entries = tuple(
        _entry(bid, meta, values.get(bid),
               radius_l if meta.target is Target.L else radius_q,
               diagnoses.get(bid))
        for bid, meta in BOUND_META.items())
    t3 = time.perf_counter()

    timing = {
        "distances": round((t1 - t0) * 1000.0, 3),
        "spectra": round((t2 - t1) * 1000.0, 3),
        "bounds": round((t3 - t2) * 1000.0, 3),
        "total": round((t3 - t0) * 1000.0, 3),
    }
    return BoundReport(
        graph=g, graph6=encode_graph6(g), data=dd, bundle=bundle,
        spectrum_d=spectrum_d, spectrum_l=spectrum_l, spectrum_q=spectrum_q,
        radius_l=radius_l, radius_q=radius_q, entries=entries,
        timing_ms=timing)
