"""Spectral-radius bounds for distance Laplacian and signless Laplacian matrices.

Each bound_* function takes precomputed DistanceData (plus a Frobenius norm
where the formula needs one) and returns the bound value. compute_all_bounds
runs the whole battery on a graph and reports applicability, satisfaction
against the true radii, and equality diagnoses for the bounds that have
characterized equality cases.

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
from .graphs import compute_distance_data, transmission_regularity
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
    BoundId.L_R1: BoundMeta(Target.L, Side.UPPER, strict=True, regular_only=True),
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
    low = float(radicand.min()) if batched else radicand
    if low < -1e-9:
        raise ConsistencyError(
            f"{what}: radicand {low!r} is negative beyond tolerance")
    if batched:
        return np.sqrt(np.maximum(radicand, 0.0))
    return math.sqrt(max(radicand, 0.0))


def bound_L_i1(dd):
    """Upper bound from each vertex's transmission and distance-column energy:
    max over i of tr_i + sqrt((n-1) * sum_k dist_ki^2)."""
    n = dd.n
    col2 = (dd.dist.astype(np.float64) ** 2).sum(axis=0)
    vals = dd.tr + np.sqrt((n - 1) * col2)
    return float(vals.max())


def bound_L_d1(dd):
    """Upper bound 2W - n(n-2); defined for n >= 4."""
    if dd.n < 4:
        raise NotApplicableError(f"needs n >= 4, got n={dd.n}")
    return float(2 * dd.wiener - dd.n * (dd.n - 2))


def bound_L_d2(dd, d_frob):
    """Strict upper bound max tr + sqrt(||D||_F^2 - sum(tr^2)/n)."""
    if dd.n < 2:
        raise NotApplicableError("needs n >= 2")
    rad = d_frob * d_frob - dd.tr2 / dd.n
    value = dd.tr.max(axis=-1) + _sqrt_guarded(rad, "L_D2")
    return value if value.ndim else float(value)


def bound_L_n1(dd):
    """Upper bound: sum of row maxima of the distance matrix."""
    return float(dd.p.sum())


def bound_L_n2(dd):
    """Upper bound over vertex pairs:
    max (tr_i + tr_j + 2 dist_ij + sum_{k != i,j} |dist_ik - dist_jk|) / 2."""
    if dd.n < 2:
        raise NotApplicableError("needs n >= 2")
    d = dd.dist
    tr = dd.tr
    best = 0
    for i in range(dd.n - 1):
        # row i against every later row j; the k = i and k = j terms of the
        # l1 distance contribute dist_ij each, which is the 2 dist_ij term
        l1 = np.abs(d[i + 1:] - d[i]).sum(axis=1)
        best = max(best, int((tr[i] + tr[i + 1:] + l1).max()))
    return best / 2.0


def bound_L_n3(dd, l_frob):
    """Upper bound from the Laplacian trace and Frobenius norm:
    2W/(n-1) + sqrt((n-2)/(n-1) * (||L||_F^2 - (2W)^2/(n-1)))."""
    n = dd.n
    if n < 2:
        raise NotApplicableError("needs n >= 2")
    tw = 2.0 * dd.wiener
    rad = (n - 2) / (n - 1) * (l_frob * l_frob - tw * tw / (n - 1))
    return tw / (n - 1) + _sqrt_guarded(rad, "L_N3")


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
    if c2 > c1 + slack_for(c1):
        raise ConsistencyError(f"expected c2 <= c1, got c1={c1!r} c2={c2!r}")
    return c1, c2


def bound_Q_tb(dd):
    """Signless radius sits between twice the min and twice the max transmission."""
    return 2.0 * float(dd.tr.min()), 2.0 * float(dd.tr.max())


def bound_Q_hong_ratio(dd):
    """Lower/upper pair min/max over i of tr_i + sdd_i / tr_i."""
    if dd.n < 2:
        raise NotApplicableError("needs n >= 2 (zero transmissions otherwise)")
    vals = dd.tr + dd.sdd / dd.tr
    return float(vals.min()), float(vals.max())


def bound_Q_hong_sqrt(dd):
    """Lower/upper pair min/max over i of sqrt(2 sdd_i + 2 tr_i^2)."""
    vals = np.sqrt(2.0 * dd.sdd + 2.0 * dd.tr.astype(np.float64) ** 2)
    return float(vals.min()), float(vals.max())


def bound_Q_i2(dd):
    """Same expression as bound_L_i1, valid as a signless upper bound too."""
    return bound_L_i1(dd)


def _quadratic_root(x, n, wiener):
    rad = (x - 1.0) ** 2 + 8.0 * (x * x + 2.0 * wiener - (n - 1.0) * x)
    return (x - 1.0 + _sqrt_guarded(rad, "Q_quadratic")) / 2.0


def bound_Q_quadratic(dd):
    """Lower/upper pair from a quadratic row-sum argument, evaluated at the
    min and max transmission. Checks the pair stays inside [2t, 2T]."""
    t = float(dd.tr.min())
    big = float(dd.tr.max())
    lo = _quadratic_root(t, dd.n, dd.wiener)
    up = _quadratic_root(big, dd.n, dd.wiener)
    if lo + slack_for(lo) < 2.0 * t or up > 2.0 * big + slack_for(up):
        raise ConsistencyError(
            f"quadratic pair ({lo!r}, {up!r}) escapes [2t, 2T] = "
            f"({2 * t!r}, {2 * big!r})")
    return lo, up


def bound_Q_cs7(dd, q_frob):
    """Upper bound 2W/n + sqrt((n-1)/n * (||Q||_F^2 - (2W)^2/n))."""
    n = dd.n
    tw = 2.0 * dd.wiener
    rad = (n - 1) / n * (q_frob * q_frob - tw * tw / n)
    return tw / n + _sqrt_guarded(rad, "Q_CS7")


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


def _entry(bound_id, value, radius, diagnosis=None):
    meta = BOUND_META[bound_id]
    if meta.side is Side.UPPER:
        gap = value - radius
    else:
        gap = radius - value
    satisfied = gap >= -slack_for(radius)
    return BoundEntry(
        bound_id=bound_id, target=meta.target, side=meta.side,
        applicable=True, value=float(value), satisfied=bool(satisfied),
        gap=float(gap), diagnosis=diagnosis)


def _skip(bound_id):
    meta = BOUND_META[bound_id]
    return BoundEntry(
        bound_id=bound_id, target=meta.target, side=meta.side,
        applicable=False, value=None, satisfied=None, gap=None, diagnosis=None)


def compute_all_bounds(g):
    """Run every bound on one connected graph and diagnose equality cases.

    Bounds whose preconditions fail (small n, not transmission-regular) come
    back as inapplicable entries, never as numbers. Diagnosis functions may
    raise TheoremViolationError; that propagates.
    """
    from .certify import diagnose_cs7, diagnose_n1, diagnose_n3, diagnose_tb

    t0 = time.perf_counter()
    dd = compute_distance_data(g)
    t1 = time.perf_counter()
    bundle = build_operators(dd)
    spectrum_d = eig_symmetric(bundle.d_mat.astype(np.float64))
    spectrum_l = eig_symmetric(bundle.l_mat.astype(np.float64))
    spectrum_q = eig_symmetric(bundle.q_mat.astype(np.float64))
    radius_l = spectrum_l.largest
    radius_q = spectrum_q.largest
    t2 = time.perf_counter()

    d_frob = math.sqrt(dd.dist2)
    # ||L||_F^2 = ||Q||_F^2 = sum(tr^2) + ||D||_F^2
    lq_frob = math.sqrt(dd.tr2 + dd.dist2)
    regular = transmission_regularity(dd) is not None
    n = dd.n

    entries = []

    i1 = bound_L_i1(dd)
    entries.append(_entry(BoundId.L_I1, i1, radius_l))
    if n >= 4:
        entries.append(_entry(BoundId.L_D1, bound_L_d1(dd), radius_l))
    else:
        entries.append(_skip(BoundId.L_D1))
    if n >= 2:
        entries.append(_entry(BoundId.L_D2, bound_L_d2(dd, d_frob), radius_l))
    else:
        entries.append(_skip(BoundId.L_D2))
    entries.append(_entry(
        BoundId.L_N1, bound_L_n1(dd), radius_l,
        diagnosis=diagnose_n1(bundle, spectrum_l, dd)))
    if n >= 2:
        entries.append(_entry(BoundId.L_N2, bound_L_n2(dd), radius_l))
        entries.append(_entry(
            BoundId.L_N3, bound_L_n3(dd, lq_frob), radius_l,
            diagnosis=diagnose_n3(spectrum_l, dd)))
    else:
        entries.append(_skip(BoundId.L_N2))
        entries.append(_skip(BoundId.L_N3))
    if regular and n >= 2:
        c1, c2 = bound_L_transmission_regular(dd, d_frob)
        entries.append(_entry(BoundId.L_R1, c1, radius_l))
        entries.append(_entry(BoundId.L_R2, c2, radius_l))
    else:
        entries.append(_skip(BoundId.L_R1))
        entries.append(_skip(BoundId.L_R2))

    tb_lo, tb_up = bound_Q_tb(dd)
    tb_diag = diagnose_tb(spectrum_q, dd)
    entries.append(_entry(BoundId.Q_TB_LO, tb_lo, radius_q, diagnosis=tb_diag))
    entries.append(_entry(BoundId.Q_TB_UP, tb_up, radius_q, diagnosis=tb_diag))
    if n >= 2:
        i3, i4 = bound_Q_hong_ratio(dd)
        entries.append(_entry(BoundId.Q_I3, i3, radius_q))
        entries.append(_entry(BoundId.Q_I4, i4, radius_q))
    else:
        entries.append(_skip(BoundId.Q_I3))
        entries.append(_skip(BoundId.Q_I4))
    i5, i6 = bound_Q_hong_sqrt(dd)
    entries.append(_entry(BoundId.Q_I5, i5, radius_q))
    entries.append(_entry(BoundId.Q_I6, i6, radius_q))
    # Q_I2 is the L_I1 expression (bound_Q_i2)
    entries.append(_entry(BoundId.Q_I2, i1, radius_q))
    ci5, cs6 = bound_Q_quadratic(dd)
    entries.append(_entry(BoundId.Q_CI5, ci5, radius_q))
    entries.append(_entry(BoundId.Q_CS6, cs6, radius_q))
    entries.append(_entry(
        BoundId.Q_CS7, bound_Q_cs7(dd, lq_frob), radius_q,
        diagnosis=diagnose_cs7(spectrum_q, dd)))
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
        radius_l=radius_l, radius_q=radius_q, entries=tuple(entries),
        timing_ms=timing)
