"""Independent test oracles, deliberately written from scratch.

Nothing here delegates to numpy.linalg for the quantity being checked: the
eigenvalue oracle evaluates the characteristic polynomial with a hand-rolled
partial-pivot LU determinant and brackets roots by sign changes, the counting
oracle is a closed recurrence, the tree generator walks Prufer sequences, and
the rejection sampler draws and tests one graph at a time.
The isomorphism oracle relabels edge masks by every vertex permutation.
The soundness oracle is the sweep one graph at a time, through
compute_all_bounds and scalar identity checks, against which the chunked
sweep is compared.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import random
from fractions import Fraction
from math import comb, inf

import numpy as np

from distlap import (
    SoundnessReport, check_han_multiplicity, compute_all_bounds,
    encode_graph6, slack_for)
from distlap.errors import (
    ConsistencyError, DisconnectedGraphError, GraphParseError,
    TheoremViolationError)
from distlap.graphs import batch_of_one, distance_data


def distance_row(g):
    """The DistanceData of connected graph g alone, row 0 of its batch of
    one; raises DisconnectedGraphError as batch_of_one does."""
    return distance_data(batch_of_one(g)).row(0)


def lu_determinant(a):
    """Determinant by Gaussian elimination with partial pivoting, pure loops."""
    m = [list(map(float, row)) for row in a]
    n = len(m)
    det = 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0.0:
            return 0.0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1.0 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                row_r = m[r]
                row_c = m[col]
                for c in range(col, n):
                    row_r[c] -= f * row_c[c]
    return det


def charpoly_eigenvalues(a, tol=1e-12):
    """All eigenvalues of a symmetric matrix by det(a - x I) sign bracketing.

    Assumes the eigenvalues are real (symmetric input) and pairwise distinct
    enough for a sign change to exist between them; the grid refines itself
    until it finds n brackets. Raises if it cannot, which for the random
    matrices used in tests means the draw was degenerate.
    """
    n = len(a)
    rows = [list(map(float, row)) for row in a]

    def p(x):
        shifted = [[rows[i][j] - (x if i == j else 0.0) for j in range(n)]
                   for i in range(n)]
        return lu_determinant(shifted)

    radius = max(sum(abs(v) for v in row) for row in rows)
    lo, hi = -radius - 1.0, radius + 1.0
    for points in (256, 1024, 4096, 16384, 65536):
        xs = [lo + (hi - lo) * k / (points - 1) for k in range(points)]
        vals = [p(x) for x in xs]
        brackets = [
            (xs[k], xs[k + 1])
            for k in range(points - 1)
            if vals[k] == 0.0 or (vals[k] > 0) != (vals[k + 1] > 0)]
        if len(brackets) >= n:
            break
    if len(brackets) != n:
        raise RuntimeError(
            f"could not isolate {n} roots (found {len(brackets)} brackets)")
    roots = []
    for a_, b_ in brackets:
        fa = p(a_)
        x = a_
        for _ in range(200):
            x = (a_ + b_) / 2.0
            fx = p(x)
            if fx == 0.0 or (b_ - a_) < tol * (1.0 + abs(x)):
                break
            if (fa > 0) != (fx > 0):
                b_ = x
            else:
                a_, fa = x, fx
        roots.append(x)
    return sorted(roots, reverse=True)


def labeled_connected_count(n):
    """Number of connected labeled graphs on n vertices, by the standard
    subtraction recurrence over the component containing vertex 1."""
    counts = [0] * (n + 1)
    for m in range(1, n + 1):
        total = 2 ** comb(m, 2)
        for k in range(1, m):
            total -= counts[k] * comb(m - 1, k - 1) * 2 ** comb(m - k, 2)
        counts[m] = total
    return counts[n]


UNLABELED_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def edge_mask(edges, n):
    """The edge mask of a graph on n vertices: bit k for pair k of (0,1),
    (0,2), ..., (n-2,n-1)."""
    pairs = list(itertools.combinations(range(n), 2))
    return sum(1 << pairs.index((min(e), max(e))) for e in edges)


def relabeled_masks(masks, n):
    """Yield the edge masks relabeled by each permutation of range(n) in
    turn, one array per permutation."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    shifts = np.arange(len(pairs), dtype=np.int64)
    bits = (np.asarray(masks, dtype=np.int64)[:, None] >> shifts) & 1
    for perm in itertools.permutations(range(n)):
        pmap = np.array([index[tuple(sorted((perm[u], perm[v])))]
                         for u, v in pairs], dtype=np.int64)
        yield (bits << pmap).sum(axis=1)


def canonical_masks(masks, n):
    """Minimum edge mask over all n! vertex relabelings, by brute force."""
    return functools.reduce(np.minimum, relabeled_masks(masks, n))


def orbit_sizes(masks, n):
    """The labeled graphs in each mask's isomorphism class, n!/|Aut|, with
    |Aut| the relabelings that fix the mask."""
    masks = np.asarray(masks, dtype=np.int64)
    fixed = sum(image == masks for image in relabeled_masks(masks, n))
    return math.factorial(n) // fixed


def prufer_tree_edges(seq, n):
    """Edge list of the labeled tree with the given Prufer sequence."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return edges


def all_labeled_trees(n):
    """Yield every labeled tree on n >= 2 vertices exactly once."""
    if n == 1:
        yield []
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_tree_edges(seq, n)


def bfs_distance_matrix(n, edges):
    """Plain list-based BFS distances, independent of the package internals."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [[inf] * n for _ in range(n)]
    for s in range(n):
        dist[s][s] = 0
        queue = [s]
        while queue:
            nxt = []
            for x in queue:
                for y in adj[x]:
                    if dist[s][y] == inf:
                        dist[s][y] = dist[s][x] + 1
                        nxt.append(y)
            queue = nxt
    return dist


def bound_formulas(n, edges, pairs=True):
    """Every bound of the battery on one connected graph, by bound id,
    each written from its formula over plain BFS distances in Python ints,
    Fractions and math.sqrt; None where the bound does not apply (n below
    its least vertex count, or a regular-only bound on a graph that is not
    transmission-regular). pairs=False leaves out L_N2, whose pair loop
    costs O(n^3) Python steps."""
    d = bfs_distance_matrix(n, edges)
    tr = [sum(row) for row in d]
    w = sum(tr) // 2
    t, big = min(tr), max(tr)
    dist2 = sum(x * x for row in d for x in row)
    tr2 = sum(x * x for x in tr)
    frob2 = tr2 + dist2  # ||L||_F^2 = ||Q||_F^2
    sdd = [sum(d[i][k] * tr[k] for k in range(n)) for i in range(n)]
    col2 = [sum(d[k][i] ** 2 for k in range(n)) for i in range(n)]
    regular = t == big

    def surd(lead, radicand):
        return float(lead) + math.sqrt(radicand)

    def quadratic(e):
        # the larger root of x^2 - (e - 1) x - 2 (e^2 + 2W - (n - 1) e)
        return (e - 1 + math.sqrt(
            (e - 1) ** 2 + 8 * (e * e + 2 * w - (n - 1) * e))) / 2
    i1 = max(tr[i] + math.sqrt((n - 1) * col2[i]) for i in range(n))
    ratio = ([tr[i] + Fraction(sdd[i], tr[i]) for i in range(n)]
             if n > 1 else [])
    root = [math.sqrt(2 * sdd[i] + 2 * tr[i] ** 2) for i in range(n)]
    out = {
        "L_I1": i1, "Q_I2": i1,
        "L_D1": 2 * w - n * (n - 2) if n >= 4 else None,
        "L_N1": sum(max(row) for row in d),
        "Q_TB_LO": 2 * t, "Q_TB_UP": 2 * big,
        "Q_I5": min(root), "Q_I6": max(root),
        "Q_CI5": quadratic(t), "Q_CS6": quadratic(big),
        "Q_CS7": surd(Fraction(2 * w, n), Fraction(n - 1, n) * (
            frob2 - Fraction(4 * w * w, n))),
    }
    out.update(dict.fromkeys(
        ("L_D2", "L_N3", "Q_I3", "Q_I4", "L_R1", "L_R2")
        + (("L_N2",) if pairs else ())))
    if n >= 2:
        out.update({
            "L_D2": surd(big, dist2 - Fraction(tr2, n)),
            "L_N3": surd(Fraction(2 * w, n - 1), Fraction(n - 2, n - 1) * (
                frob2 - Fraction(4 * w * w, n - 1))),
            "Q_I3": float(min(ratio)), "Q_I4": float(max(ratio)),
        })
        if pairs:
            out["L_N2"] = max(
                tr[i] + tr[j] + 2 * d[i][j] + sum(
                    abs(d[i][k] - d[j][k]) for k in range(n)
                    if k not in (i, j))
                for i in range(n) for j in range(i + 1, n)) / 2
        if regular:
            out["L_R1"] = surd(big, dist2 - big * big)
            out["L_R2"] = surd(Fraction(n * big, n - 1), Fraction(
                n - 2, n - 1) * (dist2 - Fraction(n * big * big, n - 1)))
    return out


def sample_connected_edges(n, count, seed):
    """Edge sets of the first count connected draws of a rejection sampler,
    one draw at a time: rng.getrandbits over the pairs (0,1), (0,2), ...,
    (n-2,n-1), bit k for pair k, kept when a plain BFS from vertex 0 reaches
    every vertex."""
    pairs = list(itertools.combinations(range(n), 2))
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        mask = rng.getrandbits(len(pairs))
        edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
        if inf not in bfs_distance_matrix(n, edges)[0]:
            found.append(frozenset(edges))
    return found


def brauer_shift_spectrum(l_mat, p):
    """Reference eigenvalues of l_mat + ones p^T via the general solver, or
    of each matrix of a (B, n, n) stack with its row of a (B, n) p."""
    b = (np.asarray(l_mat, dtype=float)
         + np.asarray(p, dtype=float)[..., None, :])
    return np.linalg.eigvals(b)


def soundness_identities(report, violations):
    """Proven identities of one graph's BoundReport, appended to violations
    as messages in check order; as in the sweep, they read its L and Q
    spectra, not its D spectrum."""
    dd = report.data
    n = dd.n
    tw = 2.0 * dd.wiener
    lq2 = dd.tr2 + dd.dist2  # ||L||_F^2 = ||Q||_F^2

    for vals, trace, frob2, name in (
            (report.spectrum_l, tw, lq2, "laplacian"),
            (report.spectrum_q, tw, lq2, "signless")):
        if abs(float(vals.sum()) - trace) > 1e-8 * (1.0 + abs(trace)):
            violations.append(f"{name} eigenvalue sum misses the trace")
        if abs(float((vals * vals).sum()) - frob2) > 1e-8 * (1.0 + frob2):
            violations.append(f"{name} eigenvalue square sum misses the norm")

    lvals = report.spectrum_l
    zero_slack = slack_for(math.sqrt(lq2))
    if abs(float(lvals[-1])) > zero_slack:
        violations.append("laplacian smallest eigenvalue is not zero")
    # every other laplacian eigenvalue is at least n
    for i in range(n - 1):
        if float(lvals[i]) < n - slack_for(n):
            violations.append(
                f"laplacian eigenvalue {i} below the vertex count")
            break

    if n > 2 and not check_han_multiplicity(report.spectrum_l, dd):
        violations.append("largest laplacian eigenvalue multiplicity escapes")

    # integer interval for the distance-weighted transmission sums
    t = int(dd.tr.min())
    big = int(dd.tr.max())
    w2 = 2 * dd.wiener
    for u in range(n):
        lo = w2 + (t - 1) * int(dd.tr[u]) - (n - 1) * t
        up = w2 + (big - 1) * int(dd.tr[u]) - (n - 1) * big
        s = int(dd.sdd[u])
        if not lo <= s <= up:
            violations.append(
                f"weighted transmission sum at vertex {u} escapes [{lo}, {up}]")
            break

    # row sums of q^2 against the closed form, exact integers, by explicit
    # matrix power
    q = report.operators[2]
    rows = (q @ q).sum(1)
    closed = 2 * dd.tr.astype(np.int64) ** 2 + 2 * dd.sdd
    if not np.array_equal(rows, closed):
        violations.append("squared signless row sums break the closed form")

    # quadratic row-sum sandwich for p(x) = x^2 - (t - 1) x at the radius
    rows_p = (q @ q - (t - 1) * q).sum(1).astype(np.float64)
    rq = report.radius_q
    value = rq * rq - (t - 1) * rq
    pad = slack_for(float(np.abs(rows_p).max()))
    if not rows_p.min() - pad <= value <= rows_p.max() + pad:
        violations.append("radius escapes the quadratic row-sum sandwich")


def per_graph_soundness(source):
    """The soundness sweep one graph at a time: compute_all_bounds and the
    identities on every graph, violations and errors sorted by graph6."""
    report = SoundnessReport()
    for g in source:
        try:
            analysis = compute_all_bounds(g)
        except TheoremViolationError as exc:
            report.violations.append((encode_graph6(g), str(exc)))
            report.graphs_checked += 1
            continue
        except (DisconnectedGraphError, GraphParseError,
                ConsistencyError) as exc:
            report.errors.append((encode_graph6(g), str(exc)))
            continue
        report.graphs_checked += 1
        found = []
        for entry in analysis.entries:
            if entry.applicable and not entry.satisfied:
                found.append(
                    f"{entry.bound_id.value} unsatisfied: value "
                    f"{entry.value!r} vs radius gap {entry.gap!r}")
        soundness_identities(analysis, found)
        for msg in found:
            report.violations.append((analysis.graph6, msg))
    report.violations.sort(key=lambda item: item[0])
    report.errors.sort(key=lambda item: item[0])
    return report
