"""Connected simple graphs: parsing, distances, exhaustive enumeration.

Vertices are always 0..n-1 internally. Edge-list files may declare themselves
1-based in the header; the parser normalizes.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, GraphParseError


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    The plain constructor trusts its arguments (used by the enumerator on hot
    paths); use from_edges for validated construction.
    """

    n: int
    edges: frozenset

    @classmethod
    def from_edges(cls, n, edges):
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        seen = set()
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e} out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        return cls(n, frozenset(seen))

    @property
    def edge_count(self):
        return len(self.edges)

    def sorted_edges(self):
        return sorted(self.edges)


def _integer(token):
    """int of an optional '-' and ASCII digits, the format's one integer
    syntax; ValueError on more that int takes: '+1', '1_0', other digits."""
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(token)
    return int(token)


def parse_edge_list(text):
    """Parse the plain edge-list format into a Graph.

    First significant line is ``n`` optionally followed by ``0-based`` or
    ``1-based`` (default 0-based); every following line is ``u v``. ``#``
    starts a comment anywhere. Raises GraphParseError with the offending
    1-based line number on malformed input, out-of-range or repeated edges,
    and self-loops.
    """
    n = None
    base = 0
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            try:
                n = _integer(parts[0])
            except ValueError:
                raise GraphParseError(
                    f"expected vertex count, got {parts[0]!r}",
                    line=lineno) from None
            if n < 1:
                raise GraphParseError("vertex count must be positive", line=lineno)
            if len(parts) == 2:
                if parts[1] == "1-based":
                    base = 1
                elif parts[1] != "0-based":
                    raise GraphParseError(
                        f"unknown header flag {parts[1]!r} "
                        "(expected 0-based or 1-based)", line=lineno)
            elif len(parts) > 2:
                raise GraphParseError(
                    "header must be 'n' or 'n 0-based' or 'n 1-based'", line=lineno)
            continue
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u = _integer(parts[0]) - base
            v = _integer(parts[1]) - base
        except ValueError:
            raise GraphParseError(
                f"non-integer endpoint in {line!r}", line=lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(
                f"endpoint out of range in {line!r} "
                f"(n={n}, {base}-based labels)", line=lineno)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {parts[0]}", line=lineno)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphParseError(f"duplicate edge {line!r}", line=lineno)
        seen.add(key)
    if n is None:
        raise GraphParseError("no vertex count found")
    return Graph(n, frozenset(seen))


def format_edge_list(g, one_based=False):
    """Inverse of parse_edge_list (canonical sorted order)."""
    base = 1 if one_based else 0
    lines = [f"{g.n} {'1-based' if one_based else '0-based'}"]
    lines.extend(f"{u + base} {v + base}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


@dataclass
class DistanceData:
    """Distance matrices of a (B, N, N) stack of connected graphs plus
    derived vertex invariants, every field along the batch axis:

    n:      vertex count of each graph; graph b's vertices are 0..n[b]-1,
            and its vertices n[b]..N-1 are isolated padding, at distance 0
    dist:   shortest-path distances (int64)
    tr:     row sums of dist (transmissions)
    wiener: sum of dist over unordered pairs
    p:      row maxima of dist (eccentricities)
    sdd:    distance-weighted transmission sums, sdd[i] = sum_k dist[i,k]*tr[k]
    dsq:    column (and, as dist is symmetric, row) sums of dist^2
    q2:     row sums of Q^2, q2[i] = 2 (tr[i]^2 + sdd[i])
    dist2:  squared Frobenius norm of dist, the sum of dsq
    tr2:    sum of tr^2
    tmin:   smallest transmission of a real vertex
    tmax:   largest transmission
    regular: tmin == tmax, the graph is transmission-regular
    complete: dist2 == n(n - 1): every off-diagonal distance, each >= 1, is 1
    real:   True at each graph's real vertices, False at its padding

    Padding leaves every integer field exact: a padded vertex adds 0 to
    each sum, and its tr, p, sdd, dsq and q2 are 0. row(i) is graph i
    alone, trimmed to its own n: n x n dist, length-n fields, and Python
    int and bool scalars.
    """

    n: np.ndarray
    dist: np.ndarray
    tr: np.ndarray
    wiener: np.ndarray
    p: np.ndarray
    sdd: np.ndarray
    dsq: np.ndarray
    q2: np.ndarray
    dist2: np.ndarray
    tr2: np.ndarray
    tmin: np.ndarray
    tmax: np.ndarray
    regular: np.ndarray
    complete: np.ndarray
    real: np.ndarray

    def row(self, i):
        """Graph i of the batch as its own DistanceData."""
        k = int(self.n[i])
        return DistanceData(*[
            value[i].item() if value.ndim == 1 else value[i, :k]
            if value.ndim == 2 else value[i, :k, :k]
            for value in vars(self).values()])

    def take(self, keep):
        """The graphs of the batch where the boolean mask keep holds, as a
        batch."""
        rows = np.flatnonzero(keep)
        return DistanceData(**{name: value.take(rows, axis=0)
                               for name, value in vars(self).items()})

    def over_real(self, vals):
        """vals, one value per vertex of each graph, with every padded
        vertex's value replaced by vertex 0's, so that a min or max along
        the last axis runs over real vertices only."""
        return np.where(self.real, vals, vals[..., :1])


# The message of the DisconnectedGraphError of one graph and of a
# disconnected graph's entry in a sweep's error list
DISCONNECTED = "graph is disconnected (vertex 0 cannot reach every vertex)"


def too_sparse(g):
    """True if Graph g has fewer than the n - 1 edges that connect n
    vertices: it is disconnected, known without building its adjacency
    stack, whose memory grows with n^2."""
    return g.edge_count < g.n - 1


def batch_of_one(g):
    """The (1, n, n) distance stack of connected graph g. Raises
    DisconnectedGraphError if any pair is unreachable; a too_sparse graph
    raises it before its adjacency stack is allocated."""
    if too_sparse(g):
        raise DisconnectedGraphError(DISCONNECTED)
    connected, dist = connected_distances(adjacency_stack([g]))
    if not connected[0]:
        raise DisconnectedGraphError(DISCONNECTED)
    return dist


_INT64_MAX = np.iinfo(np.int64).max


def distance_data(dist, n=None):
    """DistanceData of a (B, N, N) int64 stack of distance matrices, every
    derived field computed along the leading batch axis. n holds each
    graph's vertex count, padded with isolated vertices up to N; None
    stands for no padding, every graph on N vertices."""
    size = dist.shape[-1]
    n = np.full(len(dist), size) if n is None else n
    real = np.arange(size) < n[:, None]
    # row sums as products with ones, cheaper than axis sums on small stacks
    ones = np.ones(size, dtype=dist.dtype)
    tr = dist @ ones
    sdd = (dist @ tr[..., None])[..., 0]
    dsq = (dist * dist) @ ones
    dist2 = dsq.sum(axis=-1)
    tmin = tr.min(axis=-1, where=real, initial=_INT64_MAX)
    # a padded vertex's transmission is 0, never above a real one's
    tmax = tr.max(axis=-1)
    return DistanceData(
        n=n, dist=dist, tr=tr, wiener=tr.sum(axis=-1) // 2,
        p=dist.max(axis=-1), sdd=sdd, dsq=dsq, q2=2 * (tr * tr + sdd),
        # sum_i (D tr)_i = sum_k tr_k^2, as D is symmetric
        dist2=dist2, tr2=sdd.sum(axis=-1), tmin=tmin, tmax=tmax,
        regular=tmin == tmax, complete=dist2 == n * (n - 1), real=real)


def adjacency_stack(graphs):
    """The (B, N, N) boolean adjacency stack of a list of graphs, N their
    largest n; each graph on fewer vertices is padded with isolated
    vertices."""
    n = max(g.n for g in graphs)
    counts = [len(g.edges) for g in graphs]
    ends = np.fromiter(
        itertools.chain.from_iterable(
            itertools.chain.from_iterable(g.edges for g in graphs)),
        dtype=np.int64, count=2 * sum(counts))
    owner = np.repeat(np.arange(len(graphs)), counts)
    adj = np.zeros((len(graphs), n, n), dtype=bool)
    adj[owner, ends[0::2], ends[1::2]] = True
    adj[owner, ends[1::2], ends[0::2]] = True
    return adj


@functools.lru_cache(maxsize=32)
def _pair_ends(n):
    """The ends of the pairs (0,1), (0,2), ..., (n-2,n-1) as two read-only
    arrays. Cached per n, as a sweep asks for them once per chunk; the
    cache holds the pairs of at most 32 sizes."""
    ends = np.triu_indices(n, 1)
    for a in ends:
        a.flags.writeable = False
    return ends


def adjacency_graphs(adj, n=None):
    """The Graphs of a (B, N, N) boolean adjacency stack, in stack order:
    graph b holds the pairs i < j set in adj[b], on its own n[b] vertices;
    its vertices n[b]..N-1 are isolated padding, which it drops (None
    stands for no padding). An empty stack, which a sweep passes for each
    chunk that lists no graph, costs nothing."""
    if not len(adj):
        return []
    size = adj.shape[-1]
    rows, cols = _pair_ends(size)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    sizes = itertools.repeat(size) if n is None else n.tolist()
    return [Graph(k, frozenset(itertools.compress(pairs, bits)))
            for k, bits in zip(sizes, adj[:, rows, cols].tolist())]


def _reach_levels(adj, n=None):
    """Reach doubling over a (B, N, N) boolean stack of graphs, directed or
    not: R_0 is adj with every vertex on its own diagonal, and R_{k+1} =
    R_k R_k reaches every pair that R_k reaches in two steps, so R_k holds
    the walks of length at most 2^k.

    n holds each graph's vertex count, padded with isolated vertices up to
    N; None stands for no padding. Returns (levels, degrees, complete): the
    list of boolean stacks R_0..R_K; the diagonal of each product R_k R_k
    that made R_{k+1} for k < K - 1, as a (B, N) float32 stack, which for
    an undirected graph is each vertex's degree in R_k, its own diagonal
    entry included; and a flag per graph that is True when R_K joins every
    ordered pair of distinct vertices of its own, so when it is (strongly)
    connected. The diagonal is set on every level, padding included, so a
    graph is complete at n^2 + N - n set entries, whatever adj holds on
    its diagonal. Stops once every graph is complete, which a connected
    graph is after at most ceil(log2(n - 1)) squarings, or once a squaring
    changes no graph, which leaves the rest disconnected.
    """
    size = adj.shape[-1]
    n = np.full(len(adj), size) if n is None else n
    full = n * n + size - n
    # no graph exceeds its full count, so the stack's total tells them all
    total = full.sum()
    levels = [adj.copy()]
    levels[0].reshape(-1, size * size)[:, ::size + 1] = True
    degrees = []
    reached = np.count_nonzero(levels[0])
    walks = None
    while reached < total:
        if walks is not None:
            # a copy, so that the product is freed; the last product's
            # degrees are never read
            degrees.append(walks.diagonal(0, -2, -1).copy())
        r = levels[-1].astype(np.float32)  # walk counts <= N stay exact
        walks = r @ r
        levels.append(walks > 0)
        # a level holds the one below, so a count that stops growing is a
        # level that squaring leaves as it is
        below, reached = reached, np.count_nonzero(levels[-1])
        if reached == below:
            levels.pop()
            if degrees:
                degrees.pop()
            return levels, degrees, (
                np.count_nonzero(levels[-1], axis=(1, 2)) == full)
    return levels, degrees, np.ones(len(adj), dtype=bool)


def connected_distances(adj, n=None):
    """Distances of the connected graphs of a (B, N, N) boolean adjacency
    stack.

    n holds each graph's vertex count, padded with isolated vertices up to
    N; None stands for no padding. Connectivity is judged over each graph's
    own vertices. Returns (connected, dist): a boolean flag per graph and
    the (C, N, N) int64 stack of the C connected graphs' distance matrices,
    in stack order, 0 at padding. A graph with fewer than n - 1 edges is
    disconnected and costs nothing more; a Graph is checked by too_sparse
    before its stack is built.

    One batched Seidel all-pairs algorithm at every N, O(N^3 log N) per
    graph (R. Seidel, "On the all-pairs-shortest-path problem in
    unweighted undirected graphs", J. Comput. Syst. Sci. 51, 1995). The
    reach levels R_0..R_K of _reach_levels tell the connected graphs, and
    only those go on. At the top, R_{K-1} has distance 1 on its edges and 2
    elsewhere, as its square R_K joins every pair: D = 2 R_K - R_{K-1} off
    the diagonal. Below, with T the distances of R_{k+1},
    D = 2T - [T R_k < T deg(R_k)], taken entrywise with deg(R_k) the
    degree of the column's vertex, the diagonal of the squaring that made
    R_{k+1}; the diagonal of R_k adds T to both sides, so it changes
    nothing. Every product is of integers at most N^2, exact in float64.
    The levels stay boolean, about K N^2 bytes for one graph, and each is
    copied to float64 only for its own product.
    """
    size = adj.shape[-1]
    n = np.full(len(adj), size) if n is None else n
    connected = adj.sum(axis=(1, 2)) >= 2 * (n - 1)
    if not connected.all():
        adj, n = adj[connected], n[connected]
    if not len(adj):
        return connected, np.zeros((0, size, size), dtype=np.int64)
    levels, degrees, complete = _reach_levels(adj, n)
    connected[connected] = complete
    if not complete.all():
        levels = [r[complete] for r in levels]
        degrees = [deg[complete] for deg in degrees]
    # R_{K-1}, or R_0 when R_0 is complete, is at distance 1 on its edges
    # and 2 elsewhere; the diagonal is 0
    below = levels[max(len(levels) - 2, 0)]
    dist = np.add(levels[-1], levels[-1] > below, dtype=np.float64)
    diagonal = dist.reshape(-1, size * size)[:, ::size + 1]
    diagonal[...] = 0
    for r, deg in zip(reversed(levels[:-2]), reversed(degrees)):
        # T R_k < T deg(R_k) entrywise is T (R_k - diag(deg(R_k))) < 0
        a = r.astype(np.float64)
        a.reshape(-1, size * size)[:, ::size + 1] -= deg
        less = dist @ a < 0
        dist *= 2
        dist -= less
    return connected, dist.astype(np.int64)


_ENUM_CAP = 7
# a component as a vertex bitmask: the narrowest unsigned dtype that holds
# one on _ENUM_CAP vertices, so raising the cap widens it, never overflows
_COMPONENT = np.min_scalar_type((1 << _ENUM_CAP) - 1)
# the class index of an edge mask, -1 at a disconnected one: int16 holds the
# 853 classes of connected graphs on _ENUM_CAP vertices
_CLASS = np.int16
# an orbit image of connected_classes, a sum of distinct powers of two below
# 2^P for the P pairs on _ENUM_CAP vertices: the narrowest float dtype whose
# significand holds every such integer exactly, so raising the cap widens
# it, never rounds
_ORBIT = next(t for t in (np.float32, np.float64)
              if _ENUM_CAP * (_ENUM_CAP - 1) // 2 <= np.finfo(t).nmant + 1)
# candidate edge masks behind each block of _connected_masks. Each block
# costs ~15 us of numpy calls whatever its size, so blocks are large; their
# temporaries, ~15 bytes per candidate, stay about 1 MB whatever n
_ENUM_CHUNK = 1 << 16
# candidate masks per slice that connected_classes filters against its class
# table at once. A slice taken before the minima found in it have written
# their orbits lets through masks that those orbits cover, each one a Python
# check, so slices stay small: 495 checks of the 1,069 candidates at n = 6
# and 2,042 of the 15,404 at n = 7, against 1,031 and 3,562 with slices of
# 1,024 and every candidate for one unsliced list
_ORBIT_SLICE = 256
# A chunk of graphs padded to N vertices holds at most SCAN_CHUNK graphs and
# SCAN_CELLS distance-matrix entries. Both are fixed, as they set the memory
# of a sweep.
SCAN_CHUNK = 256
SCAN_CELLS = SCAN_CHUNK * 8 * 8


def chunk_limit(n):
    """Graphs per chunk of a sweep over graphs on n vertices, or padded to
    n vertices; graphs with no vertex count as graphs on one."""
    return min(SCAN_CHUNK, max(1, SCAN_CELLS // max(n, 1) ** 2))


def _mask_stack(raw, n):
    """The (B, n, n) boolean adjacency stack of edge masks given as a (B, k)
    uint8 array of their little-endian bytes, bit i of a mask standing for
    pair i of _pair_ends(n)."""
    rows, cols = _pair_ends(n)
    bits = np.unpackbits(raw, axis=-1, count=len(rows),
                         bitorder="little").astype(bool)
    adj = np.zeros((len(raw), n, n), dtype=bool)
    adj[:, rows, cols] = bits
    adj[:, cols, rows] = bits
    return adj


def _int64_stack(masks, n):
    """_mask_stack of an int64 array of edge masks."""
    return _mask_stack(masks.astype("<i8").view(np.uint8).reshape(-1, 8), n)


def _component_table(n):
    """The components of every graph on n vertices as an (n, 2^P) table of
    vertex bitmasks: column mask lists, one per slot, the components of the
    graph with that edge mask, 0 in an empty slot.

    In _pair_ends order a mask on m vertices is x | r << (m - 1): bit j of
    x is the pair (0, j + 1), and r is the mask of the graph on vertices
    1..m-1, whose vertex j is vertex j + 1 here. So the components are
    those of r shifted up one vertex, with each one that x touches merged
    into vertex 0's. The table for m follows from the one for m - 1, its
    columns in row-major order over (r, x), which is ascending mask order.
    """
    comps = np.zeros((0, 1), dtype=_COMPONENT)
    for m in range(1, n + 1):
        r = comps[..., None]
        touched = (r & np.arange(1 << m - 1, dtype=_COMPONENT)) != 0
        merged = np.bitwise_or.reduce(r * touched, axis=0, initial=0)
        comps = np.concatenate(
            ((merged << 1 | 1)[None], (r * ~touched) << 1)).reshape(m, -1)
    return comps


def _joined(comps, n):
    """Flags over (r, x) in row-major order, x < 2^(n - 1) and r each
    column of comps, k columns of _component_table(n - 1): True where the
    mask x | r << (n - 1), split as in _component_table, is connected, as
    x touches every component of r."""
    x = np.arange(1 << n - 1, dtype=_COMPONENT)
    # hits[c, x]: x touches the component c, or the slot is empty (c = 0)
    hits = ((x[:, None] & x) != 0) | (x[:, None] == 0)
    return np.logical_and.reduce(hits[comps])


def _connected_masks(n):
    """Edge masks of the connected labeled graphs on n vertices, ascending,
    as one array per block of at most _ENUM_CHUNK candidate masks.

    The _joined flags over (r, x) in row-major order ascend with the mask,
    so each block of whole rows of r yields its connected masks in order,
    with no BFS and no adjacency stack."""
    comps = _component_table(n - 1)
    rows = max(1, _ENUM_CHUNK >> n - 1)
    for start in range(0, comps.shape[1], rows):
        connected = _joined(comps[:, start:start + rows], n)
        yield np.flatnonzero(connected) + (start << n - 1)


def _pair_maps(perms, n):
    """The pair maps of a (k, n) array of permutations of range(n): row p
    sends pair i of _pair_ends(n) to the index of its image under perms[p]."""
    rows, cols = _pair_ends(n)
    index = np.zeros((n, n), dtype=np.int64)
    index[rows, cols] = index[cols, rows] = np.arange(len(rows))
    return index[perms[:, rows], perms[:, cols]]


def _transposition_minimal(m):
    """The edge masks on m vertices, ascending, that are no larger than
    their image under each of the C(m, 2) transpositions of two vertices.

    Built up from k = 2 vertices, a mask on k vertices split as
    x | r << (k - 1), as in _component_table. A transposition that fixes
    vertex 0 maps x and r each into its own part and leaves r dominant, so
    the r of a kept mask is kept on k - 1 vertices: only those r are
    extended, by every x. Transposition t swaps the ends of pair t, and
    each image is an _ORBIT product, exact as in connected_classes."""
    kept = np.zeros(1, dtype=np.int64)
    for k in range(2, m + 1):
        masks = (kept[:, None] << k - 1 | np.arange(1 << k - 1)).ravel()
        a, b = _pair_ends(k)
        swaps = np.tile(np.arange(k), (len(a), 1))
        t = np.arange(len(a))
        swaps[t, a], swaps[t, b] = b, a
        images = (1 << _pair_maps(swaps, k)).astype(_ORBIT)
        bits = ((masks[:, None] >> t) & 1).astype(_ORBIT)
        kept = masks[(bits @ images.T >= masks[:, None]).all(axis=-1)]
    return kept


def _class_candidates(n):
    """The connected edge masks x | r << (n - 1) on n vertices, ascending,
    whose top part r, split as in _component_table, is
    _transposition_minimal: those that connected_classes sweeps."""
    tops = _transposition_minimal(n - 1)
    r, x = np.nonzero(_joined(_component_table(n - 1)[:, tops], n))
    return tops[r] << n - 1 | x


def _relabelings(n):
    """The (n!, P) table of vertex relabelings on n vertices as pair maps:
    row p sends pair i of _pair_ends(n) to the index of its image under
    the p-th permutation of range(n) in lexicographic order, the order of
    itertools.permutations.

    The permutations are built up from m = 1 as one array: those of
    range(m) that start with f are f followed by those of range(m - 1),
    each value v >= f raised by one, which keeps their order."""
    perms = np.zeros((1, 0), dtype=np.int64)
    for m in range(1, n + 1):
        first = np.repeat(np.arange(m), len(perms))
        rest = np.tile(perms, (m, 1))
        rest += rest >= first[:, None]
        perms = np.column_stack((first, rest))
    return _pair_maps(perms, n)


@dataclass(frozen=True, eq=False)
class ConnectedClasses:
    """The isomorphism classes of the connected labeled graphs on n
    vertices, from one orbit sweep (connected_classes).

    minima: int64, the smallest edge mask of each class, ascending; class
            k is the class of the k-th minimum
    table:  _CLASS, the class of each of the 2^P edge masks on n vertices,
            -1 at a disconnected mask
    images: _ORBIT, the (n!, P) orbit images: row p holds 2^(image of pair
            i under the p-th relabeling) in column i, so images @ bits(m)
            is the orbit of edge mask m, each member once per automorphism
    """

    n: int
    minima: np.ndarray
    table: np.ndarray
    images: np.ndarray

    def weights(self):
        """The labeled graphs in each class, its orbit size n!/|Aut|, as
        int64 in class order."""
        # shifted by one, so disconnected masks count in a bin dropped
        return np.bincount(self.table + 1,
                           minlength=len(self.minima) + 1)[1:]

    def stacks(self):
        """The class minima as (B, n, n) boolean adjacency stacks of
        chunk_limit(n) graphs (the last one may hold fewer), in class
        order."""
        size = chunk_limit(self.n)
        for start in range(0, len(self.minima), size):
            yield _int64_stack(self.minima[start:start + size], self.n)

    def members(self, classes):
        """Every labeled graph of each class of classes, a non-empty
        ascending int array of class indices, as one (k, n, n) boolean
        adjacency stack per class in ascending mask order.

        A class's members are the orbit of its minimum, one matvec of the
        images each, sorted with its repeats dropped; the table is not
        read."""
        shifts = np.arange(self.images.shape[1], dtype=np.int64)
        bits = ((self.minima[classes, None] >> shifts) & 1).astype(_ORBIT)
        # one matvec per class: a threaded BLAS took ~100x longer on the one
        # product of 38 classes at n = 7 than one thread did
        orbits = np.sort(np.array([self.images @ b for b in bits]).astype(
            np.int64), axis=-1)
        # repeats dropped by hand: np.unique per class was ~10x slower
        first = np.ones(orbits.shape, dtype=bool)
        np.not_equal(orbits[:, 1:], orbits[:, :-1], out=first[:, 1:])
        return np.split(_int64_stack(orbits[first], self.n),
                        np.cumsum(first.sum(axis=-1))[:-1])


def _check_enumerable(n):
    """Raise ValueError unless exhaustive enumeration covers n."""
    if not 1 <= n <= _ENUM_CAP:
        raise ValueError(
            f"exhaustive enumeration is capped at n <= {_ENUM_CAP} (got n={n}); "
            "use a graph6 stream for larger graphs")


def connected_classes(n):
    """The ConnectedClasses of the connected labeled graphs on n vertices,
    1 <= n <= 7, by an orbit sweep over the ascending candidate masks of
    _class_candidates(n).

    A candidate is a connected mask x | r << (n - 1), split as in
    _component_table, whose top part r, the graph on vertices 1..n-1, is no
    larger than its image under each transposition of two of them. Every
    class minimum is one: a relabeling of vertices 1..n-1 alone maps x and
    r each into its own part and leaves r dominant, so a minimum's r is the
    minimum of its own class on n - 1 vertices (the rule of orderly
    generation: R. C. Read, "Every one a winner", Ann. Discrete Math. 2,
    1978; B. D. McKay, "Isomorph-free exhaustive generation", J.
    Algorithms 26, 1998). 43 of the 1,024 top parts pass at n = 6, giving
    1,069 candidates of the 26,704 connected masks; 276 of 32,768 pass at
    n = 7, giving 15,404 of 1,866,256.

    So the first candidate of a class that the sweep meets is its minimum.
    That minimum writes its class index over its whole orbit, n!
    relabelings per class, so each later member is skipped: 2^P _CLASS
    entries, 4 MB at n = 7. The orbit is one matvec of the (n!, P) images
    2^(image of pair i) with the minimum's bits, both _ORBIT, which is
    float32 for _ENUM_CAP = 7: each sum is of distinct powers of two below
    2^P <= 2^21, an integer that float32, exact below 2^24, holds exactly,
    and its table is half the bytes of a float64 one to read per class.
    The images stay on the result, for members: 43 KB at n = 6, 423 KB at
    n = 7."""
    _check_enumerable(n)
    images = (1 << _relabelings(n)).astype(_ORBIT)
    shifts = np.arange(images.shape[1], dtype=np.int64)
    table = np.full(1 << images.shape[1], -1, dtype=_CLASS)
    # reads each entry as a Python int, faster than a numpy scalar
    entry = memoryview(table)
    minima = []
    candidates = _class_candidates(n)
    for start in range(0, len(candidates), _ORBIT_SLICE):
        masks = candidates[start:start + _ORBIT_SLICE]
        masks = masks[table[masks] < 0]
        bits = ((masks[:, None] >> shifts) & 1).astype(_ORBIT)
        # a minimum found earlier in this slice may cover a later mask
        for m, b in zip(masks.tolist(), bits):
            if entry[m] < 0:
                table[(images @ b).astype(np.int64)] = len(minima)
                minima.append(m)
    return ConnectedClasses(
        n, np.array(minima, dtype=np.int64), table, images)


def connected_stacks(n):
    """Yield every connected labeled graph on n vertices, 1 <= n <= 7, as
    (B, n, n) boolean adjacency stacks of chunk_limit(n) graphs (the last
    one may hold fewer).

    Deterministic: ascending edge-bitmask order over the pair sequence
    (0,1), (0,2), ..., (n-2,n-1). The connected masks are read off a table
    of the components of every graph on n - 1 vertices, with no BFS; only
    the masks kept become adjacency stacks. One graph per isomorphism
    class, the one with the smallest bitmask over all vertex relabelings,
    is connected_classes(n).stacks(). Beyond n = 7 the labeled space is
    too large; feed a graph6 stream instead.
    """
    _check_enumerable(n)
    size = chunk_limit(n)
    held = np.zeros(0, dtype=np.int64)
    for masks in _connected_masks(n):
        held = np.concatenate((held, masks))
        while len(held) >= size:
            yield _int64_stack(held[:size], n)
            held = held[size:]
    if len(held):
        yield _int64_stack(held, n)


def enumerate_connected(n):
    """Yield the graphs of connected_stacks(n) one Graph at a time, in the
    same order."""
    for adj in connected_stacks(n):
        yield from adjacency_graphs(adj)


def sample_connected(n, count, seed):
    """Uniform connected labeled graphs by rejection sampling (with replacement).

    Deterministic for a fixed seed: each draw is rng.getrandbits over the
    n(n-1)/2 pairs of connected_stacks, bit i for pair i, and the connected
    draws are kept in draw order. Draws run in blocks of chunk_limit(n),
    filtered as one adjacency stack by the reach doubling of
    connected_distances, with no distances. Yields exactly count graphs.
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    npairs = n * (n - 1) // 2
    width = (npairs + 7) // 8
    size = chunk_limit(n)
    rng = random.Random(seed)
    while count:
        raw = b"".join(rng.getrandbits(npairs).to_bytes(width, "little")
                       for _ in range(size))
        adj = _mask_stack(
            np.frombuffer(raw, dtype=np.uint8).reshape(size, width), n)
        graphs = adjacency_graphs(
            adj[_reach_levels(adj)[2]])[:count]
        count -= len(graphs)
        yield from graphs
