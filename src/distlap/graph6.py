"""graph6 codec (offset-63 printable bytes, column-major upper triangle).

Decodes and encodes the standard format: one line per graph, an optional
``>>graph6<<`` prefix, a size header (1 byte for n <= 62, '~' + 3 bytes for
n <= 258047, '~~' + 6 bytes beyond), then ceil(C(n,2)/6) body bytes holding
the upper-triangle adjacency bits, most significant bit first, column by
column. Padding bits in the last body byte are ignored on decode and zero on
encode.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import GraphParseError
from .graphs import Graph

HEADER = ">>graph6<<"

# the six bits of each 6-bit value, most significant first
_BITS = tuple(tuple(v >> (5 - k) & 1 for k in range(6)) for v in range(64))
# byte b to its 6-bit value b - 63; the bytes outside 63..126 map above 63
_VALUE = bytes((b - 63) % 256 for b in range(256))
# a byte holding six bits at its top to their graph6 character
_PACKED_CHAR = bytes((b >> 2) + 63 for b in range(256))


def _pairs(n):
    """The pairs (i, j), i < j < n, in graph6 bit order: column by column."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


# the pairs of the one-byte sizes n <= 62 are kept, at most 62 tuples of at
# most 1,891 pairs; a larger n builds its pairs per line, as its body does
_short_pairs = functools.lru_cache(maxsize=None)(_pairs)


def _decode_bytes(s):
    """The 6-bit values of the characters of s, as bytes."""
    try:
        vals = s.encode("ascii").translate(_VALUE)
    except UnicodeEncodeError:
        vals = None
    if vals is None or (vals and max(vals) > 63):
        for i, c in enumerate(s):
            if not 0 <= ord(c) - 63 <= 63:
                raise GraphParseError(
                    f"invalid graph6 byte {c!r} at position {i}")
    return vals


def _read_n(vals):
    """Returns (n, index of first body byte)."""
    if not vals:
        raise GraphParseError("empty graph6 line")
    if vals[0] < 63:
        return vals[0], 1
    # extended sizes start with '~'
    if len(vals) < 2:
        raise GraphParseError("truncated graph6 size header")
    if vals[1] < 63:
        if len(vals) < 4:
            raise GraphParseError("truncated graph6 size header")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        return n, 4
    if len(vals) < 8:
        raise GraphParseError("truncated graph6 size header")
    n = 0
    for v in vals[2:8]:
        n = (n << 6) | v
    return n, 8


def _body(line):
    """The text of a graph6 line that is decoded: the line without its
    surrounding whitespace and one leading >>graph6<< prefix, empty on a
    blank or bare header line."""
    s = line.strip()
    return s[len(HEADER):] if s.startswith(HEADER) else s


def parse_graph6(line):
    """Decode one graph6-encoded graph into a Graph.

    Tolerates one leading >>graph6<< prefix and surrounding whitespace
    (_body). Raises GraphParseError on bad bytes, truncated or oversized
    body, or n = 0.
    """
    return _decode(_body(line))


def _decode(s):
    """The Graph of the body s of a graph6 line (see parse_graph6)."""
    vals = _decode_bytes(s)
    n, pos = _read_n(vals)
    if n == 0:
        raise GraphParseError("graph6 line encodes an empty graph (n = 0)")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = vals[pos:]
    if len(body) != need:
        raise GraphParseError(
            f"graph6 body has {len(body)} bytes, expected {need} for n={n}")
    # compress stops at the last pair, so padding bits are ignored
    bits = itertools.chain.from_iterable(map(_BITS.__getitem__, body))
    pairs = _short_pairs(n) if n <= 62 else _pairs(n)
    return Graph(n, frozenset(itertools.compress(pairs, bits)))


def _header(n):
    """The smallest graph6 size header of n vertices: 1, 4 or 8 bytes."""
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        head, shifts = "~", (12, 6, 0)
    else:
        head, shifts = "~~", (30, 24, 18, 12, 6, 0)
    return head + "".join(chr(((n >> s) & 63) + 63) for s in shifts)


def _lines(head, bits):
    """The graph6 line of each row of bits, a (B, M) boolean array of body
    bits in graph6 order with M a multiple of 6, behind the header head."""
    # packbits puts the six bits of a body byte at the top of a byte
    body = np.packbits(bits.reshape(len(bits), -1, 6), axis=-1)
    text = body.tobytes().translate(_PACKED_CHAR).decode("ascii")
    width = body.shape[1]
    return [head + text[k * width:(k + 1) * width] for k in range(len(bits))]


def encode_graph6(g):
    """Encode a Graph as a graph6 line (canonical smallest size header).
    Its edges are scattered into the body bits, so no (n, n) array is
    built."""
    n = g.n
    nbits = n * (n - 1) // 2
    bits = bytearray(nbits + -nbits % 6)
    for u, v in g.edges:
        # the trusting Graph constructor may hold a pair (i, j) as (j, i)
        i, j = (u, v) if u < v else (v, u)
        bits[j * (j - 1) // 2 + i] = 1
    return _lines(_header(n), np.frombuffer(bits, dtype=bool)[None])[0]


@functools.lru_cache(maxsize=64)
def _column_pairs(n):
    """The ends (j, i), i < j < n, of the graph6 body bits in their order,
    (0,1), (0,2), (1,2), (0,3), ...: the strict lower triangle row by row,
    as two read-only arrays. Cached per n, as a sweep asks once per chunk."""
    ends = np.tril_indices(n, -1)
    for a in ends:
        a.flags.writeable = False
    return ends


def _stack_lines(adj, n):
    """graph6 lines of the rows of a boolean adjacency stack, each written
    on its first n vertices."""
    j, i = _column_pairs(n)
    bits = np.zeros((len(adj), len(j) + -len(j) % 6), dtype=bool)
    bits[:, :len(j)] = adj[:, j, i]
    return _lines(_header(n), bits)


def encode_graph6_stack(adj, n=None):
    """The graph6 line of each row of a (B, N, N) boolean adjacency stack,
    in stack order: row b is written on its own n[b] vertices, and its
    vertices n[b]..N-1, isolated padding, are dropped (None stands for no
    padding). Rows are encoded by vertex count, one array pass per count.
    An empty stack, which a sweep passes for each chunk that lists no
    graph, costs nothing."""
    if not len(adj):
        return []
    sizes = {adj.shape[-1]} if n is None else set(n.tolist())
    if len(sizes) == 1:
        return _stack_lines(adj, sizes.pop())
    lines = [None] * len(adj)
    for k in sizes:
        rows = np.flatnonzero(n == k)
        for row, line in zip(rows.tolist(), _stack_lines(adj[rows], k)):
            lines[row] = line
    return lines


@functools.lru_cache(maxsize=64)
def _mask_tables(n):
    """(tables, base, size) of the edge masks on n vertices, n(n - 1)/2 <=
    63. A graph6 line on n vertices, its newline included, is size bytes,
    laid out in the little-endian bytes of a row of little-endian uint64
    words. tables[b, v] is the row of the bits of byte b of a mask, of
    value v, each at its place in the line's body bytes; base is the row of
    the header, 63 in each body byte and the newline; both are read-only.
    Each body byte of an OR of table rows is at most 63, so adding base
    carries into no other byte. Cached per n, as a sweep asks once per
    listing call: 6 KB at n = 7."""
    if n * (n - 1) // 2 > 63:
        raise ValueError(f"an int64 edge mask holds no graph on n={n}")
    # bit k of a mask is pair (i, j) k of the row-major upper triangle, and
    # body bit pos = j(j - 1)/2 + i: bit 5 - pos % 6 of line byte
    # 1 + pos // 6. place[k] is mask bit k alone as a line, and one table,
    # all 0, stands for the empty mask on one vertex
    i, j = np.triu_indices(n, 1)
    pos = j * (j - 1) // 2 + i
    size = 2 + -(-len(pos) // 6)
    place = np.zeros((-(-max(len(pos), 1) // 8) * 8, -(-size // 8) * 8),
                     dtype=np.uint8)
    place[np.arange(len(pos)), 1 + pos // 6] = 1 << 5 - pos % 6
    place = place.view("<u8").reshape(-1, 1, 8, place.shape[1] // 8)
    bits = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(bool)
    tables = np.bitwise_or.reduce(
        np.where(bits[..., None], place, np.uint64(0)), axis=2)
    line = np.zeros(place.shape[-1] * 8, dtype=np.uint8)
    line[0], line[1:size - 1], line[size - 1] = n + 63, 63, ord("\n")
    base = line.view("<u8")
    for a in (tables, base):
        a.flags.writeable = False
    return tables, base, size


def encode_graph6_masks(masks, n):
    """The graph6 line of each of an int array of edge masks on n vertices,
    n(n - 1)/2 <= 63, in order: bit k of a mask is pair k of (0,1), (0,2),
    ..., (n-2,n-1), as graphs orders its masks. Each byte of a mask is one
    lookup in its table of _mask_tables, and every line is written into
    one byte array, decoded once and split once, so no adjacency stack or
    Graph is built. No masks cost nothing."""
    if not len(masks):
        return []
    tables, base, size = _mask_tables(n)
    raw = np.ascontiguousarray(masks, dtype="<i8").view(np.uint8).reshape(
        -1, 8)
    lines = tables[0].take(raw[:, 0], axis=0)
    for b in range(1, len(tables)):
        lines |= tables[b].take(raw[:, b], axis=0)
    lines += base
    # the last newline is dropped, so that the split leaves no empty line
    return lines.view(np.uint8)[:, :size].tobytes()[:-1].decode(
        "ascii").split("\n")


def read_graph6_stream(lines):
    """Yield (lineno, Graph) from an iterable of graph6 lines.

    Each line is read as parse_graph6 reads it (_body), so a line is
    accepted here exactly when parse_graph6 accepts it, except that a
    blank or bare format-header line is skipped. Parse errors are re-raised
    with the stream line number attached.
    """
    for lineno, raw in enumerate(lines, start=1):
        s = _body(raw)
        if not s:
            continue
        try:
            yield lineno, _decode(s)
        except GraphParseError as exc:
            raise GraphParseError(str(exc), line=lineno) from None
