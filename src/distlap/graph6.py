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

from .errors import GraphParseError
from .graphs import Graph

HEADER = ">>graph6<<"

# the six bits of each 6-bit value, most significant first
_BITS = tuple(tuple(v >> (5 - k) & 1 for k in range(6)) for v in range(64))
_CHAR = {bits: chr(v + 63) for v, bits in enumerate(_BITS)}
# byte b to its 6-bit value b - 63; the bytes outside 63..126 map above 63
_VALUE = bytes((b - 63) % 256 for b in range(256))


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


def parse_graph6(line):
    """Decode one graph6-encoded graph into a Graph.

    Tolerates a leading >>graph6<< prefix and surrounding whitespace. Raises
    GraphParseError on bad bytes, truncated or oversized body, or n = 0.
    """
    s = line.strip()
    if s.startswith(HEADER):
        s = s[len(HEADER):]
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


def encode_graph6(g):
    """Encode a Graph as a graph6 line (canonical smallest size header)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(
            chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        head = "~~" + "".join(
            chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    nbits = n * (n - 1) // 2
    bits = bytearray(nbits + -nbits % 6)
    for u, v in g.edges:
        # the trusting Graph constructor may hold a pair (i, j) as (j, i)
        i, j = (u, v) if u < v else (v, u)
        bits[j * (j - 1) // 2 + i] = 1
    return head + "".join(map(_CHAR.__getitem__, zip(*[iter(bits)] * 6)))


def read_graph6_stream(lines):
    """Yield (lineno, Graph) from an iterable of graph6 lines.

    Blank lines and bare format-header lines are skipped; a header prefix glued
    to the first graph is handled by parse_graph6. Parse errors are re-raised
    with the stream line number attached.
    """
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if s.startswith(HEADER):
            s = s[len(HEADER):].strip()
        if not s:
            continue
        try:
            yield lineno, parse_graph6(s)
        except GraphParseError as exc:
            raise GraphParseError(str(exc), line=lineno) from None
