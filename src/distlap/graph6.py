"""graph6 codec (offset-63 printable bytes, column-major upper triangle).

Decodes and encodes the standard format: one line per graph, an optional
``>>graph6<<`` prefix, a size header (1 byte for n <= 62, '~' + 3 bytes for
n <= 258047, '~~' + 6 bytes beyond), then ceil(C(n,2)/6) body bytes holding
the upper-triangle adjacency bits, most significant bit first, column by
column. Padding bits in the last body byte are ignored on decode and zero on
encode.
"""

from __future__ import annotations

from .errors import GraphParseError
from .graphs import Graph

HEADER = ">>graph6<<"


def _decode_bytes(s):
    vals = []
    for i, c in enumerate(s):
        v = ord(c) - 63
        if not 0 <= v <= 63:
            raise GraphParseError(f"invalid graph6 byte {c!r} at position {i}")
        vals.append(v)
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
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (body[k // 6] >> (5 - k % 6)) & 1:
                edges.append((i, j))
            k += 1
    return Graph(n, frozenset(edges))


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
    # the trusting Graph constructor may hold a pair (i, j) as (j, i)
    edges = {(u, v) if u < v else (v, u) for u, v in g.edges}
    out = []
    acc = 0
    count = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((i, j) in edges)
            count += 1
            if count == 6:
                out.append(chr(acc + 63))
                acc = 0
                count = 0
    if count:
        acc <<= 6 - count
        out.append(chr(acc + 63))
    return head + "".join(out)


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
