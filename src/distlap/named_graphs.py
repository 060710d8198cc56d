"""Built-in graph families and the shipped example fixtures."""

from __future__ import annotations

import functools
import re
from importlib import resources

from .errors import GraphParseError
from .graphs import Graph, parse_edge_list

FIXTURES = ("ex1", "ex2", "g1", "g2", "g3")


def complete_graph(n):
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Graph(n, frozenset(
        (i, j) for i in range(n) for j in range(i + 1, n)))


def path_graph(n):
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n):
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((0, n - 1))
    return Graph(n, frozenset(edges))


def star_graph(n):
    """Star on n vertices: center 0 joined to everything else."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Graph(n, frozenset((0, i) for i in range(1, n)))


def fixture_text(name):
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}, have {FIXTURES}")
    return resources.files("distlap").joinpath(
        "data", f"{name}.edges").read_text(encoding="utf-8")


@functools.cache
def fixture_graph(name):
    """The Graph of a shipped fixture, parsed once per name. A Graph is
    immutable, so every caller can share it."""
    return parse_edge_list(fixture_text(name))


_BUILTIN = re.compile(r"^([KPCS])([0-9]+)$")


def builtin_graph(name):
    """Resolve K<n>, P<n>, C<n>, S<n> shorthand; None if it is not one.
    Raises GraphParseError for a size the family does not have, like K0."""
    m = _BUILTIN.match(name.strip())
    if not m:
        return None
    kind, n = m.group(1), int(m.group(2))
    maker = {"K": complete_graph, "P": path_graph,
             "C": cycle_graph, "S": star_graph}[kind]
    try:
        return maker(n)
    except ValueError as exc:
        raise GraphParseError(f"{name.strip()}: {exc}") from None
