"""Finite simple connected graphs with indexed edges and edge-subset bookkeeping.

Vertices are labelled 1..k.  Edges are stored in construction order and all
edge-indexed vectors elsewhere in the package use this order.  Edge subsets
are plain int bitmasks over edge indices; exhaustive subset enumeration is
capped at |E| <= 24, and the region geometry's vertex-set enumeration at
k <= 24 (SUBSET_CAP).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import (
    DisconnectedGraph,
    DuplicateEdge,
    InvalidVertex,
    LoopEdge,
    SubsetCapExceeded,
    TooFewEdges,
)

SUBSET_CAP = 24


@dataclass(frozen=True)
class Graph:
    """Immutable simple connected graph on vertices 1..k.

    edges:      tuple of (u, v) pairs with u < v, in construction order.
    incidence:  per vertex (index v-1), ascending tuple of incident edge indices.
    """

    k: int
    edges: tuple[tuple[int, int], ...]
    incidence: tuple[tuple[int, ...], ...] = field(repr=False)

    def __post_init__(self):
        # the dataclass's hash, computed once: every cache keyed on a graph asks for it
        object.__setattr__(self, "_hash", hash((self.k, self.edges, self.incidence)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.incidence[v - 1])

    def vertex_mask(self, v: int) -> int:
        """Bitmask of the edges incident to v."""
        mask = 0
        for e in self.incidence[v - 1]:
            mask |= 1 << e
        return mask


def build_graph(k: int, pairs) -> Graph:
    """Validate and build a Graph from 1-based vertex pairs.

    Raises LoopEdge, DuplicateEdge, InvalidVertex, TooFewEdges or
    DisconnectedGraph when the input is not a simple connected graph
    with at least two edges.
    """
    edges = []
    seen = set()
    for pair in pairs:
        u, v = pair
        if not (1 <= u <= k and 1 <= v <= k):
            raise InvalidVertex(f"vertex pair {pair} out of range 1..{k}")
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise DuplicateEdge(f"repeated edge {{{u},{v}}}")
        seen.add((u, v))
        edges.append((u, v))

    if len(edges) < 2:
        raise TooFewEdges(f"need at least 2 edges, got {len(edges)}")

    incidence: list[list[int]] = [[] for _ in range(k)]
    for i, (u, v) in enumerate(edges):
        incidence[u - 1].append(i)
        incidence[v - 1].append(i)

    _check_connected(k, edges)
    return Graph(k=k, edges=tuple(edges), incidence=tuple(tuple(ix) for ix in incidence))


def _check_connected(k: int, edges) -> None:
    adj: list[list[int]] = [[] for _ in range(k + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != k:
        missing = sorted(set(range(1, k + 1)) - seen)
        raise DisconnectedGraph(f"vertices {missing} unreachable from vertex 1")


def full_degree_count(g: Graph, subset: int) -> int:
    """Number of vertices whose every incident edge lies in the subset."""
    return sum(1 for v in range(1, g.k + 1) if g.vertex_mask(v) & ~subset == 0)


def proper_subsets(g: Graph) -> Iterator[int]:
    """All 2^|E|-2 proper non-empty edge subsets, ascending bitmask order."""
    if g.m > SUBSET_CAP:
        raise SubsetCapExceeded(f"|E|={g.m} exceeds enumeration cap {SUBSET_CAP}")
    return iter(range(1, (1 << g.m) - 1))


def subset_members(subset: int, m: int) -> list[int]:
    return [i for i in range(m) if subset & (1 << i)]


def subset_size(subset: int) -> int:
    return bin(subset).count("1")


# --- text format -----------------------------------------------------------
#
# Line 1: `vertices <k>`; then one `<u> <v>` pair per line, 1-based.
# Lines whose first non-blank character is `#` are comments; blank lines are
# skipped.


def parse_graph_text(text: str) -> Graph:
    lines = []
    for raw in text.splitlines():
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        lines.append(s)
    if not lines:
        raise InvalidVertex("empty graph description")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "vertices":
        raise InvalidVertex(f"expected 'vertices <k>' header, got {lines[0]!r}")
    try:
        k = int(head[1])
    except ValueError:
        raise InvalidVertex(f"bad vertex count {head[1]!r}") from None
    pairs = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InvalidVertex(f"expected '<u> <v>', got {line!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InvalidVertex(f"non-integer vertex in {line!r}") from None
    return build_graph(k, pairs)


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def format_graph_text(g: Graph) -> str:
    lines = [f"vertices {g.k}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


# --- common test graphs ----------------------------------------------------


def path_graph(k: int) -> Graph:
    return build_graph(k, [(i, i + 1) for i in range(1, k)])


def cycle_graph(k: int) -> Graph:
    return build_graph(k, [(i, i + 1) for i in range(1, k)] + [(1, k)])


def star_graph(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


def complete_graph(k: int) -> Graph:
    return build_graph(k, [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)])
