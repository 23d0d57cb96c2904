"""Convex geometry of the game: reachable-region membership, face functionals,
boundary distances, ray exits, and flow-decomposed move kernels.

Points live in the edge simplex (non-negative entries, unit sum, one entry per
edge in graph edge order).  Every proper non-empty edge subset F induces a
linear constraint

    slack(F, x) = sum_{e in F} x_e  -  (weight of vertices fully inside F)

with uniform vertex weight 1/k by default.  A point is interior-reachable when
all slacks are positive, on the region boundary when the minimum slack is zero,
and inaccessible when some slack is negative.  The region queries search a
Hall-type family of at most |E| + 2^k of these constraints (the single edges
and the edge sets incident to a vertex set), which decides them for points
with non-negative entries; `all_slacks` keeps the full enumeration.
Membership can be certified independently by a max-flow computation on a
small auxiliary network, which also produces a per-vertex randomized move
kernel realizing the point as a mean displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import NoExit, OutsideSimplex, SubsetCapExceeded
from .graph import SUBSET_CAP, Graph, full_degree_count, subset_members, subset_size

TOL = 1e-9
_FLOW_EPS = 1e-12


class RegionKind(Enum):
    INTERIOR_REACHABLE = "InteriorReachable"
    BOUNDARY_K = "BoundaryK"
    INACCESSIBLE = "Inaccessible"
    OUTSIDE_SIMPLEX = "OutsideSimplex"


@dataclass(frozen=True)
class RegionClass:
    """Classification of a simplex point, with the minimizing constraint."""

    kind: RegionKind
    subset: int | None
    slack: float | None

    def to_json(self, m: int) -> dict:
        return {
            "class": self.kind.value,
            "subset": None if self.subset is None else subset_members(self.subset, m),
            "slack": self.slack,
        }


@dataclass(frozen=True)
class MoveKernel:
    """Per-vertex edge distributions whose mean displacement is the point
    they were built for.

    q[v-1, e] is the probability of choosing edge e when vertex v is drawn;
    rows sum to 1, entries vanish off the vertex's incident edges, and
    weights @ q equals that point.
    """

    q: np.ndarray
    weights: np.ndarray


def uniform_weights(k: int) -> np.ndarray:
    return np.full(k, 1.0 / k)


def check_weights(g: Graph, weights) -> np.ndarray:
    if weights is None:
        return uniform_weights(g.k)
    w = np.asarray(weights, dtype=float)
    if w.shape != (g.k,):
        raise OutsideSimplex(f"expected {g.k} vertex weights, got shape {w.shape}")
    # a NaN or infinite entry makes the sum NaN or infinite, which fails `<=`
    if np.any(w <= 0) or not abs(w.sum() - 1.0) <= TOL:
        raise OutsideSimplex("vertex weights must be positive and sum to 1")
    return w


def check_simplex(g: Graph, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (g.m,):
        raise OutsideSimplex(f"expected {g.m} entries, got shape {x.shape}")
    # the array methods, not np.any and x.sum: their Python wrappers cost more
    # than the check itself on a short point
    if (x < -TOL).any():
        raise OutsideSimplex(f"negative entry {x.min()}")
    total = np.add.reduce(x)
    # a NaN or infinite entry makes the sum NaN or infinite, which fails `<=`
    if not abs(total - 1.0) <= TOL:
        raise OutsideSimplex(f"entries sum to {total}, not 1")
    return x


# --- subset machinery -------------------------------------------------------


def _subset_sums(v) -> np.ndarray:
    """s[F] = sum of v_e over the edges e of F, for every mask F = 0..2^m-1.

    Built by m doubling steps s[2^i:2^(i+1)] = s[:2^i] + v_i, so each sum is
    added up elementwise in increasing edge order.  Raises SubsetCapExceeded
    when m > 24, before anything of size 2^m is allocated.
    """
    v = np.asarray(v)
    if len(v) > SUBSET_CAP:
        raise SubsetCapExceeded(f"|E|={len(v)} exceeds enumeration cap {SUBSET_CAP}")
    s = np.empty(1 << len(v), dtype=v.dtype)
    s[0] = 0
    h = 1
    for vi in v.tolist():
        np.add(s[:h], vi, s[h : 2 * h])
        h *= 2
    return s


@lru_cache(maxsize=4)
def _full_weight(g: Graph, w: tuple) -> np.ndarray:
    """d[F] = weight of the vertices whose incident edges all lie in F, for
    every mask F: each w_v is added over the supersets of v's edge mask, in
    vertex order.  At most 4 vectors of 2^m floats are kept."""
    d = np.zeros(1 << g.m)
    cube = d.reshape((2,) * g.m)  # axis j is the bit of edge m-1-j
    for v, wv in enumerate(w, start=1):
        inc = g.vertex_mask(v)
        cube[tuple(1 if inc >> e & 1 else slice(None) for e in reversed(range(g.m)))] += wv
    d.flags.writeable = False
    return d


# The vertex-set family's arrays stay below this many bytes, as the fold's do
# at the 24-edge cap.
FAMILY_BYTES = 1 << 29


@dataclass(frozen=True, eq=False)
class _Constraints:
    """The edge subsets a region query minimises over, in ascending bitmask
    order, with the full-degree weight d of each (added in vertex order).

    Either every proper non-empty subset (`masks is None`; sums from the
    doubling fold), or the vertex-set (Hall) family: the single edges and
    the sets E(S) != E of edges incident to a vertex set S.  For x >= 0 the
    least slack over the family is the least over all subsets, and the
    first subset in bitmask order to attain it is in the family: the
    non-full edges of a subset can be dropped without raising its slack.
    """

    d: np.ndarray
    masks: tuple[int, ...] | None = None
    rows: np.ndarray | None = None  # (c, m) bool membership
    idx: np.ndarray | None = None  # (L, c) member edges ascending, padded with m
    # the E(S) rows, led by the empty set, for boundary_distance
    cover_masks: tuple[int, ...] | None = None
    uncover: np.ndarray | None = None  # (s, m) bool: edge not in the row
    cover_x: np.ndarray | None = None  # (s, m) 1.0 where the edge is in the row
    cover_d: np.ndarray | None = None
    cover_size: np.ndarray | None = None

    @property
    def exhaustive(self) -> bool:
        return self.masks is None

    def mask(self, i: int) -> int:
        return i + 1 if self.masks is None else self.masks[i]

    def sums(self, v: np.ndarray) -> np.ndarray:
        """The sum of v over each constraint's edges, added up in increasing
        edge order (the fold's order), in a new array."""
        if self.masks is None:
            return _subset_sums(v)[1:-1]
        # a reduce along the outer axis adds row by row, i.e. in edge order;
        # the padding index m reads an appended 0.0
        return np.add.reduce(np.concatenate((v, _PAD))[self.idx], axis=0)

    def slacks(self, v: np.ndarray) -> np.ndarray:
        """Each constraint's slack at v, in a new array."""
        s = self.sums(v)
        s -= self.d
        return s

    def row_slacks(self, rows: np.ndarray) -> np.ndarray:
        """slacks(x) for each row x of an (R, m) array, as an (R, c) array,
        bit for bit; vertex-set family only.  The gather puts the runs on the
        innermost axis, so the reduce adds in edge order as `sums` does."""
        padded = np.concatenate((rows, np.zeros((len(rows), 1))), axis=1).T
        s = np.add.reduce(padded[self.idx], axis=0)
        s -= self.d[:, None]
        return s.T


_PAD = np.zeros(1)


def _family_bytes(k: int, m: int) -> int:
    """Bound on the bytes of a vertex-set family: the 2^k masks of the build
    and the sort's copies, and per candidate its arrays, its mask and the
    per-call gathers and boundary-distance temporaries."""
    words = -(-m // 64)
    candidates = min((1 << k) - 1 + m, (1 << m) - 2)
    return max((24 * words) << k, (80 * m + 64) * candidates)


@lru_cache(maxsize=4)
def _constraints(g: Graph, w: tuple, exhaustive: bool = False) -> _Constraints:
    """The constraints of graph g under law w: the vertex-set family when
    k <= 24 and its arrays fit FAMILY_BYTES, else (or when `exhaustive`)
    every proper subset when m <= 24.  Raises SubsetCapExceeded, before
    allocating, when neither fits."""
    if not exhaustive and g.k <= SUBSET_CAP and _family_bytes(g.k, g.m) <= FAMILY_BYTES:
        return _vertex_set_family(g, w)
    if g.m > SUBSET_CAP:
        raise SubsetCapExceeded(
            f"|V|={g.k}, |E|={g.m}: the region constraints exceed the enumeration cap "
            f"{SUBSET_CAP} or {FAMILY_BYTES} bytes"
        )
    return _Constraints(d=_full_weight(g, w)[1:-1])


def _vertex_set_family(g: Graph, w: tuple) -> _Constraints:
    k, m = g.k, g.m
    nw = -(-m // 64)  # 64-bit words per mask, most significant first
    word = [nw - 1 - e // 64 for e in range(m)]
    shift = np.array([e % 64 for e in range(m)], dtype=np.uint64)
    one = np.zeros((m, nw), dtype=np.uint64)
    one[np.arange(m), word] = np.uint64(1) << shift
    # E(S) for every vertex set S, by doubling over the vertices
    es = np.zeros((1 << k, nw), dtype=np.uint64)
    h = 1
    for inc in g.incidence:
        np.bitwise_or(es[:h], np.bitwise_or.reduce(one[list(inc)]), out=es[h : 2 * h])
        h *= 2
    cand = np.concatenate([es[1:], one])
    del es
    cand = cand[(cand != np.bitwise_or.reduce(one)).any(axis=1)]  # E itself is no constraint
    words = np.unique(cand, axis=0)  # rows sorted word by word: ascending masks
    del cand
    rows = (words[:, word] >> shift & np.uint64(1)).astype(bool)
    masks = tuple(words[:, 0].tolist()) if nw == 1 else tuple(
        _mask(np.nonzero(row)[0].tolist()) for row in rows
    )
    del words
    d = np.zeros(len(rows))
    full = np.empty((len(rows), k), dtype=bool)
    incident = np.zeros((k, m), dtype=bool)
    for v, inc in enumerate(g.incidence):
        full[:, v] = rows[:, inc].all(axis=1)
        d += np.where(full[:, v], w[v], 0.0)  # vertex order, as in _full_weight
        incident[v, list(inc)] = True
    size = rows.sum(axis=1)
    idx = np.where(rows, np.arange(m), m)
    idx.sort(axis=1)
    idx = np.ascontiguousarray(idx[:, : size.max()].T)
    # E(S) rows: each edge has an endpoint whose edges all lie in the row
    star = ((full @ incident) | ~rows).all(axis=1)
    cover = np.concatenate([np.zeros((1, m), dtype=bool), rows[star]])
    c = _Constraints(
        d=d,
        masks=masks,
        rows=rows,
        idx=idx,
        cover_masks=(0,) + tuple(masks[i] for i in np.nonzero(star)[0].tolist()),
        uncover=~cover,
        cover_x=cover.astype(float),
        cover_d=np.concatenate([[0.0], d[star]]),
        cover_size=cover.sum(axis=1),
    )
    for a in (c.d, c.rows, c.idx, c.uncover, c.cover_x, c.cover_d, c.cover_size):
        a.flags.writeable = False  # shared through the cache
    return c


def _mask(edges) -> int:
    out = 0
    for e in edges:
        out |= 1 << e
    return out


@lru_cache(maxsize=16)
def _uniform_law(k: int) -> tuple:
    return tuple(uniform_weights(k).tolist())


def _law(g: Graph, weights) -> tuple:
    if weights is None:
        return _uniform_law(g.k)
    return tuple(check_weights(g, weights).tolist())


def slack(g: Graph, subset: int, x, weights=None) -> float:
    """Margin of one constraint: sum of x over the subset minus the full-degree
    weight, each added up in the fold's order."""
    x = np.asarray(x, dtype=float)
    return _fold_slack(g, subset, x.tolist(), check_weights(g, weights).tolist())


@lru_cache(maxsize=16)
def _vertex_masks(g: Graph) -> tuple[int, ...]:
    return tuple(g.vertex_mask(v) for v in range(1, g.k + 1))


def _fold_slack(g: Graph, subset: int, x: list, w) -> float:
    """slack() on Python floats: the edges in increasing order, then the
    full-degree weights in vertex order, each sum started at 0."""
    s = 0.0
    for e in subset_members(subset, g.m):
        s += x[e]
    d = 0.0
    for vm, wv in zip(_vertex_masks(g), w):
        if vm & ~subset == 0:
            d += wv
    return s - d


def all_slacks(g: Graph, x, weights=None) -> np.ndarray:
    """Slacks of every proper non-empty subset, ascending bitmask order (id 1..2^m-2),
    in a new array that the caller may overwrite."""
    s = _subset_sums(np.asarray(x, dtype=float))
    s -= _full_weight(g, _law(g, weights))
    return s[1:-1]


def min_slack(g: Graph, x, weights=None) -> tuple[float, int]:
    """Minimum slack over all proper subsets and the first subset (in bitmask
    order) attaining it, found on the vertex-set family."""
    w = _law(g, weights)
    c = _constraints(g, w)
    x = np.asarray(x, dtype=float)
    s = c.slacks(x)
    i = s.argmin()
    if not s[i] > 0 and not c.exhaustive and x[x.argmin()] < 0:
        return _signed_min_slack(g, c, w, x)
    return float(s[i]), c.mask(i)


def _signed_min_slack(g: Graph, c: _Constraints, w: tuple, x: np.ndarray) -> tuple[float, int]:
    """min_slack for an x with negative entries (set N).  Dropping a
    non-negative edge outside E(S) cannot lower a slack, so every subset
    reduces to C + T with C empty, a single edge or an E(S), and T inside
    N; for fixed C the slack is least at the largest proper T.  Ties are
    broken toward the first subset by dropping negative edges, highest
    first, while the slack stays at the minimum."""
    neg = x < 0
    base = np.concatenate([np.zeros((1, g.m), dtype=bool), c.rows])
    ext = base | neg
    full = ext.all(axis=1)
    r, e = np.nonzero(neg & ~base[full])  # a full row gives up one negative edge
    drop = ext[full][r]
    drop[np.arange(len(r)), e] = False
    rows = np.concatenate([ext[~full], drop])
    s = np.zeros(len(rows))
    for j in range(g.m):
        s += np.where(rows[:, j], x[j], 0.0)  # edge order, as in the fold
    d = np.zeros(len(rows))
    for v, inc in enumerate(g.incidence):
        d += np.where(rows[:, inc].all(axis=1), w[v], 0.0)
    s -= d
    best = float(s.min())
    xl, negative = x.tolist(), np.nonzero(neg)[0].tolist()[::-1]
    firsts = []
    for mask in {_mask(np.nonzero(row)[0].tolist()) for row in rows[s == best]}:
        for j in negative:
            smaller = mask & ~(1 << j)
            if smaller != mask and smaller and _fold_slack(g, smaller, xl, w) == best:
                mask = smaller
        firsts.append(mask)
    return best, min(firsts)


def classify_point(g: Graph, x, weights=None) -> RegionClass:
    """Classify a simplex point by its minimum slack.

    Raises OutsideSimplex for points off the simplex (tolerance 1e-9) and
    SubsetCapExceeded when neither the vertex sets nor the edge subsets of
    g can be enumerated.
    """
    x = check_simplex(g, x)
    val, sub = min_slack(g, x, weights)
    if val > TOL:
        kind = RegionKind.INTERIOR_REACHABLE
    elif val >= -TOL:
        kind = RegionKind.BOUNDARY_K
    else:
        kind = RegionKind.INACCESSIBLE
    return RegionClass(kind=kind, subset=sub, slack=val)


# --- max-flow membership ----------------------------------------------------


@lru_cache(maxsize=16)
def _flow_template(g: Graph) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple]:
    """The membership network of g, built once per graph: for each node the
    arcs leaving it, each arc's head, and for each vertex the (j, e) pairs
    of its vertex -> edge arcs, where j numbers those arcs from 0 (the j-th
    is arc 2*(k + j)).  Nodes are the source 0, vertices 1..k, edge nodes
    k+1..k+m and the sink k+m+1.  Arcs are added in a fixed order (source
    arcs by vertex, vertex -> edge arcs by vertex then incidence, edge ->
    sink arcs by edge), each followed by its residual twin, so arc i's twin
    is i ^ 1."""
    k, m = g.k, g.m
    adj: list[list[int]] = [[] for _ in range(k + m + 2)]
    to: list[int] = []

    def add_arc(u: int, v: int) -> None:
        adj[u].append(len(to))
        adj[v].append(len(to) + 1)
        to.extend((v, u))

    for v in range(1, k + 1):
        add_arc(0, v)
    pairs, j = [], 0
    for v, inc in enumerate(g.incidence, 1):
        pairs.append(tuple(enumerate(inc, j)))
        j += len(inc)
        for e in inc:
            add_arc(v, k + 1 + e)
    for e in range(m):
        add_arc(k + 1 + e, k + m + 1)
    return tuple(map(tuple, adj)), tuple(to), tuple(pairs)


def flow_rows(g: Graph, x, w=None, vertex=None) -> tuple[float, list | None]:
    """membership_flow without its input checks, on Python floats.

    x holds the edge entries and w the vertex weights (the uniform law when
    None), as sequences of floats.  Returns the max flow value and, when it
    is 1 within TOL, the kernel as k Python rows of m entries, of which only
    row `vertex` (0-based) is built when one is given, the others None; else
    None.

    Edmonds-Karp: breadth-first augmenting paths over the fixed arc order,
    arcs with residual capacity above 1e-12 only, run in two phases with
    the same paths, pushes and sums.  While some path s -> v -> e -> t is
    open, the search finds the first one in vertex-then-incidence order;
    the push empties its source or sink arc to exactly 0.0, and source and
    sink residuals never rise, so a closed pair stays closed.  Phase 1 is thus
    one pass over the (vertex, edge) pairs that pushes each open pair once,
    the lesser of its source and sink residuals: its middle arc, at 2.0,
    never binds, since a vertex weight is at most 1.  Phase 2 is the
    breadth-first loop itself, on the residual network phase 1 left, and
    runs only while some source arc and some sink arc are both still open:
    a longer path needs both.
    """
    if w is None:
        w = _uniform_law(g.k)
    adj, to, pairs = _flow_template(g)
    k, nmid = len(pairs), sum(map(len, pairs))
    rs = list(w)  # source -> vertex residuals
    rt = list(x)  # edge -> sink residuals
    fl = [0.0] * nmid  # vertex -> edge flows; the residual is 2.0 minus it
    total = 0.0
    for v, row in enumerate(pairs):
        left = rs[v]
        for j, e in row:
            if not left > _FLOW_EPS:
                break
            sink = rt[e]
            if sink > _FLOW_EPS:
                push = min(sink, left)
                rt[e] = sink - push
                fl[j] = push
                left -= push
                total += push
        rs[v] = left
    if max(rs) > _FLOW_EPS and max(rt) > _FLOW_EPS:
        # arcs into the source and out of the sink stay 0.0: no search reads them
        cap = [0.0] * len(to)
        cap[0 : 2 * k : 2] = rs
        cap[2 * k : 2 * (k + nmid) : 2] = [2.0 - f for f in fl]
        cap[2 * k + 1 : 2 * (k + nmid) : 2] = fl
        cap[2 * (k + nmid) :: 2] = rt
        s, t = 0, len(adj) - 1
        while True:
            prev = [-1] * len(adj)
            prev[s] = -2
            queue = [s]
            for u in queue:  # the loop also visits the nodes appended below
                if prev[t] != -1:
                    break
                for i in adj[u]:
                    v = to[i]
                    if prev[v] == -1 and cap[i] > _FLOW_EPS:
                        prev[v] = i
                        queue.append(v)
            if prev[t] == -1:
                break
            push = math.inf
            v = t
            while v != s:
                i = prev[v]
                push = min(push, cap[i])
                v = to[i ^ 1]
            v = t
            while v != s:
                i = prev[v]
                cap[i] -= push
                cap[i ^ 1] += push
                v = to[i ^ 1]
            total += push
        fl = cap[2 * k + 1 : 2 * (k + nmid) : 2]
    if abs(total - 1.0) > TOL:
        return total, None
    rows = [None] * k
    for v in range(k) if vertex is None else (vertex,):
        out, wv = [0.0] * len(rt), w[v]
        for j, e in pairs[v]:
            out[e] = fl[j] / wv
        rows[v] = out
    return total, rows


def membership_flow(g: Graph, x, weights=None) -> tuple[float, MoveKernel | None]:
    """Max-flow membership certificate for the closed reachable region.

    Builds the auxiliary network (source -> vertex v at capacity p_v,
    v -> edge node at capacity 2 for incident edges, edge node -> sink at
    capacity x_e) and returns (max flow value, kernel).  The point belongs to
    the closed region iff the value is 1 (tolerance 1e-9), in which case the
    kernel q[v][e] = flow(v -> e)/p_v realizes x as its mean.
    """
    x = check_simplex(g, x)
    w = check_weights(g, weights)
    value, rows = flow_rows(g, x.tolist(), None if weights is None else w.tolist())
    if rows is None:
        return value, None
    return value, MoveKernel(q=np.array(rows), weights=w)


# --- canonical interior point and face functionals --------------------------


def x_star(g: Graph) -> np.ndarray:
    """Canonical interior point: each edge gets the mean reciprocal degree of
    its endpoints, scaled by 1/k."""
    return _x_star(g).copy()


@lru_cache(maxsize=16)
def _x_star(g: Graph) -> np.ndarray:
    out = np.array([(1.0 / g.degree(u) + 1.0 / g.degree(v)) / g.k for u, v in g.edges])
    out.flags.writeable = False  # shared through the cache
    return out


@lru_cache(maxsize=16)
def _x_star_slacks(g: Graph) -> np.ndarray:
    """The slacks of x* under the uniform law, as clip_to_region reads them."""
    out = _constraints(g, _uniform_law(g.k)).slacks(_x_star(g))
    out.flags.writeable = False  # shared through the cache
    return out


def face_scale(m: int, f: int) -> float:
    """a+b for a subset of size f: sqrt(m / (f*(m-f)))."""
    return math.sqrt(m / (f * (m - f)))


def face_values(g: Graph, faces, n, v) -> np.ndarray:
    """Face functional values L_F(v) = (a+b) * (sum of v over F - n*d(F)/k)
    for count vectors v of total n: shape v.shape[:-1] + (len(faces),).

    Integer counts are summed exactly and n*d(F) is formed before the
    division by k, so values compare exactly against window cuts."""
    v = np.asarray(v)
    out = np.empty(v.shape[:-1] + (len(faces),))
    for j, F in enumerate(faces):
        coef = face_scale(g.m, subset_size(F))
        d = full_degree_count(g, F)
        out[..., j] = coef * (v[..., subset_members(F, g.m)].sum(axis=-1) - n * d / g.k)
    return out


@lru_cache(maxsize=32)
def _face_scales(m: int) -> tuple[np.ndarray, np.ndarray]:
    """By subset size f = 0..m: the scale a+b = sqrt(m / (f*(m-f))) and a
    penalty, 0 for proper sizes; at f = 0 and f = m the scale is 0 and the
    penalty +inf, so scale*v + penalty rules those sizes out."""
    f = np.arange(1, m)
    scale = np.zeros(m + 1)
    scale[1:m] = np.sqrt(m / (f * (m - f)))
    pen = np.zeros(m + 1)
    pen[[0, m]] = np.inf
    scale.flags.writeable = pen.flags.writeable = False
    return scale, pen


@lru_cache(maxsize=4)
def _subset_sizes(m: int) -> np.ndarray:
    """|F| for every proper mask F, ascending."""
    sizes = _subset_sums(np.ones(m, dtype=np.uint8))[1:-1]
    sizes.flags.writeable = False
    return sizes


@lru_cache(maxsize=4)
def _fold_scales(m: int) -> np.ndarray:
    """a+b for every proper mask F, ascending.  boundary_distance holds it
    for m <= 16 only: 2^24 floats are 128 MB."""
    out = _face_scales(m)[0][_subset_sizes(m)]
    out.flags.writeable = False
    return out


def boundary_distance(g: Graph, x) -> float:
    """Distance from x to the region boundary within the simplex hyperplane
    (uniform vertex law): min over proper subsets of (a+b) * slack.  Negative
    for points outside the closed region (signed violation depth)."""
    x = check_simplex(g, x)
    c = _constraints(g, _uniform_law(g.k))
    # The cheaper path, by cost per call measured in process on a 2-core Xeon:
    # the fold takes 4-5 ns a subset while its arrays stay in cache, the scan
    # 17-26 ns an entry of c.uncover.  So the fold when 2^m <= entries, and also
    # up to 4x entries: K5 (ratio 2^m / entries 3.9) 31 vs 53 us, fold vs scan; ratios 6.5-7.8 1.04-1.41x slower
    # up to 2^16 subsets: past it 10-12 ns a subset; 2x7 grid (m = 19, ratio 4.7) 5.0 vs 1.8 ms
    if c.exhaustive or (
        g.m <= SUBSET_CAP and 1 << g.m <= max(c.uncover.size, min(4 * c.uncover.size, 1 << 16))
    ):
        s = all_slacks(g, x)
        s *= _fold_scales(g.m) if g.m <= 16 else _face_scales(g.m)[0][_subset_sizes(g.m)]
        return float(s.min())
    return _vertex_set_distance(g, c, x)


def _vertex_set_distance(g: Graph, c: _Constraints, x: np.ndarray) -> float:
    """boundary_distance on the vertex sets.  A subset F whose fully covered
    vertex set is D contains E(D), and d(F) = w(D) <= d(E(D)); so for each
    size f the best F is E(D) plus the f - |E(D)| smallest other entries.
    One pass scores E(D) plus each prefix of the other edges in ascending
    x; the near-best subsets are then re-summed in the fold's order."""
    scale, pen = _face_scales(g.m)
    order = x.argsort(kind="stable")
    off = c.uncover[:, order]
    base = c.cover_x @ x
    base -= c.cover_d  # x(E(D)) - d(E(D))
    val = np.cumsum(off * x[order], axis=1)  # column p: the added edges up to order[p]
    val += base[:, None]
    size = np.cumsum(off, axis=1)
    size += c.cover_size[:, None]
    val *= scale[size]
    val += pen[size]
    base *= scale[c.cover_size]  # E(D) itself
    base += pen[c.cover_size]
    near = min(val.flat[val.argmin()], base[base.argmin()]) + 1e-12
    faces = {c.cover_masks[r] for r in np.nonzero(base <= near)[0].tolist()}
    rs, ps = np.nonzero((val <= near) & off)
    if len(rs):
        order = order.tolist()
        for r, p in zip(rs.tolist(), ps.tolist()):
            faces.add(c.cover_masks[r] | _mask(order[: p + 1]))
    xl, w = x.tolist(), _uniform_law(g.k)
    return min(float(scale[subset_size(F)]) * _fold_slack(g, F, xl, w) for F in faces)


# an exit entry at or below this may make ray_exit ask the fold
_ZERO = 1e-12


def ray_exit(g: Graph, origin, direction) -> tuple[np.ndarray, float, int]:
    """First point along origin + t*direction (t > 0) where some slack hits 0.

    Requires all slacks of origin to be positive.  Returns (point, t, subset).
    Raises NoExit when no slack decreases along the direction.  From an
    interior origin the exit lies in the region, where the vertex-set family
    finds it; from any other origin every proper subset is tried.
    """
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    c = _constraints(g, _uniform_law(g.k))
    t = c.slacks(origin)
    if not t[t.argmin()] > 0 and not c.exhaustive:
        c = _constraints(g, _uniform_law(g.k), exhaustive=True)
        t = c.slacks(origin)
    y, best_t, i = _ray_exit(c, origin, direction, t)
    # y is a region point, so its entries are >= 0 up to rounding.  A tight
    # constraint C plus edges where y is zero is tight as well; when such a
    # set can lie outside the family, let the fold's rounding pick among them
    if not c.exhaustive and g.m <= SUBSET_CAP and y[y.argmin()] <= _ZERO:
        zero = np.abs(y) <= _ZERO
        tight = c.rows[t <= best_t + 1e-12 * max(1.0, best_t)]
        if zero.sum() > 1 or (zero & ~tight).any():
            fold = _constraints(g, _uniform_law(g.k), exhaustive=True)
            return _ray_exit(fold, origin, direction, fold.slacks(origin))
    return y, best_t, i


def _ray_exit(c: _Constraints, origin, direction, t: np.ndarray):
    """ray_exit over the constraints c from an origin whose slacks are t;
    t is overwritten with the exit times."""
    _exit_times(t, c.sums(-direction))
    i = t.argmin()
    best_t = float(t[i])
    if not math.isfinite(best_t):
        raise NoExit("no constraint tightens along this direction")
    return origin + best_t * direction, best_t, c.mask(i)


def _exit_times(t: np.ndarray, rate: np.ndarray) -> None:
    """Overwrite the slacks t (last axis: the constraints) with the time at
    which each reaches 0 when it drops at `rate`; inf where it does not drop."""
    drop = rate > 1e-15
    np.divide(t, rate, out=t, where=drop)
    t[..., ~drop] = math.inf


def ray_exit_rows(g: Graph, direction):
    """ray_exit along one direction for many origins: a function that maps
    an (R, m) array to its rows' exit points and a mask of the rows it
    settles.  Each constraint's rate along the direction is computed once.
    A settled row's point is ray_exit(g, row, direction)[0] bit for bit: its
    origin is interior, some slack drops, and no entry of its exit is at or
    below _ZERO, so the vertex-set family decides it.  The other rows'
    points are unspecified."""
    direction = np.asarray(direction, dtype=float)
    c = _constraints(g, _uniform_law(g.k))
    rate = None if c.exhaustive else c.sums(-direction)

    def exits(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if rate is None:
            return np.array(rows, dtype=float), np.zeros(len(rows), dtype=bool)
        t = c.row_slacks(rows)
        ok = t.min(axis=1) > 0
        _exit_times(t, rate)
        best = t.min(axis=1)
        ok &= best < math.inf
        best[~ok] = 0.0
        y = rows + best[:, None] * direction
        ok &= y.min(axis=1) > _ZERO
        return y, ok

    return exits


def clip_to_region(g: Graph, y) -> np.ndarray:
    """Nearest region point along the segment toward x*: moves y just far
    enough that its minimum slack reaches 0.  x* is interior, so the segment
    enters the region at a point of it, where the vertex-set family binds."""
    y = np.asarray(y, dtype=float)
    anchor = _x_star(g)
    sy = _constraints(g, _uniform_law(g.k)).slacks(y)
    bad = sy < 0
    gap = _x_star_slacks(g) - sy
    np.negative(sy, out=sy)
    np.divide(sy, gap, out=sy, where=bad)
    lam = float(np.max(sy, where=bad, initial=0.0))
    if lam == 0.0:
        return y
    return (1.0 - lam) * y + lam * anchor
