"""Convex geometry of the game: reachable-region membership, face functionals,
boundary distances, ray exits, and flow-decomposed move kernels.

Points live in the edge simplex (non-negative entries, unit sum, one entry per
edge in graph edge order).  Every proper non-empty edge subset F induces a
linear constraint

    slack(F, x) = sum_{e in F} x_e  -  (weight of vertices fully inside F)

with uniform vertex weight 1/k by default.  A point is interior-reachable when
all slacks are positive, on the region boundary when the minimum slack is zero,
and inaccessible when some slack is negative.  Membership can be certified
independently by a max-flow computation on a small auxiliary network, which
also produces a per-vertex randomized move kernel realizing the point as a
mean displacement.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    EmptyOrFullSubset,
    NoExit,
    OutsideSimplex,
    SubsetCapExceeded,
)
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
class FaceFunctional:
    """Unit-norm, zero-sum linear functional attached to a proper edge subset.

    Coefficient a on subset edges, -b off it, with a*|F| = b*|E\\F| and
    a^2*|F| + b^2*|E\\F| = 1; the scale a+b equals sqrt(|E|/(|F|*|E\\F|)).
    """

    subset: int
    a: float
    b: float

    @property
    def scale(self) -> float:
        return self.a + self.b


@dataclass(frozen=True)
class MoveKernel:
    """Per-vertex edge distributions whose mean displacement is `target`.

    q[v-1, e] is the probability of choosing edge e when vertex v is drawn;
    rows sum to 1, entries vanish off the vertex's incident edges, and
    weights @ q equals target.
    """

    q: np.ndarray
    target: np.ndarray
    weights: np.ndarray


def uniform_weights(k: int) -> np.ndarray:
    return np.full(k, 1.0 / k)


def check_weights(g: Graph, weights) -> np.ndarray:
    if weights is None:
        return uniform_weights(g.k)
    w = np.asarray(weights, dtype=float)
    if w.shape != (g.k,):
        raise OutsideSimplex(f"expected {g.k} vertex weights, got shape {w.shape}")
    if np.any(w <= 0) or abs(w.sum() - 1.0) > TOL:
        raise OutsideSimplex("vertex weights must be positive and sum to 1")
    return w


def check_simplex(g: Graph, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (g.m,):
        raise OutsideSimplex(f"expected {g.m} entries, got shape {x.shape}")
    if np.any(x < -TOL):
        raise OutsideSimplex(f"negative entry {x.min()}")
    if abs(x.sum() - 1.0) > TOL:
        raise OutsideSimplex(f"entries sum to {x.sum()}, not 1")
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


def slack(g: Graph, subset: int, x, weights=None) -> float:
    """Margin of one constraint: sum of x over the subset minus the full-degree weight."""
    x = np.asarray(x, dtype=float)
    w = check_weights(g, weights)
    s = sum(x[e] for e in subset_members(subset, g.m))
    d = sum(w[v - 1] for v in range(1, g.k + 1) if g.vertex_mask(v) & ~subset == 0)
    return float(s - d)


def all_slacks(g: Graph, x, weights=None) -> np.ndarray:
    """Slacks of every proper non-empty subset, ascending bitmask order (id 1..2^m-2),
    in a new array that the caller may overwrite."""
    s = _subset_sums(np.asarray(x, dtype=float))
    s -= _full_weight(g, tuple(check_weights(g, weights).tolist()))
    return s[1:-1]


def min_slack(g: Graph, x, weights=None) -> tuple[float, int]:
    """Minimum slack and the first subset attaining it."""
    s = all_slacks(g, x, weights)
    i = int(np.argmin(s))
    return float(s[i]), i + 1


def classify_point(g: Graph, x, weights=None) -> RegionClass:
    """Classify a simplex point by exhaustive constraint enumeration.

    Raises OutsideSimplex for points off the simplex (tolerance 1e-9) and
    SubsetCapExceeded when |E| > 24.
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


class _FlowNetwork:
    """Edmonds-Karp max flow with paired residual arcs, deterministic order."""

    def __init__(self, n_nodes: int):
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add_arc(self, u: int, v: int, cap: float) -> int:
        i = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[u].append(i)
        self.to.append(u)
        self.cap.append(0.0)
        self.adj[v].append(i + 1)
        return i

    def max_flow(self, s: int, t: int) -> float:
        total = 0.0
        n = len(self.adj)
        while True:
            prev_arc = [-1] * n
            prev_arc[s] = -2
            queue = deque([s])
            while queue and prev_arc[t] == -1:
                u = queue.popleft()
                for i in self.adj[u]:
                    v = self.to[i]
                    if prev_arc[v] == -1 and self.cap[i] > _FLOW_EPS:
                        prev_arc[v] = i
                        queue.append(v)
            if prev_arc[t] == -1:
                return total
            push = math.inf
            v = t
            while v != s:
                i = prev_arc[v]
                push = min(push, self.cap[i])
                v = self.to[i ^ 1]
            v = t
            while v != s:
                i = prev_arc[v]
                self.cap[i] -= push
                self.cap[i ^ 1] += push
                v = self.to[i ^ 1]
            total += push

    def flow_on(self, arc: int) -> float:
        return self.cap[arc ^ 1]


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
    k, m = g.k, g.m
    s, t = 0, k + m + 1
    net = _FlowNetwork(k + m + 2)
    for v in range(1, k + 1):
        net.add_arc(s, v, float(w[v - 1]))
    mid_arcs: dict[tuple[int, int], int] = {}
    for v in range(1, k + 1):
        for e in g.incidence[v - 1]:
            mid_arcs[(v, e)] = net.add_arc(v, k + 1 + e, 2.0)
    for e in range(m):
        net.add_arc(k + 1 + e, t, float(x[e]))
    value = net.max_flow(s, t)
    if abs(value - 1.0) > TOL:
        return value, None
    q = np.zeros((k, m))
    for (v, e), arc in mid_arcs.items():
        q[v - 1, e] = net.flow_on(arc) / w[v - 1]
    return value, MoveKernel(q=q, target=x.copy(), weights=w)


# --- canonical interior point and face functionals --------------------------


def x_star(g: Graph) -> np.ndarray:
    """Canonical interior point: each edge gets the mean reciprocal degree of
    its endpoints, scaled by 1/k."""
    out = np.zeros(g.m)
    for e, (u, v) in enumerate(g.edges):
        out[e] = (1.0 / g.degree(u) + 1.0 / g.degree(v)) / g.k
    return out


def face_functional(g: Graph, subset: int) -> FaceFunctional:
    f = subset_size(subset)
    if subset <= 0 or f == 0 or f >= g.m or subset >= (1 << g.m) - 1:
        raise EmptyOrFullSubset(f"subset {subset:#x} must be proper and non-empty")
    s = 1.0 / math.sqrt(f * (g.m - f) * g.m)
    return FaceFunctional(subset=subset, a=(g.m - f) * s, b=f * s)


def face_scale(m: int, f: int) -> float:
    """a+b for a subset of size f: sqrt(m / (f*(m-f)))."""
    return math.sqrt(m / (f * (m - f)))


def kappa(g: Graph) -> float:
    """Smallest face-functional scale over proper subsets; attained at |F| = m//2."""
    f = g.m // 2
    return face_scale(g.m, f)


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


def boundary_distance(g: Graph, x) -> float:
    """Distance from x to the region boundary within the simplex hyperplane
    (uniform vertex law): min over proper subsets of (a+b) * slack.  Negative
    for points outside the closed region (signed violation depth)."""
    x = check_simplex(g, x)
    s = all_slacks(g, x)
    f = np.arange(1, g.m)
    scale = np.sqrt(g.m / (f * (g.m - f)))  # scale[|F| - 1]
    sizes = _subset_sums(np.ones(g.m, dtype=np.uint8))[1:-1]
    sizes -= 1
    s *= scale[sizes]
    return float(s.min())


def ray_exit(g: Graph, origin, direction) -> tuple[np.ndarray, float, int]:
    """First point along origin + t*direction (t > 0) where some slack hits 0.

    Requires all slacks of origin to be positive.  Returns (point, t, subset).
    Raises NoExit when no slack decreases along the direction.
    """
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    t = all_slacks(g, origin)
    rate = _subset_sums(-direction)[1:-1]  # how fast each slack drops
    drop = rate > 1e-15
    np.divide(t, rate, out=t, where=drop)
    t[~drop] = math.inf
    i = int(np.argmin(t))
    best_t = float(t[i])
    if not math.isfinite(best_t):
        raise NoExit("no constraint tightens along this direction")
    return origin + best_t * direction, best_t, i + 1


def clip_to_region(g: Graph, y, anchor=None) -> np.ndarray:
    """Nearest region point along the segment toward an interior anchor:
    moves y just far enough that its minimum slack reaches 0."""
    y = np.asarray(y, dtype=float)
    if anchor is None:
        anchor = x_star(g)
    anchor = np.asarray(anchor, dtype=float)
    sy = all_slacks(g, y)
    bad = sy < 0
    gap = all_slacks(g, anchor)
    gap -= sy
    np.negative(sy, out=sy)
    np.divide(sy, gap, out=sy, where=bad)
    lam = float(np.max(sy, where=bad, initial=0.0))
    if lam == 0.0:
        return y
    return (1.0 - lam) * y + lam * anchor
