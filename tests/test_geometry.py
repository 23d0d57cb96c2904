import math
from collections import deque

import numpy as np
import pytest

from seqassign.errors import NoExit, OutsideSimplex
from seqassign.geometry import (
    RegionKind,
    _constraints,
    _law,
    _subset_sums,
    _vertex_set_distance,
    all_slacks,
    boundary_distance,
    classify_point,
    clip_to_region,
    face_scale,
    face_values,
    kappa,
    membership_flow,
    min_slack,
    min_slack_rows,
    ray_exit,
    ray_exit_rows,
    uniform_weights,
    x_star,
)
from seqassign.graph import (
    build_graph,
    complete_graph,
    cycle_graph,
    full_degree_count,
    path_graph,
    proper_subsets,
    star_graph,
    subset_members,
    subset_size,
)

SQ32 = math.sqrt(1.5)


def kernel_defects(g, kernel, x, weights=None):
    """Max violation of the three kernel conditions."""
    w = uniform_weights(g.k) if weights is None else np.asarray(weights)
    row_sums = kernel.q.sum(axis=1)
    off = 0.0
    for v in range(1, g.k + 1):
        for e in range(g.m):
            if e not in g.incidence[v - 1]:
                off = max(off, abs(kernel.q[v - 1, e]))
    mean_gap = np.abs(w @ kernel.q - x).max()
    return max(np.abs(row_sums - 1).max(), off, mean_gap)


# --- canonical point ---------------------------------------------------------


def test_x_star_p4(p4):
    assert np.allclose(x_star(p4), [3 / 8, 1 / 4, 3 / 8], atol=0, rtol=0)


def test_x_star_cycle():
    for k in (3, 5, 8):
        assert np.allclose(x_star(cycle_graph(k)), np.full(k, 1 / k))


def test_x_star_star_graph(k13):
    assert np.allclose(x_star(k13), np.full(3, 1 / 3))


def test_x_star_interior_everywhere(p4, triangle, k13, c4, k4):
    for g in (p4, triangle, k13, c4, k4):
        xs = x_star(g)
        assert classify_point(g, xs).kind is RegionKind.INTERIOR_REACHABLE
        assert boundary_distance(g, xs) > 0


# --- classification ----------------------------------------------------------


def test_classify_interior(p4):
    r = classify_point(p4, [3 / 8, 1 / 4, 3 / 8])
    assert r.kind is RegionKind.INTERIOR_REACHABLE


def test_classify_inaccessible(p4):
    r = classify_point(p4, [0.2, 0.3, 0.5])
    assert r.kind is RegionKind.INACCESSIBLE
    assert r.subset == 0b001
    assert r.slack == pytest.approx(-0.05)


def test_classify_boundary(p4):
    r = classify_point(p4, [0.25, 0.25, 0.5])
    assert r.kind is RegionKind.BOUNDARY_K
    assert r.slack == pytest.approx(0.0, abs=1e-15)


def test_classify_rejects_off_simplex(p4):
    with pytest.raises(OutsideSimplex):
        classify_point(p4, [0.5, 0.6, -0.1])
    with pytest.raises(OutsideSimplex):
        classify_point(p4, [0.5, 0.6, 0.2])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_outside_simplex(p4, bad):
    # NaN passes both `x < -tol` and `|sum - 1| > tol` as False
    with pytest.raises(OutsideSimplex):
        classify_point(p4, [bad, 0.5, 0.5])
    with pytest.raises(OutsideSimplex):
        membership_flow(p4, [bad, 0.5, 0.5])
    with pytest.raises(OutsideSimplex):
        classify_point(p4, x_star(p4), [bad, 0.25, 0.25, 0.25])


def test_classify_weighted_vertex_law(p4):
    # skew the vertex law so that x* for the uniform law becomes inaccessible
    w = [0.7, 0.1, 0.1, 0.1]
    r = classify_point(p4, [3 / 8, 1 / 4, 3 / 8], w)
    assert r.kind is RegionKind.INACCESSIBLE
    assert r.subset == 0b001  # first edge must now absorb 0.7 of the draws


# --- flow membership ---------------------------------------------------------


def test_flow_at_x_star(p4):
    value, kernel = membership_flow(p4, x_star(p4))
    assert value == pytest.approx(1.0, abs=1e-9)
    assert kernel_defects(p4, kernel, x_star(p4)) < 1e-9


def test_flow_value_outside(p4):
    value, kernel = membership_flow(p4, [0.2, 0.3, 0.5])
    assert value == pytest.approx(0.95, abs=1e-9)
    assert kernel is None


def test_flow_forced_kernel(p4):
    value, kernel = membership_flow(p4, [0.5, 0.25, 0.25])
    assert value == pytest.approx(1.0, abs=1e-9)
    expect = np.array(
        [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
    )
    assert np.allclose(kernel.q, expect, atol=1e-9)


def test_flow_weighted(p4):
    # under a skewed law the same point needs a different kernel mean
    w = np.array([0.4, 0.2, 0.2, 0.2])
    value, kernel = membership_flow(p4, [0.5, 0.25, 0.25], w)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert kernel_defects(p4, kernel, np.array([0.5, 0.25, 0.25]), w) < 1e-9


def test_enumeration_flow_agreement(p4, triangle, c4, simplex_sampler):
    for g, seed in ((p4, 1), (triangle, 2), (c4, 3)):
        for x in simplex_sampler(g.m, 2000, seed):
            enum_in = min_slack(g, x)[0] >= -1e-9
            value, kernel = membership_flow(g, x)
            assert enum_in == (kernel is not None), (g.edges, x)


def test_kernel_soundness_random(p4, c4, simplex_sampler):
    for g, seed in ((p4, 11), (c4, 12)):
        checked = 0
        for x in simplex_sampler(g.m, 3000, seed):
            value, kernel = membership_flow(g, x)
            if kernel is not None:
                assert kernel_defects(g, kernel, x) < 1e-9
                checked += 1
        assert checked > 50


class ReferenceFlowNetwork:
    """Edmonds-Karp max flow with paired residual arcs, built arc by arc: the
    reference that `membership_flow`'s cached network must match bit for bit."""

    def __init__(self, n_nodes):
        self.adj = [[] for _ in range(n_nodes)]
        self.to = []
        self.cap = []

    def add_arc(self, u, v, cap):
        i = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[u].append(i)
        self.to.append(u)
        self.cap.append(0.0)
        self.adj[v].append(i + 1)
        return i

    def max_flow(self, s, t):
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
                    if prev_arc[v] == -1 and self.cap[i] > 1e-12:
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


def reference_flow(g, x, weights=None):
    """(value, q or None) of the membership network: source -> vertex at p_v,
    vertex -> incident edge at 2, edge -> sink at x_e."""
    w = uniform_weights(g.k) if weights is None else np.asarray(weights, dtype=float)
    k, m = g.k, g.m
    net = ReferenceFlowNetwork(k + m + 2)
    for v in range(1, k + 1):
        net.add_arc(0, v, float(w[v - 1]))
    mid = {}
    for v in range(1, k + 1):
        for e in g.incidence[v - 1]:
            mid[(v, e)] = net.add_arc(v, k + 1 + e, 2.0)
    for e in range(m):
        net.add_arc(k + 1 + e, k + m + 1, float(x[e]))
    value = net.max_flow(0, k + m + 1)
    if abs(value - 1.0) > 1e-9:
        return value, None
    q = np.zeros((k, m))
    for (v, e), arc in mid.items():
        q[v - 1, e] = net.cap[arc ^ 1] / w[v - 1]
    return value, q


def flow_points(g, weights, seed):
    """Dirichlet points (inside and outside the region), their midpoints with
    the mean of the uniform incident-edge kernel under the law, and the
    boundary points where rays from x* through them exit the region."""
    w = uniform_weights(g.k) if weights is None else np.asarray(weights)
    center = np.zeros(g.m)
    for v, inc in enumerate(g.incidence):
        center[list(inc)] += w[v] / len(inc)
    xs = x_star(g)
    dirichlet = list(np.random.default_rng(seed).dirichlet(np.ones(g.m), 40))
    pts = [center] + dirichlet + [0.5 * center + 0.5 * x for x in dirichlet[:20]]
    for x in dirichlet[:20]:
        try:
            pts.append(ray_exit(g, xs, x - xs)[0])
        except NoExit:
            pass
    return pts


FLOW_GRAPHS = {
    "P4": path_graph(4),
    "C4": cycle_graph(4),
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "S4": star_graph(4),
    "triangle-tail": build_graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)]),
}
SKEWED = {4: [0.1, 0.2, 0.3, 0.4], 5: [0.1, 0.15, 0.2, 0.25, 0.3]}


@pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "skewed"])
@pytest.mark.parametrize("name", list(FLOW_GRAPHS))
def test_membership_flow_matches_reference(name, skewed):
    g = FLOW_GRAPHS[name]
    weights = SKEWED[g.k] if skewed else None
    inside = outside = 0
    for x in flow_points(g, weights, g.m):
        value, kernel = membership_flow(g, x, weights)
        want_value, want_q = reference_flow(g, x, weights)
        assert value == want_value, x
        if want_q is None:
            assert kernel is None, x
            outside += 1
        else:
            assert np.array_equal(kernel.q, want_q), x
            inside += 1
    assert inside and outside


def test_region_convexity(p4, simplex_sampler):
    rng = np.random.default_rng(5)
    members = [
        x for x in simplex_sampler(p4.m, 4000, 6) if membership_flow(p4, x)[1] is not None
    ]
    assert len(members) > 100
    for _ in range(200):
        a, b = rng.integers(len(members), size=2)
        lam = rng.random()
        mix = lam * members[a] + (1 - lam) * members[b]
        assert membership_flow(p4, mix)[1] is not None


def test_closure_consistency(p4):
    xs = x_star(p4)
    boundary = np.array([0.25, 0.25, 0.5])
    for eps in (1e-6, 1e-3, 0.1, 0.5, 1.0):
        mixed = (1 - eps) * boundary + eps * xs
        assert classify_point(p4, mixed).kind is RegionKind.INTERIOR_REACHABLE


# --- face functionals --------------------------------------------------------


def test_face_scale_values(p4, c4):
    assert face_scale(p4.m, 1) == pytest.approx(SQ32)
    assert face_scale(p4.m, 2) == pytest.approx(SQ32)
    assert face_scale(c4.m, 2) == pytest.approx(1.0)


def test_kappa_values(p4, c4):
    assert kappa(p4) == pytest.approx(SQ32)
    assert kappa(c4) == pytest.approx(1.0)
    two_edges = build_graph(3, [(1, 2), (2, 3)])
    assert kappa(two_edges) == pytest.approx(math.sqrt(2))


# --- the L functional and distances ------------------------------------------


def test_L_value_examples(p4):
    assert face_values(p4, [0b001], 200, [100, 50, 50])[0] == pytest.approx(SQ32 * 50)
    assert face_values(p4, [0b011], 8, [3, 2, 3])[0] == pytest.approx(SQ32)


def test_L_value_tight_face(p4):
    # points on the hyperplane give exactly zero
    n = 40
    x = np.array([0.25, 0.35, 0.4])  # first-edge constraint tight
    assert face_values(p4, [0b001], n, n * x)[0] == pytest.approx(0.0, abs=1e-12)


def test_face_values_match_scalar_loop(p4, c4):
    # integer configs: the same sums and the same (n*d)/k as a per-face loop
    rng = np.random.default_rng(6)
    for g in (p4, c4, complete_graph(4)):
        faces = list(proper_subsets(g))
        cfgs = rng.integers(0, 40, size=(30, g.m))
        got = face_values(g, faces, cfgs.sum(axis=1), cfgs)
        for cfg, row in zip(cfgs, got):
            n = int(cfg.sum())
            for F, val in zip(faces, row):
                d = full_degree_count(g, F)
                tot = sum(int(cfg[e]) for e in subset_members(F, g.m))
                assert val == face_scale(g.m, subset_size(F)) * (tot - n * d / g.k)
            assert np.array_equal(face_values(g, faces, n, cfg), row)


def test_boundary_distance_examples(p4):
    assert boundary_distance(p4, [3 / 8, 1 / 4, 3 / 8]) == pytest.approx(SQ32 / 8)
    assert boundary_distance(p4, [0.25, 0.25, 0.5]) == pytest.approx(0.0, abs=1e-12)
    assert boundary_distance(p4, [0.2, 0.3, 0.5]) == pytest.approx(SQ32 * -0.05)


def test_boundary_distance_sandwich(p4, c4, simplex_sampler):
    for g, seed in ((p4, 21), (c4, 22)):
        max_scale = max(face_scale(g.m, f) for f in range(1, g.m))
        kap = kappa(g)
        for x in simplex_sampler(g.m, 2000, seed):
            m_val = min_slack(g, x)[0]
            if m_val < 0:
                continue
            bd = boundary_distance(g, x)
            assert kap * m_val - 1e-12 <= bd <= 2 * m_val * max_scale + 1e-12


def test_ray_exit_examples(p4):
    xs = x_star(p4)
    y = ray_exit(p4, xs, [0.35, 0.275, 0.375] - xs)[0]
    assert np.allclose(y, [0.25, 0.375, 0.375], atol=1e-12)
    # a point already on the boundary exits at itself
    y2 = ray_exit(p4, xs, [0.5, 0.25, 0.25] - xs)[0]
    assert np.allclose(y2, [0.5, 0.25, 0.25], atol=1e-12)
    boundary = np.array([0.25, 0.25, 0.5])
    y3 = ray_exit(p4, xs, boundary - xs)[0]
    assert np.allclose(y3, boundary, atol=1e-12)


def test_ray_exit_degenerate(p4):
    xs = x_star(p4)
    with pytest.raises(NoExit):
        ray_exit(p4, xs, xs - xs)


def test_ray_exit_lands_on_boundary(p4, simplex_sampler):
    xs = x_star(p4)
    for x in simplex_sampler(3, 300, 31):
        if np.allclose(x, xs):
            continue
        y = ray_exit(p4, xs, x - xs)[0]
        lo, _ = min_slack(p4, y)
        assert abs(lo) < 1e-10


def test_ray_exit_random_interior_origins(c4, simplex_sampler):
    rng = np.random.default_rng(61)
    origins = [
        x for x in simplex_sampler(c4.m, 500, 62) if min_slack(c4, x)[0] > 0.01
    ]
    assert len(origins) >= 20
    for origin in origins[:20]:
        d = rng.normal(size=c4.m)
        d -= d.mean()  # stay inside the sum-one hyperplane
        y, t, face = ray_exit(c4, origin, d)
        assert t > 0
        assert abs(min_slack(c4, y)[0]) < 1e-10
        assert 0 < face < (1 << c4.m) - 1


def test_clip_to_region(p4):
    out = np.array([0.2, 0.3, 0.5])
    clipped = clip_to_region(p4, out)
    assert min_slack(p4, clipped)[0] == pytest.approx(0.0, abs=1e-12)
    inside = x_star(p4)
    assert np.array_equal(clip_to_region(p4, inside), inside)


def test_multi_block_enumeration_agrees_with_flow():
    # 21 edges: 2^21 - 2 constraints, the largest enumeration in the suite
    from seqassign.graph import complete_graph

    k7 = complete_graph(7)
    assert k7.m == 21
    xs = x_star(k7)
    assert classify_point(k7, xs).kind is RegionKind.INTERIOR_REACHABLE
    rng = np.random.default_rng(55)
    for _ in range(20):
        x = rng.dirichlet(np.ones(21))
        enum_in = min_slack(k7, x)[0] >= -1e-9
        _, kernel = membership_flow(k7, x)
        assert enum_in == (kernel is not None)


def test_geometry_on_removed_edge_subgraph(k4):
    g5 = build_graph(4, k4.edges[1:])
    assert g5.m == 5
    xs = x_star(g5)
    assert classify_point(g5, xs).kind is RegionKind.INTERIOR_REACHABLE
    assert boundary_distance(g5, xs) > 0
    value, kernel = membership_flow(g5, xs)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert kernel_defects(g5, kernel, xs) < 1e-9


@pytest.mark.parametrize(
    "g, weights",
    [
        (path_graph(4), None),
        (cycle_graph(5), None),
        (star_graph(4), None),
        (complete_graph(4), None),
        (build_graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)]), None),
        (complete_graph(5), None),
        (complete_graph(4), [0.1, 0.2, 0.3, 0.4]),
    ],
    ids=["P4", "C5", "S4", "K4", "triangle-tail", "K5", "K4-weighted"],
)
def test_all_slacks_matches_scalar(g, weights):
    from seqassign.geometry import slack

    x = np.random.default_rng(g.m).dirichlet(np.ones(g.m))
    vec = all_slacks(g, x, weights)
    assert vec.shape == ((1 << g.m) - 2,)
    for F in range(1, (1 << g.m) - 1):
        assert vec[F - 1] == pytest.approx(slack(g, F, x, weights), abs=1e-15)


def test_min_slack_and_ray_exit_match_scalar_loop():
    # first minimising subset in bitmask order, from a loop over slack()
    from seqassign.geometry import slack

    k5 = complete_graph(5)
    xs = x_star(k5)
    subsets = range(1, (1 << k5.m) - 1)
    for x in np.random.default_rng(73).dirichlet(np.ones(k5.m), size=6):
        slacks = [slack(k5, F, x) for F in subsets]
        val, sub = min_slack(k5, x)
        assert sub == subsets[slacks.index(min(slacks))]
        assert val == pytest.approx(min(slacks), abs=1e-15)

        d = x - xs
        times = []
        for F in subsets:
            rate = -sum(d[e] for e in subset_members(F, k5.m))
            times.append(slack(k5, F, xs) / rate if rate > 1e-15 else math.inf)
        y, t, face = ray_exit(k5, xs, d)
        assert face == subsets[times.index(min(times))]
        assert t == pytest.approx(min(times), abs=1e-14)
        assert np.allclose(y, xs + min(times) * d, atol=1e-14, rtol=0)


def test_subset_cap_raises_before_enumerating():
    import tracemalloc

    from seqassign.errors import SubsetCapExceeded
    g = path_graph(26)
    assert g.m == 25
    x = np.full(g.m, 1 / g.m)
    d = np.zeros(g.m)
    d[:2] = 0.01, -0.01
    calls = [
        lambda: boundary_distance(g, x),
        lambda: ray_exit(g, x, d),
        lambda: clip_to_region(g, x),
        lambda: min_slack(g, x),
    ]
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(SubsetCapExceeded):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # an array of 2^25 entries would be 256 MiB


# --- the vertex-set family against the edge-subset fold ---------------------
#
# The region queries minimise over the single edges and the sets E(S) of
# edges incident to a vertex set S.  The oracles below are the fold over all
# 2^m - 2 edge subsets, as the package computed them before the family.


def fold_min_slack(g, x, weights=None):
    s = all_slacks(g, x, weights)
    i = int(np.argmin(s))
    return float(s[i]), i + 1


def fold_ray_exit(g, origin, direction):
    t = all_slacks(g, origin)
    rate = _subset_sums(-np.asarray(direction, dtype=float))[1:-1]
    drop = rate > 1e-15
    np.divide(t, rate, out=t, where=drop)
    t[~drop] = math.inf
    i = int(np.argmin(t))
    if not math.isfinite(t[i]):
        return None
    return origin + float(t[i]) * direction, float(t[i]), i + 1


def fold_clip(g, y):
    anchor = x_star(g)
    sy = all_slacks(g, y)
    bad = sy < 0
    gap = all_slacks(g, anchor) - sy
    lam = float(np.max(np.divide(-sy, gap, out=np.zeros_like(sy), where=bad), initial=0.0))
    return y if lam == 0.0 else (1.0 - lam) * y + lam * anchor


def fold_distance(g, x):
    f = np.arange(1, g.m)
    scale = np.sqrt(g.m / (f * (g.m - f)))
    sizes = np.array([subset_size(F) for F in range(1, (1 << g.m) - 1)])
    return float((all_slacks(g, x) * scale[sizes - 1]).min())


def oracle_points(g, seed):
    """x*, Dirichlet points, points with exact zeros and exact ties, and
    points with negative entries of several sizes (all summing to 1)."""
    rng = np.random.default_rng(seed)
    pts = [x_star(g)] + list(rng.dirichlet(np.ones(g.m), 60))
    for _ in range(30):
        x = rng.dirichlet(np.ones(g.m))
        x[rng.random(g.m) < 0.4] = 0.0
        if x.sum() > 0:
            pts.append(x / x.sum())
            pts.append(np.where(x == 0, -0.0, x / x.sum()))  # the fold's sums are never -0.0
    for _ in range(30):
        x = rng.integers(0, 4, g.m).astype(float)
        if x.sum() > 0:
            pts.append(x / x.sum())
    for size in (1e-20, 1e-17, 1e-12, 1e-9, 0.05, 0.3):
        for _ in range(8):
            x = rng.dirichlet(np.ones(g.m))
            neg = rng.choice(g.m, size=rng.integers(1, 3), replace=False)
            x[neg] = -size * rng.random(len(neg))
            rest = np.ones(g.m, dtype=bool)
            rest[neg] = False
            x[rest] *= (1.0 - x[neg].sum()) / x[rest].sum()
            pts.append(x)
    return pts


ORACLE_GRAPHS = [
    (path_graph(4), None),
    (cycle_graph(4), None),
    (cycle_graph(5), None),
    (star_graph(4), None),
    (complete_graph(4), None),
    (complete_graph(5), None),
    (complete_graph(6), None),
    (build_graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)]), None),
    (complete_graph(4), [0.1, 0.2, 0.3, 0.4]),
]
ORACLE_IDS = ["P4", "C4", "C5", "S4", "K4", "K5", "K6", "triangle-tail", "K4-weighted"]


@pytest.mark.parametrize("g, weights", ORACLE_GRAPHS, ids=ORACLE_IDS)
def test_family_min_slack_matches_fold(g, weights):
    assert not _constraints(g, _law(g, weights)).exhaustive
    for x in oracle_points(g, g.m):
        got, want = min_slack(g, x, weights), fold_min_slack(g, x, weights)
        assert got[1] == want[1], x
        assert got[0] == want[0] and math.copysign(1, got[0]) == math.copysign(1, want[0]), x


@pytest.mark.parametrize("g, weights", ORACLE_GRAPHS, ids=ORACLE_IDS)
def test_family_row_slacks_match_slacks(g, weights):
    # the batched slacks of many points carry the bits, signed zeros included,
    # of the slacks of each point alone
    c = _constraints(g, _law(g, weights))
    points = np.array(oracle_points(g, g.m + 3))
    got = c.row_slacks(points)
    want = np.array([c.slacks(x) for x in points])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # as do the rows of one point and of none
    assert np.array_equal(c.row_slacks(points[:1]), want[:1])
    assert c.row_slacks(points[:0]).shape == (0, len(c.d))


@pytest.mark.parametrize("g, weights", ORACLE_GRAPHS[:-1], ids=ORACLE_IDS[:-1])
def test_ray_exit_rows_match_ray_exit(g, weights):
    # every settled row carries ray_exit's bits; rows from outside the region,
    # rows with no exit and rays toward points with zeros (exits with zero
    # entries, where ray_exit may ask the fold) are left unsettled
    points = np.array(oracle_points(g, g.m + 4))
    origins = np.concatenate([points, 0.5 * points + 0.5 * x_star(g)])
    settled = 0
    for u in points[:: len(points) // 6] - x_star(g):
        y, ok = ray_exit_rows(g, u)(origins)
        for x, row, good in zip(origins, y, ok):
            if good:
                assert np.array_equal(row, ray_exit(g, x, u)[0]), x
        settled += int(ok.sum())
        assert not ok[: len(points)][[min_slack(g, x)[0] <= 0 for x in points]].any()
    assert 0 < settled < 6 * len(origins)
    y, ok = ray_exit_rows(g, np.zeros(g.m))(origins)  # no slack drops
    assert not ok.any()


@pytest.mark.parametrize("g, weights", ORACLE_GRAPHS[:-1], ids=ORACLE_IDS[:-1])
def test_min_slack_rows_match_min_slack(g, weights):
    # signed zeros and negative entries included
    points = np.array(oracle_points(g, g.m + 5))
    want = [min_slack(g, x)[0] for x in points]
    got = min_slack_rows(g, points)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert min_slack_rows(g, points[:0]).shape == (0,)


@pytest.mark.parametrize("g, weights", ORACLE_GRAPHS[:-1], ids=ORACLE_IDS[:-1])
def test_family_ray_exit_and_clip_match_fold(g, weights):
    xs = x_star(g)
    for x in oracle_points(g, g.m + 1):
        want = fold_ray_exit(g, xs, x - xs)
        if want is None:
            with pytest.raises(NoExit):
                ray_exit(g, xs, x - xs)
        else:
            y, t, face = ray_exit(g, xs, x - xs)
            assert np.array_equal(y, want[0]) and t == want[1] and face == want[2], x
        assert np.array_equal(clip_to_region(g, x), fold_clip(g, x)), x


@pytest.mark.parametrize("g, weights", ORACLE_GRAPHS[:-1], ids=ORACLE_IDS[:-1])
def test_family_boundary_distance_matches_fold(g, weights):
    c = _constraints(g, _law(g, None))
    for x in oracle_points(g, g.m + 2):
        if x.min() < -1e-9:
            continue
        want = fold_distance(g, x)
        assert abs(boundary_distance(g, x) - want) <= 2.2e-16, x
        got = _vertex_set_distance(g, c, x)  # the family path, whatever the size
        if g.m == 3:
            assert got == want, x
        assert abs(got - want) <= 2.2e-16, x


def test_family_sizes():
    # m singles plus the distinct E(S) != E: far fewer than 2^m - 2
    assert len(_constraints(complete_graph(5), _law(complete_graph(5), None)).masks) == 35
    assert len(_constraints(complete_graph(6), _law(complete_graph(6), None)).masks) == 71
    p4 = path_graph(4)
    assert _constraints(p4, _law(p4, None)).masks == tuple(range(1, 7))


def test_ray_exit_from_a_non_interior_origin_tries_every_subset(c4, simplex_sampler):
    # from outside the region the first exit is not a region point, so the
    # family does not decide it; ray_exit then falls back to the fold
    rng = np.random.default_rng(81)
    outside = [x for x in simplex_sampler(c4.m, 400, 82) if min_slack(c4, x)[0] <= 0]
    assert len(outside) > 20
    for origin in outside[:40]:
        d = rng.normal(size=c4.m)
        d -= d.mean()
        want = fold_ray_exit(c4, origin, d)
        if want is None:
            continue
        y, t, face = ray_exit(c4, origin, d)
        assert np.array_equal(y, want[0]) and t == want[1] and face == want[2]


def test_k8_classify_agrees_with_flow():
    # 28 edges: past the edge-subset cap, but 8 vertices give 274 constraints
    k8 = complete_graph(8)
    assert k8.m == 28
    xs = x_star(k8)
    assert classify_point(k8, xs).kind is RegionKind.INTERIOR_REACHABLE
    assert boundary_distance(k8, xs) > 0
    rng = np.random.default_rng(88)
    kinds = set()
    for x in [xs] + list(rng.dirichlet(np.ones(k8.m), 60)):
        r = classify_point(k8, x)
        _, kernel = membership_flow(k8, x)
        assert (r.kind is not RegionKind.INACCESSIBLE) == (kernel is not None)
        assert (boundary_distance(k8, x) >= 0) == (r.slack >= 0)
        kinds.add(r.kind)
    assert kinds == {RegionKind.INTERIOR_REACHABLE, RegionKind.INACCESSIBLE}


def test_k8_ray_exit_needs_an_interior_origin():
    from seqassign.errors import SubsetCapExceeded

    k8 = complete_graph(8)
    xs = x_star(k8)
    x = np.random.default_rng(89).dirichlet(np.ones(k8.m))
    y, t, face = ray_exit(k8, xs, x - xs)
    assert t > 0 and abs(min_slack(k8, y)[0]) < 1e-12
    assert np.array_equal(clip_to_region(k8, x), x) == (min_slack(k8, x)[0] >= 0)
    with pytest.raises(SubsetCapExceeded):  # the fold would need 2^28 subsets
        ray_exit(k8, y, x - xs)


def test_family_over_the_byte_ceiling_raises_before_allocating():
    import tracemalloc

    from seqassign.errors import SubsetCapExceeded
    from seqassign.geometry import FAMILY_BYTES, _family_bytes

    g = complete_graph(20)  # 2^20 vertex sets of up to 189 edges, 190 edges
    assert g.k <= 24 and _family_bytes(g.k, g.m) > FAMILY_BYTES
    x = np.full(g.m, 1 / g.m)
    tracemalloc.start()
    try:
        for call in (min_slack, boundary_distance, clip_to_region):
            with pytest.raises(SubsetCapExceeded):
                call(g, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sparse_graph_past_the_family_ceiling_uses_the_fold():
    # the cycle on 20 vertices has 20 edges: its vertex-set family would be
    # larger than the 2^20 edge subsets, so the fold serves it
    g = cycle_graph(20)
    assert _constraints(g, _law(g, None)).exhaustive
    x = x_star(g)
    assert min_slack(g, x) == fold_min_slack(g, x)
    # the row forms: each minimum slack from min_slack, and no exit settled
    rows = np.array([x, np.roll(np.arange(20.0), 3) / 190])
    assert np.array_equal(min_slack_rows(g, rows), [min_slack(g, r)[0] for r in rows])
    assert not ray_exit_rows(g, rows[1] - x)(rows)[1].any()
