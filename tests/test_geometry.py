import math

import numpy as np
import pytest

from seqassign.errors import EmptyOrFullSubset, NoExit, OutsideSimplex
from seqassign.geometry import (
    RegionKind,
    all_slacks,
    boundary_distance,
    classify_point,
    clip_to_region,
    face_functional,
    face_scale,
    face_values,
    kappa,
    membership_flow,
    min_slack,
    ray_exit,
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


def test_face_functional_values(p4):
    ff = face_functional(p4, 0b001)
    assert ff.a == pytest.approx(2 / math.sqrt(6))
    assert ff.b == pytest.approx(1 / math.sqrt(6))
    assert ff.scale == pytest.approx(SQ32)
    ff2 = face_functional(p4, 0b011)
    assert ff2.a == pytest.approx(1 / math.sqrt(6))
    assert ff2.b == pytest.approx(2 / math.sqrt(6))
    assert ff2.scale == pytest.approx(SQ32)


def test_face_functional_four_edges(c4):
    ff = face_functional(c4, 0b0011)
    assert ff.a == pytest.approx(0.5)
    assert ff.b == pytest.approx(0.5)
    assert ff.scale == pytest.approx(1.0)


def test_face_functional_invariants(c4, k4):
    for g in (c4, k4):
        for F in range(1, (1 << g.m) - 1):
            ff = face_functional(g, F)
            f = subset_size(F)
            assert ff.a * f == pytest.approx(ff.b * (g.m - f), abs=1e-12)
            assert ff.a**2 * f + ff.b**2 * (g.m - f) == pytest.approx(1.0, abs=1e-12)


def test_face_functional_rejects(p4):
    with pytest.raises(EmptyOrFullSubset):
        face_functional(p4, 0)
    with pytest.raises(EmptyOrFullSubset):
        face_functional(p4, p4.full_mask())


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
        assert 0 < face < c4.full_mask()


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
