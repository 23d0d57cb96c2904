"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import math
import time

import numpy as np

from seqassign.geometry import (
    boundary_distance,
    clip_to_region,
    membership_flow,
    min_slack,
    uniform_weights,
    x_star,
)
from seqassign.graph import subset_size
from seqassign.simulate import (
    child_rng,
    deviation_tail,
    estimate,
    play,
    trace_diagnostics,
    wilson_interval,
)
from seqassign.strategies import (
    Stage1Steer,
    SteerExact,
    SteerPlan,
    TableStrategy,
    ode_trajectory,
)
from seqassign.values import (
    argmax_config,
    compute_table,
    layer_size,
    rank_config,
    required_bytes,
    round_to_config,
    slice_maxima,
    value_at,
)

from conftest import brute_force, compositions, exact_step_mean, unrank_config


def report(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_phase_diagram_reproduction(p4):
    t0 = time.perf_counter()
    table = compute_table(p4, 200, memory_budget=1 << 30)
    cfg, grid_max = argmax_config(table, 200)
    elapsed = time.perf_counter() - t0
    bytes_needed = required_bytes(3, 200)
    m_frac, l_frac = cfg[0] / 200, cfg[2] / 200
    ok = (
        abs(grid_max - 0.2583299) <= 5e-7
        and 0.25 < m_frac < 0.5
        and 0.25 < l_frac < 0.5
        and elapsed <= 60.0
        and bytes_needed <= 1 << 30
    )
    report(
        1,
        ok,
        f"grid max {grid_max:.9f} (target 0.2583299 +- 5e-7), argmax "
        f"{cfg.tolist()} at ({m_frac}, {l_frac}) inside (1/4, 1/2)^2, "
        f"{elapsed:.1f}s <= 60s, {bytes_needed / 1e6:.0f} MB <= 1 GB",
    )


def test_criterion_02_oracle_equivalence(p4, triangle, k13, c4):
    worst = 0.0
    states = 0
    for g in (p4, triangle, k13, c4):
        table = compute_table(g, 6)
        for total in range(7):
            for cfg in compositions(total, g.m):
                gap = abs(value_at(table, cfg) - brute_force(g, cfg))
                worst = max(worst, gap)
                states += 1
    p4_table = compute_table(p4, 3)
    tri_table = compute_table(triangle, 3)
    hands = (
        value_at(p4_table, [1, 0, 0]) == 0.5
        and value_at(p4_table, [1, 1, 1]) == 7 / 16
        and abs(value_at(tri_table, [1, 1, 1]) - 2 / 3) < 1e-15
    )
    ok = worst <= 1e-12 and hands
    report(
        2,
        ok,
        f"{states} configs across 4 graphs, max |DP - recursive oracle| = "
        f"{worst:.2e} <= 1e-12; hand values 1/2, 7/16, 2/3 reproduced",
    )


def test_criterion_03_region_duality(p4, triangle, k13, c4, k4, simplex_sampler):
    graphs = [(p4, 101), (triangle, 102), (k13, 103), (c4, 104), (k4, 105)]
    points = kernels = 0
    worst_defect = 0.0
    for g, seed in graphs:
        w = uniform_weights(g.k)
        for x in simplex_sampler(g.m, 10_000, seed):
            enum_in = min_slack(g, x)[0] >= -1e-9
            value, kernel = membership_flow(g, x)
            flow_in = kernel is not None
            assert enum_in == flow_in, (g.edges, x.tolist())
            points += 1
            if kernel is not None:
                kernels += 1
                defect = max(
                    np.abs(kernel.q.sum(axis=1) - 1).max(),
                    np.abs(w @ kernel.q - x).max(),
                    max(
                        abs(kernel.q[v - 1, e])
                        for v in range(1, g.k + 1)
                        for e in range(g.m)
                        if e not in g.incidence[v - 1]
                    ),
                )
                worst_defect = max(worst_defect, defect)
    ok = points == 50_000 and worst_defect <= 1e-9
    report(
        3,
        ok,
        f"{points} points on 5 graphs: enumeration == flow everywhere; "
        f"{kernels} kernels, worst condition defect {worst_defect:.2e} <= 1e-9",
    )


def test_criterion_04_martingale_identity(p4, triangle, c4, p4_table):
    rng = np.random.default_rng(404)
    checked = 0

    def recheck(g, table, cfg, r, t):
        prev = table.layers[t - 1]
        acc = 0.0
        for v in range(1, g.k + 1):
            best = -1.0
            for e in g.incidence[v - 1]:
                if cfg[e] > 0:
                    child = cfg.copy()
                    child[e] -= 1
                    val = prev[rank_config(child)]
                    if val > best:
                        best = val
            acc += table.weights[v - 1] * (0.0 if best < 0.0 else best)
        return acc == table.layers[t][r]

    for g in (triangle, c4):
        table = compute_table(g, 8)
        for t in range(1, 9):
            for r, cfg in enumerate(compositions(t, g.m)):
                assert recheck(g, table, cfg, r, t)
                checked += 1
    for _ in range(100_000):
        t = int(rng.integers(1, 201))
        r = int(rng.integers(layer_size(t, 3)))
        cfg = np.array(unrank_config(r, t, 3))
        assert recheck(p4, p4_table, cfg, r, t)
        checked += 1
    report(
        4,
        True,
        f"{checked} states bit-exactly satisfy the optimality recursion "
        f"recomputed from the stored layers",
    )


def test_criterion_05_concentration_bound(p4, p4_table):
    x = np.array([0.15, 0.35, 0.5])
    all_n = np.arange(40, 201)
    ps_all = np.array([value_at(p4_table, round_to_config(n, x)) for n in all_n])
    bound_ok = bool(np.all(ps_all <= np.exp(-all_n * 0.01 / 4.0)))
    # fit on a grid commensurate with the rounding period of x (0.15 = 3/20)
    ns = np.arange(40, 201, 10)
    logs = np.log(np.array([value_at(p4_table, round_to_config(n, x)) for n in ns]))
    slope, intercept = np.polyfit(ns.astype(float), logs, 1)
    pred = slope * ns + intercept
    r2 = 1.0 - ((logs - pred) ** 2).sum() / ((logs - logs.mean()) ** 2).sum()
    ok = bound_ok and slope < 0 and r2 >= 0.99
    report(
        5,
        ok,
        f"p <= exp(-0.0025 n) for all 161 integers n in [40,200]; fitted "
        f"log-slope {slope:.5f} < 0 with R^2 = {r2:.5f} >= 0.99",
    )


def test_criterion_06_monte_carlo_consistency(p4, p4_table):
    cfg = round_to_config(60, x_star(p4))
    runs = 100_000
    est1 = estimate(p4, cfg, TableStrategy(p4_table), runs, 606)
    est2 = estimate(p4, cfg, TableStrategy(p4_table), runs, 606)
    p = value_at(p4_table, cfg)
    band = 4 * math.sqrt(p * (1 - p) / runs)
    ok = abs(est1.p_hat - p) <= band and est1.successes == est2.successes
    report(
        6,
        ok,
        f"optimal strategy at {cfg.tolist()}: |{est1.p_hat:.5f} - {p:.5f}| = "
        f"{abs(est1.p_hat - p):.5f} <= {band:.5f}; rerun bit-identical "
        f"({est1.successes} successes twice)",
    )


def test_criterion_07_steering_properties(p4):
    xs = x_star(p4)
    plan = SteerPlan(z=xs, n1=50)
    start = round_to_config(400, xs)
    q_grid = list(range(0, 21))
    curve = deviation_tail(
        p4, start, SteerExact(p4, plan), xs, 50, q_grid, runs=1500, master_seed=707
    )
    lo, _ = wilson_interval(curve.hits, curve.runs)
    nonincreasing = bool(np.all(np.diff(curve.tail) <= 1e-12))
    qs = np.array(q_grid[1:], dtype=float)
    tail = curve.tail[1:]
    positive = tail > 0
    slope = np.polyfit(qs[positive], np.log(tail[positive]), 1)[0]
    ok = lo > 0 and nonincreasing and slope < 0
    report(
        7,
        ok,
        f"exact hits {curve.hits}/{curve.runs} (95% lower bound {lo:.4f} > 0); "
        f"tail non-increasing; log-tail slope {slope:.4f} < 0 over q in [1,20]",
    )


def test_criterion_08_drift_and_supermartingale(p4, c4):
    rng = np.random.default_rng(808)
    worst = 0.0
    states = 0
    for g in (p4, c4):
        for _ in range(50):
            y = clip_to_region(g, rng.dirichlet(np.ones(g.m)))
            y = 0.5 * y + 0.5 * x_star(g)
            _, kernel = membership_flow(g, y)
            state = rng.integers(1, 40, size=g.m).astype(float)
            n = state.sum()
            x = state / n
            mean = kernel.weights @ kernel.q
            expect = x + (x - mean) / (n - 1)
            worst = max(worst, float(np.abs(exact_step_mean(g, kernel, state) - expect).max()))
            states += 1

    # stage-1 exact conditional S-increments at states visited in the
    # operating regime (first half of play, stage still active)
    xs = x_star(p4)
    x0 = np.array([0.30, 0.34, 0.36])
    cfg = round_to_config(400, x0)
    flags = 0
    sampled = 0
    for i in range(5):
        s1 = Stage1Steer(p4, xs)
        result = play(
            p4, cfg, s1, child_rng(809, i),
            steps_limit=200, trace=True,
        )
        diag = trace_diagnostics(result, stage1=s1)
        flags += len(diag.positive_drift_steps)
        sampled += result.steps_played
    ok = worst <= 1e-12 and flags == 0
    report(
        8,
        ok,
        f"drift formula exact to {worst:.2e} <= 1e-12 at {states} random "
        f"kernel states; 0 positive exact S-increments over {sampled} "
        f"stage-1 steps",
    )


def test_criterion_09_window_collapse(p4):
    table = compute_table(p4, 256)
    a_grid = [0.5 * i for i in range(1, 9)]

    def b1_curve(n):
        vals = [0.0 if hit is None else hit for hit, _, _ in slice_maxima(table, n, a_grid)]
        return np.array(vals)

    c64, c256 = b1_curve(64), b1_curve(256)
    sup_gap = float(np.abs(c64 - c256).max())
    hit4 = slice_maxima(table, 256, [4.0])[0][0]
    max_at_4 = 0.0 if hit4 is None else hit4
    ok = sup_gap <= 0.05 and max_at_4 <= math.exp(-2.0) + 0.1
    report(
        9,
        ok,
        f"B^I curves at n=64 vs n=256 agree to sup-gap {sup_gap:.4f} <= 0.05; "
        f"B^I max at A=4 is {max_at_4:.2e} <= exp(-2)+0.1 = {math.exp(-2) + 0.1:.4f}",
    )


def test_criterion_10_ode_claims(p4):
    rng = np.random.default_rng(1010)
    paths = 0
    while paths < 100:
        x0 = rng.dirichlet(np.ones(3))
        if min_slack(p4, x0)[0] >= -0.005:
            continue
        paths += 1

        def control(x):
            return clip_to_region(p4, rng.dirichlet(np.ones(3)))

        path = ode_trajectory(p4, x0, dt=0.02, T=2.0, control=control)
        mins = path.min_slack
        assert np.all(np.diff(mins) <= 1e-6), f"slack recovered on path {paths}"

    xs = x_star(p4)
    targets = 0
    worst_final = 0.0
    while targets < 10:
        tgt = rng.dirichlet(np.ones(3))
        if boundary_distance(p4, tgt) < 0.05:
            continue
        targets += 1
        path = ode_trajectory(p4, xs, target=tgt, dt=2e-3, T=20.0)
        dist = np.linalg.norm(path.points - tgt, axis=1)
        below = np.flatnonzero(dist < 1e-3)
        assert len(below) > 0, "target not reached by T=20"
        first = below[0]
        assert np.all(np.diff(dist[: first + 1]) <= 1e-12), "non-monotone approach"
        worst_final = max(worst_final, float(dist[first]))
    report(
        10,
        True,
        f"100 randomized-control paths never regain face slack (tol 1e-6); "
        f"exit-point control reached 10 interior targets monotonically to "
        f"< 1e-3 (worst first-crossing {worst_final:.2e}) well before T=20",
    )
