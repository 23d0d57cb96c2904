import math

import numpy as np
import pytest

from seqassign.errors import DomainError, OutsideSimplex, StepTooLarge
from seqassign.geometry import (
    boundary_distance,
    classify_point,
    clip_to_region,
    membership_flow,
    min_slack,
    x_star,
    RegionKind,
)
from seqassign.graph import build_graph, complete_graph, cycle_graph, path_graph, star_graph
from seqassign.simulate import child_rng, deviation_tail, play
from seqassign.strategies import (
    FORFEIT,
    GreedyLargest,
    OutwardSteer,
    Stage1Steer,
    SteerExact,
    SteerKTarget,
    SteerPlan,
    UniformIncident,
    _draw_edge,
    _exit_point,
    _exit_rows,
    _steer_move,
    baseline_strategy,
    ode_trajectory,
    optimal_strategy,
)
from seqassign.values import compute_table, round_to_config

from conftest import exact_step_mean

# 99.9% chi-square quantiles by degrees of freedom
CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515}


def chi_square(counts, probs, total):
    expected = probs * total
    keep = expected > 0
    stat = float(((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    return stat, int(keep.sum()) - 1


# --- baselines ----------------------------------------------------------------


def test_greedy_example(p4):
    s = GreedyLargest()
    s.reset(p4, np.array([5, 2, 0]), 7)
    assert s.choose(np.array([5, 2, 0]), 7, 2, None) == 0


def test_greedy_forfeit(p4):
    s = GreedyLargest()
    s.reset(p4, np.array([1, 0, 0]), 1)
    assert s.choose(np.array([1, 0, 0]), 1, 4, None) == FORFEIT


def test_uniform_even_split(p4):
    s = UniformIncident()
    s.reset(p4, np.array([1, 1, 0]), 2)
    rng = np.random.default_rng(0)
    counts = np.zeros(3)
    n = 20000
    for _ in range(n):
        counts[s.choose(np.array([1, 1, 0]), 2, 2, rng)] += 1
    stat, df = chi_square(counts, np.array([0.5, 0.5, 0.0]), n)
    assert stat < CHI2_999[df]


def test_baseline_factory():
    assert baseline_strategy("greedy").name == "greedy"
    assert baseline_strategy("uniform").name == "uniform"
    for name in ("nope", "GreedyLargest", "UniformIncident"):
        with pytest.raises(DomainError):
            baseline_strategy(name)


def test_optimal_strategy_examples(p4):
    table = compute_table(p4, 6)
    s = optimal_strategy(table)
    s.reset(p4, np.array([1, 1, 1]), 3)
    assert s.choose(np.array([1, 1, 1]), 3, 2, None) == 1
    assert s.choose(np.array([1, 0, 0]), 1, 3, None) == FORFEIT
    assert s.choose(np.array([2, 0, 0]), 2, 1, None) == 0


# --- stage 1 -------------------------------------------------------------------


def test_stage1_immediate_done(p4):
    xs = x_star(p4)
    s = Stage1Steer(p4, xs)
    s.reset(p4, round_to_config(80, xs), 80)
    assert s.done


def test_stage1_rejects_boundary_target(p4):
    with pytest.raises(DomainError):
        Stage1Steer(p4, np.array([0.25, 0.25, 0.5]))


def test_stage1_exit_is_positive_multiple_of_u(p4):
    xs = x_star(p4)
    x0 = np.array([0.31, 0.33, 0.36])
    s = Stage1Steer(p4, xs)
    s.reset(p4, round_to_config(200, x0), 200)
    for x in (x0, 0.5 * x0 + 0.5 * xs + np.array([0.001, -0.001, 0.0])):
        y = s.current_exit(x)
        gap = y - x
        scale = gap @ s.u
        assert scale > 0
        assert np.allclose(gap, scale * s.u, atol=1e-9)


@pytest.mark.parametrize(
    "g",
    [
        path_graph(4),
        cycle_graph(4),
        complete_graph(4),
        star_graph(4),
        complete_graph(5),
        build_graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)]),
    ],
    ids=["P4", "C4", "K4", "S4", "K5", "triangle-tail"],
)
def test_exit_rows_match_exit_point(g):
    # the batched stage-1 exits of many origins along one direction carry the
    # bits of _exit_point's: interior origins, origins with zero or negative
    # entries, origins outside the region, and rays from x* toward points
    # with zeros and ties, whose exits can have zero entries
    rng = np.random.default_rng(g.m)
    xs = x_star(g)
    points = list(rng.dirichlet(np.ones(g.m), 40))
    for x in rng.dirichlet(np.ones(g.m), 200):
        x[rng.random(g.m) < 0.5] = 0.0
        if x.sum() > 0:
            points.append(x / x.sum())
    for x in rng.integers(0, 4, (200, g.m)).astype(float):
        if x.sum() > 0:
            points.append(x / x.sum())
    for x in rng.dirichlet(np.ones(g.m), 10):
        x[rng.integers(g.m)] = -1e-13
        points.append(x / x.sum())
    points = np.array(points)
    origins = np.concatenate([points, 0.5 * points + 0.5 * xs])
    for u in points[:10] - xs:
        want = np.array([_exit_point(g, x, u, fallback=x) for x in origins])
        assert np.array_equal(_exit_rows(g, u)(origins), want)
    # on K5 and the triangle with a tail, some of these exits are the fold's
    # and some are clipped back onto the region
    for target in points:
        rows = xs + np.outer([0.0, 0.25], target - xs)
        want = np.array([_exit_point(g, x, target - xs, fallback=x) for x in rows])
        assert np.array_equal(_exit_rows(g, target - xs)(rows), want)


def test_stage1_forced_kernel_state(p4):
    # at the boundary state itself the prescription is the forced kernel
    xs = x_star(p4)
    x = np.array([0.5, 0.25, 0.25])
    s = Stage1Steer(p4, xs)
    s.reset(p4, round_to_config(400, x), 400)
    y = s.current_exit(x)
    assert np.allclose(y, x, atol=1e-12)
    _, kernel = membership_flow(p4, y)
    expect = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    assert np.allclose(kernel.q, expect, atol=1e-9)


def test_stage1_supermartingale_exact(p4):
    """Exact conditional S-decrement equals the kernel drift and is >= 0 at
    states in the stage's operating regime."""
    xs = x_star(p4)
    x0 = np.array([0.30, 0.34, 0.36])
    s = Stage1Steer(p4, xs)
    cfg = round_to_config(300, x0)
    s.reset(p4, cfg, 300)
    rng = np.random.default_rng(9)
    state = cfg.astype(float)
    for t in range(120):
        rem = int(state.sum())
        x = state / rem
        if np.linalg.norm(x - xs) <= s.eps0:
            break
        y = s.current_exit(x)
        _, kernel = membership_flow(p4, np.maximum(y, 0) / np.maximum(y, 0).sum())
        mean = kernel.weights @ kernel.q
        # S(t) = <N - (n-t) z, u>; one-step expected change is -<mean - z, u>
        drift = float((mean - xs) @ s.u)
        assert drift >= -1e-12
        # exact one-step summation agrees with the kernel-mean form
        ex = exact_step_mean(p4, kernel, state)
        assert np.allclose(
            ex * (rem - 1), state - mean, atol=1e-9
        )
        e = s.choose(state.astype(np.int64), rem, int(rng.integers(1, 5)), rng)
        if e == FORFEIT:
            break
        state[e] -= 1


def test_stage1_kernel_frequencies_chi_square(p4):
    xs = x_star(p4)
    x0 = np.array([0.31, 0.30, 0.39])
    s = Stage1Steer(p4, xs)
    s.reset(p4, round_to_config(500, x0), 500)
    y = s.current_exit(x0)
    _, kernel = membership_flow(p4, y)
    rows = kernel.q.tolist()
    rng = np.random.default_rng(17)
    n = 100_000
    for v in range(1, 5):
        counts = np.zeros(3)
        for _ in range(n // 4):
            counts[_draw_edge(rows[v - 1], rng.random())] += 1
        stat, df = chi_square(counts, kernel.q[v - 1], n // 4)
        if df > 0:
            assert stat < CHI2_999[df]


class FixedUniform:
    """Generator stub whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


SAMPLER_GRAPHS = {
    "P4": path_graph(4),
    "C4": cycle_graph(4),
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "S4": star_graph(4),
    "triangle-tail": build_graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)]),
}


@pytest.mark.parametrize("name", list(SAMPLER_GRAPHS))
def test_kernel_sampler_matches_cumsum_search(name):
    g = SAMPLER_GRAPHS[name]
    rng = np.random.default_rng(g.m)
    kernels = []
    for x in rng.dirichlet(np.ones(g.m), 15):
        for y in (0.5 * x + 0.5 * x_star(g), clip_to_region(g, x)):
            _, kernel = membership_flow(g, y)
            if kernel is not None:
                kernels.append(kernel)
    assert len(kernels) > 15
    for kernel in kernels:
        rows = kernel.q.tolist()
        for v in range(1, g.k + 1):
            cums = np.cumsum(kernel.q, axis=1)[v - 1]
            us = np.concatenate(
                [[0.0], cums, np.nextafter(cums, -1.0), np.nextafter(cums, 2.0), rng.random(20)]
            )
            for u in us[(us >= 0.0) & (us < cums[-1])].tolist():
                want = int(np.searchsorted(cums, u, side="right"))
                assert _draw_edge(rows[v - 1], u) == want, (kernel.q, v, u)
            last = int(np.flatnonzero(kernel.q[v - 1] > 0)[-1])
            for u in (cums[-1], 1 - 2**-53):
                if u >= cums[-1]:
                    assert _draw_edge(rows[v - 1], u) == last


def test_kernel_sampler_overflow_stays_on_the_row(k4):
    # rows often sum a few ulps below 1; a uniform above the sum must not
    # fall through to the last edge {3, 4}, which vertices 1 and 2 lack
    top = 1 - 2**-53
    state = np.full(k4.m, 3)
    for x in np.random.default_rng(4).dirichlet(np.ones(k4.m), 200):
        _, kernel = membership_flow(k4, x)
        if kernel is None:
            continue
        rows = kernel.q.tolist()
        for v in (1, 2):
            if np.cumsum(kernel.q[v - 1])[-1] < 1:
                e = _draw_edge(rows[v - 1], top)
                assert e == np.flatnonzero(kernel.q[v - 1] > 0)[-1]
                assert e in k4.incidence[v - 1]
                assert _steer_move(k4, None, rows, state, v, FixedUniform(top)) == e
                return
    pytest.fail("no K4 kernel row sums below 1")


# --- stage 2 -------------------------------------------------------------------


def test_stage2_exit_example(p4):
    # the confinement exit: the ray from the target through the state
    xs = x_star(p4)
    y = _exit_point(p4, xs, np.array([0.35, 0.275, 0.375]) - xs)
    assert np.allclose(y, [0.25, 0.375, 0.375], atol=1e-12)


def test_stage2_inside_radius_plays_target_kernel(p4):
    # a start at the target ends stage 1 at reset, and 200 remaining steps
    # lie above the finishing window (50 + 4 * 8), so confinement plays
    xs = x_star(p4)
    s = SteerExact(p4, SteerPlan(z=xs, n1=50))
    cfg = round_to_config(200, xs)
    s.reset(p4, cfg, 200)
    _, kernel = membership_flow(p4, xs)
    rng = np.random.default_rng(23)
    n = 100_000
    for v in range(1, 5):
        counts = np.zeros(3)
        for _ in range(n // 4):
            counts[s.choose(cfg, 200, v, rng)] += 1
        stat, df = chi_square(counts, kernel.q[v - 1], n // 4)
        if df > 0:
            assert stat < CHI2_999[df]


# --- exact steering ---------------------------------------------------------------


def test_steer_plan_defaults(p4):
    xs = x_star(p4)
    plan = SteerPlan(z=xs, n1=50)
    d0, eps0, M = plan.resolved(p4)
    delta = boundary_distance(p4, xs)
    assert d0 >= math.sqrt(2) + 4 / delta
    assert eps0 == pytest.approx(delta / 8)
    assert M == 4
    assert list(plan.target_config) == [19, 12, 19]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_steer_plan_rejects_non_finite_target(bad):
    # rejected before rounding, which would warn (an error under this suite)
    with pytest.raises(OutsideSimplex):
        SteerPlan(z=[bad, 0.5, 0.5], n1=10)


def test_steer_exact_trivial_hit(p4):
    # start equal to the target with no steps to play: trivially an exact hit
    xs = x_star(p4)
    plan = SteerPlan(z=xs, n1=40)
    curve = deviation_tail(
        p4, plan.target_config, SteerExact(p4, plan), xs, 40, [0.0, 1.0], 5, 3
    )
    assert curve.hit_rate == 1.0
    assert curve.tail[0] == 0.0


def test_steer_exact_hits(p4):
    xs = x_star(p4)
    plan = SteerPlan(z=xs, n1=30)
    curve = deviation_tail(
        p4,
        round_to_config(150, xs),
        SteerExact(p4, plan),
        xs,
        30,
        list(range(0, 13, 2)),
        150,
        master_seed=41,
    )
    assert curve.hits > 0
    assert np.all(np.diff(curve.tail) <= 1e-12)


def test_steer_exact_legal_play(p4):
    # full games to the end never raise IllegalStrategyMove
    xs = x_star(p4)
    plan = SteerPlan(z=xs, n1=30)
    for i in range(5):
        play(p4, round_to_config(150, xs), SteerExact(p4, plan), child_rng(4, i))


# --- anywhere-in-region steering ---------------------------------------------------


def test_steer_k_interior_coincides_with_exact_setup(p4):
    xs = x_star(p4)
    plan = SteerPlan(z=xs, n1=30)
    s = SteerKTarget(p4, plan)
    s.reset(p4, round_to_config(240, xs), 240)
    assert s.phase == "approach"
    assert np.allclose(s.x_mid, xs)


def test_steer_k_rejects_outside(p4):
    with pytest.raises(DomainError):
        SteerKTarget(p4, SteerPlan(z=np.array([0.2, 0.3, 0.5]), n1=30))


def test_steer_k_boundary_target_hits(p4):
    # boundary target with a zero entry: edges at target are never replayed
    zb = np.array([0.5, 0.0, 0.5])
    assert classify_point(p4, zb).kind is RegionKind.BOUNDARY_K
    plan = SteerPlan(z=zb, n1=24)
    xs = x_star(p4)
    curve = deviation_tail(
        p4, round_to_config(280, xs), SteerKTarget(p4, plan), zb, 24,
        [0, 2, 4, 8], 120, master_seed=13,
    )
    assert curve.hits > 0
    assert np.all(np.diff(curve.tail) <= 1e-12)


def test_steer_k_boundary_tail_decreasing_in_q(p4):
    zb = np.array([0.25, 0.375, 0.375])
    plan = SteerPlan(z=zb, n1=30)
    xs = x_star(p4)
    curve = deviation_tail(
        p4, round_to_config(240, xs), SteerKTarget(p4, plan), zb, 30,
        [0, 1, 2, 4, 8, 16], 100, master_seed=29,
    )
    assert np.all(np.diff(curve.tail) <= 1e-12)
    assert curve.tail[-1] < curve.tail[0]


def test_steer_k_shifted_phase_confines(c4, monkeypatch):
    # a long shifted phase strays past radius d0 from the shifted line; the
    # move then comes from the kernel of the boundary exit of the ray from w
    import seqassign.strategies as strategies

    z = np.array([0.125, 0.125, 0.375, 0.375])
    s = SteerKTarget(c4, SteerPlan(z=z, n1=400))
    exits = []

    def spy(g, origin, direction, fallback=None):
        y = real(g, origin, direction, fallback)
        if origin is s.w:
            exits.append(y)
        return y

    real = strategies._exit_point
    monkeypatch.setattr(strategies, "_exit_point", spy)
    result = play(c4, round_to_config(1600, x_star(c4)), s, child_rng(5, 4))
    assert result.steps_played > 1200 and s.phase == "shifted"
    assert len(exits) >= 5
    for y in exits:
        assert abs(min_slack(c4, y)[0]) < 1e-12


def test_steer_k_shifted_target_with_a_zero_share(c4):
    # the shifted target is clipped onto the boundary, where an edge can sit
    # at share 0; it needs no finishing steps, so M comes from the smallest
    # positive share
    s = SteerKTarget(c4, SteerPlan(z=(0.25, 0.1, 0.15, 0.5), n1=8))
    play(c4, [12, 10, 8, 2], s, child_rng(0, 2))
    assert s.phase == "shifted" and s.w[3] == 0.0
    assert s.M == math.ceil(1.0 / s.w[:3].min())


def test_steering_on_four_edge_graph(c4):
    # nothing in the stage machinery is specific to three-edge graphs
    xs = x_star(c4)
    plan = SteerPlan(z=xs, n1=24)
    curve = deviation_tail(
        c4, round_to_config(160, xs), SteerExact(c4, plan), xs, 24,
        [0, 2, 4, 8], 80, master_seed=19,
    )
    assert curve.hits > 0
    assert np.all(np.diff(curve.tail) <= 1e-12)


def test_calibrate_q0_terminates(p4):
    from seqassign.experiments import calibrate_q0

    xs = x_star(p4)
    q0 = calibrate_q0(p4, xs, 20, round_to_config(100, xs), runs=40, seed=2)
    assert q0 >= 2
    # the doubling rule's acceptance condition holds at the returned value
    plan = SteerPlan(z=xs, n1=20, q0=q0)
    curve = deviation_tail(
        p4, round_to_config(100, xs), SteerExact(p4, plan), xs, 20,
        [q0 / 4.0], 40, 2,
    )
    assert curve.tail[0] <= 0.5


# --- outward drift ------------------------------------------------------------------


def test_outward_immediate_stop(p4):
    xs = x_star(p4)
    ow = OutwardSteer(p4)
    ow.reset(p4, round_to_config(100, xs), 100)
    assert ow.reached_step == 0


def test_outward_boundary_start(p4):
    # (2, 3, 3)/8 lies on the boundary, so the ray from x* through it exits at
    # the start itself; the drift direction is then x0 - x*, with no 0/0
    start = np.array([2, 3, 3])
    x0 = start / 8
    assert min_slack(p4, x0)[0] == 0.0
    ow = OutwardSteer(p4, amplitude=0.0)
    ow.reset(p4, start, 8)
    assert ow.reached_step is None
    gap = x0 - x_star(p4)
    assert np.allclose(ow.u, gap / np.linalg.norm(gap), atol=1e-15)
    # the suite turns a RuntimeWarning into an error, so a 0/0 would fail here
    assert play(p4, start, ow, 3).steps_played > 0


def test_outward_amplitude_check(p4):
    y0 = np.array([0.25, 0.375, 0.375])
    xs = x_star(p4)
    x0 = y0 + 0.05 * (xs - y0)  # slack 0.00625, far below 4/sqrt(400)=0.2
    ow = OutwardSteer(p4, amplitude=4.0)
    with pytest.raises(DomainError):
        play(p4, round_to_config(400, x0), ow, 1)


def test_outward_success_increases_with_amplitude(p4):
    xs = x_star(p4)
    y0 = np.array([0.25, 0.375, 0.375])
    n, runs, budget = 400, 50, 80
    freqs = []
    for amp in (0.5, 1.0, 2.0):
        start = y0 + 8.0 * (amp + 0.3) / math.sqrt(n) * (xs - y0)
        cfg = round_to_config(n, start)
        succ = 0
        for i in range(runs):
            ow = OutwardSteer(p4, amplitude=amp)
            play(p4, cfg, ow, child_rng(77, i), steps_limit=budget)
            succ += int(ow.reached_step is not None)
        freqs.append(succ / runs)
    assert freqs[0] <= freqs[1] <= freqs[2]
    assert freqs[2] > freqs[0]


# --- controlled ODE -------------------------------------------------------------------


def test_ode_stationary_at_target(p4):
    xs = x_star(p4)
    path = ode_trajectory(p4, xs, target=xs, dt=0.01, T=1.0)
    assert np.abs(path.points - xs).max() < 1e-9


def test_ode_step_too_large(p4):
    xs = x_star(p4)
    with pytest.raises(StepTooLarge):
        ode_trajectory(p4, np.array([0.2, 0.3, 0.5]), target=xs, dt=50.0, T=100.0)


def test_ode_min_slack_never_recovers(p4):
    # started outside the region, any admissible control keeps it outside
    rng = np.random.default_rng(8)
    starts = 0
    while starts < 20:
        x0 = rng.dirichlet(np.ones(3))
        if min_slack(p4, x0)[0] >= -0.01:
            continue
        starts += 1

        def control(x):
            return clip_to_region(p4, rng.dirichlet(np.ones(3)))

        path = ode_trajectory(p4, x0, dt=0.01, T=2.0, control=control)
        mins = path.slacks.min(axis=1)
        assert np.all(np.diff(mins) <= 1e-6)


def test_ode_exit_control_converges(p4):
    xs = x_star(p4)
    rng = np.random.default_rng(14)
    done = 0
    while done < 3:
        target = rng.dirichlet(np.ones(3))
        if boundary_distance(p4, target) < 0.05:
            continue
        done += 1
        path = ode_trajectory(p4, xs, target=target, dt=2e-3, T=6.0)
        dist = np.linalg.norm(path.points - target, axis=1)
        below = np.flatnonzero(dist < 1e-3)
        assert len(below) > 0
        first = below[0]
        assert np.all(np.diff(dist[: first + 1]) <= 1e-12)


# --- drift identity --------------------------------------------------------------------


def test_drift_formula_exact(p4, c4):
    rng = np.random.default_rng(2)
    for g in (p4, c4):
        for _ in range(25):
            y = clip_to_region(g, rng.dirichlet(np.ones(g.m)))
            y = 0.5 * y + 0.5 * x_star(g)
            _, kernel = membership_flow(g, y)
            assert kernel is not None
            state = rng.integers(1, 30, size=g.m).astype(float)
            n = state.sum()
            x = state / n
            mean = kernel.weights @ kernel.q
            expect = x + (x - mean) / (n - 1)
            got = exact_step_mean(g, kernel, state)
            assert np.abs(got - expect).max() < 1e-12
