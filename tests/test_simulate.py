import math

import numpy as np
import pytest

from seqassign import simulate
from seqassign.errors import DomainError, IllegalStrategyMove, LayerOutOfRange, NegativeEntry
from seqassign.geometry import face_scale, x_star
from seqassign.simulate import (
    TraceSpec,
    _child_uniforms,
    child_rng,
    deviation_tail,
    estimate,
    play,
    replay_states,
    trace_diagnostics,
    wilson_interval,
)
from seqassign.strategies import (
    FORFEIT,
    GreedyLargest,
    OutwardSteer,
    Stage1Steer,
    Stage2Steer,
    Strategy,
    TableStrategy,
    UniformIncident,
    SteerExact,
    SteerKTarget,
    SteerPlan,
)
from seqassign.values import compute_table, round_to_config, value_at


class FirstPositive(Strategy):
    name = "first-positive"

    def reset(self, graph, config, total):
        self._g = graph

    def choose(self, state, remaining, vertex, rng):
        for e in self._g.incidence[vertex - 1]:
            if state[e] > 0:
                return e
        return FORFEIT


class BadForfeit(Strategy):
    name = "bad-forfeit"

    def choose(self, state, remaining, vertex, rng):
        return FORFEIT


class BadEdge(Strategy):
    name = "bad-edge"

    def choose(self, state, remaining, vertex, rng):
        return 2  # often not incident / empty


def test_zero_config_wins_immediately(p4):
    result = play(p4, [0, 0, 0], FirstPositive(), 1)
    assert result.won and result.steps_played == 0 and result.forfeit_step is None


def test_single_unit_game_matches_first_draw(p4):
    # (1,0,0): the game is won iff the first drawn vertex is 1 or 2
    for seed in range(40):
        rng = child_rng(99, seed)
        first = int(np.searchsorted(np.cumsum(np.full(4, 0.25)), rng.random(), side="right")) + 1
        result = play(p4, [1, 0, 0], FirstPositive(), child_rng(99, seed))
        assert result.won == (first in (1, 2))
        if not result.won:
            assert result.forfeit_step == 0


def test_single_unit_estimate(p4):
    est = estimate(p4, [1, 0, 0], FirstPositive(), 100_000, 5)
    assert abs(est.p_hat - 0.5) < 0.006  # 4 sigma around the hand value 1/2


def test_forfeit_guard(p4):
    with pytest.raises(IllegalStrategyMove):
        play(p4, [1, 1, 1], BadForfeit(), 0)


def test_illegal_edge_guard(p4):
    with pytest.raises(IllegalStrategyMove):
        play(p4, [2, 2, 0], BadEdge(), 0)


def test_conservation(p4):
    for seed in range(30):
        result = play(p4, [3, 4, 3], FirstPositive(), child_rng(1, seed))
        if result.forfeit_step is None:
            assert result.steps_played + result.final.sum() == 10


def test_reproducibility(p4):
    table = compute_table(p4, 30)
    cfg = round_to_config(30, x_star(p4))
    a = estimate(p4, cfg, TableStrategy(table), 500, 77)
    b = estimate(p4, cfg, TableStrategy(table), 500, 77)
    assert a.successes == b.successes
    c = estimate(p4, cfg, UniformIncident(), 500, 77)
    d = estimate(p4, cfg, UniformIncident(), 500, 77)
    assert c.successes == d.successes


W_P4 = np.array([0.1, 0.2, 0.3, 0.4])


def test_batch_matches_serial(p4, c4, k4, k13):
    table = compute_table(p4, 24)
    cfg = round_to_config(24, x_star(p4))
    serial = sum(
        int(play(p4, cfg, TableStrategy(table), child_rng(123, i)).won)
        for i in range(300)
    )
    batch = estimate(p4, cfg, TableStrategy(table), 300, 123).successes
    assert serial == batch
    # both batched players, on every graph family and under a non-uniform law
    cases = [
        (p4, 24, None, 123),
        (c4, 16, None, 5),
        (k4, 12, None, 6),
        (k13, 15, None, 7),
        (p4, 20, W_P4, 8),
    ]
    for g, n, weights, seed in cases:
        table = compute_table(g, n, weights=weights)
        cfg = round_to_config(n, x_star(g))
        for strategy in (TableStrategy(table), GreedyLargest()):
            serial = sum(
                int(play(g, cfg, strategy, child_rng(seed, i), weights).won)
                for i in range(300)
            )
            batch = estimate(g, cfg, strategy, 300, seed, weights).successes
            assert serial == batch, (g.edges, strategy.name, weights)
    # greedy forfeits at the first draw of vertex 3 or 4
    serial = sum(
        int(play(p4, [6, 0, 0], GreedyLargest(), child_rng(9, i)).won) for i in range(300)
    )
    assert serial == estimate(p4, [6, 0, 0], GreedyLargest(), 300, 9).successes


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**96 + 1, 2**128 - 1, 2**200 + 12345]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_child_uniforms_match_numpy(seed):
    # a spawn index of 2**32 or more is two uint32 words; a seed of more than
    # four words takes SeedSequence's extra mixing loop
    for lo, hi in [(0, 100), (2**32 - 50, 2**32 + 50)]:
        for total in (0, 1, 60):
            want = np.stack([child_rng(seed, i).random(total) for i in range(lo, hi)])
            got = _child_uniforms(seed, lo, hi, total)
            assert got.shape == want.shape
            assert np.array_equal(got, want), (seed, lo, total)


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the seed was checked")


@pytest.mark.parametrize(
    "bad, error", [(-1, ValueError), (1.5, TypeError), ("3", TypeError), ([1, 2], TypeError)]
)
def test_bad_seed_rejected_before_any_work(p4, monkeypatch, bad, error):
    table = compute_table(p4, 6)
    for name in ("play", "_table_player", "_greedy_player", "_child_uniforms"):
        monkeypatch.setattr(simulate, name, _no_work)
    for strategy in (TableStrategy(table), GreedyLargest(), UniformIncident()):
        with pytest.raises(error) as info:
            estimate(p4, [2, 2, 2], strategy, 10, bad)
        if error is ValueError:
            assert str(info.value) == "expected non-negative integer"
    xs = x_star(p4)
    with pytest.raises(error):
        deviation_tail(p4, [2, 2, 2], GreedyLargest(), xs, 2, [0, 1], 10, bad)


def _steering_strategies(p4):
    xs = x_star(p4)
    return [
        Stage1Steer(p4, xs),
        Stage2Steer(p4, xs),
        SteerExact(p4, SteerPlan(z=xs, n1=20)),
        SteerKTarget(p4, SteerPlan(z=np.array([0.25, 0.375, 0.375]), n1=24)),
        OutwardSteer(p4),
    ]


def test_play_rejects_steering_under_weights(p4):
    cfg = round_to_config(60, x_star(p4))
    for strategy in _steering_strategies(p4):
        with pytest.raises(DomainError, match="uniform vertex law"):
            play(p4, cfg, strategy, child_rng(1, 0), W_P4, steps_limit=5)
        # an explicit uniform law is the default law
        result = play(p4, cfg, strategy, child_rng(1, 0), np.full(4, 0.25), steps_limit=5)
        assert result.steps_played == 5


def test_estimate_rejects_steering_under_weights(p4):
    cfg = round_to_config(60, x_star(p4))
    for strategy in _steering_strategies(p4):
        with pytest.raises(DomainError, match="uniform vertex law"):
            estimate(p4, cfg, strategy, 3, 1, W_P4)
    # greedy accepts any law
    assert estimate(p4, cfg, GreedyLargest(), 3, 1, W_P4).runs == 3


def test_deviation_tail_rejects_steering_under_weights(p4):
    xs = x_star(p4)
    cfg = round_to_config(60, xs)
    for strategy in _steering_strategies(p4):
        with pytest.raises(DomainError, match="uniform vertex law"):
            deviation_tail(p4, cfg, strategy, xs, 24, [0, 1], 2, 1, W_P4)


def test_optimal_strategy_consistency(p4, p4_table):
    cfg = round_to_config(60, x_star(p4))
    runs = 20000
    est = estimate(p4, cfg, TableStrategy(p4_table), runs, 11)
    p = value_at(p4_table, cfg)
    assert abs(est.p_hat - p) <= 5 * math.sqrt(p * (1 - p) / runs)
    assert est.ci_lo <= p <= est.ci_hi


def test_wilson_interval():
    lo, hi = wilson_interval(0, 1000)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(3.84 / (1000 + 3.84), rel=0.01)
    lo, hi = wilson_interval(500, 1000)
    assert lo < 0.5 < hi
    assert 0.0 <= lo and hi <= 1.0
    lo, hi = wilson_interval(1000, 1000)
    assert hi == 1.0


def test_estimate_json_record(p4):
    est = estimate(p4, [1, 0, 0], FirstPositive(), 10, 3)
    record = est.to_json(p4, [1, 0, 0], "first-positive", 3)
    assert set(record) == {
        "graph_hash", "config", "strategy", "runs", "successes",
        "p_hat", "ci_lo", "ci_hi", "seed",
    }


# --- deviation tails -----------------------------------------------------------


def test_tail_trivia(p4):
    xs = x_star(p4)
    plan = SteerPlan(z=xs, n1=20)
    n = 100
    curve = deviation_tail(
        p4, round_to_config(n, xs), SteerExact(p4, plan), xs, 20,
        [0, 1, 2 * n], 60, 17,
    )
    # q = 0 row is the complement of the exact-hit rate
    assert curve.tail[0] == pytest.approx(1.0 - curve.hit_rate)
    # beyond the diameter the tail vanishes
    assert curve.tail[-1] == 0.0
    assert np.all(np.diff(curve.tail) <= 1e-12)


def test_tail_reproducible(p4):
    xs = x_star(p4)
    plan = SteerPlan(z=xs, n1=20)
    args = (p4, round_to_config(100, xs), SteerExact(p4, plan), xs, 20, [0, 4, 8], 40, 23)
    a = deviation_tail(*args)
    b = deviation_tail(*args)
    assert np.array_equal(a.tail, b.tail) and a.hits == b.hits


# --- traces and diagnostics ------------------------------------------------------


def test_trace_lengths_and_replay(p4):
    xs = x_star(p4)
    u = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
    spec = TraceSpec(z=xs, u=u, record_faces=True)
    result = play(p4, [10, 8, 10], FirstPositive(), 3, trace_spec=spec)
    n = result.steps_played
    assert len(result.trace.vertices) == n
    assert len(result.trace.edges) == n
    assert len(result.trace.dev) == n
    states = replay_states(result)
    assert np.array_equal(states[-1], result.final)
    assert states[0].sum() == 28
    # recorded deviation matches the replayed states
    for t in range(n):
        rem = 28 - (t + 1)
        expect = np.linalg.norm(states[t + 1] - rem * xs)
        assert result.trace.dev[t] == pytest.approx(expect, abs=1e-12)


def test_optimal_value_process_is_martingale_empirically(p4):
    table = compute_table(p4, 40)
    cfg = round_to_config(40, x_star(p4))
    incs = []
    for i in range(150):
        result = play(
            p4, cfg, TableStrategy(table), child_rng(31, i),
            trace_spec=TraceSpec(),
        )
        states = replay_states(result)
        ps = [value_at(table, s) for s in states]
        # a forfeit is the martingale's terminal jump to reward zero
        if result.forfeit_step is not None:
            ps.append(0.0)
        incs.extend(np.diff(ps))
    incs = np.array(incs)
    # per-step martingale increments average to zero
    assert abs(incs.mean()) < 5 * incs.std() / math.sqrt(len(incs))


def test_face_increment_bound(p4):
    # per-step moves shift each face functional by at most 2 * max scale
    max_scale = max(face_scale(3, f) for f in (1, 2))
    result = play(
        p4, [20, 14, 20], GreedyLargest(), 7,
        trace_spec=TraceSpec(record_faces=True),
    )
    dz = np.abs(np.diff(result.trace.z_values))
    assert dz.max() <= 2 * max_scale + 1e-9


def test_stage1_diagnostics_clean_in_regime(p4):
    xs = x_star(p4)
    x0 = np.array([0.30, 0.34, 0.36])
    cfg = round_to_config(400, x0)
    u = (cfg / 400 - xs) / np.linalg.norm(cfg / 400 - xs)
    for i in range(3):
        s1 = Stage1Steer(p4, xs, x0=x0)
        result = play(
            p4, cfg, s1, child_rng(57, i),
            steps_limit=200, trace_spec=TraceSpec(z=xs, u=u),
        )
        diag = trace_diagnostics(p4, result, stage1=s1)
        assert diag.positive_drift_steps == []
        assert diag.s_increments is not None


def test_weighted_law_end_to_end(p4):
    # non-uniform vertex law: batched MC against the weighted table
    w = np.array([0.4, 0.3, 0.2, 0.1])
    table = compute_table(p4, 12, weights=w)
    cfg = [5, 3, 4]
    p = value_at(table, cfg)
    est = estimate(p4, cfg, TableStrategy(table), 40000, 9, weights=w)
    assert abs(est.p_hat - p) <= 4 * math.sqrt(p * (1 - p) / 40000)


def test_diagnostics_with_table(p4):
    table = compute_table(p4, 30)
    cfg = round_to_config(30, x_star(p4))
    result = play(
        p4, cfg, TableStrategy(table), child_rng(3, 0), trace_spec=TraceSpec()
    )
    diag = trace_diagnostics(p4, result, table=table)
    assert diag.p_increment_mean is not None
    assert diag.steps == result.steps_played


def test_diagnostics_requires_trace(p4):
    result = play(p4, [1, 0, 0], FirstPositive(), 1)
    with pytest.raises(ValueError):
        trace_diagnostics(p4, result)


def test_play_and_estimate_reject_negative_entry(p4):
    with pytest.raises(NegativeEntry):
        play(p4, [5, -1, 5], GreedyLargest(), 1)
    with pytest.raises(NegativeEntry):
        estimate(p4, [5, -1, 5], GreedyLargest(), 10, 1)
    with pytest.raises(NegativeEntry):
        estimate(p4, [10, -1, 3], TableStrategy(compute_table(p4, 12)), 10, 1)


def test_estimate_rejects_config_beyond_table(p4):
    table = compute_table(p4, 5)
    with pytest.raises(LayerOutOfRange):
        estimate(p4, [2, 2, 2], TableStrategy(table), 10, 1)

