import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from seqassign import geometry, simulate, strategies
from seqassign.errors import (
    DomainError,
    IllegalStrategyMove,
    LayerOutOfRange,
    MemoryBudgetExceeded,
    NegativeEntry,
)
from seqassign.geometry import check_weights, face_scale, face_values, membership_flow, x_star
from seqassign.simulate import (
    _box_policy,
    child_rng,
    deviation_tail,
    estimate,
    play,
    policy_bytes,
    replay_states,
    trace_diagnostics,
    wilson_interval,
)
from seqassign.strategies import (
    FORFEIT,
    GreedyLargest,
    OutwardSteer,
    Stage1Steer,
    Strategy,
    TableStrategy,
    UniformIncident,
    SteerExact,
    SteerKTarget,
    SteerPlan,
)
from seqassign.graph import path_graph, star_graph
from seqassign.values import (
    DEFAULT_BUDGET,
    LOSS,
    Box,
    ValueTable,
    active_faces,
    compute_table,
    downset_bytes,
    downset_table,
    layer_size,
    optimal_move,
    required_bytes,
    round_to_config,
    stream_bytes,
    stream_table,
    value_at,
)

from conftest import greedy_value, lockstep_runs, rss_growth


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


@pytest.mark.parametrize(
    "make",
    [
        lambda g: SteerExact(g, SteerPlan(z=x_star(g), n1=1)),
        lambda g: SteerKTarget(g, SteerPlan(z=x_star(g), n1=1)),
        lambda g: OutwardSteer(g, 0.5),
    ],
    ids=["steer", "steer-k", "outward"],
)
def test_steering_wins_the_empty_config(p4, make):
    # the game is won before any move, so the strategy is never reset
    est = estimate(p4, [0, 0, 0], make(p4), 3, 0)
    assert est.successes == est.runs == 3


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
        box = downset_table(g, cfg, weights)
        for strategy in (TableStrategy(table), TableStrategy(box), GreedyLargest()):
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


def test_batched_paths_match_serial_across_chunks(monkeypatch, p4, k4):
    # chunks of 7 runs: the streams of every chunk but the first start
    # mid-way through the run indices
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    for g, n, weights, seed in [(p4, 24, None, 3), (k4, 12, None, 4), (p4, 20, W_P4, 5)]:
        cfg = round_to_config(n, x_star(g))
        for strategy in (TableStrategy(downset_table(g, cfg, weights)), GreedyLargest()):
            wins = sum(play(g, cfg, strategy, child_rng(seed, i), weights).won for i in range(30))
            assert estimate(g, cfg, strategy, 30, seed, weights).successes == wins
    # from (6, 0, 3), greedy forfeits when vertex 3 or 4 comes up more than
    # three times in 7 draws, in about half the runs; a forfeited run is
    # measured at its frozen final state
    start, xs, q = np.array([6, 0, 3]), x_star(p4), [0, 1, 2, 3]
    games = [play(p4, start, GreedyLargest(), child_rng(2, i), steps_limit=7) for i in range(30)]
    want = np.array([game.final for game in games])
    want_forfeit = np.array([game.forfeit_step is not None for game in games])
    assert 5 < want_forfeit.sum() < 25
    got, got_forfeit = lockstep_runs(p4, start, GreedyLargest(), 30, 2, np.full(4, 0.25), 7)
    assert np.array_equal(got, want) and np.array_equal(got_forfeit, want_forfeit)
    gaps = want - round_to_config(2, xs)
    devs = np.array([np.linalg.norm(gap) for gap in gaps])
    curve = deviation_tail(p4, start, GreedyLargest(), xs, 2, q, 30, 2)
    assert np.array_equal(curve.tail, [(devs > qq).mean() for qq in q])
    assert curve.hits == int(np.sum(~want_forfeit & ~gaps.any(axis=1)))


TOP_UNIFORM = 1.0 - 2.0**-53  # the largest value random() returns
TOP_WORD = 2**64 - 1  # the raw word it comes from


class FixedUniform:
    """A generator stub whose every uniform is `u`."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_top_uniform_draws_the_last_vertex(monkeypatch):
    # uniform weights on 7 vertices add up to 0.9999999999999998, below the
    # largest uniform; that draw is vertex 7, the one edge 5 serves
    g = path_graph(7)
    assert np.cumsum(np.full(7, 1 / 7))[-1] < TOP_UNIFORM
    def top_words(seed, lo, hi):
        while True:
            yield np.full(hi - lo, TOP_WORD, dtype=np.uint64)

    monkeypatch.setattr(simulate, "_uniform_columns", top_words)
    for cfg, won in (([0, 0, 0, 0, 0, 3], True), ([1, 0, 0, 0, 0, 2], False)):
        for strategy in (GreedyLargest(), TableStrategy(downset_table(g, cfg))):
            result = play(g, cfg, strategy, FixedUniform(TOP_UNIFORM))
            assert result.won is won
            assert result.steps_played == (3 if won else 2)
            assert estimate(g, cfg, strategy, 5, 1).successes == (5 if won else 0)


CUTS = [0.0, 5e-324, 2.0**-53, 0.25, 0.1 + 0.2, 1 - 2.0**-53, 1.0, 1 + 1e-10]
CUM_WEIGHTS = [
    *([c, 1.0] for c in CUTS),
    CUTS + [1.0],
    np.cumsum(np.full(7, 1 / 7)),
    np.cumsum([0.1, 0.2, 0.3, 0.4]),
]


@pytest.mark.parametrize("cum", CUM_WEIGHTS, ids=range(len(CUM_WEIGHTS)))
def test_word_cuts_count_the_float_draw(cum):
    # random() is (raw >> 11) * 2**-53, so u >= c exactly when raw >= ceil(c * 2**53) * 2**11;
    # test words sit at 0, at 2**64 - 1 and on both sides of every threshold
    cum = np.asarray(cum, dtype=float)
    words = {0, 2**64 - 1}
    for c in cum[:-1].tolist():
        t = math.ceil(c * 2.0**53)
        words.update(w for w in (t * 2**11 - 1, t * 2**11, (t + 1) * 2**11 - 1) if 0 <= w < 2**64)
    words = sorted(words)
    got = simulate._draw_vertices(simulate._word_cuts(cum), np.array(words, dtype=np.uint64))
    want = [simulate._draw_vertex(FixedUniform((w >> 11) * 2.0**-53), cum) - 1 for w in words]
    assert got.tolist() == want


def _stacked_words(seed, lo, hi, total):
    """The first `total` columns of `_uniform_columns`, as one row per run."""
    columns = simulate._uniform_columns(seed, lo, hi)
    words = np.array([next(columns) for _ in range(total)], dtype=np.uint64)
    return words.reshape(total, hi - lo).T


def _stacked_columns(seed, lo, hi, total):
    """The uniforms of `_stacked_words`, as Generator.random() makes them."""
    return (_stacked_words(seed, lo, hi, total) >> np.uint64(11)) * 2.0**-53


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**96 + 1, 2**128 - 1, 2**200 + 12345]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_child_uniforms_match_numpy(seed):
    # a spawn index of 2**32 or more is two uint32 words; a seed of more than
    # four words takes SeedSequence's extra mixing loop
    for lo, hi in [(0, 100), (2**32 - 50, 2**32 + 50)]:
        for total in (0, 1, 60):
            want = np.stack([child_rng(seed, i).random(total) for i in range(lo, hi)])
            got = _stacked_columns(seed, lo, hi, total)
            assert got.shape == want.shape
            assert np.array_equal(got, want), (seed, lo, total)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_child_words_match_numpy(seed):
    for lo, hi in [(0, 100), (2**32 - 50, 2**32 + 50)]:
        for total in (0, 1, 60):
            want = [child_rng(seed, i).bit_generator.random_raw(total) for i in range(lo, hi)]
            got = _stacked_words(seed, lo, hi, total)
            assert got.dtype == np.uint64 and got.shape == (hi - lo, total)
            assert np.array_equal(got, np.stack(want)), (seed, lo, total)


BLOCKS = [(64, 256), (1 << 14, 7), (1 << 14, 256)]


@pytest.mark.parametrize("block, width", BLOCKS)
def test_child_uniform_blocks_match_numpy(monkeypatch, block, width):
    # one column a block (more runs than half a block), blocks of 7 columns
    # that end mid-stream, and blocks longer than the stream
    monkeypatch.setattr(simulate, "_BLOCK", block)
    monkeypatch.setattr(simulate, "_WIDTH", width)
    for lo, hi in [(0, 100), (2**32 - 3, 2**32 + 2)]:
        want = np.stack([child_rng(5, i).random(60) for i in range(lo, hi)])
        assert np.array_equal(_stacked_columns(5, lo, hi, 60), want)


@pytest.mark.parametrize("block, width", BLOCKS)
def test_child_word_blocks_match_numpy(monkeypatch, block, width):
    monkeypatch.setattr(simulate, "_BLOCK", block)
    monkeypatch.setattr(simulate, "_WIDTH", width)
    for lo, hi in [(0, 100), (2**32 - 3, 2**32 + 2)]:
        want = np.stack([child_rng(5, i).bit_generator.random_raw(60) for i in range(lo, hi)])
        assert np.array_equal(_stacked_words(5, lo, hi, 60), want)


def _limbs(values):
    """A multiplier of `_lcg_jumps`' form from Python ints: (width, 1)
    arrays of the high word, the low word and the low word's 32-bit limbs."""
    fields = ((64, 64), (0, 64), (0, 32), (32, 32))
    return [np.array([[v >> s & (1 << b) - 1] for v in values], np.uint64) for s, b in fields]


def test_muladd128_matches_python_ints():
    # limbs of 2**32 - 1 and of 0, the top bit, and adds that carry out of the low word
    top, half = 2**64 - 1, 2**32 - 1
    words = [0, 1, half, half + 1, half << 32, top, 2**63, 0x9E3779B97F4A7C15]
    states = [(a, b) for a in (0, top, 0x0123456789ABCDEF) for b in words]
    mults = [top << 64 | top, half, half << 32 | half, top, 2**127 + 1, 0x2360ED051FC65DA44385DF649FCCF645]
    adds = [[(top << 64 | top) - j * 977 * i for i in range(len(states))] for j in range(len(mults))]
    shape = (len(mults), len(states))
    add_hi = np.array([[a >> 64 for a in row] for row in adds], np.uint64)
    add_lo = np.array([[a & top for a in row] for row in adds], np.uint64)
    want = np.array(
        [[(a << 64 | b) * m + add for (a, b), add in zip(states, row)] for m, row in zip(mults, adds)],
        dtype=object,
    ) % 2**128
    for alias in (False, True):
        new_hi, new_lo, x, y, z = np.empty((5, *shape), dtype=np.uint64)
        buffers = (new_hi, new_lo, x, y, z, np.empty(shape, bool), *np.empty((2, len(states)), np.uint64))
        hi = np.array([a for a, _ in states], np.uint64)
        lo = np.array([b for _, b in states], np.uint64)
        if alias:  # the block loop passes the last row of the buffers back in
            new_hi[-1], new_lo[-1] = hi, lo
            hi, lo = new_hi[-1], new_lo[-1]
        simulate._muladd128(hi, lo, _limbs(mults), add_hi, add_lo, buffers)
        got = new_hi.astype(object) << 64 | new_lo.astype(object)
        assert (got == want).all(), alias


def test_xsl_rr_rotates_by_the_top_six_bits(monkeypatch):
    # rotations 0 (a shift by 64), 1 and 63 of the state's xor; the first
    # row of the first block is PCG64's seeding step, which is dropped
    top = 2**64 - 1
    rows = [(0, 0)]
    for r in (0, 1, 63, 17):
        for lo in (0, 1, top, 0x0123456789ABCDEF, 2**63):
            rows.append((r << 58 | 0x2F0F00FF00FF0F, lo))
    rows.append((top, top))
    his = np.array([[a] for a, _ in rows], np.uint64)
    los = np.array([[b] for _, b in rows], np.uint64)

    def crafted(hi, lo, m, add_hi, add_lo, buffers):
        buffers[0][:], buffers[1][:] = his, los

    monkeypatch.setattr(simulate, "_WIDTH", len(rows))
    monkeypatch.setattr(simulate, "_muladd128", crafted)
    columns = simulate._uniform_columns(0, 0, 1)
    got = [int(next(columns)[0]) for _ in rows[1:]]

    def rotr(x, r):
        return (x >> r | x << (64 - r)) & top

    assert got == [rotr(a ^ b, a >> 58) for a, b in rows[1:]]


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the seed was checked")


@pytest.mark.parametrize(
    "bad, error", [(-1, ValueError), (1.5, TypeError), ("3", TypeError), ([1, 2], TypeError)]
)
def test_bad_seed_rejected_before_any_work(p4, monkeypatch, bad, error):
    table = compute_table(p4, 6)
    for name in ("play", "_box_wins", "_box_policy", "downset_table", "_play_chunks", "_uniform_columns"):
        monkeypatch.setattr(simulate, name, _no_work)
    for strategy in (TableStrategy(table), GreedyLargest(), UniformIncident()):
        with pytest.raises(error) as info:
            estimate(p4, [2, 2, 2], strategy, 10, bad)
        if error is ValueError:
            assert str(info.value) == "expected non-negative integer"
    xs = x_star(p4)
    with pytest.raises(error):
        deviation_tail(p4, [2, 2, 2], GreedyLargest(), xs, 2, [0, 1], 10, bad)


@pytest.mark.parametrize("runs", [0, -1])
def test_no_runs_rejected_before_any_play(p4, monkeypatch, runs):
    from seqassign.experiments import steering_report

    monkeypatch.setattr(simulate, "play", _no_play)
    monkeypatch.setattr(simulate, "_play_chunks", _no_play)
    xs = x_star(p4)
    with pytest.raises(ValueError, match="need at least one run"):
        estimate(p4, [2, 2, 2], GreedyLargest(), runs, 1)
    with pytest.raises(ValueError, match="need at least one run"):
        deviation_tail(p4, [2, 2, 2], GreedyLargest(), xs, 2, [0, 1], runs, 1)
    with pytest.raises(ValueError, match="need at least one run"):
        steering_report(p4, SteerPlan(z=xs, n1=20), round_to_config(60, xs), runs, 1)


def _no_play(*args, **kwargs):
    raise AssertionError("a game was played")


def _steering_strategies(p4):
    xs = x_star(p4)
    return [
        Stage1Steer(p4, xs),
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


def test_wilson_interval_of_no_runs_is_the_unit_interval():
    assert wilson_interval(0, 0) == (0.0, 1.0)


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


def _no_stream(*args, **kwargs):
    raise AssertionError("a stream was drawn")


@pytest.mark.parametrize("n1", [31, -3])
def test_deviation_tail_refuses_a_target_total_outside_the_start(p4, monkeypatch, n1):
    # n1 above the start's total played nothing; below 0 it played every
    # step and measured against a negative target
    for name in ("child_rng", "_uniform_columns"):
        monkeypatch.setattr(simulate, name, _no_stream, raising=False)
    xs = x_star(p4)
    for strategy in (SteerExact(p4, SteerPlan(z=xs, n1=10)), GreedyLargest()):
        with pytest.raises(DomainError, match="outside 0..30"):
            deviation_tail(p4, [10, 12, 8], strategy, xs, n1, [0, 1], 4, 0)


def test_deviation_tail_takes_the_ends_of_the_range(p4):
    xs = x_star(p4)
    strategy = SteerExact(p4, SteerPlan(z=xs, n1=10))
    start = [10, 12, 8]
    # n1 = total plays nothing; the start is off the target (11, 8, 11)
    assert deviation_tail(p4, start, strategy, xs, 30, [0], 4, 0).tail[0] == 1.0
    # n1 = 0 plays every step, and a hit is a won game
    wins = sum(play(p4, start, strategy, child_rng(0, i)).won for i in range(4))
    assert deviation_tail(p4, start, strategy, xs, 0, [0], 4, 0).hits == wins


# --- traces and diagnostics ------------------------------------------------------


def test_trace_lengths_and_replay(p4):
    result = play(p4, [10, 8, 10], FirstPositive(), 3, trace=True)
    n = result.steps_played
    assert len(result.trace.vertices) == n
    assert len(result.trace.edges) == n
    states = replay_states(result)
    assert np.array_equal(states[-1], result.final)
    assert states[0].sum() == 28
    # each recorded edge is incident to its drawn vertex and was decremented
    for t, (v, e) in enumerate(zip(result.trace.vertices, result.trace.edges)):
        assert e in p4.incidence[v - 1]
        assert np.array_equal(states[t] - states[t + 1], np.eye(3, dtype=int)[e])


def test_optimal_value_process_is_martingale_empirically(p4):
    table = compute_table(p4, 40)
    cfg = round_to_config(40, x_star(p4))
    incs = []
    for i in range(150):
        result = play(
            p4, cfg, TableStrategy(table), child_rng(31, i), trace=True
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
    result = play(p4, [20, 14, 20], GreedyLargest(), 7, trace=True)
    faces = active_faces(p4)
    states = replay_states(result)
    total = int(states[0].sum())
    z_values = [face_values(p4, faces, total - t, st).min() for t, st in enumerate(states)]
    dz = np.abs(np.diff(z_values[1:]))
    assert dz.max() <= 2 * max_scale + 1e-9


def test_stage1_diagnostics_clean_in_regime(p4):
    xs = x_star(p4)
    x0 = np.array([0.30, 0.34, 0.36])
    cfg = round_to_config(400, x0)
    for i in range(3):
        s1 = Stage1Steer(p4, xs)
        result = play(
            p4, cfg, s1, child_rng(57, i),
            steps_limit=200, trace=True,
        )
        diag = trace_diagnostics(result, stage1=s1)
        assert diag.positive_drift_steps == []
        assert diag.s_increments is not None


def _flow_drift_flags(g, result, stage1):
    """Oracle of trace_diagnostics' flags: replay the stage-1 states one by
    one, solve the flow of each exit point again and flag the steps where
    the kernel's mean drifts S upward by more than 1e-12."""
    states = replay_states(result)
    n, z, u = int(states[0].sum()), stage1.z, stage1.u
    flags = []
    for t, st in enumerate(states[:-1]):
        x = st / (n - t)
        if n - t <= 1 or np.linalg.norm(x - z) <= stage1.eps0:
            break
        y = stage1.current_exit(x)
        _, kernel = membership_flow(g, np.maximum(y, 0.0) / max(y.sum(), 1e-300))
        if kernel is not None and float((kernel.weights @ kernel.q - z) @ u) < -1e-12:
            flags.append(t)
    return flags


def _greedy_past_target(p4):
    # greedy play from this start ends its games at states where the exit
    # ahead along the stage-1 direction lies behind x*; with eps0 = 0.06
    # stage 1 of the first game ends before its flagged steps
    cfg = round_to_config(60, [0.30, 0.34, 0.36])
    for i in range(5):
        result = play(p4, cfg, GreedyLargest(), child_rng(3, i), trace=True)
        for eps0 in (None, 0.06):
            s1 = Stage1Steer(p4, x_star(p4), eps0=eps0)
            s1.reset(p4, cfg, 60)
            yield result, s1


def test_stage1_diagnostics_flag_positive_drift(p4):
    flags = 0
    for result, s1 in _greedy_past_target(p4):
        diag = trace_diagnostics(result, stage1=s1)
        assert diag.positive_drift_steps == _flow_drift_flags(p4, result, s1)
        flags += len(diag.positive_drift_steps)
    assert flags > 0


def test_trace_diagnostics_solves_no_flow(p4, monkeypatch):
    games = list(_greedy_past_target(p4))
    expect = [_flow_drift_flags(p4, result, s1) for result, s1 in games]

    def spy(*args, **kwargs):
        raise AssertionError("trace_diagnostics solved a flow")

    for module in (geometry, strategies):
        monkeypatch.setattr(module, "flow_rows", spy)
    monkeypatch.setattr(geometry, "membership_flow", spy)
    got = [trace_diagnostics(result, stage1=s1).positive_drift_steps for result, s1 in games]
    assert got == expect


def test_weighted_law_end_to_end(p4):
    # non-uniform vertex law: batched MC against the weighted table
    w = np.array([0.4, 0.3, 0.2, 0.1])
    table = compute_table(p4, 12, weights=w)
    cfg = [5, 3, 4]
    p = value_at(table, cfg)
    est = estimate(p4, cfg, TableStrategy(table), 40000, 9, weights=w)
    assert abs(est.p_hat - p) <= 4 * math.sqrt(p * (1 - p) / 40000)


def test_diagnostics_requires_trace(p4):
    result = play(p4, [1, 0, 0], FirstPositive(), 1)
    with pytest.raises(ValueError):
        trace_diagnostics(result, Stage1Steer(p4, x_star(p4)))


def test_diagnostics_of_a_game_from_the_target(p4):
    # the normalised start is x* itself: stage 1 has no direction, so no
    # increments and no flags
    start = np.array([3, 2, 3])
    assert np.array_equal(start / 8, x_star(p4))
    s1 = Stage1Steer(p4, x_star(p4))
    result = play(p4, start, s1, child_rng(1, 0), trace=True)
    assert s1.u is None and result.steps_played > 0
    diag = trace_diagnostics(result, stage1=s1)
    assert diag.s_increments is None and diag.positive_drift_steps == []


def test_diagnostics_of_a_traced_game_from_the_empty_config(p4):
    # a start of total 0 is won before any move, so the lockstep loop never
    # resets the traced stage-1 strategy: no direction, no increments, no flags
    xs = x_star(p4)
    curve = deviation_tail(p4, [0, 0, 0], GreedyLargest(), xs, 0, [0], 3, 1, traced=(2, 3, 5))
    assert [game.steps_played for game in curve.traced] == [0, 0, 0]
    for game in curve.traced:
        diag = trace_diagnostics(game, curve.stage1)
        assert diag.s_increments is None and diag.positive_drift_steps == []


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


def test_estimate_holds_table_and_box_in_one_budget():
    # the full table to total 12,000 and the box under (6000, 6000) with its
    # policy each fit the budget, but the table stays held while the box and
    # the policy are built
    p3 = path_graph(3)
    n, top = 12000, [6000, 6000]
    policy = policy_bytes(3, 2, 6001 * 6001)
    assert stream_bytes(2, n, range(n + 1)) <= DEFAULT_BUDGET
    assert downset_bytes(2, top) + policy <= DEFAULT_BUDGET
    assert required_bytes(2, n) + downset_bytes(2, top) + policy > DEFAULT_BUDGET
    # a stand-in for the 0.58 GB table: the box is built from its graph and
    # law, and the table is charged its layers' bytes, here zero-stride views
    layers = [np.broadcast_to(0.0, layer_size(t, 2)) for t in range(n + 1)]
    table = ValueTable(p3, n, check_weights(p3, None), layers)
    with pytest.raises(MemoryBudgetExceeded, match="budget"):
        estimate(p3, top, TableStrategy(table), 10, 1)


def test_estimate_charges_only_the_layers_a_table_holds(p4):
    # a table streamed to 2000 that keeps layer 2000 holds 16 MB, not the
    # 10.7 GB of every layer, so the box under the start fits beside it.  A
    # stand-in holds layer 2000 only: estimate reads the box, not the layers
    n, start = 2000, [1998, 1, 1]
    table = ValueTable(p4, n, check_weights(p4, None), [None] * n + [np.zeros(layer_size(n, 3))])
    est = estimate(p4, start, TableStrategy(table), 10, 1)
    assert est == estimate(p4, start, TableStrategy(downset_table(p4, start)), 10, 1)


def test_estimate_refuses_the_walk_beside_a_held_table_before_any_build(monkeypatch):
    # P3's layer 14,595 is held; the box under (7298, 7297) fits the budget
    # but not with its policy, so the walk is refused before downset_table
    # runs, and no array of the box's size is allocated
    p3, top = path_graph(3), [7298, 7297]
    table = stream_table(p3, 14595, keep=[14595])
    built = []
    real = simulate.downset_table
    monkeypatch.setattr(simulate, "downset_table", lambda *a, **kw: built.append(a) or real(*a, **kw))
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetExceeded) as exc:
            estimate(p3, top, TableStrategy(table), 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    states = 7299 * 7298
    assert exc.value.required_bytes == 8 * states + policy_bytes(3, 2, states)
    assert exc.value.budget_bytes == DEFAULT_BUDGET - table.layer(14595).nbytes
    assert built == []
    assert peak < 1 << 20


@pytest.mark.parametrize("short", [1, 0], ids=["one-byte-short", "exact"])
def test_estimate_charges_a_given_box_its_walk(p4, monkeypatch, short):
    # a given box's values are charged with its policy, not its build
    box = downset_table(p4, (5, 3, 4))
    states = len(box.values)
    walk = 8 * states + policy_bytes(4, 3, states)
    monkeypatch.setattr(simulate, "DEFAULT_BUDGET", walk - short)
    if short:
        with pytest.raises(MemoryBudgetExceeded) as exc:
            estimate(p4, (5, 3, 4), TableStrategy(box), 10, 1)
        assert (exc.value.required_bytes, exc.value.budget_bytes) == (walk, walk - 1)
    else:
        assert estimate(p4, (5, 3, 4), TableStrategy(box), 10, 1).runs == 10


def test_estimate_rejects_a_table_of_another_graph_or_law(p4):
    cfg = [2, 2, 2]
    for table in (compute_table(p4, 6, W_P4), downset_table(p4, cfg, W_P4)):
        with pytest.raises(DomainError):
            estimate(p4, cfg, TableStrategy(table), 10, 1)  # drawn under the uniform law
        assert estimate(p4, cfg, TableStrategy(table), 10, 1, W_P4).runs == 10
    # the star has P4's vertex and edge counts, so the config and law fit it
    star = star_graph(3)
    for table in (compute_table(star, 6), downset_table(star, cfg)):
        with pytest.raises(DomainError):
            estimate(p4, cfg, TableStrategy(table), 10, 1)


@pytest.mark.parametrize("graph", ["p4", "c4", "k4", "star4"])
def test_legal_moves_match_the_serial_rule(request, graph):
    # counts of 0..2 tie often and leave some rows empty; a 0/1 target
    # leaves a positive excess on some edges only, so the excess rule and
    # its fallback to the counts both decide moves
    g = star_graph(4) if graph == "star4" else request.getfixturevalue(graph)
    rng = np.random.default_rng(17)
    state = np.zeros((600, g.m + 1), dtype=np.int64)
    state[:, : g.m] = rng.integers(0, 3, (600, g.m))
    state[::9, : g.m] = 0
    live = np.flatnonzero(rng.random(600) < 0.8)
    v = rng.integers(0, g.k, len(live))
    counts = state[live, : g.m]
    plain = [strategies._legal_move(g, s, int(u) + 1) for s, u in zip(counts, v)]
    got = simulate._legal_moves(simulate._incidence_rows(g), state, live, v)
    assert got.tolist() == plain and FORFEIT in plain
    target = rng.integers(0, 2, g.m)
    want = [strategies._legal_move(g, s, int(u) + 1, s - target) for s, u in zip(counts, v)]
    got = simulate._legal_moves(simulate._incidence_rows(g), state, live, v, np.append(target, 0))
    assert got.tolist() == want and want != plain
    # ties: a row with two or more candidates at the largest count
    cand = [[s[e] for e in g.incidence[u]] for s, u in zip(counts, v)]
    assert any(max(c) > 0 and c.count(max(c)) > 1 for c in cand)


def test_box_policy_moves_as_optimal_move(k4, p4, c4, k13):
    # K4 under the uniform law has many ties between edges
    cases = [
        (k4, (2, 1, 2, 1, 2, 1), None),
        (p4, (5, 3, 4), None),
        (c4, (3, 2, 3, 2), None),
        (k13, (4, 3, 5), None),
        (p4, (5, 4, 6), W_P4),
    ]
    for g, top, weights in cases:
        box = downset_table(g, top, weights)
        sink = len(box.values)
        nxt = _box_policy(box).reshape(sink + 1, g.k)
        # the empty config and the sink have no move; the sink maps to itself
        assert np.all(nxt[0] == sink) and np.all(nxt[sink] == sink)
        # box states in index order, the last edge fastest
        for i, cfg in enumerate(itertools.product(*(range(c + 1) for c in top))):
            if not any(cfg):
                continue
            for v in range(1, g.k + 1):
                e = optimal_move(box, cfg, v)
                assert nxt[i, v - 1] == (sink if e == LOSS else i - box.stride[e])


def test_greedy_box_policy_moves_as_legal_move(k4, p4, c4, k13):
    for g, top in [(k4, (2, 1, 2, 1, 2, 1)), (p4, (5, 3, 4)), (c4, (3, 2, 3, 2)), (k13, (4, 3, 5))]:
        box = Box(g, np.array(top))
        sink = box.states
        nxt = _box_policy(box, simulate._greedy_scores).reshape(sink + 1, g.k)
        assert np.all(nxt[0] == sink) and np.all(nxt[sink] == sink)
        for i, cfg in enumerate(itertools.product(*(range(c + 1) for c in top))):
            for v in range(1, g.k + 1):
                e = strategies._legal_move(g, cfg, v)
                assert nxt[i, v - 1] == (sink if e == FORFEIT else i - box.stride[e])


def _spy_engines(monkeypatch) -> list:
    """The engines estimate runs, in call order: "box" for the walk,
    "lockstep" for the lockstep loop."""
    ran = []
    for name, engine in (("_box_wins", "box"), ("_lockstep", "lockstep")):
        real = getattr(simulate, name)
        spy = lambda *a, _real=real, _engine=engine: ran.append(_engine) or _real(*a)
        monkeypatch.setattr(simulate, name, spy)
    return ran


@pytest.mark.parametrize("walks", [True, False], ids=["box", "lockstep"])
def test_greedy_engines_match_serial(request, monkeypatch, walks):
    # each engine forced: test_batch_matches_serial's greedy cases, a start
    # from which greedy forfeits, the empty config, and K4's ties
    monkeypatch.setattr(simulate, "_greedy_walks_box", lambda *args: walks)
    ran = _spy_engines(monkeypatch)
    cases = [
        ("p4", 24, None, 123),
        ("c4", 16, None, 5),
        ("k4", 12, None, 6),
        ("k13", 15, None, 7),
        ("p4", 20, W_P4, 8),
        ("p4", (6, 0, 0), None, 9),
        ("p4", (0, 0, 0), None, 10),
        ("k4", (4, 3, 4, 3, 4, 3), None, 11),
    ]
    for graph, start, weights, seed in cases:
        g = request.getfixturevalue(graph)
        if isinstance(start, int):  # a total: its rounding of x*
            start = round_to_config(start, x_star(g))
        wins = sum(
            play(g, start, GreedyLargest(), child_rng(seed, i), weights).won for i in range(300)
        )
        del ran[:]
        assert estimate(g, start, GreedyLargest(), 300, seed, weights).successes == wins
        assert ran == ["box" if walks else "lockstep"], (graph, start)


@pytest.mark.parametrize(
    "start, runs, engine",
    [
        # 4 * 8,832 box states <= 2,000 * 60 moves: the policy costs less than the games
        ((23, 15, 22), 2000, "box"),
        # 4 * 4,004,001 > 2,000 * 4,000, and every run is lost within a few dozen steps
        ((0, 2000, 2000), 2000, "lockstep"),
        # 4 * 8,832 = 35,328 > 500 * 60 = 30,000: test_pinned's 96 stays in lockstep
        ((23, 15, 22), 500, "lockstep"),
    ],
)
def test_greedy_engine_follows_the_inputs(p4, monkeypatch, start, runs, engine):
    ran = _spy_engines(monkeypatch)
    estimate(p4, start, GreedyLargest(), runs, 1)
    assert ran == [engine]


@pytest.mark.parametrize("short", [1, 0], ids=["one-byte-short", "exact"])
def test_greedy_plays_in_lockstep_when_its_policy_is_over_budget(p4, monkeypatch, short):
    start, states = (23, 15, 22), 24 * 16 * 23
    want = estimate(p4, start, GreedyLargest(), 2000, 4).successes
    monkeypatch.setattr(simulate, "DEFAULT_BUDGET", policy_bytes(4, 3, states) - short)
    ran = _spy_engines(monkeypatch)
    assert estimate(p4, start, GreedyLargest(), 2000, 4).successes == want
    assert ran == ["lockstep" if short else "box"]


@pytest.mark.parametrize(
    "graph, start, seed, digits",
    [
        ("p4", (23, 15, 22), 21, "0.183028"),
        ("c4", (5, 4, 6, 5), 22, None),
        ("k4", (4, 3, 4, 3, 4, 3), 23, "0.313011"),
        ("k13", (7, 5, 6), 24, None),
    ],
)
def test_greedy_estimate_matches_the_exact_value(request, graph, start, seed, digits):
    g = request.getfixturevalue(graph)
    exact = greedy_value(g, start)
    if digits is not None:
        assert f"{float(exact):.6f}" == digits
    assert 0 < exact < 1
    runs = 20000
    est = estimate(g, start, GreedyLargest(), runs, seed)
    assert abs(est.p_hat - float(exact)) <= 4 * math.sqrt(float(exact * (1 - exact)) / runs)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_policy_bytes_bounds_rss_growth():
    top = (7, 8, 6, 9, 7, 8)
    growth, need = rss_growth(
        "_box_policy(box); need = policy_bytes(g.k, g.m, len(box.values))",
        setup=f"box = downset_table(g, {top})",
    )
    assert 0 < growth <= need
