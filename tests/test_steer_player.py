"""The lockstep SteerExact player against the serial loop.

`deviation_tail` and `estimate` play SteerExact runs in lockstep.  Every
final state, forfeit, deviation, hit and success must be what a loop over
`play(..., child_rng(seed, i))` gives, and each branch of the player must
run in some case below: each case counts the branches it takes, through
spies on the functions that each branch calls.  Traced Stage1Steer games
ride in the same loop; each must be the game that a serial traced `play`
gives.  A move, serial or in lockstep, builds the kernel row of its drawn
vertex alone.
"""

import itertools
from collections import Counter

import numpy as np
import pytest

from seqassign import simulate, strategies
from seqassign.errors import DomainError
from seqassign.geometry import x_star
from seqassign.graph import complete_graph, cycle_graph, path_graph, star_graph
from seqassign.simulate import child_rng, deviation_tail, estimate, play, trace_diagnostics
from seqassign.strategies import (
    GreedyLargest,
    OutwardSteer,
    SteerExact,
    SteerKTarget,
    SteerPlan,
    Stage1Steer,
)
from seqassign.values import round_to_config

from conftest import lockstep_runs

P4, K4, C4, K5, STAR = (
    path_graph(4), complete_graph(4), cycle_graph(4), complete_graph(5), star_graph(4)
)
Q = list(range(21))


def _serial(g, start, strategy, runs, seed, steps=None):
    """Final states, forfeit flags, and the steps that a lockstep loop of
    the runs takes: through the last step at which one of them stops."""
    games = [play(g, start, strategy, child_rng(seed, i), steps_limit=steps) for i in range(runs)]
    finals = np.array([game.final for game in games])
    forfeits = np.array([game.forfeit_step is not None for game in games])
    played = max(game.steps_played + forfeit for game, forfeit in zip(games, forfeits))
    return finals, forfeits, played


def _counting(monkeypatch) -> Counter:
    """Spies on the player's branches:
    - `drift`: stage-1 moves drawn from the kernel of an exit point;
    - `exit_fallback`: those of them whose exit the batch left to the scalar
      `_exit_point`;
    - `confine_exit`: confinement moves past radius d0;
    - `illegal`: kernel draws of an empty edge, replaced by `_legal_move`;
    - `columns`: stream columns read, whose count shows the finishing window."""
    seen = Counter()

    def spy(module, name, key, count=lambda *a: 1):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen[key] += count(*args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(simulate, "_kernel_points", "drift", len)
    spy(strategies, "_exit_point", "exit_fallback")
    spy(simulate, "_exit_point", "confine_exit")
    spy(simulate, "_legal_move", "illegal")
    columns = simulate._uniform_columns

    def counted(*args):
        for column in columns(*args):
            seen["columns"] += 1
            yield column

    monkeypatch.setattr(simulate, "_uniform_columns", counted)
    return seen


# id: graph, start, plan's n1, deviation_tail's n1, runs, seeds, branches that
# must run; `finish` is the finishing window
CASES = {
    "p4_drift": (P4, (120, 136, 144), 50, 50, 6, (0, 1, 2), {"drift", "illegal", "finish"}),
    "p4_confine_exits": (
        P4, round_to_config(2000, x_star(P4)), 200, 200, 2, (1,), {"confine_exit", "finish"}
    ),
    "c4_confine_exits": (
        C4, round_to_config(600, x_star(C4)), 100, 100, 3, (0, 1), {"confine_exit", "finish"}
    ),
    # the whole game lies in the finishing window, where every run forfeits
    "p4_forfeit_finish": (P4, (0, 20, 20), 10, 10, 20, (0,), {"forfeit", "finish"}),
    # the empty first edge makes every stage-1 origin a boundary point
    "p4_forfeit_drift": (
        P4, (0, 60, 60), 10, 10, 20, (0,), {"exit_fallback", "illegal", "forfeit", "finish"}
    ),
    "k4": (K4, (60, 24, 24, 30, 30, 12), 12, 12, 6, (0, 1), {"drift", "finish"}),
    "star": (STAR, (60, 50, 45, 45), 20, 20, 8, (0, 1), {"drift", "finish"}),
    "k5": (K5, (45, 40, 35, 30, 30, 25, 25, 25, 25, 20), 30, 30, 3, (0, 1), {"drift", "finish"}),
    "p4_at_target": (P4, (150, 100, 150), 50, 50, 6, (0, 1), {"finish"}),
    "p4_other_n1_below": (P4, (120, 136, 144), 50, 20, 5, (3,), {"drift", "finish"}),
    "p4_other_n1_above": (P4, (120, 136, 144), 50, 120, 5, (3,), {"drift"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_player_matches_serial_loop(case, monkeypatch):
    g, start, plan_n1, n1, runs, seeds, branches = CASES[case]
    start = np.array(start)
    total = int(start.sum())
    z = x_star(g)
    strategy = SteerExact(g, SteerPlan(z=z, n1=plan_n1))
    target = round_to_config(n1, z)
    # the serial loop first, so that the spies see the player alone
    serial = [
        (seed, *_serial(g, start, strategy, runs, seed, total - n1),
         *_serial(g, start, strategy, runs, seed)[1:])
        for seed in seeds
    ]
    seen = _counting(monkeypatch)
    w = np.full(g.k, 1 / g.k)
    for seed, want, want_forfeit, _, lost, _ in serial:
        got, got_forfeit = lockstep_runs(g, start, strategy, runs, seed, w, total - n1)
        assert np.array_equal(got, want) and np.array_equal(got_forfeit, want_forfeit)
        devs = np.array([np.linalg.norm(row) for row in want - target])
        curve = deviation_tail(g, start, strategy, z, n1, Q, runs, seed)
        assert np.array_equal(curve.tail, [(devs > q).mean() for q in Q])
        assert curve.hits == int(np.sum(~want_forfeit & (devs == 0)))
        seen["forfeit"] += int(want_forfeit.sum())
        # estimate plays every game to the end
        assert estimate(g, start, strategy, runs, seed).successes == runs - int(lost.sum())
    # two uniforms a step while more than the finishing cut remains, then
    # one, until every run has stopped
    def columns(steps):
        return steps + min(steps, max(total - strategy.finish_cut, 0))

    assert seen["columns"] == sum(
        2 * columns(to_n1) + columns(to_end) for _, _, _, to_n1, _, to_end in serial
    )
    if "finish" in branches:
        assert columns(total - n1) < 2 * (total - n1)
    for branch in branches - {"finish"}:
        assert seen[branch] > 0, (branch, seen)
    if "drift" in branches:  # some exits were settled in the batch
        assert seen["drift"] > seen["exit_fallback"], seen
    if case == "p4_at_target":
        assert strategy.u is None and seen["drift"] == 0


def test_lockstep_stops_once_every_run_has_stopped(monkeypatch):
    # greedy from this start loses every run within a few dozen of its
    # 4,000 steps; the loop reads one column a step up to the last loss
    start, greedy = np.array([0, 2000, 2000]), GreedyLargest()
    _, forfeits, played = _serial(P4, start, greedy, 200, 1)
    assert forfeits.all() and played < 100
    seen = _counting(monkeypatch)
    assert estimate(P4, start, greedy, 200, 1).successes == 0
    assert seen["columns"] == played


@pytest.mark.parametrize(
    "raw", [2**64 - 1, 2**11 - 1, 2**11, 0x9E3779B97F4A7FFF], ids=["top", "low", "one", "low-bits"]
)
def test_kernel_uniform_is_generator_random(raw, monkeypatch):
    # every column holds the crafted raw word, so every kernel uniform must
    # be Generator.random()'s (raw >> 11) * 2**-53: 1 - 2**-53 for the top
    # word, where raw * 2**-64 rounds to 1.0
    want = (raw >> 11) * 2.0**-53
    monkeypatch.setattr(
        simulate, "_uniform_columns",
        lambda seed, lo, hi: itertools.repeat(np.full(hi - lo, raw, dtype=np.uint64)),
    )
    seen = []
    mover = simulate._kernel_mover

    def spy(stage1):
        moves = mover(stage1)

        def spied(s, v, u, *rest):
            seen.append(u.copy())
            return moves(s, v, u, *rest)

        return spied

    monkeypatch.setattr(simulate, "_kernel_mover", spy)
    strategy = SteerExact(P4, SteerPlan(z=x_star(P4), n1=50))
    estimate(P4, np.array([120, 136, 144]), strategy, 3, 0)
    assert seen
    u = np.concatenate(seen)
    assert u.tobytes() == np.full(len(u), want).tobytes()
    if raw == 2**64 - 1:
        assert want == 1 - 2.0**-53 and raw * 2.0**-64 == 1.0


def test_player_chunks_match_serial_loop(monkeypatch):
    # chunks of 4 runs: the streams of runs 4..9 start mid-way through the run indices
    monkeypatch.setattr(simulate, "_CHUNK", 4)
    start = np.array([120, 136, 144])
    strategy = SteerExact(P4, SteerPlan(z=x_star(P4), n1=50))
    want, want_forfeit, _ = _serial(P4, start, strategy, 10, 5, 350)
    got, got_forfeit = lockstep_runs(P4, start, strategy, 10, 5, np.full(4, 0.25), 350)
    assert np.array_equal(got, want) and np.array_equal(got_forfeit, want_forfeit)


# traced Stage1Steer games that ride in the lockstep loop of the tail runs.
# id: graph, start, n1 (the plan's and the tail's), and what the case must show:
# `outlive` (the traced games play on after the tail runs stop or finish),
# `forfeit` (a traced game forfeits), `still` (the start is the target)
TRACED = {
    "p4": (P4, (120, 136, 144), 50, set()),
    # the tail plays its finishing window from the first step
    "p4_n1_near_n": (P4, (120, 136, 144), 380, {"outlive"}),
    # the tail leaves kernel play at step 68 and stops at step 100
    "p4_tail_finishes_first": (P4, (120, 136, 144), 300, {"outlive"}),
    "p4_forfeit": (P4, (0, 60, 60), 10, {"forfeit"}),
    "p4_at_target": (P4, (45, 30, 45), 10, {"still"}),
    "k4": (K4, (60, 24, 24, 30, 30, 12), 12, set()),
    "c4": (C4, (60, 40, 50, 50), 20, set()),
    "star": (STAR, (60, 50, 45, 45), 20, set()),
}


def _same_game(got, want):
    assert (got.won, got.steps_played, got.forfeit_step) == (
        want.won, want.steps_played, want.forfeit_step
    )
    assert np.array_equal(got.final, want.final)
    assert np.array_equal(got.trace.vertices, want.trace.vertices)
    assert np.array_equal(got.trace.edges, want.trace.edges)


@pytest.mark.parametrize("case", sorted(TRACED))
def test_traced_games_match_serial_play(case, monkeypatch):
    g, start, n1, shows = TRACED[case]
    start = np.array(start)
    total, z = int(start.sum()), x_star(g)
    strategy = SteerExact(g, SteerPlan(z=z, n1=n1))
    limit = total // 2
    want = [
        play(g, start, Stage1Steer(g, z), child_rng(8, i), steps_limit=limit, trace=True)
        for i in range(3)
    ]
    plain = deviation_tail(g, start, strategy, z, n1, Q, 5, 7)
    monkeypatch.setattr(simulate, "play", _no_play)
    curve = deviation_tail(g, start, strategy, z, n1, Q, 5, 7, traced=(8, 3, limit))
    # the traced games change nothing in the tail runs
    assert np.array_equal(curve.tail, plain.tail) and curve.hits == plain.hits
    assert len(curve.traced) == 3
    for got, game in zip(curve.traced, want):
        _same_game(got, game)
    assert ("outlive" in shows) == (limit > min(total - n1, total - strategy.finish_cut))
    assert ("forfeit" in shows) == any(game.forfeit_step is not None for game in want)
    assert ("still" in shows) == (curve.stage1.u is None)
    # the curve carries the traced strategy as reset at the start
    fresh = Stage1Steer(g, z)
    fresh.reset(g, start, total)
    assert type(curve.stage1) is Stage1Steer and curve.stage1.eps0 == fresh.eps0
    assert (curve.stage1.u is None) == (fresh.u is None)
    assert fresh.u is None or np.array_equal(curve.stage1.u, fresh.u)


def test_traced_games_ride_with_the_first_chunk(monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK", 4)
    start, z = np.array([120, 136, 144]), x_star(P4)
    strategy = SteerExact(P4, SteerPlan(z=z, n1=50))
    want = [
        play(P4, start, Stage1Steer(P4, z), child_rng(2, i), steps_limit=200, trace=True)
        for i in range(3)
    ]
    finals, _, _ = _serial(P4, start, strategy, 10, 1, 350)
    stage1 = Stage1Steer(P4, z)
    chunks = list(simulate._play_chunks(
        P4, start, strategy, 10, 1, np.full(4, 0.25), 350, (stage1, 2, 3, 200)
    ))
    assert [len(games) for _, _, games in chunks] == [3, 0, 0]
    assert np.array_equal(np.concatenate([final for final, _, _ in chunks]), finals)
    for got, game in zip(chunks[0][2], want):
        _same_game(got, game)


def _no_play(*args, **kwargs):
    raise AssertionError("a serial game was played")


def test_steering_report_plays_no_serial_game(monkeypatch):
    from seqassign.experiments import steering_report

    start, z = np.array([120, 136, 144]), x_star(P4)
    stage1 = Stage1Steer(P4, z)
    diags = [
        trace_diagnostics(play(
            P4, start, stage1, child_rng(4, i), steps_limit=200, trace=True
        ), stage1)
        for i in range(3)
    ]
    monkeypatch.setattr(simulate, "play", _no_play)
    report = steering_report(P4, SteerPlan(z=z, n1=50), start, 6, 3)
    assert report["stage1_positive_drift_flags"] == sum(
        len(d.positive_drift_steps) for d in diags
    )
    assert report["stage1_mean_s_increment"] == [float(np.mean(d.s_increments)) for d in diags]
    # a start at the target traces no game
    at_target = steering_report(P4, SteerPlan(z=z, n1=10), [15, 10, 15], 3, 3)
    assert at_target["stage1_mean_s_increment"] == []


def test_bad_traced_games_are_refused_before_any_play(monkeypatch):
    monkeypatch.setattr(simulate, "_play_chunks", _no_play)
    start, z = np.array([120, 136, 144]), x_star(P4)
    strategy = SteerExact(P4, SteerPlan(z=z, n1=50))
    for traced in [(2, 0, 200), (2, 3, -1)]:
        with pytest.raises(ValueError, match="traced games need"):
            deviation_tail(P4, start, strategy, z, 50, Q, 5, 1, traced=traced)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        deviation_tail(P4, start, strategy, z, 50, Q, 5, 1, traced=(-1, 3, 200))
    other = SteerExact(P4, SteerPlan(z=[0.3, 0.3, 0.4], n1=50))
    with pytest.raises(DomainError, match="toward the strategy's target"):
        deviation_tail(P4, start, other, z, 50, Q, 5, 1, traced=(2, 3, 200))


# --- drawn rows ----------------------------------------------------------------


def _spy_flows(monkeypatch) -> list:
    """The (point, vertex) of every flow that the strategies build, in order."""
    flows = []
    real = strategies.flow_rows

    def spy(g, x, w=None, vertex=None):
        flows.append((tuple(x), None if vertex is None else int(vertex)))
        return real(g, x, w, vertex)

    monkeypatch.setattr(strategies, "flow_rows", spy)
    return flows


def _confining(strategy) -> bool:
    """Whether a flow built by the move just played is a confinement exit's."""
    if isinstance(strategy, SteerKTarget):
        return strategy.phase == "shifted"
    if isinstance(strategy, SteerExact):
        # a move that ends stage 1 plays the target kernel, built beforehand
        return strategy.done
    return False


def _drawn_flows(g, start, strategy, seed, flows, limit=None):
    """Play the game from child_rng(*seed) for `limit` steps and check each
    move: it builds at most one kernel row, the drawn vertex's, and a whole
    kernel only when SteerKTarget enters its shifted phase.  Returns the
    drawn rows' flows and how many of them were confinement exits'."""
    drawn, confined = [], 0
    choose = strategy.choose

    def checked(state, remaining, vertex, rng):
        nonlocal confined
        entering = getattr(strategy, "phase", None) == "approach"
        del flows[:]
        e = choose(state, remaining, vertex, rng)
        whole = [f for f in flows if f[1] is None]
        rows = [f for f in flows if f[1] is not None]
        assert len(whole) == int(entering and strategy.phase == "shifted")
        assert len(rows) <= 1 and all(v == vertex - 1 for _, v in rows)
        drawn.extend(rows)
        confined += len(rows) * _confining(strategy)
        return e

    strategy.choose = checked
    play(g, start, strategy, child_rng(*seed), steps_limit=limit)
    del strategy.choose
    return drawn, confined


# id: graph, strategy, start, games (seed pairs), and for SteerExact the
# tail's target total, at which the lockstep runs stop
DRAWN = {
    "outward_p4": (P4, lambda: OutwardSteer(P4, 0.5), (39, 36, 45), [(0, 0), (0, 1)], None),
    # a long shifted phase strays past radius d0 of the shifted line
    "steer_k_c4": (
        C4, lambda: SteerKTarget(C4, SteerPlan(z=(0.125, 0.125, 0.375, 0.375), n1=400)),
        tuple(round_to_config(1600, x_star(C4))), [(5, 4)], None,
    ),
    "exact_p4_drift": (
        P4, lambda: SteerExact(P4, SteerPlan(z=x_star(P4), n1=50)), (120, 136, 144),
        [(0, i) for i in range(4)], 50,
    ),
    "exact_p4_confine_exits": (
        P4, lambda: SteerExact(P4, SteerPlan(z=x_star(P4), n1=200)),
        tuple(round_to_config(2000, x_star(P4))), [(1, 0), (1, 1)], 200,
    ),
}


@pytest.mark.parametrize("case", sorted(DRAWN))
def test_moves_build_the_drawn_row_alone(case, monkeypatch):
    g, make, start, seeds, n1 = DRAWN[case]
    start = np.array(start)
    total = int(start.sum())
    strategy = make()
    flows = _spy_flows(monkeypatch)
    limit = None if n1 is None else total - n1
    drawn, confined = [], 0
    for seed in seeds:
        game, exits = _drawn_flows(g, start, strategy, seed, flows, limit)
        drawn += game
        confined += exits
    assert drawn
    assert (confined > 0) == case.endswith(("c4", "confine_exits")), confined
    if isinstance(strategy, SteerExact):
        # the lockstep runs build the same rows, each for its run's drawn vertex
        del flows[:]
        (master,) = {seed for seed, _ in seeds}
        deviation_tail(g, start, strategy, x_star(g), n1, Q, len(seeds), master)
        assert Counter(flows) == Counter(drawn)
