"""The lockstep SteerExact player against the serial loop.

`deviation_tail` and `estimate` play SteerExact runs in lockstep.  Every
final state, forfeit, deviation, hit and success must be what a loop over
`play(..., child_rng(seed, i))` gives, and each branch of the player must
run in some case below: each case counts the branches it takes, through
spies on the functions that each branch calls.
"""

from collections import Counter

import numpy as np
import pytest

from seqassign import simulate, strategies
from seqassign.geometry import x_star
from seqassign.graph import complete_graph, cycle_graph, path_graph, star_graph
from seqassign.simulate import child_rng, deviation_tail, estimate, play
from seqassign.strategies import SteerExact, SteerPlan
from seqassign.values import round_to_config

from conftest import lockstep_runs

P4, K4, C4, K5, STAR = (
    path_graph(4), complete_graph(4), cycle_graph(4), complete_graph(5), star_graph(4)
)
Q = list(range(21))


def _serial(g, start, strategy, runs, seed, steps=None):
    games = [play(g, start, strategy, child_rng(seed, i), steps_limit=steps) for i in range(runs)]
    finals = np.array([game.final for game in games])
    forfeits = np.array([game.forfeit_step is not None for game in games])
    return finals, forfeits


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

    spy(simulate, "_draw_exit_kernels", "drift", lambda g, y, pos, *rest: len(pos))
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
         _serial(g, start, strategy, runs, seed)[1])
        for seed in seeds
    ]
    seen = _counting(monkeypatch)
    w = np.full(g.k, 1 / g.k)
    for seed, want, want_forfeit, lost in serial:
        got, got_forfeit = lockstep_runs(g, start, strategy, runs, seed, w, total - n1)
        assert np.array_equal(got, want) and np.array_equal(got_forfeit, want_forfeit)
        devs = np.array([np.linalg.norm(row) for row in want - target])
        curve = deviation_tail(g, start, strategy, z, n1, Q, runs, seed)
        assert np.array_equal(curve.tail, [(devs > q).mean() for q in Q])
        assert curve.hits == int(np.sum(~want_forfeit & (devs == 0)))
        seen["forfeit"] += int(want_forfeit.sum())
        # estimate plays every game to the end
        assert estimate(g, start, strategy, runs, seed).successes == runs - int(lost.sum())
    # two uniforms a step while more than the finishing cut remains, then one
    def columns(steps):
        return steps + min(steps, max(total - strategy.finish_cut, 0))

    assert seen["columns"] == len(seeds) * (2 * columns(total - n1) + columns(total))
    if "finish" in branches:
        assert columns(total - n1) < 2 * (total - n1)
    for branch in branches - {"finish"}:
        assert seen[branch] > 0, (branch, seen)
    if "drift" in branches:  # some exits were settled in the batch
        assert seen["drift"] > seen["exit_fallback"], seen
    if case == "p4_at_target":
        assert strategy._stage1.u is None and seen["drift"] == 0


def test_player_chunks_match_serial_loop(monkeypatch):
    # chunks of 4 runs: the streams of runs 4..9 start mid-way through the run indices
    monkeypatch.setattr(simulate, "_CHUNK", 4)
    start = np.array([120, 136, 144])
    strategy = SteerExact(P4, SteerPlan(z=x_star(P4), n1=50))
    want, want_forfeit = _serial(P4, start, strategy, 10, 5, 350)
    got, got_forfeit = lockstep_runs(P4, start, strategy, 10, 5, np.full(4, 0.25), 350)
    assert np.array_equal(got, want) and np.array_equal(got_forfeit, want_forfeit)
