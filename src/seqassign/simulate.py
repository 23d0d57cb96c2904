"""Seeded Monte Carlo game engine.

Each run draws i.i.d. vertices from the vertex weights, asks the strategy for
an edge, and decrements it; the game is won when the all-zero config is
reached after exactly n steps.  Run i of an estimate uses the child stream
SeedSequence(master_seed, spawn_key=(i,)), so results are reproducible and
independent of execution order.  Vertex draws consume exactly one uniform
variate per step (inverse-CDF), which lets the batched fast path for
deterministic table strategies reproduce the serial path bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllegalStrategyMove
from .geometry import check_weights, face_values
from .graph import Graph
from .strategies import FORFEIT, Stage1Steer, Strategy, TableStrategy
from .values import (
    ValueTable,
    _binom_tables,
    _children,
    active_faces,
    check_config,
    graph_hash,
    rank_config,
    round_to_config,
    value_at,
)

_WILSON_Z = 1.959963984540054


@dataclass
class TraceSpec:
    """What to record per step: deviation/S need a declared target (and ray
    direction for S); face functionals are recorded when record_faces is set."""

    z: np.ndarray | None = None
    u: np.ndarray | None = None
    record_faces: bool = False


@dataclass
class Trace:
    vertices: np.ndarray
    edges: np.ndarray
    dev: np.ndarray | None = None
    s_values: np.ndarray | None = None
    z_values: np.ndarray | None = None
    spec: TraceSpec | None = None


@dataclass
class GameResult:
    won: bool
    steps_played: int
    forfeit_step: int | None
    final: np.ndarray
    trace: Trace | None = None


@dataclass
class Estimate:
    runs: int
    successes: int
    p_hat: float
    ci_lo: float
    ci_hi: float

    def to_json(self, g: Graph, config, strategy_name: str, seed: int) -> dict:
        return {
            "graph_hash": graph_hash(g),
            "config": [int(c) for c in config],
            "strategy": strategy_name,
            "runs": self.runs,
            "successes": self.successes,
            "p_hat": self.p_hat,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "seed": seed,
        }


def wilson_interval(successes: int, runs: int) -> tuple[float, float]:
    if runs <= 0:
        return 0.0, 1.0
    z = _WILSON_Z
    p = successes / runs
    denom = 1.0 + z * z / runs
    center = (p + z * z / (2 * runs)) / denom
    half = z * math.sqrt(p * (1 - p) / runs + z * z / (4 * runs * runs)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def child_rng(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def _draw_vertex(rng, cum_weights: np.ndarray) -> int:
    return int(np.searchsorted(cum_weights, rng.random(), side="right")) + 1


def play(
    g: Graph,
    config,
    strategy: Strategy,
    rng,
    weights=None,
    steps_limit: int | None = None,
    trace_spec: TraceSpec | None = None,
) -> GameResult:
    """Play one game.  `rng` is a numpy Generator or an int seed.  With
    `steps_limit` the game stops early (useful for mid-game snapshots); a
    truncated game never counts as won."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    w = check_weights(g, weights)
    cum_w = np.cumsum(w)
    state = check_config(g, config).copy()
    total = int(state.sum())
    steps = total if steps_limit is None else min(total, steps_limit)
    strategy.reset(g, state.copy(), total)

    record = trace_spec is not None
    if record:
        verts = np.zeros(steps, dtype=np.int64)
        edges = np.zeros(steps, dtype=np.int64)
        dev = np.zeros(steps) if trace_spec.z is not None else None
        s_vals = np.zeros(steps) if trace_spec.u is not None else None
        z_vals = np.zeros(steps) if trace_spec.record_faces else None
        faces = active_faces(g) if trace_spec.record_faces else None

    forfeit_step = None
    t = 0
    while t < steps:
        v = _draw_vertex(rng, cum_w)
        e = strategy.choose(state, total - t, v, rng)
        if e == FORFEIT:
            if any(state[i] > 0 for i in g.incidence[v - 1]):
                raise IllegalStrategyMove(
                    f"{strategy.name} forfeited at step {t} with legal moves available"
                )
            forfeit_step = t
            break
        if e not in g.incidence[v - 1] or state[e] <= 0:
            raise IllegalStrategyMove(
                f"{strategy.name} chose edge {e} for vertex {v} at state {state.tolist()}"
            )
        state[e] -= 1
        t += 1
        if record:
            verts[t - 1], edges[t - 1] = v, e
            rem = total - t
            if dev is not None:
                dev[t - 1] = float(np.linalg.norm(state - rem * trace_spec.z))
            if s_vals is not None:
                s_vals[t - 1] = float((state - rem * trace_spec.z) @ trace_spec.u)
            if z_vals is not None:
                z_vals[t - 1] = face_values(g, faces, rem, state).min()

    steps_played = t
    won = forfeit_step is None and steps_played == total
    trace = None
    if record:
        trace = Trace(
            vertices=verts[:steps_played],
            edges=edges[:steps_played],
            dev=None if dev is None else dev[:steps_played],
            s_values=None if s_vals is None else s_vals[:steps_played],
            z_values=None if z_vals is None else z_vals[:steps_played],
            spec=trace_spec,
        )
    return GameResult(
        won=won,
        steps_played=steps_played,
        forfeit_step=forfeit_step,
        final=state,
        trace=trace,
    )


def estimate(
    g: Graph,
    config,
    strategy: Strategy,
    runs: int,
    master_seed: int,
    weights=None,
) -> Estimate:
    """Win-probability estimate with a Wilson 95% interval.  Table strategies
    take a vectorized path that reproduces the serial loop bit-for-bit."""
    if runs < 1:
        raise ValueError("need at least one run")
    table = strategy.table if isinstance(strategy, TableStrategy) else None
    config = check_config(g, config, None if table is None else table.n_max)
    if table is not None:
        successes = _estimate_table_batch(g, table, config, runs, master_seed, weights)
    else:
        successes = 0
        for i in range(runs):
            result = play(g, config, strategy, child_rng(master_seed, i), weights)
            successes += int(result.won)
    lo, hi = wilson_interval(successes, runs)
    return Estimate(runs=runs, successes=successes, p_hat=successes / runs, ci_lo=lo, ci_hi=hi)


def _estimate_table_batch(
    g: Graph,
    table: ValueTable,
    config,
    runs: int,
    master_seed: int,
    weights=None,
    chunk: int = 1 << 14,
) -> int:
    w = check_weights(g, weights)
    cum_w = np.cumsum(w)
    start = np.asarray(config, dtype=np.int64)
    total = int(start.sum())
    m = g.m
    tables = _binom_tables(m, total)
    # each run carries the rank and the bar positions of its state
    start_bars = np.cumsum(start[:-1]) + np.arange(m - 1)
    start_rank = rank_config(start)
    bar_index = np.arange(m - 1)[:, None]
    successes = 0
    for lo in range(0, runs, chunk):
        hi = min(lo + chunk, runs)
        r = hi - lo
        draws = np.empty((r, total))
        for i in range(r):
            draws[i] = child_rng(master_seed, lo + i).random(total)
        verts = np.searchsorted(cum_w, draws, side="right").astype(np.int16) + 1
        ranks = np.full(r, start_rank, dtype=np.int64)
        bars = np.repeat(start_bars[:, None], r, axis=1)
        alive = np.ones(r, dtype=bool)
        child = np.empty((m, r), dtype=np.int64)
        live = np.empty((m, r), dtype=bool)
        for t in range(total):
            prev = table.layers[total - t - 1]
            for e, ok, ranks_e in _children(ranks.copy(), bars, total - t, tables):
                live[e], child[e] = ok, ranks_e
            v_now = verts[:, t]
            best_val = np.full(r, -1.0)
            best_edge = np.full(r, FORFEIT, dtype=np.int64)
            for v in range(1, g.k + 1):
                sel = alive & (v_now == v)
                if not np.any(sel):
                    continue
                for e in g.incidence[v - 1]:
                    idx = np.flatnonzero(sel & live[e])
                    if len(idx) == 0:
                        continue
                    vals = prev[child[e, idx]]
                    better = vals > best_val[idx]
                    best_val[idx[better]] = vals[better]
                    best_edge[idx[better]] = e
            moved = alive & (best_edge != FORFEIT)
            alive &= moved
            rows = np.flatnonzero(moved)
            edge = best_edge[rows]
            ranks[rows] = child[edge, rows]
            bars[:, rows] -= bar_index >= edge  # row j holds p_{j+1}
        successes += int(alive.sum())
    return successes


@dataclass
class TailCurve:
    q: np.ndarray
    tail: np.ndarray
    hits: int
    runs: int
    hit_rate: float
    hit_ci: tuple[float, float]
    target_config: np.ndarray


def deviation_tail(
    g: Graph,
    config,
    strategy: Strategy,
    z,
    n1: int,
    q_grid,
    runs: int,
    master_seed: int,
    weights=None,
) -> TailCurve:
    """Empirical tail P[|N(n-n1) - target| > q] of the steering deviation at
    the target time, plus the exact-hit rate.  The integer target is the
    largest-remainder rounding of n1*z.  A game that forfeits before the
    target time is measured at its frozen final state (never an exact hit,
    since that state has a larger total than the target)."""
    z = np.asarray(z, dtype=float)
    target = round_to_config(n1, z)
    total = int(np.asarray(config).sum())
    steps = total - n1
    devs = np.empty(runs)
    hits = 0
    for i in range(runs):
        result = play(
            g, config, strategy, child_rng(master_seed, i), weights, steps_limit=steps
        )
        gap = result.final - target
        devs[i] = float(np.linalg.norm(gap))
        if result.forfeit_step is None:
            hits += int(not np.any(gap))
    q = np.asarray(q_grid, dtype=float)
    tail = np.array([(devs > qq).mean() for qq in q])
    return TailCurve(
        q=q,
        tail=tail,
        hits=hits,
        runs=runs,
        hit_rate=hits / runs,
        hit_ci=wilson_interval(hits, runs),
        target_config=target,
    )


@dataclass
class Diagnostics:
    steps: int
    s_increments: np.ndarray | None
    dev_increments: np.ndarray | None
    z_increments: np.ndarray | None
    positive_drift_steps: list[int]
    p_increment_mean: float | None


def replay_states(result: GameResult) -> np.ndarray:
    """Reconstruct the state after each recorded step from the final config."""
    trace = result.trace
    states = np.empty((result.steps_played + 1, len(result.final)), dtype=np.int64)
    states[result.steps_played] = result.final
    for t in range(result.steps_played - 1, -1, -1):
        states[t] = states[t + 1]
        states[t, trace.edges[t]] += 1
    return states


def trace_diagnostics(
    g: Graph,
    result: GameResult,
    table: ValueTable | None = None,
    stage1: Stage1Steer | None = None,
    drift_tol: float = 1e-12,
) -> Diagnostics:
    """Per-step increments of the recorded supermartingale quantities.

    With a stage-1 strategy the exact conditional mean increment of S at each
    visited state is recomputed from the prescribed kernel (one-step
    summation); steps where it is positive are flagged.  With a table the
    increments of the optimal-value process along the trace are averaged."""
    trace = result.trace
    if trace is None:
        raise ValueError("result carries no trace")
    start = replay_states(result)[0] if result.steps_played else result.final
    total = int(start.sum())
    spec = trace.spec

    def diffs(arr, base):
        if arr is None:
            return None
        return np.diff(arr, prepend=base)

    s_base = dev_base = z_base = 0.0
    if spec is not None and spec.z is not None:
        dev_base = float(np.linalg.norm(start - total * spec.z))
        if spec.u is not None:
            s_base = float((start - total * spec.z) @ spec.u)
    if spec is not None and spec.record_faces:
        z_base = face_values(g, active_faces(g), total, start).min()

    positive: list[int] = []
    if stage1 is not None and stage1.u is not None:
        from .geometry import membership_flow

        states = replay_states(result)
        z, u = stage1.z, stage1.u
        done = False
        for t in range(result.steps_played):
            state = states[t]
            rem = int(state.sum())
            if rem <= 1:
                break
            x = state / rem
            if float(np.linalg.norm(x - z)) <= stage1.eps0:
                done = True
            if done:
                continue
            y = stage1.current_exit(x)
            _, kernel = membership_flow(g, np.maximum(y, 0.0) / max(y.sum(), 1e-300))
            if kernel is None:
                continue
            mean = kernel.weights @ kernel.q
            if float((mean - z) @ u) < -drift_tol:
                positive.append(t)

    p_mean = None
    if table is not None:
        states = replay_states(result)
        p_vals = np.array([value_at(table, s) for s in states])
        p_mean = float(np.diff(p_vals).mean()) if len(p_vals) > 1 else 0.0

    return Diagnostics(
        steps=result.steps_played,
        s_increments=diffs(trace.s_values, s_base),
        dev_increments=diffs(trace.dev, dev_base),
        z_increments=diffs(trace.z_values, z_base),
        positive_drift_steps=positive,
        p_increment_mean=p_mean,
    )
