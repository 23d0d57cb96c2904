"""Seeded Monte Carlo game engine.

Each run draws i.i.d. vertices from the vertex weights, asks the strategy for
an edge, and decrements it; the game is won when the all-zero config is
reached after exactly n steps.  Run i of an estimate uses the child stream
SeedSequence(master_seed, spawn_key=(i,)), so results are reproducible and
independent of execution order.  Vertex draws consume exactly one uniform
variate per step (inverse-CDF).  `_uniform_columns` computes the streams of a
chunk of runs, with NumPy's SeedSequence, PCG64 and `random()` re-done in
uint64 array arithmetic, and yields them one column (one draw of every run)
at a time.  The batched paths read those columns step by step and reproduce
the serial loop bit-for-bit: table play walks the stored policy of a box,
and greedy and SteerExact share one lockstep loop (`_play_chunks`).
SteerExact draws one kernel uniform more per step until its finishing
window, at the same step in every run, so its runs read one column too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, IllegalStrategyMove
from .geometry import TOL, check_weights, membership_flow, uniform_weights
from .graph import Graph
from .strategies import (
    FORFEIT,
    GreedyLargest,
    SteerExact,
    Stage1Steer,
    Strategy,
    TableStrategy,
    _draw_edge,
    _exit_point,
    _exit_rows,
    _flow_kernel,
    _kernel_for,
    _legal_move,
)
from .values import (
    DEFAULT_BUDGET,
    DownSetTable,
    ValueTable,
    check_config,
    downset_table,
    graph_hash,
    required_bytes,
    round_to_config,
)

_WILSON_Z = 1.959963984540054


@dataclass
class Trace:
    """The drawn vertex and the decremented edge of every step played; the
    states they pass through come from `replay_states`."""

    vertices: np.ndarray
    edges: np.ndarray


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


def _check_seed(master_seed) -> int:
    """A master seed as a Python int, with SeedSequence's own errors for a
    negative seed or a non-integer one."""
    if not isinstance(master_seed, (int, np.integer)):
        raise TypeError(f"seed must be a non-negative integer, not {master_seed!r}")
    if master_seed < 0:
        raise ValueError("expected non-negative integer")
    return int(master_seed)


# --- vectorised child streams ----------------------------------------------------
#
# Constants of numpy.random.SeedSequence (pool of four 32-bit words) and of
# PCG64 (128-bit LCG, XSL-RR output).  Every word lives in a uint64 array, so
# 32-bit products never overflow and 64-bit ones wrap silently; a numpy
# scalar would warn on the wrap, hence the one-element arrays below.

_U32 = np.uint64(0xFFFFFFFF)
_SHIFT_16, _SHIFT_32 = np.uint64(16), np.uint64(32)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_PCG_HI, _PCG_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _hashmix(value, hc: int, mult: int):
    """SeedSequence's hashmix of uint32 words held in uint64; `hc` is the
    running hash constant (a Python int), returned advanced."""
    value = value ^ np.uint64(hc)
    hc = hc * mult & 0xFFFFFFFF
    value = value * np.uint64(hc) & _U32
    return value ^ value >> _SHIFT_16, hc


def _mix(x, y):
    result = (x * _MIX_L - y * _MIX_R) & _U32
    return result ^ result >> _SHIFT_16


def _seed_state(master_seed: int, spawn_words: list) -> list:
    """SeedSequence(master_seed, spawn_key=(i,)).generate_state(4, uint64)
    as four uint64 arrays, one entry per run; spawn_words holds the uint32
    words of the runs' indices, least significant first."""
    n_words = max(1, (master_seed.bit_length() + 31) // 32)
    seed_words = [master_seed >> 32 * j & 0xFFFFFFFF for j in range(n_words)]
    # with a spawn key the seed is zero-padded to the pool size
    seed_words += [0] * (4 - n_words)
    entropy = [np.array([w], dtype=np.uint64) for w in seed_words] + spawn_words
    hc = _INIT_A
    pool = []
    for word in entropy[:4]:
        word, hc = _hashmix(word, hc, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, hc = _hashmix(pool[src], hc, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[4:]:
        for dst in range(4):
            word, hc = _hashmix(extra, hc, _MULT_A)
            pool[dst] = _mix(pool[dst], word)
    hc = _INIT_B
    out = []
    for i in range(8):
        word, hc = _hashmix(pool[i % 4], hc, _MULT_B)
        out.append(word)
    # little-endian pairs of 32-bit words
    return [out[2 * j] | out[2 * j + 1] << _SHIFT_32 for j in range(4)]


def _add128(hi, lo, add_hi, add_lo):
    lo = lo + add_lo
    return hi + add_hi + (lo < add_lo), lo


def _mul128(hi, lo, m_hi, m_lo):
    """(hi, lo) * (m_hi, m_lo) mod 2**128 on uint64 word arrays; the high
    half of lo * m_lo comes from 32-bit limbs."""
    a0, a1 = lo & _U32, lo >> _SHIFT_32
    b0, b1 = m_lo & _U32, m_lo >> _SHIFT_32
    p00, p01 = a0 * b0, a0 * b1
    p10, p11 = a1 * b0, a1 * b1
    mid = (p00 >> _SHIFT_32) + (p01 & _U32) + (p10 & _U32)
    mulhi = p11 + (p01 >> _SHIFT_32) + (p10 >> _SHIFT_32) + (mid >> _SHIFT_32)
    return mulhi + hi * m_lo + lo * m_hi, lo * m_lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * multiplier + inc mod 2**128."""
    return _add128(*_mul128(hi, lo, _PCG_HI, _PCG_LO), inc_hi, inc_lo)


@lru_cache(maxsize=4)
def _lcg_jumps(width: int) -> list[np.ndarray]:
    """Words (a_hi, a_lo, g_hi, g_lo), each a (width, 1) array, such that j + 1
    PCG64 steps take a state s to s * a[j] + inc * g[j] mod 2**128."""
    mult = int(_PCG_HI) << 64 | int(_PCG_LO)
    a, g, power, geometric = [], [], 1, 0
    for _ in range(width):
        geometric = (geometric + power) % (1 << 128)
        power = power * mult % (1 << 128)
        a.append(power)
        g.append(geometric)
    words = [
        np.array([[v >> shift & 0xFFFFFFFFFFFFFFFF] for v in vals], dtype=np.uint64)
        for vals in (a, g)
        for shift in (64, 0)
    ]
    for array in words:
        array.flags.writeable = False  # shared through the cache
    return words


def _random(hi, lo):
    """Generator.random() from PCG64 states: XSL-RR output, rotating hi ^ lo
    right by the top six bits of the state, then the top 53 bits scaled to
    [0, 1)."""
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    x = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))
    return (x >> np.uint64(11)) * 2.0**-53


# a block of _uniform_columns: at most _BLOCK draws, at most _WIDTH per run
_BLOCK, _WIDTH = 1 << 14, 256


def _uniform_columns(master_seed: int, lo: int, hi: int):
    """The draws of runs lo <= i < hi, one column per draw: the j-th column
    yielded holds each run's j-th `child_rng(master_seed, i).random()`.
    The columns come in blocks of up to _BLOCK draws, each column's states
    jumped ahead from the last column of the block before."""
    runs = []
    # a spawn index below 2**32 is one uint32 word, a larger one two
    for a, b, n_words in ((lo, min(hi, 1 << 32), 1), (max(lo, 1 << 32), hi, 2)):
        if a < b:
            idx = np.arange(a, b, dtype=np.uint64)
            runs.append(_seed_state(master_seed, [idx & _U32, idx >> _SHIFT_32][:n_words]))
    s0, s1, s2, s3 = (np.concatenate([state[j] for state in runs]) for j in range(4))
    # PCG64 seeding: inc = (initseq << 1) | 1; state = inc + initstate; one step
    inc_hi = s2 << np.uint64(1) | s3 >> np.uint64(63)
    inc_lo = s3 << np.uint64(1) | np.uint64(1)
    st_hi, st_lo = _lcg_step(*_add128(inc_hi, inc_lo, s0, s1), inc_hi, inc_lo)
    width = max(1, min(_BLOCK // (hi - lo), _WIDTH))
    a_hi, a_lo, g_hi, g_lo = _lcg_jumps(width)
    step = _mul128(inc_hi, inc_lo, g_hi, g_lo)  # inc * g[j], one row per column
    while True:
        st_hi, st_lo = _add128(*_mul128(st_hi, st_lo, a_hi, a_lo), *step)
        yield from _random(st_hi, st_lo)
        st_hi, st_lo = st_hi[-1], st_lo[-1]


def _draw_vertex(rng, cum_weights: np.ndarray) -> int:
    # the last cumulative weight may round below 1; the top of [0, 1) is vertex k
    return int(np.searchsorted(cum_weights[:-1], rng.random(), side="right")) + 1


def _draw_vertices(cum_weights: np.ndarray, column: np.ndarray) -> np.ndarray:
    """The 0-based vertices that `_draw_vertex` draws from a column of
    uniforms: the number of cumulative weights but the last at or below each
    uniform.  Unlike a binary search, the count does not branch on every
    draw, which makes long columns several times faster."""
    return (cum_weights[:-1, None] <= column).sum(axis=0)


def play(
    g: Graph,
    config,
    strategy: Strategy,
    rng,
    weights=None,
    steps_limit: int | None = None,
    trace: bool = False,
) -> GameResult:
    """Play one game.  `rng` is a numpy Generator or an int seed.  With
    `steps_limit` the game stops early (useful for mid-game snapshots); a
    truncated game never counts as won.  With `trace` the result carries the
    drawn vertices and the played edges."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    w = _vertex_law(g, strategy, weights)
    cum_w = np.cumsum(w)
    state = check_config(g, config).copy()
    total = int(state.sum())
    steps = total if steps_limit is None else min(total, steps_limit)
    if total:  # the empty config is won before any move
        strategy.reset(g, state.copy(), total)

    if trace:
        verts = np.zeros(steps, dtype=np.int64)
        edges = np.zeros(steps, dtype=np.int64)

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
        if trace:
            verts[t], edges[t] = v, e
        state[e] -= 1
        t += 1

    return GameResult(
        won=forfeit_step is None and t == total,
        steps_played=t,
        forfeit_step=forfeit_step,
        final=state,
        trace=Trace(vertices=verts[:t], edges=edges[:t]) if trace else None,
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
    walk the stored policy of the box under the start, greedy and SteerExact
    play in lockstep (`_play_chunks`), each bit-for-bit as the serial loop."""
    if runs < 1:
        raise ValueError("need at least one run")
    master_seed = _check_seed(master_seed)
    w = _vertex_law(g, strategy, weights)
    config = check_config(g, config)
    if isinstance(strategy, TableStrategy):
        box = strategy.table
        if graph_hash(box.graph) != graph_hash(g) or not np.array_equal(box.weights, w):
            raise DomainError("the value table was built for another graph or vertex law")
        if isinstance(box, ValueTable):
            # the table stays held while its box is built: one budget for both
            check_config(g, config, box.n_max)
            held = required_bytes(g.m, box.n_max)
            box = downset_table(g, config, w, max(DEFAULT_BUDGET - held, 0))
        successes = _box_wins(box, config, runs, master_seed, w)
    else:
        chunks = _play_chunks(g, config, strategy, runs, master_seed, w, int(config.sum()))
        successes = runs - sum(int(np.count_nonzero(forfeit)) for _, forfeit in chunks)
    lo, hi = wilson_interval(successes, runs)
    return Estimate(runs=runs, successes=successes, p_hat=successes / runs, ci_lo=lo, ci_hi=hi)


def _vertex_law(g: Graph, strategy: Strategy, weights) -> np.ndarray:
    """The checked vertex weights; steering strategies build their kernels
    under the uniform law, so they refuse any other."""
    w = check_weights(g, weights)
    if strategy.uniform_law_only and np.abs(w - uniform_weights(g.k)).max() > TOL:
        raise DomainError(f"strategy {strategy.name!r} steers under the uniform vertex law only")
    return w


_CHUNK = 1 << 14


def _box_wins(box: DownSetTable, start, runs: int, master_seed: int, w) -> int:
    """Wins of table-optimal play: each run carries the index of its state
    in the box, one gather from the stored policy per step, and is won when
    it ends at the empty config."""
    cum_w = np.cumsum(w)
    k = np.int64(box.graph.k)  # the int32 indices of nxt scale to int64 positions
    nxt = box.nxt.ravel()
    first = box.index(start)
    wins = 0
    for lo in range(0, runs, _CHUNK):
        hi = min(lo + _CHUNK, runs)
        idx = np.full(hi - lo, first, dtype=np.int64)
        for _, column in zip(range(int(start.sum())), _uniform_columns(master_seed, lo, hi)):
            idx = nxt.take(idx * k + _draw_vertices(cum_w, column))
        wins += int(np.count_nonzero(idx == 0))
    return wins


def _incidence_rows(g: Graph) -> np.ndarray:
    """Row v - 1 lists vertex v's edges in incidence order, padded with edge
    m, a count column that stays 0."""
    incidence = np.full((g.k, max(map(len, g.incidence))), g.m, dtype=np.int64)
    for v, edges in enumerate(g.incidence):
        incidence[v, : len(edges)] = edges
    return incidence


def _play_chunks(g: Graph, start, strategy: Strategy, runs: int, master_seed: int, w, steps: int):
    """Final states (n, m) and forfeit flags of runs 0..runs-1, one chunk of
    n <= _CHUNK runs at a time, each run stopped after `steps` moves: run i
    ends as play(g, start, strategy, child_rng(master_seed, i), w, steps)
    does.

    Greedy and SteerExact play the runs of a chunk in lockstep, one step at
    a time: every run draws one vertex uniform a step, and SteerExact one
    kernel uniform more while the remaining total, the same in every run, is
    above its finishing cut, so all runs read the same column of their
    streams.  Any other strategy plays the serial loop."""
    total = int(start.sum())
    lockstep = isinstance(strategy, (GreedyLargest, SteerExact))
    cum_w, incidence = np.cumsum(w), _incidence_rows(g)
    # greedy plays the finishing rule with no target from the first step
    target, cut, drift0, kernel_moves = None, total, False, None
    if isinstance(strategy, SteerExact) and total:  # the empty config is won before any move
        strategy.reset(g, start.copy(), total)
        target, cut = np.append(strategy.target, 0), strategy.finish_cut
        kernel_moves, drift0 = _kernel_mover(g, strategy), not strategy._stage1.done
    for lo in range(0, runs, _CHUNK):
        hi = min(lo + _CHUNK, runs)
        # column m stays 0: the count of the incidence padding
        state = np.zeros((hi - lo, g.m + 1), dtype=np.int64)
        state[:, : g.m] = start
        forfeit = np.zeros(hi - lo, dtype=bool)
        if lockstep:
            draws = _uniform_columns(master_seed, lo, hi)
            live = np.arange(hi - lo)  # the runs that have not forfeited
            drifting = np.full(hi - lo, drift0)  # the runs still in SteerExact's stage 1
            for t in range(steps):
                v = _draw_vertices(cum_w, next(draws).take(live))
                if total - t <= cut:
                    e = _legal_moves(incidence, state, live, v, target)
                else:
                    drift = drifting[live]
                    e = kernel_moves(state[live], v, next(draws).take(live), total - t, drift)
                    drifting[live] = drift
                out = e == FORFEIT
                if out.any():
                    forfeit[live[out]] = True
                    live, e = live[~out], e[~out]
                state.reshape(-1)[live * (g.m + 1) + e] -= 1  # a view of the rows
        else:
            for i in range(lo, hi):
                game = play(g, start, strategy, child_rng(master_seed, i), w, steps_limit=steps)
                state[i - lo, : g.m], forfeit[i - lo] = game.final, game.forfeit_step is not None
        yield state[:, : g.m], forfeit


def _legal_moves(incidence, state, live, v, target=None) -> np.ndarray:
    """`_legal_move` for the runs `live`, rows of the C-contiguous state,
    with drawn vertices v (0-based): the largest positive excess over
    `target` when given (the target is non-negative, so an edge with positive
    excess is never empty), else the largest positive count; ties to the
    first edge in incidence order; FORFEIT if none.  Flat `take`s gather
    faster than fancy indexing."""
    cand = incidence.take(v, axis=0)
    counts = state.take(live[:, None] * state.shape[1] + cand)
    first = np.arange(0, cand.size, cand.shape[1])  # each run's first candidate
    pick = first + counts.argmax(axis=1)
    e = np.where(counts.take(pick) > 0, cand.take(pick), FORFEIT)
    if target is not None:
        excess = counts - target.take(cand)
        pick = first + excess.argmax(axis=1)
        e = np.where(excess.take(pick) > 0, cand.take(pick), e)
    return e


def _norms(rows) -> list[float]:
    """np.linalg.norm of each row of a C-contiguous float array, computed as
    it computes a vector's: sqrt(x.dot(x)), the dot through BLAS."""
    return [math.sqrt(row.dot(row)) for row in rows]


def _kernel_mover(g: Graph, strategy: SteerExact):
    """The moves of a reset SteerExact before its finishing window, for the
    runs that share a step: `moves(s, v, u, r, drift)` takes their counts s,
    drawn vertices v (0-based), kernel uniforms u, the remaining total r and
    their stage-1 flags `drift`, which it clears for the runs whose stage 1
    ends.  Shared and elementwise work is done on (runs, m) arrays; the
    flows, the draws from their kernel rows and the norms stay per run, so
    every bit is the serial loop's."""
    m, stage1, d0 = g.m, strategy._stage1, strategy.d0
    z, eps0 = stage1.z, stage1.eps0
    # the target kernel's running row sums, added left to right as _draw_edge does
    z_rows = np.array(stage1._z_kernel)
    z_cum = np.cumsum(z_rows, axis=1)
    z_last = np.array([np.flatnonzero(row > 0).max() for row in z_rows])
    exits = None if stage1.done else _exit_rows(g, stage1.u)

    def moves(s, v, u, r, drift):
        """Stage 1 for the drifting runs, confinement for the others: a draw
        from the kernel of the exit point, or of the target when there is
        none, then the legal fallback for an empty edge."""
        e = np.empty(len(s), dtype=np.int64)
        plain = ~drift  # the runs that draw from the target kernel
        confine = plain.copy()
        if not confine.all():
            pos = np.flatnonzero(drift)
            x = s[pos, :m] / r
            near = np.array(_norms(x - z)) <= eps0
            drift[pos[near]] = False  # the stage ends; this move plays the target kernel
            plain[pos[near]] = True
            if not near.all():
                _draw_exit_kernels(g, exits(x[~near]), pos[~near], v, u, e)
        if confine.any():
            pos = np.flatnonzero(confine)
            far = np.array(_norms(s[pos, :m] - r * z)) >= d0
            for j in pos[far].tolist():
                y = _exit_point(g, z, s[j, :m].astype(float) / r - z)
                if y is not None:
                    plain[j] = False
                    e[j] = _draw_edge(_kernel_for(g, y)[v[j]], u[j])
        if plain.any():
            pos = np.flatnonzero(plain)
            below = u[pos, None] < z_cum[v[pos]]
            e[pos] = np.where(below.any(axis=1), below.argmax(axis=1), z_last[v[pos]])
        for j in np.flatnonzero(s[np.arange(len(s)), e] <= 0).tolist():
            e[j] = _legal_move(g, s[j], int(v[j]) + 1)
        return e

    return moves


def _draw_exit_kernels(g: Graph, y: np.ndarray, pos, v, u, e) -> None:
    """e[j] for each run j in pos: the draw by uniform u[j] from vertex v[j]'s
    row of the flow kernel of its exit point, the matching row of y,
    normalised as _kernel_for does (each row sum taken alone, as NumPy adds
    up a vector)."""
    point = np.maximum(y, 0.0)
    point /= np.array([np.add.reduce(row) for row in point])[:, None]
    bad = ~np.isfinite(point).all(axis=1)
    if bad.any():
        _kernel_for(g, y[bad.argmax()])  # raises OutsideSimplex
    for j, p, entries in zip(pos.tolist(), point, point.tolist()):
        e[j] = _draw_edge(_flow_kernel(g, p, entries)[v[j]], u[j])


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
    since that state has a larger total than the target).  The target total
    n1 must lie in 0..n, the start's total; greedy and SteerExact runs
    play in lockstep, as the serial loop would."""
    if runs < 1:
        raise ValueError("need at least one run")
    master_seed = _check_seed(master_seed)
    w = _vertex_law(g, strategy, weights)
    z = np.asarray(z, dtype=float)
    config = check_config(g, config)
    total = int(config.sum())
    if not 0 <= n1 <= total:
        raise DomainError(f"target total {n1} is outside 0..{total}, the start's total")
    target = round_to_config(n1, z)
    chunks = _play_chunks(g, config, strategy, runs, master_seed, w, total - n1)
    final, forfeit = map(np.concatenate, zip(*chunks))
    gaps = final - target
    devs = np.array([float(np.linalg.norm(gap)) for gap in gaps])
    hits = int(np.count_nonzero(~forfeit & ~gaps.any(axis=1)))
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
    s_increments: np.ndarray | None
    positive_drift_steps: list[int]


def replay_states(result: GameResult) -> np.ndarray:
    """Reconstruct the state after each recorded step from the final config."""
    trace = result.trace
    states = np.empty((result.steps_played + 1, len(result.final)), dtype=np.int64)
    states[result.steps_played] = result.final
    for t in range(result.steps_played - 1, -1, -1):
        states[t] = states[t + 1]
        states[t, trace.edges[t]] += 1
    return states


def trace_diagnostics(g: Graph, result: GameResult, stage1: Stage1Steer) -> Diagnostics:
    """Per-step increments of the stage-1 supermartingale along a traced
    game, from the states that `replay_states` rebuilds.

    With the stage-1 strategy that played the game (reset by it), the
    increments of S = (N - r*z) @ u along its target z and direction u are
    returned, and the exact conditional mean increment of S at each visited
    state is recomputed from the prescribed kernel (one-step summation);
    steps where it is positive are flagged.  A start at the target has no
    direction, so no increments."""
    if result.trace is None:
        raise ValueError("result carries no trace")
    states = replay_states(result)
    n = int(states[0].sum())
    s_increments = None
    positive: list[int] = []
    if stage1.u is not None:
        z, u = stage1.z, stage1.u
        s_increments = np.diff([float((st - (n - t) * z) @ u) for t, st in enumerate(states)])
        rem = n - np.arange(len(states) - 1)
        x = states[:-1] / rem[:, None]
        # the stage ends for good once the state comes within eps0 of z
        gaps = zip(rem.tolist(), _norms(x - z))
        stop = next((t for t, (r, d) in enumerate(gaps) if r <= 1 or d <= stage1.eps0), len(x))
        for t, y in enumerate(_exit_rows(g, u)(x[:stop])):
            _, kernel = membership_flow(g, np.maximum(y, 0.0) / max(y.sum(), 1e-300))
            if kernel is not None and float((kernel.weights @ kernel.q - z) @ u) < -1e-12:
                positive.append(t)
    return Diagnostics(s_increments=s_increments, positive_drift_steps=positive)
