"""Seeded Monte Carlo game engine.

Each run draws i.i.d. vertices from the vertex weights, asks the strategy for
an edge, and decrements it; the game is won when the all-zero config is
reached after exactly n steps.  Run i of an estimate uses the child stream
SeedSequence(master_seed, spawn_key=(i,)), so results are reproducible and
independent of execution order.  Vertex draws consume exactly one uniform
variate per step (inverse-CDF).  `_uniform_columns` computes the streams of a
chunk of runs, NumPy's SeedSequence and PCG64 re-done in uint32 and uint64
array arithmetic, block by block in buffers allocated once, and yields their
raw 64-bit words one column (one draw of every run) at a time.  `random()`
is (raw >> 11) * 2**-53, so a batched vertex draw compares the raw word with
exact integer cuts (`_word_cuts`), and only a kernel uniform is made as a
float.  The batched paths read those columns step by step and reproduce the
serial loop bit-for-bit: table play walks the policy it builds from a box's
values, drawing each vertex into the policy's index, and greedy and
SteerExact runs, with a steering report's traced Stage1Steer games, share
one lockstep loop (`_lockstep`), in groups that each read their own streams.
A steering run draws one kernel uniform more per step until its finishing
window, at the same step in every run of its group, so those runs read one
column too.

Memory follows values.py's rule: a builder checks its own charge against the
budget its caller passes.  estimate charges table play's walk, the box's
values and policy, once, before downset_table builds the box and checks the
box's own charge against the same budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, IllegalStrategyMove
from .geometry import TOL, check_weights, uniform_weights
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
    _kernel_points,
    _legal_move,
    _norm,
)
from .values import (
    _BOX_CHUNK,
    DEFAULT_BUDGET,
    DownSetTable,
    ValueTable,
    _check_budget,
    check_config,
    check_held,
    downset_table,
    graph_hash,
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
# PCG64 (128-bit LCG, XSL-RR output).  SeedSequence's words live in uint32
# arrays and PCG64's in uint64 arrays, so every product wraps natively; a
# numpy scalar would warn on the wrap, hence the one-element arrays below.

_U32 = np.uint64(0xFFFFFFFF)
_SHIFT_16, _SHIFT_32 = np.uint32(16), np.uint64(32)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_HI, _PCG_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _hashmix(value, hc: int, mult: int):
    """SeedSequence's hashmix of uint32 words; `hc` is the running hash
    constant (a Python int), returned advanced."""
    value = value ^ np.uint32(hc)
    hc = hc * mult & 0xFFFFFFFF
    value = value * np.uint32(hc)
    return value ^ value >> _SHIFT_16, hc


def _mix(x, y):
    result = x * _MIX_L - y * _MIX_R
    return result ^ result >> _SHIFT_16


def _seed_state(master_seed: int, spawn_words: list) -> list:
    """SeedSequence(master_seed, spawn_key=(i,)).generate_state(4, uint64)
    as four uint64 arrays, one entry per run; spawn_words holds the uint32
    arrays of the runs' indices' words, least significant first."""
    # with a spawn key the seed is zero-padded to the pool size
    n_words = max(4, (master_seed.bit_length() + 31) // 32)
    entropy = [np.array([master_seed >> 32 * j & 0xFFFFFFFF], np.uint32) for j in range(n_words)]
    entropy += spawn_words
    hc, pool = _INIT_A, []
    for word in entropy[:4]:
        word, hc = _hashmix(word, hc, _MULT_A)
        pool.append(word)
    # each pool word into the other three, then each extra word into all four
    pool += entropy[4:]
    for src in range(len(pool)):
        for dst in range(4):
            if src != dst:
                word, hc = _hashmix(pool[src], hc, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    hc, out = _INIT_B, []
    for i in range(8):
        word, hc = _hashmix(pool[i % 4], hc, _MULT_B)
        out.append(word.astype(np.uint64))
    # little-endian pairs of 32-bit words
    return [out[2 * j] | out[2 * j + 1] << _SHIFT_32 for j in range(4)]


@lru_cache(maxsize=4)
def _lcg_jumps(width: int) -> np.ndarray:
    """Multipliers a and g such that j + 1 PCG64 steps take a state s to
    s * a[j] + inc * g[j] mod 2**128, each as (width, 1) uint64 arrays of
    the high word, the low word and the low word's two 32-bit limbs."""
    mult, a, g = int(_PCG_HI) << 64 | int(_PCG_LO), [1], [0]
    for _ in range(width):
        a.append(a[-1] * mult % (1 << 128))
        g.append((g[-1] * mult + 1) % (1 << 128))
    fields = ((64, 64), (0, 64), (0, 32), (32, 32))  # bit offsets and lengths
    words = [[v >> s & (1 << b) - 1 for v in vals] for vals in (a[1:], g[1:]) for s, b in fields]
    words = np.array(words, dtype=np.uint64).reshape(2, 4, width, 1)
    words.flags.writeable = False  # shared through the cache
    return words


def _muladd128(hi, lo, m, add_hi, add_lo, buffers) -> None:
    """(hi, lo) * m + (add_hi, add_lo) mod 2**128, m either multiplier of
    `_lcg_jumps`, into buffers[:2], which hi and lo may view: they are read
    before any buffer is written.  The high word of lo * m_lo comes from
    32-bit limbs as lo1*m1 + (t >> 32) + (u >> 32), with t = lo1*m0 +
    (lo0*m0 >> 32) and u = (t mod 2**32) + lo0*m1, none of which reaches
    2**64: 23 ufunc passes a state."""
    new_hi, new_lo, x, y, z, carry, lo0, lo1 = buffers
    m_hi, m_lo, m0, m1 = m
    np.bitwise_and(lo, _U32, out=lo0)
    np.right_shift(lo, _SHIFT_32, out=lo1)
    np.multiply(hi, m_lo, out=x)
    x += np.multiply(lo, m_hi, out=y)
    np.multiply(lo, m_lo, out=z)
    np.multiply(lo0, m0, out=new_hi)
    new_hi >>= _SHIFT_32
    new_hi += np.multiply(lo1, m0, out=y)  # t
    np.bitwise_and(new_hi, _U32, out=new_lo)
    new_lo += np.multiply(lo0, m1, out=y)  # u
    new_hi >>= _SHIFT_32
    new_lo >>= _SHIFT_32
    new_hi += new_lo
    new_hi += x
    new_hi += np.multiply(lo1, m1, out=y)
    new_hi += add_hi
    np.add(z, add_lo, out=new_lo)
    new_hi += np.less(new_lo, add_lo, out=carry)


# a block of _uniform_columns: at most _BLOCK draws, at most _WIDTH per run
_BLOCK, _WIDTH = 1 << 14, 256


def _uniform_columns(master_seed: int, lo: int, hi: int):
    """The raw draws of runs lo <= i < hi, one uint64 column per draw: the
    j-th column yielded holds each run's j-th
    `child_rng(master_seed, i).bit_generator.random_raw()`, whose top 53
    bits make its j-th `random()`.  A block of up to _BLOCK draws is jumped
    ahead from the last state of the block before (the first from the state
    before PCG64's seeding step, whose row it drops) in buffers allocated
    once; its XSL-RR words land in a fresh array, so a column stays valid
    after later draws."""
    runs = []
    # a spawn index below 2**32 is one uint32 word, a larger one two
    for a, b, n_words in ((lo, min(hi, 1 << 32), 1), (max(lo, 1 << 32), hi, 2)):
        if a < b:
            idx = np.arange(a, b, dtype=np.uint64)
            words = [idx.astype(np.uint32), (idx >> _SHIFT_32).astype(np.uint32)]
            runs.append(_seed_state(master_seed, words[:n_words]))
    s0, s1, s2, s3 = (np.concatenate([state[j] for state in runs]) for j in range(4))
    width = max(1, min(_BLOCK // (hi - lo), _WIDTH))
    jump, inc_jump = _lcg_jumps(width)
    # the new hi and lo words, three scratch words, the carry, the old lo's limbs
    new_hi, new_lo, x, y, z = np.empty((5, width, hi - lo), dtype=np.uint64)
    buffers = (new_hi, new_lo, x, y, z, np.empty(x.shape, bool), *np.empty((2, hi - lo), np.uint64))
    # PCG64 seeding: inc = (initseq << 1) | 1, then one step from inc + initstate
    inc_hi = s2 << np.uint64(1) | s3 >> np.uint64(63)
    inc_lo = s3 << np.uint64(1) | np.uint64(1)
    _muladd128(inc_hi, inc_lo, inc_jump, np.uint64(0), np.uint64(0), buffers)
    step_hi, step_lo = new_hi.copy(), new_lo.copy()  # inc * g[j], one row per column
    st_lo = inc_lo + s1
    st_hi, skip = inc_hi + s0 + (st_lo < s1), 1
    while True:
        _muladd128(st_hi, st_lo, jump, step_hi, step_lo, buffers)
        # XSL-RR: hi ^ lo rotated right by the top six bits r; a uint64
        # shift by 64 - r = 64 is 0, so r = 0 needs no mask
        np.bitwise_xor(new_hi, new_lo, out=x)
        np.right_shift(new_hi, np.uint64(58), out=y)
        np.right_shift(x, y, out=z)
        x <<= np.subtract(np.uint64(64), y, out=y)
        yield from np.bitwise_or(x[skip:], z[skip:])
        st_hi, st_lo, skip = new_hi[-1], new_lo[-1], 0


def _draw_vertex(rng, cum_weights: np.ndarray) -> int:
    # the last cumulative weight may round below 1; the top of [0, 1) is vertex k
    return int(np.searchsorted(cum_weights[:-1], rng.random(), side="right")) + 1


def _word_cuts(cum_weights: np.ndarray) -> np.ndarray:
    """The raw-word cut points of the cumulative weights but the last: a
    uniform u = (raw >> 11) * 2**-53 is at or above c exactly when raw is at
    or above ceil(c * 2**53) * 2**11.  A cut above 1 - 2**-53, which no
    uniform reaches, is dropped."""
    tops = [math.ceil(c * 2.0**53) for c in cum_weights[:-1].tolist()]
    return np.array([t << 11 for t in tops if t < 1 << 53], dtype=np.uint64)


def _draw_vertices(cuts: np.ndarray, column: np.ndarray) -> np.ndarray:
    """The 0-based vertices that `_draw_vertex` draws from a column of raw
    words: the number of `_word_cuts` at or below each word.  Unlike a
    binary search, the count does not branch on every draw, which makes
    long columns several times faster."""
    return (cuts[:, None] <= column).sum(axis=0)


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
        verts, edges = np.zeros((2, steps), dtype=np.int64)

    forfeit_step, t = None, 0
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
    walk the optimal policy of the box under the start, greedy and SteerExact
    play in lockstep (`_play_chunks`), each bit-for-bit as the serial loop.

    A table strategy's table is a DownSetTable, walked as it is, or a
    ValueTable, whose box under the start is built here: a table that lists
    no layer (`layers=[]`) names only the graph, the law and a total.  The
    walk, 8 bytes of values a state and its policy (`policy_bytes`), is
    charged against the budget less a held table's layers before anything
    is built, and downset_table then charges the box against the same
    budget."""
    if runs < 1:
        raise ValueError("need at least one run")
    master_seed = _check_seed(master_seed)
    w = _vertex_law(g, strategy, weights)
    config = check_config(g, config)
    if isinstance(strategy, TableStrategy):
        box = strategy.table
        if graph_hash(box.graph) != graph_hash(g) or not np.array_equal(box.weights, w):
            raise DomainError("the value table was built for another graph or vertex law")
        check_held(box, config)
        if isinstance(box, ValueTable):
            held = sum(layer.nbytes for layer in box.layers if layer is not None)
            budget, top = max(DEFAULT_BUDGET - held, 0), config
        else:
            budget, top = DEFAULT_BUDGET, box.top
        # the walk: the box's values and their policy
        states = math.prod(int(c) + 1 for c in top)
        _check_budget(8 * states + policy_bytes(g.k, g.m, states), budget)
        if isinstance(box, ValueTable):
            box = downset_table(g, config, w, budget)
        successes = _box_wins(box, config, runs, master_seed, w)
    else:
        chunks = _play_chunks(g, config, strategy, runs, master_seed, w, int(config.sum()))
        successes = runs - sum(int(np.count_nonzero(forfeit)) for _, forfeit, _ in chunks)
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


def policy_bytes(k: int, m: int, states: int) -> int:
    """Peak memory of _box_policy: 4k bytes a state and the sink's, and one
    chunk's working arrays, as many as values.downset_bytes counts."""
    return 4 * k * (states + 1) + 8 * (4 * m + 8) * min(states, _BOX_CHUNK)


def _box_policy(box: DownSetTable) -> np.ndarray:
    """The flat int32 optimal policy of a box: entry i*k + v - 1 is the child
    of state i through the first of v's edges, in incidence order, of
    largest value (optimal_move's edge), or the sink len(values), whose row
    maps to itself, when v has no positive edge.  Its bytes, policy_bytes,
    are charged by estimate with the walk's."""
    g, stride, sink = box.graph, box.stride, len(box.values)
    nxt = np.full((sink + 1, g.k), sink, dtype=np.int32)
    for lo in range(0, sink, _BOX_CHUNK):
        idx = np.arange(lo, min(lo + _BOX_CHUNK, sink))
        # the children's values as in downset_table, but -1.0, below every
        # value, for an empty edge: the largest only where v has no move
        cand = np.take(box.values, idx - stride[:, None], mode="clip")
        cand[idx // stride[:, None] % (box.top + 1)[:, None] == 0] = -1.0
        for v, edges in enumerate(map(list, g.incidence)):
            top, step = cand[edges].max(axis=0), np.full(len(idx), stride[edges[-1]])
            for e in edges[-2::-1]:  # last to first: the first of the largest wins
                step[cand[e] == top] = stride[e]
            nxt[lo : lo + len(idx), v] = np.where(top < 0.0, sink, idx - step)
        del cand, top, step  # the next chunk's candidates need their room
    return nxt.ravel()


def _box_wins(box: DownSetTable, start, runs: int, master_seed: int, w) -> int:
    """Wins of table-optimal play: each run carries the index of its state
    in the box, one gather from the box's policy per step (estimate has
    charged the policy), and is won when it ends at the empty config.  The
    drawn vertex is `_draw_vertices`' count, added into the gather's
    position idx * k one raw-word cut at a time, with no (k - 1, runs)
    temporary."""
    nxt = _box_policy(box)  # 4k bytes a state: k * states < 2**31
    cuts, k, wins = _word_cuts(np.cumsum(w)), box.graph.k, 0
    for lo in range(0, runs, _CHUNK):
        hi = min(lo + _CHUNK, runs)
        idx, at = np.full(hi - lo, int(start @ box.stride)), np.empty(hi - lo, dtype=bool)
        for _, column in zip(range(int(start.sum())), _uniform_columns(master_seed, lo, hi)):
            idx *= k
            for c in cuts:
                idx += np.greater_equal(column, c, out=at)
            idx = nxt.take(idx)
        wins += int(np.count_nonzero(idx == 0))
    return wins


def _incidence_rows(g: Graph) -> np.ndarray:
    """Row v - 1 lists vertex v's edges in incidence order, padded with edge
    m, a count column that stays 0."""
    incidence = np.full((g.k, max(map(len, g.incidence))), g.m, dtype=np.int64)
    for v, edges in enumerate(g.incidence):
        incidence[v, : len(edges)] = edges
    return incidence


def _play_chunks(
    g: Graph, start, strategy: Strategy, runs: int, master_seed: int, w, steps: int, traced=None
):
    """Final states (n, m), forfeit flags and traced games of runs
    0..runs-1, one chunk of n <= _CHUNK runs at a time, each run stopped
    after `steps` moves: run i ends as play(g, start, strategy,
    child_rng(master_seed, i), w, steps) does.  Greedy and SteerExact runs
    play in `_lockstep`, any other strategy the serial loop.
    `traced`, a tuple (stage1, seed, count, limit), adds the games
    play(g, start, stage1, child_rng(seed, i), w, limit, trace=True),
    i < count, to the first chunk's lockstep loop, and that chunk carries
    their GameResults."""
    lockstep = isinstance(strategy, (GreedyLargest, SteerExact))
    for lo in range(0, runs, _CHUNK):
        hi = min(lo + _CHUNK, runs)
        groups = [(strategy, master_seed, lo, hi, steps, False)] if lockstep else []
        if traced is not None and lo == 0:
            stage1, seed, count, limit = traced
            groups.append((stage1, seed, 0, count, limit, True))
        played = _lockstep(g, start, groups, w) if groups else []
        if lockstep:
            state, forfeit, _ = played[0]
        else:
            state, forfeit = np.zeros((hi - lo, g.m), dtype=np.int64), np.zeros(hi - lo, dtype=bool)
            for i in range(lo, hi):
                game = play(g, start, strategy, child_rng(master_seed, i), w, steps_limit=steps)
                state[i - lo], forfeit[i - lo] = game.final, game.forfeit_step is not None
        yield state, forfeit, played[-1][2] if traced is not None and lo == 0 else []


def _lockstep(g: Graph, start, groups, w) -> list:
    """Play groups of runs from `start` together, one step at a time.  A
    group (strategy, master_seed, lo, hi, steps, trace) holds runs lo..hi-1
    under GreedyLargest, Stage1Steer or SteerExact, all toward one target:
    run i ends as play(g, start, strategy, child_rng(master_seed, i), w,
    steps, trace) does.  Every run draws one vertex uniform a step, and a
    steering run one kernel uniform more while the remaining total is above
    its group's finishing cut (the strategy's `finish_cut`, 0 for a bare
    Stage1Steer; greedy finishes from the first step), so each group reads
    one column of its own streams a draw, until every run has stopped.
    Every steering group is read through the same fields: eps0, d0,
    finish_cut, target and done.  Returns, per group, the final states
    (n, m), the forfeit flags and, when traced, the GameResults (else
    None)."""
    total, m = int(start.sum()), g.m
    vertex_cuts, incidence = _word_cuts(np.cumsum(w)), _incidence_rows(g)
    rows = sum(hi - lo for _, _, lo, hi, _, _ in groups)
    # column m stays 0: the count of the incidence padding
    state = np.zeros((rows, m + 1), dtype=np.int64)
    state[:, :m] = start
    stop = np.full(rows, -1)  # the step at which a run forfeited
    eps0, d0, cuts = np.zeros(rows), np.full(rows, np.inf), np.full(rows, total)
    drifting = np.zeros(rows, dtype=bool)
    target = moves = None
    plays, a = [], 0
    for strategy, seed, lo, hi, steps, trace in groups:
        b, cut = a + hi - lo, total
        # the empty config is won before any move
        if total and not isinstance(strategy, GreedyLargest):
            strategy.reset(g, start.copy(), total)
            cut, eps0[a:b], d0[a:b] = strategy.finish_cut, strategy.eps0, strategy.d0
            drifting[a:b] = not strategy.done
            if strategy.target is not None:
                target = np.append(strategy.target, 0)
            moves = moves or _kernel_mover(strategy)
        steps, cuts[a:b] = min(steps, total), cut
        record = np.zeros((2, b - a, steps), dtype=np.int64) if trace else None
        plays.append((_uniform_columns(seed, lo, hi), a, b, steps, cut, record))
        a = b
    # each group's draws in its own rows: raw words, and kernel uniforms
    columns, uniforms = np.empty(rows, dtype=np.uint64), np.empty(rows)
    live = np.arange(rows)  # the runs still playing
    for t in range(max(steps for _, _, _, steps, _, _ in plays)):
        ahead = False  # some group draws from a kernel
        for draws, a, b, steps, cut, _ in plays:
            if t == steps:
                live = live[(live < a) | (live >= b)]
            elif t < steps:
                columns[a:b] = next(draws)
                if cut < total - t:  # Generator.random()'s (raw >> 11) * 2**-53
                    np.multiply(next(draws) >> np.uint64(11), 2.0**-53, out=uniforms[a:b])
                    ahead = True
        v = _draw_vertices(vertex_cuts, columns.take(live))
        if not ahead:
            e = _legal_moves(incidence, state, live, v, target)
        else:
            on = cuts.take(live) < total - t
            e = np.empty(len(live), dtype=np.int64)
            if not on.all():
                e[~on] = _legal_moves(incidence, state, live[~on], v[~on], target)
            if on.any():
                k = live[on]
                drift = drifting[k]
                e[on] = moves(state[k], v[on], uniforms.take(k), total - t, drift, eps0[k], d0[k])
                drifting[k] = drift
        out = e == FORFEIT
        if out.any():
            stop[live[out]] = t
            live, v, e = live[~out], v[~out], e[~out]
        for _, a, b, steps, _, record in plays:
            if record is not None and t < steps:
                mine = (live >= a) & (live < b)
                record[:, live[mine] - a, t] = v[mine] + 1, e[mine]
        state.reshape(-1)[live * (m + 1) + e] -= 1  # a view of the rows
        if not len(live):
            break
    final, results = state[:, :m], []
    for _, a, b, steps, _, record in plays:
        games = None if record is None else [
            GameResult(
                won=f < 0 and steps == total,
                steps_played=steps if f < 0 else f,
                forfeit_step=None if f < 0 else f,
                final=final[a + i].copy(),
                trace=Trace(*record[:, i, : steps if f < 0 else f]),
            )
            for i, f in enumerate(stop[a:b].tolist())
        ]
        results.append((final[a:b], stop[a:b] >= 0, games))
    return results


def _legal_moves(incidence, state, live, v, target=None) -> np.ndarray:
    """`_legal_move` for the runs `live`, rows of the C-contiguous state,
    with drawn vertices v (0-based): the largest positive excess over
    `target` when given (the target is non-negative, so an edge with positive
    excess is never empty), else the largest positive count; ties go to the
    first edge in incidence order, which a left-to-right pass with a strict
    > keeps; FORFEIT if none.  Flat `take`s gather faster than fancy
    indexing."""
    cand = incidence.T.take(v, axis=1)  # one row per candidate position
    counts = state.take(live * state.shape[1] + cand)
    e, up = np.full(len(live), FORFEIT), np.empty(len(live), dtype=bool)
    for score in [counts] if target is None else [counts, counts - target.take(cand)]:
        best = np.zeros(len(live), dtype=np.int64)
        for row, edge in zip(score, cand):
            np.copyto(e, edge, where=np.greater(row, best, out=up))
            np.maximum(best, row, out=best)
    return e


def _kernel_mover(stage1: Stage1Steer):
    """The kernel moves of runs steering toward a reset Stage1Steer's target
    from its start on its graph, before their finishing window, for the
    runs that share a step: `moves(s, v, u, r, drift, eps0, d0)` takes their
    counts s, drawn vertices v (0-based), kernel uniforms u, the remaining
    total r, their stage-1 flags `drift`, which it clears for the runs whose
    stage 1 ends, and their stage-1 and confinement radii eps0 and d0 (inf
    for a bare Stage1Steer, which plays the target kernel once it ends).
    Shared and elementwise work is done on (runs, m) arrays; the flows, the
    draws from their kernel rows and the norms stay per run, so every bit
    is the serial loop's."""
    g, m, z = stage1.g, stage1.g.m, stage1.z
    # the target kernel's running row sums, added left to right as _draw_edge does
    z_rows = np.array(stage1._z_kernel)
    z_cum = np.cumsum(z_rows, axis=1)
    z_last = np.array([np.flatnonzero(row > 0).max() for row in z_rows])
    exits = None if stage1.u is None else _exit_rows(g, stage1.u)

    def moves(s, v, u, r, drift, eps0, d0):
        """Stage 1 for the drifting runs, confinement for the others: a draw
        from the kernel of the exit point, or of the target when there is
        none, then the legal fallback for an empty edge."""
        e = np.empty(len(s), dtype=np.int64)
        plain = ~drift  # the runs that draw from the target kernel
        confine = plain.copy()
        if not confine.all():
            pos = np.flatnonzero(drift)
            x = s[pos, :m] / r
            near = np.array([_norm(row) for row in x - z]) <= eps0[pos]
            drift[pos[near]] = False  # the stage ends; this move plays the target kernel
            plain[pos[near]] = True
            if not near.all():
                for j, p in zip(pos[~near].tolist(), _kernel_points(exits(x[~near]))):
                    e[j] = _draw_edge(_flow_kernel(g, p, v[j])[v[j]], u[j])
        if confine.any():
            pos = np.flatnonzero(confine)
            far = np.array([_norm(row) for row in s[pos, :m] - r * z]) >= d0[pos]
            for j in pos[far].tolist():
                y = _exit_point(g, z, s[j, :m].astype(float) / r - z)
                if y is not None:
                    plain[j] = False
                    e[j] = _draw_edge(_kernel_for(g, y, v[j])[v[j]], u[j])
        if plain.any():
            pos = np.flatnonzero(plain)
            below = u[pos, None] < z_cum[v[pos]]
            e[pos] = np.where(below.any(axis=1), below.argmax(axis=1), z_last[v[pos]])
        for j in np.flatnonzero(s[np.arange(len(s)), e] <= 0).tolist():
            e[j] = _legal_move(g, s[j], int(v[j]) + 1)
        return e

    return moves


@dataclass
class TailCurve:
    q: np.ndarray
    tail: np.ndarray
    hits: int
    runs: int
    hit_rate: float
    hit_ci: tuple[float, float]
    target_config: np.ndarray
    traced: list[GameResult] = field(default_factory=list)
    stage1: Stage1Steer | None = None


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
    traced=None,
) -> TailCurve:
    """Empirical tail P[|N(n-n1) - target| > q] of the steering deviation at
    the target time, plus the exact-hit rate.  The integer target is the
    largest-remainder rounding of n1*z.  A game that forfeits before the
    target time is measured at its frozen final state (never an exact hit,
    since that state has a larger total than the target).  The target total
    n1 must lie in 0..n, the start's total; greedy and SteerExact runs
    play in lockstep, as the serial loop would.

    `traced`, a tuple (seed, count, limit), adds the games
    play(g, config, stage1, child_rng(seed, i), steps_limit=limit,
    trace=True) for i < count of stage1 = Stage1Steer(g, z), the drift
    stage alone (a SteerExact would confine and finish).  They play in the
    runs' lockstep loop; the curve lists them in `traced` and carries
    stage1, as reset at the start, in `stage1`; a SteerExact toward
    another point than z is refused."""
    if runs < 1:
        raise ValueError("need at least one run")
    master_seed = _check_seed(master_seed)
    w = _vertex_law(g, strategy, weights)
    z = np.asarray(z, dtype=float)
    stage1 = None
    if traced is not None:
        seed, count, limit = traced
        if count < 1 or limit < 0:
            raise ValueError("traced games need a count >= 1 and a limit >= 0")
        if isinstance(strategy, SteerExact) and not np.array_equal(strategy.z, z):
            raise DomainError("traced games must steer toward the strategy's target")
        stage1 = Stage1Steer(g, z)
        traced = (stage1, _check_seed(seed), count, limit)
        _vertex_law(g, stage1, weights)
    config = check_config(g, config)
    total = int(config.sum())
    if not 0 <= n1 <= total:
        raise DomainError(f"target total {n1} is outside 0..{total}, the start's total")
    target = round_to_config(n1, z)
    chunks = _play_chunks(g, config, strategy, runs, master_seed, w, total - n1, traced)
    final, forfeit, games = zip(*chunks)
    final, forfeit = np.concatenate(final), np.concatenate(forfeit)
    gaps = final - target
    # exact integer squares and sums, so the same bits as _norm of each gap
    devs = np.sqrt((gaps * gaps).sum(axis=1))
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
        traced=games[0],
        stage1=stage1,
    )


@dataclass
class Diagnostics:
    s_increments: np.ndarray | None
    positive_drift_steps: list[int]


def replay_states(result: GameResult) -> np.ndarray:
    """The state at each step: the final config plus the edges played from that step on."""
    played = np.zeros((result.steps_played + 1, len(result.final)), dtype=np.int64)
    played[np.arange(result.steps_played), result.trace.edges] = 1
    return result.final + np.cumsum(played[::-1], axis=0)[::-1]


def trace_diagnostics(result: GameResult, stage1: Stage1Steer) -> Diagnostics:
    """Per-step increments of the stage-1 supermartingale along a traced
    game, from the states that `replay_states` rebuilds.

    With the stage-1 strategy that played the game (reset by it), the
    increments of S = (N - r*z) @ u along its target z and direction u are
    returned.  At each state of stage 1 the kernel played has mean p, the
    exit point on the strategy's graph normalised as `_kernel_points` does,
    so S's conditional mean increment there is (z - p) @ u; steps where
    (p - z) @ u < -1e-12 are flagged.  A start at the target has no direction, so no increments."""
    if result.trace is None:
        raise ValueError("result carries no trace")
    if stage1.u is None:
        return Diagnostics(s_increments=None, positive_drift_steps=[])
    states = replay_states(result)
    n, z, u = int(states[0].sum()), stage1.z, stage1.u
    s_increments = np.diff([float((st - (n - t) * z) @ u) for t, st in enumerate(states)])
    rem = n - np.arange(len(states) - 1)
    x = states[:-1] / rem[:, None]
    # the stage ends for good once the state comes within eps0 of z
    gaps = zip(rem.tolist(), [_norm(row) for row in x - z])
    stop = next((t for t, (r, d) in enumerate(gaps) if r <= 1 or d <= stage1.eps0), len(x))
    p = _kernel_points(_exit_rows(stage1.g, u)(x[:stop]))
    positive = np.flatnonzero(((p - z) * u).sum(axis=1) < -1e-12).tolist()
    return Diagnostics(s_increments=s_increments, positive_drift_steps=positive)
