"""Layered exact dynamic programming for optimal win probabilities.

States are integer edge-count vectors (configs).  All configs with the same
total t form one layer, stored as a dense float64 array indexed by the rank

    rank(n) = sum_{i=1}^{m-1} C(p_i, i),   p_i = i - 1 + n_1 + ... + n_i,

the standard combinatorial-number-system (colex) rank of the bar positions of
the composition.  p_1 varies fastest, so the ranks with one (p_2, ..., p_{m-1})
form a contiguous row of length p_2 along which p_1 runs from 0; a layer has
C(t+m-2, m-2) rows, and only they are unranked.

Decrementing edge e (0-based) lowers every p_i with i > e by one, so the
child's rank in layer t-1 is

    rank(n - 1^e) = rank(n) - sum_{i>e} C(p_i - 1, i - 1),

an offset that is constant along a row (for e = 0 it is the row's offset
for e = 1, plus one), and decrementing the last coordinate preserves the
rank.  The map keeps the colex order, and adding 1^e undoes it, so the
configs with n_e > 0, in rank order, have as children all of layer t-1 in
rank order.  Edge e's candidates are therefore layer t-1 scattered into the
positions with n_e > 0: no child rank and no child config is built.  Two
edges need no scatter.  Edge 0's candidates are edge 1's shifted by one
rank: along a row the offsets differ by one, and a row's first rank, where
n_0 = 0, follows the previous row's last, where n_1 = 0.  The configs with
n_{m-1} > 0 are the first C(t+m-2, m-1) ranks, so the last edge's
candidates are layer t-1 itself, followed by zeros.

Layer t is computed from layer t-1 by the recursion

    p(n) = sum_v p_v * max_{e ~ v, n_e > 0} p(n - 1^e)

with an empty max contributing 0 (a drawn vertex with no positive incident
edge loses the game).  Every value is >= 0.0, so an empty edge may enter the
max as 0.0.  Accumulation is in vertex order, so the stored values can be
reproduced bit-exactly from the previous layer.  Under an equal-weight law
every p_v is one w, and x -> fl(w * x) is monotone, since rounding is, so
fl(w * max_e c_e) = max_e fl(w * c_e): a streamed layer whose previous
layer was rolled scales that layer once in place and then takes only maxima
and sums, with the same bits.  Boxes, other laws and a layer after a kept
layer keep the per-vertex multiply.  Since a layer reads only
the one below, stream_table holds the layers asked for, as views of one
buffer, and one rolling buffer per parity of the total for the others; a
kept layer n_max, the last and largest, is its parity's buffer.
compute_table is the stream that keeps every layer, so it rolls none.

Each builder checks its own charge once, before it allocates, against the
memory_budget its caller passes: DEFAULT_BUDGET less what the caller holds
beside the build.  stream_table checks stream_bytes, load_table load_bytes
and downset_table downset_bytes.

A query about one start config reads only the configs at or below it.
A Box holds the mixed-radix indices of that box and reads a state's counts
off its index (Box.counts), which the batched simulator's greedy policy
reads.  DownSetTable evaluates just that box and holds its values only,
the table's bit for bit: layers and boxes both sum over the vertices in
_vertex_pass.  DownSetTable.child_values is the box's child rule, which
downset_table and the batched simulator's optimal policy read.
"""

from __future__ import annotations

import contextlib
import operator
import os
import shutil
import struct
from dataclasses import dataclass, field
from math import comb, prod

import numpy as np

from .errors import (
    DiskSpaceExceeded,
    DomainError,
    FormatMismatch,
    GraphHashMismatch,
    IoFailure,
    LayerOutOfRange,
    MemoryBudgetExceeded,
    NegativeEntry,
)
from .geometry import check_weights, face_values
from .graph import Graph, full_degree_count, proper_subsets

LOSS = -1
DEFAULT_BUDGET = 1 << 30

_MAGIC = b"SAPG"
_VERSION = 1


# --- rank arithmetic --------------------------------------------------------


def layer_size(total: int, m: int) -> int:
    return comb(total + m - 1, m - 1)


def rank_config(cfg) -> int:
    m = len(cfg)
    r = 0
    p = -1
    for i in range(1, m):
        p += cfg[i - 1] + 1
        r += comb(p, i)
    return r


def rank_configs(cfgs) -> np.ndarray:
    """rank_config of every row of an (N, m) config array, as int64: the
    binomials C(p_i, i) are built column by column as products, each
    exact since it divides into the next one."""
    cfgs = np.asarray(cfgs, dtype=np.int64)
    bars = np.cumsum(cfgs[:, :-1] + 1, axis=1) - 1
    ranks = np.zeros(len(cfgs), dtype=np.int64)
    for i in range(1, cfgs.shape[1]):
        p = bars[:, i - 1]
        binom = np.ones(len(cfgs), dtype=np.int64)
        for j in range(i):
            binom = binom * (p - j) // (j + 1)
        ranks += binom
    return ranks


def _layer_bars(total: int, m: int) -> np.ndarray:
    """The (m-1, N) bar positions of every rank of layer total.

    In rank order the rows' q_i = p_{i+1} - 1 are the bars of layer total
    with m-1 edges, so the rows come from that smaller layer and are
    repeated along their lengths p_2, while p_1 runs from 0 along each row.
    For m = 2 the layer is one row.
    """
    n = layer_size(total, m)
    if m < 3:
        return np.arange(n).reshape(m - 1, n)
    rows = _layer_bars(total, m - 1)
    rows += 1
    lengths = rows[0]
    bars = np.empty((m - 1, n), dtype=np.int64)
    for i in range(1, m - 1):
        bars[i] = np.repeat(rows[i - 1], lengths)
    bars[0] = np.arange(n)
    bars[0] -= np.repeat(np.cumsum(lengths) - lengths, lengths)
    return bars


def _live(total: int, m: int) -> list[np.ndarray]:
    """The bool masks of edges 1..m-2 of layer total, one array each,
    marking the configs with a positive count on that edge.  Along a row
    (see _layer_bars) edge 1's count p_2 - p_1 - 1 is 0 only at the end,
    and each of edges 2..m-2 keeps one count.  Edges 0 and m-1 need no
    mask (see _next_layer).  Layer t's masks are a prefix of layer t+1's,
    whose first ranks hold layer t's configs with n_{m-1} one higher."""
    if m < 3:
        return []
    rows = _layer_bars(total, m - 1)
    rows += 1
    lengths = rows[0]
    live = [np.ones(layer_size(total, m), dtype=bool)]
    live[0][np.cumsum(lengths) - 1] = False
    return live + [np.repeat(rows[e - 1] - rows[e - 2] > 1, lengths) for e in range(2, m - 1)]


def _configs(bars: np.ndarray, total: int) -> np.ndarray:
    """The configs of the given bar positions in layer total, as (N, m)."""
    m = len(bars) + 1
    cfgs = np.empty((bars.shape[1], m), dtype=np.int64)
    lower = -1
    for e in range(m):
        upper = bars[e] if e < m - 1 else total + m - 1
        cfgs[:, e] = upper - lower - 1
        lower = upper
    return cfgs


def _unranker(total: int, m: int):
    """The (N, m) configs of N ranks in layer total, as a function of the
    ranks: each rank falls in one row (see _layer_bars), found among the
    rows' cumulative lengths once built, and its offset in that row is p_1."""
    if m == 2:
        return lambda ranks: _configs(ranks[None], total)
    rows = _layer_bars(total, m - 1) + 1
    ends = np.cumsum(rows[0])

    def unrank(ranks: np.ndarray) -> np.ndarray:
        j = np.searchsorted(ends, ranks, side="right")
        return _configs(np.vstack([ranks - ends[j] + rows[0, j], rows[:, j]]), total)

    return unrank


def round_to_config(total: int, x) -> np.ndarray:
    """Largest-remainder rounding of total*x to an integer config preserving
    the total; remainder ties break toward the lowest edge index."""
    x = np.asarray(x, dtype=float)
    scaled = total * x
    base = np.floor(scaled).astype(np.int64)
    deficit = int(total - base.sum())
    rem = scaled - base
    order = np.lexsort((np.arange(len(x)), -rem))
    base[order[:deficit]] += 1
    return base


# --- graph hashing ----------------------------------------------------------


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def graph_hash(g: Graph) -> int:
    """64-bit FNV-1a over the canonical edge list `k|u1,v1;u2,v2;...`."""
    text = f"{g.k}|" + ";".join(f"{u},{v}" for u, v in g.edges)
    return fnv1a64(text.encode("ascii"))


# --- the value table --------------------------------------------------------


@dataclass
class ValueTable:
    """Layers 0..n_max of the exact values; a streamed table keeps only some
    of them, and the others are None.  A table may list fewer layers, none
    at all for the total and law of a game that walks a box (see
    simulate.estimate)."""

    graph: Graph
    n_max: int
    weights: np.ndarray
    layers: list[np.ndarray | None]

    def layer(self, t: int) -> np.ndarray:
        """Layer t; LayerOutOfRange outside 0..n_max or for a layer not kept
        or not listed."""
        if not 0 <= t <= self.n_max:
            raise LayerOutOfRange(f"layer {t} not in 0..{self.n_max}")
        if t >= len(self.layers) or self.layers[t] is None:
            raise LayerOutOfRange(f"layer {t} was not kept")
        return self.layers[t]


_CHUNK = 1 << 14  # ranks of a layer evaluated per step of _next_layer
# a kept layer's array object and size, and the record numpy keeps of its
# buffer once it is written to a cache file
_LAYER_OBJECT_BYTES = 320
_FILE_BUFFER = 1 << 13  # a cache file's buffer: io's default, or a 4 KiB block


def required_bytes(m: int, n_max: int) -> int:
    """Bytes of the stored layers 0..n_max (the cache file's payload)."""
    return 8 * comb(n_max + m, m)


def _kernel_bytes(m: int, t: int) -> int:
    """Working memory of a stream to layer t: the m - 2 bool masks of edges
    1..m-2 on layer t, which every layer reads; the int64 bars of its rows
    with the temporaries of building them, at most m + 2 int64 arrays the
    size of the row count C(t+m-2, m-2), whose room the masks' chunk offsets
    take once they are freed, (m-2) * (ceil(N/_CHUNK) + 1) int64s; and one
    chunk's candidate rows of edges 1..m-1, with the carry slot, and accumulator."""
    n = layer_size(t, m)
    rows = layer_size(t, m - 1) if m > 2 else 0
    chunk = min(n, _CHUNK)
    return (m - 2) * n + 8 * (m + 2) * rows + 8 * ((m - 1) * (chunk + 1) + chunk)


def _rolled(m: int, n_max: int, keep: set[int]) -> list[int]:
    """The sizes of the rolling buffers of the layers of even and of odd
    total: the largest layer of each parity that is not kept.  A kept layer
    n_max is its parity's buffer, since the layers of that parity before it
    are smaller and no longer read once it is written, so that parity needs
    none."""
    sizes = [0, 0]
    for t in range(n_max + 1):
        if t not in keep:
            sizes[t % 2] = layer_size(t, m)  # layers grow with t
    if n_max in keep:
        sizes[n_max % 2] = 0
    return sizes


def load_bytes(m: int, n_max: int, keep) -> int:
    """Peak memory of load_table from a file of layers 0..n_max: the layers
    in keep, their Python objects and a list slot for every layer, and the
    file's buffer with its file objects, twice the buffer."""
    keep = set(keep)
    kept = sum(layer_size(t, m) for t in keep)
    objects = _LAYER_OBJECT_BYTES * len(keep) + 8 * (n_max + 1)
    return 8 * kept + objects + 2 * _FILE_BUFFER


def stream_bytes(m: int, n_max: int, keep) -> int:
    """Peak memory of stream_table: what load_bytes charges the kept layers
    and a cache file, the rolling buffers (see _rolled) and the working
    arrays of the largest layer.  With every layer kept nothing is rolled,
    and the kept layers are required_bytes(m, n_max)."""
    keep = set(keep)
    rolled = sum(_rolled(m, n_max, keep))
    return load_bytes(m, n_max, keep) + 8 * rolled + _kernel_bytes(m, n_max)


def _check_keep(keep, n_max: int) -> set[int]:
    keep = set(keep)
    if any(not 0 <= t <= n_max for t in keep):
        raise LayerOutOfRange(f"layers {sorted(keep)} not all in 0..{n_max}")
    return keep


def _kept_layers(m: int, n_max: int, keep: set[int], dtype) -> list[np.ndarray | None]:
    """Uninitialised views of one buffer for the layers in keep, None for
    the others.  Sharing one buffer keeps freed working arrays from
    fragmenting between kept layers."""
    layers = [None] * (n_max + 1)
    buffer = np.empty(sum(layer_size(t, m) for t in keep), dtype=dtype)
    at = 0
    for t in sorted(keep):
        layers[t] = buffer[at : at + layer_size(t, m)]
        at += len(layers[t])
    return layers


def _check_budget(need: int, memory_budget: int) -> None:
    if need > memory_budget:
        raise MemoryBudgetExceeded(need, memory_budget)


def _sweep(g: Graph, w: np.ndarray, layers, roll):
    """Compute layers 0..n_max in order, each into its array in layers when
    it is kept, else into the rolling buffer of its parity, and yield each
    one once it is written.  Layer t reads only layer t-1, so a buffer is
    handed out again two layers later.  Every layer reads a prefix of layer
    n_max's masks (see _live) and chunk offsets.  Under an equal-weight law
    a rolled layer t-1, already yielded and read by layer t alone, is scaled
    in place by w[0] first, and layer t takes the pass without multiplies
    (see _vertex_pass)."""
    n_max = len(layers) - 1
    live = _live(n_max, g.m)
    starts = _chunk_starts(live)
    equal = bool((w == w[0]).all())
    for t, layer in enumerate(layers):
        out = roll[t % 2][: layer_size(t, g.m)] if layer is None else layer
        if t == 0:
            out[0] = 1.0
        else:
            scaled = equal and layers[t - 1] is None
            if scaled:
                prev *= w[0]
            _next_layer(g, w, prev, out, live, starts, scaled)
        yield out
        prev = out


def compute_table(
    g: Graph, n_max: int, weights=None, memory_budget: int = DEFAULT_BUDGET
) -> ValueTable:
    """Exact win probabilities for every config of total <= n_max: the
    stream that keeps every layer."""
    return stream_table(g, n_max, weights, range(n_max + 1), memory_budget=memory_budget)


def stream_table(
    g: Graph, n_max: int, weights=None, keep=(), path=None, memory_budget: int = DEFAULT_BUDGET
) -> ValueTable:
    """The layers in keep of the table to n_max, the others built in the
    rolling buffer of their parity (see _rolled); with a path, every layer
    is written to it as it is made, in save_table's format."""
    if n_max < 0:
        raise LayerOutOfRange(f"n_max {n_max} is negative")
    w = check_weights(g, weights)
    keep = _check_keep(keep, n_max)
    _check_budget(stream_bytes(g.m, n_max, keep), memory_budget)
    layers = _kept_layers(g.m, n_max, keep, float)
    roll = [np.empty(size) for size in _rolled(g.m, n_max, keep)]
    if layers[n_max] is not None:
        roll[n_max % 2] = layers[n_max]
    sweep = _sweep(g, w, layers, roll)
    if path is None:
        for _ in sweep:
            pass
    else:
        _write_table(path, g, n_max, w, sweep)
    return ValueTable(graph=g, n_max=n_max, weights=w, layers=layers)


def _chunk_starts(live) -> list[np.ndarray]:
    """Per mask, its count of True before each multiple of _CHUNK and in all:
    where each chunk's children begin in the layer below (see _next_layer)."""
    counts = ([np.count_nonzero(x[i : i + _CHUNK]) for i in range(0, len(x), _CHUNK)] for x in live)
    return [np.cumsum([0, *c]) for c in counts]


def _next_layer(
    g: Graph, w: np.ndarray, prev: np.ndarray, out: np.ndarray, live, starts, scaled: bool = False
) -> None:
    """Write layer t, computed from layer t-1 in prev, to out, _CHUNK ranks
    at a time.  Edge 0's candidates are edge 1's one rank earlier, and the
    last edge's are layer t-1 followed by zeros, so only edges 1..m-2 are
    scattered, through live, their masks on layer t or a larger layer (see
    _live), and starts, the masks' _chunk_starts.  With scaled, prev holds
    layer t-1 times w[0] under an equal-weight law (see _vertex_pass)."""
    m, n = g.m, len(out)
    size = min(n, _CHUNK)
    # row e - 1 holds edge e's candidates from slot 1 on; slot 0 of row 0
    # carries edge 1's candidate at the rank before the chunk, which is 0.0
    # before rank 0 (n_0 = 0 there)
    cand = np.empty((m - 1, size + 1))
    cand[0, 0] = 0.0
    acc = np.empty(size)
    for c, lo in enumerate(range(0, n, _CHUNK)):
        hi = min(lo + _CHUNK, n)
        rows, a, o = [cand[0, : hi - lo], *cand[:, 1 : hi - lo + 1]], acc[: hi - lo], out[lo:hi]
        for e, (mask, start) in enumerate(zip(live, starts), 1):
            # decrementing edge e keeps the rank order of the configs with
            # n_e > 0, and their children are all of layer t-1, which the
            # slice's end may pass; n_e = 0 gets 0.0, the value of a loss
            rows[e].fill(0.0)
            rows[e][mask[lo:hi]] = prev[start[c] : start[c + 1]]
        # the configs with n_{m-1} > 0 are the first len(prev) ranks; for
        # m = 2 the last edge is edge 1, whose row carries into edge 0
        if m > 2 and hi <= len(prev):
            rows[m - 1] = prev[lo:hi]
        else:
            head = prev[lo:hi]
            rows[m - 1][: len(head)] = head
            rows[m - 1][len(head) :] = 0.0
        _vertex_pass(g, w, rows, o, a, scaled)
        cand[0, 0] = cand[0, hi - lo]


def _vertex_pass(
    g: Graph, w: np.ndarray, rows, out: np.ndarray, acc: np.ndarray, scaled: bool = False
) -> None:
    """Write sum_v w[v] * max_{e ~ v} rows[e] to out, with rows[e] edge e's
    candidate row, 0.0 where the edge is empty, and acc a scratch array of
    out's size.  Every value is >= 0.0, so the max over a vertex's edges is
    the max over its positive edges, or 0.0 when there is none.  Vertices
    are added in order, which fixes every value's bits; the first two terms
    go into out in one add, since 0.0 + x is x for every x >= 0.0.

    With scaled, every w[v] is w[0] and the rows hold w[0] times the
    candidates, so the pass takes only maxima and sums, and a one-edge
    vertex's term is its row.  x -> fl(w * x) is monotone, since rounding
    is, so fl(w * max_e c_e) = max_e fl(w * c_e): the bits are the same."""
    for v, edges in enumerate(g.incidence):
        term, dst = rows[edges[0]], acc if v else out
        if len(edges) > 1:
            term = np.maximum(term, rows[edges[1]], out=dst)
            for e in edges[2:]:
                np.maximum(term, rows[e], out=term)
        if not scaled:
            term = np.multiply(term, w[v], out=dst)
        if v == 0:
            first = term
        elif v == 1:
            np.add(first, term, out=out)
        else:
            out += term


def check_config(g: Graph, cfg, n_max: int | None = None, rows: bool = False) -> np.ndarray:
    """A config as an int64 array: one non-negative count per edge, with a
    total of at most n_max when n_max is given.  With rows, an (N, m) array
    of such configs."""
    cfg = np.asarray(cfg, dtype=np.int64)
    if cfg.shape[rows:] != (g.m,):
        each = " a row" if rows else ""
        raise DomainError(f"expected {g.m} entries{each}, got shape {cfg.shape}")
    if cfg.min(initial=0) < 0:
        bad = cfg[(cfg < 0).any(axis=-1)][0]
        raise NegativeEntry(f"config {bad.tolist()} has a negative entry")
    if n_max is not None:
        total = int(cfg.sum(axis=-1, keepdims=True).max(initial=0))
        if total > n_max:
            raise LayerOutOfRange(f"total {total} exceeds n_max {n_max}")
    return cfg


def check_held(t: ValueTable | DownSetTable, cfg) -> np.ndarray:
    """check_config for a config that t holds: a total of at most n_max in
    a table, and no count above top's in a box."""
    if isinstance(t, ValueTable):
        return check_config(t.graph, cfg, t.n_max)
    cfg = check_config(t.graph, cfg)
    if (cfg > t.top).any():
        raise LayerOutOfRange(f"config {cfg.tolist()} is outside the box under {t.top.tolist()}")
    return cfg


def _slot(t: ValueTable | DownSetTable, cfg: list[int]) -> tuple[np.ndarray, int]:
    """Where the value of a held config, given as a list of counts, sits:
    the array that holds it and its index there, its rank in its layer of a
    table or cfg @ stride in a box."""
    if isinstance(t, ValueTable):
        return t.layer(sum(cfg)), rank_config(cfg)
    return t.values, sum(map(operator.mul, cfg, t.stride.tolist()))


def value_at(t: ValueTable | DownSetTable, cfg) -> float:
    values, i = _slot(t, check_held(t, cfg).tolist())
    return float(values[i])


def values_at(t: ValueTable, cfgs) -> np.ndarray:
    """value_at for every row of an (N, m) config array, with one
    vectorised rank per layer."""
    cfgs = check_config(t.graph, cfgs, t.n_max, rows=True)
    totals = cfgs.sum(axis=1)
    values = np.empty(len(cfgs))
    for total in np.unique(totals):
        at = totals == total
        values[at] = t.layer(int(total))[rank_configs(cfgs[at])]
    return values


def optimal_move(t: ValueTable | DownSetTable, cfg, v: int) -> int:
    """Best edge for the drawn vertex (the first in incidence order among
    those of largest value), or LOSS when no incident edge has positive
    capacity.  Each child is read at its own slot, its counts those of cfg
    lowered on its edge in place and then restored: in a table at its rank
    in the layer below, in a box at cfg's index minus stride[e]."""
    cfg = check_held(t, cfg).tolist()
    if not any(cfg):
        raise LayerOutOfRange("no move from the empty config")
    best_edge = LOSS
    best_val = -1.0
    for e in t.graph.incidence[v - 1]:
        if cfg[e] > 0:
            cfg[e] -= 1
            values, i = _slot(t, cfg)
            cfg[e] += 1
            val = values[i]
            if val > best_val:
                best_val = val
                best_edge = e
    return best_edge


def argmax_config(t: ValueTable, n: int) -> tuple[np.ndarray, float]:
    """Max-value config of a layer; ties resolve to the lexicographically
    smallest config."""
    vals = t.layer(n)
    best = float(vals.max())
    ties = np.flatnonzero(vals == best)
    winner = min(map(tuple, _unranker(n, t.graph.m)(ties)))
    return np.array(winner, dtype=np.int64), best


def active_faces(g: Graph) -> list[int]:
    """Proper subsets with at least one fully-inside vertex (0 < d(F) < k)."""
    return [F for F in proper_subsets(g) if full_degree_count(g, F) > 0]


def slice_maxima(t: ValueTable, n: int, amplitudes) -> list[tuple]:
    """The largest value of layer n in each critical-window slice: one
    (I, II, III) tuple per amplitude A, with None for an empty slice (a
    distinguished result, not a failure).  The face minima of the layer are
    taken _CHUNK ranks at a time for all amplitudes at once.

    With L the least face value over the faces with 0 < d(F) < k: kind I
    has L <= -A*sqrt(n), kind II has L >= A*sqrt(n), and kind III has L
    strictly between.  A connected graph with two or more edges has such a
    face: the edges of a vertex that does not touch every edge.
    """
    vals = t.layer(n)
    if any(a <= 0 for a in amplitudes):
        raise ValueError("amplitude must be positive")
    g = t.graph
    faces, unrank = active_faces(g), _unranker(n, g.m)
    cuts = [a * np.sqrt(n) for a in amplitudes]
    best = np.full((len(cuts), 3), -np.inf)  # -inf while a slice is empty
    for lo in range(0, len(vals), _CHUNK):
        hi = min(lo + _CHUNK, len(vals))
        lmin = face_values(g, faces, n, unrank(np.arange(lo, hi))).min(axis=1)
        for row, cut in zip(best, cuts):
            kinds = (lmin <= -cut, lmin >= cut, (lmin > -cut) & (lmin < cut))
            row[:] = np.maximum(row, [vals[lo:hi].max(where=s, initial=-np.inf) for s in kinds])
    return [tuple(None if b == -np.inf else float(b) for b in row) for row in best]


# --- the down-set of one config ---------------------------------------------

_BOX_CHUNK = 1 << 16  # box states evaluated per vectorised step


@dataclass
class Box:
    """The box {c : 0 <= c <= top}, which holds every state a game started
    at top can reach.

    A config c has the mixed-radix index sum_e c_e * stride[e] (the last
    edge varies fastest), so decrementing edge e lowers the index by
    stride[e].
    """

    graph: Graph
    top: np.ndarray
    stride: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.stride = np.ones(self.graph.m, dtype=np.int64)
        self.stride[:-1] = np.cumprod(self.top[:0:-1] + 1)[::-1]

    @property
    def states(self) -> int:
        return prod(int(c) + 1 for c in self.top)

    def counts(self, idx: np.ndarray) -> np.ndarray:
        """Row e: the counts n_e of states idx."""
        return idx // self.stride[:, None] % (self.top + 1)[:, None]


@dataclass
class DownSetTable(Box):
    """Exact values on a box: values[i] is the win probability of state i,
    bit for bit the full table's."""

    weights: np.ndarray
    values: np.ndarray

    def child_values(self, idx: np.ndarray, empty: float) -> np.ndarray:
        """Row e: the values of the children of states idx through edge e,
        and `empty` where n_e = 0, whose clipped gather reads a stray value."""
        cand = np.take(self.values, idx - self.stride[:, None], mode="clip")
        cand[self.counts(idx) == 0] = empty
        return cand


def downset_bytes(m: int, top) -> int:
    """Peak memory of a DownSetTable build: per state its value (8 bytes);
    per point of the grid of the other edges' counts (see _grid), at most
    28 bytes while it is built and sorted; and the working arrays of one
    chunk of states, at most 4m + 8 int64/float64 arrays of _BOX_CHUNK
    entries."""
    states = prod(int(c) + 1 for c in top)
    grid = states // (max(int(c) for c in top) + 1)
    return 8 * states + 28 * grid + 8 * (4 * m + 8) * min(states, _BOX_CHUNK)


def _grid(top: np.ndarray, stride: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The states of a box by total, from the grid of the counts of every
    edge but d: a grid point with counts c and total s heads the state of
    total t whose edge d holds t - s, at index base + t * stride[d], where
    base = sum_e c_e * (stride[e] - stride[d]).  Returns the bases sorted
    by s, in grid order within each s (ascending indices when d is the last
    edge), and where each s begins: the states of total t are the points
    with t - top[d] <= s <= t, one slice."""
    base, total = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int32)
    for e in np.delete(np.arange(len(top)), d):
        counts = np.arange(top[e] + 1)
        base = np.add.outer(base, counts * (stride[e] - stride[d])).ravel()
        total = np.add.outer(total, counts.astype(np.int32)).ravel()
    starts = np.zeros(int(total[-1]) + 2, dtype=np.int64)
    np.cumsum(np.bincount(total), out=starts[1:])
    return base[np.argsort(total, kind="stable")], starts


def downset_table(
    g: Graph, top, weights=None, memory_budget: int = DEFAULT_BUDGET
) -> DownSetTable:
    """Exact values for every config at or below top, evaluated in order of
    total by _next_layer's vertex pass."""
    top = check_config(g, top)
    w = check_weights(g, weights)
    _check_budget(downset_bytes(g.m, top), memory_budget)
    box = DownSetTable(graph=g, top=top, weights=w, values=np.empty(prod(int(c) + 1 for c in top)))
    values, stride = box.values, box.stride
    values[0] = 1.0
    # the edge read off the total: the one with the most counts, the last among ties
    d = max(range(g.m), key=lambda e: (top[e], e))
    base, starts = _grid(top, stride, d)
    last = len(starts) - 2  # the largest grid total
    for t in range(1, int(top.sum()) + 1):
        first, end = starts[max(t - top[d], 0)], starts[min(t, last) + 1]
        for lo in range(first, end, _BOX_CHUNK):
            idx = base[lo : min(lo + _BOX_CHUNK, end)] + t * stride[d]
            # the states of one total, whose children are all done
            cand = box.child_values(idx, 0.0)
            out, acc = np.empty((2, len(idx)))
            _vertex_pass(g, w, cand, out, acc)
            values[idx] = out
    return box


# --- persistence ------------------------------------------------------------

_HEAD = 4 + struct.calcsize("<IQIII")


def save_table(t: ValueTable, path) -> None:
    """Binary cache: magic, version, graph hash, k, |E|, n_max, weights, then
    each layer as little-endian float64 in rank order."""
    _write_table(path, t.graph, t.n_max, t.weights, [t.layer(s) for s in range(t.n_max + 1)])


def _write_table(path, g: Graph, n_max: int, weights, layers) -> None:
    """Write save_table's format, taking layers 0..n_max from an iterable as
    it yields them, once the disk has room for the whole file (see
    _check_disk).  A write cut short removes the file, which load_table
    would refuse on every later read."""
    try:
        _check_disk(path, _HEAD + 8 * g.k + required_bytes(g.m, n_max))
        fh = open(path, "wb")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    try:
        with fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<IQIII", _VERSION, graph_hash(g), g.k, g.m, n_max))
            fh.write(np.ascontiguousarray(weights, dtype="<f8"))
            for layer in layers:
                fh.write(np.ascontiguousarray(layer, dtype="<f8"))
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(path)
        if isinstance(exc, OSError):
            raise IoFailure(str(exc)) from exc
        raise


def _check_disk(path, need: int) -> None:
    """DiskSpaceExceeded unless the free space of path's filesystem, with
    the bytes of a file at path that the write replaces, holds need bytes."""
    free = shutil.disk_usage(os.path.dirname(os.path.abspath(path))).free
    if os.path.isfile(path):
        free += os.path.getsize(path)
    if need > free:
        raise DiskSpaceExceeded(need, free)


def load_table(path, g: Graph, keep=None, memory_budget: int = DEFAULT_BUDGET) -> ValueTable:
    """Read a cache that save_table wrote, after checking its header, graph
    and size.  The layers in keep (all of them when keep is None) are read,
    each from its offset, and the others are None.  Like stream_table and
    downset_table, it checks its own charge, load_bytes, against the budget
    its caller passes, before any layer buffer exists."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(_HEAD)
            if len(header) < _HEAD or header[:4] != _MAGIC:
                raise FormatMismatch("bad magic or truncated header")
            version, ghash, k, m, n_max = struct.unpack("<IQIII", header[4:])
            if version != _VERSION:
                raise FormatMismatch(f"unsupported format version {version}")
            if ghash != graph_hash(g) or k != g.k or m != g.m:
                raise GraphHashMismatch("cache was built for a different graph")
            need = _HEAD + 8 * k + required_bytes(m, n_max)
            size = os.fstat(fh.fileno()).st_size
            if size != need:
                raise FormatMismatch(f"expected {need} bytes, file has {size}")
            weights = np.empty(k, dtype="<f8")
            keep = _check_keep(range(n_max + 1) if keep is None else keep, n_max)
            _check_budget(load_bytes(m, n_max, keep), memory_budget)
            layers = _kept_layers(m, n_max, keep, "<f8")
            reads = [
                (_HEAD + 8 * k + required_bytes(m, t - 1), layer)
                for t, layer in enumerate(layers)
                if layer is not None
            ]
            for offset, array in [(_HEAD, weights), *reads]:
                fh.seek(offset)
                if fh.readinto(array) != array.nbytes:
                    raise FormatMismatch("file shrank while it was read")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return ValueTable(graph=g, n_max=n_max, weights=weights, layers=layers)
