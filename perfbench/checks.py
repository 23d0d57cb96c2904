"""Correctness checks for the benchmark workloads.

Every check compares a workload's output against a reference computed here,
apart from the code under test (own ranking, own cache-file reader, own
recursions, own subset enumeration), or against a property the method must
have.  None compares against stored output.

Each check function takes the collected outputs of one workload and returns
a list of failure strings; every string starts with the check's name, so the
self-test (selftest.py) can tell which check caught a corruption.
"""

from __future__ import annotations

import itertools
import math
import struct
from fractions import Fraction
from functools import lru_cache

import numpy as np

PAPER_P4_MAX_200 = 0.2583299
WILSON_Z = 1.959963984540054


# --- references ---------------------------------------------------------------


def rank(cfg) -> int:
    """Colex rank of a config's bar positions: sum_i C(i-1 + n_1+...+n_i, i)."""
    r, p = 0, -1
    for i in range(1, len(cfg)):
        p += int(cfg[i - 1]) + 1
        r += math.comb(p, i)
    return r


def ranks(cfgs: np.ndarray) -> np.ndarray:
    """Vectorised `rank` over the rows of an (N, m) int array."""
    m = cfgs.shape[1]
    bars = np.cumsum(cfgs[:, : m - 1], axis=1) + np.arange(m - 1)
    top = int(bars.max()) + 1 if bars.size else 1
    out = np.zeros(len(cfgs), dtype=np.int64)
    for i in range(1, m):
        binom = np.array([math.comb(x, i) for x in range(top)], dtype=np.int64)
        out += binom[bars[:, i - 1]]
    return out


def layer_configs(total: int, m: int) -> np.ndarray:
    """All configs of the given total, by stars and bars (any row order)."""
    bars = np.array(list(itertools.combinations(range(total + m - 1), m - 1)), dtype=np.int64)
    bars = bars.reshape(-1, m - 1)
    edges = np.concatenate(
        [np.full((len(bars), 1), -1), bars, np.full((len(bars), 1), total + m - 1)], axis=1
    )
    return np.diff(edges, axis=1) - 1


def read_table_file(path) -> tuple[int, list[np.ndarray]]:
    """Parse a value-table cache file (magic SAPG, little-endian header, k
    weights, then layers 0..n_max as float64 in rank order)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"SAPG":
        raise ValueError(f"{path}: bad magic")
    _version, _ghash, k, m, n_max = struct.unpack("<IQIII", data[4:28])
    off = 28 + 8 * k
    layers = []
    for t in range(n_max + 1):
        size = math.comb(t + m - 1, m - 1)
        layers.append(np.frombuffer(data, dtype="<f8", count=size, offset=off))
        off += 8 * size
    if off != len(data):
        raise ValueError(f"{path}: {len(data)} bytes, expected {off}")
    return m, layers


def incidence(k: int, edges) -> list[list[int]]:
    inc = [[] for _ in range(k)]
    for e, (u, v) in enumerate(edges):
        inc[u - 1].append(e)
        inc[v - 1].append(e)
    return inc


def exact_values(k: int, edges, max_total: int) -> dict:
    """Optimal win probability of every config of total <= max_total, as
    Fractions, by the layered recursion under the uniform vertex law."""
    inc = incidence(k, edges)
    m = len(edges)
    vals = {(0,) * m: Fraction(1)}
    for t in range(1, max_total + 1):
        for cfg in map(tuple, layer_configs(t, m).tolist()):
            acc = Fraction(0)
            for v in range(k):
                best = None
                for e in inc[v]:
                    if cfg[e] > 0:
                        child = cfg[:e] + (cfg[e] - 1,) + cfg[e + 1 :]
                        if best is None or vals[child] > best:
                            best = vals[child]
                if best is not None:
                    acc += best
            vals[cfg] = acc / k
    return vals


def policy_value(k: int, edges, cfg, choose) -> float:
    """Win probability of a deterministic policy `choose(state, inc_v) -> edge
    or None` under the uniform vertex law, by memoised recursion."""
    inc = incidence(k, edges)

    @lru_cache(maxsize=None)
    def value(state):
        if not any(state):
            return 1.0
        acc = 0.0
        for v in range(k):
            e = choose(state, inc[v])
            if e is not None:
                acc += value(state[:e] + (state[e] - 1,) + state[e + 1 :])
        return acc / k

    return value(tuple(int(c) for c in cfg))


def greedy_choice(state, inc_v):
    """Largest remaining count among incident edges, ties to the lowest index."""
    best, best_count = None, 0
    for e in inc_v:
        if state[e] > best_count:
            best, best_count = e, state[e]
    return best


def optimal_value(k: int, edges, cfg) -> float:
    """Optimal win probability by float recursion (max over incident edges)."""
    inc = incidence(k, edges)

    @lru_cache(maxsize=None)
    def value(state):
        if not any(state):
            return 1.0
        acc = 0.0
        for v in range(k):
            best = -1.0
            for e in inc[v]:
                if state[e] > 0:
                    best = max(best, value(state[:e] + (state[e] - 1,) + state[e + 1 :]))
            acc += max(best, 0.0)
        return acc / k

    return value(tuple(int(c) for c in cfg))


def largest_remainder(total: int, x) -> list[int]:
    scaled = [total * float(v) for v in x]
    base = [math.floor(s) for s in scaled]
    order = sorted(range(len(x)), key=lambda i: (-(scaled[i] - base[i]), i))
    for i in order[: total - sum(base)]:
        base[i] += 1
    return base


def canonical_point(k: int, edges) -> list[float]:
    """Mean reciprocal endpoint degree of each edge, over k."""
    deg = [0] * (k + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return [(1.0 / deg[u] + 1.0 / deg[v]) / k for u, v in edges]


def wilson_lower(successes: int, runs: int) -> float:
    z = WILSON_Z
    p = successes / runs
    denom = 1.0 + z * z / runs
    center = (p + z * z / (2 * runs)) / denom
    half = z * math.sqrt(p * (1 - p) / runs + z * z / (4 * runs * runs)) / denom
    return max(0.0, center - half)


class Subsets:
    """Every proper non-empty edge subset of a graph, with the uniform weight
    of the vertices whose incident edges all lie inside it."""

    def __init__(self, k: int, edges):
        m = len(edges)
        ids = np.arange(1, (1 << m) - 1, dtype=np.int64)
        self.ind = ((ids[:, None] >> np.arange(m)) & 1).astype(float)
        inside = np.ones((len(ids), k), dtype=bool)
        for v, inc_v in enumerate(incidence(k, edges)):
            for e in inc_v:
                inside[:, v] &= self.ind[:, e] > 0
        self.full = inside.sum(axis=1) / k

    def min_slack(self, x) -> float:
        return float((self.ind @ np.asarray(x, float) - self.full).min())


# --- checks -----------------------------------------------------------------


def rounds_identical(digests) -> list[str]:
    """Every round of a run uses the same inputs, so outputs must repeat."""
    if len(set(digests)) > 1:
        return [f"rounds_repeat: {len(set(digests))} distinct outputs over {len(digests)} rounds"]
    return []


def check_dp(out: dict) -> list[str]:
    fails = []
    if out["failed_ops"]:
        fails.append(f"dp_ops: commands failed: {out['failed_ops']}")
        return fails
    p200 = out["p4_argmax"]["p"]
    if abs(p200 - PAPER_P4_MAX_200) > 5e-7:
        fails.append(f"paper_max: P4 layer-200 max {p200!r} vs {PAPER_P4_MAX_200}")
    p4_layers = out["p4_layers"]
    if p200 != float(p4_layers[200].max()):
        fails.append(f"paper_max: argmax value {p200!r} is not the layer-200 maximum")

    grid = out["phase_grid"]  # grid[m, l] = p(m, n-m-l, l)
    if np.nanmax(np.abs(grid - grid.T)) > 1e-12:
        fails.append(f"reversal: max |p(a,b,c) - p(c,b,a)| = {np.nanmax(np.abs(grid - grid.T))!r}")
    if out["phase_summary"]["max_p"] != float(np.nanmax(grid)):
        fails.append("reversal: phase summary max differs from the grid maximum")

    k4_edges, k4_layers = out["k4_edges"], out["k4_layers"]
    top = k4_layers[-1]
    cfgs = out["k4_top_configs"]
    base = top[ranks(cfgs)]
    worst = 0.0
    for perm in itertools.permutations(range(1, 5)):
        index = {frozenset(e): i for i, e in enumerate(k4_edges)}
        image = [index[frozenset((perm[u - 1], perm[v - 1]))] for u, v in k4_edges]
        moved = np.empty_like(cfgs)
        moved[:, image] = cfgs
        worst = max(worst, float(np.abs(top[ranks(moved)] - base).max()))
    if worst > 1e-12:
        fails.append(f"k4_symmetry: top layer moves by {worst!r} under a vertex permutation")

    for label, edges, layers in (("K4", k4_edges, k4_layers), ("P4", out["p4_edges"], p4_layers)):
        exact = out["exact_small"][label]
        worst = max(abs(float(layers[sum(c)][rank(c)]) - float(v)) for c, v in exact.items())
        if worst > 1e-12:
            fails.append(f"small_layers: {label} layers <= 8 differ from the recursion by {worst!r}")

    for (n, a), kinds in out["window"].items():
        filled = [p for p, empty in kinds.values() if not empty]
        if len(kinds) != 3 or not filled or max(filled) != float(p4_layers[n].max()):
            fails.append(f"slices: n={n} A={a} slice maxima {kinds} miss the layer max")

    for n, partial, target in out["conjecture"]:
        cut = [round(s * n) for s in partial]
        cfg = [cut[0], cut[1] - cut[0], n - cut[1]]
        if min(cfg) < 0 or float(p4_layers[n][rank(cfg)]) != float(p4_layers[n].max()):
            fails.append(f"conjecture: n={n} partial sums {partial} are not an argmax config")
        want = [math.log((3 - j) / (4 - j)) / math.log(j * (3 - j) / ((j + 1) * (4 - j))) for j in (1, 2)]
        if max(abs(t - w) for t, w in zip(target, want)) > 1e-12:
            fails.append(f"conjecture: targets {target} vs a_*(j;4) {want}")
    return fails


def check_montecarlo(out: dict) -> list[str]:
    fails = []
    if out["failed_ops"]:
        return [f"mc_ops: commands failed: {out['failed_ops']}"]
    opt, greedy = out["optimal"], out["greedy"]
    for name, rep, exact in (
        ("optimal_4sigma", opt, out["value_at"]),
        ("greedy_4sigma", greedy, out["greedy_exact"]),
    ):
        runs = rep["runs"]
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / runs)
        if abs(rep["successes"] / runs - exact) > 4 * sigma:
            fails.append(f"{name}: p_hat {rep['successes'] / runs} vs exact {exact} (sigma {sigma})")
    if abs(out["value_at"] - out["optimal_recursion"]) > 1e-12:
        fails.append(f"optimal_4sigma: value_at {out['value_at']} vs recursion {out['optimal_recursion']}")
    if out["greedy_exact"] > out["optimal_recursion"] + 1e-12:
        fails.append(f"greedy_le_optimal: greedy {out['greedy_exact']} > optimal {out['optimal_recursion']}")
    if out["replay_successes"] != out["prefix_estimate_successes"]:
        fails.append(
            f"prefix_replay: serial play won {out['replay_successes']}, "
            f"estimate reports {out['prefix_estimate_successes']}"
        )
    return fails


def check_steer(out: dict) -> list[str]:
    if out["failed_ops"]:
        return [f"steer_ops: commands failed: {out['failed_ops']}"]
    fails = []
    want = largest_remainder(out["n1"], out["z"])
    for i, rep in enumerate(out["reports"]):
        hits, runs, tail = rep["hits"], rep["runs"], rep["tail_p"]
        if abs(tail[0] - (1 - hits / runs)) > 1e-12:
            fails.append(f"tail0: report {i} tail[0]={tail[0]} vs 1-hits/runs={1 - hits / runs}")
        if any(b > a for a, b in zip(tail, tail[1:])):
            fails.append(f"tail_monotone: report {i} tail rises in q: {tail}")
        if abs(rep["hit_ci"][0] - wilson_lower(hits, runs)) > 1e-12:
            fails.append(f"wilson: report {i} lower bound {rep['hit_ci'][0]} vs {wilson_lower(hits, runs)}")
        if rep["stage1_positive_drift_flags"] != 0:
            fails.append(f"drift_flags: report {i} has {rep['stage1_positive_drift_flags']} positive-drift steps")
        if rep["target_config"] != want:
            fails.append(f"target_config: report {i} {rep['target_config']} vs {want}")
    # the hitting probability is bounded below: pooled over the round's
    # reports, the Wilson lower bound on hits must be positive
    hits = sum(rep["hits"] for rep in out["reports"])
    runs = sum(rep["runs"] for rep in out["reports"])
    if not wilson_lower(hits, runs) > 0:
        fails.append(f"wilson: lower bound {wilson_lower(hits, runs)} from {hits}/{runs} pooled hits")
    return fails


def check_region(out: dict) -> list[str]:
    fails = []
    if out["failed_ops"]:
        fails.append(f"region_ops: {out['failed_ops']} geometry calls failed")
    for name, res in out["graphs"].items():
        subsets = res["subsets"]
        for i, x in enumerate(res["points"]):
            own = subsets.min_slack(x)
            kind, flow_value, q = res["kind"][i], res["flow_value"][i], res["kernel"][i]
            inside = q is not None
            if own > 1e-6 and (kind != "InteriorReachable" or not inside):
                fails.append(f"agree: {name} point {i} slack {own:.3g} classed {kind}, in flow {inside}")
            if own < -1e-6 and (kind != "Inaccessible" or inside):
                fails.append(f"agree: {name} point {i} slack {own:.3g} classed {kind}, in flow {inside}")
            bd = res["boundary_distance"][i]
            if (kind == "InteriorReachable" and not bd > 0) or (kind == "Inaccessible" and not bd < 0):
                fails.append(f"bd_sign: {name} point {i} class {kind} boundary distance {bd!r}")
            if inside:
                w = np.full(q.shape[0], 1.0 / q.shape[0])
                if np.abs(q.sum(axis=1) - 1).max() > 1e-9 or np.abs(w @ q - x).max() > 1e-9:
                    fails.append(f"kernel: {name} point {i} rows or mean off (flow {flow_value!r})")
            exit_slack = subsets.min_slack(res["ray_exit"][i])
            if abs(exit_slack) > 1e-9:
                fails.append(f"ray_exit: {name} point {i} exit min slack {exit_slack!r}")
            clip_slack = subsets.min_slack(res["clip"][i])
            if clip_slack < -1e-12:
                fails.append(f"clip: {name} point {i} clipped min slack {clip_slack!r}")
    return fails[:20]
