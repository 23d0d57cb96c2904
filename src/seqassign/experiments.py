"""Experiment drivers: phase diagram, decay/convergence scans, critical-window
curves, the path-graph argmax scan, and steering reports.

Each driver returns its table plus a summary dict: the phase grid as a
PhaseGrid, which unranks its columns a block of rows at a time through
values._unranker, the other tables as plain rows.  Column sets are fixed:

    phase:      m, l, p
    scan:       n, p, log_p, decay_bound
    conjecture: n, j, partial_sum, target, gap, gap_symmetric
    window:     n, A, kind, p_max, empty, gauss_ref
    steer:      JSON report (no tabular form)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import RegionKind, classify_point
from .graph import Graph, path_graph
from .simulate import deviation_tail, trace_diagnostics
from .strategies import SteerPlan, steering_strategy
from .values import (
    ValueTable,
    _unranker,
    argmax_config,
    check_config,
    round_to_config,
    slice_maxima,
    stream_table,
    value_at,
)


PHASE_COLUMNS = ["m", "l", "p"]
SCAN_COLUMNS = ["n", "p", "log_p", "decay_bound"]
CONJECTURE_COLUMNS = ["n", "j", "partial_sum", "target", "gap", "gap_symmetric"]
WINDOW_COLUMNS = ["n", "A", "kind", "p_max", "empty", "gauss_ref"]

_NORMAL = 2.0**-1022  # the least normal float64


def check_phase_graph(g: Graph) -> None:
    """Raise DomainError unless g has the three edges a phase grid needs."""
    if g.m != 3:
        raise DomainError(f"phase grid needs a 3-edge graph, got |E|={g.m}")


@dataclass
class PhaseGrid:
    """Layer n of a three-edge table as the phase columns (m, l, p) in rank
    order: m the first and l the last edge count, the middle edge holding
    n-m-l, and p the layer itself.  m and l are unranked a block of ranks at
    a time (see values._unranker)."""

    n: int
    p: np.ndarray

    def __len__(self) -> int:
        return len(self.p)

    def block(self, lo: int, hi: int) -> list[np.ndarray]:
        """The columns of rows lo..hi-1."""
        cfgs = _unranker(self.n, 3)(np.arange(lo, hi))
        return [cfgs[:, 0], cfgs[:, 2], self.p[lo:hi]]


def phase_diagram(n: int, table: ValueTable):
    """Full win-probability grid over layer n of `table`, whose graph has
    three edges.

    Returns (grid, summary): the PhaseGrid of the layer, and the grid
    maximum and its location."""
    check_phase_graph(table.graph)
    best_cfg, best = argmax_config(table, n)
    summary = {
        "n": n,
        "max_p": best,
        "argmax_config": [int(c) for c in best_cfg],
        "argmax_m": int(best_cfg[0]),
        "argmax_l": int(best_cfg[2]),
    }
    return PhaseGrid(n, table.layer(n)), summary


def transition_scan(x, n_list, table: ValueTable):
    """Win probability along configs tracking a fixed simplex point, read
    from `table`; the point is classified on the table's graph under the
    table's vertex law.

    For inaccessible points the rows carry the concentration bound
    exp(-n*eps^2/4) with eps the worst face deficit, and the summary fits the
    slope of log p against n over the rows with a normal p (slope, intercept
    and r_squared are None with fewer than two of them); for interior points the
    summary reports the successive differences (an empirical convergence
    indicator) and the value at the largest n as the limit estimate.
    """
    x = np.asarray(x, dtype=float)
    n_list = sorted(n_list)
    region = classify_point(table.graph, x, table.weights)
    deficit = -region.slack
    rows = []
    ps = []
    for n in n_list:
        p = value_at(table, round_to_config(n, x))
        bound = math.exp(-n * deficit * deficit / 4.0) if region.kind is RegionKind.INACCESSIBLE else math.nan
        rows.append((n, p, math.log(p) if p > 0 else -math.inf, bound))
        ps.append(p)
    summary: dict = {"class": region.kind.value, "n_list": list(n_list)}
    if region.kind is RegionKind.INACCESSIBLE:
        # below the least normal float a p rounds to an absolute step, and
        # one that underflows to 0 has no log: neither follows the decay
        ns = np.array([r[0] for r in rows if r[1] >= _NORMAL], dtype=float)
        logs = np.array([r[2] for r in rows if r[1] >= _NORMAL])
        fit = dict(slope=None, intercept=None, r_squared=None)
        if len(ns) >= 2:
            slope, intercept = np.polyfit(ns, logs, 1)
            pred = slope * ns + intercept
            ss_res = float(((logs - pred) ** 2).sum())
            ss_tot = float(((logs - logs.mean()) ** 2).sum())
            fit = dict(
                slope=float(slope),
                intercept=float(intercept),
                r_squared=1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
            )
        summary.update(fit, deficit=deficit)
    elif region.kind is RegionKind.INTERIOR_REACHABLE:
        diffs = [abs(b - a) for a, b in zip(ps, ps[1:])]
        summary.update(successive_diffs=diffs, limit_estimate=ps[-1])
    return rows, summary


def a_star(j: int, k: int) -> float:
    """Crossover location of the two competing run-out events on a path with
    k vertices: the point where the cheaper large-deviation rate is maximal."""
    if k < 3 or not 0 <= j <= k - 1:
        raise DomainError(f"need k >= 3 and 0 <= j <= k-1, got j={j}, k={k}")
    if j == 0:
        return 0.0
    if j == k - 1:
        return 1.0
    return math.log((k - j - 1) / (k - j)) / math.log(
        (j * (k - j - 1)) / ((j + 1) * (k - j))
    )


def conjecture_scan(k: int, n_list):
    """Partial sums of the layer-argmax config on a path graph against the
    conjectured limits.  gap_symmetric takes the better of the config and its
    reversal (both maximize, by the path symmetry)."""
    n_list = sorted(n_list)
    if any(n <= 0 for n in n_list):
        raise DomainError("n-list entries must be positive")
    g = path_graph(k)
    table = stream_table(g, max(n_list), keep=n_list)
    targets = [a_star(j, k) for j in range(k)]
    rows = []
    for n in n_list:
        cfg, _ = argmax_config(table, n)
        partial = np.cumsum(cfg) / n
        for j in range(1, k - 1):
            s = float(partial[j - 1])
            s_rev = 1.0 - float(partial[k - 2 - j])
            gap = abs(s - targets[j])
            gap_sym = min(gap, abs(s_rev - targets[j]))
            rows.append((n, j, s, targets[j], gap, gap_sym))
    return rows, {"k": k, "targets": targets[1 : k - 1]}


def window_collapse(n_list, a_grid, table: ValueTable):
    """Slice maxima of the three critical-window classes per (n, A), read
    from `table`, with the Gaussian reference exp(-A^2/8); empty slices are
    marked.  The slice faces use the uniform law's d(F)/k, so a table under
    another law is refused."""
    n_list = sorted(n_list)
    if np.any(table.weights != table.weights[0]):
        raise DomainError("window slices need a table under the uniform vertex law")
    rows = []
    for n in n_list:
        for a, maxima in zip(a_grid, slice_maxima(table, n, a_grid)):
            for kind, p in zip(("I", "II", "III"), maxima):
                empty = p is None
                rows.append((n, a, kind, math.nan if empty else p, empty, math.exp(-a * a / 8)))
    return rows, {"n_list": list(n_list), "a_grid": list(a_grid)}


def calibrate_q0(
    g: Graph, z, n1: int, start_config, runs: int = 200, seed: int = 0, kind: str = "exact"
) -> int:
    """Double q0 from 2 until the measured deviation tail at q0/4 of the
    steering strategy of `kind` drops to 1/2 on a calibration run; a tail
    still above 1/2 at q0 = 4096 is a DomainError."""
    for q0 in (2**j for j in range(1, 13)):
        plan = SteerPlan(z=z, n1=n1, q0=q0)
        curve = deviation_tail(
            g, start_config, steering_strategy(g, plan, kind), z, n1, [q0 / 4.0], runs, seed
        )
        if curve.tail[0] <= 0.5:
            return q0
    raise DomainError(f"calibration did not converge: the tail at q0 = {q0} is {curve.tail[0]}")


def steering_report(
    g: Graph,
    plan: SteerPlan,
    start_config,
    runs: int,
    seed: int,
    kind: str = "exact",
) -> dict:
    """Exact-hit frequency, deviation tail at q = 0..20, and stage-1 drift
    diagnostics of three traced runs for one steering plan from one start
    config.  The traced runs play in the tail runs' lockstep loop."""
    start_config = check_config(g, start_config)
    strategy = steering_strategy(g, plan, kind)
    total = int(start_config.sum())
    # a start at the target has no drift direction to diagnose
    drift = kind == "exact" and np.any(start_config / total != plan.z)
    curve = deviation_tail(
        g, start_config, strategy, plan.z, plan.n1, range(21), runs, seed,
        traced=(seed + 1, 3, total // 2) if drift else None,
    )
    flags = 0
    mean_s_inc = []
    for result in curve.traced:
        diag = trace_diagnostics(result, curve.stage1)
        flags += len(diag.positive_drift_steps)
        if len(diag.s_increments):
            mean_s_inc.append(float(np.mean(diag.s_increments)))
    return {
        "kind": kind,
        "target_point": [float(v) for v in plan.z],
        "target_total": plan.n1,
        "target_config": [int(c) for c in curve.target_config],
        "start_config": [int(c) for c in start_config],
        "runs": runs,
        "seed": seed,
        "hits": curve.hits,
        "hit_rate": curve.hit_rate,
        "hit_ci": list(curve.hit_ci),
        "tail_q": [float(q) for q in curve.q],
        "tail_p": [float(p) for p in curve.tail],
        "stage1_positive_drift_flags": flags,
        "stage1_mean_s_increment": mean_s_inc,
    }
