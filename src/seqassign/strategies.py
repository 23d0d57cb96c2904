"""Playable strategies: table-optimal play, baselines, randomized steering
toward target points, the outward drift, and the controlled-ODE integrator.

A strategy is an object with `reset(graph, config, total)` called once per
game and `choose(state, remaining, vertex, rng) -> edge index` called once per
step; it returns FORFEIT when the drawn vertex has no positive incident edge.
Strategy instances carry per-game stage state, so use one instance per
concurrent game (construction inputs are immutable and shareable).

Steering strategies sample edges from move kernels of boundary points.  When
the sampled edge has no remaining capacity the move falls back to the best
legal incident edge (largest excess over the stage target when one exists,
otherwise the largest remaining count, ties to the lowest edge index); a
forced illegal kernel draw therefore never aborts a game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NoExit, OutsideSimplex, StepTooLarge
from .geometry import (
    all_slacks,
    boundary_distance,
    check_simplex,
    classify_point,
    clip_to_region,
    flow_rows,
    min_slack,
    min_slack_rows,
    ray_exit,
    ray_exit_rows,
    x_star,
    RegionKind,
)
from .graph import Graph
from .values import LOSS, DownSetTable, ValueTable, optimal_move, round_to_config

FORFEIT = LOSS


class Strategy:
    name = "strategy"
    # steering kernels realize their targets under the uniform vertex law only
    uniform_law_only = False

    def reset(self, graph: Graph, config, total: int) -> None:
        pass

    def choose(self, state, remaining: int, vertex: int, rng) -> int:
        raise NotImplementedError


# --- table-optimal and baselines ---------------------------------------------


class TableStrategy(Strategy):
    """Deterministic argmax play from a precomputed value table: a full one,
    or the down-set of the configs it will play from."""

    name = "optimal"

    def __init__(self, table: ValueTable | DownSetTable):
        self.table = table

    def choose(self, state, remaining, vertex, rng) -> int:
        return optimal_move(self.table, state, vertex)


class UniformIncident(Strategy):
    name = "uniform"

    def choose(self, state, remaining, vertex, rng) -> int:
        graph = self._graph
        avail = [e for e in graph.incidence[vertex - 1] if state[e] > 0]
        if not avail:
            return FORFEIT
        return avail[int(rng.integers(len(avail)))]

    def reset(self, graph, config, total):
        self._graph = graph


class GreedyLargest(Strategy):
    name = "greedy"

    def choose(self, state, remaining, vertex, rng) -> int:
        return _legal_move(self._graph, state, vertex)

    def reset(self, graph, config, total):
        self._graph = graph


def optimal_strategy(table: ValueTable | DownSetTable) -> Strategy:
    return TableStrategy(table)


def baseline_strategy(kind: str) -> Strategy:
    if kind == "uniform":
        return UniformIncident()
    if kind == "greedy":
        return GreedyLargest()
    raise DomainError(f"unknown baseline {kind!r}")


# --- kernel plumbing ----------------------------------------------------------


def _draw_edge(row: list[float], u: float) -> int:
    """The edge of kernel row `row` that the uniform u selects: the first
    edge whose running sum of the row, added left to right, exceeds u.  Rows
    may sum a few ulps below 1, or up to 1e-9 below when the flow value is
    short of 1 by that much; a uniform at or above the row's sum goes to the
    row's last edge of positive probability, which is incident."""
    acc = 0.0
    for e, p in enumerate(row):
        acc += p
        if u < acc:
            return e
    return max(e for e, p in enumerate(row) if p > 0)


def _kernel_for(g: Graph, point: np.ndarray) -> list[list[float]]:
    """Flow kernel rows of a region point, clipping numerically stray inputs."""
    point = np.maximum(point, 0.0)
    point = point / point.sum()
    if not np.isfinite(point).all():
        raise OutsideSimplex(f"entries sum to {point.sum()}, not 1")
    return _flow_kernel(g, point, point.tolist())


def _flow_kernel(g: Graph, point: np.ndarray, entries: list[float]) -> list[list[float]]:
    """Kernel rows of a normalised point, given also as Python floats; a point
    the flow cannot realise is clipped onto the region, then x* stands in."""
    _, rows = flow_rows(g, entries)
    if rows is None:
        _, rows = flow_rows(g, check_simplex(g, clip_to_region(g, point)).tolist())
        if rows is None:
            _, rows = flow_rows(g, x_star(g).tolist())
    return rows


def _legal_move(g: Graph, state, vertex: int, excess=None) -> int:
    """Best legal incident edge: largest positive excess when given, else
    largest remaining count; ties to the lowest edge index; FORFEIT if none."""
    if excess is not None:
        best, best_excess = FORFEIT, 0
        for e in g.incidence[vertex - 1]:
            if state[e] > 0 and excess[e] > best_excess:
                best, best_excess = e, excess[e]
        if best != FORFEIT:
            return best
    best, best_count = FORFEIT, 0
    for e in g.incidence[vertex - 1]:
        if state[e] > best_count:
            best, best_count = e, state[e]
    return best


# an exit point whose minimum slack is below -_CLIP is clipped onto the region
_CLIP = 1e-12


def _exit_point(g: Graph, origin, direction, fallback=None):
    """Point where the ray origin + t*direction (t >= 0) leaves the region;
    `fallback` when no constraint tightens ahead.  A point left outside the
    closed region by rounding is clipped back onto it."""
    try:
        y, t, _ = ray_exit(g, origin, direction)
        if t < 0:
            raise NoExit("origin already past the boundary")
    except NoExit:
        y = fallback
    if y is not None and min_slack(g, y)[0] < -_CLIP:
        y = clip_to_region(g, y)
    return y


def _exit_rows(g: Graph, direction: np.ndarray):
    """The exit points `_exit_point(g, x, direction, fallback=x)` of the rows
    x of an (R, m) array, as a function of the rows: the rows that
    `ray_exit_rows` settles with no clip due are taken from it, the others
    from `_exit_point`."""
    exits = ray_exit_rows(g, direction)

    def settle(rows: np.ndarray) -> np.ndarray:
        y, ok = exits(rows)
        ok[ok] = min_slack_rows(g, y[ok]) >= -_CLIP
        for i in np.flatnonzero(~ok).tolist():
            y[i] = _exit_point(g, rows[i], direction, fallback=rows[i])
        return y

    return settle


def _steer_move(g: Graph, point, default, state, vertex: int, rng, excess=None) -> int:
    """One steering move: draw an edge from the flow kernel of `point` (the
    `default` kernel rows when point is None); when the drawn edge is empty,
    or has no excess over the target when `excess` is given, play the best
    legal edge instead."""
    rows = default if point is None else _kernel_for(g, point)
    e = _draw_edge(rows[vertex - 1], rng.random())
    if state[e] > 0 and (excess is None or excess[e] > 0):
        return e
    return _legal_move(g, state, vertex, excess)


def _confine_move(
    g: Graph, center, d0: float, kernel, r: int, state, vertex: int, rng, excess=None
) -> int:
    """One confinement move about the line r*center: when the counts (the
    state, or its excess over a target when given) lie d0 or further from
    it, play the kernel of the boundary exit of the ray from center through
    counts/r, else `kernel`, the center's own; then as `_steer_move`."""
    counts = np.asarray(state if excess is None else excess, float)
    y = None
    if np.linalg.norm(counts - r * center) >= d0:
        y = _exit_point(g, center, counts / r - center)
    return _steer_move(g, y, kernel, state, vertex, rng, excess)


def _confinement(point: np.ndarray, delta: float) -> tuple[float, int]:
    """Confinement radius sqrt(2) + 4/delta + 1 about a target at boundary
    distance delta, and the finishing-window factor M = ceil(1/p) for p the
    target's smallest positive entry (an edge with share 0 needs no
    finishing steps)."""
    d0 = math.sqrt(2) + 4.0 / delta + 1.0
    return d0, math.ceil(1.0 / float(point[point > 0].min()))


# --- steering plans ------------------------------------------------------------


@dataclass
class SteerPlan:
    """Target point, target total, and finishing-window unit for steering play.

    With delta the boundary distance of the target, the confinement radius
    d0 is sqrt(2) + 4/delta + 1, the stage-1 switch radius eps0 is delta/8,
    and the finishing window is M*q0 steps with M = ceil(1/min target entry).
    """

    z: np.ndarray
    n1: int
    q0: int = 8
    target_config: np.ndarray = field(init=False)

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        # before rounding, which warns on a NaN or infinite entry
        if not np.isfinite(self.z).all():
            raise OutsideSimplex(f"entries sum to {self.z.sum()}, not 1")
        if self.n1 < 1:
            raise DomainError("target total must be positive")
        self.target_config = round_to_config(self.n1, self.z)

    def resolved(self, g: Graph) -> tuple[float, float, int]:
        delta = boundary_distance(g, self.z)
        if delta <= 0:
            raise DomainError("steering target must be interior")
        d0, M = _confinement(self.z, delta)
        return d0, delta / 8.0, M


# --- stage strategies -----------------------------------------------------------


class Stage1Steer(Strategy):
    """Drift stage: push the normalized state toward the target along the
    fixed ray direction, playing kernels of the ray's boundary exit point.

    The stage ends once the normalized state is within eps0 of the target;
    afterwards the target's own kernel is played (drift neutral).
    """

    name = "stage1"
    uniform_law_only = True

    def __init__(self, g: Graph, z, eps0: float | None = None):
        self.g = g
        self.z = check_simplex(g, z)
        if classify_point(g, self.z).kind is not RegionKind.INTERIOR_REACHABLE:
            raise DomainError("stage-1 target must be interior")
        self._eps0 = eps0
        self._z_kernel = _kernel_for(g, self.z)

    def reset(self, graph, config, total):
        x0 = np.asarray(config, float) / total
        if self._eps0 is not None:
            self.eps0 = self._eps0
        else:
            delta = min(boundary_distance(self.g, x0), boundary_distance(self.g, self.z))
            self.eps0 = max(delta, 1e-6) / 8.0
        gap = x0 - self.z
        norm = float(np.linalg.norm(gap))
        self.u = gap / norm if norm > 0 else None
        self.done = norm <= self.eps0

    def current_exit(self, x: np.ndarray) -> np.ndarray:
        """Boundary point ahead of x along the stage direction."""
        return _exit_point(self.g, x, self.u, fallback=x)

    def choose(self, state, remaining, vertex, rng) -> int:
        x = np.asarray(state, float) / remaining
        if not self.done and (self.u is None or np.linalg.norm(x - self.z) <= self.eps0):
            self.done = True
        y = None if self.done else self.current_exit(x)
        return _steer_move(self.g, y, self._z_kernel, state, vertex, rng)


class SteerExact(Strategy):
    """Three-stage steering toward an integer target config at a target total:
    ray drift, confinement, then a greedy finishing window that removes the
    componentwise excess (largest excess first, only edges above target).

    The drift stage is a Stage1Steer; the confinement moves share its target
    kernel, so the target is classified, measured and given a kernel once."""

    name = "steer"
    uniform_law_only = True

    def __init__(self, g: Graph, plan: SteerPlan):
        self.plan = plan
        self.d0, eps0, M = plan.resolved(g)
        self._stage1 = Stage1Steer(g, plan.z, eps0=eps0)
        self.g = g
        self.finish_cut = plan.n1 + M * plan.q0

    def reset(self, graph, config, total):
        self._stage1.reset(graph, config, total)
        self.target = self.plan.target_config

    def choose(self, state, remaining, vertex, rng) -> int:
        if remaining <= self.finish_cut:
            excess = np.asarray(state) - self.target
            return _legal_move(self.g, state, vertex, excess=excess)
        stage1 = self._stage1
        if not stage1.done:
            return stage1.choose(state, remaining, vertex, rng)
        return _confine_move(
            self.g, stage1.z, self.d0, stage1._z_kernel, remaining, state, vertex, rng
        )


class SteerKTarget(Strategy):
    """Steering variant whose target may sit anywhere in the closed region.

    Approaches the midpoint of start and target first, then replays the
    confinement moves on the target-shifted state (which may go negative on
    edges already at target), and finishes with the greedy excess window.
    """

    name = "steer-k"
    uniform_law_only = True

    def __init__(self, g: Graph, plan: SteerPlan):
        self.g = g
        self.plan = plan
        if min_slack(g, plan.z)[0] < -1e-9:
            raise DomainError("target must lie in the closed region")

    def reset(self, graph, config, total):
        x0 = np.asarray(config, float) / total
        self.x_mid = 0.5 * x0 + 0.5 * self.plan.z
        self._approach = SteerExact(
            self.g, SteerPlan(z=self.x_mid, n1=2 * self.plan.n1, q0=self.plan.q0)
        )
        self._approach.reset(graph, config, total)
        self.target = self.plan.target_config
        self.phase = "approach"
        self.w = None

    def _enter_shifted(self, state, remaining):
        y2 = np.asarray(state, float) / remaining
        w = 2.0 * y2 - self.plan.z
        if min_slack(self.g, w)[0] <= 0:
            w = clip_to_region(self.g, 0.5 * w + 0.5 * x_star(self.g))
        self.w = w
        self.d0, self.M = _confinement(w, max(boundary_distance(self.g, w), 1e-6))
        self._w_kernel = _kernel_for(self.g, w)
        self.phase = "shifted"

    def choose(self, state, remaining, vertex, rng) -> int:
        if self.phase == "approach":
            if remaining > 2 * self.plan.n1:
                return self._approach.choose(state, remaining, vertex, rng)
            self._enter_shifted(state, remaining)
        m_shift = remaining - self.plan.n1
        excess = np.asarray(state) - self.target
        if m_shift <= self.M * self.plan.q0:
            return _legal_move(self.g, state, vertex, excess=excess)
        return _confine_move(
            self.g, self.w, self.d0, self._w_kernel, m_shift, state, vertex, rng, excess
        )


class OutwardSteer(Strategy):
    """Drift away from the boundary.  Until the normalized state clears half
    the boundary distance of x*, play the kernel of the boundary exit ahead
    of the state along one fixed direction: from the start toward the point
    where the ray from x* through the start leaves the region.  The drift
    then points away from that boundary.  Once clear (`reached_step` records
    the step), play the kernel of the state itself, which is drift neutral."""

    name = "outward"
    uniform_law_only = True

    def __init__(self, g: Graph, amplitude: float | None = None):
        self.g = g
        self.clearance = 0.5 * boundary_distance(g, x_star(g))
        self.amplitude = amplitude

    def reset(self, graph, config, total):
        x0 = np.asarray(config, float) / total
        if self.amplitude is not None:
            need = self.amplitude / math.sqrt(total)
            have = min_slack(self.g, x0)[0]
            if have < need:
                raise DomainError(
                    f"start slack {have:.4g} below required {need:.4g} (A={self.amplitude})"
                )
        self.reached_step: int | None = None
        self.step = 0
        if boundary_distance(self.g, x0) >= self.clearance:
            self.reached_step = 0
            return
        anchor = x_star(self.g)
        y, _, _ = ray_exit(self.g, anchor, x0 - anchor)
        gap = y - x0
        if np.linalg.norm(gap) <= 1e-12:
            # a start on the boundary is its own exit; the ray points the same way
            gap = x0 - anchor
        self.u = gap / np.linalg.norm(gap)

    def choose(self, state, remaining, vertex, rng) -> int:
        self.step += 1
        x = np.asarray(state, float) / remaining
        if self.reached_step is None and boundary_distance(self.g, x) >= self.clearance:
            self.reached_step = self.step - 1
        if self.reached_step is not None:
            y = clip_to_region(self.g, x)
        else:
            y = _exit_point(self.g, x, self.u, fallback=x)
        return _steer_move(self.g, y, None, state, vertex, rng)


# --- controlled ODE --------------------------------------------------------------


@dataclass
class OdePath:
    times: np.ndarray
    points: np.ndarray
    slacks: np.ndarray


_MAX_STEP = 0.5 * math.sqrt(2)


def ode_trajectory(g: Graph, x0, target=None, dt: float = 1e-3, T: float = 10.0, control=None) -> OdePath:
    """Explicit Euler integration of dx/dt = x - u(t) with controls in the
    closed region.

    Default control: the boundary exit of the ray from `target` through x
    (drift then points toward the target); when x leaves the region the
    control falls back to the slack-clipped nearest region point.  A callable
    `control(x)` overrides both.  Raises StepTooLarge when a single step would
    move more than half the simplex diameter.
    """
    if dt <= 0 or T <= 0:
        raise DomainError("dt and T must be positive")
    x = np.asarray(x0, dtype=float).copy()
    if target is not None:
        target = np.asarray(target, dtype=float)
    steps = int(round(T / dt))
    times = np.empty(steps + 1)
    points = np.empty((steps + 1, g.m))
    slack_rows = []
    for i in range(steps + 1):
        times[i] = i * dt
        points[i] = x
        slack_rows.append(all_slacks(g, x))
        if i == steps:
            break
        if control is not None:
            u = np.asarray(control(x), dtype=float)
        elif min_slack(g, x)[0] < 0:
            u = clip_to_region(g, x)
        elif target is None:
            u = clip_to_region(g, x)
        else:
            direction = x - target
            if np.linalg.norm(direction) < 1e-15:
                u = x.copy()
            else:
                u, _, _ = ray_exit(g, target, direction)
        dx = (x - u) * dt
        if float(np.linalg.norm(dx)) > _MAX_STEP:
            raise StepTooLarge(f"step {i}: |dx|={np.linalg.norm(dx)} exceeds {_MAX_STEP}")
        x = x + dx
    return OdePath(times=times, points=points, slacks=np.array(slack_rows))
