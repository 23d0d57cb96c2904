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
    boundary_distance,
    check_simplex,
    classify_point,
    clip_to_region,
    flow_rows,
    min_slack,
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


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D float64 vector, the one rule for every
    steering radius: sqrt(x.dot(x)), the dot through BLAS, which is how
    NumPy's `norm` computes it with ord=None."""
    return math.sqrt(x.dot(x))


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


def _kernel_points(rows: np.ndarray) -> np.ndarray:
    """Region points, the rows of an array, as a flow kernel takes them:
    clipped at 0 and divided by their own sums, which clears numerically
    stray inputs.  A reduce along the rows adds each row up as a reduce of
    that row alone would."""
    points = np.maximum(rows, 0.0)
    points /= np.add.reduce(points, axis=1, keepdims=True)
    if not np.isfinite(points).all():
        bad = np.isfinite(points).all(axis=1).argmin()
        raise OutsideSimplex(f"entries sum to {points[bad].sum()}, not 1")
    return points


def _kernel_for(g: Graph, point, vertex=None) -> list:
    """Flow kernel rows of a region point, or only row `vertex` (0-based) of
    them, the row a move draws from: the others are None."""
    return _flow_kernel(g, _kernel_points(np.asarray(point, dtype=float)[None])[0], vertex)


def _flow_kernel(g: Graph, point: np.ndarray, vertex=None) -> list:
    """Kernel rows of a normalised region point, or only row `vertex`
    (0-based) of them, as `flow_rows` gives them.  A region point's flow is
    1 within far less than TOL, so a shortfall is a DomainError."""
    value, rows = flow_rows(g, point.tolist(), vertex=vertex)
    if rows is None:
        raise DomainError(f"max flow {value!r} is not 1: the steering point lies off the region")
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
    `ray_exit_rows` settles are taken from it, the others from
    `_exit_point`.  A settled exit's slacks s_c(x) - t*r_c are >= 0 up to a
    few m*2^-53 of rounding, so `_exit_point` would not clip it."""
    exits = ray_exit_rows(g, direction)

    def settle(rows: np.ndarray) -> np.ndarray:
        y, ok = exits(rows)
        for i in np.flatnonzero(~ok).tolist():
            y[i] = _exit_point(g, rows[i], direction, fallback=rows[i])
        return y

    return settle


def _steer_move(g: Graph, point, default, state, vertex: int, rng, excess=None) -> int:
    """One steering move: draw an edge from the flow kernel of `point` (the
    `default` kernel rows when point is None); when the drawn edge is empty,
    or has no excess over the target when `excess` is given, play the best
    legal edge instead."""
    rows = default if point is None else _kernel_for(g, point, vertex - 1)
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
    if _norm(counts - r * center) >= d0:
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

# the finishing-window unit of a plan that names none
DEFAULT_Q0 = 8


@dataclass
class SteerPlan:
    """Target point, target total, and finishing-window unit for steering play.

    With delta the boundary distance of the target, the confinement radius
    d0 is sqrt(2) + 4/delta + 1, the stage-1 switch radius eps0 is delta/8,
    and the finishing window is M*q0 steps with M = ceil(1/min target entry).
    """

    z: np.ndarray
    n1: int
    q0: int = DEFAULT_Q0
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
    the move that ends it plays the target's own kernel (drift neutral), and
    every later one a confinement move about the line r*z with radius d0.
    With the class defaults, no confinement radius and no finishing window,
    that is the target kernel to the end.
    """

    name = "stage1"
    uniform_law_only = True
    d0 = math.inf
    finish_cut = 0
    target = None
    u = None  # no direction before a reset, as from a start of total 0

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
        norm = _norm(gap)
        self.u = gap / norm if norm > 0 else None
        self.done = self.u is None or norm <= self.eps0

    def current_exit(self, x: np.ndarray) -> np.ndarray:
        """Boundary point ahead of x along the stage direction."""
        return _exit_point(self.g, x, self.u, fallback=x)

    def choose(self, state, remaining, vertex, rng) -> int:
        if remaining <= self.finish_cut:
            return _legal_move(self.g, state, vertex, excess=np.asarray(state) - self.target)
        if not self.done:
            x = np.asarray(state, float) / remaining
            self.done = _norm(x - self.z) <= self.eps0
            y = None if self.done else self.current_exit(x)
            return _steer_move(self.g, y, self._z_kernel, state, vertex, rng)
        return _confine_move(self.g, self.z, self.d0, self._z_kernel, remaining, state, vertex, rng)


class SteerExact(Stage1Steer):
    """Three-stage steering toward an integer target config at a target total:
    ray drift, confinement, then a greedy finishing window that removes the
    componentwise excess (largest excess first, only edges above target).

    It is the Stage1Steer toward the plan's target with the plan's switch
    radius eps0, confinement radius d0 and finishing window."""

    name = "steer"

    def __init__(self, g: Graph, plan: SteerPlan):
        self.d0, eps0, M = plan.resolved(g)
        super().__init__(g, plan.z, eps0=eps0)
        self.finish_cut = plan.n1 + M * plan.q0
        self.target = plan.target_config


class SteerKTarget(Strategy):
    """Steering variant whose target may sit anywhere in the closed region.

    Approaches the midpoint of start and target first (when that midpoint
    is not interior, the point halfway between its clip onto the region and
    x*, which is), then replays the confinement moves on the target-shifted
    state (which may go negative on edges already at target), and finishes
    with the greedy excess window.
    """

    name = "steer-k"
    uniform_law_only = True

    def __init__(self, g: Graph, plan: SteerPlan):
        self.g = g
        self.plan = plan
        check_simplex(g, plan.z)
        if min_slack(g, plan.z)[0] < -1e-9:
            raise DomainError("target must lie in the closed region")
        self._mid = None  # the bytes of the midpoint the approach was built for

    def reset(self, graph, config, total):
        x0 = np.asarray(config, float) / total
        mid = 0.5 * x0 + 0.5 * self.plan.z
        # the runs of an estimate share their start, so they share the
        # approach, which reset rebuilds only for another midpoint
        if mid.tobytes() != self._mid:
            x_mid = mid
            if classify_point(self.g, mid).kind is not RegionKind.INTERIOR_REACHABLE:
                x_mid = 0.5 * clip_to_region(self.g, mid) + 0.5 * x_star(self.g)
            self._approach = SteerExact(
                self.g, SteerPlan(z=x_mid, n1=2 * self.plan.n1, q0=self.plan.q0)
            )
            self._mid, self.x_mid = mid.tobytes(), x_mid
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


def steering_strategy(g: Graph, plan: SteerPlan, kind: str) -> Strategy:
    """The steering strategy of a kind for a plan: SteerExact for `exact`,
    whose target must be interior, and SteerKTarget for `k`, whose target
    may lie anywhere in the closed region."""
    if kind == "exact":
        return SteerExact(g, plan)
    if kind == "k":
        return SteerKTarget(g, plan)
    raise DomainError(f"unknown steering kind {kind!r}")


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
        if _norm(gap) <= 1e-12:
            # a start on the boundary is its own exit; the ray points the same way
            gap = x0 - anchor
        self.u = gap / _norm(gap)

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
    min_slack: np.ndarray  # the region's minimum slack at each point


_MAX_STEP = 0.5 * math.sqrt(2)


def ode_trajectory(g: Graph, x0, target=None, dt: float = 1e-3, T: float = 10.0, control=None) -> OdePath:
    """Explicit Euler integration of dx/dt = x - u(t) with controls in the
    closed region.

    Default control: the boundary exit of the ray from `target` through x
    (drift then points toward the target); when x leaves the region the
    control falls back to the slack-clipped nearest region point.  A callable
    `control(x)` overrides both.  The path records the minimum slack of each
    point, the value that decides the fallback.  Raises StepTooLarge when a
    single step would move more than half the simplex diameter.
    """
    if dt <= 0 or T <= 0:
        raise DomainError("dt and T must be positive")
    x = np.asarray(x0, dtype=float).copy()
    if target is not None:
        target = np.asarray(target, dtype=float)
    steps = int(round(T / dt))
    times = np.empty(steps + 1)
    points = np.empty((steps + 1, g.m))
    slacks = np.empty(steps + 1)
    for i in range(steps + 1):
        times[i] = i * dt
        points[i] = x
        slacks[i] = min_slack(g, x)[0]
        if i == steps:
            break
        if control is not None:
            u = np.asarray(control(x), dtype=float)
        elif target is None or slacks[i] < 0:
            u = clip_to_region(g, x)
        else:
            direction = x - target
            if _norm(direction) < 1e-15:
                u = x.copy()
            else:
                u, _, _ = ray_exit(g, target, direction)
        dx = (x - u) * dt
        if _norm(dx) > _MAX_STEP:
            raise StepTooLarge(f"step {i}: |dx|={_norm(dx)} exceeds {_MAX_STEP}")
        x = x + dx
    return OdePath(times=times, points=points, min_slack=slacks)
