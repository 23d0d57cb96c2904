"""Playable strategies: table-optimal play, baselines, randomized steering
toward target points, the outward cascade, and the controlled-ODE integrator.

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

from .errors import DomainError, NoExit, StepTooLarge
from .geometry import (
    MoveKernel,
    all_slacks,
    boundary_distance,
    check_simplex,
    classify_point,
    clip_to_region,
    membership_flow,
    min_slack,
    ray_exit,
    x_star,
    RegionKind,
)
from .graph import Graph
from .values import LOSS, ValueTable, optimal_move, round_to_config

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
    """Deterministic argmax play from a precomputed value table."""

    name = "optimal"

    def __init__(self, table: ValueTable):
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


def optimal_strategy(table: ValueTable) -> Strategy:
    return TableStrategy(table)


def baseline_strategy(kind: str) -> Strategy:
    if kind == "UniformIncident" or kind == "uniform":
        return UniformIncident()
    if kind == "GreedyLargest" or kind == "greedy":
        return GreedyLargest()
    raise DomainError(f"unknown baseline {kind!r}")


# --- kernel plumbing ----------------------------------------------------------


class _KernelSampler:
    def __init__(self, kernel: MoveKernel):
        self.kernel = kernel
        self.cums = np.cumsum(kernel.q, axis=1)

    def sample(self, vertex: int, rng) -> int:
        row = self.cums[vertex - 1]
        e = int(np.searchsorted(row, rng.random(), side="right"))
        return min(e, len(row) - 1)


def _kernel_for(g: Graph, point: np.ndarray) -> _KernelSampler:
    """Flow kernel of a region point, clipping numerically stray inputs."""
    point = np.maximum(point, 0.0)
    point = point / point.sum()
    value, kernel = membership_flow(g, point)
    if kernel is None:
        clipped = clip_to_region(g, point)
        value, kernel = membership_flow(g, clipped)
        if kernel is None:
            _, kernel = membership_flow(g, x_star(g))
    return _KernelSampler(kernel)


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
    if y is not None and min_slack(g, y)[0] < -1e-12:
        y = clip_to_region(g, y)
    return y


def _steer_move(g: Graph, point, default, state, vertex: int, rng, excess=None) -> int:
    """One steering move: draw an edge from the flow kernel of `point` (the
    `default` sampler when point is None); when the drawn edge is empty, or
    has no excess over the target when `excess` is given, play the best
    legal edge instead."""
    sampler = default if point is None else _kernel_for(g, point)
    e = sampler.sample(vertex, rng)
    if state[e] > 0 and (excess is None or excess[e] > 0):
        return e
    return _legal_move(g, state, vertex, excess)


def _confinement_radius(delta: float, d0: float | None = None) -> float:
    """Stage-2 radius for a target at boundary distance delta: d0 when given,
    else sqrt(2) + 4/delta + 1; never below sqrt(2) + 4/delta."""
    floor = math.sqrt(2) + 4.0 / delta
    if d0 is None:
        return floor + 1.0
    if d0 < floor:
        raise DomainError(f"d0={d0} below the confinement requirement")
    return d0


def exact_step_mean(g: Graph, kernel: MoveKernel, state) -> np.ndarray:
    """Exact one-step expectation of the normalized state under a kernel,
    summed over every (vertex, edge) outcome."""
    state = np.asarray(state, dtype=float)
    n = state.sum()
    acc = np.zeros(g.m)
    for v in range(1, g.k + 1):
        for e in range(g.m):
            q = kernel.q[v - 1, e]
            if q == 0.0:
                continue
            child = state.copy()
            child[e] -= 1.0
            acc += kernel.weights[v - 1] * q * child
    return acc / (n - 1.0)


# --- steering plans ------------------------------------------------------------


@dataclass
class SteerPlan:
    """Target point, target total, and stage thresholds for steering play.

    d0 defaults to sqrt(2) + 4/delta + 1 where delta is the boundary distance
    of the target; eps0 (the stage-1 switch radius) defaults to delta/8; the
    finishing window is M*q0 steps with M = ceil(1/min target entry).
    """

    z: np.ndarray
    n1: int
    d0: float | None = None
    eps0: float | None = None
    q0: int = 8
    M: int | None = None
    target_config: np.ndarray = field(init=False)

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        if self.n1 < 1:
            raise DomainError("target total must be positive")
        self.target_config = round_to_config(self.n1, self.z)

    def resolved(self, g: Graph) -> tuple[float, float, int]:
        delta = boundary_distance(g, self.z)
        if delta <= 0:
            raise DomainError("steering target must be interior")
        d0 = _confinement_radius(delta, self.d0)
        eps0 = self.eps0 if self.eps0 is not None else delta / 8.0
        M = self.M if self.M is not None else math.ceil(1.0 / float(self.z.min()))
        return d0, eps0, M


# --- stage strategies -----------------------------------------------------------


class Stage1Steer(Strategy):
    """Drift stage: push the normalized state toward the target along the
    fixed ray direction, playing kernels of the ray's boundary exit point.

    The stage ends once the normalized state is within eps0 of the target;
    afterwards the target's own kernel is played (drift neutral).
    """

    name = "stage1"
    uniform_law_only = True

    def __init__(self, g: Graph, z, x0=None, eps0: float | None = None):
        self.g = g
        self.z = check_simplex(g, z)
        if classify_point(g, self.z).kind is not RegionKind.INTERIOR_REACHABLE:
            raise DomainError("stage-1 target must be interior")
        self._x0 = None if x0 is None else check_simplex(g, x0)
        self._eps0 = eps0
        self._z_kernel = _kernel_for(g, self.z)

    def reset(self, graph, config, total):
        x0 = self._x0 if self._x0 is not None else np.asarray(config, float) / total
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


class Stage2Steer(Strategy):
    """Confinement stage: outside radius d0 of the shrinking target line,
    play the kernel of the boundary exit of the ray from the target through
    the current normalized state; inside the radius play the target's kernel."""

    name = "stage2"
    uniform_law_only = True

    def __init__(self, g: Graph, z, d0: float | None = None):
        self.g = g
        self.z = check_simplex(g, z)
        delta = boundary_distance(g, self.z)
        if delta <= 0:
            raise DomainError("stage-2 target must be interior")
        self.d0 = _confinement_radius(delta, d0)
        self._z_kernel = _kernel_for(g, self.z)

    def exit_for(self, x: np.ndarray) -> np.ndarray | None:
        direction = x - self.z
        if np.linalg.norm(direction) < 1e-14:
            return None
        return _exit_point(self.g, self.z, direction)

    def choose(self, state, remaining, vertex, rng) -> int:
        dev = np.asarray(state, float) - remaining * self.z
        y = None
        if np.linalg.norm(dev) >= self.d0:
            y = self.exit_for(np.asarray(state, float) / remaining)
        return _steer_move(self.g, y, self._z_kernel, state, vertex, rng)


class SteerExact(Stage2Steer):
    """Three-stage steering toward an integer target config at a target total:
    ray drift, confinement, then a greedy finishing window that removes the
    componentwise excess (largest excess first, only edges above target).

    The confinement stage is inherited from Stage2Steer and shares the
    target kernel of the drift stage, a Stage1Steer, so the target is
    classified, measured and given a kernel once."""

    name = "steer"

    def __init__(self, g: Graph, plan: SteerPlan):
        self.plan = plan
        self.d0, self.eps0, self.M = plan.resolved(g)
        self._stage1 = Stage1Steer(g, plan.z, eps0=self.eps0)
        self.g, self.z, self._z_kernel = g, self._stage1.z, self._stage1._z_kernel
        self.finish_cut = plan.n1 + self.M * plan.q0

    def reset(self, graph, config, total):
        self._stage1.reset(graph, config, total)
        self.target = self.plan.target_config

    def choose(self, state, remaining, vertex, rng) -> int:
        if remaining <= self.finish_cut:
            excess = np.asarray(state) - self.target
            return _legal_move(self.g, state, vertex, excess=excess)
        if not self._stage1.done:
            return self._stage1.choose(state, remaining, vertex, rng)
        return super().choose(state, remaining, vertex, rng)


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
        self.q0 = plan.q0

    def reset(self, graph, config, total):
        x0 = np.asarray(config, float) / total
        self.x_mid = 0.5 * x0 + 0.5 * self.plan.z
        self._approach = SteerExact(
            self.g, SteerPlan(z=self.x_mid, n1=2 * self.plan.n1, q0=self.q0)
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
        self.d0 = _confinement_radius(max(boundary_distance(self.g, w), 1e-6))
        self.M = math.ceil(1.0 / float(w.min()))
        self._w_kernel = _kernel_for(self.g, w)
        self.phase = "shifted"

    def choose(self, state, remaining, vertex, rng) -> int:
        if self.phase == "approach":
            if remaining > 2 * self.plan.n1:
                return self._approach.choose(state, remaining, vertex, rng)
            self._enter_shifted(state, remaining)
        m_shift = remaining - self.plan.n1
        excess = np.asarray(state) - self.target
        if m_shift <= self.M * self.q0:
            return _legal_move(self.g, state, vertex, excess=excess)
        shifted = excess.astype(float)
        y = None
        if np.linalg.norm(shifted - m_shift * self.w) >= self.d0:
            y = _exit_point(self.g, self.w, shifted / m_shift - self.w)
        return _steer_move(self.g, y, self._w_kernel, state, vertex, rng, excess)


class OutwardSteer(Strategy):
    """Doubling cascade away from the boundary: target points 1.5x further
    from the starting ray's exit each leg, until the normalized state clears
    a fixed boundary distance; afterwards play drift-neutral kernels."""

    name = "outward"
    uniform_law_only = True

    def __init__(
        self,
        g: Graph,
        clearance: float | None = None,
        leg_eps: float = 0.25,
        amplitude: float | None = None,
    ):
        self.g = g
        self.clearance = (
            clearance if clearance is not None else 0.5 * boundary_distance(g, x_star(g))
        )
        self.leg_eps = leg_eps
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
        self.y = y
        self.d = max(float(np.linalg.norm(x0 - y)), 1e-12)
        gap = y - x0
        self.u = gap / np.linalg.norm(gap)
        self.leg = 0

    def _target(self) -> np.ndarray:
        return self.y + (1.5 ** (self.leg + 1)) * (-self.d) * self.u

    def choose(self, state, remaining, vertex, rng) -> int:
        self.step += 1
        x = np.asarray(state, float) / remaining
        if self.reached_step is None and boundary_distance(self.g, x) >= self.clearance:
            self.reached_step = self.step - 1
        if self.reached_step is not None:
            y = clip_to_region(self.g, x)
        else:
            # legs share the ray direction; advancing only moves the milestone
            if np.linalg.norm(x - self._target()) < self.leg_eps * (1.5 ** (self.leg + 1)) * self.d:
                self.leg += 1
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
