import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

import seqassign
from seqassign.graph import (
    build_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from seqassign.simulate import _play_chunks
from seqassign.strategies import FORFEIT, _legal_move
from seqassign.values import _configs, _layer_bars, compute_table


@pytest.fixture(scope="session")
def p4():
    return path_graph(4)


@pytest.fixture(scope="session")
def triangle():
    return build_graph(3, [(1, 2), (2, 3), (1, 3)])


@pytest.fixture(scope="session")
def k13():
    return star_graph(3)


@pytest.fixture(scope="session")
def c4():
    return cycle_graph(4)


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def p4_table(p4):
    """Shared P4 table to total 200 (the heaviest fixture; ~5 s)."""
    return compute_table(p4, 200)


def brute_force(g, cfg, weights=None):
    """Memo-free recursive evaluation of the optimality recursion, float64.

    Exponential in the total; only usable for small configs.  Kept free of
    memoization on purpose: it is the independent oracle for the table.
    """
    if weights is None:
        weights = np.full(g.k, 1.0 / g.k)
    cfg = tuple(int(c) for c in cfg)
    if sum(cfg) == 0:
        return 1.0
    total = 0.0
    for v in range(1, g.k + 1):
        best = -1.0
        for e in g.incidence[v - 1]:
            if cfg[e] > 0:
                child = list(cfg)
                child[e] -= 1
                val = brute_force(g, child, weights)
                if val > best:
                    best = val
        total += weights[v - 1] * (0.0 if best < 0 else best)
    return total


def exact_value(g, cfg, weights=None, _memo=None) -> Fraction:
    """Memoized exact-rational evaluation of the optimality recursion.

    Intended for small totals (<= 12).  Uniform weights only unless a
    Fraction weight list is supplied.
    """
    if weights is None:
        weights = [Fraction(1, g.k)] * g.k
    cfg = tuple(int(c) for c in cfg)
    if _memo is None:
        _memo = {}
    return _exact(g, cfg, tuple(weights), _memo)


def _exact(g, cfg, weights, memo) -> Fraction:
    if sum(cfg) == 0:
        return Fraction(1)
    hit = memo.get(cfg)
    if hit is not None:
        return hit
    total = Fraction(0)
    for v in range(1, g.k + 1):
        best = Fraction(0)
        found = False
        for e in g.incidence[v - 1]:
            if cfg[e] > 0:
                child = list(cfg)
                child[e] -= 1
                val = _exact(g, tuple(child), weights, memo)
                if not found or val > best:
                    best = val
                    found = True
        total += weights[v - 1] * (best if found else Fraction(0))
    memo[cfg] = total
    return total


def greedy_value(g, cfg) -> Fraction:
    """Exact win probability of greedy play under the uniform law: the
    optimality recursion with `_legal_move`'s edge in place of the max,
    memoised over the configs of the box under cfg."""
    memo = {(0,) * g.m: Fraction(1)}

    def value(state: tuple) -> Fraction:
        if state not in memo:
            total = Fraction(0)
            for v in range(1, g.k + 1):
                e = _legal_move(g, state, v)
                if e != FORFEIT:
                    total += value(state[:e] + (state[e] - 1,) + state[e + 1 :])
            memo[state] = total / g.k
        return memo[state]

    return value(tuple(int(c) for c in cfg))


def compositions(total: int, m: int) -> np.ndarray:
    """All configs of the given total as an (N, m) int64 array, row r having
    rank r."""
    return _configs(_layer_bars(total, m), total)


def unrank_config(r: int, total: int, m: int) -> tuple[int, ...]:
    """Scalar inverse of values.rank_config: the config of rank r in layer
    total, one bar at a time from the top down."""
    ps = []
    rem = r
    for i in range(m - 1, 0, -1):
        c = i - 1
        while comb(c + 1, i) <= rem:
            c += 1
        rem -= comb(c, i)
        ps.append(c)
    ps.reverse()
    cfg = []
    prev = -1
    for i, p in enumerate(ps, start=1):
        cfg.append(p - prev - 1)
        prev = p
    cfg.append(total - sum(cfg))
    return tuple(cfg)


def exact_step_mean(g, kernel, state) -> np.ndarray:
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


@pytest.fixture(scope="session")
def oracle():
    return brute_force


def lockstep_runs(*args):
    """The final states and forfeit flags of `simulate._play_chunks(*args)`,
    joined over its chunks."""
    final, forfeit, _ = zip(*_play_chunks(*args))
    return np.concatenate(final), np.concatenate(forfeit)


def random_simplex_points(m, count, seed):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(m), size=count)


@pytest.fixture(scope="session")
def simplex_sampler():
    return random_simplex_points


def rss_growth(build: str, setup: str = "") -> tuple[int, int]:
    """Peak RSS growth of `build` in a fresh process, after `setup`, and the
    estimate the memory guard checks, which `build` leaves in `need`.  The
    child reads its peak RSS from VmHWM, not ru_maxrss: ru_maxrss survives
    fork and exec, so a child of a large test process would start at the
    parent's peak."""
    code = (
        "from seqassign.graph import complete_graph\n"
        "from seqassign.values import *\n"
        "from seqassign.simulate import _box_policy, policy_bytes\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        line = next(x for x in fh if x.startswith('VmHWM:'))\n"
        "    return int(line.split()[1]) * 1024\n"
        "g = complete_graph(4)\n"
        "compute_table(g, 3)\n"
        "_box_policy(downset_table(g, (1,) * 6))\n"
        f"{setup}\n"
        "before = hwm()\n"
        f"{build}\n"
        "print(hwm() - before, need)\n"
    )
    src = str(Path(seqassign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    growth, need = map(int, out.stdout.split())
    return growth, need
