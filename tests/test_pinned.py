"""Integer outcomes of seeded play, pinned so that a refactor of the
strategies, the geometry or the simulator cannot change them unnoticed.

Only integers are compared (hit counts, success counts, tail counts, empty
slice flags), never float bytes: a BLAS with different rounding moves kernel
probabilities in the last bits, which changes no draw in practice but would
change a float-equality test.
"""

import math

import numpy as np
import pytest

from seqassign.experiments import steering_report, window_collapse
from seqassign.geometry import x_star
from seqassign.simulate import estimate
from seqassign.strategies import (
    GreedyLargest,
    OutwardSteer,
    SteerExact,
    SteerKTarget,
    SteerPlan,
    TableStrategy,
)
from seqassign.values import compute_table, downset_table, round_to_config

BOUNDARY_TARGET = np.array([0.25, 0.375, 0.375])
K4_TARGET = np.array([0.3, 0.1, 0.1, 0.2, 0.2, 0.1])


def tail_counts(report):
    return [round(p * report["runs"]) for p in report["tail_p"]]


@pytest.mark.parametrize(
    "seed, tail",
    [
        (0, [6, 6, 5, 5, 5, 5, 5, 4, 4, 4, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0]),
        (1, [6, 6, 6, 6, 6, 5, 4, 4, 4, 3, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0]),
        (2, [6, 6, 5, 4, 4, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ],
)
def test_exact_steering_report_pinned(p4, seed, tail):
    plan = SteerPlan(z=x_star(p4), n1=50)
    report = steering_report(p4, plan, [120, 136, 144], 6, seed, kind="exact")
    assert report["hits"] == 0
    assert report["target_config"] == [19, 12, 19]
    assert tail_counts(report) == tail
    assert report["stage1_positive_drift_flags"] == 0


@pytest.mark.parametrize(
    "seed, hits, tail",
    [
        (0, 0, [12, 12, 4, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        (1, 2, [10, 10, 4, 2, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        (2, 4, [8, 8, 3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ],
)
def test_boundary_target_steering_report_pinned(p4, seed, hits, tail):
    plan = SteerPlan(z=BOUNDARY_TARGET, n1=24)
    start = round_to_config(120, x_star(p4))
    report = steering_report(p4, plan, start, 12, seed, kind="k")
    assert report["hits"] == hits
    assert report["target_config"] == [6, 9, 9]
    assert tail_counts(report) == tail


def test_estimate_successes_pinned(p4):
    xs = x_star(p4)
    y0 = BOUNDARY_TARGET
    start = round_to_config(120, y0 + 8 * 0.8 / math.sqrt(120) * (xs - y0))
    assert start.tolist() == [39, 36, 45]
    assert estimate(p4, start, OutwardSteer(p4, amplitude=0.5), 30, 11).successes == 3
    steer_k = SteerKTarget(p4, SteerPlan(z=BOUNDARY_TARGET, n1=24))
    assert estimate(p4, round_to_config(120, xs), steer_k, 20, 12).successes == 2
    assert estimate(p4, [23, 15, 22], GreedyLargest(), 500, 13).successes == 96


@pytest.mark.parametrize(
    "graph, start, kind, seed, successes",
    [
        ("p4", [23, 15, 22], "optimal", 1, 5349),
        ("p4", [23, 15, 22], "greedy", 1, 3645),
        # all four seed words set
        ("p4", [23, 15, 22], "optimal", 2**128 - 1, 5126),
        # K4's degree-3 candidates and its many ties between edges
        ("k4", [4, 3, 4, 3, 4, 3], "optimal", 3, 7848),
        ("k4", [4, 3, 4, 3, 4, 3], "greedy", 3, 6289),
    ],
)
def test_chunk_crossing_successes_pinned(request, graph, start, kind, seed, successes):
    # 20,000 runs cross the 16,384-run chunk: the second chunk's streams
    # start at spawn index 16,384 and come in blocks of four columns
    g = request.getfixturevalue(graph)
    strategy = TableStrategy(downset_table(g, start)) if kind == "optimal" else GreedyLargest()
    assert estimate(g, start, strategy, 20000, seed).successes == successes


def test_confinement_successes_pinned(c4, k4):
    # the long shifted phase strays past d0 from the shifted target line, so
    # the confinement moves play exit-point kernels
    steer_c4 = SteerKTarget(c4, SteerPlan(z=(0.125, 0.125, 0.375, 0.375), n1=400))
    assert estimate(c4, round_to_config(1600, x_star(c4)), steer_c4, 8, 5).successes == 2
    exact = SteerExact(k4, SteerPlan(z=x_star(k4), n1=12))
    assert estimate(k4, [60, 24, 24, 30, 30, 12], exact, 10, 7).successes == 3
    # q0 = 2 leaves room for the shifted confinement phase before the window
    steer_k = SteerKTarget(k4, SteerPlan(z=K4_TARGET, n1=12, q0=2))
    assert estimate(k4, [10] * 6, steer_k, 20, 8).successes == 10


def test_outward_drift_successes_pinned(k4):
    start = np.array([20, 8, 8, 10, 10, 4])
    outward = OutwardSteer(k4, amplitude=0.3)
    outward.reset(k4, start, 60)
    assert outward.reached_step is None  # the drift branch runs
    assert estimate(k4, start, outward, 30, 9).successes == 10


@pytest.mark.parametrize(
    "seed, hits, tail",
    [
        (3, 4, [4, 4] + [0] * 19),
        (4, 3, [5, 5] + [0] * 19),
    ],
)
def test_k4_steering_report_pinned(k4, seed, hits, tail):
    plan = SteerPlan(z=x_star(k4), n1=12)
    report = steering_report(k4, plan, [60, 24, 24, 30, 30, 12], 8, seed)
    assert report["hits"] == hits
    assert report["target_config"] == [2] * 6
    assert tail_counts(report) == tail
    assert report["stage1_positive_drift_flags"] == 0
    assert len(report["stage1_mean_s_increment"]) == 3


def test_window_slices_pinned(p4):
    rows, _ = window_collapse([16, 32, 64], [0.5, 1.0, 1.5, 2.0], compute_table(p4, 64))
    cells = "".join(kind + ("1" if empty else "0") for _, _, kind, _, empty, _ in rows)
    assert cells == (
        "I0II0III0I0II1III0I0II1III0I0II1III0"
        "I0II0III0I0II1III0I0II1III0I0II1III0"
        "I0II0III0I0II0III0I0II1III0I0II1III0"
    )
