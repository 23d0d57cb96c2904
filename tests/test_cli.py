import itertools
import json
import shutil
import tracemalloc
import warnings

import numpy as np
import pytest

import seqassign.cli as cli_module
import seqassign.simulate as simulate_module
import seqassign.values as values_module
from seqassign.cli import _emit, _parse_ints, _verify_rows, main, phase_bytes
from seqassign.experiments import (
    CONJECTURE_COLUMNS,
    PHASE_COLUMNS,
    SCAN_COLUMNS,
    WINDOW_COLUMNS,
    PhaseGrid,
    a_star,
    steering_report,
)
from seqassign.errors import DomainError, SeqAssignError
from seqassign.graph import (
    complete_graph,
    cycle_graph,
    format_graph_text,
    path_graph,
    star_graph,
)
from seqassign.geometry import x_star
from seqassign.simulate import deviation_tail, policy_bytes
from seqassign.strategies import SteerExact, SteerKTarget, SteerPlan
from seqassign.values import (
    DEFAULT_BUDGET,
    _layer_bars,
    compute_table,
    downset_bytes,
    layer_size,
    load_bytes,
    stream_bytes,
    value_at,
)


@pytest.fixture()
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(format_graph_text(path_graph(4)))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_region_classify(p4_file, capsys):
    code, out, _ = run(
        ["region", "classify", "--graph", p4_file, "--point", "0.2,0.3,0.5"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["class"] == "Inaccessible"
    assert report["subset"] == [0]


def test_region_classify_k8(tmp_path, capsys):
    # 28 edges: more than the 24-edge subset cap, but only 8 vertices
    path = tmp_path / "k8.txt"
    path.write_text(format_graph_text(complete_graph(8)))
    code, out, _ = run(["region", "classify", "--graph", str(path), "--point", "xstar"], capsys)
    assert code == 0
    assert json.loads(out)["class"] == "InteriorReachable"


def test_region_flow(p4_file, capsys):
    code, out, _ = run(
        ["region", "flow", "--graph", p4_file, "--point", "xstar"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["in_region"] is True
    assert abs(report["flow_value"] - 1.0) < 1e-9


def test_region_classify_outside_simplex(p4_file, capsys):
    # off-simplex input is itself a classification outcome for classify
    code, out, _ = run(
        ["region", "classify", "--graph", p4_file, "--point", "0.9,0.3,0.5"], capsys
    )
    assert code == 0
    assert json.loads(out)["class"] == "OutsideSimplex"


def test_region_flow_outside_simplex_is_error(p4_file, capsys):
    code, _, err = run(
        ["region", "flow", "--graph", p4_file, "--point", "0.9,0.3,0.5"], capsys
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("mode", ["classify", "flow"])
def test_region_rejects_an_invalid_law(p4_file, tmp_path, capsys, mode):
    # the law's error is an input error, not the point's OutsideSimplex class
    weights = tmp_path / "w.txt"
    weights.write_text("0 0.5 0.5 0\n")
    code, out, err = run(
        ["region", mode, "--graph", p4_file, "--point", "xstar", "--weights", str(weights)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "error" in err


def test_non_finite_input_is_outside_simplex(p4_file, tmp_path, capsys):
    point = ["--graph", p4_file, "--point", "nan,0.5,0.5"]
    code, out, _ = run(["region", "classify"] + point, capsys)
    assert code == 0
    assert json.loads(out)["class"] == "OutsideSimplex"
    code, _, err = run(["region", "flow"] + point, capsys)
    assert code == 2
    assert "error" in err
    weights = tmp_path / "w.txt"
    weights.write_text("nan 0.5 0.25 0.25\n")
    code, out, err = run(
        ["value", "at", "--graph", p4_file, "--config", "1,1,1", "--weights", str(weights)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "error" in err


def test_steer_non_finite_target_is_quiet_error(p4_file, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            ["steer", "--graph", p4_file, "--n", "40", "--n1", "10", "--target", "nan,0.5,0.5"],
            capsys,
        )
    assert code == 2
    assert out == ""
    assert err == "error: entries sum to nan, not 1\n"


def test_subset_cap_resource_exit_code(tmp_path, capsys):
    path = tmp_path / "c25.txt"
    path.write_text(format_graph_text(cycle_graph(25)))
    code, _, err = run(
        ["region", "classify", "--graph", str(path), "--point", "xstar"], capsys
    )
    assert code == 3


def test_missing_graph_exit_code(capsys):
    code, _, err = run(
        ["region", "classify", "--graph", "/nonexistent", "--point", "xstar"], capsys
    )
    assert code == 2


def test_value_at_and_argmax(p4_file, capsys):
    code, out, _ = run(
        ["value", "at", "--graph", p4_file, "--config", "1,1,1"], capsys
    )
    assert code == 0
    assert json.loads(out)["p"] == 7 / 16
    code, out, _ = run(["value", "argmax", "--graph", p4_file, "--n", "20"], capsys)
    assert code == 0
    report = json.loads(out)
    assert sum(report["config"]) == 20


@pytest.mark.parametrize("mode", ["argmax", "table"])
def test_value_negative_n_is_an_input_error(p4_file, tmp_path, capsys, mode):
    cache = tmp_path / "t.tbl"
    code, out, err = run(
        ["value", mode, "--graph", p4_file, "--n", "-1", "--cache", str(cache)], capsys
    )
    assert code == 2
    assert out == ""
    assert "n_max -1" in err
    assert not cache.exists()


def test_value_at_reads_the_down_set(tmp_path, capsys):
    # a full table to total 60 needs 1.78 GB and exits 3; the box under the
    # config holds 1.77M states
    path = tmp_path / "k4.txt"
    path.write_text(format_graph_text(complete_graph(4)))
    argv = ["value", "at", "--graph", str(path), "--config"]
    code, out, _ = run(argv + ["10,10,10,10,10,10"], capsys)
    assert code == 0
    assert 0.0 < json.loads(out)["p"] < 1.0
    code, out, _ = run(argv + ["5,5,5,5,5,5"], capsys)
    assert code == 0
    assert json.loads(out)["p"] == value_at(compute_table(complete_graph(4), 30), [5] * 6)


def test_value_at_rejects_a_config_outside_the_box(p4_file, capsys, monkeypatch):
    import seqassign.cli as cli

    real = cli.downset_table
    monkeypatch.setattr(cli, "downset_table", lambda g, top, w: real(g, [1, 1, 1], w))
    code, out, err = run(["value", "at", "--graph", p4_file, "--config", "1,2,1"], capsys)
    assert code == 2
    assert out == ""
    assert "outside the box" in err


def test_value_table_cache_roundtrip(p4_file, tmp_path, capsys):
    cache = str(tmp_path / "t.tbl")
    code, out, _ = run(
        ["value", "table", "--graph", p4_file, "--n", "25", "--cache", cache], capsys
    )
    assert code == 0
    code, out, _ = run(
        ["value", "at", "--graph", p4_file, "--config", "9,7,9", "--cache", cache],
        capsys,
    )
    assert code == 0
    assert 0.0 <= json.loads(out)["p"] <= 1.0


def test_phase_golden_header(p4_file, tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(
        ["phase", "--graph", p4_file, "--n", "12", "--out", str(out_path), "--verify"],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(PHASE_COLUMNS)
    assert len(lines) == 1 + 91  # C(14,2) configs of total 12
    summary = json.loads(out)
    assert summary["argmax_m"] + summary["argmax_l"] <= 12


@pytest.mark.parametrize("block", [1, 7, 91])
def test_csv_blocks_write_the_same_bytes(block, p4_file, tmp_path, capsys, monkeypatch):
    # the 91 rows of layer 12 written in blocks, ending on a block boundary
    # or not, and printed to stdout, are the bytes of one block
    import seqassign.cli as cli

    argv = ["phase", "--graph", p4_file, "--n", "12", "--verify", "--out"]
    assert run(argv + [str(tmp_path / "whole.csv")], capsys)[0] == 0
    monkeypatch.setattr(cli, "_CSV_BLOCK", block)
    assert run(argv + [str(tmp_path / "blocks.csv")], capsys)[0] == 0
    whole = (tmp_path / "whole.csv").read_bytes()
    assert (tmp_path / "blocks.csv").read_bytes() == whole
    code, out, _ = run(["phase", "--graph", p4_file, "--n", "12"], capsys)
    assert code == 0
    assert out.encode().startswith(whole)


def test_phase_grid_blocks_are_the_layer_bars():
    # m is the first bar p_1 and l is n + 1 - p_2, for any block of ranks:
    # one that starts or ends mid-row, one row, the layer's last rank, the
    # whole layer, and the one-config layer 0
    for n in (0, 1, 2, 12, 45):
        size = layer_size(n, 3)
        bars = _layer_bars(n, 3)
        grid = PhaseGrid(n, np.arange(size) / 7.0)
        assert len(grid) == size
        for lo, hi in {(0, size), (0, 1), (size - 1, size), (size // 3, size // 2), (1, size)}:
            m, l, p = grid.block(lo, hi)
            assert m.dtype == l.dtype == np.int64
            assert m.tolist() == bars[0, lo:hi].tolist()
            assert l.tolist() == (n + 1 - bars[1, lo:hi]).tolist()
            assert p.tolist() == grid.p[lo:hi].tolist()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_phase_peak_within_its_guard(fmt, p4_file, tmp_path, capsys):
    # tracemalloc sees every numpy buffer and Python object: the command's
    # peak, its stream, output blocks and --verify re-read included, stays
    # under phase_bytes.  Layer 800's 321,201 rows would take 5.1 MB as two
    # int64 bar columns, more than the guard allows one output block
    n = 800
    assert 16 * layer_size(n, 3) > cli_module._ROW_BYTES * cli_module._CSV_BLOCK
    argv = ["phase", "--graph", p4_file, "--format", fmt, "--verify", "--out"]
    # the first large block loads seqassign._fmt and its tables
    assert run(argv + [str(tmp_path / "warm"), "--n", "60"], capsys)[0] == 0
    tracemalloc.start()
    try:
        code = main(argv + [str(tmp_path / f"grid.{fmt}"), "--n", str(n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= phase_bytes(n)


def test_scan_golden_header_and_summary(p4_file, tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, out, _ = run(
        [
            "scan", "--graph", p4_file, "--point", "0.15,0.35,0.5",
            "--n-list", "20:60:20", "--out", str(out_path), "--verify",
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(SCAN_COLUMNS)
    summary = json.loads(out)
    assert summary["class"] == "Inaccessible"
    assert summary["slope"] < 0


def test_scan_at_a_boundary_point(p4_file, tmp_path, capsys):
    # (1/4, 1/4, 1/2) lies on P4's region boundary, on edge 0's face: the
    # rows carry no decay bound, and the summary neither fits nor limits
    out_path = tmp_path / "scan.csv"
    code, out, _ = run(
        [
            "scan", "--graph", p4_file, "--point", "0.25,0.25,0.5",
            "--n-list", "40,80", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    assert out_path.read_text() == (
        "n,p,log_p,decay_bound\n"
        "40,0.16914374553749828,-1.7770063602741104,nan\n"
        "80,0.1442503554994813,-1.936204909129157,nan\n"
    )
    assert json.loads(out) == {"class": "BoundaryK", "n_list": [40, 80]}
    code, out, _ = run(["region", "classify", "--graph", p4_file, "--point", "0.25,0.25,0.5"], capsys)
    assert json.loads(out)["subset"] == [0]


def test_scan_fits_only_the_rows_it_can_log(p4_file, tmp_path, capsys):
    # p = 2^-n underflows to 0.0 past n = 1074: one row has a log, too few to fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            [
                "scan", "--graph", p4_file, "--point", "1,0,0",
                "--n-list", "1000,1100,1200", "--out", str(tmp_path / "s.csv"),
            ],
            capsys,
        )
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in (tmp_path / "s.csv").read_text().splitlines()[1:]]
    assert [float(r[1]) for r in rows] == [2.0**-1000, 0.0, 0.0]
    assert out.endswith('"r_squared": null, "slope": null}\n')
    summary = json.loads(out)
    assert summary["intercept"] is None and summary["deficit"] == 0.5


def test_scan_fits_only_the_rows_with_a_normal_p(tmp_path, capsys):
    # on the two-edge path p = (2/3)^n; it is subnormal from n = 1800 on and
    # stays at 1e-323 past n = 1900, below (2/3)^n
    graph = tmp_path / "p3.txt"
    graph.write_text(format_graph_text(path_graph(3)))
    code, out, err = run(
        [
            "scan", "--graph", str(graph), "--point", "1,0",
            "--n-list", "1000,1500,1700,1800,1900,2000", "--format", "json",
        ],
        capsys,
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    ps = [row[1] for row in report["rows"]]
    assert ps[3] < 2.0**-1022 and ps[4:] == [1e-323, 1e-323]
    logs = [row[2] for row in report["rows"][:3]]
    slope, intercept = np.polyfit([1000.0, 1500.0, 1700.0], logs, 1)
    summary = report["summary"]
    assert (summary["slope"], summary["intercept"]) == (float(slope), float(intercept))
    assert abs(summary["slope"] - np.log(2 / 3)) < 1e-9


def test_scan_fits_the_rows_with_p_above_zero(p4_file, tmp_path, capsys):
    # under this law p = 0.1^n (up to rounding), 0.0 at n = 400
    wfile = tmp_path / "w.txt"
    wfile.write_text("0.05 0.05 0.45 0.45\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            [
                "scan", "--graph", p4_file, "--point", "1,0,0", "--n-list", "100,200,400",
                "--weights", str(wfile), "--out", str(tmp_path / "s.csv"),
            ],
            capsys,
        )
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in (tmp_path / "s.csv").read_text().splitlines()[1:]]
    assert [float(r[1]) > 0 for r in rows] == [True, True, False]
    slope, intercept = np.polyfit([100.0, 200.0], [float(r[2]) for r in rows[:2]], 1)
    summary = json.loads(out)
    assert (summary["slope"], summary["intercept"]) == (float(slope), float(intercept))
    assert summary["slope"] == pytest.approx(np.log(0.1))
    assert summary["r_squared"] == pytest.approx(1.0)


def test_conjecture_golden_header(tmp_path, capsys):
    out_path = tmp_path / "conj.csv"
    code, out, _ = run(
        ["conjecture", "--k", "3", "--n-list", "12,24", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(CONJECTURE_COLUMNS)
    # k=3: symmetric argmax pair keeps the symmetric gap within O(1/sqrt(n))
    for line in lines[1:]:
        n, j, s, target, gap, gap_sym = line.split(",")
        assert float(gap_sym) <= 1.0 / (2 * float(n) ** 0.5) + 0.1


def test_window_golden_header(p4_file, tmp_path, capsys):
    out_path = tmp_path / "win.csv"
    code, out, _ = run(
        [
            "window", "--graph", p4_file, "--n-list", "16,32",
            "--a-grid", "1,2", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(WINDOW_COLUMNS)
    assert len(lines) == 1 + 2 * 2 * 3


def test_window_bI_nonincreasing_in_A(p4_file, tmp_path, capsys):
    out_path = tmp_path / "win.csv"
    run(
        [
            "window", "--graph", p4_file, "--n-list", "64",
            "--a-grid", "0.5,1,1.5,2", "--out", str(out_path),
        ],
        capsys,
    )
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    b1 = [float(r[3]) for r in rows if r[2] == "I" and r[4] == "0"]
    assert all(a >= b for a, b in zip(b1, b1[1:]))


def test_steer_report_byte_identical(p4_file, tmp_path, capsys):
    args = [
        "steer", "--graph", p4_file, "--n", "120", "--n1", "24",
        "--runs", "30", "--seed", "5",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["tail_p"][-1] <= report["tail_p"][0]


def test_simulate_json_record(p4_file, capsys):
    code, out, _ = run(
        [
            "simulate", "--graph", p4_file, "--config", "8,5,8",
            "--strategy", "greedy", "--runs", "200", "--seed", "3",
        ],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["runs"] == 200
    assert 0 <= record["successes"] <= 200
    assert record["strategy"] == "greedy"


def test_simulate_cache_exits_3_when_only_the_box_is_over_budget(tmp_path, capsys, monkeypatch):
    # on the two-edge path, the smallest balanced box whose values and
    # policy, 8 + 4k bytes a state, exceed the budget: the full table to its
    # total fits, and so do the box's values alone.  Optimal play walks the
    # box by its policy, so simulate is refused, before the box is built;
    # value at reads the values
    def top(n):
        return [n - n // 2, n // 2]

    def charge(cfg):
        states = (cfg[0] + 1) * (cfg[1] + 1)
        return 8 * states + policy_bytes(3, 2, states)

    n = next(n for n in itertools.count(1) if charge(top(n)) > DEFAULT_BUDGET)
    assert stream_bytes(2, n, range(n + 1)) <= DEFAULT_BUDGET
    assert downset_bytes(2, top(n)) <= DEFAULT_BUDGET
    path = tmp_path / "p3.txt"
    path.write_text(format_graph_text(path_graph(3)))
    built = []
    for module in (cli_module, simulate_module, values_module):
        monkeypatch.setattr(module, "downset_table", lambda *args, **kw: built.append(args))
    code, out, err = run(
        [
            "simulate", "--graph", str(path), "--config", ",".join(map(str, top(n))),
            "--strategy", "optimal", "--runs", "10",
        ],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert top(n) == [7298, 7297]
    assert err == "error: table needs 1073750660 bytes, budget is 1073741824\n"
    # a box over the budget on its own is named by the walk too; a bad
    # --runs is an input error first
    argv = ["simulate", "--graph", str(path), "--config", "100000,100000", "--strategy", "optimal"]
    code, out, err = run(argv + ["--runs", "1"], capsys)
    assert (code, out, err) == (3, "", "error: table needs 200012388640 bytes, budget is 1073741824\n")
    code, out, err = run(argv + ["--runs", "0"], capsys)
    assert (code, out, err) == (2, "", "error: need at least one run\n")
    assert built == []
    monkeypatch.undo()
    # over the budget while a box held its policy too, now 0.43 GB of values
    code, out, _ = run(["value", "at", "--graph", str(path), "--config", "7297,7296"], capsys)
    assert code == 0
    assert 0.0 < json.loads(out)["p"] < 1.0


def test_simulate_steer_strategy_spec(p4_file, capsys):
    code, out, _ = run(
        [
            "simulate", "--graph", p4_file, "--config", "45,30,45",
            "--strategy", "steer:xstar:24", "--runs", "20", "--seed", "2",
        ],
        capsys,
    )
    assert code == 0


def test_simulate_outward_strategy_spec(p4_file, capsys):
    # round(120 * xstar) = (45,30,45) has slack 1/8 >= 1/sqrt(120)
    code, out, _ = run(
        [
            "simulate", "--graph", p4_file, "--config", "45,30,45",
            "--strategy", "outward:1.0", "--runs", "15", "--seed", "2",
        ],
        capsys,
    )
    assert code == 0
    # a start too close to the boundary violates the declared amplitude
    code, _, err = run(
        [
            "simulate", "--graph", p4_file, "--config", "31,29,60",
            "--strategy", "outward:4.0", "--runs", "5", "--seed", "2",
        ],
        capsys,
    )
    assert code == 2
    assert "slack" in err


def test_phase_rejects_wrong_edge_count(tmp_path, capsys):
    path = tmp_path / "c4.txt"
    path.write_text(format_graph_text(cycle_graph(4)))
    code, _, err = run(["phase", "--graph", str(path), "--n", "8"], capsys)
    assert code == 2
    assert "3-edge" in err


def test_phase_rejects_edge_count_before_building_a_table(tmp_path, capsys, monkeypatch):
    import seqassign.cli as cli
    from seqassign.graph import complete_graph

    built = []
    monkeypatch.setattr(cli, "stream_table", lambda *a, **kw: built.append(a))
    path = tmp_path / "k4.txt"
    path.write_text(format_graph_text(complete_graph(4)))
    cache = tmp_path / "k4.cache"
    code, out, err = run(
        ["phase", "--graph", str(path), "--n", "60", "--cache", str(cache)], capsys
    )
    assert code == 2
    assert "3-edge" in err
    assert out == ""
    assert built == [] and not cache.exists()


@pytest.mark.parametrize(
    "command, bad",
    [
        (["scan"], ["--point", "0.5,0.5,0.5", "--n-list", "1500"]),
        (["value", "at"], ["--config", "500,500"]),
    ],
)
def test_bad_input_is_refused_before_building_a_table(
    p4_file, tmp_path, capsys, monkeypatch, command, bad
):
    import seqassign.cli as cli

    built = []
    monkeypatch.setattr(cli, "stream_table", lambda *a, **kw: built.append(a))
    cache = tmp_path / "t.tbl"
    code, out, _ = run(command + ["--graph", p4_file, "--cache", str(cache)] + bad, capsys)
    assert code == 2
    assert out == ""
    assert built == [] and not cache.exists()


def test_window_json_format(p4_file, tmp_path, capsys):
    out_path = tmp_path / "win.json"
    code, _, _ = run(
        [
            "window", "--graph", p4_file, "--n-list", "16",
            "--a-grid", "1", "--format", "json", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["columns"] == WINDOW_COLUMNS
    assert len(payload["rows"]) == 3


def test_value_cache_wrong_graph_errors(p4_file, tmp_path, capsys):
    cache = str(tmp_path / "t.tbl")
    code, _, _ = run(
        ["value", "table", "--graph", p4_file, "--n", "10", "--cache", cache], capsys
    )
    assert code == 0
    other = tmp_path / "c4.txt"
    other.write_text(format_graph_text(cycle_graph(4)))
    code, _, err = run(
        ["value", "argmax", "--graph", str(other), "--n", "5", "--cache", cache],
        capsys,
    )
    assert code == 2
    assert "different graph" in err


def test_cache_rebuilt_on_weight_change(p4_file, tmp_path, capsys):
    cache = str(tmp_path / "t.tbl")
    wfile = tmp_path / "w.txt"
    wfile.write_text("0.4 0.3 0.2 0.1\n")
    code, out, _ = run(
        ["value", "at", "--graph", p4_file, "--config", "1,0,0", "--cache", cache],
        capsys,
    )
    assert json.loads(out)["p"] == 0.5
    code, out, _ = run(
        [
            "value", "at", "--graph", p4_file, "--config", "1,0,0",
            "--cache", cache, "--weights", str(wfile),
        ],
        capsys,
    )
    assert json.loads(out)["p"] == pytest.approx(0.7)


def test_experiment_config_validation(p4_file, capsys):
    code, _, err = run(
        [
            "steer", "--graph", p4_file, "--n", "120", "--n1", "24",
            "--runs", "0", "--seed", "1",
        ],
        capsys,
    )
    assert code == 2
    assert "runs" in err


def test_phase_verify_against_cache(p4_file, tmp_path, capsys):
    cache = str(tmp_path / "t.tbl")
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(
        [
            "phase", "--graph", p4_file, "--n", "30", "--cache", cache,
            "--out", str(out_path), "--verify",
        ],
        capsys,
    )
    assert code == 0
    # second run reloads the cache and re-verifies emitted rows against it
    code, _, _ = run(
        [
            "phase", "--graph", p4_file, "--n", "30", "--cache", cache,
            "--out", str(out_path), "--verify",
        ],
        capsys,
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["phase", "--n", "30", "--verify"],
        ["scan", "--point", "xstar", "--n-list", "10:40:10", "--verify"],
    ],
    ids=["phase", "scan"],
)
def test_verify_without_out_is_rejected_before_building_a_table(
    argv, p4_file, capsys, monkeypatch
):
    import seqassign.cli as cli

    built = []
    monkeypatch.setattr(cli, "stream_table", lambda *a, **kw: built.append(a))
    code, out, err = run([argv[0], "--graph", p4_file, *argv[1:]], capsys)
    assert code == 2
    assert "--verify needs --out" in err
    assert out == ""
    assert built == []


def _bump_last_digit(text: str) -> str:
    """The float text with the last digit of its mantissa changed, to the
    first digit that gives another double (2**-30 is 9.313225746154785e-10,
    and so is ...786e-10)."""
    mantissa, e, exponent = text.partition("e")
    for step in range(1, 10):
        digit = str((int(mantissa[-1]) + step) % 10)
        bumped = mantissa[:-1] + digit + e + exponent
        if float(bumped) != float(text):
            return bumped
    raise AssertionError(f"no one-digit change moves {text}")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("row, caught", [(0, True), (100, True), (1, False)])
def test_verify_checks_every_100th_row(fmt, row, caught, p4_file, tmp_path, capsys):
    n = 30
    out_path = tmp_path / f"grid.{fmt}"
    code, _, _ = run(
        ["phase", "--graph", p4_file, "--n", str(n), "--format", fmt, "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    if fmt == "csv":
        lines = out_path.read_text().splitlines()
        m, l, p = lines[1 + row].split(",")
        lines[1 + row] = ",".join([m, l, _bump_last_digit(p)])
        out_path.write_text("\n".join(lines) + "\n")
    else:
        payload = json.loads(out_path.read_text())
        payload["rows"][row][2] = float(_bump_last_digit(repr(payload["rows"][row][2])))
        out_path.write_text(json.dumps(payload))
    table = compute_table(path_graph(4), n)

    def verify():
        _verify_rows(
            str(out_path), fmt, table, 2,
            lambda r: (int(r[0]), n - int(r[0]) - int(r[1]), int(r[1])),
        )

    if caught:
        with pytest.raises(SeqAssignError, match="verification mismatch"):
            verify()
    else:
        verify()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_compares_its_rows_in_batches(fmt, p4_file, tmp_path, capsys, monkeypatch):
    # sampled rows are compared a batch at a time: a bad row in a later
    # batch than the first is caught, and names its own row
    monkeypatch.setattr(cli_module, "_VERIFY_BATCH", 2)
    n = 30
    out_path = tmp_path / f"grid.{fmt}"
    argv = ["phase", "--graph", p4_file, "--n", str(n), "--format", fmt, "--out", str(out_path)]
    assert run(argv, capsys)[0] == 0
    text = out_path.read_text()
    sep = "\n" if fmt == "csv" else "], ["
    rows = text.split(sep)
    row = 400 + (fmt == "csv")  # the fifth sampled row, in the third batch
    cells = rows[row].split("," if fmt == "csv" else ", ")
    cells[2] = _bump_last_digit(cells[2])
    rows[row] = ("," if fmt == "csv" else ", ").join(cells)
    out_path.write_text(sep.join(rows))
    table = compute_table(path_graph(4), n)
    with pytest.raises(SeqAssignError, match="verification mismatch") as exc:
        _verify_rows(
            str(out_path), fmt, table, 2,
            lambda r: (int(r[0]), n - int(r[0]) - int(r[1]), int(r[1])),
        )
    assert cells[0] in str(exc.value)


def test_verify_fails_on_a_corrupted_sampled_json_row(p4_file, tmp_path, capsys, monkeypatch):
    # the file is corrupted between the write and the re-read of --verify
    import seqassign.cli as cli

    emit = cli._emit

    def emit_then_corrupt(out, fmt, names, columns, summary=None):
        emit(out, fmt, names, columns, summary)
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        rows = text.split("], [")
        cells = rows[100].split(", ")
        cells[2] = _bump_last_digit(cells[2])
        rows[100] = ", ".join(cells)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("], [".join(rows))

    monkeypatch.setattr(cli, "_emit", emit_then_corrupt)
    out_path = tmp_path / "grid.json"
    code, _, err = run(
        ["phase", "--graph", p4_file, "--n", "30", "--format", "json", "--verify",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 2
    assert "verification mismatch" in err


def test_emit_writes_numpy_scalars_as_python_scalars(tmp_path):
    columns = [[np.float64(0.5)], [np.int64(3)], [np.bool_(True)]]
    _emit(str(tmp_path / "t.csv"), "csv", ["a", "b", "c"], columns)
    assert (tmp_path / "t.csv").read_text() == "a,b,c\n0.5,3,1\n"
    _emit(str(tmp_path / "t.json"), "json", ["a", "b", "c"], columns)
    assert (tmp_path / "t.json").read_text() == (
        '{"columns": ["a", "b", "c"], "rows": [[0.5, 3, true]]}\n'
    )


def test_scan_weighted_law(p4_file, tmp_path, capsys):
    # under a skewed law the canonical uniform interior point turns inaccessible
    wfile = tmp_path / "w.txt"
    wfile.write_text("0.7 0.1 0.1 0.1\n")
    code, out, _ = run(
        [
            "scan", "--graph", p4_file, "--point", "0.375,0.25,0.375",
            "--n-list", "20,40,60", "--weights", str(wfile),
            "--out", str(tmp_path / "s.csv"),
        ],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["class"] == "Inaccessible"
    assert summary["deficit"] == pytest.approx(0.7 - 0.375)


def test_steer_calibrate_flag(p4_file, tmp_path, capsys):
    code, _, _ = run(
        [
            "steer", "--graph", p4_file, "--n", "120", "--n1", "24",
            "--runs", "20", "--seed", "5", "--calibrate",
            "--out", str(tmp_path / "c.json"),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads((tmp_path / "c.json").read_text())
    assert report["q0"] >= 2


def _steer_report(p4_file, capsys, *extra) -> str:
    code, out, err = run(
        ["steer", "--graph", p4_file, "--n", "120", "--n1", "24", "--runs", "2", *extra], capsys
    )
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize("kind, make, q0", [("exact", SteerExact, 16), ("k", SteerKTarget, 8)])
def test_steer_calibrate_calibrates_its_kind(p4_file, capsys, kind, make, q0):
    # the report is the plain one at the q0 of the kind's own strategy: the
    # first doubling from 2 whose 200-run tail at q0/4 is at most 1/2
    out = _steer_report(p4_file, capsys, "--kind", kind, "--calibrate")
    assert json.loads(out)["q0"] == q0
    assert out == _steer_report(p4_file, capsys, "--kind", kind, "--q0", str(q0))
    p4, start = path_graph(4), [45, 30, 45]
    z = x_star(p4)
    for q in (q0 // 2, q0):
        strategy = make(p4, SteerPlan(z=z, n1=24, q0=q))
        curve = deviation_tail(p4, start, strategy, z, 24, [q / 4], 200, 0)
        assert (curve.tail[0] <= 0.5) == (q == q0)


def test_steer_k_calibrates_a_boundary_target(p4_file, capsys):
    # SteerExact refuses a target off the interior; SteerKTarget takes it
    out = _steer_report(p4_file, capsys, "--target", "0.25,0.25,0.5", "--kind", "k", "--calibrate")
    report = json.loads(out)
    assert (report["kind"], report["target_config"], report["q0"]) == ("k", [6, 6, 12], 8)


@pytest.mark.parametrize("kind", ["exact", "k"])
def test_steer_checks_the_start_config(p4_file, capsys, kind):
    code, out, err = run(
        [
            "steer", "--graph", p4_file, "--n", "100", "--n1", "20", "--config", "50,50",
            "--runs", "2", "--kind", kind,
        ],
        capsys,
    )
    assert (code, out, err) == (2, "", "error: expected 3 entries, got shape (2,)\n")
    with pytest.raises(DomainError, match="expected 3 entries"):
        steering_report(path_graph(4), SteerPlan(z=[0.3, 0.3, 0.4], n1=20), [50, 50], 2, 0, kind)


def test_calibrate_that_never_converges_is_an_input_error(p4_file, capsys):
    # vertex 1's one edge is empty, so every run is lost within a few draws:
    # no q0 up to 4096 brings the tail down, and none past it is measured
    code, out, err = run(
        [
            "steer", "--graph", p4_file, "--n", "6000", "--n1", "40",
            "--config", "0,3000,3000", "--runs", "5", "--calibrate",
        ],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "error: calibration did not converge: the tail at q0 = 4096 is 1.0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["value", "table", "--n", "5"], "value table needs --n and --cache"),
        (["value", "at"], "value at needs --config"),
        (["value", "argmax"], "value argmax needs --n"),
        (
            ["simulate", "--config", "3,3,3", "--strategy", "best", "--runs", "2"],
            "unknown strategy 'best'",
        ),
        (["steer", "--n", "40", "--n1", "0", "--runs", "2"], "target total must be positive"),
        (
            [
                "steer", "--n", "40", "--n1", "10", "--target", "0.25,0.25,0.5",
                "--kind", "exact", "--runs", "2",
            ],
            "steering target must be interior",
        ),
        (["value", "at", "--config", "1,1"], "expected 3 entries, got shape (2,)"),
        # a flag the mode does not read is refused, not ignored
        (
            ["value", "argmax", "--n", "10", "--config", "1,2,3"],
            "value argmax does not use --config",
        ),
        (["value", "at", "--config", "1,2,3", "--n", "99"], "value at does not use --n"),
        (
            ["value", "table", "--n", "10", "--cache", "t.tbl", "--config", "1,1,1"],
            "value table does not use --config",
        ),
        # the target's own sum, not that of its midpoint with the start
        (
            [
                "steer", "--n", "120", "--n1", "24", "--target", "0.5,0.5,0.5",
                "--kind", "k", "--runs", "2",
            ],
            "entries sum to 1.5, not 1",
        ),
        (
            ["simulate", "--config", "40,40,40", "--strategy", "steer-k:0.5,0.5,0.5:24"],
            "entries sum to 1.5, not 1",
        ),
        (
            ["simulate", "--config", "40,40,40", "--strategy", "steer:xstar"],
            "strategy 'steer:xstar' is not of the form steer:<z>:<n1>",
        ),
        (
            ["simulate", "--config", "40,40,40", "--strategy", "steer-k:xstar:24:8"],
            "strategy 'steer-k:xstar:24:8' is not of the form steer-k:<z>:<n1>",
        ),
        (
            ["simulate", "--config", "40,40,40", "--strategy", "outward:0.5:9"],
            "strategy 'outward:0.5:9' is not of the form outward:<A>",
        ),
    ],
    ids=[
        "table-cache", "at-config", "argmax-n", "strategy", "n1-zero", "target-boundary",
        "width", "argmax-config", "at-n", "table-config", "steer-k-target",
        "simulate-steer-k-target", "steer-spec", "steer-k-spec", "outward-spec",
    ],
)
def test_input_errors_exit_2(p4_file, capsys, argv, message):
    code, out, err = run([*argv, "--graph", p4_file], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_graph_file_with_a_non_integer_vertex(tmp_path, capsys):
    graph = tmp_path / "bad.txt"
    graph.write_text("vertices 4\n1 2\n2 x\n3 4\n")
    code, out, err = run(["value", "at", "--graph", str(graph), "--config", "1,1,1"], capsys)
    assert (code, out, err) == (2, "", "error: non-integer vertex in '2 x'\n")


def test_steer_rejects_q0_with_calibrate(p4_file, tmp_path, capsys):
    out_path = tmp_path / "c.json"
    code, out, err = run(
        [
            "steer", "--graph", p4_file, "--n", "120", "--n1", "24",
            "--runs", "20", "--seed", "5", "--calibrate", "--q0", "16",
            "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "--q0" in err
    assert not out_path.exists()


def test_simulate_rejects_q0_without_steering(p4_file, capsys):
    code, out, err = run(
        [
            "simulate", "--graph", p4_file, "--config", "23,15,22",
            "--strategy", "greedy", "--runs", "200", "--seed", "3", "--q0", "1",
        ],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "--q0" in err


def test_steer_k_kind_cli(p4_file, tmp_path, capsys):
    code, out, _ = run(
        [
            "steer", "--graph", p4_file, "--n", "120", "--n1", "24",
            "--kind", "k", "--target", "0.25,0.375,0.375",
            "--runs", "20", "--seed", "6", "--out", str(tmp_path / "k.json"),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads((tmp_path / "k.json").read_text())
    assert report["kind"] == "k"
    assert report["target_config"] == [6, 9, 9]


def test_steer_k_with_a_midpoint_on_the_boundary(tmp_path, capsys):
    # the start gives two leaf edges the share 0.15, so its midpoint with x*
    # gives them 1/5, on the region boundary; the approach steers toward the
    # point halfway between that midpoint's clip and x* instead
    path = tmp_path / "s4.txt"
    path.write_text(format_graph_text(star_graph(4)))
    code, out, err = run(
        [
            "steer", "--graph", str(path), "--n", "120", "--n1", "20", "--runs", "3",
            "--seed", "139", "--config", "27,18,57,18", "--kind", "k",
        ],
        capsys,
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["target_config"] == [5, 5, 5, 5]


def test_simulate_weighted_vertex_law(p4_file, tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    wfile.write_text("0.4 0.3 0.2 0.1\n")
    code, out, _ = run(
        [
            "simulate", "--graph", p4_file, "--config", "1,0,0",
            "--strategy", "greedy", "--runs", "20000", "--seed", "8",
            "--weights", str(wfile),
        ],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    # (1,0,0) is won exactly when the single draw hits vertex 1 or 2
    assert abs(record["p_hat"] - 0.7) < 4 * (0.7 * 0.3 / 20000) ** 0.5


def test_a_star_values():
    assert a_star(0, 5) == 0.0
    assert a_star(4, 5) == 1.0
    assert a_star(1, 3) == pytest.approx(0.5)
    assert a_star(1, 4) == pytest.approx(0.3690702464285426)
    for k in range(3, 41):
        for j in range(1, k - 1):
            v = a_star(j, k)
            assert j / k < v < (j + 1) / k
            assert v == pytest.approx(1.0 - a_star(k - 1 - j, k))
    with pytest.raises(DomainError):
        a_star(5, 4)
    with pytest.raises(DomainError):
        a_star(0, 2)


@pytest.mark.parametrize("strategy", ["optimal", "greedy", "uniform", "steer:xstar:5"])
def test_simulate_rejects_negative_seed(p4_file, capsys, strategy):
    code, out, err = run(
        [
            "simulate", "--graph", p4_file, "--config", "5,5,5",
            "--strategy", strategy, "--runs", "10", "--seed", "-1",
        ],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "error: expected non-negative integer\n"


@pytest.mark.parametrize(
    "config, strategy",
    [("10,-1,3", "optimal"), ("5,-1,5", "greedy"), ("5,-1,5", "uniform")],
)
def test_simulate_rejects_negative_entry(p4_file, capsys, config, strategy):
    code, out, err = run(
        [
            "simulate", "--graph", p4_file, "--config", config,
            "--strategy", strategy, "--runs", "1000", "--seed", "1",
        ],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "negative entry" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["steer", "--graph", "G", "--n", "120", "--n1", "24", "--weights", "W"],
        ["conjecture", "--k", "3", "--n-list", "12", "--weights", "W"],
        ["window", "--graph", "G", "--n-list", "16", "--a-grid", "1", "--weights", "W"],
        ["region", "classify", "--graph", "G", "--point", "xstar", "--cache", "C"],
        ["steer", "--graph", "G", "--n", "120", "--n1", "24", "--cache", "C"],
        ["conjecture", "--k", "3", "--n-list", "12", "--cache", "C"],
        # optimal play reads only the box under the config, never a full table
        [
            "simulate", "--graph", "G", "--config", "5,3,4", "--strategy", "optimal",
            "--runs", "5", "--cache", "C",
        ],
    ],
)
def test_unused_flags_are_rejected(p4_file, tmp_path, capsys, argv):
    wfile = tmp_path / "w.txt"
    wfile.write_text("0.25 0.25 0.25 0.25\n")
    subst = {"G": p4_file, "W": str(wfile), "C": str(tmp_path / "t.tbl")}
    with pytest.raises(SystemExit) as info:
        main([subst.get(a, a) for a in argv])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "t.tbl").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["region", "classify", "--graph", "G", "--point", "xstar"],
        ["value", "argmax", "--graph", "G", "--n", "10"],
        ["steer", "--graph", "G", "--n", "40", "--n1", "10", "--runs", "2"],
        ["simulate", "--graph", "G", "--config", "5,3,4", "--strategy", "greedy", "--runs", "5"],
    ],
)
def test_report_commands_write_json_only(p4_file, capsys, argv):
    argv = [p4_file if a == "G" else a for a in argv]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--format", "csv"])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    json.loads(out)


@pytest.mark.parametrize(
    "argv, message",
    [
        # --config must start from --n
        (["steer", "--n", "5", "--n1", "2", "--config", "120,136,144"], "--config"),
        # the target total must lie below the start total
        (["steer", "--n", "40", "--n1", "50"], "--n1"),
        (["steer", "--n", "40", "--n1", "40"], "--n1"),
        (["conjecture", "--k", "4", "--n-list", "0,10"], "n-list"),
        (["conjecture", "--k", "4", "--n-list", "0:8:4"], "n-list"),
    ],
)
def test_impossible_totals_are_rejected(p4_file, capsys, argv, message):
    if argv[0] == "steer":
        argv = argv + ["--graph", p4_file, "--runs", "2"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "flag, grid",
    [
        ("--a-grid", "0.5:2:0"),
        ("--a-grid", "0.5:2:-1"),
        ("--n-list", "40:10:-5"),
        ("--n-list", "10:40:-5"),
        ("--n-list", "10:40:0"),
    ],
)
def test_range_step_must_be_positive(p4_file, capsys, flag, grid):
    argv = ["window", "--graph", p4_file, "--n-list", "16", "--a-grid", "1"]
    argv[argv.index(flag) + 1] = grid
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "range step" in err


def test_parse_ints_ranges():
    assert _parse_ints("3:6") == [3, 4, 5, 6]  # a two-part range steps by 1
    with pytest.raises(DomainError, match="bad range '1:2:3:4'"):
        _parse_ints("1:2:3:4")


@pytest.mark.parametrize(
    "argv, grid",
    [
        (["window", "--graph", "G", "--n-list", "16", "--a-grid", "R"], "2:1:0.5"),
        (["window", "--graph", "G", "--n-list", "R", "--a-grid", "1"], "40:10:5"),
        (["scan", "--graph", "G", "--point", "xstar", "--n-list", "R"], "40:10:5"),
        (["conjecture", "--k", "4", "--n-list", "R"], "40:10:5"),
    ],
    ids=["window-a-grid", "window-n-list", "scan", "conjecture"],
)
def test_empty_range_is_rejected(p4_file, capsys, argv, grid):
    subst = {"G": p4_file, "R": grid}
    code, out, err = run([subst.get(a, a) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: range {grid!r} has no values\n"


def test_steer_k_with_a_zero_share_in_the_shifted_target(tmp_path, capsys):
    # the shifted target is clipped onto the face x_e = 0 of one edge
    path = tmp_path / "c4.txt"
    path.write_text(format_graph_text(cycle_graph(4)))
    code, out, err = run(
        [
            "simulate", "--graph", str(path), "--config", "12,10,8,2",
            "--strategy", "steer-k:0.25,0.1,0.15,0.5:8", "--runs", "20", "--seed", "0",
        ],
        capsys,
    )
    assert code == 0
    assert err == ""
    assert json.loads(out)["runs"] == 20


@pytest.mark.parametrize(
    "strategy", ["steer:xstar:24", "steer-k:0.25,0.375,0.375:24", "outward:1.0"]
)
def test_simulate_steering_rejects_weights(p4_file, tmp_path, capsys, strategy):
    wfile = tmp_path / "w.txt"
    wfile.write_text("0.4 0.3 0.2 0.1\n")
    code, out, err = run(
        [
            "simulate", "--graph", p4_file, "--config", "45,30,45",
            "--strategy", strategy, "--runs", "5", "--weights", str(wfile),
        ],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "--weights" in err


def test_phase_streams_past_the_full_table_budget(p4_file, tmp_path, capsys):
    # all layers to 930 on P4 would exceed the budget; the layers phase holds do not
    n = 930
    assert stream_bytes(3, n, [n]) <= DEFAULT_BUDGET < stream_bytes(3, n, range(n + 1))
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(
        ["phase", "--graph", p4_file, "--n", str(n), "--out", str(out_path)], capsys
    )
    assert code == 0
    assert json.loads(out)["n"] == n
    with open(out_path) as fh:
        assert sum(1 for _ in fh) == 1 + layer_size(n, 3)


@pytest.mark.parametrize(
    "argv, need",
    [
        (["value", "table", "--graph", "K4", "--n", "86"], stream_bytes(6, 86, ())),
        (["phase", "--graph", "P4", "--n", "11212"], stream_bytes(3, 11212, [11212])),
    ],
    ids=["value-table-k4", "phase-p4"],
)
def test_stream_over_budget_exits_3(argv, need, tmp_path, capsys):
    for name, g in (("K4", complete_graph(4)), ("P4", path_graph(4))):
        (tmp_path / name).write_text(format_graph_text(g))
    argv = [str(tmp_path / a) if a in ("K4", "P4") else a for a in argv]
    cache = tmp_path / "t.tbl"
    code, out, err = run(argv + ["--cache", str(cache)], capsys)
    assert code == 3
    assert out == ""
    assert f"table needs {need} bytes" in err
    assert not cache.exists()


def test_phase_charges_the_load_when_the_cache_serves_it(p4_file, tmp_path, capsys, monkeypatch):
    # under a budget below phase_bytes, a stream is refused, but a cache that
    # reaches layer n is read instead, and a load is charged its layer only
    n = 60
    cache = str(tmp_path / "p4.tbl")
    assert run(["value", "table", "--graph", p4_file, "--n", "80", "--cache", cache], capsys)[0] == 0
    block = cli_module._ROW_BYTES * cli_module._CSV_BLOCK
    budget = phase_bytes(n) - 1
    assert load_bytes(3, 80, [n]) + block <= budget
    monkeypatch.setattr(cli_module, "DEFAULT_BUDGET", budget)
    argv = ["phase", "--graph", p4_file, "--n", str(n), "--out"]
    code, _, err = run(argv + [str(tmp_path / "a.csv"), "--cache", str(tmp_path / "new.tbl")], capsys)
    assert code == 3
    assert f"table needs {stream_bytes(3, n, [n])} bytes, budget is {budget - block}" in err
    assert not (tmp_path / "new.tbl").exists()
    code, out, _ = run(argv + [str(tmp_path / "b.csv"), "--cache", cache, "--verify"], capsys)
    assert code == 0
    assert json.loads(out)["n"] == n
    monkeypatch.setattr(cli_module, "DEFAULT_BUDGET", load_bytes(3, 80, [n]) + block - 1)
    assert run(argv + [str(tmp_path / "c.csv"), "--cache", cache], capsys)[0] == 3


@pytest.mark.parametrize("short", [1, 0], ids=["one-byte-short", "exact"])
def test_cache_stream_checks_free_disk_first(short, p4_file, tmp_path, capsys, monkeypatch):
    # the whole file is charged against the free space before a byte is
    # written, and a cache too small for n, which the stream replaces,
    # counts as free.  disk_usage is faked, so no disk is filled
    n = 40
    need = values_module._HEAD + 8 * 4 + values_module.required_bytes(3, n)
    cache = tmp_path / "t.tbl"
    assert run(["value", "table", "--graph", p4_file, "--n", "10", "--cache", str(cache)], capsys)[0] == 0
    old = cache.read_bytes()
    usage = shutil.disk_usage(tmp_path)
    free = need - len(old) - short
    monkeypatch.setattr(
        values_module.shutil, "disk_usage", lambda path: usage._replace(free=free)
    )
    argv = ["phase", "--graph", p4_file, "--n", str(n), "--out", str(tmp_path / "g.csv")]
    code, out, err = run(argv + ["--cache", str(cache)], capsys)
    if not short:
        assert code == 0
        assert cache.stat().st_size == need
        return
    assert code == 3
    assert out == ""
    assert f"cache file needs {need} bytes, disk has {need - 1} free" in err
    assert cache.read_bytes() == old
    cache.unlink()
    code, _, err = run(argv + ["--cache", str(cache)], capsys)
    assert code == 3
    assert f"cache file needs {need} bytes, disk has {free} free" in err
    assert not cache.exists()


def test_cache_reads_only_the_layers_a_command_holds(p4_file, tmp_path, capsys, monkeypatch):
    import seqassign.cli as cli

    cache = str(tmp_path / "p4.tbl")
    assert run(["value", "table", "--graph", p4_file, "--n", "60", "--cache", cache], capsys)[0] == 0
    loaded = []
    load = cli.load_table

    def spy(*args, **kwargs):
        loaded.append(load(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_table", spy)
    monkeypatch.setattr(cli, "stream_table", None)  # a build would fail
    code, out, _ = run(["value", "argmax", "--graph", p4_file, "--n", "40", "--cache", cache], capsys)
    assert code == 0
    assert json.loads(out)["p"] == float(compute_table(path_graph(4), 40).layers[40].max())
    kept = [[t for t, layer in enumerate(table.layers) if layer is not None] for table in loaded]
    assert kept == [[], [40]]


def test_memory_error_exit_code(p4_file, capsys, monkeypatch):
    import seqassign.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "stream_table", exhausted)
    code, out, err = run(["value", "argmax", "--graph", p4_file, "--n", "20"], capsys)
    assert code == 3
    assert out == ""
    assert "out of memory" in err

