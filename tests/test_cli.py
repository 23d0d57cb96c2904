import json

import pytest

from seqassign.cli import main
from seqassign.experiments import (
    CONJECTURE_COLUMNS,
    PHASE_COLUMNS,
    SCAN_COLUMNS,
    WINDOW_COLUMNS,
    a_star,
)
from seqassign.errors import DomainError
from seqassign.graph import cycle_graph, format_graph_text, path_graph


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
    monkeypatch.setattr(cli, "compute_table", lambda *a, **kw: built.append(a))
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
    for k in (3, 4, 5, 8):
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


@pytest.mark.parametrize("strategy", ["greedy", "steer:xstar:24"])
def test_simulate_cache_needs_table_strategy(p4_file, tmp_path, capsys, strategy):
    cache = tmp_path / "t.tbl"
    code, out, err = run(
        [
            "simulate", "--graph", p4_file, "--config", "45,30,45",
            "--strategy", strategy, "--runs", "5", "--cache", str(cache),
        ],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "--cache" in err
    assert not cache.exists()


def test_memory_error_exit_code(p4_file, capsys, monkeypatch):
    import seqassign.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "compute_table", exhausted)
    code, out, err = run(["value", "argmax", "--graph", p4_file, "--n", "20"], capsys)
    assert code == 3
    assert out == ""
    assert "out of memory" in err

