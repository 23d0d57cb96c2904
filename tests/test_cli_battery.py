"""Byte identity of the CLI: each command runs in-process through `cli.main`
in a fresh directory, and the sha256 of its exit code, stdout, stderr and
every file it writes must equal the digest recorded when the battery was
written.  A refactor that moves any output byte fails here.

Left out on purpose: `steer`, whose float bytes go through BLAS/LAPACK (see
test_pinned.py), and `scan` at an inaccessible point, which calls
`np.polyfit`.

A failure shows the new digest; after an intended output change, paste it
into DIGESTS.
"""

import hashlib
import os
import sys

import pytest

from seqassign.cli import build_parser, main
from seqassign.graph import complete_graph, format_graph_text, path_graph

P4 = "p4.txt"
K4 = "k4.txt"
K5 = "k5.txt"
WEIGHTS = "w.txt"

# name -> (argv, files the command writes)
COMMANDS = {
    "value_at_box": (["value", "at", "--graph", P4, "--config", "10,8,12"], []),
    "value_table": (["value", "table", "--graph", P4, "--n", "30", "--cache", "t.tbl"], ["t.tbl"]),
    "value_at_cache": (
        ["value", "at", "--graph", P4, "--config", "10,8,12", "--cache", "c.tbl"],
        ["c.tbl"],
    ),
    "value_argmax": (["value", "argmax", "--graph", P4, "--n", "40"], []),
    "phase_csv": (
        ["phase", "--graph", P4, "--n", "30", "--out", "ph.csv", "--verify"],
        ["ph.csv"],
    ),
    "phase_json": (
        ["phase", "--graph", P4, "--n", "30", "--format", "json", "--out", "ph.json", "--verify"],
        ["ph.json"],
    ),
    # the benchmark's grid: 48,516 rows, many written in exponent form
    "phase_csv_310": (
        ["phase", "--graph", P4, "--n", "310", "--out", "ph310.csv", "--verify"],
        ["ph310.csv"],
    ),
    "phase_json_310": (
        ["phase", "--graph", P4, "--n", "310", "--format", "json", "--out", "ph310.json",
         "--verify"],
        ["ph310.json"],
    ),
    "scan_interior": (
        ["scan", "--graph", P4, "--point", "xstar", "--n-list", "10:40:10", "--verify",
         "--out", "scan.csv"],
        ["scan.csv"],
    ),
    "window": (
        ["window", "--graph", P4, "--n-list", "16,32", "--a-grid", "0.5:2:0.5"],
        [],
    ),
    # JSON with NaN cells: empty slices, and the decay bound of an interior point
    "window_json": (
        ["window", "--graph", P4, "--n-list", "16,32", "--a-grid", "0.5:2:0.5", "--format", "json"],
        [],
    ),
    "scan_xstar_json": (
        ["scan", "--graph", P4, "--point", "xstar", "--n-list", "10:40:10", "--format", "json",
         "--verify", "--out", "scan.json"],
        ["scan.json"],
    ),
    "conjecture": (["conjecture", "--k", "4", "--n-list", "8,12", "--format", "json"], []),
    "simulate_optimal": (
        ["simulate", "--graph", P4, "--config", "23,15,22", "--strategy", "optimal",
         "--runs", "400", "--seed", "3"],
        [],
    ),
    "simulate_greedy": (
        ["simulate", "--graph", P4, "--config", "23,15,22", "--strategy", "greedy",
         "--runs", "200", "--seed", "3"],
        [],
    ),
    "simulate_uniform": (
        ["simulate", "--graph", P4, "--config", "23,15,22", "--strategy", "uniform",
         "--runs", "200", "--seed", "4"],
        [],
    ),
    "simulate_optimal_weights": (
        ["simulate", "--graph", P4, "--config", "7,6,7", "--strategy", "optimal",
         "--runs", "400", "--seed", "1", "--weights", WEIGHTS],
        [],
    ),
    "classify_p4": (["region", "classify", "--graph", P4, "--point", "0.2,0.3,0.5"], []),
    "classify_k4": (
        ["region", "classify", "--graph", K4, "--point", "0.3,0.1,0.1,0.2,0.2,0.1"],
        [],
    ),
    "classify_k5": (
        ["region", "classify", "--graph", K5, "--point",
         "0.2,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.05,0.05"],
        [],
    ),
    "flow_k4_xstar": (["region", "flow", "--graph", K4, "--point", "xstar"], []),
    "flow_k4_outside": (
        ["region", "flow", "--graph", K4, "--point", "0.6,0.08,0.08,0.08,0.08,0.08"],
        [],
    ),
    "flow_k5_xstar": (["region", "flow", "--graph", K5, "--point", "xstar"], []),
    "flow_k5_outside": (
        ["region", "flow", "--graph", K5, "--point",
         "0.4,0.3,0.05,0.05,0.05,0.05,0.05,0.05,0,0"],
        [],
    ),
    # interior only under the file's law: the point is classified under the table's
    "scan_weights_json": (
        ["scan", "--graph", P4, "--point", "0.2,0.35,0.45", "--n-list", "10:40:10",
         "--weights", WEIGHTS, "--format", "json", "--verify", "--out", "scanw.json"],
        ["scanw.json"],
    ),
    "phase_weights_json": (
        ["phase", "--graph", P4, "--n", "30", "--weights", WEIGHTS, "--format", "json",
         "--verify", "--out", "phw.json"],
        ["phw.json"],
    ),
    "exit2_phase_edge_count": (["phase", "--graph", K4, "--n", "10"], []),
    "exit2_phase_verify_without_out": (["phase", "--graph", P4, "--n", "30", "--verify"], []),
    "exit2_steer_runs": (
        ["steer", "--graph", P4, "--n", "40", "--n1", "10", "--runs", "0"],
        [],
    ),
    "exit2_window_a_grid": (
        ["window", "--graph", P4, "--n-list", "16", "--a-grid", "0,1"],
        [],
    ),
    "exit2_value_argmax_config": (
        ["value", "argmax", "--graph", P4, "--n", "10", "--config", "1,2,3"],
        [],
    ),
    "exit2_value_at_n": (["value", "at", "--graph", P4, "--config", "1,2,3", "--n", "99"], []),
    "exit2_value_table_config": (
        ["value", "table", "--graph", P4, "--n", "10", "--cache", "t2.tbl", "--config", "1,1,1"],
        [],
    ),
    "exit2_steer_k_target": (
        ["steer", "--graph", P4, "--n", "120", "--n1", "24", "--target", "0.5,0.5,0.5",
         "--kind", "k"],
        [],
    ),
    "exit2_simulate_steer_k_target": (
        ["simulate", "--graph", P4, "--config", "40,40,40", "--strategy",
         "steer-k:0.5,0.5,0.5:24"],
        [],
    ),
    "exit2_simulate_steer_spec": (
        ["simulate", "--graph", P4, "--config", "40,40,40", "--strategy", "steer:xstar"],
        [],
    ),
    "exit2_simulate_outward_spec": (
        ["simulate", "--graph", P4, "--config", "40,40,40", "--strategy", "outward:0.5:9"],
        [],
    ),
}

DIGESTS = {
"classify_k4": "48161155a5d109d51d016e855471f2736dcd47279f94a582c4bb4bfe1bf23aeb",
    "classify_k5": "4ff8a58f44a4dbde51fb4e80497a86dc1b1009c3b570103816ebbdbf8d755ed8",
    "classify_p4": "1fdac1a106b7490a3befa7269ca67e71a051b60011f56e1d8951c1641b86e07f",
    "conjecture": "d74e55a5247cba7cf05849384c2247e57a3869f6ddc9a7d6d87986254b87e916",
    "exit2_phase_edge_count": "19e9d95b24b5fe05f23b425a98ebdb9a071a2a7a08c1a4cba5dd4bea0b3746ac",
    "exit2_phase_verify_without_out": "ef8fcdd9cc5f620172f41266eae4982a976e0dbb8c747899eba1a6a10f2e8f63",
    "exit2_simulate_outward_spec": "0b6696d8ace302c80ab9550a9423d0daab1e8b7f2212692593e867ed0600d982",
    "exit2_simulate_steer_k_target": "03e4d1873f39f40405f6d340eb1cf760c3533031e9b22a836dec749db974baff",
    "exit2_simulate_steer_spec": "5443858ee4e21821cc7be5592806a8db072a1d02e8efa3a996996e7512a38ab2",
    "exit2_steer_k_target": "03e4d1873f39f40405f6d340eb1cf760c3533031e9b22a836dec749db974baff",
    "exit2_steer_runs": "08a0bc222e02488a894f843288db256bcae0625ce935d38c4e709aa3f10d49f0",
    "exit2_value_argmax_config": "98f16a7b0967fb51cd13b5c8861adb712996b596919805175ff9cd9bb7f07893",
    "exit2_value_at_n": "6c5602614bd2a3bce3ec9e713f5e3df7b09c6d50b6c6dcd58a9b56fb72ef7fd9",
    "exit2_value_table_config": "21e5cef3ba1148c2f0f0da1f1d2231b49072e631247c5e0615faa7b58cad6624",
    "exit2_window_a_grid": "76aa877f6f8028ca644210a3967a29fd53ac895400c597b6b521f71656d9f03f",
    "flow_k4_outside": "0706bf9a79121d7f66fe578aea14ccb443ccc29061fb7092bb9627f6fd3521e1",
    "flow_k4_xstar": "5f4b91e458955b3dcfabd6355a2d799802acf8b4edaf0f5eb9c3e532e0551cf8",
    "flow_k5_outside": "480092587eae719977bb6f7d243c16d711744651bfbd37f908d1e8aa6a4ca839",
    "flow_k5_xstar": "2556a32610519b05cc93e7dc02ff08573275fc4eea94030bdca4f6b57b29f72e",
    "phase_csv": "0060e98d37ac6f77daed74397a90be848feeabb3ce49d9f1e54612f3dbd8afe0",
    "phase_csv_310": "790421a767fa1717cd23649663242952868159be6bd7fa564c36cd644042bb79",
    "phase_json": "77eaa0ef61bac486f2275274ad800b3502ba09762bba0575fa036b7fa636b871",
    "phase_json_310": "2eb4fbe852e183d149b34609fbeac06d0e7fe0d3a8da0b2bd4b2d769ca89aab0",
    "phase_weights_json": "a4f01eab282f0bd002017ff7f6164693947f4f2a6f1115f9262884cf4428c2a3",
    "scan_interior": "65d8689622e3920517ae5d0c4aa09cfcdd391273f9ae70f713f567ab43038be1",
    "scan_weights_json": "a67e0366b95fa9eb70fd74cd3edd545479b4ca1e7d17027314a5b2dec8ccb84a",
    "scan_xstar_json": "d02aea99a373abcccb517e0647375d261db33093bb1a93b04ed354982be01b7e",
    "simulate_greedy": "8f5815ff1d7315fec46d3aa7e64b5c56c163041d03377ddf64ad5aff79c29a0b",
    "simulate_optimal": "95922762b7199421cd1c7446ea8062aca3d3d31cb84f910e56c6a87ad9beebdf",
    "simulate_optimal_weights": "a31c3463f669c60802b83a807b4c7aeaa85d2b39c12e62f01f6a0212a71f3cb2",
    "simulate_uniform": "c37ec0a54891ac005e0befd13de0410ce04a1bb54c237edd0d8c701048d90815",
    "value_argmax": "8136285efcead0b89013963e10336f27a7f7cd3cb2259a9059276b6ab947fd0c",
    "value_at_box": "da58a8a902203681138bffe9672948e603ad70524aea5cb27f5c658e5aada681",
    "value_at_cache": "279ef369b988312fef4dcca0476ba40026e5bf2aada4060a04f288e213465f66",
    "value_table": "4117929eb930776b8d0b8292eee6885145cf92818b611e6e34d8be064c74cd9e",
    "window": "e44dbd679fcc52428a15de8f7c045e72b1ea130ab4aa7b8b2d3c5d2b24063ec7",
    "window_json": "0035864a58b9d810e9c4fe7861eef738d248146127886cab9d448bebd6e9257c",
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("battery")
    (path / P4).write_text(format_graph_text(path_graph(4)))
    (path / K4).write_text(format_graph_text(complete_graph(4)))
    (path / K5).write_text(format_graph_text(complete_graph(5)))
    (path / WEIGHTS).write_text("0.1 0.2 0.3 0.4\n")
    return path


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_bytes(name, workdir, capsys, monkeypatch):
    argv, written = COMMANDS[name]
    monkeypatch.chdir(workdir)
    for f in written:
        if os.path.exists(f):
            os.remove(f)
    code = main(argv)
    out = capsys.readouterr()
    h = hashlib.sha256()
    h.update(f"{code}\n".encode())
    h.update(out.out.encode())
    h.update(b"\0")
    h.update(out.err.encode())
    for f in written:
        h.update(b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    assert h.hexdigest() == DIGESTS[name]


# argparse's own output: the help of seqassign and of each subcommand, and the
# usage errors of an unknown or missing subcommand
SUBCOMMANDS = ["region", "value", "phase", "scan", "conjecture", "window", "steer", "simulate"]
HELP = {"top_help": ["-h"], "bogus": ["bogus"], "bare": []}
HELP.update({f"{name}_help": [name, "-h"] for name in SUBCOMMANDS})

# sha256 of the exit code, stdout and stderr at 80 columns, under Python 3.11
HELP_DIGESTS = {
    "bare": "43ef5632e3de6f2c2f63192ed05f7f01c9297b524c730283e77508dfe3c8c8c2",
    "bogus": "8c138a6871518caf914ced1320f212da52b717df54e45741d092c31ebede0df3",
    "conjecture_help": "74cf08313274a7b64c12704b905744e5c1b8677ec64104f87dd62128a7e9da3b",
    "phase_help": "211bff18c543e2c85833466d77e0e4b8e2e617809b152bbf4d9a5619a5e1b714",
    "region_help": "ac9c1e4b8091e9236162afde761147f09a8e346459fc4742780fa5d34f923b49",
    "scan_help": "1ca301905ef5eb6a41ba879406e6f40ce8706476067583e95ce426300f9deed7",
    "simulate_help": "dabd8bcf539932d5c8c49cbc4904bccdfecad28a475d32cc24fafc1cb8d2f102",
    "steer_help": "9e3c1355ba3e37e747121fe2dd4adf095ac2b8b69514b0f4a1ac4e262fe6a1e4",
    "top_help": "30b4d97c5171149b2decb378f0f8c0ac4e87649c634f9f0ade6cfb9396407963",
    "value_help": "3e9788a5ebef2ca61e9875c6dcc31606e7c011c7faf2664fcf6443d28d3e720b",
    "window_help": "2f8c9ed98d2e62c51f15f7a323fb49c6e898b88efdab130363d4f3294bb0916f",
}


def _exit_digest(run, capsys) -> str:
    with pytest.raises(SystemExit) as info:
        run()
    out = capsys.readouterr()
    return hashlib.sha256(f"{info.value.code}\n{out.out}\0{out.err}".encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(HELP))
def test_cli_help_and_usage_error_bytes(name, capsys, monkeypatch):
    # main fills only the parsed subcommand's arguments: its bytes are those
    # of the parser with every subcommand filled
    argv = HELP[name]
    monkeypatch.setenv("COLUMNS", "80")
    got = _exit_digest(lambda: main(argv), capsys)
    assert got == _exit_digest(lambda: build_parser().parse_args(argv), capsys)
    if sys.version_info[:2] == (3, 11):  # argparse's wording varies between versions
        assert got == HELP_DIGESTS[name]
