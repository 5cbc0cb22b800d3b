import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kakimizu as kk
import kakimizu.cli
from kakimizu.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def line_file(tmp_path):
    path = tmp_path / "line.json"
    assert main(["gen", "line", "--min", "0", "--max", "5", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def lattice_file(tmp_path):
    path = tmp_path / "lattice.json"
    assert main(["gen", "lattice", "--width", "5", "--height", "5", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def hexagon_file(tmp_path):
    path = tmp_path / "hexagon.json"
    system = kk.graph_to_system(6, [(i, (i + 1) % 6) for i in range(6)])
    path.write_text(kk.save_system(system), encoding="utf-8")
    return str(path)


def test_gen_then_distance(capsys, line_file):
    code, out, _ = run_cli(capsys, "distance", line_file, "-u", "u0", "-v", "u5")
    assert code == 0
    assert out == "5\n"


def test_spread_disjoint_pair(capsys, line_file):
    code, out, _ = run_cli(capsys, "spread", line_file, "-u", "u0", "-v", "u1")
    assert code == 0
    assert out == "0\n"


def test_distance_is_spread_plus_one_everywhere(capsys, lattice_file):
    system = kk.load_system(open(lattice_file, encoding="utf-8").read())
    ids = system.vertex_ids()
    for u, v in [("0_0", "3_2"), ("1_1", "4_0"), ("2_2", "2_3")]:
        assert u in ids and v in ids
        _, spread_out, _ = run_cli(capsys, "spread", lattice_file, "-u", u, "-v", v)
        _, dist_out, _ = run_cli(capsys, "distance", lattice_file, "-u", u, "-v", v)
        assert int(dist_out) == int(spread_out) + 1


def test_distance_same_vertex_is_zero(capsys, line_file):
    code, out, _ = run_cli(capsys, "distance", line_file, "-u", "u2", "-v", "u2")
    assert code == 0 and out == "0\n"


def test_validate_ok_and_errors(capsys, line_file, tmp_path):
    code, out, _ = run_cli(capsys, "validate", line_file)
    assert code == 0 and out.startswith("ok:")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "vertices": [{"id": "a", "complexity": [0, 0]},
                     {"id": "b", "complexity": [0, 0]}],
        "patterns": [{"u": "a", "v": "b", "support_start": 3, "counts": [1, 1]}],
    }), encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "support misses" in err


def test_byte_order_mark_is_invalid_json(capsys, line_file, tmp_path):
    # the file is read as text, where a UTF-8 byte order mark is a character
    # that json refuses
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + open(line_file, "rb").read())
    code, _, err = run_cli(capsys, "validate", str(bom))
    assert code == 2 and "invalid JSON" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/nowhere.json")
    assert code == 2 and "error:" in err


def test_unknown_vertex_is_usage_error(capsys, line_file):
    code, _, err = run_cli(capsys, "spread", line_file, "-u", "u0", "-v", "zz")
    assert code == 2 and "unknown vertex" in err


def test_bad_arguments_exit_2(capsys):
    assert main(["distance"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_complex_export(capsys, tmp_path, line_file):
    dot = tmp_path / "graph.dot"
    simp = tmp_path / "simplices.txt"
    code, out, _ = run_cli(capsys, "complex", line_file,
                           "--export-dot", str(dot), "--export-simplices", str(simp))
    assert code == 0
    assert out.startswith("vertices 6 edges 5 dim 1")
    text = dot.read_text(encoding="utf-8")
    assert '"u0" -- "u1";' in text
    assert text.count("--") == 5
    lines = simp.read_text(encoding="utf-8").splitlines()
    assert "u0" in lines and "u0 u1" in lines


def test_dot_export_of_an_id_ending_in_a_backslash_is_a_usage_error(capsys, tmp_path):
    path, dot = tmp_path / "backslash.json", tmp_path / "backslash.dot"
    system = kk.SurfaceSystem([("a\\", kk.Complexity(0, 0)), ("b", kk.Complexity(0, 0))], {})
    path.write_text(kk.save_system(system), encoding="utf-8")
    code, _, err = run_cli(capsys, "complex", str(path), "--export-dot", str(dot))
    assert code == 2 and "ends in a backslash" in err
    assert not dot.exists()


def test_links_subcommand(capsys, lattice_file):
    code, out, _ = run_cli(capsys, "links", lattice_file, "-s", "1_1")
    assert code == 0
    assert out.splitlines()[0].startswith("vertices: ")
    assert len(out.splitlines()[0].split()) == 7
    code, _, err = run_cli(capsys, "links", lattice_file, "-s", "0_0,3_3")
    assert code == 2 and "not a simplex" in err


def test_klarge_subcommand(capsys, lattice_file, hexagon_file):
    code, out, _ = run_cli(capsys, "klarge", lattice_file, "-k", "6")
    assert code == 0 and out == "6-large: true\n"
    code, out, _ = run_cli(capsys, "klarge", lattice_file, "-k", "7")
    assert code == 1 and out.startswith("7-large: false\nwitness:")


def test_h1_subcommand(capsys, lattice_file, hexagon_file):
    code, out, _ = run_cli(capsys, "h1", lattice_file)
    assert code == 0 and out == "H1 = 0\n"
    code, out, _ = run_cli(capsys, "h1", hexagon_file)
    assert code == 0 and out == "H1 = Z\n"


def test_reduce_subcommand(capsys, lattice_file, hexagon_file):
    code, out, _ = run_cli(capsys, "reduce", lattice_file,
                           "--cycle", "2_1,2_2,1_2,0_1,0_0,1_0")
    assert code == 0
    assert out.startswith("reduced in")
    code, out, _ = run_cli(capsys, "reduce", hexagon_file,
                           "--cycle", "g0,g1,g2,g3,g4,g5")
    assert code == 3
    assert out.startswith("inconclusive")
    code, _, err = run_cli(capsys, "reduce", lattice_file, "--cycle", "0_0,4_4")
    assert code == 2


def _unreplayable(X, cycle, max_len=None, max_steps=100_000):
    # claims success with a move that either fails to apply (no diagonal) or
    # leaves an edge behind instead of the constant cycle
    start = tuple(cycle)
    return kk.HomotopyResult(True, start, (("shorten", 0),), (start[0],), 1, "claimed")


def test_reduce_prints_only_certificates_that_replay(capsys, monkeypatch, lattice_file,
                                                     hexagon_file):
    monkeypatch.setattr(kakimizu.cli, "reduce_cycle_homotopy", _unreplayable)
    for path, cycle in ((hexagon_file, "g0,g1,g2,g3,g4,g5"),
                        (lattice_file, "0_0,0_1,1_1")):
        code, out, _ = run_cli(capsys, "reduce", path, "--cycle", cycle)
        assert (code, out) == (1, "failed: witness failed to replay\n")


def digest(data):
    return hashlib.sha256(data).hexdigest()


def test_budget_stopped_verify_output_is_pinned(capsys, tmp_path):
    # the sweep enumerates this file's 13 chordless cycles (of 42 embedded
    # ones): 6 contract and 7 pair odd with a mod-2 cocycle, so any change to
    # the cycle order, the search outcome or the cocycle basis changes these
    # bytes
    path, report = tmp_path / "g.json", tmp_path / "g.report.json"
    assert main(["gen", "graph", "--vertices", "12", "--seed", "6", "-o", str(path)]) == 0
    code, out, _ = run_cli(capsys, "verify", str(path), "--suite", "all",
                           "--max-cycle-len", "6", "--max-steps", "100", "--json", str(report))
    assert code == 1
    assert digest(path.read_bytes()) == (
        "0f9a6d48f568529fadbf2a48a8e8224eacd75faff841fa794e34233e56bcffe5")
    assert digest(out.encode()) == (
        "f3a275a95f118d2191e170bf4696dffb491b5aa6cf53f842b20695f8e7e8de86")
    assert digest(report.read_bytes()) == (
        "f0910b37517bd92e5e1b98499f6d4dae098e038759f85551578d7015f1048365")


@pytest.mark.parametrize("gen, file_sha, out_sha, report_sha", [
    (("lattice", "--width", "5", "--height", "5"),
     "3115447db706cfd65e4e4a8110a94b9825af5caabea0f7de6c1b6088039aabc6",
     "8119c65e8e35436bd1aa92a3c25b01f39c720452d759b32d203893e5c4377efb",
     "22c96e6f403ab6950edf12afe2dd6e622114b06445217b3a27d43720a5b62845"),
    (("line", "--min", "0", "--max", "5"),
     "2d05755da2e7fc40d477925eb7073da5e6194cd1fe8b94adb450b9a4a3710f18",
     "4d3658f78e810d8601df5b703be348e92702be0b22bb63e870bfbd42967adc44",
     "e29766a2d8ac60d25387948b5638da267c2b8e54eed6d0d1cd8ece87cf5918ab"),
])
def test_passing_verify_output_is_pinned(capsys, tmp_path, gen, file_sha, out_sha,
                                         report_sha):
    path, report = tmp_path / "s.json", tmp_path / "s.report.json"
    assert main(["gen", *gen, "-o", str(path)]) == 0
    code, out, _ = run_cli(capsys, "verify", str(path), "--suite", "all",
                           "--json", str(report))
    assert code == 0
    assert digest(path.read_bytes()) == file_sha
    assert digest(out.encode()) == out_sha
    assert digest(report.read_bytes()) == report_sha


def test_residue_claim_ignores_the_search_budget(capsys, lattice_file):
    # each residue is certified as a cone with no search, so a one-step
    # budget leaves only the whole-complex cycles inconclusive; the sweep
    # enumerates only the 57 chordless cycles of the 1274 embedded ones (a
    # chorded one is left to the chord lemma), and 25 of them stay
    # inconclusive (1242 when every cycle was searched)
    code, out, _ = run_cli(capsys, "verify", lattice_file, "--suite", "sc",
                           "--max-steps", "1")
    assert code == 3
    rows = [line.split() for line in out.splitlines()]
    assert ["residues_simply_connected", "113", "0", "0", "pass"] in rows
    assert ["simple_connectivity", "58", "0", "25", "inconclusive"] in rows


def test_residue_claim_on_a_path_has_one_instance_per_simplex(capsys, line_file):
    # a path has no cycle, but every simplex has a residue to certify
    X = kk.build_complex(kk.load_system(open(line_file, encoding="utf-8").read()))
    code, out, _ = run_cli(capsys, "verify", line_file, "--suite", "sc")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert ["residues_simply_connected", str(len(X.simplices())), "0", "0", "pass"] in rows


@pytest.mark.parametrize("cap", ["2", "-1"])
def test_verify_refuses_a_cycle_cap_below_3(capsys, tmp_path, cap):
    # such a cap enumerates no cycle, so a pass would rest on no witness
    path = tmp_path / "lattice3.json"
    assert main(["gen", "lattice", "--width", "3", "--height", "3", "-o", str(path)]) == 0
    code, out, err = run_cli(capsys, "verify", str(path), "--suite", "sc",
                             "--max-cycle-len", cap)
    assert code == 2
    assert out == ""
    assert "max_cycle_len must be at least 3" in err


def test_caps_far_above_the_vertex_count_end_at_once(capsys, tmp_path, line_file):
    # no cycle is longer than the vertex count, so a cap of 10**9 does the
    # work of that count; each run is a child process with a time limit, so
    # a walk that loops over the whole cap fails here instead of hanging
    lattice = tmp_path / "lattice3.json"
    assert main(["gen", "lattice", "--width", "3", "--height", "3", "-o", str(lattice)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for argv, cap, code in ((["verify", str(lattice), "--suite", "sc", "--max-cycle-len"],
                             "9", 0),
                            (["klarge", line_file, "-k"], "7", 0)):
        proc = subprocess.run([sys.executable, "-m", "kakimizu.cli", *argv, "1000000000"],
                              env=env, capture_output=True, text=True, timeout=20)
        expected = run_cli(capsys, *argv, cap)
        assert (proc.returncode, proc.stderr) == (code, "") == expected[::2]
        assert proc.stdout == expected[1].replace(f"{cap}-large", "1000000000-large")


@pytest.mark.parametrize("argv", [
    ("verify", "{lattice}", "--max-steps", "-5"),
    ("reduce", "{lattice}", "--cycle", "0_0,0_1,1_1", "--max-steps", "-1"),
    ("gen", "graph", "--vertices", "5", "--edge-prob", "2", "-o", "{out}"),
    ("gen", "graph", "--vertices", "5", "--edge-prob", "nan", "-o", "{out}"),
])
def test_out_of_range_numbers_are_usage_errors(capsys, tmp_path, lattice_file, argv):
    # a negative budget, or a probability outside [0, 1], is refused before
    # any work, as a cycle cap below 3 is
    out = tmp_path / "out.json"
    code, stdout, err = run_cli(capsys, *(a.format(lattice=lattice_file, out=out) for a in argv))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ")
    assert not out.exists()


def test_verify_fails_a_disconnected_complex(capsys, tmp_path):
    # two intersecting vertices: no edge, no cycle, H1 = 0, yet not connected
    path = tmp_path / "two.json"
    path.write_text(json.dumps({
        "vertices": [{"id": "a", "complexity": [0, 0]}, {"id": "b", "complexity": [0, 0]}],
        "patterns": [{"u": "a", "v": "b", "support_start": 1, "counts": [2]}]}),
        encoding="utf-8")
    report = tmp_path / "two.report.json"
    code, out, _ = run_cli(capsys, "verify", str(path), "--suite", "sc", "--json", str(report))
    assert code == 1
    assert "simple_connectivity        1          1         0             fail" in out
    sc = next(c for c in json.loads(report.read_text(encoding="utf-8"))["claims"]
              if c["claim"] == "simple_connectivity")
    assert sc["failures"] == [{"problem": "complex not connected", "vertices": ["a", "b"]}]


def test_geodesic_subcommand(capsys, line_file):
    code, out, _ = run_cli(capsys, "geodesic", line_file, "-u", "u0", "-v", "u5")
    assert code == 0
    assert out == "u5 u4 u3 u2 u1 u0\n"


def test_verify_all_on_lattice_exits_zero(capsys, lattice_file, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", lattice_file,
                           "--suite", "all", "--json", str(report_path))
    assert code == 0
    assert "overall: pass" in out
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert doc["verdict"] == "pass"
    assert len(doc["claims"]) == 7


def test_verify_hexagon_fails(capsys, hexagon_file):
    code, out, _ = run_cli(capsys, "verify", hexagon_file, "--suite", "sc")
    assert code == 1
    assert "overall: fail" in out


def test_verify_hexagon_contractible_inconclusive(capsys, hexagon_file):
    code, out, _ = run_cli(capsys, "verify", hexagon_file, "--suite", "contractible")
    assert code == 3
    assert "overall: inconclusive" in out


def test_gen_graph_is_seeded_and_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "graph", "--vertices", "12", "--edge-prob", "0.3",
                 "-o", str(a), "--seed", "7"]) == 0
    assert main(["gen", "graph", "--vertices", "12", "--edge-prob", "0.3",
                 "-o", str(b), "--seed", "7"]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["gen", "graph", "--vertices", "12", "--edge-prob", "0.3",
                 "-o", str(c), "--seed", "8"]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_cli_outputs_are_byte_identical(capsys, lattice_file):
    first = run_cli(capsys, "verify", lattice_file, "--suite", "distance")
    second = run_cli(capsys, "verify", lattice_file, "--suite", "distance")
    assert first == second
    g1 = run_cli(capsys, "geodesic", lattice_file, "-u", "0_0", "-v", "4_4")
    g2 = run_cli(capsys, "geodesic", lattice_file, "-u", "0_0", "-v", "4_4")
    assert g1 == g2


def test_verify_girth_budget_stop_is_not_a_failure(capsys, tmp_path):
    # cone over a square with one diagonal: every vertex link is 6-large,
    # so a one-step budget must not turn the girth check into a failure
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]
    path = tmp_path / "cone.json"
    path.write_text(kk.save_system(kk.graph_to_system(5, edges)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path), "--suite", "girth",
                           "--max-steps", "1")
    assert code == 0
    assert out.endswith("overall: pass\n")
