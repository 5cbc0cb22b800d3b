import json

import pytest

import kakimizu as kk
import kakimizu.homology
import kakimizu.verify
from kakimizu import (FlagComplex, ReductionBounds, build_complex, run_suite,
                      verify_contractible_2d, verify_cs_le_i,
                      verify_distance_theorem, verify_link_girth,
                      verify_residues_sc, verify_simple_connectivity,
                      verify_st_bound)

from conftest import random_graph_systems


def test_distance_theorem_passes_on_models(line10, lattice5):
    for system in (line10, lattice5):
        report = verify_distance_theorem(system)
        assert report.verdict == "pass"
        assert report.instances == len(system.vertex_ids()) * (len(system.vertex_ids()) - 1) // 2


def test_distance_theorem_never_fails_on_graph_systems():
    # construction bakes the relation in, so this is a pipeline regression test
    for system in random_graph_systems(10, 20, seed=9):
        assert verify_distance_theorem(system).verdict == "pass"


def test_distance_theorem_catches_inconsistent_tables():
    # b-c is claimed disjoint from nothing, yet the spread says 2: distance 1 vs 3
    system = kk.SurfaceSystem(
        [("a", kk.Complexity()), ("b", kk.Complexity()), ("c", kk.Complexity())],
        {("a", "c"): kk.OffsetPattern(1, (1, 1, 1))},
    )
    report = verify_distance_theorem(system)
    assert report.verdict == "fail"
    assert report.failures[0]["u"] == "a" and report.failures[0]["v"] == "c"


def test_bounds_pass_on_models(line10, lattice5):
    for system in (line10, lattice5):
        assert verify_st_bound(system).verdict == "pass"
        assert verify_cs_le_i(system).verdict == "pass"


def test_st_bound_sees_unreachable_pairs_as_failures():
    system = kk.SurfaceSystem(
        [("a", kk.Complexity()), ("b", kk.Complexity())],
        {("a", "b"): kk.OffsetPattern(1, (2,))},
    )
    # a-b intersect, nothing else exists: the complex is disconnected
    report = verify_st_bound(system)
    assert report.verdict == "fail"
    assert report.failures[0]["distance"] is None


def test_link_girth_on_lattice(lattice7):
    X = build_complex(lattice7, max_dim=3)
    report = verify_link_girth(X)
    assert report.verdict == "pass"
    assert report.girth_witness["length"] == 6


def test_link_girth_flags_diagonal_free_squares():
    # octahedron-like: two apexes over a diagonal-free square
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    edges += [(x, y) for x in ("p", "q") for y in "abcd"]
    X = kk.FlagComplex("abcdpq", edges, max_dim=3)
    report = verify_link_girth(X)
    assert report.verdict == "fail"
    assert any(f["problem"] == "diagonal-free short cycle" for f in report.failures)


def test_residues_simply_connected_on_models(line10, lattice5):
    for system in (line10, lattice5):
        X = build_complex(system, max_dim=3)
        assert verify_residues_sc(X).verdict == "pass"


def test_simple_connectivity_passes_with_witnesses(lattice5):
    report = verify_simple_connectivity(lattice5)
    assert report.verdict == "pass"
    assert report.instances > 1


def test_simple_connectivity_fails_on_hexagon(hexagon_system):
    report = verify_simple_connectivity(hexagon_system)
    assert report.verdict == "fail"
    assert any(f.get("h1") == "Z" for f in report.failures)
    # the lone 6-cycle cannot be reduced, so it is also inconclusive
    assert report.inconclusive


def test_contractible_criterion(lattice5, hexagon_complex):
    X = build_complex(lattice5, max_dim=3)
    assert verify_contractible_2d(X).verdict == "pass"
    report = verify_contractible_2d(hexagon_complex)
    assert report.verdict == "inconclusive"
    assert report.inconclusive[0]["conclusion"] == "no conclusion from this criterion"


def test_run_suite_all_passes_on_lattice(lattice5):
    report = run_suite(lattice5, "all")
    assert report.verdict == "pass"
    assert len(report.claims) == 7


def test_run_suite_unknown_name(lattice5):
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(lattice5, "everything")


def test_reports_are_deterministic(lattice5):
    a = run_suite(lattice5, "distance")
    b = run_suite(lattice5, "distance")
    assert a.to_json() == b.to_json()
    assert a.to_table() == b.to_table()


def test_json_report_shape(hexagon_system):
    report = run_suite(hexagon_system, "sc")
    doc = json.loads(report.to_json())
    assert doc["verdict"] == "fail"
    claims = {c["claim"]: c for c in doc["claims"]}
    assert claims["simple_connectivity"]["verdict"] == "fail"
    assert "elapsed" not in claims["simple_connectivity"]
    timed = json.loads(report.to_json(include_timings=True))
    assert all("elapsed" in c for c in timed["claims"])


def test_failure_witnesses_replay(hexagon_system):
    report = verify_distance_theorem(kk.SurfaceSystem(
        [("a", kk.Complexity()), ("b", kk.Complexity()), ("c", kk.Complexity())],
        {("a", "c"): kk.OffsetPattern(1, (1, 1, 1))},
    ))
    w = report.failures[0]
    system_distance = build_complex(kk.SurfaceSystem(
        [("a", kk.Complexity()), ("b", kk.Complexity()), ("c", kk.Complexity())],
        {("a", "c"): kk.OffsetPattern(1, (1, 1, 1))},
    ), 1).distance(w["u"], w["v"])
    assert system_distance == w["distance"] != w["spread"] + 1


def test_bounds_are_overridable(lattice5):
    tight = ReductionBounds(max_cycle_len=4, max_len=8, max_steps=10)
    report = verify_simple_connectivity(lattice5, tight)
    # 3- and 4-cycles only, and the tiny budget may leave some unresolved
    assert report.verdict in ("pass", "inconclusive")


def _unreplayable(X, cycle, max_len=None, max_steps=100_000):
    # claims success with a move that either fails to apply (no diagonal) or
    # leaves an edge behind instead of the constant cycle
    start = tuple(cycle)
    return kk.HomotopyResult(True, start, (("shorten", 0),), (start[0],), 1, "claimed")


def test_residue_reductions_must_replay(monkeypatch):
    monkeypatch.setattr(kakimizu.verify, "reduce_cycle_homotopy", _unreplayable)
    X = FlagComplex("abc", [("a", "b"), ("b", "c"), ("a", "c")], max_dim=3)
    report = verify_residues_sc(X)
    assert report.verdict == "fail"
    assert len(report.failures) == report.instances > 0
    assert all(f["problem"] == "witness failed to replay" for f in report.failures)


def test_simple_connectivity_reductions_must_replay(monkeypatch, hexagon_system):
    monkeypatch.setattr(kakimizu.verify, "reduce_cycle_homotopy", _unreplayable)
    loaded = kk.load_system(kk.save_system(hexagon_system))   # no descent backend
    report = verify_simple_connectivity(loaded)
    ring = [f"g{i}" for i in range(6)]
    assert {"cycle": ring, "problem": "witness failed to replay"} in report.failures
    assert not report.inconclusive


def test_run_suite_computes_each_fact_once(monkeypatch):
    system = kk.lattice_model(5, 5)
    ids = set(system.vertex_ids())
    snf_calls, full_builds = [], []
    real_snf = kakimizu.homology.smith_invariants
    real_init = FlagComplex.__init__

    def counting_snf(rows):
        snf_calls.append(len(rows))
        return real_snf(rows)

    def counting_init(self, vertices, edges, max_dim=3):
        vertices = list(vertices)
        if set(vertices) == ids:
            full_builds.append(max_dim)
        real_init(self, vertices, edges, max_dim)

    monkeypatch.setattr(kakimizu.homology, "smith_invariants", counting_snf)
    monkeypatch.setattr(FlagComplex, "__init__", counting_init)
    report = run_suite(system, "all")
    assert report.verdict == "pass"
    assert len(snf_calls) == 2   # d1 and d2, once each
    assert full_builds == [3]
