import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

import kakimizu as kk
import kakimizu.homology
import kakimizu.patterns
import kakimizu.verify
from kakimizu import (FlagComplex, ReductionBounds, build_complex,
                      mod2_cocycles, run_suite, verify_contractible_2d,
                      verify_cs_le_i, verify_distance_theorem,
                      verify_link_girth, verify_residues_sc,
                      verify_simple_connectivity, verify_st_bound)
from kakimizu.homotopy import _is_mod2_cocycle, _pairs_odd, _replays_to_point
from kakimizu.verify import ClaimReport, _residue_vertices

from conftest import (complex_to_nx, connected_graph_systems, flag_complexes,
                      random_graph_systems, random_pattern, reference_pair_claims,
                      residue)

NONTRIVIAL = "nontrivial in H1(X; Z/2)"


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


@st.composite
def shared_pattern_systems(draw):
    """Systems whose pairs draw their patterns from a small pool of shared
    objects, or are disjoint.  The table is taken unchecked, so nothing
    makes d = cs + 1 hold, the complex may be disconnected, and the pool may
    hold a tampered pattern whose spread exceeds its intersection."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = [random_pattern(rng, allow_empty=False) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        pool.append(kk.OffsetPattern(0, (1, 0, 1)))   # spread 3, intersection 2
    ids = [f"v{i}" for i in range(draw(st.integers(1, 8)))]
    patterns = {}
    for pair in itertools.combinations(ids, 2):
        k = draw(st.integers(-len(pool), len(pool) - 1))
        if k >= 0:   # about half the pairs are disjoint
            patterns[pair] = pool[k]
    return kk.SurfaceSystem._from_checked({v: kk.Complexity() for v in ids}, patterns)


def _rows(reports) -> tuple:
    return tuple((r.instances, r.failures) for r in reports)


def _assert_every_order_lists(expected, vertices: dict, table: dict) -> None:
    """Whichever pair claim runs first makes the one pass, so the three
    claims run in every order, each order on a fresh system over the same
    tables, list the reference rows."""
    claims = (verify_distance_theorem, verify_st_bound, verify_cs_le_i)
    for order in itertools.permutations(range(3)):
        system = kk.SurfaceSystem._from_checked(dict(vertices), table)
        rows = {k: _rows([claims[k](system)]) for k in order}
        assert tuple(row for k in range(3) for row in rows[k]) == expected


@given(st.one_of(shared_pattern_systems(), connected_graph_systems()))
def test_pair_claims_equal_the_reference_loops(system):
    expected = reference_pair_claims(system)
    assert _rows(run_suite(system, "distance").claims) == expected
    assert build_complex(system)._distances == {}
    _assert_every_order_lists(expected, dict(system.vertex_items()), system.stored_patterns())


def test_spread_claim_run_first_lists_the_tampered_pairs():
    # spread 3 > intersection 2 on two pairs of one shared object
    tampered = kk.OffsetPattern(0, (1, 0, 1))
    vertices = {v: kk.Complexity() for v in "abcd"}
    table = {("a", "c"): tampered, ("b", "d"): tampered}
    expected = reference_pair_claims(kk.SurfaceSystem._from_checked(vertices, table))
    assert [(f["u"], f["v"]) for f in expected[2][1]] == [("a", "c"), ("b", "d")]
    _assert_every_order_lists(expected, vertices, table)


def test_the_pair_pass_runs_once_per_system(monkeypatch):
    calls = []
    levels = kakimizu.verify._levels

    def counted(adj, source):
        calls.append(source)
        return levels(adj, source)

    monkeypatch.setattr(kakimizu.verify, "_levels", counted)
    system = kk.lattice_model(4, 4)
    first = run_suite(system, "distance")
    assert sorted(calls) == list(system.vertex_ids())
    calls.clear()
    assert _rows(run_suite(system, "distance").claims) == _rows(first.claims)
    assert calls == []


def test_a_report_owns_its_failures():
    # spread 3 > intersection 2 on the only pair, which the complex cannot
    # join: each of the three claims fails
    system = kk.SurfaceSystem._from_checked(
        {"a": kk.Complexity(), "b": kk.Complexity()},
        {("a", "b"): kk.OffsetPattern(0, (1, 0, 1))})
    first = run_suite(system, "distance").claims
    before = json.dumps(_rows(first))   # a snapshot, not the lists themselves
    assert all(claim.failures for claim in first)
    for claim in first:
        claim.failures[0]["u"] = "tampered"
        claim.failures.append({"u": "extra"})
    assert json.dumps(_rows(run_suite(system, "distance").claims)) == before


def test_run_suite_fills_no_distance_table_and_no_per_pair_numbers(measured):
    system = kk.load_system(kk.save_system(kk.lattice_model(6, 6)))
    assert run_suite(system, "all").verdict == "pass"
    assert build_complex(system)._distances == {}
    stored = system.stored_patterns().values()
    objects = {id(p) for p in stored}
    # numbers once per pattern object (and EMPTY_PATTERN at most once ever),
    # not per pair, and kept on the objects, not on the system
    assert len({id(p) for p in measured}) == len(measured) <= len(objects) + 1 < len(stored)
    assert {id(p) for p in measured} - {id(kk.EMPTY_PATTERN)} == objects
    assert [k for k, v in vars(system).items()
            if isinstance(v, dict) and len(v) >= len(stored)] == ["_patterns"]


def test_an_invalid_pattern_adopted_unchecked_fails_with_its_stored_numbers():
    # spread 3 > intersection 2, read off the stored pattern without a check
    tampered = kk.OffsetPattern(0, (1, 0, 1))
    system = kk.SurfaceSystem._from_checked({v: kk.Complexity() for v in "abc"},
                                            {("a", "c"): tampered})
    report = verify_cs_le_i(system)
    assert report.verdict == "fail"
    assert report.failures == [{"u": "a", "v": "c", "spread": 3, "intersection": 2}]
    assert (system.spread("c", "a"), system.intersection("c", "a")) == (3, 2)
    # the stored orientation is returned as it is; its dual is not made
    assert system.pattern("a", "c") is tampered
    with pytest.raises(kk.PatternError, match=r"counts\[1\] = 0: zero count breaks contiguity"):
        system.pattern("c", "a")


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


@given(st.one_of(connected_graph_systems().map(build_complex), flag_complexes()))
def test_every_residue_is_certified_as_a_cone(X):
    report = verify_residues_sc(X)
    assert report.instances == len(X.simplices())
    assert (report.verdict, report.failures, report.inconclusive) == ("pass", [], [])
    for s in X.simplices():
        assert set(residue(X, s).vertices) == _residue_vertices(X._adjset, s)


def test_simple_connectivity_passes_with_witnesses(lattice5):
    report = verify_simple_connectivity(lattice5)
    assert report.verdict == "pass"
    assert report.instances > 1


def test_simple_connectivity_fails_on_hexagon(hexagon_system):
    report = verify_simple_connectivity(hexagon_system)
    assert report.verdict == "fail"
    # one cocycle, the edge g3-g4, crosses the lone 6-cycle once
    ring = [f"g{i}" for i in range(6)]
    assert report.failures == [
        {"problem": "H1 nontrivial", "h1": "Z", "cocycles": [[["g3", "g4"]]]},
        {"cycle": ring, "problem": NONTRIVIAL, "cocycle": 0},
    ]
    assert not report.inconclusive
    assert report.instances == 2


def test_simple_connectivity_fails_a_disconnected_complex():
    # two triangles and an isolated vertex: H1 = 0 and both triangles
    # contract, but a space with three components is not simply connected
    ids = "abcdefg"
    triangles = ({"a", "b", "c"}, {"d", "e", "f"})
    meets = kk.OffsetPattern(1, (2,))
    system = kk.SurfaceSystem(
        [(v, kk.Complexity()) for v in ids],
        {(u, v): meets for u, v in itertools.combinations(ids, 2)
         if not any({u, v} <= t for t in triangles)})
    report = verify_simple_connectivity(system)
    assert report.failures == [{"problem": "complex not connected", "vertices": ["a", "d"]}]
    assert not report.inconclusive
    assert report.instances == 3   # H1, then one instance per triangle


def test_reduction_bounds_refuse_a_negative_step_budget():
    assert ReductionBounds(max_steps=0).max_steps == 0
    with pytest.raises(ValueError, match="max_steps must be non-negative"):
        ReductionBounds(max_steps=-1)


def _flagged(report):
    return {tuple(f["cycle"]): f["cocycle"] for f in report.failures
            if f.get("problem") == NONTRIVIAL}


def _gf2_rank(rows, n_cols):
    """Rank over GF(2) of the 0/1 rows given by their sets of nonzero columns."""
    F = GF(2)
    sparse = {i: {j: F(1) for j in r} for i, r in enumerate(rows) if r}
    return DomainMatrix(sparse, (len(rows), n_cols), F).rank() if sparse else 0


@given(connected_graph_systems())
def test_cycles_are_flagged_exactly_when_nontrivial_mod_2(system):
    # oracle: a cycle is nonzero in H1(X; Z/2) iff its edge vector raises the
    # GF(2) rank of the triangle boundaries; triangles from networkx cliques
    bounds = ReductionBounds(max_cycle_len=5, max_steps=20)
    X = build_complex(system, max_dim=3)
    G = complex_to_nx(X)
    edges = sorted(tuple(sorted(e)) for e in G.edges())
    index = {e: i for i, e in enumerate(edges)}
    boundaries = [{index[(a, b)], index[(a, c)], index[(b, c)]}
                  for a, b, c in (sorted(q) for q in nx.enumerate_all_cliques(G) if len(q) == 3)]
    base = _gf2_rank(boundaries, len(edges))
    report = verify_simple_connectivity(system, bounds)
    flagged = _flagged(report)
    cycles = list(kk.embedded_cycles(X, bounds.max_cycle_len))
    # the sweep enumerates only the chordless cycles, picked here by the
    # test's own chord test
    chordless = [c for c in cycles if not _chords(X, c)]
    assert report.instances == len(chordless) + 1
    assert set(flagged) <= set(chordless)

    def raises(cycle):
        vector = {index[tuple(sorted(e))] for e in zip(cycle, cycle[1:] + cycle[:1])}
        return _gf2_rank(boundaries + [vector], len(edges)) > base

    for cycle in chordless:
        assert (cycle in flagged) == raises(cycle), cycle
    # nothing is lost: mod-2 pairing is additive over a chord split, so a
    # nontrivial chorded cycle up to the cap has a nontrivial chordless one
    # below it
    if any(raises(c) for c in cycles if _chords(X, c)):
        assert flagged
    # a flagged cycle cannot contract, so no search may claim it does
    for cycle in flagged:
        for result in (kk.kakimizu_null_homotopy(system, cycle, max_steps=20),
                       kk.reduce_cycle_homotopy(X, cycle, max_len=8, max_steps=20)):
            assert not _replays_to_point(X, cycle, result)
    h1 = kk.homology_h1(X)
    even_torsion = sum(1 for t in h1.torsion if t % 2 == 0)
    assert len(mod2_cocycles(X)) == h1.free_rank + even_torsion
    assert not any(f.get("problem") == "cocycle failed to check" for f in report.failures)


def reference_simple_connectivity(system, bounds=ReductionBounds()):
    """The sweep without the chord lemma: every enumerated cycle, chorded or
    not, is paired with the checked cocycles, then searched, then replayed."""
    report = ClaimReport("simple_connectivity",
                         "H1 = 0 and all short cycles contract with replayable witnesses")
    X = build_complex(system)
    h1 = kk.homology_h1(X)
    report.instances += 1
    cocycles = {}
    if not h1.is_trivial():
        basis = mod2_cocycles(X)
        report.failures.append({"problem": "H1 nontrivial", "h1": str(h1),
                                "cocycles": [[list(e) for e in z] for z in basis]})
        for k, z in enumerate(map(frozenset, basis)):
            if _is_mod2_cocycle(X, z):
                cocycles[k] = z
            else:
                report.failures.append({"problem": "cocycle failed to check", "cocycle": k})
    for cycle in kk.embedded_cycles(X, bounds.max_cycle_len):
        report.instances += 1
        k = next((k for k, z in cocycles.items() if _pairs_odd(z, cycle)), None)
        if k is not None:
            report.failures.append({"cycle": list(cycle),
                                    "problem": "nontrivial in H1(X; Z/2)", "cocycle": k})
            continue
        result = None
        if system.supports_dcs:
            result = kk.kakimizu_null_homotopy(system, cycle, max_steps=bounds.max_steps)
        if result is None or not (result.reduced or system.strict_descent):
            result = kk.reduce_cycle_homotopy(X, cycle, 2 * bounds.max_cycle_len,
                                              bounds.max_steps)
        if not result.reduced:
            report.inconclusive.append({"cycle": list(cycle), "reason": result.reason})
        elif not _replays_to_point(X, cycle, result):
            report.failures.append({"cycle": list(cycle), "problem": "witness failed to replay"})
    return report


def _chords(X, c):
    L = len(c)
    return [(i, j) for i, j in itertools.combinations(range(L), 2)
            if 1 < j - i < L - 1 and X.has_edge(c[i], c[j])]


@given(connected_graph_systems(), st.integers(4, 6), st.integers(1, 4))
def test_the_chord_lemma_only_drops_chorded_inconclusive_entries(system, cap, steps):
    # budgets small enough that searches stop
    bounds = ReductionBounds(max_cycle_len=cap, max_steps=steps)
    X = build_complex(system)
    ref = reference_simple_connectivity(system, bounds)
    new = verify_simple_connectivity(system, bounds)
    # a chordless cycle is paired and searched as before; a chorded one is
    # never enumerated, so it is neither an instance nor an entry
    assert new.instances == 1 + sum(1 for c in kk.embedded_cycles(X, cap)
                                    if not _chords(X, c))
    assert new.failures == [f for f in ref.failures
                            if "cycle" not in f or not _chords(X, f["cycle"])]
    assert new.inconclusive == [e for e in ref.inconclusive if not _chords(X, e["cycle"])]


def test_the_sweep_searches_each_chordless_cycle_once(monkeypatch):
    system = kk.load_system(kk.save_system(kk.lattice_model(5, 5)))  # no descent backend
    X = build_complex(system)
    searched = []
    real = kakimizu.verify.reduce_cycle_homotopy

    def counting(X, cycle, *args):
        searched.append(tuple(cycle))
        return real(X, cycle, *args)

    monkeypatch.setattr(kakimizu.verify, "reduce_cycle_homotopy", counting)
    assert verify_simple_connectivity(system).verdict == "pass"
    chordless = list(kk.embedded_cycles(X, 3))
    chordless += [c for n in range(4, 9) for c in kk.induced_cycles(X, n)]
    assert len(searched) == len(set(searched))
    assert sorted(searched) == sorted(chordless)


def test_flag_rp2_has_one_cocycle_and_keeps_searching(flag_rp2):
    X = build_complex(flag_rp2, max_dim=3)
    assert (len(X.vertices), len(X.edges), len(X.simplices(2))) == (31, 90, 60)
    assert str(kk.homology_h1(X)) == "Z/2"
    assert len(mod2_cocycles(X)) == 1
    report = verify_simple_connectivity(flag_rp2, ReductionBounds(6, 100))
    assert report.failures[0]["h1"] == "Z/2"
    flagged = _flagged(report)
    assert len(flagged) == 315 and set(flagged.values()) == {0}
    # the 155 chordless cycles that pair evenly are still searched: the
    # non-strict descent stops on 80 of them with no applicable move, and the
    # generic search it hands them to contracts all 80; the 930 chorded
    # cycles up to length 6 are never enumerated
    assert len(report.inconclusive) == 0
    assert report.instances == 1 + len(flagged) + 155 == 471
    assert len(report.failures) == 1 + len(flagged)


def test_cocycle_that_fails_to_check_is_reported_and_dropped(monkeypatch):
    # hexagon g0..g5 with a triangle g0-g1-g6 on one side: H1 = Z
    system = kk.graph_to_system(7, [(i, (i + 1) % 6) for i in range(6)] + [(0, 6), (1, 6)])
    good = mod2_cocycles(build_complex(system))
    assert len(good) == 1
    bad = (("g0", "g6"),)   # odd on the triangle g0-g1-g6
    monkeypatch.setattr(kakimizu.verify, "mod2_cocycles", lambda X: (bad,) + good)
    report = verify_simple_connectivity(system)
    assert {"problem": "cocycle failed to check", "cocycle": 0} in report.failures
    flagged = _flagged(report)
    assert flagged and set(flagged.values()) == {1}
    assert report.failures[0]["cocycles"] == [[["g0", "g6"]], [list(e) for e in good[0]]]


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


def test_json_carries_girth_witness_and_criterion(lattice5, hexagon_system):
    claims = {c["claim"]: c for c in json.loads(run_suite(lattice5, "all").to_json())["claims"]}
    assert claims["link_girth_6"]["girth_witness"]["length"] == 6
    assert claims["contractible_if_2d"]["criterion"]["conclusion"] == "contractible"
    # a hexagon's links are pairs of points: no link cycle, so no witness key
    claims = {c["claim"]: c for c in json.loads(run_suite(hexagon_system, "all").to_json())["claims"]}
    assert "girth_witness" not in claims["link_girth_6"]
    assert claims["contractible_if_2d"]["criterion"]["h1"] == "Z"


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
    tight = ReductionBounds(max_cycle_len=4, max_steps=10)
    report = verify_simple_connectivity(lattice5, tight)
    # 3- and 4-cycles only, and the tiny budget may leave some unresolved
    assert report.verdict in ("pass", "inconclusive")


def _unreplayable(X, cycle, max_len=None, max_steps=100_000):
    # claims success with a move that either fails to apply (no diagonal) or
    # leaves an edge behind instead of the constant cycle
    start = tuple(cycle)
    return kk.HomotopyResult(True, start, (("shorten", 0),), (start[0],), 1, "claimed")


def test_residue_claim_names_the_vertex_its_apex_misses():
    # the certificate reads the adjacency sets; drop the edge {0, 1} after
    # construction, and the materialized simplex (0, 1) has apex 0 without 1
    X = FlagComplex(range(3), [(0, 1), (1, 2)], max_dim=3)
    X._adjset = {**X._adjset, 0: X._adjset[0] - {1}, 1: X._adjset[1] - {0}}
    report = verify_residues_sc(X)
    assert report.instances == len(X.simplices()) == 5
    assert report.failures == [{"simplex": [0, 1], "vertex": 1,
                                "problem": "residue is not a cone"}]
    assert report.inconclusive == []
    assert report.verdict == "fail"


def test_simple_connectivity_reductions_must_replay(monkeypatch):
    monkeypatch.setattr(kakimizu.verify, "reduce_cycle_homotopy", _unreplayable)
    # the 6-wheel: H1 = 0, so its rim g0..g5 is searched, not certified
    wheel = kk.graph_to_system(7, [(i, (i + 1) % 6) for i in range(6)]
                               + [(i, 6) for i in range(6)])
    loaded = kk.load_system(kk.save_system(wheel))   # no descent backend
    report = verify_simple_connectivity(loaded)
    ring = [f"g{i}" for i in range(6)]
    assert {"cycle": ring, "problem": "witness failed to replay"} in report.failures
    assert not report.inconclusive


def test_run_suite_computes_each_fact_once(monkeypatch):
    system = kk.lattice_model(5, 5)
    snf_calls, builds = [], []
    real_snf = kakimizu.homology.smith_invariants
    real_init = FlagComplex.__init__

    def counting_snf(rows):
        snf_calls.append(len(rows))
        return real_snf(rows)

    def counting_init(self, vertices, edges, max_dim=3):
        builds.append(max_dim)
        real_init(self, vertices, edges, max_dim)

    monkeypatch.setattr(kakimizu.homology, "smith_invariants", counting_snf)
    monkeypatch.setattr(FlagComplex, "__init__", counting_init)
    report = run_suite(system, "all")
    assert report.verdict == "pass"
    assert len(snf_calls) == 1   # the spanning-forest relators, once
    assert builds == [3]         # the system's complex, and no link or residue complex


def test_patterns_are_validated_once_at_the_boundary_and_never_in_run_suite(monkeypatch):
    text = kk.save_system(kk.lattice_model(4, 4))
    n_patterns = len(json.loads(text)["patterns"])
    calls = []
    real_validate = kakimizu.patterns.validate_pattern

    def counting_validate(p):
        calls.append(p)
        return real_validate(p)

    # the one binding: a pattern validates itself through it, on first read
    monkeypatch.setattr(kakimizu.patterns, "validate_pattern", counting_validate)
    system = kk.load_system(text)
    # one call per distinct value, and its pairs share the validated object
    stored = system.stored_patterns().values()
    assert n_patterns == len(stored) > len(calls)
    assert sorted(calls) == sorted(set(stored))
    assert len({id(p) for p in stored}) == len(calls)
    calls.clear()
    assert run_suite(system, "all").verdict == "pass"
    assert calls == []
    # a model flips some pairs into canonical order before the constructor
    # validates them; that flip validates nothing, and each distinct pattern
    # object (one per distance and orientation) is validated once
    line = kk.line_model(0, 12)
    stored = line.stored_patterns().values()
    assert len(calls) == len({id(p) for p in stored}) == len(set(stored)) < len(stored)
    calls.clear()
    assert run_suite(line, "all").verdict == "pass"
    assert calls == []
