import itertools
import random

import networkx as nx
import pytest
import sympy
from hypothesis import example, given, strategies as st
from sympy.matrices.normalforms import smith_normal_form

import kakimizu as kk
import kakimizu.homology
from kakimizu import FlagComplex, build_complex, embedded_cycles, induced_cycles

from conftest import (complex_to_nx, connected_graph_systems, flag_complexes, flag_rp2_system,
                      random_graph_systems, reference_embedded_cycles,
                      reference_induced_cycles)


def triangle():
    return FlagComplex("abc", [("a", "b"), ("b", "c"), ("a", "c")], max_dim=3)


def hexagon():
    return FlagComplex(range(6), [(i, (i + 1) % 6) for i in range(6)], max_dim=3)


# -- construction and flagness ----------------------------------------------


def test_single_vertex_system_is_a_point():
    system = kk.SurfaceSystem([("only", kk.Complexity())])
    X = build_complex(system)
    assert X.vertices == ("only",)
    assert X.dim == 0


def test_line_window_is_a_path_graph():
    X = build_complex(kk.line_model(0, 3))
    assert X.edges == frozenset({("u0", "u1"), ("u1", "u2"), ("u2", "u3")})
    assert X.simplices(2) == ()
    assert X.dim == 1


def test_lattice_window_is_a_triangulated_grid():
    X = build_complex(kk.lattice_model(3, 3))
    assert len(X.vertices) == 9
    assert len(X.edges) == 16
    assert len(X.simplices(2)) == 8
    assert X.dim == 2


def test_cliques_match_networkx_enumeration():
    for system in random_graph_systems(5, 12, seed=3):
        X = build_complex(system, max_dim=3)
        g = complex_to_nx(X)
        expected = {tuple(sorted(c)) for c in nx.enumerate_all_cliques(g) if len(c) <= 4}
        assert set(X.simplices()) == expected


def test_flag_property_every_3_cycle_bounds_a_triangle(lattice5):
    X = build_complex(lattice5, max_dim=3)
    for cycle in embedded_cycles(X, 3):
        assert X.is_simplex(cycle)


def test_rejects_self_loops_and_unknown_endpoints():
    with pytest.raises(ValueError, match="self-loop"):
        FlagComplex("ab", [("a", "a")])
    with pytest.raises(ValueError, match="unknown vertex"):
        FlagComplex("ab", [("a", "c")])


# -- distance ----------------------------------------------------------------


def test_distance_trivial_cases():
    X = triangle()
    assert X.distance("a", "a") == 0
    assert X.distance("a", "b") == 1


def test_distance_on_line_model():
    X = build_complex(kk.line_model(0, 4))
    assert X.distance("u0", "u4") == 4


def test_distance_unreachable_returns_none():
    X = FlagComplex("abcd", [("a", "b"), ("c", "d")])
    assert X.distance("a", "c") is None


def test_distance_unknown_vertex():
    with pytest.raises(ValueError, match="unknown vertex"):
        triangle().distance("a", "z")


def test_distance_matches_networkx_and_is_a_metric():
    for system in random_graph_systems(5, 15, seed=11):
        X = build_complex(system, max_dim=1)
        g = complex_to_nx(X)
        ref = dict(nx.all_pairs_shortest_path_length(g))
        ids = X.vertices
        d = {u: X.distances_from(u) for u in ids}
        for u in ids:
            assert d[u] == ref[u]
        for u, v in itertools.combinations(ids, 2):
            assert d[u][v] == d[v][u]
        for u, v, w in itertools.combinations(ids, 3):
            assert d[u][w] <= d[u][v] + d[v][w]


def test_shortest_path_is_lexicographically_least():
    # two geodesics from a to d: a-b-d and a-c-d; the b route sorts first
    X = FlagComplex("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    assert X.shortest_path("a", "d") == ("a", "b", "d")


# -- link and residue --------------------------------------------------------


def test_link_of_vertex_in_triangle_is_an_edge():
    lk = triangle().link(("a",))
    assert lk.vertices == ("b", "c")
    assert lk.edges == frozenset({("b", "c")})


def test_link_of_interior_lattice_vertex_is_a_hexagon():
    X = build_complex(kk.lattice_model(3, 3))
    lk = X.link(("1_1",))
    assert len(lk.vertices) == 6
    assert len(lk.edges) == 6
    assert all(len(lk.neighbors(v)) == 2 for v in lk.vertices)
    assert lk.simplices(2) == ()


def test_link_of_maximal_simplex_is_empty():
    lk = triangle().link(("a", "b", "c"))
    assert lk.vertices == ()
    assert lk.dim == -1


def test_link_rejects_non_simplices():
    X = hexagon()
    with pytest.raises(ValueError, match="not a simplex"):
        X.link((0, 2))


def test_residue_is_join_of_simplex_and_link(lattice5):
    X = build_complex(lattice5, max_dim=3)
    rng = random.Random(5)
    simplices = list(X.simplices())
    for s in rng.sample(simplices, 25):
        res = X.residue(s)
        lk = X.link(s)
        assert set(res.vertices) == set(s) | set(lk.vertices)
        assert len(res.vertices) == len(s) + len(lk.vertices)
        # join edges: within the simplex, within the link, and all between
        expected = {tuple(sorted(e)) for e in itertools.combinations(s, 2)}
        expected |= set(lk.edges)
        expected |= {tuple(sorted((a, b))) for a in s for b in lk.vertices}
        assert set(res.edges) == expected


def test_residue_of_vertex_in_triangle_is_whole_triangle():
    res = triangle().residue(("b",))
    assert res.vertices == ("a", "b", "c")
    assert res.simplices(2) == (("a", "b", "c"),)


# -- cycle enumeration -------------------------------------------------------


def brute_embedded_cycles(X, max_len):
    """Subset-based oracle: every vertex subset arranged into a cycle."""
    found = set()
    for size in range(3, max_len + 1):
        for subset in itertools.combinations(X.vertices, size):
            for perm in itertools.permutations(subset[1:]):
                cycle = (subset[0],) + perm
                if all(X.has_edge(cycle[i], cycle[(i + 1) % size]) for i in range(size)):
                    found.add(kk.canonical_cycle(cycle))
    return found


def test_embedded_cycles_match_brute_force():
    X = build_complex(kk.lattice_model(3, 2), max_dim=3)
    mine = {kk.canonical_cycle(c) for c in embedded_cycles(X, 6)}
    assert mine == brute_embedded_cycles(X, 6)
    for system in random_graph_systems(3, 8, seed=23):
        X = build_complex(system, max_dim=1)
        mine = {kk.canonical_cycle(c) for c in embedded_cycles(X, 6)}
        assert mine == brute_embedded_cycles(X, 6)


def test_embedded_cycles_emitted_once_and_valid(lattice5):
    X = build_complex(lattice5, max_dim=1)
    seen = set()
    for c in embedded_cycles(X, 6):
        key = kk.canonical_cycle(c)
        assert key not in seen
        seen.add(key)
        assert len(set(c)) == len(c)
        kk.validate_cycle(X, c)


@given(flag_complexes(), st.integers(3, 8))
def test_embedded_cycles_match_the_reference_in_order(X, cap):
    # isolated vertices and disconnected graphs included; the list, in its
    # order, is what the sweep reports cycles in
    for min_len in range(3, cap + 1):
        assert (list(embedded_cycles(X, cap, min_len))
                == list(reference_embedded_cycles(X, cap, min_len)))


def test_embedded_cycles_of_the_12x12_lattice_match_the_reference():
    X = build_complex(kk.lattice_model(12, 12))
    cycles = list(embedded_cycles(X, 8))
    assert len(cycles) == 17563
    assert cycles == list(reference_embedded_cycles(X, 8))
    chordless = list(embedded_cycles(X, 8, chordless=True))
    assert len(chordless) == 603
    assert chordless == [c for c in cycles if not has_chord(X, c)]


@given(connected_graph_systems(), st.integers(3, 6), st.integers(3, 6))
def test_chordless_embedded_cycles_are_the_filtered_reference_in_order(system, cap, m):
    # the simple_connectivity sweep reads this mode, so its failure and
    # inconclusive lists keep the order of the full walk
    X = build_complex(system)
    assert (list(embedded_cycles(X, cap, m, chordless=True))
            == [c for c in reference_embedded_cycles(X, cap, m) if not has_chord(X, c)])


def test_the_sc_suite_runs_no_all_pairs_bfs():
    # each start's cycles are searched inside its own ball, and the H1
    # forest keeps its BFS to itself, so no distance is cached
    system = kk.lattice_model(5, 5)
    kk.run_suite(system, "sc")
    assert build_complex(system)._distances == {}


def has_chord(X, c):
    n = len(c)
    return any(X.has_edge(c[i], c[j]) for i in range(n) for j in range(i + 2, n - (i == 0)))


@given(flag_complexes(), st.integers(3, 7))
def test_induced_cycles_are_the_diagonal_free_embedded_ones(X, length):
    # the chordless walk yields what filtering the full walk does, in the
    # full walk's order, and in the order of the per-length search it replaced
    found = list(induced_cycles(X, length))
    assert found == list(reference_induced_cycles(X, length))
    assert found == [c for c in embedded_cycles(X, length, length) if not has_chord(X, c)]


# -- largeness ---------------------------------------------------------------


def test_triangle_is_k_large_for_all_k():
    for k in (4, 6, 10):
        assert kk.is_k_large(triangle(), k) == (True, None)


def test_square_without_diagonals_fails_from_5():
    X = FlagComplex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert kk.is_k_large(X, 4) == (True, None)
    ok, witness = kk.is_k_large(X, 5)
    assert not ok
    assert kk.canonical_cycle(witness) == ("a", "b", "c", "d")


def test_lattice_window_is_6_large_but_not_7_large(lattice5):
    X = build_complex(lattice5, max_dim=3)
    assert kk.is_k_large(X, 6) == (True, None)
    ok, witness = kk.is_k_large(X, 7)
    assert not ok and len(witness) == 6


def test_k_requires_at_least_4():
    with pytest.raises(ValueError):
        kk.is_k_large(triangle(), 3)


def test_locally_k_large_examples(lattice5):
    assert kk.is_locally_k_large(triangle(), 6) == (True, None)
    X = build_complex(lattice5, max_dim=3)
    assert kk.is_locally_k_large(X, 6) == (True, None)
    # a cone over a diagonal-free square: the apex residue contains the square
    cone = FlagComplex("abcdx", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"),
                                 ("a", "x"), ("b", "x"), ("c", "x"), ("d", "x")])
    ok, witness = kk.is_locally_k_large(cone, 5)
    assert not ok
    assert witness["cycle"] == ("a", "b", "c", "d")


def chordless(G, max_len):
    """Chordless cycles of 4..max_len vertices in a networkx graph."""
    return [c for c in nx.chordless_cycles(G, length_bound=max_len) if len(c) >= 4]


def wheel(rim):
    """Cone with apex ``rim`` over a diagonal-free ``rim``-gon."""
    edges = [(i, (i + 1) % rim) for i in range(rim)] + [(i, rim) for i in range(rim)]
    return FlagComplex(range(rim + 1), edges, max_dim=3)


@given(flag_complexes(), st.sampled_from([5, 6, 7]))
@example(wheel(5), 6)
@example(wheel(6), 7)
def test_locally_k_large_matches_residue_oracle(X, k):
    # oracle: scan the residue of every clique, not just vertex links
    G = complex_to_nx(X)
    expected = True
    for clique in nx.enumerate_all_cliques(G):
        common = set.intersection(*(set(G[v]) for v in clique))
        if chordless(G.subgraph(set(clique) | common), k - 1):
            expected = False
            break
    ok, witness = kk.is_locally_k_large(X, k)
    assert ok == expected
    if not ok:
        cycle = witness["cycle"]
        assert 4 <= len(cycle) < k
        assert kk.canonical_cycle(cycle) in {kk.canonical_cycle(c) for c in chordless(G, k - 1)}


@given(flag_complexes())
@example(wheel(5))
def test_link_girth_failures_are_the_chordless_link_cycles(X):
    G = complex_to_nx(X)
    expected = {(v, kk.canonical_cycle(c))
                for v in X.vertices for c in chordless(G.subgraph(G[v]), 5)}
    report = kk.verify_link_girth(X)
    found = [(f["link_of"], kk.canonical_cycle(f["cycle"])) for f in report.failures]
    assert len(found) == len(set(found))
    assert set(found) == expected
    assert all(f["problem"] == "diagonal-free short cycle" for f in report.failures)


@given(flag_complexes(), st.integers(3, 7))
@example(wheel(5), 5)
@example(wheel(6), 6)
def test_link_cycles_are_the_induced_cycles_of_the_link(X, length):
    for v in X.vertices:
        assert X.link_cycles(v, length) == tuple(reference_induced_cycles(X.link((v,)), length))


def test_link_cycles_build_no_complex_and_no_distance(monkeypatch):
    X = build_complex(kk.lattice_model(5, 5))
    builds = []
    real_init = FlagComplex.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(FlagComplex, "__init__", counting_init)
    assert [c for v in X.vertices for c in X.link_cycles(v, 6)]
    assert builds == [] and X._distances == {}


def test_link_cycles_refuse_unknown_vertices_and_short_lengths():
    X = hexagon()
    with pytest.raises(ValueError, match="unknown vertex"):
        X.link_cycles(6, 4)
    with pytest.raises(ValueError, match="at least 3"):
        X.link_cycles(0, 2)


# -- homology ----------------------------------------------------------------


def test_h1_of_a_triangle_is_trivial():
    h1 = kk.homology_h1(triangle())
    assert h1.is_trivial()
    assert str(h1) == "0"


def test_h1_of_hexagon_is_free_of_rank_one():
    h1 = kk.homology_h1(hexagon())
    assert h1.free_rank == 1 and not h1.torsion
    assert str(h1) == "Z"


def test_h1_of_lattice_windows_is_trivial(lattice5):
    assert kk.homology_h1(build_complex(lattice5, max_dim=3)).is_trivial()
    assert kk.homology_h1(build_complex(kk.line_model(0, 6), max_dim=2)).is_trivial()


def test_h1_of_wedge_of_circles():
    # two squares sharing one vertex: free rank 2
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
             ("a", "p"), ("p", "q"), ("q", "r"), ("r", "a")]
    X = FlagComplex("abcdpqr", edges, max_dim=2)
    assert kk.homology_h1(X) == kk.H1Structure(2)


RP2 = build_complex(flag_rp2_system(), max_dim=3)


@given(st.one_of(connected_graph_systems().map(lambda s: build_complex(s, max_dim=3)),
                 flag_complexes()))
@example(RP2)
@example(FlagComplex(RP2.vertices + tuple(f"h{i}" for i in range(6)),
                     sorted(RP2.edges) + [(f"h{i}", f"h{(i + 1) % 6}") for i in range(6)]))
def test_h1_free_rank_matches_clique_complex_b1(X):
    # oracle: H1 = ker d1 / im d2 with rank d1 = V - components from networkx,
    # and the free rank and torsion from sympy's Smith normal form of the full
    # E x T d2 over the networkx cliques; flag_complexes may be disconnected,
    # and the examples are flag RP^2 (Z/2) and it beside a hexagon (Z + Z/2)
    G = complex_to_nx(X)
    assert kk.contractibility_report(X).connected == nx.is_connected(G)
    edges = sorted(tuple(sorted(e)) for e in G.edges())
    index = {e: i for i, e in enumerate(edges)}
    tris = [tuple(sorted(c)) for c in nx.enumerate_all_cliques(G) if len(c) == 3]
    factors = []
    if tris:
        d2 = sympy.zeros(len(edges), len(tris))
        for j, (a, b, c) in enumerate(tris):
            d2[index[(b, c)], j] = 1
            d2[index[(a, c)], j] = -1
            d2[index[(a, b)], j] = 1
        snf = smith_normal_form(d2, domain=sympy.ZZ)
        factors = sorted(abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i])
    rank_d1 = G.number_of_nodes() - nx.number_connected_components(G)
    expected = kk.H1Structure(len(edges) - rank_d1 - len(factors),
                              tuple(d for d in factors if d > 1))
    assert kk.homology_h1(X) == expected


def test_h1_of_flag_rp2_is_z2(flag_rp2):
    X = build_complex(flag_rp2, max_dim=3)
    assert (len(X.vertices), len(X.edges), len(X.simplices(2)), X.dim) == (31, 90, 60, 2)
    assert kk.homology_h1(X) == kk.H1Structure(0, (2,))
    assert str(kk.homology_h1(X)) == "Z/2"
    rep = kk.contractibility_report(X)
    assert rep.conclusion == "no conclusion from this criterion"
    assert "H1 = Z/2 is nontrivial" in rep.reasons


def test_lattice_relators_give_one_unit_factor_each():
    # the triangulated grid is a collapsible disc: its relators have full
    # rank and every invariant factor is 1, so H1 has neither rank nor torsion
    X = build_complex(kk.lattice_model(12, 12), max_dim=3)
    generators, relators = kk.complexes._relators(X)
    assert len(relators) == 242
    assert kakimizu.homology.smith_invariants(relators) == [1] * len(relators)
    assert kk.homology_h1(X).is_trivial()


def test_h1_needs_two_skeleton():
    X = FlagComplex("ab", [("a", "b")], max_dim=1)
    with pytest.raises(ValueError, match="2-skeleton"):
        kk.homology_h1(X)
    with pytest.raises(ValueError, match="2-skeleton"):
        kk.mod2_cocycles(X)


# -- contractibility criterion ------------------------------------------------


def test_point_is_contractible():
    X = FlagComplex("a", [], max_dim=3)
    assert kk.contractibility_report(X).conclusion == "contractible"


def test_lattice_window_is_contractible(lattice5):
    rep = kk.contractibility_report(build_complex(lattice5, max_dim=3))
    assert rep.dim == 2 and rep.locally_6_large and rep.conclusion == "contractible"


def test_hexagon_yields_no_conclusion_with_h1_flagged(hexagon_complex):
    rep = kk.contractibility_report(hexagon_complex)
    assert rep.conclusion == "no conclusion from this criterion"
    assert str(rep.h1) == "Z"
    assert any("nontrivial" in r for r in rep.reasons)


def test_capped_dimension_gives_no_conclusion():
    # a 4-clique materialized only to dimension 2 cannot certify dim <= 2
    X = FlagComplex("abcd", list(itertools.combinations("abcd", 2)), max_dim=2)
    rep = kk.contractibility_report(X)
    assert rep.dim_is_lower_bound
    assert rep.conclusion == "no conclusion from this criterion"


# -- exports -----------------------------------------------------------------


def test_dot_export_golden():
    X = FlagComplex("abc", [("a", "b")], max_dim=2)
    assert kk.to_dot(X) == 'graph {\n  "c";\n  "a" -- "b";\n}\n'


def test_dot_export_escapes_quotes_in_ids():
    # an id may hold a double quote, which DOT writes as \" inside quotes
    X = FlagComplex(['a"b', "c", 'd"'], [('a"b', "c")], max_dim=2)
    assert kk.to_dot(X) == 'graph {\n  "d\\"";\n  "a\\"b" -- "c";\n}\n'


def test_dot_export_refuses_an_id_ending_in_a_backslash():
    # DOT has no escape for a backslash, so "a\" would never close; one
    # inside an id is written as it is
    with pytest.raises(ValueError, match=r"vertex id 'a\\\\' ends in a backslash"):
        kk.to_dot(FlagComplex(["a\\", "b"], [("a\\", "b")]))
    assert kk.to_dot(FlagComplex(["a\\b", "c"], [("a\\b", "c")])) == (
        'graph {\n  "a\\b" -- "c";\n}\n')


def test_simplex_listing_golden():
    assert kk.simplex_listing(triangle()) == (
        "a\nb\nc\na b\na c\nb c\na b c\n")


def test_exports_deterministic(lattice5):
    X = build_complex(lattice5, max_dim=3)
    assert kk.to_dot(X) == kk.to_dot(build_complex(lattice5, max_dim=3))
    assert kk.simplex_listing(X) == kk.simplex_listing(build_complex(lattice5, max_dim=3))
