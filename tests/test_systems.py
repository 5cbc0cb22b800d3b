import gc
import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

import kakimizu as kk
from kakimizu import (BackendContractError, Complexity, OffsetPattern,
                      SurfaceSystem, SystemFormatError, UnsupportedBackend,
                      build_complex, covering_spread, double_curve_sum, geodesic,
                      intersection_number, kakimizu_null_homotopy, load_system,
                      save_system)
from kakimizu.homotopy import _replays_to_point
from kakimizu.patterns import EMPTY_PATTERN

from conftest import (complex_to_nx, connected_graph_systems, random_pattern, random_system,
                      reference_load_system)


# -- Complexity ---------------------------------------------------------------


def test_complexity_orders_lexicographically():
    assert Complexity(1, 9) < Complexity(2, 0)
    assert Complexity(2, 1) < Complexity(2, 3)
    assert Complexity(1, 1) + Complexity(2, 3) == Complexity(3, 4)


def test_complexity_rejects_negatives():
    with pytest.raises(ValueError):
        Complexity(-1, 0)


# -- SurfaceSystem invariants --------------------------------------------------


def test_pattern_lookup_dualizes_reverse_orientation():
    system = SurfaceSystem(
        [("a", Complexity()), ("b", Complexity())],
        {("a", "b"): OffsetPattern(0, (1, 2))},
    )
    assert system.pattern("a", "b") == OffsetPattern(0, (1, 2))
    assert system.pattern("b", "a") == kk.dualize(OffsetPattern(0, (1, 2)))
    assert system.spread("a", "b") == system.spread("b", "a") == 2


def test_absent_pair_means_disjoint():
    system = SurfaceSystem([("a", Complexity()), ("b", Complexity())])
    assert system.pattern("a", "b").is_empty()
    assert system.disjoint("a", "b")


def test_system_rejects_bad_tables():
    verts = [("a", Complexity()), ("b", Complexity())]
    with pytest.raises(SystemFormatError, match="duplicate vertex"):
        SurfaceSystem(verts + [("a", Complexity())])
    with pytest.raises(SystemFormatError, match="canonical order"):
        SurfaceSystem(verts, {("b", "a"): OffsetPattern(1, (1,))})
    with pytest.raises(SystemFormatError, match="unknown vertex"):
        SurfaceSystem(verts, {("a", "z"): OffsetPattern(1, (1,))})
    with pytest.raises(SystemFormatError, match="omitted"):
        SurfaceSystem(verts, {("a", "b"): OffsetPattern()})
    with pytest.raises(SystemFormatError, match="support misses"):
        SurfaceSystem(verts, {("a", "b"): OffsetPattern(3, (1,))})


def test_the_pattern_table_is_kept_in_the_order_given():
    # nothing reads the table in order, so it is not sorted; the file is
    verts = [(v, Complexity()) for v in "abcd"]
    one = OffsetPattern(1, (1,))
    given = {("c", "d"): one, ("a", "c"): one, ("b", "d"): OffsetPattern(1, (2,))}
    system = SurfaceSystem(verts, given)
    assert list(system.stored_patterns()) == [("c", "d"), ("a", "c"), ("b", "d")]
    assert system.vertex_ids() == ("a", "b", "c", "d")
    text = save_system(system)
    assert [(p["u"], p["v"]) for p in json.loads(text)["patterns"]] == [
        ("a", "c"), ("b", "d"), ("c", "d")]
    assert save_system(load_system(text)) == text
    # of two bad keys, the first given is the one refused
    with pytest.raises(SystemFormatError, match=r"\('c', 'z'\)"):
        SurfaceSystem(verts, {("c", "z"): one, ("a", "y"): one})


def test_empty_id_is_refused_on_both_sides_of_a_round_trip():
    # the constructor refuses what load_system refuses, so save_system
    # never writes a file that cannot be read back
    with pytest.raises(SystemFormatError, match="must be a nonempty string"):
        SurfaceSystem([("", Complexity()), ("a", Complexity())])
    doc = json.loads(save_system(SurfaceSystem([("a", Complexity())])))
    doc["vertices"].insert(0, {"id": "", "complexity": [0, 0]})
    with pytest.raises(SystemFormatError, match=r"^vertices\[0\]\.id: must be a nonempty string$"):
        load_system(json.dumps(doc))


def test_a_system_without_vertices_is_refused_on_both_sides_of_a_round_trip():
    # save_system would write a file that load_system refuses, so the
    # constructor refuses it too, with the loader's message
    text = '{\n  "vertices": [],\n  "patterns": []\n}\n'
    with pytest.raises(SystemFormatError) as loaded:
        load_system(text)
    with pytest.raises(SystemFormatError) as built:
        SurfaceSystem([])
    assert str(built.value) == str(loaded.value) == "vertices: must be a nonempty list"
    one = SurfaceSystem([("a", Complexity())])
    assert load_system(save_system(one)) == one


def test_self_pattern_is_undefined():
    system = SurfaceSystem([("a", Complexity()), ("b", Complexity())],
                           {("a", "b"): OffsetPattern(1, (1,))})
    for read in (system.pattern, system.disjoint, system.spread, system.intersection):
        with pytest.raises(ValueError, match="^pattern of a vertex with itself is undefined$"):
            read("a", "a")


def test_pair_readers_reject_unknown_vertices():
    system = SurfaceSystem([("a", Complexity()), ("b", Complexity())],
                           {("a", "b"): OffsetPattern(1, (1,))})
    for read in (system.pattern, system.disjoint, system.spread, system.intersection):
        for pair in (("a", "z"), ("z", "a")):
            with pytest.raises(ValueError, match="^unknown vertex 'z'$"):
                read(*pair)


systems_with_any_patterns = st.one_of(
    connected_graph_systems(),
    st.integers(0, 2**30).map(lambda seed: random_system(random.Random(seed))),
)


@given(systems_with_any_patterns)
def test_pair_readers_agree_with_the_public_pattern_functions(system):
    for u, v in itertools.permutations(system.vertex_ids(), 2):
        pat = system.pattern(u, v)
        assert system.pattern(v, u) == kk.dualize(pat)
        assert system.disjoint(u, v) == pat.is_empty()
        assert system.spread(u, v) == covering_spread(pat)
        assert system.intersection(u, v) == intersection_number(pat)


@given(systems_with_any_patterns)
def test_complex_edges_are_the_pairs_with_empty_patterns(system):
    ids = system.vertex_ids()
    assert build_complex(system).edges == {
        (u, v) for u, v in itertools.combinations(ids, 2) if system.pattern(u, v).is_empty()}


# -- file format ---------------------------------------------------------------


def test_load_two_disjoint_vertices():
    text = json.dumps({"vertices": [{"id": "a", "complexity": [0, 0]},
                                    {"id": "b", "complexity": [0, 0]}]})
    system = load_system(text)
    X = build_complex(system)
    assert X.has_edge("a", "b")


def test_load_spread_one_pair_gives_distance_two():
    text = json.dumps({
        "vertices": [{"id": "a", "complexity": [0, 0]},
                     {"id": "b", "complexity": [0, 0]},
                     {"id": "c", "complexity": [0, 0]}],
        "patterns": [{"u": "a", "v": "c", "support_start": 1, "counts": [1]}],
    })
    system = load_system(text)
    assert system.spread("a", "c") == 1
    assert build_complex(system).distance("a", "c") == 2


def second_entry(counts):
    """Add patterns[1], the pair (a, e) with ``counts`` from translate 1,
    after the valid ``[1]`` of patterns[0]: an equal value is then already
    validated when the loader reads it."""
    def mutate(doc):
        doc["vertices"].append({"id": "e", "complexity": [0, 0]})
        doc["patterns"].append({"u": "a", "v": "e", "support_start": 1, "counts": counts})
    return mutate


# each case keeps the id it had when it matched only a fragment of its message
@pytest.mark.parametrize("mutate, message", [
    pytest.param(lambda d: d["patterns"][0].update(support_start=3),
                 "patterns[0]: support misses {0,1}",
                 id="<lambda>-support misses"),
    pytest.param(lambda d: d["patterns"][0].update(counts=[1, 0]),
                 "patterns[0]: counts[1] = 0: zero count breaks contiguity",
                 id="<lambda>-zero count"),
    pytest.param(lambda d: d["patterns"][0].update(counts=[1, -2]),
                 "patterns[0]: counts[1] = -2: counts must be positive",
                 id="<lambda>-negative count"),
    pytest.param(lambda d: d["patterns"][0].update(counts=[1, 1.5]),
                 "patterns[0]: counts[1] = 1.5: count must be an integer",
                 id="<lambda>-float count"),
    pytest.param(lambda d: d["patterns"][0].update(counts=[True]),
                 "patterns[0]: counts[0] = True: count must be an integer",
                 id="<lambda>-bool count"),
    pytest.param(lambda d: d["patterns"][0].update(support_start=3, counts=[0, -1]),
                 "patterns[0]: counts[0] = 0: zero count breaks contiguity; "
                 "counts[1] = -1: counts must be positive; support misses {0,1}",
                 id="<lambda>-every problem"),
    pytest.param(lambda d: d["patterns"][0].update(support_start=True),
                 "patterns[0].support_start: must be an integer",
                 id="<lambda>-bool support_start"),
    pytest.param(lambda d: d["patterns"][0].update(counts=[]),
                 "patterns[0].counts: must be a nonempty list",
                 id="<lambda>-counts"),
    pytest.param(lambda d: d["patterns"][0].update(u="c", v="a"),
                 "patterns[0]: pair must be listed in canonical order (u < v)",
                 id="<lambda>-canonical order"),
    pytest.param(lambda d: d["patterns"][0].update(u="zz"),
                 "patterns[0]: unknown vertex in pair ('zz', 'c')",
                 id="<lambda>-unknown vertex"),
    pytest.param(lambda d: d["patterns"].append(dict(d["patterns"][0])),
                 "patterns[1]: duplicate pair ('a', 'c')",
                 id="<lambda>-duplicate pair"),
    pytest.param(second_entry([True]),
                 "patterns[1]: counts[0] = True: count must be an integer",
                 id="second entry-bool count"),
    pytest.param(second_entry([1.0]),
                 "patterns[1]: counts[0] = 1.0: count must be an integer",
                 id="second entry-float count"),
    pytest.param(second_entry([[1]]),
                 "patterns[1]: counts[0] = [1]: count must be an integer",
                 id="second entry-list count"),
    pytest.param(second_entry([{"counts": [1]}]),
                 "patterns[1]: counts[0] = {'counts': [1]}: count must be an integer",
                 id="second entry-object count"),
    pytest.param(lambda d: d["vertices"].append({"id": "a", "complexity": [0, 0]}),
                 "vertices[2].id: duplicate id 'a'",
                 id="<lambda>-duplicate id"),
    pytest.param(lambda d: d["vertices"][0].update(complexity=[-1, 0]),
                 "vertices[0].complexity: must be a pair of non-negative integers",
                 id="<lambda>-non-negative"),
    pytest.param(lambda d: d["vertices"][0].pop("id"),
                 "vertices[0].id: must be a nonempty string",
                 id="<lambda>-id"),
])
def test_load_diagnostics_cite_entry_and_field(mutate, message):
    doc = {
        "vertices": [{"id": "a", "complexity": [0, 0]},
                     {"id": "c", "complexity": [0, 0]}],
        "patterns": [{"u": "a", "v": "c", "support_start": 1, "counts": [1]}],
    }
    mutate(doc)
    with pytest.raises(SystemFormatError) as excinfo:
        load_system(json.dumps(doc))
    assert str(excinfo.value) == message


def test_loaded_pairs_share_one_pattern_per_value(lattice7):
    system = load_system(save_system(lattice7))
    assert system == lattice7
    assert len({id(p) for p in system.stored_patterns().values()}) == 11
    # the loader it replaced made one object per pair
    text = save_system(kk.line_model(100, 160))
    for load, objects in ((load_system, 59), (reference_load_system, 1770)):
        stored = load(text).stored_patterns().values()
        assert (len(stored), len({id(p) for p in stored})) == (1770, objects)


MUTANT_COUNTS = [True, 1.0, 0, -1, "1", None, [1], {"counts": [1]}, 2**70]


@st.composite
def mutated_saved_systems(draw, mutation):
    """The saved text of a random system whose pairs draw their patterns from
    a pool of three, with one entry mutated: one count set to ``mutation``,
    or with ``"start"`` its support shifted, or with ``"duplicate"`` its pair
    listed again later.  The entry is one whose value equals an earlier
    entry's, so the loader has already validated that value."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = [random_pattern(rng, allow_empty=False) for _ in range(3)]
    ids = [f"s{i}" for i in range(draw(st.integers(4, 7)))]
    patterns = {p: rng.choice(pool) for p in itertools.combinations(ids, 2)}
    doc = json.loads(save_system(SurfaceSystem([(v, Complexity()) for v in ids], patterns)))
    entries = doc["patterns"]
    values = [(e["support_start"], e["counts"]) for e in entries]
    # six pairs or more over three values: some value repeats
    i = draw(st.sampled_from([i for i, v in enumerate(values) if v in values[:i]]))
    entry = entries[i]
    if mutation == "start":
        entry["support_start"] += draw(st.sampled_from([-2, -1, 1, 2]))
    elif mutation == "duplicate":
        entries.insert(draw(st.integers(i + 1, len(entries))), dict(entry))
    else:
        entry["counts"][draw(st.integers(0, len(entry["counts"]) - 1))] = mutation
    return json.dumps(doc)


@pytest.mark.parametrize("mutation", [*MUTANT_COUNTS, "start", "duplicate"], ids=repr)
@settings(max_examples=25)
@given(data=st.data())
def test_load_matches_the_unshared_reference_loader(mutation, data):
    text = data.draw(mutated_saved_systems(mutation))
    try:
        expected = reference_load_system(text)
    except SystemFormatError as exc:
        with pytest.raises(SystemFormatError) as excinfo:
            load_system(text)
        assert str(excinfo.value) == str(exc)
    else:
        system = load_system(text)
        assert system == expected
        stored = system.stored_patterns().values()
        assert len({id(p) for p in stored}) == len(set(stored))


def test_constructor_validates_each_pattern_object_once(lattice7, hexagon_system):
    for system in (kk.line_model(0, 12), lattice7, hexagon_system):
        stored = system.stored_patterns().values()
        assert len({id(p) for p in stored}) == len(set(stored)) < len(stored)
    # equal is not enough: True == 1, so the second object is validated too
    good, bad = OffsetPattern(1, (1,)), OffsetPattern(1, (True,))
    assert good == bad
    with pytest.raises(SystemFormatError, match=r"^pattern pair \('a', 'c'\): counts\[0\] = "
                                                r"True: count must be an integer$"):
        SurfaceSystem([(v, Complexity()) for v in "abc"], {("a", "b"): good, ("a", "c"): bad})


@pytest.mark.parametrize("text, refused", [
    (save_system(kk.line_model(0, 6)), False),
    ("{nope", True),
    ('{"vertices": [{"id": "a", "complexity": [0]}]}', True),
], ids=["loaded", "bad JSON", "bad entry"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc on", "gc off"])
def test_load_leaves_the_garbage_collector_as_it_found_it(text, refused, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            load_system(text)
            loaded = True
        except SystemFormatError:
            loaded = False
        assert (loaded, gc.isenabled()) == (not refused, enabled)
    finally:
        (gc.enable if was else gc.disable)()


def test_numbers_are_kept_once_per_pattern_object(lattice7):
    for system in (load_system(save_system(lattice7)), kk.line_model(0, 12),
                   kk.graph_to_system(6, [(i, (i + 1) % 6) for i in range(6)])):
        ids = system.vertex_ids()
        for u, v in itertools.permutations(ids, 2):
            system.spread(u, v)
            system.intersection(u, v)
        objects = {id(p) for p in system.stored_patterns().values()}
        assert set(system._numbers) == objects | {id(EMPTY_PATTERN)}


def test_load_rejects_garbage():
    with pytest.raises(SystemFormatError, match="invalid JSON"):
        load_system("{nope")
    with pytest.raises(SystemFormatError, match="top level"):
        load_system("[]")
    with pytest.raises(SystemFormatError, match="vertices"):
        load_system("{}")


def test_round_trip_is_identity_on_canonical_form():
    rng = random.Random(0)
    for _ in range(25):
        system = random_system(rng)
        text = save_system(system)
        again = load_system(text)
        assert again == system
        assert save_system(again) == text


@st.composite
def systems_to_save(draw):
    """Small systems with arbitrary (non-ASCII included) ids, big
    complexities and valid patterns on some pairs, often none."""
    ids = sorted(draw(st.lists(st.text(min_size=1, max_size=4), unique=True,
                               min_size=1, max_size=6)))
    vertices = [(vid, Complexity(draw(st.integers(0, 10**20)), draw(st.integers(0, 9))))
                for vid in ids]
    rng = random.Random(draw(st.integers(0, 2**32)))
    patterns = {p: random_pattern(rng, allow_empty=False)
                for p in itertools.combinations(ids, 2) if draw(st.booleans())}
    return SurfaceSystem(vertices, patterns)


@given(systems_to_save())
@example(SurfaceSystem([("\u00e9\u2603", Complexity(0, 3)), ("\U0001d54a", Complexity(7, 0))], {}))
def test_save_system_writes_the_indented_json_layout(system):
    obj = {
        "vertices": [{"id": vid, "complexity": [cx.primary, cx.secondary]}
                     for vid, cx in system.vertex_items()],
        "patterns": [{"u": u, "v": v, "support_start": pat.support_start,
                      "counts": list(pat.counts)}
                     for (u, v), pat in sorted(system.stored_patterns().items())],
    }
    assert save_system(system) == json.dumps(obj, indent=2) + "\n"


def test_loaded_systems_have_no_backend():
    system = load_system(save_system(kk.line_model(0, 4)))
    assert not system.supports_dcs
    with pytest.raises(UnsupportedBackend):
        double_curve_sum(system, "u0", "u3")


# -- line model ----------------------------------------------------------------


def test_line_adjacent_pair_is_disjoint(line10):
    assert line10.disjoint("u0", "u1")


def test_line_spread_and_distance(line10):
    assert line10.spread("u0", "u5") == 4
    X = build_complex(line10, max_dim=1)
    assert X.distance("u0", "u5") == 5
    g = complex_to_nx(X)
    assert nx.shortest_path_length(g, "u0", "u5") == 5


def test_line_reverse_pattern_support(line10):
    assert list(line10.pattern("u5", "u0").support) == [-3, -2, -1, 0]


def test_line_rejects_empty_window():
    with pytest.raises(ValueError, match="empty window"):
        kk.line_model(3, 2)


def test_line_negative_indices_work():
    system = kk.line_model(-2, 2)
    assert system.spread("u-2", "u2") == 3
    assert build_complex(system, 1).distance("u-2", "u2") == 4


# -- lattice model ---------------------------------------------------------------


def test_lattice_diagonal_neighbors_are_disjoint(lattice5):
    assert lattice5.disjoint("0_0", "1_1")


def test_lattice_spread_examples(lattice5):
    assert lattice5.spread("0_0", "2_1") == 1
    assert build_complex(lattice5, 1).distance("0_0", "2_1") == 2


def test_lattice_mixed_sign_pair():
    system = kk.lattice_model(2, 3, a0=0, b0=-1)
    assert system.spread("0_0", "1_-1") == 1
    assert build_complex(system, 1).distance("0_0", "1_-1") == 2


def test_lattice_distance_formula_matches_bfs(lattice5):
    X = build_complex(lattice5, max_dim=1)
    g = complex_to_nx(X)
    ref = dict(nx.all_pairs_shortest_path_length(g))
    for u, v in itertools.combinations(X.vertices, 2):
        pu = tuple(int(t) for t in u.split("_"))
        pv = tuple(int(t) for t in v.split("_"))
        assert kk.lattice_distance(pu, pv) == ref[u][v]


def test_lattice_rejects_degenerate_window():
    with pytest.raises(ValueError, match="2x2"):
        kk.lattice_model(1, 5)


# -- graph-derived systems --------------------------------------------------------


def test_triangle_graph_becomes_a_2_simplex():
    system = kk.graph_to_system(3, [(0, 1), (1, 2), (0, 2)])
    X = build_complex(system, max_dim=3)
    assert X.simplices(2) == (("g0", "g1", "g2"),)


def test_path_graph_endpoints_spread():
    system = kk.graph_to_system(4, [(0, 1), (1, 2), (2, 3)])
    assert system.spread("g0", "g3") == 2


def test_graph_round_trip_rebuilds_the_input_graph():
    rng = random.Random(42)
    edges = kk.random_connected_graph(20, 0.2, rng)
    system = kk.graph_to_system(20, edges)
    X = build_complex(system, max_dim=1)
    rebuilt = {tuple(sorted((int(a[1:]), int(b[1:])))) for a, b in X.edges}
    assert rebuilt == {tuple(sorted(e)) for e in edges}


def test_graph_rejects_disconnected_input():
    with pytest.raises(ValueError, match="connected"):
        kk.graph_to_system(4, [(0, 1), (2, 3)])


@pytest.mark.parametrize("p", [-0.1, 1.5, 2, float("nan")])
def test_random_connected_graph_refuses_a_probability_outside_0_1(p):
    with pytest.raises(ValueError, match="extra_edge_prob must lie in"):
        kk.random_connected_graph(5, p, random.Random(0))


def test_random_connected_graph_is_deterministic_and_connected():
    a = kk.random_connected_graph(15, 0.3, random.Random(5))
    b = kk.random_connected_graph(15, 0.3, random.Random(5))
    assert a == b
    g = nx.Graph(a)
    g.add_nodes_from(range(15))
    assert nx.is_connected(g)


# -- double curve sum ---------------------------------------------------------


def test_dcs_line_examples(line10):
    assert double_curve_sum(line10, "u0", "u5") == ("u4", "u1")
    assert line10.spread("u0", "u4") == 3 < line10.spread("u0", "u5")
    assert double_curve_sum(line10, "u0", "u2") == ("u1", "u1")
    assert double_curve_sum(line10, "u5", "u0") == ("u1", "u4")


def test_dcs_lattice_example(lattice5):
    minus, plus = double_curve_sum(lattice5, "0_0", "2_2")
    assert minus == "1_1"
    assert lattice5.spread("0_0", minus) < lattice5.spread("0_0", "2_2")


def test_dcs_requires_intersection(line10):
    with pytest.raises(ValueError, match="nothing to sum"):
        double_curve_sum(line10, "u0", "u1")


def dcs_contract_holds(system, u, v):
    cs = system.spread(u, v)
    minus, plus = double_curve_sum(system, u, v)
    assert system.disjoint(minus, v)
    assert (0 if minus == u else system.spread(u, minus)) <= cs - 1
    if cs == 1:
        for out in (minus, plus):
            assert system.disjoint(out, u) and system.disjoint(out, v)
    if system.strict_descent:
        lhs = system.complexity(minus) + system.complexity(plus)
        rhs = system.complexity(u) + system.complexity(v)
        assert lhs < rhs


@pytest.mark.parametrize("make", [
    lambda: kk.line_model(0, 10),
    lambda: kk.line_model(-3, 4),
    lambda: kk.lattice_model(5, 5),
    lambda: kk.lattice_model(4, 4, a0=-2, b0=-1),
    lambda: kk.graph_to_system(9, kk.random_connected_graph(9, 0.25, random.Random(3))),
])
def test_dcs_contract_on_all_intersecting_pairs(make):
    system = make()
    ids = system.vertex_ids()
    for u, v in itertools.permutations(ids, 2):
        if not system.disjoint(u, v):
            dcs_contract_holds(system, u, v)


# -- geodesic -------------------------------------------------------------------


def test_geodesic_trivial_cases(line10):
    assert geodesic(line10, "u3", "u3") == ("u3",)
    assert geodesic(line10, "u0", "u1") == ("u1", "u0")


def test_geodesic_line_matches_distance(line10):
    path = geodesic(line10, "u0", "u5")
    assert len(path) - 1 == 5 == build_complex(line10, 1).distance("u0", "u5")


def test_geodesic_lattice_example(lattice5):
    path = geodesic(lattice5, "0_0", "3_1")
    assert len(path) - 1 == 3
    for a, b in zip(path, path[1:]):
        assert lattice5.disjoint(a, b)


def test_geodesic_all_pairs(line10, lattice5):
    for system in (line10, lattice5):
        X = build_complex(system, max_dim=1)
        for u in system.vertex_ids():
            dist = X.distances_from(u)
            for v in system.vertex_ids():
                if u == v:
                    continue
                path = geodesic(system, u, v)
                assert path[0] == v and path[-1] == u
                assert len(path) - 1 == system.spread(u, v) + 1 == dist[v]
                for a, b in zip(path, path[1:]):
                    assert system.disjoint(a, b)


def test_geodesic_bfs_fallback_without_backend():
    system = load_system(save_system(kk.line_model(0, 6)))
    assert not system.supports_dcs
    path = geodesic(system, "u0", "u4")
    assert path[0] == "u4" and path[-1] == "u0" and len(path) - 1 == 4


def test_geodesic_rejects_an_unknown_vertex(line10):
    for u, v in (("nope", "nope"), ("nope", "u0"), ("u0", "nope")):
        with pytest.raises(ValueError, match="unknown vertex 'nope'"):
            geodesic(line10, u, v)


def test_geodesic_reports_backend_contract_breach():
    base = kk.lattice_model(3, 3)

    def broken(system, u, v):
        return (v, u)  # "minus" not even disjoint from v

    bad = SurfaceSystem(base.vertex_items(), base.stored_patterns(),
                        dcs=broken, strict_descent=False)
    with pytest.raises(BackendContractError):
        geodesic(bad, "0_0", "2_2")


# -- descent reduction ------------------------------------------------------------


def test_three_cycle_fills_in_one_essential_move():
    system = kk.graph_to_system(3, [(0, 1), (1, 2), (0, 2)])
    result = kakimizu_null_homotopy(system, ("g0", "g1", "g2"))
    assert result.reduced and result.essential_moves <= 1


def test_line_backtracking_walks_reduce_via_backtracks(line10):
    result = kakimizu_null_homotopy(line10, ("u0", "u1", "u2", "u1"))
    assert result.reduced
    assert result.essential_moves == 0


def test_lattice_vertex_ring_reduces_and_replays(lattice7):
    X = build_complex(lattice7, max_dim=1)
    ring = ("2_1", "2_2", "1_2", "0_1", "0_0", "1_0")
    result = kakimizu_null_homotopy(lattice7, ring, complex=X)
    assert result.reduced
    assert kk.replay(X, ring, result.moves) == result.final
    assert len(result.final) <= 1
    # cross-check against the generic search
    generic = kk.reduce_cycle_homotopy(X, ring, max_len=12, max_steps=50_000)
    assert generic.reduced


def test_descent_reduction_agrees_with_generic_on_lattice(lattice5):
    X = build_complex(lattice5, max_dim=1)
    for cycle in kk.embedded_cycles(X, 6):
        result = kakimizu_null_homotopy(lattice5, cycle, complex=X)
        assert result.reduced, cycle
        assert len(kk.replay(X, cycle, result.moves)) <= 1


def test_descent_traces_replay_in_the_verifier_complex(lattice7):
    # the descent applies its corner cuts and detour substitutions without
    # re-validating them; every trace must still replay move by move
    X = build_complex(lattice7)
    kinds = set()
    for cycle in kk.embedded_cycles(X, 6):
        result = kakimizu_null_homotopy(lattice7, cycle, complex=X)
        assert _replays_to_point(X, cycle, result), cycle
        kinds.update(mv[0] for mv in result.moves)
    assert kinds == {"backtrack", "shorten", "lengthen"}


def test_reduction_degrades_without_backend():
    system = load_system(save_system(kk.lattice_model(3, 3)))
    ring = ("2_1", "2_2", "1_2", "0_1", "0_0", "1_0")
    result = kakimizu_null_homotopy(system, ring)
    assert result.reduced


def test_reduction_budget_reports_inconclusive(hexagon_system):
    ring = tuple(f"g{i}" for i in range(6))
    result = kakimizu_null_homotopy(hexagon_system, ring, max_steps=3)
    assert not result.reduced
    assert result.reason


def test_zero_step_budget_stops_with_and_without_backend():
    # max_steps=0 is a budget of no steps on both paths, not "use the default"
    model = kk.lattice_model(3, 3)
    triangle = build_complex(model, max_dim=2).simplices(2)[0]
    for system in (model, load_system(save_system(model))):
        result = kakimizu_null_homotopy(system, triangle, max_steps=0)
        assert not result.reduced
        assert result.reason == "step budget exhausted"


def test_negative_step_budget_is_refused_with_and_without_backend():
    # as in reduce_cycle_homotopy and ReductionBounds: below 0 there is no
    # budget to spend
    model = kk.lattice_model(3, 3)
    triangle = build_complex(model, max_dim=2).simplices(2)[0]
    for system in (model, load_system(save_system(model))):
        with pytest.raises(ValueError, match="max_steps must be non-negative"):
            kakimizu_null_homotopy(system, triangle, max_steps=-1)


def test_descent_reports_inconsistent_pattern_table():
    # square a-b-c-d whose diagonal pairs sit at distance 2 yet carry spread 2
    spread_two = OffsetPattern(1, (1, 1))

    def no_sum(system, u, v):
        pytest.fail("the descent must stop before summing an inconsistent pair")

    system = SurfaceSystem([("a", (0, 0)), ("b", (5, 0)), ("c", (0, 0)), ("d", (1, 0))],
                           {("a", "c"): spread_two, ("b", "d"): spread_two},
                           dcs=no_sum, strict_descent=True)
    square = ("a", "b", "c", "d")
    result = kakimizu_null_homotopy(system, square)
    assert not result.reduced
    assert result.final == square
    assert result.reason == ("inconsistent pattern table: 'a' and 'c' are at "
                             "distance 2 but have spread 2")
