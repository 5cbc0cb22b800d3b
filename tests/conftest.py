import itertools
import json
import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

import kakimizu as kk
from kakimizu.patterns import validate_pattern
from kakimizu.systems import SystemFormatError

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def line10():
    return kk.line_model(0, 10)


@pytest.fixture(scope="session")
def lattice7():
    return kk.lattice_model(7, 7)


@pytest.fixture(scope="session")
def lattice5():
    return kk.lattice_model(5, 5)


@pytest.fixture(scope="session")
def hexagon_system():
    return kk.graph_to_system(6, [(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture(scope="session")
def hexagon_complex(hexagon_system):
    return kk.build_complex(hexagon_system, max_dim=3)


# the 6-vertex real projective plane (hemi-icosahedron), 10 triangles
RP2_TRIANGLES = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
                 (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]


def flag_rp2_system():
    """Barycentric subdivision of the 6-vertex RP^2, as a graph system: the
    order complex of a face poset is a flag complex."""
    faces = sorted({frozenset(f) for t in RP2_TRIANGLES
                    for r in (1, 2, 3) for f in itertools.combinations(t, r)},
                   key=lambda f: (len(f), sorted(f)))
    index = {f: i for i, f in enumerate(faces)}
    edges = [(index[f], index[g]) for f in faces for g in faces if f < g]
    return kk.graph_to_system(len(faces), edges)


@pytest.fixture(scope="session")
def flag_rp2():
    return flag_rp2_system()


def random_pattern(rng, allow_empty=True):
    """Random valid pattern: support window meeting {0, 1}, counts 1..5."""
    if allow_empty and rng.random() < 0.1:
        return kk.OffsetPattern()
    a = rng.randint(-6, 1)
    b = rng.randint(max(a, 0 if a <= 0 else 1), 6)
    counts = tuple(rng.randint(1, 5) for _ in range(b - a + 1))
    return kk.OffsetPattern(a, counts)


def random_system(rng):
    """Random small system with arbitrary (valid) patterns, for round trips."""
    n = rng.randint(2, 12)
    ids = sorted({f"s{rng.randint(0, 99)}" for _ in range(n)} | {"s0"})
    vertices = [(vid, kk.Complexity(rng.randint(0, 9), rng.randint(0, 9)))
                for vid in ids]
    patterns = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if rng.random() < 0.4:
                pat = random_pattern(rng, allow_empty=False)
                patterns[(ids[i], ids[j])] = pat
    return kk.SurfaceSystem(vertices, patterns)


def random_graph_systems(count, max_vertices, seed):
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        n = rng.randint(3, max_vertices)
        p = rng.uniform(0.1, 0.5)
        edges = kk.random_connected_graph(n, p, rng)
        systems.append(kk.graph_to_system(n, edges))
    return systems


@st.composite
def connected_graph_systems(draw):
    """``graph_to_system`` on a random connected graph of up to 9 vertices."""
    n = draw(st.integers(2, 9))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs = [p for p in itertools.combinations(range(n), 2) if p not in tree]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return kk.graph_to_system(n, tree + [p for p, k in zip(pairs, keep) if k])


@st.composite
def flag_complexes(draw):
    """Clique complex of a random graph on up to 9 vertices."""
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return kk.FlagComplex(range(n), [e for e, k in zip(pairs, keep) if k], max_dim=3)


def reference_embedded_cycles(X, max_len, min_len=3):
    """The depth-first enumerator that ``embedded_cycles`` replaced, kept as
    its order oracle: every path from the least vertex, pruned by graph
    distance to it, with the mirror orientation dropped only at closing."""
    if min_len < 3:
        raise ValueError("embedded cycles have at least 3 edges")
    for s in X.vertices:
        dist = X.distances_from(s)
        stack = [(s,)]
        while stack:
            path = stack.pop()
            last = path[-1]
            for w in X.neighbors(last):
                if w <= s or w in path:
                    continue
                # closing from w costs dist(w, s) more edges
                d = dist.get(w)
                if d is None or len(path) + d > max_len:
                    continue
                new = path + (w,)
                n = len(new)
                if n >= min_len and X.has_edge(w, s) and new[1] < w:
                    yield new
                if n < max_len:
                    stack.append(new)


def reference_induced_cycles(X, length):
    """The per-length depth-first search that ``induced_cycles`` replaced,
    kept as its order oracle: every path from the least vertex, pruned by
    graph distance to it, whose inner vertices have no chord."""
    if length < 3:
        raise ValueError("cycles have at least 3 edges")
    for s in X.vertices:
        dist = X.distances_from(s)
        stack = [(s,)]
        while stack:
            path = stack.pop()
            last = path[-1]
            n = len(path)
            for w in X.neighbors(last):
                if w <= s or w in path:
                    continue
                d = dist.get(w)
                if d is None or n + d > length:
                    continue
                if n + 1 < length:
                    # interior vertex: must avoid the start (once past the
                    # first position) and everything before the predecessor,
                    # or a diagonal appears
                    if n >= 2 and X.has_edge(w, s):
                        continue
                    if any(X.has_edge(w, u) for u in path[1:-1]):
                        continue
                    stack.append(path + (w,))
                else:
                    # closing vertex: adjacent to the start, nothing else
                    if not X.has_edge(w, s) or path[1] >= w:
                        continue
                    if any(X.has_edge(w, u) for u in path[1:-1]):
                        continue
                    yield path + (w,)


def reference_load_system(text):
    """The loader that ``load_system`` replaced, kept as its oracle: it
    builds and validates a new pattern for every entry, sharing none."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SystemFormatError("top level must be an object")
    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise SystemFormatError("vertices: must be a nonempty list")
    vertices = {}
    for i, entry in enumerate(raw_vertices):
        where = f"vertices[{i}]"
        if not isinstance(entry, dict):
            raise SystemFormatError(f"{where}: must be an object")
        vid = entry.get("id")
        if not isinstance(vid, str) or not vid:
            raise SystemFormatError(f"{where}.id: must be a nonempty string")
        if vid in vertices:
            raise SystemFormatError(f"{where}.id: duplicate id {vid!r}")
        cx = entry.get("complexity")
        if (not isinstance(cx, list) or len(cx) != 2
                or any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in cx)):
            raise SystemFormatError(f"{where}.complexity: must be a pair of non-negative integers")
        vertices[vid] = kk.Complexity(cx[0], cx[1])
    patterns = {}
    raw_patterns = data.get("patterns", [])
    if not isinstance(raw_patterns, list):
        raise SystemFormatError("patterns: must be a list")
    for i, entry in enumerate(raw_patterns):
        where = f"patterns[{i}]"
        if not isinstance(entry, dict):
            raise SystemFormatError(f"{where}: must be an object")
        u, v = entry.get("u"), entry.get("v")
        if not isinstance(u, str) or not isinstance(v, str):
            raise SystemFormatError(f"{where}.u/.v: must be strings")
        if u not in vertices or v not in vertices:
            raise SystemFormatError(f"{where}: unknown vertex in pair ({u!r}, {v!r})")
        if not u < v:
            raise SystemFormatError(f"{where}: pair must be listed in canonical order (u < v)")
        if (u, v) in patterns:
            raise SystemFormatError(f"{where}: duplicate pair ({u!r}, {v!r})")
        start = entry.get("support_start")
        if not isinstance(start, int) or isinstance(start, bool):
            raise SystemFormatError(f"{where}.support_start: must be an integer")
        counts = entry.get("counts")
        if not isinstance(counts, list) or not counts:
            raise SystemFormatError(f"{where}.counts: must be a nonempty list")
        pat = kk.OffsetPattern(start, tuple(counts))
        problems = validate_pattern(pat)
        if problems:
            raise SystemFormatError(f"{where}: " + "; ".join(problems))
        patterns[(u, v)] = pat
    return kk.SurfaceSystem._from_checked(vertices, patterns)


def reference_pair_claims(system):
    """The three pair loops that the one pair pass replaced, kept as its
    oracle: one distance table per source, from a complex of the system's
    own, and the numbers read off each pair's pattern.  Returns each claim's
    (instances, failures), in the order ``run_suite`` lists them."""
    from kakimizu.patterns import _intersection_unchecked, _spread_unchecked

    def spread(u, v):
        return _spread_unchecked(system.pattern(u, v))

    def intersection(u, v):
        return _intersection_unchecked(system.pattern(u, v))

    ids = system.vertex_ids()
    X = kk.FlagComplex(ids, [p for p in itertools.combinations(ids, 2) if system.disjoint(*p)],
                       max_dim=1)
    distance, st_bound, cs_le_i = [0, []], [0, []], [0, []]
    for u in ids:
        dist = X.distances_from(u)
        for v in ids:
            if v <= u:
                continue
            distance[0] += 1
            d = dist.get(v)
            cs = spread(u, v)
            if d != cs + 1:
                distance[1].append({"u": u, "v": v, "distance": d, "spread": cs})
    for u in ids:
        dist = X.distances_from(u)
        for v in ids:
            if v <= u:
                continue
            st_bound[0] += 1
            d = dist.get(v)
            inum = intersection(u, v)
            if d is None or d > inum + 1:
                st_bound[1].append({"u": u, "v": v, "distance": d, "intersection": inum})
    for u, v in itertools.combinations(ids, 2):
        cs_le_i[0] += 1
        cs = spread(u, v)
        inum = intersection(u, v)
        if cs > inum:
            cs_le_i[1].append({"u": u, "v": v, "spread": cs, "intersection": inum})
    return tuple(map(tuple, (distance, st_bound, cs_le_i)))


def complex_to_nx(X):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(X.vertices)
    g.add_edges_from(X.edges)
    return g
