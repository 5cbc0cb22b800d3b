"""Surface systems: abstract vertex families with pairwise intersection patterns.

A :class:`SurfaceSystem` is the desk-scale stand-in for the set of minimal
genus Seifert surfaces of a knot: a finite list of vertex ids, a complexity
per vertex, and one :class:`~kakimizu.patterns.OffsetPattern` per vertex pair
(absent means disjoint).  Patterns are stored once, for the lexicographically
smaller ordered pair; the reverse orientation is always derived by
:func:`~kakimizu.patterns.dualize`, so the table cannot go out of sync.

Model backends (line, lattice, graph-derived) additionally provide a double
curve sum: an operation producing, for an intersecting pair, interpolating
vertices that are disjoint from one input and strictly closer to the other in
covering spread.  That single contract drives both the geodesic construction
and the complexity-descent cycle reduction.
"""
from __future__ import annotations

import gc
import heapq
import itertools
import json
import random
from dataclasses import dataclass
from operator import attrgetter

from .complexes import FlagComplex, build_complex
from .homotopy import (HomotopyResult, _apply_unchecked, normalize_cycle,
                       reduce_cycle_homotopy, validate_cycle)
from .patterns import (EMPTY_PATTERN, OffsetPattern, _dualize_unchecked,
                       _intersection_unchecked, _spread_unchecked, validate_pattern)


class SystemFormatError(ValueError):
    """A system description violates the file schema or a pattern invariant."""


class UnsupportedBackend(RuntimeError):
    """The backend lacks the capability the operation needs."""


class BackendContractError(RuntimeError):
    """A backend returned data breaking its declared contract."""


@dataclass(frozen=True, order=True)
class Complexity:
    """Lexicographically ordered pair of non-negative integers; adds
    componentwise so complexity sums can be compared in reduction."""

    primary: int = 0
    secondary: int = 0

    def __post_init__(self):
        for x in (self.primary, self.secondary):
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise ValueError(f"complexity entries must be non-negative integers, got {x!r}")

    def __add__(self, other: "Complexity") -> "Complexity":
        return Complexity(self.primary + other.primary, self.secondary + other.secondary)


def canonical_pair(u, v):
    return (u, v) if u < v else (v, u)


class SurfaceSystem:
    """Finite abstract family of surface classes.

    ``vertices`` is an iterable of ``(id, Complexity)``; ``patterns`` maps the
    canonically ordered id pair to a nonempty valid pattern.  ``dcs`` is an
    optional backend callable ``(system, u, v) -> (minus, plus)`` and
    ``strict_descent`` declares the complexity inequality
    ``c(minus) + c(plus) < c(u) + c(v)`` for every summed pair.

    Each pattern is validated once, at the boundary: here for a system built
    from Python data, in :func:`load_system` for a system read from a file.
    Here that is once per distinct pattern object, tracked by identity, so a
    table whose pairs share one pattern (as the models' do) validates it
    once; an equal object is validated on its own, since ``True`` equals 1.
    Nothing after construction validates again: spread and intersection are
    read off the stored table unchecked, and :meth:`disjoint` is a lookup of
    the pair's key, since only nonempty patterns are stored.

    Spread and intersection are computed once per stored pattern object,
    keyed by identity, plus once for ``EMPTY_PATTERN``, never per pair: a
    table whose pairs share a few objects holds a few numbers, and
    :meth:`spread` and :meth:`intersection` are two lookups.  A system has
    at least one vertex, as a file must.  The pattern table is kept in the
    order it was given, since nothing reads it in order; :func:`save_system`
    sorts what it writes.
    """

    def __init__(self, vertices, patterns=None, dcs=None, strict_descent=False):
        verts = {}
        for vid, cx in vertices:
            if not isinstance(vid, str) or not vid:
                raise SystemFormatError(f"vertex id {vid!r}: must be a nonempty string")
            if vid in verts:
                raise SystemFormatError(f"duplicate vertex id {vid!r}")
            if not isinstance(cx, Complexity):
                cx = Complexity(*cx)
            verts[vid] = cx
        if not verts:
            # load_system refuses such a file, so no system may have one
            raise SystemFormatError("vertices: must be a nonempty list")
        patterns = patterns or {}
        pats = {}
        checked = set()   # ids of the pattern objects already validated
        for key, pat in patterns.items():
            u, v = key
            if u not in verts or v not in verts:
                raise SystemFormatError(f"pattern pair {key!r} mentions an unknown vertex")
            if not u < v:
                raise SystemFormatError(f"pattern pair {key!r} is not in canonical order")
            if pat.is_empty():
                raise SystemFormatError(f"pattern pair {key!r}: empty patterns must be omitted")
            if id(pat) not in checked:
                problems = validate_pattern(pat)
                if problems:
                    raise SystemFormatError(f"pattern pair {key!r}: " + "; ".join(problems))
                checked.add(id(pat))
            # the caller's key tuple is kept, not copied: one tuple per pair
            pats[key if type(key) is tuple else (u, v)] = pat
        self._adopt(dict(sorted(verts.items())), pats, dcs, strict_descent)

    @classmethod
    def _from_checked(cls, vertices: dict, patterns: dict) -> "SurfaceSystem":
        """A backend-free system over tables that have already passed every
        check :meth:`__init__` makes; nothing is validated again.  This is
        :func:`load_system`'s way in, which checks each entry itself so that
        its errors can name the entry.  The pattern table is adopted as it
        is, not copied."""
        system = cls.__new__(cls)
        system._adopt(dict(sorted(vertices.items())), patterns, None, False)
        return system

    def _adopt(self, vertices: dict, patterns: dict, dcs, strict_descent) -> None:
        # the vertex table is sorted by id, since vertex_ids() order is
        # output; the pattern table is kept in the caller's order
        self._vertices = vertices
        self._patterns = patterns
        # id of a stored pattern object, or of EMPTY_PATTERN -> (spread,
        # intersection); the table keeps each object alive, so its id is
        # stable, and dualize keeps both numbers, so one entry serves both
        # orders of every pair that shares the object
        self._numbers = {}
        self._complexes = {}   # max_dim -> FlagComplex, filled by build_complex
        # the failures of the three pair claims, from verify's one pass over
        # the pairs, made by whichever of those claims runs first
        self._pair_failures = None
        self._dcs = dcs
        self.strict_descent = bool(strict_descent)

    @property
    def supports_dcs(self) -> bool:
        return self._dcs is not None

    def vertex_ids(self) -> tuple:
        return tuple(self._vertices)

    def complexity(self, v) -> Complexity:
        if v not in self._vertices:
            raise ValueError(f"unknown vertex {v!r}")
        return self._vertices[v]

    def _require_pair(self, u, v) -> None:
        if u == v:
            raise ValueError("pattern of a vertex with itself is undefined")
        for x in (u, v):
            if x not in self._vertices:
                raise ValueError(f"unknown vertex {x!r}")

    def pattern(self, u, v) -> OffsetPattern:
        """Pattern of the ordered pair (u, v); the reverse of the stored
        orientation is obtained by dualizing."""
        self._require_pair(u, v)
        stored = self._patterns.get(canonical_pair(u, v))
        if stored is None:
            return EMPTY_PATTERN
        return stored if u < v else _dualize_unchecked(stored)

    def disjoint(self, u, v) -> bool:
        self._require_pair(u, v)
        return canonical_pair(u, v) not in self._patterns

    def spread(self, u, v) -> int:
        return self._pair_numbers(u, v)[0]

    def intersection(self, u, v) -> int:
        return self._pair_numbers(u, v)[1]

    def _pair_numbers(self, u, v) -> tuple:
        pat = self._patterns.get(canonical_pair(u, v))
        if pat is None:
            # only a valid pair has a stored pattern, so only here can the
            # pair be refused
            self._require_pair(u, v)
            pat = EMPTY_PATTERN
        return self._pattern_numbers(pat)

    def _pattern_numbers(self, pat: OffsetPattern) -> tuple:
        """(spread, intersection) of a stored pattern object or of
        ``EMPTY_PATTERN``, computed once per object."""
        numbers = self._numbers.get(id(pat))
        if numbers is None:
            numbers = self._numbers[id(pat)] = (_spread_unchecked(pat),
                                                _intersection_unchecked(pat))
        return numbers

    def stored_patterns(self) -> dict:
        """A copy of the pattern table, in the order it was given."""
        return dict(self._patterns)

    def vertex_items(self) -> tuple:
        return tuple(self._vertices.items())

    def __eq__(self, other):
        if not isinstance(other, SurfaceSystem):
            return NotImplemented
        return self._vertices == other._vertices and self._patterns == other._patterns

    def __repr__(self):
        return (f"SurfaceSystem({len(self._vertices)} vertices, "
                f"{len(self._patterns)} patterns, dcs={self.supports_dcs})")


# -- file format -------------------------------------------------------------


def load_system(text: str) -> SurfaceSystem:
    """Parse the JSON system format, diagnosing errors by entry and field.

    This is the boundary for file input: every entry is checked here, and
    the first error is raised naming its entry (``patterns[3]: counts[1] =
    0: zero count breaks contiguity``).  Each distinct pattern value is
    validated once, when it is first seen, and every pair with that value
    shares the one :class:`OffsetPattern`; only counts that are all exact
    ints may share, since ``True`` and ``1.0`` compare equal to ``1``.  The
    checked tables go to the system as they are, without a second pass.

    The loader makes only acyclic data (decoded JSON values, tuples,
    patterns and the system's tables), which the cyclic garbage collector
    can never free, yet a large file would trigger its passes over all of
    it.  So the collector is paused while the text is decoded and the
    tables are built, and the caller's setting is restored on the way out,
    error or not.

    Loaded systems carry no double-curve-sum backend: the file format
    describes intersection data only, and new interpolating vertices cannot
    be synthesized from it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_system(text)
    finally:
        if enabled:
            gc.enable()


def _load_system(text: str) -> SurfaceSystem:
    # an entry's label (``patterns[3]``) is formatted only when the entry is
    # refused, not once per entry of a file that may hold millions
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
        if not isinstance(entry, dict):
            raise SystemFormatError(f"vertices[{i}]: must be an object")
        vid = entry.get("id")
        if not isinstance(vid, str) or not vid:
            raise SystemFormatError(f"vertices[{i}].id: must be a nonempty string")
        if vid in vertices:
            raise SystemFormatError(f"vertices[{i}].id: duplicate id {vid!r}")
        cx = entry.get("complexity")
        if (not isinstance(cx, list) or len(cx) != 2
                or any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in cx)):
            raise SystemFormatError(
                f"vertices[{i}].complexity: must be a pair of non-negative integers")
        vertices[vid] = Complexity(cx[0], cx[1])
    patterns = {}
    shared = {}   # (support_start, counts) -> the one validated pattern of that value
    raw_patterns = data.get("patterns", [])
    if not isinstance(raw_patterns, list):
        raise SystemFormatError("patterns: must be a list")
    for i, entry in enumerate(raw_patterns):
        if not isinstance(entry, dict):
            raise SystemFormatError(f"patterns[{i}]: must be an object")
        u, v = entry.get("u"), entry.get("v")
        if not isinstance(u, str) or not isinstance(v, str):
            raise SystemFormatError(f"patterns[{i}].u/.v: must be strings")
        if u not in vertices or v not in vertices:
            raise SystemFormatError(f"patterns[{i}]: unknown vertex in pair ({u!r}, {v!r})")
        if not u < v:
            raise SystemFormatError(
                f"patterns[{i}]: pair must be listed in canonical order (u < v)")
        key = (u, v)
        if key in patterns:
            raise SystemFormatError(f"patterns[{i}]: duplicate pair ({u!r}, {v!r})")
        start = entry.get("support_start")
        if not isinstance(start, int) or isinstance(start, bool):
            raise SystemFormatError(f"patterns[{i}].support_start: must be an integer")
        counts = entry.get("counts")
        if not isinstance(counts, list) or not counts:
            raise SystemFormatError(f"patterns[{i}].counts: must be a nonempty list")
        counts = tuple(counts)
        # only exact ints may share: True and 1.0 equal 1, and a list count
        # cannot be hashed, so any other counts skip the lookup and reach
        # validate_pattern, which refuses them; a value it accepts holds only
        # ints, so it can be a key
        exact = set(map(type, counts)) == {int}
        pat = shared.get((start, counts)) if exact else None
        if pat is None:
            pat = OffsetPattern(start, counts)
            problems = validate_pattern(pat)
            if problems:
                raise SystemFormatError(f"patterns[{i}]: " + "; ".join(problems))
            shared[(start, counts)] = pat
        patterns[key] = pat
    return SurfaceSystem._from_checked(vertices, patterns)


def _json_list(items: list, pad: str) -> str:
    """Already encoded ``items`` as a JSON list in the ``indent=2`` layout,
    closing at indent ``pad``."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def save_system(system: SurfaceSystem) -> str:
    """Serialize in canonical form: sorted vertices, sorted nonempty patterns.

    The text is exactly ``json.dumps(obj, indent=2) + "\\n"`` of the object
    ``{"vertices": [{"id", "complexity"}], "patterns": [{"u", "v",
    "support_start", "counts"}]}``, written directly: with an indent, ``json``
    falls back to its pure-Python encoder.  Strings go through
    ``json.dumps`` and integers through ``int.__repr__``, as ``json`` writes
    them."""
    dump, num = json.dumps, int.__repr__
    vertices = [
        '{\n      "id": ' + dump(vid) + ',\n      "complexity": '
        + _json_list([num(cx.primary), num(cx.secondary)], "      ") + "\n    }"
        for vid, cx in system.vertex_items()
    ]
    patterns = [
        '{\n      "u": ' + dump(u) + ',\n      "v": ' + dump(v)
        + ',\n      "support_start": ' + num(pat.support_start)
        + ',\n      "counts": ' + _json_list(list(map(num, pat.counts)), "      ") + "\n    }"
        for (u, v), pat in sorted(system._patterns.items())
    ]
    return ('{\n  "vertices": ' + _json_list(vertices, "  ")
            + ',\n  "patterns": ' + _json_list(patterns, "  ") + "\n}\n")


# -- model backends ----------------------------------------------------------


def _store(patterns: dict, shared: dict, u: str, v: str, d: int) -> None:
    """Store the models' pattern of a pair at distance ``d``, ``d - 1`` unit
    counts from translate 1, under the canonical key, dualized when the given
    orientation flips.  Each ``(d, flip)`` is made once and shared through
    ``shared`` by every pair that has it, so the constructor validates it
    once; dualizing preserves validity, so the flip itself does not validate."""
    key = canonical_pair(u, v)
    flip = key != (u, v)
    pat = shared.get((d, flip))
    if pat is None:
        pat = OffsetPattern(1, (1,) * (d - 1))
        pat = shared[(d, flip)] = _dualize_unchecked(pat) if flip else pat
    patterns[key] = pat


def line_model(n_min: int, n_max: int) -> SurfaceSystem:
    """Linearly ordered stack of surfaces ``u_n``: consecutive ones disjoint,
    and a pair ``n - m`` apart meets in ``n - m - 1`` translates, once each.

    The disjointness complex is a path graph.  Complexities grow like
    ``n^2``, which makes the double curve sum strictly complexity-decreasing.
    """
    if n_min > n_max:
        raise ValueError("empty window")
    index = {f"u{n}": n for n in range(n_min, n_max + 1)}
    vertices = [(f"u{n}", Complexity(n * n, 0)) for n in range(n_min, n_max + 1)]
    patterns, shared = {}, {}
    for m in range(n_min, n_max + 1):
        for n in range(m + 2, n_max + 1):
            _store(patterns, shared, f"u{m}", f"u{n}", n - m)

    def dcs(system, u, v):
        m, n = index[u], index[v]
        if m < n:
            return (f"u{n - 1}", f"u{m + 1}")
        return (f"u{n + 1}", f"u{m - 1}")

    return SurfaceSystem(vertices, patterns, dcs=dcs, strict_descent=True)


def lattice_distance(p: tuple, q: tuple) -> int:
    """Word metric of the triangular lattice with steps
    (±1,0), (0,±1), (±1,±1) of equal signs."""
    da, db = q[0] - p[0], q[1] - p[1]
    if da * db >= 0:
        return max(abs(da), abs(db))
    return abs(da) + abs(db)


def _lattice_step(frm: tuple, to: tuple) -> tuple:
    """One unit step from ``frm`` decreasing lattice distance to ``to``.
    Sign-compatible displacements step diagonally; mixed signs step in the
    first coordinate, so the step from u toward v is always the negative of
    the step from v toward u."""
    da, db = to[0] - frm[0], to[1] - frm[1]
    if da == 0 and db == 0:
        raise ValueError("no step between equal points")
    sa = (da > 0) - (da < 0)
    sb = (db > 0) - (db < 0)
    if da * db >= 0:
        return (frm[0] + sa, frm[1] + sb)
    return (frm[0] + sa, frm[1])


def lattice_model(width: int, height: int, a0: int = 0, b0: int = 0) -> SurfaceSystem:
    """Two-parameter family on a ``width x height`` window of the triangular
    lattice; a pair at graph distance D meets in D - 1 translates, once each.

    The disjointness complex is the triangulated grid: 2-dimensional, and the
    testbed for the locally-6-large/contractibility machinery.  Complexity is
    the lattice quadratic form ``a^2 + b^2 - ab``, under which stepping both
    endpoints toward each other strictly lowers the complexity sum.
    """
    if width < 2 or height < 2:
        raise ValueError("window must be at least 2x2")
    coords = [(a, b) for a in range(a0, a0 + width) for b in range(b0, b0 + height)]

    def vid(p):
        return f"{p[0]}_{p[1]}"

    def q(p):
        return p[0] * p[0] + p[1] * p[1] - p[0] * p[1]

    ids = {p: vid(p) for p in coords}
    decode = {v: p for p, v in ids.items()}
    vertices = [(ids[p], Complexity(q(p), 0)) for p in coords]
    patterns, shared = {}, {}
    for p, r in itertools.combinations(coords, 2):
        d = lattice_distance(p, r)
        if d >= 2:
            _store(patterns, shared, *canonical_pair(ids[p], ids[r]), d)

    def dcs(system, u, v):
        # a step toward the other point stays in their bounding box, so in
        # the window
        pu, pv = decode[u], decode[v]
        minus = _lattice_step(pv, pu)
        plus = _lattice_step(pu, pv)
        return (ids[minus], ids[plus])

    return SurfaceSystem(vertices, patterns, dcs=dcs, strict_descent=True)


def graph_to_system(n_vertices: int, edges) -> SurfaceSystem:
    """System whose disjointness graph is the given connected simple graph:
    a pair at graph distance D gets the pattern with D - 1 unit counts.

    The distance/spread relation then holds by construction, which makes
    these systems consistency fuzzers for the pipeline rather than
    independent tests of the theory.  Distances and geodesics are read off
    the graph as a 1-dimensional :class:`FlagComplex`: the double curve sum
    takes the first step of each input's least geodesic (``shortest_path``)
    towards the other.  No complexity descent is declared, so reductions
    over these systems run under a step budget.
    """
    if n_vertices < 1:
        raise ValueError("need at least one vertex")
    ids = [f"g{i}" for i in range(n_vertices)]
    edges = list(edges)
    for a, b in edges:
        if a == b:
            raise ValueError(f"self-loop at {a}")
        if not (0 <= a < n_vertices and 0 <= b < n_vertices):
            raise ValueError(f"edge ({a}, {b}) out of range")
    G = FlagComplex(range(n_vertices), edges, max_dim=1)
    if len(G.distances_from(0)) != n_vertices:
        raise ValueError("graph must be connected")
    vertices = [(vid, Complexity(0, 0)) for vid in ids]
    patterns, shared = {}, {}
    for i in range(n_vertices):
        dist = G.distances_from(i)
        for j in range(i + 1, n_vertices):
            if dist[j] >= 2:
                _store(patterns, shared, ids[i], ids[j], dist[j])
    index = {vid: i for i, vid in enumerate(ids)}

    def dcs(system, u, v):
        iu, iv = index[u], index[v]
        return (ids[G.shortest_path(iv, iu)[1]], ids[G.shortest_path(iu, iv)[1]])

    return SurfaceSystem(vertices, patterns, dcs=dcs, strict_descent=False)


def random_connected_graph(n: int, extra_edge_prob: float, rng: random.Random):
    """Uniform random labelled tree (via a random Pruefer sequence) plus each
    chord independently with the given probability.  Connected by construction."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0 <= extra_edge_prob <= 1:   # NaN fails this test too
        raise ValueError(f"extra_edge_prob must lie in [0, 1], got {extra_edge_prob!r}")
    edges = set()
    if n == 2:
        edges.add((0, 1))
    elif n >= 3:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        leaves = [i for i in range(n) if degree[i] == 1]
        heapq.heapify(leaves)
        for x in seq:
            leaf = heapq.heappop(leaves)
            edges.add((min(leaf, x), max(leaf, x)))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        u = heapq.heappop(leaves)
        v = heapq.heappop(leaves)
        edges.add((min(u, v), max(u, v)))
    for i, j in itertools.combinations(range(n), 2):
        if (i, j) not in edges and rng.random() < extra_edge_prob:
            edges.add((i, j))
    return sorted(edges)


# -- double curve sum, geodesics, cycle reduction ----------------------------


def double_curve_sum(system: SurfaceSystem, u, v):
    """Interpolating pair ``(minus, plus)`` for an intersecting pair (u, v).

    Contract every backend satisfies: ``minus`` is disjoint from ``v`` and
    ``spread(u, minus) <= spread(u, v) - 1``; when ``spread(u, v) == 1`` both
    outputs are disjoint from both inputs; and under ``strict_descent`` the
    complexity sum of the outputs is strictly below that of the inputs.
    """
    if not system.supports_dcs:
        raise UnsupportedBackend("this system has no double curve sum backend")
    cs = system.spread(u, v)
    if cs == 0:
        raise ValueError("nothing to sum: the surfaces are disjoint")
    return system._dcs(system, u, v)


def geodesic(system: SurfaceSystem, u, v):
    """Path from v to u realizing the distance.

    With a double curve sum the path is built constructively: each step
    replaces the current endpoint with the `minus` output, which is disjoint
    from it and strictly closer to u in covering spread, so after spread(u,v)
    steps the endpoints are disjoint.  Without a backend this degrades to a
    breadth-first geodesic in the disjointness complex.
    """
    if u == v:
        system.complexity(u)  # an unknown vertex raises here
        return (u,)
    if not system.supports_dcs:
        path = build_complex(system, max_dim=1).shortest_path(v, u)
        if path is None:
            raise ValueError(f"no path from {v!r} to {u!r}")
        return path
    path = [v]
    cur = v
    while True:
        cs = system.spread(u, cur)
        if cs == 0:
            path.append(u)
            return tuple(path)
        minus, _plus = double_curve_sum(system, u, cur)
        if minus == cur or not system.disjoint(minus, cur):
            raise BackendContractError(
                f"double curve sum output {minus!r} is not disjoint from {cur!r}")
        new_cs = system.spread(u, minus) if minus != u else 0
        if new_cs >= cs:
            raise BackendContractError(
                f"covering spread failed to decrease: {cs} -> {new_cs} at {cur!r}")
        path.append(minus)
        cur = minus


# a Complexity as a plain tuple: the same order, compared in C instead of by the
# dataclass's generated __lt__, which dominated the descent's corner sort
_as_tuple = attrgetter("primary", "secondary")


def kakimizu_null_homotopy(system: SurfaceSystem, cycle, max_steps: int | None = None,
                           complex=None) -> HomotopyResult:
    """Contract a cycle by the complexity-descent procedure.

    Repeatedly pick a vertex of maximal complexity.  If its cycle neighbors
    are disjoint, cut the corner.  Otherwise the neighbors are at distance 2,
    so their covering spread must be 1 and the double curve sum returns vertices
    disjoint from both; substitute the cheaper one (a detour-then-cut pair of
    moves) and descend.  With ``strict_descent`` the complexity sum strictly
    drops at every substitution; other backends run under a step budget and
    may return an inconclusive trace, as does a table breaking d = cs + 1.
    The moves are legal by construction (a diagonal from ``disjoint``, a
    detour vertex checked with ``has_edge``), so they are applied without
    re-validation; ``replay`` alone certifies the result.

    Without a double curve sum backend this degrades to the generic bounded
    search of :func:`~kakimizu.homotopy.reduce_cycle_homotopy`.
    ``max_steps = 0`` is a budget of no steps; a negative one is refused.
    """
    if max_steps is not None and max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    X = complex if complex is not None else build_complex(system)
    start = validate_cycle(X, cycle)
    if not system.supports_dcs:
        return reduce_cycle_homotopy(X, start,
                                     max_steps=100_000 if max_steps is None else max_steps)
    budget = max_steps if max_steps is not None else max(1, 10 * len(start) * len(X.vertices))
    c, moves = normalize_cycle(X, start)
    steps = 0
    while len(c) > 1:
        steps += 1
        if steps > budget:
            return HomotopyResult(False, start, tuple(moves), c, steps,
                                  "step budget exhausted")
        L = len(c)
        order = sorted(range(L), key=lambda i: _as_tuple(system.complexity(c[i])), reverse=True)
        progressed = False
        for i in order:
            a, b = c[(i - 1) % L], c[(i + 1) % L]
            if system.disjoint(a, b):
                mv = ("shorten", (i - 1) % L)
                c2, extra = normalize_cycle(X, _apply_unchecked(c, mv))
                c = c2
                moves += [mv] + extra
                progressed = True
                break
            if system.spread(a, b) != 1:
                return HomotopyResult(False, start, tuple(moves), c, steps,
                                      f"inconsistent pattern table: {a!r} and {b!r} are at "
                                      f"distance 2 but have spread {system.spread(a, b)}")
            minus, plus = double_curve_sum(system, a, b)
            candidates = sorted({minus, plus}, key=lambda x: (system.complexity(x), x))
            old = c[i]
            for cand in candidates:
                if cand == old or not X.has_edge(cand, old):
                    continue
                if not (X.has_edge(cand, a) and X.has_edge(cand, b)):
                    continue
                mv1 = ("lengthen", i, cand)
                c1 = _apply_unchecked(c, mv1)
                mv2 = ("shorten", (i - 1) % L if i >= 1 else L)
                c2, extra = normalize_cycle(X, _apply_unchecked(c1, mv2))
                c = c2
                moves += [mv1, mv2] + extra
                progressed = True
                break
            if progressed:
                break
        if not progressed:
            return HomotopyResult(False, start, tuple(moves), c, steps,
                                  "no applicable move")
    return HomotopyResult(True, start, tuple(moves), c, steps, "complexity descent")
