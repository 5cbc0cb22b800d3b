"""Finite flag complexes over disjointness graphs.

The disjointness complex of a family of surfaces has a simplex for every
tuple of pairwise disjoint members, so it is determined by its 1-skeleton:
simplices are exactly the cliques.  This module materializes cliques up to a
dimension cap and provides the combinatorial queries the rest of the toolkit
needs: graph distance, links, residues, largeness checks, cycle enumeration,
and plain-text exports.
"""
from __future__ import annotations

import itertools
from collections import deque

from . import homology
from .homology import H1Structure


class FlagComplex:
    """Finite flag complex given by vertices and edges of its 1-skeleton.

    Cliques are materialized up to ``max_dim`` (default 3: enough for
    2-skeleton homology plus detection of dimension 3).  Instances are
    immutable; derived facts are computed once, shared, and never mutated.
    """

    def __init__(self, vertices, edges, max_dim: int = 3):
        if max_dim < 1:
            raise ValueError("max_dim must be at least 1")
        vs = sorted(set(vertices))
        vset = set(vs)
        adj = {v: set() for v in vs}
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u!r}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u!r}, {v!r}) mentions an unknown vertex")
            a, b = (u, v) if u < v else (v, u)
            norm.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
        self.vertices = tuple(vs)
        self.edges = frozenset(norm)
        self.max_dim = max_dim
        self._adj = {v: tuple(sorted(adj[v])) for v in vs}
        self._adjset = {v: frozenset(adj[v]) for v in vs}
        self._simplices = self._materialize()
        self._distances = {}
        self._link_cycles = {}
        self._forest = None
        self._relators = None
        self._h1 = None
        self._cocycles = None

    def _materialize(self):
        levels = [tuple((v,) for v in self.vertices)]
        if self.vertices and self.edges:
            levels.append(tuple(sorted(self.edges)))
        d = len(levels) - 1
        while d >= 1 and d < self.max_dim:
            nxt = []
            for s in levels[d]:
                cands = self._adjset[s[0]]
                for v in s[1:]:
                    cands = cands & self._adjset[v]
                last = s[-1]
                for w in sorted(cands):
                    if w > last:
                        nxt.append(s + (w,))
            if not nxt:
                break
            levels.append(tuple(sorted(nxt)))
            d += 1
        return tuple(levels)

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        """Largest materialized dimension; -1 for the empty complex.
        Equal to the true dimension unless it hits ``max_dim``."""
        for d in range(len(self._simplices) - 1, -1, -1):
            if self._simplices[d]:
                return d
        return -1

    def dim_is_capped(self) -> bool:
        return self.dim == self.max_dim

    def simplices(self, dim: int | None = None):
        if dim is None:
            return tuple(itertools.chain.from_iterable(self._simplices))
        if 0 <= dim < len(self._simplices):
            return self._simplices[dim]
        return ()

    def require_vertex(self, v) -> None:
        if v not in self._adjset:
            raise ValueError(f"unknown vertex {v!r}")

    def has_edge(self, u, v) -> bool:
        return v in self._adjset.get(u, ())

    def neighbors(self, v):
        self.require_vertex(v)
        return self._adj[v]

    def common_neighbors(self, *verts):
        common = None
        for v in verts:
            self.require_vertex(v)
            common = self._adjset[v] if common is None else common & self._adjset[v]
        return tuple(sorted(common or ()))

    def is_simplex(self, simplex) -> bool:
        s = tuple(simplex)
        if not s or len(set(s)) != len(s):
            return False
        if any(v not in self._adjset for v in s):
            return False
        return all(self.has_edge(a, b) for a, b in itertools.combinations(s, 2))

    def require_simplex(self, simplex) -> tuple:
        s = tuple(sorted(set(simplex)))
        if not self.is_simplex(s):
            raise ValueError(f"{tuple(simplex)!r} is not a simplex of this complex")
        return s

    # -- metric ----------------------------------------------------------

    def distances_from(self, source) -> dict:
        """BFS levels from ``source`` over vertices and edges only."""
        self.require_vertex(source)
        if source not in self._distances:
            self._distances[source] = _levels(self._adj, source)
        return self._distances[source]

    def distance(self, u, v) -> int | None:
        """Minimal number of edges in a path from u to v; None if unreachable."""
        self.require_vertex(v)
        return self.distances_from(u).get(v)

    def shortest_path(self, u, v) -> tuple | None:
        """Lexicographically least geodesic from u to v; None if unreachable."""
        self.require_vertex(u)
        dist = self.distances_from(v)
        if u not in dist:
            return None
        path = [u]
        cur = u
        while cur != v:
            # adjacency is sorted, so the first qualifying neighbor is least
            cur = next(w for w in self._adj[cur] if dist.get(w, -1) == dist[cur] - 1)
            path.append(cur)
        return tuple(path)

    # -- subcomplexes ----------------------------------------------------

    def induced(self, verts) -> "FlagComplex":
        vset = set(verts)
        for v in vset:
            self.require_vertex(v)
        adj = self._adjset
        es = [(u, w) for u in vset for w in adj[u] & vset if u < w]
        return FlagComplex(vset, es, self.max_dim)

    def link(self, simplex) -> "FlagComplex":
        """Subcomplex of simplices spanning a simplex together with ``simplex``.
        For a flag complex this is the induced complex on common neighbors."""
        s = self.require_simplex(simplex)
        return self.induced(self.common_neighbors(*s))

    def link_cycles(self, v, length: int) -> tuple:
        """Induced ``length``-cycles of the link of vertex ``v``, in the order
        of :func:`embedded_cycles`, read off the adjacency of its neighbours."""
        self.require_vertex(v)
        if length < 3:
            raise ValueError("cycles have at least 3 edges")
        key = (v, length)
        if key not in self._link_cycles:
            lk = self._adjset[v]
            adj = {w: [x for x in self._adj[w] if x in lk] for w in self._adj[v]}
            self._link_cycles[key] = tuple(_cycles(adj, length, length, True))
        return self._link_cycles[key]

    def residue(self, simplex) -> "FlagComplex":
        """Closure of all simplices containing ``simplex``: the join of the
        simplex with its link."""
        s = self.require_simplex(simplex)
        return self.induced(set(s) | set(self.common_neighbors(*s)))


def _levels(adj, source) -> dict:
    """BFS levels from ``source`` in the graph ``adj`` (vertex -> neighbours)."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        d = dist[x] + 1
        for y in adj[x]:
            if y not in dist:
                dist[y] = d
                queue.append(y)
    return dist


def build_complex(system, max_dim: int = 3) -> FlagComplex:
    """Disjointness complex of a surface system, built once per ``max_dim``:
    edges join pairs whose intersection pattern is empty, i.e. the id pairs
    with no stored pattern; faces are cliques."""
    if max_dim not in system._complexes:
        ids = system.vertex_ids()   # sorted, so each pair comes in canonical order
        stored = system._patterns
        edges = [p for p in itertools.combinations(ids, 2) if p not in stored]
        system._complexes[max_dim] = FlagComplex(ids, edges, max_dim=max_dim)
    return system._complexes[max_dim]


# -- cycle enumeration ----------------------------------------------------


def _above(adj, s, depth: int) -> dict:
    """The ball of radius ``depth`` around ``s`` in the subgraph of ``adj`` on
    ``s`` and the vertices above it: each ball vertex other than ``s`` maps
    to its ball neighbours other than ``s``, in sorted order."""
    ball = set()
    frontier = [s]
    for _ in range(depth):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y > s and y not in ball:
                    ball.add(y)
                    nxt.append(y)
        frontier = nxt
    return {v: [w for w in adj[v] if w in ball] for v in ball}


def _cycles(adj, max_len: int, min_len: int, chordless: bool):
    """Yield every embedded cycle of length ``min_len .. max_len`` of the
    graph ``adj`` (vertex -> sorted neighbours, keys in sorted order)
    exactly once; with ``chordless``, only the cycles without a chord.

    Canonical form: the least vertex ``s`` first, second vertex less than
    last (killing rotation and reflection).  Such a cycle uses only vertices
    above ``s``, and a vertex ``d`` edges from ``s`` in that subgraph lies
    only on cycles of length at least ``2d``, so each start's search reads
    only its ball of radius ``max_len // 2`` there (``_above``).

    Each second vertex ``p1`` walks one orientation: the cycle must close
    at a neighbour of ``s`` above ``p1``.  A BFS inside the ball, avoiding
    ``s`` and ``p1``, gives each vertex its distance to that closing edge
    (1 at the closing neighbours themselves).  A path is extended by ``w``
    only if the edges it has plus that distance fit in ``max_len``, and it
    closes when the distance is 1.  The distance is a lower bound on every
    way the path can still close, so a pruned subtree would have yielded
    nothing.  The ``p1`` are taken in descending order, and each subtree is
    walked depth first with its children popped in descending order, so
    the cycles come out as from one depth-first search of all paths from
    ``s`` with the mirror orientation dropped at closing.

    In chordless mode no inner vertex may be adjacent to ``s``: the BFS
    also avoids the neighbours of ``s`` below ``p1``, a closing neighbour
    is never extended, and a candidate adjacent to an inner vertex of the
    path other than its last is skipped.  Every pruned path has a chord, so
    this yields the chordless cycles of the full walk, in its order.
    """
    adjset = {v: set(ns) for v, ns in adj.items()} if chordless else None
    for s in adj:
        ball = _above(adj, s, max_len // 2)
        firsts = [p for p in adj[s] if p in ball]
        for i in range(len(firsts) - 2, -1, -1):
            # distance to a closing neighbour; p1, and in chordless mode
            # the neighbours of s below it, may not be entered, so they get
            # a distance no path has room for and the BFS stops there
            p1 = firsts[i]
            dist = dict.fromkeys(firsts[:i + 1] if chordless else (p1,), max_len)
            frontier = firsts[i + 1:]
            for q in frontier:
                dist[q] = 1
            for level in range(2, max_len - 1):
                nxt = []
                for x in frontier:
                    for y in ball[x]:
                        if y not in dist:
                            dist[y] = level
                            nxt.append(y)
                frontier = nxt
            stack = [(s, p1)]
            while stack:
                path = stack.pop()
                n = len(path)
                room = max_len - n
                inner = path[1:-1] if chordless else ()
                for w in ball[path[-1]]:
                    d = dist.get(w)
                    if d is None or d > room or w in path:
                        continue
                    if chordless and not adjset[w].isdisjoint(inner):
                        continue
                    new = path + (w,)
                    if d == 1 and n >= min_len - 1:
                        yield new
                    if n + 1 < max_len and not (chordless and d == 1):
                        stack.append(new)


def embedded_cycles(X: FlagComplex, max_len: int, min_len: int = 3,
                    chordless: bool = False):
    """Yield every embedded cycle of length ``min_len .. max_len`` exactly
    once, in the canonical form and order of the walk ``_cycles``; with
    ``chordless``, only the cycles without a chord, still in that order, and
    no chorded cycle is enumerated on the way."""
    if min_len < 3:
        raise ValueError("embedded cycles have at least 3 edges")
    yield from _cycles(X._adj, max_len, min_len, chordless)


def induced_cycles(X: FlagComplex, length: int):
    """Yield every induced (diagonal-free) embedded cycle of exactly
    ``length`` edges, in the order of :func:`embedded_cycles`."""
    if length < 3:
        raise ValueError("cycles have at least 3 edges")
    yield from _cycles(X._adj, length, length, True)


# -- largeness ------------------------------------------------------------


def is_k_large(X: FlagComplex, k: int):
    """Diagonal-criterion largeness test.

    True iff every embedded cycle of length ``4 <= L < k`` has a diagonal
    (3-cycles always bound, by flagness).  Links are full subcomplexes and
    need no scan of their own (Januszkiewicz-Swiatkowski 2006, section 1).
    On failure returns a diagonal-free witness cycle.
    """
    if k < 4:
        raise ValueError("k must be at least 4")
    for length in range(4, k):
        for cycle in induced_cycles(X, length):
            return False, cycle
    return True, None


def is_locally_k_large(X: FlagComplex, k: int):
    """Largeness of every simplex residue: an induced 4- to (k-1)-cycle of a
    residue misses the simplex, so it is induced in a vertex link (J-S section
    1); only vertex links are scanned, and the witness names that vertex."""
    if k < 4:
        raise ValueError("k must be at least 4")
    for v in X.vertices:
        for length in range(4, k):
            for cycle in X.link_cycles(v, length):
                return False, {"simplex": (v,), "cycle": cycle}
    return True, None


# -- homology and the contractibility criterion -----------------------------


def _spanning_forest(X: FlagComplex) -> frozenset:
    """Edges of the BFS spanning forest: a BFS from each unvisited vertex in
    sorted order, each vertex joined to its least neighbor one level nearer
    the root.  Its size is V - components, the rank of d1."""
    if X._forest is None:
        forest = set()
        seen = set()
        for root in X.vertices:
            if root in seen:
                continue
            # one BFS per component, kept out of the distance cache: the
            # simple-connectivity claim reads no other distance
            dist = _levels(X._adj, root)
            seen.update(dist)
            for v, d in dist.items():
                if d:
                    w = next(w for w in X._adj[v] if dist[w] == d - 1)
                    forest.add((w, v) if w < v else (v, w))
        X._forest = frozenset(forest)
    return X._forest


def _relators(X: FlagComplex) -> tuple:
    """Presentation by the spanning forest: the sorted non-forest edges (the
    generators) and, per triangle in ``X.simplices(2)`` order, its boundary
    oriented by vertex order with the forest edges dropped, as an abelianized
    relator {generator index: +-1}.  No relator is empty: a forest has no
    cycle."""
    if X._relators is None:
        generators = tuple(sorted(X.edges - _spanning_forest(X)))
        index = {e: i for i, e in enumerate(generators)}
        relators = tuple({index[e]: sign for e, sign in (((u, v), 1), ((u, w), -1), ((v, w), 1))
                          if e in index} for u, v, w in X.simplices(2))
        X._relators = (generators, relators)
    return X._relators


def homology_h1(X: FlagComplex) -> H1Structure:
    """First integral homology from the spanning-forest presentation: ker d1
    maps isomorphically onto Z^generators (one fundamental cycle each) and
    im d2 onto the relators' span, so the free rank is generators - rank and
    the torsion is the relators' Smith invariants above 1.  Requires the
    2-skeleton, i.e. a complex built with ``max_dim >= 2``."""
    if X.max_dim < 2:
        raise ValueError("homology needs the 2-skeleton; rebuild with max_dim >= 2")
    if X._h1 is None:
        generators, relators = _relators(X)
        factors = homology.smith_invariants(relators)
        X._h1 = H1Structure(len(generators) - len(factors),
                            tuple(d for d in factors if d > 1))
    return X._h1


def mod2_cocycles(X: FlagComplex) -> tuple:
    """Basis of H^1(X; Z/2): one tuple of sorted edges per cocycle, the edges
    where it takes the value 1.  Requires the 2-skeleton.

    Each class has exactly one cocycle vanishing on the spanning forest, so
    the unknowns are the generators of ``_relators``, and each relator, read
    mod 2, asks that its unknowns sum to 0.  GF(2) elimination of those
    constraints, with rows as Python int bitsets kept in reduced form, leaves
    one free unknown per basis member: dim H^1(X; Z/2) = free rank + number
    of even torsion factors.
    """
    if X.max_dim < 2:
        raise ValueError("cohomology needs the 2-skeleton; rebuild with max_dim >= 2")
    if X._cocycles is None:
        unknowns, relators = _relators(X)
        rows = {}  # pivot bit -> row; no row holds another row's pivot
        for relator in relators:
            row = sum(1 << i for i in relator)
            for p, r in rows.items():
                if row & p:
                    row ^= r
            if row:
                p = row & -row
                for q, r in rows.items():
                    if r & p:
                        rows[q] = r ^ row
                rows[p] = row
        cocycles = []
        for i, e in enumerate(unknowns):
            free = 1 << i
            if free in rows:
                continue
            # set this free unknown, the others to 0, and solve for the pivots
            x = free
            for p, r in rows.items():
                if r & free:
                    x |= p
            cocycles.append(tuple(f for j, f in enumerate(unknowns) if x >> j & 1))
        X._cocycles = tuple(cocycles)
    return X._cocycles


class ContractibilityReport:
    """Outcome of the dimension-2 contractibility criterion.

    ``conclusion`` is either ``"contractible"`` or
    ``"no conclusion from this criterion"``; the criterion can never certify
    non-contractibility.
    """

    def __init__(self, dim, dim_is_lower_bound, connected, locally_6_large,
                 witness, h1, conclusion, reasons):
        self.dim = dim
        self.dim_is_lower_bound = dim_is_lower_bound
        self.connected = connected
        self.locally_6_large = locally_6_large
        self.witness = witness
        self.h1 = h1
        self.conclusion = conclusion
        self.reasons = tuple(reasons)

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "dim_is_lower_bound": self.dim_is_lower_bound,
            "connected": self.connected,
            "locally_6_large": self.locally_6_large,
            "witness": self.witness,
            "h1": str(self.h1),
            "conclusion": self.conclusion,
            "reasons": list(self.reasons),
        }


def contractibility_report(X: FlagComplex) -> ContractibilityReport:
    """Apply the criterion: a connected, simply connected, locally 6-large
    complex of dimension at most 2 is contractible (its universal cover is,
    and simple connectivity makes it its own cover).  Vanishing H1 stands in
    for simple connectivity here, so the circle-shaped negative controls are
    flagged instead of passed.  Anything short of the full criterion yields
    "no conclusion", never a refutation.
    """
    dim = X.dim
    capped = X.dim_is_capped()
    dim_ok = dim <= 2 and not capped
    connected = len(_spanning_forest(X)) == len(X.vertices) - 1
    large_ok, witness = is_locally_k_large(X, 6)
    h1 = homology_h1(X)
    reasons = []
    if dim_ok:
        reasons.append(f"dimension {dim} <= 2")
    elif capped:
        reasons.append(f"dimension >= {dim} (hit the materialization cap)")
    else:
        reasons.append(f"dimension {dim} exceeds 2")
    reasons.append("connected" if connected else "not connected")
    reasons.append("locally 6-large" if large_ok else "not locally 6-large")
    reasons.append(f"H1 = {h1}" if h1.is_trivial() else f"H1 = {h1} is nontrivial")
    ok = dim_ok and connected and large_ok and h1.is_trivial()
    conclusion = "contractible" if ok else "no conclusion from this criterion"
    return ContractibilityReport(dim, capped, connected, large_ok, witness, h1,
                                 conclusion, reasons)


# -- exports ----------------------------------------------------------------


def _dot_id(v) -> str:
    """``v`` as a quoted DOT id: ``\\"`` is the one escape DOT defines inside
    quoted strings.  DOT has no escape for a backslash, so an id ending in one
    would escape the closing quote; such an id is refused."""
    text = str(v)
    if text.endswith("\\"):
        raise ValueError(f"vertex id {text!r} ends in a backslash, which DOT cannot quote")
    return '"' + text.replace('"', '\\"') + '"'


def to_dot(X: FlagComplex) -> str:
    """1-skeleton in DOT: one line per edge, vertices as quoted ids.
    Isolated vertices get node statements so nothing is lost."""
    used = {v for e in X.edges for v in e}
    lines = ["graph {"]
    for v in X.vertices:
        if v not in used:
            lines.append(f"  {_dot_id(v)};")
    for a, b in sorted(X.edges):
        lines.append(f"  {_dot_id(a)} -- {_dot_id(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def simplex_listing(X: FlagComplex) -> str:
    """All materialized simplices, one per line, ids space-separated, sorted
    by dimension then lexicographically."""
    lines = []
    for d in range(len(X._simplices)):
        for s in X.simplices(d):
            lines.append(" ".join(str(v) for v in s))
    return "\n".join(lines) + ("\n" if lines else "")
