import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import assume, example, given, strategies as st

import kakimizu as kk
from kakimizu import (FlagComplex, apply_move, build_complex, canonical_cycle,
                      normalize_cycle, reduce_cycle_homotopy, replay, validate_cycle)
from kakimizu.cli import main
from kakimizu.homotopy import (HomotopyResult, _apply_unchecked, _cut, _greedy_descend,
                               _one_move_neighbors, _replays_to_point, _substitute)

from conftest import connected_graph_systems, flag_complexes, residue


def triangle():
    return FlagComplex("abc", [("a", "b"), ("b", "c"), ("a", "c")], max_dim=3)


def hexagon():
    return FlagComplex(range(6), [(i, (i + 1) % 6) for i in range(6)], max_dim=3)


# -- move semantics ----------------------------------------------------------


def test_backtrack_removes_retraced_edge():
    X = build_complex(kk.line_model(0, 3), max_dim=1)
    assert apply_move(X, ("u0", "u1", "u0", "u1"), ("backtrack", 0)) == ("u0", "u1")
    assert apply_move(X, ("u0", "u1"), ("backtrack", 0)) == ("u0",)
    assert apply_move(X, ("u0", "u1"), ("backtrack", 1)) == ("u1",)


def test_backtrack_wraps_around():
    X = build_complex(kk.line_model(0, 3), max_dim=1)
    # corner at the seam: positions 3, 0, 1 spell u1, u2, u1
    c = ("u2", "u1", "u2", "u1")
    assert apply_move(X, c, ("backtrack", 3)) == ("u2", "u1")


def test_shorten_requires_diagonal():
    X = triangle()
    assert apply_move(X, ("a", "b", "c"), ("shorten", 0)) == ("a", "c")
    Y = hexagon()
    with pytest.raises(ValueError, match="no diagonal"):
        apply_move(Y, tuple(range(6)), ("shorten", 0))


def test_shorten_rejects_backtrack_corner():
    X = build_complex(kk.line_model(0, 3), max_dim=1)
    with pytest.raises(ValueError, match="backtrack"):
        apply_move(X, ("u0", "u1", "u0", "u1"), ("shorten", 0))


def test_lengthen_inserts_detour():
    X = triangle()
    assert apply_move(X, ("a", "b"), ("lengthen", 0, "c")) == ("a", "c", "b")
    with pytest.raises(ValueError, match="adjacent"):
        apply_move(hexagon(), (0, 1), ("lengthen", 0, 3))
    with pytest.raises(ValueError, match="differ"):
        apply_move(X, ("a", "b"), ("lengthen", 0, "a"))


def test_unknown_move_kind():
    with pytest.raises(ValueError, match="unknown move"):
        apply_move(triangle(), ("a", "b"), ("teleport", 0))


def test_validate_cycle_errors():
    X = triangle()
    with pytest.raises(ValueError, match="empty"):
        validate_cycle(X, ())
    with pytest.raises(ValueError, match="unknown vertex"):
        validate_cycle(X, ("a", "z"))
    with pytest.raises(ValueError, match="repeated consecutive"):
        validate_cycle(X, ("a", "a", "b"))
    with pytest.raises(ValueError, match="not an edge"):
        validate_cycle(hexagon(), (0, 1, 3))


def test_normalize_erases_nested_backtracks():
    X = build_complex(kk.line_model(0, 4), max_dim=1)
    c, moves = normalize_cycle(X, ("u0", "u1", "u2", "u3", "u2", "u1"))
    assert len(c) == 1
    assert all(mv[0] == "backtrack" for mv in moves)
    assert replay(X, ("u0", "u1", "u2", "u3", "u2", "u1"), moves) == c


def test_canonical_cycle_rotation_reflection():
    assert canonical_cycle((2, 0, 1)) == (0, 1, 2)
    assert canonical_cycle((0, 2, 1)) == (0, 1, 2)
    assert canonical_cycle(("b",)) == ("b",)


# -- reduction ---------------------------------------------------------------


def test_three_cycle_reduces_in_one_essential_move():
    X = triangle()
    result = reduce_cycle_homotopy(X, ("a", "b", "c"))
    assert result.reduced
    assert result.essential_moves <= 1
    assert len(replay(X, ("a", "b", "c"), result.moves)) == 1


def test_negative_step_budget_is_refused():
    # 0 is a budget of no steps; below it there is no budget to spend
    with pytest.raises(ValueError, match="max_steps must be non-negative"):
        reduce_cycle_homotopy(triangle(), ("a", "b", "c"), max_steps=-1)


def test_hexagon_without_2_cells_is_inconclusive_at_any_bound():
    X = hexagon()
    for max_len, max_steps in ((6, 100), (12, 10_000), (20, 50_000)):
        result = reduce_cycle_homotopy(X, tuple(range(6)), max_len, max_steps)
        assert not result.reduced
    # with no triangles there is not a single applicable essential move
    assert reduce_cycle_homotopy(X, tuple(range(6)), 6, 100).reason.startswith("move space")


def test_lattice_hexagon_reduces_within_short_detours(lattice5):
    X = build_complex(lattice5, max_dim=1)
    ring = ("2_1", "2_2", "1_2", "0_1", "0_0", "1_0")
    result = reduce_cycle_homotopy(X, ring, max_len=8, max_steps=10_000)
    assert result.reduced
    assert replay(X, ring, result.moves) == result.final
    assert len(result.final) <= 1


def test_every_short_lattice_cycle_reduces(lattice5):
    X = build_complex(lattice5, max_dim=1)
    for cycle in kk.embedded_cycles(X, 7):
        result = reduce_cycle_homotopy(X, cycle, max_len=14, max_steps=100_000)
        assert result.reduced, cycle
        assert len(replay(X, cycle, result.moves)) <= 1


def test_reduction_is_deterministic(lattice5):
    X = build_complex(lattice5, max_dim=1)
    ring = ("2_1", "2_2", "1_2", "0_1", "0_0", "1_0")
    a = reduce_cycle_homotopy(X, ring, max_len=10, max_steps=5_000)
    b = reduce_cycle_homotopy(X, ring, max_len=10, max_steps=5_000)
    assert a == b


def test_inconclusive_trace_is_still_a_valid_homotopy():
    # a hexagon with one extra chord-triangle: the greedy pass makes progress
    # (cutting the chorded corner) but cannot finish
    X = FlagComplex(range(6), [(i, (i + 1) % 6) for i in range(6)] + [(0, 2)],
                    max_dim=3)
    result = reduce_cycle_homotopy(X, tuple(range(6)), max_len=6, max_steps=10)
    assert not result.reduced
    assert replay(X, tuple(range(6)), result.moves) == result.final


def test_backtracking_walk_reduces_for_free():
    X = build_complex(kk.line_model(0, 5), max_dim=1)
    result = reduce_cycle_homotopy(X, ("u2", "u3", "u4", "u3"))
    assert result.reduced
    assert result.essential_moves == 0


def test_unreduced_traces_replay_to_their_final_cycle(tmp_path):
    # loaded from its file, the system has no descent backend, so this is the
    # generic search that verify runs; its cycles hit both kinds of stop
    path = tmp_path / "g.json"
    assert main(["gen", "graph", "--vertices", "12", "--seed", "6", "-o", str(path)]) == 0
    X = build_complex(kk.load_system(path.read_text(encoding="utf-8")))
    stopped = [r for r in (reduce_cycle_homotopy(X, c, max_len=12, max_steps=100)
                           for c in kk.embedded_cycles(X, 6)) if not r.reduced]
    assert Counter(r.reason for r in stopped) == {
        "step budget exhausted": 12, "move space exhausted within max_len": 18}
    for r in stopped:
        assert replay(X, r.start, r.moves) == r.final


# -- cone witnesses ------------------------------------------------------------


def _cone_homotopy(cycle, apex) -> HomotopyResult:
    """Oracle for the theorem that a residue is a cone: contract an embedded
    cycle across a cone with apex ``apex``, adjacent to every vertex of the
    cycle, with no search.  Off the cycle: detour through the apex, cut the
    corner after it L-1 times, erase the last edge (L+1 moves).  At index j:
    cut the corner at the apex down to an edge, then erase it (L-1 moves).
    Only replay decides whether it is a cone."""
    start = tuple(cycle)
    if apex in start:
        j = start.index(apex)
        moves = [("shorten", min(j, n - 1)) for n in range(len(start), 2, -1)]
    else:
        moves = [("lengthen", 0, apex)] + [("shorten", 1)] * (len(start) - 1)
    moves.append(("backtrack", 0))
    final = start
    for mv in moves:
        final = _apply_unchecked(final, mv)
    return HomotopyResult(True, start, tuple(moves), final, 0, "cone")


def test_cone_witness_replays_in_every_residue():
    # a residue s * lk(s) is a cone with apex s[0]; both witness shapes occur
    seen = set()

    @given(connected_graph_systems())
    def check(system):
        X = build_complex(system)
        for s in X.simplices():
            res = residue(X, s)
            for cycle in kk.embedded_cycles(res, 6):
                on = s[0] in cycle
                result = _cone_homotopy(cycle, s[0])
                assert _replays_to_point(res, cycle, result), (s, cycle)
                assert len(result.moves) == len(cycle) + (-1 if on else 1)
                seen.add(on)

    check()
    assert seen == {True, False}


def test_cone_witness_fails_replay_without_a_cone():
    # on the hexagon, apex 0 has no diagonal to cut along; a square with a
    # vertex 4 joined to 0 and 1 only takes the detour but not the next cut
    assert not _replays_to_point(hexagon(), tuple(range(6)),
                                 _cone_homotopy(tuple(range(6)), 0))
    X = FlagComplex(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1)],
                    max_dim=3)
    assert not _replays_to_point(X, (0, 1, 2, 3), _cone_homotopy((0, 1, 2, 3), 4))


# -- the move kernels against a tuple-based reference checker -----------------


def reference_apply_move(X, cycle, move) -> tuple:
    """``apply_move`` as it was before it stepped a list in place: every move
    rebuilds the tuple.  The reference for ``apply_move`` and ``replay``."""
    c = tuple(cycle)
    L = len(c)
    kind = move[0]
    if kind == "backtrack":
        i = move[1]
        if L < 2 or not 0 <= i < L:
            raise ValueError(f"backtrack index {i} out of range for length {L}")
        if L == 2:
            return (c[i],)
        j, k = (i + 1) % L, (i + 2) % L
        if c[i] != c[k]:
            raise ValueError(f"no backtrack at index {i}")
        return tuple(x for t, x in enumerate(c) if t not in (j, k))
    if kind == "shorten":
        i = move[1]
        if L < 3 or not 0 <= i < L:
            raise ValueError(f"shorten index {i} out of range for length {L}")
        j, k = (i + 1) % L, (i + 2) % L
        if c[i] == c[k]:
            raise ValueError(f"corner at {i} is a backtrack, not a shortening")
        if not X.has_edge(c[i], c[k]):
            raise ValueError(f"no diagonal edge ({c[i]!r}, {c[k]!r})")
        return tuple(x for t, x in enumerate(c) if t != j)
    if kind == "lengthen":
        i, v = move[1], move[2]
        if L < 2 or not 0 <= i < L:
            raise ValueError(f"lengthen index {i} out of range for length {L}")
        j = (i + 1) % L
        if v == c[i] or v == c[j]:
            raise ValueError("detour vertex must differ from its endpoints")
        if not (X.has_edge(c[i], v) and X.has_edge(v, c[j])):
            raise ValueError(f"{v!r} is not adjacent to both detour endpoints")
        return c[: i + 1] + (v,) + c[i + 1:]
    raise ValueError(f"unknown move kind {kind!r}")


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the message of the ValueError it raised."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


@st.composite
def complexes_with_cycles(draw):
    """A ``graph_to_system`` flag complex on a random connected graph, a
    closed walk in it, and picks that choose a sequence of legal moves from
    it.  The walk is a random walk closed by a geodesic back to its start, so
    it may retrace edges and revisit vertices."""
    n = draw(st.integers(2, 8))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs = [p for p in itertools.combinations(range(n), 2) if p not in tree]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    X = build_complex(kk.graph_to_system(n, tree + [p for p, k in zip(pairs, keep) if k]))
    walk = [draw(st.sampled_from(sorted(X.vertices)))]
    for _ in range(draw(st.integers(1, 9))):
        walk.append(draw(st.sampled_from(sorted(X.neighbors(walk[-1])))))
    picks = tuple(draw(st.lists(st.integers(0, 999), max_size=8)))
    if walk[-1] == walk[0]:
        return X, tuple(walk[:-1]), picks
    return X, tuple(walk) + X.shortest_path(walk[-1], walk[0])[1:-1], picks


K4 = FlagComplex("abcd", list(itertools.combinations("abcd", 2)), max_dim=3)


def every_move(X, c):
    """Every move on ``c``, legal or not: indices one past each end, detours
    through every vertex and one unknown vertex, and an unknown kind."""
    L = len(c)
    moves = [(kind, i) for kind in ("backtrack", "shorten") for i in range(-1, L + 1)]
    moves += [("lengthen", i, v) for i in range(-1, L + 1) for v in sorted(X.vertices) + ["?"]]
    return moves + [("teleport", 0)]


@given(complexes_with_cycles())
@example((K4, ("a", "b", "a", "c"), (0, 3)))   # backtrack at L-2 erases c[L-1], c[0]
@example((K4, ("a", "b", "c", "b"), (1,)))     # backtrack at L-1 erases c[0], c[1]
@example((K4, ("a", "b"), (0, 1)))             # a retraced edge, either index
@example((K4, ("a", "b", "c"), (2, 2)))        # shorten at L-1 cuts c[0]
@example((K4, ("a", "d", "b", "c"), (7,)))     # a detour's ("shorten", L) after lengthen
def test_unchecked_kernel_matches_apply_move(case):
    X, c, picks = case
    validate_cycle(X, c)
    cycles = [c]
    for i in range(len(c)):     # one lengthen deep, as a detour's shorten sees it
        j = (i + 1) % len(c)
        for v in X.common_neighbors(c[i], c[j])[:1]:
            cycles.append(apply_move(X, c, ("lengthen", i, v)))
    for cyc in cycles:
        for mv in every_move(X, cyc):
            expected = outcome(reference_apply_move, X, cyc, mv)
            assert outcome(apply_move, X, cyc, mv) == expected, (cyc, mv)
            if expected[0] == "ok":
                assert _apply_unchecked(cyc, mv) == expected[1], (cyc, mv)
    # replay of every prefix of a legal sequence is the reference's fold
    cyc, moves = c, []
    assert replay(X, c, moves) == cyc
    for pick in picks:
        legal = [mv for mv in every_move(X, cyc)
                 if outcome(reference_apply_move, X, cyc, mv)[0] == "ok"]
        if not legal:
            break
        moves.append(legal[pick % len(legal)])
        cyc = reference_apply_move(X, cyc, moves[-1])
        assert replay(X, c, moves) == cyc, moves


# -- the greedy descent against a full-history reference ----------------------


def reference_greedy_descend(X, c, budget):
    """``_greedy_descend`` as it was when its visited set kept every state of
    the descent, keyed on every move.  The reference for the length-scoped,
    lazily keyed visited set."""
    def shorten_candidates(c):
        L = len(c)
        for i in range(L):
            k = (i + 2) % L
            if c[i] != c[k] and X.has_edge(c[i], c[k]):
                yield i

    moves = []
    steps = 0
    seen = {canonical_cycle(c)}
    while len(c) > 1 and steps < budget:
        steps += 1
        L = len(c)
        applied = False
        for i in shorten_candidates(c):
            mv = ("shorten", i)
            c2, extra = normalize_cycle(X, _apply_unchecked(c, mv))
            c = c2
            moves += [mv] + extra
            applied = True
            break
        if applied:
            seen.add(canonical_cycle(c))
            continue
        for i in range(L):
            j, k = (i + 1) % L, (i + 2) % L
            for v in X.common_neighbors(c[i], c[j]):
                if v in (c[i], c[j], c[k]) or not X.has_edge(v, c[k]):
                    continue
                mv1 = ("lengthen", j, v)
                c1 = _apply_unchecked(c, mv1)
                mv2 = ("shorten", i if i < j else L)
                c2, extra = normalize_cycle(X, _apply_unchecked(c1, mv2))
                key = canonical_cycle(c2)
                if key in seen:
                    continue
                seen.add(key)
                c = c2
                moves += [mv1, mv2] + extra
                applied = True
                break
            if applied:
                break
        if not applied:
            break
    return c, moves, steps


@given(connected_graph_systems(), st.integers(1, 50))
def test_greedy_descent_matches_the_full_history_reference(system, budget):
    X = build_complex(system)
    for cycle in kk.embedded_cycles(X, 7):
        assert _greedy_descend(X, cycle, budget) == reference_greedy_descend(X, cycle, budget)


# -- the two move helpers ------------------------------------------------------


@st.composite
def closed_walks(draw):
    """A complex of ``connected_graph_systems()`` and a closed walk in it of
    two or more vertices, backtracks allowed: a random walk, closed along a
    shortest path back to its start."""
    X = build_complex(draw(connected_graph_systems()))
    picks = draw(st.lists(st.integers(0, 8), min_size=2, max_size=9))
    walk = [X.vertices[picks[0] % len(X.vertices)]]
    for p in picks[1:]:
        ns = X.neighbors(walk[-1])
        walk.append(ns[p % len(ns)])
    walk += X.shortest_path(walk[-1], walk[0])[1:-1]
    if walk[-1] == walk[0]:
        walk.pop()
    assume(len(walk) >= 2)
    return X, tuple(walk)


def test_cuts_and_substitutions_replay_to_the_cycle_they_return():
    # every legal corner cut and every legal substitution, the wrap at j = 0
    # included, checked by replay's independent checker
    seen = set()

    @given(closed_walks())
    def check(case):
        X, c = case
        L = len(c)
        for i in range(L if L >= 3 else 0):
            k = (i + 2) % L
            if c[i] != c[k] and X.has_edge(c[i], c[k]):
                cycle, moves = _cut(X, c, i)
                assert moves[0] == ("shorten", i)
                assert replay(X, c, moves) == cycle
                assert normalize_cycle(X, cycle) == (cycle, [])
        for j in range(L):
            ends = (c[j - 1], c[j], c[(j + 1) % L])
            for v in X.common_neighbors(*ends):
                if v in ends:
                    continue
                cycle, moves = _substitute(X, c, j, v)
                assert moves[0] == ("lengthen", j, v)
                assert replay(X, c, moves) == cycle, (c, j, v)
                assert normalize_cycle(X, cycle) == (cycle, [])
                seen.add(j == 0)

    check()
    assert seen == {True, False}


@given(closed_walks(), st.integers(0, 3))
def test_search_neighbours_are_every_move_then_erasure(case, room):
    # the breadth-first search skips detours through a cycle neighbour; the
    # states it reaches are still those of every cut and every detour, erased
    X, c = case
    c, _ = normalize_cycle(X, c)
    assume(len(c) >= 3)
    max_len = len(c) + room
    expected = set()
    for i in range(len(c)):
        j = (i + 1) % len(c)
        moves = [("lengthen", i, v) for v in X.common_neighbors(c[i], c[j])
                 if v not in (c[i], c[j])] if len(c) < max_len else []
        if c[i] != c[(i + 2) % len(c)] and X.has_edge(c[i], c[(i + 2) % len(c)]):
            moves.append(("shorten", i))
        for mv in moves:
            expected.add(canonical_cycle(normalize_cycle(X, apply_move(X, c, mv))[0]))
    out = _one_move_neighbors(X, c, max_len)
    assert {canonical_cycle(nc) for nc, _ in out} == expected
    for nc, moves in out:
        assert replay(X, c, moves) == nc


def test_lattice_witnesses_are_pinned():
    # every generic-search witness on a saved and reloaded 5x5 lattice at the
    # default bounds, move for move, as the full-history descent gave them
    X = build_complex(kk.load_system(kk.save_system(kk.lattice_model(5, 5))))
    digest = hashlib.sha256()
    cycles = substituted = 0
    for cycle in kk.embedded_cycles(X, 8):
        r = reduce_cycle_homotopy(X, cycle, max_len=16, max_steps=100_000)
        digest.update(repr((r.moves, r.final, r.steps, r.reason)).encode())
        cycles += 1
        substituted += any(mv[0] == "lengthen" for mv in r.moves)
    assert (cycles, substituted) == (1274, 222)
    assert digest.hexdigest() == "a287c5b3ffd1d9ee5261a8129252f511466879db916d3f0286e14fb751ad5421"


@st.composite
def cycles_with_repeated_least_vertex(draw):
    """Vertex sequences whose least vertex occurs two or three times, as after
    a lengthen that detours through it."""
    c = draw(st.lists(st.integers(1, 5), min_size=1, max_size=10))
    for _ in range(draw(st.integers(2, 3))):
        c.insert(draw(st.integers(0, len(c))), 0)
    return tuple(c)


@given(st.one_of(st.lists(st.integers(0, 9), min_size=1, max_size=12).map(tuple),
                 cycles_with_repeated_least_vertex()))
def test_canonical_cycle_is_the_least_of_all_rotations(c):
    rotations = [d[r:] + d[:r] for d in (c, c[::-1]) for r in range(len(c))]
    assert canonical_cycle(c) == min(rotations)


# -- the chord lemma -----------------------------------------------------------


def _chord_halves(X, cycle, i, j) -> tuple:
    """Oracle for the chord lemma that lets the sweep search only chordless
    cycles: the two cycles that the chord {c[i], c[j]} cuts ``cycle`` into,
    each closed by the chord, in canonical form.  Based at c[i], the cycle is
    homotopic to the first half followed by the second (out along the chord
    and back is a backtrack), so if both halves contract, so does the cycle.
    Raises ``ValueError`` unless i and j are indices of the cycle, not
    cyclically adjacent, and {c[i], c[j]} is an edge of X."""
    c = tuple(cycle)
    L = len(c)
    if not (0 <= i < L and 0 <= j < L):
        raise ValueError(f"chord ({i}, {j}) out of range for length {L}")
    i, j = min(i, j), max(i, j)
    if j - i < 2 or j - i == L - 1:
        raise ValueError(f"chord ({i}, {j}) joins equal or cyclically adjacent indices")
    if c[j] not in X._adjset.get(c[i], ()):
        raise ValueError(f"({c[i]!r}, {c[j]!r}) is not an edge")
    return canonical_cycle(c[i:j + 1]), canonical_cycle(c[j:] + c[:i + 1])


def hexagon_with_chord():
    return FlagComplex(range(6), [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)], max_dim=3)


def test_chord_halves_are_canonical_and_closed_by_the_chord():
    X = hexagon_with_chord()
    halves = ((0, 1, 2, 3), (0, 3, 4, 5))
    assert _chord_halves(X, (0, 1, 2, 3, 4, 5), 0, 3) == halves
    assert _chord_halves(X, (0, 1, 2, 3, 4, 5), 3, 0) == halves
    # a rotated, reflected start gives the same halves, in the other order
    assert _chord_halves(X, (2, 1, 0, 5, 4, 3), 2, 5) == halves[::-1]


@pytest.mark.parametrize("i, j, message", [
    (1, 4, "is not an edge"),
    (2, 5, "is not an edge"),
    (0, 1, "cyclically adjacent"),
    (3, 2, "cyclically adjacent"),
    (0, 5, "cyclically adjacent"),
    (5, 0, "cyclically adjacent"),
    (2, 2, "cyclically adjacent"),
    (0, 6, "out of range"),
    (-1, 3, "out of range"),
    (6, 3, "out of range"),
])
def test_chord_halves_refuses_a_bad_chord(i, j, message):
    with pytest.raises(ValueError, match=message):
        _chord_halves(hexagon_with_chord(), (0, 1, 2, 3, 4, 5), i, j)


@given(flag_complexes(), st.integers(3, 6))
def test_enumerated_cycles_are_canonical_and_hold_their_halves(X, cap):
    # the induction behind the chord lemma: each half of a chord is shorter
    # than its cycle, hence enumerated under the same cap, in the same
    # canonical form as the enumerated cycles
    cycles = list(kk.embedded_cycles(X, cap))
    assert all(canonical_cycle(c) == c for c in cycles)
    enumerated = set(cycles)
    for c in cycles:
        L = len(c)
        for i, j in itertools.combinations(range(L), 2):
            if 1 < j - i < L - 1 and X.has_edge(c[i], c[j]):
                a, b = _chord_halves(X, c, i, j)
                assert a in enumerated and b in enumerated
                assert len(a) + len(b) == L + 2
