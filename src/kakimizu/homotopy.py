"""Elementary homotopy moves on closed edge paths, and bounded reduction.

A cycle is a cyclic list of vertices (the closing edge is implicit).  Three
moves generate edge-path homotopy in a flag complex:

* ``("backtrack", i)`` erases a retraced edge: ``c[i], c[i+1], c[i]``
  collapses to ``c[i]``.
* ``("shorten", i)`` cuts the corner at ``i`` across the diagonal edge
  ``{c[i], c[i+2]}``; with both cycle edges present the triangle is a clique,
  hence a 2-simplex, so the cut is a homotopy.
* ``("lengthen", i, v)`` is the inverse cut: detour through ``v`` between
  ``c[i]`` and ``c[i+1]``.

Reduction searches this move graph.  The search builds only moves that are
legal by construction (a corner it found retraced, a diagonal or detour it
found in the adjacency sets) and applies them by slicing, without
re-validating them; ``replay`` is the one validator, and every success
certificate must pass it move-by-move.  ``replay`` and ``apply_move`` step
one list through the same checker, ``_step``.  The greedy descent never
makes a cycle longer, so a state can recur only at its own length, and its
visited set holds the states of the current length only.  An inconclusive
result proves nothing about the cycle.  The opposite certificate, that a
cycle is not null-homotopic, is a mod-2 1-cocycle pairing odd with it; it is
checked directly against the triangles of the complex, by
``_is_mod2_cocycle`` and ``_pairs_odd``.  Residues need no witness from
here: a residue of a flag complex is a cone, certified in ``verify`` from
the adjacency sets alone, and neither does a chorded cycle: ``verify``
searches only chordless cycles and leaves the rest to the chord lemma.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

# the default step budget of every null-homotopy search
_MAX_STEPS = 100_000


def validate_cycle(X, cycle) -> tuple:
    """Closed-walk check: known vertices, cyclically consecutive pairs are
    distinct and adjacent.  Returns the cycle as a tuple."""
    c = tuple(cycle)
    if not c:
        raise ValueError("empty cycle")
    adj = X._adjset
    for v in c:
        if v not in adj:
            raise ValueError(f"unknown vertex {v!r}")
    if len(c) == 1:
        return c
    for u, w in zip(c, c[1:] + c[:1]):
        if u == w:
            raise ValueError(f"repeated consecutive vertex {u!r}")
        if w not in adj[u]:
            raise ValueError(f"({u!r}, {w!r}) is not an edge")
    return c


def _step(adj, c, move) -> None:
    """Apply one move to the list ``c`` in place, validating its
    preconditions against the adjacency sets ``adj`` of the complex.  The one
    move checker: ``apply_move`` and ``replay`` both step through it."""
    L = len(c)
    kind = move[0]
    if kind == "backtrack":
        i = move[1]
        if L < 2 or not 0 <= i < L:
            raise ValueError(f"backtrack index {i} out of range for length {L}")
        if L == 2:
            del c[1 - i]
            return
        j, k = (i + 1) % L, (i + 2) % L
        if c[i] != c[k]:
            raise ValueError(f"no backtrack at index {i}")
        del c[max(j, k)], c[min(j, k)]
        return
    if kind == "shorten":
        i = move[1]
        if L < 3 or not 0 <= i < L:
            raise ValueError(f"shorten index {i} out of range for length {L}")
        j, k = (i + 1) % L, (i + 2) % L
        if c[i] == c[k]:
            raise ValueError(f"corner at {i} is a backtrack, not a shortening")
        if c[k] not in adj.get(c[i], ()):
            raise ValueError(f"no diagonal edge ({c[i]!r}, {c[k]!r})")
        del c[j]
        return
    if kind == "lengthen":
        i, v = move[1], move[2]
        if L < 2 or not 0 <= i < L:
            raise ValueError(f"lengthen index {i} out of range for length {L}")
        j = (i + 1) % L
        if v == c[i] or v == c[j]:
            raise ValueError("detour vertex must differ from its endpoints")
        if not (v in adj.get(c[i], ()) and c[j] in adj[v]):
            raise ValueError(f"{v!r} is not adjacent to both detour endpoints")
        c.insert(i + 1, v)
        return
    raise ValueError(f"unknown move kind {kind!r}")


def apply_move(X, cycle, move) -> tuple:
    """Apply one move, validating its preconditions against the complex."""
    c = list(cycle)
    _step(X._adjset, c, move)
    return tuple(c)


def replay(X, cycle, moves) -> tuple:
    """Fold a move sequence over a starting cycle, validating every step on
    one list."""
    c = list(validate_cycle(X, cycle))
    adj = X._adjset
    for mv in moves:
        _step(adj, c, mv)
    return tuple(c)


def _replays_to_point(X, start, result) -> bool:
    """Whether ``result.moves`` replays from ``start`` to ``result.final`` and
    that is a constant cycle; a move that fails to apply counts as no."""
    try:
        return replay(X, start, result.moves) == result.final and len(result.final) <= 1
    except ValueError:
        return False


def _is_mod2_cocycle(X, cocycle) -> bool:
    """Whether the edge set ``cocycle`` (sorted pairs) is a 1-cocycle of X
    over Z/2: edges of X only, and an even number on each triangle's boundary."""
    return cocycle <= X.edges and all(
        (((u, v) in cocycle) + ((u, w) in cocycle) + ((v, w) in cocycle)) % 2 == 0
        for u, v, w in X.simplices(2))


def _pairs_odd(cocycle, cycle) -> bool:
    """Whether the closed walk ``cycle`` crosses the edge set ``cocycle`` an
    odd number of times.  For a checked cocycle that proves the cycle is not
    null-homotopic: it is nonzero in H1(X; Z/2), hence in H1(X; Z), and
    null-homotopic loops are null-homologous."""
    c = tuple(cycle)
    crossings = sum(((u, w) if u < w else (w, u)) in cocycle
                    for u, w in zip(c, c[1:] + c[:1]))
    return crossings % 2 == 1


def _apply_unchecked(c, move) -> tuple:
    """Apply a move known to be legal for the tuple ``c`` by slicing, with no
    precondition checks.  Only the search calls this, on moves it built
    itself; ``_step`` stays the independent checker."""
    L = len(c)
    kind, i = move[0], move[1]
    if kind == "backtrack":
        if L == 2:
            return (c[i],)
        if i == L - 2:        # erases c[L-1] and c[0]
            return c[1:-1]
        if i == L - 1:        # erases c[0] and c[1]
            return c[2:]
        return c[: i + 1] + c[i + 3:]
    if kind == "shorten":
        if i == L - 1:        # cuts c[0]
            return c[1:]
        return c[: i + 1] + c[i + 2:]
    return c[: i + 1] + (move[2],) + c[i + 1:]


def normalize_cycle(X, cycle):
    """Erase retraced edges until none remain.  Returns (cycle, moves)."""
    c = tuple(cycle)
    moves = []
    while True:
        L = len(c)
        if L <= 1:
            break
        for i in range(L):
            if c[i] == c[(i + 2) % L]:
                mv = ("backtrack", i)
                c = _apply_unchecked(c, mv)
                moves.append(mv)
                break
        else:
            break
    return c, moves


def _cut(X, c, i):
    """The corner cut at ``i``, then backtrack erasure: (cycle, moves)."""
    mv = ("shorten", i)
    c, extra = normalize_cycle(X, _apply_unchecked(c, mv))
    return c, [mv] + extra


def _substitute(X, c, j, v):
    """``c[j]`` swapped for ``v``, adjacent to it and its cycle neighbours: a
    detour through ``v``, then the cut at ``c[j]`` (see ``_cut``)."""
    mv = ("lengthen", j, v)
    c, moves = _cut(X, _apply_unchecked(c, mv), j - 1 if j else len(c))
    return c, [mv] + moves


def canonical_cycle(cycle) -> tuple:
    """Least rotation over both orientations; the hash key for search states.
    The least rotation starts at an occurrence of the least vertex, so only
    those rotations are compared."""
    c = tuple(cycle)
    L = len(c)
    if L <= 1:
        return c
    m = min(c)
    return min(d[r:] + d[:r] for d in (c, c[::-1]) for r in range(L) if d[r] == m)


@dataclass(frozen=True)
class HomotopyResult:
    """Outcome of a reduction attempt.

    When ``reduced`` is true, ``moves`` replays from ``start`` down to the
    constant cycle ``final``.  Otherwise ``moves`` is still a valid homotopy
    trace from ``start`` to ``final``, and ``reason`` says why the search
    stopped; this never certifies nontriviality.  The search applies its
    moves without re-validating them, so only ``replay`` certifies either.
    """

    reduced: bool
    start: tuple
    moves: tuple = ()
    final: tuple = ()
    steps: int = 0
    reason: str = ""

    @property
    def essential_moves(self) -> int:
        """Moves other than free backtrack erasure."""
        return sum(1 for mv in self.moves if mv[0] != "backtrack")


def _shorten_candidates(X, c):
    adj = X._adjset
    L = len(c)
    for i in range(L):
        k = (i + 2) % L
        if c[i] != c[k] and c[k] in adj[c[i]]:
            yield i


def _greedy_descend(X, c, budget):
    """Deterministic descent: cut corners when a diagonal exists, otherwise
    swap a corner vertex for a neighbor coning over three consecutive
    vertices.  A visited set keeps the substitutions from cycling.

    The length never grows: a cut drops a vertex, and a substitution keeps
    the length or, after erasing backtracks, shortens.  A candidate can
    therefore equal only a visited state of its own length, and every such
    state was visited at the current length.  So ``seen`` holds the states
    of the current length only; it is emptied when the length drops, and
    built (from the current state) only when a substitution first needs it.
    """
    adj = X._adjset
    moves = []
    steps = 0
    seen = None
    while len(c) > 1 and steps < budget:
        steps += 1
        L = len(c)
        i = next(_shorten_candidates(X, c), None)
        if i is not None:
            c, extra = _cut(X, c, i)
            moves += extra
            seen = None
            continue
        if seen is None:
            seen = {canonical_cycle(c)}
        applied = False
        for i in range(L):
            j, k = (i + 1) % L, (i + 2) % L
            for v in sorted(adj[c[i]] & adj[c[j]]):
                if v in (c[i], c[j], c[k]) or c[k] not in adj[v]:
                    continue
                c2, extra = _substitute(X, c, j, v)
                if len(c2) == L:
                    key = canonical_cycle(c2)
                    if key in seen:
                        continue
                    seen.add(key)
                else:
                    seen = None
                c = c2
                moves += extra
                applied = True
                break
            if applied:
                break
        if not applied:
            break
    return c, moves, steps


def _one_move_neighbors(X, c, max_len):
    """All (cycle, moves) one essential move from the backtrack-free ``c``,
    normalized, in deterministic order.  A detour through ``c[i - 1]`` or
    ``c[i + 2]`` erases to a cut already listed, so it is skipped; any other
    leaves no backtrack."""
    out = [_cut(X, c, i) for i in _shorten_candidates(X, c)]
    L = len(c)
    if L < max_len:
        for i in range(L):
            j = (i + 1) % L
            for v in X.common_neighbors(c[i], c[j]):
                if v not in (c[i - 1], c[i], c[j], c[(j + 1) % L]):
                    mv = ("lengthen", i, v)
                    out.append((_apply_unchecked(c, mv), [mv]))
    return out


def reduce_cycle_homotopy(X, cycle, max_len: int | None = None,
                          max_steps: int = _MAX_STEPS) -> HomotopyResult:
    """Bounded null-homotopy search over the move graph.

    Backtracks are erased eagerly (they are free), then a greedy descent
    handles the common cases, and a breadth-first search over canonical
    cycle states up to ``max_len`` covers the rest of the budget.
    ``max_steps = 0`` is a budget of no steps; a negative one is refused.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    start = validate_cycle(X, cycle)
    if max_len is None:
        max_len = 2 * len(start) + 2
    c0, pre = normalize_cycle(X, start)
    if len(c0) <= 1:
        return HomotopyResult(True, start, tuple(pre), c0, 0, "backtrack erasure")
    gc, gmoves, steps = _greedy_descend(X, c0, max_steps)
    if len(gc) <= 1:
        return HomotopyResult(True, start, tuple(pre + gmoves), gc, steps, "greedy descent")
    # breadth-first over canonical states, recording how to reach each one
    root = canonical_cycle(c0)
    entries = {root: (c0, None, [])}
    queue = deque([root])
    while queue and steps < max_steps:
        key = queue.popleft()
        concrete = entries[key][0]
        steps += 1
        for nc, mvs in _one_move_neighbors(X, concrete, max_len):
            nkey = canonical_cycle(nc)
            if nkey in entries:
                continue
            entries[nkey] = (nc, key, mvs)
            if len(nc) <= 1:
                chain = []
                k = nkey
                while k is not None:
                    concrete_k, parent, mvs_k = entries[k]
                    chain.append(mvs_k)
                    k = parent
                flat = [mv for mvs_k in reversed(chain) for mv in mvs_k]
                return HomotopyResult(True, start, tuple(pre + flat), nc, steps,
                                      "breadth-first search")
            queue.append(nkey)
    reason = "step budget exhausted" if queue else "move space exhausted within max_len"
    return HomotopyResult(False, start, tuple(pre + gmoves), gc, steps, reason)
