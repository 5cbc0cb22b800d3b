"""Integer Smith normal form and first homology.

``complexes.homology_h1`` presents H1 by the spanning forest: the non-forest
edges generate and each triangle gives a relator, so only the relators go
through ``smith_invariants`` (450 sparse rows on 450 generators for a 16 x 16
lattice).  Almost every pivot they need is a unit, so ``smith_invariants``
eliminates the +-1 pivots on the sparse rows first and leaves only what
remains to the dense elimination.  A unit pivot clears its column by adding
integer multiples of its row to other rows, then its own row by column
operations, so each step is unimodular and exact over Z and splits off one
invariant factor 1.  A relator with one entry is a free edge, so a
collapsible disc empties completely.  The arithmetic stays in exact Python
integers: no coefficient growth surprises, no float rank estimates.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass


def smith_invariants(rows) -> list[int]:
    """Nonzero invariant factors of an integer matrix, as a divisibility chain.

    ``rows`` is a sequence of sparse rows, each a mapping {column: nonzero
    int}; they are copied, not modified.  Unit pivots are eliminated first,
    the row with the fewest nonzeros first (to limit fill), each adding one
    factor 1; the rows left without a +-1 entry go to ``_dense_invariants``.
    """
    sparse = {i: dict(r) for i, r in enumerate(rows) if r}
    cols = {}  # column -> indices of the rows with a nonzero there
    for i, row in sparse.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in sparse.items()]
    heapq.heapify(heap)
    units = 0
    while heap:
        size, i = heapq.heappop(heap)
        row = sparse.get(i)
        if row is None or len(row) != size:
            continue  # stale entry: the row was eliminated or has changed
        c = next((j for j, a in row.items() if a in (1, -1)), None)
        if c is None:
            continue  # a later elimination that changes the row re-queues it
        del sparse[i]
        for j in row:
            cols[j].discard(i)
        p = row[c]
        for k in cols.pop(c):
            other = sparse[k]
            q = other[c] * p  # other[c] / p, as p = +-1
            for j, a in row.items():
                v = other.get(j, 0) - q * a
                if v:
                    if j not in other:
                        cols[j].add(k)
                    other[j] = v
                else:
                    del other[j]
                    if j != c:
                        cols[j].discard(k)
            if other:
                heapq.heappush(heap, (len(other), k))
            else:
                del sparse[k]
        units += 1
    live = sorted(j for j, users in cols.items() if users)
    rest = [[row.get(j, 0) for j in live] for row in sparse.values()]
    return [1] * units + _dense_invariants(rest)


def _dense_invariants(A: list[list[int]]) -> list[int]:
    """Invariant factors of a dense integer matrix, which is modified in place.

    Classic pivot-and-reduce elimination: move a least-magnitude entry to the
    pivot, clear its row and column by division with remainder (remainders
    become smaller pivots), then normalize the diagonal multiset with
    gcd/lcm exchanges, which realizes diag(a, b) = diag(gcd, lcm).
    """
    m = len(A)
    n = len(A[0]) if m else 0
    diag = []
    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = A[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
        clean = False
        while not clean:
            clean = True
            p = A[t][t]
            for i in range(t + 1, m):
                q = A[i][t] // p
                if q:
                    A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                if A[i][t] != 0:
                    # remainder is a strictly smaller pivot
                    A[t], A[i] = A[i], A[t]
                    if A[t][t] < 0:
                        A[t] = [-x for x in A[t]]
                    clean = False
                    break
            if not clean:
                continue
            for j in range(t + 1, n):
                q = A[t][j] // p
                if q:
                    for row in A:
                        row[j] -= q * row[t]
                if A[t][j] != 0:
                    for row in A:
                        row[t], row[j] = row[j], row[t]
                    if A[t][t] < 0:
                        A[t] = [-x for x in A[t]]
                    clean = False
                    break
        diag.append(A[t][t])
        t += 1
        if t >= m or t >= n:
            break
    # gcd/lcm passes impose the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                a, b = diag[i], diag[j]
                if b % a != 0:
                    g = math.gcd(a, b)
                    diag[i], diag[j] = g, a // g * b
                    changed = True
    return diag


@dataclass(frozen=True)
class H1Structure:
    """First homology as free rank plus torsion invariant factors (> 1)."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

