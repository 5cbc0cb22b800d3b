"""Integer Smith normal form and first homology.

``complexes.homology_h1`` presents H1 by the spanning forest: the non-forest
edges generate and each triangle gives a relator, so only the relators go
through ``smith_invariants`` (450 sparse rows on 450 generators for a 16 x 16
lattice).  ``smith_invariants`` is one elimination on those sparse rows, the
textbook Smith reduction by division with remainder (Kaczynski-Mischaikow-
Mrozek, *Computational Homology*, 2004, ch. 3).  Each step adds an integer
multiple of a row to another row, or of a column to another column, so it
is unimodular and exact over Z.  Almost every pivot of a relator matrix is a
unit, which leaves no remainder and splits off one invariant factor 1; a
relator with one entry is a free edge, so a collapsible disc empties on unit
pivots alone.  Remainder steps come only with non-unit pivots, which is
where torsion comes from.  The arithmetic stays in exact Python integers: no
coefficient growth surprises, no float rank estimates.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass


def smith_invariants(rows) -> list[int]:
    """Nonzero invariant factors of an integer matrix, as a divisibility chain.

    ``rows`` is a sequence of sparse rows, each a mapping {column: int}; they
    are copied, not modified, and zero entries are dropped.  A heap keyed by
    (least |entry|, nonzeros, row index), pushed again whenever a row changes,
    yields a row holding the least entry p of the matrix, at column c; on a
    collapsible disc every p is a unit, taken shortest row first to limit
    fill.  Row operations by other[c] // p clear column c in the other rows up
    to remainders, and a row with one left waits for it.  Otherwise column c
    is this row's alone, so column operations, which change no other row,
    replace each other entry a by a - a // p * p.  With no remainder left, |p|
    is a factor and the row is dropped; else the row goes back on the heap.
    A step that records no factor leaves a remainder below |p|, so the least
    |entry| strictly falls between two recorded factors and the loop ends.
    """
    sparse = {}  # row index -> {column: nonzero entry}
    for i, r in enumerate(rows):
        row = {j: a for j, a in r.items() if a}
        if row:
            sparse[i] = row
    cols = {}  # column -> indices of the rows with a nonzero there
    for i, row in sparse.items():
        for j in row:
            cols.setdefault(j, set()).add(i)

    def key(row):
        return min(map(abs, row.values())), len(row)

    heap = [(*key(row), i) for i, row in sparse.items()]
    heapq.heapify(heap)
    factors = []
    while heap:
        least, size, i = heapq.heappop(heap)
        row = sparse.get(i)
        if row is None or key(row) != (least, size):
            continue  # stale entry: the row was dropped or has changed
        c, p = next((j, a) for j, a in row.items() if abs(a) == least)
        for k in cols[c] - {i}:
            other = sparse[k]
            q = other[c] // p
            for j, a in row.items():
                v = other.get(j, 0) - q * a
                if v:
                    if j not in other:
                        cols[j].add(k)
                    other[j] = v
                else:
                    del other[j]
                    cols[j].discard(k)
            if other:
                heapq.heappush(heap, (*key(other), k))
            else:
                del sparse[k]
        if len(cols[c]) > 1:  # a remainder is left in column c
            heapq.heappush(heap, (least, size, i))
            continue
        rest = {j: r for j, a in row.items() if (r := a % p)}
        for j in row:
            if j not in rest:
                cols[j].discard(i)
        if rest:
            sparse[i] = rest | {c: p}
            cols[c].add(i)
            heapq.heappush(heap, (*key(sparse[i]), i))
        else:
            del sparse[i]
            factors.append(least)
    # gcd/lcm exchanges, diag(a, b) ~ diag(gcd, lcm), make the factors above 1
    # a divisibility chain; the ones, often thousands, go in front unexchanged
    chain = [d for d in factors if d > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                a, b = chain[i], chain[j]
                if b % a != 0:
                    g = math.gcd(a, b)
                    chain[i], chain[j] = g, a // g * b
                    changed = True
    return [1] * factors.count(1) + chain


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

