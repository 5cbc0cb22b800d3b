"""Periodic lift-intersection patterns.

A surface in a knot exterior lifts to a bi-infinite stack of translates
``S_n`` in the infinite cyclic cover.  For an ordered pair of surfaces
``(S, S*)`` the interesting data is which translates ``S_n`` meet the one
normalized lift of ``S*`` (the lift whose boundary sits between ``S_0`` and
``S_1``), and in how many curves.  That is all an :class:`OffsetPattern`
records; covering spread and intersection number are read off it.
"""
from __future__ import annotations

from dataclasses import dataclass


class PatternError(ValueError):
    """An operation was asked to use a pattern that breaks the invariants."""


@dataclass(frozen=True, order=True)
class OffsetPattern:
    """Intersection counts of the translate stack against one fixed lift.

    ``counts[k]`` is the number of intersection components in translate
    ``support_start + k``.  The empty sequence encodes disjoint surfaces.
    Support contiguity is structural: a lift is connected, so the translates
    it crosses form an interval.  Normalization forces that interval to meet
    ``{0, 1}`` whenever it is nonempty.
    """

    support_start: int = 0
    counts: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))
        if not self.counts:
            # canonical empty pattern, so equality ignores a stray offset
            object.__setattr__(self, "support_start", 0)

    @property
    def support(self) -> range:
        return range(self.support_start, self.support_start + len(self.counts))

    def is_empty(self) -> bool:
        return not self.counts


EMPTY_PATTERN = OffsetPattern()


def validate_pattern(p: OffsetPattern) -> list[str]:
    """Report every violated invariant by name; an empty list means valid.

    Violations are data, not failures: loaders and tests inspect them.
    """
    problems = []
    if type(p.support_start) is not int:
        problems.append(f"support_start = {p.support_start!r}: must be an integer")
        return problems
    for k, c in enumerate(p.counts):
        if type(c) is not int:
            problems.append(f"counts[{k}] = {c!r}: count must be an integer")
        elif c == 0:
            problems.append(f"counts[{k}] = 0: zero count breaks contiguity")
        elif c < 0:
            problems.append(f"counts[{k}] = {c}: counts must be positive")
    if p.counts:
        a = p.support_start
        b = a + len(p.counts) - 1
        if a > 1 or b < 0:
            problems.append("support misses {0,1}")
    return problems


def _require_valid(p: OffsetPattern) -> None:
    problems = validate_pattern(p)
    if problems:
        raise PatternError("; ".join(problems))


def lt_lb(p: OffsetPattern) -> tuple[int, int]:
    """Top and bottom spread indices, read literally off the defining sets.

    ``l_t`` is the largest translate index meeting the fixed lift, provided
    translate 1 meets it, and 0 otherwise.  ``l_b`` is the largest *negative*
    index whose translate misses the fixed lift, provided translate 0 meets
    it, and 0 otherwise.  Under contiguity the second clause is
    ``support_start - 1`` whenever 0 lies in the support.
    """
    _require_valid(p)
    return _lt_lb_unchecked(p)


def covering_spread(p: OffsetPattern) -> int:
    """``l_t - l_b``.  For every valid pattern this equals ``len(counts)``."""
    _require_valid(p)
    return _spread_unchecked(p)


def intersection_number(p: OffsetPattern) -> int:
    """Total number of intersection curves: each lifts into exactly one
    translate pair, so the per-translate counts simply add up."""
    _require_valid(p)
    return _intersection_unchecked(p)


# The readers below, and the dual after dualize, trust their argument: a
# surface system validates each pattern once, when it is built, and reads
# its numbers and its reversed patterns through these.


def _lt_lb_unchecked(p: OffsetPattern) -> tuple[int, int]:
    if p.is_empty():
        return (0, 0)
    a = p.support_start
    b = a + len(p.counts) - 1
    l_t = b if a <= 1 <= b else 0
    l_b = a - 1 if a <= 0 <= b else 0
    return (l_t, l_b)


def _spread_unchecked(p: OffsetPattern) -> int:
    top, bottom = _lt_lb_unchecked(p)
    return top - bottom


def _intersection_unchecked(p: OffsetPattern) -> int:
    return sum(p.counts)


def dualize(p: OffsetPattern) -> OffsetPattern:
    """Pattern of the reversed surface pair.

    Swapping roles re-normalizes the stack: translate index ``n`` maps to
    ``1 - n``, so the support interval ``[a, b]`` becomes ``[1 - b, 1 - a]``
    and the counts reverse.  This is an involution and preserves both
    covering spread and intersection number.
    """
    _require_valid(p)
    return _dualize_unchecked(p)


def _dualize_unchecked(p: OffsetPattern) -> OffsetPattern:
    if p.is_empty():
        return EMPTY_PATTERN
    b = p.support_start + len(p.counts) - 1
    return OffsetPattern(1 - b, tuple(reversed(p.counts)))
