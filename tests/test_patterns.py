import random

import pytest
from hypothesis import given, strategies as st

import kakimizu.patterns
from kakimizu import (EMPTY_PATTERN, OffsetPattern, PatternError, covering_spread,
                      dualize, intersection_number, lt_lb, validate_pattern)
from kakimizu.patterns import _lt_lb_unchecked

from conftest import random_pattern


# -- independent oracles -----------------------------------------------------


def literal_lt_lb(support, nat_includes_zero=True):
    """Read the spread indices straight off the defining sets, with an
    explicit choice of whether the naturals contain zero."""
    support = set(support)
    nat_min = 0 if nat_includes_zero else 1
    if 1 in support:
        l_t = max(n for n in support if n >= nat_min)
    else:
        l_t = 0
    if 0 in support:
        # largest negative (or non-positive) index whose translate is missed
        l_b = max(n for n in range(min(support) - 2, -nat_min + 1) if n not in support)
    else:
        l_b = 0
    return l_t, l_b


def schematic_dualize(pattern):
    """Swap the two periodic stacks in a one-dimensional schematic.

    Crossings of the fixed lift with translate n sit at integer height n.
    After the swap, the copy at shift m crosses height h exactly when the
    original crossed height h - m, and the re-normalized zero lift of the
    other family is the one at height 1.
    """
    crossings = {n: c for n, c in zip(pattern.support, pattern.counts)}
    counts_by_shift = {}
    for m in range(-30, 30):
        c = crossings.get(1 - m, 0)
        if c:
            counts_by_shift[m] = c
    if not counts_by_shift:
        return OffsetPattern()
    lo, hi = min(counts_by_shift), max(counts_by_shift)
    return OffsetPattern(lo, tuple(counts_by_shift[m] for m in range(lo, hi + 1)))


def all_windows():
    """Every support window with start in [-6, 1] and end in [0, 6]."""
    for a in range(-6, 2):
        for b in range(max(a, 0), 7):
            if a == 1 and b == 0:
                continue
            yield a, b


valid_patterns = st.builds(
    random_pattern,
    st.integers(0, 2**30).map(random.Random),
    st.just(True),
)


# -- lt_lb -------------------------------------------------------------------


def test_lt_lb_empty():
    assert lt_lb(EMPTY_PATTERN) == (0, 0)


def test_lt_lb_single_positive_translate():
    # l_t = 1 and l_b = 0
    assert lt_lb(OffsetPattern(1, (1,))) == (1, 0)


def test_lt_lb_single_zero_translate():
    # the mirror case: l_t = 0 and l_b = -1
    assert lt_lb(OffsetPattern(0, (1,))) == (0, -1)


def test_lt_lb_wide_support():
    assert lt_lb(OffsetPattern(-1, (1, 1, 1, 1))) == (2, -2)


def test_lt_lb_matches_literal_scan_on_all_windows():
    for a, b in all_windows():
        p = OffsetPattern(a, (1,) * (b - a + 1))
        assert lt_lb(p) == literal_lt_lb(range(a, b + 1))


def test_natural_numbers_convention_is_immaterial():
    # whether 0 counts as natural does not change either guarded clause
    for a, b in all_windows():
        support = range(a, b + 1)
        assert literal_lt_lb(support, True) == literal_lt_lb(support, False)


def test_lt_lb_rejects_denormalized_support():
    with pytest.raises(PatternError, match="support misses"):
        lt_lb(OffsetPattern(3, (1, 1)))
    with pytest.raises(PatternError, match="support misses"):
        lt_lb(OffsetPattern(-4, (1, 1)))


@pytest.mark.parametrize("reader", [lt_lb, covering_spread, intersection_number, dualize])
def test_public_readers_validate_for_outside_callers(reader):
    with pytest.raises(PatternError, match=r"counts\[1\] = 0: zero count breaks contiguity"):
        reader(OffsetPattern(0, (1, 0, 1)))


@given(valid_patterns)
def test_unchecked_readers_agree_with_the_public_ones(p):
    assert p._problems == tuple(validate_pattern(p)) == ()
    assert _lt_lb_unchecked(p) == lt_lb(p)
    assert p._numbers == (covering_spread(p), intersection_number(p))
    assert dualize(p)._numbers == p._numbers


def test_a_pattern_is_validated_and_measured_once_per_object(monkeypatch):
    calls = []
    real_validate = kakimizu.patterns.validate_pattern

    def counting_validate(p):
        calls.append(p)
        return real_validate(p)

    monkeypatch.setattr(kakimizu.patterns, "validate_pattern", counting_validate)
    p, q = OffsetPattern(0, (1, 2)), OffsetPattern(0, (1, 2))
    for reader in (lt_lb, covering_spread, intersection_number, dualize) * 2:
        reader(p)
    assert calls == [p] and calls[0] is p
    assert p._numbers is p._numbers == (2, 3)
    covering_spread(q)   # an equal object keeps its own verdict
    assert len(calls) == 2 and calls[1] is q
    bad = OffsetPattern(3, (1, 1))
    for _ in range(2):
        with pytest.raises(PatternError, match="support misses"):
            covering_spread(bad)
    assert calls[2:] == [bad]
    # read unchecked: the numbers of an invalid pattern are what it stores
    assert bad._numbers == (0, 2)
    assert OffsetPattern(0, (1, 0, 1))._numbers == (3, 2)


# -- covering spread ---------------------------------------------------------


def test_spread_examples():
    assert covering_spread(EMPTY_PATTERN) == 0
    assert covering_spread(OffsetPattern(1, (1,))) == 1
    assert covering_spread(OffsetPattern(0, (1, 1))) == 2


def test_spread_closed_form_on_all_windows():
    rng = random.Random(7)
    for a, b in all_windows():
        counts = tuple(rng.randint(1, 5) for _ in range(b - a + 1))
        p = OffsetPattern(a, counts)
        top, bottom = lt_lb(p)
        assert covering_spread(p) == top - bottom == len(counts)


@given(valid_patterns)
def test_spread_zero_iff_empty(p):
    assert (covering_spread(p) == 0) == p.is_empty()


# -- intersection number -----------------------------------------------------


def test_intersection_examples():
    assert intersection_number(EMPTY_PATTERN) == 0
    assert intersection_number(OffsetPattern(0, (2, 3))) == 5


@given(valid_patterns)
def test_spread_at_most_intersection(p):
    assert covering_spread(p) <= intersection_number(p)


@given(valid_patterns)
def test_spread_equals_intersection_iff_unit_counts(p):
    equal = covering_spread(p) == intersection_number(p)
    assert equal == all(c == 1 for c in p.counts)


# -- dualize -----------------------------------------------------------------


def test_dualize_examples():
    assert dualize(EMPTY_PATTERN) == EMPTY_PATTERN
    assert dualize(OffsetPattern(1, (1,))) == OffsetPattern(0, (1,))
    assert dualize(OffsetPattern(0, (1, 2, 1))) == OffsetPattern(-1, (1, 2, 1))


def test_dualize_asymmetric_counts_reverse():
    assert dualize(OffsetPattern(0, (2, 5))) == OffsetPattern(0, (5, 2))


@given(valid_patterns)
def test_dualize_matches_schematic_oracle(p):
    assert dualize(p) == schematic_dualize(p)


@given(valid_patterns)
def test_dualize_involution(p):
    assert dualize(dualize(p)) == p


@given(valid_patterns)
def test_dualize_preserves_spread_and_intersection(p):
    assert covering_spread(dualize(p)) == covering_spread(p)
    assert intersection_number(dualize(p)) == intersection_number(p)


@given(valid_patterns)
def test_dualize_output_is_valid(p):
    assert validate_pattern(dualize(p)) == []


# -- validation --------------------------------------------------------------


def test_validate_ok():
    assert validate_pattern(EMPTY_PATTERN) == []
    assert validate_pattern(OffsetPattern(-2, (1, 4, 2))) == []


def test_validate_support_misses_normalization_window():
    problems = validate_pattern(OffsetPattern(3, (1, 1)))
    assert any("support misses {0,1}" in msg for msg in problems)


def test_validate_zero_count():
    problems = validate_pattern(OffsetPattern(0, (1, 0, 1)))
    assert any("zero count breaks contiguity" in msg for msg in problems)


def test_validate_negative_count():
    problems = validate_pattern(OffsetPattern(0, (1, -2)))
    assert any("positive" in msg for msg in problems)


def test_validate_refuses_counts_and_starts_that_are_not_exactly_int():
    class Count(int):
        pass

    for bad in (True, 1.0, "1", Count(1)):
        assert validate_pattern(OffsetPattern(0, (1, bad))) == [
            f"counts[1] = {bad!r}: count must be an integer"]
        assert validate_pattern(OffsetPattern(bad, (1,))) == [
            f"support_start = {bad!r}: must be an integer"]


def test_empty_pattern_is_canonical():
    assert OffsetPattern(5, ()) == EMPTY_PATTERN
    assert OffsetPattern(5, ()).support_start == 0


def test_counts_coerced_to_tuple():
    assert OffsetPattern(0, [1, 2]).counts == (1, 2)
