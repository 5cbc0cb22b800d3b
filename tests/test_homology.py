from hypothesis import given, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from kakimizu.homology import H1Structure, smith_invariants


def sparse(rows):
    """The sparse rows ``smith_invariants`` takes: {column: nonzero entry}."""
    return [{j: a for j, a in enumerate(r) if a} for r in rows]


def sympy_invariants(rows):
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    m, n = snf.shape
    return sorted(abs(int(snf[i, i])) for i in range(min(m, n)) if snf[i, i] != 0)


@st.composite
def int_matrices(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    return [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(m)]


@given(int_matrices())
def test_smith_invariants_match_sympy(rows):
    assert sorted(smith_invariants(sparse(rows))) == sympy_invariants(rows)


@st.composite
def boundary_like_matrices(draw):
    """Up to 20 x 20, mostly 0 and +-1 with some +-2: most pivots are units,
    and rows left with no +-1 entry take remainder steps."""
    m = draw(st.integers(1, 20))
    n = draw(st.integers(1, 20))
    entry = st.sampled_from([0, 0, 0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -2])
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@given(boundary_like_matrices())
def test_smith_invariants_match_sympy_on_sparse_matrices(rows):
    # the rows are left as they were: homology_h1 passes cached relators
    given_rows = sparse(rows)
    assert sorted(smith_invariants(given_rows)) == sympy_invariants(rows)
    assert given_rows == sparse(rows)


@st.composite
def unitless_matrices(draw):
    """Up to 8 x 8 with no +-1 entry: the first pivot is never a unit, and a
    factor 1 needs a remainder step first."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    entry = st.sampled_from([0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9])
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@given(unitless_matrices())
def test_smith_invariants_match_sympy_without_unit_entries(rows):
    given_rows = sparse(rows)
    inv = smith_invariants(given_rows)
    assert sorted(inv) == sympy_invariants(rows)
    assert all(b % a == 0 for a, b in zip(inv, inv[1:]))
    assert given_rows == sparse(rows)


@given(int_matrices())
def test_smith_invariants_form_divisibility_chain(rows):
    inv = smith_invariants(sparse(rows))
    assert all(x > 0 for x in inv)
    assert all(b % a == 0 for a, b in zip(inv, inv[1:]))


def test_smith_known_values():
    assert smith_invariants(sparse([[2, 4], [4, 8]])) == [2]
    assert smith_invariants(sparse([[2, 0], [0, 3]])) == [1, 6]
    assert smith_invariants(sparse([[0, 0], [0, 0]])) == []
    assert smith_invariants(sparse([[6]])) == [6]
    # a remainder left in the pivot row, one left in the pivot column, and
    # negative pivots
    assert smith_invariants(sparse([[2, 3]])) == [1]
    assert smith_invariants(sparse([[2], [3]])) == [1]
    assert smith_invariants(sparse([[-2, 0], [0, -3]])) == [1, 6]


def test_smith_invariants_drop_zero_entries_and_keep_their_input():
    rows = [{0: 0, 1: 2}]
    assert smith_invariants(rows) == [2]
    assert rows == [{0: 0, 1: 2}]
    assert smith_invariants([{0: 0}]) == []
    rows = [{0: 2, 1: 3}, {0: 3}, {1: 0}]
    assert smith_invariants(rows) == [1, 9]
    assert rows == [{0: 2, 1: 3}, {0: 3}, {1: 0}]


def test_h1_structure_formatting():
    assert str(H1Structure(0)) == "0"
    assert str(H1Structure(1)) == "Z"
    assert str(H1Structure(3)) == "Z^3"
    assert str(H1Structure(1, (2, 6))) == "Z + Z/2 + Z/6"
    assert H1Structure(0).is_trivial()
    assert not H1Structure(0, (2,)).is_trivial()

