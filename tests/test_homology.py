from hypothesis import given, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from kakimizu.homology import H1Structure, homology_from_boundaries, smith_invariants


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
    assert sorted(smith_invariants(rows)) == sympy_invariants(rows)


@st.composite
def boundary_like_matrices(draw):
    """Up to 20 x 20, mostly 0 and +-1 with some +-2: the unit pivots run on
    the sparse rows, and rows left with no +-1 entry reach the dense remainder."""
    m = draw(st.integers(1, 20))
    n = draw(st.integers(1, 20))
    entry = st.sampled_from([0, 0, 0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -2])
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@given(boundary_like_matrices())
def test_smith_invariants_match_sympy_on_sparse_matrices(rows):
    assert sorted(smith_invariants(rows)) == sympy_invariants(rows)


@given(int_matrices())
def test_smith_invariants_form_divisibility_chain(rows):
    inv = smith_invariants(rows)
    assert all(x > 0 for x in inv)
    assert all(b % a == 0 for a, b in zip(inv, inv[1:]))


def test_smith_known_values():
    assert smith_invariants([[2, 4], [4, 8]]) == [2]
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariants([[0, 0], [0, 0]]) == []
    assert smith_invariants([[6]]) == [6]


def test_h1_structure_formatting():
    assert str(H1Structure(0)) == "0"
    assert str(H1Structure(1)) == "Z"
    assert str(H1Structure(3)) == "Z^3"
    assert str(H1Structure(1, (2, 6))) == "Z + Z/2 + Z/6"
    assert H1Structure(0).is_trivial()
    assert not H1Structure(0, (2,)).is_trivial()


def test_homology_from_boundaries_detects_torsion():
    # one 1-cycle hit twice by the single 2-cell: H1 = Z/2 plus a leftover Z
    # (synthetic chain data, not from a flag complex)
    d2 = [[2], [0]]
    assert homology_from_boundaries(2, 0, d2) == H1Structure(1, (2,))


def test_homology_from_boundaries_disk():
    # triangle boundary filled by one 2-cell; d1 has the rank of a 2-edge tree
    d2 = [[1], [-1], [1]]
    assert homology_from_boundaries(3, 2, d2) == H1Structure(0)
