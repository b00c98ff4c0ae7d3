"""`linalg`'s Gauss-Jordan results against sympy's DomainMatrix over Q,
GF(101) and GF(2^31 - 1), whose large prime exercises the unreduced growth of
the row updates.  Outputs must be canonical: ints in [0, p) over GF(p),
Fractions over Q."""

from fractions import Fraction
from itertools import permutations

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from podforge import linalg  # noqa: E402
from podforge.fields import GF, QQ  # noqa: E402

PRIMES = {"fp:101": 101, "fp:2147483647": 2 ** 31 - 1, "q": None}


def _field(p):
    return GF(p) if p else QQ


def _entry_st(p):
    """Mostly small entries, with zeros often enough for rank drops and row
    swaps; over the large prime also entries near p."""
    if p is None:
        value = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    elif p == 101:
        value = st.integers(0, p - 1)
    else:
        value = st.one_of(st.integers(0, 9), st.integers(p - 9, p - 1), st.integers(0, p - 1))
    return st.one_of(st.just(0), value)


@st.composite
def matrix(draw, square=False):
    p = PRIMES[draw(st.sampled_from(sorted(PRIMES)))]
    n = draw(st.integers(1, 6))
    m = n if square else draw(st.integers(1, 7))
    entry = _entry_st(p)
    rows = [[draw(entry) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):
        # a row that repeats a combination of two others: a rank drop
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[draw(st.integers(0, n - 1))] = [a + 2 * b for a, b in zip(rows[i], rows[j])]
    return p, rows


def _theirs(rows, p):
    dom = sympy.GF(p) if p else sympy.QQ
    if p:
        data = [[dom(int(c)) for c in r] for r in rows]
    else:
        data = [[dom(Fraction(c).numerator, Fraction(c).denominator) for c in r] for r in rows]
    return DomainMatrix(data, (len(rows), len(rows[0])), dom)


def _ours(x, p):
    return int(x) % p if p else Fraction(int(x.numerator), int(x.denominator))


def _assert_canonical(values, p):
    for c in values:
        if p:
            assert type(c) is int and 0 <= c < p
        else:
            assert type(c) is Fraction


def _times(rows, v, p):
    """rows times v, summed independently of `linalg`."""
    out = [sum(Fraction(a) * b for a, b in zip(r, v)) for r in rows]
    return [c % p for c in out] if p else out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=matrix())
def test_rref_and_rank_match_sympy(case):
    p, rows = case
    field = _field(p)
    red, pivots = linalg.rref(rows, field)
    their_red, their_pivots = _theirs(rows, p).rref()
    assert pivots == list(their_pivots)
    assert linalg.rank(rows, field) == len(their_pivots) == _theirs(rows, p).rank()
    assert red == [[_ours(c, p) for c in r] for r in their_red.to_list()[:len(pivots)]]
    assert linalg.row_space_basis(rows, field) == red
    _assert_canonical([c for r in red for c in r], p)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=matrix())
def test_matrix_kernel_is_the_free_column_basis(case):
    # A v = 0, one vector per column that is not a pivot of sympy's RREF,
    # with 1 at its own free column and 0 at the others: that fixes each vector
    p, rows = case
    kernel = linalg.matrix_kernel(rows, _field(p))
    pivots = set(_theirs(rows, p).rref()[1])
    free = [c for c in range(len(rows[0])) if c not in pivots]
    assert len(kernel) == len(free)
    for v, col in zip(kernel, free):
        _assert_canonical(v, p)
        assert all(c == 0 for c in _times(rows, v, p))
        assert [v[c] for c in free] == [int(c == col) for c in free]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=matrix(square=True))
def test_det_and_inverse_match_sympy(case):
    p, rows = case
    field = _field(p)
    theirs = _theirs(rows, p)
    d = linalg.det(rows, field)
    _assert_canonical([d], p)
    assert d == _ours(theirs.det(), p)
    if d == 0:
        with pytest.raises(ValueError):
            linalg.mat_inverse(rows, field)
        return
    inv = linalg.mat_inverse(rows, field)
    _assert_canonical([c for r in inv for c in r], p)
    assert inv == [[_ours(c, p) for c in r] for r in theirs.inv().to_list()]


def _sign(perm):
    return (-1) ** sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])


@pytest.mark.parametrize("p", sorted(PRIMES.values(), key=str))
def test_det_sign_comes_from_the_row_swaps(p):
    # rows of an upper-triangular matrix in every order of 4: the loop's
    # first-nonzero pivots swap rows, and det = sign(perm) * prod(diagonal)
    field = _field(p)
    diag = [2, 3, 5, 7]
    upper = [[diag[i] if j == i else (i + j if j > i else 0) for j in range(4)]
             for i in range(4)]
    for perm in permutations(range(4)):
        rows = [upper[k] for k in perm]
        want = field.of(_sign(perm) * 210)
        assert linalg.det(rows, field) == want == _ours(_theirs(rows, p).det(), p)


@pytest.mark.parametrize("p", sorted(PRIMES.values(), key=str))
def test_singular_and_non_square_matrices_raise(p):
    field = _field(p)
    with pytest.raises(ValueError):
        linalg.mat_inverse([[1, 2], [2, 4]], field)
    with pytest.raises(ValueError):
        linalg.mat_inverse([[1, 2, 3], [0, 1, 0]], field)
    with pytest.raises(ValueError):
        linalg.det([[1, 2, 3], [0, 1, 0]], field)
    assert linalg.det([[1, 2], [2, 4]], field) == field.zero
