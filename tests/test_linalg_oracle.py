"""`linalg`'s Gauss-Jordan results against sympy's DomainMatrix over Q,
GF(101) and GF(2^31 - 1), whose large prime widens the packed rows' slots.
Outputs must be canonical: ints in [0, p) over GF(p), Fractions over Q.  The
packed GF(p) loops are also checked at the sizes of a slice solve (40 x 40
and 40 x 80), `mat_mul` against a triple loop, and the Krylov
characteristic polynomial on cyclic and derogatory matrices."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from podforge import linalg  # noqa: E402
from podforge.fields import GF, QQ, slot_layout  # noqa: E402

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


# -- the packed GF(p) loops at the sizes of a slice solve -------------------------

LARGE_PRIMES = [101, 2 ** 31 - 1]


def _random_rows(rng, p, n, m):
    return [[rng.randrange(p) for _ in range(m)] for _ in range(n)]


def _sympy_inverse(rows, p):
    return [[_ours(c, p) for c in r] for r in _theirs(rows, p).inv().to_list()]


@pytest.mark.parametrize("p", LARGE_PRIMES)
@pytest.mark.parametrize("shape", [(40, 40), (40, 80)])
@pytest.mark.parametrize("drop", [False, True])
def test_packed_elimination_at_slice_sizes_matches_sympy(p, shape, drop):
    # the 40 x 40 matrices and the 40 x 80 [M | I] of a slice solve; with
    # `drop`, a zero column (a skipped pivot column) and rows that repeat
    # combinations of others (a rank drop)
    n, m = shape
    rng = random.Random(p + m + drop)
    rows = _random_rows(rng, p, n, m)
    if drop:
        for r in rows:
            r[3] = 0
        for k in range(n - 5, n):
            a, b = rows[rng.randrange(n - 5)], rows[rng.randrange(n - 5)]
            rows[k] = [(3 * x + y) % p for x, y in zip(a, b)]
    field = GF(p)
    theirs = _theirs(rows, p)
    red, pivots = linalg.rref(rows, field)
    their_red, their_pivots = theirs.rref()
    assert pivots == list(their_pivots)
    assert red == [[_ours(c, p) for c in r] for r in their_red.to_list()[:len(pivots)]]
    _assert_canonical([c for r in red for c in r], p)
    assert linalg.rank(rows, field) == theirs.rank() == (n - 5 if drop else min(n, m))
    kernel = linalg.matrix_kernel(rows, field)
    free = [c for c in range(m) if c not in set(their_pivots)]
    assert len(kernel) == len(free)
    for v, col in zip(kernel, free):
        assert all(c == 0 for c in _times(rows, v, p))
        assert [v[c] for c in free] == [int(c == col) for c in free]
    if n != m:
        return
    d = linalg.det(rows, field)
    assert d == _ours(theirs.det(), p)
    assert (d == 0) == drop
    if drop:
        with pytest.raises(ValueError):
            linalg.mat_inverse(rows, field)
    else:
        assert linalg.mat_inverse(rows, field) == _sympy_inverse(rows, p)


@pytest.mark.parametrize("p", LARGE_PRIMES)
@pytest.mark.parametrize("shape", [(40, 40, 40), (7, 40, 80), (3, 1, 5)])
def test_packed_mat_mul_matches_the_triple_loop(p, shape):
    # entries outside [0, p), negatives and zeros included, enter the field
    n, k, m = shape
    rng = random.Random(p + n + m)

    def entry():
        return rng.choice([0, rng.randrange(p), rng.randrange(-3 * p, 3 * p)])

    a = [[entry() for _ in range(k)] for _ in range(n)]
    b = [[entry() for _ in range(m)] for _ in range(k)]
    want = [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(m)] for i in range(n)]
    ours = linalg.mat_mul(a, b, GF(p))
    assert ours == want
    _assert_canonical([c for r in ours for c in r], p)


@pytest.mark.parametrize("p", [3, 101, 2 ** 31 - 1])
@pytest.mark.parametrize("count", [1, 7, 40])
def test_slot_layout_reduces_every_slot_below_its_bound(p, count):
    # slots at the bound's top and at random values below it, against % p
    rng = random.Random(p + count)
    for bound in (p, p * p, 99 * p * p + 1, 10 ** 6 * p):
        width, s, magic, ones, mask = slot_layout(p, bound, count)
        assert ones == sum(1 << (k * width) for k in range(count))
        for slots in ([bound - 1] * count, [rng.randrange(bound) for _ in range(count)]):
            x = sum(v << (k * width) for k, v in enumerate(slots))
            r = x - p * (((x * magic) >> s) & mask)
            assert [(r >> (k * width)) & ((1 << width) - 1) for k in range(count)] == [v % p for v in slots]


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_packed_mat_mul_at_the_top_of_its_slots(p):
    # every entry p - 1 over an inner dimension of 99: each slot of a product
    # row sums 99 (p - 1)^2 before its one reduction
    a = [[p - 1] * 99 for _ in range(2)]
    b = [[-1] * 3 for _ in range(99)]
    assert linalg.mat_mul(a, b, GF(p)) == [[99 * (p - 1) ** 2 % p] * 3] * 2


def test_krylov_charpoly_matches_hessenberg_at_60():
    # a cyclic 60 x 60 matrix: the Krylov products sum 60 terms a slot
    rng = random.Random(60)
    rows = _random_rows(rng, 101, 60, 60)
    field = GF(101)
    assert linalg._krylov_charpoly(rows, 101) == linalg._hessenberg_charpoly(
        [list(r) for r in rows], field)


def _block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, r in enumerate(b):
            out[at + i][at:at + len(r)] = r
        at += len(b)
    return out


def _jordan(lam, k):
    return [[lam if j == i else int(j == i + 1) for j in range(k)] for i in range(k)]


def _conjugated(rows, p, rng):
    """P rows P^-1 for a random invertible P, P^-1 from sympy."""
    n = len(rows)
    while True:
        P = _random_rows(rng, p, n, n)
        if _theirs(P, p).det() != 0:
            break
    Pinv = _sympy_inverse(P, p)

    def mul(x, y):
        return [[sum(x[i][t] * y[t][j] for t in range(n)) % p for j in range(n)] for i in range(n)]

    return mul(mul(P, rows), Pinv)


def _sympy_charpoly(rows, p):
    return [int(c) % p for c in reversed(_theirs(rows, p).charpoly())]


@pytest.mark.parametrize("p", LARGE_PRIMES)
@pytest.mark.parametrize("which", ["identity", "two Jordan blocks", "nilpotent block", "cyclic"])
def test_charpoly_falls_back_to_hessenberg_exactly_on_derogatory_matrices(monkeypatch, p, which):
    # e_0's Krylov rows give the characteristic polynomial only when e_0 is
    # cyclic; on a derogatory matrix no vector is, and the Hessenberg route
    # must run
    rng = random.Random(p + len(which))
    if which == "identity":
        rows = _block_diagonal([_jordan(1, 1)] * 12)
    elif which == "two Jordan blocks":
        rows = _conjugated(_block_diagonal(
            [_jordan(5, 4), _jordan(5, 3), _random_rows(rng, p, 5, 5)]), p, rng)
    elif which == "nilpotent block":
        rows = _conjugated(_block_diagonal(
            [_jordan(0, 3), _jordan(0, 2), _random_rows(rng, p, 7, 7)]), p, rng)
    else:
        rows = _random_rows(rng, p, 30, 30)
    calls = []
    hessenberg = linalg._hessenberg_charpoly

    def recording(a, field):
        calls.append(len(a))
        return hessenberg(a, field)

    monkeypatch.setattr(linalg, "_hessenberg_charpoly", recording)
    ours = linalg.charpoly(rows, GF(p))
    _assert_canonical(ours, p)
    assert ours == _sympy_charpoly(rows, p)
    assert calls == ([] if which == "cyclic" else [len(rows)])
