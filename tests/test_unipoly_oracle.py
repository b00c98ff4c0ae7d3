"""The univariate-polynomial kit against independent oracles: sympy's Poly
arithmetic and characteristic polynomials over GF(p) and Q, and brute-force
counts of standard monomials for Hilbert series numerators."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import gf_pow_mod  # noqa: E402

from podforge import linalg, unipoly  # noqa: E402
from podforge.fields import GF, QQ  # noqa: E402
from podforge.groebner import _lead_numerator  # noqa: E402
from podforge.rings import RingContext  # noqa: E402

X = sympy.Symbol("x")
PRIMES = {"fp:101": 101, "fp:32003": 32003, "q": None}
field_st = st.sampled_from(sorted(PRIMES))


def _scalar_st(p):
    if p:
        return st.integers(0, p - 1)
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def poly_pair(draw, nonzero_b=False):
    """(p, a, b): coefficient lists over one field, ascending and trimmed."""
    p = PRIMES[draw(field_st)]
    coeffs = st.lists(_scalar_st(p), max_size=7)
    a = unipoly.trim(draw(coeffs), p)
    b = unipoly.trim(draw(coeffs), p)
    if nonzero_b and not b:
        b = [1]
    return p, a, b


def _sympy(a, p):
    dom = {"modulus": p} if p else {"domain": "QQ"}
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(a)]
    return sympy.Poly(coeffs or [0], X, **dom)


def _ours(poly, p):
    """A sympy Poly as one of our coefficient lists."""
    coeffs = reversed(poly.all_coeffs())
    if p:
        return unipoly.trim([int(c) for c in coeffs], p)
    return unipoly.trim([Fraction(int(c.p), int(c.q)) for c in coeffs])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=poly_pair())
def test_mul_matches_sympy(case):
    p, a, b = case
    assert unipoly.trim(unipoly.mul(a, b, p)) == _ours(_sympy(a, p) * _sympy(b, p), p)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=poly_pair(nonzero_b=True))
def test_divmod_matches_sympy(case):
    p, a, b = case
    q, r = unipoly.divmod(a, b, p)
    theirs_q, theirs_r = sympy.div(_sympy(a, p), _sympy(b, p))
    assert (q, r) == (_ours(theirs_q, p), _ours(theirs_r, p))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=poly_pair(), common=st.lists(st.integers(-3, 3), max_size=3))
def test_gcd_matches_sympy(case, common):
    p, a, b = case
    # a shared factor makes a nontrivial gcd likely
    c = unipoly.trim(common + [1], p)
    a, b = unipoly.mul(a, c, p), unipoly.mul(b, c, p)
    ours = unipoly.gcd(a, b, p)
    theirs = _ours(sympy.gcd(_sympy(a, p), _sympy(b, p)), p)  # monic, or zero
    if p:
        assert ours == theirs
    else:
        # the primitive integer associate
        assert all(type(x) is int for x in ours)
        assert gcd(*ours) == 1 if ours else not theirs
        assert [Fraction(x, ours[-1]) for x in ours] == theirs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=poly_pair(nonzero_b=True), e=st.integers(0, 8))
def test_powmod_matches_sympy(case, e):
    p, a, m = case
    theirs = _sympy(a, p) ** e
    if len(m) > 1:
        theirs = theirs.rem(_sympy(m, p))
    else:
        theirs = theirs * 0  # everything is 0 modulo a unit
    ours = unipoly.powmod(a, e, m, p)
    if e == 0 and len(m) <= 1:
        assert ours == [1]  # a zero exponent gives 1, even modulo a unit
    else:
        assert ours == _ours(theirs, p)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    p=st.sampled_from([101, 32003]),
    a=st.lists(st.integers(0, 32002), min_size=2, max_size=6),
    m=st.lists(st.integers(0, 32002), min_size=2, max_size=6),
    e=st.integers(0, 10 ** 6),
)
def test_powmod_large_exponent_matches_sympy(p, a, m, e):
    a, m = unipoly.trim(a, p), unipoly.trim(m, p)
    if len(m) < 2:
        m = [1, 1]
    theirs = gf_pow_mod([c % p for c in reversed(a)], e, [c % p for c in reversed(m)], p, ZZ)
    assert unipoly.powmod(a, e, m, p) == unipoly.trim(list(reversed(theirs)), p)


@st.composite
def square_matrix(draw):
    p = PRIMES[draw(field_st)]
    n = draw(st.integers(0, 6))
    sparse = st.one_of(st.just(Fraction(0) if p is None else 0), _scalar_st(p))
    return p, [[draw(sparse) for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=square_matrix())
def test_charpoly_matches_sympy(case):
    p, rows = case
    field = GF(p) if p else QQ
    ours = linalg.charpoly(rows, field)
    mat = sympy.Matrix(len(rows), len(rows),
                       [sympy.Rational(c.numerator, c.denominator) for r in rows for c in r])
    theirs = [Fraction(int(c.p), int(c.q)) for c in reversed(mat.charpoly(X).all_coeffs())]
    if p:
        # the charpoly over Z of the entries, reduced mod p
        assert all(type(c) is int and 0 <= c < p for c in ours)
        assert ours == [int(c) % p for c in theirs]
    else:
        assert all(type(c) is Fraction for c in ours)
        assert ours == theirs


@st.composite
def weighted_monomial_ideal(draw):
    """(weights, exponent tuples): up to 5 variables, unit or drawn weights."""
    nv = draw(st.integers(1, 5))
    if draw(st.booleans()):
        weights = (1,) * nv
    else:
        weights = tuple(draw(st.lists(st.integers(1, 3), min_size=nv, max_size=nv)))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nv), max_size=7))
    return weights, gens


def _brute_force_numerator(weights, gens):
    """Count the standard monomials in the box of exponents up to the
    generators' maxima M.  A monomial is standard iff its exponents cut at M
    are, so a standard box point e stands for the monomials that agree with
    it where e_i < M_i and are free above M_i elsewhere: series
    t^deg(e) / prod_{e_i = M_i} (1 - t^w_i).  Times prod (1 - t^w), the
    numerator is the sum of t^deg(e) prod_{e_i < M_i} (1 - t^w_i)."""
    top = [max((g[i] for g in gens), default=0) for i in range(len(weights))]
    num = []
    for e in product(*[range(m + 1) for m in top]):
        if any(all(x >= y for x, y in zip(e, g)) for g in gens):
            continue
        term = [0] * sum(w * x for w, x in zip(weights, e)) + [1]
        for x, m, w in zip(e, top, weights):
            if x < m:
                term = unipoly.add(term, term, scale=-1, shift=w)
        num = unipoly.add(num, term)
    return unipoly.trim(num)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ideal=weighted_monomial_ideal())
def test_hilbert_numerator_matches_brute_force(ideal):
    # the packed pivot recursion against a count over exponent tuples
    weights, gens = ideal
    ring = RingContext(tuple(f"x{i}" for i in range(len(weights))), weights)
    ours = _lead_numerator(ring, [ring.pack(g) for g in gens])
    assert all(type(c) is int for c in ours)
    assert ours == _brute_force_numerator(weights, gens)
