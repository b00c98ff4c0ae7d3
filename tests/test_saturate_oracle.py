"""Saturation and the slice series bound against an independent oracle:
sympy's bases over GF(p) and Q.  I : h^infinity is the h-free part of a lex
basis of I + (1 - t h) with t first (the Rabinowitsch trick), re-reduced in
grevlex."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from podforge import unipoly  # noqa: E402
from podforge.fields import GF, QQ  # noqa: E402
from podforge.groebner import Ideal, _lead_numerator, hilbert_data, saturate  # noqa: E402
from podforge.rings import DEGREVLEX, Polynomial, RingContext  # noqa: E402

P = 101
NAMES = ("x0", "x1", "x2", "h")
SYMS = sympy.symbols(NAMES)
RING = RingContext(NAMES, (1,) * 4, DEGREVLEX, GF(P))
RING_QQ = RingContext(NAMES, (1,) * 4, DEGREVLEX, QQ)


def _exponents(degree):
    return [
        (a, b, c, degree - a - b - c)
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
        for c in range(degree + 1 - a - b)
    ]


@st.composite
def homogeneous_form(draw, max_degree=2):
    degree = draw(st.integers(1, max_degree))
    mons = draw(st.lists(st.sampled_from(_exponents(degree)), min_size=1, max_size=4, unique=True))
    return [(m, draw(st.integers(1, P - 1))) for m in mons]


def _expr(f):
    return sum(int(c) * sympy.prod(s**e for s, e in zip(SYMS, RING.unpack(m)))
               for m, c in f.terms.items())


def _canonical_basis(exprs, modp=True):
    """Our view of sympy's reduced grevlex basis over GF(P), or over Q:
    monic exponent/coefficient tuples."""
    out = set()
    if not exprs:
        return out
    modulus = {"modulus": P} if modp else {}
    for g in sympy.groebner(exprs, *SYMS, order="grevlex", **modulus).exprs:
        poly = sympy.Poly(g, *SYMS, **modulus)
        if modp:
            inv = pow(int(poly.LC(order="grevlex")) % P, P - 2, P)
            out.add(tuple(sorted((m, int(c) * inv % P) for m, c in poly.terms())))
        else:
            lc = Fraction(str(poly.LC(order="grevlex")))
            out.add(tuple(sorted((m, Fraction(str(c)) / lc) for m, c in poly.terms())))
    return out


def _ours(gb):
    return {tuple(sorted((g.ring.unpack(m), c) for m, c in g.terms.items())) for g in gb}


def _rabinowitsch(gens, modp=True):
    t = sympy.Symbol("t")
    modulus = {"modulus": P} if modp else {}
    lex = sympy.groebner([_expr(g) for g in gens] + [1 - t * SYMS[-1]], t, *SYMS,
                         order="lex", **modulus)
    return _canonical_basis([g for g in lex.exprs if t not in g.free_symbols], modp)


SATURATION_CASES = dict(
    forms=st.lists(homogeneous_form(), min_size=1, max_size=2),
    extra=homogeneous_form(max_degree=1),
    power=st.integers(0, 3),
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**SATURATION_CASES)
def test_saturate_matches_rabinowitsch(forms, extra, power):
    _check_saturate(RING, forms, extra, power)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**SATURATION_CASES)
def test_saturate_matches_rabinowitsch_over_qq(forms, extra, power):
    _check_saturate(RING_QQ, forms, extra, power)


def _check_saturate(ring, forms, extra, power):
    # K (h^power, g): for power >= 1 the product carries a component in
    # h = 0, and for power 3 the run meets elements it divides by h^2 or more
    K = [ring.from_terms(f) for f in forms]
    g = ring.from_terms(extra)
    hp = ring.gens()[-1] ** power
    I = Ideal(ring, [f * hp for f in K] + [f * g for f in K])
    J = saturate(I, "h")
    assert not I._gb  # the basis of I itself is never computed
    assert _ours(J.groebner_basis()) == _rabinowitsch(I.generators, ring is RING)
    assert J.generators == J.groebner_basis()


def _with_unit_at_point(form):
    """The form plus a nonzero h^degree term: it does not vanish at (0:0:0:1)."""
    terms = dict(RING.from_terms(form).terms)
    h_power = RING.pack((0, 0, 0, sum(form[0][0])))
    terms[h_power] = terms.get(h_power) or 1
    return Polynomial(RING, terms)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    forms=st.lists(homogeneous_form(), min_size=1, max_size=2),
    slope=st.lists(st.integers(0, P - 1), min_size=3, max_size=3).filter(any),
)
def test_slice_through_embedded_point_matches_sympy(forms, slope):
    # I = K (x0, x1, x2) with K not vanishing at p = (0:0:0:1), so the maximal
    # ideal of p is associated to R/I; a hyperplane through p is a zero
    # divisor there and (1 - t) HS(R/I) is a strict bound for the slice
    K = [_with_unit_at_point(f) for f in forms]
    I = Ideal(RING, [f * x for f in K for x in RING.gens()[:3]])
    hilbert_data(I)
    ell = sum((x.scale(c) for x, c in zip(RING.gens(), slope)), RING.zero())
    sliced = I + [ell]
    bound = unipoly.trim(sliced._bound)
    gb = sliced.groebner_basis()
    assert _lead_numerator(RING, [g.lead_monomial() for g in gb]) != bound
    assert _ours(gb) == _canonical_basis([_expr(f) for f in sliced.generators])
