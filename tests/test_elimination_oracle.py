"""Elimination against an independent oracle: sympy's lex basis over GF(p),
filtered to the kept variables and re-reduced in grevlex."""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from podforge.fields import GF  # noqa: E402
from podforge.groebner import Ideal, eliminate, hilbert_data  # noqa: E402
from podforge.rings import DEGREVLEX, RingContext  # noqa: E402

P = 101
NAMES = ("x0", "x1", "x2", "x3")


def _exponents(degree):
    return [
        (a, b, c, degree - a - b - c)
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
        for c in range(degree + 1 - a - b)
    ]


@st.composite
def homogeneous_form(draw):
    degree = draw(st.integers(1, 3))
    mons = draw(st.lists(st.sampled_from(_exponents(degree)), min_size=1, max_size=4, unique=True))
    return [(m, draw(st.integers(1, P - 1))) for m in mons]


def _canonical(pairs):
    """Exponent/coefficient pairs of a polynomial, made monic, as a sorted tuple."""
    return tuple(sorted(pairs))


def _oracle(forms, drop):
    syms = sympy.symbols(NAMES)
    by_name = dict(zip(NAMES, syms))
    exprs = [
        sum(c * sympy.prod(s**e for s, e in zip(syms, m)) for m, c in form) for form in forms
    ]
    keep = [n for n in NAMES if n not in drop]
    lex = sympy.groebner(exprs, *[by_name[n] for n in list(drop) + keep], order="lex", modulus=P)
    dropped = {by_name[n] for n in drop}
    kept_syms = [by_name[n] for n in keep]
    elim = [g for g in lex.exprs if not g.free_symbols & dropped]
    if not elim:
        return set()
    out = set()
    for g in sympy.groebner(elim, *kept_syms, order="grevlex", modulus=P).exprs:
        poly = sympy.Poly(g, *kept_syms, modulus=P)
        lc = int(poly.LC(order="grevlex")) % P
        inv = pow(lc, P - 2, P)
        out.add(_canonical((m, int(c) * inv % P) for m, c in poly.terms()))
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    forms=st.lists(homogeneous_form(), min_size=1, max_size=3),
    drop=st.sampled_from([("x0",), ("x3",), ("x1", "x2"), ("x0", "x3")]),
    with_series=st.booleans(),
)
def test_eliminate_matches_sympy_oracle(forms, drop, with_series):
    ring = RingContext(NAMES, (1,) * 4, DEGREVLEX, GF(P))
    ideal = Ideal(ring, [ring.from_terms(form) for form in forms])
    if with_series:
        hilbert_data(ideal)  # the first step then runs on the known series
    out = eliminate(ideal, drop)
    ours = {
        _canonical((out.ring.unpack(m), int(c)) for m, c in g.terms.items())
        for g in out.groebner_basis()
    }
    assert ours == _oracle(forms, drop)
