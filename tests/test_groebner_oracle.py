"""The reduction kernel against an independent oracle: sympy's grevlex
Groebner bases and its multivariate division, over GF(p) and over Q."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from podforge.fields import GF, QQ  # noqa: E402
from podforge.groebner import buchberger, reduce_by_basis  # noqa: E402
from podforge.rings import DEGREVLEX, RingContext  # noqa: E402

P = 101
NAMES = ("x0", "x1", "x2", "x3")
SYMS = sympy.symbols(NAMES)
FIELDS = {"fp": GF(P), "q": QQ}


def _exponents(degree):
    return [
        (a, b, c, degree - a - b - c)
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
        for c in range(degree + 1 - a - b)
    ]


coefficient = st.integers(-P // 2, P // 2).filter(lambda c: c % P)


@st.composite
def homogeneous_form(draw):
    degree = draw(st.integers(1, 3))
    mons = draw(st.lists(st.sampled_from(_exponents(degree)), min_size=1, max_size=4, unique=True))
    return [(m, draw(coefficient)) for m in mons]


@st.composite
def polynomial(draw):
    """A polynomial of degree at most 4, not necessarily homogeneous."""
    mons = draw(st.lists(
        st.integers(0, 4).flatmap(lambda d: st.sampled_from(_exponents(d))),
        min_size=1, max_size=6, unique=True,
    ))
    return [(m, draw(coefficient)) for m in mons]


def _ring(field):
    return RingContext(NAMES, (1,) * 4, DEGREVLEX, field)


def _ours(f):
    """Exponent/coefficient pairs of one of our polynomials, sorted."""
    return tuple(sorted((f.ring.unpack(m), c) for m, c in f.terms.items()))


def _domain(field):
    return {"modulus": P} if field is not QQ else {"domain": "QQ"}


def _expr(pairs):
    return sum(c * sympy.prod(s**e for s, e in zip(SYMS, m)) for m, c in pairs)


def _scalar(c, field):
    return field.of(Fraction(str(c)))


def _theirs(expr, field, monic=False):
    """Exponent/coefficient pairs of a sympy expression in our scalars, sorted."""
    poly = sympy.Poly(expr, *SYMS, **_domain(field))
    lc = _scalar(poly.LC(order="grevlex"), field) if monic else field.one
    return tuple(sorted((m, field.div(_scalar(c, field), lc)) for m, c in poly.terms() if c))


forms_st = st.lists(homogeneous_form(), min_size=1, max_size=3)
field_st = st.sampled_from(sorted(FIELDS))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(field=field_st, forms=forms_st)
def test_buchberger_matches_sympy(field, forms):
    field = FIELDS[field]
    ring = _ring(field)
    gb = buchberger([ring.from_terms(form) for form in forms])
    theirs = sympy.groebner([_expr(form) for form in forms], *SYMS, order="grevlex",
                            **_domain(field))
    assert sorted(_ours(g) for g in gb) == sorted(
        _theirs(g, field, monic=True) for g in theirs.exprs
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(field=field_st, forms=forms_st, f=polynomial())
def test_reduce_by_basis_matches_sympy_remainder(field, forms, f):
    field = FIELDS[field]
    ring = _ring(field)
    gens = [ring.from_terms(form) for form in forms]
    gb = buchberger(gens)
    poly = ring.from_terms(f)
    opts = dict(order="grevlex", **_domain(field))
    # modulo a Groebner basis: the unique normal form
    theirs = sympy.groebner([_expr(form) for form in forms], *SYMS, **opts)
    assert _ours(reduce_by_basis(poly, gb)) == _theirs(theirs.reduce(_expr(f))[1], field)
    # modulo the raw, non-monic generators: the division algorithm, each term
    # reduced by the first generator whose lead divides it
    _, rem = sympy.reduced(_expr(f), [_expr(form) for form in forms], *SYMS, **opts)
    assert _ours(reduce_by_basis(poly, gens)) == _theirs(rem, field)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    field=field_st,
    forms=forms_st,
    f=polynomial(),
    scales=st.lists(coefficient, min_size=1, max_size=12),
)
def test_reduce_by_basis_ignores_reducer_scaling(field, forms, f, scales):
    field = FIELDS[field]
    ring = _ring(field)
    gb = buchberger([ring.from_terms(form) for form in forms])
    scaled = [g.scale(field.of(scales[i % len(scales)])) for i, g in enumerate(gb)]
    poly = ring.from_terms(f)
    assert reduce_by_basis(poly, scaled) == reduce_by_basis(poly, gb)
