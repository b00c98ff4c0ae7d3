"""The reduction kernel against an independent oracle: sympy's grevlex
Groebner bases and its multivariate division, over GF(p) and over Q.

GF(2147483647) is there for the kernel's unreduced accumulators: at that
prime a coefficient times a reducer coefficient is near 2^62, and their sums
pass it before the one reduction mod p.  sympy writes GF(p) coefficients as
symmetric residues; `_scalar` maps them into [0, p)."""

from fractions import Fraction
from unittest.mock import patch

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from podforge import groebner  # noqa: E402
from podforge.fields import GF, QQ  # noqa: E402
from podforge.groebner import buchberger, reduce_by_basis  # noqa: E402
from podforge.rings import DEGREVLEX, RingContext  # noqa: E402

P = 101
LARGE_P = 2147483647  # 2^31 - 1
NAMES = ("x0", "x1", "x2", "x3")
SYMS = sympy.symbols(NAMES)
FIELDS = {"fp": GF(P), "fp-large": GF(LARGE_P), "q": QQ}


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
    """Exponent/coefficient pairs of one of our polynomials, sorted; over
    GF(p) every coefficient must be a residue in [0, p)."""
    if f.ring.field is not QQ:
        assert all(0 <= c < f.ring.field.p for c in f.terms.values())
    return tuple(sorted((f.ring.unpack(m), c) for m, c in f.terms.items()))


def _domain(field):
    return {"modulus": field.p} if field is not QQ else {"domain": "QQ"}


def _expr(pairs):
    return sum(c * sympy.prod(s**e for s, e in zip(SYMS, m)) for m, c in pairs)


def _scalar(c, field):
    return field.of(Fraction(str(c)))


def _theirs(expr, field, monic=False):
    """Exponent/coefficient pairs of a sympy expression in our scalars, sorted."""
    poly = sympy.Poly(expr, *SYMS, **_domain(field))
    lc = _scalar(poly.LC(order="grevlex"), field) if monic else field.one
    inv = field.inv(lc)
    return tuple(sorted((m, field.of(_scalar(c, field) * inv)) for m, c in poly.terms() if c))


forms_st = st.lists(homogeneous_form(), min_size=1, max_size=3)
field_st = st.sampled_from(sorted(FIELDS))


@st.composite
def dense_quadric(draw):
    """A quadric with at least half of the ten monomials."""
    exps = _exponents(2)
    mons = draw(st.lists(st.sampled_from(exps), min_size=len(exps) // 2, max_size=len(exps),
                         unique=True))
    return [(m, draw(coefficient)) for m in mons]


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(field=st.sampled_from(["fp", "fp-large"]),
       forms=st.lists(dense_quadric(), min_size=3, max_size=4))
def test_matrix_kernel_matches_sympy(field, forms):
    # dense quadrics over GF(p): the run reduces its degrees as matrices
    # (`groebner._reduce_rows`), and its basis is sympy's
    field = FIELDS[field]
    ring = _ring(field)
    batches = []
    reduce_rows = groebner._reduce_rows

    def recording(rows, *args, normal_forms=False):
        batches.append(normal_forms)
        return reduce_rows(rows, *args, normal_forms=normal_forms)

    with patch.object(groebner, "_reduce_rows", recording):
        gb = buchberger([ring.from_terms(form) for form in forms])
    assert False in batches  # some degree's rows were reduced as one matrix
    theirs = sympy.groebner([_expr(form) for form in forms], *SYMS, order="grevlex",
                            **_domain(field))
    assert sorted(_ours(g) for g in gb) == sorted(
        _theirs(g, field, monic=True) for g in theirs.exprs
    )
