"""Field scalars, sparse polynomials, ring maps, and exact kernels."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from podforge.fields import GF, QQ, FieldError, field_from_descriptor
from podforge.rings import DEGREVLEX, RingContext, RingMap, minors
from podforge.linalg import det, matrix_kernel, rank
from podforge.models import ring_euler, ring_X
from podforge.constructions import draw_seed, rho_quadric_matrix
from podforge.models import euler_rho
from polytext import parse


@pytest.fixture
def ring_xyz():
    return RingContext(("x", "y", "z"), (1, 1, 1), DEGREVLEX, QQ)


def test_field_descriptors():
    assert field_from_descriptor("q") is QQ
    assert field_from_descriptor("fp:101").p == 101
    with pytest.raises(FieldError):
        field_from_descriptor("fp:100")


def test_gf_canonical_representatives():
    f5 = GF(5)
    assert f5.of(-3) == 2
    assert f5.of(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert f5.sqrt(4) == 2
    assert f5.sqrt(2) is None  # 2 is not a square mod 5


def test_add_additive_inverse(ring_xyz):
    x, _, _ = ring_xyz.gens()
    assert (x + -x).is_zero()


def test_mul_difference_of_squares():
    ring = ring_euler(QQ)
    e1, e2, _ = ring.gens()
    assert (e1 + e2) * (e1 - e2) == e1 * e1 - e2 * e2


def test_scale_over_gf5():
    ring = ring_euler(GF(5))
    e1 = ring.gen("e1")
    # 2 * 3 = 6 = 1 mod 5
    assert e1.scale(2).scale(3) == e1


@pytest.mark.parametrize("field", [QQ, GF(101), GF(2**31 - 1)], ids=["QQ", "GF101", "GF2^31-1"])
def test_linear_form_matches_the_sum_of_scaled_generators(field):
    # oracle: sum c_i * x_i built by scaling and adding the generators
    ring = RingContext(("a", "b", "c", "d"), (1,) * 4, DEGREVLEX, field)
    rng = random.Random(29)
    for _ in range(50):
        coeffs = [rng.choice([0, 1, -1, rng.randint(-10**12, 10**12), Fraction(rng.randint(-9, 9), 7)])
                  for _ in range(ring.n)]
        form = ring.linear_form(coeffs)
        assert form == sum((g.scale(c) for g, c in zip(ring.gens(), coeffs)), ring.zero())
        # stored coefficients are the field's canonical scalars, zeros absent
        assert set(form.terms) == {u for u, c in zip(ring.units, coeffs) if not field.is_zero(field.of(c))}
        assert all(c == field.of(c) and not field.is_zero(c) for c in form.terms.values())
    assert ring.linear_form([0, 0, field.characteristic, 0]).is_zero()
    for wrong in ([1, 2, 3], [1, 2, 3, 4, 5]):
        with pytest.raises(ValueError, match="coefficients for 4 variables"):
            ring.linear_form(wrong)


def test_field_mixing_rejected(ring_xyz):
    other = RingContext(("x", "y", "z"), (1, 1, 1), DEGREVLEX, GF(7))
    with pytest.raises(FieldError):
        ring_xyz.gen("x") + other.gen("x")


def test_homogeneous_sum_stays_homogeneous(ring_xyz):
    x, y, z = ring_xyz.gens()
    f = x * y + z * z
    g = x * x - y * z
    assert (f + g).is_homogeneous()
    assert (f - g).homogeneous_degree() == 2


def test_ring_axioms_randomized():
    # the arithmetic is plain + - * with a reduction mod p, so every stored
    # coefficient must be canonical: a nonzero Fraction over Q, an int in
    # [1, p) over GF(p); evaluate is checked against the input pairs
    for field in (QQ, GF(101), GF(2**31 - 1)):
        _check_ring_axioms(field)


def _check_ring_axioms(field):
    ring = RingContext(("x", "y", "z"), (1, 1, 1), DEGREVLEX, field)
    p = field.characteristic
    rng = random.Random(5)

    def canonical(f):
        for c in f.terms.values():
            assert (type(c) is int and 0 < c < p) if p else (type(c) is Fraction and c != 0)
        return f

    def rand_pairs():
        return [((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)),
                 Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))))
                for _ in range(4)]

    def at(pairs, vals):  # the pairs' value, summed over Q and then brought into the field
        return field.of(sum(c * vals[0] ** i * vals[1] ** j * vals[2] ** k for (i, j, k), c in pairs))

    x = ring.gen("x")
    for _ in range(50):
        pairs = [rand_pairs() for _ in range(3)]
        f, g, h = (canonical(ring.from_terms(pp)) for pp in pairs)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + g == g + f
        assert (f - f).is_zero() and (f + -f).is_zero()
        c = field.of(rng.randint(1, 100))
        for r in (f + g, f - g, -f, f * g, f.scale(c), f.mul_term(x.lead_monomial(), c),
                  f.derivative("y")):
            canonical(r)
        assert canonical(ring.from_terms(pairs[0] + pairs[1])) == f + g
        assert f.scale(c).scale(field.inv(c)) == f
        vals = [Fraction(rng.randint(-(p or 50), p or 50), 1 if p else rng.randint(1, 4)) for _ in range(3)]
        assert f.evaluate(vals) == at(pairs[0], vals)
        assert (f * g).evaluate(vals) == field.of(at(pairs[0], vals) * at(pairs[1], vals))
        assert (f - g).evaluate(vals) == field.of(at(pairs[0], vals) - at(pairs[1], vals))


def test_inv_takes_every_value_that_of_takes():
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    assert QQ.inv("2/7") == Fraction(7, 2)
    assert GF(101).inv(Fraction(1, 2)) == 2
    assert GF(101).inv(-1) == 100
    for field, zero in ((QQ, 0), (QQ, Fraction(0)), (GF(101), 0), (GF(101), 101)):
        with pytest.raises(ZeroDivisionError):
            field.inv(zero)


def test_weighted_degree():
    ring = RingContext(("e", "p"), (1, 2), DEGREVLEX, QQ)
    e, p = ring.gens()
    assert (e * e * p).homogeneous_degree() == 4
    assert (e * e + p).is_homogeneous()


def test_packed_monomial_ops_match_exponentwise():
    # unpack, wdeg, lcms_with (coprime when the lcm is the product) and
    # divides act on all packed bytes at once; compare them with the
    # exponent-by-exponent definitions, the lead scan
    # first_divisor with monomial_divides, and coerce with a move by name
    ring = RingContext(tuple(f"v{i}" for i in range(7)), (1, 2, 1, 3, 1, 1, 2), DEGREVLEX, QQ)
    perm = (3, 0, 6, 2, 5, 1, 4)  # position in `shuffled` of each variable of `ring`
    inv = [perm.index(j) for j in range(7)]
    shuffled = RingContext(tuple(f"v{i}" for i in inv), tuple(ring.weights[i] for i in inv))
    no_v3 = RingContext(ring.names[:3] + ring.names[4:], ring.weights[:3] + ring.weights[4:])
    rng, pick = random.Random(5), random.Random(6)
    leads = [ring.pack([pick.choice([0, 0, 0, 1, 2]) for _ in range(7)]) for _ in range(10)]
    for _ in range(2000):
        a, b = ([rng.choice([0, 0, 1, 2, 127, rng.randint(0, 127)]) for _ in range(7)]
                for _ in range(2))
        ma, mb = ring.pack(a), ring.pack(b)
        assert ring.unpack(ma) == tuple(a)
        assert ring.wdeg(ma) == sum(w * e for w, e in zip(ring.weights, a))
        (lcm,) = ring.lcms_with([ma], mb)
        assert ring.unpack(lcm) == tuple(map(max, a, b))
        assert (lcm == ma + mb) == all(not (x and y) for x, y in zip(a, b))
        assert ring.monomial_divides(ma, mb) == all(x <= y for x, y in zip(a, b))
        start = pick.randrange(len(leads) + 1)
        divisors = [i for i in range(start, len(leads)) if ring.monomial_divides(leads[i], mb)]
        assert ring.first_divisor(mb, leads, start) == (divisors[0] if divisors else None)
        f = ring.from_terms([(a, Fraction(3, 2)), (b, -5)])
        g = shuffled.coerce(f)
        assert {tuple(shuffled.unpack(m)[j] for j in perm): c for m, c in g.terms.items()} == {
            ring.unpack(m): c for m, c in f.terms.items()}
        assert ring.coerce(g) == f
        if a[3] == 0 and b[3] == 0:
            assert ring.coerce(no_v3.coerce(f)) == f
        else:
            with pytest.raises(FieldError):
                no_v3.coerce(f)


def test_parse_print_roundtrip(ring_xyz):
    rng = random.Random(11)
    for _ in range(100):
        f = ring_xyz.from_terms(
            ((rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)),
             Fraction(rng.randint(-30, 30), rng.randint(1, 9)))
            for _ in range(5)
        )
        assert parse(ring_xyz, str(f)) == f


def test_parse_print_roundtrip_gf():
    ring = RingContext(("x", "y"), (1, 1), DEGREVLEX, GF(101))
    rng = random.Random(3)
    for _ in range(100):
        f = ring.from_terms(
            ((rng.randint(0, 5), rng.randint(0, 5)), rng.randint(0, 100)) for _ in range(4)
        )
        assert parse(ring, str(f)) == f


@pytest.mark.parametrize(
    "text", ["x + * ", "x*w", "x^128", "x^100*x^100", "1/0*x", "1/101*y", "x y"],
)
def test_parse_rejects_malformed_text(text):
    ring = RingContext(("x", "y"), (1, 1), DEGREVLEX, GF(101))
    # the round-trip oracle reads only the canonical format
    with pytest.raises(ValueError):
        parse(ring, text)


# -- minors ------------------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["q", "fp101"])
@pytest.mark.parametrize(
    "shape, k", [((2, 3), 1), ((3, 3), 2), ((3, 3), 3), ((4, 4), 2), ((4, 4), 3), ((5, 4), 4)]
)
def test_minors_match_determinants_of_evaluated_submatrices(field, shape, k):
    # oracle: each minor evaluated at a point is the Gaussian-elimination
    # determinant of the evaluated submatrix, in combinations order
    rng = random.Random(100 * k + 10 * shape[0] + shape[1])
    ring = RingContext(("x", "y", "z"), (1, 1, 1), DEGREVLEX, field)

    def entry():
        if rng.random() < 0.2:
            return ring.zero()
        return ring.from_terms(
            ((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)), rng.randint(-5, 5))
            for _ in range(3)
        )

    nrows, ncols = shape
    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    subsets = [(rs, cs) for rs in combinations(range(nrows), k) for cs in combinations(range(ncols), k)]
    got = minors(rows, k)
    assert len(got) == len(subsets)
    for _ in range(4):
        pt = [field.of(Fraction(rng.randint(-9, 9), rng.randint(1, 3))) for _ in range(3)]
        ev = [[e.evaluate(pt) for e in row] for row in rows]
        for g, (rs, cs) in zip(got, subsets):
            assert g.evaluate(pt) == det([[ev[r][c] for c in cs] for r in rs], field)


def test_minors_subset_order():
    # on a matrix of distinct variables the minor of rows (r, s) and
    # columns (c, d) is x_rc x_sd - x_rd x_sc
    names = tuple(f"x{i}{j}" for i in range(3) for j in range(4))
    ring = RingContext(names, (1,) * 12, DEGREVLEX, QQ)
    rows = [[ring.gen(f"x{i}{j}") for j in range(4)] for i in range(3)]
    got = minors(rows, 2)
    subsets = [(rs, cs) for rs in combinations(range(3), 2) for cs in combinations(range(4), 2)]
    assert len(got) == len(subsets) == 18
    for g, (rs, cs) in zip(got, subsets):
        diag = rows[rs[0]][cs[0]] * rows[rs[1]][cs[1]]
        anti = rows[rs[0]][cs[1]] * rows[rs[1]][cs[0]]
        assert g == diag - anti


# -- ring maps ---------------------------------------------------------------


def test_rho_image_of_h():
    seed = draw_seed(1, QQ)
    rho = euler_rho(*seed.P, seed.U)
    ring = ring_euler(QQ)
    e1, e2, e3 = ring.gens()
    h = ring_X(QQ).gen("h")
    assert rho(h) == e1 * e1 + e2 * e2 + e3 * e3


def test_rho_image_of_m11_and_m12():
    seed = draw_seed(2, QQ)
    rho = euler_rho(*seed.P, seed.U)
    ring = ring_euler(QQ)
    e1, e2, e3 = ring.gens()
    rx = ring_X(QQ)
    assert rho(rx.gen("m11")) == e1 * e1 - e2 * e2 - e3 * e3
    assert rho(rx.gen("m12")) == (e1 * e2).scale(2)


def test_identity_map(ring_xyz):
    ident = RingMap(ring_xyz, ring_xyz, list(ring_xyz.gens()))
    rng = random.Random(2)
    for _ in range(20):
        f = ring_xyz.from_terms(
            ((rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)),
             Fraction(rng.randint(-9, 9)))
            for _ in range(4)
        )
        assert ident(f) == f


def test_ring_map_is_homomorphism(ring_xyz):
    target = ring_euler(QQ)
    e1, e2, e3 = target.gens()
    phi = RingMap(ring_xyz, target, [e1 + e2, e2 * 1, e3 - e1])
    rng = random.Random(7)
    for _ in range(25):
        f = ring_xyz.from_terms(
            ((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)),
             Fraction(rng.randint(-5, 5)))
            for _ in range(3)
        )
        g = ring_xyz.from_terms(
            ((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)),
             Fraction(rng.randint(-5, 5)))
            for _ in range(3)
        )
        assert phi(f * g) == phi(f) * phi(g)
        assert phi(f + g) == phi(f) + phi(g)


# -- kernels -----------------------------------------------------------------


def test_kernel_of_identity():
    assert matrix_kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ) == []


def test_kernel_of_single_row():
    assert matrix_kernel([[1, 1]], QQ) == [[Fraction(-1), Fraction(1)]]


def test_kernel_ragged_rows_rejected():
    with pytest.raises(ValueError):
        matrix_kernel([[1, 2], [1]], QQ)


def test_rho_linear_matrix_kernel_dim_11():
    # the lift map on linear forms has rank 6 (image curve spans a P^5), so
    # the kernel of the 6 x 17 matrix has dimension 11; cross-checked by
    # explicit row reduction
    for s in (1, 4, 9):
        seed = draw_seed(s, GF(101))
        field = seed.field
        rho = seed.lift()
        mat = rho_quadric_matrix(rho)
        assert len(mat) == 6 and len(mat[0]) == 17
        assert rank(mat, field) == 6
        kernel = matrix_kernel(mat, field)
        assert len(kernel) == 11
        for v in kernel:
            for row in mat:
                assert field.is_zero(sum(field.of(c) * x for c, x in zip(row, v)))


def test_kernel_rank_nullity():
    rng = random.Random(13)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(6)] for _ in range(4)]
        r = rank(rows, QQ)
        k = matrix_kernel(rows, QQ)
        assert r + len(k) == 6
