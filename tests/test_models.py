"""Variety constructors: membership, parametrization consistency, invariants."""

import random
from fractions import Fraction

import pytest

from podforge.fields import GF, QQ
from podforge.groebner import (
    Ideal, _lead_numerator, hilbert_data, reducer, ring_numerator, saturate,
)
from podforge.linalg import mat_inverse, mat_mul
from podforge.models import (
    SEGRE_NUMERATOR,
    X_NUMERATOR,
    XP_NAMES,
    Y_INV_NUMERATOR,
    IsometryPoint,
    Leg,
    euler_rho,
    ideal_X,
    ideal_X_inv,
    ideal_X_p,
    ideal_X_pinv,
    ideal_Y,
    ideal_Y_inv,
    ideal_Y_p,
    ideal_Y_pinv,
    ideal_Z_inv,
    involution_linear_forms,
    project_model,
    ring_euler,
    ring_X,
    ring_Y,
    rho_isometry_point,
    x_closure_quadrics,
    x_equations,
)
from podforge.duality import leg_to_point, leg_sym_coords, leg_p_coords, leg_pinv_coords
from podforge.constructions import draw_seed

F101 = GF(101)
IDENTITY = IsometryPoint.from_affine([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0])


def _rotation(pt):
    """The 3x3 block M of an isometry point (M : x : y : r : h)."""
    return [list(pt.coords[3 * i:3 * i + 3]) for i in range(3)]


def _cayley(rng, field=QQ):
    s = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(3)]
    skew = [[Fraction(0), s[0], s[1]], [-s[0], Fraction(0), s[2]], [-s[1], -s[2], Fraction(0)]]
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    minus = [[eye[i][j] - skew[i][j] for j in range(3)] for i in range(3)]
    plus = [[eye[i][j] + skew[i][j] for j in range(3)] for i in range(3)]
    return mat_mul(mat_inverse(minus, QQ), plus, QQ)


def test_identity_on_X():
    assert ideal_X(QQ).contains_point(IDENTITY.coords)


def test_boundary_point_only_r_on_X():
    coords = [QQ.zero] * 17
    coords[15] = QQ.one  # the r coordinate
    assert ideal_X(QQ).contains_point(coords)


def test_random_isometries_on_X():
    rng = random.Random(23)
    I = ideal_X(QQ)
    for _ in range(50):
        mat = _cayley(rng)
        y = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)]
        assert I.contains_point(IsometryPoint.from_affine(mat, y).coords)


def test_hilbert_X():
    hd = hilbert_data(ideal_X(F101))
    assert (hd.dimension, hd.degree) == (6, 40)


def _quaternion_rotation(rng):
    """The rotation v -> q v q^-1 of a random quaternion q = (a, b, c, d)
    whose norm n = a^2 + b^2 + c^2 + d^2 is a unit mod 101: its matrix over
    Z divided by n."""
    while True:
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        n = a * a + b * b + c * c + d * d
        if n % 101:
            break
    rows = [
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ]
    return [[Fraction(v, n) for v in r] for r in rows]


@pytest.mark.parametrize("field", [QQ, F101], ids=["q", "fp:101"])
def test_closure_quadrics_vanish_at_random_isometries(field):
    rng = random.Random(29)
    ring = ring_X(field)
    quadrics = x_closure_quadrics(ring)
    assert len(quadrics) == 18
    assert all(q.is_homogeneous() and q.homogeneous_degree() == 2 for q in quadrics)
    for _ in range(30):
        y = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)]
        pt = IsometryPoint.from_affine(_quaternion_rotation(rng), y, field)
        assert ideal_X(field).contains_point(pt.coords)
        assert all(field.is_zero(q.evaluate(pt.coords)) for q in quadrics)


@pytest.mark.parametrize("p", [101, 32003])
def test_closure_quadrics_lie_in_the_saturation_only(p):
    # the 9 cofactor relations need h^2 and the 9 cross rows h^3 to reach the
    # ideal E of the 21 equations (the proof in `x_closure_quadrics`), and no
    # lower power does: none of them lies in E itself
    field = GF(p)
    ring = ring_X(field)
    h = ring.gen("h")
    reduce = reducer(Ideal(ring, x_equations(ring)).groebner_basis())
    for k, q in enumerate(x_closure_quadrics(ring)):
        need = 2 if k < 9 else 3
        nfs = reduce([q * h ** e for e in range(need + 1)])
        assert [nf.is_zero() for nf in nfs] == [False] * need + [True]


def test_equations_and_closure_quadrics_generate_the_saturation():
    # the 21 equations alone have a reduced basis of 171 elements; with the
    # 18 quadrics, as `ideal_X`, they give the basis of their own saturation
    # at h, X's prime ideal, with no Groebner run on h: no lead of it is
    # divisible by h
    ring = ring_X(F101)
    equations = Ideal(ring, x_equations(ring))
    assert len(equations.generators) == 21
    assert len(equations.groebner_basis()) == 171
    assert ideal_X(F101).generators == equations.generators + tuple(x_closure_quadrics(ring))
    closed = ideal_X(F101).groebner_basis()
    saturated = saturate(equations, "h").generators
    assert len(saturated) == 55
    assert tuple(closed) == saturated
    assert not any(ring.unpack(g.lead_monomial())[-1] for g in closed)
    assert hilbert_data(ideal_X(F101)).numerator == X_NUMERATOR


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["q", "fp:32003"])
def test_x_is_saturated_at_h_over_other_fields(field):
    # the certificate of `ideal_X` on Q and a second prime: no lead of the
    # 55-element basis is divisible by h
    ring = ring_X(field)
    basis = ideal_X(field).groebner_basis()
    assert len(basis) == 55
    assert not any(ring.unpack(g.lead_monomial())[-1] for g in basis)
    assert hilbert_data(ideal_X(field)).numerator == X_NUMERATOR


def test_x_generators_have_integer_coefficients():
    # `groebner.certified_cut` compares a cut of a model over GF(p) with the
    # model over Q: generators defined over Z give R/I over GF(p) a Hilbert
    # function at least that over Q in every degree.  So for X's E + Q, the
    # 16 minors of Y_inv and Y's 36
    ring = ring_X(QQ)
    generator_sets = [x_equations(ring) + x_closure_quadrics(ring),
                      ideal_Y_inv(QQ).generators, ideal_Y(QQ).generators]
    assert [len(gens) for gens in generator_sets] == [39, 16, 36]
    for gens in generator_sets:
        assert all(c.denominator == 1 for g in gens for c in g.terms.values())


def test_x_inv_needs_no_closure_quadrics():
    # the involution model keeps the 21 equations and the 7 forms: with the
    # 18 quadrics the reduced basis is the same 20 elements, and no lead of
    # it is divisible by h, so E plus the forms is already saturated at h
    ring = ring_X(F101)
    forms = involution_linear_forms(ring)
    assert ideal_X_inv(F101).generators == tuple(x_equations(ring) + forms)
    basis = ideal_X_inv(F101).groebner_basis()
    assert len(basis) == 20
    assert tuple(Ideal(ring, ideal_X(F101).generators + tuple(forms)).groebner_basis()) == basis
    assert not any(ring.unpack(g.lead_monomial())[-1] for g in basis)


def test_half_turn_on_X_inv():
    sigma = IsometryPoint.from_affine(
        [[-1, 0, 0], [0, -1, 0], [0, 0, 1]], [0, 0, 0]
    )
    assert ideal_X_inv(QQ).contains_point(sigma.coords)


def test_identity_not_on_X_inv():
    assert not ideal_X_inv(QQ).contains_point(IDENTITY.coords)


def test_z_inv_membership():
    I = ideal_Z_inv(QQ)
    # (e; p; q) = (1,0,0; 0,1,0; 0,0,0)
    assert I.contains_point([1, 0, 0, 0, 1, 0, 0, 0, 0])
    # q != 0 is rejected
    assert not I.contains_point([1, 0, 0, 0, 1, 0, 1, 0, 0])


def test_z_inv_syzygy_lift():
    for s in (1, 5, 9):
        seed = draw_seed(s, QQ)
        rng = random.Random(s)
        for _ in range(20):
            e = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
            p = [P.evaluate(e) for P in seed.P]
            assert ideal_Z_inv(QQ).contains_point(e + p + [0, 0, 0])


def test_leg_points_on_Y():
    rng = random.Random(31)
    I = ideal_Y(QQ)
    for _ in range(1000):
        leg = Leg(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)),
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)),
            Fraction(rng.randint(-20, 20)),
            QQ,
        )
        assert I.contains_point(leg_to_point(leg).coords())


def test_hilbert_Y_cone_over_segre():
    # Segre of P^3 x P^3 has dimension 6 and degree binomial(6, 3) = 20; the
    # cone adds one
    hd = hilbert_data(ideal_Y(F101))
    assert (hd.dimension, hd.degree) == (7, 20)


@pytest.mark.parametrize("field", [QQ, F101, GF(3)], ids=["q", "fp:101", "fp:3"])
def test_segre_numerator_is_the_minors_leads(field):
    # the upper half of `ideal_Y`'s proof that HS(Y) is the Segre series over
    # every field: the numerator of the 36 minors' leads is that series
    ring = ring_Y(field)
    leads = [g.lead_monomial() for g in ideal_Y(field).generators]
    assert _lead_numerator(ring, leads) == ring_numerator(ring, SEGRE_NUMERATOR, 7)


def test_hilbert_Y_p():
    hd = hilbert_data(ideal_Y_p(F101))
    assert (hd.dimension, hd.degree) == (5, 6)


def test_planar_legs_on_Y_p():
    rng = random.Random(37)
    I = ideal_Y_p(QQ)
    for _ in range(50):
        leg = Leg(
            (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)), Fraction(0)),
            (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)), Fraction(0)),
            Fraction(rng.randint(0, 20)),
            QQ,
        )
        assert I.contains_point(leg_p_coords(leg))


def test_sym_images_on_Y_inv():
    rng = random.Random(41)
    I = ideal_Y_inv(QQ)
    for _ in range(1000):
        leg = Leg(
            tuple(Fraction(rng.randint(-6, 6)) for _ in range(3)),
            tuple(Fraction(rng.randint(-6, 6)) for _ in range(3)),
            Fraction(rng.randint(-10, 10)),
            QQ,
        )
        assert I.contains_point(leg_sym_coords(leg))


def test_rank3_point_not_on_Y_inv():
    # diag(1,1,1,0) symmetric part: z00 = z11 = z22 = 1/2, rest 0: rank 3
    coords = [Fraction(1, 2), Fraction(1, 2), 0, 0, 0, 0, 0, 0, 0, Fraction(1, 2), 0]
    assert not ideal_Y_inv(QQ).contains_point(coords)


def test_hilbert_Y_inv():
    hd = hilbert_data(ideal_Y_inv(F101))
    assert (hd.dimension, hd.degree) == (7, 10)
    # over Q, the series `groebner.certified_cut` reads from Y_INV_NUMERATOR
    hd = hilbert_data(ideal_Y_inv(QQ))
    assert (hd.dimension, hd.numerator) == (7, Y_INV_NUMERATOR)


def test_planar_sym_images_on_Y_pinv():
    rng = random.Random(43)
    I = ideal_Y_pinv(QQ)
    for _ in range(1000):
        leg = Leg(
            (Fraction(rng.randint(-7, 7)), Fraction(rng.randint(-7, 7)), Fraction(0)),
            (Fraction(rng.randint(-7, 7)), Fraction(rng.randint(-7, 7)), Fraction(0)),
            Fraction(rng.randint(-10, 10)),
            QQ,
        )
        assert I.contains_point(leg_pinv_coords(leg))


def test_Y_pinv_simple_points():
    I = ideal_Y_pinv(QQ)
    # a = b = (1,0,0): z00 = 1, rest of the matrix part 0 except z11 = 1
    leg = Leg((Fraction(1), Fraction(0), Fraction(0)), (Fraction(1), Fraction(0), Fraction(0)), Fraction(0), QQ)
    assert I.contains_point(leg_pinv_coords(leg))
    # z00 = z11 = z22 = 1, s = 0 gives 4 != 0
    assert not I.contains_point([1, 1, 1, 0, 0, 0, 0])


def test_project_model_identity():
    I = ideal_Y_p(QQ)
    assert project_model(I, I.ring.names) is I


def test_projection_invariants():
    hd_xp = hilbert_data(ideal_X_p(F101))
    assert (hd_xp.dimension, hd_xp.degree, hd_xp.numerator) == (6, 20, (1, 3, 6, 10))
    hd_xpi = hilbert_data(ideal_X_pinv(F101))
    assert (hd_xpi.dimension, hd_xpi.degree) == (4, 6)


def test_x_p_is_the_saturated_projection_of_the_equations():
    # the elimination of the 21 equations alone carries elements h times a
    # quartic of X_p's ideal (numerator (1, 3, 6, 10, 4, -3, -1)); X_p, the
    # projection of X's prime ideal, is that elimination saturated at h
    ring = ring_X(F101)
    projected = project_model(Ideal(ring, x_equations(ring)), XP_NAMES)
    assert hilbert_data(projected).numerator == (1, 3, 6, 10, 4, -3, -1)
    saturated = saturate(projected, "h").generators
    assert len(saturated) == 15
    assert tuple(ideal_X_p(F101).groebner_basis()) == saturated


def test_rho_point_half_turn():
    seed = draw_seed(1, QQ)
    ring = ring_euler(QQ)
    zero = ring.zero()
    rho = euler_rho(zero, zero, zero, zero)
    pt = rho_isometry_point(rho, [1, 0, 0])
    assert _rotation(pt) == [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    assert pt.coords[16] == 1  # h


def test_rho_images_land_on_X_inv_modulo_F():
    # rho-images of points on the quartic satisfy every involution equation
    field = F101
    for s in (2, 4):
        I = ideal_X_inv(field)
        pts = draw_seed(s, field).config_points(8)
        assert pts
        for pt in pts:
            assert I.contains_point(pt.coords)


def test_x_inv_samples_are_half_turns():
    # normalized involution points have symmetric rotation with trace -1
    rng = random.Random(47)
    field = F101
    pts = [pt for pt in draw_seed(3, field).config_points() if not field.is_zero(pt.coords[16])][:10]
    assert pts
    for pt in pts:
        m = _rotation(pt)
        assert m[0][1] == m[1][0] and m[0][2] == m[2][0] and m[1][2] == m[2][1]
        assert field.is_zero(m[0][0] + m[1][1] + m[2][2] + pt.coords[16])


def test_euler_rho_rejects_nonquadratic():
    ring = ring_euler(QQ)
    e1, _, _ = ring.gens()
    with pytest.raises(ValueError):
        euler_rho(e1, e1, e1, e1 * e1)
