"""Variety constructors: membership, parametrization consistency, invariants."""

import random
from fractions import Fraction

import pytest

from podforge.fields import GF, QQ
from podforge.groebner import hilbert_data
from podforge.linalg import mat_inverse, mat_mul
from podforge.models import (
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
    project_model,
    ring_euler,
    rho_isometry_point,
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
    assert (hd_xp.dimension, hd_xp.degree) == (6, 20)
    hd_xpi = hilbert_data(ideal_X_pinv(F101))
    assert (hd_xpi.dimension, hd_xpi.degree) == (4, 6)


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
        trace = field.add(field.add(m[0][0], m[1][1]), m[2][2])
        assert field.is_zero(field.add(trace, pt.coords[16]))


def test_euler_rho_rejects_nonquadratic():
    ring = ring_euler(QQ)
    e1, _, _ = ring.gens()
    with pytest.raises(ValueError):
        euler_rho(e1, e1, e1, e1 * e1)
