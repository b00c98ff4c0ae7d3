"""Sphere pairings, leg/point conversions, duals, and rank-two recovery."""

import random
from fractions import Fraction

import pytest

from podforge.fields import GF, QQ
from podforge.linalg import mat_inverse, mat_mul, rank
from podforge.models import (
    X_NAMES,
    XINV_NAMES,
    XP_NAMES,
    XPINV_NAMES,
    Y_NAMES,
    YINV_NAMES,
    YP_NAMES,
    YPINV_NAMES,
    IsometryPoint,
    Leg,
    ring_X,
    ring_Y,
    ring_Y_p,
)
from podforge.duality import (
    ComplexLegError,
    DualityError,
    FORMS,
    LinearSubspace,
    bsc17,
    bsc_planar10,
    dual_space,
    form_determinant,
    leg_sym_coords,
    leg_to_point,
    point_to_leg,
    recover_leg_pairs,
    recover_leg_pairs_float,
    same_subspace,
    sbsc11,
    sbsc_planar7,
    sphere_value,
)

F101 = GF(101)
IDENTITY = IsometryPoint.from_affine([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0])


def _cayley(rng):
    s = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
    skew = [[Fraction(0), s[0], s[1]], [-s[0], Fraction(0), s[2]], [-s[1], -s[2], Fraction(0)]]
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    minus = [[eye[i][j] - skew[i][j] for j in range(3)] for i in range(3)]
    plus = [[eye[i][j] + skew[i][j] for j in range(3)] for i in range(3)]
    return mat_mul(mat_inverse(minus, QQ), plus, QQ)


def _rand_leg(rng, planar=False):
    def coord():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    a = (coord(), coord(), Fraction(0) if planar else coord())
    b = (coord(), coord(), Fraction(0) if planar else coord())
    return Leg(a, b, Fraction(rng.randint(-20, 20)), QQ)


# -- sphere values -------------------------------------------------------------


def test_sphere_value_zero_length_identity():
    leg = Leg((Fraction(1), Fraction(0), Fraction(0)),
              (Fraction(1), Fraction(0), Fraction(0)), Fraction(0), QQ)
    assert sphere_value(leg, IDENTITY) == 0


def test_sphere_value_unit_leg_at_origin():
    leg = Leg((Fraction(0),) * 3, (Fraction(0),) * 3, Fraction(1), QQ)
    assert sphere_value(leg, IDENTITY) == -1


def test_sphere_value_half_turn_mapping_a_to_b():
    # half-turn about the axis through the origin along (1,1,0) swaps the
    # first two coordinate directions
    mat = [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
    sigma = IsometryPoint.from_affine(mat, [0, 0, 0])
    leg = Leg((Fraction(1), Fraction(0), Fraction(0)),
              (Fraction(0), Fraction(1), Fraction(0)), Fraction(0), QQ)
    img = [sum(mat[i][j] * leg.a[j] for j in range(3)) for i in range(3)]
    assert sum((img[i] - leg.b[i]) ** 2 for i in range(3)) == 0
    assert sphere_value(leg, sigma) == 0


def test_sphere_value_matches_brute_force_oracle():
    # the independent oracle for the corrected linear form of bsc17 (which
    # sphere_value evaluates), 1000 samples
    rng = random.Random(61)
    for _ in range(1000):
        mat = _cayley(rng)
        y = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
        leg = _rand_leg(rng)
        sigma = IsometryPoint.from_affine(mat, y)
        img = [sum(mat[i][j] * leg.a[j] for j in range(3)) + y[i] for i in range(3)]
        brute = sum((img[i] - leg.b[i]) ** 2 for i in range(3)) - leg.d2
        assert sphere_value(leg, sigma) == brute


def test_bsc17_nondegenerate():
    assert form_determinant(bsc17(), QQ) != 0


def test_all_forms_nondegenerate():
    for factory in FORMS.values():
        assert form_determinant(factory(), QQ) != 0


def _table(left, right, pairs):
    rows = [[0] * len(right) for _ in left]
    for ln, rn, c in pairs:
        rows[left.index(ln)][right.index(rn)] = c
    return tuple(tuple(r) for r in rows)


# the symmetric and planar pairings as written out by hand before they were
# induced from bsc17: the -2<b, y> term and the m_ij <-> z_ji transpose
SBSC11_PAIRS = [
    ("h", "l", 1), ("r", "z00", 1),
    ("x1", "s01", -2), ("m11", "z11", -2),
    ("x2", "s02", -2), ("m22", "z22", -2),
    ("x3", "s03", -2), ("m33", "z33", -2),
    ("m12", "s12", -2), ("m13", "s13", -2), ("m23", "s23", -2),
]
BSC_PLANAR10_PAIRS = [
    ("h", "l", 1), ("r", "z00", 1),
    ("x1", "z10", -2), ("y1", "z01", -2),
    ("x2", "z20", -2), ("y2", "z02", -2),
    ("m11", "z11", -2), ("m12", "z21", -2),
    ("m21", "z12", -2), ("m22", "z22", -2),
]
SBSC_PLANAR7_PAIRS = [
    ("h", "l", 1), ("r", "z00", 1),
    ("x1", "s01", -2), ("x2", "s02", -2),
    ("m11", "z11", -2), ("m22", "z22", -2),
    ("m12", "s12", -2),
]


@pytest.mark.parametrize(
    "factory, left, right, pairs",
    [
        (sbsc11, XINV_NAMES, YINV_NAMES, SBSC11_PAIRS),
        (bsc_planar10, XP_NAMES, YP_NAMES, BSC_PLANAR10_PAIRS),
        (sbsc_planar7, XPINV_NAMES, YPINV_NAMES, SBSC_PLANAR7_PAIRS),
    ],
    ids=["sbsc11", "bsc_planar10", "sbsc_planar7"],
)
def test_pairing_equals_the_written_table(factory, left, right, pairs):
    form = factory()
    assert form.kind == factory.__name__
    assert (form.left_names, form.right_names) == (left, right)
    assert form.entries == _table(left, right, pairs)
    assert all(type(c) is int for row in form.entries for c in row)


def _bsc17_with(left_name, right_name, value):
    from podforge.duality import BilinearForm

    rows = [list(r) for r in bsc17().entries]
    rows[X_NAMES.index(left_name)][Y_NAMES.index(right_name)] = value
    return BilinearForm("bsc17", X_NAMES, Y_NAMES, tuple(tuple(r) for r in rows))


def test_induced_rejects_columns_that_differ_under_pi():
    # m21 pairing z12 with -3 and m12 pairing z21 with -2: the columns z12
    # and z21, which pi sends to s12, fold to different covectors on W
    from podforge.duality import _induced, fold_name, pi_name

    bad = _bsc17_with("m21", "z12", -3)
    with pytest.raises(DualityError, match="s12"):
        _induced(bad, "sbsc11", XINV_NAMES, YINV_NAMES, fold_name, pi_name)


def test_induced_rejects_a_row_off_the_planar_coordinates():
    # x3 is no planar coordinate, but z10 is: the form does not restrict
    from podforge.duality import _induced

    bad = _bsc17_with("x3", "z10", -2)
    with pytest.raises(DualityError, match="x3"):
        _induced(bad, "bsc_planar10", XP_NAMES, YP_NAMES)


def test_symmetric_form_restricts_the_full_form():
    # on symmetric configurations the full pairing equals the symmetric one
    rng = random.Random(71)
    B = bsc17()
    S = sbsc11()
    for _ in range(100):
        # symmetric involution-like coordinates: M = M^t, x = y (not
        # necessarily on X; the restriction identity is linear algebra)
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                m[j][i] = m[i][j]
        x = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        r, h = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        coords = tuple(m[0] + m[1] + m[2] + x + x + [r, h])
        leg = _rand_leg(rng)
        full = B.evaluate(coords, leg_to_point(leg).coords())
        sym_cfg = (m[0][0], m[0][1], m[0][2], m[1][1], m[1][2], m[2][2], x[0], x[1], x[2], r, h)
        sym = S.evaluate(sym_cfg, leg_sym_coords(leg))
        assert full == sym


def test_planar_form_restricts_the_full_form():
    rng = random.Random(73)
    B = bsc17()
    P = bsc_planar10()
    for _ in range(100):
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        x = [Fraction(rng.randint(-5, 5)) for _ in range(2)] + [Fraction(0)]
        y = [Fraction(rng.randint(-5, 5)) for _ in range(2)] + [Fraction(0)]
        r, h = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        coords = tuple(m[0] + m[1] + m[2] + x + y + [r, h])
        leg = _rand_leg(rng, planar=True)
        full = B.evaluate(coords, leg_to_point(leg).coords())
        pl_cfg = (m[0][0], m[0][1], m[1][0], m[1][1], x[0], x[1], y[0], y[1], r, h)
        pl = P.evaluate(pl_cfg, leg_to_point(leg).planar_coords())
        assert full == pl


# -- conversions -----------------------------------------------------------------


def test_leg_to_point_example():
    leg = Leg((Fraction(1), Fraction(0), Fraction(0)),
              (Fraction(0), Fraction(1), Fraction(0)), Fraction(2), QQ)
    pt = leg_to_point(leg)
    assert pt.z[0][0] == 1
    assert pt.z[0][1] == 0  # a~_0 b~_1 = b_1... index order a_i b_j
    assert pt.z[1][0] == 1
    assert pt.l == 0  # 1 + 1 - 2


def test_leg_point_roundtrip():
    rng = random.Random(79)
    for _ in range(1000):
        leg = _rand_leg(rng)
        back = point_to_leg(leg_to_point(leg))
        assert back.a == leg.a and back.b == leg.b and back.d2 == leg.d2


def test_point_to_leg_rejects_infinity():
    leg = _rand_leg(random.Random(83))
    pt = leg_to_point(leg)
    z = list(list(row) for row in pt.z)
    z[0][0] = QQ.zero
    from podforge.models import LegPoint

    with pytest.raises(DualityError):
        point_to_leg(LegPoint(tuple(tuple(r) for r in z), pt.l, QQ))


def test_point_to_leg_rejects_rank_two():
    from podforge.models import LegPoint

    z = [[Fraction(1), 0, 0, 0], [0, Fraction(1), 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(DualityError, match="not a leg point"):
        point_to_leg(LegPoint(tuple(tuple(r) for r in z), Fraction(0), QQ))


@pytest.mark.parametrize("field", [QQ, F101], ids=["q", "fp101"])
def test_point_to_leg_rejects_sum_of_two_legs(field):
    # z1 + z2 of two legs has z00 = 2 and rank two: off the leg cone
    from podforge.models import LegPoint

    rng = random.Random(87)
    checked = 0
    for _ in range(20):
        p1, p2 = (leg_to_point(_rand_leg(rng)) for _ in range(2))
        z = [[field.of(u + v) for u, v in zip(r1, r2)]
             for r1, r2 in zip(p1.z, p2.z)]
        if rank(z, field) != 2:
            continue
        checked += 1
        with pytest.raises(DualityError, match="not a leg point"):
            point_to_leg(LegPoint(tuple(map(tuple, z)), field.of(p1.l), field))
    assert checked >= 15


# -- duals -----------------------------------------------------------------------


def test_dual_point_gives_cutting_form():
    # with the dot-like pairing semantics: a single point dualizes to the
    # form cutting the complementary hyperplane
    B = bsc17()
    v = tuple(Fraction(int(i == 16)) for i in range(17))  # the h-point
    sub = LinearSubspace(B.left_names, "points", (v,), QQ)
    dual = dual_space(sub, B, "left")
    assert dual.kind == "forms"
    assert rank(dual.basis, QQ) == 1  # one form: a hyperplane, dimension 16
    # B(h-point, .) = the l-coordinate form
    assert dual.basis[0] == tuple(Fraction(int(i == 16)) for i in range(17))


def test_dual_space_respects_sides():
    B = sbsc_planar7()
    sub = LinearSubspace(B.right_names, "points", ((Fraction(1),) + (Fraction(0),) * 6,), QQ)
    with pytest.raises(DualityError):
        dual_space(sub, B, "left")


def test_subspace_representation_conversion():
    rng = random.Random(97)
    for _ in range(50):
        basis = []
        while rank(basis, QQ) < 3:
            basis = [[Fraction(rng.randint(-9, 9)) for _ in range(7)] for _ in range(3)]
        sub = LinearSubspace(tuple("abcdefg"), "points", tuple(tuple(r) for r in basis), QQ)
        twice = sub.converted().converted()
        assert same_subspace(sub, twice)
        assert rank(sub.converted().basis, QQ) == len(sub.converted().basis) == 7 - 3


def test_linear_forms_cut_out_the_subspace():
    # a rank-k points subspace of n coordinates is cut out by n - k forms,
    # each vanishing on every basis point; its forms representation gives
    # the same forms
    rng = random.Random(5)
    n = len(YP_NAMES)
    for field in (QQ, F101):
        ring = ring_Y_p(field)
        for k in (1, 5, n - 1):
            basis = []
            while rank(basis, field) < k:
                basis = [[field.of(rng.randint(-9, 9)) for _ in range(n)] for _ in range(k)]
            sub = LinearSubspace(YP_NAMES, "points", tuple(tuple(r) for r in basis), field)
            forms = sub.linear_forms(ring)
            assert len(forms) == n - k
            for f in forms:
                assert f.homogeneous_degree() == 1
                assert all(field.is_zero(f.evaluate(v)) for v in basis)
            assert sub.converted().linear_forms(ring) == forms


def test_linear_forms_need_the_subspace_coordinates():
    sub = LinearSubspace(X_NAMES, "points", (tuple(F101.of(int(i == 16)) for i in range(17)),), F101)
    with pytest.raises(DualityError, match="does not carry"):
        sub.linear_forms(ring_Y(F101))
    with pytest.raises(DualityError, match="does not carry"):
        sub.linear_forms(ring_X(QQ))
    assert len(sub.linear_forms(ring_X(F101))) == 16


# -- rank-two recovery -------------------------------------------------------------


def test_recover_round_trip_exact():
    rng = random.Random(101)
    for _ in range(1000):
        leg = Leg(
            tuple(Fraction(rng.randint(-6, 6)) for _ in range(3)),
            tuple(Fraction(rng.randint(-6, 6)) for _ in range(3)),
            Fraction(rng.randint(-10, 10)),
            QQ,
        )
        rec = recover_leg_pairs(leg_sym_coords(leg), QQ)
        if rec.degenerate:
            assert leg.a == leg.b
            continue
        assert rec.legs is not None
        l1, l2 = rec.legs
        assert {(l1.a, l1.b), (l2.a, l2.b)} == {(leg.a, leg.b), (leg.b, leg.a)}
        assert l1.d2 == leg.d2 and l2.d2 == leg.d2


def test_recover_alpha_image_simple():
    leg = Leg((Fraction(1), Fraction(0), Fraction(0)),
              (Fraction(0), Fraction(1), Fraction(0)), Fraction(2), QQ)
    rec = recover_leg_pairs(leg_sym_coords(leg), QQ)
    assert rec.legs is not None
    assert {rec.legs[0].a, rec.legs[0].b} == {leg.a, leg.b}


def test_recover_coincident_anchors_flagged():
    a = (Fraction(1), Fraction(2), Fraction(-1))
    leg = Leg(a, a, Fraction(3), QQ)
    rec = recover_leg_pairs(leg_sym_coords(leg), QQ)
    assert rec.degenerate
    assert rec.legs[0].a == a and rec.legs[0].b == a
    assert rec.legs[0].d2 == leg.d2


def test_recover_complex_pair_raises():
    # diag(2, 2, 0, 0): rank two but u = 0 forces b = -a with a_1^2 = -1
    coords = (Fraction(1), 0, 0, 0, 0, 0, 0, 0, 0, Fraction(1), Fraction(0))
    with pytest.raises(ComplexLegError):
        recover_leg_pairs(coords, QQ)


def test_recover_rank3_rejected():
    coords = (Fraction(1), Fraction(1), Fraction(1), 0, 0, 0, 0, 0, 0, Fraction(1), 0)
    with pytest.raises(DualityError, match="rank exceeds two"):
        recover_leg_pairs(coords, QQ)


def test_recover_extension_data():
    # a = (1,1,0), b = 2a gives T with square discriminant; scale z-part by a
    # non-square to force extension data instead
    leg = Leg((Fraction(1), Fraction(1), Fraction(0)),
              (Fraction(1), Fraction(3), Fraction(0)), Fraction(1), QQ)
    sym = list(leg_sym_coords(leg))
    rec = recover_leg_pairs(sym, QQ)
    assert rec.legs is not None  # sanity: recoverable as-is
    # v = a - b = (0, -2, 0): disc T_kk = 4 (square). Perturb s-entries to a
    # rank-2 matrix with non-square discriminant: use a = (0,...), b = ... via
    # direct construction: S for a+b = (0,2,0), v*v = 2 -> disc 2 non-square
    f = QQ
    u = [Fraction(0), Fraction(2), Fraction(0)]
    vsq = Fraction(2)  # v = (0, sqrt(2), 0)
    S = [[Fraction(2)] + u] + [[u[i]] + [Fraction(0)] * 3 for i in range(3)]
    S[1][1] = (u[0] * u[0] - vsq) / 2 * 2
    # assemble coordinates directly: z11 = (u1^2 - v1^2)/4 ... simpler to go
    # through the S-matrix convention: S_ij = (u_i u_j - v_i v_j)/2 for i,j>=1
    v = [Fraction(0), None, Fraction(0)]
    Smat = [[Fraction(0)] * 4 for _ in range(4)]
    Smat[0][0] = Fraction(2)
    for i in range(3):
        Smat[0][i + 1] = Smat[i + 1][0] = u[i]
    uu = lambda i, j: u[i] * u[j]
    vv = {(1, 1): vsq}
    for i in range(3):
        for j in range(3):
            vij = vsq if (i, j) == (1, 1) else Fraction(0)
            Smat[i + 1][j + 1] = (uu(i, j) - vij) / 2
    coords = (
        Smat[1][1] / 2, Smat[2][2] / 2, Smat[3][3] / 2,
        Smat[1][2], Smat[1][3], Smat[2][3],
        Smat[0][1], Smat[0][2], Smat[0][3],
        Smat[0][0] / 2, Fraction(5),
    )
    rec2 = recover_leg_pairs(coords, QQ)
    assert rec2.legs is None
    assert rec2.extension_disc == 2


def test_recover_float_eigendecomposition():
    import numpy as np

    rng = random.Random(103)
    for _ in range(50):
        leg = Leg(
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(3)),
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(3)),
            Fraction(rng.randint(1, 10)),
            QQ,
        )
        if leg.a == leg.b:
            continue
        a, b, d2 = recover_leg_pairs_float([float(c) for c in leg_sym_coords(leg)])
        la = [float(c) for c in leg.a]
        lb = [float(c) for c in leg.b]
        straight = np.allclose(a, la, atol=1e-8) and np.allclose(b, lb, atol=1e-8)
        swapped = np.allclose(a, lb, atol=1e-8) and np.allclose(b, la, atol=1e-8)
        assert straight or swapped
        assert abs(d2 - float(leg.d2)) < 1e-8


def test_recover_float_rejects_rank_three():
    # a leg pair's matrix plus 2 e1 e1^t has rank three: off the cone
    leg = Leg((Fraction(1), Fraction(2), Fraction(0)), (Fraction(-1), Fraction(0), Fraction(3)),
              Fraction(4), QQ)
    coords = [float(c) for c in leg_sym_coords(leg)]
    recover_leg_pairs_float(coords)
    coords[0] += 1.0
    with pytest.raises(DualityError, match="rank exceeds two"):
        recover_leg_pairs_float(coords)


def test_recover_over_prime_field():
    rng = random.Random(107)
    hits = 0
    for _ in range(200):
        leg = Leg(
            tuple(F101.of(rng.randint(0, 100)) for _ in range(3)),
            tuple(F101.of(rng.randint(0, 100)) for _ in range(3)),
            F101.of(rng.randint(0, 100)),
            F101,
        )
        rec = recover_leg_pairs(leg_sym_coords(leg), F101)
        if rec.legs is None or rec.degenerate:
            continue
        l1, l2 = rec.legs
        assert {(l1.a, l1.b), (l2.a, l2.b)} == {(leg.a, leg.b), (leg.b, leg.a)}
        hits += 1
    assert hits > 100


def test_degenerate_form_dual_of_forms_rejected():
    from podforge.duality import BilinearForm

    # rank-deficient 2x2 pairing: dual of a forms-space is ill-posed
    bad = BilinearForm("bad", ("u0", "u1"), ("v0", "v1"), ((1, 0), (0, 0)))
    sub = LinearSubspace(("u0", "u1"), "forms", ((Fraction(1), Fraction(0)),), QQ)
    with pytest.raises(DualityError):
        dual_space(sub, bad, "left")
