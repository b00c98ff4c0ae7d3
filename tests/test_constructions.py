"""Pod constructions: seeds, the infinity-pod pipeline, sixth legs, hexapods,
conic products, cubic sections, and the symmetroid pencil."""

import random
from fractions import Fraction

import pytest

from podforge import groebner
from podforge.fields import GF, QQ
from podforge.groebner import Ideal, hilbert_data, normal_form, reduce_by_basis
from podforge.models import Leg, euler_rho, project_model, rho_isometry_point, ring_euler
from podforge.duality import (
    DualityError,
    bsc17,
    bsc_planar10,
    dual_space,
    leg_p_coords,
    leg_to_point,
    recover_leg_pairs,
    sphere_value,
)
from podforge.constructions import (
    CertificationError,
    DegenerateSeedError,
    base_curve,
    build_seed,
    conic_product_legs,
    create_infinity_pod,
    cubic_lift_bidegree,
    cubic_line_symmetric,
    draw_seed,
    duporcq_sixth_leg,
    hexapod_leg_curve,
    leg_sym_dual_ideal,
    legs_span_subspace,
    pentapod_config_ideal,
    sym_projection,
    symmetroid_pencil,
    syzygy_triple,
)
from podforge.verify import sample_curve_points

F101 = GF(101)


# -- seeds ---------------------------------------------------------------------


def test_syzygy_identity_holds():
    ring = ring_euler(QQ)
    rng = random.Random(2)
    e1, e2, e3 = ring.gens()
    for _ in range(20):
        L = [
            sum((g.scale(Fraction(rng.randint(-9, 9))) for g in ring.gens()), ring.zero())
            for _ in range(3)
        ]
        P = syzygy_triple(*L)
        assert (e1 * P[0] + e2 * P[1] + e3 * P[2]).is_zero()


def test_zero_linear_forms_rejected():
    ring = ring_euler(QQ)
    zero = ring.zero()
    with pytest.raises(DegenerateSeedError, match="P identically zero"):
        build_seed(zero, zero, zero, ring.gen("e1") * ring.gen("e1"))


def test_koszul_syzygy_rejected():
    # L = (e1, e2, e3) gives P = 0 even though the forms are nonzero
    ring = ring_euler(QQ)
    e1, e2, e3 = ring.gens()
    with pytest.raises(DegenerateSeedError, match="P identically zero"):
        build_seed(e1, e2, e3, e1 * e1)


def test_plane_lift_rejected():
    # L = (e2, -e1, 0) gives sum P^2 = (e1^2+e2^2)(e1^2+e2^2+e3^2), so the
    # choice U = e1^2 + e2^2 makes F identically zero
    ring = ring_euler(QQ)
    e1, e2, e3 = ring.gens()
    with pytest.raises(DegenerateSeedError, match="F = 0"):
        build_seed(e2, -e1, ring.zero(), e1 * e1 + e2 * e2)


def test_f_divisible_by_sphere_rejected():
    # same L but U = e1^2 + e2^2 - (e1^2+e2^2+e3^2) leaves F = q * (e3^2-ish)
    ring = ring_euler(QQ)
    e1, e2, e3 = ring.gens()
    q = e1 * e1 + e2 * e2 + e3 * e3
    with pytest.raises(DegenerateSeedError, match="divisible"):
        build_seed(e2, -e1, ring.zero(), e1 * e1 + e2 * e2 - q)


def test_draw_seed_deterministic():
    s1 = draw_seed(5, F101)
    s2 = draw_seed(5, F101)
    assert [str(f) for f in s1.L] == [str(f) for f in s2.L]
    assert str(s1.F) == str(s2.F)


def test_seed_f_is_quartic():
    for s in (1, 2, 3):
        seed = draw_seed(s, F101)
        assert seed.F.homogeneous_degree() == 4


# -- the infinity-pod pipeline ----------------------------------------------------


@pytest.fixture(scope="module")
def bundle7():
    return create_infinity_pod(7, F101)


def test_bundle_certification(bundle7):
    assert bundle7.certification["i_lin_dim"] == 11
    assert bundle7.certification["leg_sym"] == (1, 10, 6)
    assert bundle7.certification["leg_full"] == (1, 20, 11)


def test_bundle_pair_vanishing(bundle7):
    # the sphere pairing vanishes exactly on (config curve) x (leg curve):
    # 5 parametrized configurations x 5 sampled leg points
    field = F101
    seed = bundle7.seed
    quarter = field.inv(field.of(4))
    rho = euler_rho(seed.P[0], seed.P[1], seed.P[2], seed.U.scale(quarter))
    configs = []
    for e2 in range(101):
        for e1 in range(101):
            if field.is_zero(seed.F.evaluate([e1, e2, 1])):
                configs.append(rho_isometry_point(rho, [e1, e2, 1]))
        if len(configs) >= 5:
            break
    legs = sample_curve_points(bundle7.leg_ideal_full, 5, random.Random(3))
    assert len(configs) >= 5 and len(legs) == 5
    B = bsc17()
    count = 0
    for c in configs[:5]:
        for pt in legs:
            assert field.is_zero(B.evaluate(c.coords, pt, field))
            count += 1
    assert count == 25


def test_bundle_points_on_ideals(bundle7):
    field = F101
    legs = sample_curve_points(bundle7.leg_ideal_full, 4, random.Random(8))
    for pt in legs:
        assert bundle7.leg_ideal_full.contains_point(pt)
    seed = bundle7.seed
    quarter = field.inv(field.of(4))
    rho = euler_rho(seed.P[0], seed.P[1], seed.P[2], seed.U.scale(quarter))
    for e2 in range(30):
        for e1 in range(101):
            if field.is_zero(seed.F.evaluate([e1, e2, 1])):
                assert bundle7.config_ideal.contains_point(
                    rho_isometry_point(rho, [e1, e2, 1]).coords
                )


def test_leg_sym_dual_route_agrees(bundle7):
    # the symmetric leg curve computed by elimination matches the duality
    # route: same Hilbert data and mutual containment of generators
    dual_route = leg_sym_dual_ideal(bundle7)
    elim_route = bundle7.leg_ideal_sym
    assert hilbert_data(dual_route).triple() == (1, 10, 6)
    gb = list(elim_route.groebner_basis())
    for g in dual_route.generators:
        assert reduce_by_basis(g, gb).is_zero()


def test_sym_leg_points_recover_leg_pairs(bundle7):
    # points of the symmetric curve factor into leg pairs (or extension data)
    pts = sample_curve_points(bundle7.leg_ideal_sym, 6, random.Random(4))
    recovered = 0
    for pt in pts:
        try:
            rec = recover_leg_pairs(pt, F101)
        except DualityError:
            continue
        if rec.legs is not None:
            recovered += 1
    assert recovered >= 1


def test_multiple_seeds_certify():
    for s in (12, 23):
        b = create_infinity_pod(s, F101)
        assert b.certification["leg_sym"] == (1, 10, 6)
        assert b.certification["leg_full"] == (1, 20, 11)


@pytest.mark.parametrize("seed", [1, 8, 15])
def test_hilbert_driven_elimination_byte_identical(seed, monkeypatch):
    # the known Hilbert series only skips work: the reduced bases agree
    # byte for byte with runs that know no series
    leg_full = create_infinity_pod(seed, F101, certify=False).leg_ideal_full
    keep = [n for n in leg_full.ring.names if n not in ("z01", "z10", "z23")]

    def bases():
        sym, hd = sym_projection(Ideal(leg_full.ring, leg_full.generators))
        full = Ideal(leg_full.ring, leg_full.generators)
        hilbert_data(full)
        proj = project_model(full, keep)
        return hd, [str(g) for g in sym.generators], [str(g) for g in proj.groebner_basis()]

    with_series = bases()
    monkeypatch.setattr(groebner, "_known_numerator", lambda ideal: None)
    assert bases() == with_series
    assert with_series[0].triple() == (1, 10, 6)


def test_base_curve_certified(bundle7):
    hd = hilbert_data(base_curve(bundle7))
    assert (hd.dimension, hd.degree) == (1, 10)


def test_base_platform_same_ideal(bundle7):
    bc = base_curve(bundle7)
    pc = base_curve(bundle7, platform=True)
    assert set(bc.groebner_basis()) == set(pc.groebner_basis())


def test_base_anchors_on_base_curve(bundle7):
    bc = base_curve(bundle7)
    pts = sample_curve_points(bundle7.leg_ideal_full, 4, random.Random(6))
    for pt in pts:
        anchor = [pt[4 * i] for i in range(4)]  # z_i0 column = a~ up to scale
        assert bc.contains_point(anchor)


# -- Duporcq ---------------------------------------------------------------------


def _rand_planar_leg(rng, field=QQ):
    def coord():
        return field.of(Fraction(rng.randint(-40, 40), rng.randint(1, 4)))

    return Leg(
        (coord(), coord(), field.zero),
        (coord(), coord(), field.zero),
        field.of(rng.randint(1, 30)),
        field,
    )


def test_duporcq_sixth_leg_rational_and_dual_equal():
    rng = random.Random(1)
    legs = [_rand_planar_leg(rng) for _ in range(5)]
    sixth = duporcq_sixth_leg(legs)
    assert all(isinstance(c, Fraction) for c in sixth.a + sixth.b)
    s5 = legs_span_subspace(legs, QQ)
    s6 = legs_span_subspace(legs + [sixth], QQ)
    d5 = dual_space(s5, bsc_planar10(), "right").reduced()
    d6 = dual_space(s6, bsc_planar10(), "right").reduced()
    assert d5.basis == d6.basis
    # the dual of five generic legs is a P^4 of configurations
    assert d5.dim() == 5


def test_duporcq_sixth_leg_sphere_condition_on_configs():
    rng = random.Random(1)
    legs = [_rand_planar_leg(rng, F101) for _ in range(5)]
    sixth = duporcq_sixth_leg(legs)
    cfg = pentapod_config_ideal(legs)
    pts = sample_curve_points(cfg, 10, random.Random(9))
    assert len(pts) >= 5
    B = bsc17()
    lp = leg_to_point(sixth).coords()
    for c in pts:
        assert F101.is_zero(B.evaluate(c, lp, F101))


def test_duporcq_shared_base_point_rejected():
    rng = random.Random(3)
    a = (Fraction(1), Fraction(2), Fraction(0))
    legs = [
        Leg(a, (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)), Fraction(0)),
            Fraction(rng.randint(1, 9)), QQ)
        for _ in range(5)
    ]
    with pytest.raises(DualityError):
        duporcq_sixth_leg(legs)


def test_duporcq_wrong_count_rejected():
    rng = random.Random(4)
    with pytest.raises(ValueError):
        duporcq_sixth_leg([_rand_planar_leg(rng) for _ in range(4)])


# -- hexapod ---------------------------------------------------------------------


def test_hexapod_leg_curve():
    rng = random.Random(5)
    legs = [_rand_planar_leg(rng, F101) for _ in range(6)]
    curve = hexapod_leg_curve(legs)
    hd = hilbert_data(curve)
    assert (hd.dimension, hd.degree) == (1, 6)
    for leg in legs:
        assert curve.contains_point(leg_p_coords(leg))


def test_hexapod_nonplanar_rejected():
    rng = random.Random(6)
    legs = [_rand_planar_leg(rng) for _ in range(5)]
    bad = Leg((Fraction(1), Fraction(0), Fraction(1)),
              (Fraction(0), Fraction(1), Fraction(0)), Fraction(1), QQ)
    with pytest.raises(DualityError):
        hexapod_leg_curve(legs + [bad])


# -- conic products ----------------------------------------------------------------


def test_conic_product_pod():
    rng = random.Random(5)
    fc = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    gc = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    pod = conic_product_legs(fc, gc, F101, random.Random(2))
    assert pod.certification["span_rank"] == 5
    assert pod.certification["config"][0] == 1
    # parametrized points lie on the leg ideal: evaluate at several (s, t)
    for s, t in ((1, 0), (0, 1), (1, 1), (2, 3), (5, 7)):
        coords = []
        for q in pod.parametrization:
            val = F101.zero
            for d, c in enumerate(q):
                val = F101.add(val, F101.mul(c, F101.of(s ** (4 - d) * t ** d)))
            coords.append(val)
        assert pod.leg_ideal.contains_point(coords)


def test_conic_product_identity_configuration():
    # f = g with the l-condition from zero-length legs keeps the identity
    # configuration: the planar identity lies on the configuration ideal
    field = F101
    rng = random.Random(9)
    fc = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    from podforge.constructions import _binary_quadratic_product
    from podforge.models import ring_Y_p
    from podforge.constructions import _linear_of_covector
    from podforge.models import ideal_X_p, ideal_Y_p
    from podforge import linalg

    f = [[field.of(c) for c in row] for row in fc]
    quartics = []
    for i in range(3):
        for j in range(3):
            quartics.append(_binary_quadratic_product(f[i], f[j], field))
    # l(s,t) = 2 (z11 + z22) corresponds to zero-length legs a = b
    lq = [field.zero] * 5
    for d in range(5):
        lq[d] = field.mul(field.of(2), field.add(quartics[4][d], quartics[8][d]))
    quartics.append(lq)
    point_basis = [list(col) for col in zip(*quartics)]
    from podforge.duality import LinearSubspace
    from podforge.models import XP_NAMES

    span = LinearSubspace(tuple(f"z{i}{j}" for i in range(3) for j in range(3)) + ("l",),
                          "points", tuple(tuple(r) for r in point_basis), field)
    forms = dual_space(span, bsc_planar10(), "right")
    from podforge.models import ring_X_p

    rxp = ring_X_p(field)
    config = ideal_X_p(field) + [_linear_of_covector(v, rxp) for v in forms.basis]
    identity = [field.one, field.zero, field.zero, field.one,
                field.zero, field.zero, field.zero, field.zero, field.zero, field.one]
    assert config.contains_point(identity)


def test_conic_product_degenerate_conic_rejected():
    fc = [[1, 0, 0], [0, 1, 0], [1, 1, 0]]  # rank 2 coefficient matrix
    gc = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(DegenerateSeedError):
        conic_product_legs(fc, gc, F101)


# -- cubic construction and symmetroid ----------------------------------------------


@pytest.fixture(scope="module")
def cubic3():
    return cubic_line_symmetric(3, F101)


def test_cubic_certification(cubic3):
    assert cubic3.certification["leg"] == (1, 3, 1)
    assert cubic3.certification["config"][:2] == (1, 6)


def test_cubic_lift_bidegree(cubic3):
    (da, base), (db, plat) = cubic_lift_bidegree(cubic3)
    assert da == 3 and db == 3
    assert base == plat  # base and platform cubics coincide


def test_cubic_pair_vanishing(cubic3):
    # configurations x legs of the planar symmetric pod pair to zero
    from podforge.duality import sbsc_planar7

    legs = sample_curve_points(cubic3.leg_ideal, 5, random.Random(2))
    cfgs = sample_curve_points(cubic3.config_ideal, 5, random.Random(3))
    assert legs and cfgs
    S = sbsc_planar7()
    for c in cfgs:
        for leg in legs:
            assert F101.is_zero(S.evaluate(c, leg, F101))


def test_symmetroid_structure(cubic3):
    pencil = symmetroid_pencil(cubic3)
    assert pencil.det_poly.homogeneous_degree() == 4
    assert pencil.H.homogeneous_degree() == 3
    # det = w0 * H exactly
    ring = pencil.H.ring
    w0 = ring.gen("w0")
    assert pencil.det_poly == w0 * pencil.H
    assert pencil.E == ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    for mat in pencil.A:
        assert all(mat[3][k] == 0 and mat[k][3] == 0 for k in range(4))
    assert pencil.node_scheme_degree <= 4


def test_symmetroid_nodes_give_leg_pairs():
    # seed 17 has all four nodes rational over GF(101)
    bundle = cubic_line_symmetric(17, F101)
    pencil = symmetroid_pencil(bundle)
    assert pencil.node_scheme_degree == 4
    assert len(pencil.nodes) == 4
    pairs = 0
    for nd in pencil.nodes:
        rec = recover_leg_pairs(nd, F101)
        if rec.legs is not None:
            pairs += 1
    assert pairs >= 1


def test_symmetroid_node_count_bound_across_seeds():
    for s in (11, 23):
        pencil = symmetroid_pencil(cubic_line_symmetric(s, F101))
        assert pencil.node_scheme_degree <= 4
        assert len(pencil.nodes) <= 4


def test_conic_product_pair_vanishing():
    # sampled configurations pair to zero with parametrized leg points
    rng = random.Random(5)
    fc = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    gc = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    pod = conic_product_legs(fc, gc, F101, random.Random(2))
    cfgs = sample_curve_points(pod.config_ideal, 5, random.Random(7))
    assert cfgs
    leg_pts = []
    for s, t in ((1, 0), (0, 1), (1, 1), (2, 3), (5, 7)):
        coords = []
        for q in pod.parametrization:
            val = F101.zero
            for d, c in enumerate(q):
                val = F101.add(val, F101.mul(c, F101.of(s ** (4 - d) * t ** d)))
            coords.append(val)
        leg_pts.append(coords)
    B = bsc_planar10()
    for c in cfgs:
        for pt in leg_pts:
            assert F101.is_zero(B.evaluate(c, pt, F101))


def test_hexapod_rigid_configs_pair_with_leg_curve():
    # the finitely many hexapod configurations pair to zero with every point
    # of the added leg curve
    from podforge import linalg
    from podforge.constructions import _linear_of_covector
    from podforge.duality import dual_space, LinearSubspace
    from podforge.models import YP_NAMES, ideal_X_p, ring_X_p
    from podforge.verify import solve_zero_dimensional

    rng = random.Random(8)
    for attempt in range(4):
        legs = [_rand_planar_leg(rng, F101) for _ in range(6)]
        try:
            curve = hexapod_leg_curve(legs)
        except Exception:
            continue
        span = LinearSubspace(
            YP_NAMES, "points", tuple(leg_p_coords(leg) for leg in legs), F101
        )
        forms = dual_space(span, bsc_planar10(), "right")
        rxp = ring_X_p(F101)
        cfg_ideal = ideal_X_p(F101) + [_linear_of_covector(v, rxp) for v in forms.basis]
        try:
            cfgs = solve_zero_dimensional(cfg_ideal, max_points=4)
        except Exception:
            continue
        if not cfgs:
            continue
        pts = sample_curve_points(curve, 4, random.Random(3))
        B = bsc_planar10()
        for c in cfgs:
            for leg in legs:
                assert F101.is_zero(B.evaluate(c, leg_p_coords(leg), F101))
            for pt in pts:
                assert F101.is_zero(B.evaluate(c, pt, F101))
        return
    raise AssertionError("no hexapod with rational configurations found in 4 draws")


def test_seed_decomposition_identity():
    # sum P_i^2 = U (e1^2+e2^2+e3^2) + F
    for s in (3, 8):
        seed = draw_seed(s, F101)
        ring = seed.F.ring
        e1, e2, e3 = ring.gens()
        q = e1 * e1 + e2 * e2 + e3 * e3
        lhs = seed.P[0] * seed.P[0] + seed.P[1] * seed.P[1] + seed.P[2] * seed.P[2]
        assert lhs == seed.U * q + seed.F
