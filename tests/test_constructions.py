"""Pod constructions: seeds, the infinity-pod pipeline, sixth legs, hexapods,
conic products, cubic sections, and the symmetroid pencil."""

import itertools
import random
from fractions import Fraction

import pytest

from podforge import constructions, groebner, linalg, unipoly
from podforge.fields import GF, QQ
from podforge.groebner import Ideal, eliminate, hilbert_data
from podforge.models import (
    Y_NAMES,
    Leg,
    ideal_X,
    project_model,
    rho_isometry_point,
    ring_euler,
    ring_X,
    ring_Y,
    ring_Y_inv,
)
from podforge.rings import DEGREVLEX, Polynomial, RingContext, RingMap
from podforge.duality import (
    DualityError,
    LinearSubspace,
    bsc17,
    bsc_planar10,
    dual_space,
    leg_p_coords,
    leg_to_point,
    recover_leg_pairs,
)
from podforge.constructions import (
    CertificationError,
    DegenerateSeedError,
    _symmetric_leg_ideal,
    base_curve,
    build_seed,
    conic_product_legs,
    create_infinity_pod,
    cubic_line_symmetric,
    draw_seed,
    duporcq_sixth_leg,
    hexapod_leg_curve,
    legs_span_subspace,
    pentapod_config_ideal,
    symmetroid_pencil,
    syzygy_triple,
)
from podforge.verify import curve_points, solve_zero_dimensional

F101 = GF(101)


def sample_curve_points(ideal, count, rng):
    """The first `count` points of `curve_points`."""
    return list(itertools.islice(curve_points(ideal, rng), count))


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


def _brute_config_points(seed):
    """Every GF(p) point (e1, e2, 1) of F by evaluating F at all p^2 of them,
    in (e2, e1) order, lifted like `config_points`: the oracle of the per-line
    root search."""
    p, rho = seed.field.p, seed.lift()
    return [
        rho_isometry_point(rho, (e1, e2, 1)) for e2 in range(p) for e1 in range(p)
        if seed.field.is_zero(seed.F.evaluate([e1, e2, 1]))
    ]


def test_config_points_match_the_brute_force_scan():
    seed = draw_seed(3, F101)
    brute = _brute_config_points(seed)
    assert seed.config_points() == brute
    assert seed.config_points(7) == brute[:7]


def test_config_points_take_a_whole_line_of_f():
    # L = (e2, 0, 0), U = e2^2 give F = -e1^2 e2^2, which vanishes on all of
    # e2 = 0: 101 + 101 - 1 points
    ring = ring_euler(F101)
    e1, e2, e3 = ring.gens()
    seed = build_seed(e2, ring.zero(), ring.zero(), e2 * e2)
    assert seed.F == -(e1 * e1 * e2 * e2)
    brute = _brute_config_points(seed)
    assert len(brute) == 201
    assert seed.config_points() == brute


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
    configs = bundle7.seed.config_points(5)
    legs = sample_curve_points(bundle7.leg_ideal_full, 5, random.Random(3))
    assert len(configs) == 5 and len(legs) == 5
    B = bsc17()
    count = 0
    for c in configs:
        for pt in legs:
            assert field.is_zero(B.evaluate(c.coords, pt))
            count += 1
    assert count == 25


def test_bundle_points_on_ideals(bundle7):
    legs = sample_curve_points(bundle7.leg_ideal_full, 4, random.Random(8))
    for pt in legs:
        assert bundle7.leg_ideal_full.contains_point(pt)
    configs = bundle7.seed.config_points(30)
    assert configs
    for c in configs:
        assert bundle7.config_ideal.contains_point(c.coords)


SPLIT_NAMES = (
    "z00", "z11", "z22", "z33",
    "s01", "s02", "s03", "s12", "s13", "s23",
    "a01", "a02", "a03", "a12", "a13", "a23",
    "l",
)


def sym_image_by_elimination(leg_full):
    """Oracle for the symmetric leg curve: the image of the full curve under
    the symmetrization, by the split z_ij = (s_ij + a_ij)/2,
    z_ji = (s_ij - a_ij)/2 and elimination of the six a_ij.  The split is an
    invertible linear change of coordinates, so it keeps leg_full's Hilbert
    series, which drives the elimination.  Returns the image in ring_Y_inv
    with the elimination's generators."""
    field = leg_full.ring.field
    W = RingContext(SPLIT_NAMES, (1,) * 17, DEGREVLEX, field)
    gv = {n: W.gen(n) for n in SPLIT_NAMES}
    half = field.inv(field.of(2))
    images = {"l": gv["l"]}
    for i in range(4):
        images[f"z{i}{i}"] = gv[f"z{i}{i}"]
        for j in range(i + 1, 4):
            s, a = gv[f"s{i}{j}"], gv[f"a{i}{j}"]
            images[f"z{i}{j}"] = (s + a).scale(half)
            images[f"z{j}{i}"] = (s - a).scale(half)
    split = RingMap(ring_Y(field), W, [images[n] for n in Y_NAMES])
    split_ideal = Ideal(W, [split(g) for g in leg_full.generators])
    split_ideal._hilbert = hilbert_data(Ideal(leg_full.ring, leg_full.generators))
    out = eliminate(split_ideal, ["a01", "a02", "a03", "a12", "a13", "a23"])
    ryi = ring_Y_inv(field)
    return Ideal(ryi, [ryi.coerce(g) for g in out.generators])


@pytest.fixture(scope="module")
def bundles_1_8_15():
    return {s: create_infinity_pod(s, F101) for s in (1, 8, 15)}


def test_leg_sym_dual_route_agrees(bundles_1_8_15):
    # the duality route gives exactly the elimination image of the full
    # curve: the same reduced degrevlex basis
    for bundle in bundles_1_8_15.values():
        oracle = sym_image_by_elimination(bundle.leg_ideal_full)
        assert [str(g) for g in oracle.groebner_basis()] == [
            str(g) for g in bundle.leg_ideal_sym.generators
        ]
        assert hilbert_data(oracle).triple() == (1, 10, 6)


def test_symmetric_cut_mismatch_raises(bundle7):
    field = F101
    cutting = linalg.matrix_kernel([list(v) for v in bundle7.leg_span_points], field)
    ideal = _symmetric_leg_ideal(bundle7.config_span_forms, cutting, field)
    assert [str(g) for g in ideal.generators] == [str(g) for g in bundle7.leg_ideal_sym.generators]
    # one entry of one cutting form moved: off the transpose-symmetric forms
    # (z01 alone), or along them (l)
    for name in ("z01", "l"):
        bad = [list(v) for v in cutting]
        k = Y_NAMES.index(name)
        bad[0][k] = field.of(bad[0][k] + 1)
        with pytest.raises(CertificationError, match="symmetrization preimage"):
            _symmetric_leg_ideal(bundle7.config_span_forms, bad, field)


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


def test_missed_preimage_series_names_the_seed(monkeypatch):
    # a series the degree-1 and degree-2 generators cannot reach is an error,
    # never a basis
    monkeypatch.setattr(constructions, "PREIMAGE_NUMERATOR", (1, 4, 4))
    with pytest.raises(CertificationError, match=r"^seed 7: preimage of \(F\)"):
        create_infinity_pod(7, F101)


def test_multiple_seeds_certify():
    for s in (12, 23):
        b = create_infinity_pod(s, F101)
        assert b.certification["leg_sym"] == (1, 10, 6)
        assert b.certification["leg_full"] == (1, 20, 11)


@pytest.mark.parametrize("seed", [1, 8, 15])
def test_hilbert_driven_elimination_byte_identical(seed, bundles_1_8_15, monkeypatch):
    # the known Hilbert series only skips work: the reduced bases agree
    # byte for byte with runs that know no series
    leg_full = bundles_1_8_15[seed].leg_ideal_full
    keep = [n for n in leg_full.ring.names if n not in ("z01", "z10", "z23")]

    def bases():
        sym = sym_image_by_elimination(leg_full)
        full = Ideal(leg_full.ring, leg_full.generators)
        hilbert_data(full)
        proj = project_model(full, keep)
        return (hilbert_data(sym).triple(), [str(g) for g in sym.generators],
                [str(g) for g in proj.groebner_basis()])

    with_series = bases()
    monkeypatch.setattr(groebner, "_known_numerator", lambda ideal: None)
    assert bases() == with_series
    assert with_series[0] == (1, 10, 6)


def test_base_curve_certified(bundle7):
    hd = hilbert_data(base_curve(bundle7))
    assert (hd.dimension, hd.degree) == (1, 10)


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
    assert d5.kind == "forms" and len(d5.ambient) - linalg.rank(d5.basis, QQ) == 5


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
        assert F101.is_zero(B.evaluate(c, lp))


def _home_pose_pentapod():
    """A planar pentapod over GF(101) built around a known pose (home)."""
    field = F101
    return [
        Leg((field.of(a1), field.of(a2), field.zero), (field.of(b1), field.of(b2), field.zero),
            field.of(d2), field)
        for (a1, a2), (b1, b2), d2 in [
            ((83, 67), (31, 62), 67), ((35, 63), (64, 65), 30), ((45, 84), (58, 59), 53),
            ((44, 72), (92, 71), 29), ((92, 58), (62, 84), 87),
        ]
    ]


def test_pentapod_slice_through_a_boundary_point_finds_the_home_pose():
    # the home-pose pentapod sliced by a hyperplane through its pose.
    # Unsaturated, the curve carries a fat point on h = 0 that this slice
    # meets, and no draw of forms separated its points
    field = F101
    legs = _home_pose_pentapod()
    home = (1, 89, 82, 90, 21, 34, 92, 74, 91, 91, 94, 59, 37, 51, 8, 95, 1)
    coeffs = (78, 75, 52, 39, 93, 26, 62, 65, 46, 87, 79, 9, 100, 43, 92, 1, 80)
    cfg = pentapod_config_ideal(legs)
    assert hilbert_data(cfg).triple() == (1, 40, 41)
    ring = cfg.ring
    hyper = sum((g.scale(field.of(c)) for g, c in zip(ring.gens(), coeffs)), ring.zero())
    pts = solve_zero_dimensional(cfg + [hyper], rng=random.Random(0))
    assert tuple(field.of(v) for v in home) in pts


def test_pentapod_saturation_step_budget(monkeypatch):
    # a work guard on the home-pose pentapod's saturation: the run pops 652
    # S-pairs, largest lcm first within a degree, 651 of them in six degrees
    # reduced as one matrix each, so it finishes in a budget of 652 steps and
    # not in 651
    cut = []
    saturate = constructions.saturate

    def recording(ideal, var):
        cut.append(ideal)
        return saturate(ideal, var)

    monkeypatch.setattr(constructions, "saturate", recording)
    pentapod_config_ideal(_home_pose_pentapod())
    ((ideal,),) = [cut]
    batches = []
    reduce_rows = groebner._reduce_rows

    def counting(rows, *args):
        batches.append(1)
        return reduce_rows(rows, *args)

    monkeypatch.setattr(groebner, "_reduce_rows", counting)
    groebner._gb_engine(ideal.generators, ideal.ring, saturating=True, max_steps=652)
    assert batches
    with pytest.raises(groebner.BudgetExceeded):
        groebner._gb_engine(ideal.generators, ideal.ring, saturating=True, max_steps=651)


def test_infinity_pod_computes_each_lead_numerator_once(monkeypatch):
    # a lead set's Hilbert numerator is kept with the basis it describes: the
    # cut's post-check, the certification's Hilbert data and the preimage's
    # check read it, and no run or caller computes it again
    keys = []
    numerator = groebner._lead_numerator

    def recording(ring, leads):
        tuples = {ring.unpack(m) for m in leads}
        minimal = frozenset(t for t in tuples if not any(
            s != t and all(map(int.__le__, s, t)) for s in tuples))
        keys.append((ring, minimal))
        return numerator(ring, leads)

    monkeypatch.setattr(groebner, "_lead_numerator", recording)
    create_infinity_pod(3, F101)
    assert keys and len(keys) == len(set(keys))


def test_leg_cone_cut_reduction_count(monkeypatch):
    # a work guard on Y's Cohen-Macaulay cut for seed 1: 42 generators, 15
    # S-pairs and 51 tails of the final interreduction, 108 reductions in all
    cuts = []
    cut = groebner.cut_cohen_macaulay

    def recording(ideal, forms):
        cuts.append((ideal, list(forms)))
        return cut(ideal, forms)

    monkeypatch.setattr(constructions, "cut_cohen_macaulay", recording)
    create_infinity_pod(1, F101)
    ((Y, forms),) = [(i, f) for i, f in cuts if i.ring == ring_Y(F101)]
    series = groebner._basis_numerator(Y)
    for _ in forms:
        series = unipoly.mul(series, [1, -1])
    groebner.buchberger(Y + forms, hilbert=series, max_steps=15)
    with pytest.raises(groebner.BudgetExceeded):
        groebner.buchberger(Y + forms, hilbert=series, max_steps=14)
    calls = []
    reduce = groebner._reduce

    def counting(*args):
        calls.append(1)
        return reduce(*args)

    monkeypatch.setattr(groebner, "_reduce", counting)
    assert len(cut(Y, forms).groebner_basis()) == 51
    assert len(calls) == 108


def _saturate_two_runs(ideal, var):
    """I : var^infinity by Bayer's two-run route: finish the degrevlex basis
    of I, divide each element by its largest power of var (var last), and
    reduce the result in a second run."""
    ring = ideal.ring
    unit = ring.units[-1]
    divided = []
    for g in ideal.groebner_basis():
        k = min(ring.unpack(m)[-1] for m in g.terms)
        divided.append(Polynomial(ring, {m - k * unit: c for m, c in g.terms.items()}))
    return groebner.buchberger(Ideal(ring, divided))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_saturation_matches_the_two_run_saturation(monkeypatch, seed):
    # the one-run saturation of dense forms, whose degrees go through the
    # matrix kernel, against the two-run route on the heap loop alone (no
    # batch is dense once DENSE_FILL is infinite).  The generators divisible
    # by h and h^2 make the run divide new rows within a batch.
    rng = random.Random(seed)
    ring = RingContext(("x0", "x1", "x2", "x3", "h"), (1,) * 5, DEGREVLEX, F101)

    def form(d):
        exps = [e for e in itertools.product(range(d + 1), repeat=5) if sum(e) == d]
        return ring.from_terms([(e, rng.randrange(1, 101)) for e in exps if rng.random() < 0.6])

    h = ring.gen("h")
    ideal = Ideal(ring, [form(2) * h, form(2) * h, form(3) * h * h, form(3) + form(2) * h])
    batches = []
    reduce_rows = groebner._reduce_rows

    def recording(rows, *args):
        rows = [r for r in rows if r]
        batches.append(len(rows))
        return reduce_rows(rows, *args)

    monkeypatch.setattr(groebner, "_reduce_rows", recording)
    one_run = groebner.saturate(ideal, "h").generators
    assert max(batches) > 1
    monkeypatch.setattr(groebner, "DENSE_FILL", float("inf"))
    batches.clear()
    assert one_run == _saturate_two_runs(Ideal(ring, ideal.generators), "h")
    assert not batches


@pytest.mark.parametrize("which", ["random-1", "home-pose"])
def test_pentapod_config_ideal_matches_the_two_run_saturation(which):
    # the one-run saturation against the route that finishes the cut's basis
    if which == "home-pose":
        legs = _home_pose_pentapod()
    else:
        rng = random.Random(1)
        legs = [_rand_planar_leg(rng, F101) for _ in range(5)]
    points = tuple(leg_to_point(leg).coords() for leg in legs)
    forms = dual_space(LinearSubspace(Y_NAMES, "points", points, F101), bsc17(), "right")
    cut = ideal_X(F101) + forms.linear_forms(ring_X(F101))
    assert pentapod_config_ideal(legs).generators == _saturate_two_runs(cut, "h")


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


def _conic_leg_point(pod, s, t):
    """The planar leg point of a GF(101) conic-product pod at (s : t)."""
    return [F101.of(sum(c * s ** (4 - d) * t ** d for d, c in enumerate(q))) for q in pod.parametrization]


def test_conic_product_pod():
    rng = random.Random(5)
    fc = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    gc = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    pod = conic_product_legs(fc, gc, F101, random.Random(2))
    assert pod.certification["span_rank"] == 5
    assert pod.certification["config"][0] == 1
    # parametrized points lie on the leg ideal: evaluate at several (s, t)
    for s, t in ((1, 0), (0, 1), (1, 1), (2, 3), (5, 7)):
        assert pod.leg_ideal.contains_point(_conic_leg_point(pod, s, t))


def test_conic_product_identity_configuration():
    # f = g with the l-condition from zero-length legs keeps the identity
    # configuration: the planar identity lies on the configuration ideal
    field = F101
    rng = random.Random(9)
    fc = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    from podforge.models import ideal_X_p

    f = [[field.of(c) for c in row] for row in fc]
    quartics = []
    for i in range(3):
        for j in range(3):
            q = unipoly.mul(f[i], f[j], field.p)
            quartics.append(q + [0] * (5 - len(q)))
    # l(s,t) = 2 (z11 + z22) corresponds to zero-length legs a = b
    quartics.append([field.of(2 * (a + b)) for a, b in zip(quartics[4], quartics[8])])
    point_basis = [list(col) for col in zip(*quartics)]
    span = LinearSubspace(tuple(f"z{i}{j}" for i in range(3) for j in range(3)) + ("l",),
                          "points", tuple(tuple(r) for r in point_basis), field)
    forms = dual_space(span, bsc_planar10(), "right")
    from podforge.models import ring_X_p

    rxp = ring_X_p(field)
    config = ideal_X_p(field) + forms.linear_forms(rxp)
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


def test_cubic_pair_vanishing(cubic3):
    # configurations x legs of the planar symmetric pod pair to zero
    from podforge.duality import sbsc_planar7

    legs = sample_curve_points(cubic3.leg_ideal, 5, random.Random(2))
    cfgs = sample_curve_points(cubic3.config_ideal, 5, random.Random(3))
    assert legs and cfgs
    S = sbsc_planar7()
    for c in cfgs:
        for leg in legs:
            assert F101.is_zero(S.evaluate(c, leg))


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
    leg_pts = [_conic_leg_point(pod, s, t) for s, t in ((1, 0), (0, 1), (1, 1), (2, 3), (5, 7))]
    B = bsc_planar10()
    for c in cfgs:
        for pt in leg_pts:
            assert F101.is_zero(B.evaluate(c, pt))


def test_hexapod_rigid_configs_pair_with_leg_curve():
    # the finitely many hexapod configurations pair to zero with every point
    # of the added leg curve
    from podforge.models import YP_NAMES, ideal_X_p, ring_X_p

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
        cfg_ideal = ideal_X_p(F101) + forms.linear_forms(rxp)
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
                assert F101.is_zero(B.evaluate(c, leg_p_coords(leg)))
            for pt in pts:
                assert F101.is_zero(B.evaluate(c, pt))
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
