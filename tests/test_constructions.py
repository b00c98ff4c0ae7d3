"""Pod constructions: seeds, the infinity-pod pipeline, sixth legs, hexapods,
conic products, cubic sections, and the symmetroid pencil."""

import itertools
import random
from fractions import Fraction

import pytest

from podforge import constructions, groebner, linalg, models, unipoly
from podforge.fields import GF, QQ
from podforge.groebner import Ideal, eliminate, hilbert_data
from podforge.models import (
    Y_NAMES,
    YINV_NAMES,
    Leg,
    ideal_X,
    ideal_Y,
    ideal_Y_inv,
    project_model,
    rho_isometry_point,
    ring_euler,
    ring_X,
    ring_Y,
    ring_Y_inv,
    x_equations,
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


def _planar_pentapod(spec):
    """Planar legs over GF(101) from ((a1, a2), (b1, b2), d2) triples."""
    field = F101
    return [
        Leg((field.of(a1), field.of(a2), field.zero), (field.of(b1), field.of(b2), field.zero),
            field.of(d2), field)
        for (a1, a2), (b1, b2), d2 in spec
    ]


def _home_pose_pentapod():
    """A planar pentapod over GF(101) built around a known pose (home)."""
    return _planar_pentapod([
        ((83, 67), (31, 62), 67), ((35, 63), (64, 65), 30), ((45, 84), (58, 59), 53),
        ((44, 72), (92, 71), 29), ((92, 58), (62, 84), 87),
    ])


def _saturate_calls(monkeypatch):
    """Record the `saturate` calls of `pentapod_config_ideal`: none when its
    one run certified the basis, one (at h) when it fell back."""
    calls = []
    saturate = groebner.saturate

    def recording(ideal, var):
        calls.append(var)
        return saturate(ideal, var)

    monkeypatch.setattr(constructions, "saturate", recording)
    return calls


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


def test_pentapod_cut_step_budget(monkeypatch):
    # a work guard on the home-pose pentapod's one Groebner run, on the cut
    # of X driven by the series of a regular cut: it finishes in a budget of
    # 34 S-pair reductions and not in 33, and its matrix-kernel batches are
    # the input generators of degrees 1, 2 and 3 (the 5 leg forms, X's 38
    # quadrics and its cubic) in echelon mode and the final interreduction
    # in normal-form mode; the series-driven pairs go one at a time through
    # the heap loop.  Unbounded, as `saturate` runs it, the cut pops 393
    # S-pairs, 369 of which reduce to zero
    runs = []
    buchberger = groebner.buchberger

    def recording(ideal, *args, **kwargs):
        runs.append((ideal, kwargs))
        return buchberger(ideal, *args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", recording)
    fallbacks = _saturate_calls(monkeypatch)
    pentapod_config_ideal(_home_pose_pentapod())
    ((cut, kwargs),) = runs
    assert not fallbacks
    series = kwargs["hilbert"]
    assert series == groebner.ring_numerator(cut.ring, models.X_NUMERATOR, 1)
    batches = []
    reduce_rows = groebner._reduce_rows

    def counting(rows, *args, normal_forms=False):
        batches.append(normal_forms)
        return reduce_rows(rows, *args, normal_forms=normal_forms)

    monkeypatch.setattr(groebner, "_reduce_rows", counting)
    buchberger(cut, hilbert=series, max_steps=34)
    assert batches == [False, False, False, True]
    with pytest.raises(groebner.BudgetExceeded):
        buchberger(cut, hilbert=series, max_steps=33)


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
    # a pentapod's certified run leaves its numerator with its basis
    keys.clear()
    J = pentapod_config_ideal(_home_pose_pentapod())
    assert keys
    keys.clear()
    assert hilbert_data(J).triple() == (1, 40, 41)
    assert not keys


def test_leg_cone_cut_reduction_count(monkeypatch):
    # a work guard on Y's certified cut by seed 1's six leg forms: 42
    # generators, 15 S-pairs and 51 tails of the final interreduction, 108
    # reductions in all.  The matrix kernel reduces the six linear forms,
    # Y's 36 quadrics and the 51 tails as three batches of rows; the heap
    # loop reduces the 15 S-pairs of the series-driven degrees one at a time
    Y = ideal_Y(F101)
    forms = create_infinity_pod(1, F101).leg_ideal_full.generators[36:]
    assert len(Y.generators) == 36 and len(forms) == 6
    series = groebner.ring_numerator(Y.ring, models.SEGRE_NUMERATOR, 1)
    groebner.buchberger(Y + forms, hilbert=series, max_steps=15)
    with pytest.raises(groebner.BudgetExceeded):
        groebner.buchberger(Y + forms, hilbert=series, max_steps=14)
    calls, batches = [], []
    reduce, reduce_rows = groebner._reduce, groebner._reduce_rows

    def counting(*args):
        calls.append(1)
        return reduce(*args)

    def counting_rows(rows, *args, **kwargs):
        rows = list(rows)
        batches.append(len(rows))
        return reduce_rows(rows, *args, **kwargs)

    monkeypatch.setattr(groebner, "_reduce", counting)
    monkeypatch.setattr(groebner, "_reduce_rows", counting_rows)
    assert len(groebner.certified_cut(Y + forms, series).generators) == 51
    assert (len(calls), batches) == (15, [6, 36, 51])
    assert len(calls) + sum(batches) == 108


@pytest.mark.parametrize("field, seeds", [(F101, range(1, 9)), (GF(32003), [1]), (QQ, [2])])
def test_leg_full_series_is_the_certified_cut(field, seeds):
    # oracle: the series the full leg curve reads off Y's series and the
    # symmetric curve's dimension is the one of the cut that `certified_cut`
    # certifies by its leads (and, for GF(101) seed 1, the one a run with no
    # series finds), and the run it drives gives the cut's reduced basis
    Y = ideal_Y(field)
    series = groebner.ring_numerator(Y.ring, models.SEGRE_NUMERATOR, 1)
    for s in seeds:
        full = create_infinity_pod(s, field).leg_ideal_full
        cut = groebner.certified_cut(Y + full.generators[len(Y.generators):], series)
        assert cut is not None
        assert hilbert_data(full) == hilbert_data(cut)
        assert hilbert_data(full).triple() == (1, 20, 11)
        if (field, s) == (F101, 1):
            plain = Ideal(full.ring, groebner.buchberger(full.generators))
            assert hilbert_data(plain) == hilbert_data(full)
            assert plain.generators == cut.groebner_basis()
        assert full.groebner_basis() == cut.groebner_basis()


@pytest.mark.parametrize("field", [QQ, F101, GF(32003)])
def test_symmetrization_is_finite_on_the_leg_cone(field):
    # the premises of the full leg curve's certificate: the centre of the
    # symmetrization pi, {z_ii = 0, z_ij + z_ji = 0, l = 0}, misses Y, and pi
    # maps Y into Y_inv
    ry = ring_Y(field)
    z = {n: ry.gen(n) for n in Y_NAMES}
    pairs = list(itertools.combinations(range(4), 2))
    centre = ([z[f"z{i}{i}"] for i in range(4)] + [z[f"z{i}{j}"] + z[f"z{j}{i}"] for i, j in pairs]
              + [z["l"]])
    assert len(centre) == 11
    assert hilbert_data(ideal_Y(field) + centre).dimension == -1
    images = [z[n] if n[0] != "s" else z[f"z{n[1]}{n[2]}"] + z[f"z{n[2]}{n[1]}"] for n in YINV_NAMES]
    pi = RingMap(ring_Y_inv(field), ry, images)
    minors3 = ideal_Y_inv(field).generators
    assert len(minors3) == 16
    basis = ideal_Y(field).groebner_basis()
    assert all(groebner.reduce_by_basis(pi(m), basis).is_zero() for m in minors3)


def test_leg_sym_not_a_curve_raises(monkeypatch):
    # negative control: the full curve's series is read only off a symmetric
    # curve of dimension 1
    monkeypatch.setattr(constructions, "_symmetric_leg_ideal",
                        lambda span, cutting, field: ideal_Y_inv(field))
    with pytest.raises(CertificationError,
                       match=r"^seed 7: the symmetric leg curve has dimension 7, not 1$"):
        create_infinity_pod(7, F101)


def test_no_groebner_run_on_a_cut_of_the_leg_cone(monkeypatch):
    # with the model cache emptied, the construction runs Buchberger on no
    # ideal of Y's ring, and on Y_inv's ring once: on the cut, driven by the
    # series of a regular cut, and not on Y_inv's 16 generators
    runs = []
    run = groebner.buchberger

    def recording(ideal, *args, **kwargs):
        runs.append((ideal, kwargs.get("hilbert")))
        return run(ideal, *args, **kwargs)

    monkeypatch.setattr(models, "_ideal_cache", {})
    monkeypatch.setattr(groebner, "buchberger", recording)
    bundle = create_infinity_pod(4, F101)
    assert not [i for i, _ in runs if i.ring == ring_Y(F101)]
    ((cut, series),) = [(i, h) for i, h in runs if i.ring == ring_Y_inv(F101)]
    assert series == groebner.ring_numerator(cut.ring, models.Y_INV_NUMERATOR, 1)
    assert cut.generators[:16] == ideal_Y_inv(F101).generators and len(cut.generators) == 22
    assert bundle.certification["leg_full"] == (1, 20, 11)


def _certified_cut_calls(monkeypatch):
    """Record (cut, series, result) for each `certified_cut` call of the
    constructions: a result of None sent the caller to its fallback."""
    calls = []
    certified_cut = groebner.certified_cut

    def recording(cut, series):
        calls.append((cut, series, certified_cut(cut, series)))
        return calls[-1][2]

    monkeypatch.setattr(constructions, "certified_cut", recording)
    return calls


def test_symmetric_leg_cut_with_leads_in_z00_or_l_falls_back(monkeypatch):
    # the lead numerator alone does not certify a basis: on GF(11) seed 4
    # the symmetric leg cut's run reaches the series with 2 leads in z00 or
    # l, the last two variables, so `certified_cut` rejects it, and the
    # result is the cut's run with no series
    calls = _certified_cut_calls(monkeypatch)
    sym = create_infinity_pod(4, GF(11)).leg_ideal_sym
    ((cut, series, result),) = calls
    assert result is None
    run = groebner.buchberger(cut, hilbert=series)
    assert run.numerator == series
    assert sum(1 for g in run if any(cut.ring.unpack(g.lead_monomial())[-2:])) == 2
    assert sym.generators == groebner.buchberger(cut)


@pytest.mark.parametrize("numerator", [(1, 3, 7), (1, 3)], ids=["above", "below"])
def test_wrong_y_inv_numerator_falls_back(monkeypatch, numerator):
    # a negative control of the symmetric leg cut's certificate: a series
    # that is not Y_inv's fails the check, and the fallback gives the same
    # ideal
    expected = create_infinity_pod(3, F101).leg_ideal_sym.generators
    monkeypatch.setattr(constructions, "Y_INV_NUMERATOR", numerator)
    calls = _certified_cut_calls(monkeypatch)
    assert create_infinity_pod(3, F101).leg_ideal_sym.generators == expected
    assert [result for _, _, result in calls] == [None]


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
    # I = K (h, l) for three dense quadrics K and a dense linear form l, so
    # I : h^infinity = K: h K lies in I, I lies in K, and h is a
    # nonzerodivisor modulo K.  The degrees of both runs of `saturate` go
    # through the matrix kernel, and the result is K's own basis and the
    # two-run route on the heap loop alone (with a heap-only
    # `_Reducers.reduce`, no batch reaches the kernel)
    rng = random.Random(seed)
    ring = RingContext(("x0", "x1", "x2", "x3", "h"), (1,) * 5, DEGREVLEX, F101)

    def form(d):
        exps = [e for e in itertools.product(range(d + 1), repeat=5) if sum(e) == d]
        return ring.from_terms([(e, rng.randrange(1, 101)) for e in exps if rng.random() < 0.9])

    K = [form(2) for _ in range(3)]
    ell = form(1)
    ideal = Ideal(ring, [q * ring.gen("h") for q in K] + [q * ell for q in K])
    batches = []
    reduce_rows = groebner._reduce_rows

    def recording(rows, *args, normal_forms=False):
        batches.append(normal_forms)
        return reduce_rows(rows, *args, normal_forms=normal_forms)

    monkeypatch.setattr(groebner, "_reduce_rows", recording)
    saturated = groebner.saturate(ideal, "h").generators
    assert batches.count(False) > 1
    assert saturated == groebner.buchberger(K)

    def heap_only(reducers, rows, normal_forms=False):
        return (groebner._reduce(row, reducers) for row in rows())

    monkeypatch.setattr(groebner._Reducers, "reduce", heap_only)
    batches.clear()
    assert saturated == _saturate_two_runs(Ideal(ring, ideal.generators), "h")
    assert not batches


def _leg_forms(legs):
    """The five sphere-condition forms of a pentapod, in X's ring."""
    field = legs[0].field
    points = tuple(leg_to_point(leg).coords() for leg in legs)
    forms = dual_space(LinearSubspace(Y_NAMES, "points", points, field), bsc17(), "right")
    return forms.linear_forms(ring_X(field))


def _saturated_cut_of_the_equations(legs):
    """The two-run saturation at h of the cut of X's 21 equations alone (no
    closure quadrics) by the legs: J : h^infinity by a route apart from
    `pentapod_config_ideal`'s."""
    ring = ring_X(legs[0].field)
    return _saturate_two_runs(Ideal(ring, x_equations(ring) + _leg_forms(legs)), "h")


@pytest.mark.parametrize(
    "which", ["random-1", "random-2", "random-3", "random-4", "home-pose", "fp:32003-random-5"])
def test_pentapod_config_ideal_matches_the_two_run_saturation(monkeypatch, which):
    # the saturation of X's prime ideal cut by the legs, against the route
    # that finishes the basis of the cut of X's 21 equations alone; each
    # pentapod's one run certifies its basis, so `saturate` is not called
    if which == "home-pose":
        legs = _home_pose_pentapod()
    else:
        field = GF(32003) if which.startswith("fp:32003") else F101
        rng = random.Random(int(which.split("-")[-1]))
        legs = [_rand_planar_leg(rng, field) for _ in range(5)]
    fallbacks = _saturate_calls(monkeypatch)
    J = pentapod_config_ideal(legs)
    assert not fallbacks
    assert J.generators == _saturated_cut_of_the_equations(legs)


def test_pentapod_with_r_in_its_leads_falls_back(monkeypatch):
    # the lead numerator alone does not certify a basis: on sample-fp seed
    # 22's second input the run reaches the series with r in 9 leads, and
    # the check on r sends it to `saturate`
    legs = _planar_pentapod([
        ((84, 23), (39, 72), 97), ((47, 50), (74, 3), 80), ((38, 73), (76, 71), 84),
        ((69, 67), (55, 96), 16), ((86, 67), (54, 11), 18),
    ])
    ring = ring_X(F101)
    series = groebner.ring_numerator(ring, models.X_NUMERATOR, 1)
    run = groebner.buchberger(ideal_X(F101) + _leg_forms(legs), hilbert=series)
    assert run.numerator == series
    assert sum(1 for g in run if ring.unpack(g.lead_monomial())[-2]) == 9
    fallbacks = _saturate_calls(monkeypatch)
    J = pentapod_config_ideal(legs)
    assert fallbacks == ["h"]
    assert J.generators == _saturated_cut_of_the_equations(legs)


@pytest.mark.parametrize("numerator", [(1, 10, 18, 11, 1), (1, 10, 18, 10)], ids=["above", "below"])
def test_wrong_x_numerator_falls_back(monkeypatch, numerator):
    # a negative control of the certificate: a series that is not X's fails
    # the check, and the fallback gives the same ideal.  The home pose's run
    # reaches the larger one with a lead in r or h, so the check on the
    # leads' variables is what rejects it; the leads cannot reach the
    # smaller one
    legs = _home_pose_pentapod()
    expected = pentapod_config_ideal(legs).generators
    monkeypatch.setattr(constructions, "X_NUMERATOR", numerator)
    fallbacks = _saturate_calls(monkeypatch)
    assert pentapod_config_ideal(legs).generators == expected
    assert fallbacks == ["h"]


def _special_pentapod(which, rng):
    """A planar pentapod over GF(101) with a congruent platform (a_i = b_i)
    or a collinear base."""
    def coord():
        return F101.of(rng.randint(-40, 40))

    legs = []
    for _ in range(5):
        if which == "congruent":
            a = b = (coord(), coord(), F101.zero)
        else:
            a, b = (coord(), F101.zero, F101.zero), (coord(), coord(), F101.zero)
        legs.append(Leg(a, b, F101.of(rng.randint(1, 30)), F101))
    return legs


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "which, cut, degree",
    [("congruent", (1, 40), 32), ("collinear", (2, 4), 16)],
    ids=["congruent", "collinear"],
)
def test_special_pentapods_need_the_saturation(monkeypatch, which, cut, degree, seed):
    # a congruent platform cuts X in a curve of degree 40, as a generic
    # pentapod does, and a collinear base in a surface; both carry
    # components inside h = 0, and saturated each leaves a curve of lower
    # degree.  J = I : h^infinity is certified apart from `saturate`: no
    # lead of J is divisible by h (so h is a nonzerodivisor modulo J, by
    # Bayer's lemma), I lies in J, and h^k g lies in I for each g in J, so
    # J lies in I : h^infinity, which lies in J : h^infinity = J.  The one
    # run on I cannot certify its basis, so `saturate` finds J
    legs = _special_pentapod(which, random.Random(seed))
    fallbacks = _saturate_calls(monkeypatch)
    J = pentapod_config_ideal(legs)
    assert fallbacks == ["h"]
    I = ideal_X(F101) + _leg_forms(legs)
    hd_cut, hd = hilbert_data(I), hilbert_data(J)
    assert ((hd_cut.dimension, hd_cut.degree), hd.dimension, hd.degree) == (cut, 1, degree)
    ring = J.ring
    assert not any(ring.unpack(g.lead_monomial())[-1] for g in J.generators)
    assert not any(groebner.reducer(J.generators)(list(I.generators)))
    in_cut = groebner.reducer(I.groebner_basis())
    h = ring.gen("h")
    for g in J.generators:
        assert any(nf.is_zero() for nf in in_cut([g * h ** k for k in range(4)]))


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
            cfgs = solve_zero_dimensional(cfg_ideal)[:4]
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
