"""Groebner engine: reduced bases, normal forms, elimination, Hilbert data."""

import random
from fractions import Fraction

import pytest

from podforge.fields import GF, QQ
from podforge import unipoly
from podforge.groebner import (
    BudgetExceeded,
    Ideal,
    _Reducers,
    _lead_numerator,
    _reduce_rows,
    buchberger,
    certified_cut,
    cut_regular_sequence,
    eliminate,
    hilbert_data,
    normal_form,
    reduce_by_basis,
    ring_numerator,
    saturate,
    standard_monomials,
    ideal_to_json,
)
from podforge.linalg import matrix_kernel, row_space_basis
from podforge.rings import DEGREVLEX, Polynomial, RingContext, RingMap, elim_order
from podforge.models import (
    EULER_NAMES,
    SEGRE_NUMERATOR,
    X_NAMES,
    Y_INV_NUMERATOR,
    euler_rho,
    ideal_X_inv,
    ideal_Y,
    ideal_Y_inv,
    ring_euler,
    ring_X,
)
from podforge.constructions import (
    CertificationError,
    create_infinity_pod,
    draw_seed,
    lift_kernel,
    rho_preimage,
    rho_quadric_matrix,
)
from polytext import ideal_from_json, parse


def s_polynomial(f, g):
    """The S-polynomial of two nonzero polynomials in the same ring: the
    oracle for the engine's S-pair criterion."""
    ring = f.ring
    fld = ring.field
    lf, lg = f.lead_monomial(), g.lead_monomial()
    lcm = ring.pack(map(max, ring.unpack(lf), ring.unpack(lg)))
    return f.mul_term(lcm - lf, fld.inv(f.lead_coeff())) - g.mul_term(
        lcm - lg, fld.inv(g.lead_coeff())
    )


def linear_forms_of_basis(ideal):
    """The degree-1 elements of the reduced basis: a basis of the ideal's
    degree-1 piece."""
    return [g for g in ideal.groebner_basis() if g.homogeneous_degree() == 1]


@pytest.fixture
def ring_xyz():
    return RingContext(("x", "y", "z"), (1, 1, 1), DEGREVLEX, QQ)


def test_principal_ideal_single_variable():
    ring = RingContext(("x",), (1,), DEGREVLEX, QQ)
    x = ring.gen("x")
    assert buchberger(Ideal(ring, [x])) == (x,)


def test_twisted_cubic_slice_hand_verified(ring_xyz):
    # S-pairs reduce by hand: S(f,g) = -(y^2 z - x z^2), S(f,h) coprime,
    # S(g,h) -> 0 after reduction by f and g; tails already reduced
    x, y, z = ring_xyz.gens()
    I = Ideal(ring_xyz, [x * x - y * z, x * y - z * z])
    gb = I.groebner_basis()
    expected = {x * y - z * z, x * x - y * z, y * y * z - x * z * z}
    assert set(gb) == expected


def test_segre_minors_are_a_groebner_basis():
    I = ideal_Y(QQ)
    gb = I.groebner_basis()
    assert set(gb) == {g.monic() for g in I.generators}
    # every S-polynomial reduces to zero against the basis
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert reduce_by_basis(s_polynomial(gb[i], gb[j]), list(gb)).is_zero()


@pytest.mark.parametrize("field", [GF(101), GF(32003), QQ], ids=["fp101", "fp32003", "q"])
def test_segre_series_gives_the_unbounded_basis_of_y(field):
    # ideal_Y's run is driven by the Segre series, a lower bound over any
    # field (see its docstring): the run reaches it in degree 2 and reduces
    # no S-pair, and its basis is the one of a run with no series
    Y = ideal_Y(field)
    bounded = buchberger(Y.generators, hilbert=Y._bound, max_steps=0)
    assert bounded == buchberger(Y.generators)
    assert _lead_numerator(Y.ring, [g.lead_monomial() for g in bounded]) == unipoly.trim(Y._bound)


def test_spolys_reduce_to_zero_sampled():
    I = ideal_X_inv(GF(101))
    gb = list(I.groebner_basis())
    rng = random.Random(4)
    for _ in range(40):
        i, j = rng.randrange(len(gb)), rng.randrange(len(gb))
        if i == j:
            continue
        assert reduce_by_basis(s_polynomial(gb[i], gb[j]), gb).is_zero()


def test_buchberger_rejects_inhomogeneous(ring_xyz):
    x, y, _ = ring_xyz.gens()
    with pytest.raises(ValueError):
        buchberger([x * x + y])


def test_budget_abort():
    I = ideal_X_inv(GF(101))
    with pytest.raises(BudgetExceeded):
        buchberger(I.generators, max_steps=3)


def test_normal_form_of_generator_is_zero(ring_xyz):
    x, y, z = ring_xyz.gens()
    I = Ideal(ring_xyz, [x * x - y * z, x * y - z * z])
    assert normal_form(x * x - y * z, I).is_zero()


def test_normal_form_of_one_in_proper_ideal(ring_xyz):
    x, y, z = ring_xyz.gens()
    I = Ideal(ring_xyz, [x * x - y * z])
    one = ring_xyz.one()
    assert normal_form(one, I) == one


def test_syzygy_normal_form_vanishes():
    # e1 P1 + e2 P2 + e3 P3 is identically zero for every admissible seed
    for s in (1, 2, 5):
        seed = draw_seed(s, QQ)
        ring = seed.F.ring
        e1, e2, e3 = ring.gens()
        combo = e1 * seed.P[0] + e2 * seed.P[1] + e3 * seed.P[2]
        assert combo.is_zero()
        assert normal_form(combo + seed.F, Ideal(ring, [seed.F])).is_zero()


def test_rho_respects_r_relation_mod_F():
    # rh - <x,x> maps to -F/4, hence to zero modulo (F)
    for s in (1, 6):
        seed = draw_seed(s, QQ)
        field = seed.field
        rho = seed.lift()
        rx = ring_X(QQ)
        gv = {n: rx.gen(n) for n in rx.names}
        rel = gv["r"] * gv["h"] - sum((gv[f"x{i}"] * gv[f"x{i}"] for i in (1, 2, 3)), rx.zero())
        image = rho(rel)
        assert image == seed.F.scale(Fraction(-1, 4))
        assert normal_form(image, Ideal(seed.F.ring, [seed.F])).is_zero()


# -- elimination ---------------------------------------------------------------


def test_eliminate_no_relation(ring_xyz):
    x, y, _ = ring_xyz.gens()
    out = eliminate(Ideal(ring_xyz, [x - y]), ["x"])
    assert out.generators == ()


def test_eliminate_veronese_graph_gives_catalecticant_minors():
    # implicitize the quadratic embedding of P^3: the image ideal is the
    # 2x2 minors of the symmetric catalecticant matrix (classical oracle)
    field = GF(101)
    enames = ("e0", "e1", "e2", "e3")
    znames = tuple(f"v{i}" for i in range(10))
    ring = RingContext(enames + znames, (1,) * 4 + (2,) * 10, DEGREVLEX, field)
    e = [ring.gen(n) for n in enames]
    mons = [e[0] * e[0], e[1] * e[1], e[2] * e[2], e[3] * e[3],
            e[0] * e[1], e[0] * e[2], e[0] * e[3],
            e[1] * e[2], e[1] * e[3], e[2] * e[3]]
    gens = [ring.gen(f"v{i}") - mons[i] for i in range(10)]
    out = eliminate(Ideal(ring, gens), list(enames))

    # catalecticant: rows/cols indexed by e0..e3, entry (i,j) = v(e_i e_j)
    zring = out.ring
    idx = {(0, 0): 0, (1, 1): 1, (2, 2): 2, (3, 3): 3, (0, 1): 4, (0, 2): 5,
           (0, 3): 6, (1, 2): 7, (1, 3): 8, (2, 3): 9}

    def entry(i, j):
        return zring.gen(f"v{idx[(min(i, j), max(i, j))]}")

    minors = []
    import itertools

    for r1, r2 in itertools.combinations(range(4), 2):
        for c1, c2 in itertools.combinations(range(4), 2):
            minors.append(entry(r1, c1) * entry(r2, c2) - entry(r1, c2) * entry(r2, c1))
    oracle = Ideal(zring, minors)
    gb_out = set(out.groebner_basis())
    gb_oracle = set(buchberger(oracle.generators))
    assert gb_out == gb_oracle


def seed_lift(s, field):
    """The lift map and quartic F of `create_infinity_pod`'s seed s."""
    seed = draw_seed(s, field)
    return seed.lift(), seed.F


def preimage_by_elimination(rho, F):
    """Oracle for rho_preimage: rho^-1((F)) by eliminating the Euler variables
    from the graph ideal (x_i - rho_i(e), F).  The graph ring gives the 17
    isometry coordinates weight two so everything stays homogeneous."""
    field = F.ring.field
    graph_ring = RingContext(EULER_NAMES + X_NAMES, (1, 1, 1) + (2,) * 17, DEGREVLEX, field)
    emb = RingMap(ring_euler(field), graph_ring, [graph_ring.gen(n) for n in EULER_NAMES])
    gens = [graph_ring.gen(n) - emb(rho.images[i]) for i, n in enumerate(X_NAMES)]
    gens.append(emb(F))
    out = eliminate(Ideal(graph_ring, gens), EULER_NAMES)
    rx = ring_X(field)
    return Ideal(rx, [rx.coerce(g) for g in out.generators])


def _linear_span(ideal, field):
    n = ideal.ring.n
    units = [[int(k == i) for k in range(n)] for i in range(n)]
    return row_space_basis([[g.coefficient(u) for u in units] for g in linear_forms_of_basis(ideal)], field)


@pytest.mark.parametrize(
    "field, s",
    [(GF(101), 1), (GF(101), 8), (GF(101), 15), (GF(101), 22), (QQ, 2)],
    ids=["fp101-1", "fp101-8", "fp101-15", "fp101-22", "q-2"],
)
def test_rho_preimage_matches_graph_elimination(field, s):
    # degrees 1 and 2 plus the series certificate give the reduced basis of
    # the elimination, element for element
    rho, F = seed_lift(s, field)
    pre = rho_preimage(rho, F, lift_kernel(rho))
    assert [str(g) for g in pre.generators] == [
        str(g) for g in preimage_by_elimination(rho, F).groebner_basis()
    ]
    assert hilbert_data(pre).triple() == (1, 8, 3)


def test_rho_preimage_missed_series_raises(monkeypatch):
    from podforge import constructions

    field = GF(101)
    rho, F = seed_lift(1, field)
    # F = 0: the r relations map to -F/4 of the true quartic, outside (0)
    with pytest.raises(CertificationError, match="misses X"):
        rho_preimage(rho, F - F, lift_kernel(rho))
    # the zero map: every coordinate lies in the preimage, below the series
    zero = RingMap(rho.source, rho.target, [rho.target.zero()] * rho.source.n)
    with pytest.raises(CertificationError, match="below its Hilbert series"):
        rho_preimage(zero, F, lift_kernel(zero))
    # a strict lower bound: the run completes and the post-check sees (1, 4, 3)
    monkeypatch.setattr(constructions, "PREIMAGE_NUMERATOR", (1, 4, 2))
    with pytest.raises(CertificationError, match=r"Hilbert numerator \[1, 4, 3\]"):
        rho_preimage(rho, F, lift_kernel(rho))


def test_rho_preimage_rejects_a_lift_off_X():
    # a wrong r-slot keeps the lift's rank but sends the r relations outside
    # (F), so X does not lie in the preimage
    field = GF(101)
    seed = draw_seed(1, field)
    e1 = seed.F.ring.gen("e1")
    wrong = euler_rho(*seed.P, seed.U.scale(field.inv(field.of(4))) + e1 * e1)
    with pytest.raises(CertificationError, match="misses X"):
        rho_preimage(wrong, seed.F, lift_kernel(wrong))


def test_preimage_linear_part_matches_kernel_route():
    # the elimination and rho_preimage agree in degree 1, an 11-dimensional space
    field = GF(101)
    rho, F = seed_lift(4, field)
    span = _linear_span(preimage_by_elimination(rho, F), field)
    assert len(span) == 11
    assert span == _linear_span(rho_preimage(rho, F, lift_kernel(rho)), field)


def test_eliminate_agrees_with_kernel_on_linear_part():
    field = GF(101)
    rho, F = seed_lift(8, field)
    route_b = row_space_basis(matrix_kernel(rho_quadric_matrix(rho), field), field)
    assert _linear_span(preimage_by_elimination(rho, F), field) == route_b


# -- Cohen-Macaulay cuts ----------------------------------------------------------


def _random_linear_forms(ring, count, rng):
    p = ring.field.p
    unit = [tuple(int(k == i) for k in range(ring.n)) for i in range(ring.n)]
    return [ring.from_terms((e, rng.randrange(p)) for e in unit) for _ in range(count)]


@pytest.mark.parametrize("p", [101, 32003])
@pytest.mark.parametrize(
    "model, numerator", [(ideal_Y, SEGRE_NUMERATOR), (ideal_Y_inv, Y_INV_NUMERATOR)],
    ids=["Y", "Yinv"])
def test_leg_cones_cohen_macaulay_certificate(model, numerator, p):
    # dim + 1 random linear forms, a system of parameters, are a regular
    # sequence exactly when R/I is Cohen-Macaulay: the cut with no series then
    # keeps the h-vector, (1 - t)^8 HS(R/I)
    ideal = model(GF(p))
    hd = hilbert_data(ideal)
    assert (hd.dimension, hd.numerator) == (7, numerator)
    forms = _random_linear_forms(ideal.ring, 8, random.Random(p))
    plain = Ideal(ideal.ring, ideal.generators + tuple(forms))
    cut = hilbert_data(plain)
    assert (cut.dimension, cut.numerator) == (-1, hd.numerator)
    # so the certified cut (an Artinian one: no variable is checked) keeps
    # the run its leads certify, and the regular-sequence series is the
    # cut's and drives its run
    series = ring_numerator(ideal.ring, numerator, -1)
    assert certified_cut(ideal + forms, series).generators == plain.groebner_basis()
    regular = cut_regular_sequence(ideal, forms, series)
    assert hilbert_data(regular) == cut
    assert regular.groebner_basis() == plain.groebner_basis()


def test_cohen_macaulay_cut_falls_back_when_series_missed():
    # a repeated form is no system of parameters: the series of a regular
    # cut by two forms is never reached, and `certified_cut` returns None
    # for its caller to run the cut with no series
    field = GF(101)
    ideal = ideal_Y_inv(field)
    f = _random_linear_forms(ideal.ring, 1, random.Random(5))[0]
    assert certified_cut(ideal + [f, f], ring_numerator(ideal.ring, Y_INV_NUMERATOR, 5)) is None
    # x (x, y, z, w) is not Cohen-Macaulay (x is a socle element): its series
    # times (1 - t)^2 passes the cut by y, z in degree 3, and the engine raises
    ring = RingContext(("x", "y", "z", "w"), (1,) * 4, DEGREVLEX, field)
    x, y, z, w = ring.gens()
    ideal = Ideal(ring, [x * x, x * y, x * z, x * w])
    series = _lead_numerator(ring, [g.lead_monomial() for g in ideal.groebner_basis()])
    for _ in range(2):
        series = unipoly.mul(series, [1, -1])
    with pytest.raises(ValueError, match="Hilbert series is wrong"):
        buchberger(ideal.generators + (y, z), hilbert=series)
    assert certified_cut(ideal + [y, z], series) is None


# -- Hilbert data ---------------------------------------------------------------


def test_hilbert_line_in_p3():
    ring = RingContext(("x0", "x1", "x2", "x3"), (1,) * 4, DEGREVLEX, QQ)
    g = ring.gens()
    I = Ideal(ring, [g[0] + g[1] - g[2], g[1] + Fraction(2) * g[3]])
    assert hilbert_data(I).triple() == (1, 1, 0)


def test_hilbert_empty_ideal_is_whole_space():
    ring = RingContext(tuple(f"x{i}" for i in range(5)), (1,) * 5, DEGREVLEX, QQ)
    hd = hilbert_data(Ideal(ring, []))
    assert (hd.dimension, hd.degree) == (4, 1)


def test_hilbert_generic_linear_section():
    # adding one generic linear form drops dimension by one, keeps degree
    rng = random.Random(19)
    I = ideal_Y(GF(101))
    hd0 = hilbert_data(I)
    ring = I.ring
    form = sum((g.scale(rng.randint(1, 100)) for g in ring.gens()), ring.zero())
    hd1 = hilbert_data(I + [form])
    assert hd1.dimension == hd0.dimension - 1
    assert hd1.degree == hd0.degree


def test_hilbert_rejects_weighted_ring():
    ring = RingContext(("e", "p"), (1, 2), DEGREVLEX, QQ)
    e, p = ring.gens()
    with pytest.raises(ValueError):
        hilbert_data(Ideal(ring, [e * e + p]))


def _assert_curve_hilbert_function(ideal, triple):
    """Oracle for a curve's Hilbert data: past the numerator's degree its
    Hilbert function is the Hilbert polynomial deg * t + 1 - g, counted here
    as the degree-t standard monomials."""
    hd = hilbert_data(ideal)
    assert hd.triple() == triple
    _, deg, genus = triple
    for t in range(len(hd.numerator), len(hd.numerator) + 3):
        assert len(standard_monomials(ideal, t)) == deg * t + 1 - genus


def test_hilbert_curve_polynomial_shape():
    # twisted cubic in P^3: degree 3, genus 0
    ring = RingContext(("x", "y", "z", "w"), (1,) * 4, DEGREVLEX, GF(101))
    x, y, z, w = ring.gens()
    _assert_curve_hilbert_function(Ideal(ring, [x * z - y * y, y * w - z * z, x * w - y * z]), (1, 3, 0))


def test_linear_part_of_involution_model():
    I = ideal_X_inv(GF(101))
    lins = linear_forms_of_basis(I)
    assert len(lins) == 7
    ring = I.ring
    gv = {n: ring.gen(n) for n in ring.names}
    trace = gv["m11"] + gv["m22"] + gv["m33"] + gv["h"]
    span = {str(f) for f in lins}
    # the seven spec forms reduce to zero against the linear part
    expected = [
        gv["m12"] - gv["m21"], gv["m13"] - gv["m31"], gv["m23"] - gv["m32"],
        gv["x1"] - gv["y1"], gv["x2"] - gv["y2"], gv["x3"] - gv["y3"], trace,
    ]
    for f in expected:
        assert reduce_by_basis(f, lins).is_zero()


def test_ideal_json_roundtrip():
    I = ideal_Y(GF(101))
    J = ideal_from_json(ideal_to_json(I))
    assert J.ring == I.ring
    assert J.generators == I.generators


def test_reduced_gb_is_reproducible():
    I1 = ideal_X_inv(GF(101))
    gb1 = buchberger(I1.generators)
    gb2 = buchberger(list(reversed(I1.generators)))
    assert gb1 == gb2


def test_hilbert_unit_like_ideal_is_empty_scheme():
    ring = RingContext(("x", "y", "z"), (1, 1, 1), DEGREVLEX, QQ)
    x, y, z = ring.gens()
    hd = hilbert_data(Ideal(ring, [x, y, z]))
    assert hd.dimension == -1


def test_hilbert_polynomial_identities():
    # a plane quartic has arithmetic genus 3, an infinity pod's symmetric leg
    # curve genus 6
    ring = RingContext(("x", "y", "z"), (1,) * 3, DEGREVLEX, QQ)
    x, y, z = ring.gens()
    _assert_curve_hilbert_function(Ideal(ring, [x ** 4 + y ** 4 + z ** 4 + x * y * z * z]), (1, 4, 3))
    legs = create_infinity_pod(1, GF(101)).leg_ideal_sym
    _assert_curve_hilbert_function(legs, (1, 10, 6))


def test_buchberger_explicit_elimination_order():
    # a GB in an explicit two-block order supports elimination by inspection
    ring = RingContext(("t", "x", "y"), (1, 1, 1), DEGREVLEX, QQ)
    t, x, y = ring.gens()
    I = Ideal(ring, [x - t, y * t - x * x])
    elim_ring = RingContext(ring.names, ring.weights, elim_order(1), QQ)
    gb = buchberger(Ideal(elim_ring, I.generators))
    t_free = [g for g in gb if all(elim_ring.unpack(m)[0] == 0 for m in g.terms)]
    out = eliminate(I, ["t"])
    assert {str(g) for g in t_free} == {str(g) for g in out.generators}


# -- Hilbert-driven runs and the exponent cap -----------------------------------


def test_known_hilbert_series_gives_the_same_basis():
    ring = RingContext(("x", "y", "z"), (1, 1, 1), DEGREVLEX, GF(101))
    x, y, z = ring.gens()
    I = Ideal(ring, [x * x - y * z, x * y - z * z])
    # two quadrics meeting properly: numerator (1 - t^2)^2
    assert buchberger(I, hilbert=[1, 0, -2, 0, 1]) == buchberger(I)


@pytest.mark.parametrize(
    "wrong",
    [
        [1, 0, -1],  # one quadric: the second generator passes it in degree 2
        [1],  # the zero ideal: the generators stay outside the basis
        [1, 0, -2, 0, 2],  # one past the true series in degree 4 and above
    ],
)
def test_wrong_hilbert_numerator_raises(wrong):
    # a bound whose Hilbert function exceeds the ideal's somewhere is wrong
    ring = RingContext(("x", "y", "z"), (1, 1, 1), DEGREVLEX, GF(101))
    x, y, z = ring.gens()
    I = Ideal(ring, [x * x - y * z, x * y - z * z])
    with pytest.raises(ValueError, match="Hilbert series is wrong"):
        buchberger(I, hilbert=wrong)


@pytest.mark.parametrize(
    "bound",
    [
        [0],  # the unit ideal: the pairs run out first
        [1, -1, -2, 2, 1, -1],  # (1 - t) times the true series: a slice bound
    ],
)
def test_too_small_hilbert_numerator_gives_the_basis(bound):
    # a lower bound on the series only costs reductions
    ring = RingContext(("x", "y", "z"), (1, 1, 1), DEGREVLEX, GF(101))
    x, y, z = ring.gens()
    I = Ideal(ring, [x * x - y * z, x * y - z * z])
    assert buchberger(I, hilbert=bound) == buchberger(I)


def test_eliminate_with_too_small_hilbert_data_gives_the_elimination():
    ring = RingContext(("t", "x", "y"), (1, 1, 1), DEGREVLEX, GF(101))
    t, x, y = ring.gens()
    gens = [x - t, y * t - x * x]
    I = Ideal(ring, gens)
    # the Hilbert data of a point is below that of these two points
    I._hilbert = hilbert_data(Ideal(ring, [x, y]))
    out = eliminate(I, ["t"])
    assert out.groebner_basis() == eliminate(Ideal(ring, gens), ["t"]).groebner_basis()


def test_eliminate_with_wrong_hilbert_data_raises():
    ring = RingContext(("t", "x", "y"), (1, 1, 1), DEGREVLEX, GF(101))
    t, x, y = ring.gens()
    I = Ideal(ring, [x - t, y * t - x * x])
    # the Hilbert data of the whole plane is above that of this ideal
    I._hilbert = hilbert_data(Ideal(ring, []))
    with pytest.raises(ValueError, match="Hilbert series is wrong"):
        eliminate(I, ["t"])


def test_sum_with_one_form_keeps_a_series_bound():
    ring = RingContext(("x", "y", "z"), (1, 1, 1), DEGREVLEX, GF(101))
    x, y, z = ring.gens()
    I = Ideal(ring, [x * x - y * z, x * y - z * z])
    assert (I + [z])._bound is None  # no series known yet
    hilbert_data(I)
    assert (I + [z])._bound == [1, -1, -2, 2, 1, -1]  # (1 - t) (1 - t^2)^2
    assert (I + [y * z])._bound == [1, 0, -3, 0, 3, 0, -1]  # (1 - t^2)^3
    assert (I + [z, y])._bound is None
    sliced = I + Ideal(ring, [x + z])
    assert sliced.groebner_basis() == buchberger(sliced.generators)


def test_saturate_divides_out_the_last_variable():
    ring = RingContext(("x", "y", "h"), (1, 1, 1), DEGREVLEX, GF(101))
    x, y, h = ring.gens()
    # the conic x^2 - y h plus the point (0:1:0) counted in h = 0
    I = Ideal(ring, [h * (x * x - y * h), x * (x * x - y * h)])
    J = saturate(I, "h")
    assert J.generators == J.groebner_basis() == buchberger([x * x - y * h])
    assert saturate(Ideal(ring, []), "h").generators == ()


@pytest.mark.parametrize("var", ["x", "y"])
def test_saturate_needs_the_last_degrevlex_variable(var):
    ring = RingContext(("x", "y", "h"), (1, 1, 1), DEGREVLEX, GF(101))
    x, y, h = ring.gens()
    with pytest.raises(ValueError, match="last variable"):
        saturate(Ideal(ring, [x * h, y * h]), var)
    elim_ring = RingContext(("x", "y", "h"), (1, 1, 1), elim_order(1), GF(101))
    with pytest.raises(ValueError, match="last variable"):
        saturate(Ideal(elim_ring, []), "h")


def test_buchberger_exponent_cap_raises():
    # S(xy, x^127 - y^127) = y^128: one past the packed exponent cap
    ring = RingContext(("x", "y"), (1, 1), DEGREVLEX, GF(101))
    x, y = ring.gens()
    with pytest.raises(OverflowError):
        buchberger(Ideal(ring, [x * y, parse(ring, "x^127 - y^127")]))


def test_reduce_by_basis_exponent_cap_raises():
    ring = RingContext(("x", "y"), (1, 1), DEGREVLEX, GF(101))
    x, y = ring.gens()
    with pytest.raises(OverflowError):
        reduce_by_basis(parse(ring, "x*y^127"), [x - y])


def _reduce_rows_against(basis, rows):
    """`_reduce_rows` on term dicts against the reducer set of a basis, as
    Polynomials."""
    ring = basis[0].ring
    out = _reduce_rows(rows, set().union(*rows), _Reducers(ring, basis))
    return [Polynomial(ring, t) for t in out]


def test_matrix_kernel_reduces_later_rows_by_earlier_results():
    # x^2 reduces by the basis element x^2 - y*z.  r1 becomes the pivot of its
    # lead x*y; r2 shares that lead and reduces by r1's result to
    # y^2 - 6*y*z - 3*z^2; r1 + r2 then reduces to zero by the two results
    ring = RingContext(("x", "y", "z"), (1, 1, 1), DEGREVLEX, GF(101))
    r1, r2 = parse(ring, "x*y + 2*x^2 + z^2"), parse(ring, "3*x*y + y^2")
    rows = [dict(r.terms) for r in (r1, r2, r1 + r2)]
    assert _reduce_rows_against([parse(ring, "x^2 - y*z")], rows) == [
        parse(ring, "x*y + 2*y*z + z^2"), parse(ring, "y^2 - 6*y*z - 3*z^2"),
    ]


def test_matrix_kernel_exponent_cap_raises():
    ring = RingContext(("x", "y", "z"), (1, 1, 1), DEGREVLEX, GF(101))
    basis = [parse(ring, "y^2 - x*z")]
    # a row monomial one past the packed cap: x^128
    with pytest.raises(OverflowError):
        _reduce_rows_against(basis, [{128 * ring.units[0]: 1}])
    # x^127*y^2 is in range, but its reducer row x^127 * (y^2 - x*z) has x^128*z
    with pytest.raises(OverflowError):
        _reduce_rows_against(basis, [dict(parse(ring, "x^127*y^2").terms)])
