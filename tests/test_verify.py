"""Exact sampling, univariate roots, Sturm isolation, and pod reports."""

import itertools
import random
from fractions import Fraction

import pytest

from podforge.fields import GF, QQ
from podforge.groebner import Ideal, hilbert_data
from podforge.models import IsometryPoint, Leg
from podforge.duality import leg_to_point
from podforge.rings import DEGREVLEX, RingContext
from podforge.constructions import create_infinity_pod
from podforge.verify import (
    SamplingError,
    cauchy_bound,
    check_pod,
    isolate_real_roots,
    multiplication_data,
    polish_float_root,
    real_configurations,
    refine_root,
    curve_points,
    roots_mod_p,
    solve_zero_dimensional,
    sturm_count,
    sturm_sequence,
)

F101 = GF(101)


def sample_curve_points(ideal, count, rng=None):
    """The first `count` points of `curve_points`."""
    return list(itertools.islice(curve_points(ideal, rng), count))


# -- roots over GF(p) ------------------------------------------------------------


def test_roots_mod_small_p():
    # x^2 - 1 over GF(5): roots 1 and 4
    assert roots_mod_p([-1, 0, 1], 5) == [1, 4]


def test_roots_mod_p_no_roots():
    # x^2 + 1 over GF(7): -1 is not a square
    assert roots_mod_p([1, 0, 1], 7) == []


def test_roots_mod_p_with_zero_root():
    assert roots_mod_p([0, 1, 1], 5) == [0, 4]


def test_roots_mod_large_p_cantor_zassenhaus():
    p = 1000003
    rng = random.Random(3)
    roots = sorted(rng.sample(range(1, p), 4))
    # build prod (x - r) * (an irreducible-ish extra factor x^2 + x + 7)
    coeffs = [7, 1, 1]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = (nxt[i + 1] + c) % p
            nxt[i] = (nxt[i] - r * c) % p
        coeffs = nxt
    found = roots_mod_p(coeffs, p)
    assert set(roots) <= set(found)
    # every reported value is a genuine root
    for x in found:
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        assert acc == 0


# -- zero-dimensional solving ------------------------------------------------------


def test_solve_zero_dim_line_slice():
    # the line x2 = x3 = 0 in P^3 sliced by a hyperplane is one point
    ring = RingContext(("x0", "x1", "x2", "x3"), (1,) * 4, DEGREVLEX, F101)
    g = ring.gens()
    I = Ideal(ring, [g[2], g[3], g[0] + g[1].scale(5)])
    pts = solve_zero_dimensional(I)
    assert len(pts) == 1
    assert pts[0][2] == 0 and pts[0][3] == 0
    assert I.contains_point(pts[0])


def test_solve_zero_dim_degree_two():
    # conic x0 x1 - x2^2 meets a random line in two exact points
    ring = RingContext(("x0", "x1", "x2"), (1, 1, 1), DEGREVLEX, F101)
    x0, x1, x2 = ring.gens()
    I = Ideal(ring, [x0 * x1 - x2 * x2, x0 + x1 - x2.scale(3)])
    pts = solve_zero_dimensional(I)
    assert 1 <= len(pts) <= 2
    for pt in pts:
        assert I.contains_point(pt)


class ScriptedRng(random.Random):
    """A Random whose first randint draws are given, then seeded draws."""

    def __init__(self, draws, seed=7):
        super().__init__(seed)
        self.draws = list(draws)

    def randint(self, a, b):
        return self.draws.pop(0) if self.draws else super().randint(a, b)


def test_solve_zero_dim_splits_shared_eigenvalue():
    # the points (1:2:0) and (1:3:0); the first forms drawn, x0 and 5*x0,
    # take the same ratio 5 at both, so their eigenspace is two-dimensional
    ring = RingContext(("x0", "x1", "x2"), (1, 1, 1), DEGREVLEX, F101)
    x0, x1, x2 = ring.gens()
    I = Ideal(ring, [x2, (x1 - x0.scale(2)) * (x1 - x0.scale(3))])
    pts = solve_zero_dimensional(I, rng=ScriptedRng([1, 0, 0, 5, 0, 0]))
    assert sorted(pts) == [(1, 2, 0), (1, 3, 0)]


def test_solve_zero_dim_never_separated_raises():
    # every draw repeats the colliding forms: no draw splits the eigenspace
    ring = RingContext(("x0", "x1", "x2"), (1, 1, 1), DEGREVLEX, F101)
    x0, x1, x2 = ring.gens()
    I = Ideal(ring, [x2, (x1 - x0.scale(2)) * (x1 - x0.scale(3))])
    with pytest.raises(SamplingError, match="did not separate"):
        solve_zero_dimensional(I, rng=ScriptedRng([1, 0, 0, 5, 0, 0] * 100))


def test_solve_zero_dim_singular_m0_spends_one_draw():
    # the first form drawn, x2, vanishes at both points, so M0 is singular;
    # the next draw from the same budget solves the scheme
    ring = RingContext(("x0", "x1", "x2"), (1, 1, 1), DEGREVLEX, F101)
    x0, x1, x2 = ring.gens()
    I = Ideal(ring, [x2, (x1 - x0.scale(2)) * (x1 - x0.scale(3))])
    pts = solve_zero_dimensional(I, rng=ScriptedRng([0, 0, 1]))
    assert sorted(pts) == [(1, 2, 0), (1, 3, 0)]


def test_solve_zero_dim_always_singular_raises():
    # every form drawn is x2: M0 is singular on every draw of the budget
    ring = RingContext(("x0", "x1", "x2"), (1, 1, 1), DEGREVLEX, F101)
    x0, x1, x2 = ring.gens()
    I = Ideal(ring, [x2, (x1 - x0.scale(2)) * (x1 - x0.scale(3))])
    with pytest.raises(SamplingError, match="singular M0"):
        solve_zero_dimensional(I, rng=ScriptedRng([0, 0, 1] * 100))


def test_sample_curve_points_line():
    # a line in P^3 over GF(5): at most 6 distinct points, all on the line
    f5 = GF(5)
    ring = RingContext(("x0", "x1", "x2", "x3"), (1,) * 4, DEGREVLEX, f5)
    g = ring.gens()
    I = Ideal(ring, [g[2], g[3]])
    pts = sample_curve_points(I, 6, random.Random(1))
    assert 1 <= len(pts) <= 6
    for pt in pts:
        assert pt[2] == 0 and pt[3] == 0


def test_sample_requires_curve():
    ring = RingContext(("x0", "x1", "x2"), (1, 1, 1), DEGREVLEX, F101)
    with pytest.raises(ValueError):
        sample_curve_points(Ideal(ring, []), 3)


def test_sampled_points_satisfy_generators():
    bundle = create_infinity_pod(7, F101)
    pts = sample_curve_points(bundle.leg_ideal_full, 6, random.Random(2))
    assert len(pts) == 6
    for pt in pts:
        assert bundle.leg_ideal_full.contains_point(pt)


def test_slice_of_leg_curve_has_at_most_degree_points():
    # one random hyperplane slice of the degree-10 symmetric leg curve
    bundle = create_infinity_pod(7, F101)
    ring = bundle.leg_ideal_sym.ring
    rng = random.Random(12)
    hyper = sum((g.scale(rng.randint(1, 100)) for g in ring.gens()), ring.zero())
    sliced = bundle.leg_ideal_sym + [hyper]
    hd = hilbert_data(sliced)
    assert hd.dimension == 0
    assert hd.degree == 10  # slice degree equals the curve degree
    pts = solve_zero_dimensional(sliced)
    assert len(pts) <= 10


# -- Sturm ----------------------------------------------------------------------


def test_sturm_sequence_and_count():
    # (x^2 - 2)(x - 3) has roots -sqrt2, sqrt2, 3
    f = [6, -2, -3, 1]
    seq = sturm_sequence(f)
    assert sturm_count(seq, Fraction(-10), Fraction(10)) == 3
    assert sturm_count(seq, Fraction(0), Fraction(2)) == 1
    assert sturm_count(seq, Fraction(2), Fraction(10)) == 1


def test_isolate_real_roots_brackets():
    f = [6, -2, -3, 1]
    intervals = isolate_real_roots(f)
    assert len(intervals) == 3
    seq = sturm_sequence(f)
    for lo, hi in intervals:
        assert sturm_count(seq, lo, hi) == 1

        def ev(x):
            acc = Fraction(0)
            for c in reversed(f):
                acc = acc * x + c
            return acc

        assert ev(lo) != 0 and ev(hi) != 0


def test_isolate_handles_multiple_roots():
    # (x - 1)^2 (x + 2): square-free part has roots 1 and -2
    f = [2, -3, 0, 1]
    assert len(isolate_real_roots(f)) == 2


def test_refine_both_roots_of_repeated_root_polynomial():
    # (x - 1)^2 (x + 2) and (x - 1)^3 (x + 2): a root of even multiplicity is
    # refined on the square-free part, one of odd multiplicity on f itself
    for f in ([2, -3, 0, 1], [-2, 5, -3, -1, 1]):
        refined = [refine_root(f, interval) for interval in isolate_real_roots(f)]
        assert len(refined) == 2
        for (lo, hi), root in zip(refined, (-2, 1)):
            assert lo <= root <= hi and hi - lo <= Fraction(1, 10 ** 12)
    with pytest.raises(ValueError, match="zero polynomial"):
        refine_root([0, 0], (0, 1))


def test_square_free_part_is_exact_for_large_coefficients():
    # (x - a)^2 (x + 1): f / gcd(f, f') must not pass through floats
    a = 10 ** 17 + 3
    f = [a * a, a * a - 2 * a, 1 - 2 * a, 1]
    assert sturm_sequence(f)[0] == [a, a - 1, -1]
    (lo1, hi1), (lo2, hi2) = isolate_real_roots(f)
    assert lo1 < -1 < hi1 and lo2 < a < hi2


def test_refine_and_polish():
    f = [-2, 0, 1]  # x^2 - 2
    (lo, hi) = isolate_real_roots(f)[1]
    lo, hi = refine_root(f, (lo, hi))
    assert hi - lo <= Fraction(1, 10 ** 12)
    x = polish_float_root(f, float((lo + hi) / 2))
    assert abs(x * x - 2) < 1e-12


def test_cauchy_bound_bounds_roots():
    f = [6, -2, -3, 1]
    b = cauchy_bound(f)
    for lo, hi in isolate_real_roots(f):
        assert -b - 1 <= lo and hi <= b + 1


def test_sturm_no_real_roots():
    assert isolate_real_roots([1, 0, 1]) == []


# -- real path ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def bundle_q():
    return create_infinity_pod(2, QQ)


def test_real_configurations_are_half_turns(bundle_q):
    cfgs = real_configurations(bundle_q.seed, 6)
    assert len(cfgs) >= 6
    for cfg in cfgs:
        m = cfg.rotation
        # orthogonality and determinant
        for i in range(3):
            for j in range(3):
                dot = sum(m[i][k] * m[j][k] for k in range(3))
                assert abs(dot - (1.0 if i == j else 0.0)) <= 1e-12
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        assert abs(det - 1.0) <= 1e-12
        assert abs(m[0][0] + m[1][1] + m[2][2] + 1.0) <= 1e-12


def test_real_configuration_is_involution(bundle_q):
    cfg = real_configurations(bundle_q.seed, 1)[0]
    m, y = cfg.rotation, cfg.translation
    pt = (0.3, -1.2, 2.5)
    once = [sum(m[i][j] * pt[j] for j in range(3)) + y[i] for i in range(3)]
    twice = [sum(m[i][j] * once[j] for j in range(3)) + y[i] for i in range(3)]
    assert all(abs(twice[i] - pt[i]) < 1e-9 for i in range(3))


def test_check_pod_exact_on_bundle():
    bundle = create_infinity_pod(7, F101)
    pts = sample_curve_points(bundle.leg_ideal_full, 5, random.Random(3))
    cfgs = [(c.coords, F101) for c in bundle.seed.config_points(5)]
    report = check_pod(cfgs, [(pt, F101) for pt in pts], mode="exact")
    assert report.ok and report.residuals_ok
    assert len(report.residuals) == 25


def test_check_pod_perturbed_leg_fails():
    sigma = IsometryPoint.from_affine([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0])
    good = Leg((Fraction(1), Fraction(0), Fraction(0)),
               (Fraction(1), Fraction(0), Fraction(0)), Fraction(0), QQ)
    bad = Leg(good.a, good.b, good.d2 + 1, QQ)
    legs = [(leg_to_point(leg).coords(), QQ) for leg in (good, bad)]
    report = check_pod([(sigma.coords, QQ)], legs, mode="exact")
    assert not report.ok
    flags = [ok for (_i, _j, _v, ok) in report.residuals]
    assert flags == [True, False]


def test_check_pod_exact_rejects_mixed_fields():
    coords = (QQ.one,) + (QQ.zero,) * 16
    with pytest.raises(ValueError, match="mixed fields"):
        check_pod([(coords, QQ)], [(tuple(F101.of(c) for c in coords), F101)], mode="exact")


def test_check_pod_empty_inputs():
    # a report that checks no (configuration, leg) pair does not pass
    report = check_pod([], [], mode="exact")
    assert not report.ok
    assert report.residuals == [] and report.residuals_ok


def test_check_pod_float_tolerance_scaling():
    # a single float pair within tolerance
    cfg = tuple([1.0] + [0.0] * 15 + [1.0])  # junk config, just exercises scaling
    leg = tuple([1.0] + [0.0] * 15 + [1.0])
    report = check_pod([cfg], [leg], mode="float", tol=1e9)
    assert report.ok


def test_multiplication_data_requires_zero_dim():
    bundle = create_infinity_pod(7, F101)
    with pytest.raises(ValueError):
        multiplication_data(bundle.leg_ideal_full)


def test_full_leg_curve_slice_eliminant_has_degree_20():
    # the univariate eliminant of one hyperplane slice of the full leg curve
    from podforge import linalg

    bundle = create_infinity_pod(7, F101)
    ring = bundle.leg_ideal_full.ring
    rng = random.Random(21)
    hyper = sum((g.scale(rng.randint(1, 100)) for g in ring.gens()), ring.zero())
    sliced = bundle.leg_ideal_full + [hyper]
    A, _columns = multiplication_data(sliced, rng)
    cp = linalg.charpoly(A, F101)
    assert len(cp) - 1 == 20


def test_curve_points_end_after_the_slice_budget():
    # the line over GF(5) has only 6 rational points: the points end, each
    # drawn once, when the slice budget runs out
    f5 = GF(5)
    ring = RingContext(("x0", "x1", "x2", "x3"), (1,) * 4, DEGREVLEX, f5)
    g = ring.gens()
    I = Ideal(ring, [g[2], g[3]])
    pts = list(curve_points(I, random.Random(5)))
    assert 1 <= len(pts) <= 6 and len(set(pts)) == len(pts)


def test_sample_curve_points_skips_only_unsolvable_slices(monkeypatch):
    # a slice that is not zero-dimensional or whose points are not separated
    # is skipped; any other error is a fault and propagates
    from podforge import verify

    f5 = GF(5)
    ring = RingContext(("x0", "x1", "x2", "x3"), (1,) * 4, DEGREVLEX, f5)
    g = ring.gens()
    I = Ideal(ring, [g[2], g[3]])

    def fail(*args, **kwargs):
        raise ValueError("engine fault")

    monkeypatch.setattr(verify, "solve_zero_dimensional", fail)
    with pytest.raises(ValueError, match="engine fault"):
        sample_curve_points(I, 3, random.Random(1))


def test_real_legs_skips_only_unsolvable_slices(monkeypatch):
    from types import SimpleNamespace

    from podforge import verify

    ring = RingContext(("x0", "x1", "x2", "x3"), (1,) * 4, DEGREVLEX, QQ)
    g = ring.gens()
    bundle = SimpleNamespace(seed=SimpleNamespace(field=QQ), leg_ideal_sym=Ideal(ring, [g[2], g[3]]))

    def fail(*args, **kwargs):
        raise ValueError("engine fault")

    monkeypatch.setattr(verify, "multiplication_data", fail)
    with pytest.raises(ValueError, match="engine fault"):
        verify.real_legs(bundle, 1)


def test_real_legs_raise_after_the_slice_budget(monkeypatch):
    # every slice spends its draw (a singular M0): real_legs gives up after
    # SLICES slices and says so
    from types import SimpleNamespace

    from podforge import verify

    ring = RingContext(("x0", "x1", "x2", "x3"), (1,) * 4, DEGREVLEX, QQ)
    g = ring.gens()
    bundle = SimpleNamespace(seed=SimpleNamespace(field=QQ), leg_ideal_sym=Ideal(ring, [g[2], g[3]]))
    calls = []

    def singular(*args, **kwargs):
        calls.append(1)
        raise SamplingError("M0 is singular: ell_0 vanishes at a point")

    monkeypatch.setattr(verify, "multiplication_data", singular)
    with pytest.raises(SamplingError, match=f"found 0 real legs after {verify.SLICES} slices"):
        verify.real_legs(bundle, 1)
    assert 0 < len(calls) <= verify.SLICES


def test_real_legs_from_symmetric_curve_lie_on_full_curve():
    # oracle: legs read from the degree-10 symmetric curve satisfy every
    # generator of the independently built full leg curve, come in
    # (a, b), (b, a) pairs, and anchor on the base curve
    from podforge.acceptance import _abs_eval
    from podforge.constructions import base_curve
    from podforge.verify import real_legs

    def on(ideal, point):
        return all(abs(g.evaluate_float(point)) <= 1e-9 * (1 + _abs_eval(g, point))
                   for g in ideal.generators)

    bundle = create_infinity_pod(2, QQ)
    legs = real_legs(bundle, 5)
    assert len(legs) >= 5 and len(legs) % 2 == 0
    for leg in legs:
        assert on(bundle.leg_ideal_full, leg.coords)
        assert on(base_curve(bundle), (1.0,) + leg.a)
    for first, second in zip(legs[::2], legs[1::2]):
        assert (first.a, first.b) == (second.b, second.a)
        assert first.d2 == second.d2


def test_real_configurations_definite_quartic_warns_empty():
    # U = -(e1^2+e2^2+e3^2) makes F = sum P^2 + q^2 positive definite: the
    # quartic has no real points at all
    from podforge.constructions import build_seed
    from podforge.models import ring_euler

    ring = ring_euler(QQ)
    e1, e2, e3 = ring.gens()
    q = e1 * e1 + e2 * e2 + e3 * e3
    seed = build_seed(e2, e3, e1, -q)
    with pytest.warns(UserWarning, match="no real configurations"):
        cfgs = real_configurations(seed, 5)
    assert cfgs == []
