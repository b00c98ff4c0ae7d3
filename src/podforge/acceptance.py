"""Executable claim-reproduction suite.

Each entry checks one headline claim at its stated tolerance and returns a
pass/fail row; `podforge reproduce` prints the table and the test suite
asserts every row.  Everything is exact except the explicitly-float real
demo, whose tolerances are pinned here.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .fields import GF, QQ
from .groebner import Ideal, eliminate, hilbert_data
from .models import (
    IsometryPoint,
    Leg,
    ideal_X,
    ideal_X_p,
    ideal_X_pinv,
    ideal_Y_inv,
    ideal_Y_p,
    ring_Y_pinv,
    y_pinv_cubic,
)
from .duality import (
    FORMS,
    DualityError,
    LinearSubspace,
    bsc17,
    bsc_planar10,
    dual_space,
    form_determinant,
    leg_pinv_coords,
    same_subspace,
    sphere_value,
)
from .rings import DEGREVLEX, RingContext
from . import constructions, verify


@dataclass
class ClaimResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _claim(results, name, fn):
    t0 = time.time()
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a failed claim, not a crashed table
        ok, detail = False, f"error: {exc}"
    results.append(ClaimResult(name, ok, detail, time.time() - t0))


def run_all(fast: bool = False, seed: int = 0, tol: float = 1e-9):
    field = GF(101)
    results = []

    def c1():
        hd = hilbert_data(ideal_X(field))
        return (hd.dimension, hd.degree) == (6, 40), f"X: dim {hd.dimension} deg {hd.degree} (want 6, 40)"

    _claim(results, "1 isometry model dim/deg", c1)

    def c2():
        hd = hilbert_data(ideal_Y_inv(field))
        return (hd.dimension, hd.degree) == (7, 10), f"Y_inv: dim {hd.dimension} deg {hd.degree} (want 7, 10)"

    _claim(results, "2 symmetric leg cone dim/deg", c2)

    def c3():
        hy = hilbert_data(ideal_Y_p(field))
        hx = hilbert_data(ideal_X_p(field))
        hxi = hilbert_data(ideal_X_pinv(field))
        got = ((hy.dimension, hy.degree), (hx.dimension, hx.degree), (hxi.dimension, hxi.degree))
        want = ((5, 6), (6, 20), (4, 6))
        return got == want, f"Y_p/X_p/X_pinv: {got} (want {want})"

    _claim(results, "3 planar projections dim/deg", c3)

    def c4():
        n_runs = 3 if fast else 20
        for k in range(n_runs):
            bundle = constructions.create_infinity_pod(seed + 7 * k + 1, field)
            wrong = _certification_wrong(bundle)
            if wrong:
                return False, f"run {k}: {wrong}"
        return True, f"{n_runs} runs: span P^5, configuration curve (1,8,3), legs (1,10,6), full curve (1,20,11)"

    _claim(results, "4 infinity-pod certification", c4)

    def c5():
        bundle = constructions.create_infinity_pod(seed + 1, field)
        hd = hilbert_data(constructions.base_curve(bundle))
        return (hd.dimension, hd.degree) == (1, 10), f"base curve: dim {hd.dimension} deg {hd.degree} (want 1, 10)"

    _claim(results, "5 base anchor curve", c5)

    def c6():
        bundle = constructions.create_infinity_pod(2, QQ)
        wrong = _certification_wrong(bundle)
        if wrong:
            return False, f"QQ seed 2: {wrong}"
        cfgs = verify.real_configurations(bundle.seed, 10)
        if len(cfgs) < 10:
            return False, f"only {len(cfgs)} real configurations"
        for cfg in cfgs:
            m = cfg.rotation
            for i in range(3):
                for j in range(3):
                    dot = sum(m[i][k] * m[j][k] for k in range(3))
                    if abs(dot - (1.0 if i == j else 0.0)) > 1e-12:
                        return False, "rotation not orthogonal to 1e-12"
            if abs(m[0][0] + m[1][1] + m[2][2] + 1.0) > 1e-12:
                return False, "rotation trace differs from -1"
        legs = verify.real_legs(bundle, 5)
        report = verify.check_pod(cfgs, legs, mode="float", tol=tol)
        n_real = sum(1 for leg in legs if leg.realizable)
        # recovered base anchors satisfy the base curve ideal (1e-9 relative)
        bc = constructions.base_curve(bundle)
        for leg in legs:
            anchor = (1.0,) + tuple(leg.a)
            for g in bc.generators:
                val = g.evaluate_float(anchor)
                scale = 1.0 + _abs_eval(g, anchor)
                if abs(val) > 1e-9 * scale:
                    return False, f"base anchor misses the base curve ({val:.2e})"
        ok = report.ok and len(legs) >= 5
        return ok, (
            f"QQ seed 2: span P^5, configuration curve (1,8,3), legs (1,10,6), "
            f"full curve (1,20,11); "
            f"{len(cfgs)} half-turns, {len(legs)} legs ({n_real} with d^2 > 0), "
            f"max residual {report.max_abs:.2e} (tol {tol})"
        )

    _claim(results, "6 real demo over Q/float", c6)

    def c7():
        n_runs = 5 if fast else 20
        rng = random.Random(seed + 97)
        done = 0
        attempts = 0
        while done < n_runs:
            attempts += 1
            if attempts > 3 * n_runs:
                return False, f"too many special pentapods ({done} of {n_runs} done)"
            legs = [
                Leg(
                    (Fraction(rng.randint(-40, 40), rng.randint(1, 4)),
                     Fraction(rng.randint(-40, 40), rng.randint(1, 4)), Fraction(0)),
                    (Fraction(rng.randint(-40, 40), rng.randint(1, 4)),
                     Fraction(rng.randint(-40, 40), rng.randint(1, 4)), Fraction(0)),
                    Fraction(rng.randint(1, 30)),
                    QQ,
                )
                for _ in range(5)
            ]
            try:
                sixth = constructions.duporcq_sixth_leg(legs)
            except DualityError:
                continue  # measure-zero special pentapod: redraw
            s5 = constructions.legs_span_subspace(legs, QQ)
            s6 = constructions.legs_span_subspace(legs + [sixth], QQ)
            d5 = dual_space(s5, bsc_planar10(), "right").reduced()
            d6 = dual_space(s6, bsc_planar10(), "right").reduced()
            if d5.basis != d6.basis:
                return False, "dual spans of 5 and 6 legs differ"
            done += 1
        return True, f"{done} pentapods: rational sixth leg, dual spans identical"

    _claim(results, "7 sixth-leg extension", c7)

    def c8():
        bundle = constructions.cubic_line_symmetric(seed + 3, field)
        if bundle.certification["leg"] != (1, 3, 1):
            return False, f"leg cubic {bundle.certification['leg']} (want (1, 3, 1))"
        if bundle.certification["config"][:2] != (1, 6):
            return False, f"config curve {bundle.certification['config']} (want dim 1 deg 6)"
        pencil = constructions.symmetroid_pencil(bundle)
        if pencil.H.homogeneous_degree() != 3:
            return False, "cofactor H is not cubic"
        if pencil.node_scheme_degree > 4:
            return False, f"{pencil.node_scheme_degree} nodes (want <= 4)"
        return True, (
            f"leg (1,3,1), config deg 6 (genus {bundle.certification['config'][2]}), "
            f"det = w0*H exact, {pencil.node_scheme_degree} nodes"
        )

    _claim(results, "8 cubic construction + symmetroid", c8)

    def c9():
        detv = form_determinant(bsc17(), QQ)
        if detv == 0:
            return False, "full sphere pairing is degenerate"
        rng = random.Random(seed + 11)
        n_sub = 20 if fast else 100
        for name, factory in sorted(FORMS.items()):
            form = factory()
            n = len(form.left_names)
            for _ in range(n_sub):
                k = rng.randint(1, n - 1)
                basis = []
                while linalg.rank(basis, QQ) < k:
                    basis = [
                        [Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(k)
                    ]
                sub = LinearSubspace(form.left_names, "points", tuple(tuple(r) for r in basis), QQ)
                back = dual_space(dual_space(sub, form, "left"), form, "right")
                if not same_subspace(sub, back):
                    return False, f"involution failed for {name}"
        n_oracle = 100 if fast else 1000
        rng2 = random.Random(seed + 13)
        for _ in range(n_oracle):
            mat = _cayley(rng2)
            y = [Fraction(rng2.randint(-9, 9), rng2.randint(1, 4)) for _ in range(3)]
            a = tuple(Fraction(rng2.randint(-9, 9), rng2.randint(1, 4)) for _ in range(3))
            b = tuple(Fraction(rng2.randint(-9, 9), rng2.randint(1, 4)) for _ in range(3))
            d2 = Fraction(rng2.randint(-20, 20))
            sigma = IsometryPoint.from_affine(mat, y, QQ)
            leg = Leg(a, b, d2, QQ)
            img = [sum(mat[i][j] * a[j] for j in range(3)) + y[i] for i in range(3)]
            brute = sum((img[i] - b[i]) ** 2 for i in range(3)) - d2
            if sphere_value(leg, sigma) != brute:
                return False, "sphere value disagrees with the brute-force oracle"
        return True, (
            f"pairing det {detv} != 0; involution on {n_sub} subspaces x 4 forms; "
            f"{n_oracle} exact sphere oracles"
        )

    _claim(results, "9 duality properties", c9)

    def c10():
        # implicitization oracle: eliminate the anchor coordinates from the
        # graph of the planar quotient map
        f101 = field
        names = ("a0", "a1", "a2", "b0", "b1", "b2", "z00", "z11", "z22", "s01", "s02", "s12")
        weights = (1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2)
        graph_ring = RingContext(names, weights, DEGREVLEX, f101)
        a = [graph_ring.gen(f"a{i}") for i in range(3)]
        b = [graph_ring.gen(f"b{i}") for i in range(3)]
        gv = {n: graph_ring.gen(n) for n in names[6:]}
        gens = [
            gv["z00"] - a[0] * b[0],
            gv["z11"] - a[1] * b[1],
            gv["z22"] - a[2] * b[2],
            gv["s01"] - a[0] * b[1] - a[1] * b[0],
            gv["s02"] - a[0] * b[2] - a[2] * b[0],
            gv["s12"] - a[1] * b[2] - a[2] * b[1],
        ]
        out = eliminate(Ideal(graph_ring, gens), ["a0", "a1", "a2", "b0", "b1", "b2"])
        if len(out.generators) != 1:
            return False, f"oracle produced {len(out.generators)} generators (want 1 cubic)"
        oracle_cubic = out.generators[0].monic()
        if oracle_cubic.terms != y_pinv_cubic(out.ring).monic().terms:
            return False, "oracle cubic differs from the determinant cubic"
        # 10^3 exact quotient images satisfy the determinant cubic
        rng = random.Random(seed + 17)
        ring7 = ring_Y_pinv(QQ)
        cubic = y_pinv_cubic(ring7)
        printed = _printed_cubic(ring7)
        printed_differs = False
        for _ in range(1000):
            av = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(2)]
            bv = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(2)]
            leg = Leg((av[0], av[1], Fraction(0)), (bv[0], bv[1], Fraction(0)), Fraction(1), QQ)
            coords = leg_pinv_coords(leg)
            if cubic.evaluate(coords) != 0:
                return False, "a quotient image violates the determinant cubic"
            if printed.evaluate(coords) != 0:
                printed_differs = True
        if not printed_differs:
            return False, "printed cubic agreed everywhere (discrepancy not reproduced)"
        return True, (
            "graph elimination reproduces the determinant cubic; 1000 exact images "
            "satisfy it; the printed variant fails on them (typo confirmed)"
        )

    _claim(results, "10 planar symmetric cubic cross-check", c10)

    return results


def _certification_wrong(bundle):
    """Why an infinity pod's certification, or its configuration curve, is
    not the paper's, or None.  The curve stays out of the certification
    object, whose bytes the construct output pins."""
    cert = bundle.certification
    if cert["i_lin_dim"] != 11:
        return f"span dim {cert['i_lin_dim']} (want 11)"
    if not cert["f_smooth"]:
        return "the plane quartic F is singular (want f_smooth)"
    if cert["leg_sym"] != (1, 10, 6):
        return f"symmetric leg curve {cert['leg_sym']} (want (1, 10, 6))"
    if cert["leg_full"] != (1, 20, 11):
        return f"full leg curve {cert['leg_full']} (want (1, 20, 11))"
    config = hilbert_data(bundle.config_ideal).triple()
    if config != (1, 8, 3):
        return f"configuration curve {config} (want (1, 8, 3))"
    return None


def _abs_eval(g, vals):
    """Evaluate with absolute coefficients and values: the relative scale."""
    total = 0.0
    for m, c in g.terms.items():
        t = abs(float(c))
        for e, v in zip(g.ring.unpack(m), vals):
            if e:
                t *= abs(v) ** e
        total += t
    return total


def _printed_cubic(ring):
    gv = {n: ring.gen(n) for n in ring.names}
    z00, z11, z22 = gv["z00"], gv["z11"], gv["z22"]
    s01, s02, s12 = gv["s01"], gv["s02"], gv["s12"]
    return s01 * s02 * s12 - s12 * s12 * (z00 + z11 + z22) + z00 * z11 * z22 * 4


def _cayley(rng):
    s1, s2, s3 = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
    skew = [[Fraction(0), s1, s2], [-s1, Fraction(0), s3], [-s2, -s3, Fraction(0)]]
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    minus = [[eye[i][j] - skew[i][j] for j in range(3)] for i in range(3)]
    plus = [[eye[i][j] + skew[i][j] for j in range(3)] for i in range(3)]
    return linalg.mat_mul(linalg.mat_inverse(minus, QQ), plus, QQ)
