"""Pod constructions: the infinity-pod algorithm, Duporcq's sixth leg, the
planar hexapod and conic-product curves, the cubic line-symmetric family, and
its symmetroid pencil.

All randomness flows from seeded `random.Random` instances drawing integer
coefficients in [-bound, bound]; every general-position hypothesis is an
explicit rank or divisibility check with a bounded resample budget.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import linalg
from .fields import QQ, GF
from .groebner import Ideal, eliminate, hilbert_data, normal_form
from .models import (
    EULER_NAMES,
    X_NAMES,
    XINV_NAMES,
    XPINV_NAMES,
    Y_NAMES,
    YP_NAMES,
    YPINV_NAMES,
    Leg,
    LegPoint,
    euler_rho,
    ideal_X_p,
    ideal_X_pinv,
    ideal_Y,
    ideal_Y_inv,
    ideal_Y_p,
    ideal_Y_pinv,
    ideal_X_inv,
    involution_linear_forms,
    ring_euler,
    ring_X,
    ring_Y,
    ring_Y_inv,
    ring_Y_p,
    y_pinv_cubic,
    ring_Y_pinv,
    sum_,
)
from .duality import (
    DualityError,
    LinearSubspace,
    bsc17,
    bsc_planar10,
    dual_space,
    leg_p_coords,
    point_to_leg,
    sbsc11,
    sbsc_planar7,
)
from .rings import DEGREVLEX, EXP_BITS, EXP_MASK, Polynomial, RingContext, RingMap


class DegenerateSeedError(ValueError):
    """A random seed failed its general-position checks beyond the budget."""


class CertificationError(RuntimeError):
    """A construction's exact certification numbers disagree with the target."""


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionSeed:
    """Input data of the infinity-pod construction: three linear forms and a
    quadratic form on the Euler plane, plus the derived syzygy triple P and
    the plane quartic F = sum P_i^2 - U (e1^2+e2^2+e3^2)."""

    L: tuple
    U: Polynomial
    P: tuple
    F: Polynomial
    rng_seed: int
    bound: int
    field: object
    f_smooth: bool


def _rand_poly(ring, rng, degree, bound):
    """Random homogeneous form with integer coefficients in [-bound, bound]."""
    mons = _degree_monomials(3, degree)
    return ring.from_terms((m, rng.randint(-bound, bound)) for m in mons)


def _degree_monomials(nvars, d):
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def syzygy_triple(L1, L2, L3):
    """P = L1 (0,-e3,e2) + L2 (e3,0,-e1) + L3 (-e2,e1,0): always a syzygy of
    (e1,e2,e3), i.e. e1 P1 + e2 P2 + e3 P3 = 0 identically."""
    ring = L1.ring
    e1, e2, e3 = (ring.gen(n) for n in EULER_NAMES)
    return (
        L2 * e3 - L3 * e2,
        L3 * e1 - L1 * e3,
        L1 * e2 - L2 * e1,
    )


def build_seed(L1, L2, L3, U, rng_seed: int = -1, bound: int = 0) -> ConstructionSeed:
    """Assemble and validate a seed from explicit forms.

    Raises DegenerateSeedError naming the failed condition: P identically
    zero, F zero (the whole plane would lift, a two-dimensional configuration
    space), or F divisible by e1^2+e2^2+e3^2 (same surface-lift problem)."""
    ring = L1.ring
    field = ring.field
    for f in (L1, L2, L3):
        if not f.is_zero() and f.homogeneous_degree() != 1:
            raise ValueError("L1, L2, L3 must be linear forms")
    if not U.is_zero() and (not U.is_homogeneous() or U.homogeneous_degree() != 2):
        raise ValueError("U must be a quadratic form")
    e1, e2, e3 = (ring.gen(n) for n in EULER_NAMES)
    q = e1 * e1 + e2 * e2 + e3 * e3
    P = syzygy_triple(L1, L2, L3)
    if all(p.is_zero() for p in P):
        raise DegenerateSeedError("degenerate seed: P identically zero")
    F = P[0] * P[0] + P[1] * P[1] + P[2] * P[2] - U * q
    if F.is_zero():
        raise DegenerateSeedError("degenerate seed: F = 0, the whole plane would lift")
    if normal_form(F, Ideal(ring, [q])).is_zero():
        raise DegenerateSeedError("degenerate seed: F divisible by e1^2+e2^2+e3^2")
    jac = Ideal(ring, [F.derivative(n) for n in EULER_NAMES])
    smooth = hilbert_data(jac).dimension == -1
    return ConstructionSeed((L1, L2, L3), U, P, F, rng_seed, bound, field, smooth)


def draw_seed(rng_seed: int, field=None, bound: int = 10, retries: int = 8) -> ConstructionSeed:
    """Draw an admissible seed, resampling on degeneracy up to the budget."""
    field = field or GF(101)
    ring = ring_euler(field)
    rng = random.Random(rng_seed)
    reasons = []
    for _ in range(retries + 1):
        L = tuple(_rand_poly(ring, rng, 1, bound) for _ in range(3))
        U = _rand_poly(ring, rng, 2, bound)
        try:
            seed = build_seed(*L, U, rng_seed=rng_seed, bound=bound)
        except DegenerateSeedError as exc:
            reasons.append(str(exc))
            continue
        return seed
    raise DegenerateSeedError("; ".join(reasons) or "retry budget exhausted")


# ---------------------------------------------------------------------------
# Algorithm: create the infinity pod
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfinityPodBundle:
    """Output of the construction: the configuration ideal in the isometry
    P^16, the full leg curve in the leg P^16, its symmetric image in P^10,
    and the exact certification numbers."""

    seed: ConstructionSeed
    config_ideal: Ideal
    leg_ideal_full: Ideal
    leg_ideal_sym: Ideal
    config_span_forms: tuple  # 11 covectors on the isometry side
    leg_span_points: tuple  # 11 points spanning the dual P^10 on the leg side
    certification: dict


def rho_quadric_matrix(rho: RingMap):
    """The 6 x 17 matrix of the lift map on linear forms: rows indexed by the
    degree-2 monomials of the Euler plane, columns by the 17 coordinates."""
    ring = rho.target
    mons = [ring.pack(e) for e in _degree_monomials(3, 2)]
    field = ring.field
    cols = []
    for img in rho.images:
        cols.append([img.terms.get(m, field.zero) for m in mons])
    return [list(row) for row in zip(*cols)]


def rho_preimage(rho: RingMap, F: Polynomial) -> Ideal:
    """Preimage of the principal ideal (F) under the lift map, by eliminating
    the Euler variables from the graph ideal.  The graph ring gives the 17
    isometry coordinates weight two so everything stays homogeneous."""
    field = F.ring.field
    names = EULER_NAMES + X_NAMES
    weights = (1, 1, 1) + (2,) * 17
    graph_ring = RingContext(names, weights, DEGREVLEX, field)
    emb = RingMap(ring_euler(field), graph_ring, [graph_ring.gen(n) for n in EULER_NAMES])
    gens = [graph_ring.gen(n) - emb(rho.images[i]) for i, n in enumerate(X_NAMES)]
    gens.append(emb(F))
    out = eliminate(Ideal(graph_ring, gens), EULER_NAMES)
    rx = ring_X(field)
    return Ideal(rx, [rx.coerce(g) for g in out.generators])


def _covector_of_linear(f: Polynomial) -> tuple:
    ring = f.ring
    field = ring.field
    out = [field.zero] * ring.n
    for m, c in f.terms.items():
        exps = ring.unpack(m)
        i = next(k for k, e in enumerate(exps) if e)
        out[i] = c
    return tuple(out)


def _linear_of_covector(vec, ring) -> Polynomial:
    return ring.from_terms(
        (tuple(1 if k == i else 0 for k in range(ring.n)), c)
        for i, c in enumerate(vec)
        if not ring.field.is_zero(ring.field.of(c))
    )


SYM_SPLIT_NAMES = (
    "z00", "z11", "z22", "z33",
    "s01", "s02", "s03", "s12", "s13", "s23",
    "a01", "a02", "a03", "a12", "a13", "a23",
    "l",
)


def sym_projection(leg_full: Ideal):
    """Image of an ideal in the leg P^16 under the symmetrization
    z_ij |-> (s_ij, a_ij) splitting, eliminating the six antisymmetric
    directions.  Returns (ideal in the symmetric P^10 ring, HilbertData).

    The splitting is a linear change of coordinates, invertible wherever 1/2
    exists, so the split ideal has the Hilbert series of leg_full; that
    series drives the elimination."""
    field = leg_full.ring.field
    W = RingContext(SYM_SPLIT_NAMES, (1,) * 17, DEGREVLEX, field)
    gv = {n: W.gen(n) for n in SYM_SPLIT_NAMES}
    half = field.div(field.one, field.of(2))
    images = {}
    for i in range(4):
        images[f"z{i}{i}"] = gv[f"z{i}{i}"]
    for i in range(4):
        for j in range(i + 1, 4):
            s, a = gv[f"s{i}{j}"], gv[f"a{i}{j}"]
            images[f"z{i}{j}"] = (s + a).scale(half)
            images[f"z{j}{i}"] = (s - a).scale(half)
    images["l"] = gv["l"]
    split = RingMap(ring_Y(field), W, [images[n] for n in Y_NAMES])
    split_ideal = Ideal(W, [split(g) for g in leg_full.generators])
    split_ideal.seed_hilbert_cache(hilbert_data(leg_full))
    out = eliminate(split_ideal, ["a01", "a02", "a03", "a12", "a13", "a23"])
    hd = hilbert_data(out)
    target = ring_Y_inv(field)
    return _permute_ideal(out, target), hd


def _permute_ideal(ideal: Ideal, target: RingContext) -> Ideal:
    src = ideal.ring
    if set(src.names) != set(target.names):
        raise ValueError("coordinate names differ")
    pos = [src.var_index[n] for n in target.names]
    gens = []
    for g in ideal.generators:
        gens.append(
            target.from_terms((tuple(src.unpack(m)[i] for i in pos), c) for m, c in g.terms.items())
        )
    return Ideal(target, gens)


def create_infinity_pod(
    rng_seed: int,
    field=None,
    bound: int = 10,
    retries: int = 8,
    certify: bool = True,
) -> InfinityPodBundle:
    """Run the construction end to end from a seed.

    The configuration ideal is the involution model plus the preimage of (F)
    under the lift map, computed both by graph elimination and by the
    linear-kernel shortcut (the degree-1 parts must agree).  The compatible
    legs are cut out of the leg cone by the forms dual to the configuration
    span; their symmetric image is certified (1, 10, 6) and the full curve
    (1, 20, 11)."""
    field = field or GF(101)
    seed = draw_seed(rng_seed, field, bound, retries)
    quarter = field.div(field.one, field.of(4))
    # the r-slot takes U/4: with x = P/2 the relation r h = <x,x> forces
    # 4 r h = sum P_i^2 = U h + F, so r = U/4 on the curve F = 0
    rho = euler_rho(seed.P[0], seed.P[1], seed.P[2], seed.U.scale(quarter))

    rx = ring_X(field)
    preimage = rho_preimage(rho, seed.F)
    j_inv_gens = involution_linear_forms(rx)
    config = ideal_X_inv(field) + preimage.generators

    # degree-1 part, route A: linear generators of J_inv + preimage
    lin_gens = [g for g in preimage.generators if g.homogeneous_degree() == 1]
    lin_gens += j_inv_gens
    covectors = [_covector_of_linear(g) for g in lin_gens]
    route_a = linalg.row_space_basis([list(v) for v in covectors], field)
    # route B: kernel of the lift map on linear forms
    route_b_kernel = linalg.matrix_kernel(rho_quadric_matrix(rho), field)
    route_b = linalg.row_space_basis([list(v) for v in route_b_kernel], field)
    if route_a != route_b:
        raise CertificationError("degree-1 parts of the two preimage routes differ")
    i_lin_dim = len(route_a)

    # dual side: the 11 forms become 11 leg points spanning a P^10
    i_lin = LinearSubspace(X_NAMES, "forms", tuple(tuple(v) for v in route_a), field)
    l_lin = dual_space(i_lin, bsc17(), "left")
    point_rows = [list(v) for v in l_lin.basis]
    cutting = linalg.matrix_kernel(point_rows, field)
    ry = ring_Y(field)
    leg_forms = [_linear_of_covector(v, ry) for v in cutting]
    leg_full = ideal_Y(field) + leg_forms

    certification = {"i_lin_dim": i_lin_dim, "f_smooth": seed.f_smooth}
    leg_sym = None
    if certify:
        hd_full = hilbert_data(leg_full)
        leg_sym, hd_sym = sym_projection(leg_full)
        certification["leg_sym"] = hd_sym.triple()
        certification["leg_full"] = hd_full.triple()
    else:
        leg_sym = Ideal(ring_Y_inv(field), [])

    return InfinityPodBundle(
        seed=seed,
        config_ideal=config,
        leg_ideal_full=leg_full,
        leg_ideal_sym=leg_sym,
        config_span_forms=tuple(tuple(v) for v in route_a),
        leg_span_points=tuple(tuple(v) for v in l_lin.basis),
        certification=certification,
    )


def leg_sym_dual_ideal(bundle: InfinityPodBundle) -> Ideal:
    """The symmetric leg curve by the duality route: the symmetric cone cut by
    the P^4 dual to the configuration span under the symmetric pairing.  Used
    as a cross-check against the elimination route."""
    field = bundle.seed.field
    xidx = {n: i for i, n in enumerate(X_NAMES)}
    # restrict the span forms to the symmetric P^10 coordinates: substituting
    # m_ji = m_ij and y = x folds the covector entries pairwise
    rows = []
    for v in bundle.config_span_forms:
        w = {n: field.of(v[xidx[n]]) for n in X_NAMES}
        row = [
            w["m11"],
            field.add(w["m12"], w["m21"]),
            field.add(w["m13"], w["m31"]),
            w["m22"],
            field.add(w["m23"], w["m32"]),
            w["m33"],
            field.add(w["x1"], w["y1"]),
            field.add(w["x2"], w["y2"]),
            field.add(w["x3"], w["y3"]),
            w["r"],
            w["h"],
        ]
        rows.append(row)
    basis = linalg.row_space_basis(rows, field)
    forms = LinearSubspace(XINV_NAMES, "forms", tuple(tuple(r) for r in basis), field)
    points = dual_space(forms, sbsc11(), "left")
    cutting = linalg.matrix_kernel([list(v) for v in points.basis], field)
    ryi = ring_Y_inv(field)
    return ideal_Y_inv(field) + [_linear_of_covector(v, ryi) for v in cutting]


# ---------------------------------------------------------------------------
# Duporcq: the sixth leg of a planar pentapod
# ---------------------------------------------------------------------------


def duporcq_sixth_leg(legs) -> Leg:
    """The residual sixth point of the P^4 spanned by five planar legs on the
    planar leg cone, returned as a rational leg.

    The span meets the degree-six cone in six points; the five inputs sit at
    the coordinate points of the span, so quadrics through the intersection
    live in the ten products lam_i lam_j and the evaluation functional of the
    sixth point spans the kernel of the pulled-back minors."""
    if len(legs) != 5:
        raise ValueError("exactly five legs required")
    field = legs[0].field
    vecs = [leg_p_coords(leg) for leg in legs]
    if linalg.rank([list(v) for v in vecs], field) != 5:
        raise DualityError("special pentapod: legs span less than a P^4")
    # pull the nine 2x2 minors of the 3x3 block back to the lambda-space
    zmats = [[[field.of(v[3 * i + j]) for j in range(3)] for i in range(3)] for v in vecs]
    pairs = list(itertools.combinations(range(5), 2))
    pair_idx = {p: k for k, p in enumerate(pairs)}
    rows = []
    for i, k in itertools.combinations(range(3), 2):
        for j, m in itertools.combinations(range(3), 2):
            row = [field.zero] * len(pairs)
            diag_ok = True
            for s in range(5):
                for t in range(5):
                    c = field.sub(
                        field.mul(zmats[s][i][j], zmats[t][k][m]),
                        field.mul(zmats[s][i][m], zmats[t][k][j]),
                    )
                    if s == t:
                        if not field.is_zero(c):
                            diag_ok = False
                        continue
                    p = (min(s, t), max(s, t))
                    row[pair_idx[p]] = field.add(row[pair_idx[p]], c)
            if not diag_ok:
                raise DualityError("input leg does not lie on the planar cone")
            rows.append(row)
    kernel = linalg.matrix_kernel(rows, field)
    if len(kernel) == 0:
        raise DualityError("special pentapod: no residual point")
    if len(kernel) > 1:
        raise DualityError(
            "infinitely many legs: the span meets the cone in a positive-dimensional set"
        )
    w = kernel[0]

    def wval(i, j):
        return w[pair_idx[(min(i, j), max(i, j))]]

    lam = None
    for i0 in range(5):
        partners = [j for j in range(5) if j != i0 and not field.is_zero(wval(i0, j))]
        found = False
        for j0, k0 in itertools.combinations(partners, 2):
            if field.is_zero(wval(j0, k0)):
                continue
            cand = [field.zero] * 5
            cand[i0] = field.div(field.mul(wval(i0, j0), wval(i0, k0)), wval(j0, k0))
            for m in range(5):
                if m != i0:
                    cand[m] = wval(i0, m)
            # candidate equals lam_{i0} * lambda; verify all products match
            scale = field.div(field.mul(cand[i0], cand[j0]), wval(i0, j0))
            ok = all(
                field.is_zero(field.sub(field.mul(cand[s], cand[t]), field.mul(scale, wval(s, t))))
                for s, t in pairs
            )
            if ok:
                lam = cand
                found = True
                break
        if found:
            break
    if lam is None:
        raise DualityError("special pentapod: residual point not recoverable from products")
    coords = [
        sum_(field, (field.mul(lam[k], field.of(vecs[k][i])) for k in range(5)))
        for i in range(10)
    ]
    z = [[field.zero] * 4 for _ in range(4)]
    for i in range(3):
        for j in range(3):
            z[i][j] = coords[3 * i + j]
    pt = LegPoint(tuple(tuple(row) for row in z), coords[9], field)
    return point_to_leg(pt)


def pentapod_config_ideal(legs) -> Ideal:
    """Configurations of a pentapod: the isometry model cut by the five
    sphere-condition hyperplanes in P^16."""
    field = legs[0].field
    from .models import ideal_X
    from .duality import leg_to_point

    B = bsc17()
    rx = ring_X(field)
    forms = []
    for leg in legs:
        cov = B.left_form_of_point(leg_to_point(leg).coords(), field)
        forms.append(_linear_of_covector(cov, rx))
    return ideal_X(field) + forms


def legs_span_subspace(legs, field) -> LinearSubspace:
    return LinearSubspace(
        YP_NAMES, "points", tuple(leg_p_coords(leg) for leg in legs), field
    ).reduced()


# ---------------------------------------------------------------------------
# Planar hexapod leg curve
# ---------------------------------------------------------------------------


def hexapod_leg_curve(legs) -> Ideal:
    """The curve of extra legs of a planar hexapod: the P^5 spanned by the six
    leg points intersected with the planar cone, certified one-dimensional."""
    if len(legs) != 6:
        raise ValueError("exactly six legs required")
    field = legs[0].field
    vecs = [leg_p_coords(leg) for leg in legs]
    if linalg.rank([list(v) for v in vecs], field) != 6:
        raise DualityError("legs do not span a P^5")
    cutting = linalg.matrix_kernel([list(v) for v in vecs], field)
    ryp = ring_Y_p(field)
    curve = ideal_Y_p(field) + [_linear_of_covector(v, ryp) for v in cutting]
    hd = hilbert_data(curve)
    if hd.dimension != 1:
        raise CertificationError(f"hexapod curve has dimension {hd.dimension}, expected 1")
    return curve


# ---------------------------------------------------------------------------
# Conic-product infinity pods
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConicProductPod:
    leg_ideal: Ideal
    config_ideal: Ideal
    leg_span: LinearSubspace
    parametrization: tuple  # 10 binary quartics as coefficient 5-tuples
    certification: dict


def _binary_quadratic_product(fc, gc, field):
    """Coefficient 5-vector of the product of two binary quadratics."""
    out = [field.zero] * 5
    for i, a in enumerate(fc):
        for j, b in enumerate(gc):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return out


def conic_product_legs(f_coeffs, g_coeffs, field=QQ, rng=None) -> ConicProductPod:
    """Legs from the product of two rationally parametrized plane conics.

    f_coeffs, g_coeffs: 3x3 matrices over the field, rows giving the binary
    quadratic coordinates of each conic parametrization.  The Segre image is a
    quartic curve whose lift to the planar cone (one generic linear condition
    in l) spans a P^4; its dual meets the planar isometry model in a curve."""
    f = [[field.of(c) for c in row] for row in f_coeffs]
    g = [[field.of(c) for c in row] for row in g_coeffs]
    for mat, tag in ((f, "f"), (g, "g")):
        if linalg.rank(mat, field) != 3:
            raise DegenerateSeedError(f"degenerate conic: parametrization {tag} has rank < 3")
    rng = rng or random.Random(0)
    # ten coordinate functions: z_ij = f_i g_j (binary quartics), then l
    quartics = []
    for i in range(3):
        for j in range(3):
            quartics.append(_binary_quadratic_product(f[i], g[j], field))
    lvec = [field.of(rng.randint(-10, 10)) for _ in range(9)]
    lq = [field.zero] * 5
    for k in range(9):
        for d in range(5):
            lq[d] = field.add(lq[d], field.mul(lvec[k], quartics[k][d]))
    quartics.append(lq)
    span_rank = linalg.rank([list(q) for q in quartics], field)
    if span_rank != 5:
        raise DegenerateSeedError(f"lift spans a P^{span_rank - 1}, expected exactly a P^4")
    cutting = linalg.matrix_kernel([list(col) for col in zip(*quartics)], field)
    # cutting: covectors phi with phi . coords(s,t) = 0 for all (s,t)
    ryp = ring_Y_p(field)
    leg_ideal = ideal_Y_p(field) + [_linear_of_covector(v, ryp) for v in cutting]
    point_basis = [list(col) for col in zip(*quartics)]
    span = LinearSubspace(YP_NAMES, "points", tuple(tuple(r) for r in point_basis), field)
    config_forms = dual_space(span, bsc_planar10(), "right")
    from .models import ring_X_p

    rxp = ring_X_p(field)
    config_ideal = ideal_X_p(field) + [
        _linear_of_covector(v, rxp) for v in config_forms.basis
    ]
    hd = hilbert_data(config_ideal)
    cert = {"config": hd.triple(), "span_rank": span_rank}
    if hd.dimension != 1:
        raise CertificationError(f"conic-product configuration space has dimension {hd.dimension}")
    return ConicProductPod(leg_ideal, config_ideal, span.reduced(), tuple(map(tuple, quartics)), cert)


# ---------------------------------------------------------------------------
# Cubic line-symmetric pods and their symmetroid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubicPodBundle:
    plane: LinearSubspace  # the P^2 of legs in the planar symmetric P^6
    leg_ideal: Ideal
    config_ideal: Ideal
    config_forms: tuple  # 3 covectors on the planar involution side
    certification: dict
    field: object


def cubic_line_symmetric(rng_seed: int, field=None, bound: int = 10, retries: int = 8) -> CubicPodBundle:
    """A planar line-symmetric infinity pod: a general plane section of the
    planar symmetric cone (a plane cubic of genus one) and the dual curve of
    configurations (degree six)."""
    field = field or GF(101)
    rng = random.Random(rng_seed)
    last = "retry budget exhausted"
    for _ in range(retries + 1):
        pts = [[field.of(rng.randint(-bound, bound)) for _ in range(7)] for _ in range(3)]
        if linalg.rank(pts, field) != 3:
            last = "plane points dependent"
            continue
        plane = LinearSubspace(YPINV_NAMES, "points", tuple(tuple(r) for r in pts), field)
        cutting = linalg.matrix_kernel(pts, field)
        rypi = ring_Y_pinv(field)
        leg_ideal = ideal_Y_pinv(field) + [_linear_of_covector(v, rypi) for v in cutting]
        hd_leg = hilbert_data(leg_ideal)
        if hd_leg.triple() != (1, 3, 1):
            last = f"leg section not a plane cubic: {hd_leg.triple()}"
            continue
        # smoothness of the plane cubic, on the plane's own coordinates
        uring = RingContext(("u0", "u1", "u2"), (1, 1, 1), DEGREVLEX, field)
        uimg = []
        for j in range(7):
            uimg.append(
                sum(
                    (uring.gen(k).scale(pts[k][j]) for k in range(3)),
                    uring.zero(),
                )
            )
        restrict = RingMap(rypi, uring, uimg)
        cubic_u = restrict(y_pinv_cubic(rypi))
        if cubic_u.is_zero():
            last = "plane lies inside the cone"
            continue
        jac = Ideal(uring, [cubic_u.derivative(n) for n in ("u0", "u1", "u2")])
        if hilbert_data(jac).dimension != -1:
            last = "plane section is a singular cubic"
            continue
        config_forms = dual_space(plane, sbsc_planar7(), "right")
        from .models import ring_X_pinv

        rxpi = ring_X_pinv(field)
        config_ideal = ideal_X_pinv(field) + [
            _linear_of_covector(v, rxpi) for v in config_forms.basis
        ]
        hd_cfg = hilbert_data(config_ideal)
        if hd_cfg.dimension != 1 or hd_cfg.degree != 6:
            last = f"configuration curve not (1, 6): {hd_cfg.triple()}"
            continue
        cert = {
            "leg": hd_leg.triple(),
            "config": hd_cfg.triple(),
        }
        return CubicPodBundle(
            plane,
            leg_ideal,
            config_ideal,
            tuple(tuple(v) for v in config_forms.basis),
            cert,
            field,
        )
    raise DegenerateSeedError(last)


def cubic_lift_bidegree(bundle: CubicPodBundle):
    """Bidegree data of the lift of the leg cubic to the product of the base
    and platform planes.

    The l-free plane forms pull back through the quotient map to three
    bidegree-(1,1) forms sum_j L_cj(a) b_j, so the lift has bidegree (3, 3)
    and each projection is the determinantal plane cubic of the 3 x 3
    coefficient matrix.  Returns ((3, base cubic), (3, platform cubic)); the
    two cubics cut the same curve."""
    field = bundle.field
    # combinations of the 4 cutting forms with zero l-coefficient
    cutting = linalg.matrix_kernel([list(p) for p in bundle.plane.basis], field)
    lcol = [[v[6]] for v in cutting]
    combos = linalg.matrix_kernel([list(col) for col in zip(*lcol)], field)
    lfree = []
    for c in combos:
        vec = [field.zero] * 7
        for k, ck in enumerate(c):
            for j in range(7):
                vec[j] = field.add(vec[j], field.mul(ck, field.of(cutting[k][j])))
        lfree.append(vec)
    if len(lfree) != 3:
        raise DegenerateSeedError("plane meets the cone vertex: no l-free slice")
    ring3 = RingContext(("u0", "u1", "u2"), (1, 1, 1), DEGREVLEX, field)
    u = [ring3.gen(f"u{i}") for i in range(3)]
    # alpha pullback: z00 -> a0 b0, z11 -> a1 b1, z22 -> a2 b2,
    # s01 -> a0 b1 + a1 b0, s02 -> a0 b2 + a2 b0, s12 -> a1 b2 + a2 b1;
    # each lifted form is sum_ij C_ij a_i b_j with C symmetric
    def coeff_matrix(vec):
        z00, z11, z22, s01, s02, s12 = vec[:6]
        return [[z00, s01, s02], [s01, z11, s12], [s02, s12, z22]]

    def det3(rows):
        return (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )

    mats = [coeff_matrix(vec) for vec in lfree]
    # base side: rows of b-coefficients, linear in a; platform side transposes
    base_rows = [
        [sum((u[i].scale(mats[c][i][j]) for i in range(3)), ring3.zero()) for j in range(3)]
        for c in range(3)
    ]
    plat_rows = [
        [sum((u[j].scale(mats[c][i][j]) for j in range(3)), ring3.zero()) for i in range(3)]
        for c in range(3)
    ]
    base_cubic = det3(base_rows)
    plat_cubic = det3(plat_rows)
    if base_cubic.is_zero() or plat_cubic.is_zero():
        raise CertificationError("lifted curve projects degenerately")
    return (
        (base_cubic.homogeneous_degree(), base_cubic.content_normalized()),
        (plat_cubic.homogeneous_degree(), plat_cubic.content_normalized()),
    )


@dataclass(frozen=True)
class SymmetroidPencil:
    """The pencil of symmetric matrices dual to the configuration span: the
    fixed corner matrix, the three zero-bordered matrices, the quartic
    determinant and its exact cubic cofactor, and the nodes found."""

    E: tuple
    A: tuple  # three 4x4 matrices
    gamma_points: tuple  # the four points in the symmetric P^10
    det_poly: Polynomial
    H: Polynomial
    nodes: tuple  # rational nodes found over the field
    node_scheme_degree: int  # degree of the singular scheme of H = 0
    field: object


def symmetroid_pencil(bundle: CubicPodBundle, node_samples: int = 8) -> SymmetroidPencil:
    """Expand det(w0 E + w1 A1 + w2 A2 + w3 A3) = w0 H and locate the nodes
    of the cubic symmetroid H = 0."""
    field = bundle.field
    xidx = {n: i for i, n in enumerate(XPINV_NAMES)}
    forms11 = []
    for v in bundle.config_forms:
        vec = [field.zero] * 11
        for n in XPINV_NAMES:
            vec[XINV_NAMES.index(n)] = field.of(v[xidx[n]])
        forms11.append(vec)
    trace = [field.zero] * 11
    for n in ("m11", "m22", "m33", "h"):
        trace[XINV_NAMES.index(n)] = field.one
    basis_forms = [trace] + forms11
    forms = LinearSubspace(XINV_NAMES, "forms", tuple(tuple(v) for v in basis_forms), field)
    gamma = dual_space(forms, sbsc11(), "left")
    from .duality import _sym_matrix_from_coords

    pts = [list(p) for p in gamma.basis]
    # normalize the first point to the printed corner matrix diag(0,1,1,1)
    e_mat = _sym_matrix_from_coords(pts[0], field)
    if not field.is_zero(e_mat[0][0]):
        raise CertificationError("dual of the trace form has a corner entry")
    scale = field.inv(e_mat[1][1])
    pts[0] = [field.mul(scale, c) for c in pts[0]]
    mats = [_sym_matrix_from_coords(p, field) for p in pts]
    E, A = mats[0], mats[1:]
    expected_e = [[field.zero] * 4 for _ in range(4)]
    for i in (1, 2, 3):
        expected_e[i][i] = field.one
    if E != expected_e:
        raise CertificationError("corner matrix does not normalize to diag(0,1,1,1)")
    for mat in A:
        for k in range(4):
            if not (field.is_zero(mat[3][k]) and field.is_zero(mat[k][3])):
                raise CertificationError("pencil matrix has a nonzero last row or column")

    wring = RingContext(("w0", "w1", "w2", "w3"), (1, 1, 1, 1), DEGREVLEX, field)
    w = [wring.gen(f"w{i}") for i in range(4)]
    entries = [
        [
            sum(
                (w[0].scale(E[i][j]),)
                + tuple(w[k + 1].scale(A[k][i][j]) for k in range(3)),
                wring.zero(),
            )
            for j in range(4)
        ]
        for i in range(4)
    ]
    det = _det4(entries, wring)
    H = _exact_divide_by_var(det, wring, "w0")
    if H is None:
        raise CertificationError("determinant is not divisible by w0")
    jac = Ideal(wring, [H.derivative(n) for n in ("w0", "w1", "w2", "w3")])
    hd = hilbert_data(jac)
    nodes = ()
    node_scheme_degree = 0
    if hd.dimension == 0:
        node_scheme_degree = hd.degree
        from .verify import solve_zero_dimensional

        nodes = tuple(solve_zero_dimensional(jac, max_points=node_samples))
    elif hd.dimension > 0:
        raise CertificationError("symmetroid singular locus is positive-dimensional")
    node_pts = []
    for nd in nodes:
        coords = [
            sum_(field, (field.mul(nd[k], field.of(pts[k][i])) for k in range(4)))
            for i in range(11)
        ]
        node_pts.append(tuple(coords))
    return SymmetroidPencil(
        E=tuple(tuple(r) for r in E),
        A=tuple(tuple(tuple(r) for r in mat) for mat in A),
        gamma_points=tuple(tuple(p) for p in pts),
        det_poly=det,
        H=H,
        nodes=tuple(node_pts),
        node_scheme_degree=node_scheme_degree,
        field=field,
    )


def _det4(entries, ring):
    total = ring.zero()
    for perm in itertools.permutations(range(4)):
        sign = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ring.one()
        for i in range(4):
            term = term * entries[i][perm[i]]
        total = total + (term if sign > 0 else -term)
    return total


def _exact_divide_by_var(f: Polynomial, ring, name):
    i = ring.var_index[name]
    shift = 1 << (EXP_BITS * i)
    out = {}
    for m, c in f.terms.items():
        if not (m >> (EXP_BITS * i)) & EXP_MASK:
            return None
        out[m - shift] = c
    return Polynomial(ring, out)


# ---------------------------------------------------------------------------
# Base curve of the infinity pod
# ---------------------------------------------------------------------------


def base_curve(bundle: InfinityPodBundle, platform: bool = False) -> Ideal:
    """Project the full leg curve to its base anchor points in P^3 (or the
    platform anchors).

    The l-free span forms pull back through the rank-one factorization
    z_ij = a_i b_j to five bilinear forms sum_j L_cj(a) b_j; eliminating the
    b factor (with its irrelevant locus saturated away) is exactly the rank
    condition on the 5 x 4 coefficient matrix, so the base ideal is generated
    by its five maximal minors."""
    field = bundle.seed.field
    cutting = linalg.matrix_kernel([list(v) for v in bundle.leg_span_points], field)
    # combinations with zero l-coefficient pull back to P^3 x P^3
    lcol = [[v[16]] for v in cutting]
    combos = linalg.matrix_kernel([list(col) for col in zip(*lcol)], field)
    if len(combos) != 5:
        raise CertificationError("leg span does not project cleanly (vertex issue)")
    ring3 = RingContext(("a0", "a1", "a2", "a3"), (1,) * 4, DEGREVLEX, field)
    a = [ring3.gen(f"a{i}") for i in range(4)]
    # row c, column j: the linear form multiplying b_j (or a_j in platform mode)
    rows = []
    for c in combos:
        row = [ring3.zero() for _ in range(4)]
        for k, ck in enumerate(c):
            ck = field.of(ck)
            if field.is_zero(ck):
                continue
            for idx in range(16):
                coeff = field.mul(ck, field.of(cutting[k][idx]))
                if field.is_zero(coeff):
                    continue
                i, j = divmod(idx, 4)
                if platform:
                    row[i] = row[i] + a[j].scale(coeff)
                else:
                    row[j] = row[j] + a[i].scale(coeff)
        rows.append(row)
    minors = []
    for keep in itertools.combinations(range(5), 4):
        minors.append(_det4([rows[r] for r in keep], ring3))
    return Ideal(ring3, minors)
