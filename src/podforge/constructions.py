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

from . import linalg, unipoly
from .fields import QQ, GF
from .groebner import (
    Ideal,
    certified_cut,
    cut_regular_sequence,
    hilbert_data,
    normal_form,
    reducer,
    ring_numerator,
    saturate,
)
from .models import (
    EULER_NAMES,
    SEGRE_NUMERATOR,
    X_NAMES,
    X_NUMERATOR,
    XINV_NAMES,
    XPINV_NAMES,
    Y_INV_NUMERATOR,
    Y_NAMES,
    YINV_NAMES,
    YP_NAMES,
    YPINV_NAMES,
    Leg,
    LegPoint,
    euler_rho,
    ideal_X,
    ideal_X_p,
    ideal_X_pinv,
    ideal_Y,
    ideal_Y_inv,
    ideal_Y_p,
    ideal_Y_pinv,
    ideal_X_inv,
    involution_linear_forms,
    rho_isometry_point,
    ring_euler,
    ring_X,
    ring_X_p,
    ring_X_pinv,
    ring_Y,
    ring_Y_inv,
    ring_Y_p,
    y_pinv_cubic,
    ring_Y_pinv,
    symmetric_matrix,
    x_equations,
)
from .duality import (
    DualityError,
    LinearSubspace,
    bsc17,
    bsc_planar10,
    dual_space,
    fold_name,
    leg_p_coords,
    leg_to_point,
    pi_name,
    point_to_leg,
    pull,
    push,
    same_name,
    sbsc11,
    sbsc_planar7,
)
from .rings import DEGREVLEX, Polynomial, RingContext, RingMap, minors
from .verify import roots_mod_p, solve_zero_dimensional, substitute_e2


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

    def lift(self) -> RingMap:
        """The lift map rho from the X coordinate ring to the Euler plane."""
        field = self.field
        # the r-slot takes U/4: with x = P/2 the relation r h = <x,x> forces
        # 4 r h = sum P_i^2 = U h + F, so r = U/4 on the curve F = 0
        return euler_rho(*self.P, self.U.scale(field.inv(4)))

    def config_points(self, count=None) -> list:
        """The first `count` GF(p) points (e1, e2, 1) of the quartic F, all of
        them when count is None, in (e2, e1) order, lifted to isometry points
        by `lift()`.  Each line e2 = c gives its e1 values as the roots of F
        restricted to it, or all of GF(p) when F vanishes on the line."""
        p = self.field.p
        rho = self.lift()

        def zeros():
            for e2 in range(p):
                line = substitute_e2(self.F, e2)
                for e1 in roots_mod_p(line, p) if line else range(p):
                    yield (e1, e2, 1)

        return [rho_isometry_point(rho, e) for e in itertools.islice(zeros(), count)]


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


RETRIES = 8  # redraws of a degenerate seed or cubic plane before giving up


def draw_seed(rng_seed: int, field=None, bound: int = 10) -> ConstructionSeed:
    """Draw an admissible seed, resampling on degeneracy up to RETRIES times."""
    field = field or GF(101)
    ring = ring_euler(field)
    rng = random.Random(rng_seed)
    reasons = []
    for _ in range(RETRIES + 1):
        L = tuple(_rand_poly(ring, rng, 1, bound) for _ in range(3))
        U = _rand_poly(ring, rng, 2, bound)
        try:
            seed = build_seed(*L, U, rng_seed=rng_seed, bound=bound)
        except DegenerateSeedError as exc:
            reasons.append(str(exc))
            continue
        return seed
    raise DegenerateSeedError("; ".join(reasons))


# ---------------------------------------------------------------------------
# Algorithm: create the infinity pod
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfinityPodBundle:
    """Output of the construction: the configuration ideal in the isometry
    P^16, the full leg curve in the leg P^16, its symmetric image in P^10
    (given by its reduced degrevlex basis, which is cached), and the exact
    certification numbers."""

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


def lift_kernel(rho: RingMap) -> LinearSubspace:
    """P_1, the linear forms on the isometry P^16 that the lift map sends to
    zero: the kernel of `rho_quadric_matrix`."""
    field = rho.target.field
    kernel = linalg.matrix_kernel(rho_quadric_matrix(rho), field)
    return LinearSubspace(rho.source.names, "forms", tuple(tuple(v) for v in kernel), field)


# HS(R/P) = (1 + 4t + 3t^2) / (1 - t)^2 = 1 + sum_{k>=1} (8k - 2) t^k: a
# configuration curve of degree 8 (and arithmetic genus 3) in P^16
PREIMAGE_NUMERATOR = (1, 4, 3)


def rho_preimage(rho: RingMap, F: Polynomial, kernel: LinearSubspace) -> Ideal:
    """Preimage P of the principal ideal (F) under the lift map: the model X
    cut by P_1, the 11 kernel forms of `rho_quadric_matrix`, given as
    `kernel` = `lift_kernel(rho)` (reduced or not).

    Three exact checks certify it, each raising CertificationError:
    1. The kernel has 11 forms, so rho has rank 6 on linear forms and maps
       onto the even-degree Veronese subring of the Euler plane.  So R/P is
       k[e]/(F) in even degrees, and HS(R/P) = sum_k dim (k[e]/F)_{2k} t^k
       (PREIMAGE_NUMERATOR).
    2. rho maps each of X's 21 `x_equations` E into (F): nineteen to 0 and
       the two r relations to -F/4.  So J = E + P_1 lies in P, and so does
       J' = E_2 + P_1, for E_2 the 20 quadrics of E (all but the cubic
       det M - h^3).  HS(R/P) is a lower bound for J''s series.
    3. The Buchberger run of J' on that bound reaches it, so J' = P.
    The result has its reduced degrevlex basis as generators and cached.

    The run leaves out E's cubic, and reaches the bound whenever the run of
    J would: R/P is the second Veronese ring of k[e]/(F), so P is generated
    by quadrics, the Veronese quadrics and the lift of F (Hartshorne II
    Ex. 5.13).  If J reaches P, then J and P agree in degree 2, and J and J'
    agree there (the cubic has no degree-2 part), so J' contains P's
    quadrics and J' = P.  The cubic's one row is work the run need not do.

    So the configuration curve V(P) is the plane quartic {F = 0},
    re-embedded: by check 1, rho* maps R onto the even Veronese subring of
    k[e], and P = rho*^-1((F)), so R/P is the second Veronese subring of
    k[e]/(F), which has the same Proj; V(P) is {F = 0} embedded by nu_2 in
    the P^5 of the span (Hartshorne II Ex. 5.13).  `f_smooth` makes the
    quartic smooth, hence irreducible (two components would meet in a
    singular point), of genus (4 - 1)(4 - 2)/2 = 3, which matches the
    certified (1, 8, 3): one smooth irreducible curve of genus 3."""
    field = F.ring.field
    rx = rho.source
    if len(kernel.basis) != 11:
        raise CertificationError(
            f"preimage of (F) below its Hilbert series: {len(kernel.basis)} kernel forms, not 11"
        )
    equations = x_equations(rx)
    images = [rho(q) for q in equations]
    nfs = reducer([F])(images) if F else images
    for q, nf in zip(equations, nfs):
        if nf:
            raise CertificationError(f"preimage of (F) misses X: the lift maps {q} outside (F)")
    quadrics = [q for q in equations if q.homogeneous_degree() == 2]
    bound = ring_numerator(rx, PREIMAGE_NUMERATOR, 1)
    try:
        out = Ideal(rx, quadrics + kernel.linear_forms(rx), hilbert=bound).reduced()
    except ValueError as exc:
        raise CertificationError(f"preimage of (F) below its Hilbert series: {exc}") from None
    hd = hilbert_data(out)  # read from the numerator the run left with its basis
    if (hd.dimension, hd.numerator) != (1, PREIMAGE_NUMERATOR):
        raise CertificationError(
            f"preimage of (F) has Hilbert numerator {list(hd.numerator)} "
            f"in dimension {hd.dimension}, not {list(PREIMAGE_NUMERATOR)} in dimension 1"
        )
    return out


def _symmetric_leg_ideal(span_forms, leg_cutting, field) -> Ideal:
    """The symmetric leg curve by the duality: Y_inv cut by the P^4 dual,
    under sbsc11, to the configuration span, checked exactly to be the image
    of the full leg curve (Y cut by leg_cutting) under the symmetrization pi.

    The span lies in W = {M = M^t, x = y} (span_forms contain the involution
    forms), and on W bsc17(sigma, z) = sbsc11(sigma, pi z).  So the P^10 of
    the full curve is the pi-preimage of the P^4: the check below compares
    leg_cutting with the pi-pullbacks of the P^4's cutting forms and raises
    CertificationError if their spans differ.  Given that, with 2 invertible,
    the image is this ideal: the first and second fundamental theorems for
    O(2) on the pairs (a_i, b_i) (De Concini-Procesi 1976) identify
    S/I_{Y_inv} with the transpose-invariants of R/I_Y, the Reynolds operator
    (1 + tau)/2 is an S-linear retraction onto them, so
    ker(S -> R/(I_Y + pi^* I_cut)) = I_{Y_inv} + I_cut.  The cut is
    `groebner.certified_cut` on Y_INV_NUMERATOR / (1 - t)^2 (the minors have
    integer coefficients), else a run with no series; either way its
    reduced degrevlex basis is its generator set and is cached."""
    # restrict the span forms to W: substituting m_ji = m_ij and y = x folds
    # the covector entries pairwise
    rows = [push(v, X_NAMES, XINV_NAMES, fold_name, field) for v in span_forms]
    basis = linalg.row_space_basis(rows, field)
    forms = LinearSubspace(XINV_NAMES, "forms", tuple(tuple(r) for r in basis), field)
    cutting = dual_space(forms, sbsc11(), "left").converted()
    pulled = [pull(v, YINV_NAMES, Y_NAMES, pi_name) for v in cutting.basis]
    if linalg.row_space_basis(pulled, field) != linalg.row_space_basis(
        [list(v) for v in leg_cutting], field
    ):
        raise CertificationError(
            "the leg P^10 is not the symmetrization preimage of the dual P^4"
        )
    cut = ideal_Y_inv(field) + cutting.linear_forms(ring_Y_inv(field))
    certified = certified_cut(cut, ring_numerator(cut.ring, Y_INV_NUMERATOR, 1))
    return cut.reduced() if certified is None else certified


def create_infinity_pod(rng_seed: int, field=None, bound: int = 10) -> InfinityPodBundle:
    """Run the construction end to end from a seed.

    The configuration ideal is the involution model plus P, the preimage of
    (F) under the seed's lift map (`rho_preimage`: X cut by the lift's 11
    kernel forms, certified by three exact checks).  The involution forms
    reduce to zero modulo P's basis, so that sum is P and carries P's basis
    and numerator.  Those forms span the configuration forms; the compatible
    legs are cut out of the leg cone Y by the six forms L dual to them, and
    their symmetric image out of Y_inv by the forms dual to the P^4 of the
    symmetric side (`_symmetric_leg_ideal`, which checks exactly that L's
    P^10 is the symmetrization preimage of that P^4, and certifies the cut
    of Y_inv by its leads); the symmetric curve is certified (1, 10, 6).

    The full curve Y + L is certified (1, 20, 11) with no Groebner run on it,
    through the symmetrization pi: z_ij, z_ji -> s_ij, z_ii -> z_ii, l -> l,
    a linear projection from the P^16 of Y to the P^10 of Y_inv:
    1. pi's centre {z_ii = 0, z_ji = -z_ij, l = 0} misses Y: there the
       minor z_ii z_jj - z_ij z_ji is z_ij^2, which vanishes on Y, so z = 0.
       So pi restricted to Y is finite, and keeps the dimension of every
       closed subset.
    2. pi maps Y into Y_inv: pi(z) is the symmetric matrix z + z^t, of rank
       at most 2.
    3. L's P^10 is pi^-1(P^4) (checked), so pi maps Y + L into the
       symmetric curve, and by 1 the dimension of Y + L is at most that
       curve's; CertificationError is raised unless it is 1.
    4. Y is determinantal, hence Cohen-Macaulay (Hochster-Eagon 1971), of
       dimension 7, and six forms cut it in dimension at most 1 = 7 - 6, so
       they are part of a system of parameters, hence a regular sequence
       (Bruns-Herzog, Cohen-Macaulay Rings, Thm 2.1.2), and
       HS(Y + L) = (1 - t)^6 HS(Y) (`cut_regular_sequence`), with HS(Y)
       the Segre series over every field (`models.ideal_Y`).
    A failed certificate raises CertificationError naming the seed.  The
    field must not have characteristic 2."""
    field = field or GF(101)
    seed = draw_seed(rng_seed, field, bound)
    try:
        rho = seed.lift()
        # P has no forms beyond P_1 ((F) is zero in degree 2), so P_1 is the
        # configuration span; its 11 forms become 11 leg points spanning a P^10
        i_lin = lift_kernel(rho).reduced()
        preimage = rho_preimage(rho, seed.F, i_lin)
        p_basis = preimage.groebner_basis()
        if any(reducer(p_basis)(involution_linear_forms(rho.source))):
            raise CertificationError("the involution forms are not in the preimage of (F)")
        config = ideal_X_inv(field) + preimage.generators
        config.seed_groebner_cache(p_basis)
        l_lin = dual_space(i_lin, bsc17(), "left")
        cutting = l_lin.converted()
        leg_sym = _symmetric_leg_ideal(i_lin.basis, cutting.basis, field)
        sym_data = hilbert_data(leg_sym)
        if sym_data.dimension != 1:
            raise CertificationError(
                f"the symmetric leg curve has dimension {sym_data.dimension}, not 1"
            )
        leg_full = cut_regular_sequence(ideal_Y(field), cutting.linear_forms(ring_Y(field)),
                                        ring_numerator(ring_Y(field), SEGRE_NUMERATOR, 1))
    except CertificationError as exc:
        raise CertificationError(f"seed {rng_seed}: {exc}") from None

    certification = {
        "i_lin_dim": len(i_lin.basis),
        "f_smooth": seed.f_smooth,
        "leg_sym": sym_data.triple(),
        "leg_full": hilbert_data(leg_full).triple(),
    }
    return InfinityPodBundle(
        seed=seed,
        config_ideal=config,
        leg_ideal_full=leg_full,
        leg_ideal_sym=leg_sym,
        config_span_forms=i_lin.basis,
        leg_span_points=l_lin.basis,
        certification=certification,
    )


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
    # pull the nine 2x2 minors of the 3x3 block back to the lambda-space:
    # the minors of z(lam) = sum_s lam_s z_s, one kernel row of lam_s lam_t
    # coefficients each; a lam_s^2 coefficient is a minor of one input leg
    lring = RingContext(tuple(f"lam{s}" for s in range(5)), (1,) * 5, DEGREVLEX, field)
    zlam = [[lring.linear_form([v[3 * i + j] for v in vecs]) for j in range(3)] for i in range(3)]

    def lam_st(s, t):  # the exponents of lam_s lam_t
        return [int(i == s) + int(i == t) for i in range(5)]

    pairs = list(itertools.combinations(range(5), 2))
    pair_idx = {p: k for k, p in enumerate(pairs)}
    rows = []
    for minor in minors(zlam, 2):
        if any(not field.is_zero(minor.coefficient(lam_st(s, s))) for s in range(5)):
            raise DualityError("input leg does not lie on the planar cone")
        rows.append([minor.coefficient(lam_st(s, t)) for s, t in pairs])
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

    # lambda is read off one triple (i0; j0, k0) with w_{i0 j0}, w_{i0 k0} and
    # w_{j0 k0} nonzero.  The product check passes for one such triple exactly
    # when w_st = c lam_s lam_t for all s < t, and then it passes for every
    # triple, so the first triple decides.
    triples = (
        (i0, j0, k0)
        for i0 in range(5)
        for j0, k0 in itertools.combinations([m for m in range(5) if m != i0], 2)
        if not any(field.is_zero(wval(s, t)) for s, t in ((i0, j0), (i0, k0), (j0, k0)))
    )
    i0, j0, k0 = next(triples, (None, None, None))
    lam = None
    if i0 is not None:
        # lam_{i0} times lambda
        cand = [
            field.of(wval(i0, j0) * wval(i0, k0) * field.inv(wval(j0, k0))) if m == i0 else wval(i0, m)
            for m in range(5)
        ]
        scale = cand[i0] * cand[j0] * field.inv(wval(i0, j0))
        if all(field.is_zero(cand[s] * cand[t] - scale * wval(s, t)) for s, t in pairs):
            lam = cand
    if lam is None:
        raise DualityError("special pentapod: residual point not recoverable from products")
    coords = linalg.mat_vec(list(zip(*vecs)), lam, field)
    full = push(coords, YP_NAMES, Y_NAMES, same_name, field)
    return point_to_leg(LegPoint(tuple(full[i:i + 4] for i in range(0, 16, 4)), full[16], field))


def pentapod_config_ideal(legs) -> Ideal:
    """Configurations of a pentapod: the isometry model cut by the five
    sphere-condition hyperplanes in P^16, saturated at h = 0.

    The cut J = E + Q + forms (E the `x_equations`, Q the
    `x_closure_quadrics`) carries boundary points on h = 0 (X is a
    closure, so they satisfy it); a pose has h != 0.  The result is
    J : h^infinity, whose points are the closure of the poses: the two
    differ only inside h = 0, so no pose is lost.

    J is `groebner.certified_cut` on X_NUMERATOR / (1 - t)^2 (E and Q have
    integer coefficients): no lead of the basis it certifies involves h, so
    J is its own saturation (Bayer's lemma, see `groebner.saturate`).  The
    route needs no basis of X and no Cohen-Macaulay fact about X.  When the
    leads do not certify the run, `saturate` finds J : h^infinity from J's
    unbounded basis.  Special pentapods take that route: a congruent
    platform (a_i = b_i) gives a cut of degree 40 whose saturation has
    degree 32, and a collinear base a surface whose saturation is a curve
    of degree 16.  Either way the result's reduced degrevlex basis is its
    generator set and is cached, so its slices get a Hilbert-series bound
    for free."""
    field = legs[0].field
    ring = ring_X(field)
    points = tuple(leg_to_point(leg).coords() for leg in legs)
    forms = dual_space(LinearSubspace(Y_NAMES, "points", points, field), bsc17(), "right")
    cut = ideal_X(field) + forms.linear_forms(ring)
    certified = certified_cut(cut, ring_numerator(ring, X_NUMERATOR, 1))
    return saturate(cut, "h") if certified is None else certified


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
    span = LinearSubspace(YP_NAMES, "points", tuple(vecs), field)
    curve = ideal_Y_p(field) + span.linear_forms(ring_Y_p(field))
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
    # mod p the product is trimmed, so a zero top coefficient is padded back
    quartics = []
    for i in range(3):
        for j in range(3):
            q = unipoly.mul(f[i], g[j], field.characteristic)
            quartics.append(q + [field.zero] * (5 - len(q)))
    lvec = [field.of(rng.randint(-10, 10)) for _ in range(9)]
    quartics.append(linalg.mat_vec(list(zip(*quartics)), lvec, field))
    span_rank = linalg.rank([list(q) for q in quartics], field)
    if span_rank != 5:
        raise DegenerateSeedError(f"lift spans a P^{span_rank - 1}, expected exactly a P^4")
    span = LinearSubspace(YP_NAMES, "points", tuple(zip(*quartics)), field)
    leg_ideal = ideal_Y_p(field) + span.linear_forms(ring_Y_p(field))
    config_forms = dual_space(span, bsc_planar10(), "right")
    config_ideal = ideal_X_p(field) + config_forms.linear_forms(ring_X_p(field))
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


def cubic_line_symmetric(rng_seed: int, field=None, bound: int = 10) -> CubicPodBundle:
    """A planar line-symmetric infinity pod: a general plane section of the
    planar symmetric cone (a plane cubic of genus one) and the dual curve of
    configurations (degree six)."""
    field = field or GF(101)
    rng = random.Random(rng_seed)
    for _ in range(RETRIES + 1):
        pts = [[field.of(rng.randint(-bound, bound)) for _ in range(7)] for _ in range(3)]
        if linalg.rank(pts, field) != 3:
            last = "plane points dependent"
            continue
        plane = LinearSubspace(YPINV_NAMES, "points", tuple(tuple(r) for r in pts), field)
        rypi = ring_Y_pinv(field)
        leg_ideal = ideal_Y_pinv(field) + plane.linear_forms(rypi)
        hd_leg = hilbert_data(leg_ideal)
        if hd_leg.triple() != (1, 3, 1):
            last = f"leg section not a plane cubic: {hd_leg.triple()}"
            continue
        # smoothness of the plane cubic, on the plane's own coordinates
        uring = RingContext(("u0", "u1", "u2"), (1, 1, 1), DEGREVLEX, field)
        restrict = RingMap(rypi, uring, [uring.linear_form(col) for col in zip(*pts)])
        cubic_u = restrict(y_pinv_cubic(rypi))
        if cubic_u.is_zero():
            last = "plane lies inside the cone"
            continue
        jac = Ideal(uring, [cubic_u.derivative(n) for n in ("u0", "u1", "u2")])
        if hilbert_data(jac).dimension != -1:
            last = "plane section is a singular cubic"
            continue
        config_forms = dual_space(plane, sbsc_planar7(), "right")
        config_ideal = ideal_X_pinv(field) + config_forms.linear_forms(ring_X_pinv(field))
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


def _lfree_cutting_forms(points, field) -> list:
    """The covectors of the linear forms vanishing on the span of `points`
    whose coefficient of the last coordinate, l, is zero."""
    cutting = linalg.matrix_kernel([list(p) for p in points], field)
    combos = linalg.matrix_kernel([[v[-1] for v in cutting]], field)
    columns = [list(col) for col in zip(*cutting)]
    return [linalg.mat_vec(columns, c, field) for c in combos]


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


def symmetroid_pencil(bundle: CubicPodBundle) -> SymmetroidPencil:
    """Expand det(w0 E + w1 A1 + w2 A2 + w3 A3) = w0 H and locate the nodes
    of the cubic symmetroid H = 0.  With E = diag(0, 1, 1, 1) and a zero last
    row and column in every A_k, the last row is (0, 0, 0, w0), so H is the
    leading 3 x 3 minor; the expanded determinant is checked against w0 H."""
    field = bundle.field
    forms11 = [push(v, XPINV_NAMES, XINV_NAMES, same_name, field) for v in bundle.config_forms]
    trace = tuple(field.one if n in ("m11", "m22", "m33", "h") else field.zero for n in XINV_NAMES)
    basis_forms = [trace] + forms11
    forms = LinearSubspace(XINV_NAMES, "forms", tuple(tuple(v) for v in basis_forms), field)
    gamma = dual_space(forms, sbsc11(), "left")

    def sym(p):
        return [[field.of(c) for c in row] for row in symmetric_matrix(p, YINV_NAMES)]

    pts = [list(p) for p in gamma.basis]
    # normalize the first point to the printed corner matrix diag(0,1,1,1)
    e_mat = sym(pts[0])
    if not field.is_zero(e_mat[0][0]):
        raise CertificationError("dual of the trace form has a corner entry")
    scale = field.inv(e_mat[1][1])
    pts[0] = [field.of(scale * c) for c in pts[0]]
    mats = [sym(p) for p in pts]
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
    entries = [[wring.linear_form([E[i][j]] + [a[i][j] for a in A]) for j in range(4)]
               for i in range(4)]
    (det,) = minors(entries, 4)
    (H,) = minors([row[:3] for row in entries[:3]], 3)
    if det != wring.gen("w0") * H:
        raise CertificationError("determinant is not w0 times the leading 3 x 3 minor")
    jac = Ideal(wring, [H.derivative(n) for n in ("w0", "w1", "w2", "w3")])
    hd = hilbert_data(jac)
    nodes = ()
    node_scheme_degree = 0
    if hd.dimension == 0:
        node_scheme_degree = hd.degree
        nodes = tuple(solve_zero_dimensional(jac))
    elif hd.dimension > 0:
        raise CertificationError("symmetroid singular locus is positive-dimensional")
    columns = list(zip(*pts))
    node_pts = [tuple(linalg.mat_vec(columns, nd, field)) for nd in nodes]
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


# ---------------------------------------------------------------------------
# Base curve of the infinity pod
# ---------------------------------------------------------------------------


def base_curve(bundle: InfinityPodBundle) -> Ideal:
    """Project the full leg curve to its base anchor points in P^3.

    The l-free span forms pull back through the rank-one factorization
    z_ij = a_i b_j to five bilinear forms sum_j L_cj(a) b_j; eliminating the
    b factor (with its irrelevant locus saturated away) is exactly the rank
    condition on the 5 x 4 coefficient matrix, so the base ideal is generated
    by its five maximal minors."""
    field = bundle.seed.field
    # the l-free cutting forms pull back to P^3 x P^3
    lfree = _lfree_cutting_forms(bundle.leg_span_points, field)
    if len(lfree) != 5:
        raise CertificationError("leg span does not project cleanly (vertex issue)")
    ring3 = RingContext(("a0", "a1", "a2", "a3"), (1,) * 4, DEGREVLEX, field)
    # row c, column j: the linear form multiplying b_j
    rows = [[ring3.linear_form(v[j:16:4]) for j in range(4)] for v in lfree]
    return Ideal(ring3, minors(rows, 4))
