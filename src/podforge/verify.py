"""Exact point sampling on curves over finite fields, real configuration and
leg extraction over Q, and end-to-end pod certification.

Finite-field sampling is the primary certification path: a random hyperplane
slice of a curve is a zero-dimensional scheme, and `multiplication_data`
builds one multiplication map A = M0^-1 M1 on its quotient.  The evaluation
functionals of the points are the left eigenvectors of A (Auzinger-Stetter),
and one reader, the columns M0^-1 NF(x_i * b_j), turns each eigenvector into
its point; over GF(p) every emitted point is verified exactly against all
generators.  Legs come from slices of the symmetric leg curve, each point
factored into its leg pair: by `recover_leg_pairs` over GF(p), and over Q
after exact Sturm sequences isolate the roots of A's characteristic
polynomial, so that no real root is spurious or missed, and the same columns
read the points from A's float left eigenvectors, by `recover_leg_pairs_float`.  All univariate
arithmetic (roots over GF(p), Sturm sequences, the Newton polish) runs on the
coefficient lists of `unipoly`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import accumulate

from . import linalg, unipoly
from .fields import QQ
from .groebner import Ideal, hilbert_data, reducer, standard_monomials
from .duality import ComplexLegError, DualityError, bsc17, leg_to_point, recover_leg_pairs, recover_leg_pairs_float
from .rings import Polynomial


class SamplingError(RuntimeError):
    """A sampling budget ran out before enough points were found."""


# ---------------------------------------------------------------------------
# Univariate roots over GF(p)
# ---------------------------------------------------------------------------


def roots_mod_p(coeffs, p, rng=None):
    """Distinct roots in GF(p) of a univariate polynomial (ascending ints)."""
    c = unipoly.trim(coeffs, p)
    if not c:
        raise ValueError("zero polynomial")
    roots = []
    if c[0] == 0:
        roots.append(0)
        while c and c[0] == 0:
            c = c[1:]
    if len(c) <= 1:
        return sorted(roots)
    if p <= 4096:
        for x in range(p):
            if unipoly.evaluate(c, x, p) == 0 and x not in roots:
                roots.append(x)
        return sorted(roots)
    # Cantor-Zassenhaus: split the product of linear factors
    rng = rng or random.Random(0xC2)
    xp = unipoly.powmod([0, 1], p, c, p)
    lin = unipoly.gcd(unipoly.add(xp, [0, 1], scale=-1, p=p), c, p)
    stack = [lin]
    while stack:
        f = stack.pop()
        if len(f) <= 1:
            continue
        if len(f) == 2:
            roots.append(-f[0] * pow(f[1], p - 2, p) % p)
            continue
        while True:
            a = rng.randrange(p)
            probe = unipoly.powmod([a, 1], (p - 1) // 2, f, p)
            g = unipoly.gcd(unipoly.add(probe, [1], scale=-1, p=p), f, p)
            if 0 < len(g) - 1 < len(f) - 1:
                stack.append(g)
                stack.append(unipoly.divmod(f, g, p)[0])
                break
    return sorted(set(roots))


# ---------------------------------------------------------------------------
# Zero-dimensional solving via multiplication matrices
# ---------------------------------------------------------------------------


def _random_form(ring, rng, lo, hi):
    """A linear form with coefficients drawn uniformly from [lo, hi]."""
    return ring.linear_form([rng.randint(lo, hi) for _ in range(ring.n)])


def multiplication_data(ideal: Ideal, rng=None):
    """The multiplication map of a zero-dimensional projective quotient for
    one draw of two random linear forms ell_0, ell_1: returns (A, columns)
    with A = M0^-1 M1, and raises SamplingError when M0 is singular.

    b_1..b_d are the degree-t standard monomials for the least t >= 1 with
    HF(t) = HF(t + 1) = degree, read off the partial sums of the Hilbert
    numerator.  M_i is d x d with column j the coordinates of
    NF(ell_i * b_j) over the degree-(t + 1) standard monomials.  A is
    multiplication by ell_1 / ell_0 on the degree-t part: the evaluation
    functional v of a point p on the b_j is a left eigenvector of A with
    eigenvalue ell_1(p) / ell_0(p).  Since v M0^-1 is the evaluation
    functional of p in degree t + 1 divided by ell_0(p), `columns(j)`
    returns, for each variable x_i, c_i = M0^-1 NF(x_i * b_j) with
    v . c_i = x_i(p) v_j / ell_0(p): the point up to scale when v_j != 0.
    The 2d products ell_i * b_j go to one `reducer` call as one list, and so
    do each call's n products x_i * b_j, so that over GF(p) each list is
    reduced as one matrix."""
    ring = ideal.ring
    field = ring.field
    hd = hilbert_data(ideal)
    if hd.dimension != 0:
        raise ValueError(f"expected a zero-dimensional scheme, got dimension {hd.dimension}")
    d = hd.degree
    hf = list(accumulate(hd.numerator)) + [d, d]
    t = next(s for s in range(1, len(hf) - 1) if hf[s] == hf[s + 1] == d)
    reduce = reducer(ideal.groebner_basis())
    bt = standard_monomials(ideal, t)
    idx1 = {m: i for i, m in enumerate(standard_monomials(ideal, t + 1))}

    def nfs(products):
        """The coordinates of the products' normal forms over the
        degree-(t + 1) basis, reduced as one list."""
        vecs = []
        for r in reduce(products):
            vec = [field.zero] * d
            for mm, c in r.terms.items():
                vec[idx1[mm]] = c
            vecs.append(vec)
        return vecs

    rng = rng or random.Random(0x5EED)
    ell0, ell1 = [_random_form(ring, rng, 0, 1000) for _ in range(2)]
    m01 = nfs([ell.mul_term(m, field.one) for ell in (ell0, ell1) for m in bt])
    try:
        minv = linalg.mat_inverse(linalg._transpose(m01[:d]), field)
    except ValueError:
        raise SamplingError("M0 is singular: ell_0 vanishes at a point") from None

    def columns(j):
        products = [x.mul_term(bt[j], field.one) for x in ring.gens()]
        return [linalg.mat_vec(minv, v, field) for v in nfs(products)]

    return linalg.mat_mul(minv, linalg._transpose(m01[d:]), field), columns


_FORM_DRAWS = 20  # draws of the two random forms before a solve gives up
REFINE_WIDTH = Fraction(1, 10 ** 12)  # width of the intervals refine_root returns
NEWTON_STEPS = 6  # Newton steps of polish_float_root
SLICES = 25  # hyperplanes a curve's slice loop draws before it gives up
REAL_CONFIG_GRID = 40  # real_configurations sweeps e2 over 2 * REAL_CONFIG_GRID + 1 values


def solve_zero_dimensional(ideal: Ideal, rng=None):
    """All rational points of a zero-dimensional projective scheme over its
    field, each verified exactly against every generator.

    Each draw of forms gives a multiplication map A (`multiplication_data`);
    each point is read through `columns` from its left eigenvector of A, the
    point's evaluation functional.  A draw is spent when M0 is singular, or
    when two points at which the forms take the same ratio share an
    eigenspace, whose vectors mix them; SamplingError is raised after
    _FORM_DRAWS draws."""
    field = ideal.ring.field
    if field is QQ:
        raise ValueError("rational-point enumeration is a finite-field path")
    p = field.p
    form_rng = rng or random.Random(0x5EED)
    for _ in range(_FORM_DRAWS):
        try:
            A, columns = multiplication_data(ideal, form_rng)
        except SamplingError:
            continue  # M0 is singular
        lambdas = roots_mod_p(linalg.charpoly(A, field), p, rng)
        at = linalg._transpose(A)
        points = []
        for lam in lambdas:
            shifted = [[x - lam if i == j else x for j, x in enumerate(row)]
                       for i, row in enumerate(at)]
            kernel = linalg.matrix_kernel(shifted, field)
            if len(kernel) > 1:
                break
            for v in kernel:
                j = next(j for j, c in enumerate(v) if not field.is_zero(c))
                pt = linalg.mat_vec(columns(j), v, field)
                if all(field.is_zero(c) for c in pt) or not ideal.contains_point(pt):
                    continue
                lead = field.inv(next(c for c in pt if not field.is_zero(c)))
                norm = tuple(field.of(lead * c) for c in pt)
                if norm not in points:
                    points.append(norm)
        else:
            return points
    raise SamplingError(
        f"random forms did not separate the rational points in {_FORM_DRAWS} draws "
        f"(a singular M0 or an eigenspace of dimension 2 or more each time)"
    )


def _slices(ideal: Ideal, rng, lo: int, hi: int):
    """The zero-dimensional hyperplane slices of a curve, as a generator:
    SLICES random forms with coefficients drawn from [lo, hi], each cutting
    the curve unless it is zero or the hyperplane contains a component.
    Raises ValueError unless the ideal is a curve."""
    hd = hilbert_data(ideal)
    if hd.dimension != 1:
        raise ValueError(f"expected a curve, got dimension {hd.dimension}")
    for _ in range(SLICES):
        hyper = _random_form(ideal.ring, rng, lo, hi)
        if hyper.is_zero():
            continue
        sliced = ideal + [hyper]
        if hilbert_data(sliced).dimension == 0:
            yield sliced


def curve_points(ideal: Ideal, rng=None):
    """The GF(p) points of a one-dimensional scheme, each once, as a
    generator: the slices of `_slices`, each solved exactly.  A slice whose
    points are not separated (SamplingError) is skipped; any other error
    propagates."""
    rng = rng or random.Random(1)
    field = ideal.ring.field
    if field is QQ:
        raise ValueError("curve point sampling runs over a finite field")
    seen = set()
    for sliced in _slices(ideal, rng, 0, field.p - 1):
        try:
            pts = solve_zero_dimensional(sliced, rng=rng)
        except SamplingError:
            continue
        for pt in pts:
            if pt not in seen:
                seen.add(pt)
                yield pt


def exact_legs(bundle, count: int, rng):
    """At least `count` legs of a bundle over GF(p), as points of the full leg
    cone in (a, b), (b, a) pairs: the exact mirror of `real_legs`.
    `recover_leg_pairs` factors each point of the symmetric leg curve
    (`curve_points`); a point whose pair lies over GF(p^2), or that it
    rejects (an anchor at infinity), is skipped.  SamplingError is raised
    when the slices run out first."""
    legs = []
    for pt in curve_points(bundle.leg_ideal_sym, rng):
        try:
            pair = recover_leg_pairs(pt, bundle.seed.field).legs
        except DualityError:
            continue
        if pair is not None:
            legs += [leg_to_point(leg).coords() for leg in pair]
            if len(legs) >= count:
                return legs
    raise SamplingError(f"found {len(legs)} legs after {SLICES} slices")


# ---------------------------------------------------------------------------
# Exact Sturm sequences and real roots over Q
# ---------------------------------------------------------------------------


def _squarefree_part(coeffs):
    """The primitive square-free part f / gcd(f, f') of a polynomial over Q."""
    f = unipoly.normalized(coeffs)
    if len(f) > 1:
        g = unipoly.gcd(f, unipoly.derivative(f))
        if len(g) > 1:
            f = unipoly.normalized(unipoly.divmod(f, g)[0])
    return f


def sturm_sequence(coeffs):
    """Sturm sequence of the square-free part, coefficients ascending.

    Every member is content-normalized to primitive integers (a positive
    rescaling, harmless for sign variations); remainders are computed on the
    small primitive representatives, which keeps the classical coefficient
    explosion of the raw Euclidean sequence in check."""
    f = _squarefree_part(coeffs)
    if len(f) <= 1:
        return [f] if f else []
    seq = [f, unipoly.normalized(unipoly.derivative(f))]
    while True:
        r = unipoly.divmod(seq[-2], seq[-1])[1]
        if not r:
            break
        seq.append(unipoly.normalized([-c for c in r]))
    return seq


def _variations(values):
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(seq, lo, hi):
    """Number of distinct real roots in (lo, hi]."""
    va = _variations([unipoly.evaluate(f, lo) for f in seq])
    vb = _variations([unipoly.evaluate(f, hi) for f in seq])
    return va - vb


def cauchy_bound(coeffs):
    c = unipoly.trim([Fraction(x) for x in coeffs])
    lead = abs(c[-1])
    return 1 + max((abs(x) / lead for x in c[:-1]), default=Fraction(0))


def isolate_real_roots(coeffs):
    """Disjoint open-ish rational intervals, one simple root each, via exact
    Sturm bisection.  Interval endpoints are never roots."""
    f = unipoly.trim([Fraction(c) for c in coeffs])
    if len(f) <= 1:
        return []
    seq = sturm_sequence(f)
    bound = cauchy_bound(f)
    lo, hi = -bound - 1, bound + 1
    while unipoly.evaluate(seq[0], lo) == 0:
        lo -= 1
    while unipoly.evaluate(seq[0], hi) == 0:
        hi += 1
    total = sturm_count(seq, lo, hi)
    out = []
    stack = [(lo, hi, total)]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        while unipoly.evaluate(seq[0], mid) == 0:
            mid = mid + (b - a) / 997  # tiny rational nudge off the root
        nl = sturm_count(seq, a, mid)
        stack.append((a, mid, nl))
        stack.append((mid, b, n - nl))
    out.sort()
    return out


def refine_root(coeffs, interval):
    """Shrink an isolating interval by exact bisection to width <= REFINE_WIDTH.

    When f changes sign across the interval its root there has odd
    multiplicity, and f is its square-free part times a factor of constant
    sign on the interval, so bisecting f itself gives the same intervals.
    The square-free part is computed only for a root of even multiplicity."""
    f = unipoly.normalized([Fraction(c) for c in coeffs])
    if not f:
        raise ValueError("zero polynomial")
    a, b = interval
    fa = unipoly.evaluate(f, a)
    if fa * unipoly.evaluate(f, b) >= 0:
        f = _squarefree_part(f)
        fa = unipoly.evaluate(f, a)
    while b - a > REFINE_WIDTH:
        mid = (a + b) / 2
        fm = unipoly.evaluate(f, mid)
        if fm == 0:
            # exact root: collapse to a degenerate interval at mid
            return (mid, mid)
        if (fa > 0) != (fm > 0):
            b = mid
        else:
            a, fa = mid, fm
    return (a, b)


def polish_float_root(coeffs, x0: float) -> float:
    c = [float(x) for x in coeffs]
    dc = unipoly.derivative(c)
    x = x0
    for _ in range(NEWTON_STEPS):
        d = unipoly.evaluate(dc, x)
        if d == 0:
            break
        x = x - unipoly.evaluate(c, x) / d
    return x


# ---------------------------------------------------------------------------
# Real configurations and legs
# ---------------------------------------------------------------------------


@dataclass
class RealConfiguration:
    """A half-turn configuration extracted over the reals."""

    euler: tuple  # (e1, e2, e3) floats
    rotation: tuple  # 3x3 floats, orthogonal with trace -1
    translation: tuple  # y/h
    coords: tuple  # 17 floats, h-normalized


def real_configurations(seed, count: int):
    """Real points of the plane quartic, swept on a rational grid in e2 with
    e3 = 1 and exact Sturm isolation in e1, lifted through the construction
    map and normalized to affine half-turns."""
    if seed.field is not QQ:
        raise ValueError("real extraction requires a rational seed")
    rho = seed.lift()
    grid = REAL_CONFIG_GRID
    out = []
    for k in range(-grid, grid + 1):
        if len(out) >= count:
            break
        e2 = Fraction(k, grid // 8)
        uni = substitute_e2(seed.F, e2)
        if len(uni) <= 1:
            continue
        for interval in isolate_real_roots(uni):
            a, b = refine_root(uni, interval)
            x = polish_float_root(uni, float((a + b) / 2))
            cfg = _config_from_euler(rho, (x, float(e2), 1.0))
            if cfg is not None:
                out.append(cfg)
                if len(out) >= count:
                    break
    if not out:
        import warnings

        warnings.warn(
            f"no real configurations found: the quartic has no real points on "
            f"the {2 * grid + 1}-value sweep grid (it may be definite)"
        )
    return out


def substitute_e2(F: Polynomial, e2):
    """F(e1, e2, 1) for a ternary form F in (e1, e2, e3) as ascending
    coefficients in e1, field scalars of F's field, trimmed ([] when F
    vanishes on the line)."""
    coeffs = {}
    for m, c in F.terms.items():
        d1, d2, _ = F.ring.unpack(m)
        coeffs[d1] = coeffs.get(d1, 0) + c * e2 ** d2
    of = F.ring.field.of
    return unipoly.trim([of(coeffs.get(i, 0)) for i in range(max(coeffs, default=-1) + 1)])


def _config_from_euler(rho, e_values):
    vals = [float(v) for v in e_values]
    coords = [img.evaluate_float(vals) for img in rho.images]
    h = coords[16]
    if abs(h) < 1e-14:
        return None
    c = [v / h for v in coords]
    rot = tuple(tuple(c[3 * i + j] for j in range(3)) for i in range(3))
    trans = tuple(c[12:15])
    return RealConfiguration(tuple(vals), rot, trans, tuple(c))


@dataclass
class RealLeg:
    a: tuple
    b: tuple
    d2: float
    realizable: bool  # d2 > 0
    coords: tuple  # 17 floats on the leg side, z00-normalized


def _real_leg(a, b, d2):
    """The leg (a, b, d2) with its point z_ij = a~_i b~_j, l = |a|^2 + |b|^2 - d2
    (the float form of `leg_to_point`)."""
    at, bt = (1.0, *map(float, a)), (1.0, *map(float, b))
    l = sum(x * x for x in at[1:] + bt[1:]) - d2
    return RealLeg(at[1:], bt[1:], d2, d2 > 0, tuple(x * y for x in at for y in bt) + (l,))


def real_legs(bundle, count: int, rng=None):
    """At least `count` real legs of a bundle over Q, in (a, b), (b, a) pairs.

    Random rational hyperplanes slice the degree-10 symmetric leg curve
    (`_slices`), and each slice is read as over GF(p): the real roots of the
    charpoly of A are isolated exactly by Sturm sequences and refined, and a
    root's point is read through `columns` from the float left eigenvector
    of A (the null vector of (A - lam I)^t); a slice whose draw gives a
    singular M0 is skipped.
    `recover_leg_pairs_float` factors the point into its leg pair; both
    (a, b) and (b, a) are legs, because the full leg curve is the 2:1
    preimage of the symmetric one.  A point whose pair is complex, whose
    anchor is at infinity or that is off the symmetric cone is skipped."""
    import numpy as np

    field = bundle.seed.field
    if field is not QQ:
        raise ValueError("real leg extraction requires a rational bundle")
    rng = rng or random.Random(11)
    legs = []
    slice_degrees = []
    for sliced in _slices(bundle.leg_ideal_sym, rng, -9, 9):
        try:
            A, columns = multiplication_data(sliced, rng)
        except SamplingError:
            continue
        cp = linalg.charpoly(A, QQ)
        slice_degrees.append(len(cp) - 1)
        af = np.array([[float(c) for c in row] for row in A])
        for interval in isolate_real_roots(cp):
            a, b = refine_root(cp, interval)
            lam = polish_float_root(cp, float((a + b) / 2))
            _u, s, vh = np.linalg.svd((af - lam * np.eye(len(af))).T)
            if s[-1] > 1e-6 * max(1.0, s[0]):
                continue
            v = vh[-1]  # the point's evaluation functional
            cols = columns(int(np.argmax(np.abs(v))))
            coords = np.array([[float(c) for c in col] for col in cols]) @ v
            try:
                la, lb, d2 = recover_leg_pairs_float(coords / np.max(np.abs(coords)))
            except (ComplexLegError, DualityError):
                continue
            legs += [_real_leg(la, lb, d2), _real_leg(lb, la, d2)]
            if len(legs) >= count:
                return legs
    raise SamplingError(
        f"found {len(legs)} real legs after {SLICES} slices (slice degrees {slice_degrees})"
    )


# ---------------------------------------------------------------------------
# End-to-end pod checking
# ---------------------------------------------------------------------------


@dataclass
class PodReport:
    """Residual table of the sphere pairing over (configurations x legs)."""

    pod_id: str
    mode: str
    residuals: list = dc_field(default_factory=list)  # (i, j, value or float)
    max_abs: float = 0.0
    tol: float = 0.0
    n_configs: int = 0
    n_legs: int = 0
    n_real_legs: int = 0
    certification: dict = dc_field(default_factory=dict)
    configs_off_bundle: list = dc_field(default_factory=list)  # off the bundle's config ideal
    legs_off_bundle: list = dc_field(default_factory=list)  # off the bundle's leg_ideal_full
    bundle_mismatch: list = dc_field(default_factory=list)  # entries that differ from the rebuild

    @property
    def ok(self) -> bool:
        """No check failed, and at least one (configuration, leg) pair was checked."""
        if not self.residuals or self.configs_off_bundle or self.legs_off_bundle or self.bundle_mismatch:
            return False
        return self.residuals_ok

    @property
    def residuals_ok(self) -> bool:
        """Every residual is zero (exact mode) or within tolerance (float mode)."""
        return all(entry[3] for entry in self.residuals)

    def to_json(self) -> dict:
        """The report; `configs_off_bundle`, `legs_off_bundle` and
        `bundle_mismatch` appear only when they are nonempty."""
        out = {
            "pod_id": self.pod_id,
            "mode": self.mode,
            "ok": self.ok,
            "max_abs": self.max_abs,
            "tol": self.tol,
            "n_configs": self.n_configs,
            "n_legs": self.n_legs,
            "n_real_legs": self.n_real_legs,
            "certification": self.certification,
            "residuals": [
                {"config": i, "leg": j, "value": str(v), "ok": ok}
                for i, j, v, ok in self.residuals
            ],
        }
        if self.configs_off_bundle:
            out["configs_off_bundle"] = self.configs_off_bundle
        if self.legs_off_bundle:
            out["legs_off_bundle"] = self.legs_off_bundle
        if self.bundle_mismatch:
            out["bundle_mismatch"] = self.bundle_mismatch
        return out


def check_pod(configs, legs, mode: str = "exact", tol: float = 1e-9, pod_id: str = "pod",
              certification=None) -> PodReport:
    """Evaluate the sphere pairing on every (configuration, leg) pair.

    exact mode: entries are (coordinate tuple, field) pairs over one exact
    field and every residual must be identically zero.  float mode: entries are float
    coordinate tuples and |value| <= tol * (1 + |l h| + |r|)."""
    report = PodReport(pod_id=pod_id, mode=mode, tol=tol,
                       n_configs=len(configs), n_legs=len(legs),
                       certification=certification or {})
    B = bsc17()
    if mode == "exact":
        for i, (cfg_coords, field) in enumerate(configs):
            for j, (leg_coords, f2) in enumerate(legs):
                if f2 is not field:
                    raise ValueError("mixed fields in exact check")
                val = field.of(B.evaluate(cfg_coords, leg_coords))
                report.residuals.append((i, j, val, field.is_zero(val)))
        return report
    if mode != "float":
        raise ValueError("mode must be 'exact' or 'float'")
    for i, cfg in enumerate(configs):
        c = cfg.coords if isinstance(cfg, RealConfiguration) else tuple(float(v) for v in cfg)
        for j, leg in enumerate(legs):
            z = leg.coords if isinstance(leg, RealLeg) else tuple(float(v) for v in leg)
            val = float(B.evaluate(c, z))  # 0.0, not 0, when every row is skipped
            scale = 1.0 + abs(z[16] * c[16]) + abs(c[15])
            ok = abs(val) <= tol * scale
            report.residuals.append((i, j, val, ok))
            report.max_abs = max(report.max_abs, abs(val))
    if isinstance(legs, list):
        report.n_real_legs = sum(1 for leg in legs if isinstance(leg, RealLeg) and leg.realizable)
    return report

