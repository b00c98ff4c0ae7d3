"""Exact point sampling on curves over finite fields, real configuration and
leg extraction over Q, and end-to-end pod certification.

Finite-field sampling is the primary certification path: a random hyperplane
slice of a curve is a zero-dimensional scheme, its points are read off the
generalized eigenvalue problem of two generic multiplication maps on the
quotient, and every emitted point is verified exactly against all generators.
The real path isolates univariate roots with exact Sturm sequences before any
floating refinement, so no real root is spurious or missed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import linalg
from .fields import QQ
from .groebner import Ideal, hilbert_data, reduce_by_basis, standard_monomials
from .models import EULER_NAMES, IsometryPoint, Leg, sum_
from .duality import bsc17, leg_to_point
from .rings import EXP_BITS, EXP_MASK, Polynomial


class SamplingError(RuntimeError):
    """A sampling budget ran out before enough points were found."""


# ---------------------------------------------------------------------------
# Univariate roots over GF(p)
# ---------------------------------------------------------------------------


def _poly_mod_trim(c, p):
    c = [x % p for x in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod_divmod(a, b, p):
    a = list(a)
    binv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        f = a[i + len(b) - 1] * binv % p
        if f:
            q[i] = f
            for j, bc in enumerate(b):
                a[i + j] = (a[i + j] - f * bc) % p
    return q, _poly_mod_trim(a[: len(b) - 1], p)


def _poly_mod_gcd(a, b, p):
    a, b = _poly_mod_trim(a, p), _poly_mod_trim(b, p)
    while b:
        a, b = b, _poly_mod_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a

def _poly_mod_mulmod(a, b, m, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_mod_divmod(out, m, p)[1] if len(out) >= len(m) else _poly_mod_trim(out, p)


def _poly_mod_powmod(base, e, m, p):
    result = [1]
    base = _poly_mod_divmod(base, m, p)[1] if len(base) >= len(m) else list(base)
    while e:
        if e & 1:
            result = _poly_mod_mulmod(result, base, m, p)
        e >>= 1
        if e:
            base = _poly_mod_mulmod(base, base, m, p)
    return result


def roots_mod_p(coeffs, p, rng=None):
    """Distinct roots in GF(p) of a univariate polynomial (ascending ints)."""
    c = _poly_mod_trim(coeffs, p)
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
            acc = 0
            for cc in reversed(c):
                acc = (acc * x + cc) % p
            if acc == 0 and x not in roots:
                roots.append(x)
        return sorted(roots)
    # Cantor-Zassenhaus: split the product of linear factors
    rng = rng or random.Random(0xC2)
    xp = _poly_mod_powmod([0, 1], p, c, p)
    lin = _poly_mod_gcd([(a - b) % p for a, b in _zip_pad(xp, [0, 1])], c, p)
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
            probe = _poly_mod_powmod([a, 1], (p - 1) // 2, f, p)
            probe = _poly_mod_trim([(probe[0] - 1) % p] + probe[1:], p) if probe else [p - 1]
            g = _poly_mod_gcd(probe, f, p)
            if 0 < len(g) - 1 < len(f) - 1:
                stack.append(g)
                stack.append(_poly_mod_divmod(f, g, p)[0])
                break
    return sorted(set(roots))


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


# ---------------------------------------------------------------------------
# Zero-dimensional solving via multiplication matrices
# ---------------------------------------------------------------------------


def _nf_in_basis(poly, gb, basis_index, ring):
    """Normal form of poly expanded over an indexed standard-monomial basis."""
    nf = reduce_by_basis(poly, gb)
    vec = [ring.field.zero] * len(basis_index)
    for m, c in nf.terms.items():
        vec[basis_index[m]] = c
    return vec


def multiplication_data(ideal: Ideal, rng=None, max_degree=40):
    """Two generic multiplication maps on a zero-dimensional projective
    quotient: returns (basis_t, basis_t1, M0, M1, ell0, ell1).

    M_i is d x d with column j the coordinates of NF(ell_i * basis_t[j]) in
    basis_t1; M0 is invertible for generic forms."""
    ring = ideal.ring
    field = ring.field
    hd = hilbert_data(ideal)
    if hd.dimension != 0:
        raise ValueError(f"expected a zero-dimensional scheme, got dimension {hd.dimension}")
    d = hd.degree
    gb = ideal.groebner_basis()
    t = 1
    while True:
        bt = standard_monomials(ideal, t)
        if len(bt) == d:
            bt1 = standard_monomials(ideal, t + 1)
            if len(bt1) == d:
                break
        if t > max_degree:
            raise SamplingError("Hilbert function did not stabilize")
        t += 1
    idx1 = {m: i for i, m in enumerate(bt1)}
    rng = rng or random.Random(0x5EED)
    gens = ring.gens()
    for _ in range(20):
        ells = []
        for _ in range(2):
            ells.append(
                sum((g.scale(field.of(rng.randint(0, 1000))) for g in gens), ring.zero())
            )
        mats = []
        for ell in ells:
            cols = []
            for m in bt:
                cols.append(_nf_in_basis(ell.mul_term(m, field.one), gb, idx1, ring))
            mats.append([list(row) for row in zip(*cols)])
        try:
            linalg.mat_inverse(mats[0], field)
        except ValueError:
            continue
        return bt, bt1, mats[0], mats[1], ells[0], ells[1]
    raise SamplingError("no invertible multiplication map found")


def _recover_point(v, bt, gb, ring):
    """Coordinates of a point from its evaluation functional on basis_t."""
    field = ring.field
    j_star = None
    for j, val in enumerate(v):
        if not field.is_zero(val):
            j_star = j
            break
    if j_star is None:
        return None
    m = bt[j_star]
    # factor basis monomial as x_k * m'
    k = next(i for i in range(ring.n) if (m >> (EXP_BITS * i)) & EXP_MASK)
    parent = m - (1 << (EXP_BITS * k))
    idx_t = {mm: i for i, mm in enumerate(bt)}
    coords = []
    for i in range(ring.n):
        xi_m = parent + (1 << (EXP_BITS * i))
        vec = _nf_in_basis(
            Polynomial(ring, {xi_m: field.one}), gb, idx_t, ring
        )
        coords.append(sum_(field, (field.mul(vec[j], v[j]) for j in range(len(bt)))))
    if all(field.is_zero(c) for c in coords):
        return None
    return tuple(coords)


_FORM_DRAWS = 8  # draws of the random forms before a solve gives up


def solve_zero_dimensional(ideal: Ideal, max_points=None, rng=None):
    """All rational points of a zero-dimensional projective scheme over its
    field, each verified exactly against every generator.

    The points are read off the eigenvectors of a random multiplication map.
    Two points at which the random forms take the same ratio share an
    eigenspace, whose vectors mix them; the forms are then redrawn, and
    SamplingError is raised after _FORM_DRAWS draws."""
    field = ideal.ring.field
    if field is QQ:
        raise ValueError("rational-point enumeration is a finite-field path")
    form_rng = rng or random.Random(0x5EED)
    for _ in range(_FORM_DRAWS):
        points = _solve_with_random_forms(ideal, max_points, form_rng, rng)
        if points is not None:
            return points
    raise SamplingError(
        f"random forms did not separate the rational points in {_FORM_DRAWS} draws "
        f"(an eigenspace of dimension 2 or more each time)"
    )


def _solve_with_random_forms(ideal, max_points, form_rng, root_rng):
    """One solve with freshly drawn forms; None when an eigenspace has
    dimension 2 or more."""
    ring = ideal.ring
    field = ring.field
    bt, _bt1, M0, M1, _e0, _e1 = multiplication_data(ideal, form_rng)
    gb = ideal.groebner_basis()
    minv = linalg.mat_inverse(M0, field)
    A = linalg.mat_mul(minv, M1, field)
    cp = linalg.charpoly(A, field)
    p = field.p
    lambdas = roots_mod_p([int(c) % p for c in cp], p, root_rng)
    at = linalg._transpose(A)
    points = []
    seen = set()
    for lam in lambdas:
        shifted = [
            [field.sub(at[i][j], lam if i == j else field.zero) for j in range(len(at))]
            for i in range(len(at))
        ]
        kernel = linalg.matrix_kernel(shifted, field)
        if len(kernel) > 1:
            return None
        for w in kernel:
            # v = w^t M0 is the evaluation functional on basis_t
            v = linalg.mat_vec(linalg._transpose(M0), list(w), field)
            pt = _recover_point(v, bt, gb, ring)
            if pt is None:
                continue
            if not ideal.contains_point(pt):
                continue
            norm = _normalize_projective(pt, field)
            if norm not in seen:
                seen.add(norm)
                points.append(norm)
                if max_points is not None and len(points) >= max_points:
                    return points
    return points


def _normalize_projective(pt, field):
    lead = next((c for c in pt if not field.is_zero(c)), None)
    if lead is None:
        return tuple(pt)
    inv = field.inv(lead)
    return tuple(field.mul(inv, c) for c in pt)


def sample_curve_points(ideal: Ideal, count: int, rng=None, max_slices: int = 25):
    """Points on a one-dimensional scheme over GF(p): slice with random
    hyperplanes, solve the zero-dimensional slices exactly, deduplicate.

    Returns up to `count` points; fewer (with no error) only if the slice
    budget runs out, matching the partial-list-with-warning contract."""
    ring = ideal.ring
    field = ring.field
    if field is QQ:
        raise ValueError("sample_curve_points runs over a finite field")
    rng = rng or random.Random(1)
    hd = hilbert_data(ideal)
    if hd.dimension != 1:
        raise ValueError(f"expected a curve, got dimension {hd.dimension}")
    points = []
    seen = set()
    for _ in range(max_slices):
        gens_ring = ring.gens()
        hyper = sum(
            (g.scale(field.of(rng.randint(0, field.p - 1))) for g in gens_ring),
            ring.zero(),
        )
        if hyper.is_zero():
            continue
        sliced = ideal + [hyper]
        try:
            pts = solve_zero_dimensional(sliced, rng=rng)
        except (SamplingError, ValueError):
            continue
        for pt in pts:
            if pt not in seen:
                seen.add(pt)
                points.append(pt)
        if len(points) >= count:
            return points[:count]
    if points:
        import warnings

        warnings.warn(
            f"slice budget exhausted: found {len(points)} of {count} requested points"
        )
    return points


# ---------------------------------------------------------------------------
# Exact Sturm sequences and real roots over Q
# ---------------------------------------------------------------------------


def _uni_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _uni_eval(c, x):
    acc = Fraction(0)
    for cc in reversed(c):
        acc = acc * x + cc
    return acc


def _uni_deriv(c):
    return [i * cc for i, cc in enumerate(c)][1:]


def _uni_primitive(c):
    """Scale by a positive rational to coprime integer coefficients.

    Positive scaling preserves every sign, so Sturm variation counts are
    unchanged while coefficient growth stays under control."""
    from math import gcd

    c = _uni_trim(c)
    if not c:
        return []
    den = 1
    for x in c:
        x = Fraction(x)
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(Fraction(x) * den) for x in c]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [x // g for x in ints] if g > 1 else ints


def _uni_rem(a, b):
    a = _uni_trim([Fraction(x) for x in a])
    b = [Fraction(x) for x in b]
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for j, bc in enumerate(b):
            a[shift + j] -= f * bc
        a = _uni_trim(a)
    return a


def _uni_gcd(a, b):
    """Polynomial gcd via the primitive remainder sequence (integer-only)."""
    a, b = _uni_primitive(a), _uni_primitive(b)
    while b:
        r = _uni_primitive(_uni_rem(a, b))
        a, b = b, r
    return a


def sturm_sequence(coeffs):
    """Sturm sequence of the square-free part, coefficients ascending.

    Every member is content-normalized to primitive integers (a positive
    rescaling, harmless for sign variations); remainders are computed on the
    small primitive representatives, which keeps the classical coefficient
    explosion of the raw Euclidean sequence in check."""
    f = _uni_primitive(coeffs)
    if len(f) <= 1:
        return [f] if f else []
    g = _uni_gcd(f, _uni_deriv(f))
    if len(g) > 1:
        f = _uni_primitive(_uni_quot(f, g))
    seq = [f, _uni_primitive(_uni_deriv(f))]
    while seq[-1]:
        r = _uni_rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append(_uni_primitive([-c for c in r]))
    return seq


def _uni_quot(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(_uni_trim(a)) >= len(b):
        a = _uni_trim(a)
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for j, bc in enumerate(b):
            a[shift + j] -= f * bc
        a = _uni_trim(a)
    return _uni_trim(q)


def _variations(values):
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(seq, lo, hi):
    """Number of distinct real roots in (lo, hi]."""
    va = _variations([_uni_eval(f, lo) for f in seq])
    vb = _variations([_uni_eval(f, hi) for f in seq])
    return va - vb


def cauchy_bound(coeffs):
    c = _uni_trim([Fraction(x) for x in coeffs])
    lead = abs(c[-1])
    return 1 + max((abs(x) / lead for x in c[:-1]), default=Fraction(0))


def isolate_real_roots(coeffs):
    """Disjoint open-ish rational intervals, one simple root each, via exact
    Sturm bisection.  Interval endpoints are never roots."""
    f = _uni_trim([Fraction(c) for c in coeffs])
    if len(f) <= 1:
        return []
    seq = sturm_sequence(f)
    bound = cauchy_bound(f)
    lo, hi = -bound - 1, bound + 1
    while _uni_eval(seq[0], lo) == 0:
        lo -= 1
    while _uni_eval(seq[0], hi) == 0:
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
        while _uni_eval(seq[0], mid) == 0:
            mid = mid + (b - a) / 997  # tiny rational nudge off the root
        nl = sturm_count(seq, a, mid)
        stack.append((a, mid, nl))
        stack.append((mid, b, n - nl))
    out.sort()
    return out


def refine_root(coeffs, interval, eps=Fraction(1, 10 ** 12)):
    """Shrink an isolating interval by exact bisection to width <= eps."""
    f = _uni_trim([Fraction(c) for c in coeffs])
    seq = sturm_sequence(f)
    a, b = interval
    fa = _uni_eval(seq[0], a)
    while b - a > eps:
        mid = (a + b) / 2
        fm = _uni_eval(seq[0], mid)
        if fm == 0:
            # exact root: collapse to a degenerate interval at mid
            return (mid, mid)
        if (fa > 0) != (fm > 0):
            b = mid
        else:
            a, fa = mid, fm
    return (a, b)


def polish_float_root(coeffs, x0: float, iterations: int = 6) -> float:
    c = [float(x) for x in coeffs]
    dc = [i * x for i, x in enumerate(c)][1:]

    def ev(cs, x):
        acc = 0.0
        for v in reversed(cs):
            acc = acc * x + v
        return acc

    x = x0
    for _ in range(iterations):
        d = ev(dc, x)
        if d == 0:
            break
        x = x - ev(c, x) / d
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


def real_configurations(seed, count: int, grid: int = 40):
    """Real points of the plane quartic, swept on a rational grid in e2 with
    e3 = 1 and exact Sturm isolation in e1, lifted through the construction
    map and normalized to affine half-turns."""
    from .models import euler_rho

    if seed.field is not QQ:
        raise ValueError("real extraction requires a rational seed")
    quarter = Fraction(1, 4)
    rho = euler_rho(seed.P[0], seed.P[1], seed.P[2], seed.U.scale(quarter))
    ring = seed.F.ring
    e1n, e2n, e3n = EULER_NAMES
    out = []
    for k in range(-grid, grid + 1):
        if len(out) >= count:
            break
        e2 = Fraction(k, max(1, grid // 8))
        uni = _substitute_e2(seed.F, e2)
        if len(_uni_trim(uni)) <= 1:
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


def _substitute_e2(F: Polynomial, e2: Fraction):
    """F(e1, e2=const, e3=1) as ascending univariate coefficients in e1."""
    ring = F.ring
    coeffs = {}
    for m, c in F.terms.items():
        exps = ring.unpack(m)
        d1 = exps[0]
        val = Fraction(c) * (e2 ** exps[1])
        coeffs[d1] = coeffs.get(d1, Fraction(0)) + val
    deg = max(coeffs) if coeffs else 0
    return [coeffs.get(i, Fraction(0)) for i in range(deg + 1)]


def _config_from_euler(rho, e_values, tol=1e-9):
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


def real_legs(bundle, count: int, rng=None, max_slices: int = 12, tol: float = 1e-9):
    """Real legs of a bundle over Q: slice the full leg curve with random
    rational hyperplanes, isolate the real roots of the degree-20 eliminant
    exactly, then back-substitute numerically."""
    import numpy as np

    field = bundle.seed.field
    if field is not QQ:
        raise ValueError("real leg extraction requires a rational bundle")
    rng = rng or random.Random(11)
    ideal = bundle.leg_ideal_full
    ring = ideal.ring
    legs = []
    slice_degrees = []
    for _ in range(max_slices):
        if len(legs) >= count:
            break
        hyper = sum(
            (g.scale(Fraction(rng.randint(-9, 9))) for g in ring.gens()), ring.zero()
        )
        if hyper.is_zero():
            continue
        sliced = ideal + [hyper]
        try:
            bt, _bt1, M0, M1, _e0, _e1 = multiplication_data(sliced, rng)
        except (SamplingError, ValueError):
            continue
        gb = sliced.groebner_basis()
        minv = linalg.mat_inverse(M0, QQ)
        A = linalg.mat_mul(minv, M1, QQ)
        cp = linalg.charpoly(A, QQ)
        slice_degrees.append(len(cp) - 1)
        m0f = np.array([[float(c) for c in row] for row in M0])
        m1f = np.array([[float(c) for c in row] for row in M1])
        for interval in isolate_real_roots(cp):
            a, b = refine_root(cp, interval)
            lam = polish_float_root(cp, float((a + b) / 2))
            # left null vector w of (M1 - lam M0)
            mat = (m1f - lam * m0f).T
            _u, s, vh = np.linalg.svd(mat)
            if s[-1] > 1e-6 * max(1.0, s[0]):
                continue
            w = vh[-1]
            v = m0f.T @ w
            leg = _float_leg_from_functional(v, bt, gb, ring, tol)
            if leg is not None:
                legs.append(leg)
                if len(legs) >= count:
                    break
    if len(legs) < count:
        raise SamplingError(
            f"found {len(legs)} real legs after {max_slices} slices "
            f"(slice degrees {slice_degrees})"
        )
    return legs


def _float_leg_from_functional(v, bt, gb, ring, tol):
    import numpy as np

    j_star = int(np.argmax(np.abs(v)))
    if abs(v[j_star]) < 1e-12:
        return None
    m = bt[j_star]
    k = next(i for i in range(ring.n) if (m >> (EXP_BITS * i)) & EXP_MASK)
    parent = m - (1 << (EXP_BITS * k))
    idx_t = {mm: i for i, mm in enumerate(bt)}
    coords = []
    for i in range(ring.n):
        vec = _nf_in_basis(
            Polynomial(ring, {parent + (1 << (EXP_BITS * i)): ring.field.one}),
            gb,
            idx_t,
            ring,
        )
        coords.append(float(np.dot([float(c) for c in vec], v)))
    scale = max(abs(c) for c in coords)
    if scale == 0:
        return None
    coords = [c / scale for c in coords]
    z = [[coords[4 * i + j] for j in range(4)] for i in range(4)]
    l = coords[16]
    z00 = z[0][0]
    if abs(z00) < 1e-9:
        return None
    # on-cone check: 2x2 minors, relative
    for i in range(4):
        for kk in range(i + 1, 4):
            for j in range(4):
                for mmm in range(j + 1, 4):
                    minor = z[i][j] * z[kk][mmm] - z[i][mmm] * z[kk][j]
                    if abs(minor) > tol * (1 + abs(z[i][j] * z[kk][mmm]) + abs(z[i][mmm] * z[kk][j])):
                        return None
    a = tuple(z[i][0] / z00 for i in (1, 2, 3))
    b = tuple(z[0][j] / z00 for j in (1, 2, 3))
    l_affine = l / z00
    d2 = sum(x * x for x in a) + sum(x * x for x in b) - l_affine
    coords_norm = tuple(c / z00 for c in coords)
    return RealLeg(a, b, d2, d2 > 0, coords_norm)


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
    exact_zero: bool = True
    tol: float = 0.0
    n_configs: int = 0
    n_legs: int = 0
    n_real_legs: int = 0
    certification: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.exact_zero if self.mode == "exact" else self.max_abs_within

    @property
    def max_abs_within(self) -> bool:
        return all(entry[3] for entry in self.residuals) if self.residuals else True

    def to_json(self) -> dict:
        return {
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


def check_pod(configs, legs, mode: str = "exact", tol: float = 1e-9, pod_id: str = "pod",
              certification=None) -> PodReport:
    """Evaluate the sphere pairing on every (configuration, leg) pair.

    exact mode: entries are coordinate tuples over one exact field and every
    residual must be identically zero.  float mode: entries are float
    coordinate tuples and |value| <= tol * (1 + |l h| + |r|)."""
    report = PodReport(pod_id=pod_id, mode=mode, tol=tol,
                       n_configs=len(configs), n_legs=len(legs),
                       certification=certification or {})
    B = bsc17()
    if mode == "exact":
        for i, cfg in enumerate(configs):
            cfg_coords, field = _exact_coords(cfg)
            for j, leg in enumerate(legs):
                leg_coords, f2 = _exact_leg_coords(leg)
                if f2 is not field:
                    raise ValueError("mixed fields in exact check")
                val = B.evaluate(cfg_coords, leg_coords, field)
                ok = field.is_zero(val)
                report.residuals.append((i, j, val, ok))
                if not ok:
                    report.exact_zero = False
        return report
    if mode != "float":
        raise ValueError("mode must be 'exact' or 'float'")
    for i, cfg in enumerate(configs):
        c = cfg.coords if isinstance(cfg, RealConfiguration) else tuple(float(v) for v in cfg)
        for j, leg in enumerate(legs):
            z = leg.coords if isinstance(leg, RealLeg) else tuple(float(v) for v in leg)
            val = 0.0
            for a, row in enumerate(B.entries):
                ca = c[a]
                if ca:
                    for bcol, coef in enumerate(row):
                        if coef:
                            val += ca * coef * z[bcol]
            scale = 1.0 + abs(z[16] * c[16]) + abs(c[15])
            ok = abs(val) <= tol * scale
            report.residuals.append((i, j, val, ok))
            report.max_abs = max(report.max_abs, abs(val))
    if isinstance(legs, list):
        report.n_real_legs = sum(1 for leg in legs if isinstance(leg, RealLeg) and leg.realizable)
    return report


def _exact_coords(cfg):
    if isinstance(cfg, IsometryPoint):
        return cfg.coords, cfg.field
    if isinstance(cfg, tuple) and len(cfg) == 2:
        return cfg  # (coords, field)
    raise ValueError("exact configuration must be an IsometryPoint or (coords, field)")


def _exact_leg_coords(leg):
    if isinstance(leg, Leg):
        return leg_to_point(leg).coords(), leg.field
    if isinstance(leg, tuple) and len(leg) == 2:
        return leg
    raise ValueError("exact leg must be a Leg or (coords, field)")
