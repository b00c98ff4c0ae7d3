"""Projective models: the isometry variety X and its involution slice, the
leg cone Y and its symmetric and planar quotients, and the Euler-coordinate
lift map used by the infinity-pod construction.

Coordinate conventions
----------------------
* X lives in P^16 with coordinates (m11..m33, x1..x3, y1..y3, r, h).  A point
  with h != 0 normalizes to the affine isometry v |-> (M/h) v + y/h, with
  x = -M^t y / h and r h = <y, y>.
* Y lives in P^16 with coordinates (z00..z33, l); a leg with base a and
  platform b maps to z_ij = a~_i b~_j for a~ = (1, a), b~ = (1, b), and
  l = <a,a> + <b,b> - d^2 (the corrected leg length).
* The symmetric quotient of Y lives in P^10 with coordinates
  (z11, z22, z33, s12, s13, s23, s01, s02, s03, z00, l), s_ij = z_ij + z_ji;
  its points are the symmetric 4x4 matrices S with S_ii = 2 z_ii, S_ij = s_ij
  of rank at most two, plus the cone direction l.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ
from .groebner import Ideal, eliminate, ring_numerator
from .rings import DEGREVLEX, Polynomial, RingContext, RingMap, minors

X_NAMES = (
    "m11", "m12", "m13", "m21", "m22", "m23", "m31", "m32", "m33",
    "x1", "x2", "x3", "y1", "y2", "y3", "r", "h",
)
XP_NAMES = ("m11", "m12", "m21", "m22", "x1", "x2", "y1", "y2", "r", "h")
XINV_NAMES = ("m11", "m12", "m13", "m22", "m23", "m33", "x1", "x2", "x3", "r", "h")
XPINV_NAMES = ("m11", "m12", "m22", "x1", "x2", "r", "h")

Y_NAMES = tuple(f"z{i}{j}" for i in range(4) for j in range(4)) + ("l",)
YP_NAMES = tuple(f"z{i}{j}" for i in range(3) for j in range(3)) + ("l",)
YINV_NAMES = ("z11", "z22", "z33", "s12", "s13", "s23", "s01", "s02", "s03", "z00", "l")
YPINV_NAMES = ("z00", "z11", "z22", "s01", "s02", "s12", "l")

EULER_NAMES = ("e1", "e2", "e3")
ZINV_NAMES = ("e1", "e2", "e3", "p1", "p2", "p3", "q1", "q2", "q3")

_ring_cache = {}


def _ring(names, weights, field) -> RingContext:
    key = (names, weights, field.descriptor)
    r = _ring_cache.get(key)
    if r is None:
        r = RingContext(tuple(names), tuple(weights), DEGREVLEX, field)
        _ring_cache[key] = r
    return r


def ring_X(field=QQ):
    return _ring(X_NAMES, (1,) * 17, field)


def ring_X_p(field=QQ):
    return _ring(XP_NAMES, (1,) * 10, field)


def ring_X_pinv(field=QQ):
    return _ring(XPINV_NAMES, (1,) * 7, field)


def ring_Y(field=QQ):
    return _ring(Y_NAMES, (1,) * 17, field)


def ring_Y_p(field=QQ):
    return _ring(YP_NAMES, (1,) * 10, field)


def ring_Y_inv(field=QQ):
    return _ring(YINV_NAMES, (1,) * 11, field)


def ring_Y_pinv(field=QQ):
    return _ring(YPINV_NAMES, (1,) * 7, field)


def ring_euler(field=QQ):
    return _ring(EULER_NAMES, (1, 1, 1), field)


def ring_Z(field=QQ):
    return _ring(ZINV_NAMES, (1, 1, 1, 2, 2, 2, 2, 2, 2), field)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsometryPoint:
    """A point (M : x : y : r : h) of the isometry model in P^16."""

    coords: tuple  # 17 scalars in ring_X order
    field: object = QQ

    @classmethod
    def from_affine(cls, mat, y, field=QQ):
        """Embed the affine isometry v |-> mat v + y (mat a 3x3 rotation)."""
        f = field
        mat = [[f.of(c) for c in row] for row in mat]
        y = [f.of(c) for c in y]
        x = [f.of(-sum(mat[j][i] * y[j] for j in range(3))) for i in range(3)]
        r = f.of(sum(v * v for v in y))
        coords = tuple(mat[0] + mat[1] + mat[2] + x + y + [r, f.one])
        return cls(coords, f)


@dataclass(frozen=True)
class Leg:
    """A leg: base anchor a, platform anchor b, squared length d2.

    d2 may be any field scalar; over an ordered field a negative value marks a
    complex leg.  The corrected length <a,a> + <b,b> - d2 stays rational."""

    a: tuple
    b: tuple
    d2: object
    field: object = QQ

    def corrected_length(self):
        return self.field.of(sum(v * v for v in (*self.a, *self.b)) - self.d2)

    def is_planar(self) -> bool:
        return self.field.is_zero(self.a[2]) and self.field.is_zero(self.b[2])


@dataclass(frozen=True)
class LegPoint:
    """A point ({z_ij} : l) of the leg cone in P^16; z has rank at most one."""

    z: tuple  # 4x4 nested tuple, z[i][j]
    l: object
    field: object = QQ

    def coords(self):
        return tuple(self.z[i][j] for i in range(4) for j in range(4)) + (self.l,)

    def planar_coords(self):
        """The 10 coordinates ({z_ij}_{i,j<=2} : l) of the planar cone."""
        return tuple(self.z[i][j] for i in range(3) for j in range(3)) + (self.l,)


# ---------------------------------------------------------------------------
# Ideal constructors
# ---------------------------------------------------------------------------

_ideal_cache = {}


def _cached(key, build):
    out = _ideal_cache.get(key)
    if out is None:
        out = build()
        _ideal_cache[key] = out
    return out


def x_equations(ring) -> list:
    """The 21 equations E of X: orthogonality of M against h^2, the
    determinant relation, the x/y exchange rows, and the r relations.  They
    generate X's prime ideal only up to saturation at h: their ideal also
    carries components inside h = 0 (see `ideal_X`)."""
    gv = {n: ring.gen(n) for n in X_NAMES}
    M = [[gv[f"m{i + 1}{j + 1}"] for j in range(3)] for i in range(3)]
    xv = [gv["x1"], gv["x2"], gv["x3"]]
    yv = [gv["y1"], gv["y2"], gv["y3"]]
    r, h = gv["r"], gv["h"]
    gens = []
    for i in range(3):
        for j in range(i, 3):
            mmt = sum((M[i][k] * M[j][k] for k in range(3)), ring.zero())
            mtm = sum((M[k][i] * M[k][j] for k in range(3)), ring.zero())
            d = h * h if i == j else ring.zero()
            gens.append(mmt - d)
            gens.append(mtm - d)
    (det,) = minors(M, 3)
    gens.append(det - h ** 3)
    for i in range(3):
        gens.append(sum((M[i][j] * xv[j] for j in range(3)), ring.zero()) + h * yv[i])
        gens.append(sum((M[j][i] * yv[j] for j in range(3)), ring.zero()) + h * xv[i])
    gens.append(r * h - sum((v * v for v in xv), ring.zero()))
    gens.append(r * h - sum((v * v for v in yv), ring.zero()))
    return gens


def x_closure_quadrics(ring) -> list:
    """18 quadrics of X's prime ideal that the 21 `x_equations` do not
    contain: the 9 cofactor relations cof(M)_ij - h m_ij, and the 9 entries
    of M (x cross e_k) + y cross (M e_k), k = 1, 2, 3.  At a pose M/h is a
    rotation, so cof(M) = h^2 cof(M/h) = h M and (Ma) cross (Mb) =
    cof(M)(a cross b); with Mx = -h y that gives
    h M (x cross e_k) = (Mx) cross (M e_k) = -h y cross (M e_k).

    Each quadric q has h^3 q in the ideal E of the 21 `x_equations`, over Z.
    With adj M = cof(M)^t, Cramer's rule (adj M) M = (det M) I and the
    equations M M^t = h^2 I and det M = h^3 give
    h^2 (adj M - h M^t) = (det M - h^3) M^t - adj M (M M^t - h^2 I),
    so h^2 (cof(M) - h M) lies in E.  For a cross row
    q_k = M (x cross e_k) + y cross (M e_k), the identity
    (Ma) cross (Mb) = cof(M)(a cross b) with a = x, b = e_k gives
    h q_k = (Mx + h y) cross (M e_k) - (cof(M) - h M)(x cross e_k),
    and Mx + h y lies in E, so h^3 q_k lies in E."""
    gv = {n: ring.gen(n) for n in X_NAMES}
    M = [[gv[f"m{i + 1}{j + 1}"] for j in range(3)] for i in range(3)]
    xv = [gv["x1"], gv["x2"], gv["x3"]]
    yv = [gv["y1"], gv["y2"], gv["y3"]]
    h = gv["h"]

    def cross(u, v):
        return [u[(i + 1) % 3] * v[(i + 2) % 3] - u[(i + 2) % 3] * v[(i + 1) % 3] for i in range(3)]

    def cof(i, j):
        a, b = (i + 1) % 3, (i + 2) % 3
        c, d = (j + 1) % 3, (j + 2) % 3
        return M[a][c] * M[b][d] - M[a][d] * M[b][c]

    quadrics = [cof(i, j) - h * M[i][j] for i in range(3) for j in range(3)]
    for k in range(3):
        ek = [ring.one() if i == k else ring.zero() for i in range(3)]
        xe = cross(xv, ek)
        col = [M[i][k] for i in range(3)]
        quadrics += [
            sum((M[i][j] * xe[j] for j in range(3)), ring.zero()) + w
            for i, w in enumerate(cross(yv, col))
        ]
    return quadrics


def involution_linear_forms(ring) -> list:
    """The seven linear forms cutting the involution slice: M symmetric,
    x = y, and trace(M) + h = 0."""
    gv = {n: ring.gen(n) for n in X_NAMES}
    return [
        gv["m12"] - gv["m21"],
        gv["m13"] - gv["m31"],
        gv["m23"] - gv["m32"],
        gv["x1"] - gv["y1"],
        gv["x2"] - gv["y2"],
        gv["x3"] - gv["y3"],
        gv["m11"] + gv["m22"] + gv["m33"] + gv["h"],
    ]


def ideal_X(field=QQ) -> Ideal:
    """The prime ideal of X, the closure of the isometry group in P^16:
    dimension 6, degree 40.  Its generators are the 21 `x_equations` E and
    the 18 `x_closure_quadrics` Q.

    X's ideal is E : h^infinity, and each quadric lies there (h^3 Q lies in
    E), so E + Q lies between E and E : h^infinity and has the same
    saturation.  No lead of E + Q's degrevlex basis (h last) is divisible
    by h (the tests check it over Q, GF(101) and GF(32003)), so E + Q is
    saturated at h (Bayer's lemma, see `groebner.saturate`) and is X's
    ideal itself."""
    def build():
        ring = ring_X(field)
        return Ideal(ring, x_equations(ring) + x_closure_quadrics(ring))

    return _cached(("X", field.descriptor), build)


def ideal_X_inv(field=QQ) -> Ideal:
    """The involution model: X plus the seven linear forms, generated by the
    21 `x_equations` and the forms alone.  The quadrics are not needed
    there: E plus the forms has the same reduced basis (20 elements) as
    X's ideal plus the forms, and no lead of it is divisible by h, so it is
    already saturated at h."""
    def build():
        ring = ring_X(field)
        return Ideal(ring, x_equations(ring) + involution_linear_forms(ring))

    return _cached(("Xinv", field.descriptor), build)


def ideal_Z_inv(field=QQ) -> Ideal:
    """The weighted model of the involution slice: e.p = 0 and q = 0."""
    def build():
        ring = ring_Z(field)
        gv = {n: ring.gen(n) for n in ZINV_NAMES}
        ep = gv["e1"] * gv["p1"] + gv["e2"] * gv["p2"] + gv["e3"] * gv["p3"]
        return Ideal(ring, [ep, gv["q1"], gv["q2"], gv["q3"]])

    return _cached(("Zinv", field.descriptor), build)


# HS of X over Q (`ideal_X`; dimension 6, degree 40):
# (1 + 10t + 18t^2 + 10t^3 + t^4) / (1 - t)^7
X_NUMERATOR = (1, 10, 18, 10, 1)

# HS of the Segre cone over P^3 x P^3 in the z_ij: (1 + 9t + 9t^2 + t^3) / (1 - t)^7
SEGRE_NUMERATOR = (1, 9, 9, 1)

# HS of Y_inv over Q (`ideal_Y_inv`): (1 + 3t + 6t^2) / (1 - t)^8
Y_INV_NUMERATOR = (1, 3, 6)


def ideal_Y(field=QQ) -> Ideal:
    """Cone over the Segre variety of P^3 x P^3: all 2x2 minors of (z_ij).

    HS(R/I) is (1 + 9t + 9t^2 + t^3) / (1 - t)^8 (SEGRE_NUMERATOR) over
    every field.  It is at least that series: the minors lie in the kernel
    K of z_ij -> a_i b_j, l -> l, so HF(R/I) >= HF(R/K) in every degree,
    and R/K is the span of the monomials a^u b^v l^m with |u| = |v| = k,
    which number sum_{k <= d} C(k + 3, 3)^2 in degree d (l is free), the
    coefficients of that series.  It is at most the series of the minors'
    36 leads, which lie in in(I): each minor is a binomial with
    coefficients 1 and -1, so its lead is the same monomial over every
    field, and the numerator of those leads is the Segre one (tested).  The
    series drives Y's Groebner run, which then reduces no S-pair."""
    def build():
        ring = ring_Y(field)
        z = [[ring.gen(f"z{i}{j}") for j in range(4)] for i in range(4)]
        return Ideal(ring, minors(z, 2), hilbert=ring_numerator(ring, SEGRE_NUMERATOR, 7))

    return _cached(("Y", field.descriptor), build)


def ideal_Y_p(field=QQ) -> Ideal:
    """Planar leg cone: 2x2 minors of the 3x3 block, in P^9."""
    def build():
        ring = ring_Y_p(field)
        z = [[ring.gen(f"z{i}{j}") for j in range(3)] for i in range(3)]
        return Ideal(ring, minors(z, 2))

    return _cached(("Yp", field.descriptor), build)


def symmetric_matrix(coords, names) -> list:
    """The symmetric matrix of a vector given on `names`: 4 x 4 on YINV_NAMES,
    3 x 3 on YPINV_NAMES (or its first six names), with S_ii = 2 z_ii and
    S_ij = s_ij.  This is the one reader of the symmetric layout.  The
    doubled diagonal is not reduced into a field: a caller that compares or
    keeps the entries brings them in with `field.of`."""
    at = dict(zip(names, coords, strict=True))
    n = sum(1 for k in names if k[0] == "z")
    return [
        [2 * at[f"z{i}{i}"] if i == j else at[f"s{min(i, j)}{max(i, j)}"] for j in range(n)]
        for i in range(n)
    ]


def ideal_Y_inv(field=QQ) -> Ideal:
    """Cone over the rank-two symmetric locus: all 3x3 minors of S.
    Dimension 7, degree 10 in P^10."""
    def build():
        ring = ring_Y_inv(field)
        S = symmetric_matrix(ring.gens(), YINV_NAMES)
        return Ideal(ring, minors(S, 3))

    return _cached(("Yinv", field.descriptor), build)


def y_pinv_cubic(ring) -> Polynomial:
    """Half the determinant of the symmetric 3x3 matrix with diagonal 2 z_ii:
    4 z00 z11 z22 + s01 s02 s12 - z00 s12^2 - z11 s02^2 - z22 s01^2.

    Only the six matrix coordinates are read, so any ring naming them works
    (claim 10's elimination ring has no l)."""
    names = YPINV_NAMES[:6]
    S = symmetric_matrix([ring.gen(n) for n in names], names)
    (det,) = minors(S, 3)
    return det.scale(ring.field.inv(2))


def ideal_Y_pinv(field=QQ) -> Ideal:
    """Planar symmetric leg cone: one cubic hypersurface in P^6."""
    def build():
        ring = ring_Y_pinv(field)
        return Ideal(ring, [y_pinv_cubic(ring)])

    return _cached(("Ypinv", field.descriptor), build)


def project_model(ideal: Ideal, keep) -> Ideal:
    """Closure of the coordinate projection onto the kept coordinates,
    computed by eliminating the complement."""
    keep = list(keep)
    missing = set(keep) - set(ideal.ring.names)
    if missing:
        raise ValueError(f"unknown coordinates: {missing}")
    drop = [v for v in ideal.ring.names if v not in set(keep)]
    if not drop:
        return ideal
    return eliminate(ideal, drop)


def ideal_X_p(field=QQ) -> Ideal:
    """Planar projection of X: dimension 6, degree 20 in P^9."""
    return _cached(
        ("Xp", field.descriptor), lambda: project_model(ideal_X(field), XP_NAMES)
    )


def ideal_X_pinv(field=QQ) -> Ideal:
    """Planar projection of the involution model: dimension 4, degree 6 in P^6."""
    return _cached(
        ("Xpinv", field.descriptor), lambda: project_model(ideal_X_inv(field), XPINV_NAMES)
    )


MODEL_BUILDERS = {
    "X": ideal_X,
    "Xinv": ideal_X_inv,
    "Zinv": ideal_Z_inv,
    "Y": ideal_Y,
    "Yp": ideal_Y_p,
    "Yinv": ideal_Y_inv,
    "Ypinv": ideal_Y_pinv,
    "Xp": ideal_X_p,
    "Xpinv": ideal_X_pinv,
}


# ---------------------------------------------------------------------------
# The Euler lift map
# ---------------------------------------------------------------------------


def euler_rho(P1: Polynomial, P2: Polynomial, P3: Polynomial, U: Polynomial) -> RingMap:
    """The graded degree-2 substitution from the X coordinate ring to the
    Euler plane: the half-turn rotation matrix in (e1, e2, e3), x = y = P/2,
    r = U, h = e1^2 + e2^2 + e3^2."""
    ring_e = P1.ring
    field = ring_e.field
    for f in (P1, P2, P3, U):
        if f.ring != ring_e:
            raise ValueError("P1, P2, P3, U must share one Euler-plane ring")
        if not f.is_zero() and (not f.is_homogeneous() or f.homogeneous_degree() != 2):
            raise ValueError("P1, P2, P3, U must be homogeneous quadratics")
    e1, e2, e3 = (ring_e.gen(n) for n in EULER_NAMES)
    sq1, sq2, sq3 = e1 * e1, e2 * e2, e3 * e3
    half = field.inv(2)
    images = {
        "m11": sq1 - sq2 - sq3,
        "m12": e1 * e2 * 2,
        "m13": e1 * e3 * 2,
        "m21": e1 * e2 * 2,
        "m22": -sq1 + sq2 - sq3,
        "m23": e2 * e3 * 2,
        "m31": e1 * e3 * 2,
        "m32": e2 * e3 * 2,
        "m33": -sq1 - sq2 + sq3,
        "x1": P1.scale(half),
        "x2": P2.scale(half),
        "x3": P3.scale(half),
        "y1": P1.scale(half),
        "y2": P2.scale(half),
        "y3": P3.scale(half),
        "r": U,
        "h": sq1 + sq2 + sq3,
    }
    src = ring_X(field)
    return RingMap(src, ring_e, [images[n] for n in X_NAMES])


def rho_isometry_point(rho: RingMap, e_values) -> IsometryPoint:
    """Evaluate the lift map at Euler coordinates (e1, e2, e3)."""
    field = rho.target.field
    vals = [field.of(v) for v in e_values]
    coords = tuple(img.evaluate(vals) for img in rho.images)
    return IsometryPoint(coords, field)
