"""The sphere-condition pairings between configuration space and leg space,
and the linear algebra of the induced dualities.

The pairing evaluated on (an isometry point, a leg point) vanishes exactly
when the leg length is compatible with the configuration:

    l h + z00 r - 2 sum_i z_i0 x_i - 2 sum_j z_0j y_j - 2 sum_ij m_ij z_ji = 0

This is the corrected form: re-deriving ||sigma(a) - b||^2 = d^2 through
x = -M^t y gives -2<b, y> where older write-ups print -2<b, x>, and the m_ij
coordinate pairs with z_ji (base index contracts with M's column).  The
Cayley-transform oracle in the test suite is the arbiter for both signs.

`bsc17` is the only written pairing.  The symmetric and planar pairings are
induced from it by coordinate name (`_induced`): through `fold_name` on the
configuration side and `pi_name` on the leg side, or by keeping the planar
coordinates.  Each pairing is a constant, built once per process.  `push`
and `pull` are the coordinate maps between the named spaces, so a sign fixed
in `bsc17` reaches every pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import linalg
from .fields import QQ, FieldError
from .models import (
    Leg,
    LegPoint,
    IsometryPoint,
    X_NAMES,
    XP_NAMES,
    XINV_NAMES,
    XPINV_NAMES,
    Y_NAMES,
    YP_NAMES,
    YINV_NAMES,
    YPINV_NAMES,
    symmetric_matrix,
)


class DualityError(ValueError):
    """Degenerate pairing or subspace input."""


class ComplexLegError(ValueError):
    """A leg pair exists only over a quadratic extension of the reals."""


@dataclass(frozen=True)
class BilinearForm:
    """An exact pairing matrix between two named coordinate spaces."""

    kind: str
    left_names: tuple
    right_names: tuple
    entries: tuple  # tuple of rows of ints, len(left) x len(right)

    def matrix(self, field):
        return [[field.of(c) for c in row] for row in self.entries]

    def evaluate(self, left_coords, right_coords):
        """The pairing in the coordinates' own arithmetic, summed row by row
        over each row's nonzero entries: exact callers bring the value into
        their field with `field.of`, float callers get a float."""
        if len(left_coords) != len(self.left_names) or len(right_coords) != len(self.right_names):
            raise DualityError("coordinate length mismatch")
        acc = 0
        for li, row in zip(left_coords, self.entries):
            if li:
                for c, r in zip(row, right_coords):
                    if c:
                        acc += li * c * r
        return acc


def _pair_matrix(left, right, pairs):
    rows = [[0] * len(right) for _ in left]
    li = {n: i for i, n in enumerate(left)}
    ri = {n: i for i, n in enumerate(right)}
    for ln, rn, c in pairs:
        rows[li[ln]][ri[rn]] = c
    return tuple(tuple(r) for r in rows)


@cache
def bsc17() -> BilinearForm:
    """The full bilinear sphere condition between the two P^16."""
    pairs = [("h", "l", 1), ("r", "z00", 1)]
    for i in (1, 2, 3):
        pairs.append((f"x{i}", f"z{i}0", -2))
        pairs.append((f"y{i}", f"z0{i}", -2))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            pairs.append((f"m{i}{j}", f"z{j}{i}", -2))
    return BilinearForm("bsc17", X_NAMES, Y_NAMES, _pair_matrix(X_NAMES, Y_NAMES, pairs))


# ---------------------------------------------------------------------------
# Coordinate maps between the named spaces
# ---------------------------------------------------------------------------


def same_name(n: str) -> str:
    """The identity name map: a coordinate keeps its name."""
    return n


def fold_name(n: str) -> str:
    """The involution-side coordinate that an isometry coordinate restricts
    to on W = {M = M^t, x = y}: m_ij, m_ji -> m_ij (i < j), y_i -> x_i."""
    if n[0] == "y":
        return "x" + n[1]
    if n[0] == "m":
        return f"m{min(n[1:])}{max(n[1:])}"
    return n


def pi_name(n: str) -> str:
    """The symmetric coordinate that a leg coordinate feeds under the
    symmetrization pi: z_ii -> z_ii, z_ij and z_ji -> s_ij, l -> l."""
    if n == "l" or n[1] == n[2]:
        return n
    return f"s{min(n[1:])}{max(n[1:])}"


def push(vec, src, dst, name_map, field) -> tuple:
    """The vector on `dst` whose entry d is the sum of the entries of `vec`
    (on `src`) at the names that `name_map` sends to d: the image of a point
    under pi, or a form restricted along W.  A nonzero entry whose image is
    not in `dst` raises DualityError."""
    idx = {d: k for k, d in enumerate(dst)}
    out = [0] * len(dst)
    for n, c in zip(src, vec, strict=True):
        k = idx.get(name_map(n))
        if k is not None:
            out[k] += c
        elif not field.is_zero(c):
            raise DualityError(f"the {n} entry {c} has no image among {dst}")
    return tuple(map(field.of, out))


def pull(vec, src, dst, name_map=same_name) -> tuple:
    """The vector on `dst` whose entry d is the entry of `vec` (on `src`) at
    name_map(d): a form pulled back along pi, or a point projected onto a
    subset of its coordinates."""
    idx = {n: k for k, n in enumerate(src)}
    return tuple(vec[idx[name_map(d)]] for d in dst)


def _induced(form, kind, left, right, left_map=same_name, right_map=same_name) -> BilinearForm:
    """The pairing that `form` induces between `left` and `right`: a left
    point sigma' reads as sigma_n = sigma'_{left_map(n)}, and a right point
    is pushed along `right_map`, keeping the coordinates whose image is in
    `right`.  Each kept column is pushed along `left_map`; unless two kept
    columns with one image carry the same entries and no row off `left` has
    a nonzero entry in a kept column, the form does not factor and
    DualityError is raised."""
    columns = {}
    for m, col in zip(form.right_names, zip(*form.entries)):
        k = right_map(m)
        if k not in right:
            continue
        pushed = push(col, form.left_names, left, left_map, QQ)
        if columns.setdefault(k, pushed) != pushed:
            raise DualityError(f"{form.kind} does not factor through {kind}: the columns onto {k} differ")
    rows = zip(*(columns[k] for k in right))
    # sums of integer entries: the induced entries are integers too
    return BilinearForm(kind, left, right, tuple(tuple(map(int, row)) for row in rows))


@cache
def sbsc11() -> BilinearForm:
    """The symmetric bilinear sphere condition between the two P^10: bsc17 on
    W, read through the symmetrization pi."""
    return _induced(bsc17(), "sbsc11", XINV_NAMES, YINV_NAMES, fold_name, pi_name)


@cache
def bsc_planar10() -> BilinearForm:
    """The planar bilinear sphere condition between the two P^9: bsc17 on the
    planar coordinates."""
    return _induced(bsc17(), "bsc_planar10", XP_NAMES, YP_NAMES)


@cache
def sbsc_planar7() -> BilinearForm:
    """The planar symmetric sphere condition between the two P^6: sbsc11 on
    the planar coordinates."""
    return _induced(sbsc11(), "sbsc_planar7", XPINV_NAMES, YPINV_NAMES)


FORMS = {
    "bsc17": bsc17,
    "sbsc11": sbsc11,
    "bsc_planar10": bsc_planar10,
    "sbsc_planar7": sbsc_planar7,
}


# ---------------------------------------------------------------------------
# Legs <-> points
# ---------------------------------------------------------------------------


def sphere_value(leg: Leg, sigma: IsometryPoint):
    """bsc17 on (sigma, the leg's point): l h + r - 2<a,x> - 2<b,y> - 2<Ma,b>;
    zero iff the leg fits the configuration (exactly, when h is normalized
    to 1)."""
    f = sigma.field
    if leg.field is not f:
        raise FieldError("leg and isometry over different fields")
    return f.of(bsc17().evaluate(sigma.coords, leg_to_point(leg).coords()))


def leg_to_point(leg: Leg) -> LegPoint:
    """z_ij = a~_i b~_j with a~ = (1, a), b~ = (1, b); l the corrected length."""
    f = leg.field
    at = (f.one,) + tuple(f.of(v) for v in leg.a)
    bt = (f.one,) + tuple(f.of(v) for v in leg.b)
    z = tuple(tuple(f.of(x * y) for y in bt) for x in at)
    return LegPoint(z, leg.corrected_length(), f)


def point_to_leg(pt: LegPoint) -> Leg:
    """Invert leg_to_point.  Requires affine anchors (z00 != 0) and a rank-1
    coordinate matrix."""
    f = pt.field
    z = pt.z
    if f.is_zero(z[0][0]):
        raise DualityError("anchor at infinity (z00 = 0)")
    if linalg.rank(z, f) > 1:
        raise DualityError("not a leg point (rank > 1)")
    inv00 = f.inv(z[0][0])
    a = tuple(f.of(z[i][0] * inv00) for i in (1, 2, 3))
    b = tuple(f.of(z[0][j] * inv00) for j in (1, 2, 3))
    return Leg(a, b, f.of(sum(v * v for v in a + b) - pt.l * inv00), f)


def leg_sym_coords(leg: Leg) -> tuple:
    """Coordinates of the leg on the symmetric P^10 (YINV_NAMES): its point
    pushed along the symmetrization pi."""
    return push(leg_to_point(leg).coords(), Y_NAMES, YINV_NAMES, pi_name, leg.field)


def leg_p_coords(leg: Leg) -> tuple:
    """Coordinates of a planar leg on the planar cone P^9."""
    if not leg.is_planar():
        raise DualityError("leg is not planar (a3 = b3 = 0 required)")
    pt = leg_to_point(leg)
    return pt.planar_coords()


def leg_pinv_coords(leg: Leg) -> tuple:
    """Coordinates of a planar leg on the planar symmetric cone P^6
    (YPINV_NAMES)."""
    if not leg.is_planar():
        raise DualityError("leg is not planar (a3 = b3 = 0 required)")
    return pull(leg_sym_coords(leg), YINV_NAMES, YPINV_NAMES)


# ---------------------------------------------------------------------------
# Linear subspaces and duals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSubspace:
    """A linear subspace of a named coordinate space, represented either by
    spanning points or by cutting linear forms."""

    ambient: tuple
    kind: str  # "points" | "forms"
    basis: tuple  # tuple of coordinate tuples
    field: object = QQ

    def __post_init__(self):
        if self.kind not in ("points", "forms"):
            raise DualityError(f"bad representation tag {self.kind!r}")
        for v in self.basis:
            if len(v) != len(self.ambient):
                raise DualityError("basis vector length mismatch")

    def reduced(self) -> "LinearSubspace":
        """Canonical RREF basis (deterministic representative)."""
        rows = linalg.row_space_basis([list(v) for v in self.basis], self.field)
        return LinearSubspace(self.ambient, self.kind, tuple(tuple(r) for r in rows), self.field)

    def converted(self) -> "LinearSubspace":
        """The same subspace in the other representation (annihilator swap)."""
        ker = linalg.matrix_kernel([list(v) for v in self.basis], self.field)
        other = "forms" if self.kind == "points" else "points"
        return LinearSubspace(self.ambient, other, tuple(tuple(v) for v in ker), self.field)

    def point_basis(self):
        return self.basis if self.kind == "points" else self.converted().basis

    def linear_forms(self, ring) -> list:
        """The linear forms of `ring` cutting the subspace out: the basis of a
        forms subspace, the basis of `converted()` for a points subspace.
        This is the one way a subspace becomes ring forms.  Raises
        DualityError unless the ring's variables are the ambient coordinates
        in order and its field is the subspace's."""
        if ring.names != self.ambient or ring.field is not self.field:
            raise DualityError(
                f"ring {ring.names} over {ring.field} does not carry the subspace's "
                f"coordinates {self.ambient} over {self.field}"
            )
        forms = self if self.kind == "forms" else self.converted()
        return [ring.linear_form(v) for v in forms.basis]


def same_subspace(s1: LinearSubspace, s2: LinearSubspace) -> bool:
    if s1.ambient != s2.ambient or s1.field is not s2.field:
        return False
    b1 = linalg.row_space_basis([list(v) for v in s1.point_basis()], s1.field)
    b2 = linalg.row_space_basis([list(v) for v in s2.point_basis()], s2.field)
    return b1 == b2


def dual_space(space: LinearSubspace, form: BilinearForm, side: str) -> LinearSubspace:
    """Transport a subspace across the pairing.

    * points on one side become the cutting forms B(v, .) on the other;
    * forms on one side become the points w with B(., w) in their span
      (so dimensions are preserved basis-for-basis, and for a nondegenerate
      form dual_space is an involution).
    """
    field = space.field
    if side == "left":
        if space.ambient != form.left_names:
            raise DualityError("subspace ambient does not match the form's left space")
        mat = form.matrix(field)
        other_names = form.right_names
    elif side == "right":
        if space.ambient != form.right_names:
            raise DualityError("subspace ambient does not match the form's right space")
        mat = linalg._transpose(form.matrix(field))
        other_names = form.left_names
    else:
        raise DualityError("side must be 'left' or 'right'")

    if space.kind == "points":
        basis = tuple(tuple(linalg.mat_vec(linalg._transpose(mat), list(v), field)) for v in space.basis)
        return LinearSubspace(other_names, "forms", basis, field)

    # forms: solve M w = f for each basis form f
    try:
        minv = linalg.mat_inverse(mat, field)
    except ValueError:
        raise DualityError(
            f"form {form.kind} is degenerate; dual of a forms-space is ill-posed"
        ) from None
    basis = tuple(tuple(linalg.mat_vec(minv, list(f), field)) for f in space.basis)
    return LinearSubspace(other_names, "points", basis, field)


def form_determinant(form: BilinearForm, field=QQ):
    m = form.matrix(field)
    if len(m) != len(m[0]):
        raise DualityError("pairing matrix is not square")
    return linalg.det(m, field)


# ---------------------------------------------------------------------------
# Rank-two factorization: recovering leg pairs from symmetric points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LegPairRecovery:
    """Result of factoring S = a~ b~^t + b~ a~^t on the symmetric cone."""

    legs: tuple | None  # ((a,b) leg, (b,a) leg) or None
    degenerate: bool = False  # a = b (coincident anchors)
    extension_disc: object = None  # discriminant when no rational square root


def _qq_sqrt(x: Fraction):
    if x < 0:
        return None
    from math import isqrt

    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def recover_leg_pairs(sym_coords, field=QQ) -> LegPairRecovery:
    """Factor a symmetric-cone point into the unordered pair of legs
    {(a,b), (b,a)} it represents.

    Exact over Q or GF(p) when the discriminant is a square; otherwise the
    quadratic extension data (the discriminant) is returned.  Coincident
    anchors are flagged degenerate.  A negative rational discriminant means
    the pair is complex."""
    f = field
    of = f.of
    coords = [of(c) for c in sym_coords]
    S = symmetric_matrix(coords, YINV_NAMES)
    if all(f.is_zero(S[i][j]) for i in range(4) for j in range(4)):
        raise DualityError("zero matrix: the cone vertex carries no legs")
    if linalg.rank(S, f) > 2:
        raise DualityError("matrix rank exceeds two: not a leg-pair point")
    if f.is_zero(S[0][0]):
        raise DualityError("anchor at infinity (z00 = 0)")
    # normalize projective scale so that a~_0 = b~_0 = 1, i.e. S_00 = 2
    scale = 2 * f.inv(S[0][0])
    S = [[of(scale * c) for c in row] for row in S]
    l_affine = scale * coords[YINV_NAMES.index("l")]
    u = S[0][1:]  # a + b
    # T_ij = v_i v_j with v = a - b
    T = [[of(u[i] * u[j] - 2 * S[i + 1][j + 1]) for j in range(3)] for i in range(3)]
    half = f.inv(2)
    if all(f.is_zero(T[i][j]) for i in range(3) for j in range(3)):
        a = tuple(of(half * ui) for ui in u)
        leg = Leg(a, a, of(2 * sum(v * v for v in a) - l_affine), f)
        return LegPairRecovery((leg, leg), degenerate=True)
    k = next(i for i in range(3) if not f.is_zero(T[i][i]))
    disc = T[k][k]
    if f is QQ:
        root = _qq_sqrt(disc)
        if root is None:
            if disc < 0:
                raise ComplexLegError(f"complex leg pair (discriminant {disc})")
            return LegPairRecovery(None, extension_disc=disc)
    else:
        root = f.sqrt(disc)
        if root is None:
            return LegPairRecovery(None, extension_disc=disc)
        if root == 0:
            raise DualityError("inconsistent rank data")
    inv_root = f.inv(root)
    v = [T[k][j] * inv_root for j in range(3)]
    # consistency: T must be exactly v v^t
    for i in range(3):
        for j in range(3):
            if not f.is_zero(T[i][j] - v[i] * v[j]):
                raise DualityError("matrix is not a leg-pair point (T not rank one)")
    a = tuple(of(half * (x + y)) for x, y in zip(u, v))
    b = tuple(of(half * (x - y)) for x, y in zip(u, v))
    d2 = of(sum(c * c for c in a + b) - l_affine)
    return LegPairRecovery((Leg(a, b, d2, f), Leg(b, a, d2, f)))


def recover_leg_pairs_float(sym_coords) -> tuple:
    """Float-mode factorization via eigendecomposition of the rank-2 part
    (signature (1,1)).  Returns (a, b, d2) as float arrays/values.

    Raises DualityError when S is not of rank two (its third eigenvalue above
    1e-9 of its first, or its second negligible) or an anchor is at infinity,
    and ComplexLegError when the rank-2 part is definite."""
    import numpy as np

    c = [float(v) for v in sym_coords]
    S = np.array(symmetric_matrix(c, YINV_NAMES))
    scale = max(1.0, float(np.max(np.abs(S))))
    w, V = np.linalg.eigh(S)
    idx = np.argsort(-np.abs(w))
    w1, w2 = w[idx[0]], w[idx[1]]
    if abs(w[idx[2]]) > 1e-9 * abs(w1):
        raise DualityError("matrix rank exceeds two (float)")
    if abs(w2) < 1e-12 * scale:
        raise DualityError("rank below two: degenerate float leg point")
    if w1 * w2 > 0:
        raise ComplexLegError("complex leg pair (definite rank-2 part)")
    lam_pos, lam_neg = (w1, w2) if w1 > 0 else (w2, w1)
    wp = V[:, idx[0] if w[idx[0]] > 0 else idx[1]]
    wn = V[:, idx[1] if w[idx[0]] > 0 else idx[0]]
    p = np.sqrt(lam_pos / 2.0) * wp
    q = np.sqrt(-lam_neg / 2.0) * wn
    at, bt = p + q, p - q
    if abs(at[0]) < 1e-12 * scale or abs(bt[0]) < 1e-12 * scale:
        raise DualityError("anchor at infinity (float)")
    a = at[1:] / at[0]
    b = bt[1:] / bt[0]
    l_affine = c[YINV_NAMES.index("l")] * 2.0 / S[0][0]
    d2 = float(a @ a + b @ b - l_affine)
    return a, b, d2
