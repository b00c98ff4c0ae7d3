"""Exact dense linear algebra over Q or GF(p).

Matrices are lists of equal-length rows of field scalars.  Everything is
deterministic: pivots are chosen first-nonzero, kernel bases follow the
standard free-column convention, so results are reproducible bit for bit.

One Gauss-Jordan loop (`_gauss_jordan`) is the only elimination: `rref`,
`rank`, `row_space_basis`, `matrix_kernel` and `mat_inverse` read its RREF,
`det` the signed product of the pivots it divides by.  Arithmetic is plain
`a - f * b`, the same for both fields; a value enters the field (`field.of`,
`field.inv`) only where it is read as a pivot or a factor, or returned.  Over
GF(p) every factor and every pivot row is reduced, so an entry grows by less
than p^2 per pivot.  The characteristic polynomial's Hessenberg recurrence
runs on `unipoly` coefficient lists (ints mod p over GF(p), Fractions over Q).
"""

from __future__ import annotations

from . import unipoly
from .fields import QQ


def _coerce_matrix(rows, field):
    if not rows:
        return []
    width = len(rows[0])
    out = []
    for r in rows:
        if len(r) != width:
            raise ValueError("ragged rows")
        out.append([field.of(c) for c in r])
    return out


def _gauss_jordan(m, field):
    """Reduce the coerced matrix m in place.  Returns (RREF rows, pivot
    column indices, signed product of the pivots)."""
    of = field.of
    pivots = []
    scale = field.one
    row = 0
    for col in range(len(m[0]) if m else 0):
        sel = next((i for i in range(row, len(m)) if of(m[i][col])), None)
        if sel is None:
            continue
        if sel != row:
            m[row], m[sel] = m[sel], m[row]
            scale = -scale
        piv = of(m[row][col])
        scale = of(scale * piv)
        inv = field.inv(piv)
        prow = m[row] = [of(c * inv) if c else c for c in m[row]]
        for i, r in enumerate(m):
            if r[col] and i != row:
                f = of(r[col])
                m[i] = [a - f * b if b else a for a, b in zip(r, prow)]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return [[of(c) for c in r] for r in m[:row]], pivots, scale


def rref(rows, field):
    """Reduced row echelon form.  Returns (rref rows, pivot column indices)."""
    red, pivots, _ = _gauss_jordan(_coerce_matrix(rows, field), field)
    return red, pivots


def rank(rows, field) -> int:
    return len(rref(rows, field)[1])


def matrix_kernel(rows, field):
    """Exact basis of the right kernel of the matrix; [] if injective.

    Kernel vectors follow the RREF free-column convention: one basis vector
    per non-pivot column, with a 1 in that column.
    """
    red, pivots = rref(rows, field)
    ncols = len(rows[0]) if rows else 0
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = [field.zero] * ncols
        v[free] = field.one
        for r, pc in zip(red, pivots):
            v[pc] = field.of(-r[free])
        basis.append(v)
    return basis


def row_space_basis(rows, field):
    """Canonical (RREF) basis of the row space."""
    red, _ = rref(rows, field)
    return red


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def det(rows, field):
    """Exact determinant: the signed product of the Gauss-Jordan pivots, or 0
    below full rank."""
    m = _coerce_matrix(rows, field)
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    _, pivots, scale = _gauss_jordan(m, field)
    return scale if len(pivots) == n else field.zero


def mat_mul(a, b, field):
    bt = _transpose(b)
    return [[field.of(sum(x * y for x, y in zip(r, c))) for c in bt] for r in a]


def mat_vec(a, v, field):
    """a times the column vector v, skipping the zero entries of v."""
    nonzero = [(k, x) for k, x in enumerate(v) if not field.is_zero(x)]
    return [field.of(sum(r[k] * x for k, x in nonzero)) for r in a]


def mat_inverse(rows, field):
    """Exact inverse; raises on singular input."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("inverse of a non-square matrix")
    red, pivots = rref([list(r) + [int(j == i) for j in range(n)] for i, r in enumerate(rows)], field)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n:] for r in red]


def charpoly(rows, field):
    """Characteristic polynomial det(xI - A) as a coefficient list, ascending
    powers, monic.  Hessenberg reduction followed by the standard recurrence."""
    of = field.of
    a = _coerce_matrix(rows, field)
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("characteristic polynomial of a non-square matrix")
    if n == 0:
        return [field.one]
    # reduce to upper Hessenberg form by similarity transforms
    for col in range(n - 2):
        piv = next((i for i in range(col + 1, n) if a[i][col]), None)
        if piv is None:
            continue
        if piv != col + 1:
            a[col + 1], a[piv] = a[piv], a[col + 1]
            for r in a:
                r[col + 1], r[piv] = r[piv], r[col + 1]
        inv = field.inv(a[col + 1][col])
        for i in range(col + 2, n):
            if a[i][col]:
                f = of(a[i][col] * inv)
                a[i] = [of(x - f * y) for x, y in zip(a[i], a[col + 1])]
                for r in a:
                    r[col + 1] = of(r[col + 1] + f * r[i])
    # charpoly of Hessenberg matrix: p_0 = 1, p_k = charpoly of leading k x k
    # block; unipoly reduces mod p
    p = None if field is QQ else field.p
    polys = [[field.one]]
    for k in range(1, n + 1):
        # p_k(x) = (x - a[k-1][k-1]) p_{k-1}(x) - sum_{i} a[i-1][k-1] * (prod subdiag) p_{i-1}(x)
        pk = unipoly.mul(polys[k - 1], [-a[k - 1][k - 1], field.one], p)
        prod = field.one
        for i in range(k - 1, 0, -1):
            prod = of(prod * a[i][i - 1])
            term = prod * a[i - 1][k - 1]
            if term:
                pk = unipoly.add(pk, polys[i - 1], scale=-term, p=p)
        polys.append(pk)
    return polys[n]
