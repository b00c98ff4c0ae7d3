"""Exact dense linear algebra over Q or GF(p).

Matrices are lists of equal-length rows of field scalars.  Everything is
deterministic: pivots are chosen first-nonzero, kernel bases follow the
standard free-column convention, so results are reproducible bit for bit.
The characteristic polynomial's Hessenberg recurrence runs on `unipoly`
coefficient lists (ints mod p over GF(p), Fractions over Q).
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


def rref(rows, field):
    """Reduced row echelon form.  Returns (rref rows, pivot column indices)."""
    m = _coerce_matrix(rows, field)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= len(m):
            break
        sel = None
        for i in range(row, len(m)):
            if not field.is_zero(m[i][col]):
                sel = i
                break
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        inv = field.inv(m[row][col])
        m[row] = [field.mul(c, inv) for c in m[row]]
        for i in range(len(m)):
            if i != row and not field.is_zero(m[i][col]):
                f = m[i][col]
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
    return m[:row], pivots


def rank(rows, field) -> int:
    return len(rref(rows, field)[1])


def matrix_kernel(rows, field=QQ):
    """Exact basis of the right kernel of the matrix; [] if injective.

    Kernel vectors follow the RREF free-column convention: one basis vector
    per non-pivot column, with a 1 in that column.
    """
    m = _coerce_matrix(rows, field)
    if not m:
        return []
    ncols = len(m[0])
    red, pivots = rref(m, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for r, pc in zip(red, pivots):
            v[pc] = field.neg(r[free])
        basis.append(v)
    return basis


def row_space_basis(rows, field):
    """Canonical (RREF) basis of the row space."""
    red, _ = rref(rows, field)
    return red


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def det(rows, field):
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    m = _coerce_matrix(rows, field)
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    acc = field.one
    for col in range(n):
        sel = None
        for i in range(col, n):
            if not field.is_zero(m[i][col]):
                sel = i
                break
        if sel is None:
            return field.zero
        if sel != col:
            m[col], m[sel] = m[sel], m[col]
            sign = -sign
        piv = m[col][col]
        acc = field.mul(acc, piv)
        inv = field.inv(piv)
        for i in range(col + 1, n):
            if not field.is_zero(m[i][col]):
                f = field.mul(m[i][col], inv)
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[col])]
    if sign < 0:
        acc = field.neg(acc)
    return acc


def mat_mul(a, b, field):
    bt = _transpose(b)
    return [[_dot(r, c, field) for c in bt] for r in a]


def _dot(u, v, field):
    acc = field.zero
    for x, y in zip(u, v):
        acc = field.add(acc, field.mul(x, y))
    return acc


def mat_vec(a, v, field):
    """a times the column vector v, skipping the zero entries of v."""
    nonzero = [(k, x) for k, x in enumerate(v) if not field.is_zero(x)]
    out = []
    for r in a:
        acc = field.zero
        for k, x in nonzero:
            acc = field.add(acc, field.mul(r[k], x))
        out.append(acc)
    return out


def mat_inverse(rows, field):
    """Exact inverse; raises on singular input."""
    m = _coerce_matrix(rows, field)
    n = len(m)
    aug = [m[i] + [field.one if j == i else field.zero for j in range(n)] for i in range(n)]
    red, pivots = rref(aug, field)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n:] for r in red]


def charpoly(rows, field):
    """Characteristic polynomial det(xI - A) as a coefficient list, ascending
    powers, monic.  Hessenberg reduction followed by the standard recurrence."""
    a = _coerce_matrix(rows, field)
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("characteristic polynomial of a non-square matrix")
    if n == 0:
        return [field.one]
    # reduce to upper Hessenberg form by similarity transforms
    for col in range(n - 2):
        piv = None
        for i in range(col + 1, n):
            if not field.is_zero(a[i][col]):
                piv = i
                break
        if piv is None:
            continue
        if piv != col + 1:
            a[col + 1], a[piv] = a[piv], a[col + 1]
            for r in a:
                r[col + 1], r[piv] = r[piv], r[col + 1]
        inv = field.inv(a[col + 1][col])
        for i in range(col + 2, n):
            if not field.is_zero(a[i][col]):
                f = field.mul(a[i][col], inv)
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[col + 1])]
                for r in a:
                    r[col + 1] = field.add(r[col + 1], field.mul(f, r[i]))
    # charpoly of Hessenberg matrix: p_0 = 1, p_k = charpoly of leading k x k block
    p = None if field is QQ else field.p
    polys = [[field.one]]
    for k in range(1, n + 1):
        # p_k(x) = (x - a[k-1][k-1]) p_{k-1}(x) - sum_{i} a[i-1][k-1] * (prod subdiag) p_{i-1}(x)
        pk = unipoly.mul(polys[k - 1], [field.neg(a[k - 1][k - 1]), field.one], p)
        prod = field.one
        for i in range(k - 1, 0, -1):
            prod = field.mul(prod, a[i][i - 1])
            term = field.mul(prod, a[i - 1][k - 1])
            if not field.is_zero(term):
                pk = unipoly.add(pk, polys[i - 1], scale=field.neg(term), p=p)
        polys.append(pk)
    return polys[n]
