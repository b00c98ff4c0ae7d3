"""Exact dense linear algebra over Q or GF(p).

Matrices are lists of equal-length rows of field scalars.  Everything is
deterministic: pivots are chosen first-nonzero, kernel bases follow the
standard free-column convention, so results are reproducible bit for bit.

One Gauss-Jordan loop per field (`_gauss_jordan`) is the only elimination:
`rref`, `rank`, `row_space_basis`, `matrix_kernel` and `mat_inverse` read its
RREF, `det` the signed product of the pivots it divides by.  Over Q the loop
is plain `a - f * b` on Fraction rows; a value enters the field (`field.of`,
`field.inv`) only where it is read as a pivot or a factor, or returned.  Over
GF(p) a row is one int with a slot a column (`fields.slot_layout`): a row
update is one multiply-add, then one multiply-shift reduces every slot mod p,
and the first nonzero column of a row is its lowest set bit.  `mat_mul`
packs the rows of its right factor the same way, so a row of the product is
one sum of multiply-adds and one reduction.  The characteristic polynomial
over GF(p) is the minimal polynomial of e_0 read off its packed Krylov rows
e_0, e_0 A, ..., when that has degree n; otherwise, and over Q, it comes
from the Hessenberg recurrence on `unipoly` coefficient lists (ints mod p
over GF(p), Fractions over Q).  RREF, determinant, product and monic
characteristic polynomial are unique, so the route never shows in a result.
"""

from __future__ import annotations

from . import unipoly
from .fields import QQ, slot_layout


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
    if field is not QQ:
        return _gauss_jordan_packed(m, field.p)
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


def _pack(row, width):
    """The int holding the entries of row (ints in [0, p)), entry j in slot j."""
    return sum(v << (j * width) for j, v in enumerate(row) if v)


def _unpack(x, width, count):
    slot = (1 << width) - 1
    return [(x >> (j * width)) & slot for j in range(count)]


def _gauss_jordan_packed(m, p):
    """`_gauss_jordan` over GF(p), on packed rows: the same pivots, each row
    kept reduced.  An update adds (p - f) times the monic pivot row, so a
    slot stays below p^2 until its reduction."""
    ncols = len(m[0]) if m else 0
    width, s, magic, _, mask = slot_layout(p, p * p, ncols)
    slot = (1 << width) - 1
    m = [_pack(r, width) for r in m]
    pivots = []
    scale = 1
    row = 0
    for col in range(ncols):
        at = col * width
        sel = next((i for i in range(row, len(m)) if (m[i] >> at) & slot), None)
        if sel is None:
            continue
        if sel != row:
            m[row], m[sel] = m[sel], m[row]
            scale = -scale
        piv = (m[row] >> at) & slot
        scale = scale * piv % p
        x = m[row] * pow(piv, p - 2, p)
        prow = m[row] = x - p * (((x * magic) >> s) & mask)
        for i, x in enumerate(m):
            if i != row:
                f = (x >> at) & slot
                if f:
                    x += (p - f) * prow
                    m[i] = x - p * (((x * magic) >> s) & mask)
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return [_unpack(x, width, ncols) for x in m[:row]], pivots, scale


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
    """The product a b.  Over GF(p) the rows of b are packed, so a row of the
    product is one sum of multiply-adds, whose slots stay below
    len(b) * p^2, and one reduction."""
    if field is QQ or not b or not b[0]:
        bt = _transpose(b)
        return [[field.of(sum(x * y for x, y in zip(r, c))) for c in bt] for r in a]
    p, of, ncols = field.p, field.of, len(b[0])
    width, s, magic, _, mask = slot_layout(p, len(b) * p * p, ncols)
    packed = [_pack([of(c) for c in r], width) for r in b]
    out = []
    for r in a:
        x = sum(of(v) * y for v, y in zip(r, packed) if v)
        out.append(_unpack(x - p * (((x * magic) >> s) & mask), width, ncols))
    return out


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
    powers, monic.  Over GF(p), the minimal polynomial of e_0 when it has
    degree n (`_krylov_charpoly`); otherwise, and over Q, Hessenberg
    reduction followed by the standard recurrence."""
    a = _coerce_matrix(rows, field)
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("characteristic polynomial of a non-square matrix")
    if n == 0:
        return [field.one]
    if field is not QQ:
        poly = _krylov_charpoly(a, field.p)
        if poly is not None:
            return poly
    return _hessenberg_charpoly(a, field)


def _krylov_charpoly(a, p):
    """The characteristic polynomial of the n x n matrix a over GF(p) when
    e_0 is cyclic for it, else None.

    The rows v_k = e_0 a^k are packed with n slots for v_k and n + 1 slots
    that record it as a combination of v_0..v_k (v_k starts with a 1 in
    slot n + k), and are echelonized one at a time, each by the monic rows
    kept before it, in order.  The first v_k that reduces to zero in its n
    vector slots gives the relation sum_i t_i v_i = 0 with t_k = 1, that is
    e_0 q(a) = 0 for the monic q = sum_i t_i x^i of degree k, the minimal
    polynomial of e_0.  It divides the minimal polynomial of a, which
    divides the characteristic polynomial; so when k = n it is the
    characteristic polynomial."""
    n = len(a)
    width, s, magic, _, mask = slot_layout(p, (n + 1) * p * p, 2 * n + 1)
    slot = (1 << width) - 1
    low = (1 << (n * width)) - 1
    packed = [_pack(r, width) for r in a]
    kept = []  # (lead slot offset, monic row)
    v = 1  # v_0 = e_0
    for k in range(n + 1):
        x = v + (1 << ((n + k) * width))
        for at, row in kept:
            f = (x >> at) & slot
            if f:
                x += (p - f) * row
                x -= p * (((x * magic) >> s) & mask)
        if not x & low:
            return _unpack(x >> (n * width), width, n + 1) if k == n else None
        at = ((x & -x).bit_length() - 1) // width * width
        x *= pow((x >> at) & slot, p - 2, p)
        kept.append((at, x - p * (((x * magic) >> s) & mask)))
        x = sum(c * y for c, y in zip(_unpack(v, width, n), packed) if c)
        v = x - p * (((x * magic) >> s) & mask)


def _hessenberg_charpoly(a, field):
    """The characteristic polynomial of the coerced n x n matrix a (n >= 1,
    consumed): reduction to upper Hessenberg form by similarity transforms,
    then the recurrence on its leading blocks."""
    of = field.of
    n = len(a)
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
