"""Univariate polynomials as ascending coefficient lists.

One kit serves every univariate computation: Hilbert series numerators
(ints), the characteristic-polynomial recurrence (field scalars), roots over
GF(p) (ints mod p) and Sturm sequences (ints and Fractions over Q), plus the
float Newton polish of the real demo.

Coefficients are ints, Fractions or floats under plain arithmetic.  With a
prime `p` every result is reduced mod p into [0, p) and trimmed.  With no
prime, `add` and `mul` return untrimmed lists, because the Hilbert recursion
calls them on its hot path.  The zero polynomial is [].
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm


def trim(a, p=None):
    """A copy of a without trailing zeros, reduced mod p when p is given."""
    out = [c % p for c in a] if p else list(a)
    while out and out[-1] == 0:
        out.pop()
    return out


def add(a, b, scale=1, shift=0, p=None):
    """a + scale * t^shift * b."""
    out = list(a)
    if b:
        out += [0] * (shift + len(b) - len(out))
        for j, y in enumerate(b, shift):
            out[j] += scale * y
    return trim(out, p) if p else out


def mul(a, b, p=None):
    """a * b."""
    if not a or not b:
        return []
    # zeros of a's type: a Fraction entry whose every term is skipped stays a Fraction
    out = [0 * a[0]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] += x * y
    return trim(out, p) if p else out


def divmod(a, b, p=None):
    """(quotient, remainder) of a by a nonzero b, both trimmed.

    Without p the division is exact: ints and Fractions divide as Fractions,
    and a leading coefficient of 1 or -1 keeps int lists int."""
    b = trim(b, p)
    r = trim(a, p)
    if p:
        inv = pow(b[-1], p - 2, p)
    else:
        inv = 1 / Fraction(b[-1])
        if inv.denominator == 1:
            inv = inv.numerator
    q = [0] * max(0, len(r) - len(b) + 1)
    for i in range(len(r) - len(b), -1, -1):
        f = r[i + len(b) - 1] * inv
        if p:
            f %= p
        if f:
            q[i] = f
            for j, y in enumerate(b, i):
                r[j] -= f * y
    return trim(q, p), trim(r[: len(b) - 1], p)


def normalized(a, p=None):
    """The canonical associate of a: monic over GF(p); over Q the positive
    multiple with coprime integer coefficients, which keeps every sign (and
    so every Sturm sign variation) while bounding coefficient growth."""
    a = trim(a, p)
    if not a:
        return a
    if p:
        inv = pow(a[-1], p - 2, p)
        return [c * inv % p for c in a]
    den = _int_lcm(*(c.denominator for c in a))
    ints = [c.numerator * (den // c.denominator) for c in a]
    g = _int_gcd(*ints)
    return [c // g for c in ints]


def gcd(a, b, p=None):
    """The normalized gcd: Euclid over GF(p); over Q the primitive remainder
    sequence, which stays on small integer representatives."""
    a, b = normalized(a, p), normalized(b, p)
    while b:
        a, b = b, normalized(divmod(a, b, p)[1], p)
    return a


def evaluate(a, x, p=None):
    """a(x) by Horner's rule, reduced mod p when p is given."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
        if p:
            acc %= p
    return acc


def derivative(a, p=None):
    """d/dt a, trimmed."""
    return trim([i * c for i, c in enumerate(a)][1:], p)


def powmod(a, e, m, p=None):
    """a^e modulo m, by repeated squaring."""
    result = [1]
    a = divmod(a, m, p)[1]
    while e:
        if e & 1:
            result = divmod(mul(result, a, p), m, p)[1]
        e >>= 1
        if e:
            a = divmod(mul(a, a, p), m, p)[1]
    return result
