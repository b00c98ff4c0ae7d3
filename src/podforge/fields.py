"""Exact coefficient fields: the rationals and prime fields GF(p).

Scalars are plain Python values: `fractions.Fraction` over the rationals and
canonical int representatives in [0, p) over GF(p).  Arithmetic is plain
`+ - *` on those values, the same code for both fields; a field object only
brings a value into the field (`of`), inverts it (`inv`, so a division is
`x * field.inv(b)`), tests it (`is_zero`, which also reads an unreduced
value), takes a square root over GF(p) (`sqrt`) and prints it (`to_str`).
A value goes through `of` where it is stored or returned.  `slot_layout` is
the one layout of GF(p) values packed a slot each into one int, which the
packed kernels (`groebner._reduce_rows` and `linalg` over GF(p)) share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class FieldError(ValueError):
    """Mismatched or unsupported coefficient fields."""


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, valid for n < 3.3e24
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field Q.  Scalars are Fractions; arithmetic is exact."""

    characteristic = 0
    descriptor = "q"

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        """Coerce an int, Fraction or rational string into the field."""
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise FieldError(f"cannot coerce {x!r} into Q")

    def inv(self, a):
        a = self.of(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def to_str(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field GF(p) for an odd prime p.  Scalars are ints in [0, p)."""

    characteristic: int
    descriptor: str

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if p == 2:
            raise FieldError("GF(2) is not supported (square roots and 1/2 are used)")
        self.p = p
        self.characteristic = p
        self.descriptor = f"fp:{p}"
        self.zero = 0
        self.one = 1

    def of(self, x):
        p = self.p
        if isinstance(x, int):
            return x % p
        if isinstance(x, Fraction):
            den = x.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
            return x.numerator * pow(den, p - 2, p) % p
        if isinstance(x, str):
            return self.of(Fraction(x))
        raise FieldError(f"cannot coerce {x!r} into GF({p})")

    def inv(self, a):
        a = self.of(a)
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def sqrt(self, a):
        """Return a square root of a, or None if a is a non-residue."""
        p = self.p
        a %= p
        if a == 0:
            return 0
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        # Tonelli-Shanks
        if p % 4 == 3:
            r = pow(a, (p + 1) // 4, p)
            return min(r, p - r)
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return min(r, p - r)

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"


def slot_layout(p: int, bound: int, count: int):
    """The layout of `count` slots packed into one int, each holding a value
    in [0, bound), bound >= p, that one multiply-shift reduces mod p, every
    slot at once (Granlund and Montgomery 1994, Division by invariant
    integers using multiplication).  Returns (width, s, magic, ones, mask):
    slot k is bits kW..kW + W - 1 for W = width, `ones` has a 1 at the
    bottom of every slot, and for x whose slots are all below `bound`,
    x - p * (((x * magic) >> s) & mask) holds each slot of x mod p.

    With b = bitlen(bound), c = bitlen(p), s = b + c and magic = ceil(2^s / p),
    floor(x * magic / 2^s) = floor(x / p) for every x < 2^b, since
    magic * p - 2^s < p <= 2^(s - b); and x * magic < 2^(b + s), so with
    W = s + b each slot's product stays in its slot, and `mask` keeps the
    low W - s bits of every slot of the shifted product."""
    b = bound.bit_length()
    s = b + p.bit_length()
    width = s + b
    magic = -(-(1 << s) // p)
    ones = ((1 << (width * count)) - 1) // ((1 << width) - 1)
    mask = ((1 << (width - s)) - 1) * ones
    return width, s, magic, ones, mask


QQ = Rationals()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    """Cached prime-field constructor so GF(p) instances compare by identity."""
    return PrimeField(p)


def field_from_descriptor(desc: str):
    """Parse a field descriptor: "q" for the rationals, "fp:P" for GF(P)."""
    d = desc.strip().lower()
    if d in ("q", "qq", "rational", "rationals"):
        return QQ
    if d.startswith("fp:"):
        return GF(int(d[3:]))
    raise FieldError(f"unknown field descriptor {desc!r}")
