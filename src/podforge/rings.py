"""Sparse exact multivariate polynomials with weighted gradings.

Monomials are packed into single Python ints, eight bits per variable, so that
multiplication is integer addition and divisibility is a two-instruction guard
trick.  Exponents are therefore capped at 127, far beyond anything the ideals
here produce.  Monomial orders are weighted degree-reverse-lexicographic, with
an optional two-block elimination variant; order keys are memoized per ring so
comparisons inside Buchberger loops are plain int comparisons.

Only this module knows the byte layout.  Other modules handle monomials
through `RingContext`: `pack`/`unpack` and `units` (one per variable), `+`/`-`
to multiply and divide, `guard_mask` to catch an exponent above the cap,
`first_divisor` for the lead scan, `lcms_with`, `minimal_monomials` and
`split_pure_powers` for the pair update and the Hilbert numerator, and
`coerce` between rings by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import mul

from .fields import QQ, FieldError

EXP_BITS = 8
EXP_MASK = 0xFF
EXP_MAX = 127

DEGREVLEX = ("degrevlex",)


def elim_order(n_eliminated: int):
    """Two-block order: the first n_eliminated variables dominate."""
    return ("elim", n_eliminated)


@dataclass(frozen=True)
class RingContext:
    """An ordered polynomial ring: named variables, positive integer weights,
    a graded monomial order, and the coefficient field."""

    names: tuple
    weights: tuple
    order: tuple = DEGREVLEX
    field: object = QQ

    def __post_init__(self):
        if len(self.names) != len(self.weights):
            raise ValueError("one weight per variable required")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        if self.order[0] == "elim" and not 0 < self.order[1] < len(self.names):
            raise ValueError("elimination block must be a proper nonempty prefix")

    # -- derived helpers (cached per instance) --------------------------------

    @cached_property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def var_index(self) -> dict:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def units(self) -> tuple:
        """The packed monomial of each variable."""
        return tuple(1 << (EXP_BITS * i) for i in range(self.n))

    @cached_property
    def guard_mask(self) -> int:
        """Bit 7 of every byte: set in a product iff an exponent passed the cap."""
        return sum(self.units) << 7

    @cached_property
    def _key_blocks(self):
        if self.order[0] == "degrevlex":
            return (tuple(range(self.n)),)
        k = self.order[1]
        return (tuple(range(k)), tuple(range(k, self.n)))

    @cached_property
    def _key_cache(self) -> dict:
        return {}

    def sort_key(self, m: int) -> int:
        """Total-order key: key(a) > key(b) iff a > b in the ring's order."""
        cache = self._key_cache
        k = cache.get(m)
        if k is None:
            k = 0
            w = self.weights
            for block in self._key_blocks:
                d = 0
                rev = 0
                for pos, i in enumerate(block):
                    e = (m >> (EXP_BITS * i)) & EXP_MASK
                    d += w[i] * e
                    rev |= (EXP_MAX - e) << (EXP_BITS * pos)
                k = (k << (16 + EXP_BITS * len(block))) | (d << (EXP_BITS * len(block))) | rev
            cache[m] = k
        return k

    # -- packed monomials ------------------------------------------------------

    def pack(self, exps) -> int:
        m = 0
        for i, e in enumerate(exps):
            if not 0 <= e <= EXP_MAX:
                raise ValueError(f"exponent {e} out of range [0, {EXP_MAX}]")
            m |= e << (EXP_BITS * i)
        return m

    def unpack(self, m: int) -> tuple:
        return tuple(m.to_bytes(self.n, "little"))

    def wdeg(self, m: int) -> int:
        return sum(map(mul, self.weights, m.to_bytes(self.n, "little")))

    # The tests below work on all bytes at once: with every exponent at most
    # 127, (b | guard) - a borrows within no byte, and its bit 7 in a byte is
    # set iff that exponent of b is at least the one of a.

    def monomial_divides(self, a: int, b: int) -> bool:
        """True iff monomial a divides monomial b."""
        g = self.guard_mask
        return ((b | g) - a) & g == g

    def first_divisor(self, m: int, leads, start: int = 0):
        """Index of the first monomial in leads[start:] that divides m, or None."""
        g = self.guard_mask
        mg = m | g
        for i in range(start, len(leads)):
            if (mg - leads[i]) & g == g:
                return i
        return None

    def lcms_with(self, monos, m: int) -> list:
        """lcm(a, m) for each monomial a of monos, in order.  Two monomials
        are coprime exactly when their lcm is their product a + m."""
        g = self.guard_mask
        # t holds a_i - m_i in the low bits of each byte where a_i >= m_i
        return [m + (t & ((t & g) >> 7) * 0x7F) for t in [(a | g) - m for a in monos]]

    def minimal_monomials(self, monos) -> list:
        """The minimal elements of a collection of monomials under
        divisibility, each once, in increasing packed value: a divisor is
        never the larger int, so one pass in that order finds them."""
        out = []
        for m in sorted(set(monos)):
            if self.first_divisor(m, out) is None:
                out.append(m)
        return out

    def split_pure_powers(self, monos) -> tuple:
        """(the powers of a single variable, the rest) among nonconstant monomials."""
        g = self.guard_mask
        ones = g >> 7
        pure, mixed = [], []
        for m in monos:
            s = ((m | g) - ones) & g  # bit 7 of each byte whose exponent is nonzero
            (mixed if s & (s - 1) else pure).append(m)
        return pure, mixed

    # -- element constructors --------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {0: self.field.one})

    def constant(self, c) -> "Polynomial":
        c = self.field.of(c)
        return Polynomial(self, {} if self.field.is_zero(c) else {0: c})

    def gen(self, name_or_index) -> "Polynomial":
        i = name_or_index if isinstance(name_or_index, int) else self.var_index[name_or_index]
        return Polynomial(self, {self.units[i]: self.field.one})

    def gens(self) -> tuple:
        return tuple(self.gen(i) for i in range(self.n))

    def from_terms(self, pairs) -> "Polynomial":
        """Build from (exponent tuple, coefficient) pairs; repeats accumulate."""
        of = self.field.of
        p = self.field.characteristic
        terms = {}
        for exps, c in pairs:
            m = self.pack(exps)
            c = terms.get(m, 0) + of(c)
            if p:
                c %= p
            if c:
                terms[m] = c
            else:
                terms.pop(m, None)
        return Polynomial(self, terms)

    def coerce(self, f: "Polynomial") -> "Polynomial":
        """The polynomial f of another ring in this ring, each variable mapped
        to the variable of the same name (weights, order and field may
        differ).  Raises FieldError when a variable that occurs in f is not a
        variable of this ring."""
        src = f.ring
        if src == self:
            return f
        fld = self.field
        place = self.var_index
        by_name = src.names != self.names
        terms = {}
        for m, c in f.terms.items():
            if by_name:
                exps = [0] * self.n
                for name, e in zip(src.names, src.unpack(m)):
                    if e:
                        if name not in place:
                            raise FieldError(f"cannot coerce: {name} is not a variable of {self!r}")
                        exps[place[name]] = e
                m = self.pack(exps)
            c = fld.of(c)
            if not fld.is_zero(c):
                terms[m] = c
        return Polynomial(self, terms)

    # -- canonical text format -------------------------------------------------

    def format_term(self, m: int, c) -> str:
        fld = self.field
        facs = []
        for name, e in zip(self.names, m.to_bytes(self.n, "little")):
            if e == 1:
                facs.append(name)
            elif e > 1:
                facs.append(f"{name}^{e}")
        cs = fld.to_str(c)
        if not facs:
            return cs
        if cs == "1":
            return "*".join(facs)
        if cs == "-1":
            return "-" + "*".join(facs)
        return cs + "*" + "*".join(facs)

    def __repr__(self):
        kind = "degrevlex" if self.order[0] == "degrevlex" else f"elim({self.order[1]})"
        return f"Ring({','.join(self.names)}; weights={list(self.weights)}; {kind}; {self.field!r})"


class Polynomial:
    """Immutable sparse polynomial over a RingContext.

    `terms` maps packed monomials to nonzero field scalars.  Never mutate it.
    """

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring: RingContext, terms: dict):
        self.ring = ring
        self.terms = terms
        self._lead = None

    # -- basic queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def lead_monomial(self) -> int:
        if self._lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            self._lead = max(self.terms, key=self.ring.sort_key)
        return self._lead

    def lead_coeff(self):
        return self.terms[self.lead_monomial()]

    def wdegree(self) -> int:
        """Maximum weighted degree over the terms (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(self.ring.wdeg(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {self.ring.wdeg(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        degs = {self.ring.wdeg(m) for m in self.terms}
        if len(degs) != 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop()

    def coefficient(self, exps):
        return self.terms.get(self.ring.pack(exps), self.ring.field.zero)

    def sorted_terms(self) -> list:
        key = self.ring.sort_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise FieldError("polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return self + self.ring.constant(other)
        self._check(other)
        p = self.ring.field.characteristic
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for m, c in b.items():
            c += out.get(m, 0)
            if p:
                c %= p
            if c:
                out[m] = c
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out)

    def __neg__(self):
        p = self.ring.field.characteristic
        return Polynomial(self.ring, {m: -c % p if p else -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return self - self.ring.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        ring = self.ring
        p = ring.field.characteristic  # 0 over Q
        guard = ring.guard_mask
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        # each sum is reduced as it is formed: summing unreduced and reducing
        # once at the end measured 1.1-1.4x slower on GF(101) products
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                if m & guard:
                    raise OverflowError("monomial exponent overflow (cap 127)")
                c = out.get(m, 0) + c1 * c2
                if p:
                    c %= p
                if c:
                    out[m] = c
                else:
                    out.pop(m, None)
        return Polynomial(ring, out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = self.ring.field.of(c)
        if not c:
            return self.ring.zero()
        p = self.ring.field.characteristic
        return Polynomial(self.ring, {m: v * c % p if p else v * c for m, v in self.terms.items()})

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.lead_coeff()))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def mul_term(self, m_shift: int, c):
        """Multiply by the single term c*x^m_shift."""
        p = self.ring.field.characteristic
        guard = self.ring.guard_mask
        out = {}
        for m, v in self.terms.items():
            mm = m + m_shift
            if mm & guard:
                raise OverflowError("monomial exponent overflow (cap 127)")
            out[mm] = v * c % p if p else v * c
        return Polynomial(self.ring, out)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not self.terms and other == 0:
                return True
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.names, frozenset(self.terms.items())))

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, values):
        """Evaluate at a full vector of field scalars."""
        ring = self.ring
        fld = ring.field
        p = fld.characteristic
        if len(values) != ring.n:
            raise ValueError("need one value per variable")
        vals = [fld.of(v) for v in values]
        total = 0
        for m, c in self.terms.items():
            for v, e in zip(vals, m.to_bytes(ring.n, "little")):
                if e:
                    c *= v ** e
            total += c
            if p:
                total %= p
        return fld.of(total)

    def evaluate_float(self, values) -> float:
        n = self.ring.n
        total = 0.0
        for m, c in self.terms.items():
            t = float(c)
            for v, e in zip(values, m.to_bytes(n, "little")):
                if e:
                    t *= float(v) ** e
            total += t
        return total

    def derivative(self, var) -> "Polynomial":
        ring = self.ring
        p = ring.field.characteristic
        i = var if isinstance(var, int) else ring.var_index[var]
        shift = EXP_BITS * i
        out = {}
        for m, c in self.terms.items():
            e = (m >> shift) & EXP_MASK
            if e:
                c *= e
                if p:
                    c %= p
                if c:
                    out[m - (1 << shift)] = c
        return Polynomial(ring, out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            s = self.ring.format_term(m, c)
            if not parts:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(" - " + s[1:])
            else:
                parts.append(" + " + s)
        return "".join(parts)

    def __repr__(self):
        return f"<{self}>"


def minors(rows, k: int) -> list:
    """The k x k minors of a matrix of Polynomials (a list of equal-length
    rows over one ring): row subsets outside, column subsets inside, both in
    `itertools.combinations` order.  Each minor is a Laplace expansion along
    its first row; sub-determinants shared between minors are computed once."""
    zero = rows[0][0].ring.zero()
    memo = {}

    def det(rs, cs):
        if len(rs) == 1:
            return rows[rs[0]][cs[0]]
        out = memo.get((rs, cs))
        if out is None:
            out = zero
            for t, c in enumerate(cs):
                entry = rows[rs[0]][c]
                if entry:
                    term = entry * det(rs[1:], cs[:t] + cs[t + 1:])
                    out = out - term if t % 2 else out + term
            memo[rs, cs] = out
        return out

    return [
        det(rs, cs)
        for rs in combinations(range(len(rows)), k)
        for cs in combinations(range(len(rows[0])), k)
    ]


class RingMap:
    """A ring homomorphism determined by one target image per source variable."""

    def __init__(self, source: RingContext, target: RingContext, images):
        if len(images) != source.n:
            raise ValueError("one image per source variable required")
        if source.field is not target.field:
            raise FieldError("ring maps require matching coefficient fields")
        for img in images:
            if img.ring != target:
                raise FieldError("image not in the target ring")
        self.source = source
        self.target = target
        self.images = tuple(images)
        self._pow_cache = {}

    def _power(self, i: int, e: int) -> Polynomial:
        key = (i, e)
        f = self._pow_cache.get(key)
        if f is None:
            if e == 1:
                f = self.images[i]
            elif e % 2:
                f = self._power(i, e - 1) * self.images[i]
            else:
                h = self._power(i, e // 2)
                f = h * h
            self._pow_cache[key] = f
        return f

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.ring != self.source:
            raise FieldError("polynomial not in the source ring")
        tgt = self.target
        acc = tgt.zero()
        for m, c in f.terms.items():
            t = tgt.constant(c)
            for i, e in enumerate(self.source.unpack(m)):
                if e:
                    t = t * self._power(i, e)
            acc = acc + t
        return acc
