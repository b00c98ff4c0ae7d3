"""Reduced Groebner bases, normal forms, elimination, and Hilbert data.

Buchberger with the Gebauer-Moeller pair criteria, run degree by degree:
S-pairs are taken by (weighted degree, order key) and each input generator is
reduced at its own degree.  Given the Hilbert series of the ideal (which does
not depend on the monomial order), the run skips the rest of a degree once the
lead ideal's Hilbert function matches the known one there, and stops once the
two series agree (Traverso 1996, Hilbert functions and the Buchberger
algorithm); elimination supplies that series for free.

All reduction goes through one heap-driven kernel, `_reduce`, with one loop
per field: the run's S-polynomial and generator reductions, the final
interreduction (each minimal element is its lead plus the normal form of its
tail modulo the finished basis) and `reduce_by_basis`.  Each term is reduced
by the first basis element whose lead divides it; in the run that lookup is
cached per monomial.  Basis elements are kept monic over GF(p) and
content-normalized over Q during the run.  The reduced basis is unique for a
fixed order, so output is bit-reproducible regardless of internal scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import inf
from operator import le

from .fields import QQ, FieldError
from .rings import DEGREVLEX, EXP_BITS, EXP_MASK, EXP_MAX, Polynomial, RingContext, elim_order


class BudgetExceeded(RuntimeError):
    """Raised when a Groebner run exceeds its step budget."""


class Ideal:
    """A homogeneous ideal with cached reduced Groebner bases per order."""

    __slots__ = ("ring", "generators", "_gb", "_hilbert")

    def __init__(self, ring: RingContext, generators):
        gens = []
        for g in generators:
            if g.ring != ring:
                g = ring.coerce(g)
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise ValueError(f"inhomogeneous generator: {g}")
            gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb = {}
        self._hilbert = None

    def groebner_basis(self, order=None):
        order = tuple(order) if order is not None else self.ring.order
        gb = self._gb.get(order)
        if gb is None:
            gb = buchberger(self, order)
            self._gb[order] = gb
        return gb

    def seed_groebner_cache(self, order, gb):
        self._gb[tuple(order)] = tuple(gb)

    def seed_hilbert_cache(self, data: HilbertData):
        self._hilbert = data

    def __add__(self, other):
        if isinstance(other, Ideal):
            if other.ring != self.ring:
                raise FieldError("ideals from different rings")
            return Ideal(self.ring, self.generators + other.generators)
        return Ideal(self.ring, self.generators + tuple(other))

    def contains_point(self, coords) -> bool:
        """Exact test that every generator vanishes at the coordinate vector."""
        return all(self.ring.field.is_zero(g.evaluate(coords)) for g in self.generators)

    def __repr__(self):
        return f"Ideal({len(self.generators)} gens in {self.ring!r})"


@dataclass(frozen=True)
class HilbertData:
    """Projective dimension, degree, Hilbert polynomial (ascending rational
    coefficients), the arithmetic genus when the scheme is a curve, and the
    Hilbert series numerator: HS(t) = numerator(t) / (1 - t)^(dimension + 1),
    ascending integer coefficients."""

    dimension: int
    degree: int
    hilbert_polynomial: tuple
    arithmetic_genus: int | None = None
    numerator: tuple = ()

    def triple(self):
        return (self.dimension, self.degree, self.arithmetic_genus)


# ---------------------------------------------------------------------------
# Buchberger engine
# ---------------------------------------------------------------------------


def _normalize_qq(terms):
    """Scale a Fraction term dict to coprime integers, positive lead left to caller."""
    from math import gcd

    num, den = 0, 1
    for c in terms.values():
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    if num == 0:
        return terms
    scale = Fraction(den, num)
    return {m: c * scale for m, c in terms.items()}


def _split_lead(terms, lm, p):
    """(tail, lead coefficient) of a term dict with lead monomial lm: the tail
    as (monomial, coeff) pairs, scaled to a monic reducer over GF(p)."""
    lc = terms[lm]
    if p:
        inv = pow(lc, p - 2, p)
        return [(m, c * inv % p) for m, c in terms.items() if m != lm], 1
    return [(m, c) for m, c in terms.items() if m != lm], Fraction(lc)


def _reduce(work, find_reducer, leads, tails, lcoeffs, key, p, guard):
    """Full normal form of the term dict `work` (consumed), returned as a term
    dict in decreasing monomial order.

    Reducer i is leads[i] plus the (monomial, coeff) pairs tails[i] with lead
    coefficient lcoeffs[i]; find_reducer(m) picks the reducer of monomial m.
    Over GF(p) (p given) every reducer must be monic; over Q (p None) the
    coefficients are Fractions.  Raises OverflowError when a new monomial
    needs an exponent above the cap."""
    out = {}
    heap = [(-key(m), m) for m in work]
    heapify(heap)
    if p:
        while heap:
            m = heappop(heap)[1]
            c = work.pop(m, 0)
            if not c:
                continue
            idx = find_reducer(m)
            if idx is None:
                out[m] = c
                continue
            shift = m - leads[idx]
            for e, ce in tails[idx]:
                mm = e + shift
                prev = work.get(mm)
                if prev is None:
                    v = -c * ce % p
                    if v:
                        if mm & guard:
                            raise OverflowError(f"monomial exponent above the cap {EXP_MAX}")
                        work[mm] = v
                        heappush(heap, (-key(mm), mm))
                else:
                    v = (prev - c * ce) % p
                    if v:
                        work[mm] = v
                    else:
                        del work[mm]
    else:
        while heap:
            m = heappop(heap)[1]
            c = work.pop(m, 0)
            if not c:
                continue
            idx = find_reducer(m)
            if idx is None:
                out[m] = c
                continue
            t = c / lcoeffs[idx]
            shift = m - leads[idx]
            for e, ce in tails[idx]:
                mm = e + shift
                prev = work.get(mm)
                if prev is None:
                    v = -t * ce
                    if v:
                        if mm & guard:
                            raise OverflowError(f"monomial exponent above the cap {EXP_MAX}")
                        work[mm] = v
                        heappush(heap, (-key(mm), mm))
                else:
                    v = prev - t * ce
                    if v:
                        work[mm] = v
                    else:
                        del work[mm]
    return out


def _gb_engine(seed_polys, ring, max_steps=None, hilbert=None):
    """Compute the reduced Groebner basis of homogeneous seed polynomials.

    `hilbert`, when given, is the numerator of the Hilbert series of R/I over
    prod(1 - t^w) for the ring's weights, and must be exact.  A wrong one
    raises ValueError when the lead ideal passes it in some degree (an input
    generator included) or when the pairs run out before the lead ideal
    reaches it; so a returned basis always generates I.

    Returns a list of term dicts, monic, sorted by increasing leading
    monomial; deterministic.
    """
    key = ring.sort_key
    modp = ring.field is not QQ
    p = ring.field.p if modp else None
    guard = ring.guard_mask
    if hilbert is not None:
        hilbert = _trim(hilbert)

    leads = []      # leading monomial per basis element
    tails = []      # list of (monomial, coeff) pairs, excluding the lead
    lcoeffs = []    # leading coefficient (1 over GF(p))
    cache = {}      # reducer cache: monomial -> (scanned_upto, index or None)

    def find_reducer(m):
        """Index of the first lead dividing m, or None; cached, and still
        valid as the basis grows."""
        ent = cache.get(m)
        if ent is None:
            start, idx = 0, None
        else:
            start, idx = ent
            if idx is not None:
                return idx
        nb = len(leads)
        if start < nb:
            for i in range(start, nb):
                if ((m | guard) - leads[i]) & guard == guard:
                    idx = i
                    break
            cache[m] = (nb, idx)
        return idx

    def full_reduce(work):
        """Full normal form of a term dict against the current basis."""
        return _reduce(work, find_reducer, leads, tails, lcoeffs, key, p, guard)

    def insert(terms):
        """Normalize and append a new basis element; return its index."""
        lm = max(terms, key=key)
        tail, lc = _split_lead(terms if modp else _normalize_qq(terms), lm, p)
        leads.append(lm)
        tails.append(tail)
        lcoeffs.append(lc)
        return len(leads) - 1

    # input generators by (degree, lead key); each is reduced at its degree
    seeds = []
    for f in seed_polys:
        lm = max(f.terms, key=key)
        seeds.append((ring.wdeg(lm), key(lm), dict(f.terms)))
    seeds.sort(key=lambda s: s[:2], reverse=True)  # popped from the end
    pairs = []  # heap of (lcm degree, lcm key, i, j, lcm)

    def gm_update(t):
        """Gebauer-Moeller pair update for the new element with index t."""
        lt = leads[t]
        lcm = ring.monomial_lcm
        # prune old pairs (criterion B)
        survivors = []
        for entry in pairs:
            _, _, i, j, lij = entry
            if i == t or j == t:
                survivors.append(entry)
                continue
            if (
                ring.monomial_divides(lt, lij)
                and lcm(leads[i], lt) != lij
                and lcm(leads[j], lt) != lij
            ):
                continue
            survivors.append(entry)
        # candidate new pairs, pruned by M/F, then the coprime criterion
        cands = {}
        for i in range(t):
            lij = lcm(leads[i], lt)
            cands.setdefault(lij, []).append(i)
        kept = []
        lijs = list(cands)
        for lij in lijs:
            for other in lijs:
                if other != lij and ring.monomial_divides(other, lij):
                    break
            else:
                kept.append((lij, min(cands[lij])))
        for lij, i in kept:
            if ring.monomials_coprime(leads[i], lt):
                continue
            survivors.append((ring.wdeg(lij), key(lij), i, t, lij))
        pairs[:] = survivors
        heapify(pairs)

    def s_polynomial_terms(i, j, lij):
        si, sj = lij - leads[i], lij - leads[j]
        if modp:
            s = {e + si: c for e, c in tails[i]}
            for e, c in tails[j]:
                mm = e + sj
                v = (s.get(mm, 0) - c) % p
                if v:
                    s[mm] = v
                else:
                    s.pop(mm, None)
        else:
            ci, cj = lcoeffs[i], lcoeffs[j]
            s = {e + si: c * cj for e, c in tails[i]}
            for e, c in tails[j]:
                mm = e + sj
                v = s.get(mm, 0) - c * ci
                if v:
                    s[mm] = v
                else:
                    s.pop(mm, None)
        return s

    def add(terms):
        """Reduce and insert; return the number of new basis elements (0 or 1)."""
        red = full_reduce(terms)
        if not red:
            return 0
        gm_update(insert(red))
        return 1

    def wrong_series(why):
        return ValueError(f"the given Hilbert series is wrong: {why}")

    steps = 0
    num, num_size = None, -1  # lead ideal numerator, and the basis size it is for
    while True:
        if hilbert is not None and num_size != len(leads):
            num, num_size = _lead_numerator(ring, leads), len(leads)
        if num is not None and num == hilbert:
            # the lead ideal has the series of I, so the basis is complete and
            # the generators not reached yet reduce to zero
            if any(full_reduce(s[2]) for s in seeds):
                raise wrong_series("an input generator is outside the finished basis")
            break
        if not seeds and not pairs:
            if num is not None:
                raise wrong_series("the S-pairs ran out before the lead ideal reached it")
            break
        d = min(s[0] for s in seeds[-1:] + pairs[:1])
        if d > EXP_MAX:
            raise OverflowError(
                f"degree {d} exceeds the exponent cap {EXP_MAX}: basis size {len(leads)}"
            )
        # basis elements still missing in degree d (unbounded with no series);
        # once none are, every remaining pair of degree d reduces to zero
        missing = inf if num is None else _hilbert_gap(ring, num, hilbert, d)
        if missing < 0:
            raise wrong_series(f"the lead ideal is already {-missing} past it in degree {d}")
        while seeds and seeds[-1][0] == d:
            # input generators are always reduced: they are few, and check the series
            missing -= add(seeds.pop()[2])
            if missing < 0:
                raise wrong_series(f"an input generator passes it in degree {d}")
        while pairs and pairs[0][0] == d:
            _, _, i, j, lij = heappop(pairs)
            if missing == 0:
                continue
            steps += 1
            if max_steps is not None and steps > max_steps:
                raise BudgetExceeded(
                    f"S-pair budget exhausted: {steps} reductions, basis size {len(leads)}, "
                    f"current lcm degree {d}"
                )
            missing -= add(s_polynomial_terms(i, j, lij))

    # minimal basis: drop elements whose lead is divisible by another lead
    order_idx = sorted(range(len(leads)), key=lambda i: key(leads[i]))
    minimal = []
    for i in order_idx:
        if any(ring.monomial_divides(leads[k], leads[i]) for k in minimal if k != i):
            continue
        minimal.append(i)

    # reduced basis: each minimal lead plus the normal form of its tail, made
    # monic.  The normal form modulo a Groebner basis is unique, so the whole
    # basis of the run and its warm reducer cache give the reduced tails.
    final = []
    for i in minimal:
        tail = full_reduce(dict(tails[i]))
        if modp:
            out = {leads[i]: 1}
            out.update(tail)
        else:
            inv = 1 / lcoeffs[i]
            out = {leads[i]: Fraction(1)}
            out.update((m, c * inv) for m, c in tail.items())
        final.append(out)
    return final


def buchberger(ideal_or_polys, order=None, max_steps=None, hilbert=None):
    """Reduced Groebner basis as a tuple of monic Polynomials, sorted by
    increasing leading monomial.  `order` defaults to the ring's own order.
    `hilbert` is the ideal's known Hilbert series numerator over
    prod(1 - t^w) (see `_gb_engine`); it must be exact."""
    if isinstance(ideal_or_polys, Ideal):
        ring = ideal_or_polys.ring
        gens = ideal_or_polys.generators
    else:
        gens = tuple(ideal_or_polys)
        if not gens:
            raise ValueError("cannot infer ring from an empty generator list")
        ring = gens[0].ring
    order = tuple(order) if order is not None else ring.order
    work_ring = ring if order == ring.order else RingContext(ring.names, ring.weights, order, ring.field)
    work_gens = [work_ring.coerce(g) for g in gens if not g.is_zero()]
    for g in work_gens:
        if not g.is_homogeneous():
            raise ValueError("buchberger requires homogeneous generators")
    if not work_gens:
        return ()
    dicts = _gb_engine(work_gens, work_ring, max_steps=max_steps, hilbert=hilbert)
    key = work_ring.sort_key
    polys = [Polynomial(work_ring, d) for d in dicts]
    polys.sort(key=lambda f: key(f.lead_monomial()))
    return tuple(polys)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial of two nonzero polynomials in the same ring."""
    if f.ring != g.ring:
        raise FieldError("polynomials from different rings")
    ring = f.ring
    fld = ring.field
    lf, lg = f.lead_monomial(), g.lead_monomial()
    lcm = ring.monomial_lcm(lf, lg)
    return f.mul_term(lcm - lf, fld.inv(f.lead_coeff())) - g.mul_term(
        lcm - lg, fld.inv(g.lead_coeff())
    )


def normal_form(f: Polynomial, ideal: Ideal) -> Polynomial:
    """Remainder of f modulo the reduced Groebner basis of the ideal."""
    if f.ring != ideal.ring:
        raise FieldError("polynomial and ideal from different rings")
    gb = ideal.groebner_basis()
    return reduce_by_basis(f, gb)


def reduce_by_basis(f: Polynomial, basis) -> Polynomial:
    """Full normal form of f against an explicit list of nonzero polynomials;
    each term is reduced by the first element whose lead divides it.
    Raises OverflowError when a reduction step needs an exponent above 127."""
    if not basis or f.is_zero():
        return f
    ring = f.ring
    p = ring.field.p if ring.field is not QQ else None
    guard = ring.guard_mask
    leads = [g.lead_monomial() for g in basis]
    tails = [None] * len(basis)  # split off on first use
    lcoeffs = [None] * len(basis)

    def find_reducer(m):
        for i, lm in enumerate(leads):
            if ((m | guard) - lm) & guard == guard:
                if tails[i] is None:
                    tails[i], lcoeffs[i] = _split_lead(basis[i].terms, lm, p)
                return i
        return None

    return Polynomial(
        ring, _reduce(dict(f.terms), find_reducer, leads, tails, lcoeffs, ring.sort_key, p, guard)
    )


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


def eliminate(ideal: Ideal, drop_vars) -> Ideal:
    """I intersected with the subring omitting drop_vars.

    Variables are eliminated one at a time, each under a two-block order in
    which the dropped variable dominates: intersection with a subring is
    transitive, and single-variable steps run far faster on the ideals here
    than one wide block.  Each step's Buchberger run is driven by the Hilbert
    series of its input, read from the input's Hilbert data or from its cached
    degrevlex basis when either is known; every later step's input has that
    basis.  The result lives in the smaller ring with its degrevlex Groebner
    cache pre-seeded (elimination theorem)."""
    drop_list = list(dict.fromkeys(drop_vars))
    if set(drop_list) - set(ideal.ring.names):
        raise ValueError(f"unknown variables: {set(drop_list) - set(ideal.ring.names)}")
    if len(drop_list) >= ideal.ring.n:
        raise ValueError("cannot eliminate every variable")
    # late-ring variables are cheapest to eliminate first under degrevlex
    pos = ideal.ring.var_index
    out = ideal
    for v in sorted(drop_list, key=lambda n: -pos[n]):
        out = _eliminate_variable(out, v)
    return out


def _eliminate_variable(ideal: Ideal, var) -> Ideal:
    ring = ideal.ring
    k = ring.var_index[var]
    keep = ring.names[:k] + ring.names[k + 1 :]
    keep_weights = ring.weights[:k] + ring.weights[k + 1 :]
    # var moves to the front: bytes below k shift up one, byte k goes to 0
    shift = EXP_BITS * k
    low = (1 << shift) - 1
    high = ~((1 << (shift + EXP_BITS)) - 1)
    elim_ring = RingContext(
        (var, *keep), (ring.weights[k], *keep_weights), elim_order(1), ring.field
    )
    gens = [
        Polynomial(
            elim_ring,
            {((m >> shift) & EXP_MASK) | ((m & low) << EXP_BITS) | (m & high): c
             for m, c in g.terms.items()},
        )
        for g in ideal.generators
    ]
    gb = ()
    if gens:
        # the Hilbert series does not change under a permutation of the variables
        gb = buchberger(gens, order=elim_ring.order, hilbert=_known_numerator(ideal))

    kept_ring = RingContext(keep, keep_weights, DEGREVLEX, ring.field)
    result = [
        Polynomial(kept_ring, {m >> EXP_BITS: c for m, c in g.terms.items()})
        for g in gb
        if not any(m & EXP_MASK for m in g.terms)
    ]
    out = Ideal(kept_ring, result)
    out.seed_groebner_cache(DEGREVLEX, tuple(result))
    return out


def linear_part(ideal: Ideal):
    """Basis of the degree-1 graded piece: the weighted-degree-1 elements of
    the reduced Groebner basis."""
    gb = ideal.groebner_basis()
    return [g for g in gb if g.homogeneous_degree() == 1]


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------


def _minimalize(gens):
    """Minimal generators of a monomial ideal given as exponent tuples."""
    out = []
    for g in sorted(set(gens), key=lambda g: (sum(g), g)):
        for h in out:
            if all(map(le, h, g)):
                break
        else:
            out.append(g)
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_add(a, b, scale=1, shift=0):
    out = list(a) + [0] * max(0, shift + len(b) - len(a))
    for j, y in enumerate(b):
        out[shift + j] += scale * y
    return out


def _one_minus_t_power(d):
    out = [0] * (d + 1)
    out[0] = 1
    out[d] = -1
    return out


def _trim(num):
    num = list(num)
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def _hilbert_numerator(gens, weights):
    """Numerator of the Hilbert series of R/I for a monomial ideal I, graded
    by the variable weights: HS = N(t) / prod(1 - t^w).  gens: exponent
    tuples.  Returned with trailing zeros trimmed."""
    return _trim(_hilbert_numerator_rec(_minimalize(gens), weights))


def _hilbert_numerator_rec(gens, weights):
    """_hilbert_numerator for minimal generators."""

    def deg(g):
        return sum(w * e for w, e in zip(weights, g))

    if not gens:
        return [1]
    if any(sum(g) == 0 for g in gens):
        return [0]  # unit ideal
    pure = []
    mixed = []
    for g in gens:
        nz = [e for e in g if e]
        (pure if len(nz) == 1 else mixed).append(g)
    if len(mixed) <= 1:
        num = [1]
        for g in pure:
            num = _poly_mul(num, _one_minus_t_power(deg(g)))
        if mixed:
            m = mixed[0]
            colon = [1]
            for g in pure:
                # pure powers: g / gcd(g, m) is again a pure power
                d = deg(tuple(max(a - b, 0) for a, b in zip(g, m)))
                if d == 0:
                    colon = [0]
                    break
                colon = _poly_mul(colon, _one_minus_t_power(d))
            num = _poly_add(num, colon, scale=-1, shift=deg(m))
        return num
    # pivot: most frequent variable among mixed generators, median exponent
    n = len(gens[0])
    counts = [0] * n
    for g in mixed:
        for i, e in enumerate(g):
            if e:
                counts[i] += 1
    j = max(range(n), key=lambda i: counts[i])
    exps = sorted(g[j] for g in mixed if g[j])
    e = exps[len(exps) // 2]
    # I + <x_j^e> (minimal as built: e is below any pure power of x_j), and I : x_j^e
    plus = [g for g in gens if g[j] < e]
    plus.append(tuple(e if i == j else 0 for i in range(n)))
    colon = _minimalize([g[:j] + (max(g[j] - e, 0),) + g[j + 1 :] for g in gens])
    return _poly_add(
        _hilbert_numerator_rec(plus, weights),
        _hilbert_numerator_rec(colon, weights),
        scale=1,
        shift=weights[j] * e,
    )


def _lead_numerator(ring, leads):
    """Hilbert series numerator over prod(1 - t^w) of the monomial ideal
    generated by packed lead monomials."""
    return _hilbert_numerator([ring.unpack(m) for m in leads], ring.weights)


def _hilbert_gap(ring, num, known, d):
    """HF(d) of the series num / prod(1 - t^w) minus HF(d) of known / prod(1 - t^w)."""
    diff = [0] * (d + 1)
    for i, c in enumerate(num[: d + 1]):
        diff[i] += c
    for i, c in enumerate(known[: d + 1]):
        diff[i] -= c
    for w in ring.weights:
        for k in range(w, d + 1):
            diff[k] += diff[k - w]
    return diff[d]


def _known_numerator(ideal: Ideal):
    """The ideal's Hilbert series numerator over prod(1 - t^w), when it is
    known without a Groebner run: from its Hilbert data or from the lead
    monomials of its cached basis in the ring's order.  None otherwise."""
    ring = ideal.ring
    hd = ideal._hilbert
    if hd is not None:
        num = list(hd.numerator)
        for _ in range(ring.n - hd.dimension - 1):
            num = _poly_mul(num, [1, -1])
        return _trim(num)
    gb = ideal._gb.get(ring.order)
    if gb is not None:
        return _lead_numerator(ring, [g.lead_monomial() for g in gb])
    return None


def hilbert_data(ideal: Ideal) -> HilbertData:
    """Dimension, degree, Hilbert polynomial and (for curves) arithmetic genus
    of a homogeneous ideal in a weight-1 ring."""
    ring = ideal.ring
    if any(w != 1 for w in ring.weights):
        raise ValueError("hilbert_data requires a weight-1 ring")
    if ideal._hilbert is not None:
        return ideal._hilbert
    n = ring.n
    gb = ideal.groebner_basis()
    num = _lead_numerator(ring, [g.lead_monomial() for g in gb])
    # strip factors of (1 - t); num(1) == 0 iff divisible
    s = 0
    while any(num) and sum(num) == 0:
        q = [0] * (len(num) - 1)
        carry = 0
        for i in range(len(num) - 1):
            carry += num[i]
            q[i] = carry
        num = q or [0]
        s += 1
    if not any(num):
        # unit ideal: empty projective scheme
        data = HilbertData(-1, 0, (Fraction(0),), None, (0,))
        ideal._hilbert = data
        return data
    dim_affine = n - s
    degree = sum(num)
    proj_dim = dim_affine - 1
    # Hilbert polynomial: HS = num(t)/(1-t)^dim_affine,
    # HP(t) = sum_j num_j * binom(t - j + D - 1, D - 1) with D = dim_affine
    D = dim_affine
    hp = [Fraction(0)] * max(D, 1)
    if D >= 1:
        for j, c in enumerate(num):
            if c == 0:
                continue
            # binom(t - j + D - 1, D - 1) as a polynomial in t
            term = [Fraction(1)]
            for i in range(D - 1):
                term = _polyfrac_mul_linear(term, Fraction(D - 1 - i - j))
            scale = Fraction(c, 1)
            for i in range(1, D):
                scale /= i
            for i, v in enumerate(term):
                hp[i] += scale * v
    genus = None
    if proj_dim == 1:
        hp0 = hp[0] if hp else Fraction(0)
        genus = int(1 - hp0)
    data = HilbertData(proj_dim, degree, tuple(hp), genus, tuple(num))
    ideal._hilbert = data
    return data


def _polyfrac_mul_linear(poly, const):
    """Multiply an ascending-coefficient polynomial in t by (t + const)."""
    out = [Fraction(0)] * (len(poly) + 1)
    for i, v in enumerate(poly):
        out[i + 1] += v
        out[i] += const * v
    return out


def standard_monomials(ideal: Ideal, t: int):
    """Degree-t monomials not divisible by any GB leading term, sorted."""
    ring = ideal.ring
    gb = ideal.groebner_basis()
    leads = [g.lead_monomial() for g in gb]
    ms = list(_standard_monomials(ring, leads, t))
    ms.sort(key=ring.sort_key)
    return ms


def _standard_monomials(ring, leads, t):
    n = ring.n
    guard = ring.guard_mask

    def is_std(m):
        for lm in leads:
            if ((m | guard) - lm) & guard == guard:
                return False
        return True

    def rec(i, rem, m):
        if i == n - 1:
            mm = m | (rem << (EXP_BITS * i))
            if rem <= EXP_MAX and is_std(mm):
                yield mm
            return
        for e in range(rem + 1):
            mm = m | (e << (EXP_BITS * i))
            if not is_std(mm):
                continue
            yield from rec(i + 1, rem - e, mm)

    yield from rec(0, t, 0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def ideal_to_json(ideal: Ideal) -> dict:
    return {
        "field": ideal.ring.field.descriptor,
        "ring": {"vars": list(ideal.ring.names), "weights": list(ideal.ring.weights)},
        "generators": [str(g) for g in ideal.generators],
    }


def ideal_from_json(data: dict) -> Ideal:
    from .fields import field_from_descriptor

    field = field_from_descriptor(data.get("field", "q"))
    ring = RingContext(
        tuple(data["ring"]["vars"]),
        tuple(data["ring"].get("weights") or [1] * len(data["ring"]["vars"])),
        DEGREVLEX,
        field,
    )
    return Ideal(ring, [ring.parse(s) for s in data["generators"]])
