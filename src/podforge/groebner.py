"""Reduced Groebner bases, normal forms, elimination, and Hilbert data.

Buchberger with the Gebauer-Moeller pair criteria, run degree by degree:
S-pairs are taken lowest weighted degree first and, within a degree, largest
lcm first, and each input generator is reduced at its own degree.  Given a
lower bound on the Hilbert series of the ideal (which does not depend on the
monomial order), the run skips the rest of a degree once the lead ideal's
Hilbert function matches the bound there, and stops once the two series agree
(Traverso 1996, Hilbert functions and the Buchberger algorithm).  Elimination supplies the exact series for free, and
`Ideal + [f]` supplies (1 - t^deg f) times the parent's series, a bound for
every slice.  `cut_cohen_macaulay` runs a cut of a Cohen-Macaulay ring on the
series a regular sequence would give and keeps the result only if it reaches
that series.  `saturate` computes I : x^infinity for the last degrevlex
variable x in one run that divides each new basis element by its largest
power of x (Bayer's lemma, Bayer-Stillman 1987), so the basis of I itself is
never finished.

All reduction goes through one heap-driven kernel, `_reduce`, whose loop
serves both fields (only the reduction mod p and the reducer's factor depend
on the field): the run's S-polynomial and generator reductions, the final
interreduction (each minimal element is its lead plus the normal form of its
tail modulo the finished basis) and `reducer` / `reduce_by_basis`.  Each term
is reduced by the first basis element whose lead divides it
(`RingContext.first_divisor`); the run and each `reducer` cache that lookup
per monomial.  Basis elements are kept monic
over GF(p) and content-normalized over Q during the run.  The reduced basis is
unique for a fixed order, so output is bit-reproducible regardless of internal
scheduling.

Hilbert series numerators are `unipoly` coefficient lists of ints (the unit
ideal's is [], stored as (0,) in HilbertData).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import inf
from operator import le

from . import unipoly
from .fields import QQ, FieldError
from .rings import (
    DEGREVLEX, EXP_MAX, ParseError, Polynomial, RingContext, elim_order,
)


class BudgetExceeded(RuntimeError):
    """Raised when a Groebner run exceeds its step budget."""


class Ideal:
    """A homogeneous ideal with its reduced Groebner basis in the ring's order
    cached in `_gb`, keyed by that order."""

    __slots__ = ("ring", "generators", "_gb", "_hilbert", "_bound")

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
        self._bound = None  # a lower bound on the Hilbert series, see __add__

    def groebner_basis(self):
        """The reduced basis in the ring's order."""
        order = self.ring.order
        gb = self._gb.get(order)
        if gb is None:
            gb = buchberger(self, hilbert=self._bound)
            self._gb[order] = gb
        return gb

    def seed_groebner_cache(self, gb):
        self._gb[self.ring.order] = tuple(gb)

    def __add__(self, other):
        """The sum ideal.  When it adds exactly one form f of degree e and this
        ideal's series is known (`_known_numerator`), the sum keeps
        (1 - t^e) HS(R/I) as a lower bound for its Groebner run: from
        0 -> (0 :_{R/I} f)(-e) -> R/I(-e) -> R/I -> R/(I + f) -> 0,
        HS(R/(I + f)) = (1 - t^e) HS(R/I) + t^e HS(0 :_{R/I} f), with equality
        when f is a nonzerodivisor on R/I.  No such bound holds for two or
        more forms at once."""
        if isinstance(other, Ideal):
            if other.ring != self.ring:
                raise FieldError("ideals from different rings")
            other = other.generators
        out = Ideal(self.ring, self.generators + tuple(other))
        added = out.generators[len(self.generators):]
        if len(added) == 1:
            num = _known_numerator(self)
            if num is not None:
                out._bound = unipoly.mul(num, _one_minus_t_power(added[0].homogeneous_degree()))
        return out

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
    Over GF(p) (p given) every reducer must be monic and the coefficients are
    ints, reduced mod p only when their monomial is popped; over Q (p None)
    they are Fractions.  The loop is the same for both fields: a monomial's
    accumulator is never deleted, so it enters the heap once.  Raises
    OverflowError when a new monomial needs an exponent above the cap."""
    out = {}
    heap = [(-key(m), m) for m in work]
    heapify(heap)
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m)
        if p:
            c %= p
        if not c:
            continue
        idx = find_reducer(m)
        if idx is None:
            out[m] = c
            continue
        shift = m - leads[idx]
        f = p - c if p else -c / lcoeffs[idx]
        for e, ce in tails[idx]:
            mm = e + shift
            prev = work.get(mm)
            if prev is None:
                if mm & guard:
                    raise OverflowError(f"monomial exponent above the cap {EXP_MAX}")
                work[mm] = f * ce
                heappush(heap, (-key(mm), mm))
            else:
                work[mm] = prev + f * ce
    return out


def _gb_engine(seed_polys, ring, max_steps=None, hilbert=None, saturating=False):
    """Compute the reduced Groebner basis of homogeneous seed polynomials, or
    when `saturating` (with no `hilbert`) that of their ideal saturated at the
    last variable of a degrevlex ring (see `saturate`).

    `hilbert`, when given, is the numerator over prod(1 - t^w) (the ring's
    weights) of a lower bound on the Hilbert series of R/I: its Hilbert
    function is at most that of R/I in every degree.  The lead ideal's
    Hilbert function is at least that of R/I, so where it meets the bound the
    degree is complete and its remaining pairs are skipped; when the two
    series agree the bound was exact and the run stops.  A strict bound only
    costs reductions: the run then ends when the pairs run out.  A bound that
    is too large raises ValueError when the lead ideal passes it in some
    degree (an input generator included) or when an input generator is
    outside the basis it proves finished; so a returned basis always
    generates I.

    Degrees are taken lowest first and, within a degree, S-pairs largest lcm
    first (Gebauer-Moeller 1988; Giovini et al. 1991 on selection
    strategies).  An S-polynomial's terms all lie below its pair's lcm, so a
    new lead can come only from a pair whose lcm is above it: taken from the
    top, the pairs meet the degree's new elements early, and the later pairs
    reduce against them, mostly to zero, or are skipped once a bound shows
    the degree complete.  The pentapod curve's saturation
    (`constructions.pentapod_config_ideal`) makes 624 reductions this way
    against 858 smallest lcm first.  The reduced basis is unique, so the
    order changes the work, never the result.

    Returns a list of term dicts, monic, sorted by increasing leading
    monomial; deterministic.
    """
    key = ring.sort_key
    field = ring.field
    p = field.p if field is not QQ else None
    guard = ring.guard_mask
    if hilbert is not None:
        assert not saturating, "the saturation's Hilbert series is unknown"
        hilbert = unipoly.trim(hilbert)
    h = ring.units[-1]  # the packed last variable: m // h is its exponent in m

    leads = []      # leading monomial per basis element
    tails = []      # list of (monomial, coeff) pairs, excluding the lead
    lcoeffs = []    # leading coefficient (1 over GF(p))
    cache = {}      # reducer cache: monomial -> (scanned_upto, index or None)
    first_divisor = ring.first_divisor

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
            idx = first_divisor(m, leads, start)
            cache[m] = (nb, idx)
        return idx

    def full_reduce(work):
        """Full normal form of a term dict against the current basis."""
        return _reduce(work, find_reducer, leads, tails, lcoeffs, key, p, guard)

    def insert(terms):
        """Normalize and append a new basis element; return its index."""
        lm = max(terms, key=key)
        tail, lc = _split_lead(terms if p else _normalize_qq(terms), lm, p)
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
    pairs = []  # heap of (lcm degree, -lcm key, i, j, lcm)

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
            survivors.append((ring.wdeg(lij), -key(lij), i, t, lij))
        pairs[:] = survivors
        heapify(pairs)

    def s_polynomial_terms(i, j, lij):
        # reduced mod p here: left unreduced for `_reduce`, the negative
        # coefficients raised construct-fp's peak memory by about 0.2 MB
        si, sj = lij - leads[i], lij - leads[j]
        ci, cj = lcoeffs[i], lcoeffs[j]
        s = {e + si: c * cj for e, c in tails[i]}
        for e, c in tails[j]:
            mm = e + sj
            v = s.get(mm, 0) - c * ci
            if p:
                v %= p
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
        if saturating:
            k = min(m // h for m in red)
            red = {m - k * h: c for m, c in red.items()}
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
        inv = field.inv(lcoeffs[i])
        out = {leads[i]: field.one}
        out.update((m, c * inv) for m, c in tail.items())
        final.append(out)
    return final


def buchberger(ideal_or_polys, max_steps=None, hilbert=None):
    """Reduced Groebner basis, in the ring's order, as a tuple of monic
    Polynomials sorted by increasing leading monomial.  A list of polynomials
    is read as the Ideal they generate in the ring of the first.  `hilbert` is
    the numerator over prod(1 - t^w) of a lower bound on the ideal's Hilbert
    series (see `_gb_engine`); the exact series is the best bound.  A bound
    that is too large raises ValueError."""
    ideal = ideal_or_polys
    if not isinstance(ideal, Ideal):
        gens = tuple(ideal_or_polys)
        if not gens:
            raise ValueError("cannot infer ring from an empty generator list")
        ideal = Ideal(gens[0].ring, gens)
    if not ideal.generators:
        return ()
    ring = ideal.ring
    dicts = _gb_engine(list(ideal.generators), ring, max_steps=max_steps, hilbert=hilbert)
    return tuple(Polynomial(ring, d) for d in dicts)


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
    return reducer(basis)(f)


def reducer(basis):
    """`reduce_by_basis` against a fixed nonempty basis, as a function of f:
    the leads, the split tails and each monomial's first divisor are found
    once and shared by every call."""
    ring = basis[0].ring
    p = ring.field.p if ring.field is not QQ else None
    leads = [g.lead_monomial() for g in basis]
    tails = [None] * len(basis)  # split off on first use
    lcoeffs = [None] * len(basis)
    first_divisor = ring.first_divisor
    cache = {}

    def find_reducer(m):
        if m in cache:
            return cache[m]
        i = cache[m] = first_divisor(m, leads)
        if i is not None and tails[i] is None:
            tails[i], lcoeffs[i] = _split_lead(basis[i].terms, leads[i], p)
        return i

    def nf(f):
        return Polynomial(ring, _reduce(dict(f.terms), find_reducer, leads, tails, lcoeffs,
                                        ring.sort_key, p, ring.guard_mask))

    return nf


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
    """Eliminate var: the basis of I with var moved first and dominating; an
    element whose lead is free of var is free of var (elimination property)."""
    ring = ideal.ring
    k = ring.var_index[var]
    keep = ring.names[:k] + ring.names[k + 1 :]
    keep_weights = ring.weights[:k] + ring.weights[k + 1 :]
    elim_ring = RingContext(
        (var, *keep), (ring.weights[k], *keep_weights), elim_order(1), ring.field
    )
    kept_ring = RingContext(keep, keep_weights, DEGREVLEX, ring.field)
    # the Hilbert series does not change under a permutation of the variables
    gb = buchberger(Ideal(elim_ring, ideal.generators), hilbert=_known_numerator(ideal))
    result = [kept_ring.coerce(g) for g in gb if not elim_ring.unpack(g.lead_monomial())[0]]
    out = Ideal(kept_ring, result)
    out.seed_groebner_cache(result)
    return out


def saturate(ideal: Ideal, var) -> Ideal:
    """I : var^infinity, for var the last variable of a degrevlex ring, in one
    engine run that divides each new basis element by its largest power of
    var as it is found, so the basis of I itself is never finished.

    In that order a homogeneous f is divisible by var^k exactly when its lead
    is.  Every element the run keeps lies in J = I : var^infinity (J is
    saturated), and every generator of I reduces to a multiple of a kept
    element, so I is inside K, the ideal of the final basis G, and K is
    inside J.  No lead of G is divisible by var, so var is a nonzerodivisor
    modulo K (Bayer's lemma, Bayer-Stillman 1987): K = K : var^infinity,
    which contains I : var^infinity = J.  So K = J, and the run's final
    interreduction gives J's unique reduced basis.  The result has that basis
    as generators and cached."""
    ring = ideal.ring
    if ring.order != DEGREVLEX or ring.names[-1] != var:
        raise ValueError(f"saturate needs {var!r} as the last variable of a degrevlex ring")
    gb = tuple(Polynomial(ring, d) for d in _gb_engine(ideal.generators, ring, saturating=True))
    out = Ideal(ring, gb)
    out.seed_groebner_cache(gb)
    return out


def cut_cohen_macaulay(ideal: Ideal, forms) -> Ideal:
    """I + forms, for an ideal I whose ring R/I the caller knows to be
    Cohen-Macaulay, with its degrevlex basis cached.

    The run is driven by H = prod(1 - t^deg f) HS(R/I), which is not a lower
    bound in general, so the engine may skip pairs it should not; correctness
    comes from a post-check.  If the basis returned has lead series H, then
    HF(R/J) <= H, so the forms cut the dimension by their number: they are
    part of a system of parameters, on a Cohen-Macaulay ring a regular
    sequence, hence HS(R/J) = H and the basis is complete.  Otherwise
    (including a ValueError for a series that is too large) the run is
    repeated with no series."""
    ring = ideal.ring
    out = ideal + forms
    series = _lead_numerator(ring, [g.lead_monomial() for g in ideal.groebner_basis()])
    for f in out.generators[len(ideal.generators):]:
        series = unipoly.mul(series, _one_minus_t_power(f.homogeneous_degree()))
    try:
        gb = buchberger(out, hilbert=series)
    except ValueError:
        gb = None
    if gb is None or _lead_numerator(ring, [g.lead_monomial() for g in gb]) != unipoly.trim(series):
        gb = buchberger(out)
    out.seed_groebner_cache(gb)
    return out


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


def _one_minus_t_power(d):
    return unipoly.add([1], [1], scale=-1, shift=d)


def _hilbert_numerator(gens, weights):
    """Numerator of the Hilbert series of R/I for a monomial ideal I, graded
    by the variable weights: HS = N(t) / prod(1 - t^w).  gens: exponent
    tuples.  Returned with trailing zeros trimmed."""
    return unipoly.trim(_hilbert_numerator_rec(_minimalize(gens), weights))


def _hilbert_numerator_rec(gens, weights):
    """_hilbert_numerator for minimal generators."""

    def deg(g):
        return sum(w * e for w, e in zip(weights, g))

    if not gens:
        return [1]
    if any(sum(g) == 0 for g in gens):
        return []  # unit ideal
    pure = []
    mixed = []
    for g in gens:
        nz = [e for e in g if e]
        (pure if len(nz) == 1 else mixed).append(g)
    if len(mixed) <= 1:
        num = [1]
        for g in pure:
            num = unipoly.mul(num, _one_minus_t_power(deg(g)))
        if mixed:
            m = mixed[0]
            colon = [1]
            for g in pure:
                # pure powers: g / gcd(g, m) is again a pure power
                d = deg(tuple(max(a - b, 0) for a, b in zip(g, m)))
                colon = unipoly.mul(colon, _one_minus_t_power(d))
            num = unipoly.add(num, colon, scale=-1, shift=deg(m))
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
    return unipoly.add(
        _hilbert_numerator_rec(plus, weights),
        _hilbert_numerator_rec(colon, weights),
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
            num = unipoly.mul(num, [1, -1])
        return unipoly.trim(num)
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
    while num and sum(num) == 0:
        num = unipoly.divmod(num, [1, -1])[0]
        s += 1
    if not num:
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
                term = unipoly.mul(term, [Fraction(D - 1 - i - j), 1])
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
    units = ring.units
    first_divisor = ring.first_divisor

    def rec(i, rem, m):
        if i == n - 1:
            mm = m + rem * units[i]
            if rem <= EXP_MAX and first_divisor(mm, leads) is None:
                yield mm
            return
        for e in range(rem + 1):
            mm = m + e * units[i]
            if first_divisor(mm, leads) is not None:
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
    """The ideal of `ideal_to_json`'s format.  An entry of the wrong JSON type,
    a bad field descriptor or ring header raises ParseError, as a malformed
    generator does; a missing key raises KeyError."""
    from .fields import field_from_descriptor

    def listed(value, kind):  # a JSON list of `kind` entries (a bool is no int)
        return isinstance(value, list) and all(type(v) is kind for v in value)

    if not isinstance(data, dict) or not isinstance(data["ring"], dict):
        raise ParseError(f"an ideal and its ring must be JSON objects: {data!r}")
    header, generators, desc = data["ring"], data["generators"], data.get("field", "q")
    if not (listed(header["vars"], str) and listed(header.get("weights") or [], int) and isinstance(desc, str)):
        raise ParseError(f"bad ring header: field {desc!r}, ring {header!r}")
    if not listed(generators, str):
        raise ParseError(f"generators must be a list of strings, not {generators!r}")
    try:
        field = field_from_descriptor(desc)
        names = tuple(header["vars"])
        ring = RingContext(names, tuple(header.get("weights") or [1] * len(names)), DEGREVLEX, field)
    except ValueError as exc:
        raise ParseError(f"bad ring header: {exc}") from None
    return Ideal(ring, [ring.parse(g) for g in generators])
