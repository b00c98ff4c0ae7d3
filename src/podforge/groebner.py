"""Reduced Groebner bases, normal forms, elimination, and Hilbert data.

Buchberger with the Gebauer-Moeller pair criteria, run degree by degree:
S-pairs are taken lowest weighted degree first and, within a degree, largest
lcm first, and each input generator is reduced at its own degree.  The pair
update for a new element is batched: one `RingContext.lcms_with` call gives
its lcm with every lead, which serves both criterion B and the new pairs, and
`RingContext.minimal_monomials` keeps the minimal new lcms (M/F).  Given a
lower bound on the Hilbert series of the ideal (which does not depend on the
monomial order), the run skips the rest of a degree once the lead ideal's
Hilbert function matches the bound there, and stops once the two series agree
(Traverso 1996, Hilbert functions and the Buchberger algorithm).  Elimination
supplies the exact series for free, `Ideal + [f]` supplies (1 - t^deg f) times
the parent's series, a bound for every slice, and a model ideal may carry a
proven bound of its own (`models.ideal_Y`).  `cut_cohen_macaulay` runs a cut
of a Cohen-Macaulay ring on the series a regular sequence would give and
keeps the result only if it reaches that series.  `saturate` computes
I : x^infinity for the last degrevlex variable x in one run that divides each
new basis element by its largest power of x (Bayer's lemma, Bayer-Stillman
1987), so the basis of I itself is never finished.

Reduction has two kernels.  A degree of a run over GF(p) that no series
bounds (the saturation, X's own basis, Y_inv's unbounded run) takes all its
S-pairs together, and when their S-polynomials share their monomials
(`DENSE_REUSE`, `DENSE_FILL`) reduces them as one matrix, F4-style
(`_reduce_rows`: symbolic preprocessing, then one row reduction; Faugere
1999).  Everything else goes through the heap-driven `_reduce`, whose loop
serves both fields (only the reduction mod p and the reducer's factor depend
on the field): the other degrees and the series-driven degrees pair by pair,
every run over Q, the input generators, the final interreduction (each
minimal element is its lead plus the normal form of its tail modulo the
finished basis) and `reducer` / `reduce_by_basis`.  In both kernels each term is reduced by the first basis
element whose lead divides it (`RingContext.first_divisor`); the run and
each `reducer` cache that lookup per monomial.  Basis elements are kept
monic over GF(p) and content-normalized over Q during the run.  The reduced
basis is unique for a fixed order, so output is bit-reproducible regardless
of internal scheduling.

Hilbert series numerators are `unipoly` coefficient lists of ints (the unit
ideal's is [], stored as (0,) in HilbertData), computed on packed lead
monomials by Bigatti's pivot recursion.  A lead set's numerator is computed
at most once and kept with the basis it describes: a run given a series ends
with the numerator of its final leads, which the minimal basis does not
change, so the CM cut's check, `hilbert_data` and the series of a slice read
it instead of recomputing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import inf

from . import unipoly
from .fields import QQ, FieldError
from .rings import (
    DEGREVLEX, EXP_MAX, Polynomial, RingContext, elim_order,
)


class BudgetExceeded(RuntimeError):
    """Raised when a Groebner run exceeds its step budget."""


class GroebnerBasis(tuple):
    """A reduced Groebner basis: monic Polynomials sorted by increasing
    leading monomial.  `numerator` is the Hilbert numerator over
    prod(1 - t^w) of its lead ideal once known: left by a run given a series,
    else computed on first use (`_basis_numerator`), so at most once per
    basis."""

    numerator = None


class Ideal:
    """A homogeneous ideal with its reduced Groebner basis in the ring's order
    cached in `_gb`, keyed by that order; an ideal generated by that basis
    shares it, numerator included (`reduced`).

    `hilbert`, when given, is the numerator over prod(1 - t^w) of a lower
    bound on the ideal's Hilbert series; it drives the ideal's Groebner run
    (see `_gb_engine`)."""

    __slots__ = ("ring", "generators", "_gb", "_hilbert", "_bound")

    def __init__(self, ring: RingContext, generators, hilbert=None):
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
        self._bound = hilbert

    def groebner_basis(self):
        """The reduced basis in the ring's order."""
        order = self.ring.order
        gb = self._gb.get(order)
        if gb is None:
            gb = buchberger(self, hilbert=self._bound)
            self._gb[order] = gb
        return gb

    def seed_groebner_cache(self, gb):
        """Cache gb as the reduced basis in the ring's order."""
        self._gb[self.ring.order] = gb if isinstance(gb, GroebnerBasis) else GroebnerBasis(gb)

    def reduced(self) -> "Ideal":
        """The same ideal with its reduced basis in the ring's order as
        generators, and that basis (with its numerator) cached."""
        gb = self.groebner_basis()
        out = Ideal(self.ring, gb)
        out.seed_groebner_cache(gb)
        return out

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
                out._bound = _times_one_minus_t_power(num, added[0].homogeneous_degree())
        return out

    def contains_point(self, coords) -> bool:
        """Exact test that every generator vanishes at the coordinate vector."""
        return all(self.ring.field.is_zero(g.evaluate(coords)) for g in self.generators)

    def __repr__(self):
        return f"Ideal({len(self.generators)} gens in {self.ring!r})"


@dataclass(frozen=True)
class HilbertData:
    """Projective dimension, degree, the arithmetic genus when the scheme is a
    curve, and the Hilbert series numerator: HS(t) = numerator(t) / (1 -
    t)^(dimension + 1), ascending integer coefficients."""

    dimension: int
    degree: int
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


# A degree of an unbounded GF(p) run is reduced as one matrix when a monomial
# of its S-polynomials occurs in at least DENSE_REUSE of them on average, and
# in at least a DENSE_FILL share of them (see `_gb_engine`)
DENSE_REUSE = 2
DENSE_FILL = 0.02


def _reduce_rows(rows, span, find_reducer, leads, tails, key, p, guard):
    """The nonzero reduced forms, monic, of an iterable of term dicts over
    GF(p) of one degree, in order; `span` is the set of their monomials, and
    is consumed.  Each result is the normal form of its row modulo the monic
    reducers (picked by find_reducer, as in `_reduce`) and the earlier
    results (Faugere 1999, F4).

    Symbolic preprocessing closes the span under find_reducer: each monomial
    m with reducer i brings in the row m / leads[i] times reducer i, and its
    monomials join the closure.  The closure is sorted once by the order key
    into columns.  A reducer row is kept as the list of its tail's column
    indices, which are the column map's own int objects (a pointer a term;
    an `array` of them was 10-15% slower to read), and its coefficients are
    shared by every shift of the same reducer.  Each row is then reduced in
    a dense accumulator column by column, largest first, an entry reduced
    mod p only when its column is reached; a result becomes the pivot of its
    lead column for the later rows (in one degree, a monomial that a
    result's lead divides is that lead).  Raises OverflowError when a
    monomial of the closure has an exponent above the cap."""
    todo = list(span)
    if any(m & guard for m in todo):
        raise OverflowError(f"monomial exponent above the cap {EXP_MAX}")
    pivot_of = {}  # monomial -> index of its reducer
    while todo:
        m = todo.pop()
        i = find_reducer(m)
        if i is None:
            continue
        pivot_of[m] = i
        shift = m - leads[i]
        for e, _ in tails[i]:
            mm = e + shift
            if mm not in span:
                if mm & guard:
                    raise OverflowError(f"monomial exponent above the cap {EXP_MAX}")
                span.add(mm)
                todo.append(mm)
    order = sorted(span, key=key, reverse=True)
    col = {m: j for j, m in enumerate(order)}
    ncols = len(order)
    piv_cols = [None] * ncols
    piv_coeffs = [None] * ncols
    shared = {}  # reducer index -> its tail coefficients
    for m, i in pivot_of.items():
        shift = m - leads[i]
        j = col[m]
        piv_cols[j] = [col[e + shift] for e, _ in tails[i]]
        cs = shared.get(i)
        if cs is None:
            cs = shared[i] = tuple(c for _, c in tails[i])
        piv_coeffs[j] = cs
    del pivot_of, shared
    out = []
    acc = [0] * ncols  # all zero between rows: each entry is cleared when reached
    for row in rows:
        if not row:
            continue
        lo = ncols
        for m, c in row.items():
            j = col[m]
            acc[j] = c
            if j < lo:
                lo = j
        kept = []
        for j in range(lo, ncols):
            v = acc[j]
            if not v:
                continue
            acc[j] = 0
            v %= p
            if not v:
                continue
            pc = piv_cols[j]
            if pc is None:
                kept.append((j, v))
                continue
            f = p - v
            for jj, cc in zip(pc, piv_coeffs[j]):
                acc[jj] += f * cc
        if kept:
            j0 = kept[0][0]
            inv = pow(kept[0][1], p - 2, p)
            tail = [(j, v * inv % p) for j, v in kept[1:]]
            piv_cols[j0] = [j for j, _ in tail]
            piv_coeffs[j0] = tuple(c for _, c in tail)
            terms = {order[j0]: 1}
            terms.update((order[j], c) for j, c in tail)
            out.append(terms)
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
    generates I.  The lead numerator is computed once per lead set, at the
    start of each degree with new leads.

    Each new element updates the pairs in one batch: the lcms of its lead
    with every lead (`RingContext.lcms_with`) decide criterion B for the old
    pairs and give the candidate new pairs, of which the minimal lcms are
    kept (`RingContext.minimal_monomials`, the M/F criterion) and then those
    whose lcm is not the product of the two leads (coprime leads).

    Degrees are taken lowest first and, within a degree, S-pairs largest lcm
    first (Gebauer-Moeller 1988; Giovini et al. 1991 on selection
    strategies).  An S-polynomial's terms all lie below its pair's lcm, so a
    new lead can come only from a pair whose lcm is above it: taken from the
    top, the pairs meet the degree's new elements early, and the later pairs
    reduce against them, mostly to zero, or are skipped once a bound shows
    the degree complete.  The pentapod curve's saturation
    (`constructions.pentapod_config_ideal`) made 624 reductions this way,
    412 of them to zero, against 858 smallest lcm first.

    Over GF(p) with no series, a degree's pairs are taken together.  When a
    monomial of their S-polynomials occurs in at least DENSE_REUSE of them
    on average, and in at least a DENSE_FILL share of them, they are
    reduced as one matrix (`_reduce_rows`), in the same order: a reducer
    row is then built once for every row that meets it, and a pair that
    reduces to zero costs a row, not a heap walk.  Each nonzero row is
    inserted in order as above; in a saturating run a row whose lead a lead
    divided by h earlier in the batch divides is first reduced by
    `_reduce`.  The matrix route counts one step per pair.  Other degrees
    stay on `_reduce` pair by pair, which was measured faster there: in X's
    own basis a monomial occurs in 1.1-1.9 of a degree's S-polynomials on
    average, and in its large degrees in 0.27-0.61% of them, and a single
    pair has nothing to share, while the pentapod saturation's batches
    reuse a monomial 3.6-13 times and reduce 2-4.5 times faster as
    matrices.  The reduced basis is unique, so the order and the kernel
    change the work, never the result.

    Returns (a list of term dicts, monic, sorted by increasing leading
    monomial; deterministic, the Hilbert numerator of their lead ideal when
    `hilbert` was given, else None).
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

    divides = ring.monomial_divides

    def gm_update(t):
        """Gebauer-Moeller pair update for the new element with index t: one
        batch of lcms serves criterion B and the new pairs."""
        lt = leads[t]
        lcms = ring.lcms_with(leads, lt)
        # criterion B: drop an old pair (i, j) whose lcm lt divides, unless
        # lt's lcm with leads[i] or leads[j] is that lcm
        survivors = [
            e for e in pairs
            if not (lcms[e[2]] != e[4] != lcms[e[3]] and divides(lt, e[4]))
        ]
        # new pairs: per lcm the one with the smallest i, only for the lcms
        # no other candidate's lcm divides (M/F), and not when that i's lead is
        # coprime to lt (their lcm is then their product)
        first = {}
        for i in range(t):
            first.setdefault(lcms[i], i)
        for lij in ring.minimal_monomials(first):
            i = first[lij]
            if lij != leads[i] + lt:
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

    # A new element's lead is reduced, so all its pairs lie above its degree
    # and criterion B for it keeps every pair of its degree: the pair updates
    # of a degree wait until the degree is done, and are skipped when a
    # series shows the basis finished.  A saturating run divides leads down
    # to lower degrees, so it updates at once.
    pending = []

    def add(terms):
        """Reduce and insert; return the number of new basis elements (0 or 1)."""
        return keep(full_reduce(terms))

    def keep(red):
        """Insert a reduced term dict unless it is zero; return 0 or 1."""
        if not red:
            return 0
        if saturating:
            k = min(m // h for m in red)
            red = {m - k * h: c for m, c in red.items()}
            gm_update(insert(red))
        else:
            pending.append(insert(red))
        return 1

    def wrong_series(why):
        return ValueError(f"the given Hilbert series is wrong: {why}")

    def budget_exceeded(d):
        return BudgetExceeded(
            f"S-pair budget exhausted: {steps} reductions, basis size {len(leads)}, "
            f"current lcm degree {d}"
        )

    steps = 0
    # lead ideal numerator, and the basis size it is for: computed once per
    # lead set, and on exit always the one of the final leads
    num, num_size = ([1], 0) if hilbert is not None else (None, -1)
    while True:
        if hilbert is not None and num_size != len(leads):
            num, num_size = _lead_numerator(ring, leads), len(leads)
        if num is not None and num == hilbert:
            # the lead ideal has the series of I, so the basis is complete and
            # the generators not reached yet reduce to zero
            if any(full_reduce(s[2]) for s in seeds):
                raise wrong_series("an input generator is outside the finished basis")
            break
        for t in pending:
            gm_update(t)
        pending.clear()
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
        formed = {}  # the S-polynomials of a sparse degree, by pair
        if p and hilbert is None and pairs and pairs[0][0] == d:
            batch = [e[2:] for e in sorted(e for e in pairs if e[0] == d)]  # in pop order
            span, size, count = set(), 0, 0
            for i, j, lij in batch:
                s = formed[i, j] = s_polynomial_terms(i, j, lij)
                span.update(s)
                size += len(s)
                count += bool(s)
            if span and size >= len(span) * max(DENSE_REUSE, DENSE_FILL * count):
                # formed again one at a time: held through the reduction too,
                # they raised the pentapod saturation's traced peak from 1.6
                # to 2.3 MB
                formed.clear()
                steps += len(batch)
                if max_steps is not None and steps > max_steps:
                    raise budget_exceeded(d)
                pairs[:] = [e for e in pairs if e[0] != d]
                heapify(pairs)
                rows = (s_polynomial_terms(i, j, lij) for i, j, lij in batch)
                for row in _reduce_rows(rows, span, find_reducer, leads, tails, key, p, guard):
                    # a lead divided by h earlier in the batch may divide this one
                    keep(row if find_reducer(next(iter(row))) is None else full_reduce(row))
                continue
        while pairs and pairs[0][0] == d:
            _, _, i, j, lij = heappop(pairs)
            if missing == 0:
                continue
            steps += 1
            if max_steps is not None and steps > max_steps:
                raise budget_exceeded(d)
            s = formed.pop((i, j), None)
            missing -= add(s_polynomial_terms(i, j, lij) if s is None else s)

    # minimal basis: the elements whose lead no other lead divides (the
    # leads are distinct), in increasing lead order
    index = {m: i for i, m in enumerate(leads)}
    minimal = sorted(ring.minimal_monomials(leads), key=key)

    # reduced basis: each minimal lead plus the normal form of its tail, made
    # monic.  The normal form modulo a Groebner basis is unique, so the whole
    # basis of the run and its warm reducer cache give the reduced tails.
    final = []
    for lm in minimal:
        i = index[lm]
        tail = full_reduce(dict(tails[i]))
        inv = field.inv(lcoeffs[i])
        out = {lm: field.one}
        out.update((m, c * inv) for m, c in tail.items())
        final.append(out)
    return final, num


def buchberger(ideal_or_polys, max_steps=None, hilbert=None):
    """Reduced Groebner basis, in the ring's order, as a GroebnerBasis (a
    tuple of monic Polynomials sorted by increasing leading monomial; given a
    series, with the numerator of its lead ideal).  A list of polynomials
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
        return GroebnerBasis()
    ring = ideal.ring
    dicts, num = _gb_engine(list(ideal.generators), ring, max_steps=max_steps, hilbert=hilbert)
    gb = GroebnerBasis(Polynomial(ring, d) for d in dicts)
    gb.numerator = num
    return gb


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
    gb = tuple(Polynomial(ring, d) for d in _gb_engine(ideal.generators, ring, saturating=True)[0])
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
    repeated with no series.  The check reads the run's own numerator of
    its final leads, which the result keeps with its basis."""
    out = ideal + forms
    series = _basis_numerator(ideal)
    for f in out.generators[len(ideal.generators):]:
        series = _times_one_minus_t_power(series, f.homogeneous_degree())
    series = unipoly.trim(series)
    try:
        gb = buchberger(out, hilbert=series)
    except ValueError:
        gb = None
    if gb is None or gb.numerator != series:
        gb = buchberger(out)
    out.seed_groebner_cache(gb)
    return out


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------


def _times_one_minus_t_power(num, d):
    """num * (1 - t^d)."""
    return unipoly.add(num, num, scale=-1, shift=d)


def _lead_numerator(ring, leads):
    """Hilbert series numerator over prod(1 - t^w) of the monomial ideal
    generated by packed monomials, trailing zeros trimmed."""
    return unipoly.trim(_numerator(ring, ring.minimal_monomials(leads)))


def _numerator(ring, gens):
    """_lead_numerator for minimal generators, by the pivot recursion
    N(I) = N(I + p) + t^deg p N(I : p) on a power p = x_j^e (Bigatti 1997),
    down to ideals with at most one generator that is not a pure power."""
    if not gens:
        return [1]
    if 0 in gens:
        return []  # unit ideal
    wdeg = ring.wdeg
    pure, mixed = ring.split_pure_powers(gens)
    if len(mixed) <= 1:
        num = [1]
        for g in pure:
            num = _times_one_minus_t_power(num, wdeg(g))
        if mixed:
            # (pure) : m is generated by the pure powers lcm(g, m) / m
            m = mixed[0]
            colon = [1]
            for q in ring.lcms_with(pure, m):
                colon = _times_one_minus_t_power(colon, wdeg(q - m))
            num = unipoly.add(num, colon, scale=-1, shift=wdeg(m))
        return num
    # pivot: the variable in most mixed generators, at its median exponent
    # there.  I : p is generated by the lcm(g, p) / p, and p divides g iff
    # lcm(g, p) = g; I + p is minimal as built, since p is below every pure
    # power of x_j in I
    exps = [ring.unpack(g) for g in mixed]
    counts = [len(col) - col.count(0) for col in zip(*exps)]
    j = counts.index(max(counts))
    col = sorted(e[j] for e in exps if e[j])
    pivot = col[len(col) // 2] * ring.units[j]
    lcms = ring.lcms_with(gens, pivot)
    plus = [g for g, q in zip(gens, lcms) if q != g]
    plus.append(pivot)
    colon = ring.minimal_monomials([q - pivot for q in lcms])
    return unipoly.add(_numerator(ring, plus), _numerator(ring, colon), shift=wdeg(pivot))


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


def ring_numerator(ring, numerator, dimension):
    """The Hilbert numerator over (1 - t)^n, for a weight-1 ring of n
    variables, of the series numerator / (1 - t)^(dimension + 1) of a scheme
    of projective dimension `dimension`."""
    num = list(numerator)
    for _ in range(ring.n - dimension - 1):
        num = _times_one_minus_t_power(num, 1)
    return unipoly.trim(num)


def _basis_numerator(ideal: Ideal):
    """The `numerator` of the ideal's reduced basis in the ring's order,
    computed here when its run left none (see GroebnerBasis)."""
    gb = ideal.groebner_basis()
    if gb.numerator is None:
        gb.numerator = _lead_numerator(ideal.ring, [g.lead_monomial() for g in gb])
    return gb.numerator


def _known_numerator(ideal: Ideal):
    """The ideal's Hilbert series numerator over prod(1 - t^w), when it is
    known without a Groebner run: from its Hilbert data or from its cached
    basis in the ring's order.  None otherwise."""
    hd = ideal._hilbert
    if hd is not None:
        return ring_numerator(ideal.ring, hd.numerator, hd.dimension)
    if ideal.ring.order in ideal._gb:
        return _basis_numerator(ideal)
    return None


def hilbert_data(ideal: Ideal) -> HilbertData:
    """Dimension, degree and (for curves) arithmetic genus of a homogeneous
    ideal in a weight-1 ring."""
    ring = ideal.ring
    if any(w != 1 for w in ring.weights):
        raise ValueError("hilbert_data requires a weight-1 ring")
    if ideal._hilbert is not None:
        return ideal._hilbert
    num = _basis_numerator(ideal)
    # strip factors of (1 - t); num(1) == 0 iff divisible
    s = 0
    while num and sum(num) == 0:
        num = unipoly.divmod(num, [1, -1])[0]
        s += 1
    if not num:
        # unit ideal: empty projective scheme
        data = HilbertData(-1, 0, None, (0,))
    else:
        proj_dim = ring.n - s - 1
        degree = sum(num)
        # a curve's HS = num(t) / (1 - t)^2 has HP(t) = sum_j c_j (t - j + 1)
        # = deg * t + 1 - g, so g = 1 - deg + sum_j j * c_j
        genus = 1 - degree + sum(j * c for j, c in enumerate(num)) if proj_dim == 1 else None
        data = HilbertData(proj_dim, degree, genus, tuple(num))
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
