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
proven bound of its own (`models.ideal_Y`).  `certified_cut` runs a cut of
a model on the series a regular cut would have, from the model's numerator
over Q (a `models` constant), and keeps the basis only when its leads
certify it; `cut_regular_sequence` carries such a series as exact, for
forms the caller has proven a regular sequence, and makes no run until a
basis is asked for.  `saturate` computes I : x^infinity for the last
degrevlex variable x from I's basis, each element divided by its largest
power of x (Bayer's lemma, Bayer-Stillman 1987).

Reduction goes through the reducer set `_Reducers`, which holds the leads,
tails and first-divisor cache of a run's basis or of a `reducer`'s, and whose
`reduce` takes a batch of rows and picks the kernel by the field alone.  Over
GF(p) every batch is reduced as one matrix, F4-style (`_reduce_rows`:
symbolic preprocessing, then one pass a pack of PACK rows, every column's
entries held in one int with a slot a row; Faugere 1999).  The batches are a
degree's S-pairs in a run that no series bounds (X's own basis, a cut that
`certified_cut` rejects, the saturation of a special pentapod's cut of X),
a degree's input generators, the final interreduction's tails (each minimal
element is its lead plus the normal form of its tail modulo the finished
basis), and the list given to a `reducer`; the last two in the kernel's
normal-form mode, where no row reduces another.  Over Q a batch goes row by
row through the heap-driven `_reduce`, and so, over either field, do the
series-driven degrees, pair by pair; its loop serves both fields (only the
reduction mod p and the reducer's factor depend on the field).  In both
kernels each term is reduced by the first basis element whose lead divides
it (`RingContext.first_divisor`).  Basis elements are kept monic over GF(p)
and content-normalized over Q during the run.  The reduced basis is unique
for a fixed order, so output is bit-reproducible regardless of internal
scheduling.

Hilbert series numerators are `unipoly` coefficient lists of ints (the unit
ideal's is [], stored as (0,) in HilbertData), computed on packed lead
monomials by Bigatti's pivot recursion.  A lead set's numerator is computed
at most once and kept with the basis it describes: a run given a series ends
with the numerator of its final leads, which the minimal basis does not
change, so `certified_cut`'s check, `hilbert_data` and the series of a
slice read it instead of recomputing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, islice
from math import gcd, inf

from . import unipoly
from .fields import QQ, FieldError, slot_layout
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
        out = Ideal(self.ring, ())
        out.generators = tuple(gb)  # a basis of checked generators is not checked again
        out._gb[self.ring.order] = gb
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
        added = Ideal(self.ring, other).generators
        out = Ideal(self.ring, ())
        out.generators = self.generators + added  # only the added forms are checked
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


def _reduce(work, reducers):
    """Full normal form of the term dict `work` (consumed) modulo a
    `_Reducers`, returned as a term dict in decreasing monomial order.

    Each monomial is reduced by its `reducers.find` pick.  Over GF(p) every
    reducer is monic and the coefficients are ints, reduced mod p only when
    their monomial is popped; over Q they are Fractions.  The loop is the
    same for both fields: a monomial's accumulator is never deleted, so it
    enters the heap once.  Raises OverflowError when a new monomial needs an
    exponent above the cap."""
    find, leads, tails, lcoeffs = reducers.find, reducers.leads, reducers.tails, reducers.lcoeffs
    key, p, guard = reducers.key, reducers.p, reducers.guard
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
        idx = find(m)
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


# Rows `_reduce_rows` reduces at once, one slot of each column's int a row:
# on sample-fp's batches (then the pentapod saturation's unbounded run and
# its slices) 32 tied 64, which doubles the accumulator's memory, and 16 and
# 128 were slower
PACK = 32


class _Reducers:
    """The reducers of one ring's reductions, in order: reducer i is
    leads[i] plus the (monomial, coeff) pairs tails[i] with lead coefficient
    lcoeffs[i], monic over GF(p) (p given) and content-normalized over Q
    (p None).  The engine's basis grows by `add` during a run; `reducer`
    builds one from a fixed basis.  `find(m)` is the index of the first lead
    dividing m, or None, cached per monomial and still valid as the set
    grows (`RingContext.first_divisor` scans only the leads added since).
    `reduce` picks the kernel by the field."""

    __slots__ = ("key", "p", "guard", "leads", "tails", "lcoeffs", "find")

    def __init__(self, ring, basis=()):
        self.key = ring.sort_key
        self.p = ring.field.p if ring.field is not QQ else None
        self.guard = ring.guard_mask
        leads = self.leads = []
        self.tails, self.lcoeffs = [], []
        first_divisor = ring.first_divisor
        cache = {}  # monomial -> its index, or ~(the number of leads scanned)

        def find(m):
            ent = cache.get(m, -1)
            if ent >= 0:
                return ent
            nb = len(leads)
            if ~ent == nb:
                return None
            idx = first_divisor(m, leads, ~ent)
            cache[m] = ~nb if idx is None else idx
            return idx

        self.find = find
        for g in basis:
            self.add(g.terms)

    def add(self, terms):
        """Append the nonzero term dict `terms` (not kept) as a reducer,
        scaled to be monic over GF(p) and to coprime integers over Q; return
        its index."""
        p = self.p
        lm = max(terms, key=self.key)
        if p:
            inv = pow(terms[lm], p - 2, p)
            tail, lc = [(m, c * inv % p) for m, c in terms.items() if m != lm], 1
        else:
            num, den = 0, 1
            for c in terms.values():
                num = gcd(num, c.numerator)
                den = den * c.denominator // gcd(den, c.denominator)
            scale = Fraction(den, num)
            tail = [(m, c * scale) for m, c in terms.items() if m != lm]
            lc = terms[lm] * scale
        self.leads.append(lm)
        self.tails.append(tail)
        self.lcoeffs.append(lc)
        return len(self.leads) - 1

    def reduce(self, rows, normal_forms=False):
        """The reduced forms, modulo the reducers, of the term dicts that the
        factory `rows()` yields.  Over GF(p) the rows are one batch of
        `_reduce_rows` (in echelon mode its nonzero results, monic, each row
        reduced by the earlier results too): one pass over `rows()` gives
        their monomials, and the kernel reads them formed again by `rows()`,
        since a batch of S-polynomials held through the kernel's pass raised
        the pentapod saturation's traced peak from 1.6 to 2.3 MB.  Over Q the
        rows go one at a time, as they are formed, through `_reduce`, which
        consumes them, zeros included: a form the caller adds before it takes
        the next reduces the later rows, as the kernel's results do.  With
        `normal_forms` every row's normal form modulo the reducers alone is
        returned, in order."""
        if self.p:
            span = set()
            for row in rows():
                span.update(row)
            return _reduce_rows(rows(), span, self, normal_forms=normal_forms)
        return (_reduce(row, self) for row in rows())


def _reduce_rows(rows, span, reducers, normal_forms=False):
    """The nonzero reduced forms, monic, of an iterable of term dicts over
    GF(p) of one degree, in order; `span` is the set of their monomials, and
    is consumed.  Each result is the normal form of its row modulo the monic
    `_Reducers` (each monomial's reducer picked by `reducers.find`, as in
    `_reduce`) and the earlier results (Faugere 1999, F4).  With
    `normal_forms`, no row reduces another and the rows may have any
    degrees: the result is the list of every row's normal form modulo the
    reducers alone, as `_reduce` gives it (zero rows
    included, coefficients in [0, p), decreasing monomial order).

    Symbolic preprocessing closes the span under `find`: each monomial
    m with reducer i brings in the row m / leads[i] times reducer i, and its
    monomials join the closure.  The closure is sorted once by the order key
    into columns.  A reducer row is kept as the list of its tail's column
    indices, which are the column map's own int objects (a pointer a term;
    an `array` of them was 10-15% slower to read), and its coefficients are
    shared by every shift of the same reducer.

    The rows are read PACK at a time, and a pack, held only until it is
    loaded, is reduced in one dense accumulator column by column, largest
    first: the entry of column j is one int x holding one slot a row, in the
    layout of `fields.slot_layout` (row k at bits kW..kW + W - 1).  Reaching j, all slots are reduced mod p
    at once by its multiply-shift, r = x - p * (((x * magic) >> s) & mask).
    A reducer row is applied to the whole pack by one multiply-add a tail
    term, acc[jj] += f * cc with f = p * nz - r, where nz, the slots of r
    that are nonzero, is bit c = bitlen(p) of each slot of r +
    (2^c - 1) * ones.  No slot carries into the next: every coefficient read
    is below p (a row's is taken mod p, a reducer tail's is), and a slot
    gains at most (p - 1)^2 from each of the at most ncols columns before its
    own, so it stays below the layout's bound p + (ncols + 1) * p * (p - 1).
    So each slot follows its own row's reduction exactly.  Results of
    earlier packs are pivots of their lead columns for the later packs (in
    one degree, a monomial that a result's lead divides is that lead); a
    pack's remainders, which miss every column with a pivot, are then
    echelonized in row order, each by the pack's earlier results.  A
    remainder of a row modulo rows of distinct leads that misses all those
    leads is unique (the difference of two lies in their span and misses
    every lead), so each result is the one the rows reduced one at a time
    against every reducer and earlier result give.  Raises OverflowError
    when a monomial of the closure has an exponent above the cap."""
    find, leads, tails = reducers.find, reducers.leads, reducers.tails
    key, p, guard = reducers.key, reducers.p, reducers.guard
    todo = list(span)
    if any(m & guard for m in todo):
        raise OverflowError(f"monomial exponent above the cap {EXP_MAX}")
    pivot_of = {}  # monomial -> index of its reducer
    while todo:
        m = todo.pop()
        i = find(m)
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
    # the slot layout (see above), W = width
    c = p.bit_length()
    width, s, magic, ones, mask = slot_layout(p, p + (ncols + 1) * p * (p - 1), PACK)
    low = ((1 << c) - 1) * ones
    slot = (1 << width) - 1
    out = []
    acc = [0] * ncols  # all zero between packs: each entry is cleared when reached
    rows = iter(rows)
    while pack := list(islice(rows, PACK)):
        lo = ncols
        for k, row in enumerate(pack):
            at = k * width
            for mono, v in row.items():
                j = col[mono]
                acc[j] += (v % p) << at
                if j < lo:
                    lo = j
        size = len(pack)
        del pack, row
        kept = []  # (column, its residues) where no pivot reduces
        for j in range(lo, ncols):
            x = acc[j]
            if not x:
                continue
            acc[j] = 0
            r = x - p * (((x * magic) >> s) & mask)
            if not r:
                continue
            pc = piv_cols[j]
            if pc is None:
                kept.append((j, r))
                continue
            f = p * (((r + low) >> c) & ones) - r
            for jj, cc in zip(pc, piv_coeffs[j]):
                acc[jj] += f * cc
        new = []  # lead columns of the pack's results
        for k in range(size):
            at = k * width
            rem = {}
            for j, r in kept:
                v = (r >> at) & slot
                if v:
                    rem[j] = v
            if normal_forms:
                out.append({order[j]: v for j, v in rem.items()})
                continue
            for j0 in new:  # each result misses the leads of those before it
                v = rem.pop(j0, 0) % p
                if v:
                    f = p - v
                    for jj, cc in zip(piv_cols[j0], piv_coeffs[j0]):
                        rem[jj] = rem.get(jj, 0) + f * cc
            red = sorted((j, v % p) for j, v in rem.items() if v % p)
            if not red:
                continue
            (j0, lc), tail = red[0], red[1:]
            inv = pow(lc, p - 2, p)
            tail = [(j, v * inv % p) for j, v in tail]
            piv_cols[j0] = [j for j, _ in tail]
            piv_coeffs[j0] = tuple(v for _, v in tail)
            new.append(j0)
            terms = {order[j0]: 1}
            terms.update((order[j], v) for j, v in tail)
            out.append(terms)
    return out


def _gb_engine(seed_polys, ring, max_steps=None, hilbert=None):
    """Compute the reduced Groebner basis of homogeneous seed polynomials.

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
    the degree complete.  Where a degree is one batch (below), the order
    changed no count: the home-pose pentapod's cut of X pops 393 pairs with
    no series, 369 of them reducing to zero, largest or smallest lcm first.
    Driven by the series of a regular cut, as `certified_cut` runs it,
    the same cut reduces 34.

    With no series, a degree's pairs are one batch.  That batch, a degree's
    input generators and the final interreduction's tails (each minimal
    element is its lead plus the normal form of its tail, in normal-form
    mode) go through `_Reducers.reduce`; an empty batch makes no call.  The
    field picks the kernel: over GF(p) a batch is reduced as one matrix
    (`_reduce_rows`), in the same order, and over Q row by row on `_reduce`.
    As a matrix, a reducer row is built once for every row that meets it,
    and a pair that reduces to zero costs a slot of a pack, not a heap walk:
    an unbounded pentapod cut's batches reuse a monomial 3.6-13 times and
    reduce 2-4.5 times faster that way.  Each nonzero row is inserted in
    order as above.  A batch counts one step per pair.  The series-driven degrees go pair by pair on `_reduce`, over
    either field, so that they stop once the series shows the degree
    complete.  The reduced basis is unique, so the order and the kernel
    change the work, never the result.

    Returns (a list of term dicts, monic, sorted by increasing leading
    monomial; deterministic, the Hilbert numerator of their lead ideal when
    `hilbert` was given, else None).
    """
    key = ring.sort_key
    field = ring.field
    p = field.p if field is not QQ else None
    if hilbert is not None:
        hilbert = unipoly.trim(hilbert)
    reducers = _Reducers(ring)  # the basis so far
    leads, tails, lcoeffs = reducers.leads, reducers.tails, reducers.lcoeffs

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
    # series shows the basis finished
    pending = []

    def keep(red):
        """Insert a reduced term dict unless it is zero; return 0 or 1."""
        if not red:
            return 0
        pending.append(reducers.add(red))
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
            if any(_reduce(s[2], reducers) for s in seeds):
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
        # input generators are always reduced: they are few, and check the
        # series.  An empty batch makes no call
        gens = []
        while seeds and seeds[-1][0] == d:
            gens.append(seeds.pop()[2])
        if gens:
            for red in reducers.reduce(lambda: gens):
                missing -= keep(red)
                if missing < 0:
                    raise wrong_series(f"an input generator passes it in degree {d}")
        if hilbert is None:
            batch = []
            while pairs and pairs[0][0] == d:
                batch.append(heappop(pairs)[2:])
            steps += len(batch)
            if max_steps is not None and steps > max_steps:
                raise budget_exceeded(d)
            if batch:
                for row in reducers.reduce(lambda: (s_polynomial_terms(*e) for e in batch)):
                    keep(row)
            continue
        while pairs and pairs[0][0] == d:
            _, _, i, j, lij = heappop(pairs)
            if missing == 0:
                continue
            steps += 1
            if max_steps is not None and steps > max_steps:
                raise budget_exceeded(d)
            missing -= keep(_reduce(s_polynomial_terms(i, j, lij), reducers))

    # minimal basis: the elements whose lead no other lead divides (the
    # leads are distinct), in increasing lead order
    index = {m: i for i, m in enumerate(leads)}
    minimal = sorted(ring.minimal_monomials(leads), key=key)

    # reduced basis: each minimal lead plus the normal form of its tail, made
    # monic.  The normal form modulo a Groebner basis is unique, so the whole
    # basis of the run and its warm reducer cache give the reduced tails.
    final = []
    for lm, tail in zip(minimal, reducers.reduce(
            lambda: (dict(tails[index[m]]) for m in minimal), normal_forms=True)):
        inv = field.inv(lcoeffs[index[lm]])
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
    return reducer(basis)([f])[0]


def reducer(basis):
    """`reduce_by_basis` against a fixed nonempty basis, as a function of a
    list of polynomials that returns the list of their normal forms: one
    `_Reducers` of the basis, with its first-divisor cache, serves every
    call, and its `reduce` reduces the list (over GF(p), as one matrix in
    normal-form mode)."""
    ring = basis[0].ring
    reducers = _Reducers(ring, basis)

    def nfs(fs):
        rows = reducers.reduce(lambda: (dict(f.terms) for f in fs), normal_forms=True)
        return [Polynomial(ring, t) for t in rows]

    return nfs


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
    """I : var^infinity, for var the last variable of a degrevlex ring, by
    Bayer's two-run route (Bayer-Stillman 1987): I's reduced basis G, each
    element divided by its largest power of var, then reduced by a second
    run, made only when some element was divisible by var.

    In that order a homogeneous f is divisible by var^k exactly when its lead
    is.  Let G' be G divided as above; it lies in J = I : var^infinity.  For
    f in J, var^s f lies in I for some s, so some lead of G divides
    var^s lead(f).  That lead is var^k times the lead of an element of G',
    which var does not divide, so the latter divides lead(f).  So G' is a
    Groebner basis of J, and J = I when no element of G is divisible by var.
    The input caches no basis; the result has J's reduced basis as
    generators and cached."""
    ring = ideal.ring
    if ring.order != DEGREVLEX or ring.names[-1] != var:
        raise ValueError(f"saturate needs {var!r} as the last variable of a degrevlex ring")
    gb = buchberger(ideal)
    h = ring.units[-1]  # the packed last variable: m // h is its exponent in m
    powers = [min(m // h for m in g.terms) for g in gb]
    if any(powers):
        gb = buchberger([
            Polynomial(ring, {m - k * h: c for m, c in g.terms.items()})
            for g, k in zip(gb, powers)
        ])
    out = Ideal(ring, gb)
    out.seed_groebner_cache(gb)
    return out


def certified_cut(cut: Ideal, series):
    """The cut J = I + forms of a model I, with its reduced basis as
    generators and cached, from one run certified by its leads; None when
    the leads do not certify it.

    The caller cuts a model I generated by forms with integer coefficients
    by c linear forms, and `series` (a numerator over prod(1 - t^w), as every
    `hilbert=`) is `ring_numerator(ring, N, d)` for N the Hilbert numerator
    of R/I over Q and d = dim V(I) - c, the series of a cut by a regular
    sequence.  The run `buchberger(cut, hilbert=series)` is kept when its
    leads L certify it: (a) their numerator is `series` and (b) no lead
    involves z, the last d + 1 variables.  Let A = R/I over the field,
    e = N(1) the degree of I over Q, and y the forms followed by z.
    1. By (a) and (b), R/(L + z) is Artinian of length e, and in(J + z)
       contains L + z, so A/yA = R/(J + z) has length at most e.
    2. I's generators have integer coefficients, so A's Hilbert function is
       at least that of R/I over Q in every degree.  With step 1, the
       Krull dimension of A is c + d + 1, so y is a system of parameters of
       A, and e(A) >= e.
    3. Serre's inequality gives e <= e(A) <= length(A/yA) <= e, so A is
       Cohen-Macaulay and y is A-regular (Bruns-Herzog, Cor. 4.7.11).
    4. So R/(J + z) has length e, and its Hilbert function, at most that
       of R/(L + z) in every degree (step 1), has the same sum: the two are
       equal.  z is regular on R/J (step 3) and on R/L (by (b)), so
       HS(R/J) = HS(R/L): L is in(J) and the run's basis is complete.
    The route needs no basis of I and no Cohen-Macaulay fact about I.
    When the check fails, or the series is passed (ValueError), the caller
    takes its own route."""
    ring = cut.ring
    try:
        z = ring.n - _hilbert_from_numerator(ring, series).dimension - 1
        gb = buchberger(cut, hilbert=series)
    except ValueError:
        return None
    if gb.numerator != unipoly.trim(series) or any(
            any(ring.unpack(g.lead_monomial())[z:]) for g in gb):
        return None
    cut.seed_groebner_cache(gb)
    return cut.reduced()


def cut_regular_sequence(ideal: Ideal, forms, series) -> Ideal:
    """I + forms, for forms that the caller has proven to be a regular
    sequence on R/I, in a weight-1 ring, and `series` the cut's Hilbert
    numerator over (1 - t)^n, prod(1 - t^deg f) HS(R/I): `hilbert_data`
    reads it with no Groebner run on the cut, and a later `groebner_basis()`
    call is driven by it."""
    out = ideal + forms
    out._bound = series
    out._hilbert = _hilbert_from_numerator(out.ring, series)
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
    if ideal._hilbert is None:
        ideal._hilbert = _hilbert_from_numerator(ideal.ring, _basis_numerator(ideal))
    return ideal._hilbert


def _hilbert_from_numerator(ring, num) -> HilbertData:
    """The HilbertData of the series num / (1 - t)^n of a weight-1 ring of n
    variables."""
    if any(w != 1 for w in ring.weights):
        raise ValueError("hilbert_data requires a weight-1 ring")
    # strip factors of (1 - t); num(1) == 0 iff divisible, and then
    # num / (1 - t) is the list of num's prefix sums, the last one num(1)
    num = unipoly.trim(num)
    s = 0
    while num and sum(num) == 0:
        num = list(accumulate(num))[:-1]
        s += 1
    if not num:
        # unit ideal: empty projective scheme
        return HilbertData(-1, 0, None, (0,))
    proj_dim = ring.n - s - 1
    degree = sum(num)
    # a curve's HS = num(t) / (1 - t)^2 has HP(t) = sum_j c_j (t - j + 1)
    # = deg * t + 1 - g, so g = 1 - deg + sum_j j * c_j
    genus = 1 - degree + sum(j * c for j, c in enumerate(num)) if proj_dim == 1 else None
    return HilbertData(proj_dim, degree, genus, tuple(num))


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
