"""The row-packed matrix kernel `groebner._reduce_rows` against the heap loop
`groebner._reduce` run one row at a time.

In echelon mode each row is reduced by the reducers and by the monic results
of the rows before it, so the oracle reduces the rows in order and appends
each nonzero result to the reducers; in normal-form mode the oracle reduces
each row modulo the reducers alone.  Over GF(p), `reduce_by_basis` and
`reducer` are the kernel itself, so no test here uses them as its oracle.
Results are compared as term lists, order included: both kernels list a
result's terms in decreasing monomial order.
"""

import itertools
import random

import pytest

from podforge import groebner
from podforge.fields import GF
from podforge.groebner import PACK, _Reducers, _reduce, _reduce_rows, buchberger, reducer
from podforge.rings import DEGREVLEX, Polynomial, RingContext

PRIMES = [101, 32003, 2**31 - 1]


def _kernel(basis, rows, normal_forms=False):
    reducers = _Reducers(basis[0].ring, basis)
    return _reduce_rows(iter(rows), set().union(*rows), reducers, normal_forms=normal_forms)


def _heap_normal_forms(basis, rows):
    """Each row's normal form by `_reduce` modulo the basis alone, in order."""
    reducers = _Reducers(basis[0].ring, basis)
    return [_reduce(dict(row), reducers) for row in rows]


def _heap_one_at_a_time(basis, rows):
    """Each row's normal form by `_reduce` modulo the basis and the monic
    results of the rows before it; the nonzero results, in order."""
    p = basis[0].ring.field.p
    reducers = _Reducers(basis[0].ring, basis)
    out = []
    for row in rows:
        red = _reduce(dict(row), reducers)
        if not red:
            continue
        lm = next(iter(red))
        inv = pow(red[lm], p - 2, p)
        monic = {m: c * inv % p for m, c in red.items()}
        reducers.add(monic)
        out.append(monic)
    return out


def _ring(p, n=5):
    return RingContext(tuple(f"x{i}" for i in range(n)), (1,) * n, DEGREVLEX, GF(p))


def _form(ring, rng, d, fill=0.7):
    p = ring.field.p
    exps = [e for e in itertools.product(range(d + 1), repeat=ring.n) if sum(e) == d]
    return ring.from_terms([(e, rng.randrange(1, p)) for e in exps if rng.random() < fill])


def _basis_and_rows(p, seed, count):
    """A reduced basis of three random quadrics and `count` degree-3 rows: random
    forms, sums of two earlier rows (they reduce to zero) and rows that share
    an earlier row's lead (they reduce by its result), the last with their
    coefficients written in [-p, 0) (a row's coefficients are read mod p)."""
    rng = random.Random(seed)
    ring = _ring(p)
    basis = list(buchberger([_form(ring, rng, 2) for _ in range(3)]))
    rows = []
    for k in range(count):
        kind = k % 3
        if kind == 0 or len(rows) < 2:
            rows.append(_form(ring, rng, 3))
        elif kind == 1:
            a, b = rng.sample(rows, 2)
            rows.append(a + b.scale(ring.field.of(rng.randrange(1, p))))
        else:
            rows.append(rows[-1] + _form(ring, rng, 3, fill=0.2))
    return basis, [{m: c - p * (k % 3 == 2) for m, c in r.terms.items()}
                   for k, r in enumerate(rows)]


def _items(dicts):
    return [list(d.items()) for d in dicts]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("count", [PACK - 1, 3 * PACK + 5])
def test_echelon_mode_matches_the_heap_loop_row_by_row(p, count):
    # batches shorter and longer than one pack: later rows reduce by earlier
    # results, inside a pack and across packs, and a third of the rows
    # reduce to zero
    basis, rows = _basis_and_rows(p, count, count)
    got = _kernel(basis, rows)
    want = _heap_one_at_a_time(basis, rows)
    assert _items(got) == _items(want)
    assert 0 < len(got) < len(rows)


@pytest.mark.parametrize("p", PRIMES)
def test_a_later_row_of_a_pack_reduces_by_an_earlier_result(p):
    # r2 and r1 share their lead, so in one pack r2 reduces to zero by r1's
    # result and r3 = r1 + x4^2 * x0 reduces to a nonzero multiple of that
    # monomial's normal form
    ring = _ring(p)
    rng = random.Random(p)
    basis = list(buchberger([_form(ring, rng, 2) for _ in range(3)]))
    r1 = _form(ring, rng, 3)
    r2 = r1.scale(ring.field.of(7))
    r3 = r1 + ring.from_terms([((1, 0, 0, 0, 2), 1)])
    rows = [dict(r.terms) for r in (r1, r2, r3)]
    got = _kernel(basis, rows)
    assert _items(got) == _items(_heap_one_at_a_time(basis, rows))
    assert len(got) == 2


@pytest.mark.parametrize("p", PRIMES)
def test_rows_that_reduce_to_zero(p):
    # every row lies in the ideal: multiples of basis elements and their sums
    ring = _ring(p)
    rng = random.Random(p + 1)
    basis = list(buchberger([_form(ring, rng, 2) for _ in range(3)]))
    x = ring.gens()
    rows = []
    for k in range(PACK + 3):
        g, h = basis[k % len(basis)], basis[(k + 1) % len(basis)]
        f = g * x[k % ring.n] + h * x[(k + 2) % ring.n]
        rows.append(dict(f.terms))
    assert _kernel(basis, rows) == []
    assert _kernel(basis, rows, normal_forms=True) == [{}] * len(rows)


@pytest.mark.parametrize("p", PRIMES)
def test_normal_form_mode_matches_reduce_by_basis(p):
    # rows of two degrees, more than one pack, none reducing another; zero
    # rows give empty normal forms in place.  The oracle is the heap loop,
    # row by row
    ring = _ring(p)
    rng = random.Random(p + 2)
    basis = list(buchberger([_form(ring, rng, 2) for _ in range(3)]))
    polys = [_form(ring, rng, 2 + k % 2) for k in range(2 * PACK + 7)]
    polys[5] = basis[0] * ring.gens()[1]
    rows = [dict(f.terms) for f in polys]
    got = _kernel(basis, rows, normal_forms=True)
    assert _items(got) == _items(_heap_normal_forms(basis, rows))
    assert got[5] == {}


@pytest.mark.parametrize("p", PRIMES)
def test_reducer_sends_a_dense_list_to_the_kernel(p, monkeypatch):
    # `reducer` reduces every list as one matrix in normal-form mode, a
    # single polynomial included, and gives the heap loop's forms
    ring = _ring(p)
    rng = random.Random(p + 3)
    basis = list(buchberger([_form(ring, rng, 2) for _ in range(3)]))
    polys = [_form(ring, rng, 3) for _ in range(40)]
    calls = []
    reduce_rows = groebner._reduce_rows

    def recording(rows, *args, normal_forms=False):
        calls.append(normal_forms)
        return reduce_rows(rows, *args, normal_forms=normal_forms)

    monkeypatch.setattr(groebner, "_reduce_rows", recording)
    nfs = reducer(basis)
    got = nfs(polys)
    assert calls == [True]
    assert got == [nfs([f])[0] for f in polys]
    assert calls == [True] * (1 + len(polys))
    assert got == [Polynomial(ring, t) for t in _heap_normal_forms(basis, [f.terms for f in polys])]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [20, 45])
def test_slots_reach_the_top_of_their_width(p, n):
    # the reducers x_i - z (tail coefficient p - 1) and PACK rows
    # x_0 + ... + x_{n-1} + c_k z: at every x_i each slot holds 1, so F = p - 1
    # in every slot, and z's column ends at x_k = c_k + n (p - 1)^2 in slot k.
    # That is at least 2^(b - 1), b = bitlen(p + (ncols + 1) p (p - 1)) the
    # kernel's slot bound (ncols = n + 1), and c_k makes x_k = p - 1 - k mod p,
    # the residues the multiply-shift gets wrong first when s or b is too
    # small (at these n, s one bit short errs for every prime)
    ring = RingContext(tuple(f"x{i}" for i in range(n)) + ("z",), (1,) * (n + 1), DEGREVLEX, GF(p))
    z = ring.gen("z")
    basis = [x - z for x in ring.gens()[:n]]
    top = n * (p - 1) ** 2
    assert top >= 1 << (p + (n + 2) * p * (p - 1)).bit_length() - 2
    polys = [sum(ring.gens()[:n], z.scale(ring.field.of(-1 - k - top))) for k in range(PACK)]
    rows = [dict(f.terms) for f in polys]
    nfs = _heap_normal_forms(basis, rows)
    assert nfs == [z.scale(ring.field.of(-1 - k)).terms for k in range(PACK)]
    assert _kernel(basis, rows, normal_forms=True) == nfs
    want = [[(z.lead_monomial(), 1)]]
    assert _items(_kernel(basis, rows)) == _items(_heap_one_at_a_time(basis, rows)) == want
