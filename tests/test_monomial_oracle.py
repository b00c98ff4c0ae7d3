"""RingContext's batched packed-monomial helpers against loops over the
exponent tuples of `unpack`: the lcms of the pair update, the minimal
elements shared by the pair update and the Hilbert numerator, and the split
of a generator set into pure powers and the rest."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from podforge.rings import RingContext  # noqa: E402


@st.composite
def ring_and_monomials(draw):
    """A ring of 1 to 17 variables and packed monomials in it, with small
    exponents (repeats and divisibility are common) or any up to the cap."""
    n = draw(st.integers(1, 17))
    ring = RingContext(tuple(f"v{i}" for i in range(n)), tuple(draw(st.lists(
        st.integers(1, 3), min_size=n, max_size=n))))
    exps = st.one_of(st.integers(0, 2), st.integers(0, 127))
    monos = draw(st.lists(st.tuples(*[exps] * n), max_size=12))
    return ring, [ring.pack(e) for e in monos]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=ring_and_monomials(), pick=st.integers(0, 11))
def test_lcms_with_matches_exponentwise_max(data, pick):
    ring, monos = data
    m = monos[pick % len(monos)] if monos else 0
    got = ring.lcms_with(monos, m)
    assert [ring.unpack(q) for q in got] == [
        tuple(map(max, ring.unpack(a), ring.unpack(m))) for a in monos]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=ring_and_monomials())
def test_minimal_monomials_match_the_pairwise_loop(data):
    ring, monos = data
    tuples = {ring.unpack(m) for m in monos}
    want = {t for t in tuples if not any(s != t and _divides(s, t) for s in tuples)}
    got = ring.minimal_monomials(monos)
    assert got == sorted(got) and {ring.unpack(m) for m in got} == want
    assert len(got) == len(want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=ring_and_monomials())
def test_split_pure_powers_matches_the_support(data):
    ring, monos = data
    monos = [m for m in monos if m]  # the constant monomial is neither
    pure, mixed = ring.split_pure_powers(monos)
    support = {m: sum(1 for e in ring.unpack(m) if e) for m in monos}
    assert pure == [m for m in monos if support[m] == 1]
    assert mixed == [m for m in monos if support[m] > 1]
