"""Oracle test of zero-dimensional solving: the ideal of a known point set
over GF(101) must give back exactly that point set.

The cases sweep every combination of the ambient space (P^2 or P^3), the
number of points (3-7), how many of them lie on the last coordinate
hyperplane (1-3) and k (3 or 4); each draws its point coordinates from its
own seed and builds the ideal from all forms of degrees k and k + 1 that
vanish on the points.
"""

import itertools
import random

import pytest

from podforge.fields import GF
from podforge.groebner import Ideal, hilbert_data
from podforge.linalg import matrix_kernel
from podforge.rings import DEGREVLEX, RingContext
from podforge.verify import solve_zero_dimensional

F101 = GF(101)
P = F101.p


def _normalized(coords):
    lead = next(c for c in coords if c)
    inv = pow(lead, P - 2, P)
    return tuple(c * inv % P for c in coords)


def _point_set(rng, n, count, on_hyperplane):
    """`count` distinct points of P^(n-1), exactly `on_hyperplane` of them
    with x_(n-1) = 0, each with first nonzero coordinate 1."""
    points = []
    while len(points) < count:
        c = [rng.randrange(P) for _ in range(n)]
        if len(points) < on_hyperplane:
            c[-1] = 0
        elif c[-1] == 0:
            continue
        if any(c) and _normalized(c) not in points:
            points.append(_normalized(c))
    return points


def _forms_vanishing_on(ring, points, k):
    """A basis of the degree-k forms that vanish at every point."""
    exps = []
    for combo in itertools.combinations_with_replacement(range(ring.n), k):
        exps.append(tuple(combo.count(i) for i in range(ring.n)))
    rows = [[_monomial_value(e, pt) for e in exps] for pt in points]
    return [ring.from_terms(zip(exps, v)) for v in matrix_kernel(rows, F101)]


def _monomial_value(exps, pt):
    value = 1
    for e, c in zip(exps, pt):
        value = value * pow(c, e, P) % P
    return value


CASES = list(itertools.product((3, 4), range(3, 8), (1, 2, 3), (3, 4)))


@pytest.mark.parametrize(
    "n, count, on_hyperplane, k",
    CASES,
    ids=[f"P{n - 1}-{c}pts-{h}on-hyperplane-k{k}" for n, c, h, k in CASES],
)
def test_solver_returns_exactly_the_point_set(n, count, on_hyperplane, k):
    seed = CASES.index((n, count, on_hyperplane, k))
    ring = RingContext(tuple(f"x{i}" for i in range(n)), (1,) * n, DEGREVLEX, F101)
    points = _point_set(random.Random(seed), n, count, on_hyperplane)
    ideal = Ideal(ring, _forms_vanishing_on(ring, points, k)
                  + _forms_vanishing_on(ring, points, k + 1))
    hd = hilbert_data(ideal)
    assert (hd.dimension, hd.degree) == (0, count)
    found = solve_zero_dimensional(ideal, rng=random.Random(seed))
    assert sorted(found) == sorted(points)
