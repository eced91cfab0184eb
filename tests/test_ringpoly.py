"""Polynomials over a ring handle, checked against code they do not share.

Over Z_p the references are `fppoly`'s int arithmetic mod p^K; over F_{p^d}
the gcd is checked by its defining properties, and synthetic division by a
schoolbook product in this file.
"""

import random

import pytest

from padicu import fppoly, ringpoly
from padicu.scalars import Zp, unram


def _random_poly(ring, degree, rng):
    if ring.degree == 1:
        return [rng.randrange(ring.pk) for _ in range(degree + 1)]
    return [tuple(rng.randrange(ring.pk) for _ in range(ring.m)) for _ in range(degree + 1)]


def _random_monic(ring, degree, rng):
    return _random_poly(ring, degree - 1, rng) + [ring.one]


def _times(ring, a, b):
    """Oracle: the schoolbook product, untrimmed."""
    out = [ring.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = ring.radd(out[i + j], ring.rmul(x, y))
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("K", [1, 4, 30])
def test_base_ring_arithmetic_matches_fppoly(p, K):
    ring, rng = Zp(p, K), random.Random(p * 100 + K)
    pk = ring.pk
    for _ in range(20):
        g = _random_monic(ring, rng.randint(1, 6), rng)
        a = _random_poly(ring, rng.randint(0, 12), rng)
        assert ringpoly.rem(ring, a, g) == fppoly.divmod_poly(fppoly.trim(list(a)), g, pk)[1]


def test_zero_and_trim():
    ring = unram(3, 2, 2)
    g = [ring.one, ring.zero, ring.one]
    assert ringpoly.trim(ring, [ring.one, ring.zero, ring.zero]) == [ring.one]
    assert ringpoly.rem(ring, [ring.zero, ring.zero, ring.zero, ring.zero], g) == []


@pytest.mark.parametrize("p,d", [(3, 2), (3, 4), (5, 2), (5, 3), (7, 2)])
def test_gcd_over_a_residue_field_is_monic_and_divides_both(p, d):
    field, rng = unram(p, 1, d), random.Random(p * 10 + d)
    checked = 0
    while checked < 15:
        common = _random_monic(field, rng.randint(1, 3), rng)
        a = _times(field, common, _random_poly(field, rng.randint(0, 4), rng))
        b = _times(field, common, _random_poly(field, rng.randint(0, 4), rng))
        a, b = ringpoly.trim(field, a), ringpoly.trim(field, b)
        if not b:
            continue
        checked += 1
        g = ringpoly.gcd(field, a, b)
        assert g[-1] == field.one
        assert ringpoly.rem(field, a, g) == [] and ringpoly.rem(field, b, g) == []
        assert ringpoly.rem(field, g, common) == []  # the common factor divides the gcd


@pytest.mark.parametrize("ring", [Zp(5, 6), unram(3, 4, 2), unram(7, 30, 3)], ids=repr)
def test_divide_linear_is_synthetic_division(ring):
    rng = random.Random(ring.p * ring.K)
    for _ in range(20):
        f = _random_poly(ring, rng.randint(0, 8), rng)
        x = _random_poly(ring, 0, rng)[0]
        q, v = ringpoly.divide_linear(ring, f, x)
        assert len(q) == len(f) - 1
        rebuilt = _times(ring, q, [ring.rneg(x), ring.one]) if q else [ring.zero]
        rebuilt[0] = ring.radd(rebuilt[0], v)
        assert rebuilt == f
