"""BezoutIdempotents.verify against a test-local six-property oracle.

`verify` checks the record's structure and three congruences, and derives the
six splitting properties from them (the proof is in its docstring).  The
oracle here checks every property directly in (Z/p^j)[t]/(fg), with its own
list arithmetic and no padicu code: fg = f*g, P1 and P2 stored reduced,
P1 + P2 = 1, P1^2 = P1, P1*P2 = 0, P2^2 = P2, P1*f = f, P2*f = 0, P1*g = 0,
P2*g = g, and h = P1*h + P2*h on every monomial below deg fg.  Both must
agree on seeded corruptions of valid records.
"""

import random

import pytest

from padicu import gm
from padicu.gm import LaurentPoly
from padicu.scalars import Zp


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a, b, m):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return _trim([v % m for v in out])


def _rem(a, fg, m):
    """Remainder of a by fg over Z/m; fg has a unit lead."""
    r = [v % m for v in a]
    inv = pow(fg[-1], -1, m)
    for top in range(len(r) - 1, len(fg) - 2, -1):
        c = r[top] * inv % m
        for i, y in enumerate(fg):
            r[top - len(fg) + 1 + i] = (r[top - len(fg) + 1 + i] - c * y) % m
    return _trim(r[: len(fg) - 1])


def _combine(a, b, sign, m):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([(x + sign * y) % m for x, y in zip(a, b)])


def six_property_oracle(rec):
    m, fg, f, g, p1, p2 = rec.ring.pk, rec.modulus, rec.f_dense, rec.g_dense, rec.p1, rec.p2

    def reduced(a):
        return len(a) < len(fg) and all(0 <= v < m for v in a) and (not a or a[-1] != 0)

    def q(a):
        return _rem(a, fg, m)

    if _mul(f, g, m) != fg or not (reduced(p1) and reduced(p2)):
        return False
    fr, gr = q(f), q(g)
    one = q([1])
    checks = [
        q(_combine(p1, p2, 1, m)) == one,
        q(_mul(p1, p1, m)) == p1,
        q(_mul(p1, p2, m)) == [],
        q(_mul(p2, p2, m)) == p2,
        q(_mul(p1, f, m)) == fr,
        q(_mul(p2, f, m)) == [],
        q(_mul(p1, g, m)) == [],
        q(_mul(p2, g, m)) == gr,
    ]
    for e in range(len(fg) - 1):
        h = q([0] * e + [1])
        checks.append(q(_combine(_mul(p1, h, m), _mul(p2, h, m), 1, m)) == h)
    return all(checks)


def _unit_lead_poly(rng, p, m, d):
    coeffs = [rng.randrange(m) for _ in range(d + 1)]
    while coeffs[-1] % p == 0:
        coeffs[-1] = rng.randrange(m)
    return coeffs


def _records(rng):
    """Valid records over p in {3, 5, 7}, j <= 4, degrees <= 4, zero ring included."""
    out = []
    for p in (3, 5, 7):
        for j in (1, 2, 3, 4):
            ring = Zp(p, j)
            m = ring.pk
            made = 0
            while made < 20:
                dm, dn = (0, 0) if made < 2 else (rng.randint(0, 4), rng.randint(1, 4))
                f = LaurentPoly.from_coeffs(ring, _unit_lead_poly(rng, p, m, dm))
                g = LaurentPoly.from_coeffs(ring, _unit_lead_poly(rng, p, m, dn))
                if gm.orthogonality_test(f, g, j):
                    out.append(gm.bezout_idempotents(f, g, j))
                    made += 1
    return out


def _delta(rng, rec, scale=1):
    m, n = rec.ring.pk, len(rec.modulus) - 1
    while True:
        d = _trim([scale * rng.randrange(m) % m for _ in range(n)])
        if d or n == 0:
            return d


def _corruptions(rng, rec):
    """(kind, corrupted record) pairs; some kinds may leave the record valid."""
    m, p, fg = rec.ring.pk, rec.ring.p, rec.modulus
    p1, p2 = rec.p1, rec.p2
    d = _delta(rng, rec)
    yield "sum kept, P1 shifted", rec._replace(p1=_combine(p1, d, 1, m), p2=_combine(p2, d, -1, m))
    dp = _delta(rng, rec, scale=m // p)  # a shift by a multiple of p^(j-1)
    yield "sum kept, P1 shifted by p^(j-1)", rec._replace(
        p1=_combine(p1, dp, 1, m), p2=_combine(p2, dp, -1, m)
    )
    yield "valid P1, P2 shifted", rec._replace(p2=_combine(p2, _delta(rng, rec), 1, m))
    yield "P1 shifted", rec._replace(p1=_combine(p1, _delta(rng, rec), 1, m))
    yield "swapped", rec._replace(p1=p2, p2=p1)
    yield "trivial split", rec._replace(p1=_rem([1], fg, m), p2=[])
    multiple = _mul(fg, [rng.randrange(1, m)], m)
    yield "P1 plus a multiple of fg", rec._replace(p1=_combine(p1, multiple, 1, m))
    yield "P1 with a trailing zero", rec._replace(p1=p1 + [0])
    if p2:
        yield "P2 coefficient lifted by p^j", rec._replace(p2=p2[:-1] + [p2[-1] + m])
    if len(fg) > 1:
        wrong = _combine(fg, [p * rng.randrange(1, m)], 1, m)
        if wrong != fg:
            yield "modulus is not f*g", rec._replace(modulus=wrong)
    # the three congruences hold mod f alone with P1 = 0, and mod g with P2 = 0
    yield "modulus is f", rec._replace(modulus=rec.f_dense, p1=[], p2=_rem([1], rec.f_dense, m))
    yield "modulus is g", rec._replace(modulus=rec.g_dense, p1=_rem([1], rec.g_dense, m), p2=[])


def test_verify_agrees_with_the_six_property_oracle_on_seeded_corruptions():
    rng = random.Random(20261019)
    records = _records(rng)
    kinds = {}
    for rec in records:
        assert six_property_oracle(rec) and rec.verify()
        for kind, bad in _corruptions(rng, rec):
            expected = six_property_oracle(bad)
            assert bad.verify() == expected, (kind, bad)
            counts = kinds.setdefault(kind, [0, 0])
            counts[expected] += 1
    assert sum(a + b for a, b in kinds.values()) >= 2000
    # every kind is rejected somewhere, and the zero ring is among the records
    assert all(rejected for rejected, _ in kinds.values())
    assert any(len(rec.modulus) == 1 for rec in records)


def test_a_p1_that_is_not_idempotent_fails_although_p1_plus_p2_is_one():
    ring = Zp(5, 2)
    f, g = LaurentPoly.from_coeffs(ring, [-1, 1]), LaurentPoly.from_coeffs(ring, [-2, 1])
    rec = gm.bezout_idempotents(f, g, 2)
    bad = rec._replace(p1=[1, 1], p2=[0, 24])  # (1 + t) + 24t = 1 mod 25
    assert _rem(_combine(bad.p1, bad.p2, 1, 25), bad.modulus, 25) == [1]
    assert _rem(_mul(bad.p1, bad.p1, 25), bad.modulus, 25) != bad.p1
    assert not six_property_oracle(bad) and not bad.verify()


def test_a_valid_p1_with_a_corrupted_p2_fails():
    ring = Zp(7, 3)
    f, g = LaurentPoly.from_coeffs(ring, [2, 3, 1]), LaurentPoly.from_coeffs(ring, [5, 1])
    rec = gm.bezout_idempotents(f, g, 3)
    bad = rec._replace(p2=_combine(rec.p2, [0, 49], 1, 343))
    assert not six_property_oracle(bad) and not bad.verify()


def test_the_zero_ring_of_two_unit_constants():
    ring = Zp(3, 2)
    f, g = LaurentPoly.from_coeffs(ring, [2]), LaurentPoly.from_coeffs(ring, [4])
    rec = gm.bezout_idempotents(f, g, 2)
    assert rec.modulus == [8] and rec.p1 == [] and rec.p2 == []
    assert six_property_oracle(rec) and rec.verify()
    for p1, p2 in (([1], []), ([], [1]), ([1], [8])):
        bad = rec._replace(p1=p1, p2=p2)
        assert not six_property_oracle(bad) and not bad.verify()


@pytest.mark.parametrize("lead", [3, 6, 0])
def test_a_modulus_with_a_non_unit_lead_raises_before_any_check(lead):
    ring = Zp(3, 2)
    f, g = LaurentPoly.from_coeffs(ring, [1, 1]), LaurentPoly.from_coeffs(ring, [2, 1])
    rec = gm.bezout_idempotents(f, g, 2)
    bad = rec._replace(modulus=rec.modulus[:-1] + [lead])
    for record in (bad, bad._replace(p1=[5, 5, 5, 5]), bad._replace(f_dense=[1])):
        with pytest.raises(ValueError):
            record.verify()
