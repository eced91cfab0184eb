"""Checks on the shipped modulus table, the Teichmuller lifts and the ring names."""

import random

import pytest

from padicu import fppoly, moduli
from padicu.errors import InputError, Unsupported


def _order_of_class(f, p):
    m = len(f) - 1
    n = p**m - 1
    fac = {}
    t, q = n, 2
    while q * q <= t:
        while t % q == 0:
            fac[q] = fac.get(q, 0) + 1
            t //= q
        q += 1
    if t > 1:
        fac[t] = fac.get(t, 0) + 1
    order = n
    x = [0, 1]
    one = fppoly.divmod_poly([1], list(f), p)[1]
    for q in fac:
        while order % q == 0 and fppoly.pow_mod(x, order // q, list(f), p) == one:
            order //= q
    return order


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_table_entries_are_primitive(p, m):
    f = [c % p for c in moduli.residue_modulus(p, m)]
    assert f[-1] == 1
    if m > 1:
        assert fppoly.is_irreducible(f, p)
        assert _order_of_class(f, p) == p**m - 1
    else:
        r = (-f[0]) % p
        seen = {pow(r, k, p) for k in range(1, p)}
        assert len(seen) == p - 1  # primitive root


@pytest.mark.parametrize("p,m", [(3, 2), (5, 3), (7, 4)])
def test_canonical_modulus_reduces_compatibly(p, m):
    hi = moduli.canonical_modulus(p, m, 4)
    lo = moduli.canonical_modulus(p, m, 2)
    assert tuple(c % p**2 for c in hi) == lo


def test_unknown_entry_rejected():
    with pytest.raises(Unsupported):
        moduli.residue_modulus(11, 2)
    with pytest.raises(Unsupported):
        moduli.residue_modulus(3, 5)


def _fixed_point_generator(p, m, K, residue=None):
    """Oracle: iterate y -> y^(p^m) from the class of X until it stops moving."""
    pk = p**K
    naive = [c % pk for c in (residue or moduli.residue_modulus(p, m))]
    y = fppoly.divmod_poly([0, 1], naive, pk)[1]
    while (nxt := fppoly.pow_mod(y, p**m, naive, pk)) != y:
        y = nxt
    return y, naive


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("K", [1, 2, 5, 20])
def test_canonical_modulus_vanishes_at_fixed_point_generator(p, m, K):
    """The monic lift of the residue modulus with the Teichmuller root y is unique: F(y) = 0."""
    pk = p**K
    F = moduli.canonical_modulus(p, m, K)
    assert F[-1] == 1 and len(F) == m + 1
    assert [c % p for c in F] == [c % p for c in moduli.residue_modulus(p, m)]
    y, naive = _fixed_point_generator(p, m, K)
    value = []
    for c in reversed(F):
        value = fppoly.add(fppoly.divmod_poly(fppoly.mul(value, y, pk), naive, pk)[1], [c], pk)
    assert fppoly.trim(value) == []


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_teichmuller_modulus_of_any_irreducible(p):
    """Seeded monic irreducibles of degree 1 to 6, table entries or not: the lift
    is monic, reduces to the residue, vanishes at the fixed-point generator, and
    its ring name is the table's exactly for the table's entries.  The cache of
    lifts is cleared first, so each lift is computed and audited here."""
    moduli._lift.cache_clear()
    rng = random.Random(p)
    for m in range(1, 7):
        for _ in range(2):
            while True:
                residue = tuple(rng.randrange(p) for _ in range(m)) + (1,)
                if fppoly.is_irreducible(list(residue), p):
                    break
            for K in (1, 3, 10):
                F = moduli.teichmuller_modulus(p, residue, K)
                assert F[-1] == 1 and [c % p for c in F] == list(residue)
                y, naive = _fixed_point_generator(p, m, K, residue)
                value = []
                for c in reversed(F):
                    value = fppoly.add(fppoly.divmod_poly(fppoly.mul(value, y, p**K), naive, p**K)[1], [c], p**K)
                assert value == []
                name, modulus = moduli.ring_modulus(p, residue, K)
                assert modulus == F
                in_table = (p, m) in moduli._CONWAY and moduli._CONWAY[(p, m)] == residue
                assert name == (f"cw1-p{p}-m{m}" if in_table else f"tl1-p{p}-" + ".".join(map(str, residue)))
        if (p, m) in moduli._CONWAY:
            assert moduli.ring_modulus(p, moduli.residue_modulus(p, m), 4) == (
                f"cw1-p{p}-m{m}", moduli.canonical_modulus(p, m, 4))


@pytest.mark.parametrize("residue", [(1, 1, 1), (0, 0, 1), (1, 0, 2), (4, 0, 1), (-2, 0, 1), (1,), (2, 0)])
def test_teichmuller_modulus_needs_a_monic_irreducible(residue):
    with pytest.raises(InputError):
        moduli.teichmuller_modulus(3, residue, 2)


def test_an_invalid_residue_raises_on_every_call():
    """Neither a reducible residue nor a non-int coefficient is ever served a lift."""
    for _ in range(2):
        with pytest.raises(InputError):
            moduli.teichmuller_modulus(3, (1, 1, 1), 2)  # (t - 1)^2 mod 3
        with pytest.raises(InputError):
            moduli.teichmuller_modulus(3, (1.0, 0, 1), 2)


def test_list_and_tuple_residues_give_the_same_lift():
    """The key is the residue as a tuple of ints: a list residue is the same key."""
    moduli._lift.cache_clear()
    first = moduli.teichmuller_modulus(3, [1, 0, 1], 5)
    again = moduli.teichmuller_modulus(3, (1, 0, 1), 5)
    assert type(first) is tuple and again == first
    assert moduli._lift.cache_info()[:2] == (1, 1)  # (hits, misses)
