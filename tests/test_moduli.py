"""Checks on the shipped modulus table and its canonical lifts."""

import pytest

from padicu import fppoly, moduli
from padicu.errors import Unsupported


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


def _fixed_point_generator(p, m, K):
    """Oracle: iterate y -> y^(p^m) from the class of X until it stops moving."""
    pk = p**K
    naive = [c % pk for c in moduli.residue_modulus(p, m)]
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
