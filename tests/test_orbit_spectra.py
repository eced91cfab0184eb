"""Frobenius-orbit spectra: the root finder, seed independence and the projectors.

The references here share no code with what they check: the roots are found
by evaluating at every element of F_{p^d} (or, for all 588 quartics over F_7,
checked by a Horner evaluation of their own), and the projectors by the Lagrange
chain (the cross factor of the other orbits times U - mu for the rest of the
orbit, over the unit denominator).
"""

import random
from itertools import product

import pytest

from padicu import fppoly, unitary
from padicu.matrices import PadicMatrix
from padicu.sampling import random_teichmuller, random_unitary
from padicu.scalars import Zp, unram


def _monic_irreducibles(p, d):
    candidates = (list(c) + [1] for c in product(range(p), repeat=d))
    return [f for f in candidates if fppoly.is_irreducible(f, p)]


def _brute_force_roots(irr, field, table):
    """Every x of F_{p^d} with irr(x) = 0, from the powers x^0, ..., x^d of each x."""
    p, d = field.p, field.m
    return [
        x
        for x, powers in table
        if all(sum(c * power[k] for c, power in zip(irr, powers)) % p == 0 for k in range(d))
    ]


def _power_table(field):
    table = []
    for x in product(range(field.p), repeat=field.m):
        powers = [field.one]
        for _ in range(field.m):
            powers.append(field.rmul(powers[-1], x))
        table.append((x, powers))
    return table


# (p, d, how many of the monic irreducibles: None for all)
ROOT_CASES = [(3, 2, None), (3, 3, None), (3, 4, None), (5, 2, None), (5, 3, None),
              (5, 4, None), (7, 2, None), (7, 3, None), (7, 4, 12)]
# monic irreducibles of degree d over F_p: (1/d) sum over e | d of mu(d/e) p^e
IRREDUCIBLE_COUNTS = {(3, 2): 3, (3, 3): 8, (3, 4): 18, (5, 2): 10, (5, 3): 40, (5, 4): 150,
                      (7, 2): 21, (7, 3): 112, (7, 4): 588}


@pytest.mark.parametrize("p,d,sample", ROOT_CASES, ids=[f"p{p}-d{d}" for p, d, _ in ROOT_CASES])
def test_orbit_roots_match_brute_force(p, d, sample):
    field = unram(p, 1, d)
    table = _power_table(field)
    irreducibles = _monic_irreducibles(p, d)
    assert len(irreducibles) == IRREDUCIBLE_COUNTS[(p, d)]
    rng = random.Random(p * 10 + d)
    if sample is not None:
        irreducibles = rng.sample(irreducibles, sample)
    for irr in irreducibles:
        roots = unitary._orbit_roots(irr, field, random.Random(rng.randrange(1 << 30)))
        assert len(roots) == d == len(set(roots))
        assert {field.rfrob(r) for r in roots} == set(roots)
        assert sorted(roots) == _brute_force_roots(irr, field, table)


def _field_value(irr, x, field):
    """irr(x) in F_{p^d} by Horner's rule, multiplying tuples mod the field's modulus here."""
    p, d, w = field.p, field.m, field.modulus
    acc = [0] * d
    for c in reversed(irr):
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(x):
                prod[i + j] += a * b
        for k in range(2 * d - 2, d - 1, -1):  # X^k = X^(k-d) (X^d - w(X))
            top, prod[k] = prod[k], 0
            for i in range(d):
                prod[k - d + i] -= top * w[i]
        acc = [v % p for v in prod[:d]]
        acc[0] = (acc[0] + c) % p
    return tuple(acc)


def test_orbit_roots_of_every_irreducible_quartic_over_f7():
    """All 588, against the cheap properties; the sample above also meets the table."""
    p, d = 7, 4
    field = unram(p, 1, d)
    irreducibles = _monic_irreducibles(p, d)
    assert len(irreducibles) == IRREDUCIBLE_COUNTS[(p, d)]
    rng = random.Random(74)
    for irr in irreducibles:
        roots = unitary._orbit_roots(irr, field, random.Random(rng.randrange(1 << 30)))
        assert len(roots) == d == len(set(roots))
        assert {field.rfrob(r) for r in roots} == set(roots)
        assert all(_field_value(irr, r, field) == field.zero for r in roots)


@pytest.mark.parametrize("p,K,n,seed,degrees", [(7, 30, 8, 0, [1, 3, 4]), (5, 20, 6, 4, [3]),
                                                (5, 20, 6, 8, [1, 4])],
                         ids=["7-30-8-seed0", "5-20-6-seed4", "5-20-6-seed8"])
def test_spectral_decompose_takes_no_ring_polynomial_power(p, K, n, seed, degrees, monkeypatch):
    """The root finder's power is taken in the packed fold context
    (`fppoly._bivariate_fold_context`) on orbits of degree 3 and 4: the library
    has no polynomial power over a ring handle to fall back to."""
    contexts = []
    packed = fppoly._bivariate_fold_context

    def record(h, f, p):
        contexts.append(len(f) - 1)
        return packed(h, f, p)

    monkeypatch.setattr(fppoly, "_bivariate_fold_context", record)
    u = random_unitary(Zp(p, K), n, random.Random(seed))
    datum = unitary.spectral_decompose(u)
    assert sorted({o.degree for o in datum.orbits}) == degrees
    assert set(contexts) == {d for d in degrees if d > 1}
    assert datum.verify(expected=unitary.jordan_decompose(u)[0])


def _datum_key(datum):
    return [(o.ring, o.eigenvalues, o.projectors, o.multiplicity, o.factor) for o in datum.orbits]


@pytest.mark.parametrize("p,K,n", [(3, 3, 4), (5, 4, 4), (7, 3, 4), (5, 20, 6)])
def test_spectral_datum_does_not_depend_on_the_seed(p, K, n, monkeypatch):
    """The factoring and the root finder both run off `fppoly._SEED`; the
    reference is taken at its own value, restored last in each round."""
    default = fppoly._SEED
    ring = Zp(p, K)
    rng = random.Random(p * K * n)
    checked = 0
    for _ in range(4):
        u = random_teichmuller(ring, n, rng)
        reference = unitary.teichmuller_spectral(u)
        if max(o.degree for o in reference.orbits) < 2:
            continue
        checked += 1
        for seed in (0, 1, 2, 3, 99991, default):
            monkeypatch.setattr(fppoly, "_SEED", seed)
            datum = unitary.teichmuller_spectral(u)
            assert datum == reference
            assert _datum_key(datum) == _datum_key(reference)
    assert checked >= 2


def _value_at(ring, coeffs, x):
    """f(x) as the sum of c_k x^k, each power taken by the ring's own rpow."""
    total = ring.zero
    for k, c in enumerate(coeffs):
        total = ring.radd(total, ring.rmul(ring.rfrom_int(c), ring.rpow(x, k)))
    return total


def _lagrange_projector(U, orbits, index, t):
    """Projector onto the t-th eigenvalue of orbit `index`, by the Lagrange chain."""
    orbit = orbits[index]
    ring, lam_ring, lam = U.ring, orbit.ring, orbit.eigenvalues[t]
    cross = PadicMatrix.identity(ring, U.n)
    denominator = lam_ring.one
    for other_index, other in enumerate(orbits):
        if other_index != index:
            cross = cross @ U.evaluate(list(other.factor))
            denominator = lam_ring.rmul(denominator, _value_at(lam_ring, other.factor, lam))
    numerator = PadicMatrix(lam_ring, cross.rows)
    U_local = PadicMatrix(lam_ring, U.rows)
    identity = PadicMatrix.identity(lam_ring, U.n)
    for s, mu in enumerate(orbit.eigenvalues):
        if s != t:
            numerator = numerator @ (U_local - identity.scale(mu))
            denominator = lam_ring.rmul(denominator, lam_ring.rsub(lam, mu))
    return numerator.scale(lam_ring.rinv(denominator))


@pytest.mark.parametrize("p,K,n", [(3, 4, 4), (5, 6, 4), (7, 5, 4), (5, 20, 6)])
def test_projectors_match_the_lagrange_chain(p, K, n):
    ring = Zp(p, K)
    rng = random.Random(p * 1000 + K * 10 + n)
    for _ in range(3):
        u = random_teichmuller(ring, n, rng)
        orbits = unitary.teichmuller_spectral(u).orbits
        for index, orbit in enumerate(orbits):
            U_local = PadicMatrix(orbit.ring, u.rows)
            for t, (lam, proj) in enumerate(zip(orbit.eigenvalues, orbit.projectors)):
                assert proj == _lagrange_projector(u, orbits, index, t)
                assert U_local @ proj == proj.scale(lam)


def test_spectral_decompose_of_random_unitaries_matches_the_lagrange_chain():
    """The same through the Jordan split, on U_s of unitaries of every type."""
    ring = Zp(5, 3)
    rng = random.Random(77)
    for _ in range(4):
        u = random_unitary(ring, 4, rng)
        u_s, _ = unitary.jordan_decompose(u)
        orbits = unitary.spectral_decompose(u).orbits
        for index, orbit in enumerate(orbits):
            for t, proj in enumerate(orbit.projectors):
                assert proj == _lagrange_projector(u_s, orbits, index, t)
