"""Frobenius-orbit spectra: the orbit rings, seed independence and the projectors.

Each orbit of degree d >= 2 lives in Z_p[X]/(phi), phi the Teichmuller lift
of its residue factor, with eigenvalues X, X^p, ..., X^(p^(d-1)).  The
references here share no code with what they check: the roots are found by
evaluating at every element of F_{p^d}, and checked in Z/p^K[X]/(phi) by a
Horner evaluation and a product mod phi of their own; the projector sums by
schoolbook products mod p^K, the characteristic polynomial by
Faddeev-LeVerrier over the integers, the residue factorization by sympy, and
the projectors by the Lagrange chain (the cross factor of the other orbits
times U - mu for the rest of the orbit, over the unit denominator).
"""

import random
from itertools import product

import pytest

from padicu import fppoly, unitary
from padicu.matrices import PadicMatrix
from padicu.sampling import random_teichmuller, random_unitary
from padicu.scalars import UnramRing, Zp


def _monic_irreducibles(p, d):
    candidates = (list(c) + [1] for c in product(range(p), repeat=d))
    return [f for f in candidates if fppoly.is_irreducible(f, p)]


def _times_mod(a, b, phi, pk):
    """a b in Z/p^K[X]/(phi) for monic phi, a and b coefficient sequences of length deg phi."""
    d = len(phi) - 1
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):  # X^k = X^(k-d) (X^d - phi(X))
        top, prod[k] = prod[k], 0
        for i in range(d):
            prod[k - d + i] -= top * phi[i]
    return tuple(v % pk for v in prod[:d])


def _value_mod(coeffs, x, phi, pk):
    """f(x) in Z/p^K[X]/(phi) by Horner's rule, for integer coefficients of f."""
    acc = (0,) * (len(phi) - 1)
    for c in reversed(coeffs):
        acc = _times_mod(acc, x, phi, pk)
        acc = ((acc[0] + c) % pk,) + acc[1:]
    return acc


def _power_mod(x, e, phi, pk):
    """x^e in Z/p^K[X]/(phi), right-to-left square and multiply."""
    power = (1,) + (0,) * (len(phi) - 2)
    while e:
        if e & 1:
            power = _times_mod(power, x, phi, pk)
        x, e = _times_mod(x, x, phi, pk), e >> 1
    return power


# (p, d, how many of the monic irreducibles: None for all)
ROOT_CASES = [(3, 2, None), (3, 3, None), (3, 4, None), (5, 2, None), (5, 3, None),
              (5, 4, None), (7, 2, None), (7, 3, None), (7, 4, 12)]
# monic irreducibles of degree d over F_p: (1/d) sum over e | d of mu(d/e) p^e
IRREDUCIBLE_COUNTS = {(3, 2): 3, (3, 3): 8, (3, 4): 18, (5, 2): 10, (5, 3): 40, (5, 4): 150,
                      (7, 2): 21, (7, 3): 112, (7, 4): 588}


@pytest.mark.parametrize("p,d,sample", ROOT_CASES, ids=[f"p{p}-d{d}" for p, d, _ in ROOT_CASES])
def test_orbit_roots_match_brute_force(p, d, sample):
    """The spectral datum of the companion matrix of each monic irreducible pi
    at K = 1: one orbit, in the ring F_p[X]/(pi), whose eigenvalues are every
    root of pi there, found by evaluating pi at each of its p^d elements."""
    irreducibles = _monic_irreducibles(p, d)
    assert len(irreducibles) == IRREDUCIBLE_COUNTS[(p, d)]
    if sample is not None:
        irreducibles = random.Random(p * 10 + d).sample(irreducibles, sample)
    for irr in irreducibles:
        (orbit,) = unitary.teichmuller_spectral(PadicMatrix.companion(Zp(p, 1), irr[:-1])).orbits
        assert orbit.ring.modulus == tuple(irr) and orbit.multiplicity == 1
        roots = [x for x in product(range(p), repeat=d) if not any(_value_mod(irr, x, irr, p))]
        assert sorted(orbit.eigenvalues) == roots


def test_orbit_roots_of_every_irreducible_quartic_over_f7():
    """All 588, each lifted to phi over Z/7^3: phi is monic and reduces to pi,
    X^(p^t) is a root of phi for t < 4, the four roots are distinct mod p,
    and X^(p^4) = X, all by a product mod phi of this file's own."""
    p, d, K = 7, 4, 3
    pk = p**K
    irreducibles = _monic_irreducibles(p, d)
    assert len(irreducibles) == IRREDUCIBLE_COUNTS[(p, d)]
    x = (0, 1, 0, 0)
    for irr in irreducibles:
        ring = UnramRing(p, K, d, tuple(irr))
        phi = ring.modulus
        assert phi[-1] == 1 and [c % p for c in phi] == irr
        roots = [x]
        for _ in range(d):
            roots.append(_power_mod(roots[-1], p, phi, pk))
        assert roots[d] == x
        assert all(not any(_value_mod(phi, r, phi, pk)) for r in roots[:d])
        assert len({tuple(c % p for c in r) for r in roots[:d]}) == d
        assert [ring.rfrob(r) for r in roots[:d]] == roots[1:]


@pytest.mark.parametrize("p,K,n,seed,degrees", [(7, 30, 8, 0, [1, 3, 4]), (5, 20, 6, 4, [3]),
                                                (5, 20, 6, 8, [1, 4])],
                         ids=["7-30-8-seed0", "5-20-6-seed4", "5-20-6-seed8"])
def test_spectral_decompose_takes_no_ring_polynomial_power(p, K, n, seed, degrees, monkeypatch):
    """An orbit's eigenvalues are X and its Frobenius images in the ring over
    the lift of its residue factor, so no root is lifted: the only power taken
    in an orbit ring is X^p, for the Frobenius (`UnramRing.rfrob`)."""
    exponents = []
    rpow = UnramRing.rpow

    def record(self, a, e):
        exponents.append(e)
        return rpow(self, a, e)

    monkeypatch.setattr(UnramRing, "rpow", record)
    u = random_unitary(Zp(p, K), n, random.Random(seed))
    datum = unitary.spectral_decompose(u)
    assert sorted({o.degree for o in datum.orbits}) == degrees
    assert set(exponents) == {p}
    assert all(o.eigenvalue == o.ring.generator for o in datum.orbits if o.degree > 1)
    assert datum.verify(expected=unitary.jordan_decompose(u)[0])


def _datum_key(datum):
    return [(o.ring, o.eigenvalues, o.projectors, o.multiplicity, o.factor) for o in datum.orbits]


@pytest.mark.parametrize("p,K,n", [(3, 3, 4), (5, 4, 4), (7, 3, 4), (5, 20, 6)])
def test_spectral_datum_does_not_depend_on_the_seed(p, K, n, monkeypatch):
    """The factoring runs off `fppoly._SEED`; the reference is taken at its
    own value, restored last in each round."""
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
    """The same through the Jordan split, on U_s of unitaries of every type,
    also at p = 11 and 13, where no orbit ring of degree >= 2 is in the table."""
    for p, K, n in ((5, 3, 4), (11, 3, 4), (13, 3, 3)):
        ring = Zp(p, K)
        rng = random.Random(77)
        for _ in range(4):
            u = random_unitary(ring, n, rng)
            u_s, _ = unitary.jordan_decompose(u)
            orbits = unitary.spectral_decompose(u).orbits
            for index, orbit in enumerate(orbits):
                for t, proj in enumerate(orbit.projectors):
                    assert proj == _lagrange_projector(u_s, orbits, index, t)


# -- test-local oracles on the orbit rings -------------------------------------------


def _product(A, B):
    """A B over the integers, schoolbook."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _matmul(A, B, pk):
    return [[v % pk for v in row] for row in _product(A, B)]


def _char_poly(A, pk):
    """det(tI - A) ascending, by Faddeev-LeVerrier over the integers, then mod pk."""
    n = len(A)
    coeffs = [0] * n + [1]
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = _product(A, M)
        for i in range(n):
            M[i][i] += coeffs[n - k + 1]
        trace = sum(row[i] for i, row in enumerate(_product(A, M)))
        assert trace % k == 0
        coeffs[n - k] = -trace // k
    return [c % pk for c in coeffs]


def _sympy_factors(f, p):
    """[(monic irreducible, multiplicity)] of f over GF(p), ascending coefficients in [0, p)."""
    sympy = pytest.importorskip("sympy")
    poly = sympy.Poly(f[::-1], sympy.symbols("t"), modulus=p)
    return sorted(([int(c) % p for c in g.all_coeffs()][::-1], k) for g, k in poly.factor_list()[1])


def _check_against_oracles(u_s):
    """The spectral datum of a Teichmuller-type u_s, checked with nothing of the library's
    arithmetic: projector sums, eigenvalues as roots of chi, Frobenius, the moduli."""
    p, K, n, pk = u_s.ring.p, u_s.ring.K, u_s.n, u_s.ring.pk
    datum = unitary.spectral_decompose(u_s)
    assert datum.verify(expected=u_s)
    U = [list(row) for row in u_s.rows]
    sums = [[list(row) for row in datum.orbit_projector(i).rows] for i in range(len(datum.orbits))]
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert [[sum(col) % pk for col in zip(*rows)] for rows in zip(*sums)] == identity
    for i, E in enumerate(sums):
        assert _matmul(E, E, pk) == E
        assert _matmul(E, U, pk) == _matmul(U, E, pk)
        for F in sums[i + 1:]:
            assert not any(map(any, _matmul(E, F, pk))) and not any(map(any, _matmul(F, E, pk)))
    chi = _char_poly(U, pk)
    residues = []
    for orbit in datum.orbits:
        d = orbit.degree
        if d == 1:
            lam = orbit.eigenvalue
            assert sum(c * pow(lam, k, pk) for k, c in enumerate(chi)) % pk == 0
            assert pow(lam, p, pk) == lam
            assert list(orbit.factor) == [-lam % pk, 1]
        else:
            phi = orbit.ring.modulus
            assert phi[-1] == 1 and orbit.factor == phi
            x = orbit.eigenvalue
            assert x == (0, 1) + (0,) * (d - 2)
            for t, lam in enumerate(orbit.eigenvalues):
                assert lam == _power_mod(x, p**t, phi, pk)  # sigma^t(X) = X^(p^t)
                assert not any(_value_mod(chi, lam, phi, pk))
            assert _power_mod(x, p**d, phi, pk) == x
        residues.append(([c % p for c in orbit.factor], orbit.multiplicity))
    assert sorted(residues) == _sympy_factors([c % p for c in chi], p)
    return datum


# (p, K, n, draws): random.Random(11) per row, U_s = classify(random_unitary).witness
ORACLE_ROWS = [(3, 3, 5, 30), (5, 3, 6, 30), (7, 3, 8, 30), (11, 3, 2, 30), (11, 3, 4, 30),
               (13, 3, 3, 30), (11, 3, 6, 30), (13, 3, 6, 30), (5, 20, 6, 8), (7, 30, 8, 8)]


@pytest.mark.parametrize("p,K,n,draws", ORACLE_ROWS, ids=[f"{p}-{K}-{n}" for p, K, n, _ in ORACLE_ROWS])
def test_orbit_rings_pass_test_local_oracles(p, K, n, draws):
    rng = random.Random(11)
    degrees = set()
    for _ in range(draws):
        u_s = unitary.classify(random_unitary(Zp(p, K), n, rng)).witness
        degrees |= {o.degree for o in _check_against_oracles(u_s).orbits}
    assert max(degrees) >= 2


@pytest.mark.parametrize("make", [
    lambda: random_unitary(Zp(5, 20), 6, random.Random(3)),  # residue factors of degree 1 and 5
    lambda: PadicMatrix(Zp(11, 4), [[0, -1], [1, 0]]),  # t^2 + 1, irreducible mod 11
], ids=["5-20-6-degree-5", "11-4-2-quadratic"])
def test_spectral_decomposes_where_no_modulus_was_shipped(make):
    """Residue degrees and primes outside the cw1 table: an orbit ring over
    the factor's own lift, of degree 5 at p = 5 and of degree 2 at p = 11."""
    u = make()
    u_s, _ = unitary.jordan_decompose(u)
    datum = _check_against_oracles(u_s)
    assert max(o.degree for o in datum.orbits) == (5 if u.ring.p == 5 else 2)
    assert all(o.ring.modulus_id.startswith("tl1-") for o in datum.orbits if o.degree > 1)
    assert unitary.spectral_decompose(u).orbits == datum.orbits
