"""SpectralDatum.verify against a brute-force audit that shares no code with it.

The reference builds each orbit's members lambda_t = sigma^t(lambda_0) and
P_t = sigma^t(P_0) itself, with sigma taken here as a -> sum a_k (X^p)^k, and
takes every product the eigen-equation audit avoids: all d^2 in-orbit
products P_s P_t over the orbit's ring, Q_i Q_j for i != j over Z_p,
sum Q_i = I and sum lambda P = U, each by plain loops over the rings' raw
operations.  It also checks what verify's proof rests on: sigma^d fixes
lambda_0 and P_0, and the eigenvalue residues are pairwise distinct.  On
library data and on seeded corruptions of it, the two audits must agree.
"""

from __future__ import annotations

import random

import pytest

from padicu import unitary
from padicu.errors import Unsupported
from padicu.matrices import PadicMatrix
from padicu.sampling import random_teichmuller, random_unitary
from padicu.scalars import Zp, unram

SHAPES = [(3, 2, 3), (3, 4, 4), (5, 3, 4), (5, 5, 5), (7, 2, 4), (7, 4, 3)]


# -- the brute-force reference -------------------------------------------------------


def _product(ring, A, B):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero
            for k in range(n):
                acc = ring.radd(acc, ring.rmul(A[i][k], B[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _sum(ring, A, B):
    return [[ring.radd(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _zeros(ring, n):
    return [[ring.zero] * n for _ in range(n)]


def _sigma(ring, a):
    """Frobenius as the substitution X -> X^p."""
    if isinstance(ring, Zp):
        return a
    xp = ring.rpow(tuple(int(i == 1) for i in range(ring.m)), ring.p)
    acc, power = ring.zero, ring.one
    for c in a:
        acc = ring.radd(acc, ring.rmul(ring.rfrom_int(c), power))
        power = ring.rmul(power, xp)
    return acc


def _to_base(ring, rows):
    """Integer rows of a Galois-fixed matrix, or None for a proper extension entry."""
    if isinstance(ring, Zp):
        return [list(r) for r in rows]
    if any(any(v[1:]) for row in rows for v in row):
        return None
    return [[v[0] for v in row] for row in rows]


def _members(orbit):
    """[(lambda_t, P_t rows)] for t <= d: lambda_0, P_0 and d images under _sigma.

    The last pair is sigma^d(lambda_0), sigma^d(P_0), for the reference's
    check that sigma has order d there."""
    ring = orbit.ring
    lam, P = orbit.eigenvalue, [list(r) for r in orbit.projector.rows]
    out = [(lam, P)]
    for _ in range(ring.degree):
        lam, P = _sigma(ring, lam), [[_sigma(ring, v) for v in row] for row in P]
        out.append((lam, P))
    return out


def _orbit_poly(ring, eigenvalues):
    """prod (t - lambda_t) by plain multiplication, as ints, or None if not Galois-fixed."""
    poly = [ring.one]
    for lam in eigenvalues:
        shifted = [ring.zero] + poly
        for k, c in enumerate(poly):
            shifted[k] = ring.rsub(shifted[k], ring.rmul(lam, c))
        poly = shifted
    fixed = _to_base(ring, [poly])
    return None if fixed is None else fixed[0]


def _horner(ring, coeffs, x):
    acc = ring.zero
    for c in reversed(coeffs):
        acc = ring.radd(ring.rmul(acc, x), ring.rfrom_int(c))
    return acc


def reference_verify(datum, expected=None) -> bool:
    base, n = datum.base_ring, datum.n
    polys = []
    for orbit in datum.orbits:
        ring, members = orbit.ring, _members(orbit)
        if members[-1] != members[0]:
            return False
        lam, P = [x for x, _ in members[:-1]], [rows for _, rows in members[:-1]]
        d = len(lam)
        for s in range(d):
            for t in range(s + 1, d):
                if not ring.runit(ring.rsub(lam[s], lam[t])):
                    return False
        for s in range(d):
            for t in range(d):
                want = P[s] if s == t else _zeros(ring, n)
                if _product(ring, P[s], P[t]) != want:
                    return False
        polys.append(_orbit_poly(ring, lam))
    for i, orbit in enumerate(datum.orbits):
        for j, f in enumerate(polys):
            if i == j:
                continue
            if any(not orbit.ring.runit(_horner(orbit.ring, f, x)) for x, _ in _members(orbit)[:-1]):
                return False
    sums, rebuilt = [], _zeros(base, n)
    for orbit in datum.orbits:
        ring = orbit.ring
        Q, L = _zeros(ring, n), _zeros(ring, n)
        for lam, P in _members(orbit)[:-1]:
            Q = _sum(ring, Q, P)
            L = _sum(ring, L, [[ring.rmul(lam, v) for v in row] for row in P])
        Q, L = _to_base(ring, Q), _to_base(ring, L)
        if Q is None or L is None:
            return False
        sums.append(Q)
        rebuilt = _sum(base, rebuilt, L)
    for i, Q_i in enumerate(sums):
        for j, Q_j in enumerate(sums):
            if i != j and _product(base, Q_i, Q_j) != _zeros(base, n):
                return False
    total = _zeros(base, n)
    for Q in sums:
        total = _sum(base, total, Q)
    if total != [list(r) for r in PadicMatrix.identity(base, n).rows]:
        return False
    return expected is None or rebuilt == [list(r) for r in expected.rows]


# -- library data and corruptions --------------------------------------------------------


def _library_data():
    """(U, datum) pairs: random Teichmuller matrices and Jordan parts of random unitaries."""
    out = []
    for p, K, n in SHAPES:
        ring, rng = Zp(p, K), random.Random(100 * p + 10 * K + n)
        u = random_teichmuller(ring, n, rng)
        out.append((u, unitary.teichmuller_spectral(u)))
        for _ in range(8):
            w = random_unitary(ring, n, rng)
            try:
                datum = unitary.spectral_decompose(w)
            except Unsupported:  # a residue degree without a shipped modulus
                continue
            out.append((unitary.jordan_decompose(w)[0], datum))
            break
    return out


LIBRARY = _library_data()


def _replace_orbit(datum, index, **changes):
    orbits = list(datum.orbits)
    orbits[index] = orbits[index]._replace(**changes)
    return datum._replace(orbits=tuple(orbits))


def _perturbed(datum, rng):
    """P_0 + p^j c at one entry of one orbit."""
    i = rng.randrange(len(datum.orbits))
    orbit = datum.orbits[i]
    ring, n = orbit.ring, datum.n
    j = rng.randrange(ring.K)
    c = ring.rfrom_int(rng.randrange(1, ring.p)) if isinstance(ring, Zp) else tuple(
        rng.randrange(ring.p) for _ in range(ring.m)
    )
    c = ring.rmul(ring.rfrom_int(ring.p**j), c)
    rows = [list(r) for r in orbit.projector.rows]
    a, b = rng.randrange(n), rng.randrange(n)
    rows[a][b] = ring.radd(rows[a][b], c)
    return _replace_orbit(datum, i, projector=PadicMatrix(ring, rows))


def _swapped(datum, rng):
    """lambda_0 of one orbit moved to sigma^s(lambda_0) with P_0 kept, or the
    eigenvalues of two degree-1 orbits exchanged."""
    wide = [i for i, o in enumerate(datum.orbits) if o.degree > 1]
    if wide:
        i = rng.choice(wide)
        orbit = datum.orbits[i]
        lam = orbit.eigenvalue
        for _ in range(rng.randrange(1, orbit.degree)):
            lam = _sigma(orbit.ring, lam)
        return _replace_orbit(datum, i, eigenvalue=lam)
    i, j = rng.sample(range(len(datum.orbits)), 2)
    lam_i, lam_j = datum.orbits[i].eigenvalue, datum.orbits[j].eigenvalue
    return _replace_orbit(_replace_orbit(datum, i, eigenvalue=lam_j), j, eigenvalue=lam_i)


def _cross_shifted(datum, rng):
    """P_0^(i) + p^j Q_k for another orbit k."""
    i, k = rng.sample(range(len(datum.orbits)), 2)
    orbit = datum.orbits[i]
    ring = orbit.ring
    j = rng.randrange(ring.K)
    Q = datum.orbit_projector(k)
    shift = PadicMatrix(ring, [[ring.rfrom_int(ring.p**j * v) for v in row] for row in Q.rows])
    return _replace_orbit(datum, i, projector=orbit.projector + shift)


@pytest.mark.parametrize("index", range(len(LIBRARY)))
def test_verify_agrees_with_the_reference_on_library_data(index):
    u, datum = LIBRARY[index]
    assert reference_verify(datum, u) and reference_verify(datum)
    assert datum.verify(expected=u) and datum.verify()


CORRUPTIONS = [
    (index, corrupt)
    for index, (_, datum) in enumerate(LIBRARY)
    for corrupt in (_perturbed, _swapped, _cross_shifted)
    if corrupt is _perturbed
    or len(datum.orbits) > 1
    or (corrupt is _swapped and datum.orbits[0].degree > 1)
]


@pytest.mark.parametrize(
    "index, corrupt", CORRUPTIONS, ids=lambda v: getattr(v, "__name__", str(v))
)
def test_verify_agrees_with_the_reference_on_corruptions(index, corrupt):
    u, datum = LIBRARY[index]
    rng = random.Random(7919 * index + len(corrupt.__name__))
    rejected = 0
    for _ in range(3):
        bad = corrupt(datum, rng)
        for expected in (u, None):
            want = reference_verify(bad, expected)
            assert bad.verify(expected) is want
            rejected += not want
    assert rejected  # the corruptions are not all harmless


@pytest.mark.parametrize("index", range(len(LIBRARY)))
def test_derived_members_are_the_reference_images(index):
    """eigenvalues, projectors and factor are the sigma images of lambda_0 and
    P_0 taken here, and prod (t - lambda_t)."""
    _, datum = LIBRARY[index]
    assert unitary.SpectralOrbit._fields == ("ring", "eigenvalue", "projector", "multiplicity")
    for orbit in datum.orbits:
        members = _members(orbit)[:-1]
        assert orbit.eigenvalues == tuple(lam for lam, _ in members)
        assert [[list(r) for r in P.rows] for P in orbit.projectors] == [P for _, P in members]
        assert list(orbit.factor) == _orbit_poly(orbit.ring, [lam for lam, _ in members])


def test_the_grid_covers_extension_orbits_and_several_orbits():
    degrees = [o.degree for _, datum in LIBRARY for o in datum.orbits]
    assert max(degrees) >= 3 and sum(len(d.orbits) > 1 for _, d in LIBRARY) >= 4


# -- coinciding eigenvalue residues ----------------------------------------------------


def _orthogonal_idempotents(datum):
    """The reference's in-orbit products alone: P_s P_t = delta_st P_s over each orbit's ring."""
    n = datum.n
    for orbit in datum.orbits:
        ring, P = orbit.ring, [rows for _, rows in _members(orbit)[:-1]]
        for s in range(len(P)):
            for t in range(len(P)):
                want = P[s] if s == t else _zeros(ring, n)
                if _product(ring, P[s], P[t]) != want:
                    return False
    return True


def test_two_orbits_on_one_residue_factor_read_false():
    """U = lambda I with the projectors E_11, E_22 as two degree-1 orbits of one
    lambda: orthogonal idempotents summing to I that rebuild U, but the
    eigenvalues coincide."""
    ring = Zp(5, 3)
    lam = ring.rteichmuller(2)
    identity = PadicMatrix.identity(ring, 2)
    u = identity.scale(lam)
    units = [PadicMatrix(ring, [[int(i == j == k) for j in range(2)] for i in range(2)]) for k in (0, 1)]
    orbits = tuple(
        unitary.SpectralOrbit(ring=ring, eigenvalue=lam, projector=E, multiplicity=1)
        for E in units
    )
    datum = unitary.SpectralDatum(base_ring=ring, n=2, orbits=orbits, unipotent=identity)
    assert _orthogonal_idempotents(datum)
    assert datum.orbit_projector(0) + datum.orbit_projector(1) == identity
    assert datum.reconstruct() == u
    assert datum.verify(expected=u) is False and datum.verify() is False


def test_a_repeated_eigenvalue_in_one_orbit_reads_false():
    """An orbit of degree 2 carrying a Z_p eigenvalue twice.

    P_0 = (C - sigma(w)) / (w - sigma(w)) for the companion matrix C of the
    modulus, whose roots are w = X and sigma(w).  P_0 and P_1 = sigma(P_0) are
    orthogonal idempotents summing to I."""
    base, ring = Zp(5, 3), unram(5, 3, 2)
    lam = base.rteichmuller(3)
    f = ring.modulus
    C = PadicMatrix(ring, [[ring.zero, ring.rfrom_int(-f[0])], [ring.one, ring.rfrom_int(-f[1])]])
    w = ring.generator
    w_conj = ring.rfrob(w)
    inv_gap = ring.rinv(ring.rsub(w, w_conj))
    P0 = (C - PadicMatrix.identity(ring, 2).scale(w_conj)).scale(inv_gap)
    orbit = unitary.SpectralOrbit(ring=ring, eigenvalue=ring.rfrom_int(lam), projector=P0, multiplicity=1)
    assert orbit.factor == (base.rmul(lam, lam), base.rneg(2 * lam), 1)
    identity = PadicMatrix.identity(base, 2)
    u = identity.scale(lam)
    datum = unitary.SpectralDatum(base_ring=base, n=2, orbits=(orbit,), unipotent=identity)
    assert _orthogonal_idempotents(datum)
    assert datum.orbit_projector(0) == identity
    assert datum.reconstruct() == u
    assert datum.verify(expected=u) is False and datum.verify() is False


# -- the trace form on verified data ------------------------------------------------------


@pytest.mark.parametrize("index", range(len(LIBRARY)))
def test_trace_form_matches_plain_sums(index):
    u, datum = LIBRARY[index]
    base = datum.base_ring
    rebuilt = _zeros(base, datum.n)
    for i, orbit in enumerate(datum.orbits):
        ring = orbit.ring
        Q, L = _zeros(ring, datum.n), _zeros(ring, datum.n)
        for lam, P in _members(orbit)[:-1]:
            Q = _sum(ring, Q, P)
            L = _sum(ring, L, [[ring.rmul(lam, v) for v in row] for row in P])
        assert [list(r) for r in datum.orbit_projector(i).rows] == _to_base(ring, Q)
        rebuilt = _sum(base, rebuilt, _to_base(ring, L))
    assert [list(r) for r in datum.reconstruct().rows] == rebuilt
    assert datum.reconstruct() == u
