"""SpectralDatum.verify against a schoolbook of its four steps on plain integers.

The schoolbook reads only the datum's raw values and each ring's (p, K,
modulus), and does its own arithmetic in Z/p^K[X]/(f): products by nested
loops, sigma as X -> X^p, Tr as the sum of the d images, and the orbit
polynomials, their product and its squarefree test mod p by its own
polynomial loops.  It takes every matrix product verify packs away:
U P_0, P_0 U and lambda_0 P_0 entry by entry.  Its verdict must be
verify's on seeded library data, on data with one coordinate entry moved by
p^e for every e < K, and on data moved by y E_ij with Tr(y) = Tr(lambda_0 y)
= 0, which only the eigen-equations (step 4) can catch.
"""

from __future__ import annotations

import random

import pytest

from padicu import unitary
from padicu.errors import InputError, Unsupported
from padicu.matrices import PadicMatrix
from padicu.sampling import random_unitary
from padicu.scalars import Zp

SHAPES = [(5, 20, 6), (7, 30, 8), (3, 4, 3)]


# -- arithmetic in Z/q[X]/(f), q = p^K or p ----------------------------------------------


class _Field:
    """Z/q[X]/(f) on coordinate tuples; a Z_p orbit is degree 1 with sigma = 1."""

    def __init__(self, ring, q):
        self.q = q
        self.m = getattr(ring, "m", 1)
        self.f = [c % q for c in ring.modulus] if self.m > 1 else None
        self.xp = None
        if self.m > 1:
            x = tuple(int(i == 1) for i in range(self.m))
            power = self.one
            for _ in range(ring.p):
                power = self.mul(power, x)
            self.xp = power  # sigma(X) = X^p

    @property
    def one(self):
        return (1,) + (0,) * (self.m - 1)

    def coords(self, raw):
        return (raw % self.q,) if self.m == 1 else tuple(c % self.q for c in raw)

    def add(self, a, b):
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def mul(self, a, b):
        m, q = self.m, self.q
        product = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                product[i + j] += x * y
        for i in range(2 * m - 2, m - 1, -1):
            for j in range(m):
                product[i - m + j] -= product[i] * self.f[j]
        return tuple(c % q for c in product[:m])

    def scale(self, c, a):
        return tuple(c * x % self.q for x in a)

    def sigma(self, a):
        if self.m == 1:
            return a
        acc, power = (0,) * self.m, self.one
        for c in a:
            acc = self.add(acc, self.scale(c, power))
            power = self.mul(power, self.xp)
        return acc

    def trace(self, a) -> int:
        """sum_t sigma^t(a): a Galois-fixed value, returned as its coordinate 0."""
        total, image = a, a
        for _ in range(1, self.m):
            image = self.sigma(image)
            total = self.add(total, image)
        assert not any(total[1:])
        return total[0]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_rem(a, b, p):
    a, inv = list(a), pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
        a = _poly_trim(a)
    return a


def _is_squarefree(f, p) -> bool:
    a, b = f, _poly_trim([(i * c) % p for i, c in enumerate(f)][1:])
    while b:
        a, b = b, _poly_rem(a, b, p)
    return len(a) == 1


def _orbit_polynomial_mod_p(orbit, p):
    """prod_t (x - sigma^t(lambda_0)) over F_p[X]/(f mod p): coefficients in F_p."""
    field = _Field(orbit.ring, p)
    lam = field.coords(orbit.eigenvalue)
    poly = [field.one]  # ascending, coefficients in the field
    for _ in range(field.m):
        shifted = [(0,) * field.m] + poly
        for k, c in enumerate(poly):
            shifted[k] = field.add(shifted[k], field.scale(p - 1, field.mul(lam, c)))
        poly = shifted
        lam = field.sigma(lam)
    assert not any(any(c[1:]) for c in poly)
    return [c[0] for c in poly]


def schoolbook_verify(datum, expected=None) -> bool:
    base, n = datum.base_ring, datum.n
    p, pk = base.p, base.pk
    # 1. the product of the orbit polynomials is squarefree mod p
    minimal = [1]
    for orbit in datum.orbits:
        minimal = _poly_mul(minimal, _orbit_polynomial_mod_p(orbit, p), p)
    if not _is_squarefree(minimal, p):
        return False
    # 2. sum Tr(P_0) = I, and 3. U = sum Tr(lambda_0 P_0) = expected
    sums = [[0] * n for _ in range(n)]
    U = [[0] * n for _ in range(n)]
    for orbit in datum.orbits:
        field = _Field(orbit.ring, pk)
        lam = field.coords(orbit.eigenvalue)
        for i, row in enumerate(orbit.projector.rows):
            for j, v in enumerate(row):
                v = field.coords(v)
                sums[i][j] = (sums[i][j] + field.trace(v)) % pk
                U[i][j] = (U[i][j] + field.trace(field.mul(lam, v))) % pk
    if sums != [[int(i == j) for j in range(n)] for i in range(n)]:
        return False
    if expected is not None and (expected.ring != base or [list(r) for r in expected.rows] != U):
        return False
    # 4. U P_0 = lambda_0 P_0 = P_0 U, entry by entry
    for orbit in datum.orbits:
        field = _Field(orbit.ring, pk)
        lam = field.coords(orbit.eigenvalue)
        P = [[field.coords(v) for v in row] for row in orbit.projector.rows]
        for i in range(n):
            for j in range(n):
                left = right = (0,) * field.m
                for k in range(n):
                    left = field.add(left, field.scale(U[i][k], P[k][j]))
                    right = field.add(right, field.scale(U[k][j], P[i][k]))
                if not left == field.mul(lam, P[i][j]) == right:
                    return False
    return True


# -- data ----------------------------------------------------------------------------


def _data():
    """(U_s, datum) from `spectral_decompose` on seeded random unitaries, two per shape."""
    out = []
    for p, K, n in SHAPES:
        rng = random.Random(f"schoolbook {p},{K},{n}")
        found = 0
        while found < 2:
            u = random_unitary(Zp(p, K), n, rng)
            try:
                datum = unitary.spectral_decompose(u)
            except (Unsupported, InputError):  # a residue degree without a shipped modulus
                continue
            out.append((unitary.jordan_decompose(u)[0], datum))
            found += 1
    return out


DATA = _data()


def _with_projector(datum, index, rows):
    orbit = datum.orbits[index]
    orbits = list(datum.orbits)
    orbits[index] = orbit._replace(projector=PadicMatrix(orbit.ring, rows))
    return datum._replace(orbits=tuple(orbits))


def test_the_data_cover_extension_orbits_of_degree_three():
    assert max(o.degree for _, d in DATA for o in d.orbits) >= 3
    assert sum(len(d.orbits) > 1 for _, d in DATA) >= 4


@pytest.mark.parametrize("index", range(len(DATA)))
def test_verify_and_the_schoolbook_accept_library_data(index):
    u_s, datum = DATA[index]
    for expected in (None, u_s):
        assert schoolbook_verify(datum, expected) is True
        assert datum.verify(expected) is True


@pytest.mark.parametrize("index", range(len(DATA)))
def test_one_coordinate_moved_by_every_power_of_p(index):
    """A_k[i][j] + p^e, for e < K, at one seeded (orbit, k, i, j)."""
    u_s, datum = DATA[index]
    rng = random.Random(f"move {index}")
    o = rng.randrange(len(datum.orbits))
    orbit = datum.orbits[o]
    ring, n = orbit.ring, datum.n
    k, i, j = rng.randrange(orbit.degree), rng.randrange(n), rng.randrange(n)
    for e in range(ring.K):
        rows = [list(r) for r in orbit.projector.rows]
        if isinstance(ring, Zp):
            rows[i][j] += ring.p**e
        else:
            rows[i][j] = tuple(c + ring.p**e * (t == k) for t, c in enumerate(rows[i][j]))
        bad = _with_projector(datum, o, rows)
        for expected in (None, u_s):
            want = schoolbook_verify(bad, expected)
            assert bad.verify(expected) is want
        assert want is False  # with U_s given, P_0 is unique


def _trace_free(field, lam):
    """y != 0 with Tr(y) = Tr(lambda y) = 0, from the first three coordinates:
    the cross product of (Tr(X^k)) and (Tr(lambda X^k)), k < 3."""
    basis = [tuple(int(i == k) for i in range(field.m)) for k in range(3)]
    t = [field.trace(x) for x in basis]
    u = [field.trace(field.mul(lam, x)) for x in basis]
    y = [t[1] * u[2] - t[2] * u[1], t[2] * u[0] - t[0] * u[2], t[0] * u[1] - t[1] * u[0]]
    return tuple(c % field.q for c in y) + (0,) * (field.m - 3)


WIDE = [
    (index, o)
    for index, (_, datum) in enumerate(DATA)
    for o, orbit in enumerate(datum.orbits)
    if orbit.degree >= 3
]


@pytest.mark.parametrize("index, o", WIDE)
def test_a_trace_free_move_is_caught_by_the_eigen_equations_alone(index, o):
    """P_0 + y E_ij keeps sum Tr(P_0) and sum Tr(lambda_0 P_0), so steps 2 and
    3 pass; U_ii - lambda_0 is a unit, so U P_0 != lambda_0 P_0."""
    u_s, datum = DATA[index]
    orbit = datum.orbits[o]
    field = _Field(orbit.ring, orbit.ring.pk)
    y = _trace_free(field, field.coords(orbit.eigenvalue))
    assert any(y)
    assert field.trace(y) == 0 == field.trace(field.mul(field.coords(orbit.eigenvalue), y))
    rng = random.Random(f"trace-free {index},{o}")
    for _ in range(3):
        i, j = rng.randrange(datum.n), rng.randrange(datum.n)
        rows = [list(r) for r in orbit.projector.rows]
        rows[i][j] = field.add(rows[i][j], y)
        bad = _with_projector(datum, o, rows)
        assert bad.orbit_projector(o) == datum.orbit_projector(o)
        assert bad.reconstruct() == datum.reconstruct()
        for expected in (None, u_s):
            assert schoolbook_verify(bad, expected) is False
            assert bad.verify(expected) is False


# -- the expected matrix's ring and size, and n = 0 ------------------------------------------


def test_expected_over_another_ring_or_size_reads_false():
    """A permutation matrix keeps its rows over Zp(p, K - 1), so only the
    ring tells the two expected matrices apart."""
    ring = Zp(5, 4)
    u = PadicMatrix(ring, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    datum = unitary.spectral_decompose(u)
    assert datum.verify(u) and schoolbook_verify(datum, u)
    lower = PadicMatrix(Zp(5, 3), u.rows)
    assert lower.rows == u.rows
    assert datum.verify(lower) is False and schoolbook_verify(datum, lower) is False
    wider = PadicMatrix.identity(ring, 4)
    assert datum.verify(wider) is False and schoolbook_verify(datum, wider) is False
    assert datum.verify(PadicMatrix.identity(ring, 0)) is False


def test_an_empty_datum_verifies():
    ring = Zp(7, 3)
    empty = PadicMatrix(ring, [])
    datum = unitary.spectral_decompose(empty)
    assert datum.n == 0 and datum.orbits == ()
    assert datum.verify() and datum.verify(empty) and schoolbook_verify(datum)
    hand_built = unitary.SpectralDatum(base_ring=ring, n=0, orbits=(), unipotent=empty)
    assert hand_built.verify()
