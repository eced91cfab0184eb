"""Packed Z_p and extension-ring kernels against schoolbook references.

Every reference here is written out in the test and shares no code with the
library: plain triple loops mod p^K, Faddeev-LeVerrier over the integers, and
square-and-multiply on `rmul`.  The inputs put entries and coefficients at
p^K - 1, where a packed slot holds its largest sum, next to random entries
so that a slot read in the wrong order shows.
"""

import random

import pytest

from padicu.arith import teichmuller_exponent
from padicu.errors import NotAUnit
from padicu.matrices import PadicMatrix
from padicu.scalars import Zp, unram
from padicu.unitary import SpectralOrbit, _linear_combination, _stack

LEVELS = [(3, 1), (7, 128), (1000003, 8)]
SIZES = [1, 2, 8, 32]


def _plain_product(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _matmul(A, B, pk):
    return [[v % pk for v in row] for row in _plain_product(A, B)]


def _horner(coeffs, A, pk):
    n = len(A)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):
        acc = _matmul(acc, A, pk)
        for i in range(n):
            acc[i][i] = (acc[i][i] + c) % pk
    return acc


def _char_poly(A, pk):
    """det(tI - A) ascending, by Faddeev-LeVerrier over the integers, then mod pk."""
    n = len(A)
    coeffs = [0] * n + [1]
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = _plain_product(A, M)
        for i in range(n):
            M[i][i] += coeffs[n - k + 1]
        AM = _plain_product(A, M)
        trace = sum(AM[i][i] for i in range(n))
        assert trace % k == 0
        coeffs[n - k] = -trace // k
    return [c % pk for c in coeffs]


def _pair(p, K, n):
    """All-(p^K - 1) and a seeded matrix whose entries are p^K - 1 or random."""
    pk = p**K
    rng = random.Random(f"packed-{p}-{K}-{n}")
    top = [[pk - 1] * n for _ in range(n)]
    mixed = [[rng.choice((pk - 1, rng.randrange(pk))) for _ in range(n)] for _ in range(n)]
    return top, mixed


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p,K", LEVELS)
def test_zp_product_at_the_slot_bound(p, K, n):
    ring, pk = Zp(p, K), p**K
    top, mixed = _pair(p, K, n)
    for A in (top, mixed):
        for B in (top, mixed):
            got = PadicMatrix(ring, A) @ PadicMatrix(ring, B)
            assert got.rows == tuple(map(tuple, _matmul(A, B, pk)))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p,K", LEVELS)
def test_zp_horner_and_apply_at_the_slot_bound(p, K, n):
    ring, pk = Zp(p, K), p**K
    top, mixed = _pair(p, K, n)
    coeffs = [pk - 1] * 4
    for A in (top, mixed):
        assert PadicMatrix(ring, A).evaluate(coeffs).rows == tuple(map(tuple, _horner(coeffs, A, pk)))
        applied = PadicMatrix(ring, A).apply([pk - 1] * n)
        assert [v.raw for v in applied] == [sum(a * (pk - 1) for a in row) % pk for row in A]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p,K", LEVELS)
def test_zp_char_poly_at_the_slot_bound(p, K, n):
    ring, pk = Zp(p, K), p**K
    top, mixed = _pair(p, K, n)
    # every entry c: rank one, so det(tI - A) = t^(n-1) (t - n c)
    expected = [0] * (n - 1) + [(-n * (pk - 1)) % pk, 1]
    assert PadicMatrix(ring, top).char_poly_raw() == expected
    if n <= 8:
        assert PadicMatrix(ring, mixed).char_poly_raw() == _char_poly(mixed, pk)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p,K", LEVELS)
def test_zp_linear_combination_at_the_slot_bound(p, K, n):
    ring, pk = Zp(p, K), p**K
    top, mixed = _pair(p, K, n)
    matrices = [top, mixed, top, mixed, top]
    rng = random.Random(n)
    for coeffs in ([pk - 1] * 5, [rng.choice((pk - 1, rng.randrange(pk))) for _ in range(5)]):
        got = _linear_combination(ring, coeffs, [PadicMatrix(ring, A) for A in matrices])
        expected = [[sum(c * A[i][j] for c, A in zip(coeffs, matrices)) % pk for j in range(n)]
                    for i in range(n)]
        assert got.rows == tuple(map(tuple, expected))


EXTENSIONS = [(p, K, m) for p, K in ((3, 1), (7, 30)) for m in (2, 3, 4)]


@pytest.mark.parametrize("p,K,m", EXTENSIONS)
def test_extension_linear_combination_at_the_slot_bound(p, K, m):
    ring, base, pk = unram(p, K, m), Zp(p, K), p**K
    rng = random.Random(f"combination-{p}-{K}-{m}")
    n, count = 3, 6
    matrices = [[[rng.choice((pk - 1, rng.randrange(pk))) for _ in range(n)] for _ in range(n)]
                for _ in range(count)]
    matrices[0] = [[pk - 1] * n for _ in range(n)]
    for coeffs in ([(pk - 1,) * m] * count,
                   [tuple(rng.choice((pk - 1, rng.randrange(pk))) for _ in range(m)) for _ in range(count)]):
        got = _linear_combination(ring, coeffs, [PadicMatrix(base, A) for A in matrices])
        expected = tuple(
            tuple(tuple(sum(c[t] * A[i][j] for c, A in zip(coeffs, matrices)) % pk for t in range(m))
                  for j in range(n))
            for i in range(n)
        )
        assert got.rows == expected


def _square_and_multiply(ring, a, e):
    r = ring.one
    while e:
        if e & 1:
            r = ring.rmul(r, a)
        a = ring.rmul(a, a)
        e >>= 1
    return r


@pytest.mark.parametrize("p,K,m", EXTENSIONS)
def test_extension_power_against_square_and_multiply(p, K, m):
    ring, pk = unram(p, K, m), p**K
    rng = random.Random(f"power-{p}-{K}-{m}")
    alpha, _ = teichmuller_exponent(p**m, p, K, 1, range(1, 2))
    exponents = [0, 1, alpha, rng.getrandbits(200) | 1 << 199]
    unit = (rng.randrange(1, p),) + tuple(rng.randrange(pk) for _ in range(m - 1))
    for a in (unit, (pk - 1,) * m):
        for e in exponents:
            assert ring.rpow(a, e) == _square_and_multiply(ring, a, e)
        for e in (-1, -5):
            assert ring.rpow(a, e) == _square_and_multiply(ring, ring.rinv(a), -e)
        assert ring.rmul(ring.rpow(a, -1), a) == ring.one
    for e in exponents[1:]:
        assert ring.rpow(ring.zero, e) == ring.zero
    assert ring.rpow(ring.zero, 0) == ring.one
    non_unit = (p,) + (0,) * (m - 1)
    assert ring.rpow(non_unit, 5) == _square_and_multiply(ring, non_unit, 5)
    with pytest.raises(NotAUnit):
        ring.rpow(non_unit, -1)


@pytest.mark.parametrize("p,K,m", EXTENSIONS)
def test_teichmuller_lift_is_fixed_by_the_qth_power(p, K, m):
    ring, pk = unram(p, K, m), p**K
    rng = random.Random(f"teichmuller-{p}-{K}-{m}")
    for _ in range(3):
        a = tuple(rng.randrange(pk) for _ in range(m))
        lift = ring.rteichmuller(a)
        assert _square_and_multiply(ring, lift, p**m) == lift
        assert (lift == ring.zero) == (not ring.runit(a))


def test_empty_matrix_products():
    for ring in (Zp(3, 2), unram(3, 2, 2)):
        empty = PadicMatrix(ring, [])
        assert (empty @ empty).rows == ()
        assert empty.evaluate([1, 2, 3]).rows == ()
        assert empty.matrix_power(5).rows == ()
        assert empty.apply([]) == ()


def _zp_orbits(ring, n, count):
    """count degree-1 orbits whose P_0 has every entry p^K - 1: only the stack's shape matters."""
    P = PadicMatrix(ring, [[ring.pk - 1] * n for _ in range(n)])
    return tuple(SpectralOrbit(ring=ring, eigenvalue=1, projector=P, multiplicity=1) for _ in range(count))


@pytest.mark.parametrize("n, D", [(1, 1), (3, 2), (8, 8), (32, 5)])
@pytest.mark.parametrize("p,K", LEVELS)
def test_spectral_residual_slots_at_the_bound(p, K, n, D):
    """A row of `_Stack` slots holds sums of up to n + D products < p^(2K);
    `vanishes` reads True exactly when every slot is 0 mod p^K."""
    ring, pk = Zp(p, K), p**K
    stack = _stack(_zp_orbits(ring, n, D), n, pk)
    s, high = stack.s, stack.high
    h = (high & -high).bit_length() - 1
    bound = (n + D) * (pk - 1) ** 2
    assert bound < 1 << s and bound // pk < 1 << h and pk << h <= 1 << s

    def row(values):
        return sum(v << (s * i) for i, v in enumerate(values))

    assert stack.packed == [row([pk - 1] * n)] * (n * D)

    top = bound // pk * pk  # the largest multiple of p^K a slot can hold
    rng = random.Random(f"vanish {p},{K},{n},{D}")
    assert stack.vanishes(row([top] * n)) and stack.vanishes(0)
    assert not stack.vanishes(row([bound] * n)) or (n + D) % pk == 0
    for _ in range(20):
        values = [pk * rng.randrange(bound // pk + 1) for _ in range(n)]
        assert stack.vanishes(row(values))
        j, c = rng.randrange(n), rng.randrange(1, pk)
        values[j] += c if values[j] + c <= bound else -c
        assert not stack.vanishes(row(values))
    for i in range(n - 1):
        # slot i off by -2^s mod p^K and slot i + 1 by 1: the row is 0 mod p^K, its slots are not
        values = [0] * n
        values[i], values[i + 1] = -(1 << s) % pk, 1
        assert row(values) % pk == 0 and not stack.vanishes(row(values))
