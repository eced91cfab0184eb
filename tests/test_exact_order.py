"""Exact orders (`residual_order`, `principal_exponent`) against test-local oracles.

An order N is checked by its definition: A^N = I and A^(N/q) != I for every
prime q of N.  The primes come from sympy's ``factorint`` and the powers from
square-and-multiply on ``@`` (or, for a companion matrix, on polynomials mod
f), so the oracle shares neither the factoring nor the power with the
descent it checks.  Over the extension ring the orders are enumerated.
Skipped when sympy is absent.
"""

import random

import pytest

from padicu import gm, matrices, unitary
from padicu.matrices import PadicMatrix
from padicu.sampling import random_continuous, random_unitary
from padicu.scalars import Zp, unram

factorint = pytest.importorskip("sympy").factorint


def _power(A, e):
    result = PadicMatrix.identity(A.ring, A.n)
    while e:
        if e & 1:
            result = result @ A
        A = A @ A
        e >>= 1
    return result


def _assert_exact_order(A, N):
    identity = PadicMatrix.identity(A.ring, A.n)
    assert _power(A, N) == identity
    for q in factorint(N):
        assert _power(A, N // q) != identity, (N, q)


def _large_prime_cases():
    for p, K in ((101, 3), (1009, 2)):
        for n in range(1, 7):
            for make in (random_unitary, random_continuous):
                yield pytest.param(p, K, n, make, id=f"{p}-{K}-{n}-{make.__name__}")


@pytest.mark.parametrize("p,K,n,make", list(_large_prime_cases()))
def test_orders_at_large_primes_match_the_definition(p, K, n, make):
    ring = Zp(p, K)
    u = make(ring, n, random.Random(p * 100 + n))
    N = unitary.residual_order(u)
    _assert_exact_order(u.reduce(1), N)
    for j in (1, K):
        out = gm.principal_exponent(u, j)
        assert out.N == N and out.n == p**out.l * N
        _assert_exact_order(u.reduce(j), out.n)


def _enumerated_order(A):
    identity = PadicMatrix.identity(A.ring, A.n)
    power, order = A, 1
    while power != identity:
        power = power @ A
        order += 1
    return order


def test_orders_over_an_extension_ring_match_enumeration():
    ring = unram(3, 2, 2)
    rng = random.Random(7)
    for _ in range(15):
        u = random_unitary(ring, 2, rng)
        N = _enumerated_order(u.reduce(1))
        assert unitary.residual_order(u) == N
        for j in (1, 2):
            n = _enumerated_order(u.reduce(j))
            assert tuple(gm.principal_exponent(u, j)) == (n, 0 if n == N else 1, N)


def _mul_mod(a, b, f, m):
    """a * b mod (m, f) for monic f, all ascending coefficient lists of length deg f."""
    d = len(f) - 1
    out = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    for top in range(2 * d - 2, d - 1, -1):
        c = out[top] % m
        for i in range(d):
            out[top - d + i] -= c * f[i]
    return [c % m for c in out[:d]]


def _t_power(e, f, m):
    """t^e mod (m, f) by square-and-multiply."""
    d = len(f) - 1
    result, base = [1] + [0] * (d - 1), [0, 1] + [0] * (d - 2)
    while e:
        if e & 1:
            result = _mul_mod(result, base, f, m)
        base = _mul_mod(base, base, f, m)
        e >>= 1
    return result


def test_principal_exponent_of_a_degree_32_polynomial():
    """The companion matrix of f has the order of t mod f: t^n = 1 mod (p^j, f)."""
    p, K, j = 5, 2, 2
    rng = random.Random(1)
    f = [rng.randrange(1, 5)] + [rng.randrange(25) for _ in range(31)] + [1]
    one = [1] + [0] * 31
    out = gm.principal_exponent(gm.LaurentPoly.from_coeffs(Zp(p, K), f), j)
    N, n, l = out.N, out.n, out.l
    assert n == p**l * N
    assert _t_power(N, f, p) == one
    for q in factorint(N):
        assert _t_power(N // q, f, p) != one, q
    assert _t_power(n, f, p**j) == one
    assert l == 0 or _t_power(p ** (l - 1) * N, f, p**j) != one


def test_a_wrong_exponent_fails_the_audit_before_any_order(monkeypatch):
    u = random_unitary(Zp(5, 3), 3, random.Random(4))
    assert u.reduce(1).matrix_power(2) != PadicMatrix.identity(Zp(5, 1), 3)
    monkeypatch.setattr(matrices, "teichmuller_exponent", lambda *args: (1, 2))  # a wrong E
    with pytest.raises(ArithmeticError):
        unitary.residual_order(u)
    for j in (1, 3):
        with pytest.raises(ArithmeticError):
            gm.principal_exponent(u, j)


def test_principal_exponent_at_full_precision_runs_berkowitz_on_u_once(monkeypatch):
    """U.reduce(K) is U, so principal_exponent(U, K) reuses U's Berkowitz run, residue
    degrees and audit: one run at precision K per call on a fresh U, none on a second
    call, and one on U mod p for the residue order."""
    ring = Zp(5, 20)
    runs = []
    berkowitz = PadicMatrix._berkowitz

    def counted(self):
        runs.append(self)
        return berkowitz(self)

    monkeypatch.setattr(PadicMatrix, "_berkowitz", counted)
    for seed in range(3):
        u = PadicMatrix(ring, random_unitary(ring, 6, random.Random(seed)).rows)
        assert u.reduce(20) is u
        for expected in ([u], []):
            runs.clear()
            gm.principal_exponent(u, 20)
            assert [m for m in runs if m.ring.K == 20] == expected
            assert [m.ring.K for m in runs if m is not u] == [1]
