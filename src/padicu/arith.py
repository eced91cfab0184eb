"""Small integer number-theory helpers used across the package."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import InvalidPrime

if TYPE_CHECKING:
    from collections.abc import Iterable


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_odd_prime(p: int) -> int:
    if p == 2:
        raise InvalidPrime("p = 2 is rejected; this library requires p >= 3")
    if not is_prime(p):
        raise InvalidPrime(f"p = {p} is not prime")
    return p


def padic_valuation(n: int, p: int, cap: int) -> int:
    """Largest v <= cap with p^v | n; returns cap for n == 0."""
    if n == 0:
        return cap
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, of one degree or q^d - 1 at a time.

    Callers: `fppoly.is_irreducible`, `matrices._exact_order` and
    `glnp.build_generators`.  A piece with two large primes stalls it.
    """
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve x = r1 (mod m1), x = r2 (mod m2) for coprime m1, m2; result in [0, m1*m2)."""
    inv = pow(m1, -1, m2)
    return (r1 + m1 * ((r2 - r1) * inv % m2)) % (m1 * m2)


def unipotent_depth(n: int, p: int) -> int:
    """Least a with p^a >= n: p^a is the exponent of the unipotent n x n matrices over F_p."""
    a = 0
    while p**a < n:
        a += 1
    return a


def teichmuller_exponent(q: int, p: int, K: int, n: int, degrees: Iterable[int]) -> tuple[int, int]:
    """(alpha, E) for n x n unitaries mod p^K over a ring with residue field F_q.

    M = lcm(q^d - 1, d in degrees) is a multiple of the prime-to-p order of
    the reduction of such a unitary when every irreducible factor of its
    residue characteristic polynomial has its degree in `degrees`: each
    residue eigenvalue lies in some F_(q^d).  With every d <= n, M is the
    exponent of all of GL_n(F_q).  The order of the unitary then divides
    E = M * p^A with A = K - 1 + unipotent_depth(n, p).  alpha = 1 mod M and
    alpha = 0 mod p^A, so U^alpha is the limit of the factorial powers
    U^(p^(k!)): its Teichmuller part.
    """
    M = 1
    for d in degrees:
        M = math.lcm(M, q**d - 1)
    pa = p ** (K - 1 + unipotent_depth(n, p))
    return crt_pair(1, M, 0, pa), M * pa


def factorial_valuation(j: int, p: int) -> int:
    """v_p(j!) by Legendre's formula."""
    v = 0
    q = p
    while q <= j:
        v += j // q
        q *= p
    return v
