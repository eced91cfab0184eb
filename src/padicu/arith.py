"""Small integer number-theory helpers used across the package."""

from __future__ import annotations

from .errors import InvalidPrime


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
    """Prime factorization by trial division; fine at this library's scale."""
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


def merge_factorizations(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for q, e in b.items():
        out[q] = max(out.get(q, 0), e)
    return out


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve x = r1 (mod m1), x = r2 (mod m2) for coprime m1, m2; result in [0, m1*m2)."""
    inv = pow(m1, -1, m2)
    return (r1 + m1 * ((r2 - r1) * inv % m2)) % (m1 * m2)


def prime_to_p_part(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


def unipotent_depth(n: int, p: int) -> int:
    """Least a with p^a >= n: p^a is the exponent of the unipotent n x n matrices over F_p."""
    a = 0
    while p**a < n:
        a += 1
    return a


def order_mod(a: int, m: int) -> int:
    """Multiplicative order of a modulo m by direct iteration (m stays small here)."""
    if m == 1:
        return 1
    t = a % m
    o = 1
    while t != 1:
        t = t * a % m
        o += 1
        if o > m:
            raise ValueError(f"{a} is not invertible modulo {m}")
    return o


def multiplicative_order(a: int, modulus: int, exponent_factorization: dict[int, int]) -> int:
    """Order of a mod `modulus` given the factorization of a known exponent multiple."""
    order = 1
    for q, e in exponent_factorization.items():
        order *= q**e
    for q in exponent_factorization:
        while order % q == 0 and pow(a, order // q, modulus) == 1:
            order //= q
    return order


def factorial_valuation(j: int, p: int) -> int:
    """v_p(j!) by Legendre's formula."""
    v = 0
    q = p
    while q <= j:
        v += j // q
        q *= p
    return v
