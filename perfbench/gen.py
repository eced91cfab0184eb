"""Seeded inputs for every workload, made with stdlib `random` only.

The library's own samplers are not used, so a change to padicu cannot change
what a workload feeds it.  A `Source` remembers every value it has handed
out and never hands out the same one twice, so a value-keyed cache in the
library meets only the repeats a real sweep would have: none.
"""

from __future__ import annotations

import random

from oracle import (
    char_poly_mod_p,
    factor_shape,
    identity,
    jordan_alpha,
    mat_inv,
    mat_mul,
    mat_pow,
    poly_gcd,
)

MAX_SPECTRAL_DEGREE = 4  # the shipped modulus table stops at residue degree 4


class Source:
    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen: set = set()
        self.repeats = 0  # draws in a row that repeated an earlier value
        self.drawn = 0  # spectral candidates drawn
        self.filtered = 0  # of which rejected: a residue factor of degree > 4

    def fresh(self, value) -> bool:
        key = repr(value)
        if key in self.seen:
            self.repeats += 1
            if self.repeats > 1000:
                raise RuntimeError("no unseen input left of this kind; the run is too long")
            return False
        self.seen.add(key)
        self.repeats = 0
        return True

    # -- matrices over Z/p^K (lists of int rows) ----------------------------------
    def _matrix(self, p: int, K: int, n: int):
        pk = p**K
        return [[self.rng.randrange(pk) for _ in range(n)] for _ in range(n)]

    def invertible(self, p: int, K: int, n: int):
        while True:
            A = self._matrix(p, K, n)
            if char_poly_mod_p(A, p)[0] % p:
                return A

    def _conjugate(self, B, p: int, K: int):
        S = self.invertible(p, K, len(B))
        pk = p**K
        return mat_mul(mat_mul(S, B, pk), mat_inv(S, p, pk), pk)

    def mixed(self, p: int, K: int, n: int):
        """A random unitary: generically both Jordan parts are nontrivial."""
        while True:
            U = self.invertible(p, K, n)
            if self.fresh((p, K, U)):
                return U

    def spectral_mixed(self, p: int, K: int, n: int):
        """A random unitary whose residue factors all have degree <= 4."""
        while True:
            U = self.invertible(p, K, n)
            self.drawn += 1
            if max(d for d, _ in factor_shape(char_poly_mod_p(U, p), p)) > MAX_SPECTRAL_DEGREE:
                self.filtered += 1
                continue
            if self.fresh((p, K, U)):
                return U

    def teichmuller(self, p: int, K: int, n: int):
        """The Teichmuller part W^alpha of a random unitary W (degree-filtered)."""
        while True:
            W = self.spectral_mixed(p, K, n)
            T = mat_pow(W, jordan_alpha(p, K, n), p**K)
            if self.fresh((p, K, T)):
                return T

    def continuous(self, p: int, K: int, n: int):
        """Unipotent residue: S (I + strictly upper + p*noise) S^-1."""
        pk = p**K
        while True:
            B = self._matrix(p, K, n)
            for i in range(n):
                for j in range(n):
                    if i > j:
                        B[i][j] = p * B[i][j] % pk
                    elif i == j:
                        B[i][j] = (1 + p * B[i][j]) % pk
            U = self._conjugate(B, p, K)
            if U != identity(n) and self.fresh((p, K, U)):
                return U

    def scalar_unit(self, p: int, K: int) -> int:
        while True:
            v = self.rng.randrange(p**K)
            if v % p:
                return v

    # -- polynomials ---------------------------------------------------------------
    def unit_poly(self, p: int, K: int, degree: int) -> list[int]:
        """Ascending coefficients mod p^K with unit constant and leading terms."""
        pk = p**K
        coeffs = [self.rng.randrange(pk) for _ in range(degree + 1)]
        coeffs[0] = self.scalar_unit(p, K)
        coeffs[-1] = self.scalar_unit(p, K)
        return coeffs

    def orthogonal_pair(self, p: int, K: int, degree: int):
        """Unit polynomials f, g of one degree whose residues are coprime."""
        while True:
            f = self.unit_poly(p, K, degree)
            g = self.unit_poly(p, K, degree)
            if len(poly_gcd(f, g, p)) == 1 and self.fresh((p, K, f, g)):
                return f, g

    def nonorthogonal_pair(self, p: int, K: int, degree: int):
        """Unit polynomials sharing the residue factor (t - c), c a unit."""
        pk = p**K
        while True:
            c = self.rng.randrange(1, p)
            f = self.unit_poly(p, K, degree)
            g = self.unit_poly(p, K, degree)
            # force f(c) = g(c) = 0 mod p through the constant term
            for h in (f, g):
                rest = sum(h[i] * pow(c, i, p) for i in range(1, len(h))) % p
                h[0] = (h[0] - h[0] % p - rest) % pk
            if f[0] % p and g[0] % p and self.fresh((p, K, f, g)):
                return f, g
