"""Seeded generators for matrices, vectors and polynomials.

Every generator takes an explicit ``random.Random`` so sweeps are
reproducible; the CLI audit suites and the test suite share these.
"""

from __future__ import annotations

import random

from . import moduli
from .matrices import PadicMatrix
from .scalars import AnyRing, Zp, teichmuller_lift


def random_matrix(ring: AnyRing, n: int, rng: random.Random) -> PadicMatrix:
    if isinstance(ring, Zp):
        return PadicMatrix(
            ring, [[rng.randrange(ring.pk) for _ in range(n)] for _ in range(n)]
        )
    return PadicMatrix(
        ring,
        [
            [tuple(rng.randrange(ring.pk) for _ in range(ring.m)) for _ in range(n)]
            for _ in range(n)
        ],
    )


def random_unitary(ring: AnyRing, n: int, rng: random.Random) -> PadicMatrix:
    while True:
        candidate = random_matrix(ring, n, rng)
        if candidate.is_unitary():
            return candidate


def random_continuous(ring: AnyRing, n: int, rng: random.Random) -> PadicMatrix:
    """Unitary with unipotent reduction: unitriangular + p * noise, conjugated."""
    if not isinstance(ring, Zp):
        raise NotImplementedError("continuous sampler is base-ring only")
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
        for j in range(i + 1, n):
            rows[i][j] = rng.randrange(ring.pk)
    noise = [[ring.p * rng.randrange(ring.pk // ring.p) for _ in range(n)] for _ in range(n)]
    base = PadicMatrix(ring, rows) + PadicMatrix(ring, noise)
    v = random_unitary(ring, n, rng)
    return v @ base @ v.inverse()


def random_teichmuller(ring: Zp, n: int, rng: random.Random) -> PadicMatrix:
    """Teichmuller-type unitary: conjugate of a block diagonal of companion lifts.

    Blocks are companion matrices of the canonical degree-d moduli (exact
    Teichmuller matrices) or Teichmuller scalars for d = 1, so mixed Frobenius
    orbits show up.
    """
    p, K = ring.p, ring.K
    degrees = []
    remaining = n
    while remaining:
        cap = min(remaining, max(d for d in range(1, 5) if d == 1 or moduli.has_entry(p, d)))
        d = rng.randint(1, cap)
        degrees.append(d)
        remaining -= d
    blocks = []
    for d in degrees:
        if d == 1:
            lam = teichmuller_lift(ring, rng.randrange(1, p))
            blocks.append([[lam.lift()]])
        else:
            comp = PadicMatrix.companion(ring, list(moduli.canonical_modulus(p, d, K))[:-1])
            power = rng.randrange(1, p**d - 1)
            # random element of the cyclic Teichmuller block, still Teichmuller type
            blocks.append([list(row) for row in comp.matrix_power(power).rows])
    rows = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        d = len(block)
        for i in range(d):
            for j in range(d):
                rows[at + i][at + j] = block[i][j]
        at += d
    u = PadicMatrix(ring, rows)
    v = random_unitary(ring, n, rng)
    return v @ u @ v.inverse()
