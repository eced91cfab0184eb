"""Print one sha256 over the library's spectral, power and modulus outputs.

Usage: PYTHONPATH=src python tests/golden/digest.py [-v]

A refactor that must not change results prints the same digest before and
after.  The digest covers, on a fixed seeded grid of nine (p, K, n) shapes:

- `classify`, `jordan_decompose` and `spectral_decompose` on random unitaries
  (an InputError "no modulus shipped" is hashed by its message);
- `power_zp` on random continuous unitaries at t = 0, 1, a random t < p^K and
  p^K - 1;
- `moduli.canonical_modulus` for every shipped degree at the shape's (p, K);
- `PadicMatrix.matrix_power` over an unramified extension ring, for small,
  negative and 200-bit exponents.

With -v it also prints a digest per shape and the number of items hashed.
This script is not a test: it is run by hand on two trees and compared.
"""

from __future__ import annotations

import hashlib
import random
import sys

from padicu import moduli
from padicu.errors import InputError
from padicu.sampling import random_continuous, random_unitary
from padicu.scalars import Zp, unram
from padicu.unitary import classify, jordan_decompose, power_zp, spectral_decompose

SHAPES = [
    (3, 2, 2), (3, 5, 3), (3, 10, 4),
    (5, 3, 2), (5, 10, 4), (5, 20, 6),
    (7, 3, 3), (7, 10, 5), (7, 30, 8),
]
UNITARIES = 10  # per shape, through classify, jordan and spectral
CONTINUOUS = 10  # per shape, through power_zp at four times each
EXTENSION = 10  # per shape, extension-ring powers


def _spectral_items(U, seed):
    try:
        datum = spectral_decompose(U, seed=seed)
    except InputError as exc:
        if "no modulus shipped" not in str(exc):
            raise
        return [("spectral-error", str(exc))]
    items = [("unipotent", datum.unipotent.rows)]
    for orbit in datum.orbits:
        items.append(("orbit", orbit.ring, orbit.eigenvalues, orbit.multiplicity, orbit.factor))
        items.extend(("projector", P.rows) for P in orbit.projectors)
    return items


def shape_items(p: int, K: int, n: int):
    """Everything hashed for one shape, in a fixed order."""
    rng = random.Random(f"digest-{p}-{K}-{n}")
    ring = Zp(p, K)
    for m in range(1, 5):
        yield ("modulus", p, m, K, moduli.canonical_modulus(p, m, K))
    for _ in range(UNITARIES):
        U = random_unitary(ring, n, rng)
        cls = classify(U)
        yield ("classify", U.rows, cls.kind, cls.witness.rows)
        u_s, u_n = jordan_decompose(U)
        yield ("jordan", u_s.rows, u_n.rows)
        yield from _spectral_items(U, rng.randrange(1 << 16))
    for _ in range(CONTINUOUS):
        C = random_continuous(ring, n, rng)
        for t in (0, 1, rng.randrange(ring.pk), ring.pk - 1):
            yield ("power_zp", C.rows, t, power_zp(C, t).rows)
    m = 2 if n > 4 else 3
    ext = unram(p, K, m)
    for _ in range(EXTENSION):
        A = random_unitary(ext, n, rng)
        for e in (0, 1, A.n - 1, A.n, -2, rng.getrandbits(200)):
            yield ("ext_power", A.rows, e, A.matrix_power(e).rows)


def main(argv: list[str]) -> int:
    verbose = "-v" in argv
    total = hashlib.sha256()
    count = 0
    for shape in SHAPES:
        part = hashlib.sha256()
        for item in shape_items(*shape):
            line = repr(item).encode()
            part.update(line)
            total.update(line)
            count += 1
        if verbose:
            print(shape, part.hexdigest())
    if verbose:
        print("items", count)
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
