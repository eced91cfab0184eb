"""Print one sha256 over the library's spectral, power, modulus and formal-group outputs.

Usage: PYTHONPATH=src python tests/golden/digest.py [-v]

A refactor that must not change results prints the same digest before and
after.  The digest covers, on a fixed seeded grid of nine (p, K, n) shapes:

- `classify`, `jordan_decompose` and `spectral_decompose` on random unitaries
  (the error "no modulus shipped" is hashed by its message);
- `power_zp` on random continuous unitaries at t = 0, 1, a random t < p^K and
  p^K - 1;
- `moduli.canonical_modulus` for every shipped degree at the shape's (p, K);
- `PadicMatrix.matrix_power` over an unramified extension ring, for small,
  negative and 200-bit exponents.

and, on a seeded grid of three (p, K) levels, the formal-group layer:

- `orthogonality_test` (resultant, Bezout k and l) on unit-polynomial pairs of
  degrees 1 + 1 up to 8 + 8, orthogonal or sharing a root mod p;
- `bezout_idempotents` (P1, P2) on the orthogonal pairs;
- `teich_factor` of f, of f g and of a pair sharing a root;
- `spectrum_table` on 6 x 6 unitaries at levels 1-, 1, K/2 and K;
- at (5, 10) and (7, 30), `spectrum_table` on 2 x 2, 4 x 4 and 6 x 6
  unitaries at non-monotone level lists with repeats, such as
  [K, 1-, K/2, 1, K, 2];
- on sparse polynomials with negative exponents, zero terms and multiples of
  p^K, `shift_sum` (both signs of d), `project_mod` and `additivity_check`;
  and `resultant` and `evaluate_matrix` on unit polynomials with a negative
  low, at each formal level;
- at each formal level, `evaluate_matrix` with a positive low where t^low g
  has degree >= n, on Z_p and degree-2 and -3 extension-ring matrices, and
  the inverse and products of extension-ring matrices, with all-(p^K - 1)
  entries among the factors.

With -v it also prints a digest per shape and the number of items hashed.
This script is not a test: it is run by hand on two trees and compared.
"""

from __future__ import annotations

import hashlib
import random
import sys

from padicu import fppoly, gm, moduli
from padicu.errors import PadicError
from padicu.matrices import PadicMatrix
from padicu.sampling import random_continuous, random_matrix, random_unitary
from padicu.scalars import ONE_MINUS, Zp, unram
from padicu.unitary import classify, jordan_decompose, power_zp, spectral_decompose, spectrum_table

SHAPES = [
    (3, 2, 2), (3, 5, 3), (3, 10, 4),
    (5, 3, 2), (5, 10, 4), (5, 20, 6),
    (7, 3, 3), (7, 10, 5), (7, 30, 8),
]
UNITARIES = 10  # per shape, through classify, jordan and spectral
CONTINUOUS = 10  # per shape, through power_zp at four times each
EXTENSION = 10  # per shape, extension-ring powers
FORMAL_GRID = [(3, 4), (5, 10), (7, 30)]
FORMAL_DEGREES = [(d, e) for d in range(1, 9) for e in (d, 9 - d)]
TABLES = 4  # per formal level, 6 x 6 spectrum tables
LEVEL_GRID = [(5, 10), (7, 30)]  # spectrum tables on unordered level lists
SPARSE = 12  # per formal level, sparse polynomials through the shift sums
CALCULUS = 4  # per formal level and ring, positive-low f(U), inverses and products


def _spectral_items(U):
    try:
        datum = spectral_decompose(U)
    except PadicError as exc:  # Unsupported; versions before it raised InputError
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
        rng.randrange(1 << 16)  # a former seed draw, kept so later inputs stay the same
        yield from _spectral_items(U)
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


def _unit_coeffs(rng, p: int, pk: int, degree: int) -> list[int]:
    coeffs = [rng.randrange(pk) for _ in range(degree + 1)]
    for i in (0, degree):
        coeffs[i] = rng.randrange(1, p) + p * rng.randrange(pk // p)
    return coeffs


def _laurent(poly) -> list | None:
    return sorted(poly.terms.items()) if poly is not None else None


def _teich(f):
    t = gm.teich_factor(f, f.ring.K)
    return ("teich_factor", t.unit.lift(), t.shift, sorted(t.factors.items()))


def formal_items(p: int, K: int):
    """Everything hashed for one formal-group level, in a fixed order."""
    rng = random.Random(f"digest-formal-{p}-{K}")
    ring = Zp(p, K)
    pk = ring.pk
    for dm, dn in FORMAL_DEGREES:
        f = _unit_coeffs(rng, p, pk, dm)
        g = _unit_coeffs(rng, p, pk, dn)
        root = _unit_coeffs(rng, p, pk, 1)
        shared = (fppoly.mul(root, _unit_coeffs(rng, p, pk, dm - 1), pk),
                  fppoly.mul(root, _unit_coeffs(rng, p, pk, dn - 1), pk))
        low = rng.randrange(-2, 3)
        for fc, gc in ((f, g), shared):
            F = gm.LaurentPoly.from_coeffs(ring, fc, low=low)
            G = gm.LaurentPoly.from_coeffs(ring, gc)
            for j in (1, K):
                c = gm.orthogonality_test(F, G, j)
                yield ("orthogonality", fc, gc, low, j, c.orthogonal, c.res.lift(),
                       _laurent(c.bezout_k), _laurent(c.bezout_l), c.shifts)
                if c.orthogonal:
                    b = gm.bezout_idempotents(F, G, j)
                    yield ("bezout_idempotents", b.modulus, b.p1, b.p2)
        yield _teich(gm.LaurentPoly.from_coeffs(ring, f, low=low))
        yield _teich(gm.LaurentPoly.from_coeffs(ring, fppoly.mul(f, g, pk)))
        yield _teich(gm.LaurentPoly.from_coeffs(ring, fppoly.mul(*shared, pk)))
    for _ in range(TABLES):
        U = random_unitary(ring, 6, rng)
        rng.randrange(1 << 16)  # a former seed draw, kept so later inputs stay the same
        table = spectrum_table(U, [ONE_MINUS, 1, K // 2, K])
        yield ("spectrum_table", U.rows, table.n, _table_rows(table))


def _table_rows(table) -> list:
    return [(r.epsilon, r.j, r.orbit, r.dimension, r.cokernel_divisors) for r in table.rows]


def level_items(p: int, K: int):
    """Spectrum tables whose level lists are unordered and repeat levels."""
    rng = random.Random(f"digest-levels-{p}-{K}")
    ring = Zp(p, K)
    for n in (2, 4, 6):
        for _ in range(TABLES):
            U = random_unitary(ring, n, rng)
            rng.randrange(1 << 16)  # a former seed draw, kept so later inputs stay the same
            for levels in ([K, ONE_MINUS, K // 2, 1, K, 2], [K // 2, 2, K // 2, ONE_MINUS, K - 1]):
                table = spectrum_table(U, levels)
                yield ("spectrum_table", U.rows, levels, table.n, _table_rows(table))


def sparse_items(p: int, K: int):
    """Shift sums, projections, resultants and f(U) with negative exponents."""
    rng = random.Random(f"digest-sparse-{p}-{K}")
    ring = Zp(p, K)
    pk = ring.pk
    for _ in range(SPARSE):
        size = rng.randrange(1, 7)
        terms = {rng.randrange(-8, 9): rng.choice((0, pk, -pk, rng.randrange(-pk, 2 * pk)))
                 for _ in range(size)}
        f = gm.LaurentPoly(ring, terms)
        for d in (1, 2, 3, 5, 8):
            c = rng.randrange(-9, 10)
            yield ("shift_sum", _laurent(f), c, d,
                   gm.shift_sum(f, c, d).lift(), gm.shift_sum(f, c, -d).lift())
            yield ("project_mod", d, [s.lift() for s in gm.project_mod(f, d)])
            dstar = rng.randrange(1, 4)
            yield ("additivity_check", c, d, dstar, gm.additivity_check(f, c, d, dstar))
        F = gm.LaurentPoly.from_coeffs(ring, _unit_coeffs(rng, p, pk, rng.randrange(1, 5)),
                                       low=rng.randrange(-4, 0))
        G = gm.LaurentPoly.from_coeffs(ring, _unit_coeffs(rng, p, pk, rng.randrange(1, 5)),
                                       low=rng.randrange(-4, 0))
        yield ("resultant", _laurent(F), _laurent(G), gm.resultant(F, G).lift())
        U = random_unitary(ring, rng.randrange(2, 5), rng)
        yield ("evaluate_matrix", _laurent(F), U.rows, F.evaluate_matrix(U).rows)


def calculus_items(p: int, K: int):
    """f(U) with a positive low past deg chi_U, and extension-ring inverses and products."""
    rng = random.Random(f"digest-calculus-{p}-{K}")
    base = Zp(p, K)
    for ring in (base, unram(p, K, 2), unram(p, K, 3)):
        top = PadicMatrix(ring, [[ring.rfrom_int(base.pk - 1)] * 3] * 3)
        for _ in range(CALCULUS):
            n = rng.randrange(2, 5)
            U = random_unitary(ring, n, rng)
            low = rng.randrange(1, 4)
            coeffs = _unit_coeffs(rng, p, base.pk, rng.randrange(n - low, n + 2) if low < n else 1)
            F = gm.LaurentPoly.from_coeffs(base, coeffs, low=low)
            yield ("evaluate_matrix", ring, _laurent(F), U.rows, F.evaluate_matrix(U).rows)
            if ring is base:
                continue
            A, B = random_unitary(ring, 3, rng), random_matrix(ring, 3, rng)
            yield ("ext_inverse", A.rows, A.inverse().rows)
            for X, Y in ((A, B), (top, top), (top, B)):
                yield ("ext_product", X.rows, Y.rows, (X @ Y).rows)


def main(argv: list[str]) -> int:
    verbose = "-v" in argv
    total = hashlib.sha256()
    count = 0
    parts = [(shape, shape_items(*shape)) for shape in SHAPES]
    parts += [(("formal", p, K), formal_items(p, K)) for p, K in FORMAL_GRID]
    parts += [(("levels", p, K), level_items(p, K)) for p, K in LEVEL_GRID]
    parts += [(("sparse", p, K), sparse_items(p, K)) for p, K in FORMAL_GRID]
    parts += [(("calculus", p, K), calculus_items(p, K)) for p, K in FORMAL_GRID]
    for shape, items in parts:
        part = hashlib.sha256()
        for item in items:
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
