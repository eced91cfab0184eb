"""Print one sha256 over the library's spectral, power, modulus and formal-group outputs.

Usage: PYTHONPATH=src python tests/golden/digest.py [-v]

A refactor that must not change results prints the same digest before and
after.  The digest covers, on a fixed seeded grid of nine (p, K, n) shapes:

- `classify`, `jordan_decompose` and `spectral_decompose` on random unitaries
  (the error "no modulus shipped" is hashed by its message), and the datum's
  `verify` against U_s, against a corrupted U_s and on a corrupted datum;
- `power_zp` on random continuous unitaries at t = 0, 1, a random t < p^K and
  p^K - 1;
- `moduli.canonical_modulus` for every shipped degree at the shape's (p, K);
- `PadicMatrix.matrix_power` over an unramified extension ring, for small,
  negative and 200-bit exponents;
- `residual_order` and `principal_exponent` at j = 1, ceil(K/2) and K on
  random, continuous and Teichmuller unitaries of the shape, and on random
  unitaries over the extension ring `ORDER_EXTENSION`;
- `classify` and `jordan_decompose` on random unitaries over the degree-2
  and degree-3 extension rings of `JORDAN_EXTENSION`, in both call orders,
  and `classify` on fresh copies of the two Jordan parts of each.

and, on a seeded grid of three (p, K) levels, the formal-group layer:

- `orthogonality_test` (resultant, Bezout k and l) on unit-polynomial pairs of
  degrees 1 + 1 up to 8 + 8, orthogonal or sharing a root mod p;
- `bezout_idempotents` (P1, P2) on the orthogonal pairs;
- `teich_factor` of f, of f g and of a pair sharing a root;
- on the grid `TEICH_GRID`, `teich_factor` at every level j in `TEICH_LEVELS`
  up to K of products of 3-5 residue clusters (irreducibles of degree 1-3 mod
  p) with multiplicities 1-3, each cluster a random monic lift;
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
  entries among the factors;
- at each formal level, `evaluate_matrix` with a negative low on degree-2 and
  -3 extension-ring matrices;
- `power_zp` on continuous unitaries over unram(p, K, 2) on the grid
  `EXTENSION_CONTINUOUS`, at int times of either sign and at a Z_p time (the
  error, where its order may exceed p^K, is hashed by its message);
- `inverse` of random unitaries over Z_p for n = 1..8 on the grid
  `INVERSE_GRID`, and over unram(p, K, m) for m = 2, 3, 4 on the grid
  `INVERSE_EXTENSION`;
- `quantum.exp_matrix` on seeded (H, t) with v(H) in {0, 1, 2} and t of
  either sign at v(t) in {0, 1, 2, K}, with and without the override radius
  (each `RadiusViolation` is hashed by its message), and `quantum.evolve` on
  seeded commuting pairs, on the grid `EXP_GRID`;
- over unram(p, K, m) on the grid `PRODUCT_EXTENSION`: products,
  `spectral_seminorm(16)` (also on p A and on strictly upper triangular A)
  and `evaluate_matrix` with a non-negative low, for n = 1, 2, 3, 5.

With -v it also prints a digest per shape and the number of items hashed.
This script is not a test: it is run by hand on two trees and compared.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys

from padicu import fppoly, gm, moduli, quantum
from padicu.errors import PadicError
from padicu.matrices import PadicMatrix
from padicu.sampling import random_continuous, random_matrix, random_teichmuller, random_unitary
from padicu.scalars import ONE_MINUS, Zp, unram
from padicu.unitary import (
    classify, jordan_decompose, power_zp, residual_order, spectral_decompose, spectrum_table,
)

SHAPES = [
    (3, 2, 2), (3, 5, 3), (3, 10, 4),
    (5, 3, 2), (5, 10, 4), (5, 20, 6),
    (7, 3, 3), (7, 10, 5), (7, 30, 8),
]
UNITARIES = 10  # per shape, through classify, jordan and spectral
CONTINUOUS = 10  # per shape, through power_zp at four times each
EXTENSION = 10  # per shape, extension-ring powers
ORDERS = 4  # per shape and sampler, through residual_order and principal_exponent
ORDER_EXTENSION = (3, 4, 2, 3)  # (p, K, m, n): orders over unram(p, K, m)
JORDAN_EXTENSION = [(3, 3, 2, 3), (5, 2, 2, 3), (3, 2, 3, 2), (5, 3, 3, 2)]  # (p, K, m, n)
JORDANS = 4  # per JORDAN_EXTENSION shape, through classify and jordan in both orders
EXTENSION_CONTINUOUS = [(3, 3, 2), (3, 3, 4), (5, 10, 3), (7, 30, 4)]  # (p, K, n): over unram(p, K, 2)
FORMAL_GRID = [(3, 4), (5, 10), (7, 30)]
FORMAL_DEGREES = [(d, e) for d in range(1, 9) for e in (d, 9 - d)]
TEICH_GRID = FORMAL_GRID + [(1000003, 3)]  # (p, K): teich_factor on cluster products
TEICH_LEVELS = (1, 2, 3, 5, 8, 9, 16, 17)  # and K: precisions around the Newton doublings
TEICHS = 6  # per TEICH_GRID level, cluster products
TABLES = 4  # per formal level, 6 x 6 spectrum tables
LEVEL_GRID = [(5, 10), (7, 30)]  # spectrum tables on unordered level lists
SPARSE = 12  # per formal level, sparse polynomials through the shift sums
CALCULUS = 4  # per formal level and ring, positive-low f(U), inverses and products
INVERSE_GRID = [(3, 4), (5, 10), (7, 30), (1000003, 3)]  # (p, K): Z_p inverses, n = 1..8
INVERSE_EXTENSION = [(3, 3), (5, 2), (7, 4)]  # (p, K): inverses over unram(p, K, m), n = 1..4
EXP_GRID = [(3, 4, 3), (5, 10, 4), (7, 30, 2), (3, 128, 2)]  # (p, K, n): exp(tH) and evolve
EXPS = 6  # per EXP_GRID shape and v(H), each at six times
PRODUCT_EXTENSION = [(3, 3, 2), (5, 2, 3), (7, 4, 4)]  # (p, K, m): products, seminorms, f(A)


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
    u_s, first = jordan_decompose(U)[0], datum.orbits[0]
    corrupted = datum._replace(orbits=(first._replace(projector=_bumped(first.projector)), *datum.orbits[1:]))
    items.append(("verify", datum.verify(expected=u_s), datum.verify(expected=_bumped(u_s)),
                  corrupted.verify(expected=u_s)))
    return items


def _bumped(A):
    """A copy of A with one added to entry (0, 0)."""
    rows = [list(row) for row in A.rows]
    rows[0][0] = A.ring.radd(rows[0][0], A.ring.one)
    return PadicMatrix(A.ring, rows)


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


def _order_items(U, K: int):
    yield ("residual_order", U.rows, residual_order(U))
    for j in sorted({1, math.ceil(K / 2), K}):
        yield ("principal_exponent", U.rows, j, tuple(gm.principal_exponent(U, j)))


def order_items(p: int, K: int, n: int):
    """Exact orders mod p and mod p^j for one shape, from their own seed."""
    rng = random.Random(f"digest-order-{p}-{K}-{n}")
    ring = Zp(p, K)
    for make in (random_unitary, random_continuous, random_teichmuller):
        for _ in range(ORDERS):
            yield from _order_items(make(ring, n, rng), K)


def extension_order_items(p: int, K: int, m: int, n: int):
    rng = random.Random(f"digest-order-{p}-{K}-{m}-{n}")
    ring = unram(p, K, m)
    for _ in range(ORDERS):
        yield from _order_items(random_unitary(ring, n, rng), K)


def extension_jordan_items(p: int, K: int, m: int, n: int):
    """classify then jordan, and jordan then classify, on two copies of each unitary."""
    rng = random.Random(f"digest-jordan-{p}-{K}-{m}-{n}")
    ring = unram(p, K, m)
    for _ in range(JORDANS):
        rows = random_unitary(ring, n, rng).rows
        U, V = PadicMatrix(ring, rows), PadicMatrix(ring, rows)
        cls = classify(U)
        yield ("ext_classify", rows, cls.kind, cls.witness.rows)
        yield ("ext_jordan", *(part.rows for part in jordan_decompose(U)))
        parts = jordan_decompose(V)
        yield ("ext_jordan", *(part.rows for part in parts))
        cls = classify(V)
        yield ("ext_classify", rows, cls.kind, cls.witness.rows)
        for part in parts:  # of Teichmuller and of continuous type
            cls = classify(PadicMatrix(ring, part.rows))
            yield ("ext_classify", part.rows, cls.kind, cls.witness.rows)


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


def _irreducible(rng, p: int, degree: int) -> list[int]:
    """A random monic irreducible of the given degree mod p, never t itself."""
    while True:
        f = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(degree - 1)] + [1]
        if fppoly.factor(f, p)[1] == [(f, 1)]:
            return f


def teich_items(p: int, K: int):
    """teich_factor at every level of TEICH_LEVELS up to K, and at K, of cluster products."""
    rng = random.Random(f"digest-teich-{p}-{K}")
    ring = Zp(p, K)
    pk = ring.pk
    for _ in range(TEICHS):
        clusters: list[list[int]] = []
        count = rng.randint(3, 5)
        while len(clusters) < count:
            irr = _irreducible(rng, p, rng.randint(1, 3))
            if irr not in clusters:
                clusters.append(irr)
        f = [rng.randrange(1, p) + p * rng.randrange(pk // p)]  # a unit lead
        for irr in clusters:
            power = [1]
            for _ in range(rng.randint(1, 3)):
                power = fppoly.mul(power, irr, p)
            lift = [v + p * rng.randrange(pk // p) for v in power[:-1]] + [1]
            f = fppoly.mul(f, lift, pk)
        F = gm.LaurentPoly.from_coeffs(ring, f, low=rng.randrange(-2, 3))
        for j in sorted({j for j in TEICH_LEVELS if j <= K} | {K}):
            t = gm.teich_factor(F, j)
            yield ("teich_factor", _laurent(F), j, t.unit.lift(), t.shift, sorted(t.factors.items()))


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


def negative_low_items(p: int, K: int):
    """f(U) = U^low g(U) with a negative low on extension-ring matrices."""
    rng = random.Random(f"digest-negative-low-{p}-{K}")
    base = Zp(p, K)
    for ring in (unram(p, K, 2), unram(p, K, 3)):
        for _ in range(CALCULUS):
            U = random_unitary(ring, rng.randrange(2, 5), rng)
            coeffs = _unit_coeffs(rng, p, base.pk, rng.randrange(0, 5))
            F = gm.LaurentPoly.from_coeffs(base, coeffs, low=rng.randrange(-5, 0))
            yield ("ext_evaluate_matrix", ring, _laurent(F), U.rows, F.evaluate_matrix(U).rows)


def _extension_continuous(ring, n: int, rng):
    """S (I + N) S^-1 with N strictly upper triangular plus p times noise."""
    rows = [[tuple(rng.randrange(ring.pk) * (1 if j > i else ring.p) for _ in range(ring.m))
             for j in range(n)] for i in range(n)]
    S = random_unitary(ring, n, rng)
    return S @ (PadicMatrix.identity(ring, n) + PadicMatrix(ring, rows)) @ S.inverse()


def extension_power_items(p: int, K: int, n: int):
    """power_zp on continuous unitaries over unram(p, K, 2), at int and Z_p times."""
    rng = random.Random(f"digest-ext-power-{p}-{K}-{n}")
    ring, base = unram(p, K, 2), Zp(p, K)
    for _ in range(CONTINUOUS):
        C = _extension_continuous(ring, n, rng)
        for t in (0, 1, rng.randrange(ring.pk), ring.pk - 1, -1, -rng.randrange(2, ring.pk)):
            yield ("ext_power_zp", C.rows, t, power_zp(C, t).rows)
        t = base.scalar(rng.randrange(ring.pk))
        try:
            yield ("ext_power_zp", C.rows, t.raw, power_zp(C, t).rows)
        except PadicError as exc:
            yield ("ext_power_zp-error", C.rows, t.raw, str(exc))


def inverse_items(p: int, K: int):
    """Inverses of random unitaries over Z_p, n = 1..8."""
    rng = random.Random(f"digest-inverse-{p}-{K}")
    ring = Zp(p, K)
    for n in range(1, 9):
        A = random_unitary(ring, n, rng)
        yield ("inverse", ring, A.rows, A.inverse().rows)


def extension_inverse_items(p: int, K: int):
    """Inverses of random unitaries over unram(p, K, m), m = 2, 3, 4 and n = 1..4."""
    rng = random.Random(f"digest-ext-inverse-{p}-{K}")
    for m in (2, 3, 4):
        ring = unram(p, K, m)
        for n in range(1, 5):
            A = random_unitary(ring, n, rng)
            yield ("ext_inverse", ring, A.rows, A.inverse().rows)


def exp_items(p: int, K: int, n: int):
    """exp(tH) with and without the override radius, and evolve on commuting pairs."""
    rng = random.Random(f"digest-exp-{p}-{K}-{n}")
    ring = Zp(p, K)
    for v_h in (0, 1, 2):
        for _ in range(EXPS):
            H = random_matrix(ring, n, rng).scale(p**v_h)
            for v_t in (0, 1, 2, K):
                t = rng.choice((1, -1)) * p**v_t * rng.randrange(1, p) if v_t < K else p**K
                for override in (False, True):
                    try:
                        yield ("exp", H.rows, t, override,
                               quantum.exp_matrix(H, t, allow_extended_radius=override).rows)
                    except PadicError as exc:
                        yield ("exp-error", H.rows, t, override, type(exc).__name__, str(exc))
    for _ in range(EXPS):
        U = random_unitary(ring, n, rng)
        H = U.evaluate([rng.randrange(ring.pk) for _ in range(n)]).scale(p)
        pair = quantum.EvolutionPair(H, U)
        psi0 = [rng.randrange(ring.pk) for _ in range(n)]
        psi0[rng.randrange(n)] = rng.randrange(1, p)
        for k, t in ((0, 0), (1, p), (-2, -p * rng.randrange(1, ring.pk)), (rng.randrange(-9, 10), 1)):
            try:
                yield ("evolve", H.rows, U.rows, psi0, k, t, quantum.evolve(pair, psi0, k, t).values)
            except PadicError as exc:
                yield ("evolve-error", H.rows, U.rows, psi0, k, t, type(exc).__name__, str(exc))


def extension_product_items(p: int, K: int, m: int):
    """Products, seminorms and non-negative-low f(A) over unram(p, K, m)."""
    rng = random.Random(f"digest-ext-product-{p}-{K}-{m}")
    ring, base = unram(p, K, m), Zp(p, K)
    for n in (1, 2, 3, 5):
        A, B = random_matrix(ring, n, rng), random_matrix(ring, n, rng)
        upper = PadicMatrix(ring, [[v if j > i else 0 for j, v in enumerate(row)] for i, row in enumerate(B.rows)])
        yield ("ext_matmul", A.rows, B.rows, (A @ B).rows, (B @ A).rows)
        for X in (A, A.scale(p), upper):
            yield ("ext_seminorm", X.rows, tuple(X.spectral_seminorm(16)))
        for low in (0, 1, 2, 4):
            coeffs = [rng.randrange(base.pk) for _ in range(rng.randrange(1, 2 * n + 2))]
            F = gm.LaurentPoly.from_coeffs(base, coeffs, low=low)
            yield ("ext_evaluate_matrix", ring, _laurent(F), A.rows, F.evaluate_matrix(A).rows)


def main(argv: list[str]) -> int:
    verbose = "-v" in argv
    total = hashlib.sha256()
    count = 0
    parts = [(shape, shape_items(*shape)) for shape in SHAPES]
    parts += [(("formal", p, K), formal_items(p, K)) for p, K in FORMAL_GRID]
    parts += [(("levels", p, K), level_items(p, K)) for p, K in LEVEL_GRID]
    parts += [(("teich", p, K), teich_items(p, K)) for p, K in TEICH_GRID]
    parts += [(("sparse", p, K), sparse_items(p, K)) for p, K in FORMAL_GRID]
    parts += [(("calculus", p, K), calculus_items(p, K)) for p, K in FORMAL_GRID]
    parts += [(("order", *shape), order_items(*shape)) for shape in SHAPES]
    parts += [(("order-ext", *ORDER_EXTENSION), extension_order_items(*ORDER_EXTENSION))]
    parts += [(("jordan-ext", *shape), extension_jordan_items(*shape)) for shape in JORDAN_EXTENSION]
    parts += [(("negative-low-ext", p, K), negative_low_items(p, K)) for p, K in FORMAL_GRID]
    parts += [(("power-zp-ext", *shape), extension_power_items(*shape)) for shape in EXTENSION_CONTINUOUS]
    parts += [(("inverse", p, K), inverse_items(p, K)) for p, K in INVERSE_GRID]
    parts += [(("inverse-ext", p, K), extension_inverse_items(p, K)) for p, K in INVERSE_EXTENSION]
    parts += [(("exp", *shape), exp_items(*shape)) for shape in EXP_GRID]
    parts += [(("product-ext", *shape), extension_product_items(*shape)) for shape in PRODUCT_EXTENSION]
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
