"""Resultants and Bezout certificates against sympy's integer resultant.

sympy is a test-only oracle: it computes res(f, g) over Z by its own
subresultant PRS (``res_z``), and the certificate identity k*f + l*g = res is
checked with sympy's polynomial arithmetic.  The one elimination routine is
checked on the multiplication and Sylvester matrices against sympy's
``Matrix.det`` and ``Matrix.adjugate`` over Z, reduced mod p^j.  Pairs with a
non-unit lead or a constant side get the same checks.  ``res_z`` follows the convention
res(f, g) = lc(f)^deg(g) * prod of g over the roots of f; the top-level
``sympy.resultant`` of sympy 1.14 returns the opposite sign on some pairs
with deg(f) * deg(g) odd, so it is not used.  Skipped when sympy is absent.

Hensel lifting (`gm._hensel_pair`) is checked against a test-local
digit-by-digit lift built on schoolbook products and a Gauss-Jordan inverse
mod p, and a corrupted cofactor must trip the exact-division audit.
"""

import random

import pytest

from padicu import fppoly, gm
from padicu.gm import LaurentPoly
from padicu.matrices import _det_and_solve
from padicu.scalars import Zp

sympy = pytest.importorskip("sympy")
res_z = pytest.importorskip("sympy.polys.subresultants_qq_zz").res_z
t = sympy.symbols("t")

SHAPES = [(d, d) for d in range(1, 9)] + [(1, 8), (3, 7), (8, 2), (5, 4)]


def _poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), t, domain="ZZ")


def _unit_coeffs(rng, p, pk, d):
    coeffs = [rng.randrange(pk) for _ in range(d + 1)]
    for i in (0, d):
        while coeffs[i] % p == 0:
            coeffs[i] = rng.randrange(pk)
    return coeffs


def _pair(rng, p, pk, dm, dn, orthogonal):
    """Unit-extreme coefficient lists whose sympy resultant is a unit or not."""
    while True:
        if orthogonal:
            f, g = _unit_coeffs(rng, p, pk, dm), _unit_coeffs(rng, p, pk, dn)
        else:
            h = _poly(_unit_coeffs(rng, p, pk, 1))
            f = (h * _poly(_unit_coeffs(rng, p, pk, dm - 1))).all_coeffs()[::-1]
            g = (h * _poly(_unit_coeffs(rng, p, pk, dn - 1))).all_coeffs()[::-1]
            f = [(int(c) + p * rng.randrange(pk)) % pk for c in f]
            g = [(int(c) + p * rng.randrange(pk)) % pk for c in g]
            if not all(c % p for c in (f[0], f[-1], g[0], g[-1])):
                continue
        res = int(res_z(_poly(f).as_expr(), _poly(g).as_expr(), t))
        if (res % p != 0) == orthogonal:
            return f, g, res


@pytest.mark.parametrize("orthogonal", [True, False], ids=["orthogonal", "not-orthogonal"])
@pytest.mark.parametrize("dm,dn", SHAPES, ids=[f"{m}+{n}" for m, n in SHAPES])
def test_resultant_and_certificate_against_sympy(dm, dn, orthogonal):
    rng = random.Random(1000 * dm + 10 * dn + orthogonal)
    for p, K, j in ((3, 4, 4), (5, 3, 2), (7, 2, 2)):
        ring = Zp(p, K)
        f, g, res = _pair(rng, p, ring.pk, dm, dn, orthogonal)
        F = LaurentPoly.from_coeffs(ring, f, low=rng.choice((-2, 0, 1)))
        G = LaurentPoly.from_coeffs(ring, g, low=rng.choice((-1, 0, 3)))
        assert gm.resultant(F, G).lift() == res % ring.pk
        cert = gm.orthogonality_test(F, G, j)
        pj = p**j
        assert cert.res.lift() == res % pj
        assert cert.orthogonal == orthogonal
        if orthogonal:
            k = _poly([cert.bezout_k.terms.get(e, 0) for e in range(dn)])
            l = _poly([cert.bezout_l.terms.get(e, 0) for e in range(dm)])
            combo = (k * _poly(f) + l * _poly(g)).all_coeffs()[::-1]
            assert [int(c) % pj for c in combo] == [res % pj] + [0] * (len(combo) - 1)
            # self-audits P1 + P2 = 1, P1*g = 0 and P2*f = 0 mod (p^j, fg)
            gm.bezout_idempotents(F, G, j)


def _shared_root_pair(rng, p, pk, dm, dn):
    """f, g with a common linear factor plus p^2 noise: p^2 divides res(f, g)."""
    h = _poly(_unit_coeffs(rng, p, pk, 1))
    f = (h * _poly(_unit_coeffs(rng, p, pk, dm - 1))).all_coeffs()[::-1]
    g = (h * _poly(_unit_coeffs(rng, p, pk, dn - 1))).all_coeffs()[::-1]
    f = [(int(c) + p * p * rng.randrange(pk)) % pk for c in f]
    g = [(int(c) + p * p * rng.randrange(pk)) % pk for c in g]
    return f, g


def _adjugate_first_row(S):
    n = S.rows
    if n <= 8:
        return [int(x) for x in S.adjugate().row(0)]
    # adj S is the transposed cofactor matrix; the full adjugate of a 16 x 16
    # integer matrix takes seconds, its first row (N cofactors) does not
    return [int(S.cofactor(i, 0)) for i in range(n)]


def _check_det_and_solve(columns, ring):
    """The routine against sympy over Z, reduced mod p^j.

    With S the matrix whose rows are the given columns, M = S^T, so det M =
    det S and det * M^-1 e_0 = adj(M) e_0 is the first row of adj S.
    """
    pj = ring.pk
    S = sympy.Matrix(columns)
    det = int(S.det()) % pj
    got_det, solution = _det_and_solve(ring, zip(*columns), [[int(r == 0) for r in range(len(columns))]])
    assert got_det == det
    if det % ring.p:
        assert [det * v % pj for v in solution[0]] == [x % pj for x in _adjugate_first_row(S)]
    else:
        assert solution is None
    return det


KINDS = ("unit", "shared-root", "equal")
SYLVESTER_CASES = [(dm, dn, kind) for dm, dn in SHAPES for kind in KINDS if kind != "equal" or dm == dn]


@pytest.mark.parametrize(
    "dm,dn,kind", SYLVESTER_CASES, ids=[f"{m}+{n}-{kind}" for m, n, kind in SYLVESTER_CASES]
)
def test_sylvester_det_and_adjugate_row_against_sympy(dm, dn, kind):
    """The one elimination routine on both matrices it serves, against sympy.

    - Multiplication by g on (Z/p^j)[t]/(f), for f with a unit lead: det and
      det * g^-1 mod f, the solution given only for a unit det.  res_z
      checks the columns themselves: res(f, g) = lc(f)^deg g * det.
      Shared-root pairs have det of valuation >= 2, so elimination meets
      pivots of positive valuation; f = g gives the zero matrix.
    - The Sylvester matrix of the pair with both leads times p, the only
      pairs it serves: det only, a non-unit.
    """
    rng = random.Random(f"sylvester-{dm}-{dn}-{kind}")
    for p, j in ((3, 4), (5, 3), (7, 3)):
        ring = Zp(p, j)
        pj = ring.pk
        if kind == "unit":
            f, g, _ = _pair(rng, p, pj, dm, dn, True)
        elif kind == "shared-root":
            f, g = _shared_root_pair(rng, p, pj, dm, dn)
        else:
            f = g = _unit_coeffs(rng, p, pj, dm)
        det = _check_det_and_solve(fppoly.mul_columns(f, g, pj), ring)
        res = int(res_z(_poly(f).as_expr(), _poly(g).as_expr(), t))
        assert res % pj == pow(f[-1], dn, pj) * det % pj
        if kind == "shared-root":
            assert det % (p * p) == 0
        if kind == "equal":
            assert det == 0
        f, g = f[:-1] + [f[-1] * p % pj], g[:-1] + [g[-1] * p % pj]
        assert _check_det_and_solve(gm._sylvester(f, g), ring) % p == 0


# -- pairs whose leads are not both units ----------------------------------------


def _coeffs_with_lead(rng, p, pk, d, unit_lead):
    """Random coefficients of degree d mod pk; a non-unit lead is p times a unit.

    The constant term is nonzero, so no Laurent shift is split off.
    """
    coeffs = [rng.randrange(1, pk)] + [rng.randrange(pk) for _ in range(d)]
    coeffs[-1] = rng.randrange(1, pk)
    while (coeffs[-1] % p != 0) != unit_lead or coeffs[-1] % (p * p) == 0 and not unit_lead:
        coeffs[-1] = rng.randrange(1, pk)
    return coeffs


def _check_certificate(F, G, f, g, j):
    """res against res_z, and k*f + l*g = res with deg k < deg g, deg l < deg f.

    Two constants have res = 1 and are orthogonal only when one is a unit;
    their pair is the inverse of that unit, so the degree bounds skip them.
    """
    p, pj = F.ring.p, F.ring.p**j
    res = int(res_z(_poly(f).as_expr(), _poly(g).as_expr(), t)) % pj
    cert = gm.orthogonality_test(F, G, j)
    assert cert.res.lift() == res
    constants = len(f) == len(g) == 1
    assert cert.orthogonal == bool(f[0] % p or g[0] % p if constants else res % p)
    if not cert.orthogonal:
        assert cert.bezout_k is None and cert.bezout_l is None
        return cert
    k, l = cert.bezout_k.coeffs_from_zero(), cert.bezout_l.coeffs_from_zero()
    assert constants or len(k) < len(g) and len(l) < len(f)
    combo = (_poly(k) * _poly(f) + _poly(l) * _poly(g)).all_coeffs()[::-1]
    assert [int(c) % pj for c in combo] == [res] + [0] * (len(combo) - 1)
    return cert


# (deg f, deg g, f has a unit lead, g has a unit lead)
CONSTANT_SIDE = [(0, n) for n in range(4)] + [(m, 0) for m in range(1, 4)]
LEAD_CASES = (
    [(m, n, False, True) for m, n in ((1, 1), (3, 3), (2, 3), (3, 1), (5, 4), (1, 6))]
    + [(m, n, True, False) for m, n in ((1, 1), (3, 3), (3, 2), (1, 3), (4, 5), (6, 1))]
    + [(m, n, False, False) for m, n in ((1, 1), (2, 3), (3, 3), (4, 2))]
    + [(m, n, fu, gu) for m, n in CONSTANT_SIDE for fu in (True, False) for gu in (True, False)]
)


@pytest.mark.parametrize(
    "dm,dn,f_unit,g_unit",
    LEAD_CASES,
    ids=[f"{m}+{n}-{'uU'[fu]}{'uU'[gu]}" for m, n, fu, gu in LEAD_CASES],
)
def test_pairs_with_a_non_unit_lead_or_a_constant_against_sympy(dm, dn, f_unit, g_unit):
    """A non-unit lead is p times a unit, so the degree survives reduction mod p^j.

    With one unit lead the certificate comes from the quotient by that
    polynomial, and odd deg f * deg g checks the sign of res(f, g) =
    (-1)^(mn) res(g, f).  With none, res is the exact non-unit Sylvester
    determinant.  A constant side has res = c^deg of the other side.
    """
    rng = random.Random(f"leads-{dm}-{dn}-{f_unit}-{g_unit}")
    seen = set()
    for p, K, j in ((3, 4, 4), (5, 3, 2), (7, 3, 3), (3, 5, 3)):
        ring = Zp(p, K)
        for _ in range(6):
            f = _coeffs_with_lead(rng, p, p**j, dm, f_unit)
            g = _coeffs_with_lead(rng, p, p**j, dn, g_unit)
            F = LaurentPoly.from_coeffs(ring, f, low=rng.choice((-2, 0, 1)))
            G = LaurentPoly.from_coeffs(ring, g, low=rng.choice((-1, 0, 3)))
            seen.add(_check_certificate(F, G, f, g, j).orthogonal)
    # with one unit lead and no constant side both answers are reachable
    if dm and dn and (f_unit or g_unit):
        assert seen == {True, False}


# -- Hensel lifting against a digit-by-digit lift ----------------------------------

HENSEL_PRIMES = (3, 5, 7, 11, 1000003)
HENSEL_LEVELS = (1, 2, 3, 4, 5, 8, 9, 16, 17, 30, 31)
HENSEL_SPLITS = [(1, 1), (1, 5), (5, 1), (4, 4), (2, 8)]


def _school_mul(a, b, m):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return [v % m for v in out]


def _monic_divmod(a, b, m):
    """(q, r) with a = q*b + r mod m for monic b; r has exactly deg b entries."""
    r = [v % m for v in a] + [0] * max(0, len(b) - 1 - len(a))
    q = [0] * max(0, len(r) - len(b) + 1)
    for d in reversed(range(len(q))):
        c = q[d] = r[d + len(b) - 1]
        for i, v in enumerate(b):
            r[d + i] = (r[d + i] - c * v) % m
    return q, r[: len(b) - 1]


def _inverse_mod(h, g, p):
    """u with u*h = 1 mod (g, p), by Gauss-Jordan on multiplication by h; None if singular."""
    d = len(g) - 1
    cols, image = [], _monic_divmod(h, g, p)[1]
    for _ in range(d):
        cols.append(image)
        image = _monic_divmod([0] + image, g, p)[1]
    rows = [[cols[i][r] for i in range(d)] + [int(r == 0)] for r in range(d)]
    for c in range(d):
        pivot = next((r for r in range(c, d) if rows[r][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], -1, p)
        rows[c] = [v * inv % p for v in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                x = rows[r][c]
                rows[r] = [(a - x * b) % p for a, b in zip(rows[r], rows[c])]
    return [row[d] for row in rows]


def _digit_lift(f, g0, h0, p, j):
    """The monic lifts (g, h) of g0*h0 = f mod p to mod p^j, one p-adic digit a round.

    With f = g*h mod p^k, the next digits dg, dh solve h0*dg + g0*dh = e mod p
    for e = (f - g*h) / p^k: dg = u*e mod g0 with u*h0 = 1 mod (g0, p), and
    dh = (e - h0*dg) / g0 exactly.
    """
    u = _inverse_mod(h0, g0, p)
    g, h = list(g0), list(h0)
    for k in range(1, j):
        pk = p**k
        diff = [x - y for x, y in zip(f, _school_mul(g, h, p**j))]
        assert all(v % pk == 0 for v in diff)
        e = [v // pk % p for v in diff]
        dg = _monic_divmod(_school_mul(u, e, p), g0, p)[1]
        rest = [(x - y) % p for x, y in zip(e, _school_mul(h0, dg, p) + [0] * len(e))]
        dh, rem = _monic_divmod(rest, g0, p)
        assert not any(rem)
        g = [x + pk * y for x, y in zip(g, dg + [0])]
        h = [x + pk * y for x, y in zip(h, dh + [0] * len(h))]
    return g, h


def _coprime_monic_pair(rng, p, dg, dh):
    while True:
        g0 = [rng.randrange(p) for _ in range(dg)] + [1]
        h0 = [rng.randrange(p) for _ in range(dh)] + [1]
        if _inverse_mod(h0, g0, p) is not None:
            return g0, h0


@pytest.mark.parametrize("dg,dh", HENSEL_SPLITS, ids=[f"{a}+{b}" for a, b in HENSEL_SPLITS])
@pytest.mark.parametrize("p", HENSEL_PRIMES)
def test_hensel_pair_against_a_digit_by_digit_lift(p, dg, dh):
    """Monic lifts of a coprime g0*h0 are unique, so every level must equal the
    oracle's, which shares no code with `gm` or `fppoly`."""
    rng = random.Random(f"hensel-{p}-{dg}-{dh}")
    for _ in range(2):
        g0, h0 = _coprime_monic_pair(rng, p, dg, dh)
        top = p ** max(HENSEL_LEVELS)
        f = [v + p * rng.randrange(top // p) for v in _school_mul(g0, h0, p)[:-1]] + [1]
        want_g, want_h = _digit_lift(f, g0, h0, p, max(HENSEL_LEVELS))
        for j in HENSEL_LEVELS:
            pj = p**j
            fj = [v % pj for v in f]
            g, h = gm._hensel_pair(fj, g0, h0, p, j)
            assert (len(g), len(h), g[-1], h[-1]) == (dg + 1, dh + 1, 1, 1)
            assert [v % p for v in g] == g0 and [v % p for v in h] == h0
            assert _school_mul(g, h, pj) == fj
            assert (g, h) == ([v % pj for v in want_g], [v % pj for v in want_h])


@pytest.mark.parametrize("dg,dh", HENSEL_SPLITS, ids=[f"{a}+{b}" for a, b in HENSEL_SPLITS])
@pytest.mark.parametrize("p", HENSEL_PRIMES)
def test_hensel_pair_with_a_corrupted_cofactor_fails_its_audit(monkeypatch, p, dg, dh):
    """A cofactor scaled by 2 moves g by (2 - 1)*t*e mod g: with g = g0 + p*r,
    r != 0 mod p, that is p*r mod p^2, so g' is not the lift and f / g' leaves a
    remainder in the first round (f != g0*h0 mod p^2)."""
    rng = random.Random(f"hensel-corrupt-{p}-{dg}-{dh}")
    g0, h0 = _coprime_monic_pair(rng, p, dg, dh)
    real = fppoly.ext_gcd

    def scaled(a, b, q):
        one, s, t_ = real(a, b, q)
        return one, s, [2 * v % q for v in t_]

    monkeypatch.setattr(fppoly, "ext_gcd", scaled)
    top = p ** max(HENSEL_LEVELS)
    r = [0] * dg
    while not any(r):
        r = [rng.randrange(p) for _ in range(dg)]
    G = [x + p * y for x, y in zip(g0, r + [0])]
    H = [v + p * rng.randrange(top // p) for v in h0[:-1]] + [1]
    f = _school_mul(G, H, top)
    assert any(x != y for x, y in zip([v % p**2 for v in f], _school_mul(g0, h0, p**2)))
    for j in HENSEL_LEVELS[1:]:
        with pytest.raises(ArithmeticError, match="Hensel division left a nonzero remainder"):
            gm._hensel_pair([v % p**j for v in f], g0, h0, p, j)
