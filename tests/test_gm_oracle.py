"""Resultants and Bezout certificates against sympy's integer resultant.

sympy is a test-only oracle: it computes res(f, g) over Z by its own
subresultant PRS (``res_z``), and the certificate identity k*f + l*g = res is
checked with sympy's polynomial arithmetic.  The Sylvester determinant and
the last adjugate row are checked against sympy's ``Matrix.det`` and
``Matrix.adjugate`` over Z, reduced mod p^j.  ``res_z`` follows the convention
res(f, g) = lc(f)^deg(g) * prod of g over the roots of f; the top-level
``sympy.resultant`` of sympy 1.14 returns the opposite sign on some pairs
with deg(f) * deg(g) odd, so it is not used.  Skipped when sympy is absent.
"""

import random

import pytest

from padicu import gm
from padicu.gm import LaurentPoly
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


def _sympy_adjugate_last_row(S):
    n = S.rows
    if n <= 8:
        return [int(x) for x in S.adjugate().row(n - 1)]
    # adj S is the transposed cofactor matrix; the full adjugate of a 16 x 16
    # integer matrix takes seconds, its last row (N cofactors) does not
    return [int(S.cofactor(i, n - 1)) for i in range(n)]


KINDS = ("unit", "shared-root", "equal")
SYLVESTER_CASES = [(dm, dn, kind) for dm, dn in SHAPES for kind in KINDS if kind != "equal" or dm == dn]


@pytest.mark.parametrize(
    "dm,dn,kind", SYLVESTER_CASES, ids=[f"{m}+{n}-{kind}" for m, n, kind in SYLVESTER_CASES]
)
def test_sylvester_det_and_adjugate_row_against_sympy(dm, dn, kind):
    """Both Sylvester paths against sympy; the row is given only for a unit det.

    Shared-root pairs have det of valuation >= 2, so elimination meets pivots
    of positive valuation; f = g has det 0 over Z and an all-zero column.
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
        rows = gm._sylvester(f, g)
        S = sympy.Matrix(rows)
        det = int(S.det()) % pj
        expected = (det, [x % pj for x in _sympy_adjugate_last_row(S)] if det % p else None)
        if kind == "shared-root":
            assert det % (p * p) == 0
        if kind == "equal":
            assert det == 0
        assert gm._elimination_det_and_adjugate_last_row(rows, ring) == expected
        assert gm._det_and_adjugate_last_row(rows, ring) == expected
