"""Unit polynomials on the multiplicative formal group and their splittings.

Laurent polynomials with O_p coefficients carry the spectral bookkeeping:
orthogonality of two unit polynomials is a unit resultant, splitting
idempotents come from the Bezout identity, and grouped factorizations lift
from the residue field by quadratic Hensel iteration.  Shift sums realize the
coefficient functionals picked out by reduction modulo t^d - 1.

Laurent units t^k are factored out before any resultant or quotient-ring
computation; t is invertible, so the ideals do not change.  The certificates
record the shifts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from . import fppoly, ringpoly
from .errors import NotInvertible, NotOrthogonal, NotUnitary, PrecisionMismatch, ZeroPolynomial
from .matrices import PadicMatrix, residue_matrix_order
from .scalars import PadicScalar, Zp

if TYPE_CHECKING:
    from fractions import Fraction


class LaurentPoly:
    """Finitely supported sum of a_e t^e with coefficients exact mod p^K."""

    __slots__ = ("ring", "terms", "_dense")

    def __init__(self, ring: Zp, terms: dict[int, int]):
        self.ring = ring
        self.terms = {e: c % ring.pk for e, c in terms.items() if c % ring.pk}
        self._dense = None

    @classmethod
    def from_coeffs(cls, ring: Zp, coeffs, low: int = 0) -> "LaurentPoly":
        return cls(ring, {low + i: int(c) for i, c in enumerate(coeffs)})

    def coeff(self, e: int) -> PadicScalar:
        return self.ring.scalar(self.terms.get(e, 0))

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def low(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no degree")
        return min(self.terms)

    @property
    def high(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no degree")
        return max(self.terms)

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly(self.ring, {e + k: c for e, c in self.terms.items()})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(self.ring, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(self.ring, out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = e1 + e2
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly(self.ring, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def reduce(self, j: int) -> "LaurentPoly":
        if j == self.ring.K:
            return self
        return LaurentPoly(self.ring.at_precision(j), dict(self.terms))

    def polynomial_part(self) -> tuple[list[int], int]:
        """Return (ascending dense coefficients, shift) with f = t^shift * poly."""
        if self._dense is None:
            if not self.terms:
                raise ZeroPolynomial("zero polynomial")
            lo, hi = self.low, self.high
            self._dense = ([self.terms.get(e, 0) for e in range(lo, hi + 1)], lo)
        return self._dense[0][:], self._dense[1]

    def is_unit_polynomial(self) -> bool:
        if not self.terms:
            return False
        p = self.ring.p
        return self.terms[self.low] % p != 0 and self.terms[self.high] % p != 0

    def evaluate_matrix(self, U: PadicMatrix) -> PadicMatrix:
        """f(U) for f = t^low g, as (t^low g mod chi_U)(U): one evaluation.

        Coefficients are base-ring scalars; the matrix may live in an
        unramified extension at the same (p, K).  By Cayley-Hamilton,
        t (t^(n-1) + c_(n-1) t^(n-2) + ... + c_1) = -c_0 mod chi_U, so a
        negative low takes t^-1 = -c_0^-1 (t^(n-1) + ... + c_1) mod chi_U and
        needs a unit c_0 = chi_U(0), as U^-1 does.
        """
        if (self.ring.p, self.ring.K) != (U.ring.p, U.ring.K):
            raise PrecisionMismatch(
                f"polynomial over {self.ring} evaluated on matrix over {U.ring}"
            )
        if not self.terms:
            return PadicMatrix.zeros(U.ring, U.n)
        dense, low = self.polynomial_part()
        if not low:
            return U.evaluate(dense)
        ring = U.ring
        g = [ring.rfrom_int(c) for c in dense]
        chi = U.char_poly_raw()
        if low > 0:
            return U.evaluate(ringpoly.rem(ring, [ring.zero] * low + g, chi))
        if not ring.runit(chi[0]):
            raise NotInvertible("determinant is not a unit")
        scale = ring.rneg(ring.rinv(chi[0]))
        inverse_t = [ring.rmul(scale, c) for c in chi[1:]]
        shift = ringpoly.pow_mod(ring, inverse_t, -low, chi)
        return U.evaluate(ringpoly.mulmod(ring, shift, g, chi))

    def __repr__(self):
        body = " + ".join(f"{c}*t^{e}" for e, c in sorted(self.terms.items())) or "0"
        return f"LaurentPoly({body} over {self.ring})"


class UnitPolynomial(LaurentPoly):
    """Laurent polynomial whose extreme coefficients are units.

    Over O_p this is equivalent to every root having norm 1, which is what
    makes the resultant/orthogonality calculus work.
    """

    def __init__(self, ring: Zp, terms: dict[int, int]):
        super().__init__(ring, terms)
        if not self.is_unit_polynomial():
            raise NotUnitary(
                "unit polynomial needs nonzero unit extreme coefficients"
            )


# -- Sylvester determinant and adjugate ----------------------------------------


def _det_and_adjugate_last_row(rows: list[list[int]], ring: Zp) -> tuple[int, list[int] | None]:
    """det S mod p^j, and the last row of adj S when det S is a unit.

    Only the last adjugate row is needed for the Bezout coefficients, and only
    for a unit resultant; for a non-unit det the row is None.  4 x 4 matrices
    (degrees 2 + 2 and 1 + 3, the bulk of an exhaustive degree <= 2 sweep) use
    unrolled cofactors; every other size goes through elimination.
    """
    if len(rows) != 4:
        return _elimination_det_and_adjugate_last_row(rows, ring)
    pk = ring.pk
    # unrolled cofactors along the last column
    (a0, a1, a2, _), (b0, b1, b2, _), (c0, c1, c2, _), (d0, d1, d2, _) = rows
    cd0 = c1 * d2 - c2 * d1
    cd1 = c0 * d2 - c2 * d0
    cd2 = c0 * d1 - c1 * d0
    bd0 = b1 * d2 - b2 * d1
    bd1 = b0 * d2 - b2 * d0
    bd2 = b0 * d1 - b1 * d0
    bc0 = b1 * c2 - b2 * c1
    bc1 = b0 * c2 - b2 * c0
    bc2 = b0 * c1 - b1 * c0
    last = [
        (-(b0 * cd0 - b1 * cd1 + b2 * cd2)) % pk,
        (a0 * cd0 - a1 * cd1 + a2 * cd2) % pk,
        (-(a0 * bd0 - a1 * bd1 + a2 * bd2)) % pk,
        (a0 * bc0 - a1 * bc1 + a2 * bc2) % pk,
    ]
    # cofactor expansion along the last column recovers the determinant
    det = sum(last[r] * rows[r][3] for r in range(4)) % pk
    return det, (last if det % ring.p else None)


def _elimination_det_and_adjugate_last_row(
    rows: list[list[int]], ring: Zp
) -> tuple[int, list[int] | None]:
    """Gaussian elimination on S^T | e_N over Z/p^j with least-valuation pivots.

    Each column's pivot p^v u has the least valuation in the column, so every
    entry x below it is p^v x' and x - (x' u^-1) p^v u = 0 exactly: the row
    operations are unimodular, a swap flips the sign, and det S is the signed
    product of the pivots (0 once a column is all zero).  For a unit det every
    pivot is a unit, and the last row of adj S = det S^-1 is det y with
    S^T y = e_N, solved by back substitution.
    """
    p, pk = ring.p, ring.pk
    n = len(rows)
    a = [[rows[r][c] % pk for r in range(n)] + [0] for c in range(n)]
    a[n - 1][n] = 1
    det, inverses = 1, []
    for c in range(n):
        best, best_v = -1, 0
        for r in range(c, n):
            x = a[r][c]
            if not x:
                continue
            v = 0
            while x % p == 0:
                x //= p
                v += 1
            if best < 0 or v < best_v:
                best, best_v = r, v
                if not v:
                    break
        if best < 0:
            return 0, None
        if best != c:
            a[c], a[best] = a[best], a[c]
            det = -det
        prow = a[c]
        pivot = prow[c]
        det = det * pivot % pk
        scale = p**best_v
        inv = pow(pivot // scale, -1, pk)
        inverses.append(inv)
        tail = prow[c + 1 :]
        for r in range(c + 1, n):
            row = a[r]
            x = row[c]
            if x:
                m = (x // scale) * inv % pk
                row[c + 1 :] = [(u - m * w) % pk for u, w in zip(row[c + 1 :], tail)]
    if det % p == 0:
        return det % pk, None
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        s = row[n] - sum(row[k] * y[k] for k in range(i + 1, n))
        y[i] = s * inverses[i] % pk
    det %= pk
    return det, [det * v % pk for v in y]


def _sylvester(fc: list[int], gc: list[int]) -> list[list[int]]:
    """Sylvester matrix; rows are shifted descending coefficient vectors."""
    m, n = len(fc) - 1, len(gc) - 1
    size = m + n
    rows = [[0] * size for _ in range(size)]
    fdesc = fc[::-1]
    gdesc = gc[::-1]
    for i in range(n):
        for k, c in enumerate(fdesc):
            rows[i][i + k] = c
    for i in range(m):
        for k, c in enumerate(gdesc):
            rows[n + i][i + k] = c
    return rows


def resultant(f: LaurentPoly, g: LaurentPoly) -> PadicScalar:
    """Sylvester determinant of the polynomial parts (Laurent shifts dropped)."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("resultant of the zero polynomial is undefined")
    ring = f.ring
    fc, _ = f.polynomial_part()
    gc, _ = g.polynomial_part()
    m, n = len(fc) - 1, len(gc) - 1
    if m == 0:
        return ring.scalar(pow(fc[0], n, ring.pk))
    if n == 0:
        return ring.scalar(pow(gc[0], m, ring.pk))
    return ring.scalar(_det_and_adjugate_last_row(_sylvester(fc, gc), ring)[0])


class OrthogonalityCertificate(NamedTuple):
    """Unit-resultant test with the Bezout pair k*f + l*g = res over Z/p^j."""

    orthogonal: bool
    res: PadicScalar
    bezout_k: LaurentPoly | None
    bezout_l: LaurentPoly | None
    shifts: tuple[int, int]

    def __bool__(self):
        return self.orthogonal


def orthogonality_test(f: LaurentPoly, g: LaurentPoly, j: int) -> OrthogonalityCertificate:
    """True iff res(f, g) is a unit; then k, l with k*f + l*g = res are attached.

    The pair comes from the adjugate row of the Sylvester matrix (the
    subresultant Bezout coefficients), computed exactly over Z/p^j.
    """
    ring_j = f.ring.at_precision(j)
    pj = ring_j.pk
    p = f.ring.p
    fc, kf = f.reduce(j).polynomial_part()
    gc, kg = g.reduce(j).polynomial_part()
    m, n = len(fc) - 1, len(gc) - 1
    if m == 0 or n == 0:
        res = ring_j.scalar(pow(fc[0], n, pj) if m == 0 else pow(gc[0], m, pj))
        if res.lift() % p == 0:
            return OrthogonalityCertificate(False, res, None, None, (kf, kg))
        # constant unit side: k or l is just the scaled inverse
        if m == 0:
            k = LaurentPoly.from_coeffs(ring_j, [(res.lift() * pow(fc[0], -1, pj)) % pj])
            l = LaurentPoly(ring_j, {})
        else:
            k = LaurentPoly(ring_j, {})
            l = LaurentPoly.from_coeffs(ring_j, [(res.lift() * pow(gc[0], -1, pj)) % pj])
    else:
        res_val, adj_last_row = _det_and_adjugate_last_row(_sylvester(fc, gc), ring_j)
        res = ring_j.scalar(res_val)
        if res_val % p == 0:
            return OrthogonalityCertificate(False, res, None, None, (kf, kg))
        # entries pair with rows of S: first n rows shift f, last m rows shift g;
        # row i of the f block contributes t^(n-1-i), similarly for g
        k = LaurentPoly(
            ring_j, {n - 1 - i: adj_last_row[i] for i in range(n)}
        )
        l = LaurentPoly(
            ring_j, {m - 1 - i: adj_last_row[n + i] for i in range(m)}
        )
    combo = fppoly.add(
        fppoly.mul(_dense_from_laurent(k), fc, pj),
        fppoly.mul(_dense_from_laurent(l), gc, pj),
        pj,
    )
    if combo != fppoly.trim([res.lift() % pj]):
        raise ArithmeticError("Bezout certificate failed self-check")
    return OrthogonalityCertificate(True, res, k, l, (kf, kg))


class BezoutIdempotents(NamedTuple):
    """P1 + P2 = 1 splitting of the quotient by (p^j, f*g)."""

    ring: Zp
    modulus: list[int]  # dense fg, unit leading coefficient
    f_dense: list[int]
    g_dense: list[int]
    p1: list[int]
    p2: list[int]
    certificate: OrthogonalityCertificate

    def verify(self) -> bool:
        """All six splitting properties, exactly mod (p^j, fg).

        The quotient ring is commutative, so the P2 statements are evaluated
        through P2 = 1 - P1 (exact list arithmetic on the same ring elements),
        and the resolution of the identity for arbitrary h follows from
        P1 + P2 = 1 by linearity; one monomial is spot-checked.
        """
        pj = self.ring.pk
        fg = self.modulus

        def qmul(a, b):
            prod = fppoly.mul(a, b, pj)
            if len(prod) >= len(fg):
                prod = fppoly.divmod_poly(prod, fg, pj)[1]
            return prod

        # reducing f and g first rejects a modulus with a non-unit leading
        # coefficient (ValueError from its inverse) before any check runs
        f = fppoly.divmod_poly(self.f_dense, fg, pj)[1]
        g = fppoly.divmod_poly(self.g_dense, fg, pj)[1]
        one = fppoly.divmod_poly([1], fg, pj)[1]  # [] when fg is a unit: the zero ring
        p1, p2 = self.p1, self.p2
        if fppoly.add(p1, p2, pj) != one:
            return False
        p1sq = qmul(p1, p1)
        if p1sq != p1:
            return False
        if qmul(p1, p2) != []:  # = P2 P1 in the commutative quotient
            return False
        # P2^2 = (1 - P1)^2 = 1 - 2 P1 + P1^2
        p2sq = fppoly.add(fppoly.sub(one, fppoly.add(p1, p1, pj), pj), p1sq, pj)
        if p2sq != p2:
            return False
        p1f = qmul(p1, f)
        if p1f != f or fppoly.sub(f, p1f, pj) != []:  # P1 f = f and P2 f = 0
            return False
        p1g = qmul(p1, g)
        if p1g != [] or fppoly.sub(g, p1g, pj) != g:  # P1 g = 0 and P2 g = g
            return False
        h = fppoly.divmod_poly([0, 1] if len(fg) > 2 else [1], fg, pj)[1]
        return fppoly.add(qmul(p1, h), qmul(p2, h), pj) == h


def bezout_idempotents(
    f: LaurentPoly,
    g: LaurentPoly,
    j: int,
    certificate: OrthogonalityCertificate | None = None,
) -> BezoutIdempotents:
    """Split the quotient by (p^j, f*g) as P1 + P2 = 1 with P1*P2 = 0.

    P1 = k*f/res and P2 = l*g/res reduced mod (p^j, fg); requires the
    resultant to be a unit.  Pass an already-computed certificate for (f, g, j)
    to skip recomputing it.
    """
    cert = certificate if certificate is not None else orthogonality_test(f, g, j)
    if not cert.orthogonal:
        raise NotOrthogonal(f"resultant {cert.res!r} is not a unit")
    ring_j = cert.res.ring
    pj = ring_j.pk
    fc, _ = f.reduce(j).polynomial_part()
    gc, _ = g.reduce(j).polynomial_part()
    fg = fppoly.mul(fc, gc, pj)
    inv_res = pow(cert.res.lift(), -1, pj)
    k_dense = _dense_from_laurent(cert.bezout_k)
    l_dense = _dense_from_laurent(cert.bezout_l)
    p1 = fppoly.scale(fppoly.mul(k_dense, fc, pj), inv_res, pj)
    p2 = fppoly.scale(fppoly.mul(l_dense, gc, pj), inv_res, pj)
    if len(p1) >= len(fg):
        p1 = fppoly.divmod_poly(p1, fg, pj)[1]
    if len(p2) >= len(fg):
        p2 = fppoly.divmod_poly(p2, fg, pj)[1]
    result = BezoutIdempotents(ring_j, fg, fc, gc, p1, p2, cert)
    if not result.verify():
        raise ArithmeticError("idempotent construction failed its audit")
    return result


def _dense_from_laurent(poly: LaurentPoly) -> list[int]:
    if poly.is_zero():
        return []
    dense, low = poly.polynomial_part()
    if low < 0:
        raise ValueError("negative exponents in dense conversion")
    return [0] * low + dense


# -- Hensel lifting of grouped factorizations ---------------------------------


def _hensel_pair(f, g0, h0, p, j):
    """Lift f = g0*h0 (mod p) to mod p^j with quadratic Newton iteration.

    f, g0, h0 monic; g0, h0 coprime mod p.  Each round doubles the precision
    and, unless it reached p^j, refreshes the Bezout cofactors s*g + t*h = 1
    for the next round: a step to p^(2k) needs them only mod p^k, so the
    last one is not refreshed (von zur Gathen and Gerhard, Modern Computer
    Algebra, Algorithm 15.10).
    """
    one, s, t = fppoly.ext_gcd(g0, h0, p)
    if one != [1]:
        raise ArithmeticError("factors are not coprime mod p")
    g, h = list(g0), list(h0)
    prec = 1
    while prec < j:
        prec = min(2 * prec, j)
        mod = p**prec
        f_mod = [v % mod for v in f]
        e = fppoly.sub(f_mod, fppoly.mul(g, h, mod), mod)
        _, r = fppoly.divmod_poly(fppoly.mul(t, e, mod), g, mod)
        g_new = fppoly.add(g, r, mod)
        h_new, rem = fppoly.divmod_poly(f_mod, g_new, mod)
        if rem:
            raise ArithmeticError("Hensel division left a nonzero remainder")
        if prec == j:
            return g_new, h_new
        # cofactor refresh: s*g + t*h = 1 at the new precision
        b = fppoly.sub(
            fppoly.add(fppoly.mul(s, g_new, mod), fppoly.mul(t, h_new, mod), mod), [1], mod
        )
        cq, _ = fppoly.divmod_poly(fppoly.mul(s, b, mod), h_new, mod)
        t_new = fppoly.sub(
            fppoly.sub(t, fppoly.mul(b, t, mod), mod), fppoly.mul(cq, g_new, mod), mod
        )
        # normalize degrees: t mod g, then s = (1 - t*h) / g exactly
        _, t_new = fppoly.divmod_poly(t_new, g_new, mod)
        s_new, srem = fppoly.divmod_poly(
            fppoly.sub([1], fppoly.mul(t_new, h_new, mod), mod), g_new, mod
        )
        if srem:
            raise ArithmeticError("cofactor refresh failed")
        g, h, s, t = g_new, h_new, s_new, t_new
    return g, h


def _hensel_lift_list(f, residue_factors, p, j):
    """Lift a pairwise-coprime monic factorization of f mod p to mod p^j."""
    if j == 1:
        return [list(r) for r in residue_factors]
    if len(residue_factors) == 1:
        return [[v % p**j for v in f]]
    half = len(residue_factors) // 2
    left = residue_factors[:half]
    right = residue_factors[half:]
    lres = left[0]
    for extra in left[1:]:
        lres = fppoly.mul(lres, extra, p)
    rres = right[0]
    for extra in right[1:]:
        rres = fppoly.mul(rres, extra, p)
    lf, rf = _hensel_pair(f, lres, rres, p, j)
    return _hensel_lift_list(lf, left, p, j) + _hensel_lift_list(rf, right, p, j)


class TeichFactorization(NamedTuple):
    """f = unit * t^shift * prod factors over Z/p^j, one factor per orbit."""

    ring: Zp
    unit: PadicScalar
    shift: int
    factors: dict[tuple[int, ...], list[int]]  # residue irreducible -> lifted factor

    def product(self) -> LaurentPoly:
        pj = self.ring.pk
        acc = [self.unit.lift() % pj]
        for factor in self.factors.values():
            acc = fppoly.mul(acc, factor, pj)
        return LaurentPoly.from_coeffs(self.ring, acc, low=self.shift)


def teich_factor(f: LaurentPoly, j: int, seed: int = fppoly.DEFAULT_SEED) -> TeichFactorization:
    """Group f by Teichmuller disc cluster and lift the grouped factorization.

    The reduction of f is factored over F_p; each distinct irreducible (one
    Frobenius orbit of residue roots) keeps its full multiplicity as a single
    grouped factor, the groups are pairwise coprime mod p, and Hensel lifting
    recovers the factorization exactly mod p^j.
    """
    if not f.is_unit_polynomial():
        raise NotUnitary("teich_factor needs a unit polynomial")
    ring_j = f.ring.at_precision(j)
    pj = ring_j.pk
    p = f.ring.p
    dense, shift = f.reduce(j).polynomial_part()
    lead = dense[-1]
    inv_lead = pow(lead, -1, pj)
    monic = [(v * inv_lead) % pj for v in dense]
    residue = [v % p for v in monic]
    _, residue_factors = fppoly.factor(residue, p, seed=seed)
    grouped = []
    labels = []
    for irr, mult in residue_factors:
        group = [1]
        for _ in range(mult):
            group = fppoly.mul(group, irr, p)
        grouped.append(group)
        labels.append(tuple(irr))
    lifted = _hensel_lift_list(monic, grouped, p, j)
    factors = dict(zip(labels, lifted))
    result = TeichFactorization(ring_j, ring_j.scalar(lead), shift, factors)
    if result.product() != f.reduce(j):
        raise ArithmeticError("teich_factor product audit failed")
    return result


# -- principal ideals, shift sums, volumes -------------------------------------


class PrincipalIdealIndex(NamedTuple("PrincipalIdealIndex", [("j", int), ("n", int)])):
    """Label (j, n) for the ideal generated by p^j and t^n - 1."""

    __slots__ = ()

    def __new__(cls, j: int, n: int):
        self = super().__new__(cls, j, n)
        if self.j < 1 or self.n < 1:
            raise ValueError("principal ideal index needs j >= 1 and n >= 1")
        return self

    @classmethod
    def _make(cls, fields):  # _replace builds through _make: validate there too
        return cls(*fields)


class PrincipalExponent(NamedTuple):
    """n = p^l * N with t^n - 1 in the ideal: U^n = I mod p^j."""

    n: int
    l: int
    N: int


def principal_exponent(arg, j: int) -> PrincipalExponent:
    """Least p^l * N with the reduction order N such that U^(p^l N) = I mod p^j.

    Accepts a unitary matrix or a unit polynomial (taken through its companion
    matrix).  l <= j - 1 always suffices because 1 + p M_n has exponent
    p^(j-1) for p >= 3.
    """
    if isinstance(arg, LaurentPoly):
        if not arg.is_unit_polynomial():
            raise NotUnitary("principal exponent needs a unit polynomial")
        dense, _ = arg.polynomial_part()
        ring = arg.ring
        inv_lead = pow(dense[-1], -1, ring.pk)
        monic = [(v * inv_lead) % ring.pk for v in dense]
        U = PadicMatrix.companion(ring, monic[:-1])
    elif isinstance(arg, PadicMatrix):
        U = arg
        if not U.is_unitary():
            raise NotUnitary("principal exponent needs a unitary matrix")
    else:
        raise TypeError("expected a unit polynomial or a unitary matrix")
    N = residue_matrix_order(U)
    reduced = U.reduce(j)
    p = reduced.ring.p
    identity = PadicMatrix.identity(reduced.ring, reduced.n)
    power = reduced.matrix_power(N)  # U^(p^l N), one p-th power per step
    for l in range(j + U.n + 2):
        if power == identity:
            return PrincipalExponent(p**l * N, l, N)
        power = power.matrix_power(p)
    raise ArithmeticError("principal exponent search failed; precision exhausted")


def ideal_lattice(n1: int, n2: int) -> tuple[int, int]:
    """Sum and intersection indexes of principal unit ideals: (gcd, lcm)."""
    if n1 < 1 or n2 < 1:
        raise ValueError("principal indexes must be >= 1")
    from math import gcd

    g = gcd(n1, n2)
    return g, n1 * n2 // g


def shift_sum(f: LaurentPoly, c: int, d: int) -> PadicScalar:
    """Sum of coefficients along the progression c + dZ."""
    if d == 0:
        raise ValueError("progression step d must be nonzero")
    d = abs(d)
    total = 0
    for e, coeff in f.terms.items():
        if (e - c) % d == 0:
            total += coeff
    return f.ring.scalar(total)


def project_mod(f: LaurentPoly, d: int) -> tuple[PadicScalar, ...]:
    """Image of f in O_p[t]/(t^d - 1): component c is the shift sum at c + dZ."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return tuple(shift_sum(f, c, d) for c in range(d))


def additivity_check(f: LaurentPoly, c: int, d: int, dstar: int) -> bool:
    """S_{c+dZ} equals the sum of its d* refinements."""
    if d < 1 or dstar < 1:
        raise ValueError("d and d* must be >= 1")
    total = f.ring.scalar(0)
    for cstar in range(1, dstar + 1):
        total = total + shift_sum(f, c + cstar * d, d * dstar)
    return total == shift_sum(f, c, d)


def haar_volume(c: int, d: int) -> Fraction:
    """Volume of the progression c + dZ in the profinite completion: 1/|d|."""
    if d == 0:
        raise ValueError("d must be nonzero")
    from fractions import Fraction

    return Fraction(1, abs(d))


def profinite_volume(quotient_order: int) -> Fraction:
    """Volume of an open normal subgroup with the given quotient order."""
    if quotient_order < 1:
        raise ValueError("quotient order must be >= 1")
    from fractions import Fraction

    return Fraction(1, quotient_order)
