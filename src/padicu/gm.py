"""Unit polynomials on the multiplicative formal group and their splittings.

Laurent polynomials with O_p coefficients carry the spectral bookkeeping:
orthogonality of two unit polynomials is a unit resultant, splitting
idempotents come from the Bezout identity, and grouped factorizations lift
from the residue field by quadratic Hensel iteration with one cofactor,
refreshed by Newton's inverse iteration.  Shift sums realize the
coefficient functionals picked out by reduction modulo t^d - 1.

Laurent units t^k are factored out before any resultant or quotient-ring
computation; t is invertible, so the ideals do not change.  The certificates
record the shifts.

A resultant eliminates the multiplication matrix of the quotient by whichever
of f, g has a unit lead, through the library's one elimination over Z/p^j,
`matrices._det_and_solve`: at degrees 256 + 256 and j = K = 10 that took
0.9 s (p = 3) to 3.3 s (p = 1000003) in process on an Intel Xeon, Python 3.11.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from . import fppoly
from .arith import padic_valuation
from .errors import (
    InputError, NonUnitLead, NotOrthogonal, NotUnitary, PrecisionMismatch, ZeroPolynomial,
)
from .matrices import PadicMatrix, _det_and_solve, _exact_order, residue_matrix_order
from .scalars import PadicScalar, Zp

if TYPE_CHECKING:
    from fractions import Fraction


class LaurentPoly:
    """Finitely supported sum of a_e t^e with coefficients exact mod p^K.

    Stored densely: `coeffs[i]` is the coefficient of t^(low + i), reduced
    into [0, p^K), and the first and last entries are nonzero; the zero
    polynomial has `coeffs == []`.  The list is shared, never mutated, so
    `polynomial_part` hands it out without a copy.  `terms` is a derived
    read-only mapping of the nonzero coefficients.
    """

    __slots__ = ("ring", "coeffs", "_low")

    def __init__(self, ring: Zp, terms: dict[int, int]):
        pk = ring.pk
        nonzero = {e: c % pk for e, c in terms.items() if c % pk}
        low = min(nonzero, default=0)
        coeffs = [0] * (max(nonzero) - low + 1) if nonzero else []
        for e, c in nonzero.items():
            coeffs[e - low] = c
        self._store(ring, coeffs, low)

    def _store(self, ring: Zp, coeffs: list[int], low: int) -> None:
        """Take coefficients already reduced mod p^K; zero ends are cut in place."""
        fppoly.trim(coeffs)
        start = next((i for i, c in enumerate(coeffs) if c), 0)
        del coeffs[:start]
        self.ring, self.coeffs, self._low = ring, coeffs, low + start if coeffs else 0

    @classmethod
    def _reduced(cls, ring: Zp, coeffs: list[int], low: int) -> "LaurentPoly":
        self = cls.__new__(cls)
        self._store(ring, coeffs, low)
        return self

    @classmethod
    def from_coeffs(cls, ring: Zp, coeffs, low: int = 0) -> "LaurentPoly":
        pk = ring.pk
        return cls._reduced(ring, [int(c) % pk for c in coeffs], low)

    @property
    def terms(self) -> MappingProxyType:
        return MappingProxyType({self._low + i: c for i, c in enumerate(self.coeffs) if c})

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def low(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no degree")
        return self._low

    @property
    def high(self) -> int:
        return self.low + len(self.coeffs) - 1

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly._reduced(self.ring, self.coeffs, self._low + k)

    def _aligned(self, other: "LaurentPoly", op) -> "LaurentPoly":
        """op (fppoly.add or sub) on both coefficient lists, padded to the lower low."""
        low = min(self._low, other._low)
        a = [0] * (self._low - low) + self.coeffs
        b = [0] * (other._low - low) + other.coeffs
        return LaurentPoly._reduced(self.ring, op(a, b, self.ring.pk), low)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._aligned(other, fppoly.add)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._aligned(other, fppoly.sub)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        prod = fppoly.mul(self.coeffs, other.coeffs, self.ring.pk)
        return LaurentPoly._reduced(self.ring, prod, self._low + other._low)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and (self.ring, self._low, self.coeffs) == (
            other.ring, other._low, other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self._low, tuple(self.coeffs)))

    def reduce(self, j: int) -> "LaurentPoly":
        if j == self.ring.K:
            return self
        ring_j = self.ring.at_precision(j)
        pj = ring_j.pk
        return LaurentPoly._reduced(ring_j, [c % pj for c in self.coeffs], self._low)

    def polynomial_part(self) -> tuple[list[int], int]:
        """Return (ascending dense coefficients, shift) with f = t^shift * poly; not a copy."""
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial")
        return self.coeffs, self._low

    def coeffs_from_zero(self) -> list[int]:
        """Ascending coefficients from t^0, for a polynomial without negative exponents."""
        if self._low < 0:
            raise ValueError("negative exponents in dense conversion")
        return [0] * self._low + self.coeffs

    def is_unit_polynomial(self) -> bool:
        p = self.ring.p
        return bool(self.coeffs) and self.coeffs[0] % p != 0 and self.coeffs[-1] % p != 0

    def evaluate_matrix(self, U: PadicMatrix) -> PadicMatrix:
        """f(U) for f = t^low g by `PadicMatrix.evaluate`; a negative low needs U^-1.

        Coefficients are base-ring scalars; the matrix may live in an
        unramified extension at the same (p, K).
        """
        if (self.ring.p, self.ring.K) != (U.ring.p, U.ring.K):
            raise PrecisionMismatch(
                f"polynomial over {self.ring} evaluated on matrix over {U.ring}"
            )
        return U.evaluate(self.coeffs, self._low)

    def __repr__(self):
        body = " + ".join(f"{c}*t^{e}" for e, c in self.terms.items()) or "0"
        return f"LaurentPoly({body} over {self.ring})"


class UnitPolynomial(LaurentPoly):
    """Laurent polynomial whose extreme coefficients are units.

    Over O_p this is equivalent to every root having norm 1, which is what
    makes the resultant/orthogonality calculus work.
    """

    __slots__ = ()

    def _store(self, ring: Zp, coeffs: list[int], low: int) -> None:
        super()._store(ring, coeffs, low)
        if not self.is_unit_polynomial():
            raise NotUnitary("unit polynomial needs nonzero unit extreme coefficients")


# -- resultants and Bezout pairs ----------------------------------------------


def _sylvester(fc: list[int], gc: list[int]) -> list[list[int]]:
    """Sylvester matrix; rows are shifted descending coefficient vectors."""
    m, n = len(fc) - 1, len(gc) - 1
    fdesc, gdesc = fc[::-1], gc[::-1]
    return [[0] * i + fdesc + [0] * (n - 1 - i) for i in range(n)] + [
        [0] * i + gdesc + [0] * (m - 1 - i) for i in range(m)
    ]


def resultant(f: LaurentPoly, g: LaurentPoly) -> PadicScalar:
    """res(f, g) of the polynomial parts (Laurent shifts dropped) mod p^K."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("resultant of the zero polynomial is undefined")
    return orthogonality_test(f, g, f.ring.K).res


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

    Degrees m = deg f, n = deg g are taken mod p^j; a is f if lc(f) is a
    unit, else g, and b is the other.  res(a, b) = lc(a)^deg b * det M_b for
    M_b multiplication by b on (Z/p^j)[t]/(a), and res(f, g) = (-1)^(mn)
    res(g, f) (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 6).
    For a unit res, b's coefficient is res * b^-1 mod a and a's the exact
    quotient by a of what is left of res; the Sylvester matrix is then
    invertible, so this is the one pair with deg k < n and deg l < m.  With
    neither lead a unit, the first Sylvester column is 0 mod p and res, its
    determinant, is not a unit.  Two constants have res = 1 (the empty
    determinant) and are orthogonal only when one of them is a unit.
    """
    ring_j = f.ring.at_precision(j)
    pj, p = ring_j.pk, ring_j.p
    fc, kf = f.reduce(j).polynomial_part()
    gc, kg = g.reduce(j).polynomial_part()
    swap = fc[-1] % p == 0
    a, b = (gc, fc) if swap else (fc, gc)
    if a[-1] % p == 0:  # not orthogonal, also for two constants with res = 1
        res_val, solution = _det_and_solve(ring_j, _sylvester(fc, gc), [])[0], None
    else:
        e0 = [int(r == 0) for r in range(len(a) - 1)]
        det, solution = _det_and_solve(ring_j, zip(*fppoly.mul_columns(a, b, pj)), [e0])
        sign = -1 if swap and (len(fc) - 1) * (len(gc) - 1) % 2 else 1
        res_val = sign * pow(a[-1], len(b) - 1, pj) * det % pj
    if solution is None:
        return OrthogonalityCertificate(False, ring_j.scalar(res_val), None, None, (kf, kg))
    b_coeff = fppoly.scale(solution[0], res_val, pj)  # res * b^-1 mod a
    a_coeff = fppoly.divmod_poly(fppoly.sub([res_val], fppoly.mul(b_coeff, b, pj), pj), a, pj)[0]
    k_dense, l_dense = (b_coeff, a_coeff) if swap else (a_coeff, b_coeff)
    combo = fppoly.add(fppoly.mul(k_dense, fc, pj), fppoly.mul(l_dense, gc, pj), pj)
    if combo != [res_val]:
        raise ArithmeticError("Bezout certificate failed self-check")
    k = LaurentPoly._reduced(ring_j, k_dense, 0)
    l = LaurentPoly._reduced(ring_j, l_dense, 0)
    return OrthogonalityCertificate(True, ring_j.scalar(res_val), k, l, (kf, kg))


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
        """All six splitting properties, exactly mod (p^j, fg), from three congruences.

        The record must hold its own structure: the modulus is f*g and P1 is
        stored reduced.  Then the audit checks P1 + P2 = 1 (as P2 = 1 - P1,
        which also makes P2 reduced), P1*g = 0 and P2*f = 0 mod (p^j, fg).
        The six properties follow:

        - fg has a unit lead, so f and g are nonzero mod p.  By McCoy's
          theorem they are then not zero divisors in (Z/p^j)[t].
        - P1*g = q*fg gives g*(P1 - q*f) = 0, so P1 = q*f lies in (f);
          likewise P2*f = 0 puts P2 in (g).
        - So P1*P2 lies in (fg) = 0, and P1 + P2 = 1 gives P1^2 = P1,
          P2^2 = P2, P1*f = f, P2*f = 0, P1*g = 0, P2*g = g and
          h = P1*h + P2*h for every h.

        The Bezout certificate is not used: orthogonality_test checked
        k*f + l*g = res when it made it.  Reducing 1 comes first, so a modulus
        with a non-unit lead raises ValueError before any check.
        """
        pj, fg, p1 = self.ring.pk, self.modulus, self.p1

        def rem(a):
            return fppoly.divmod_poly(a, fg, pj)[1]

        one = rem([1])  # [] when fg is a unit: the zero ring
        if fppoly.mul(self.f_dense, self.g_dense, pj) != fg or rem(p1) != p1:
            return False
        return (
            fppoly.sub(one, p1, pj) == self.p2
            and not rem(fppoly.mul(p1, self.g_dense, pj))
            and not rem(fppoly.mul(self.p2, self.f_dense, pj))
        )


def bezout_idempotents(f: LaurentPoly, g: LaurentPoly, j: int) -> BezoutIdempotents:
    """Split the quotient by (p^j, f*g) as P1 + P2 = 1 with P1*P2 = 0.

    P1 = k*f/res reduced mod (p^j, fg), and P2 = 1 - P1, which is l*g/res
    because k*f + l*g = res; requires the resultant to be a unit.
    """
    cert = orthogonality_test(f, g, j)
    if not cert.orthogonal:
        raise NotOrthogonal(f"resultant {cert.res!r} is not a unit")
    ring_j = cert.res.ring
    pj = ring_j.pk
    fc, _ = f.reduce(j).polynomial_part()
    gc, _ = g.reduce(j).polynomial_part()
    fg = fppoly.mul(fc, gc, pj)
    if fg[-1] % ring_j.p == 0:
        raise NonUnitLead(
            f"f*g has a non-unit leading coefficient ({fg[-1]} mod {ring_j.p}^{j}), "
            "so the quotient by (p^j, fg) cannot be reduced by division"
        )
    inv_res = pow(cert.res.lift(), -1, pj)
    kf = fppoly.mul(cert.bezout_k.coeffs_from_zero(), fc, pj)
    p1 = fppoly.divmod_poly(fppoly.scale(kf, inv_res, pj), fg, pj)[1]
    p2 = fppoly.sub(fppoly.divmod_poly([1], fg, pj)[1], p1, pj)
    result = BezoutIdempotents(ring_j, fg, fc, gc, p1, p2, cert)
    if not result.verify():
        raise ArithmeticError("idempotent construction failed its audit")
    return result


# -- Hensel lifting of grouped factorizations ---------------------------------


def _hensel_pair(f, g0, h0, p, j):
    """Lift f = g0*h0 (mod p) to mod p^j, doubling the precision each round.

    f, g0, h0 monic; g0, h0 coprime mod p.  One cofactor t with t*h = 1 mod
    (g, p^k) is kept: with e = f - g*h = 0 mod p^k, g' = g + (t*e mod g) is
    the lift mod p^2k, and h' = f / g' exactly.  Before the next round t is
    refreshed by Newton's inverse iteration t <- t*(2 - t*h') mod g': g' = g
    and h' = h mod p^k, so t*h' = 1 + eps mod g' with eps = 0 mod p^k, and
    the new t has t*h' = 1 - eps^2 = 1 mod (g', p^2k) (von zur Gathen and Gerhard, Modern Computer Algebra,
    Algorithm 15.10 and section 9.1).  The zero remainder of f / g' certifies
    each round whatever t is: g' = g mod p^k lifts g0, and a monic divisor of
    monic f mod p^k that lifts g0, coprime to f / g0 mod p, is unique.
    """
    one, _, t = fppoly.ext_gcd(g0, h0, p)
    if one != [1]:
        raise ArithmeticError("factors are not coprime mod p")
    g, h = list(g0), list(h0)
    prec = 1
    while prec < j:
        prec = min(2 * prec, j)
        mod = p**prec
        f_mod = [v % mod for v in f]
        e = fppoly.sub(f_mod, fppoly.mul(g, h, mod), mod)
        g = fppoly.add(g, fppoly.divmod_poly(fppoly.mul(t, e, mod), g, mod)[1], mod)
        h, rem = fppoly.divmod_poly(f_mod, g, mod)
        if rem:
            raise ArithmeticError("Hensel division left a nonzero remainder")
        if prec < j:
            th = fppoly.divmod_poly(fppoly.mul(t, fppoly.divmod_poly(h, g, mod)[1], mod), g, mod)[1]
            t = fppoly.divmod_poly(fppoly.mul(t, fppoly.sub([2], th, mod), mod), g, mod)[1]
    return g, h


def _hensel_lift_list(f, residue_factors, p, j):
    """Lift a pairwise-coprime monic factorization of f mod p to mod p^j; f = 1 has none."""
    if j == 1 or not residue_factors:
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


def teich_factor(f: LaurentPoly, j: int) -> TeichFactorization:
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
    monic = fppoly.monic(dense, pj)
    residue = [v % p for v in monic]
    _, residue_factors = fppoly.factor(residue, p)
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
    result = TeichFactorization(ring_j, ring_j.scalar(dense[-1]), shift, factors)
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
            raise InputError("principal ideal index needs j >= 1 and n >= 1")
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
    matrix).  n is the exact order of U mod p^j: U^N = I mod p, and the kernel
    of reduction mod p is a p-group, so n = p^l * N.
    """
    if isinstance(arg, LaurentPoly):
        if not arg.is_unit_polynomial():
            raise NotUnitary("principal exponent needs a unit polynomial")
        dense, _ = arg.polynomial_part()
        U = PadicMatrix.companion(arg.ring, fppoly.monic(dense, arg.ring.pk)[:-1])
    elif isinstance(arg, PadicMatrix):
        U = arg
        if not U.is_unitary():
            raise NotUnitary("principal exponent needs a unitary matrix")
    else:
        raise TypeError("expected a unit polynomial or a unitary matrix")
    N = residue_matrix_order(U)
    n = N if j == 1 else _exact_order(U.reduce(j))
    return PrincipalExponent(n, padic_valuation(n // N, U.ring.p, n), N)


def ideal_lattice(n1: int, n2: int) -> tuple[int, int]:
    """Sum and intersection indexes of principal unit ideals: (gcd, lcm)."""
    if n1 < 1 or n2 < 1:
        raise InputError("principal indexes must be >= 1")
    from math import gcd

    g = gcd(n1, n2)
    return g, n1 * n2 // g


def shift_sum(f: LaurentPoly, c: int, d: int) -> PadicScalar:
    """Sum of coefficients along the progression c + dZ."""
    if d == 0:
        raise InputError("progression step d must be nonzero")
    d = abs(d)
    return f.ring.scalar(sum(f.coeffs[(c - f._low) % d :: d]))


def project_mod(f: LaurentPoly, d: int) -> tuple[PadicScalar, ...]:
    """Image of f in O_p[t]/(t^d - 1): component c is the shift sum at c + dZ."""
    if d < 1:
        raise InputError("d must be >= 1")
    return tuple(shift_sum(f, c, d) for c in range(d))


def additivity_check(f: LaurentPoly, c: int, d: int, dstar: int) -> bool:
    """S_{c+dZ} equals the sum of its d* refinements."""
    if d < 1 or dstar < 1:
        raise InputError("d and d* must be >= 1")
    total = f.ring.scalar(0)
    for cstar in range(1, dstar + 1):
        total = total + shift_sum(f, c + cstar * d, d * dstar)
    return total == shift_sum(f, c, d)


def haar_volume(c: int, d: int) -> Fraction:
    """Volume of the progression c + dZ in the profinite completion: 1/|d|."""
    if d == 0:
        raise InputError("d must be nonzero")
    from fractions import Fraction

    return Fraction(1, abs(d))


def profinite_volume(quotient_order: int) -> Fraction:
    """Volume of an open normal subgroup with the given quotient order."""
    if quotient_order < 1:
        raise InputError("quotient order must be >= 1")
    from fractions import Fraction

    return Fraction(1, quotient_order)
