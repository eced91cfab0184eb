"""Dense exact matrices over Z_p or an unramified extension at precision K.

Entries are stored as the rings' raw values (ints, or coefficient tuples),
so the inner loops run on plain integers; scalar objects only appear at the
API boundary.  Everything is exact modulo p^K: the characteristic polynomial
is computed division-free (Berkowitz), and the Smith form uses
minimal-valuation pivoting, which is enough over the local ring Z/p^j.

`PadicMatrix.evaluate` is the one functional calculus.  By Cayley-Hamilton a
Laurent polynomial f = t^low g of A is r(A) with r = t^low g mod chi_A, of
degree < n, and t^-1 mod chi_A is read off chi_A.  So A^e for any e, the
inverse and f(U) on the formal group each cost one char poly, at most one
polynomial power mod chi_A and at most n - 2 products, over Z_p and over an
extension ring alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import fppoly, ringpoly
from .errors import InputError, NotInvertible, PrecisionMismatch
from .scalars import AnyRing, PadicScalar, Zp

if TYPE_CHECKING:
    from fractions import Fraction


class Norm(NamedTuple):
    """Ultrametric size p^-val; val = K only means 'at most p^-K' at this precision."""

    p: int
    K: int
    val: int

    @property
    def at_floor(self) -> bool:
        return self.val >= self.K

    def value(self) -> Fraction:
        from fractions import Fraction

        return Fraction(1, self.p**self.val)

    # all six comparisons are by size: none may fall through to the tuple order
    def __eq__(self, other):
        return isinstance(other, Norm) and tuple(self) == tuple(other)

    def __ne__(self, other):
        return not self == other

    def __lt__(self, other):
        return self.val > other.val

    def __le__(self, other):
        return self.val >= other.val

    def __gt__(self, other):
        return self.val < other.val

    def __ge__(self, other):
        return self.val <= other.val

    def __str__(self):
        if self.at_floor:
            return f"<=1/{self.p**self.K}"
        if self.val == 0:
            return "1"
        return f"1/{self.p**self.val}"


class SeminormResult(NamedTuple):
    """Limit behavior of |A^k|^(1/k): exponent pair (val, k) means value p^(-val/k)."""

    p: int
    K: int
    is_zero: bool
    nilpotency_k: int | None
    best_k: int
    val: int

    def value(self) -> Fraction | float:
        from fractions import Fraction

        if self.is_zero:
            return Fraction(0)
        if self.val % self.best_k == 0:
            return Fraction(1, self.p ** (self.val // self.best_k))
        return float(self.p) ** (-self.val / self.best_k)


class PadicMatrix:
    """Immutable n x n matrix; unitary means unit determinant.

    Four slots are filled lazily and kept on the object, a memo per matrix
    rather than a cache keyed by value.  A matrix starts with all four empty.
    - `_chi`: the characteristic polynomial, filled by `char_poly_raw`, so
      the determinant, the inverse and every power share one Berkowitz run.
    - `_audited`: True once the pro-finite audit U^E = I has passed, set by
      `unitary._audit` (through `classify` and `spectral_decompose`).  A
      failed audit raises and is never recorded.
    - `_teich`: the Teichmuller part U_s = U^alpha, filled by
      `unitary._teichmuller_part` (through `classify` and `jordan_decompose`).
    - `_unipotent`: the continuous part U_n = U U_s^-1, filled only by
      `unitary.jordan_decompose`.
    `evaluate`, behind `matrix_power`, `inverse` and every f(A), reads
    `_chi` and fills nothing else: a memo per exponent would grow with every
    exponent a caller asks for.
    """

    __slots__ = ("ring", "n", "rows", "_chi", "_audited", "_teich", "_unipotent")

    def __init__(self, ring: AnyRing, rows):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        self.n = len(self.rows)
        self._chi = None
        self._audited = False
        self._teich = None
        self._unipotent = None
        for r in self.rows:
            if len(r) != self.n:
                raise InputError("matrix must be square")

    # -- construction ---------------------------------------------------
    @classmethod
    def from_rows(cls, ring: AnyRing, rows) -> "PadicMatrix":
        return cls(ring, [[ring.scalar(v).raw for v in row] for row in rows])

    @classmethod
    def identity(cls, ring: AnyRing, n: int) -> "PadicMatrix":
        z, o = ring.zero, ring.one
        return cls(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, ring: AnyRing, n: int) -> "PadicMatrix":
        z = ring.zero
        return cls(ring, [[z] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, ring: AnyRing, values) -> "PadicMatrix":
        raws = [ring.scalar(v).raw for v in values]
        z = ring.zero
        n = len(raws)
        return cls(ring, [[raws[i] if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def companion(cls, ring: AnyRing, monic_coeffs) -> "PadicMatrix":
        """Companion matrix of t^n + c_{n-1} t^{n-1} + ... + c_0 (ascending c, no lead)."""
        coeffs = [ring.scalar(c).raw for c in monic_coeffs]
        n = len(coeffs)
        z, o = ring.zero, ring.one
        rows = [[z] * n for _ in range(n)]
        for i in range(1, n):
            rows[i][i - 1] = o
        for i in range(n):
            rows[i][n - 1] = ring.rneg(coeffs[i])
        return cls(ring, rows)

    # -- basics -----------------------------------------------------------
    def _check(self, other: "PadicMatrix"):
        if self.ring != other.ring:
            raise PrecisionMismatch(f"{self.ring} vs {other.ring}")
        if self.n != other.n:
            raise InputError("dimension mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, PadicMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __add__(self, other):
        self._check(other)
        add = self.ring.radd
        return PadicMatrix(
            self.ring,
            [
                [add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other):
        self._check(other)
        sub = self.ring.rsub
        return PadicMatrix(
            self.ring,
            [
                [sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self):
        neg = self.ring.rneg
        return PadicMatrix(self.ring, [[neg(a) for a in row] for row in self.rows])

    def scale(self, c) -> "PadicMatrix":
        raw = self.ring.scalar(c).raw
        mul = self.ring.rmul
        return PadicMatrix(self.ring, [[mul(raw, a) for a in row] for row in self.rows])

    def __matmul__(self, other):
        self._check(other)
        return PadicMatrix(self.ring, _matmul(self.ring, self.rows, other.rows))

    def __mul__(self, other):
        if isinstance(other, PadicMatrix):
            return self.__matmul__(other)
        return self.scale(other)

    def apply(self, vector: Sequence) -> tuple:
        """Matrix-vector product; returns scalar objects."""
        raws = [self.ring.scalar(v).raw for v in vector]
        if len(raws) != self.n:
            raise InputError(f"a {self.n} x {self.n} matrix applied to a vector of length {len(raws)}")
        return tuple(PadicScalar(self.ring, _dot(self.ring, row, raws)) for row in self.rows)

    # -- norms ------------------------------------------------------------
    def min_valuation(self) -> int:
        return min(
            (self.ring.rval(v) for row in self.rows for v in row),
            default=self.ring.K,
        )

    def is_zero(self) -> bool:
        z = self.ring.zero
        return all(v == z for row in self.rows for v in row)

    def is_unitary(self) -> bool:
        """|U| = |U^-1| = 1: integral entries (always true here) and unit determinant."""
        return self.ring.runit(self._det_raw())

    # -- char poly / det / inverse -----------------------------------------
    def char_poly_raw(self) -> list:
        """Ascending coefficients of det(tI - A), as a new list on every call."""
        if self._chi is None:
            self._chi = tuple(self._berkowitz())
        return list(self._chi)

    def _berkowitz(self) -> list:
        """det(tI - A), computed division-free (Berkowitz)."""
        ring, rows, n = self.ring, self.rows, self.n
        if n == 0:
            return [ring.one]
        c = [ring.one]  # descending during the loop
        for r in range(1, n + 1):
            pivot = rows[r - 1][r - 1]
            row_part = rows[r - 1][: r - 1]
            col_part = [rows[i][r - 1] for i in range(r - 1)]
            q = [pivot]
            v = col_part
            for _ in range(1, r):
                q.append(_dot(ring, row_part, v))
                v = [
                    _dot(ring, rows[i][: r - 1], v) for i in range(r - 1)
                ]
            new_c = []
            for i in range(r + 1):
                acc = c[i] if i < len(c) else ring.zero
                for j in range(max(0, i - len(q)), i):
                    acc = ring.rsub(acc, ring.rmul(q[i - j - 1], c[j]))
                new_c.append(acc)
            c = new_c
        return list(reversed(c))

    def char_poly(self) -> list[PadicScalar]:
        return [PadicScalar(self.ring, v) for v in self.char_poly_raw()]

    def _det_raw(self):
        c0 = self.char_poly_raw()[0]
        return c0 if self.n % 2 == 0 else self.ring.rneg(c0)

    def det(self) -> PadicScalar:
        return PadicScalar(self.ring, self._det_raw())

    def inverse(self) -> "PadicMatrix":
        return self.evaluate(self._t_inverse())

    def _t_inverse(self) -> list:
        """t^-1 mod chi_A, raw and of degree n - 1; NotInvertible unless det A is a unit.

        By Cayley-Hamilton, t (t^(n-1) + c_(n-1) t^(n-2) + ... + c_1) = -c_0
        mod chi_A, and c_0 = chi_A(0) = +-det A, so t^-1 = -c_0^-1 (t^(n-1) + ... + c_1).
        """
        ring = self.ring
        chi = self.char_poly_raw()
        if not ring.runit(chi[0]):
            raise NotInvertible("determinant is not a unit")
        scale = ring.rneg(ring.rinv(chi[0]))
        return [ring.rmul(scale, c) for c in chi[1:]]

    def evaluate(self, coeffs, low: int = 0) -> "PadicMatrix":
        """f(A) for f = t^low g, g = c_0 + c_1 t + ... ascending; [] gives the zero matrix.

        A coefficient is an int or a raw value of A's ring.  Unless low = 0 or
        t^low g has degree < n, f is first replaced by t^low g mod chi_A
        (`_reduce_mod_chi`), and a negative low raises NotInvertible unless
        det A is a unit.  Horner then costs d - 1 matrix products at degree d
        (the first step is a scaling), each on raw rows with its coefficient
        added onto the diagonal of the product.
        """
        ring, n, rows = self.ring, self.n, self.rows
        coeffs = [ring.rfrom_int(c) if isinstance(c, int) else c for c in coeffs]
        if coeffs and low:
            if low < 0 or low + len(coeffs) > n:
                coeffs = self._reduce_mod_chi(coeffs, low)
            else:
                coeffs = [ring.zero] * low + coeffs
        if not coeffs:
            return PadicMatrix.zeros(ring, n)
        if len(coeffs) == 1:
            return PadicMatrix(ring, _plus_diagonal(ring, [[ring.zero] * n] * n, coeffs[0]))
        mul, top = ring.rmul, coeffs[-1]
        acc = _plus_diagonal(ring, [[mul(top, a) for a in row] for row in rows], coeffs[-2])
        for c in reversed(coeffs[:-2]):
            acc = _plus_diagonal(ring, _matmul(ring, acc, rows), c)
        return PadicMatrix(ring, acc)

    def _reduce_mod_chi(self, g: list, low: int) -> list:
        """t^low g mod chi_A for a nonzero low, on raw coefficients.

        t^|low| is a power of t, or of t^-1 for a negative low: `fppoly.pow_mod`
        over Z_p and `ringpoly.pow_mod` over an extension ring.  |low| = 1
        takes no power and g = 1 no product.
        """
        ring, chi, e = self.ring, self.char_poly_raw(), abs(low)
        t = [ring.zero, ring.one] if low > 0 else self._t_inverse()
        if isinstance(ring, Zp):
            pk = ring.pk
            power = t if e == 1 else fppoly.pow_mod(t, e, chi, pk)
            return power if g == [1] else fppoly.divmod_poly(fppoly.mul(power, g, pk), chi, pk)[1]
        power = t if e == 1 else ringpoly.pow_mod(ring, t, e, chi)
        return power if g == [ring.one] else ringpoly.mulmod(ring, power, g, chi)

    def matrix_power(self, e: int) -> "PadicMatrix":
        """A^e for an e of either sign: `evaluate` of t^e, one char poly for any e."""
        return self.evaluate([1], e)

    # -- precision / residue / Galois ---------------------------------------
    def reduce(self, j: int) -> "PadicMatrix":
        target = self.ring.at_precision(j)
        return PadicMatrix(
            target, [[self.ring.rreduce(v, j) for v in row] for row in self.rows]
        )

    def residue_rows(self) -> tuple:
        """Entries reduced into the residue field (ints for Zp, tuples otherwise)."""
        return tuple(
            tuple(self.ring.rresidue(v) for v in row) for row in self.rows
        )

    def frobenius_map(self) -> "PadicMatrix":
        frob = self.ring.rfrob
        return PadicMatrix(self.ring, [[frob(v) for v in row] for row in self.rows])

    # -- smith form ----------------------------------------------------------
    def smith_form(self, j: int | None = None) -> "SmithProfile":
        """Diagonalize over Z/p^j: L @ A @ R = diag(p^d_i) with unit transforms.

        Minimal-valuation pivoting works because Z/p^j is local: every entry
        of the remaining block is divisible by the pivot, so elimination is
        exact integer arithmetic.
        """
        ring = self.ring if j is None else self.ring.at_precision(j)
        j = ring.K
        p = ring.p
        n = self.n
        reduced = self if ring == self.ring else self.reduce(j)
        A = [list(row) for row in reduced.rows]
        L = [list(row) for row in PadicMatrix.identity(ring, n).rows]
        R = [list(row) for row in PadicMatrix.identity(ring, n).rows]
        divisors = [j] * n
        for k in range(n):
            pos, dmin = None, j
            for i in range(k, n):
                for jj in range(k, n):
                    v = ring.rval(A[i][jj])
                    if v < dmin:
                        dmin, pos = v, (i, jj)
                        if not v:
                            break
                if not dmin:
                    break  # a unit is the first strict minimum there can be
            if pos is None:
                break  # remaining block vanishes mod p^j
            divisors[k] = dmin
            i0, j0 = pos
            if i0 != k:
                A[i0], A[k] = A[k], A[i0]
                L[i0], L[k] = L[k], L[i0]
            if j0 != k:
                for row in A:
                    row[j0], row[k] = row[k], row[j0]
                for row in R:
                    row[j0], row[k] = row[k], row[j0]
            pd = p**dmin
            unit = _exact_div(ring, A[k][k], pd)
            inv_unit = ring.rinv(unit)
            A[k] = [ring.rmul(inv_unit, v) for v in A[k]]
            L[k] = [ring.rmul(inv_unit, v) for v in L[k]]
            for i in range(k + 1, n):
                if A[i][k] == ring.zero:
                    continue
                m = _exact_div(ring, A[i][k], pd)
                A[i] = [ring.rsub(a, ring.rmul(m, b)) for a, b in zip(A[i], A[k])]
                L[i] = [ring.rsub(a, ring.rmul(m, b)) for a, b in zip(L[i], L[k])]
            for jj in range(k + 1, n):
                if A[k][jj] == ring.zero:
                    continue
                m = _exact_div(ring, A[k][jj], pd)
                for row, rrow in zip(A, R):
                    row[jj] = ring.rsub(row[jj], ring.rmul(m, row[k]))
                    rrow[jj] = ring.rsub(rrow[jj], ring.rmul(m, rrow[k]))
        return SmithProfile(
            ring=ring,
            j=j,
            matrix=reduced,
            left=PadicMatrix(ring, L),
            right=PadicMatrix(ring, R),
            divisors=tuple(divisors),
        )

    # -- spectral seminorm ------------------------------------------------------
    def spectral_seminorm(self, k_max: int = 16) -> SeminormResult:
        """min over 1 <= k <= k_max of |A^k|^(1/k), with a nilpotency fast path."""
        if k_max < 1:
            raise InputError(f"k_max = {k_max} must be >= 1")
        ring = self.ring
        best_v, best_k = self.min_valuation(), 1
        power = self
        for k in range(1, k_max + 1):
            if k > 1:
                power = power @ self
            if power.is_zero():
                return SeminormResult(ring.p, ring.K, True, k, k, ring.K)
            v = power.min_valuation()
            if v * best_k > best_v * k:  # v/k > best_v/best_k
                best_v, best_k = v, k
        return SeminormResult(ring.p, ring.K, False, None, best_k, best_v)

    def __repr__(self):
        return f"PadicMatrix({self.n}x{self.n} over {self.ring})"


def _dot(ring, xs, ys):
    acc = ring.zero
    for a, b in zip(xs, ys):
        acc = ring.radd(acc, ring.rmul(a, b))
    return acc


def _plus_diagonal(ring, rows, c) -> list:
    """Raw rows + c I, as new lists."""
    out = [list(row) for row in rows]
    for i, row in enumerate(out):
        row[i] = ring.radd(row[i], c)
    return out


def _matmul(ring, A, B):
    Bt = list(zip(*B))
    if isinstance(ring, Zp):
        pk = ring.pk
        return tuple(
            tuple(sum(a * b for a, b in zip(row, col)) % pk for col in Bt) for row in A
        )
    return tuple(tuple(_dot(ring, row, col) for col in Bt) for row in A)


def _exact_div(ring, value, pd: int):
    """Divide a raw value by p^d; every coordinate is divisible by construction."""
    if pd == 1:
        return value
    if isinstance(ring, Zp):
        if value % pd:
            raise ArithmeticError("inexact division in smith elimination")
        return value // pd
    if any(c % pd for c in value):
        raise ArithmeticError("inexact division in smith elimination")
    return tuple(c // pd for c in value)


class SmithProfile(NamedTuple):
    """left @ matrix @ right = diag(p^divisors) exactly over Z/p^j."""

    ring: AnyRing
    j: int
    matrix: PadicMatrix
    left: PadicMatrix
    right: PadicMatrix
    divisors: tuple[int, ...]

    def diagonal(self) -> PadicMatrix:
        p = self.ring.p
        return PadicMatrix.diagonal(
            self.ring, [p**d if d < self.j else 0 for d in self.divisors]
        )

    def verify(self) -> bool:
        return (
            self.left @ self.matrix @ self.right == self.diagonal()
            and self.left.is_unitary()
            and self.right.is_unitary()
            and list(self.divisors) == sorted(self.divisors)
        )

    def kernel_basis(self) -> list[tuple]:
        """Generators of ker(A) on (Z/p^j)^n: p^(j-d) * (column of right) per d > 0."""
        p, j = self.ring.p, self.j
        out = []
        for i, d in enumerate(self.divisors):
            if d > 0:
                col = [self.right.rows[r][i] for r in range(self.matrix.n)]
                scalef = p ** (j - d)
                out.append(
                    tuple(
                        PadicScalar(self.ring, self.ring.rmul(self.ring.rfrom_int(scalef), v))
                        for v in col
                    )
                )
        return out

    def kernel_dimension(self) -> int:
        return sum(1 for d in self.divisors if d > 0)


def vector_norm(ring: AnyRing, vector: Sequence) -> Norm:
    raws = [ring.scalar(v).raw for v in vector]
    val = min((ring.rval(v) for v in raws), default=ring.K)
    return Norm(ring.p, ring.K, val)


def orbit_polynomial(ring: Zp, modulus, y) -> list[int]:
    """prod (t - sigma^i(y)) for y in the unramified ring Z/p^K[X]/(modulus).

    modulus is monic of degree m and y a coefficient list on 1, X, ..., X^(m-1).
    The product over the Frobenius orbit is the characteristic polynomial of
    multiplication by y, so it comes out of Berkowitz with Galois-fixed
    (integer) coefficients.  For a Teichmuller y the conjugates are y^(p^i).
    """
    pk, m = ring.pk, len(modulus) - 1
    column = [c % pk for c in y] + [0] * (m - len(y))
    columns = []
    for _ in range(m):
        columns.append(column)
        top = column[-1]  # X * column, reduced by the monic modulus
        column = [(-top * modulus[0]) % pk] + [
            (column[i - 1] - top * modulus[i]) % pk for i in range(1, m)
        ]
    return PadicMatrix(ring, list(zip(*columns))).char_poly_raw()


def residue_matrix_order(U: PadicMatrix) -> int:
    """Multiplicative order of the reduction of U in GL_n over the residue field.

    Found by factoring the (small) group order through its q^k - 1 pieces and
    descending through divisors, so no power enumeration is needed.
    """
    from .arith import factorize, merge_factorizations, unipotent_depth

    n = U.n
    reduced = U.reduce(1)
    if not reduced.is_unitary():
        raise NotInvertible("matrix is singular modulo p")
    q = U.ring.residue_cardinality
    exponent_fac: dict[int, int] = {}
    for k in range(1, n + 1):
        exponent_fac = merge_factorizations(exponent_fac, factorize(q**k - 1))
    # p-part of the exponent: unipotent order is p^ceil(log_p n)
    a = unipotent_depth(n, U.ring.p)
    if a:
        exponent_fac = merge_factorizations(exponent_fac, {U.ring.p: a})
    order = 1
    for prime, e in exponent_fac.items():
        order *= prime**e
    identity = PadicMatrix.identity(reduced.ring, n)
    for prime in exponent_fac:
        while order % prime == 0 and reduced.matrix_power(order // prime) == identity:
            order //= prime
    return order
