"""Dense exact matrices over Z_p or an unramified extension at precision K.

Entries are stored as the rings' raw values (ints, or coefficient tuples),
so the inner loops run on plain integers; scalar objects only appear at the
API boundary.  There is one matrix product, over Z_p: `_matmul` packs each
row of B into one int, `evaluate` packs A once for all of its Horner
products, and the packed format (`_pack`, `_unpack`) serves
`_linear_combination` and the spectral audit (`unitary.SpectralDatum.verify`)
too.  Everything is exact modulo p^K: the characteristic polynomial is
computed division-free (Berkowitz), and the Smith form uses minimal-valuation
pivoting, which is enough over the local ring Z/p^j.

`PadicMatrix.evaluate` is the one functional calculus.  By Cayley-Hamilton a
Laurent polynomial f = t^low g of A is r(A) with r = t^low g mod chi_A, of
degree < n, and t^-1 mod chi_A is read off chi_A.  So over Z_p, A^e for any e
and f(U) on the formal group each cost one char poly, at most one polynomial
power mod chi_A and at most n - 2 products.  Over an extension ring of degree
m, restriction of scalars R: M_n(O) -> M_nm(Z/p^K) (`_restrict`) is a unital
injective ring homomorphism, so A B, every f(A) and A^-1 are read back
(`_extend`) from R(A) over Z_p, and the audit U^E = I and U_s = U^alpha of
the Jordan split come from R(U) in one routine, `_jordan`, for both ring
kinds: the two exponents share one power of t, and no U_s is returned
unaudited.  The inverse alone is not a polynomial in A here: it is
`_det_and_solve` on [A | I], O(n^3) ring operations against the O(n^4) of a
char poly and its Horner products.  `_det_and_solve` is the one elimination
over Z/p^K: it also gives `gm.orthogonality_test` its determinants and
M^-1 e_0.
"""

from __future__ import annotations

import math
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import fppoly
from .arith import factorize, teichmuller_exponent
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

    `PadicMatrix(ring, rows)` takes n rows of n entries, each an int, a raw
    value or a scalar of `ring`, and reduces each through `ring.rcoerce`, the
    reducer behind `ring.scalar`, so a Z_p raw lies in [0, p^K) whichever
    residue was written: a packed Z_p product's slots hold no sign and no
    carry.  A non-square shape raises InputError.  The library's kernels
    hold reduced rows already and build through `_of`, which stores its
    tuple rows with no copy and no check.

    Three slots are filled lazily and kept on the object, a memo per matrix
    rather than a cache keyed by value.  A matrix starts with all three empty.
    This module fills the first two, `unitary` the last.
    - `_chi`: the characteristic polynomial, filled by `char_poly_raw`, so
      the determinant and every Z_p power share one Berkowitz run (an
      extension-ring power reads R(A)'s).  `inverse` eliminates and does not read it.
    - `_jordan`: (alpha, E, the residue degrees, U_s = U^alpha), filled by
      `_jordan` only once the pro-finite audit U^E = I has passed; a failed
      audit raises and is never recorded.  `classify`, `jordan_decompose`,
      `spectral_decompose`, `galois_act`, `power_zp` and `_exact_order`
      (behind `residue_matrix_order` and `gm.principal_exponent`) read it.
    - `_unipotent`: the continuous part U_n = U U_s^-1, filled only by
      `unitary.jordan_decompose`.
    `evaluate`, behind `matrix_power` and every f(A), reads `_chi` and fills
    nothing else: a memo per exponent would grow with every exponent a
    caller asks for.  `reduce(K)` is the matrix itself, with its slots.
    """

    __slots__ = ("ring", "n", "rows", "_chi", "_jordan", "_unipotent")

    def __init__(self, ring: AnyRing, rows):
        coerce = ring.rcoerce
        rows = tuple(tuple(map(coerce, row)) for row in rows)
        if any(len(row) != len(rows) for row in rows):
            raise InputError("matrix must be square")
        self._fill(ring, rows)

    # -- construction ---------------------------------------------------
    @classmethod
    def _of(cls, ring: AnyRing, rows: tuple) -> "PadicMatrix":
        """The matrix on a kernel's rows: n tuples of n reduced raw values, kept as given."""
        self = cls.__new__(cls)
        self._fill(ring, rows)
        return self

    def _fill(self, ring: AnyRing, rows: tuple) -> None:
        self.ring, self.rows, self.n = ring, rows, len(rows)
        self._chi = self._jordan = self._unipotent = None

    @classmethod
    def identity(cls, ring: AnyRing, n: int) -> "PadicMatrix":
        z, o = ring.zero, ring.one
        return cls._of(ring, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, ring: AnyRing, n: int) -> "PadicMatrix":
        return cls._of(ring, ((ring.zero,) * n,) * n)

    @classmethod
    def diagonal(cls, ring: AnyRing, values) -> "PadicMatrix":
        values = list(values)
        n = len(values)
        return cls(ring, [[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def companion(cls, ring: AnyRing, monic_coeffs) -> "PadicMatrix":
        """Companion matrix of t^n + c_{n-1} t^{n-1} + ... + c_0 (ascending c, no lead)."""
        coeffs = [ring.rcoerce(c) for c in monic_coeffs]
        n = len(coeffs)
        z, o = ring.zero, ring.one
        rows = [[z] * n for _ in range(n)]
        for i in range(1, n):
            rows[i][i - 1] = o
        for i in range(n):
            rows[i][n - 1] = ring.rneg(coeffs[i])
        return cls._of(ring, tuple(map(tuple, rows)))

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
        return PadicMatrix._of(
            self.ring, tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __sub__(self, other):
        self._check(other)
        sub = self.ring.rsub
        return PadicMatrix._of(
            self.ring, tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __neg__(self):
        neg = self.ring.rneg
        return PadicMatrix._of(self.ring, tuple(tuple(map(neg, row)) for row in self.rows))

    def scale(self, c) -> "PadicMatrix":
        raw = self.ring.rcoerce(c)
        mul = self.ring.rmul
        rows = tuple(tuple(mul(raw, a) for a in row) for row in self.rows)
        return PadicMatrix._of(self.ring, rows)

    def __matmul__(self, other):
        """A B; over an extension ring read back from R(A) R(B) (`_restrict`)."""
        self._check(other)
        ring = self.ring
        if not isinstance(ring, Zp):
            return _extend(ring, _restrict(self) @ _restrict(other))
        return PadicMatrix._of(ring, _matmul(ring, self.rows, other.rows))

    def __mul__(self, other):
        if isinstance(other, PadicMatrix):
            return self.__matmul__(other)
        return self.scale(other)

    def apply(self, vector: Sequence) -> tuple:
        """Matrix-vector product; returns scalar objects."""
        raws = [self.ring.rcoerce(v) for v in vector]
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
                v = [_dot(ring, rows[i][: r - 1], v) for i in range(r - 1)]
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
        """A^-1; NotInvertible unless det A is a unit.

        Over Z_p, `_det_and_solve` on [A | I] (I's rows are its columns)
        gives the columns of A^-1.  Over an extension ring, R(A^-1) = R(A)^-1
        (`_restrict`), so A^-1 is read back from the Z_p inverse of R(A).
        """
        ring = self.ring
        if not isinstance(ring, Zp):
            return _extend(ring, _restrict(self).inverse())
        columns = _det_and_solve(ring, self.rows, PadicMatrix.identity(ring, self.n).rows)[1]
        if columns is None:
            raise NotInvertible("determinant is not a unit")
        return PadicMatrix._of(ring, tuple(zip(*columns)))

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
        """f(A) for f = t^low g, g = c_0 + c_1 t + ... ascending ints; [] gives the zero matrix.

        Over an extension ring f(A) is read back from f(R(A)) (`_restrict`):
        R is a unital injective ring homomorphism, so R(f(A)) = f(R(A)).  Over
        Z_p, unless low = 0 or t^low g has degree < n, f is first replaced by
        t^low g mod chi_A (`_reduce_mod_chi`).  A negative low raises
        NotInvertible unless det A is a unit.  Horner then costs d - 1 matrix
        products at degree d (the first step is a scaling), each on raw rows
        packed once for all of them, with its coefficient added onto the
        diagonal of the product.
        """
        ring, n, rows = self.ring, self.n, self.rows
        if not isinstance(ring, Zp):
            return _extend(ring, _restrict(self).evaluate(coeffs, low))
        pk = ring.pk
        coeffs = [c % pk for c in coeffs]
        if coeffs and low:
            if low < 0 or low + len(coeffs) > n:
                coeffs = self._reduce_mod_chi(coeffs, low)
            else:
                coeffs = [0] * low + coeffs
        if not coeffs:
            return PadicMatrix.zeros(ring, n)
        if len(coeffs) == 1:
            return PadicMatrix._of(ring, _plus_diagonal(ring, ((0,) * n,) * n, coeffs[0]))
        top = coeffs[-1]
        acc = _plus_diagonal(ring, [[top * a % pk for a in row] for row in rows], coeffs[-2])
        if len(coeffs) > 2:
            rows = _Packed(_pack(rows, n, pk))
        for c in reversed(coeffs[:-2]):
            acc = _plus_diagonal(ring, _matmul(ring, acc, rows), c)
        return PadicMatrix._of(ring, acc)

    def _reduce_mod_chi(self, g: list, low: int) -> list:
        """t^low g mod chi_A over Z_p for a nonzero low, on raw coefficients.

        t^|low| is a power of t, or of t^-1 for a negative low (`fppoly.pow_mod`).
        |low| = 1 takes no power and g = 1 no product.
        """
        pk, chi, e = self.ring.pk, self.char_poly_raw(), abs(low)
        t = [0, 1] if low > 0 else self._t_inverse()
        power = t if e == 1 else fppoly.pow_mod(t, e, chi, pk)
        return power if g == [1] else fppoly.divmod_poly(fppoly.mul(power, g, pk), chi, pk)[1]

    def matrix_power(self, e: int) -> "PadicMatrix":
        """A^e for an e of either sign: `evaluate` of t^e, one char poly for any e."""
        return self.evaluate([1], e)

    # -- precision / residue / Galois ---------------------------------------
    def reduce(self, j: int) -> "PadicMatrix":
        """A mod p^j; at j = K, A itself with every slot it has filled."""
        if j == self.ring.K:
            return self
        target, rreduce = self.ring.at_precision(j), self.ring.rreduce
        rows = tuple(tuple(rreduce(v, j) for v in row) for row in self.rows)
        return PadicMatrix._of(target, rows)

    def residue_rows(self) -> tuple:
        """Entries reduced into the residue field (ints for Zp, tuples otherwise)."""
        return tuple(
            tuple(self.ring.rresidue(v) for v in row) for row in self.rows
        )

    def frobenius_map(self) -> "PadicMatrix":
        frob = self.ring.rfrob
        return PadicMatrix._of(self.ring, tuple(tuple(map(frob, row)) for row in self.rows))

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
        reduced = self.reduce(j)
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
            left=PadicMatrix._of(ring, tuple(map(tuple, L))),
            right=PadicMatrix._of(ring, tuple(map(tuple, R))),
            divisors=tuple(divisors),
        )

    # -- spectral seminorm ------------------------------------------------------
    def spectral_seminorm(self, k_max: int = 16) -> SeminormResult:
        """min over 1 <= k <= k_max of |A^k|^(1/k), with a nilpotency fast path."""
        if k_max < 1:
            raise InputError(f"k_max = {k_max} must be >= 1")
        ring, R = self.ring, _restrict(self)  # R keeps every entry valuation and every zero power
        best_v, best_k = R.min_valuation(), 1
        power = R
        for k in range(1, k_max + 1):
            if k > 1:
                power = power @ R
            if power.is_zero():
                return SeminormResult(ring.p, ring.K, True, k, k, ring.K)
            v = power.min_valuation()
            if v * best_k > best_v * k:  # v/k > best_v/best_k
                best_v, best_k = v, k
        return SeminormResult(ring.p, ring.K, False, None, best_k, best_v)

    def __repr__(self):
        return f"PadicMatrix({self.n}x{self.n} over {self.ring})"


def _dot(ring, xs, ys):
    if isinstance(ring, Zp):
        return sum(map(mul, xs, ys)) % ring.pk
    acc = ring.zero
    for a, b in zip(xs, ys):
        acc = ring.radd(acc, ring.rmul(a, b))
    return acc


def _plus_diagonal(ring, rows, c) -> tuple:
    """Raw rows + c I, as new tuple rows."""
    out = [list(row) for row in rows]
    for i, row in enumerate(out):
        row[i] = ring.radd(row[i], c)
    return tuple(map(tuple, out))


def _matmul(ring: Zp, A, B):
    """A B on raw Z_p rows: row i is sum_k A[i][k] (row k of B packed), unpacked.

    B may come packed already (`_Packed`), as in `evaluate`, whose products
    all take the same B.
    """
    s, packed = B if type(B) is _Packed else _pack(B, len(B), ring.pk)
    n = len(packed)
    return tuple(tuple(_unpack(sum(map(mul, row, packed)), s, n, ring.pk)) for row in A)


class _Packed(tuple):
    """The (s, ints) of `_pack` for a B that `_matmul` is to take as packed."""


def _pack(vectors, terms: int, pk: int) -> tuple[int, list[int]]:
    """(s, each vector as one int of s-bit slots, first lowest); s fits `terms` products < pk^2."""
    s = (terms * (pk - 1) ** 2).bit_length()
    return s, _pack_slots(vectors, s)


def _pack_slots(vectors, s: int) -> list[int]:
    """Each vector as one int of s-bit slots, first lowest."""
    return [sum(v << k for v, k in zip(vec, range(0, s * len(vec), s))) for vec in vectors]


def _unpack(y: int, s: int, count: int, pk: int) -> list:
    """The first `count` s-bit slots of y, each reduced mod pk."""
    mask = (1 << s) - 1
    return [((y >> k) & mask) % pk for k in range(0, s * count, s)]


def _linear_combination(ring: AnyRing, coeffs: list, matrices: list[PadicMatrix]) -> PadicMatrix:
    """sum c_k A_k over ring, for raw values c_k of ring and Z_p matrices A_k.

    Over an extension ring each c_k is one int, packed by `_pack`.
    """
    pk, n = ring.pk, matrices[0].n
    entries = zip(*(sum(A.rows, ()) for A in matrices))  # per entry, its values in A_0, A_1, ...
    if isinstance(ring, Zp):
        values = [sum(map(mul, coeffs, entry)) % pk for entry in entries]
    else:
        s, packed = _pack(coeffs, len(coeffs), pk)
        values = [tuple(_unpack(sum(map(mul, packed, entry)), s, ring.m, pk)) for entry in entries]
    return PadicMatrix._of(ring, tuple(tuple(values[i * n : (i + 1) * n]) for i in range(n)))


def _det_and_solve(ring: Zp, rows, rhs) -> tuple[int, list[list[int]] | None]:
    """det M mod p^K for the matrix M with these rows, and M^-1 B for a unit det.

    B is given by its columns (`rhs`), and so is M^-1 B.  Gaussian
    elimination on M | B over Z/p^K with least-valuation pivots.  Each
    column's pivot p^v u has the least valuation in the column, so every
    entry x below it is p^v x' and x - (x' u^-1) p^v u = 0 exactly: the row
    operations are unimodular, a swap flips the sign, and det M is the signed
    product of the pivots (0 once a column is all zero; 1 for the empty
    matrix).  For a unit det every pivot is a unit, and each M y = b is
    solved by back substitution; for a non-unit det the solution is None.
    The entries come reduced mod p^K.
    """
    p, pk = ring.p, ring.pk
    a = [list(row) for row in rows]
    for b in rhs:
        for row, x in zip(a, b):
            row.append(x)
    n = len(a)
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
        return det, None
    columns = []
    for b in range(n, n + len(rhs)):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = a[i]
            y[i] = (row[b] - sum(map(mul, row[i + 1 : n], y[i + 1 :]))) * inverses[i] % pk
        columns.append(y)
    return det, columns


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
    raws = [ring.rcoerce(v) for v in vector]
    val = min((ring.rval(v) for v in raws), default=ring.K)
    return Norm(ring.p, ring.K, val)


def orbit_polynomial(ring: Zp, modulus, y) -> list[int]:
    """prod (t - sigma^i(y)) for y in the unramified ring Z/p^K[X]/(modulus).

    modulus is monic of degree m and y a coefficient list on 1, X, ..., X^(m-1).
    The product over the Frobenius orbit is the characteristic polynomial of
    multiplication by y, so it comes out of Berkowitz with Galois-fixed
    (integer) coefficients.  For a Teichmuller y the conjugates are y^(p^i).
    """
    columns = fppoly.mul_columns(modulus, y, ring.pk)
    return PadicMatrix._of(ring, tuple(zip(*columns))).char_poly_raw()


# -- the Jordan exponents and exact orders ----------------------------------------


def _restrict(A: PadicMatrix) -> PadicMatrix:
    """R(A): A over Z_p; over an extension ring of degree m, the nm x nm matrix
    over Z_p whose block (i, j) is multiplication by A[i][j] on the power
    basis, built as in `orbit_polynomial`.  R is an injective ring
    homomorphism, so R(A^e) = R(A)^e.
    """
    ring = A.ring
    if isinstance(ring, Zp):
        return A
    rows = []
    for row in A.rows:
        blocks = [zip(*fppoly.mul_columns(ring.modulus, y, ring.pk)) for y in row]
        rows.extend(sum(block_row, ()) for block_row in zip(*blocks))
    return PadicMatrix._of(Zp(ring.p, ring.K), tuple(rows))


def _extend(ring: AnyRing, R: PadicMatrix) -> PadicMatrix:
    """The A over ring with R(A) = R: entry (i, j) is the first column of block (i, j)."""
    if isinstance(ring, Zp):
        return R
    m, columns = ring.m, list(zip(*R.rows))[:: ring.m]
    return PadicMatrix._of(ring, tuple(tuple(col[i : i + m] for col in columns) for i in range(0, R.n, m)))


def _jordan(U: PadicMatrix) -> tuple:
    """(alpha, E, residue degrees, U_s = U^alpha) for a unitary U, audited and kept on U.

    Both powers are taken on R = R(U) (`_restrict`), U itself over Z_p.  An
    F_p factor of chi_R of degree d holds eigenvalues of degree d / gcd(d, m)
    over F_q, q = p^m; (alpha, E) come from those residue degrees and U's own
    n (`arith.teichmuller_exponent`).  Each power is (t^e mod chi_R)(R), and
    both are y^(e/g) of one y = t^g (`fppoly.pow_t_chain`), g = gcd(alpha, E)
    = p^A: alpha = c p^A with c prime to M = E / p^A.  Over Z_p the companion
    matrix of chi_U has U's residue degrees, so t^E mod chi_U is 1 when E is
    right: no product.  The audit checks the one fact the closed form relies
    on, that the order of U divides E, as R^E = I; it runs before U_s is
    taken, and a failure raises and records nothing.
    """
    if U._jordan is None:
        ring, R = U.ring, _restrict(U)
        chi, p = R.char_poly_raw(), ring.p
        degrees = {d // math.gcd(d, ring.degree) for d in fppoly.factor_degrees(chi, p)}
        alpha, E = teichmuller_exponent(ring.residue_cardinality, p, ring.K, U.n, degrees)
        g = math.gcd(alpha, E)
        powers = map(R.evaluate, fppoly.pow_t_chain(g, [E // g, alpha // g], chi, ring.pk))
        if next(powers) != PadicMatrix.identity(R.ring, R.n):
            raise ArithmeticError("unitary matrix failed the pro-finite audit")
        U._jordan = (alpha, E, degrees, _extend(ring, next(powers)))
    return U._jordan


def _exact_order(U: PadicMatrix) -> int:
    """The multiplicative order of a unitary U, descended from its audited E.

    The primes of E = M * p^A are p and those of each q^d - 1, factored one
    by one: trial division on M whole could meet two large primes from
    different pieces.  Each prime r is divided out while R(U)^(order / r) = I.
    """
    _, order, degrees, _ = _jordan(U)
    ring, R = U.ring, _restrict(U)
    primes = {ring.p}
    for d in degrees:
        primes.update(factorize(ring.residue_cardinality**d - 1))
    identity = PadicMatrix.identity(R.ring, R.n)
    for r in sorted(primes):
        while order % r == 0 and R.matrix_power(order // r) == identity:
            order //= r
    return order


def residue_matrix_order(U: PadicMatrix) -> int:
    """Multiplicative order of the reduction of U in GL_n over the residue field."""
    reduced = U.reduce(1)
    if not reduced.is_unitary():
        raise NotInvertible("matrix is singular modulo p")
    return _exact_order(reduced)
