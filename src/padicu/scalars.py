"""Exact scalars: Z_p and its unramified extensions at fixed absolute precision.

A ring handle (`Zp` or `UnramRing`) owns the arithmetic on canonical raw
values: an int in [0, p^K) for `Zp`, a coefficient tuple for `UnramRing`.
Matrix and polynomial code works on the raw values through the handle, which
keeps inner loops on plain integers.  One scalar class, `PadicScalar(ring,
raw)`, wraps a raw value for the API and delegates every operation to its
ring; a Z_p scalar meeting a scalar of the unramified ring over the same
(p, K) is embedded there, in either operand order.

All arithmetic is exact modulo p^K.  Values from different rings never mix
silently; `PrecisionMismatch` is raised instead.  The Teichmuller
representative of a unit a is computed in closed form as a^alpha, with alpha
= 1 mod (q - 1) and alpha = 0 mod p^(K-1) from `arith.teichmuller_exponent`.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from . import fppoly, moduli
from .arith import check_odd_prime, padic_valuation, teichmuller_exponent
from .errors import InputError, NotAUnit, PrecisionMismatch


class _OneMinus:
    """Reduction symbol for the residue field (the formal element 1^-)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ONE_MINUS"


ONE_MINUS = _OneMinus()


def _index(value) -> int:
    """value as an int by `operator.index`, so ints and bools pass; else InputError."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{value!r} is not an integer") from None


class Zp:
    """Arithmetic handle for Z_p known exactly modulo p^K (p prime >= 3)."""

    __slots__ = ("p", "K", "pk")

    def __init__(self, p: int, K: int):
        check_odd_prime(p)
        if K < 1:
            raise InputError("precision K must be >= 1")
        self.p = p
        self.K = K
        self.pk = p**K

    # -- raw ops (ints in [0, p^K)) ------------------------------------
    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    @property
    def degree(self) -> int:
        return 1

    @property
    def residue_cardinality(self) -> int:
        return self.p

    def rfrom_int(self, c: int) -> int:
        return c % self.pk

    def radd(self, a, b):
        return (a + b) % self.pk

    def rsub(self, a, b):
        return (a - b) % self.pk

    def rneg(self, a):
        return (-a) % self.pk

    def rmul(self, a, b):
        return (a * b) % self.pk

    def rval(self, a) -> int:
        return padic_valuation(a, self.p, self.K)

    def runit(self, a) -> bool:
        return a % self.p != 0

    def rinv(self, a):
        if a % self.p == 0:
            raise NotAUnit(f"{a} has positive valuation at p={self.p}")
        return pow(a, -1, self.pk)

    def rpow(self, a, e: int):
        if e < 0:
            return pow(self.rinv(a), -e, self.pk)
        return pow(a, e, self.pk)

    def rfrob(self, a):
        return a

    def rtrace(self, a) -> int:
        return a

    def rreduce(self, a, j: int):
        return a % self.p**j

    def rresidue(self, a):
        return a % self.p

    def rteichmuller(self, a):
        return _teichmuller_raw(self, a)

    # -- handles --------------------------------------------------------
    def at_precision(self, j: int) -> "Zp":
        if j == self.K:
            return self
        if not 1 <= j <= self.K:
            raise InputError(f"target precision {j} outside [1, {self.K}]")
        return Zp(self.p, j)

    # -- scalar construction --------------------------------------------
    def rcoerce(self, value) -> int:
        """The raw value of an integer (any sign or size) or of a scalar of this ring.

        Anything else raises InputError (`_index`): nothing is truncated or parsed.
        """
        if type(value) is int:  # the common case, first
            return value % self.pk
        if isinstance(value, PadicScalar):
            if value.ring != self:
                raise PrecisionMismatch(f"scalar from {value.ring} used in {self}")
            return value.raw
        return _index(value) % self.pk

    def scalar(self, value) -> "PadicScalar":
        return PadicScalar(self, self.rcoerce(value))

    def __eq__(self, other):
        return isinstance(other, Zp) and (self.p, self.K) == (other.p, other.K)

    def __hash__(self):
        return hash(("Zp", self.p, self.K))

    def __repr__(self):
        return f"Zp(p={self.p}, K={self.K})"


class UnramRing:
    """Degree-m unramified extension ring Z/p^K[X]/(phi) at precision K.

    phi is the Teichmuller lift of residue, a monic irreducible of degree m
    over F_p given by its ascending coefficients in [0, p), by default the
    shipped table's (`moduli.ring_modulus`).  Raw values are m-tuples of ints
    in [0, p^K), coefficients with respect to the power basis of the
    generator X, a root of phi.  X satisfies X^{p^m} = X exactly, which makes
    X -> X^p an exact ring endomorphism (the Frobenius).  residue is read
    back as phi mod p, so it needs no slot of its own.
    """

    __slots__ = ("p", "K", "m", "pk", "modulus", "modulus_id", "_frob_rows", "_traces")

    def __init__(self, p: int, K: int, m: int, residue: tuple[int, ...] | None = None):
        check_odd_prime(p)
        if K < 1:
            raise InputError("precision K must be >= 1")
        if m < 1:
            raise InputError("extension degree m must be >= 1")
        if residue is None:
            residue = moduli.residue_modulus(p, m)
        elif len(residue) != m + 1:
            raise InputError(f"a residue modulus of degree {len(residue) - 1} makes no ring of degree {m}")
        self.p = p
        self.K = K
        self.m = m
        self.pk = p**K
        self.modulus_id, self.modulus = moduli.ring_modulus(p, tuple(residue), K)
        self._frob_rows = None
        self._traces = None

    # -- raw ops (m-tuples of ints) --------------------------------------
    @property
    def zero(self):
        return (0,) * self.m

    @property
    def one(self):
        return (1,) + (0,) * (self.m - 1)

    @property
    def generator(self):
        if self.m == 1:
            return ((-self.modulus[0]) % self.pk,)
        return (0, 1) + (0,) * (self.m - 2)

    @property
    def degree(self) -> int:
        return self.m

    @property
    def residue_cardinality(self) -> int:
        return self.p**self.m

    def rfrom_int(self, c: int):
        return (c % self.pk,) + (0,) * (self.m - 1)

    def radd(self, a, b):
        pk = self.pk
        return tuple((x + y) % pk for x, y in zip(a, b))

    def rsub(self, a, b):
        pk = self.pk
        return tuple((x - y) % pk for x, y in zip(a, b))

    def rneg(self, a):
        pk = self.pk
        return tuple((-x) % pk for x in a)

    def rmul(self, a, b):
        m, pk, f = self.m, self.pk, self.modulus
        res = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    res[i + j] = (res[i + j] + ai * bj) % pk
        for i in range(2 * m - 2, m - 1, -1):
            c = res[i]
            if c:
                res[i] = 0
                for j in range(m):
                    res[i - m + j] = (res[i - m + j] - c * f[j]) % pk
        return tuple(res[:m])

    def rval(self, a) -> int:
        # valid coordinatewise because the extension is unramified
        return min(padic_valuation(x, self.p, self.K) for x in a)

    def runit(self, a) -> bool:
        return any(x % self.p != 0 for x in a)

    def rinv(self, a):
        """1/a = conj / N(a): conj = sigma(a) ... sigma^(m-1)(a), N(a) = a conj.

        sigma is an exact automorphism of order m (`moduli.teichmuller_modulus`
        audits the generator), so N(a), the product of all m conjugates, is
        fixed by sigma: an element of Z_p, a unit exactly when a is (its
        residue is the norm of a's residue from F_q).  That costs m - 1
        Frobenius images, m products and one inverse mod p^K.
        """
        if not self.runit(a):
            raise NotAUnit(f"{a} has positive valuation")
        conj, image = self.one, a
        for _ in range(1, self.m):
            image = self.rfrob(image)
            conj = self.rmul(conj, image)
        pk = self.pk
        scale = pow(self.rmul(a, conj)[0], -1, pk)
        return tuple(c * scale % pk for c in conj)

    def rpow(self, a, e: int):
        """a^e as a polynomial power mod the modulus (packed, `fppoly.pow_mod`)."""
        if e < 0:
            a, e = self.rinv(a), -e
        r = fppoly.pow_mod(a, e, self.modulus, self.pk)
        return tuple(r) + (0,) * (self.m - len(r))

    def rfrob(self, a):
        """sigma(sum a_i X^i) = sum a_i X^(ip): one dot product per coordinate."""
        if self._frob_rows is None:
            xp = self.rpow(self.generator, self.p)
            images = [self.one]  # X^(ip) for i < m
            for _ in range(1, self.m):
                images.append(self.rmul(images[-1], xp))
            self._frob_rows = tuple(zip(*images))  # row j: coordinate j of each image
        pk = self.pk
        return tuple(sum(c * x for c, x in zip(a, row)) % pk for row in self._frob_rows)

    def rtrace(self, a) -> int:
        """Tr(a) = sum_t sigma^t(a) over t < m, an element of Z_p: sum_k a_k Tr(X^k).

        Tr(X^k) is the k-th power sum of the conjugates of X, the roots of the
        monic modulus f, so Newton's identities give it without division:
        s_k = -(k f_(m-k) + sum_(0<i<k) f_(m-i) s_(k-i)), with s_0 = m.
        """
        if self._traces is None:
            m, f, pk = self.m, self.modulus, self.pk
            sums = [m % pk]
            for k in range(1, m):
                acc = k * f[m - k] + sum(f[m - i] * sums[k - i] for i in range(1, k))
                sums.append(-acc % pk)
            self._traces = tuple(sums)
        return sum(c * s for c, s in zip(a, self._traces)) % self.pk

    def rreduce(self, a, j: int):
        pj = self.p**j
        return tuple(x % pj for x in a)

    def rresidue(self, a):
        return tuple(x % self.p for x in a)

    def rteichmuller(self, a):
        return _teichmuller_raw(self, a)

    # -- handles ----------------------------------------------------------
    def at_precision(self, j: int) -> "UnramRing":
        if j == self.K:
            return self
        if not 1 <= j <= self.K:
            raise InputError(f"target precision {j} outside [1, {self.K}]")
        return UnramRing(self.p, j, self.m, tuple(c % self.p for c in self.modulus))

    def rcoerce(self, value) -> tuple:
        """The raw value of an integer, a sequence of m integers or a scalar of this ring.

        Integers and Z_p scalars at the same (p, K) are embedded; integer
        coefficients of any sign or size are reduced.  Anything else raises
        InputError (`_index`): nothing is truncated or parsed.
        """
        if isinstance(value, PadicScalar):
            if value.ring == self:
                return value.raw
            if not isinstance(value.ring, Zp) or (value.ring.p, value.ring.K) != (self.p, self.K):
                raise PrecisionMismatch(f"scalar from {value.ring} used in {self}")
            return self.rfrom_int(value.raw)
        if hasattr(value, "__index__"):
            return self.rfrom_int(operator.index(value))
        try:
            coeffs = tuple(map(_index, value))
        except TypeError:  # not iterable
            raise InputError(f"{value!r} is neither an integer nor a coefficient sequence") from None
        if len(coeffs) != self.m:
            raise InputError(f"expected {self.m} coefficients, got {len(coeffs)}")
        pk = self.pk
        return tuple(c % pk for c in coeffs)

    def scalar(self, value) -> "PadicScalar":
        """A scalar of this ring (`rcoerce`)."""
        return PadicScalar(self, self.rcoerce(value))

    def is_base_value(self, a) -> bool:
        return all(x == 0 for x in a[1:])

    def __eq__(self, other):
        return isinstance(other, UnramRing) and (
            (self.p, self.K, self.m, self.modulus)
            == (other.p, other.K, other.m, other.modulus)
        )

    def __hash__(self):
        return hash(("UnramRing", self.p, self.K, self.m, self.modulus))

    def __repr__(self):
        return f"UnramRing(p={self.p}, K={self.K}, m={self.m}, modulus={self.modulus_id})"


@lru_cache(maxsize=None)
def unram(p: int, K: int, m: int) -> UnramRing:
    return UnramRing(p, K, m)


AnyRing = Zp | UnramRing


def _teichmuller_raw(ring: AnyRing, a):
    """a^alpha: the Teichmuller representative of a unit's residue, 0 for a non-unit."""
    alpha, _ = teichmuller_exponent(ring.residue_cardinality, ring.p, ring.K, 1, (1,))
    return ring.rpow(a, alpha)


class PadicScalar:
    """Element of Z_p or of an unramified extension, exact modulo p^K.

    `raw` is the ring handle's raw value; every operation is the ring's.
    """

    __slots__ = ("ring", "raw")

    def __init__(self, ring: AnyRing, raw):
        self.ring = ring
        self.raw = raw

    def _promote(self, other):
        """(ring, own raw, other raw) in the common ring; None for a foreign operand.

        The reflected operators never run between two scalars (one class), so
        a Z_p scalar is embedded into an extension here, in either order.
        """
        if isinstance(other, int):
            return self.ring, self.raw, self.ring.rfrom_int(other)
        if not isinstance(other, PadicScalar):
            return None
        ring = self.ring if isinstance(other.ring, Zp) else other.ring
        return ring, ring.rcoerce(self), ring.rcoerce(other)

    def _binary(self, other, op: str, reflected: bool = False):
        args = self._promote(other)
        if args is None:
            return NotImplemented
        ring, a, b = args
        return PadicScalar(ring, getattr(ring, op)(b, a) if reflected else getattr(ring, op)(a, b))

    def __add__(self, other):
        return self._binary(other, "radd")

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, "rsub")

    def __rsub__(self, other):
        return self._binary(other, "rsub", reflected=True)

    def __mul__(self, other):
        return self._binary(other, "rmul")

    __rmul__ = __mul__

    def __neg__(self):
        return PadicScalar(self.ring, self.ring.rneg(self.raw))

    def __pow__(self, e: int):
        return PadicScalar(self.ring, self.ring.rpow(self.raw, e))

    def __eq__(self, other):
        try:
            args = self._promote(other)
        except PrecisionMismatch:
            return False
        return args is not None and args[1] == args[2]

    def __hash__(self):
        # a base scalar equals its embeddings, so it hashes like them
        raw = self.raw
        if isinstance(raw, tuple) and self.ring.is_base_value(raw):
            raw = raw[0]
        return hash((self.ring.p, self.ring.K, raw))

    def valuation(self) -> int:
        return self.ring.rval(self.raw)

    def inverse(self) -> "PadicScalar":
        return PadicScalar(self.ring, self.ring.rinv(self.raw))

    def frobenius(self) -> "PadicScalar":
        return PadicScalar(self.ring, self.ring.rfrob(self.raw))

    def lift(self):
        return self.raw

    def reduce(self, j: int) -> "PadicScalar":
        return PadicScalar(self.ring.at_precision(j), self.ring.rreduce(self.raw, j))

    def __repr__(self):
        ring = self.ring
        if isinstance(ring, Zp):
            return f"{self.raw} (mod {ring.p}^{ring.K})"
        return f"{list(self.raw)} (mod {ring.p}^{ring.K}, deg {ring.m})"


def valuation(x: PadicScalar) -> int:
    """Largest v <= K with p^v dividing x; K means 'valuation >= K at this precision'."""
    return x.valuation()


def unit_inverse(x: PadicScalar) -> PadicScalar:
    """Multiplicative inverse; requires valuation 0."""
    return x.inverse()


def frobenius(x: PadicScalar) -> PadicScalar:
    """The canonical lift of the residue Frobenius; identity on Z_p."""
    return x.frobenius()


def teichmuller_lift(ring: AnyRing, r) -> PadicScalar:
    """Teichmuller representative of the nonzero residue r, exact at precision K.

    The result x = r^alpha satisfies x^(p^m) = x exactly modulo p^K and
    reduces to r.
    """
    raw = ring.rcoerce(r.raw if isinstance(r, PadicScalar) else r)
    if not ring.runit(raw):
        raise NotAUnit("zero residue has no Teichmuller lift")
    return PadicScalar(ring, _teichmuller_raw(ring, raw))


def reduce_precision(x: PadicScalar, j) -> PadicScalar:
    """Reduce to absolute precision j (a ring homomorphism); ONE_MINUS means j = 1."""
    if j is ONE_MINUS:
        j = 1
    return x.reduce(j)


def unit_decompose(x: PadicScalar) -> tuple[PadicScalar, PadicScalar]:
    """Split a unit as (principal-unit part, Teichmuller part).

    The Teichmuller part is the stabilized value of x^(p^(n!)); it is computed
    in closed form as x^alpha with alpha = 1 mod (q - 1) and
    alpha = 0 mod p^(K-1), which the factorial powers eventually realize.
    """
    ring = x.ring
    if not ring.runit(x.raw):
        raise NotAUnit("only units decompose")
    teich_raw = _teichmuller_raw(ring, x.raw)
    return PadicScalar(ring, ring.rmul(x.raw, ring.rinv(teich_raw))), PadicScalar(ring, teich_raw)


def sigma_factorial_limit(x: PadicScalar) -> PadicScalar:
    """Limit of x^(p^(n!)) at this precision; equals the Teichmuller part of x."""
    return unit_decompose(x)[1]
