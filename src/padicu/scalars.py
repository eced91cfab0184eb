"""Exact scalars: Z_p and its unramified extensions at fixed absolute precision.

A ring handle (`Zp` or `UnramRing`) owns the arithmetic; scalar objects are
thin immutable wrappers around canonical raw values (an int in [0, p^K) for
`Zp`, a coefficient tuple for `UnramRing`).  Matrix and polynomial code works
on the raw values through the ring handle, which keeps inner loops on plain
integers.

All arithmetic is exact modulo p^K.  Values from different rings never mix
silently; `PrecisionMismatch` is raised instead.
"""

from __future__ import annotations

from functools import lru_cache

from . import fppoly, moduli
from .arith import check_odd_prime, padic_valuation, teichmuller_exponent
from .errors import NotAUnit, PrecisionMismatch


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


class Zp:
    """Arithmetic handle for Z_p known exactly modulo p^K (p prime >= 3)."""

    __slots__ = ("p", "K", "pk")

    def __init__(self, p: int, K: int):
        check_odd_prime(p)
        if K < 1:
            raise ValueError("precision K must be >= 1")
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

    def rreduce(self, a, j: int):
        return a % self.p**j

    def rresidue(self, a):
        return a % self.p

    def rlift_residue(self, r) -> int:
        """Embed a residue-field element as a raw value."""
        return int(r) % self.pk

    def rteichmuller(self, a):
        """Teichmuller fixed point with the same residue as a (a must be a unit)."""
        y = a % self.pk
        while True:
            y2 = pow(y, self.p, self.pk)
            if y2 == y:
                return y
            y = y2

    # -- handles --------------------------------------------------------
    def at_precision(self, j: int) -> "Zp":
        if j == self.K:
            return self
        if not 1 <= j <= self.K:
            raise ValueError(f"target precision {j} outside [1, {self.K}]")
        return Zp(self.p, j)

    def residue_ring(self) -> "Zp":
        return Zp(self.p, 1)

    # -- scalar construction --------------------------------------------
    def scalar(self, value) -> "PadicScalar":
        if isinstance(value, PadicScalar):
            if value.ring != self:
                raise PrecisionMismatch(f"scalar from {value.ring} used in {self}")
            return value
        return PadicScalar(self, int(value) % self.pk)

    def __eq__(self, other):
        return isinstance(other, Zp) and (self.p, self.K) == (other.p, other.K)

    def __hash__(self):
        return hash(("Zp", self.p, self.K))

    def __repr__(self):
        return f"Zp(p={self.p}, K={self.K})"


class UnramRing:
    """Degree-m unramified extension ring at precision K, over the shipped modulus.

    Raw values are m-tuples of ints in [0, p^K), coefficients with respect to
    the power basis of the canonical Teichmuller generator.  The generator w
    satisfies w^{p^m} = w exactly, which makes X -> X^p an exact ring
    endomorphism (the Frobenius).
    """

    __slots__ = ("p", "K", "m", "pk", "modulus", "modulus_id", "_frob_images")

    def __init__(self, p: int, K: int, m: int):
        check_odd_prime(p)
        if K < 1:
            raise ValueError("precision K must be >= 1")
        if m < 1:
            raise ValueError("extension degree m must be >= 1")
        self.p = p
        self.K = K
        self.m = m
        self.pk = p**K
        self.modulus = moduli.canonical_modulus(p, m, K)
        self.modulus_id = moduli.modulus_id(p, m)
        self._frob_images = None

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
        if not self.runit(a):
            raise NotAUnit(f"{a} has positive valuation")
        p = self.p
        res_poly = fppoly.trim([x % p for x in a])
        mod_poly = fppoly.trim([c % p for c in self.modulus])
        g, s, _ = fppoly.ext_gcd(res_poly, mod_poly, p)
        if g != [1]:
            raise NotAUnit("residue not invertible")  # unreachable for units
        b = tuple(s[i] if i < len(s) else 0 for i in range(self.m))
        # Newton: b <- b(2 - ab), doubling correct digits up to K
        two = self.rfrom_int(2)
        prec = 1
        while prec < self.K:
            b = self.rmul(b, self.rsub(two, self.rmul(a, b)))
            prec *= 2
        return b

    def rpow(self, a, e: int):
        if e < 0:
            a = self.rinv(a)
            e = -e
        r = self.one
        while e:
            if e & 1:
                r = self.rmul(r, a)
            a = self.rmul(a, a)
            e >>= 1
        return r

    def rfrob(self, a):
        if self._frob_images is None:
            xp = self.rpow(self.generator, self.p)
            images = [self.one]
            for _ in range(1, self.m):
                images.append(self.rmul(images[-1], xp))
            self._frob_images = tuple(images)
        acc = self.zero
        for coeff, image in zip(a, self._frob_images):
            if coeff:
                acc = self.radd(acc, tuple((coeff * x) % self.pk for x in image))
        return acc

    def rreduce(self, a, j: int):
        pj = self.p**j
        return tuple(x % pj for x in a)

    def rresidue(self, a):
        return tuple(x % self.p for x in a)

    def rlift_residue(self, r):
        if isinstance(r, int):
            return self.rfrom_int(r)
        return tuple(int(x) % self.pk for x in r)

    def rteichmuller(self, a):
        q = self.p**self.m
        y = a
        while True:
            y2 = self.rpow(y, q)
            if y2 == y:
                return y
            y = y2

    # -- handles ----------------------------------------------------------
    def at_precision(self, j: int) -> "UnramRing":
        if j == self.K:
            return self
        if not 1 <= j <= self.K:
            raise ValueError(f"target precision {j} outside [1, {self.K}]")
        return UnramRing(self.p, j, self.m)

    def residue_ring(self) -> "UnramRing":
        return UnramRing(self.p, 1, self.m)

    def base_ring(self) -> Zp:
        return Zp(self.p, self.K)

    def embed(self, value) -> "UnramScalar":
        if isinstance(value, UnramScalar):
            if value.ring != self:
                raise PrecisionMismatch(f"scalar from {value.ring} used in {self}")
            return value
        if isinstance(value, PadicScalar):
            if (value.ring.p, value.ring.K) != (self.p, self.K):
                raise PrecisionMismatch(f"scalar from {value.ring} used in {self}")
            return UnramScalar(self, self.rfrom_int(value.residue))
        if isinstance(value, int):
            return UnramScalar(self, self.rfrom_int(value))
        return self.scalar(value)

    def scalar(self, value) -> "UnramScalar":
        if isinstance(value, (UnramScalar, PadicScalar, int)):
            return self.embed(value)
        coeffs = tuple(int(c) % self.pk for c in value)
        if len(coeffs) != self.m:
            raise ValueError(f"expected {self.m} coefficients, got {len(coeffs)}")
        return UnramScalar(self, coeffs)

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
def zp(p: int, K: int) -> Zp:
    return Zp(p, K)


@lru_cache(maxsize=None)
def unram(p: int, K: int, m: int) -> UnramRing:
    return UnramRing(p, K, m)


class PadicScalar:
    """Element of Z_p known exactly modulo p^K."""

    __slots__ = ("ring", "residue")

    def __init__(self, ring: Zp, residue: int):
        self.ring = ring
        self.residue = residue

    def _coerce(self, other):
        if isinstance(other, PadicScalar):
            if other.ring != self.ring:
                raise PrecisionMismatch(f"{other.ring} vs {self.ring}")
            return other.residue
        if isinstance(other, int):
            return other % self.ring.pk
        return None

    def __add__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return PadicScalar(self.ring, (self.residue + r) % self.ring.pk)

    __radd__ = __add__

    def __sub__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return PadicScalar(self.ring, (self.residue - r) % self.ring.pk)

    def __rsub__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return PadicScalar(self.ring, (r - self.residue) % self.ring.pk)

    def __mul__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return PadicScalar(self.ring, (self.residue * r) % self.ring.pk)

    __rmul__ = __mul__

    def __neg__(self):
        return PadicScalar(self.ring, (-self.residue) % self.ring.pk)

    def __pow__(self, e: int):
        return PadicScalar(self.ring, self.ring.rpow(self.residue, e))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.residue == other % self.ring.pk
        return (
            isinstance(other, PadicScalar)
            and self.ring == other.ring
            and self.residue == other.residue
        )

    def __hash__(self):
        return hash((self.ring, self.residue))

    def valuation(self) -> int:
        return self.ring.rval(self.residue)

    def is_unit(self) -> bool:
        return self.ring.runit(self.residue)

    def inverse(self) -> "PadicScalar":
        return PadicScalar(self.ring, self.ring.rinv(self.residue))

    def lift(self) -> int:
        return self.residue

    def residue_class(self) -> int:
        return self.residue % self.ring.p

    def reduce(self, j: int) -> "PadicScalar":
        target = self.ring.at_precision(j)
        return PadicScalar(target, self.residue % target.pk)

    def __repr__(self):
        return f"{self.residue} (mod {self.ring.p}^{self.ring.K})"


class UnramScalar:
    """Element of the degree-m unramified extension, exact modulo p^K."""

    __slots__ = ("ring", "coeff_ints")

    def __init__(self, ring: UnramRing, coeff_ints):
        self.ring = ring
        self.coeff_ints = tuple(coeff_ints)

    @property
    def coeffs(self) -> tuple[PadicScalar, ...]:
        base = self.ring.base_ring()
        return tuple(PadicScalar(base, c) for c in self.coeff_ints)

    def _coerce(self, other):
        if isinstance(other, UnramScalar):
            if other.ring != self.ring:
                raise PrecisionMismatch(f"{other.ring} vs {self.ring}")
            return other.coeff_ints
        if isinstance(other, (int, PadicScalar)):
            return self.ring.embed(other).coeff_ints
        return None

    def __add__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return UnramScalar(self.ring, self.ring.radd(self.coeff_ints, r))

    __radd__ = __add__

    def __sub__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return UnramScalar(self.ring, self.ring.rsub(self.coeff_ints, r))

    def __rsub__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return UnramScalar(self.ring, self.ring.rsub(r, self.coeff_ints))

    def __mul__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return UnramScalar(self.ring, self.ring.rmul(self.coeff_ints, r))

    __rmul__ = __mul__

    def __neg__(self):
        return UnramScalar(self.ring, self.ring.rneg(self.coeff_ints))

    def __pow__(self, e: int):
        return UnramScalar(self.ring, self.ring.rpow(self.coeff_ints, e))

    def __eq__(self, other):
        if isinstance(other, (int, PadicScalar)):
            try:
                other = self.ring.embed(other)
            except PrecisionMismatch:
                return False
        return (
            isinstance(other, UnramScalar)
            and self.ring == other.ring
            and self.coeff_ints == other.coeff_ints
        )

    def __hash__(self):
        return hash((self.ring, self.coeff_ints))

    def valuation(self) -> int:
        return self.ring.rval(self.coeff_ints)

    def is_unit(self) -> bool:
        return self.ring.runit(self.coeff_ints)

    def inverse(self) -> "UnramScalar":
        return UnramScalar(self.ring, self.ring.rinv(self.coeff_ints))

    def frobenius(self) -> "UnramScalar":
        return UnramScalar(self.ring, self.ring.rfrob(self.coeff_ints))

    def residue_class(self) -> tuple[int, ...]:
        return self.ring.rresidue(self.coeff_ints)

    def reduce(self, j: int) -> "UnramScalar":
        target = self.ring.at_precision(j)
        return UnramScalar(target, target.rreduce(self.coeff_ints, j))

    def is_base(self) -> bool:
        return self.ring.is_base_value(self.coeff_ints)

    def base_value(self) -> PadicScalar:
        if not self.is_base():
            raise ValueError(f"{self!r} is not Galois-fixed")
        return PadicScalar(self.ring.base_ring(), self.coeff_ints[0])

    def __repr__(self):
        return f"{list(self.coeff_ints)} (mod {self.ring.p}^{self.ring.K}, deg {self.ring.m})"


AnyScalar = PadicScalar | UnramScalar
AnyRing = Zp | UnramRing


def wrap(ring: AnyRing, raw) -> AnyScalar:
    if isinstance(ring, Zp):
        return PadicScalar(ring, raw)
    return UnramScalar(ring, raw)


def valuation(x: AnyScalar) -> int:
    """Largest v <= K with p^v dividing x; K means 'valuation >= K at this precision'."""
    return x.valuation()


def unit_inverse(x: AnyScalar) -> AnyScalar:
    """Multiplicative inverse; requires valuation 0."""
    return x.inverse()


def frobenius(x: AnyScalar) -> AnyScalar:
    """The canonical lift of the residue Frobenius; identity on Z_p."""
    if isinstance(x, PadicScalar):
        return x
    return x.frobenius()


def teichmuller_lift(ring: AnyRing, r) -> AnyScalar:
    """Teichmuller representative of the nonzero residue r, exact at precision K.

    Computed by iterating x -> x^(p^m) until it fixes; the result satisfies
    x^(p^m) = x exactly modulo p^K and reduces to r.
    """
    if isinstance(ring, Zp):
        raw = int(r) % ring.pk
        if raw % ring.p == 0:
            raise NotAUnit("zero residue has no Teichmuller lift")
        return PadicScalar(ring, ring.rteichmuller(raw))
    raw = ring.rlift_residue(r if not isinstance(r, UnramScalar) else r.coeff_ints)
    if not ring.runit(raw):
        raise NotAUnit("zero residue has no Teichmuller lift")
    return UnramScalar(ring, ring.rteichmuller(raw))


def reduce_precision(x: AnyScalar, j) -> AnyScalar:
    """Reduce to absolute precision j (a ring homomorphism); ONE_MINUS means j = 1."""
    if j is ONE_MINUS:
        j = 1
    return x.reduce(j)


def unit_decompose(x: AnyScalar) -> tuple[AnyScalar, AnyScalar]:
    """Split a unit as (principal-unit part, Teichmuller part).

    The Teichmuller part is the stabilized value of x^(p^(n!)); it is computed
    in closed form as x^alpha with alpha = 1 mod (q - 1) and
    alpha = 0 mod p^(K-1), which the factorial powers eventually realize.
    """
    ring = x.ring
    raw = x.residue if isinstance(x, PadicScalar) else x.coeff_ints
    if not ring.runit(raw):
        raise NotAUnit("only units decompose")
    alpha, _ = teichmuller_exponent(ring.residue_cardinality, ring.p, ring.K, 1)
    teich_raw = ring.rpow(raw, alpha)
    b1_raw = ring.rmul(raw, ring.rinv(teich_raw))
    return wrap(ring, b1_raw), wrap(ring, teich_raw)


def sigma_factorial_limit(x: AnyScalar) -> AnyScalar:
    """Limit of x^(p^(n!)) at this precision; equals the Teichmuller part of x."""
    return unit_decompose(x)[1]
