"""Classification and spectral decomposition of p-adic unitary matrices.

The factorial-power limit of U is computed in closed form.  The order of U
divides E = M * p^A, where p^A bounds the p-part at this precision and
M = lcm(q^d - 1) over the degrees d of the irreducible factors of chi_U mod p
over F_q: every residue eigenvalue lies in F_(q^d) for such a d.  They come
from the squarefree and distinct-degree parts (`fppoly.parts`) of chi_R mod
p, for R = R(U), U restricted to Z_p (`matrices._restrict`, U itself over
Z_p): an F_p degree d of R is d / gcd(d, m) over F_q = F_(p^m).  p^(k!) is
eventually 1 mod M and 0 mod p^A, so the limit is U^alpha for the alpha
with those residues (`arith.teichmuller_exponent`): the Teichmuller part U_s
of U = U_s U_n.  No integer is factored and no residue order is searched.
(alpha, E), the audit U^E = I and U_s = U^alpha come from one routine,
`matrices._jordan`, which takes each power as (t^e mod chi_R)(R):
t^E = y^M and t^alpha = y^c share y = t^(p^A) mod chi_R.  Every U_s the
library returns has passed the audit, which runs before U_s is taken.
`residual_order` descends from the audited E of U mod p
(`matrices._exact_order`), factoring q^d - 1 for the residue degrees only.
The Jordan datum stays on the matrix: (alpha, E), those parts and U_s fill
one slot of U, and U_n another (see `PadicMatrix`), so the chain
classify -> jordan -> spectral_decompose or power_zp pays for the parts,
U^E, U^alpha and U_s^-1 once, and only `spectral_decompose` splits parts.
`spectral_decompose` passes the datum along: after the pro-finite audit on
U, U_s = U^alpha is Teichmuller because alpha^2 = alpha mod E, so it is not
classified again; `teichmuller_spectral` is the same body after the type
check.  The one-parameter group is a power too: a continuous U
has U^alpha = I, so its order divides gcd(E, alpha) = p^A, and `power_zp`
gives U^t as U^(t mod p^A).

Spectral data for a Teichmuller-type matrix lives per Frobenius orbit: each
irreducible residue factor pi of degree d contributes d eigenvalues.  The
orbit's ring is Z_p[X]/(phi_pi), with phi_pi the Teichmuller lift of pi
(`moduli.teichmuller_modulus`; Serre, *Local Fields*, ch. II, sections 4-5).
There the class of X is a Teichmuller root of phi_pi, one of the orbit's
eigenvalues, so it is taken as the first one, lambda_0, and the others are
its Frobenius images X^p, ..., X^(p^(d-1)).  No root is searched for and
none is lifted, and the datum depends on pi alone.
U is semisimple, so its minimal polynomial m is the product of the orbit
moduli phi_pi, and the projector onto lambda is L(U) / L(lambda) with
L = m / (t - lambda): one combination of U^0, ..., U^(deg m - 1), whose
denominator m'(lambda) is a unit because distinct Teichmuller elements are
distance 1 apart.  Frobenius sigma acts on Teichmuller eigenvalues as
lambda -> lambda^p, so it carries pi_lambda to pi_(lambda^p), and the
Galois twist sum sigma^k(lambda) pi_lambda is U^(p^k).

So an orbit stores lambda_0 and P_0 only (`SpectralOrbit`), and the same
symmetry makes the orbit algebra a computation over Z_p: an orbit's sum of
P_t is Tr(P_0) and its sum of lambda_t P_t is Tr(lambda_0 P_0), entrywise,
for the trace Tr = sum_t sigma^t of the orbit's ring; Tr is Z_p-linear, so it
is a combination of the coordinate matrices A_k of P_0, packed row by row
once (`_Stack`, behind `SpectralDatum.reconstruct` and `orbit_projector`).
The audit (`SpectralDatum.verify`) takes no matrix product: the one
eigen-equation U P_0 = lambda_0 P_0 per orbit, for the U it is given, is a
packed residual over Z_p on those rows, which must vanish mod p^K in every
slot, and U is fixed by sigma, so it carries to every P_t.  With sum
Tr(P_0) = I and unit gaps between eigenvalues (the orbit polynomials
multiply to a squarefree polynomial mod p), each P_t is a unit times
prod_(s != t)(U - lambda_s), a polynomial in U: so P_t U = lambda_t P_t,
P_s P_t = 0 for s != t, every P_t is idempotent, and U = sum lambda P.
"""

from __future__ import annotations

import math
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from . import fppoly
from .errors import (
    InputError, NotAUnit, NotContinuous, NotTeichmuller, NotUnitary, PadicError, Unsupported,
)
from .matrices import (
    PadicMatrix, _jordan, _linear_combination, _pack_slots, _unpack, orbit_polynomial,
    residue_matrix_order,
)
from .scalars import ONE_MINUS, AnyRing, PadicScalar, UnramRing, Zp

if TYPE_CHECKING:
    from .gm import LaurentPoly

TEICHMULLER = "TEICHMULLER"
CONTINUOUS = "CONTINUOUS"
PROFINITE_MIXED = "PROFINITE_MIXED"


def _require_unitary(U: PadicMatrix):
    if not U.is_unitary():
        raise NotUnitary("operator must have unit determinant and integral entries")


def _require_base_unitary(U: PadicMatrix):
    """Unitary and over Z_p: what every spectral decomposition needs."""
    _require_unitary(U)
    if not isinstance(U.ring, Zp):
        raise Unsupported(
            "spectral decomposition is supported for base-ring operators; "
            "an extension-ring operator's orbits would be taken under sigma^m"
        )


def _require_base_teichmuller(U: PadicMatrix):
    """The checks behind spectral data: unitary, over Z_p, and of Teichmuller type."""
    _require_base_unitary(U)
    if not classify(U).is_teichmuller:
        raise NotTeichmuller("operator is not of Teichmuller type")


def residual_order(U: PadicMatrix) -> int:
    """Exact multiplicative order of the reduction of U over the residue field."""
    _require_unitary(U)
    return residue_matrix_order(U)


class UnitaryClass(NamedTuple):
    kind: str
    witness: PadicMatrix  # factorial-power limit mod p^K, the Teichmuller part
    is_teichmuller: bool
    is_continuous: bool


def classify(U: PadicMatrix) -> UnitaryClass:
    """Compare the factorial sigma-power limit U^alpha with U and with I."""
    _require_unitary(U)
    limit = _jordan(U)[3]
    is_teich = limit == U
    is_cont = limit == PadicMatrix.identity(U.ring, U.n)
    kind = TEICHMULLER if is_teich else CONTINUOUS if is_cont else PROFINITE_MIXED
    return UnitaryClass(kind, limit, is_teich, is_cont)


def jordan_decompose(U: PadicMatrix) -> tuple[PadicMatrix, PadicMatrix]:
    """U = U_s * U_n with commuting Teichmuller and continuous parts.

    U_s is the closed-form factorial-power limit U^alpha, audited by U^E = I
    (`matrices._jordan`); both parts are powers of U times its inverse, so
    commutation is automatic.  A Teichmuller U has U_s = U and U_n = I, which
    takes no inverse.  Both are kept on U, so a second call returns the same
    two matrices.
    """
    _require_unitary(U)
    u_s = _jordan(U)[3]
    if U._unipotent is None:
        U._unipotent = PadicMatrix.identity(U.ring, U.n) if u_s == U else U @ u_s.inverse()
    return u_s, U._unipotent


# -- spectral decomposition ----------------------------------------------------


class SpectralOrbit(NamedTuple):
    """One Frobenius orbit over a ring of degree d, stored as lambda_0 and P_0.

    `spectral_decompose` takes the ring over the Teichmuller lift phi_pi of
    the orbit's residue factor pi and lambda_0 = X, its generator, so that
    `factor` is the ring's modulus.  lambda_t = sigma^t(lambda_0) and
    P_t = sigma^t(P_0), t < d, are derived on each access: sigma is an exact
    automorphism of order d of the ring, audited by
    `moduli.teichmuller_modulus` when the lift is first made."""

    ring: AnyRing
    eigenvalue: object  # raw value of ring: lambda_0, a Teichmuller element
    projector: PadicMatrix  # P_0, over ring
    multiplicity: int

    @property
    def degree(self) -> int:
        return self.ring.degree

    @property
    def eigenvalues(self) -> tuple:
        out = [self.eigenvalue]
        for _ in range(1, self.degree):
            out.append(self.ring.rfrob(out[-1]))
        return tuple(out)

    @property
    def projectors(self) -> tuple[PadicMatrix, ...]:
        out = [self.projector]
        for _ in range(1, self.degree):
            out.append(out[-1].frobenius_map())
        return tuple(out)

    @property
    def factor(self) -> tuple[int, ...]:
        """The monic orbit polynomial prod (t - lambda_t) over Z_p."""
        return tuple(_orbit_polynomial(self.ring, self.eigenvalue, self.ring.K))


class SpectralDatum(NamedTuple):
    """Teichmuller eigenvalues, projectors, orbit tags, and the unipotent part."""

    base_ring: Zp
    n: int
    orbits: tuple[SpectralOrbit, ...]
    unipotent: PadicMatrix

    def orbit_projector(self, index: int) -> PadicMatrix:
        """Sum of the projectors in one orbit, Tr(P_0) entrywise: a base matrix."""
        stack = _stack((self.orbits[index],), self.n, self.base_ring.pk)
        return PadicMatrix._of(self.base_ring, stack.combine(stack.ones))

    def reconstruct(self) -> PadicMatrix:
        """Sum of eigenvalue * projector over every orbit: Tr(lambda_0 P_0) per orbit."""
        stack = _stack(self.orbits, self.n, self.base_ring.pk)
        return PadicMatrix._of(self.base_ring, stack.combine(stack.lams))

    def verify(self, expected: PadicMatrix | None = None) -> bool:
        """Audit the datum: orthogonal idempotents summing to I, and U rebuilt.

        No product over an extension ring is taken, and no matrix product:
        steps 2 and 3 are a packed combination and packed residuals over Z_p
        on the rows of the coordinate matrices (`_Stack`).  Per orbit of
        degree d, P_t := sigma^t(P_0) and lambda_t := sigma^t(lambda_0) for
        t < d, and sigma has order d (`SpectralOrbit`).  U is `expected` when
        one is given (False unless it has the datum's ring and n), else
        `reconstruct()`, the combination with weights Tr(lambda_0 X^k).
        With P_0 = sum_k A_k X^k over Z_p, the checks are:
        1. the product of the orbit polynomials, computed from each lambda_0
           at precision 1, is squarefree mod p;
        2. sum_i Tr(P_0^(i)) = I, one combination of the A_k with weights
           Tr(X^k);
        3. per orbit, U P_0 = lambda_0 P_0.  Coordinate k of U P_0 is U A_k,
           and of lambda_0 P_0 it is sum_j c_kj A_j, with c_kj coordinate k
           of lambda_0 X^j.  With w_kj = -c_kj mod p^K, row i of the residual
             sum_l U[i][l] (row l of A_k) + sum_j w_kj (row i of A_j)
           must vanish mod p^K in every slot, rows packed in s-bit slots.
           A slot sums at most n + d nonnegative products < p^(2K), and d <= D
           = sum d over the orbits, so s fits n + D products (D <= n for the
           library's data, whose orbit degrees add up to at most n): no carry
           crosses a slot, in step 2 (D products) either.
        They prove what the products P_s P_t would, and that U is the
        reconstruction.  U is over Z_p, fixed by sigma, so sigma^t carries
        step 3 to U P_t = lambda_t P_t for every member t of every orbit.  By
        step 2, sum_r P_r = I over all members, so
        prod_(s != t)(U - lambda_s) = prod_(s != t)(U - lambda_s) sum_r P_r
        = prod_(s != t)(lambda_t - lambda_s) P_t, and by step 1 each gap
        lambda_t - lambda_s is a unit: P_t is a polynomial in U.  So
        P_t U = lambda_t P_t, P_s P_t = 0 for s != t (P_t holds the factor
        U - lambda_s, and P_s (U - lambda_s) = 0), P_t = P_t sum_r P_r = P_t^2,
        and U = U sum Tr(P_0) = sum Tr(lambda_0 P_0), the reconstruction.
        So the audit reads True exactly when U P_0 = lambda_0 P_0 = P_0 U
        holds for the reconstruction and it equals `expected`, if given.
        Step 1 makes a hand-built datum whose eigenvalue residues coincide
        (two orbits on one residue factor, or a repeated lambda) read False,
        even with orthogonal idempotents; the library's orbits come from
        distinct irreducible residue factors.
        """
        base, n, p, pk = self.base_ring, self.n, self.base_ring.p, self.base_ring.pk
        if expected is not None and (expected.ring != base or expected.n != n):
            return False
        minimal = [1]
        for orbit in self.orbits:
            minimal = fppoly.mul(minimal, _orbit_polynomial(orbit.ring, orbit.eigenvalue, 1), p)
        if fppoly.gcd(minimal, fppoly.derivative(minimal, p), p) != [1]:
            return False
        stack = _stack(self.orbits, n, pk)
        if stack.combine(stack.ones) != PadicMatrix.identity(base, n).rows:
            return False
        U = stack.combine(stack.lams) if expected is None else expected.rows
        packed, vanishes = stack.packed, stack.vanishes
        t = 0  # the orbit's A_0 is entry t of the stack
        for columns in stack.columns:
            d = len(columns)
            weights = [[-c[k] % pk for c in columns] for k in range(d)]  # w_kj
            for i in range(n):
                row_i = packed[t * n + i : (t + d) * n : n]  # row i of A_0, ..., A_(d-1)
                for k, w in enumerate(weights):
                    e = (t + k) * n
                    if not vanishes(sum(map(mul, U[i], packed[e : e + n])) + sum(map(mul, w, row_i))):
                        return False
            t += d
        return True


class _Stack(NamedTuple):
    """The coordinate matrices over Z_p of some orbits' P_0 = sum_k A_k X^k.

    A_0, ..., A_(d-1) of each orbit in turn, D = sum d of them: packed holds
    row i of entry t of the stack at packed[t n + i], as one int of s-bit
    slots.  Tr is Z_p-linear, so the orbits' sum
    Tr(y P_0) is sum_k Tr(y X^k) A_k: ones[t] = Tr(X^k) and
    lams[t] = Tr(lambda_0 X^k) weigh sum Tr(P_0) and sum Tr(lambda_0 P_0).
    columns[o][j] holds the coordinates of lambda_0 X^j for orbit o.

    A slot is to hold at most n + D products < p^(2K), so its values stay
    at most bound = (n + D)(p^K - 1)^2, and a multiple p^K q of p^K there
    has q < 2^h, h the bit length of bound // p^K.  s = h + the bit length
    of p^K makes p^K 2^h <= 2^s: every slot value lies below 2^s, and
    `vanishes` can read all n slots of a row at once.
    """

    n: int
    pk: int
    s: int
    high: int  # bits h to s - 1 of each of n slots
    packed: list[int]
    ones: list[int]
    lams: list[int]
    columns: list

    def combine(self, weights: list[int]) -> tuple:
        """Rows of sum_t weights[t] A_t mod p^K: one packed combination per row."""
        n, s, pk, packed = self.n, self.s, self.pk, self.packed
        return tuple(tuple(_unpack(sum(map(mul, weights, packed[i::n])), s, n, pk)) for i in range(n))

    def vanishes(self, y: int) -> bool:
        """Whether each of the n slots of y, a packed row of sums of at most
        n + D products < p^(2K), is 0 mod p^K.

        If every slot value is p^K q_i, then y / p^K has the slots q_i < 2^h.
        Conversely, if p^K divides y and y / p^K (below 2^(s n), as y is)
        has slots z_i < 2^h, then y = sum p^K z_i 2^(s i) with each
        p^K z_i < 2^s, so no carry crosses a slot and these are y's slot
        values.  One division tests all n.
        """
        q, r = divmod(y, self.pk)
        return not r and not q & self.high


def _stack(orbits, n: int, pk: int) -> _Stack:
    """The `_Stack` of the orbits' P_0, each split into its coordinates once."""
    rows, ones, lams, columns = [], [], [], []
    for orbit in orbits:
        ring, lam, P = orbit.ring, orbit.eigenvalue, orbit.projector.rows
        if isinstance(ring, Zp):
            rows += P
            ones.append(1)
            lams.append(lam)
            columns.append([(lam,)])
            continue
        split = [tuple(zip(*row)) for row in P]  # per row, its m coordinate rows
        rows += [row[k] for k in range(ring.m) for row in split]
        ones += [ring.rtrace(tuple(int(i == k) for i in range(ring.m))) for k in range(ring.m)]
        times_basis = fppoly.mul_columns(ring.modulus, list(lam), pk)  # lambda_0 X^j, j < m
        lams += map(ring.rtrace, times_basis)
        columns.append(times_basis)
    h = ((n + len(ones)) * (pk - 1) ** 2 // pk).bit_length()
    s = h + pk.bit_length()
    high = sum(((1 << s) - (1 << h)) << (i * s) for i in range(n))
    return _Stack(n, pk, s, high, _pack_slots(rows, s), ones, lams, columns)


def _orbit_polynomial(ring: AnyRing, lam, j: int) -> list[int]:
    """prod (t - sigma^t(lambda)) mod p^j: at the ring's generator X its modulus, else Berkowitz."""
    base = Zp(ring.p, j)
    if isinstance(ring, Zp):
        return [-lam % base.pk, 1]
    if lam == ring.generator:
        return [c % base.pk for c in ring.modulus]
    return orbit_polynomial(base, ring.modulus, lam)


def teichmuller_spectral(U: PadicMatrix) -> SpectralDatum:
    """Spectral decomposition of a Teichmuller-type matrix over Z_p.

    `spectral_decompose` after the type check: U_s = U, so the datum's
    continuous part is I, with no inverse taken (`jordan_decompose`).
    """
    _require_base_teichmuller(U)
    return spectral_decompose(U)


def spectral_decompose(U: PadicMatrix) -> SpectralDatum:
    """Full pipeline on any unitary: residue orbits, Jordan split, spectrum of U_s.

    One orbit per irreducible factor pi of chi_U mod p, in Z_p with lambda_0
    the Teichmuller lift of pi's root for a degree-1 pi, else in
    Z_p[X]/(phi_pi) with lambda_0 = X (see the module docstring).  The
    factors split the parts of chi_U mod p that `_jordan(U)` keeps
    (`fppoly.split`), and chi_U mod p is chi_(U_s) mod p: U_n commutes with
    U_s and is unipotent mod p, so U_s needs no char poly of its own.  The
    split is randomized on a fixed seed; the datum does not depend on it,
    and it is verified against U_s before it is returned.
    """
    _require_base_unitary(U)
    ring = U.ring
    p, K, pk = ring.p, ring.K, ring.pk
    u_s, u_n = jordan_decompose(U)
    raw_orbits, minimal = [], [1]  # per irreducible residue factor: (ring, lambda_0, multiplicity)
    for irr, mult in fppoly.split(_jordan(U)[2], p):
        lam_ring = ring if len(irr) == 2 else UnramRing(p, K, len(irr) - 1, tuple(irr))
        lam = ring.rteichmuller(-irr[0] % p) if len(irr) == 2 else lam_ring.generator
        raw_orbits.append((lam_ring, lam, mult))
        minimal = fppoly.mul(minimal, _orbit_polynomial(lam_ring, lam, K), pk)
    powers = [PadicMatrix.identity(ring, U.n)]  # U_s^0, ..., U_s^(deg m - 1)
    while len(powers) < len(minimal) - 1:
        powers.append(u_s if len(powers) == 1 else powers[-1] @ u_s)
    orbits = []
    for lam_ring, lam, mult in raw_orbits:
        minimal_raw = [lam_ring.rfrom_int(c) for c in minimal]
        # L = m / (t - lambda) by synthetic division, scaled by 1 / L(lambda) = 1 / m'(lambda)
        quotient, _ = divide_linear(lam_ring, minimal_raw, lam)
        inv_slope = lam_ring.rinv(divide_linear(lam_ring, quotient, lam)[1])
        coeffs = [lam_ring.rmul(inv_slope, c) for c in quotient]
        projector = _linear_combination(lam_ring, coeffs, powers)
        orbits.append(SpectralOrbit(ring=lam_ring, eigenvalue=lam, projector=projector, multiplicity=mult))
    datum = SpectralDatum(base_ring=ring, n=U.n, orbits=tuple(orbits), unipotent=u_n)
    if not datum.verify(expected=u_s):
        raise ArithmeticError("spectral reconstruction audit failed")
    return datum


def divide_linear(ring: AnyRing, f: list, x) -> tuple[list, object]:
    """(q, v) with f = q * (t - x) + v for a nonzero f of raw values, by synthetic division.

    The remainder is Horner's value v = f(x), so `divide_linear(ring, f, x)[1]`
    evaluates f at a raw value x.
    """
    acc, q = f[-1], []
    for c in reversed(f[:-1]):
        q.append(acc)
        acc = ring.radd(c, ring.rmul(acc, x))
    return q[::-1], acc


def galois_act(U: PadicMatrix, k: int) -> PadicMatrix:
    """sigma^k on a Teichmuller operator: sum of sigma^k(lambda) pi_lambda = U^(p^k).

    U^M = I for the prime-to-p part M = gcd(E, alpha - 1) of E, and p is a
    unit mod M, so p^k is taken mod M and a negative k needs no inverse.
    """
    _require_base_teichmuller(U)
    alpha, E, _, _ = _jordan(U)
    return U.matrix_power(pow(U.ring.p, k, math.gcd(E, alpha - 1)))


# -- one-parameter group --------------------------------------------------------


def power_zp(U: PadicMatrix, t) -> PadicMatrix:
    """U^t for t in Z_p, as U^(t mod p^A).

    A continuous U has U^alpha = I, and the audit gives U^E = I, so the order
    of U divides gcd(E, alpha) = p^A: alpha = 1 mod M is prime to M and
    alpha = 0 mod p^A, with A = K - 1 + unipotent_depth(n, p).  This mirrors
    `galois_act`, which reduces mod gcd(E, alpha - 1).  An int t is exact at
    any size and sign.  A Z_p scalar t is known only mod p^K, which fixes U^t
    only when A <= K; A > K happens for n > p, and then it raises PadicError.
    """
    cls = classify(U)
    if not cls.is_continuous:
        raise NotContinuous("one-parameter powers require continuous type")
    ring = U.ring
    alpha, E, _, _ = _jordan(U)
    order = math.gcd(E, alpha)
    if isinstance(t, PadicScalar):
        if t.ring != Zp(ring.p, ring.K):
            raise InputError("time parameter must live in Z_p at the operator's (p, K)")
        if order > ring.pk:
            raise PadicError(
                f"a Z_p time is known mod p^K only, and U's order may reach {order} > p^K; "
                "pass an integer time"
            )
        t = t.raw
    return U.matrix_power(int(t) % order)


def zp_unit_action(U: PadicMatrix, alpha) -> PadicMatrix:
    """The Z_p^x action U -> U^alpha on the one-parameter group; an int alpha stays exact."""
    if isinstance(alpha, PadicScalar):
        is_unit = alpha.valuation() == 0
    else:
        is_unit = int(alpha) % U.ring.p != 0
    if not is_unit:
        raise NotAUnit("group action requires a unit exponent")
    return power_zp(U, alpha)


# -- projection functors ----------------------------------------------------------


class ProjectionResult(NamedTuple):
    """Kernel (annihilator submodule) and cokernel (quotient) of f(U) mod p^j."""

    j: int
    kernel_basis: tuple
    kernel_dimension: int
    cokernel_divisors: tuple[int, ...]


def projection_functors(U: PadicMatrix, j: int, f: LaurentPoly) -> ProjectionResult:
    """Realize the annihilator and quotient functors of (p^j, f) on (Z/p^j)^n."""
    if not 1 <= j <= U.ring.K:
        raise InputError(f"reduction level {j} outside [1, {U.ring.K}]")
    profile = f.reduce(j).evaluate_matrix(U.reduce(j)).smith_form()
    return ProjectionResult(
        j=j,
        kernel_basis=tuple(profile.kernel_basis()),
        kernel_dimension=profile.kernel_dimension(),
        cokernel_divisors=profile.divisors,
    )


# -- spectrum table -----------------------------------------------------------------


class SpectrumRow(NamedTuple):
    epsilon: str  # "p^j" or "1-"
    j: int
    orbit: tuple[int, ...]  # residue irreducible labeling the Teichmuller cluster
    dimension: int
    cokernel_divisors: tuple[int, ...]


class SpectrumTable(NamedTuple):
    n: int
    rows: tuple[SpectrumRow, ...]
    torsion_is_whole_module: bool
    completion_is_whole_module: bool


def spectrum_table(U: PadicMatrix, j_list) -> SpectrumTable:
    """Component dimensions of the spectrum at each reduction level.

    The characteristic polynomial (a unit polynomial for unitary U) is grouped
    into Teichmuller clusters and Hensel-lifted once, to the deepest level J
    asked for.  Monic coprime lifts are unique, so a level's grouped factors
    are the deepest ones reduced mod p^j.  The component of a cluster is the
    kernel of its grouped factor evaluated at U mod p^j, a free direct
    summand whose rank is reported.  Ranks sum to n: the module is entirely
    torsion and complete under a unitary, and the spectrum is never empty.

    Each cluster factor is evaluated at U mod p^J and put in Smith form once.
    L A R = diag(p^d) mod p^J reduces to a Smith certificate of A mod p^j
    with the divisors min(d, j), and Smith invariants are unique, so those
    are the cokernel divisors of level j.  Every level is validated, in
    order, before any is computed; each distinct level is audited once, and
    "1-" shares the rows of level 1.
    """
    _require_unitary(U)
    ring = U.ring
    if not isinstance(ring, Zp):
        raise Unsupported("spectrum tables are computed for base-ring operators")
    levels = []
    for j_entry in j_list:
        if j_entry is ONE_MINUS:
            levels.append((1, "1-"))
        else:
            j = int(j_entry)
            ring.at_precision(j)  # an out-of-range level raises InputError here
            levels.append((j, f"p^{j}"))
    components = {}
    if levels:
        from . import gm

        J = max(j for j, _ in levels)
        f = gm.LaurentPoly.from_coeffs(ring, U.char_poly_raw())
        lifted = gm.teich_factor(f, J).factors
        U_J = U.reduce(J)
        deepest = []
        for orbit, coeffs in sorted(lifted.items()):
            factor = gm.LaurentPoly.from_coeffs(U_J.ring, coeffs)
            deepest.append((orbit, factor.evaluate_matrix(U_J).smith_form().divisors))
        for j, _ in levels:
            if j not in components:
                components[j] = _spectrum_components(U.n, deepest, j)
    rows = tuple(
        SpectrumRow(epsilon=label, j=j, orbit=orbit, dimension=dimension, cokernel_divisors=divisors)
        for j, label in levels
        for orbit, dimension, divisors in components[j]
    )
    return SpectrumTable(
        n=U.n,
        rows=rows,
        torsion_is_whole_module=True,
        completion_is_whole_module=True,
    )


def _spectrum_components(n: int, deepest: list, j: int) -> list:
    """(orbit, rank, cokernel divisors) per cluster at level j, audited.

    `deepest` pairs each orbit with its Smith divisors at the deepest level.
    """
    components = []
    for orbit, divisors in deepest:
        level = tuple(min(d, j) for d in divisors)
        full = level.count(j)
        if any(0 < d < j for d in level):
            raise ArithmeticError("component is not a free summand")
        if full == 0:
            raise ArithmeticError("spectrum component vanished")  # Sp(M) != {0}
        components.append((orbit, full, level))
    if sum(dimension for _, dimension, _ in components) != n:
        raise ArithmeticError("component dimensions do not sum to n")
    return components
