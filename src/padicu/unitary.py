"""Classification and spectral decomposition of p-adic unitary matrices.

The factorial-power limit of U is computed in closed form.  The order of U
divides E = M * p^A, where M = lcm(q^d - 1, d <= n) is the prime-to-p exponent
of GL_n(F_q) and p^A bounds the p-part at this precision.  The exponents
p^(k!) are eventually 1 mod M and 0 mod p^A, so the limit is U^alpha for the
alpha with those residues (`arith.teichmuller_exponent`): the Teichmuller part
U_s of U = U_s U_n.  Nothing is factored and no residue order is searched,
and the powers U^E and U^alpha are (t^e mod chi_U)(U) (`matrix_power`).
The Jordan datum stays on the matrix: the passed audit U^E = I, U_s and U_n
fill slots of U (see `PadicMatrix`), so the chain classify -> jordan ->
spectral_decompose or power_zp pays for U^E, U^alpha and U_s^-1 once.
`spectral_decompose` passes the datum along: after the pro-finite audit on
U, U_s = U^alpha is Teichmuller because alpha^2 = alpha mod E, so it is not
classified again.  The one-parameter group is a power too: a continuous U
has U^alpha = I, so its order divides gcd(E, alpha) = p^A, and `power_zp`
gives U^t as U^(t mod p^A).

Spectral data for a Teichmuller-type matrix lives per Frobenius orbit: each
irreducible residue factor of degree d contributes d eigenvalues in the
degree-d unramified ring.  One root of the factor in F_{p^d} comes from
Cantor-Zassenhaus splitting in F_{p^d}[T] (`_orbit_roots`), the others are
its Frobenius images, and the least one lifts to the orbit's first
eigenvalue lambda_0, so the choice does not depend on the random splitting.
U is semisimple, so its minimal polynomial m is the product of the orbit
polynomials, and the projector onto lambda is L(U) / L(lambda) with
L = m / (t - lambda): one combination of U^0, ..., U^(deg m - 1), whose
denominator m'(lambda) is a unit because distinct Teichmuller elements are
distance 1 apart.  Frobenius sigma acts on Teichmuller eigenvalues as
lambda -> lambda^p, so it carries pi_lambda to pi_(lambda^p), and the
Galois twist sum sigma^k(lambda) pi_lambda is U^(p^k).

So an orbit stores lambda_0 and P_0 only (`SpectralOrbit`), and the same
symmetry makes the orbit algebra a computation over Z_p: an orbit's sum of
P_t is Tr(P_0) and its sum of lambda_t P_t is Tr(lambda_0 P_0), entrywise,
for the trace Tr = sum_t sigma^t of the orbit's ring; Tr is Z_p-linear, so it
is a combination of the coordinate matrices of P_0
(`SpectralDatum.reconstruct`, `orbit_projector`).  The audit
(`SpectralDatum.verify`) takes no product over an extension ring: U is fixed
by sigma, so the eigen-equations U P_0 = lambda_0 P_0 = P_0 U, 2d products
over Z_p, carry to every P_t.  With unit gaps between eigenvalues (the orbit
polynomials multiply to a squarefree polynomial mod p) they make P_s P_t = 0
for s != t, in one orbit or across two, and then sum Tr(P_0) = I makes every
P_t idempotent and U = sum lambda P.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, NamedTuple

from . import fppoly, ringpoly
from .arith import teichmuller_exponent
from .errors import (
    InputError, NotAUnit, NotContinuous, NotTeichmuller, NotUnitary, PadicError, Unsupported,
)
from .matrices import PadicMatrix, orbit_polynomial, residue_matrix_order
from .scalars import ONE_MINUS, AnyRing, PadicScalar, UnramRing, Zp, unram

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
            "extension-ring eigenvalues would leave the shipped modulus table"
        )


def _require_base_teichmuller(U: PadicMatrix):
    """The checks behind spectral data: unitary, over Z_p, and of Teichmuller type."""
    _require_base_unitary(U)
    if not classify(U).is_teichmuller:
        raise NotTeichmuller("operator is not of Teichmuller type")


def _exponents(U: PadicMatrix) -> tuple[int, int]:
    """(alpha, E) for U's ring and size (`arith.teichmuller_exponent`)."""
    ring = U.ring
    return teichmuller_exponent(ring.residue_cardinality, ring.p, ring.K, U.n)


def _audit(U: PadicMatrix) -> None:
    """The pro-finite audit U^E = I, run once per matrix.

    The audit checks the one fact the closed form relies on: the order of U
    divides E.  A pass is recorded on U; a failure raises and records nothing.
    """
    if not U._audited:
        _, E = _exponents(U)
        if U.matrix_power(E) != PadicMatrix.identity(U.ring, U.n):
            raise ArithmeticError("unitary matrix failed the pro-finite audit")
        U._audited = True


def _teichmuller_part(U: PadicMatrix) -> PadicMatrix:
    """U_s = U^alpha, computed once per matrix and kept on it."""
    if U._teich is None:
        alpha, _ = _exponents(U)
        U._teich = U.matrix_power(alpha)
    return U._teich


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
    _audit(U)
    limit = _teichmuller_part(U)
    is_teich = limit == U
    is_cont = limit == PadicMatrix.identity(U.ring, U.n)
    kind = TEICHMULLER if is_teich else CONTINUOUS if is_cont else PROFINITE_MIXED
    return UnitaryClass(kind, limit, is_teich, is_cont)


def jordan_decompose(U: PadicMatrix) -> tuple[PadicMatrix, PadicMatrix]:
    """U = U_s * U_n with commuting Teichmuller and continuous parts.

    U_s is the closed-form factorial-power limit U^alpha; both parts are
    powers of U times its inverse, so commutation is automatic.  Both are
    kept on U, so a second call returns the same two matrices.
    """
    _require_unitary(U)
    if U._unipotent is None:
        U._unipotent = U @ _teichmuller_part(U).inverse()
    return U._teich, U._unipotent


# -- spectral decomposition ----------------------------------------------------


class SpectralOrbit(NamedTuple):
    """One Frobenius orbit over a ring of degree d, stored as lambda_0 and P_0.

    lambda_t = sigma^t(lambda_0) and P_t = sigma^t(P_0), t < d, are derived on
    each access: sigma is an exact automorphism of order d of the ring, audited
    by `moduli.canonical_modulus` when the ring is built."""

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
        return tuple(_orbit_polynomial(self.ring, self.eigenvalue))


class SpectralDatum(NamedTuple):
    """Teichmuller eigenvalues, projectors, orbit tags, and the unipotent part."""

    base_ring: Zp
    n: int
    orbits: tuple[SpectralOrbit, ...]
    unipotent: PadicMatrix

    def orbit_projector(self, index: int) -> PadicMatrix:
        """Sum of the projectors in one orbit, Tr(P_0) entrywise: a base matrix."""
        orbit = self.orbits[index]
        return self._trace_sum([(orbit, orbit.ring.one)])

    def reconstruct(self) -> PadicMatrix:
        """Sum of eigenvalue * projector over every orbit: Tr(lambda_0 P_0) per orbit."""
        return self._trace_sum([(orbit, orbit.eigenvalue) for orbit in self.orbits])

    def _trace_sum(self, terms) -> PadicMatrix:
        """sum Tr(y P_0) over (orbit, y) terms, entrywise, as one combination over Z_p.

        Tr is Z_p-linear, so with P_0 = sum_k A_k X^k over Z_p,
        Tr(y P_0) = sum_k Tr(y X^k) A_k: m scalar products per orbit, and no
        product of an extension-ring value with each entry.
        """
        weights, coordinates = [], []
        for orbit, y in terms:
            ring = orbit.ring
            weights += [ring.rtrace(v) for v in _times_basis(ring, y)]
            coordinates += _coordinates(self.base_ring, ring, orbit.projector)
        if not coordinates:
            return PadicMatrix.zeros(self.base_ring, self.n)
        return _linear_combination(self.base_ring, weights, coordinates)

    def verify(self, expected: PadicMatrix | None = None) -> bool:
        """Audit the datum: orthogonal idempotents summing to I, and U rebuilt.

        No product over an extension ring is taken.  Per orbit of degree d,
        P_t := sigma^t(P_0) and lambda_t := sigma^t(lambda_0) for t < d, and
        sigma has order d (`SpectralOrbit`).  With U = expected, or
        U = `reconstruct()` when no expected is given, the checks are:
        1. the product of the orbit polynomials, computed from each lambda_0,
           is squarefree mod p;
        2. sum_i Tr(P_0^(i)) = I;
        3. `reconstruct()` = expected, when one is given;
        4. per orbit, U P_0 = lambda_0 P_0 = P_0 U.  With P_0 = sum_k A_k X^k
           over Z_p, coordinate k of U P_0 is U A_k and of P_0 U is A_k U, and
           lambda_0 P_0 = sum_j (lambda_0 X^j) A_j takes no product: 2d
           products over Z_p and none over the orbit's ring.
        They prove what the products P_s P_t and Q_i Q_j would.  U is fixed
        by sigma, so applying sigma^t to step 4 gives
        U P_t = lambda_t P_t = P_t U for every t.  By step 1 every gap
        lambda - mu between two eigenvalues is a unit.  So
        lambda_s P_s P_t = (P_s U) P_t = P_s (U P_t) = lambda_t P_s P_t
        gives P_s P_t = 0 inside an orbit.  Across orbits,
        with the orbit polynomial f_j and Q_j = Tr(P_0^(j)) = sum_s P_s^(j),
        f_j(U) Q_j = sum_s f_j(lambda_s^(j)) P_s^(j) = 0, so
        f_j(lambda_t^(i)) P_t^(i) Q_j = P_t^(i) f_j(U) Q_j = 0 with a unit
        f_j(lambda_t^(i)), and P_t^(i) Q_j = 0.  Step 2 then gives
        P_t = P_t sum_j Q_j = P_t Q_i = P_t^2, and U = U sum Q = sum lambda P.
        Step 1 makes a hand-built datum whose eigenvalue residues coincide
        (two orbits on one residue factor, or a repeated lambda) read False,
        even with orthogonal idempotents; the library's orbits come from
        distinct irreducible residue factors.
        """
        base, n, p = self.base_ring, self.n, self.base_ring.p
        minimal = [1]
        for orbit in self.orbits:
            minimal = fppoly.mul(minimal, [c % p for c in orbit.factor], p)
        if fppoly.gcd(minimal, fppoly.derivative(minimal, p), p) != [1]:
            return False
        sums = self._trace_sum([(orbit, orbit.ring.one) for orbit in self.orbits])
        if sums != PadicMatrix.identity(base, n):
            return False
        rebuilt = self.reconstruct()
        if expected is not None and rebuilt != expected:
            return False
        U = rebuilt if expected is None else expected
        for orbit in self.orbits:
            ring = orbit.ring
            A = _coordinates(base, ring, orbit.projector)
            # lambda_0 P_0 = sum_j (lambda_0 X^j) A_j: no product of matrices
            scaled = _linear_combination(ring, _times_basis(ring, orbit.eigenvalue), A)
            for A_k, B_k in zip(A, _coordinates(base, ring, scaled)):
                if U @ A_k != B_k or A_k @ U != B_k:
                    return False
        return True


def _times_basis(ring: AnyRing, y) -> list:
    """y X^k for k < m, raw values of ring: multiplication by y on the power basis."""
    if isinstance(ring, Zp):
        return [y]
    return [ring.rmul(y, tuple(int(i == k) for i in range(ring.m))) for k in range(ring.m)]


def _coordinates(base: Zp, ring: AnyRing, matrix: PadicMatrix) -> list[PadicMatrix]:
    """A_0, ..., A_(m-1) over Z_p with matrix = sum_k A_k X^k; [matrix] over Z_p."""
    if isinstance(ring, Zp):
        return [matrix]
    return [PadicMatrix(base, [[v[k] for v in row] for row in matrix.rows]) for k in range(ring.m)]


def _orbit_polynomial(ring: AnyRing, lam) -> list[int]:
    """prod (t - sigma^t(lambda)) over the orbit of lambda in ring, over Z_p."""
    if isinstance(ring, Zp):
        return [ring.rneg(lam), 1]
    return orbit_polynomial(Zp(ring.p, ring.K), ring.modulus, lam)


def teichmuller_spectral(U: PadicMatrix) -> SpectralDatum:
    """Spectral decomposition of a Teichmuller-type matrix over Z_p.

    The residue characteristic polynomial factors into Frobenius orbits; each
    orbit's eigenvalues are Teichmuller lifts inside the degree-d unramified
    ring, the lift of the least root in F_{p^d} and its Frobenius images.  U is
    semisimple, so its minimal polynomial m is the product of the orbit
    polynomials, and the projector of an orbit's first eigenvalue lambda is
    L(U) / L(lambda) with L = m / (t - lambda).  The factoring and root
    finding are randomized on a fixed seed; the datum does not depend on it.
    """
    _require_base_teichmuller(U)
    return _teichmuller_spectral(U)


def _teichmuller_spectral(U: PadicMatrix) -> SpectralDatum:
    """The body of `teichmuller_spectral`, for a U that passed its checks."""
    ring = U.ring
    p, K, pk = ring.p, ring.K, ring.pk
    _, factors = fppoly.factor([c % p for c in U.char_poly_raw()], p)
    rng = random.Random(fppoly._SEED)
    # per irreducible residue factor: (ring, lambda_0, multiplicity)
    raw_orbits = []
    for irr, mult in factors:
        d = len(irr) - 1
        if d == 1:
            lam_ring: AnyRing = ring
            lam = ring.rteichmuller((-irr[0]) % p)
        else:
            lam_ring = unram(p, K, d)
            canonical = min(_orbit_roots(irr, unram(p, 1, d), rng))
            lam = lam_ring.rteichmuller(lam_ring.rlift_residue(canonical))
        raw_orbits.append((lam_ring, lam, mult))
    minimal = [1]
    for lam_ring, lam, _ in raw_orbits:
        minimal = fppoly.mul(minimal, _orbit_polynomial(lam_ring, lam), pk)
    powers = [PadicMatrix.identity(ring, U.n)]  # U^0, ..., U^(deg m - 1)
    while len(powers) < len(minimal) - 1:
        powers.append(U if len(powers) == 1 else powers[-1] @ U)
    orbits = []
    for lam_ring, lam, mult in raw_orbits:
        minimal_raw = [lam_ring.rfrom_int(c) for c in minimal]
        # L = m / (t - lambda) by synthetic division, scaled by 1 / L(lambda) = 1 / m'(lambda)
        quotient, _ = ringpoly.divide_linear(lam_ring, minimal_raw, lam)
        inv_slope = lam_ring.rinv(ringpoly.divide_linear(lam_ring, quotient, lam)[1])
        coeffs = [lam_ring.rmul(inv_slope, c) for c in quotient]
        projector = _linear_combination(lam_ring, coeffs, powers)
        orbits.append(SpectralOrbit(ring=lam_ring, eigenvalue=lam, projector=projector, multiplicity=mult))
    identity = PadicMatrix.identity(ring, U.n)
    datum = SpectralDatum(base_ring=ring, n=U.n, orbits=tuple(orbits), unipotent=identity)
    if not datum.verify(expected=U):
        raise ArithmeticError("spectral reconstruction audit failed")
    return datum


def _linear_combination(ring: AnyRing, coeffs: list, matrices: list[PadicMatrix]) -> PadicMatrix:
    """sum c_k A_k over ring, for raw values c_k of ring and Z_p matrices A_k."""
    pk, n = ring.pk, matrices[0].n
    entries = zip(*(sum(A.rows, ()) for A in matrices))  # per entry, its values in A_0, A_1, ...
    if isinstance(ring, Zp):
        values = [sum(c * x for c, x in zip(coeffs, entry)) % pk for entry in entries]
    else:
        columns = list(zip(*coeffs))  # per coordinate of ring, its value in each c_k
        values = [
            tuple(sum(c * x for c, x in zip(column, entry)) % pk for column in columns)
            for entry in entries
        ]
    return PadicMatrix(ring, [values[i * n : (i + 1) * n] for i in range(n)])


def _orbit_roots(irr: list[int], field: UnramRing, rng: random.Random) -> list:
    """The roots in F_q = F_{p^d} of an irreducible degree-d polynomial over F_p.

    Cantor-Zassenhaus (1981): for a random a in F_q, gcd(g, (T + a)^((q-1)/2) - 1)
    keeps the roots r of g with r + a a nonzero square, so it splits g about in
    half.  The splitting stops at one linear factor, since the other roots are
    its Frobenius images.  Polynomials in T are `ringpoly` lists of the field's
    raw values, and g stays monic, so reducing mod g needs no inversion.
    """
    f = g = [field.rfrom_int(c) for c in irr]
    half = (field.residue_cardinality - 1) // 2
    while len(g) > 2:
        a = tuple(rng.randrange(field.p) for _ in range(field.m))
        power = ringpoly.pow_mod(field, [a, field.one], half, g)
        # (T + a)^((q-1)/2) - 1 mod g; the power is not 0, as g is squarefree of degree >= 2
        shifted = ringpoly.trim(field, [field.rsub(power[0], field.one)] + power[1:])
        h = ringpoly.gcd(field, g, shifted)
        if 1 < len(h) < len(g):
            g = h
    roots = [field.rneg(g[0])]
    for _ in range(1, len(irr) - 1):
        roots.append(field.rfrob(roots[-1]))
    _, value = ringpoly.divide_linear(field, f, roots[0])
    if len(set(roots)) != len(irr) - 1 or value != field.zero:
        raise ArithmeticError("irreducible factor did not split in its orbit field")  # unreachable
    return roots


def spectral_decompose(U: PadicMatrix) -> SpectralDatum:
    """Full pipeline on any unitary: Jordan split, then the Teichmuller spectrum.

    After the pro-finite audit U^E = I, U_s = U^alpha is of Teichmuller type
    by construction (alpha^2 = alpha mod E), so it is not classified again;
    the spectral body still verifies its reconstruction of U_s.
    """
    _require_base_unitary(U)
    _audit(U)
    u_s, u_n = jordan_decompose(U)
    datum = _teichmuller_spectral(u_s)
    return SpectralDatum(
        base_ring=datum.base_ring, n=datum.n, orbits=datum.orbits, unipotent=u_n
    )


def galois_act(U: PadicMatrix, k: int) -> PadicMatrix:
    """sigma^k on a Teichmuller operator: sum of sigma^k(lambda) pi_lambda = U^(p^k).

    U^M = I for the prime-to-p exponent M = gcd(E, alpha - 1), and p is a
    unit mod M, so p^k is taken mod M and a negative k needs no inverse.
    """
    _require_base_teichmuller(U)
    alpha, E = _exponents(U)
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
    alpha, E = _exponents(U)
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
