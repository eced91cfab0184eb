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
eigenvalue, so the choice does not depend on the random splitting.  U is
semisimple, so its minimal polynomial m is the product of the orbit
polynomials, and the projector onto lambda is L(U) / L(lambda) with
L = m / (t - lambda): one combination of U^0, ..., U^(deg m - 1), whose
denominator m'(lambda) is a unit because distinct Teichmuller elements are
distance 1 apart.  Frobenius sigma acts on Teichmuller eigenvalues as
lambda -> lambda^p, so it carries pi_lambda to pi_(lambda^p), and the
Galois twist sum sigma^k(lambda) pi_lambda is U^(p^k).

The same symmetry makes the audit of an orbit cheap.  sigma acts entrywise
as a ring automorphism, so sigma(AB) = sigma(A) sigma(B); once the chain
sigma(P_t) = P_(t+1 mod d) holds, P_s P_t = sigma^s(P_0 P_(t-s mod d)), and
the d products P_0 P_k cover all d^2 in-orbit identities
(`SpectralDatum.verify`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import fppoly, gm, ringpoly
from .arith import teichmuller_exponent
from .errors import InputError, NotAUnit, NotContinuous, NotTeichmuller, NotUnitary, PadicError
from .matrices import PadicMatrix, orbit_polynomial, residue_matrix_order
from .scalars import ONE_MINUS, AnyRing, PadicScalar, UnramRing, Zp, unram

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
        raise InputError(
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


@dataclass(frozen=True)
class UnitaryClass:
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


@dataclass(frozen=True)
class SpectralOrbit:
    """One Frobenius orbit: eigenvalues and projectors over the orbit's ring."""

    ring: AnyRing
    eigenvalues: tuple  # raw values, consecutive Frobenius images
    projectors: tuple[PadicMatrix, ...]
    multiplicity: int
    factor: tuple[int, ...]  # multiplicity-free monic orbit polynomial over Z_p

    @property
    def degree(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class SpectralDatum:
    """Teichmuller eigenvalues, projectors, orbit tags, and the unipotent part."""

    base_ring: Zp
    n: int
    orbits: tuple[SpectralOrbit, ...]
    unipotent: PadicMatrix

    def orbit_projector(self, index: int) -> PadicMatrix:
        """Sum of the projectors in one orbit; Galois-fixed, hence a base matrix."""
        orbit = self.orbits[index]
        total = PadicMatrix.zeros(orbit.ring, self.n)
        for proj in orbit.projectors:
            total = total + proj
        return _to_base(self.base_ring, total)

    def reconstruct(self) -> PadicMatrix:
        """Sum of eigenvalue * projector over every orbit, assembled over Z_p."""
        total = PadicMatrix.zeros(self.base_ring, self.n)
        for orbit in self.orbits:
            partial = PadicMatrix.zeros(orbit.ring, self.n)
            for lam, proj in zip(orbit.eigenvalues, orbit.projectors):
                partial = partial + proj.scale(lam)
            total = total + _to_base(self.base_ring, partial)
        return total

    def verify(self, expected: PadicMatrix | None = None) -> bool:
        """Audit the datum: orthogonal idempotents summing to I, and U rebuilt.

        Per orbit, the Frobenius chain sigma(P_t) = P_(t+1 mod d) and
        sigma(lambda_t) = lambda_(t+1 mod d) is checked for every t, wrap-around
        included.  sigma acts entrywise as a ring automorphism, so
        sigma(AB) = sigma(A) sigma(B), and with the chain
        P_s P_t = sigma^s(P_0 P_(t-s mod d)).  So P_0 P_0 = P_0 and
        P_0 P_k = 0 for k = 1, ..., d - 1 cover all d^2 in-orbit identities
        with d products.  An orbit sum Q_i = sum_t P_t is then Galois-fixed
        and idempotent (Q_i^2 = sum_(s,t) P_s P_t = Q_i), so across orbits
        only Q_i Q_j = 0 for i != j is checked, in both orders.  With
        orbit degrees d_i and r orbits this is sum d_i + r(r - 1) products.
        The chains also make every orbit sum of lambda_t P_t Galois-fixed, so
        a broken datum reads False rather than failing in `_to_base`.
        """
        n = self.n
        for orbit in self.orbits:
            ring, d = orbit.ring, orbit.degree
            P, lam = orbit.projectors, orbit.eigenvalues
            for t in range(d):
                if P[t].frobenius_map() != P[(t + 1) % d]:
                    return False
                if ring.rfrob(lam[t]) != lam[(t + 1) % d]:
                    return False
            if P[0] @ P[0] != P[0]:
                return False
            zero = PadicMatrix.zeros(ring, n)
            if any(P[0] @ P[k] != zero for k in range(1, d)):
                return False
        base_projectors = [self.orbit_projector(i) for i in range(len(self.orbits))]
        total = PadicMatrix.zeros(self.base_ring, n)
        for Q in base_projectors:
            total = total + Q
        if total != PadicMatrix.identity(self.base_ring, n):
            return False
        if expected is not None and self.reconstruct() != expected:
            return False
        for i, Q_i in enumerate(base_projectors):
            for j, Q_j in enumerate(base_projectors):
                if i != j and not (Q_i @ Q_j).is_zero():
                    return False
        return True


def _to_base(base_ring: Zp, matrix: PadicMatrix) -> PadicMatrix:
    if isinstance(matrix.ring, Zp):
        return matrix
    ring = matrix.ring
    rows = []
    for row in matrix.rows:
        out = []
        for value in row:
            if not ring.is_base_value(value):
                raise ArithmeticError("Galois-fixed value expected; got a proper extension element")
            out.append(value[0])
        rows.append(out)
    return PadicMatrix(base_ring, rows)


def teichmuller_spectral(U: PadicMatrix, seed: int = fppoly.DEFAULT_SEED) -> SpectralDatum:
    """Spectral decomposition of a Teichmuller-type matrix over Z_p.

    The residue characteristic polynomial factors into Frobenius orbits; each
    orbit's eigenvalues are Teichmuller lifts inside the degree-d unramified
    ring, the lift of the least root in F_{p^d} and its Frobenius images.  U is
    semisimple, so its minimal polynomial m is the product of the orbit
    polynomials, and the projector of an orbit's first eigenvalue lambda is
    L(U) / L(lambda) with L = m / (t - lambda); the others are its Frobenius
    images.  The seed drives the randomized factoring and root finding; the
    datum does not depend on it.
    """
    _require_base_teichmuller(U)
    return _teichmuller_spectral(U, seed)


def _teichmuller_spectral(U: PadicMatrix, seed: int) -> SpectralDatum:
    """The body of `teichmuller_spectral`, for a U that passed its checks."""
    ring = U.ring
    p, K, pk = ring.p, ring.K, ring.pk
    _, factors = fppoly.factor([c % p for c in U.char_poly_raw()], p, seed=seed)
    rng = random.Random(seed)
    # per irreducible residue factor: (ring, eigenvalues, multiplicity, orbit polynomial)
    raw_orbits = []
    for irr, mult in factors:
        d = len(irr) - 1
        if d == 1:
            lam_ring: AnyRing = ring
            lam = ring.rteichmuller((-irr[0]) % p)
            factor_coeffs = [ring.rneg(lam), 1]
        else:
            lam_ring = unram(p, K, d)
            canonical = min(_orbit_roots(irr, unram(p, 1, d), rng))
            lam = lam_ring.rteichmuller(lam_ring.rlift_residue(canonical))
            factor_coeffs = orbit_polynomial(ring, lam_ring.modulus, lam)
        eigenvalues = [lam]
        for _ in range(1, d):
            eigenvalues.append(lam_ring.rpow(eigenvalues[-1], p))
        raw_orbits.append((lam_ring, eigenvalues, mult, factor_coeffs))
    minimal = [1]
    for *_, factor_coeffs in raw_orbits:
        minimal = fppoly.mul(minimal, factor_coeffs, pk)
    powers = [PadicMatrix.identity(ring, U.n)]  # U^0, ..., U^(deg m - 1)
    while len(powers) < len(minimal) - 1:
        powers.append(U if len(powers) == 1 else powers[-1] @ U)
    orbits = []
    for lam_ring, eigenvalues, mult, factor_coeffs in raw_orbits:
        lam = eigenvalues[0]
        minimal_raw = [lam_ring.rfrom_int(c) for c in minimal]
        # L = m / (t - lambda) by synthetic division, scaled by 1 / L(lambda) = 1 / m'(lambda)
        quotient, _ = ringpoly.divide_linear(lam_ring, minimal_raw, lam)
        inv_slope = lam_ring.rinv(ringpoly.divide_linear(lam_ring, quotient, lam)[1])
        coeffs = [lam_ring.rmul(inv_slope, c) for c in quotient]
        # sigma fixes U and m and maps lambda to lambda^p
        projectors = [_combine_powers(lam_ring, coeffs, powers)]
        for _ in range(1, len(eigenvalues)):
            projectors.append(projectors[-1].frobenius_map())
        orbits.append(
            SpectralOrbit(
                ring=lam_ring,
                eigenvalues=tuple(eigenvalues),
                projectors=tuple(projectors),
                multiplicity=mult,
                factor=tuple(factor_coeffs),
            )
        )
    datum = SpectralDatum(
        base_ring=ring,
        n=U.n,
        orbits=tuple(orbits),
        unipotent=PadicMatrix.identity(ring, U.n),
    )
    if not datum.verify(expected=U):
        raise ArithmeticError("spectral reconstruction audit failed")
    return datum


def _combine_powers(ring: AnyRing, coeffs: list, powers: list[PadicMatrix]) -> PadicMatrix:
    """sum c_k A_k over ring, for raw values c_k of ring and Z_p matrices A_k."""
    pk, n = ring.pk, powers[0].n
    entries = zip(*(sum(A.rows, ()) for A in powers))  # per entry, its values in A_0, A_1, ...
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


def spectral_decompose(U: PadicMatrix, seed: int = fppoly.DEFAULT_SEED) -> SpectralDatum:
    """Full pipeline on any unitary: Jordan split, then the Teichmuller spectrum.

    After the pro-finite audit U^E = I, U_s = U^alpha is of Teichmuller type
    by construction (alpha^2 = alpha mod E), so it is not classified again;
    the spectral body still verifies its reconstruction of U_s.
    """
    _require_base_unitary(U)
    _audit(U)
    u_s, u_n = jordan_decompose(U)
    datum = _teichmuller_spectral(u_s, seed)
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


@dataclass(frozen=True)
class ProjectionResult:
    """Kernel (annihilator submodule) and cokernel (quotient) of f(U) mod p^j."""

    j: int
    kernel_basis: tuple
    kernel_dimension: int
    cokernel_divisors: tuple[int, ...]


def projection_functors(U: PadicMatrix, j: int, f: gm.LaurentPoly) -> ProjectionResult:
    """Realize the annihilator and quotient functors of (p^j, f) on (Z/p^j)^n."""
    if not 1 <= j <= U.ring.K:
        raise InputError(f"reduction level {j} outside [1, {U.ring.K}]")
    B = f.reduce(j).evaluate_matrix(U.reduce(j))
    profile = B.smith_form()
    return ProjectionResult(
        j=j,
        kernel_basis=tuple(profile.kernel_basis()),
        kernel_dimension=profile.kernel_dimension(),
        cokernel_divisors=profile.divisors,
    )


# -- spectrum table -----------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumRow:
    epsilon: str  # "p^j" or "1-"
    j: int
    orbit: tuple[int, ...]  # residue irreducible labeling the Teichmuller cluster
    dimension: int
    cokernel_divisors: tuple[int, ...]


@dataclass(frozen=True)
class SpectrumTable:
    n: int
    rows: tuple[SpectrumRow, ...]
    torsion_is_whole_module: bool
    completion_is_whole_module: bool


def spectrum_table(U: PadicMatrix, j_list, seed: int = fppoly.DEFAULT_SEED) -> SpectrumTable:
    """Component dimensions of the spectrum at each reduction level.

    The characteristic polynomial (a unit polynomial for unitary U) is grouped
    into Teichmuller clusters at each level; the component of a cluster is the
    kernel of its grouped factor evaluated at U, a free direct summand whose
    rank is reported.  Ranks sum to n: the module is entirely torsion and
    complete under a unitary, and the spectrum is never empty.
    """
    _require_unitary(U)
    ring = U.ring
    if not isinstance(ring, Zp):
        raise InputError("spectrum tables are computed for base-ring operators")
    chi = U.char_poly_raw()
    f = gm.LaurentPoly.from_coeffs(ring, chi)
    rows = []
    for j_entry in j_list:
        if j_entry is ONE_MINUS:
            j, label = 1, "1-"
        else:
            j, label = int(j_entry), f"p^{int(j_entry)}"
        factorization = gm.teich_factor(f, j, seed=seed)
        dims = 0
        for orbit_label, coeffs in sorted(factorization.factors.items()):
            poly = gm.LaurentPoly.from_coeffs(ring.at_precision(j), coeffs)
            result = projection_functors(U, j, poly)
            full = sum(1 for d in result.cokernel_divisors if d == j)
            partial = [d for d in result.cokernel_divisors if 0 < d < j]
            if partial:
                raise ArithmeticError("component is not a free summand")
            if full == 0:
                raise ArithmeticError("spectrum component vanished")  # Sp(M) != {0}
            dims += full
            rows.append(
                SpectrumRow(
                    epsilon=label,
                    j=j,
                    orbit=orbit_label,
                    dimension=full,
                    cokernel_divisors=result.cokernel_divisors,
                )
            )
        if dims != U.n:
            raise ArithmeticError("component dimensions do not sum to n")
    return SpectrumTable(
        n=U.n,
        rows=tuple(rows),
        torsion_is_whole_module=True,
        completion_is_whole_module=True,
    )
