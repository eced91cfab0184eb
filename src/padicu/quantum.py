"""Wave functions, ultrametric probability, measurement, and time evolution.

Probability of an event projector is the norm of the projected state; for an
orthogonal decomposition the total is the supremum of the parts, which is an
exact theorem for integral idempotents and asserted on every call.
Measurement restricts the state without renormalizing; the norm is returned
so callers can renormalize when it is a unit.

Evolution pairs a discrete unitary clock with a continuous exponential clock.
exp(Ht) is summed at an internally extended precision so the divisions by j!
are exact, then reduced back to p^K.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import factorial_valuation
from .errors import (
    InputError,
    NonCommuting,
    NotATorusPair,
    NotOrthogonal,
    NotUnitary,
    RadiusViolation,
    Unsupported,
)
from .matrices import Norm, PadicMatrix, vector_norm
from .scalars import PadicScalar, Zp, teichmuller_lift


class WaveFunction:
    """Vector of scalars with its cached sup norm; a state has norm exactly 1."""

    __slots__ = ("ring", "values", "_norm")

    def __init__(self, ring, values):
        self.ring = ring
        self.values = tuple(ring.scalar(v).raw for v in values)
        self._norm = None

    @property
    def n(self) -> int:
        return len(self.values)

    def norm(self) -> Norm:
        if self._norm is None:
            self._norm = vector_norm(self.ring, self.values)
        return self._norm

    def scalars(self) -> tuple[PadicScalar, ...]:
        return tuple(self.ring.scalar(v) for v in self.values)

    def __eq__(self, other):
        return (
            isinstance(other, WaveFunction)
            and self.ring == other.ring
            and self.values == other.values
        )

    def __repr__(self):
        return f"WaveFunction({list(self.values)}, norm={self.norm()})"


def _as_wave(ring, psi) -> WaveFunction:
    if isinstance(psi, WaveFunction):
        if psi.ring != ring:
            raise InputError("wave function lives in a different ring")
        return psi
    return WaveFunction(ring, psi)


def _apply(matrix: PadicMatrix, psi: WaveFunction) -> WaveFunction:
    return WaveFunction(matrix.ring, [s.raw for s in matrix.apply(psi.values)])


def _check_projector(pi: PadicMatrix):
    if pi @ pi != pi:
        raise NotOrthogonal("event operator is not idempotent")


class ProbabilityReport(NamedTuple):
    per_event: tuple[Norm, ...]
    total: Norm


def probability(projectors, psi) -> ProbabilityReport:
    """Norms |pi_i(psi)| for a pairwise-orthogonal family, plus their supremum.

    The supremum rule |pi(psi)| = max_i |pi_i(psi)| holds exactly for
    integral orthogonal idempotents and is asserted.
    """
    if not projectors:
        raise InputError("at least one event projector is required")
    ring = projectors[0].ring
    n = projectors[0].n
    psi = _as_wave(ring, psi)
    zero = PadicMatrix.zeros(ring, n)
    for i, pi in enumerate(projectors):
        _check_projector(pi)
        for j in range(i + 1, len(projectors)):
            if pi @ projectors[j] != zero or projectors[j] @ pi != zero:
                raise NotOrthogonal("event operators are not pairwise orthogonal")
    total_projector = zero
    for pi in projectors:
        total_projector = total_projector + pi
    _check_projector(total_projector)
    norms = tuple(_apply(pi, psi).norm() for pi in projectors)
    total = _apply(total_projector, psi).norm()
    if total != max(norms):
        raise ArithmeticError("supremum rule failed")  # impossible for valid input
    return ProbabilityReport(norms, total)


class MeasurementResult(NamedTuple):
    state: WaveFunction  # restricted, not renormalized
    norm: Norm


def measure(psi, pi: PadicMatrix) -> MeasurementResult:
    """Restrict the wave function to pi(psi); no renormalization is applied."""
    _check_projector(pi)
    psi = _as_wave(pi.ring, psi)
    restricted = _apply(pi, psi)
    return MeasurementResult(restricted, restricted.norm())


# -- time evolution --------------------------------------------------------------


def exp_matrix(H: PadicMatrix, t, allow_extended_radius: bool = False) -> PadicMatrix:
    """Truncated exp(Ht), exact mod p^K.

    Default domain is t in pZ_p; with the override flag the radius is
    |t| < 1/(p|H|) instead, which widens the domain when |H| < 1.  The series
    is summed at precision K + v_p(J!) so every division by j! is exact.
    """
    ring = H.ring
    if not isinstance(ring, Zp):
        raise Unsupported("evolution is implemented over the base ring")
    p, K = ring.p, ring.K
    t_scalar = ring.scalar(t) if not isinstance(t, PadicScalar) else t
    if t_scalar.ring != ring:
        raise InputError("time parameter must match the operator ring")
    v_t = t_scalar.valuation()
    v_h = H.min_valuation()
    if v_t < 1 and not (allow_extended_radius and v_t + v_h >= 2):
        raise RadiusViolation(
            f"t has valuation {v_t}; need t in pZ_p (or |t| < 1/(p|H|) with the override)"
        )
    mu = v_t + v_h
    if mu == 0:
        raise RadiusViolation("series does not converge at this t")
    # least J with J*mu - (J-1)/(p-1) >= K for all later terms
    J = 1
    while J * mu * (p - 1) - (J - 1) < K * (p - 1):
        J += 1
    extra = factorial_valuation(max(J - 1, 0), p)
    work_ring = Zp(p, K + extra)
    th = PadicMatrix(work_ring, H.rows).scale(t_scalar.lift())
    total = power = PadicMatrix.identity(work_ring, H.n)
    fact = 1
    for j in range(1, J):
        power = power @ th
        fact *= j
        pf = p ** factorial_valuation(j, p)
        if any(v % pf for row in power.rows for v in row):
            raise ArithmeticError("inexact factorial division")  # unreachable
        quotient = PadicMatrix(work_ring, [[v // pf for v in row] for row in power.rows])
        total = total + quotient.scale(pow(fact // pf, -1, work_ring.pk))
    return total.reduce(K)


class EvolutionPair(NamedTuple("EvolutionPair", [("H", PadicMatrix), ("U", PadicMatrix)])):
    """Commuting (H, U): continuous generator with |H| <= 1 and a discrete unitary."""

    __slots__ = ()

    def __new__(cls, H: PadicMatrix, U: PadicMatrix):
        self = super().__new__(cls, H, U)
        if not self.U.is_unitary():
            raise NotUnitary("discrete clock must be unitary")
        if self.H @ self.U != self.U @ self.H:
            raise NonCommuting("H and U must commute")
        return self

    @classmethod
    def _make(cls, fields):  # _replace builds through _make: validate there too
        return cls(*fields)


def evolve(pair: EvolutionPair, psi0, k: int, t, allow_extended_radius: bool = False) -> WaveFunction:
    """psi = U^k exp(Ht) psi0; both clocks preserve the norm, which is audited."""
    ring = pair.H.ring
    psi0 = _as_wave(ring, psi0)
    flow = exp_matrix(pair.H, t, allow_extended_radius=allow_extended_radius)
    result = _apply(pair.U.matrix_power(k), _apply(flow, psi0))
    if result.norm() != psi0.norm():
        raise ArithmeticError("evolution failed norm preservation")  # impossible
    return result


# -- shift model and torus relations ------------------------------------------------


class ShiftModel(NamedTuple):
    """Shift and multiplication operators truncated to the binomial basis.

    The top basis vector is truncation-polluted (multiplication raises the
    degree), so the relations hold on the first size-1 basis vectors; that
    count is recorded in checked_dimension.
    """

    U: PadicMatrix
    X: PadicMatrix
    raising: PadicMatrix
    lowering: PadicMatrix
    hamiltonian: PadicMatrix
    checked_dimension: int


def spectrum_shift_model(size: int, p: int, K: int) -> ShiftModel:
    """Translation and coordinate operators on binomial-coefficient functions.

    U shifts the argument by one (bidiagonal on the basis), X multiplies by
    the coordinate; UX - XU = U holds exactly on the first size-1 basis
    vectors, the ladder operators satisfy [lowering, raising] = 1 there, and
    the lowering operator kills the constants.
    """
    if size < 2:
        raise InputError("the truncated model needs size >= 2")
    ring = Zp(p, K)
    u_rows = [[0] * size for _ in range(size)]
    x_rows = [[0] * size for _ in range(size)]
    for k in range(size):
        u_rows[k][k] = 1
        if k + 1 < size:
            u_rows[k][k + 1] = 1  # argument shift adds the lower binomial
        x_rows[k][k] = k % ring.pk
        if k + 1 < size:
            x_rows[k + 1][k] = (k + 1) % ring.pk
    U = PadicMatrix.from_rows(ring, u_rows)
    X = PadicMatrix.from_rows(ring, x_rows)
    checked = size - 1
    _assert_on_columns(U @ X - X @ U, U, checked)
    raising = X @ U.inverse()
    lowering = U - PadicMatrix.identity(ring, size)
    hamiltonian = raising @ lowering
    commutator = lowering @ raising - raising @ lowering
    _assert_on_columns(commutator, PadicMatrix.identity(ring, size), checked)
    if any(s.lift() != 0 for s in lowering.apply([1] + [0] * (size - 1))):
        raise ArithmeticError("lowering operator failed to kill constants")
    # U is continuous (U^alpha = I in `unitary`'s terms), audited through the
    # fact it follows from: lowering = U - I is strictly upper triangular mod
    # p^K, so N = U - I has N^size = 0 and U = I + N is unipotent.  Then
    # U^(p^k) = sum over i < size of binom(p^k, i) N^i, which is I once k is
    # large, so the order of U is a power of p.  It divides E = M p^A, as
    # every unitary's order does, hence divides p^A, and alpha = 0 mod p^A.
    if any(lowering.rows[r][c] for r in range(size) for c in range(r + 1)):
        raise ArithmeticError("shift operator must be continuous type")
    return ShiftModel(U, X, raising, lowering, hamiltonian, checked)


def _assert_on_columns(actual: PadicMatrix, expected: PadicMatrix, columns: int):
    for c in range(columns):
        for r in range(actual.n):
            if actual.rows[r][c] != expected.rows[r][c]:
                raise ArithmeticError("truncated relation failed inside the checked range")


class TorusRelation(NamedTuple):
    """UV = xi VU with the power law checked up to the bound."""

    xi: PadicScalar
    bound: int
    near_commutative_at: tuple[int, int] | None  # least (n, m) with |xi^(nm) - 1| < 1/p


def torus_check(U: PadicMatrix, V: PadicMatrix, bound: int = 4) -> TorusRelation:
    """Detect the scalar xi with UV = xi VU and verify the power relation.

    Raises NotATorusPair when the commutator is not scalar.  The report also
    names the least exponents where xi^(nm) falls within 1/p of 1, where the
    truncated algebra is nearly commutative.
    """
    if not U.is_unitary() or not V.is_unitary():
        raise NotUnitary("torus relations require unitary operators")
    ring = U.ring
    n_dim = U.n
    if n_dim == 0:
        raise InputError("torus relations need n >= 1")
    commutator = U @ V @ U.inverse() @ V.inverse()
    xi_raw = commutator.rows[0][0]
    if commutator != PadicMatrix.identity(ring, n_dim).scale(xi_raw):
        raise NotATorusPair("commutator is not a scalar operator")
    xi = PadicScalar(ring, xi_raw)
    near = None
    for a in range(1, bound + 1):
        ua = U.matrix_power(a)
        for b in range(1, bound + 1):
            vb = V.matrix_power(b)
            lhs = ua @ vb
            rhs = (vb @ ua).scale(ring.rpow(xi_raw, a * b))
            if lhs != rhs:
                raise ArithmeticError("power relation failed")  # impossible if scalar
            if near is None:
                gap = ring.rsub(ring.rpow(xi_raw, a * b), ring.one)
                if ring.rval(gap) >= 2:
                    near = (a, b)
    return TorusRelation(xi, bound, near)


def clock_shift_pair(ring: Zp, d: int):
    """A torus pair of size d | p-1: Teichmuller clock and cyclic shift."""
    p = ring.p
    if d < 1 or (p - 1) % d != 0:
        raise InputError(f"d = {d} must divide p - 1 = {p - 1}")
    from . import moduli

    root = (-moduli.residue_modulus(p, 1)[0]) % p
    zeta = teichmuller_lift(ring, root) ** ((p - 1) // d)
    clock = PadicMatrix.diagonal(ring, [zeta**i for i in range(d)])
    shift_rows = [[0] * d for _ in range(d)]
    for i in range(d):
        shift_rows[(i + 1) % d][i] = 1
    shift = PadicMatrix.from_rows(ring, shift_rows)
    return clock, shift, zeta
