"""Probability, measurement, evolution, the shift model, torus relations."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from padicu import matrices, quantum, unitary
from padicu.errors import NonCommuting, NotATorusPair, NotOrthogonal, RadiusViolation
from padicu.matrices import PadicMatrix
from padicu.quantum import EvolutionPair, WaveFunction, clock_shift_pair
from padicu.sampling import random_matrix, random_unitary
from padicu.scalars import Zp


def M(ring, rows):
    return PadicMatrix(ring, rows)


def coordinate_projectors(ring, n):
    out = []
    for i in range(n):
        rows = [[1 if (r == c == i) else 0 for c in range(n)] for r in range(n)]
        out.append(M(ring, rows))
    return out


def test_probability_coordinate_example():
    ring = Zp(3, 4)
    psi = WaveFunction(ring, [1, 3, 0])
    report = quantum.probability(coordinate_projectors(ring, 3), psi)
    assert [n.value() for n in report.per_event] == [1, Fraction(1, 3), Fraction(1, 3**4)]
    assert report.per_event[2].at_floor
    assert report.total.value() == 1


def test_probability_identity_and_spectral():
    ring = Zp(5, 3)
    psi = WaveFunction(ring, [1, 1])
    report = quantum.probability([PadicMatrix.identity(ring, 2)], psi)
    assert report.total.value() == 1

    datum = unitary.teichmuller_spectral(M(ring, [[1, 0], [0, -1]]))
    projectors = [datum.orbit_projector(i) for i in range(len(datum.orbits))]
    report2 = quantum.probability(projectors, psi)
    assert [n.value() for n in report2.per_event] == [1, 1]
    assert report2.total.value() == 1


def test_probability_rejects_bad_projectors():
    ring = Zp(3, 3)
    not_idem = M(ring, [[1, 1], [1, 1]])
    with pytest.raises(NotOrthogonal):
        quantum.probability([not_idem], WaveFunction(ring, [1, 0]))
    p0 = M(ring, [[1, 0], [0, 0]])
    with pytest.raises(NotOrthogonal):
        quantum.probability([p0, p0], WaveFunction(ring, [1, 0]))


def test_probability_sup_rule_on_spectral_output():
    rng = random.Random(61)
    ring = Zp(3, 3)
    from padicu.sampling import random_teichmuller

    for _ in range(5):
        u = random_teichmuller(ring, 3, rng)
        datum = unitary.teichmuller_spectral(u)
        projectors = [datum.orbit_projector(i) for i in range(len(datum.orbits))]
        psi = WaveFunction(ring, [rng.randrange(ring.pk) for _ in range(3)])
        report = quantum.probability(projectors, psi)
        assert report.total == max(report.per_event)


def test_measure_examples():
    ring = Zp(3, 3)
    psi = WaveFunction(ring, [1, 1])
    full = quantum.measure(psi, PadicMatrix.identity(ring, 2))
    assert full.state == psi
    nothing = quantum.measure(psi, PadicMatrix.zeros(ring, 2))
    assert nothing.norm.at_floor
    # orthogonal spectral events annihilate each other
    datum = unitary.teichmuller_spectral(M(Zp(5, 3), [[1, 0], [0, -1]]))
    p0 = datum.orbit_projector(0)
    p1 = datum.orbit_projector(1)
    psi5 = WaveFunction(Zp(5, 3), [2, 3])
    once = quantum.measure(psi5, p0)
    twice = quantum.measure(once.state, p1)
    assert all(v == 0 for v in twice.state.values)
    # measurement idempotence
    again = quantum.measure(once.state, p0)
    assert again.state == once.state


def test_exp_matrix_nilpotent_example():
    ring = Zp(3, 4)
    h = M(ring, [[0, 1], [0, 0]])
    out = quantum.exp_matrix(h, 3)
    assert out == M(ring, [[1, 3], [0, 1]])
    assert quantum.exp_matrix(h, 0) == PadicMatrix.identity(ring, 2)


def test_exp_matrix_radius():
    ring = Zp(3, 4)
    h = M(ring, [[0, 1], [0, 0]])
    with pytest.raises(RadiusViolation):
        quantum.exp_matrix(h, 1)
    # |H| <= 1/p^2 widens the admissible radius past pZ_p under the override
    h_small = M(ring, [[0, 9], [9, 9]])
    with pytest.raises(RadiusViolation):
        quantum.exp_matrix(h_small, 1)
    out = quantum.exp_matrix(h_small, 1, allow_extended_radius=True)
    assert out.is_unitary()


def test_exp_matrix_group_law():
    rng = random.Random(67)
    ring = Zp(3, 4)
    for _ in range(8):
        h = random_matrix(ring, 2, rng)
        t = 3 * rng.randrange(ring.pk // 3)
        s = 3 * rng.randrange(ring.pk // 3)
        lhs = quantum.exp_matrix(h, (t + s) % ring.pk)
        rhs = quantum.exp_matrix(h, t) @ quantum.exp_matrix(h, s)
        assert lhs == rhs


def _series_oracle(h_rows, t, p, K):
    """exp(tH) mod p^K: sum_j (tH)^j / j! over Q, each term a Fraction reduced mod p^K.

    Every term is p-integral, and for p >= 3 term j has valuation at least
    j - (j - 1)/2, so the terms past j = 2K vanish mod p^K."""
    pk, n = p**K, len(h_rows)
    x = [[t * v for v in row] for row in h_rows]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    acc = [row[:] for row in power]
    for j in range(1, 2 * K + 2):
        power = [[sum(power[i][k] * x[k][c] for k in range(n)) for c in range(n)] for i in range(n)]
        for i in range(n):
            for c in range(n):
                term = Fraction(power[i][c], math.factorial(j))
                assert term.denominator % p != 0
                acc[i][c] = (acc[i][c] + term.numerator * pow(term.denominator, -1, pk)) % pk
    return tuple(map(tuple, acc))


def _exp_cases(p, K, n, rng):
    """(H, t, override): v(H) in {0, 1, 2} with v(t) = 1..K, both signs of t, and
    v(t) = 0 under the override where v(H) >= 2."""
    ring = Zp(p, K)
    for v_h in (0, 1, 2):
        H = random_matrix(ring, n, rng).scale(p**v_h)
        for v_t in range(1, K + 1):
            yield H, rng.choice((1, -1)) * p**v_t * rng.randrange(1, p), False
        if H.min_valuation() >= 2:
            yield H, rng.randrange(1, p) * rng.choice((1, -1)), True


def test_exp_matrix_against_series_oracle():
    """exp(tH) against the series over Q at p in {3, 5, 7}, K in {1, 4, 20} and
    n in {1, 2, 4}, and on one fixed example; where mu = v(t) + v(H) >= K it is I."""
    h = M(Zp(5, 3), [[1, 2], [3, 4]])
    assert quantum.exp_matrix(h, 5).rows == _series_oracle([[1, 2], [3, 4]], 5, 5, 3)
    for p, K, n in product((3, 5, 7), (1, 4, 20), (1, 2, 4)):
        rng = random.Random(f"exp-oracle-{p}-{K}-{n}")
        identity = PadicMatrix.identity(Zp(p, K), n)
        for H, t, override in _exp_cases(p, K, n, rng):
            out = quantum.exp_matrix(H, t, allow_extended_radius=override)
            assert out.rows == _series_oracle([list(row) for row in H.rows], t, p, K), (p, K, t, override)
            if H.ring.scalar(t).valuation() + H.min_valuation() >= K:
                assert out == identity


def test_exp_matrix_multiplies_only_at_the_operator_precision(monkeypatch):
    """Every product exp(tH) takes is a `matrices._matmul` over H's own ring."""
    rings = []
    real = matrices._matmul

    def recorded(ring, A, B):
        rings.append(ring)
        return real(ring, A, B)

    monkeypatch.setattr(matrices, "_matmul", recorded)
    rng = random.Random(71)
    for p, K, n in [(3, 4, 3), (5, 10, 4), (3, 40, 2)]:
        H = random_matrix(Zp(p, K), n, rng)
        rings.clear()
        quantum.exp_matrix(H, p)
        assert rings and all(ring == H.ring for ring in rings)


def test_evolution_pair_validation():
    ring = Zp(3, 3)
    h = M(ring, [[0, 1], [0, 0]])
    u = M(ring, [[1, 1], [0, 1]])
    EvolutionPair(h, u)
    with pytest.raises(NonCommuting):
        EvolutionPair(M(ring, [[0, 1], [0, 0]]), M(ring, [[1, 0], [1, 1]]))


def test_evolve_examples():
    ring = Zp(3, 3)
    pair = EvolutionPair(PadicMatrix.zeros(ring, 2), PadicMatrix.identity(ring, 2))
    psi = WaveFunction(ring, [2, 5])
    assert quantum.evolve(pair, psi, 3, 3) == psi

    h = M(ring, [[0, 1], [0, 0]])
    pair2 = EvolutionPair(h, PadicMatrix.identity(ring, 2))
    out = quantum.evolve(pair2, WaveFunction(ring, [1, 1]), 0, 3)
    assert list(out.values) == [4, 1]
    assert out.norm().value() == 1

    rot = M(ring, [[0, -1], [1, 0]])
    pair3 = EvolutionPair(PadicMatrix.zeros(ring, 2), rot)
    psi0 = WaveFunction(ring, [1, 3])
    for k in range(1, 5):
        assert quantum.evolve(pair3, psi0, k, 0).norm() == psi0.norm()
    # two-clock consistency: a single discrete step at t = 0 is exactly U
    stepped = quantum.evolve(pair3, psi0, 1, 0)
    assert stepped.values == tuple(s.lift() for s in rot.apply(psi0.values))


def test_shift_model_small():
    model = quantum.spectrum_shift_model(2, 3, 3)
    ring = model.U.ring
    assert model.U == M(ring, [[1, 1], [0, 1]])
    assert model.checked_dimension == 1


@pytest.mark.parametrize("size,p", [(3, 3), (5, 3), (4, 5)])
def test_shift_model_relations(size, p):
    model = quantum.spectrum_shift_model(size, p, 3)
    # relation columns were audited at construction; recheck independently
    lhs = model.U @ model.X - model.X @ model.U
    for c in range(size - 1):
        for r in range(size):
            assert lhs.rows[r][c] == model.U.rows[r][c]
    assert unitary.classify(model.U).is_continuous
    # lowering kills constants
    assert all(s.lift() == 0 for s in model.lowering.apply([1] + [0] * (size - 1)))


def test_torus_commuting_pair():
    ring = Zp(3, 3)
    u = M(ring, [[1, 1], [0, 1]])
    rel = quantum.torus_check(u, u)
    assert rel.xi.lift() == 1
    assert rel.near_commutative_at == (1, 1)


def test_torus_clock_shift():
    ring = Zp(5, 3)
    clock, shift, zeta = clock_shift_pair(ring, 4)
    rel = quantum.torus_check(clock, shift)
    assert rel.xi == zeta
    assert zeta**4 == ring.scalar(1)
    assert zeta**2 != ring.scalar(1)
    assert rel.near_commutative_at == (1, 4)  # first nm divisible by the order 4


def test_torus_non_scalar_commutator():
    ring = Zp(3, 3)
    rng = random.Random(71)
    found = False
    for _ in range(30):
        u, v = random_unitary(ring, 2, rng), random_unitary(ring, 2, rng)
        c = u @ v @ u.inverse() @ v.inverse()
        scalar = all(
            c.rows[i][j] == (c.rows[0][0] if i == j else 0)
            for i in range(2)
            for j in range(2)
        )
        if not scalar:
            with pytest.raises(NotATorusPair):
                quantum.torus_check(u, v)
            found = True
            break
    assert found
