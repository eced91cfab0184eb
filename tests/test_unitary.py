"""Classification, Jordan split, spectral data, one-parameter groups, projections."""

import math
import random
import re

import pytest

from padicu import fppoly, gm, unitary
from padicu.errors import (
    NotAUnit,
    NotContinuous,
    NotTeichmuller,
    NotUnitary,
    PadicError,
    Unsupported,
)
from padicu.matrices import PadicMatrix, vector_norm
from padicu.sampling import (
    random_continuous,
    random_teichmuller,
    random_unitary,
)
from padicu.scalars import ONE_MINUS, UnramRing, Zp, teichmuller_lift


def M(ring, rows):
    return PadicMatrix.from_rows(ring, rows)


def test_residual_order_examples():
    ring = Zp(3, 3)
    assert unitary.residual_order(M(ring, [[1, 1], [0, 1]])) == 3
    assert unitary.residual_order(PadicMatrix.identity(ring, 2)) == 1
    assert unitary.residual_order(M(ring, [[1, 1], [1, 0]])) == 8
    with pytest.raises(NotUnitary):
        unitary.residual_order(M(ring, [[3, 0], [0, 1]]))


def test_residual_order_matches_enumeration():
    ring = Zp(3, 2)
    rng = random.Random(2)
    for _ in range(15):
        u = random_unitary(ring, 2, rng)
        reduced = u.reduce(1)
        identity = PadicMatrix.identity(reduced.ring, 2)
        power, order = reduced, 1
        while power != identity:
            power = power @ reduced
            order += 1
        assert unitary.residual_order(u) == order


def test_classify_examples():
    ring = Zp(3, 3)
    assert unitary.classify(M(ring, [[1, 1], [0, 1]])).kind == "CONTINUOUS"
    assert unitary.classify(M(ring, [[0, -1], [1, 0]])).kind == "TEICHMULLER"
    assert unitary.classify(M(ring, [[1, 1], [1, 0]])).kind == "PROFINITE_MIXED"
    identity_class = unitary.classify(PadicMatrix.identity(ring, 2))
    assert identity_class.kind == "TEICHMULLER" and identity_class.is_continuous


def test_classify_witness_is_factorial_limit():
    # independent oracle: literal U^(p^(n!)) powers for a case with order 16
    # (naive consecutive-equality stopping would stall on U^9 here)
    from padicu.moduli import canonical_modulus

    ring = Zp(3, 2)
    comp = PadicMatrix.companion(ring, list(canonical_modulus(3, 4, 2))[:-1])
    u = comp.matrix_power(5)  # Teichmuller element of order 16
    witness = unitary.classify(u).witness
    seq = [u.matrix_power(pow(3, math.factorial(k), 16 * 81)) for k in range(1, 8)]
    assert seq[-1] == seq[-2] == witness
    assert witness == u  # Teichmuller: the limit returns U itself
    # the first agreeing pair in the literal sequence is a false plateau
    assert seq[1] == seq[2] != witness


def _powers(u):
    """Every power of u below its order, by repeated multiplication."""
    identity = PadicMatrix.identity(u.ring, u.n)
    powers = [identity]
    while (nxt := powers[-1] @ u) != identity:
        powers.append(nxt)
    return powers


@pytest.mark.parametrize(
    "ring,n",
    [(Zp(3, 2), 2), (Zp(5, 2), 2), (UnramRing(3, 2, 2), 2), (Zp(3, 3), 2), (Zp(3, 2), 3)],
    ids=["Zp(3,2)-n2", "Zp(5,2)-n2", "UnramRing(3,2,2)-n2", "Zp(3,3)-n2", "Zp(3,2)-n3"],
)
def test_classify_witness_is_factorial_limit_on_random_unitaries(ring, n):
    # independent oracle: ord(U) by listing powers, then literal U^(p^(k!) mod ord(U))
    rng = random.Random(ring.p * 10 + ring.degree)
    for _ in range(6):
        u = random_unitary(ring, n, rng)
        powers = _powers(u)
        seq = [powers[pow(ring.p, math.factorial(k), len(powers))] for k in range(1, 9)]
        assert seq[-1] == seq[-2] == seq[-3], "factorial powers failed to stabilize"
        cls = unitary.classify(u)
        assert cls.witness == seq[-1]
        assert unitary.jordan_decompose(u)[0] == seq[-1]
        assert cls.is_teichmuller == (seq[-1] == u)
        assert cls.is_continuous == (seq[-1] == powers[0])


def test_large_prime_needs_no_factoring(monkeypatch):
    # q^k - 1 at p = 1000003 is far beyond trial division; the closed form never factors
    from padicu import arith

    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(arith, "factorize", refuse)
    ring = Zp(1000003, 2)
    u = random_unitary(ring, 8, random.Random(8))
    cls = unitary.classify(u)
    u_s, u_n = unitary.jordan_decompose(u)
    assert u_s @ u_n == u
    assert cls.witness == u_s


def test_jordan_examples():
    ring = Zp(3, 2)
    rot = M(ring, [[0, -1], [1, 0]])
    u_s, u_n = unitary.jordan_decompose(rot)
    assert (u_s, u_n) == (rot, PadicMatrix.identity(ring, 2))
    unip = M(ring, [[1, 1], [0, 1]])
    u_s, u_n = unitary.jordan_decompose(unip)
    assert (u_s, u_n) == (PadicMatrix.identity(ring, 2), unip)
    mixed = M(ring, [[1, 1], [1, 0]])
    u_s, u_n = unitary.jordan_decompose(mixed)
    assert u_s == mixed.matrix_power(9)
    assert u_n == mixed @ u_s.inverse()
    assert u_s.matrix_power(3**2) == u_s
    assert unitary.classify(u_n).is_continuous


@pytest.mark.parametrize("n,p,K", [(2, 3, 4), (3, 5, 3)])
def test_jordan_audit_random(n, p, K):
    ring = Zp(p, K)
    rng = random.Random(100 * n + p)
    for _ in range(20):
        u = random_unitary(ring, n, rng)
        u_s, u_n = unitary.jordan_decompose(u)
        assert u_s @ u_n == u and u_n @ u_s == u
        assert unitary.classify(u_s).is_teichmuller
        assert unitary.classify(u_n).is_continuous
        # reduction of U_n is unipotent: (U_n - I)^n = 0 mod p
        delta = u_n.reduce(1) - PadicMatrix.identity(ring.at_precision(1), n)
        assert delta.matrix_power(n).is_zero()


def test_spectral_diagonal_example():
    ring = Zp(5, 3)
    u = M(ring, [[1, 0], [0, -1]])
    datum = unitary.teichmuller_spectral(u)
    assert datum.verify(expected=u)
    projectors = {}
    for orbit in datum.orbits:
        for lam, proj in zip(orbit.eigenvalues, orbit.projectors):
            projectors[lam] = proj
    assert projectors[1] == M(ring, [[1, 0], [0, 0]])
    assert projectors[ring.pk - 1] == M(ring, [[0, 0], [0, 1]])


def test_spectral_rotation_example():
    ring = Zp(5, 2)
    u = M(ring, [[0, -1], [1, 0]])
    datum = unitary.teichmuller_spectral(u)
    eigen = sorted(lam for orbit in datum.orbits for lam in orbit.eigenvalues)
    assert eigen == [7, 18]  # the Teichmuller square roots of -1 mod 25
    for orbit in datum.orbits:
        lam = orbit.eigenvalues[0]
        two_lam_inv = ring.scalar(2 * lam).inverse()
        expected = (u + PadicMatrix.identity(ring, 2).scale(lam)).scale(two_lam_inv)
        assert orbit.projectors[0] == expected


def test_spectral_irreducible_orbit():
    ring = Zp(3, 2)
    mixed = M(ring, [[1, 1], [1, 0]])
    u_s, _ = unitary.jordan_decompose(mixed)
    datum = unitary.teichmuller_spectral(u_s)
    assert len(datum.orbits) == 1
    orbit = datum.orbits[0]
    assert orbit.degree == 2
    assert isinstance(orbit.ring, UnramRing)
    # Frobenius swaps the two projectors
    p0, p1 = orbit.projectors
    assert p0.frobenius_map() == p1 and p1.frobenius_map() == p0


def test_spectral_requires_teichmuller():
    ring = Zp(3, 2)
    with pytest.raises(NotTeichmuller):
        unitary.teichmuller_spectral(M(ring, [[1, 1], [0, 1]]))
    mixed = M(ring, [[1, 1], [1, 0]])
    assert unitary.classify(mixed).kind == unitary.PROFINITE_MIXED
    with pytest.raises(NotTeichmuller):
        unitary.teichmuller_spectral(mixed)


@pytest.mark.parametrize("p,K,n", [(3, 3, 3), (5, 4, 3), (7, 6, 3), (5, 20, 4)])
def test_spectral_decompose_equals_spectrum_of_teichmuller_part(p, K, n):
    """Passing the Jordan datum along must give what the public checked path gives."""
    rng = random.Random(p * K + n)
    ring = Zp(p, K)
    for make in (random_unitary, random_continuous, random_teichmuller):
        u = make(ring, n, rng)
        u_s, u_n = unitary.jordan_decompose(u)
        datum = unitary.spectral_decompose(u)
        reference = unitary.teichmuller_spectral(u_s)
        assert datum.unipotent == u_n
        assert len(datum.orbits) == len(reference.orbits)
        for got, want in zip(datum.orbits, reference.orbits):
            assert got.ring == want.ring
            assert got.eigenvalues == want.eigenvalues
            assert got.projectors == want.projectors
            assert (got.multiplicity, got.factor) == (want.multiplicity, want.factor)


def test_spectral_random_audit():
    rng = random.Random(41)
    ring = Zp(3, 3)
    for _ in range(10):
        u = random_teichmuller(ring, 3, rng)
        datum = unitary.teichmuller_spectral(u)
        assert datum.verify(expected=u)
        assert sum(o.degree * o.multiplicity for o in datum.orbits) == 3


def test_galois_act_examples():
    ring = Zp(5, 3)
    u = M(ring, [[1, 0], [0, -1]])
    assert unitary.galois_act(u, 0) == u
    assert unitary.galois_act(u, 1) == u  # -1 is Frobenius-fixed
    mixed_ring = Zp(3, 2)
    u_s, _ = unitary.jordan_decompose(M(mixed_ring, [[1, 1], [1, 0]]))
    assert unitary.galois_act(u_s, 2) == u_s  # full orbit degree
    twisted = unitary.galois_act(u_s, 1)
    assert twisted != u_s
    assert twisted @ u_s == u_s @ twisted  # commuting family
    assert unitary.galois_act(twisted, -1) == u_s


def test_galois_act_runs_the_spectral_checks():
    with pytest.raises(NotUnitary):
        unitary.galois_act(M(Zp(3, 2), [[3, 0], [0, 1]]), 1)
    with pytest.raises(Unsupported):
        unitary.galois_act(PadicMatrix.identity(UnramRing(3, 2, 2), 2), 1)
    with pytest.raises(NotTeichmuller):
        unitary.galois_act(M(Zp(3, 2), [[1, 1], [0, 1]]), 1)


def _orbit_sum_over_zp(base, partial):
    """Oracle: a Galois-fixed matrix over an orbit ring, read back over Z_p."""
    if isinstance(partial.ring, Zp):
        return partial
    rows = []
    for row in partial.rows:
        assert all(not any(value[1:]) for value in row)
        rows.append([value[0] for value in row])
    return PadicMatrix(base, rows)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_galois_act_matches_twisted_spectral_sum(p):
    """Oracle: sum of sigma^k(lambda_t) P_t built here from the orbits, not by a power."""
    rng = random.Random(70 + p)
    ring = Zp(p, 3)
    for n in range(1, 5):
        for _ in range(2):
            u = random_teichmuller(ring, n, rng)
            orbits = unitary.teichmuller_spectral(u).orbits
            for k in range(-2, 5):
                total = PadicMatrix.zeros(ring, n)
                for orbit in orbits:
                    d = orbit.degree
                    partial = PadicMatrix.zeros(orbit.ring, n)
                    for t, proj in enumerate(orbit.projectors):
                        partial = partial + proj.scale(orbit.eigenvalues[(t + k) % d])
                    total = total + _orbit_sum_over_zp(ring, partial)
                assert unitary.galois_act(u, k) == total


def test_spectral_decompose_attaches_unipotent():
    ring = Zp(3, 2)
    mixed = M(ring, [[1, 1], [1, 0]])
    datum = unitary.spectral_decompose(mixed)
    u_s, u_n = unitary.jordan_decompose(mixed)
    assert datum.unipotent == u_n
    assert datum.reconstruct() == u_s


def test_power_zp_examples():
    ring = Zp(3, 4)
    u = M(ring, [[1, 1], [0, 1]])
    assert unitary.power_zp(u, 0) == PadicMatrix.identity(ring, 2)
    assert unitary.power_zp(u, 1) == u
    h = ring.scalar(2).inverse()  # 2h = 1 mod 3^4
    half = unitary.power_zp(u, h)
    assert half == M(ring, [[1, h], [0, 1]])
    assert half @ half == u


def test_power_zp_group_law():
    rng = random.Random(17)
    ring = Zp(3, 3)
    for _ in range(8):
        u = random_continuous(ring, 2, rng)
        t, s = rng.randrange(ring.pk), rng.randrange(ring.pk)
        lhs = unitary.power_zp(u, (t + s) % ring.pk)
        assert lhs == unitary.power_zp(u, t) @ unitary.power_zp(u, s)
        k = rng.randrange(6)
        assert unitary.power_zp(u, k) == u.matrix_power(k)


def _jordan_block(ring, n):
    return M(ring, [[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("K", [1, 2])
def test_power_zp_when_n_exceeds_p(n, K):
    """For n > p the order of U reaches p^(K - 1 + unipotent_depth(n, p)) > p^K.

    So t mod p^K does not fix U^t: I + N has (I + N)^(p^K) != I here.
    """
    rng = random.Random(10 * n + K)
    ring = Zp(3, K)
    block = _jordan_block(ring, n)
    assert block.matrix_power(ring.pk) != PadicMatrix.identity(ring, n)
    for u in (block, random_continuous(ring, n, rng)):
        for t in (-1, ring.pk, ring.pk + 1, 27):
            assert unitary.power_zp(u, t) == u.matrix_power(t), t
        assert unitary.power_zp(u, -1) == u.inverse()
        assert unitary.zp_unit_action(u, -1) == u.inverse()
        assert unitary.zp_unit_action(u, ring.pk + 1) == u.matrix_power(ring.pk + 1)
    with pytest.raises(PadicError) as caught:
        unitary.power_zp(block, ring.scalar(1))  # known mod p^K only
    assert caught.value.exit_code == 3


def test_power_zp_requires_continuous():
    ring = Zp(3, 3)
    with pytest.raises(NotContinuous):
        unitary.power_zp(M(ring, [[0, -1], [1, 0]]), 2)


def test_zp_unit_action():
    rng = random.Random(29)
    ring = Zp(3, 3)
    u = random_continuous(ring, 2, rng)
    assert unitary.zp_unit_action(u, 1) == u
    v = rng.randrange(ring.pk)
    while v % ring.p == 0:
        v = rng.randrange(ring.pk)
    alpha = ring.scalar(v)
    forward = unitary.zp_unit_action(u, alpha)
    assert unitary.zp_unit_action(forward, alpha.inverse()) == u
    assert unitary.zp_unit_action(u, -1) == u.inverse()
    with pytest.raises(NotAUnit):
        unitary.zp_unit_action(u, 3)


def test_norm_preservation():
    rng = random.Random(37)
    ring = Zp(3, 3)
    for _ in range(10):
        u = random_unitary(ring, 3, rng)
        x = [rng.randrange(ring.pk) for _ in range(3)]
        assert vector_norm(ring, u.apply(x)) == vector_norm(ring, x)


def test_projection_functors_examples():
    ring = Zp(5, 3)
    t_minus_1 = gm.LaurentPoly.from_coeffs(ring, [-1, 1])
    full = unitary.projection_functors(PadicMatrix.identity(ring, 2), 2, t_minus_1)
    assert full.kernel_dimension == 2
    assert full.cokernel_divisors == (2, 2)

    u = M(ring, [[1, 0], [0, -1]])
    result = unitary.projection_functors(u, 1, t_minus_1)
    assert result.kernel_dimension == 1
    assert sorted(result.cokernel_divisors) == [0, 1]

    # resultant of f with char poly a unit -> f(U) invertible -> trivial functors
    f = gm.LaurentPoly.from_coeffs(ring, [-2, 1])
    chi = gm.LaurentPoly.from_coeffs(ring, [c.lift() for c in u.char_poly()])
    assert gm.orthogonality_test(f, chi, 2)
    result2 = unitary.projection_functors(u, 2, f)
    assert result2.kernel_dimension == 0
    assert result2.cokernel_divisors == (0, 0)


def test_projection_kernel_vectors_annihilate():
    ring = Zp(3, 3)
    rng = random.Random(43)
    for _ in range(6):
        u = random_unitary(ring, 2, rng)
        chi = u.char_poly()
        f = gm.LaurentPoly.from_coeffs(ring, [c.lift() for c in chi])
        result = unitary.projection_functors(u, 2, f)
        fu = f.reduce(2).evaluate_matrix(u.reduce(2))
        for vec in result.kernel_basis:
            assert all(s.lift() == 0 for s in fu.apply([v.lift() for v in vec]))


def test_spectrum_table_examples():
    ring = Zp(5, 3)
    table = unitary.spectrum_table(PadicMatrix.identity(ring, 2), [1, 2])
    assert all(row.dimension == 2 for row in table.rows)
    assert len([r for r in table.rows if r.j == 1]) == 1

    u = M(ring, [[1, 0], [0, -1]])
    table2 = unitary.spectrum_table(u, [1, 2, ONE_MINUS])
    for j in (1, 2):
        dims = sorted(r.dimension for r in table2.rows if r.epsilon == f"p^{j}")
        assert dims == [1, 1]
    assert sorted(r.dimension for r in table2.rows if r.epsilon == "1-") == [1, 1]

    mixed_ring = Zp(3, 3)
    table3 = unitary.spectrum_table(M(mixed_ring, [[1, 1], [1, 0]]), [1, 2])
    for j in (1, 2):
        rows = [r for r in table3.rows if r.j == j]
        assert len(rows) == 1 and rows[0].dimension == 2
    assert table3.torsion_is_whole_module


def _reference_spectrum_rows(U, j_list):
    """The table level by level: one teich_factor and projection_functors per entry."""
    f = gm.LaurentPoly.from_coeffs(U.ring, [c.lift() for c in U.char_poly()])
    rows = []
    for entry in j_list:
        j, label = (1, "1-") if entry is ONE_MINUS else (entry, f"p^{entry}")
        for orbit, coeffs in sorted(gm.teich_factor(f, j).factors.items()):
            factor = gm.LaurentPoly.from_coeffs(U.ring.at_precision(j), coeffs)
            divisors = unitary.projection_functors(U, j, factor).cokernel_divisors
            dimension = sum(1 for d in divisors if d == j)
            rows.append(unitary.SpectrumRow(label, j, orbit, dimension, divisors))
    return tuple(rows)


@pytest.mark.parametrize("p,K", [(5, 10), (7, 30)])
def test_spectrum_table_matches_a_per_level_reference(p, K):
    ring = Zp(p, K)
    rng = random.Random(p * K)
    j_list = [ONE_MINUS, 1, K // 2, K, 1]
    for _ in range(4):
        U = random_unitary(ring, 6, rng)
        table = unitary.spectrum_table(U, j_list)
        assert table.rows == _reference_spectrum_rows(U, j_list)
        assert table.n == 6


@pytest.fixture
def factoring_calls(monkeypatch):
    """Counts of `fppoly.factor` calls, of top-level (non-recursive) Hensel lifts
    and of Smith forms."""
    calls = {"factor": 0, "lift": 0, "smith": 0}
    real_factor, real_lift = fppoly.factor, gm._hensel_lift_list
    real_smith = PadicMatrix.smith_form
    depth = [0]

    def factor(*args, **kwargs):
        calls["factor"] += 1
        return real_factor(*args, **kwargs)

    def lift(*args):
        calls["lift"] += depth[0] == 0
        depth[0] += 1
        try:
            return real_lift(*args)
        finally:
            depth[0] -= 1

    def smith(self, *args):
        calls["smith"] += 1
        return real_smith(self, *args)

    monkeypatch.setattr(fppoly, "factor", factor)
    monkeypatch.setattr(gm, "_hensel_lift_list", lift)
    monkeypatch.setattr(PadicMatrix, "smith_form", smith)
    return calls


def test_spectrum_table_factors_and_lifts_once(factoring_calls):
    """One factorization and one lift per table, and one Smith form per cluster."""
    ring = Zp(5, 10)
    rng = random.Random(13)
    for _ in range(3):
        U = random_unitary(ring, 6, rng)
        factoring_calls.update(factor=0, lift=0, smith=0)
        table = unitary.spectrum_table(U, [ONE_MINUS, 1, 5, 10, 1])
        clusters = sum(1 for r in table.rows if r.epsilon == "1-")
        assert factoring_calls == {"factor": 1, "lift": 1, "smith": clusters}
    factoring_calls.update(factor=0, lift=0, smith=0)
    assert unitary.spectrum_table(U, []).rows == ()
    assert factoring_calls == {"factor": 0, "lift": 0, "smith": 0}


@pytest.mark.parametrize("j_list,bad", [([1, 11], 11), ([0], 0), ([ONE_MINUS, 3, -1, 12], -1)])
def test_spectrum_table_rejects_a_level_before_factoring(factoring_calls, j_list, bad):
    U = random_unitary(Zp(5, 10), 4, random.Random(17))
    with pytest.raises(ValueError, match=re.escape(f"target precision {bad} outside [1, 10]")):
        unitary.spectrum_table(U, j_list)
    assert factoring_calls == {"factor": 0, "lift": 0, "smith": 0}


def test_spectral_rejects_extension_base():
    ring = UnramRing(3, 2, 2)
    u = PadicMatrix.identity(ring, 2)
    with pytest.raises(Unsupported):
        unitary.teichmuller_spectral(u)


def test_classify_works_over_extension():
    ring = UnramRing(3, 2, 2)
    gen = teichmuller_lift(ring, (0, 1))
    u = PadicMatrix.diagonal(ring, [gen, gen**3])
    assert unitary.classify(u).is_teichmuller
    u_s, u_n = unitary.jordan_decompose(u)
    assert u_s == u and u_n == PadicMatrix.identity(ring, 2)


def test_power_zp_equals_integer_power_oracle():
    """power_zp must equal plain matrix powers."""
    rng = random.Random(53)
    ring = Zp(3, 3)
    for _ in range(10):
        u = random_continuous(ring, 2, rng)
        t = rng.randrange(ring.pk)
        assert unitary.power_zp(u, t) == u.matrix_power(t)


def test_power_zp_over_an_extension_ring_equals_integer_powers():
    ring = UnramRing(3, 3, 2)
    rng = random.Random(54)
    gen = teichmuller_lift(ring, (0, 1))
    for _ in range(4):
        s = random_unitary(ring, 2, rng)
        noise = PadicMatrix.from_rows(ring, [[3 * rng.randrange(9), gen], [0, 3 * rng.randrange(9)]])
        u = s @ (PadicMatrix.identity(ring, 2) + noise) @ s.inverse()
        assert unitary.classify(u).is_continuous
        for t in (0, 1, 2, 5, 26):
            power = PadicMatrix.identity(ring, 2)
            for _ in range(t):
                power = power @ u
            assert unitary.power_zp(u, t) == power


def test_galois_twist_preserves_char_poly():
    ring = Zp(3, 2)
    u_s, _ = unitary.jordan_decompose(M(ring, [[1, 1], [1, 0]]))
    twisted = unitary.galois_act(u_s, 1)
    assert twisted.char_poly() == u_s.char_poly()
    assert unitary.classify(twisted).is_teichmuller


def _horner_scalar(x, coeffs):
    """Oracle: f(x) with the scalar class's own + and *."""
    acc = x.ring.scalar(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("p,K,n", [(3, 4, 4), (5, 6, 4), (7, 5, 4), (5, 20, 6)])
def test_orbit_polynomials_vanish_on_their_frobenius_orbits(p, K, n):
    """Each orbit factor is monic of the orbit's degree, reduces to a residue
    factor of chi mod p, and vanishes at every Frobenius image of its eigenvalue."""
    from padicu import fppoly
    from padicu.scalars import PadicScalar

    rng = random.Random(p * 100 + K)
    ring = Zp(p, K)
    for _ in range(3):
        u = random_teichmuller(ring, n, rng)
        _, residue_factors = fppoly.factor([c % p for c in u.char_poly_raw()], p)
        for orbit in unitary.teichmuller_spectral(u).orbits:
            factor = list(orbit.factor)
            assert len(factor) == orbit.degree + 1 and factor[-1] == 1
            assert [c % p for c in factor] in [irr for irr, _ in residue_factors]
            image = PadicScalar(orbit.ring, orbit.eigenvalues[0])
            for _ in range(orbit.degree):
                assert _horner_scalar(image, factor) == 0
                image = image.frobenius()


# -- the audit of a spectral datum -------------------------------------------------


@pytest.fixture(scope="module")
def three_orbits():
    """(U, datum) with Frobenius orbits of degree 3, 2 and 1 at p = 5, K = 3.

    The residue characteristic polynomial is (t^3 + t + 1)(t^2 + 2)(t - 2),
    irreducible factors over F_5, conjugated by a fixed unitary.
    """
    ring = Zp(5, 3)
    blocks = [[1, 1, 0], [2, 0], [-2]]  # t^3 + t + 1, t^2 + 2, t - 2, ascending, no leading 1
    rows = [[0] * 6 for _ in range(6)]
    start = 0
    for coeffs in blocks:
        for i, row in enumerate(PadicMatrix.companion(ring, coeffs).rows):
            rows[start + i][start : start + len(row)] = row
        start += len(coeffs)
    s = random_unitary(ring, 6, random.Random(3))
    w = s @ PadicMatrix(ring, rows) @ s.inverse()
    u, _ = unitary.jordan_decompose(w)
    datum = unitary.teichmuller_spectral(u)
    assert sorted(o.degree for o in datum.orbits) == [1, 2, 3]
    return u, datum


def _orbit_index(datum, degree):
    return next(i for i, o in enumerate(datum.orbits) if o.degree == degree)


def _replace_orbit(datum, index, **changes):
    orbits = list(datum.orbits)
    orbits[index] = orbits[index]._replace(**changes)
    return datum._replace(orbits=tuple(orbits))


def _add_at_00(matrix, value):
    rows = [list(r) for r in matrix.rows]
    rows[0][0] = matrix.ring.radd(rows[0][0], value)
    return PadicMatrix(matrix.ring, rows)


def test_verify_accepts_the_three_orbit_datum(three_orbits):
    u, datum = three_orbits
    assert datum.verify() and datum.verify(expected=u)


@pytest.mark.parametrize("degree", [2, 3])
def test_verify_rejects_a_perturbed_first_projector(three_orbits, degree):
    u, datum = three_orbits
    i = _orbit_index(datum, degree)
    orbit = datum.orbits[i]
    ring = orbit.ring
    first = _add_at_00(orbit.projector, ring.rfrom_int(ring.p ** (ring.K - 1)))
    bad = _replace_orbit(datum, i, projector=first)
    assert bad.verify(expected=u) is False
    assert bad.verify() is False


@pytest.mark.parametrize("degree", [2, 3])
def test_verify_rejects_swapped_eigenvalues(three_orbits, degree):
    u, datum = three_orbits
    i = _orbit_index(datum, degree)
    bad = _replace_orbit(datum, i, eigenvalue=datum.orbits[i].eigenvalues[1])
    assert bad.verify(expected=u) is False


def test_verify_rejects_a_non_orthogonal_cross_orbit_pair(three_orbits):
    u, datum = three_orbits
    i, j = _orbit_index(datum, 1), _orbit_index(datum, 2)
    ring = datum.base_ring
    shift = datum.orbit_projector(j).scale(ring.p ** (ring.K - 1))
    bad = _replace_orbit(datum, i, projector=datum.orbits[i].projector + shift)
    assert not (bad.orbit_projector(i) @ bad.orbit_projector(j)).is_zero()
    assert bad.verify(expected=u) is False
    assert bad.verify() is False


def test_verify_rejects_a_wrong_expected_matrix(three_orbits):
    u, datum = three_orbits
    assert datum.verify(expected=_add_at_00(u, u.ring.p ** (u.ring.K - 1))) is False


def test_verify_rejects_an_orbit_out_of_frobenius_order(three_orbits):
    """lambda_0 of the degree-3 orbit moved to lambda_2 with P_0 kept pairs
    P_t with lambda_(t+2): a sound datum of sigma^2(U), which fixes the
    degree-2 orbit, so it is rejected against U alone."""
    u, datum = three_orbits
    i = _orbit_index(datum, 3)
    bad = _replace_orbit(datum, i, eigenvalue=datum.orbits[i].eigenvalues[2])
    assert bad.orbit_projector(i) == datum.orbit_projector(i)
    assert bad.reconstruct() == unitary.galois_act(u, 2) != u
    assert bad.verify() and bad.verify(expected=u) is False


def test_verify_rejects_a_chain_whose_in_orbit_products_fail(three_orbits):
    """P_0 + p^(K-1) c E_00 with its images, for a residue c with
    Tr(c) = Tr(lambda c) = 0: the chain, the orbit sum and the reconstruction
    all hold, and only the in-orbit products see it."""
    u, datum = three_orbits
    i = _orbit_index(datum, 3)
    orbit = datum.orbits[i]
    ring, lam = orbit.ring, orbit.eigenvalue
    scale = ring.p ** (ring.K - 1)

    def trace(x):
        acc, image = ring.zero, x
        for _ in range(3):
            acc, image = ring.radd(acc, image), ring.rfrob(image)
        return acc

    residues = [(a, b, c) for a in range(ring.p) for b in range(ring.p) for c in range(ring.p)]
    shift = next(
        x
        for x in (tuple(scale * r for r in res) for res in residues[1:])
        if trace(x) == ring.zero and trace(ring.rmul(lam, x)) == ring.zero
    )
    bad = _replace_orbit(datum, i, projector=_add_at_00(orbit.projector, shift))
    assert bad.reconstruct() == u and bad.orbit_projector(i) == datum.orbit_projector(i)
    assert bad.verify(expected=u) is False


def test_verify_makes_one_product_per_orbit_member_and_cross_pair(three_orbits, monkeypatch):
    """Two products over Z_p per orbit member, U A_k and A_k U, and none over
    an extension ring."""
    from padicu import matrices

    u, datum = three_orbits
    rings = []
    original = matrices._matmul

    def counted(ring, A, B):
        rings.append(ring)
        return original(ring, A, B)

    monkeypatch.setattr(matrices, "_matmul", counted)
    for d in (datum, unitary.spectral_decompose(random_unitary(Zp(7, 4), 4, random.Random(5)))):
        for expected in (None, d.reconstruct()):
            rings.clear()
            assert d.verify(expected)
            assert len(rings) == 2 * sum(o.degree for o in d.orbits)
            assert all(ring == d.base_ring for ring in rings)


def test_spectral_decompose_takes_no_frobenius_image_of_a_matrix(three_orbits, monkeypatch):
    """An orbit stores P_0 only, and verify reads P_0 only: the images
    sigma^t(P_0) are taken when `projectors` is read, and not before."""
    u, _ = three_orbits
    calls = []
    original = PadicMatrix.frobenius_map

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(PadicMatrix, "frobenius_map", counted)
    for v in (u, random_unitary(Zp(7, 4), 4, random.Random(5))):
        calls.clear()
        datum = unitary.spectral_decompose(v)
        assert datum.verify() and not calls
        assert max(o.degree for o in datum.orbits) > 1
        images = [orbit.projectors for orbit in datum.orbits]
        assert [len(P) for P in images] == [orbit.degree for orbit in datum.orbits]
        assert len(calls) == sum(orbit.degree - 1 for orbit in datum.orbits)


# -- the Jordan datum kept on the matrix ------------------------------------------------


def _record_pow_mod(monkeypatch):
    from padicu import fppoly

    exponents = []
    original = fppoly.pow_mod

    def recorded(base, e, *args):
        exponents.append(e)
        return original(base, e, *args)

    monkeypatch.setattr(fppoly, "pow_mod", recorded)
    return exponents


@pytest.mark.parametrize("make", [random_unitary, random_continuous, random_teichmuller])
def test_the_chain_raises_u_to_e_and_alpha_once(make, monkeypatch):
    from padicu.arith import teichmuller_exponent

    ring = Zp(5, 6)
    u = make(ring, 4, random.Random(17))
    alpha, E = teichmuller_exponent(5, 5, 6, 4)
    exponents = _record_pow_mod(monkeypatch)
    kind = unitary.classify(u)
    unitary.jordan_decompose(u)
    if kind.is_continuous:
        unitary.power_zp(u, 7)
    else:
        unitary.spectral_decompose(u)
    assert exponents.count(E) == 1 and exponents.count(alpha) == 1


def test_classify_on_a_fresh_matrix_inverts_nothing(monkeypatch):
    calls = {"inverse": 0}
    original = PadicMatrix.inverse

    def counted(self):
        calls["inverse"] += 1
        return original(self)

    monkeypatch.setattr(PadicMatrix, "inverse", counted)
    u = random_unitary(Zp(7, 5), 4, random.Random(2))
    witness = unitary.classify(u).witness
    assert calls["inverse"] == 0
    u_s, u_n = unitary.jordan_decompose(u)
    assert calls["inverse"] == 1 and u_s is witness
    assert unitary.jordan_decompose(u) == (u_s, u_n) and calls["inverse"] == 1


def test_matrix_powers_leave_the_slots_as_they_were():
    rng = random.Random(8)
    u = random_unitary(Zp(5, 8), 4, rng)
    exponents = [rng.randrange(1, 10**40) for _ in range(50)]
    assert len(set(exponents)) == 50
    unitary.jordan_decompose(u)
    unitary.classify(u)
    slots = (u._chi, u._audited, u._teich, u._unipotent)
    for e in exponents:
        u.matrix_power(e)
    assert all(a is b for a, b in zip((u._chi, u._audited, u._teich, u._unipotent), slots))
    fresh = PadicMatrix(u.ring, u.rows)
    for e in exponents:
        fresh.matrix_power(e)
    assert (fresh._audited, fresh._teich, fresh._unipotent) == (False, None, None)


def test_a_failed_pro_finite_audit_is_not_recorded(monkeypatch):
    u = random_unitary(Zp(5, 3), 3, random.Random(4))
    assert u.matrix_power(2) != PadicMatrix.identity(u.ring, 3)
    monkeypatch.setattr(unitary, "_exponents", lambda U: (1, 2))  # a wrong E
    for _ in range(2):
        with pytest.raises(ArithmeticError):
            unitary.classify(u)
        assert u._audited is False
