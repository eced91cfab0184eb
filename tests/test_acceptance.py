"""Acceptance criteria, one test per criterion, at stated tolerances (all exact).

Each criterion prints one pass/fail line; run with `pytest -v -s` to see them.
Oracles here are independent of the code paths they check: the Jordan oracle
enumerates the full matrix group, the orthogonality oracle does schoolbook
arithmetic in F_{p^2} built inside this file.
"""

import random
from contextlib import contextmanager
from itertools import product

import pytest

from padicu import gm, unitary
from padicu.errors import NotOrthogonal
from padicu.glnp import decompose_fp
from padicu.matrices import PadicMatrix
from padicu.quantum import EvolutionPair, WaveFunction, evolve, exp_matrix
from padicu.sampling import (
    random_continuous,
    random_matrix,
    random_teichmuller,
    random_unitary,
)
from padicu.scalars import Zp, frobenius, teichmuller_lift


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [FAIL] {description}")
        raise
    print(f"ACCEPTANCE {num:2d} [pass] {description}")


# -- 1: exhaustive GL_2(F_3) tower decomposition --------------------------------


def test_criterion_1_exhaustive_gl2f3():
    with criterion(1, "exhaustive GL2(F3): 48 unique factorizations, 16 T values, 3 N values"):
        seen_pairs, seen_t, seen_n = set(), set(), set()
        count = 0
        for entries in product(range(3), repeat=4):
            rows = (entries[0:2], entries[2:4])
            if (entries[0] * entries[3] - entries[1] * entries[2]) % 3 == 0:
                continue
            count += 1
            out = decompose_fp(3, rows)
            flat_t, flat_n = sum(out.t_matrix, ()), sum(out.n_matrix, ())
            assert _mul2(flat_t, flat_n, 3) == sum(rows, ())
            seen_pairs.add((out.t_matrix, out.n_matrix))
            seen_t.add(out.t_matrix)
            seen_n.add(out.n_matrix)
        assert count == 48
        assert len(seen_pairs) == 48
        assert len(seen_t) == 16  # (3-1)(3^2-1)
        assert len(seen_n) == 3  # 3^(2*1/2)


# -- 2: Jordan decomposition against a brute-force group oracle -------------------


def _mul2(A, B, mod):
    a, b, c, d = A
    e, f, g, h = B
    return ((a * e + b * g) % mod, (a * f + b * h) % mod, (c * e + d * g) % mod, (c * f + d * h) % mod)


def test_criterion_2_jordan_oracle():
    with criterion(2, "Jordan split: exhaustive GL2(Z/9) oracle + 200 seeded audits"):
        mod, p = 9, 3
        identity = (1, 0, 0, 1)
        elements = []
        for entries in product(range(mod), repeat=4):
            if (entries[0] * entries[3] - entries[1] * entries[2]) % p:
                elements.append(entries)
        assert len(elements) == 3888
        orders, inverses = {}, {}
        for g in elements:
            power, order = g, 1
            while power != identity:
                power = _mul2(power, g, mod)
                order += 1
            orders[g] = order
            inverses[g] = g if order == 1 else _power2(g, order - 1, mod)
        prime_to_p = [g for g in elements if orders[g] % p != 0]
        p_power = set()
        for g in elements:
            o = orders[g]
            while o % p == 0:
                o //= p
            if o == 1:
                p_power.add(g)
        buckets = {}
        for g in prime_to_p:
            buckets.setdefault(tuple(v % p for v in g), []).append(g)
        unipotent_residues = {tuple(v % p for v in g) for g in p_power}
        ring = Zp(3, 2)
        for U in elements:
            u_res = tuple(v % p for v in U)
            pairs = []
            for w in unipotent_residues:
                for A in buckets.get(_mul2(u_res, w, p), ()):
                    B = _mul2(inverses[A], U, mod)
                    if B in p_power and _mul2(B, A, mod) == U:
                        pairs.append((A, B))
            assert len(pairs) == 1, f"oracle found {len(pairs)} pairs for {U}"
            u_matrix = PadicMatrix(ring, [U[0:2], U[2:4]])
            u_s, u_n = unitary.jordan_decompose(u_matrix)
            flat_s = tuple(v for row in u_s.rows for v in row)
            flat_n = tuple(v for row in u_n.rows for v in row)
            assert (flat_s, flat_n) == pairs[0]
        # seeded random audits at higher precision and size
        for count, (n, pp, K) in ((100, (2, 3, 4)), (100, (3, 5, 3))):
            rng = random.Random(1000 + n + pp)
            ring2 = Zp(pp, K)
            for _ in range(count):
                u = random_unitary(ring2, n, rng)
                u_s, u_n = unitary.jordan_decompose(u)
                assert u_s @ u_n == u and u_n @ u_s == u
                found = False
                power = u_s
                for _ in range(n):
                    power = power.matrix_power(pp)
                    if power == u_s:
                        found = True
                        break
                assert found, "U_s^(p^m) = U_s needs m <= n"
                delta = u_n.reduce(1) - PadicMatrix.identity(ring2.at_precision(1), n)
                assert delta.matrix_power(n).is_zero()


def _power2(g, e, mod):
    result = (1, 0, 0, 1)
    base = g
    while e:
        if e & 1:
            result = _mul2(result, base, mod)
        base = _mul2(base, base, mod)
        e >>= 1
    return result


# -- 3: spectral reconstruction ---------------------------------------------------


def test_criterion_3_spectral_reconstruction():
    with criterion(3, "spectral identities on 100 seeded Teichmuller matrices"):
        cases = [(30, 2, Zp(5, 2)), (40, 3, Zp(3, 3)), (30, 2, Zp(3, 4))]
        total = 0
        for count, n, ring in cases:
            rng = random.Random(31000 + n + ring.p)
            for _ in range(count):
                u = random_teichmuller(ring, n, rng)
                datum = unitary.teichmuller_spectral(u)
                # verify covers: sum pi = I, pairwise orthogonality, idempotence,
                # sum lambda pi = U, and Frobenius equivariance of projectors
                assert datum.verify(expected=u)
                total += 1
        assert total == 100


# -- 4: six-condition equivalence ---------------------------------------------------


def _pair_mul(x, y, p, c0, c1):
    # (a + b w)(c + d w) with w^2 = -c1 w - c0
    a, b = x
    c, d = y
    low = a * c
    mid = a * d + b * c
    high = b * d
    return ((low - high * c0) % p, (mid - high * c1) % p)


def _roots_f_p2(coeffs, p, c0, c1):
    roots = set()
    for a in range(p):
        for b in range(p):
            x = (a, b)
            acc = (0, 0)
            for c in reversed(coeffs):
                acc = _pair_mul(acc, x, p, c0, c1)
                acc = ((acc[0] + c) % p, acc[1])
            if acc == (0, 0):
                roots.add(x)
    return frozenset(roots)


@pytest.mark.parametrize("p,conway", [(3, (2, 2)), (5, (2, 4))])
def test_criterion_4_six_condition_equivalence(p, conway):
    with criterion(4, f"six-condition equivalence, exhaustive degree <= 2 over Z/{p * p}"):
        j = 2
        ring = Zp(p, j)
        pj = p * p
        c0, c1 = conway
        units = [u for u in range(pj) if u % p]
        polys = [gm.LaurentPoly.from_coeffs(ring, [(-a) % pj, 1]) for a in units]
        polys += [
            gm.LaurentPoly.from_coeffs(ring, [c, b, 1]) for b in range(pj) for c in units
        ]
        root_sets = []
        for f in polys:
            dense, _ = f.polynomial_part()
            root_sets.append(_roots_f_p2([v % p for v in dense], p, c0, c1))
        checked = 0
        for i, f in enumerate(polys):
            for k in range(i, len(polys)):
                g = polys[k]
                if not (root_sets[i] & root_sets[k]):
                    # orthogonal; construction audits P1 + P2 = 1, P1*g = 0 and
                    # P2*f = 0 mod (p^j, fg), from which the six properties follow
                    assert gm.bezout_idempotents(f, g, j).certificate.orthogonal
                else:
                    with pytest.raises(NotOrthogonal):
                        gm.bezout_idempotents(f, g, j)
                checked += 1
        expected = len(polys) * (len(polys) + 1) // 2
        assert checked == expected


# -- 5: one-parameter group laws -----------------------------------------------------


def test_criterion_5_stone_one_parameter_group():
    with criterion(5, "one-parameter group laws on 50 seeded continuous operators"):
        ring = Zp(3, 3)
        rng = random.Random(5005)
        for index in range(50):
            u = random_continuous(ring, 2, rng)
            assert unitary.power_zp(u, 0) == PadicMatrix.identity(ring, 2)
            assert unitary.power_zp(u, 1) == u
            t, s = rng.randrange(ring.pk), rng.randrange(ring.pk)
            assert unitary.power_zp(u, (t + s) % ring.pk) == unitary.power_zp(
                u, t
            ) @ unitary.power_zp(u, s)
            if index < 20:
                v = rng.randrange(ring.pk)
                while v % ring.p == 0:
                    v = rng.randrange(ring.pk)
                alpha = ring.scalar(v)
                roundtrip = unitary.zp_unit_action(
                    unitary.zp_unit_action(u, alpha), alpha.inverse()
                )
                assert roundtrip == u


# -- 6: shift-sum identities -----------------------------------------------------------


def test_criterion_6_shift_sum_identities():
    with criterion(6, "shift-sum invariance/additivity on 100 seeded Laurent polynomials"):
        ring = Zp(5, 3)
        rng = random.Random(6006)
        for _ in range(100):
            f = gm.LaurentPoly(
                ring,
                {rng.randint(-8, 8): rng.randint(0, ring.pk - 1) for _ in range(6)},
            )
            for d in range(1, 7):
                shifted = f.shift(d)
                for c in (0, 1, -2):
                    assert gm.shift_sum(f, c, d) == gm.shift_sum(shifted, c, d)
                    for dstar in range(1, 5):
                        assert gm.additivity_check(f, c, d, dstar)
                components = gm.project_mod(f, d)
                for c in range(d):
                    assert components[c] == gm.shift_sum(f, c, d)


# -- 7: evolution norm invariance ---------------------------------------------------------


def test_criterion_7_evolution_norm_invariance():
    with criterion(7, "norm invariance of exp(Ht) and the two-clock recursion"):
        ring = Zp(3, 3)
        rng = random.Random(7007)
        for _ in range(50):
            h = random_matrix(ring, 2, rng)
            psi = WaveFunction(ring, [1, rng.randrange(ring.pk)])
            assert psi.norm().val == 0
            for _ in range(20):
                t = 3 * rng.randrange(ring.pk // 3)
                flow = exp_matrix(h, t)
                moved = WaveFunction(ring, [s.lift() for s in flow.apply(psi.values)])
                assert moved.norm() == psi.norm()
            # two-clock recursion: U commutes with H by construction
            u = exp_matrix(h, 3)
            pair = EvolutionPair(h, u)
            state = psi
            for k in range(1, 11):
                state = evolve(pair, state, 1, 3 * rng.randrange(ring.pk // 3))
                assert state.norm() == psi.norm()


# -- 8: Teichmuller lifts exhaustively ---------------------------------------------------


def test_criterion_8_teichmuller_lift():
    with criterion(8, "Teichmuller lifts for p in {3,5,7}, K <= 6, all residues"):
        for p in (3, 5, 7):
            for K in range(1, 7):
                ring = Zp(p, K)
                for r in range(1, p):
                    lift = teichmuller_lift(ring, r)
                    assert lift.lift() % p == r
                    assert lift ** (p - 1) == ring.scalar(1)
                    assert lift**p == lift
                    assert frobenius(lift) == lift
        assert teichmuller_lift(Zp(5, 2), 2).lift() == 7
        assert teichmuller_lift(Zp(7, 2), 3).lift() == 31


# -- 9: spectral seminorm worked example ---------------------------------------------------


def test_criterion_9_seminorm_example():
    with criterion(9, "seminorm of the unipotent shift minus identity is exactly zero"):
        ring = Zp(3, 4)
        u = PadicMatrix(ring, [[1, 1], [0, 1]])
        a = u - PadicMatrix.identity(ring, 2)
        result = a.spectral_seminorm()
        assert result.is_zero
        assert result.nilpotency_k == 2
        assert result.value() == 0


# -- 10: principal exponent ------------------------------------------------------------------


def test_criterion_10_principal_exponent():
    with criterion(10, "principal exponents certify U^(p^l N) = I at every level"):
        ring = Zp(3, 3)
        rng = random.Random(10010)
        for _ in range(50):
            u = random_unitary(ring, 2, rng)
            expected_n = unitary.residual_order(u)
            for j in (1, 2, 3):
                out = gm.principal_exponent(u, j)
                assert out.N == expected_n
                assert out.n == 3**out.l * out.N
                reduced = u.reduce(j)
                assert reduced.matrix_power(out.n) == PadicMatrix.identity(
                    ring.at_precision(j), 2
                )
