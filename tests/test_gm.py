"""Unit polynomials: resultants, idempotents, grouped lifts, shift sums."""

import random
from fractions import Fraction
from itertools import product

import pytest

from padicu import gm
from padicu.errors import NonUnitLead, NotOrthogonal, NotUnitary, ZeroPolynomial
from padicu.gm import LaurentPoly, UnitPolynomial
from padicu.matrices import PadicMatrix
from padicu.scalars import Zp


def L(ring, coeffs, low=0):
    return LaurentPoly.from_coeffs(ring, coeffs, low=low)


def test_resultant_examples():
    ring = Zp(5, 3)
    f = L(ring, [-1, 1])  # t - 1
    g = L(ring, [-2, 1])  # t - 2
    assert gm.resultant(f, g) == ring.scalar(-1)
    h = L(ring, [-6, 1])  # t - 6
    assert gm.resultant(f, h) == ring.scalar(-5)
    assert gm.resultant(f, f) == ring.scalar(0)
    with pytest.raises(ZeroPolynomial):
        gm.resultant(f, LaurentPoly(ring, {}))


def test_resultant_ignores_laurent_shifts():
    ring = Zp(5, 3)
    f = L(ring, [-1, 1])
    shifted = L(ring, [-1, 1], low=-3)  # t^-3 (t - 1)
    g = L(ring, [-2, 1])
    assert gm.resultant(shifted, g) == gm.resultant(f, g)


def test_orthogonality_examples():
    ring = Zp(5, 3)
    f, g, h = L(ring, [-1, 1]), L(ring, [-2, 1]), L(ring, [-6, 1])
    cert = gm.orthogonality_test(f, g, 2)
    assert cert
    combo = cert.bezout_k * L(ring.at_precision(2), [-1, 1]) + cert.bezout_l * L(
        ring.at_precision(2), [-2, 1]
    )
    assert combo == L(ring.at_precision(2), [cert.res.lift()])
    assert not gm.orthogonality_test(f, h, 2)
    assert not gm.orthogonality_test(f, f, 2)


def test_bezout_idempotents_worked_example():
    # f = t-1, g = t-2 at p=5: res = -1, so P1 = -(t-1)*f/... reduces to t-1, P2 = 2-t
    ring = Zp(5, 3)
    out = gm.bezout_idempotents(L(ring, [-1, 1]), L(ring, [-2, 1]), 2)
    assert out.verify()
    pj = 5**2
    assert out.p1 == [pj - 1, 1]  # t - 1
    assert out.p2 == [2, pj - 1]  # 2 - t


def test_bezout_idempotents_mod3():
    ring = Zp(3, 2)
    out = gm.bezout_idempotents(L(ring, [-1, 1]), L(ring, [1, 1]), 1)
    assert out.verify()
    swapped = gm.bezout_idempotents(L(ring, [1, 1]), L(ring, [-1, 1]), 1)
    assert swapped.p1 == out.p2 and swapped.p2 == out.p1


def test_bezout_rejects_non_orthogonal():
    ring = Zp(5, 3)
    with pytest.raises(NotOrthogonal):
        gm.bezout_idempotents(L(ring, [-1, 1]), L(ring, [-6, 1]), 2)


def test_two_constants_are_orthogonal_only_when_one_is_a_unit():
    """Their resultant is the empty determinant 1 either way."""
    ring = Zp(3, 2)
    three, two = L(ring, [3]), L(ring, [2])
    assert gm.resultant(three, three) == ring.scalar(1)
    assert not gm.orthogonality_test(three, three, 2)
    cert = gm.orthogonality_test(three, two, 2)
    assert cert and cert.bezout_k.is_zero()
    assert cert.bezout_l * two == L(ring, [1])


def test_bezout_rejects_a_product_with_a_non_unit_lead():
    ring = Zp(3, 2)
    f, g = L(ring, [1, 3]), L(ring, [1, 1])  # res = 2 is a unit, lead of fg is 3
    assert gm.orthogonality_test(f, g, 2)
    with pytest.raises(NonUnitLead) as info:
        gm.bezout_idempotents(f, g, 2)
    assert info.value.exit_code == 3


def test_unit_polynomial_validation():
    ring = Zp(5, 3)
    UnitPolynomial(ring, {0: -1, 1: 1})
    with pytest.raises(NotUnitary):
        UnitPolynomial(ring, {0: 5, 1: 1})
    with pytest.raises(NotUnitary):
        UnitPolynomial(ring, {})


def test_teich_factor_split_linears():
    ring = Zp(5, 3)
    f = L(ring, [-1, 1]) * L(ring, [-2, 1])
    out = gm.teich_factor(f, 3)
    assert len(out.factors) == 2
    assert out.product() == f
    labels = sorted(out.factors)
    # residue labels are the irreducible factors mod 5: t-1 and t-2
    assert labels == [(3, 1), (4, 1)]


def test_teich_factor_keeps_multiplicity():
    ring = Zp(5, 3)
    f = L(ring, [-1, 1]) * L(ring, [-1, 1])
    out = gm.teich_factor(f, 2)
    assert len(out.factors) == 1
    factor = next(iter(out.factors.values()))
    assert len(factor) - 1 == 2  # single quadratic cluster factor
    assert out.product() == f.reduce(2)


def test_teich_factor_irreducible_orbit():
    ring = Zp(3, 3)
    f = L(ring, [-1, -1, 1])  # t^2 - t - 1, irreducible mod 3
    out = gm.teich_factor(f, 3)
    assert len(out.factors) == 1
    assert out.product() == f


def test_teich_factor_factors_are_pairwise_orthogonal():
    ring = Zp(5, 3)
    f = L(ring, [-1, 1]) * L(ring, [-2, 1]) * L(ring, [1, 0, 1])
    out = gm.teich_factor(f, 3)
    factors = [L(out.ring, coeffs) for coeffs in out.factors.values()]
    assert len(factors) == 3
    for i in range(len(factors)):
        for k in range(i + 1, len(factors)):
            assert gm.orthogonality_test(factors[i], factors[k], 3)


def test_teich_factor_with_unit_and_shift():
    ring = Zp(5, 3)
    f = L(ring, [2 * -1, 2 * 1], low=-1) * L(ring, [-2, 1])  # 2 t^-1 (t-1)(t-2)
    out = gm.teich_factor(f, 2)
    assert out.unit.lift() == 2
    assert out.shift == -1
    assert out.product() == f.reduce(2)


@pytest.mark.parametrize("coeffs,low", [([5], 0), ([56], 2), ([-1], -3)])
@pytest.mark.parametrize("j", [2, 4])
def test_teich_factor_of_a_unit_monomial_has_no_factors(coeffs, low, j):
    """c t^k reduces to the constant 1 once monic: no residue factor to lift."""
    ring = Zp(3, 4)
    f = L(ring, coeffs, low=low)
    out = gm.teich_factor(f, j)
    assert out.factors == {}
    assert (out.unit.lift(), out.shift) == (coeffs[0] % 3**j, low)
    assert out.product() == f.reduce(j)


def test_hensel_lift_matches_product_mod_high_precision():
    ring = Zp(3, 5)
    f = L(ring, [2, 1]) * L(ring, [4, 1]) * L(ring, [-1, -1, 1])
    out = gm.teich_factor(f, 5)
    assert out.product() == f
    # each lifted factor reduces to its residue label (power)
    for label, lifted in out.factors.items():
        assert [c % 3 for c in lifted] == list(label)


def _mul(a, b, m=None):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out if m is None else [v % m for v in out]


def _divmod_mod_p(a, b, p):
    """Long division over F_p, for b with a unit lead."""
    r = [v % p for v in a]
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(r) - len(b) + 1)
    for d in reversed(range(len(q))):
        c = q[d] = r[d + len(b) - 1] * inv % p
        for i, v in enumerate(b):
            r[d + i] = (r[d + i] - c * v) % p
    r = r[: len(b) - 1]
    while r and not r[-1]:
        r.pop()
    return q, r


def _inverse_mod(h, g, p):
    """u with u*h = 1 mod (g, p), by the extended Euclidean algorithm."""
    r0, r1, u0, u1 = g, _divmod_mod_p(h, g, p)[1], [0], [1]
    while r1:
        q, r = _divmod_mod_p(r0, r1, p)
        r0, r1 = r1, r
        qu = _mul(q, u1)
        u0, u1 = u1, [(x - y) % p for x, y in zip(u0 + [0] * len(qu), qu + [0] * len(u0))]
    assert len(r0) == 1, "g and h are not coprime mod p"
    c = pow(r0[0], -1, p)
    return [v * c % p for v in u0]


def _linear_lift(f, g0, p, j):
    """The monic lift of the factor g0 of monic f mod p, one p-adic digit at a time.

    With f = g h mod p^k, the next digits dg, dh solve h0 dg + g0 dh = e mod p
    for e = (f - g h) / p^k: dg = e / h0 mod g0 and dh = (e - h0 dg) / g0.
    """
    h0, rem = _divmod_mod_p(f, g0, p)
    assert not rem
    u = _inverse_mod(h0, g0, p)
    g, h = list(g0), list(h0)
    for k in range(1, j):
        gh = _mul(g, h)
        diff = [x - y for x, y in zip(f, gh)]
        assert all(v % p**k == 0 for v in diff)
        e = [v // p**k % p for v in diff]
        dg = _divmod_mod_p(_mul(u, e), g0, p)[1]
        dh, rem = _divmod_mod_p([x - y for x, y in zip(e, _mul(h0, dg) + [0] * len(e))], g0, p)
        assert not rem
        g = [x + p**k * y for x, y in zip(g, dg + [0] * len(g))]
        h = [x + p**k * y for x, y in zip(h, dh + [0] * len(h))]
    return [v % p**j for v in g]


@pytest.mark.parametrize("p,nonsquare", [(5, 2), (7, 3)])
def test_teich_factor_matches_a_linear_hensel_lift(p, nonsquare):
    """Each lifted factor, not only their product, equals a digit-by-digit lift:
    monic coprime lifts are unique.  The levels hit the last Newton step both
    at a power of two and between two."""
    K = 30
    pk = p**K
    ring = Zp(p, K)
    rng = random.Random(p)

    def tail():
        return p * rng.randrange(pk // p)

    for _ in range(3):
        monic = [1]
        for factor in ([-1 - tail(), 1], [-1 - tail(), 1], [-2 - tail(), 1],
                       [-nonsquare - tail(), tail(), 1]):
            monic = _mul(monic, factor, pk)
        lead = rng.randrange(1, p) + tail()
        shift = rng.randrange(-2, 3)
        f = L(ring, [lead * v for v in monic], low=shift)
        for j in (1, 2, 3, 4, 5, 8, 9, 16, 17, 30):
            out = gm.teich_factor(f, j)
            assert len(out.factors) == 3
            for label, lifted in out.factors.items():
                g0 = [v % p for v in lifted]
                power = [1]
                while len(power) < len(g0):
                    power = _mul(power, list(label), p)
                assert g0 == power
                assert lifted == _linear_lift([v % p**j for v in monic], g0, p, j)


def test_principal_exponent_examples():
    ring = Zp(3, 3)
    assert gm.principal_exponent(PadicMatrix.identity(ring, 2), 2).n == 1
    u = PadicMatrix.from_rows(ring, [[1, 1], [0, 1]])
    out = gm.principal_exponent(u, 2)
    assert (out.n, out.l, out.N) == (9, 1, 3)
    rot = PadicMatrix.from_rows(ring, [[0, -1], [1, 0]])
    assert gm.principal_exponent(rot, 1).n == 4


def test_principal_exponent_certifies_power():
    rng = random.Random(23)
    ring = Zp(3, 3)
    from padicu.sampling import random_unitary

    for _ in range(10):
        u = random_unitary(ring, 2, rng)
        for j in (1, 2, 3):
            out = gm.principal_exponent(u, j)
            assert u.reduce(j).matrix_power(out.n) == PadicMatrix.identity(
                ring.at_precision(j), 2
            )


def test_principal_exponent_from_polynomial():
    ring = Zp(3, 2)
    f = L(ring, [-1, -1, 1])  # t^2 - t - 1: companion order 8 mod 3
    out = gm.principal_exponent(f, 1)
    assert out.N == 8 and out.n % 8 == 0


def test_ideal_lattice():
    assert gm.ideal_lattice(4, 6) == (2, 12)
    assert gm.ideal_lattice(5, 5) == (5, 5)
    assert gm.ideal_lattice(3, 5) == (1, 15)


def test_shift_sum_examples():
    ring = Zp(5, 3)
    f = L(ring, [1, 1, 1])
    assert gm.shift_sum(f, 0, 1).lift() == 3
    assert gm.shift_sum(f, 0, 2).lift() == 2
    assert gm.shift_sum(f, 1, 2).lift() == 1
    with pytest.raises(ValueError):
        gm.shift_sum(f, 0, 0)


def test_shift_sum_invariance_under_t_power():
    ring = Zp(5, 3)
    f = L(ring, [1, 1, 1])
    t2f = f.shift(2)
    assert gm.shift_sum(t2f, 0, 2) == gm.shift_sum(f, 0, 2)


def test_project_mod_examples():
    ring = Zp(5, 3)
    f = L(ring, [1, 1, 1])
    assert [s.lift() for s in gm.project_mod(f, 3)] == [1, 1, 1]
    assert [s.lift() for s in gm.project_mod(f, 1)] == [3]
    # multiples of t^d - 1 project to zero
    g = f - f.shift(2)
    assert all(s.lift() == 0 for s in gm.project_mod(g, 2))


def test_additivity_identity():
    ring = Zp(5, 3)
    f = L(ring, [1, 1, 1, 1])
    assert gm.additivity_check(f, 0, 1, 2)
    rng = random.Random(9)
    for _ in range(20):
        sparse = LaurentPoly(
            ring, {rng.randint(-6, 6): rng.randint(1, 30) for _ in range(5)}
        )
        for d in range(1, 5):
            for dstar in range(1, 4):
                assert gm.additivity_check(sparse, rng.randint(-3, 3), d, dstar)


def test_zero_detection_by_wide_shift_sums():
    ring = Zp(5, 3)
    rng = random.Random(31)
    for _ in range(10):
        f = LaurentPoly(ring, {rng.randint(-4, 4): rng.randint(1, 20) for _ in range(4)})
        width = f.high - f.low if not f.is_zero() else 0
        sums = [
            gm.shift_sum(f, c, d).lift()
            for d in range(width + 1, width + 4)
            for c in range(d)
        ]
        assert f.is_zero() == all(s == 0 for s in sums)
    zero = LaurentPoly(ring, {})
    assert all(gm.shift_sum(zero, c, 3).lift() == 0 for c in range(3))


def test_volumes():
    assert gm.haar_volume(1, 6) == Fraction(1, 6)
    assert gm.haar_volume(0, 1) == 1
    assert gm.haar_volume(2, -4) == Fraction(1, 4)
    assert gm.profinite_volume(48) == Fraction(1, 48)
    with pytest.raises(ValueError):
        gm.haar_volume(1, 0)


def test_evaluate_matrix_requires_matching_precision():
    from padicu.errors import PrecisionMismatch

    f = L(Zp(5, 3), [-1, 1])
    u = PadicMatrix.identity(Zp(3, 3), 2)
    with pytest.raises(PrecisionMismatch):
        f.evaluate_matrix(u)
    # base-coefficient polynomials evaluate on extension matrices at the same (p, K)
    from padicu.scalars import UnramRing

    ext = UnramRing(5, 3, 2)
    out = L(Zp(5, 3), [-1, 1]).evaluate_matrix(PadicMatrix.identity(ext, 2))
    assert out.is_zero()


def test_sylvester_4x4_closed_form_matches_elimination():
    """The unrolled 4 x 4 path against the general path on 2 + 2 Sylvester matrices.

    Both return the adjugate row only for a unit determinant, so the tuples
    agree on non-unit determinants too.
    """
    rng = random.Random(44)
    for p, K in ((3, 3), (5, 2), (7, 4)):
        ring = Zp(p, K)
        for _ in range(200):
            fc = [rng.randrange(ring.pk) for _ in range(3)]
            gc = [rng.randrange(ring.pk) for _ in range(3)]
            rows = gm._sylvester(fc, gc)
            assert gm._det_and_adjugate_last_row(
                rows, ring
            ) == gm._elimination_det_and_adjugate_last_row(rows, ring)


def test_evaluate_matrix_with_negative_low_matches_inverse_powers():
    """f(U) for -3 <= low <= 3 against sum c_e U^e, each U^e a product of |e|
    copies of U or of U.inverse(), which is checked against U first."""
    from padicu.sampling import random_unitary
    from padicu.scalars import UnramRing

    rng = random.Random(71)
    base = Zp(5, 3)
    for ring in (base, UnramRing(5, 3, 2), UnramRing(5, 3, 3)):
        for n in (1, 2, 3):
            U = random_unitary(ring, n, rng)
            inv = U.inverse()
            assert inv @ U == PadicMatrix.identity(ring, n)
            for low, length in product(range(-3, 4), (1, 4)):
                coeffs = [rng.randrange(1, base.pk) for _ in range(length)]
                expected = PadicMatrix.zeros(ring, n)
                for i, c in enumerate(coeffs):
                    power = PadicMatrix.identity(ring, n)
                    for _ in range(abs(low + i)):
                        power = power @ (inv if low + i < 0 else U)
                    expected = expected + power.scale(c)
                assert L(base, coeffs, low=low).evaluate_matrix(U) == expected


def test_evaluate_matrix_matches_the_power_times_value_formula():
    """(t^low g mod chi_U)(U) against U^low g(U), with U^low from `matrix_power`."""
    from padicu.sampling import random_unitary
    from padicu.scalars import UnramRing

    rng = random.Random(73)
    base = Zp(7, 4)
    for ring in (base, UnramRing(7, 4, 2)):
        for n in (1, 2, 3, 4):
            U = random_unitary(ring, n, rng)
            for low in range(-3, 3):
                for length in (1, 3, 6):
                    coeffs = [rng.randrange(base.pk) for _ in range(length - 1)] + [1]
                    f = L(base, coeffs, low=low)
                    dense, shift = f.polynomial_part()
                    expected = U.matrix_power(shift) @ U.evaluate(dense)
                    assert f.evaluate_matrix(U) == expected


def test_evaluate_matrix_with_negative_low_needs_a_unit_determinant():
    from padicu.errors import NotInvertible

    ring = Zp(5, 3)
    U = PadicMatrix(ring, [[5, 1], [0, 1]])
    assert L(ring, [1, 2], low=1).evaluate_matrix(U) == U @ U.evaluate([1, 2])
    for low in (-1, -3):  # t^-1 alone, and a power of it
        with pytest.raises(NotInvertible):
            L(ring, [1, 2], low=low).evaluate_matrix(U)
