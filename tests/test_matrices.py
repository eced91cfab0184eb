"""Matrix layer: arithmetic, char poly, Smith form, seminorm."""

import random
from itertools import product

import pytest

from padicu import gm, matrices
from padicu.arith import teichmuller_exponent
from padicu.errors import InputError, NotInvertible
from padicu.matrices import Norm, PadicMatrix, vector_norm
from padicu.sampling import random_matrix, random_unitary
from padicu.scalars import PadicScalar, UnramRing, Zp, unram


def M(ring, rows):
    return PadicMatrix(ring, rows)


def test_inverse_unipotent():
    ring = Zp(3, 3)
    u = M(ring, [[1, 1], [0, 1]])
    assert u.inverse() == M(ring, [[1, -1], [0, 1]])


def test_matrix_power_rotation():
    ring = Zp(3, 3)
    r = M(ring, [[0, -1], [1, 0]])
    assert r.matrix_power(4) == PadicMatrix.identity(ring, 2)
    assert r.matrix_power(0) == PadicMatrix.identity(ring, 2)
    assert r.matrix_power(-1) == r.inverse()


def test_zp_matrix_power_costs_at_most_n_minus_1_products(monkeypatch):
    """A Z_p power is r(A) for r = t^e mod chi_A: at most n - 1 products for any e."""
    calls = []
    real = matrices._matmul

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    ring = Zp(5, 20)
    n = 6
    u = random_unitary(ring, n, random.Random(5))
    alpha, E = teichmuller_exponent(5, 5, 20, n, range(1, n + 1))
    assert (alpha.bit_length(), bin(alpha).count("1")) == (75, 41)
    monkeypatch.setattr(matrices, "_matmul", counted)
    exponents = list(range(n + 2)) + [2**j for j in range(1, 12)]
    exponents += [alpha, E, random.Random(6).getrandbits(200)]
    powers = {}
    for e in exponents:
        calls.clear()
        powers[e] = u.matrix_power(e)
        assert len(calls) <= n - 1, e
    monkeypatch.undo()
    assert powers[1] == u
    assert powers[alpha] == u.matrix_power(alpha // 2) @ u.matrix_power(alpha - alpha // 2)


def _binary_power(A, e):
    """Oracle for e >= 0: right-to-left square-and-multiply on `@`, sharing no code
    with matrix_power.  A negative power P = A^e is checked as P @ A^-e = I."""
    result = PadicMatrix.identity(A.ring, A.n)
    while e:
        if e & 1:
            result = result @ A
        A = A @ A
        e >>= 1
    return result


@pytest.mark.parametrize(
    "ring,n",
    [(Zp(3, 4), 3), (Zp(5, 20), 6), (Zp(7, 30), 8), (UnramRing(3, 4, 2), 3), (UnramRing(5, 3, 3), 2)],
    ids=["3-4-3", "5-20-6", "7-30-8", "3-4-m2-3", "5-3-m3-2"],
)
def test_matrix_power_matches_binary_oracle(ring, n):
    rng = random.Random(ring.p * 100 + n)
    alpha, E = teichmuller_exponent(ring.residue_cardinality, ring.p, ring.K, n, range(1, n + 1))
    for _ in range(2):
        u = random_unitary(ring, n, rng)
        for e in (0, 1, n - 1, n, alpha, E, rng.getrandbits(200)):
            assert u.matrix_power(e) == _binary_power(u, e), e
        identity = PadicMatrix.identity(ring, n)
        assert u.matrix_power(-3) @ _binary_power(u, 3) == identity
    a = random_matrix(ring, n, rng)  # need not be unitary
    for e in (0, 1, n - 1, n, 2 * n + 1, alpha):
        assert a.matrix_power(e) == _binary_power(a, e), e


def _schoolbook(ring, A, B):
    """Oracle: row-by-column sums of `PadicScalar` products, entry by entry."""
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = PadicScalar(ring, ring.zero)
            for k in range(n):
                acc = acc + PadicScalar(ring, A[i][k]) * PadicScalar(ring, B[k][j])
            row.append(acc.raw)
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_packed_extension_matmul_matches_entrywise(p, m):
    """Extension-ring products, including all-(p^K - 1) entries, against a schoolbook.

    An extension-ring product is the packed Z_p product of the two
    restrictions R(A) R(B), read back (`matrices._restrict`, `_extend`); m = 1
    is the packed Z_p product itself.
    """
    rng = random.Random(p * 10 + m)
    for K in (1, 2, 20, 30):
        ring = UnramRing(p, K, m)
        top = (ring.pk - 1,) * m
        for n in (1, 2, 8):
            full = PadicMatrix(ring, [[top] * n for _ in range(n)])
            a, b = random_matrix(ring, n, rng), random_matrix(ring, n, rng)
            for x, y in ((a, b), (full, full), (full, a), (b, full)):
                assert (x @ y).rows == _schoolbook(ring, x.rows, y.rows)


CALCULUS_RINGS = [Zp(5, 3), unram(3, 3, 2), unram(5, 2, 3)]
CALCULUS_IDS = ["Zp", "m2", "m3"]


def test_inverse_requires_unit_determinant():
    """The inverse, t^-1 alone (|low| = 1) and a power of it (|low| > 1) all raise
    NotInvertible, while a positive low needs no inverse."""
    with pytest.raises(NotInvertible):
        M(Zp(5, 2), [[5, 0], [0, 1]]).inverse()
    for ring in CALCULUS_RINGS:
        A = PadicMatrix(ring, [[ring.p, 1], [0, 1]])
        assert A.evaluate([1, 2], 1) == A @ A.evaluate([1, 2])
        for call in (A.inverse, lambda: A.matrix_power(-1), lambda: A.matrix_power(-5),
                     lambda: A.evaluate([1, 2], -1), lambda: A.evaluate([1, 2], -3)):
            with pytest.raises(NotInvertible):
                call()


INVERSE_RINGS = [Zp(3, 1), Zp(5, 20), Zp(1000003, 2), unram(3, 3, 2), unram(5, 2, 3)]


def _with_entry(ring, A, i, j, value):
    rows = [list(row) for row in A.rows]
    rows[i][j] = ring.scalar(value).raw
    return PadicMatrix(ring, rows)


def _inverse_cases(ring, rng):
    """Random unitaries, ones whose (0, 0) entry is 0 mod p (a row swap), and over an
    extension ring ones whose (0, 0) pivot is a unit with its first coordinate 0 mod p."""
    p = ring.p
    for n in (1, 2, 3, 5):
        yield random_unitary(ring, n, rng)
    specials = [ring.p * rng.randrange(ring.pk)]
    if not isinstance(ring, Zp):
        specials += [(p * rng.randrange(ring.pk), 1 + p * rng.randrange(ring.pk)) + (0,) * (ring.m - 2),
                     (0,) * (ring.m - 1) + (1,)]
    for value in specials:
        for n in (2, 4):
            while not (A := _with_entry(ring, random_matrix(ring, n, rng), 0, 0, value)).is_unitary():
                pass
            yield A


@pytest.mark.parametrize("ring", INVERSE_RINGS, ids=str)
def test_inverse_by_elimination(ring):
    """A^-1 A = A A^-1 = I, and A^-1 equals Cayley-Hamilton's t^-1 mod chi_A evaluated at A:
    over Z_p on A's own chi, over an extension ring through `matrix_power(-1)`, which
    evaluates t^-1 mod chi_R on R(A) (`evaluate` takes int coefficients only)."""
    for A in _inverse_cases(ring, random.Random(ring.pk + ring.degree)):
        identity = PadicMatrix.identity(ring, A.n)
        inverse = A.inverse()
        assert inverse @ A == identity == A @ inverse
        if isinstance(ring, Zp):
            assert inverse == A.evaluate(A._t_inverse())
        else:
            assert inverse == A.matrix_power(-1)


@pytest.mark.parametrize("ring", INVERSE_RINGS, ids=str)
def test_inverse_rejects_a_determinant_divisible_by_p(ring):
    """Nonzero matrices with det = 0 mod p, also where det != 0 mod p^K, raise NotInvertible."""
    p = ring.p
    for rows in ([[1, 2], [2, 4 + p]], [[p, 0, 1], [0, 1, 0], [p * p, 0, 1]], [[0, 1], [0, 3]]):
        A = PadicMatrix(ring, rows)
        assert not A.is_zero() and not ring.runit(A._det_raw())
        with pytest.raises(NotInvertible):
            A.inverse()


@pytest.mark.parametrize("p,K", [(3, 4), (5, 3), (7, 10)])
def test_det_and_solve_on_a_block_of_right_hand_sides(p, K):
    """A Y = B, each column of Y against a schoolbook product, for a unit det; None
    and the same det for a non-unit one; and the empty matrix has det 1."""
    ring, pk = Zp(p, K), p**K
    rng = random.Random(f"block-rhs-{p}-{K}")
    for n in (1, 2, 3, 5, 8):
        A = random_unitary(ring, n, rng)
        for k in (1, 2, n + 1):
            B = [[rng.randrange(pk) for _ in range(n)] for _ in range(k)]  # columns
            det, Y = matrices._det_and_solve(ring, A.rows, B)
            assert det == A._det_raw() and len(Y) == k
            for y, b in zip(Y, B):
                assert [sum(A.rows[i][l] * y[l] for l in range(n)) % pk for i in range(n)] == b
        singular = PadicMatrix(ring, [[p * v for v in A.rows[0]], *A.rows[1:]])
        det, Y = matrices._det_and_solve(ring, singular.rows, [[1] * n])
        assert Y is None and det == singular._det_raw() and det % p == 0
    assert matrices._det_and_solve(ring, [], [[]]) == (1, [[]])
    assert matrices._det_and_solve(ring, [], []) == (1, [])


@pytest.mark.parametrize("ring", [unram(3, 3, 2), unram(5, 2, 3)], ids=["m2", "m3"])
def test_extension_inverse_takes_no_extension_ring_inverse(ring, monkeypatch):
    """Over an extension ring A^-1 is read back from the Z_p inverse of R(A): no
    entry of the extension ring is ever inverted."""
    rng = random.Random(f"restricted-inverse-{ring}")
    cases = [random_unitary(ring, n, rng) for n in (1, 2, 3, 4)]

    def refuse(self, a):
        raise AssertionError("an extension-ring entry was inverted")

    monkeypatch.setattr(UnramRing, "rinv", refuse)
    inverses = [A.inverse() for A in cases]
    monkeypatch.undo()
    for A, inverse in zip(cases, inverses):
        assert inverse @ A == PadicMatrix.identity(ring, A.n)


@pytest.mark.parametrize("ring", CALCULUS_RINGS, ids=CALCULUS_IDS)
def test_powers_of_either_sign_and_the_inverse_against_products(ring):
    """A^e for -n-1 <= e <= n+1 and e = +-2^70 +- 1, and A^-1, all by `evaluate`."""
    rng = random.Random(ring.p * 10 + ring.degree)
    big = [s * (2**70 + d) for s in (1, -1) for d in (1, -1)]
    for n in (1, 2, 3, 4):
        A = random_unitary(ring, n, rng)
        identity = PadicMatrix.identity(ring, n)
        assert A.inverse() @ A == identity == A @ A.inverse()
        for e in list(range(-n - 1, n + 2)) + big:
            power = A.matrix_power(e)
            if e >= 0:
                assert power == _binary_power(A, e), e
            else:
                assert power @ _binary_power(A, -e) == identity, e


@pytest.mark.parametrize("ring", CALCULUS_RINGS, ids=CALCULUS_IDS)
def test_a_negative_power_runs_one_berkowitz_and_no_inverse(ring, monkeypatch):
    """A^-5 is (t^-1)^5 mod chi_A: one char poly, and no inverse matrix on the way."""
    berkowitz, inverses = [], []
    real_berkowitz, real_inverse = PadicMatrix._berkowitz, PadicMatrix.inverse

    def counted_berkowitz(self):
        berkowitz.append(self)
        return real_berkowitz(self)

    def counted_inverse(self):
        inverses.append(self)
        return real_inverse(self)

    A = PadicMatrix(ring, random_unitary(ring, 3, random.Random(5)).rows)  # no chi_A yet
    monkeypatch.setattr(PadicMatrix, "_berkowitz", counted_berkowitz)
    monkeypatch.setattr(PadicMatrix, "inverse", counted_inverse)
    power = A.matrix_power(-5)
    assert (len(berkowitz), len(inverses)) == (1, 0)
    monkeypatch.undo()
    assert power @ _binary_power(A, 5) == PadicMatrix.identity(ring, 3)


def test_sup_norm_examples():
    ring = Zp(3, 4)

    def sup_norm(A):
        return Norm(ring.p, ring.K, A.min_valuation())

    assert str(sup_norm(PadicMatrix.identity(ring, 2))) == "1"
    assert sup_norm(M(ring, [[3, 9], [0, 3]])).value() == pytest.approx(1 / 3)
    zero = PadicMatrix.zeros(ring, 2)
    assert sup_norm(zero).at_floor
    assert str(sup_norm(zero)) == "<=1/81"


def test_norm_comparisons_follow_size_not_tuple_order():
    # same p and K, so the tuple order (p, K, val) would run opposite to size
    one, ninth, floor = Norm(3, 4, 0), Norm(3, 4, 2), Norm(3, 4, 4)
    norms = [ninth, floor, one]
    assert max(norms) is one and min(norms) is floor
    assert sorted(norms) == [floor, ninth, one]
    assert sorted(norms, reverse=True) == [one, ninth, floor]
    assert one > ninth >= ninth >= floor and floor < ninth <= ninth <= one
    assert not (floor > ninth or floor >= ninth or one < ninth or one <= ninth)
    for x in norms:
        for y in [*norms, Norm(3, 4, 2), (3, 4, 2), (3, 4, 0)]:
            assert (x != y) is (not x == y)
    assert ninth == Norm(3, 4, 2) and ninth != (3, 4, 2) and (3, 4, 2) != ninth


def test_char_poly_examples():
    ring = Zp(5, 3)
    assert [c.lift() for c in M(ring, [[1, 0], [0, -1]]).char_poly()] == [
        ring.pk - 1,
        0,
        1,
    ]
    fib = M(ring, [[1, 1], [1, 0]])
    assert [c.lift() for c in fib.char_poly()] == [ring.pk - 1, ring.pk - 1, 1]
    rot = M(ring, [[0, -1], [1, 0]])
    assert [c.lift() for c in rot.char_poly()] == [1, 0, 1]


def _eval_poly_at_matrix(coeffs, A):
    ring, n = A.ring, A.n
    acc = PadicMatrix.zeros(ring, n)
    for c in reversed(coeffs):
        acc = acc @ A + PadicMatrix.identity(ring, n).scale(c)
    return acc


@pytest.mark.parametrize("n,p,K", [(2, 3, 4), (3, 5, 3), (4, 3, 2)])
def test_cayley_hamilton(n, p, K):
    rng = random.Random(7 * n + p)
    ring = Zp(p, K)
    for _ in range(8):
        A = random_matrix(ring, n, rng)
        assert _eval_poly_at_matrix(A.char_poly(), A).is_zero()


def test_cayley_hamilton_unram():
    rng = random.Random(11)
    ring = UnramRing(3, 2, 2)
    A = random_matrix(ring, 2, rng)
    assert _eval_poly_at_matrix(A.char_poly(), A).is_zero()


def test_det_multiplicative():
    rng = random.Random(3)
    ring = Zp(7, 3)
    for _ in range(6):
        A, B = random_matrix(ring, 3, rng), random_matrix(ring, 3, rng)
        assert (A @ B).det() == A.det() * B.det()


def test_smith_examples():
    ring = Zp(3, 4)
    assert PadicMatrix.identity(ring, 3).smith_form(2).divisors == (0, 0, 0)
    assert M(ring, [[3, 0], [0, 1]]).smith_form(2).divisors == (0, 1)
    assert M(ring, [[0, 1], [0, 0]]).smith_form(2).divisors == (0, 2)


@pytest.mark.parametrize("j", [1, 2])
def test_smith_verifies_and_matches_brute_force_kernel(j):
    rng = random.Random(13 + j)
    ring = Zp(3, 3)
    pj = 3**j
    for _ in range(12):
        A = random_matrix(ring, 2, rng)
        profile = A.smith_form(j)
        assert profile.verify()
        # brute-force kernel of A over (Z/3^j)^2
        Aj = A.reduce(j)
        brute = {
            (x, y)
            for x, y in product(range(pj), repeat=2)
            if all(s.lift() == 0 for s in Aj.apply([x, y]))
        }
        basis = profile.kernel_basis()
        spanned = set()
        coeff_space = product(range(pj), repeat=len(basis)) if basis else [()]
        for coeffs in coeff_space:
            vec = [0] * 2
            for c, b in zip(coeffs, basis):
                for i in range(2):
                    vec[i] = (vec[i] + c * b[i].lift()) % pj
            spanned.add(tuple(vec))
        assert spanned == brute


def test_unitary_group_closure():
    rng = random.Random(5)
    ring = Zp(3, 3)
    for _ in range(10):
        u, v = random_unitary(ring, 2, rng), random_unitary(ring, 2, rng)
        assert (u @ v).is_unitary()
        assert u.inverse().is_unitary()
        assert u.inverse() @ u == PadicMatrix.identity(ring, 2)


def test_seminorm_nilpotent_example():
    ring = Zp(3, 4)
    u = M(ring, [[1, 1], [0, 1]])
    a = u - PadicMatrix.identity(ring, 2)
    result = a.spectral_seminorm()
    assert result.is_zero and result.nilpotency_k == 2
    assert result.value() == 0


def test_seminorm_identity_and_diagonal():
    ring = Zp(3, 4)
    assert PadicMatrix.identity(ring, 2).spectral_seminorm().value() == 1
    assert M(ring, [[3, 0], [0, 1]]).spectral_seminorm().value() == 1


@pytest.mark.parametrize("k_max", [0, -5])
def test_seminorm_needs_k_max_of_at_least_1(k_max):
    ring = Zp(3, 4)
    with pytest.raises(InputError, match=f"k_max = {k_max} must be >= 1"):
        M(ring, [[1, 1], [0, 1]]).spectral_seminorm(k_max)
    assert M(ring, [[1, 1], [0, 1]]).spectral_seminorm(1).best_k == 1


def test_seminorm_subadditive_sequence():
    rng = random.Random(19)
    ring = Zp(3, 5)
    for _ in range(6):
        A = random_matrix(ring, 2, rng)
        vals = []
        power = A
        for _ in range(6):
            vals.append(power.min_valuation())
            power = power @ A
        for k in range(2):
            # |A^(2k)| <= |A^k|^2 i.e. valuations superadditive
            assert vals[2 * k + 1] >= 2 * vals[k]


def test_vector_norm_and_apply():
    ring = Zp(3, 3)
    u = M(ring, [[1, 1], [0, 1]])
    image = u.apply([1, 3])
    assert [s.lift() for s in image] == [4, 3]
    assert vector_norm(ring, [1, 3]).value() == 1
    assert vector_norm(ring, [0, 0]).at_floor


def test_frobenius_map_entrywise():
    ring = UnramRing(3, 2, 2)
    gen = ring.generator
    A = PadicMatrix(ring, [[gen, ring.one], [ring.zero, gen]])
    F = A.frobenius_map()
    assert F.rows[0][0] == ring.rpow(gen, 3)
    assert F.rows[0][1] == ring.one


def test_char_poly_against_cofactor_oracle():
    """Independent oracle: expand det(tI - A) over Z[t] by cofactors, reduce mod p^K."""

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def poly_add_scaled(a, b, sign):
        out = [0] * max(len(a), len(b))
        for i, x in enumerate(a):
            out[i] += x
        for i, y in enumerate(b):
            out[i] += sign * y
        return out

    def det_poly(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = [0]
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = poly_mul(rows[0][j], det_poly(minor))
            total = poly_add_scaled(total, term, -1 if j % 2 else 1)
        return total

    rng = random.Random(77)
    for n, p, K in [(2, 3, 3), (3, 5, 2), (4, 3, 2)]:
        ring = Zp(p, K)
        A = random_matrix(ring, n, rng)
        entries = [
            [[-A.rows[i][j], 1] if i == j else [-A.rows[i][j]] for j in range(n)]
            for i in range(n)
        ]
        expected = [c % ring.pk for c in det_poly(entries)]
        expected += [0] * (n + 1 - len(expected))
        assert [c.lift() for c in A.char_poly()] == expected[: n + 1]


def test_char_poly_is_computed_once_per_matrix(monkeypatch):
    """classify reads chi_U three times (determinant, U^E, U^alpha) but runs Berkowitz once."""
    from padicu import unitary

    runs = []
    berkowitz = PadicMatrix._berkowitz

    def counted(self):
        runs.append(self)
        return berkowitz(self)

    monkeypatch.setattr(PadicMatrix, "_berkowitz", counted)
    u = random_unitary(Zp(5, 6), 4, random.Random(3))
    unitary.classify(u)
    unitary.jordan_decompose(u)
    assert sum(1 for m in runs if m is u) == 1
    chi = u.char_poly_raw()
    assert chi == berkowitz(u)
    chi[0] += 1  # a caller's list is its own
    assert u.char_poly_raw() == berkowitz(u)
    assert u.char_poly_raw() is not u.char_poly_raw()


def test_smith_divisors_match_determinantal_oracle():
    """Independent oracle: gcds of k x k integer minors have valuation sum(d_i, i <= k).

    Both sides are capped at j, the precision where the entries are defined.
    """
    from itertools import combinations
    from math import gcd

    def int_det(m):
        if len(m) == 1:
            return m[0][0]
        return sum(
            (-1 if col % 2 else 1)
            * m[0][col]
            * int_det([r[:col] + r[col + 1 :] for r in m[1:]])
            for col in range(len(m))
        )

    def minor_gcd_val_capped(A, k, p, cap):
        g = 0
        n = len(A)
        for rows_idx in combinations(range(n), k):
            for cols_idx in combinations(range(n), k):
                g = gcd(g, int_det([[A[r][c] for c in cols_idx] for r in rows_idx]))
        if g == 0:
            return cap
        v = 0
        while v < cap and g % p == 0:
            g //= p
            v += 1
        return v

    rng = random.Random(88)
    ring = Zp(3, 3)
    j = 2
    for _ in range(10):
        A = random_matrix(ring, 3, rng).reduce(j)
        profile = A.smith_form()
        lifted = [list(row) for row in A.rows]
        for k in range(1, 4):
            partial = sum(profile.divisors[:k])
            assert min(partial, j) == minor_gcd_val_capped(lifted, k, 3, j)

    # Mixed valuations, over Z_p and an unramified ring: the first unit may sit
    # anywhere in the block, or nowhere.  Over a quotient of a discrete
    # valuation ring the gcd of the k x k minors is the one of least
    # valuation, so each minor is a cofactor expansion in the ring itself.
    def ring_det(ring, m):
        if len(m) == 1:
            return m[0][0]
        total = ring.zero
        for col in range(len(m)):
            term = ring.rmul(m[0][col], ring_det(ring, [r[:col] + r[col + 1 :] for r in m[1:]]))
            total = ring.rsub(total, term) if col % 2 else ring.radd(total, term)
        return total

    for ring, j in ((Zp(5, 4), 3), (UnramRing(3, 3, 2), 2)):
        for _ in range(12):
            A = _mixed_valuation_matrix(ring, 3, rng)
            profile = A.smith_form(j)
            assert profile.verify()
            rows = A.reduce(j).rows
            ring_j = profile.ring
            for k in range(1, 4):
                least = min(
                    ring_j.rval(ring_det(ring_j, [[rows[r][c] for c in cols] for r in rws]))
                    for rws in combinations(range(3), k)
                    for cols in combinations(range(3), k)
                )
                assert min(sum(profile.divisors[:k]), j) == least


def _mixed_valuation_matrix(ring, n, rng):
    """Entries p^v times a random value, v in 0..K: valuations from 0 up to zero."""
    p = ring.p
    return PadicMatrix(ring, [
        [ring.rmul(ring.rfrom_int(p ** rng.randrange(ring.K + 1)), v) for v in row]
        for row in random_matrix(ring, n, rng).rows
    ])


def _sum_of_powers(A, coeffs):
    """Oracle for f(A): sum of c_k * A^k with each power from matrix_power."""
    total = PadicMatrix.zeros(A.ring, A.n)
    for k, c in enumerate(coeffs):
        total = total + A.matrix_power(k).scale(c)
    return total


@pytest.mark.parametrize("ring", [Zp(5, 3), UnramRing(3, 2, 2)], ids=["Zp", "UnramRing"])
def test_evaluate_works_on_raw_rows(ring, monkeypatch):
    """Horner steps add onto the diagonal of the raw product: no diagonal matrix,
    no scalar object and no matrix addition."""
    rng = random.Random(62)
    A = random_matrix(ring, 3, rng)
    coeffs = [rng.randrange(ring.pk) for _ in range(4)]
    want = _sum_of_powers(A, coeffs)

    def forbidden(*args, **kwargs):
        raise AssertionError("evaluate left the raw rows")

    monkeypatch.setattr(PadicMatrix, "diagonal", forbidden)
    monkeypatch.setattr(PadicMatrix, "__add__", forbidden)
    monkeypatch.setattr(type(ring), "scalar", forbidden)
    assert A.evaluate(coeffs) == want
    c = ring.rfrom_int(coeffs[0])
    assert A.evaluate(coeffs[:1]).rows == tuple(
        tuple(c if i == j else ring.zero for j in range(3)) for i in range(3)
    )


@pytest.mark.parametrize("ring", [Zp(5, 3), UnramRing(3, 2, 2)], ids=["Zp", "UnramRing"])
def test_evaluate_matches_sum_of_powers(ring):
    """Int coefficients over both ring kinds; Z_p raw values are ints too.  An
    extension ring's raw values are not coefficients `evaluate` takes."""
    rng = random.Random(61)
    for n in (1, 2, 3):
        A = random_matrix(ring, n, rng)
        assert A.evaluate([]) == PadicMatrix.zeros(ring, n)
        assert A.evaluate([7]) == PadicMatrix.identity(ring, n).scale(7)
        for length in range(1, 6):
            ints = [rng.randrange(-ring.pk, ring.pk) for _ in range(length)]
            assert A.evaluate(ints) == _sum_of_powers(A, ints)
            raws = [random_matrix(ring, 1, rng).rows[0][0] for _ in range(length)]
            if isinstance(ring, Zp):
                assert A.evaluate(raws) == _sum_of_powers(A, raws)



def _school_mul(a, b, pk):
    n = len(b)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % pk for j in range(n)] for i in range(len(a))]


def _school_horner(coeffs, a, pk):
    """sum c_i A^i mod pk by Horner on integer lists."""
    n = len(a)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):
        acc = _school_mul(acc, a, pk)
        for i in range(n):
            acc[i][i] = (acc[i][i] + c) % pk
    return acc


@pytest.mark.parametrize("p,K", [(3, 2), (5, 20), (7, 30)])
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_evaluate_matches_a_schoolbook_horner_for_long_lists_and_negative_low(p, K, n):
    """f = t^low g with deg g >= n and low of either sign: for low >= 0, f(A) is
    Horner on t^low g; for low < 0, X = f(A) is the one matrix with A^-low X = g(A)."""
    ring = Zp(p, K)
    pk = ring.pk
    rng = random.Random(p * 100 + n)
    for _ in range(4):
        u = random_unitary(ring, n, rng)
        a = [list(row) for row in u.rows]
        g = [rng.randrange(-pk, pk) for _ in range(rng.randrange(n + 1, 3 * n + 3))]
        for low in (-5, -1, 0, 1, 4):
            value = [list(row) for row in u.evaluate(g, low).rows]
            if low >= 0:
                assert value == _school_horner([0] * low + g, a, pk), low
            else:
                assert _school_mul(_school_horner([0] * -low + [1], a, pk), value, pk) == (
                    _school_horner(g, a, pk)
                ), low


# -- restriction of scalars against a schoolbook ------------------------------


def _times_mod(a, b, modulus, pk):
    """a b in Z/pk[X]/(modulus) on coefficient tuples: the schoolbook product,
    then each top coefficient folded back through X^m = -(modulus below its lead)."""
    m = len(modulus) - 1
    out = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for top in range(2 * m - 2, m - 1, -1):
        for k in range(m):
            out[top - m + k] -= out[top] * modulus[k]
    return tuple(v % pk for v in out[:m])


def _ring_matmul(a, b, modulus, pk):
    """A B over the extension ring, entry by entry from `_times_mod`."""
    m, n = len(modulus) - 1, len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = [0] * m
            for k in range(n):
                acc = [x + y for x, y in zip(acc, _times_mod(a[i][k], b[k][j], modulus, pk))]
            row.append(tuple(v % pk for v in acc))
        out.append(row)
    return out


def _restricted(a, modulus, pk):
    """R(A) by its definition: entry (i m + r, j m + c) is coordinate r of A[i][j] X^c."""
    m = len(modulus) - 1
    basis = [tuple(int(r == c) for r in range(m)) for c in range(m)]
    return [[_times_mod(y, basis[c], modulus, pk)[r] for y in row for c in range(m)]
            for row in a for r in range(m)]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_restriction_of_scalars_is_an_injective_ring_homomorphism(p, m):
    """R(A B) = R(A) R(B), R(A + B) = R(A) + R(B), R(I) = I and A is read back
    from R(A), on seeded matrices and an all-(p^K - 1) one; every product here
    is the schoolbook one of this file."""
    ring = unram(p, 3, m)
    pk, modulus = ring.pk, list(ring.modulus)
    rng = random.Random(p * 10 + m)
    top = M(ring, [[(pk - 1,) * m] * 3] * 3)
    for _ in range(4):
        a, b = random_matrix(ring, 3, rng), random_matrix(ring, 3, rng)
        for x, y in ((a, b), (top, b), (top, top)):
            rx, ry = matrices._restrict(x), matrices._restrict(y)
            assert rx.ring == Zp(p, 3) and rx.n == 3 * m
            assert [list(row) for row in rx.rows] == _restricted(x.rows, modulus, pk)
            product = _ring_matmul(x.rows, y.rows, modulus, pk)
            assert [list(row) for row in matrices._restrict(M(ring, product)).rows] == (
                _school_mul([list(row) for row in rx.rows], [list(row) for row in ry.rows], pk)
            )
            total = [[tuple((u + v) % pk for u, v in zip(s, t)) for s, t in zip(r, q)]
                     for r, q in zip(x.rows, y.rows)]
            assert [list(row) for row in matrices._restrict(M(ring, total)).rows] == [
                [(u + v) % pk for u, v in zip(r, q)] for r, q in zip(rx.rows, ry.rows)
            ]
            assert matrices._extend(ring, rx) == x
    identity = matrices._restrict(PadicMatrix.identity(ring, 3))
    assert [list(row) for row in identity.rows] == [[int(i == j) for j in range(3 * m)] for i in range(3 * m)]


def _ring_identity(n, m, pk, c=1):
    return [[(c % pk,) + (0,) * (m - 1) if i == j else (0,) * m for j in range(n)] for i in range(n)]


def _ring_power(a, e, modulus, pk):
    """A^e for e >= 0 by square-and-multiply on `_ring_matmul`."""
    out, square = _ring_identity(len(a), len(modulus) - 1, pk), a
    while e:
        if e & 1:
            out = _ring_matmul(out, square, modulus, pk)
        e >>= 1
        if e:
            square = _ring_matmul(square, square, modulus, pk)
    return out


def _ring_horner(coeffs, a, modulus, pk):
    """sum c_k A^k on `_ring_matmul`, with c_k added onto the first coordinate of the diagonal."""
    n, m = len(a), len(modulus) - 1
    acc = [[(0,) * m] * n for _ in range(n)]
    for c in reversed(coeffs):
        acc = _ring_matmul(acc, a, modulus, pk)
        for i in range(n):
            acc[i][i] = ((acc[i][i][0] + c) % pk,) + acc[i][i][1:]
    return acc


def _ring_seminorm(a, modulus, p, K, k_max):
    """(is_zero, nilpotency_k, best_k, val) of min_k |A^k|^(1/k), powers on `_ring_matmul`."""
    pk = p**K

    def val(x):
        return min((next(v for v in range(K) if c % p ** (v + 1)) for c in x if c), default=K)

    best_v, best_k, power = None, 1, a
    for k in range(1, k_max + 1):
        if k > 1:
            power = _ring_matmul(power, a, modulus, pk)
        if not any(c for row in power for x in row for c in x):
            return (True, k, k, K)
        v = min(val(x) for row in power for x in row)
        if best_v is None or v * best_k > best_v * k:
            best_v, best_k = v, k
    return (False, None, best_k, best_v)


@pytest.mark.parametrize("p,K,m", [(3, 3, 2), (5, 2, 3), (7, 4, 4)])
def test_extension_ring_algebra_takes_no_ring_product(p, K, m, monkeypatch):
    """Over unram(p, K, m), `@`, `matrix_power`, `evaluate_matrix` and
    `spectral_seminorm` run the packed Z_p kernel on R(A): with
    `UnramRing.rmul` made to raise, each still matches a schoolbook over the
    ring written in this file (`_ring_matmul`).  A negative power X = A^e is
    checked as A^-e X = I, and f = t^low g with low < 0 as A^-low f(A) = g(A)."""
    ring, base = unram(p, K, m), Zp(p, K)
    pk, modulus = ring.pk, list(ring.modulus)
    rng = random.Random(f"ext-kernel-{p}-{K}-{m}")
    cases = []
    for n in (1, 2, 5):
        a, b = random_unitary(ring, n, rng), random_matrix(ring, n, rng)
        scaled = M(ring, [[tuple(p * c for c in x) for x in row] for row in b.rows])
        upper = M(ring, [[x if j > i else (0,) * m for j, x in enumerate(row)] for i, row in enumerate(b.rows)])
        polys = [(low, [rng.randrange(pk) for _ in range(rng.randrange(1, 2 * n + 3))]) for low in (-3, 0, 2)]
        cases.append((a, b, scaled, upper, polys))

    def forbidden(*args):
        raise AssertionError("a ring product was taken")

    monkeypatch.setattr(UnramRing, "rmul", forbidden)
    for a, b, scaled, upper, polys in cases:
        x, y, n = [list(row) for row in a.rows], [list(row) for row in b.rows], a.n
        identity = _ring_identity(n, m, pk)
        assert [list(row) for row in (a @ b).rows] == _ring_matmul(x, y, modulus, pk)
        assert [list(row) for row in (b @ a).rows] == _ring_matmul(y, x, modulus, pk)
        for e in (-5, -1, 0, 1, 4, 2**70 + 3):
            power = [list(row) for row in a.matrix_power(e).rows]
            if e >= 0:
                assert power == _ring_power(x, e, modulus, pk), e
            else:
                assert _ring_matmul(_ring_power(x, -e, modulus, pk), power, modulus, pk) == identity, e
        for low, g in polys:
            value = [list(row) for row in gm.LaurentPoly.from_coeffs(base, g, low=low).evaluate_matrix(a).rows]
            if low >= 0:
                assert value == _ring_horner([0] * low + g, x, modulus, pk), low
            else:
                assert _ring_matmul(_ring_power(x, -low, modulus, pk), value, modulus, pk) == (
                    _ring_horner(g, x, modulus, pk)
                ), low
        for z in (a, b, scaled, upper):
            rows = [list(row) for row in z.rows]
            assert tuple(z.spectral_seminorm(16))[2:] == _ring_seminorm(rows, modulus, p, K, 16)
