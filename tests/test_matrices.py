"""Matrix layer: arithmetic, char poly, Smith form, seminorm."""

import random
from itertools import product

import pytest

from padicu import matrices
from padicu.arith import teichmuller_exponent
from padicu.errors import NotInvertible
from padicu.matrices import Norm, PadicMatrix, vector_norm
from padicu.sampling import random_matrix, random_unitary
from padicu.scalars import UnramRing, Zp


def M(ring, rows):
    return PadicMatrix.from_rows(ring, rows)


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
    alpha, E = teichmuller_exponent(5, 5, 20, n)
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
    """Oracle: right-to-left square-and-multiply on `@`, sharing no code with matrix_power."""
    if e < 0:
        A, e = A.inverse(), -e
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
    alpha, E = teichmuller_exponent(ring.residue_cardinality, ring.p, ring.K, n)
    for _ in range(2):
        u = random_unitary(ring, n, rng)
        for e in (-3, 0, 1, n - 1, n, alpha, E, rng.getrandbits(200)):
            assert u.matrix_power(e) == _binary_power(u, e), e
    a = random_matrix(ring, n, rng)  # need not be unitary
    for e in (0, 1, n - 1, n, 2 * n + 1, alpha):
        assert a.matrix_power(e) == _binary_power(a, e), e


def _entrywise_matmul(ring, A, B):
    """Oracle: one rmul and one radd per entry pair, as the ring defines them."""
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero
            for k in range(n):
                acc = ring.radd(acc, ring.rmul(A[i][k], B[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_packed_extension_matmul_matches_entrywise(p, m):
    """Kronecker-packed products, including all-(p^K - 1) entries, the widest sums."""
    rng = random.Random(p * 10 + m)
    for K in (1, 2, 20, 30):
        ring = UnramRing(p, K, m)
        top = (ring.pk - 1,) * m
        for n in (1, 2, 8):
            full = PadicMatrix(ring, [[top] * n for _ in range(n)])
            a, b = random_matrix(ring, n, rng), random_matrix(ring, n, rng)
            for x, y in ((a, b), (full, full), (full, a), (b, full)):
                assert (x @ y).rows == _entrywise_matmul(ring, x.rows, y.rows)


def test_inverse_requires_unit_determinant():
    ring = Zp(5, 2)
    with pytest.raises(NotInvertible):
        M(ring, [[5, 0], [0, 1]]).inverse()


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
    rng = random.Random(61)
    for n in (1, 2, 3):
        A = random_matrix(ring, n, rng)
        assert A.evaluate([]) == PadicMatrix.zeros(ring, n)
        assert A.evaluate([7]) == PadicMatrix.identity(ring, n).scale(7)
        for length in range(1, 6):
            ints = [rng.randrange(-ring.pk, ring.pk) for _ in range(length)]
            assert A.evaluate(ints) == _sum_of_powers(A, ints)
            raws = [random_matrix(ring, 1, rng).rows[0][0] for _ in range(length)]
            assert A.evaluate(raws) == _sum_of_powers(A, raws)

