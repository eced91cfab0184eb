"""The public matrix constructor reduces what it is given; kernels bypass it.

`PadicMatrix(ring, rows)` takes ints of any sign and size, raw values and
scalars of the ring, and stores each entry through `ring.rcoerce`, the raw
reducer behind `ring.scalar`.
The properties here check products, polynomial evaluation and the
characteristic polynomial against a schoolbook oracle over the integers,
kept local to this file and reduced mod p^K only at the end.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicu
from padicu import unitary
from padicu.errors import InputError, PrecisionMismatch, Unsupported
from padicu.matrices import PadicMatrix
from padicu.sampling import random_continuous, random_unitary
from padicu.scalars import UnramRing, Zp, unram

RINGS = [Zp(3, 1), Zp(3, 2), Zp(5, 3), Zp(7, 2), Zp(7, 30)]


@st.composite
def ring_and_rows(draw, count=1):
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(min_value=1, max_value=4))
    pk = ring.pk
    entry = st.one_of(
        st.integers(min_value=-3 * pk, max_value=3 * pk),
        st.sampled_from([-1, -pk, pk, -pk - 1, pk * pk]),
        st.integers(min_value=-(2**200), max_value=2**200),
    )
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return (ring, *(draw(square) for _ in range(count)))


def oracle_matmul(a, b):
    n = len(b)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(len(a))]


def oracle_evaluate(coeffs, a):
    """sum c_i A^i over the integers, by Horner."""
    n = len(a)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):
        acc = oracle_matmul(acc, a)
        for i in range(n):
            acc[i][i] += c
    return acc


def oracle_char_poly(a):
    """Ascending coefficients of det(tI - A) over Z[t], by cofactor expansion."""

    def poly_mul(x, y):
        out = [0] * (len(x) + len(y) - 1)
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                out[i + j] += u * v
        return out

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = [0]
        for j, entry in enumerate(rows[0]):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = poly_mul(entry, det(minor))
            width = max(len(total), len(term))
            sign = -1 if j % 2 else 1
            total = [
                (total[k] if k < len(total) else 0) + sign * (term[k] if k < len(term) else 0)
                for k in range(width)
            ]
        return total

    n = len(a)
    return det([[[-a[i][j], 1] if i == j else [-a[i][j]] for j in range(n)] for i in range(n)])


def reduced(rows, pk):
    return tuple(tuple(v % pk for v in row) for row in rows)


@given(ring_and_rows())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_entries_of_any_sign_are_stored_reduced(data):
    ring, rows = data
    A = PadicMatrix(ring, rows)
    assert A.rows == reduced(rows, ring.pk)
    assert A == PadicMatrix(ring, A.rows)


@given(ring_and_rows(count=2))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_product_matches_the_schoolbook_oracle(data):
    ring, a, b = data
    product = PadicMatrix(ring, a) @ PadicMatrix(ring, b)
    assert product.rows == reduced(oracle_matmul(a, b), ring.pk)


@given(ring_and_rows(), st.lists(st.integers(min_value=-(10**40), max_value=10**40), max_size=6))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_evaluate_matches_the_schoolbook_oracle(data, coeffs):
    ring, a = data
    value = PadicMatrix(ring, a).evaluate(coeffs)
    assert value.rows == reduced(oracle_evaluate(coeffs, a), ring.pk)


@given(ring_and_rows())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_char_poly_matches_the_cofactor_oracle(data):
    ring, a = data
    expected = [c % ring.pk for c in oracle_char_poly(a)]
    assert PadicMatrix(ring, a).char_poly_raw() == expected


def test_classify_does_not_depend_on_the_residue_written():
    ring = Zp(3, 2)
    negative = padicu.classify(PadicMatrix(ring, [[-1, 0], [0, 1]]))
    positive = padicu.classify(PadicMatrix(ring, [[8, 0], [0, 1]]))
    assert negative.kind == positive.kind == unitary.TEICHMULLER
    assert negative.witness == positive.witness


@pytest.mark.parametrize("seed", range(6))
def test_classify_of_a_shifted_representative_is_unchanged(seed):
    ring = Zp(5, 3)
    u = random_unitary(ring, 3, random.Random(seed))
    rng = random.Random(100 + seed)
    shifted = [[v + ring.pk * rng.randrange(-4, 4) for v in row] for row in u.rows]
    assert padicu.classify(PadicMatrix(ring, shifted)) == padicu.classify(u)


def test_ints_embed_into_an_extension_ring():
    ring = UnramRing(3, 2, 2)
    one = PadicMatrix(ring, [[1, 0], [0, 1]])
    assert one == PadicMatrix.identity(ring, 2)
    assert one @ one == one
    minus = PadicMatrix(ring, [[-1, (4, -1)], [0, ring.scalar(10)]])
    assert minus.rows == (((8, 0), (4, 8)), ((0, 0), (1, 0)))


def test_extension_entries_of_any_sign_give_the_same_products():
    ring = unram(5, 2, 2)
    rng = random.Random(3)
    for _ in range(5):
        raw = [[(rng.randrange(-99, 99), rng.randrange(-99, 99)) for _ in range(3)] for _ in range(3)]
        fixed = [[tuple(c % ring.pk for c in v) for v in row] for row in raw]
        A, B = PadicMatrix(ring, raw), PadicMatrix(ring, fixed)
        assert A == B and A @ A == B @ B and A.char_poly_raw() == B.char_poly_raw()


def test_a_scalar_from_another_ring_is_rejected():
    with pytest.raises(PrecisionMismatch):
        PadicMatrix(Zp(3, 2), [[Zp(3, 3).scalar(1)]])
    with pytest.raises(PrecisionMismatch):
        PadicMatrix(Zp(3, 2), [[Zp(5, 2).scalar(1)]])
    with pytest.raises(PrecisionMismatch):
        PadicMatrix(unram(3, 2, 2), [[Zp(3, 3).scalar(1)]])
    assert PadicMatrix(Zp(3, 2), [[Zp(3, 2).scalar(-1)]]).rows == ((8,),)


@pytest.mark.parametrize("rows", [[[1, 2]], [[1], [2]], [[1, 2], [3]], [[1, 2], [3, 4, 5]]])
def test_a_non_square_shape_is_rejected(rows):
    with pytest.raises(InputError):
        PadicMatrix(Zp(3, 2), rows)


def _chain_inputs(p, K, n, count):
    """Seeded unitaries whose spectral datum exists, each rebuilt fresh from its rows."""
    ring = Zp(p, K)
    out, seed = [], 0
    while len(out) < count:
        rng = random.Random(seed)
        seed += 1
        for maker in (random_unitary, random_continuous):
            u = maker(ring, n, rng)
            try:
                padicu.spectral_decompose(u)
            except Unsupported:
                continue
            out.append(u.rows)
    return ring, out[:count]


@pytest.mark.parametrize("p,K,n", [(3, 3, 2), (5, 20, 6)])
def test_the_spectral_chain_builds_no_matrix_through_the_public_constructor(p, K, n, monkeypatch):
    ring, inputs = _chain_inputs(p, K, n, 4)
    matrices = [PadicMatrix(ring, rows) for rows in inputs]
    calls = []
    public = PadicMatrix.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        public(self, *args, **kwargs)

    monkeypatch.setattr(PadicMatrix, "__init__", counted)
    for u in matrices:
        padicu.classify(u)
        padicu.jordan_decompose(u)
        padicu.spectral_decompose(u)
    assert calls == []
    PadicMatrix(ring, inputs[0])
    assert calls == [1]
