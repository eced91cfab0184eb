"""The dense Laurent form against a dict oracle kept local to this file.

`LaurentPoly` stores (low, coeffs) with nonzero ends; these properties check
it against plain {exponent: coefficient mod p^K} dicts built here, over random
sparse inputs with zero coefficients, multiples of p^K and negative exponents.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicu import gm
from padicu.errors import NotUnitary, ZeroPolynomial
from padicu.gm import LaurentPoly, UnitPolynomial
from padicu.scalars import Zp

RINGS = [Zp(3, 1), Zp(3, 3), Zp(5, 2), Zp(7, 3)]


@st.composite
def sparse_dicts(draw, ring):
    pk = ring.pk
    value = st.one_of(
        st.integers(min_value=-2 * pk, max_value=3 * pk),
        st.sampled_from([0, pk, -pk, 2 * pk, ring.p]),
    )
    return draw(st.dictionaries(st.integers(min_value=-7, max_value=7), value, max_size=6))


@st.composite
def ring_and_dicts(draw, count=1):
    ring = draw(st.sampled_from(RINGS))
    return (ring, *(draw(sparse_dicts(ring)) for _ in range(count)))


def oracle(d: dict, pk: int) -> dict:
    return {e: c % pk for e, c in d.items() if c % pk}


def oracle_mul(a: dict, b: dict, pk: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return oracle(out, pk)


def oracle_add(a: dict, b: dict, pk: int, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return oracle(out, pk)


def assert_stored_form(f: LaurentPoly):
    pk = f.ring.pk
    assert all(0 <= c < pk for c in f.coeffs)
    if f.coeffs:
        assert f.coeffs[0] and f.coeffs[-1]
        assert (f.low, f.high) == (min(f.terms), max(f.terms))
    else:
        assert f.is_zero() and dict(f.terms) == {}


@given(ring_and_dicts())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_dict_and_padded_list_give_the_same_polynomial(case):
    ring, d = case
    f = LaurentPoly(ring, d)
    assert_stored_form(f)
    assert dict(f.terms) == oracle(d, ring.pk)
    low = min(d, default=0)
    padded = [d.get(e, 0) for e in range(low, max(d, default=-1) + 1)]
    g = LaurentPoly.from_coeffs(ring, padded, low=low)
    assert f == g and hash(f) == hash(g)


@given(ring_and_dicts())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_equal_polynomials_hash_equal_whatever_their_representatives(case):
    ring, d = case
    pk = ring.pk
    other = {e: c + 3 * pk for e, c in d.items()}
    other.update({e: -pk for e in range(-9, 9) if e not in d})
    f, g = LaurentPoly(ring, d), LaurentPoly(ring, other)
    assert f == g and hash(f) == hash(g)


@given(ring_and_dicts())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_reduce_moves_the_ends_to_the_nonzero_terms_mod_p_j(case):
    ring, d = case
    f = LaurentPoly(ring, d)
    for j in range(1, ring.K + 1):
        reduced = f.reduce(j)
        assert_stored_form(reduced)
        assert reduced.ring.pk == ring.p**j
        assert dict(reduced.terms) == oracle(d, ring.p**j)


def test_reduce_that_zeros_an_end_moves_low_and_high():
    ring = Zp(3, 3)
    f = LaurentPoly(ring, {-2: 9, 0: 1, 3: 2, 5: 18})
    assert (f.low, f.high) == (-2, 5)
    assert (f.reduce(2).low, f.reduce(2).high) == (0, 3)
    assert f.reduce(2).coeffs == [1, 0, 0, 2]


@given(ring_and_dicts(count=2), st.integers(min_value=-5, max_value=5))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_arithmetic_agrees_with_the_dict_oracle(case, k):
    ring, a, b = case
    pk = ring.pk
    f, g = LaurentPoly(ring, a), LaurentPoly(ring, b)
    ra, rb = oracle(a, pk), oracle(b, pk)
    for result, expected in (
        (f + g, oracle_add(ra, rb, pk)),
        (f - g, oracle_add(ra, rb, pk, sign=-1)),
        (f * g, oracle_mul(ra, rb, pk)),
        (f.shift(k), {e + k: c for e, c in ra.items()}),
    ):
        assert_stored_form(result)
        assert dict(result.terms) == expected
    assert (f - f).is_zero()
    assert dict(f.terms) == ra  # no operand was changed


@given(ring_and_dicts(), st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_shift_sum_agrees_with_the_dict_oracle(case, c, d):
    ring, a = case
    expected = sum(v for e, v in oracle(a, ring.pk).items() if (e - c) % d == 0) % ring.pk
    f = LaurentPoly(ring, a)
    assert gm.shift_sum(f, c, d).lift() == expected
    assert gm.shift_sum(f, c, -d).lift() == expected


def test_terms_is_a_read_only_view():
    f = LaurentPoly(Zp(5, 2), {-1: 3, 2: 7})
    with pytest.raises(TypeError):
        f.terms[0] = 1
    assert dict(f.terms) == {-1: 3, 2: 7}


def test_zero_polynomial_form_and_messages():
    zero = LaurentPoly(Zp(3, 2), {4: 9, -3: 0})
    assert zero.coeffs == [] and zero.is_zero()
    with pytest.raises(ZeroPolynomial, match="^zero polynomial$"):
        zero.polynomial_part()
    with pytest.raises(ZeroPolynomial, match="has no degree"):
        zero.low


def test_unit_polynomial_validates_every_constructor():
    ring = Zp(5, 2)
    assert UnitPolynomial.from_coeffs(ring, [1, 0, 2], low=-1).low == -1
    with pytest.raises(NotUnitary):
        UnitPolynomial.from_coeffs(ring, [5, 1])
    with pytest.raises(NotUnitary):
        UnitPolynomial(ring, {0: 1, 3: 10})
