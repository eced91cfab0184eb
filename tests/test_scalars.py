"""Scalar arithmetic: valuations, Teichmuller lifts, Frobenius, unit splitting."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicu import scalars
from padicu.arith import teichmuller_exponent, unipotent_depth
from padicu.errors import InputError, InvalidPrime, NotAUnit, PrecisionMismatch
from padicu.matrices import PadicMatrix
from padicu.quantum import WaveFunction
from padicu.scalars import (
    ONE_MINUS,
    UnramRing,
    Zp,
    frobenius,
    reduce_precision,
    teichmuller_lift,
    unit_decompose,
    unit_inverse,
    valuation,
)


def test_valuation_examples():
    assert valuation(Zp(3, 4).scalar(18)) == 2
    assert valuation(Zp(5, 3).scalar(1)) == 0
    assert valuation(Zp(3, 4).scalar(0)) == 4


def test_prime_validation():
    with pytest.raises(InvalidPrime):
        Zp(2, 3)
    with pytest.raises(InvalidPrime):
        Zp(9, 2)
    Zp(11, 2)  # any odd prime works for the base ring


def test_interop_requires_matching_ring():
    a = Zp(3, 4).scalar(5)
    b = Zp(3, 3).scalar(5)
    with pytest.raises(PrecisionMismatch):
        a + b
    with pytest.raises(PrecisionMismatch):
        Zp(5, 4).scalar(1) * a


def test_teichmuller_worked_values():
    assert teichmuller_lift(Zp(5, 2), 2).lift() == 7
    assert teichmuller_lift(Zp(7, 2), 3).lift() == 31
    assert teichmuller_lift(Zp(3, 6), 1).lift() == 1


def test_teichmuller_rejects_zero():
    with pytest.raises(NotAUnit):
        teichmuller_lift(Zp(3, 2), 0)
    with pytest.raises(NotAUnit):
        teichmuller_lift(UnramRing(3, 2, 2), (0, 0))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_teichmuller_multiplicative(p):
    ring = Zp(p, 4)
    for r in range(1, p):
        for s in range(1, p):
            lhs = teichmuller_lift(ring, (r * s) % p)
            rhs = teichmuller_lift(ring, r) * teichmuller_lift(ring, s)
            assert lhs == rhs


def test_unit_inverse_examples():
    assert unit_inverse(Zp(5, 2).scalar(7)).lift() == 18
    assert unit_inverse(Zp(5, 2).scalar(1)).lift() == 1
    with pytest.raises(NotAUnit):
        unit_inverse(Zp(5, 2).scalar(5))


def test_reduce_precision_examples():
    x = Zp(3, 4).scalar(18)
    assert reduce_precision(x, 2).lift() == 0
    assert reduce_precision(x, 4) == x
    assert reduce_precision(x, ONE_MINUS).ring.K == 1
    with pytest.raises(ValueError):
        reduce_precision(x, 5)
    with pytest.raises(ValueError):
        reduce_precision(x, 0)


@given(st.integers(min_value=0, max_value=3**4 - 1), st.integers(min_value=0, max_value=3**4 - 1))
@settings(max_examples=80, derandomize=True)
def test_reduce_is_ring_hom(a, b):
    ring = Zp(3, 4)
    x, y = ring.scalar(a), ring.scalar(b)
    for j in (1, 2, 3):
        assert reduce_precision(x * y, j) == reduce_precision(x, j) * reduce_precision(y, j)
        assert reduce_precision(x + y, j) == reduce_precision(x, j) + reduce_precision(y, j)


@given(st.integers(min_value=0, max_value=5**3 - 1), st.integers(min_value=0, max_value=5**3 - 1))
@settings(max_examples=80, derandomize=True)
def test_ultrametric_law(a, b):
    ring = Zp(5, 3)
    x, y = ring.scalar(a), ring.scalar(b)
    va, vb, vs = valuation(x), valuation(y), valuation(x + y)
    assert vs >= min(va, vb)
    if va != vb:
        assert vs == min(va, vb)


@pytest.mark.parametrize("p,K", [(3, 3), (3, 4), (5, 3), (5, 4)])
def test_sigma_factorial_trichotomy_exhaustive(p, K):
    """x^(p^(n!)) stabilizes; the limit is 1 iff x = 1 mod p and x iff x is Teichmuller."""
    ring = Zp(p, K)
    pk = p**K
    for raw in range(1, pk):
        if raw % p == 0:
            continue
        x = ring.scalar(raw)
        # independent oracle: literal factorial powers until two agree
        seq = [pow(raw, p ** math.factorial(n), pk) for n in range(1, 9)]
        assert seq[-1] == seq[-2], "factorial powers failed to stabilize"
        limit = seq[-1]
        assert scalars.sigma_factorial_limit(x).lift() == limit
        assert (limit == 1) == (raw % p == 1)
        is_teich = ring.rteichmuller(raw) == raw
        assert (limit == raw) == is_teich


@pytest.mark.parametrize("p,K", [(3, 4), (5, 3), (7, 2)])
def test_unit_decomposition_splits(p, K):
    ring = Zp(p, K)
    for raw in range(1, min(p**K, 400)):
        if raw % p == 0:
            continue
        b1, t = unit_decompose(ring.scalar(raw))
        assert b1 * t == ring.scalar(raw)
        assert b1.lift() % p == 1
        assert ring.rteichmuller(t.lift()) == t.lift()


@pytest.mark.parametrize("p", [3, 5])
def test_unram_unit_decompose_is_factorial_limit(p):
    """Over UnramRing(p, 2, 2): the Teichmuller part is the limit of x^(p^(k!))."""
    ring = UnramRing(p, 2, 2)
    for a in range(ring.pk):
        for b in range(ring.pk):
            raw = (a, b)
            if not ring.runit(raw):
                continue
            # independent oracle: the order of x by listing its powers
            powers = [ring.one]
            while (nxt := ring.rmul(powers[-1], raw)) != ring.one:
                powers.append(nxt)
            seq = [powers[pow(p, math.factorial(k), len(powers))] for k in range(1, 9)]
            assert seq[-1] == seq[-2] == seq[-3], "factorial powers failed to stabilize"
            x = ring.scalar(raw)
            b1, t = unit_decompose(x)
            assert t.raw == seq[-1]
            assert scalars.sigma_factorial_limit(x) == t
            assert b1 * t == x
            assert ring.rresidue(b1.raw) == (1, 0)


@pytest.mark.parametrize("q,p,K,n", [(3, 3, 1, 1), (3, 3, 4, 1), (9, 3, 2, 2), (5, 5, 3, 4), (125, 5, 2, 3), (7, 7, 30, 8)])
def test_teichmuller_exponent_residues(q, p, K, n):
    alpha, E = teichmuller_exponent(q, p, K, n, range(1, n + 1))
    M = math.lcm(*(q**d - 1 for d in range(1, n + 1)))
    pa = p ** (K - 1 + unipotent_depth(n, p))
    assert E == M * pa
    assert 0 <= alpha < E and alpha % M == 1 % M and alpha % pa == 0


def test_unram_frobenius_is_ring_endomorphism():
    ring = UnramRing(3, 3, 2)
    a = ring.scalar((5, 7))
    b = ring.scalar((2, 11))
    assert frobenius(a * b) == frobenius(a) * frobenius(b)
    assert frobenius(a + b) == frobenius(a) + frobenius(b)
    base = ring.scalar(14)
    assert frobenius(base) == base


def test_unram_frobenius_orbit_closure():
    ring = UnramRing(3, 2, 2)
    gen = teichmuller_lift(ring, (0, 1))
    image = frobenius(gen)
    # orbit closure: applying m times returns the element
    assert frobenius(image) == gen
    # on Teichmuller elements the Frobenius is literally x -> x^p
    assert image == gen**3
    # and it matches the lift of the cubed residue
    assert image == teichmuller_lift(ring, ring.rresidue((gen**3).raw))


def _rfrob_by_images(ring, a):
    """The former `UnramRing.rfrob`: sum a_i X^(ip), accumulated image by image."""
    xp = ring.rpow(ring.generator, ring.p)
    images = [ring.one]
    for _ in range(1, ring.m):
        images.append(ring.rmul(images[-1], xp))
    acc = ring.zero
    for coeff, image in zip(a, images):
        if coeff:
            acc = ring.radd(acc, tuple((coeff * x) % ring.pk for x in image))
    return acc


@pytest.mark.parametrize("K", [1, 20])
@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_rfrob_is_the_frobenius_automorphism(m, p, K):
    ring = scalars.unram(p, K, m)
    rng = random.Random(f"{m},{p},{K}")
    X = ring.generator
    assert ring.rfrob(X) == ring.rpow(X, p)
    for _ in range(12):
        a = tuple(rng.randrange(ring.pk) for _ in range(m))
        b = tuple(rng.randrange(ring.pk) for _ in range(m))
        assert ring.rfrob(a) == _rfrob_by_images(ring, a)
        assert ring.rfrob(ring.rmul(a, b)) == ring.rmul(ring.rfrob(a), ring.rfrob(b))
        image = a
        for _ in range(m):
            image = ring.rfrob(image)
        assert image == a


@pytest.mark.parametrize("K", [1, 20])
@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_rtrace_is_the_sum_of_the_frobenius_images(m, p, K):
    """Tr(a) = sum_t sigma^t(a): that sum has Tr(a) in coordinate 0 and 0 elsewhere,
    with sigma^t taken as a -> a^(p^t) on the Teichmuller generator's powers."""
    ring = UnramRing(p, K, m)
    rng = random.Random(f"trace {m},{p},{K}")
    xp = ring.rpow(ring.generator, p)  # sigma(X), independent of rfrob
    assert ring.rtrace(ring.one) == m % ring.pk
    for _ in range(8):
        a = tuple(rng.randrange(ring.pk) for _ in range(m))
        b = tuple(rng.randrange(ring.pk) for _ in range(m))
        c = rng.randrange(ring.pk)
        total, sigma_x = ring.zero, ring.generator
        for _ in range(m):
            image, power = ring.zero, ring.one  # sum_k a_k sigma^t(X)^k
            for coeff in a:
                image = ring.radd(image, ring.rmul(ring.rfrom_int(coeff), power))
                power = ring.rmul(power, sigma_x)
            total = ring.radd(total, image)
            sigma_x = ring.rpow(sigma_x, p)
        assert total == ring.rfrom_int(ring.rtrace(a))
        combined = ring.radd(a, ring.rmul(ring.rfrom_int(c), b))
        assert ring.rtrace(combined) == (ring.rtrace(a) + c * ring.rtrace(b)) % ring.pk
    assert Zp(p, K).rtrace(7 % ring.pk) == 7 % ring.pk


def test_unram_valuation_and_inverse():
    ring = UnramRing(5, 3, 2)
    x = ring.scalar((10, 25))
    assert valuation(x) == 1
    u = ring.scalar((3, 5))
    assert u * u.inverse() == ring.scalar(1)
    with pytest.raises(NotAUnit):
        ring.scalar((5, 10)).inverse()


def _product_mod_modulus(ring, a, b):
    """a b in Z/p^K[X]/(f), schoolbook: the product, then each X^i, i >= m, folded
    by X^m = -(f_0 + ... + f_(m-1) X^(m-1))."""
    m, f, pk = ring.m, ring.modulus, ring.pk
    product = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    for i in range(2 * m - 2, m - 1, -1):
        for j in range(m):
            product[i - m + j] -= product[i] * f[j]
    return tuple(c % pk for c in product[:m])


@pytest.mark.parametrize("p, K, m", [(3, 1, 2), (3, 2, 2), (5, 1, 3), (7, 1, 2)])
def test_rinv_on_every_element_of_small_rings(p, K, m):
    """a rinv(a) = 1 for every unit; every non-unit raises NotAUnit."""
    ring = scalars.unram(p, K, m)
    units = 0
    for a in itertools.product(range(ring.pk), repeat=m):
        if any(c % p for c in a):
            assert _product_mod_modulus(ring, a, ring.rinv(a)) == ring.one
            units += 1
        else:
            with pytest.raises(NotAUnit):
                ring.rinv(a)
    assert units == p ** (K * m) - p ** ((K - 1) * m)


@pytest.mark.parametrize("p, K", [(5, 20), (7, 30)])
def test_rinv_on_seeded_units_of_degree_four(p, K):
    ring = scalars.unram(p, K, 4)
    rng = random.Random(f"rinv {p},{K}")
    tested = 0
    for _ in range(40):
        a = [rng.randrange(ring.pk) for _ in range(4)]
        a[0] -= a[0] % p * rng.randrange(2)  # about half with p | a_0
        if any(c % p for c in a):
            assert _product_mod_modulus(ring, a, ring.rinv(tuple(a))) == ring.one
            tested += 1
    assert tested >= 36
    with pytest.raises(NotAUnit):
        ring.rinv(tuple(p * rng.randrange(ring.pk // p) for _ in range(4)))


def test_unram_teichmuller_fixed_point():
    ring = UnramRing(3, 4, 3)
    t = teichmuller_lift(ring, (1, 2, 1))
    assert t ** (3**3) == t
    assert ring.rresidue(t.raw) == (1, 2, 1)


def test_scalar_repr_round_trip_values():
    x = Zp(3, 4).scalar(-1)
    assert x.lift() == 3**4 - 1
    assert (x * x).lift() == 1


def _fixed_point_teichmuller(ring, a):
    """Oracle: iterate x -> x^q (q = p^m) until it stops moving."""
    q = ring.residue_cardinality
    x = a
    while (nxt := ring.rpow(x, q)) != x:
        x = nxt
    return x


def _all_raw_values(ring):
    if isinstance(ring, Zp):
        return list(range(ring.pk))
    return [(a, b) for a in range(ring.pk) for b in range(ring.pk)]


@pytest.mark.parametrize("ring", [Zp(3, 3), Zp(5, 2), UnramRing(3, 2, 2)], ids=repr)
def test_rteichmuller_matches_fixed_point_iteration(ring):
    """Every element, non-units included (they go to 0), against the deleted loop."""
    for raw in _all_raw_values(ring):
        assert ring.rteichmuller(raw) == _fixed_point_teichmuller(ring, raw)


_BASE = Zp(3, 2).scalar(5)
_EXT_RING = UnramRing(3, 2, 2)
_EXT = _EXT_RING.scalar((2, 1))
_EMBEDDED = _EXT_RING.scalar(_BASE)

# (label, thunk, expected): a (ring, raw) pair, a bool, or an exception class
OPERAND_CASES = [
    ("base+ext", lambda: _BASE + _EXT, (_EXT_RING, (7, 1))),
    ("ext+base", lambda: _EXT + _BASE, (_EXT_RING, (7, 1))),
    ("base-ext", lambda: _BASE - _EXT, (_EXT_RING, (3, 8))),
    ("ext-base", lambda: _EXT - _BASE, (_EXT_RING, (6, 1))),
    ("base*ext", lambda: _BASE * _EXT, (_EXT_RING, (1, 5))),
    ("ext*base", lambda: _EXT * _BASE, (_EXT_RING, (1, 5))),
    ("base==embedded", lambda: _BASE == _EMBEDDED, True),
    ("embedded==base", lambda: _EMBEDDED == _BASE, True),
    ("base==ext", lambda: _BASE == _EXT, False),
    ("ext==base", lambda: _EXT == _BASE, False),
    ("hash-base-embedded", lambda: hash(_BASE) == hash(_EMBEDDED), True),
    ("int+ext", lambda: 4 + _EXT, (_EXT_RING, (6, 1))),
    ("ext+int", lambda: _EXT + 4, (_EXT_RING, (6, 1))),
    ("int-ext", lambda: 4 - _EXT, (_EXT_RING, (2, 8))),
    ("ext-int", lambda: _EXT - 4, (_EXT_RING, (7, 1))),
    ("int*ext", lambda: 3 * _EXT, (_EXT_RING, (6, 3))),
    ("int-base", lambda: 4 - _BASE, (Zp(3, 2), 8)),
    ("base*int", lambda: _BASE * 2, (Zp(3, 2), 1)),
    ("int==embedded", lambda: 5 == _EMBEDDED, True),
    ("embedded==int", lambda: _EMBEDDED == 14, True),
    ("ext==int", lambda: _EXT == 2, False),
    ("K-mismatch+ext", lambda: Zp(3, 3).scalar(5) + _EXT, PrecisionMismatch),
    ("ext+K-mismatch", lambda: _EXT + Zp(3, 3).scalar(5), PrecisionMismatch),
    ("p-mismatch*ext", lambda: Zp(5, 2).scalar(5) * _EXT, PrecisionMismatch),
    ("ext-p-mismatch", lambda: _EXT - Zp(5, 2).scalar(5), PrecisionMismatch),
    ("degree-mismatch", lambda: _EXT + UnramRing(3, 2, 3).scalar(1), PrecisionMismatch),
    ("base+K-mismatch", lambda: _BASE + Zp(3, 3).scalar(5), PrecisionMismatch),
    ("mismatch==", lambda: Zp(3, 3).scalar(5) == _EXT, False),
    ("==mismatch", lambda: _EXT == Zp(5, 2).scalar(2), False),
    ("Zp.scalar(ext)", lambda: Zp(3, 2).scalar(_EXT), PrecisionMismatch),
    ("base+float", lambda: _BASE + 1.5, TypeError),
    ("float+base", lambda: 1.5 + _BASE, TypeError),
    ("ext*float", lambda: _EXT * 0.5, TypeError),
    ("float-ext", lambda: 0.5 - _EXT, TypeError),
]


@pytest.mark.parametrize("thunk,expected", [c[1:] for c in OPERAND_CASES], ids=[c[0] for c in OPERAND_CASES])
def test_operand_rule(thunk, expected):
    """A Z_p scalar is embedded into the extension over the same (p, K), in either order."""
    if isinstance(expected, type):
        with pytest.raises(expected):
            thunk()
        return
    result = thunk()
    if isinstance(expected, bool):
        assert result is expected
    else:
        assert (result.ring, result.raw) == expected


_NON_INTEGERS = [2.5, 2.0, Fraction(1, 2), Fraction(4, 1), "7", None]


@pytest.mark.parametrize("value", _NON_INTEGERS, ids=repr)
@pytest.mark.parametrize("ring", [Zp(3, 2), UnramRing(3, 2, 2)], ids=repr)
def test_a_non_integer_is_refused_not_truncated(ring, value):
    """Both handles read values through `operator.index`: a float, Fraction or str
    (even an integral one) is InputError wherever a value enters, never int(value)."""
    entries = [value] if isinstance(ring, Zp) else [value, (1, value)]
    for entry in entries:
        for build in (lambda: PadicMatrix(ring, [[entry]]), lambda: ring.scalar(entry),
                      lambda: WaveFunction(ring, [1, entry]), lambda: teichmuller_lift(ring, entry)):
            with pytest.raises(InputError):
                build()


@pytest.mark.parametrize("ring", [Zp(3, 2), UnramRing(3, 2, 2)], ids=repr)
def test_ints_and_bools_still_coerce(ring):
    assert ring.scalar(True) == ring.scalar(1) and ring.scalar(-1) == ring.scalar(8)
    assert PadicMatrix(ring, [[False, True], [True, 0]]) == PadicMatrix(ring, [[0, 1], [1, 0]])
    assert teichmuller_lift(ring, True) == ring.scalar(1)
    if isinstance(ring, UnramRing):
        assert ring.scalar([True, -1]) == ring.scalar((1, 8))


def test_a_ring_over_any_residue_keeps_it_at_every_precision():
    """UnramRing over the lift of t^3 + t^2 + 2t + 1 mod 3 (not the table's
    t^3 + 2t + 1): its name follows the modulus, reduction keeps the residue,
    and the Frobenius has order 3 with X^(p^3) = X."""
    ring = UnramRing(3, 6, 3, (1, 2, 1, 1))
    assert ring.modulus_id == "tl1-p3-1.2.1.1" and ring != UnramRing(3, 6, 3)
    low = ring.at_precision(2)
    assert low == UnramRing(3, 2, 3, (1, 2, 1, 1)) and low.modulus_id == ring.modulus_id
    assert low.modulus == tuple(c % 9 for c in ring.modulus)
    assert UnramRing(3, 6, 3).at_precision(2) == UnramRing(3, 2, 3)
    x = ring.generator
    images = [x]
    for _ in range(3):
        images.append(ring.rfrob(images[-1]))
    assert images[3] == x == ring.rpow(x, 27) and len(set(images[:3])) == 3
    assert UnramRing(3, 6, 3, scalars.moduli.residue_modulus(3, 3)).modulus_id == "cw1-p3-m3"
    with pytest.raises(InputError):
        UnramRing(3, 6, 2, (1, 2, 1, 1))  # a degree-3 residue for a degree-2 ring
