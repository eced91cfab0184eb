"""Residue-field polynomial arithmetic and factorization."""

import random

import pytest

from padicu import fppoly


def _horner(a, x, p):
    y = 0
    for c in reversed(a):
        y = (y * x + c) % p
    return y


def random_monic(rng, p, deg):
    return [rng.randrange(p) for _ in range(deg)] + [1]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factor_round_trip(p):
    rng = random.Random(p * 101)
    for _ in range(25):
        f = random_monic(rng, p, rng.randint(1, 8))
        lead, factors = fppoly.factor(f, p)
        product = [lead % p]
        for irr, mult in factors:
            assert fppoly.is_irreducible(irr, p)
            assert irr[-1] == 1
            for _ in range(mult):
                product = fppoly.mul(product, irr, p)
        assert product == fppoly.trim(list(f))


def test_factor_handles_repeated_and_inseparable_shapes():
    p = 3
    # (x + 1)^6: derivative-degenerate until the p-th root step kicks in
    f = [1]
    for _ in range(6):
        f = fppoly.mul(f, [1, 1], p)
    lead, factors = fppoly.factor(f, p)
    assert lead == 1
    assert factors == [([1, 1], 6)]
    # x^3 + 2 = (x + 2)^3 over F_3
    lead2, factors2 = fppoly.factor([2, 0, 0, 1], p)
    assert factors2 == [([2, 1], 3)]


def test_factor_is_canonical_across_seeds(monkeypatch):
    p = 5
    rng = random.Random(9)
    for _ in range(10):
        f = random_monic(rng, p, 6)
        monkeypatch.setattr(fppoly, "_SEED", 1)
        first = fppoly.factor(f, p)
        monkeypatch.setattr(fppoly, "_SEED", 999)
        assert fppoly.factor(f, p) == first


@pytest.mark.parametrize("p", [3, 5])
def test_irreducibility_matches_brute_force(p):
    # degree 2 and 3: irreducible iff no roots in F_p (degree <= 3 only)
    rng = random.Random(p)
    for _ in range(40):
        deg = rng.choice([2, 3])
        f = random_monic(rng, p, deg)
        has_root = any(_horner(f, x, p) == 0 for x in range(p))
        assert fppoly.is_irreducible(f, p) == (not has_root)


def _has_monic_divisor(f, p):
    """Trial division by every monic polynomial of degree 1 .. deg f // 2."""
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for index in range(p**d):
            b = [index // p**i % p for i in range(d)] + [1]
            r = list(f)
            for top in range(m, d - 1, -1):
                c = r[top]
                for i, v in enumerate(b):
                    r[top - d + i] = (r[top - d + i] - c * v) % p
            if not any(r[:d]):
                return True
    return False


@pytest.mark.parametrize("p,deg", [(3, 4), (3, 6), (5, 4)])
def test_irreducibility_at_composite_degrees_matches_trial_division(p, deg):
    """Degree 6 has two prime divisors, and 6 = 1 + 2 + 3 splits into factors of coprime degrees."""
    rng = random.Random(100 * p + deg)
    for _ in range(40):
        f = random_monic(rng, p, deg)
        assert fppoly.is_irreducible(f, p) == (not _has_monic_divisor(f, p))


def test_ext_gcd_identity():
    p = 7
    rng = random.Random(77)
    for _ in range(25):
        a = random_monic(rng, p, rng.randint(1, 5))
        b = random_monic(rng, p, rng.randint(1, 5))
        g, s, t = fppoly.ext_gcd(a, b, p)
        combo = fppoly.add(fppoly.mul(s, a, p), fppoly.mul(t, b, p), p)
        assert combo == g
        assert fppoly.divmod_poly(a, g, p)[1] == []
        assert fppoly.divmod_poly(b, g, p)[1] == []


@pytest.mark.parametrize("p,K", [(3, 1), (5, 2), (7, 30)])
def test_pow_mod_against_naive_over_prime_powers(p, K):
    """Packed squaring against repeated mul/divmod, for degrees 1..8 and non-monic f."""
    rng = random.Random(p * K)
    pk = p**K
    for d in range(1, 9):
        for lead in (1, 2):
            f = [rng.randrange(pk) for _ in range(d)] + [lead]
            for a in ([0, 1], fppoly.trim([rng.randrange(pk) for _ in range(d + 3)]), [pk - 1] * 3):
                naive = [1]
                for e in range(3 * d + 4):
                    assert fppoly.pow_mod(a, e, f, pk) == fppoly.divmod_poly(naive, f, pk)[1]
                    naive = fppoly.mul(naive, a, pk)
                e1, e2 = rng.getrandbits(100), rng.getrandbits(60)
                product = fppoly.mul(fppoly.pow_mod(a, e1, f, pk), fppoly.pow_mod(a, e2, f, pk), pk)
                assert fppoly.pow_mod(a, e1 + e2, f, pk) == fppoly.divmod_poly(product, f, pk)[1]


def test_pow_mod_against_naive():
    p = 5
    f = [2, 0, 1, 1]  # modulus
    a = [1, 3]
    naive = [1]
    for e in range(12):
        assert fppoly.pow_mod(a, e, f, p) == fppoly.divmod_poly(naive, f, p)[1]
        naive = fppoly.mul(naive, a, p)


def _schoolbook_divmod(a, b, m):
    """Reference long division: each quotient digit from the convolution a = q*b + r,
    top down, then r = a - q*b with exact integer products."""
    top = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - top)
    for k in reversed(range(len(q))):
        known = sum(q[k + i] * b[top - i] for i in range(1, min(top, len(q) - 1 - k) + 1))
        q[k] = (a[k + top] - known) * inv % m
    qb = [0] * (len(a) + len(b))
    for i, x in enumerate(q):
        for k, y in enumerate(b):
            qb[i + k] += x * y
    r = [(x - y) % m for x, y in zip(a + [0] * len(b), qb)]
    assert not any(r[top:]), "the reference left a remainder of degree >= deg b"
    while q and not q[-1]:
        q.pop()
    r = r[:top]
    while r and not r[-1]:
        r.pop()
    return q, r


@pytest.mark.parametrize("m", [5**10, 7**30], ids=["5^10", "7^30"])
def test_divmod_matches_schoolbook_reference(m):
    """Dividends of degree -1 (zero) to 20 over divisors of degree 0 to 20,
    monic and with a non-1 unit lead, deg a < deg b included."""
    p = 5 if m % 5 == 0 else 7
    rng = random.Random(m)
    for da in range(-1, 21):
        a = [rng.randrange(m) for _ in range(da)] + [rng.randrange(1, m)] if da >= 0 else []
        for db in range(21):
            for lead in (1, rng.randrange(2, p) + p * rng.randrange(m // p)):
                b = [rng.randrange(m) for _ in range(db)] + [lead]
                assert fppoly.divmod_poly(a, b, m) == _schoolbook_divmod(a, b, m)


def test_divmod_rejects_a_non_unit_lead_on_every_path():
    """The lead is inverted before anything else, also when deg a < deg b."""
    m = 5**10
    for a in ([], [3], [1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError):
            fppoly.divmod_poly(a, [1, 2, 5], m)
    with pytest.raises(ZeroDivisionError):
        fppoly.divmod_poly([1, 2], [], m)


def _naive_pow_mod(a, e, f, m):
    """a^e mod f by e products, each reduced by divmod."""
    power = fppoly.divmod_poly([1], f, m)[1]
    for _ in range(e):
        power = fppoly.divmod_poly(fppoly.mul(power, a, m), f, m)[1]
    return power


@pytest.mark.parametrize("p,K", [(3, 1), (5, 4), (7, 6)])
def test_pow_mod_all_one_bit_exponents_and_linear_moduli(p, K):
    """e = 2^k - 1 (a one-bit at every step, so t is shifted before each reduction),
    deg f = 1, and a unit lead other than 1, against naive mul/divmod."""
    rng = random.Random(p + K)
    m = p**K
    for d in (1, 2, 3, 5):
        for lead in (1, rng.randrange(2, p) + p * rng.randrange(m // p)):
            f = [rng.randrange(m) for _ in range(d)] + [lead]
            for a in ([0, 1], [rng.randrange(1, m), 1], [m - 1] * (d + 2)):
                for k in range(1, 8):
                    e = 2**k - 1
                    assert fppoly.pow_mod(a, e, f, m) == _naive_pow_mod(a, e, f, m), (d, a, e)


def test_pow_mod_keeps_its_contract():
    """e = 0 gives [1], a = 0 gives [], and a non-unit lead raises ValueError, also for a = 0."""
    m = 5**3
    f = [1, 2, 1]
    assert fppoly.pow_mod([2, 3], 0, f, m) == [1]
    assert fppoly.pow_mod([], 7, f, m) == []
    assert fppoly.pow_mod([m, 2 * m], 7, f, m) == []
    for a in ([], [0, 1], [3, 4, 1]):
        with pytest.raises(ValueError):
            fppoly.pow_mod(a, 5, [1, 2, 5], m)


def _sympy_degrees(f, p):
    sympy = pytest.importorskip("sympy")
    poly = sympy.Poly(f[::-1], sympy.symbols("t"), modulus=p)
    return {factor.degree() for factor, _ in poly.factor_list()[1]}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factor_degrees_match_sympy(p):
    """Random products of powers of random polynomials, so that repeated factors and
    p-th powers occur, and phi_2^2 phi_3, where the distinct-degree step alone reads {2, 5}."""
    rng = random.Random(p)
    cases = []
    for _ in range(40):
        f = [1]
        for _ in range(rng.randint(1, 3)):
            g = random_monic(rng, p, rng.randint(1, 4))
            for _ in range(rng.choice([1, 1, 2, 3, p])):
                f = fppoly.mul(f, g, p)
        cases.append(f)
    irreducible = {d: next(f for f in (random_monic(rng, p, d) for _ in range(1000))
                           if fppoly.is_irreducible(f, p)) for d in (2, 3)}
    phi2_sq_phi3 = fppoly.mul(fppoly.mul(irreducible[2], irreducible[2], p), irreducible[3], p)
    cases.append(phi2_sq_phi3)
    assert {d for _, d in fppoly._distinct_degree(phi2_sq_phi3, p)} == {2, 5}
    for f in cases:
        assert fppoly.factor_degrees(f, p) == _sympy_degrees(f, p), f
    assert fppoly.factor_degrees([2], p) == set()
    with pytest.raises(ValueError):
        fppoly.factor_degrees([p, 2 * p], p)


# -- packed arithmetic on F_p[X, T]/(h(X), f(T)), against a schoolbook of its own ---------


def _product_here(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _rem_here(a, g, p):
    """a mod the monic g over F_p, as deg g coefficients."""
    d = len(g) - 1
    a = list(a) + [0] * d
    for k in range(len(a) - 1, d - 1, -1):
        c = a[k] % p
        for i, v in enumerate(g):
            a[k - d + i] -= c * v
    return [v % p for v in a[:d]]


def _gcd_degree_here(a, b, p):
    """deg gcd(a, b) over F_p by Euclid's algorithm, for a nonzero b; gcd(0, b) = b."""
    def trimmed(c):
        c = [v % p for v in c]
        while c and not c[-1]:
            c.pop()
        return c

    a, b = trimmed(a), trimmed(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c, shift = a[-1] * inv, len(a) - len(b)
            for i, v in enumerate(b):
                a[shift + i] -= c * v
            a = trimmed(a)
        a, b = b, a
    return len(a) - 1


def _irreducible_here(p, d, rng):
    """A seeded monic irreducible of degree d over F_p, by Ben-Or's test:
    gcd(x^(p^k) - x, f) = 1 for every k <= d / 2."""
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        x = y = _rem_here([0, 1], f, p)
        for _ in range(d // 2):
            power, base, e = _rem_here([1], f, p), y, p  # y^p, right to left
            while e:
                if e & 1:
                    power = _rem_here(_product_here(power, base), f, p)
                base, e = _rem_here(_product_here(base, base), f, p), e >> 1
            y = power
            if _gcd_degree_here([u - v for u, v in zip(y, x)], f, p) > 0:
                break
        else:
            return f


def _bivariate_product_here(a, b, h, f, p):
    """a b in F_p[X, T]/(h, f), elements as deg f rows of deg h X coefficients."""
    dt = len(f) - 1
    rows = [[0] * (2 * len(h) - 3) for _ in range(2 * dt - 1)]
    for j, ra in enumerate(a):
        for k, rb in enumerate(b):
            for i, v in enumerate(_product_here(ra, rb)):
                rows[j + k][i] += v
    rows = [_rem_here(r, h, p) for r in rows]
    for j in range(2 * dt - 2, dt - 1, -1):  # T^j = T^(j - dt) (T^dt - f(T))
        for k in range(dt):
            rows[j - dt + k] = [(u - v * f[k]) % p for u, v in zip(rows[j - dt + k], rows[j])]
    return rows[:dt]


def _bivariate_power_here(x, e, h, f, p):
    dx, dt = len(h) - 1, len(f) - 1
    power = [[1] + [0] * (dx - 1)] + [[0] * dx for _ in range(dt - 1)]
    while e:
        if e & 1:
            power = _bivariate_product_here(power, x, h, f, p)
        x, e = _bivariate_product_here(x, x, h, f, p), e >> 1
    while power and not any(power[-1]):
        power.pop()
    return [tuple(r) for r in power]


BIVARIATE_DEGREES = [(d, d) for d in range(2, 9)] + [(1, 3), (3, 1), (2, 5), (5, 2)]


@pytest.mark.parametrize("p,degrees", [(p, BIVARIATE_DEGREES) for p in (3, 5, 7, 11, 13)]
                         + [(1000003, [(2, 2)])], ids=["p3", "p5", "p7", "p11", "p13", "p1000003"])
def test_bivariate_fold_context_matches_the_schoolbook(p, degrees):
    """Seeded irreducible h and f; all-(p-1) elements, whose products reach the slot
    bound deg h deg f (p-1)^2, a random element and T + a, at e = 1, 2 and random e."""
    rng = random.Random(p)
    for dx, dt in degrees:
        h, f = _irreducible_here(p, dx, rng), _irreducible_here(p, dt, rng)
        pack, unpack, power = fppoly._bivariate_fold_context(h, f, p)
        full = [[p - 1] * dx for _ in range(dt)]
        shifted_t = [[rng.randrange(p) for _ in range(dx)], [1] + [0] * (dx - 1)][:dt]
        some = [[rng.randrange(p) for _ in range(dx)] for _ in range(dt)]
        for x in (full, shifted_t, some):
            for e in (1, 2, rng.randrange(3, 1 << 10)):
                assert unpack(power(pack(x), e)) == _bivariate_power_here(x, e, h, f, p), (dx, dt, e)
