"""Dense polynomial arithmetic modulo an integer, and factorization over F_p.

Polynomials are dense ascending coefficient lists with no trailing zeros;
[] is the zero polynomial.  The arithmetic helpers (add, sub, mul, scale,
divmod_poly, pow_mod) work modulo any integer p, such as a prime power p^j,
on coefficients in [0, p); division needs a divisor whose leading
coefficient is a unit modulo p.  `pow_mod` and `pow_t_chain`, which takes
t^(g c) for several c from one t^g, share one packed fold context
(`_fold_context`).  This is the one polynomial layer: what runs over a ring
handle's raw values is the synthetic division `unitary.divide_linear`.  No
root of a residue factor is ever searched for: a Frobenius orbit's ring is
presented by the factor's own Teichmuller lift (`moduli.teichmuller_modulus`).
Factorization over F_p: `parts` runs the squarefree and distinct-degree
steps, all the Jordan exponents need (`matrices._jordan` keeps the parts of
chi mod p on the matrix), and `split` takes parts to their irreducibles by
Cantor-Zassenhaus on the fixed seed `_SEED`, sorted, so they do not depend
on it; `factor` is the split of f's own parts.

The coefficients stay plain ints: these loops carry the resultant, Bezout
and Hensel work, and taking the ring operations from a ring handle made
them measurably slower.  `mul_columns`, multiplication on (Z/p)[t]/(a), is
eliminated by `gm.orthogonality_test` and gives `matrices.orbit_polynomial`
its Frobenius-orbit product.  `PadicMatrix.evaluate` gives f(U).
"""

from __future__ import annotations

import random

from .arith import factorize

_SEED = 1729  # the one seed of every randomized splitting


def trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def add(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % p
    return trim(out)


def sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return trim(out)


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return trim(out)


def scale(a: list[int], c: int, p: int) -> list[int]:
    return trim([(v * c) % p for v in a])


def divmod_poly(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q*b + r and deg r < deg b, for b with a unit lead.

    One pass over a copy of a, from the top: each quotient coefficient is
    reduced mod p as it is read off, and each remainder coefficient once, in
    the last step.  The lead's inverse is taken first, so a non-unit lead
    raises ValueError also when deg a < deg b and a itself is the remainder.
    """
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    inv_lead = pow(b[-1], -1, p)
    top = len(b) - 1
    if len(a) <= top:
        return [], trim([v % p for v in a])
    r = list(a)
    q = [0] * (len(r) - top)
    for d in reversed(range(1, len(q))):
        c = q[d] = r[d + top] * inv_lead % p
        for i, bv in enumerate(b, d):
            r[i] -= c * bv
    c = q[0] = r[top] * inv_lead % p
    del r[top:]
    for i in range(top):
        r[i] = (r[i] - c * b[i]) % p
    return trim(q), trim(r)


def monic(a: list[int], p: int) -> list[int]:
    if not a:
        return []
    return scale(a, pow(a[-1], -1, p), p)


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, divmod_poly(a, b, p)[1]
    return monic(a, p)


def ext_gcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """Return (g, s, t) with s*a + t*b = g and g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    c = pow(r0[-1], -1, p)
    return scale(r0, c, p), scale(s0, c, p), scale(t0, c, p)


def _top_powers(f: list[int], count: int, p: int) -> list[list[int]]:
    """[t^k mod f for d <= k < d + count], d = deg f >= 1, for f with a unit lead.

    Each is t times the one before: shifted up, with the t^d term folded back
    through t^d mod f, so only the lead is inverted.
    """
    d = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    fold = [(-c * inv_lead) % p for c in f[:-1]]  # t^d mod f
    image, out = fold, []
    for _ in range(count):
        out.append(image)
        top = image[-1]
        image = [top * fold[0] % p] + [(image[i - 1] + top * fold[i]) % p for i in range(1, d)]
    return out


def _fold_context(f: list[int], p: int):
    """(pack, unpack, power): packed arithmetic on residues mod f, for f with a unit lead.

    A residue mod f is packed into one int, d = deg f coefficients in base
    2^s (Kronecker substitution), so a square is one big-int product and a
    one-bit multiplies by the packed base; when the base is t the square is
    shifted before it is reduced, so that bit costs no second reduction.  A
    product's d high coefficients are reduced mod p and folded back through
    the packed t^d, ..., t^(2d-1) mod f, each t times the one before, built
    by shifting with one inverse of the lead; every sum stays below
    2d(p-1)^2 < 2^s, and each output coefficient takes one `% p`.
    `power(x, e)` is x^e for e >= 1 by left-to-right binary exponentiation.
    """
    d = len(f) - 1
    s = (2 * d * (p - 1) ** 2).bit_length()
    mask = (1 << s) - 1
    low_mask = (1 << (s * d)) - 1
    shifts = [s * i for i in range(d)]
    high = [s * i for i in range(d, 2 * d)]
    t = 1 << s  # t packed, when deg f >= 2

    def pack(c: list[int]) -> int:
        return sum(v << k for v, k in zip(c, shifts))

    def unpack(x: int) -> list[int]:
        return trim([(x >> k) & mask for k in shifts])

    folds = [pack(image) for image in _top_powers(f, d, p)]

    def reduce(y: int) -> int:
        low = y & low_mask
        for k, fold in zip(high, folds):
            c = ((y >> k) & mask) % p
            if c:
                low += c * fold
        out = 0
        for k in shifts:
            out |= ((low >> k) & mask) % p << k
        return out

    def power(x: int, e: int) -> int:
        if x == t:
            for bit in bin(e)[3:]:
                x = reduce(x * x << s if bit == "1" else x * x)
        else:
            base = x
            for bit in bin(e)[3:]:
                x = reduce(x * x)
                if bit == "1":
                    x = reduce(x * base)
        return x

    return pack, unpack, power


def pow_mod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e mod f for e >= 0, packed (`_fold_context`)."""
    if e == 0:
        return [1]
    b = divmod_poly(a, f, p)[1]  # a non-unit lead raises ValueError, also for a = 0
    if not b:
        return b
    pack, unpack, power = _fold_context(f, p)
    return unpack(power(pack(b), e))


def pow_t_chain(g: int, cofactors, f: list[int], p: int) -> list[list[int]]:
    """[t^(g c) mod f for c in cofactors], for g >= 1 and every c >= 0.

    y = t^g is taken once, by the shifted t-base squarings of `pow_mod`, and
    each y^c in the same fold context, y itself at c = 1: about bits(g) +
    sum of 1.5 bits(c) reductions, against sum of bits(g c) for the direct
    powers, so a lone cofactor of 1 costs exactly the direct power t^g.
    """
    t = divmod_poly([0, 1], f, p)[1]  # a non-unit lead raises ValueError
    if not t:
        return [[] if c else [1] for c in cofactors]
    pack, unpack, power = _fold_context(f, p)
    y = power(pack(t), g)
    return [unpack(y if c == 1 else power(y, c)) if c else [1] for c in cofactors]


def mul_columns(a: list[int], b: list[int], p: int) -> list[list[int]]:
    """Columns b t^i mod a, i < deg a: multiplication by b on (Z/p)[t]/(a).

    a has a unit lead.  Multiplying by t folds the top coefficient back
    through t^deg a mod a; Horner's rule with that step gives b mod a, and
    each further column is t times the one before.
    """
    d = len(a) - 1
    if not d:
        return []
    inv_lead = pow(a[-1], -1, p)
    fold = [-c * inv_lead % p for c in a[:-1]]  # t^d mod a

    def times_t(col):
        top = col[-1]
        return [(x + top * y) % p for x, y in zip([0, *col[:-1]], fold)]

    col = [0] * d
    for c in reversed(b):
        col = times_t(col)
        col[0] = (col[0] + c) % p
    columns = [col]
    for _ in range(d - 1):
        columns.append(times_t(columns[-1]))
    return columns


def derivative(a: list[int], p: int) -> list[int]:
    return trim([(i * a[i]) % p for i in range(1, len(a))])


def is_irreducible(f: list[int], p: int) -> bool:
    m = len(f) - 1
    if m <= 0:
        return False
    if m == 1:
        return True
    x_mod = divmod_poly([0, 1], f, p)[1]
    if pow_mod([0, 1], p**m, f, p) != x_mod:
        return False
    # Rabin's test: for each prime q | m, no factor of f has degree dividing m/q
    return all(
        gcd(sub(pow_mod([0, 1], p ** (m // q), f, p), x_mod, p), f, p) == [1] for q in factorize(m)
    )


def _squarefree_parts(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Squarefree decomposition of monic f: [(monic squarefree product, multiplicity)]."""
    out: list[tuple[list[int], int]] = []
    if len(f) <= 1:
        return out
    d = derivative(f, p)
    if not d:
        # f = g(x^p); in F_p the p-th root is coefficient decimation
        root = trim([f[i] for i in range(0, len(f), p)])
        return [(g, k * p) for g, k in _squarefree_parts(root, p)]
    c = gcd(f, d, p)
    w = divmod_poly(f, c, p)[0]
    i = 1
    while len(w) > 1:
        y = gcd(w, c, p)
        z = divmod_poly(w, y, p)[0]
        if len(z) > 1:
            out.append((monic(z, p), i))
        w = y
        c = divmod_poly(c, y, p)[0]
        i += 1
    if len(c) > 1:
        root = trim([c[j] for j in range(0, len(c), p)])
        out.extend((g, k * p) for g, k in _squarefree_parts(root, p))
    return out


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Split squarefree monic f into (product of same-degree irreducibles, degree)."""
    out = []
    h = [0, 1]
    d = 0
    rem = f
    while len(rem) - 1 >= 2 * (d + 1):
        d += 1
        h = pow_mod(h, p, rem, p)
        g = gcd(sub(h, [0, 1], p), rem, p)
        if len(g) > 1:
            rem = divmod_poly(rem, g, p)[0]
            out.append((g, d))
            h = divmod_poly(h, rem, p)[1]
    if len(rem) > 1:
        out.append((rem, len(rem) - 1))
    return out


def parts(f: list[int], p: int) -> list[tuple[list[int], int, int]]:
    """[(product, degree, multiplicity)] of nonzero f over F_p, f = lead * prod product^multiplicity.

    Each product is monic and squarefree, all the irreducible factors of one
    degree and multiplicity.  The squarefree step comes first: the
    distinct-degree step assumes a squarefree input and can miss a degree.
    """
    f = trim([c % p for c in f])
    if not f:
        raise ValueError("the zero polynomial has no parts")
    return [(g, d, k) for sqf, k in _squarefree_parts(monic(f, p), p) for g, d in _distinct_degree(sqf, p)]


def _equal_degree_split(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus split of squarefree f whose irreducible factors all have degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = trim([rng.randrange(p) for _ in range(n)])
        if len(a) <= 1:
            continue
        g = gcd(a, f, p)
        if len(g) <= 1:
            b = pow_mod(a, (p**d - 1) // 2, f, p)
            g = gcd(sub(b, [1], p), f, p)
            if not 1 < len(g) < len(f):
                continue
        out = []
        for piece in (g, divmod_poly(f, g, p)[0]):
            out.extend(_equal_degree_split(monic(piece, p), d, p, rng))
        return out


def split(triples: list[tuple[list[int], int, int]], p: int) -> list[tuple[list[int], int]]:
    """[(monic irreducible, multiplicity)] of `parts` output, sorted by (degree, coefficients)."""
    rng = random.Random(_SEED)
    merged: dict[tuple[int, ...], int] = {}
    for prod, d, mult in triples:
        for irr in map(tuple, _equal_degree_split(prod, d, p, rng)):
            merged[irr] = merged.get(irr, 0) + mult
    return [(list(g), k) for g, k in sorted(merged.items(), key=lambda it: (len(it[0]), it[0]))]


def factor(f: list[int], p: int) -> tuple[int, list[tuple[list[int], int]]]:
    """Factor f over F_p into (leading unit, the `split` of f's `parts`)."""
    f = trim(list(f))
    factors = split(parts(monic(f, p), p), p)  # ValueError for f = 0 or a lead divisible by p
    return f[-1], factors
