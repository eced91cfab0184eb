"""Integer arithmetic that the benchmark checks padicu's outputs against.

Nothing here imports padicu.  Matrices are lists of int rows reduced modulo
a given integer, polynomials are ascending coefficient lists, and each
routine follows the textbook definition (Gauss-Jordan inversion, Hessenberg
characteristic polynomial, Bareiss determinant, Smith form over Z/p^j
by least-valuation pivots, square-free and
distinct-degree factorization over F_p), so a fault in the library cannot
hide in a helper that its check shares with it.
"""

from __future__ import annotations

import math

# -- integers -------------------------------------------------------------------


def ceil_log(n: int, p: int) -> int:
    """Least a with p^a >= n."""
    a = 0
    while p**a < n:
        a += 1
    return a


def jordan_alpha(p: int, K: int, n: int) -> int:
    """alpha = 1 mod lcm_{k<=n}(p^k - 1) and alpha = 0 mod p^(K-1+ceil(log_p n)).

    For a unitary U over Z/p^K of size n, U^alpha is its Teichmuller part:
    the prime-to-p order of U divides the lcm, its p-power order divides
    the p-power modulus.
    """
    L = 1
    for k in range(1, n + 1):
        L = math.lcm(L, p**k - 1)
    pa = p ** (K - 1 + ceil_log(n, p))
    return pa * pow(pa, -1, L) % (L * pa)


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def valuation(x: int, p: int, cap: int) -> int:
    """v_p(x) for x mod p^cap, with v_p(0) = cap."""
    x %= p**cap
    if x == 0:
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# -- matrices mod an integer --------------------------------------------------------


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def reduce(A, mod: int) -> list[list[int]]:
    return [[v % mod for v in row] for row in A]


def mat_mul(A, B, mod: int) -> list[list[int]]:
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) % mod for col in cols] for row in A]


def mat_add(A, B, mod: int) -> list[list[int]]:
    return [[(a + b) % mod for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_vec(A, v, mod: int) -> list[int]:
    return [sum(a * x for a, x in zip(row, v)) % mod for row in A]


def mat_pow(A, e: int, mod: int) -> list[list[int]]:
    result = identity(len(A))
    base = reduce(A, mod)
    while e:
        if e & 1:
            result = mat_mul(result, base, mod)
        e >>= 1
        if e:
            base = mat_mul(base, base, mod)
    return result


def mat_inv(A, p: int, mod: int) -> list[list[int]]:
    """Gauss-Jordan inverse over Z/mod (mod a power of p), pivoting on units."""
    n = len(A)
    M = [[v % mod for v in row] + identity(n)[i] for i, row in enumerate(A)]
    for c in range(n):
        r = next((r for r in range(c, n) if M[r][c] % p), None)
        if r is None:
            raise ValueError("matrix is singular modulo p")
        M[c], M[r] = M[r], M[c]
        inv = pow(M[c][c], -1, mod)
        M[c] = [v * inv % mod for v in M[c]]
        for r2 in range(n):
            if r2 != c and M[r2][c]:
                f = M[r2][c]
                M[r2] = [(a - f * b) % mod for a, b in zip(M[r2], M[c])]
    return [row[n:] for row in M]


def trace(A, mod: int) -> int:
    return sum(A[i][i] for i in range(len(A))) % mod


def min_valuation(A, p: int, cap: int) -> int:
    return min((valuation(v, p, cap) for row in A for v in row), default=cap)


def smith_valuations(A, p: int, j: int) -> list[int]:
    """Ascending valuations of the elementary divisors of A over Z/p^j, capped at j.

    A may be rectangular.  Each step pivots on an entry of least valuation,
    which divides every other entry of the remaining block, and clears the
    pivot's column below it; the columns to its right need no clearing, as
    only the rows below carry on.
    """
    mod = p**j
    M = [[v % mod for v in row] for row in A]
    size = min(len(M), len(M[0])) if M else 0
    out = []
    for k in range(size):
        v, r, c = min((valuation(M[r][c], p, j), r, c)
                      for r in range(k, len(M)) for c in range(k, len(M[0])))
        if v == j:
            out += [j] * (size - k)  # the remaining block vanishes mod p^j
            break
        M[k], M[r] = M[r], M[k]
        for row in M:
            row[k], row[c] = row[c], row[k]
        inv = pow(M[k][k] // p**v, -1, mod)
        for r in range(k + 1, len(M)):
            factor = M[r][k] // p**v * inv % mod
            if factor:
                M[r] = [(a - factor * b) % mod for a, b in zip(M[r], M[k])]
        out.append(v)
    return sorted(out)


def char_poly_mod_p(A, p: int) -> list[int]:
    """Ascending det(xI - A) over F_p via reduction to Hessenberg form."""
    n = len(A)
    H = reduce(A, p)
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if H[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            H[i], H[m] = H[m], H[i]
            for row in H:
                row[i], row[m] = row[m], row[i]
        tinv = pow(H[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = H[i][m - 1] * tinv % p
            if u:
                H[i] = [(a - u * b) % p for a, b in zip(H[i], H[m])]
                for row in H:
                    row[m] = (row[m] + u * row[i]) % p
    # polys[k] = char poly of the leading k x k block
    polys = [[1]]
    for k in range(1, n + 1):
        nxt = poly_mul([-H[k - 1][k - 1] % p, 1], polys[k - 1], p)
        prod = 1
        for i in range(1, k):
            prod = prod * H[k - i][k - i - 1] % p
            term = poly_scale(polys[k - i - 1], prod * H[k - i - 1][k - 1], p)
            nxt = poly_sub(nxt, term, p)
        polys.append(nxt)
    return polys[n]


def det_bareiss(A) -> int:
    """Exact integer determinant by fraction-free elimination."""
    M = [list(row) for row in A]
    n = len(M)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            r = next((r for r in range(k + 1, n) if M[r][k]), None)
            if r is None:
                return 0
            M[k], M[r] = M[r], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def sylvester(f: list[int], g: list[int]) -> list[list[int]]:
    """Sylvester matrix of ascending f (degree m) and g (degree n).

    Its first n rows hold shifted copies of f's coefficients, highest
    degree first, and its last m rows those of g; its determinant is
    res(f, g).
    """
    m, n = len(f) - 1, len(g) - 1
    rows = []
    for i in range(n):
        rows.append([0] * i + f[::-1] + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + g[::-1] + [0] * (m - 1 - i))
    return rows


# -- polynomials mod an integer -------------------------------------------------------


def trim(a: list[int]) -> list[int]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_add(a, b, mod: int) -> list[int]:
    n = max(len(a), len(b))
    return trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % mod for i in range(n)])


def poly_sub(a, b, mod: int) -> list[int]:
    return poly_add(a, [-v for v in b], mod)


def poly_scale(a, c: int, mod: int) -> list[int]:
    return trim([v * c % mod for v in a])


def poly_mul(a, b, mod: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim([v % mod for v in out])


def poly_divmod(a, b, mod: int) -> tuple[list[int], list[int]]:
    """Division by b whose leading coefficient is a unit mod `mod`."""
    a, b = trim([v % mod for v in a]), trim([v % mod for v in b])
    inv = pow(b[-1], -1, mod)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] * inv % mod
        shift = len(a) - len(b)
        q[shift] = c
        for i, v in enumerate(b):
            a[shift + i] = (a[shift + i] - c * v) % mod
        a = trim(a)
    return trim(q), a


def poly_rem(a, b, mod: int) -> list[int]:
    return poly_divmod(a, b, mod)[1]


def poly_eval_matrix(coeffs, A, mod: int) -> list[list[int]]:
    """sum c_i A^i by Horner's rule."""
    n = len(A)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):
        acc = mat_add(mat_mul(acc, A, mod), [[c if i == j else 0 for j in range(n)] for i in range(n)], mod)
    return acc


# -- factorization over F_p ---------------------------------------------------------------


def poly_monic(a, p: int) -> list[int]:
    a = trim([v % p for v in a])
    return poly_scale(a, pow(a[-1], -1, p), p)


def poly_gcd(a, b, p: int) -> list[int]:
    a, b = trim([v % p for v in a]), trim([v % p for v in b])
    while b:
        a, b = b, poly_rem(a, b, p)
    return poly_monic(a, p) if a else []


def poly_powmod(a, e: int, f, p: int) -> list[int]:
    result, base = [1], poly_rem(a, f, p)
    while e:
        if e & 1:
            result = poly_rem(poly_mul(result, base, p), f, p)
        base = poly_rem(poly_mul(base, base, p), f, p)
        e >>= 1
    return result


def _derivative(a, p: int) -> list[int]:
    return trim([i * a[i] % p for i in range(1, len(a))])


def squarefree_parts(f, p: int) -> list[tuple[list[int], int]]:
    """Monic f over F_p as prod g_i^e_i with square-free, pairwise coprime g_i."""
    f = poly_monic(f, p)
    out = []
    c = poly_gcd(f, _derivative(f, p), p) or f
    w = poly_divmod(f, c, p)[0]
    i = 1
    while len(w) > 1:
        y = poly_gcd(w, c, p)
        fac = poly_divmod(w, y, p)[0]
        if len(fac) > 1:
            out.append((fac, i))
        w, c = y, poly_divmod(c, y, p)[0]
        i += 1
    if len(c) > 1:  # c is a polynomial in x^p
        root = [c[k] for k in range(0, len(c), p)]
        out.extend((g, e * p) for g, e in squarefree_parts(root, p))
    return out


def distinct_degrees(g, p: int) -> list[int]:
    """Degrees of the irreducible factors of a square-free monic g over F_p."""
    out, h, d = [], [0, 1], 1
    while len(g) - 1 >= 2 * d:
        h = poly_powmod(h, p, g, p)
        common = poly_gcd(g, poly_sub(h, [0, 1], p), p)
        if len(common) > 1:
            out.extend([d] * ((len(common) - 1) // d))
            g = poly_divmod(g, common, p)[0]
            h = poly_rem(h, g, p)
        d += 1
    if len(g) > 1:
        out.append(len(g) - 1)
    return out


def factor_shape(f, p: int) -> list[tuple[int, int]]:
    """Sorted (degree, multiplicity) of every irreducible factor of f over F_p."""
    return sorted(
        (d, e) for g, e in squarefree_parts(f, p) for d in distinct_degrees(g, p)
    )
