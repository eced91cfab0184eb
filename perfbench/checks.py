"""Output checks: each compares one padicu result with the oracle.

Inputs and outputs arrive as plain ints (matrix rows, ascending polynomial
coefficients), so the same check serves a result taken in process and one
decoded from the CLI's JSON.  A failed check raises `CheckError`.
"""

from __future__ import annotations

from oracle import (
    det_bareiss,
    factor_shape,
    identity,
    mat_add,
    mat_mul,
    mat_pow,
    mat_vec,
    poly_add,
    poly_eval_matrix,
    poly_mul,
    poly_rem,
    reduce,
    smith_valuations,
    sylvester,
    trace,
    trim,
)


class CheckError(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def rows(M) -> list[list[int]]:
    return [list(r) for r in M]


def classify(U, pk: int, kind: str, witness, W) -> None:
    """W = U^alpha from the oracle; the class follows from comparing it with U and I."""
    require(rows(witness) == W, "classify: witness differs from U^alpha")
    expected = ("TEICHMULLER" if W == rows(U) else
                "CONTINUOUS" if W == identity(len(W)) else "PROFINITE_MIXED")
    require(kind == expected, f"classify: {kind}, expected {expected}")


def jordan(U, pk: int, u_s, u_n, W) -> None:
    u_s, u_n = rows(u_s), rows(u_n)
    require(mat_mul(u_s, u_n, pk) == rows(U), "jordan: U_s U_n != U")
    require(u_s == W, "jordan: U_s differs from U^alpha")
    require(mat_mul(u_n, u_s, pk) == rows(U), "jordan: parts do not commute")


def power_zp(C, pk: int, t: int, out) -> None:
    require(rows(out) == mat_pow(C, t, pk), "power_zp: differs from C^t")


def spectral(U, pk: int, projectors, shape_of_orbits, shape, unipotent, W) -> None:
    """Orbit projectors split the identity, commute with U and have rank d*e.

    `projectors` are the Galois-fixed orbit sums over Z/p^K,
    `shape_of_orbits` the (degree, multiplicity) the library reports for
    them, and `shape` the oracle's factorization shape of U mod p.
    """
    U = rows(U)
    n = len(U)
    zero = [[0] * n for _ in range(n)]
    total = zero
    Ps = [rows(P) for P in projectors]
    for i, (P, (d, e)) in enumerate(zip(Ps, shape_of_orbits)):
        require(mat_mul(P, P, pk) == P, "spectral: orbit projector is not idempotent")
        require(mat_mul(P, U, pk) == mat_mul(U, P, pk), "spectral: projector does not commute with U")
        require(trace(P, pk) == d * e % pk, "spectral: projector trace != degree * multiplicity")
        for Q in Ps[i + 1:]:
            require(mat_mul(P, Q, pk) == zero and mat_mul(Q, P, pk) == zero,
                    "spectral: projectors of two orbits are not orthogonal")
        total = mat_add(total, P, pk)
    require(total == identity(n), "spectral: projectors do not sum to I")
    require(sorted(shape_of_orbits) == shape, "spectral: orbits differ from the residue factorization")
    require(mat_mul(W, rows(unipotent), pk) == U, "spectral: U_s times the unipotent part != U")


def orthogonality(f, g, p: int, j: int, orthogonal: bool, res: int, k, l) -> None:
    pj = p**j
    own = det_bareiss(sylvester(f, g)) % pj
    require(res == own, "orthogonality_test: resultant differs from the Sylvester determinant")
    require(orthogonal == (own % p != 0), "orthogonality_test: wrong verdict")
    if orthogonal:
        combo = poly_add(poly_mul(k, f, pj), poly_mul(l, g, pj), pj)
        require(combo == trim([own]), "orthogonality_test: k f + l g != res")


def bezout(f, g, p: int, j: int, modulus, p1, p2) -> None:
    pj = p**j
    fg = poly_mul(f, g, pj)
    require(trim(modulus) == fg, "bezout_idempotents: modulus != f g")
    require(poly_add(p1, p2, pj) == [1], "bezout_idempotents: P1 + P2 != 1")
    require(poly_rem(poly_mul(p1, p1, pj), fg, pj) == poly_rem(p1, fg, pj),
            "bezout_idempotents: P1^2 != P1")
    require(poly_rem(poly_mul(p1, p2, pj), fg, pj) == [], "bezout_idempotents: P1 P2 != 0")


def teich_factor(f, p: int, j: int, unit: int, shift: int, factors) -> None:
    """`factors` are (residue label, lifted factor) pairs."""
    pj = p**j
    product = [unit % pj]
    for _, coeffs in factors:
        product = poly_mul(product, coeffs, pj)
    require([0] * shift + product == trim([c % pj for c in f]), "teich_factor: product != f")
    got = sorted((len(lab) - 1, (len(c) - 1) // (len(lab) - 1)) for lab, c in factors)
    require(got == factor_shape(f, p), "teich_factor: groups differ from the residue factorization")


def spectrum_table(n: int, levels, table_rows, shape) -> None:
    """`table_rows` are (j, orbit label, dimension); each level must sum to n."""
    want = sorted((d, d * e) for d, e in shape)
    for j in levels:
        at = [(len(lab) - 1, dim) for jj, lab, dim in table_rows if jj == j]
        require(sum(dim for _, dim in at) == n, f"spectrum_table: dimensions at p^{j} do not sum to n")
        require(sorted(at) == want, f"spectrum_table: components at p^{j} differ from the factorization")


def projection(U, f, p: int, j: int, basis, dimension: int, divisors) -> None:
    """The divisors are the Smith form of f(U) mod p^j; the basis spans its whole kernel.

    Over Z/p^j a matrix with elementary divisors p^d_i has a kernel of
    order p^(sum d_i), and the columns of a matrix M span a subgroup of
    order p^(sum (j - s_i)) over M's own elementary divisors p^s_i.
    """
    pj = p**j
    B = poly_eval_matrix(f, reduce(U, pj), pj)
    own = smith_valuations(B, p, j)
    require(sorted(divisors) == own, "projection_functors: divisors differ from the Smith form of f(U)")
    require(dimension == sum(1 for d in own if d > 0) == len(basis),
            "projection_functors: kernel dimension differs from the count of positive divisors")
    for v in basis:
        require(not any(mat_vec(B, v, pj)), "projection_functors: basis vector not in the kernel")
    columns = [list(col) for col in zip(*basis)]
    spanned = sum(j - s for s in smith_valuations(columns, p, j)) if basis else 0
    require(spanned == sum(own), "projection_functors: the basis does not span the kernel")
