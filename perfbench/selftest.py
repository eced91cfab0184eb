"""Hand-worked cases for the oracle and the output checks.

    python3 perfbench/selftest.py

Every expected value below was worked out by hand; the script exits 1 on the
first case that disagrees.  It needs no padicu import.
"""

from __future__ import annotations

import sys

import checks
import corpus
from oracle import (
    char_poly_mod_p,
    det_bareiss,
    factor_shape,
    jordan_alpha,
    mat_inv,
    mat_pow,
    smith_valuations,
    sylvester,
)


def expect_failure(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckError:
        return True
    return False


def cases():
    # alpha = 1 mod lcm(2, 8) and 0 mod 3^(2-1+1): 9
    yield "jordan_alpha(3, 2, 2)", jordan_alpha(3, 2, 2) == 9
    # det(xI - [[1,2],[3,4]]) = x^2 - 5x - 2 = x^2 + 3 over F_5
    yield "char poly 2x2 mod 5", char_poly_mod_p([[1, 2], [3, 4]], 5) == [3, 0, 1]
    # companion matrix of x^3 + 2x + 1 over F_3 (last column -c_i)
    yield "char poly companion mod 3", char_poly_mod_p([[0, 0, 2], [1, 0, 1], [0, 1, 0]], 3) == [1, 2, 0, 1]
    # a zero first pivot forces a row swap: 0 + 24 + 1
    yield "bareiss 3x3 with swap", det_bareiss([[0, 2, 1], [1, 0, 3], [4, 1, 0]]) == 25
    yield "bareiss 2x2", det_bareiss([[2, 1], [7, 4]]) == 1
    # res(x - 2, x - 3) = g(2) = -1;  res(x^2 + 1, x - 1) = f(1) = 2
    yield "resultant linear", det_bareiss(sylvester([-2, 1], [-3, 1])) == -1
    yield "resultant quadratic", det_bareiss(sylvester([1, 0, 1], [-1, 1])) == 2
    # (x + 1)^2 (x^2 + 1) over F_3
    yield "shape (x+1)^2(x^2+1) mod 3", factor_shape([1, 2, 2, 2, 1], 3) == [(1, 2), (2, 1)]
    yield "shape x^3 - x mod 3", factor_shape([0, 2, 0, 1], 3) == [(1, 1), (1, 1), (1, 1)]
    # x^3 + 1 = (x + 1)^3 over F_3: its derivative vanishes
    yield "shape (x+1)^3 mod 3", factor_shape([1, 0, 0, 1], 3) == [(1, 3)]
    yield "shape x^5 - 1 mod 5", factor_shape([4, 0, 0, 0, 0, 1], 5) == [(1, 5)]
    yield "inverse mod 9", mat_inv([[1, 3], [0, 1]], 3, 9) == [[1, 6], [0, 1]]
    yield "power mod 25", mat_pow([[1, 1], [0, 1]], 5, 25) == [[1, 5], [0, 1]]
    # exp(3) = 1 + 3 + 9/2 + 27/6 + ... = 4 mod 9: every later term is 0 mod 9
    yield "exp series", corpus._exp_series([[1]], 3, 3, 2) == [[4]]
    yield "residue order of a swap", corpus._residue_order([[0, 1], [1, 0]], 3) == 2

    # classify: diag(-1, 1) has order 2 (Teichmuller); [[1,3],[0,1]] is 1 mod 3 (continuous)
    T, C = [[8, 0], [0, 1]], [[1, 3], [0, 1]]
    W_T, W_C = mat_pow(T, 9, 9), mat_pow(C, 9, 9)
    yield "classify teichmuller", W_T == T and not expect_failure(checks.classify, T, 9, "TEICHMULLER", T, W_T)
    yield "classify continuous", W_C == [[1, 0], [0, 1]] and not expect_failure(
        checks.classify, C, 9, "CONTINUOUS", W_C, W_C)
    yield "classify wrong kind", expect_failure(checks.classify, C, 9, "TEICHMULLER", W_C, W_C)
    yield "jordan", not expect_failure(checks.jordan, C, 9, [[1, 0], [0, 1]], C, W_C)
    yield "jordan wrong split", expect_failure(checks.jordan, C, 9, C, [[1, 0], [0, 1]], W_C)

    # f = x - 2, g = x - 3 over Z/5: res = -1 = 4, and (-1) f + 1 g = -1
    f, g = [3, 1], [2, 1]
    yield "orthogonality", not expect_failure(checks.orthogonality, f, g, 5, 1, True, 4, [4], [1])
    yield "orthogonality wrong res", expect_failure(checks.orthogonality, f, g, 5, 1, True, 1, [4], [1])
    # fg = x^2 + 1 mod 5; P1 = k f / res = x - 2, P2 = l g / res = 3 - x
    yield "bezout", not expect_failure(checks.bezout, f, g, 5, 1, [1, 0, 1], [3, 1], [3, 4])
    yield "bezout not idempotent", expect_failure(checks.bezout, f, g, 5, 1, [1, 0, 1], [2, 1], [4, 4])
    # (x - 1)(x - 2) = x^2 + 2x + 2 over Z/5
    facs = [([4, 1], [4, 1]), ([3, 1], [3, 1])]
    yield "teich_factor", not expect_failure(checks.teich_factor, [2, 2, 1], 5, 1, 1, 0, facs)
    yield "teich_factor wrong unit", expect_failure(checks.teich_factor, [2, 2, 1], 5, 1, 2, 0, facs)
    rows = [(1, [4, 1], 1), (1, [3, 1], 1)]
    yield "spectrum_table", not expect_failure(checks.spectrum_table, 2, (1,), rows, [(1, 1), (1, 1)])
    yield "spectrum_table short", expect_failure(checks.spectrum_table, 2, (1,), rows[:1], [(1, 1), (1, 1)])
    # projectors of diag(2, 1) over Z/3: e11 (orbit x - 2) and e22 (orbit x - 1)
    U = [[2, 0], [0, 1]]
    P = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    yield "spectral", not expect_failure(checks.spectral, U, 3, P, [(1, 1), (1, 1)], [(1, 1), (1, 1)],
                                         [[1, 0], [0, 1]], U)
    yield "spectral overlapping", expect_failure(checks.spectral, U, 3, [P[0], P[0]], [(1, 1), (1, 1)],
                                                 [(1, 1), (1, 1)], [[1, 0], [0, 1]], U)
    # t^2 - 1 at diag(2, 1) over Z/3 is zero: every vector is in the kernel
    yield "projection", not expect_failure(checks.projection, U, [2, 0, 1], 3, 1, [[1, 0], [0, 1]], 2, (1, 1))
    # 1 + t at diag(2, 1) is diag(0, 2) mod 3: e2 is not in its kernel
    yield "projection not kernel", expect_failure(checks.projection, U, [1, 1], 3, 1, [[0, 1]], 1, (1, 0))
    yield "projection", not expect_failure(checks.projection, U, [1, 1], 3, 1, [[1, 0]], 1, (0, 1))
    yield "projection empty kernel", expect_failure(checks.projection, U, [1, 1], 3, 1, [], 0, (0, 0))
    # t^2 - 1 at diag(2, 1) is 0 mod 3: e1 alone spans 3 of the 9 kernel vectors
    yield "projection short basis", expect_failure(checks.projection, U, [2, 0, 1], 3, 1, [[1, 0]], 2, (1, 1))
    # [[2, 4], [1, 2]] mod 9: row 2 minus 5 x row 1 is 0, so divisors 1 and 9
    yield "smith 2x2 mod 9", smith_valuations([[2, 4], [1, 2]], 3, 2) == [0, 2]
    yield "smith diag mod 9", smith_valuations([[3, 0], [0, 1]], 3, 2) == [0, 1]
    # columns 3 e1 and e1 + e2 over Z/9 span 3^3 of the 81 vectors: divisors 1 and 3
    yield "smith of columns", smith_valuations([[3, 1], [0, 1]], 3, 2) == [0, 1]
    yield "smith 3x1 mod 27", smith_valuations([[9], [18], [0]], 3, 3) == [2]


def main() -> int:
    count = 0
    for name, ok in cases():
        count += 1
        if not ok:
            print(f"selftest FAILED: {name}")
            return 1
    print(f"selftest ok: {count} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
