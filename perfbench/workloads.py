"""The in-process workloads: what each round calls and how each result is checked.

A round is a list of items; an item is a chain of steps over one input, and
a step is (name, call, check).  Only `call` is timed.  Every round of a
workload has the same steps in the same order; only the seeded values
differ, so each run attempts whole rounds of one fixed mix.
"""

from __future__ import annotations

import checks
from gen import Source
from oracle import char_poly_mod_p, factor_shape, jordan_alpha, mat_pow, poly_mul

# the smaller size twice per round, so the median falls inside one operation's cluster
PIPELINE_ROUND = ((5, 20, 6), (5, 20, 6), (7, 30, 8))
SMALL_PRIMES, SMALL_KS, SMALL_NS = (3, 5, 7), (2, 3, 4, 5, 6), (2, 3)
FORMAL_GRID = ((5, 10), (7, 30))
FORMAL_DEGREES = (2, 3, 4, 5)
FORMAL_MATRIX_N = 6


class Matrix:
    """One input unitary with the oracle facts its checks need, made on demand."""

    def __init__(self, padicu, p: int, K: int, rows):
        self.p, self.K, self.pk, self.rows = p, K, p**K, rows
        self.value = padicu.PadicMatrix(padicu.Zp(p, K), rows)
        self._W = self._shape = None

    @property
    def W(self):
        if self._W is None:
            self._W = mat_pow(self.rows, jordan_alpha(self.p, self.K, len(self.rows)), self.pk)
        return self._W

    @property
    def shape(self):
        if self._shape is None:
            self._shape = factor_shape(char_poly_mod_p(self.rows, self.p), self.p)
        return self._shape


def _classify(padicu, m: Matrix):
    return ("unitary.classify", lambda: padicu.classify(m.value),
            lambda r: checks.classify(m.rows, m.pk, r.kind, r.witness.rows, m.W))


def _jordan(padicu, m: Matrix):
    return ("unitary.jordan_decompose", lambda: padicu.jordan_decompose(m.value),
            lambda r: checks.jordan(m.rows, m.pk, r[0].rows, r[1].rows, m.W))


def _spectral(padicu, m: Matrix):
    def check(datum):
        projectors = [datum.orbit_projector(i).rows for i in range(len(datum.orbits))]
        orbit_shape = [(o.degree, o.multiplicity) for o in datum.orbits]
        checks.spectral(m.rows, m.pk, projectors, orbit_shape, m.shape, datum.unipotent.rows, m.W)

    return ("unitary.spectral_decompose", lambda: padicu.spectral_decompose(m.value), check)


def _power_zp(padicu, m: Matrix, t: int):
    return ("unitary.power_zp", lambda: padicu.power_zp(m.value, t),
            lambda r: checks.power_zp(m.rows, m.pk, t, r.rows))


# -- unitary_pipeline ----------------------------------------------------------------


def pipeline_round(padicu, src: Source):
    """Per entry: a Teichmuller, a continuous and a mixed matrix, each down its chain."""
    items = []
    for p, K, n in PIPELINE_ROUND:
        for kind in ("T", "C", "M"):
            if kind == "T":
                m = Matrix(padicu, p, K, src.teichmuller(p, K, n))
            elif kind == "C":
                m = Matrix(padicu, p, K, src.continuous(p, K, n))
            else:
                m = Matrix(padicu, p, K, src.spectral_mixed(p, K, n))
            last = (_power_zp(padicu, m, src.rng.randrange(m.pk)) if kind == "C"
                    else _spectral(padicu, m))
            items.append([_classify(padicu, m), _jordan(padicu, m), last])
    return items


# -- unitary_small -------------------------------------------------------------------


def small_round(padicu, src: Source):
    """Every (p, K, n) of the grid once per operation, each on its own matrix."""
    items = []
    for p in SMALL_PRIMES:
        for n in SMALL_NS:
            for K in SMALL_KS:
                make = src.continuous if K % 2 else src.mixed
                items.append([_classify(padicu, Matrix(padicu, p, K, make(p, K, n)))])
                items.append([_jordan(padicu, Matrix(padicu, p, K, src.mixed(p, K, n)))])
                items.append([_spectral(padicu, Matrix(padicu, p, K, src.spectral_mixed(p, K, n)))])
                c = Matrix(padicu, p, K, src.continuous(p, K, n))
                items.append([_power_zp(padicu, c, src.rng.randrange(c.pk))])
    return items


# -- formal_group --------------------------------------------------------------------


def _laurent(padicu, p: int, K: int, coeffs):
    return padicu.LaurentPoly.from_coeffs(padicu.Zp(p, K), coeffs)


def _dense(poly) -> list[int]:
    terms = poly.terms
    return [terms.get(e, 0) for e in range(max(terms) + 1)] if terms else []


def _pair_chain(padicu, p: int, K: int, f, g):
    F, G = _laurent(padicu, p, K, f), _laurent(padicu, p, K, g)
    fg = poly_mul(f, g, p**K)
    FG = _laurent(padicu, p, K, fg)

    def check_orth(c):
        checks.orthogonality(f, g, p, K, c.orthogonal, c.res.lift(), _dense(c.bezout_k), _dense(c.bezout_l))

    def check_bezout(b):
        checks.bezout(f, g, p, K, b.modulus, b.p1, b.p2)

    def check_teich(t):
        checks.teich_factor(fg, p, K, t.unit.lift(), t.shift, list(t.factors.items()))

    return [
        ("gm.orthogonality_test", lambda: padicu.orthogonality_test(F, G, K), check_orth),
        ("gm.bezout_idempotents", lambda: padicu.bezout_idempotents(F, G, K), check_bezout),
        ("gm.teich_factor", lambda: padicu.teich_factor(FG, K), check_teich),
    ]


def _spectrum_table(padicu, m: Matrix):
    levels = (1, m.K // 2, m.K)
    j_list = [padicu.ONE_MINUS, *levels]

    def check(table):
        table_rows = [(r.j, r.orbit, r.dimension) for r in table.rows if r.epsilon != "1-"]
        checks.spectrum_table(len(m.rows), levels, table_rows, m.shape)
        one_minus = [(r.orbit, r.dimension) for r in table.rows if r.epsilon == "1-"]
        at_one = [(r.orbit, r.dimension) for r in table.rows if r.epsilon == "p^1"]
        checks.require(one_minus == at_one, "spectrum_table: level 1- differs from level p^1")

    return ("unitary.spectrum_table", lambda: padicu.spectrum_table(m.value, j_list), check)


def _projection(padicu, m: Matrix, j: int):
    p = m.p
    f = [m.pk - 1] + [0] * (p - 2) + [1]  # t^(p-1) - 1: kills the F_p-rational part mod p
    F = _laurent(padicu, p, m.K, f)

    def check(r):
        basis = [[s.lift() for s in v] for v in r.kernel_basis]
        checks.projection(m.rows, f, p, j, basis, r.kernel_dimension, r.cokernel_divisors)

    return ("unitary.projection_functors", lambda: padicu.projection_functors(m.value, j, F), check)


def formal_round(padicu, src: Source):
    items = []
    for p, K in FORMAL_GRID:
        for degree in FORMAL_DEGREES:
            items.append(_pair_chain(padicu, p, K, *src.orthogonal_pair(p, K, degree)))
        n = FORMAL_MATRIX_N
        items.append([_spectrum_table(padicu, Matrix(padicu, p, K, src.mixed(p, K, n)))])
        for j in (1, K):
            items.append([_projection(padicu, Matrix(padicu, p, K, src.mixed(p, K, n)), j)])
    return items


ROUNDS = {
    "unitary_pipeline": pipeline_round,
    "unitary_small": small_round,
    "formal_group": formal_round,
}


def warm_up_rings(padicu, workload: str) -> None:
    """Build the unramified rings spectral work needs, as a long-running caller has."""
    if workload in ("unitary_pipeline", "unitary_small"):
        grid = PIPELINE_ROUND if workload == "unitary_pipeline" else [
            (p, K, 3) for p in SMALL_PRIMES for K in SMALL_KS]
        for p, K, n in grid:
            for m in range(2, min(n, 4) + 1):
                padicu.UnramRing(p, K, m)
