"""The cli_process corpus: one document per command per round, with its check.

A round covers all 23 commands on small inputs, plus four documents whose
correct answer is exit 3 with a given error code.  Each entry is
(command, document, verify); verify(exit_code, output) raises CheckError.
"""

from __future__ import annotations

import math
from fractions import Fraction

import checks
from checks import require
from gen import Source
from oracle import (
    ceil_log,
    char_poly_mod_p,
    factor_shape,
    identity,
    jordan_alpha,
    mat_add,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_vec,
    min_valuation,
    prime_factors,
    reduce,
    valuation,
)

SCHEMA = "padicu/1"


# -- wire formats ----------------------------------------------------------------------


def matrix_doc(p: int, K: int, M) -> dict:
    return {"p": p, "K": K, "n": len(M), "entries": [str(v) for row in M for v in row]}


def matrix_rows(doc) -> list[list[int]]:
    n, flat = doc["n"], doc["entries"]
    return [[int(v) for v in flat[i * n:(i + 1) * n]] for i in range(n)]


def poly_doc(p: int, K: int, coeffs, low: int = 0) -> dict:
    return {"p": p, "K": K, "terms": [[low + e, str(c)] for e, c in enumerate(coeffs) if c]}


def dense(terms) -> list[int]:
    """[[exponent, "coeff"], ...] with exponents >= 0 -> ascending coefficients."""
    out: list[int] = []
    for e, c in terms:
        out += [0] * (e + 1 - len(out))
        out[e] = int(c)
    return out


def wave_doc(p: int, K: int, values) -> dict:
    return {"p": p, "K": K, "values": [str(v) for v in values]}


def _ok(command: str, code: int, out: dict) -> dict:
    require(code == 0, f"exit {code}: {out.get('error')}")
    require(out.get("schema") == SCHEMA and out.get("command") == command, "envelope mismatch")
    return out["result"]


def _expect_error(command: str, error_code: str):
    def verify(code, out):
        require(code == 3, f"{command}: exit {code}, expected 3")
        require(out.get("error", {}).get("code") == error_code,
                f"{command}: error {out.get('error')}, expected {error_code}")
    return verify


# -- inputs ----------------------------------------------------------------------------------


def size_of(index: int) -> tuple[int, int, int]:
    """(p, K, n) of the index-th entry: fixed, so every round has the same make-up."""
    return (3, 5, 7)[index % 3], 3 + index % 4, 2 + index // 2 % 2


def _alpha_power(U, p, K):
    return mat_pow(U, jordan_alpha(p, K, len(U)), p**K)


def _teich_unit(x: int, p: int, K: int) -> int:
    return pow(x, p ** (K - 1), p**K)


def _idempotents(src: Source, p: int, K: int, n: int, count: int):
    """`count` orthogonal idempotents S E_i S^-1 of rank one each."""
    pk = p**K
    S = src.invertible(p, K, n)
    S_inv = mat_inv(S, p, pk)
    out = []
    for i in range(count):
        E = [[1 if r == c == i else 0 for c in range(n)] for r in range(n)]
        out.append(mat_mul(mat_mul(S, E, pk), S_inv, pk))
    return out


def _exp_series(H, t: int, p: int, K: int):
    """exp(tH) mod p^K for v_p(t) >= 1, each division by i! done exactly."""
    n, J = len(H), 2 * K + 2  # later terms have valuation >= i/2 >= K
    v_fact = sum(J // p**a for a in range(1, J.bit_length() + 1))
    work = p ** (K + v_fact)
    tH = [[t * h % work for h in row] for row in H]
    total, power, fact = identity(n), identity(n), 1
    for i in range(1, J + 1):
        power = mat_mul(power, tH, work)
        fact *= i
        v = valuation(fact, p, fact.bit_length())
        unit_inv = pow(fact // p**v, -1, work)
        total = mat_add(total, [[(x // p**v) * unit_inv for x in row] for row in power], work)
    return reduce(total, p**K)


def _residue_order(U, p: int) -> int:
    n = len(U)
    order = math.lcm(*(p**k - 1 for k in range(1, n + 1))) * p ** ceil_log(n, p)
    for q in prime_factors(order):
        while order % q == 0 and mat_pow(U, order // q, p) == identity(n):
            order //= q
    return order


# -- one entry per command -----------------------------------------------------------------


def _classify(src, size):
    p, K, n = size
    U = src.mixed(p, K, n)

    def verify(code, out):
        r = _ok("classify", code, out)
        checks.classify(U, p**K, r["class"], matrix_rows(r["witness"]), _alpha_power(U, p, K))
    return "classify", {"matrix": matrix_doc(p, K, U)}, verify


def _jordan(src, size):
    p, K, n = size
    U = src.mixed(p, K, n)

    def verify(code, out):
        r = _ok("jordan", code, out)
        checks.jordan(U, p**K, matrix_rows(r["teichmuller_part"]), matrix_rows(r["continuous_part"]),
                      _alpha_power(U, p, K))
    return "jordan", {"matrix": matrix_doc(p, K, U)}, verify


def _orbit_sum(orbit, pk: int):
    """Sum of an orbit's projectors, which must be Galois-fixed, over Z/p^K."""
    n = orbit["projectors"][0]["n"]
    total = [[[0] * orbit["m"] for _ in range(n)] for _ in range(n)]
    for proj in orbit["projectors"]:
        for idx, entry in enumerate(proj["entries"]):
            coeffs = entry if isinstance(entry, list) else [entry]
            cell = total[idx // n][idx % n]
            for a, c in enumerate(coeffs):
                cell[a] = (cell[a] + int(c)) % pk
    require(all(not any(cell[1:]) for row in total for cell in row), "spectral: orbit sum not Galois-fixed")
    return [[cell[0] for cell in row] for row in total]


def _spectral(src, size):
    p, K, n = size
    T = src.teichmuller(p, K, n)

    def verify(code, out):
        r = _ok("spectral", code, out)
        orbits = r["orbits"]
        checks.spectral(T, p**K, [_orbit_sum(o, p**K) for o in orbits],
                        [(o["degree"], o["multiplicity"]) for o in orbits],
                        factor_shape(char_poly_mod_p(T, p), p), matrix_rows(r["unipotent"]),
                        _alpha_power(T, p, K))
    return "spectral", {"matrix": matrix_doc(p, K, T)}, verify


def _galois_act(src, size):
    p, K, n = size
    T = src.teichmuller(p, K, n)
    k = src.rng.randint(1, 3)

    def verify(code, out):
        r = _ok("galois-act", code, out)
        require(matrix_rows(r["acted"]) == mat_pow(T, p**k, p**K), "galois-act: differs from U^(p^k)")
    return "galois-act", {"matrix": matrix_doc(p, K, T), "k": k}, verify


def _power_zp(src, size):
    p, K, n = size
    C = src.continuous(p, K, n)
    t = src.rng.randrange(p**K)

    def verify(code, out):
        checks.power_zp(C, p**K, t, matrix_rows(_ok("power-zp", code, out)["power"]))
    return "power-zp", {"matrix": matrix_doc(p, K, C), "t": t}, verify


def _projection(src, size):
    p, K, n = size
    U = src.mixed(p, K, n)
    j = src.rng.randint(1, K)
    f = [p**K - 1] + [0] * (p - 2) + [1]

    def verify(code, out):
        r = _ok("projection", code, out)
        basis = [[int(v) for v in vec] for vec in r["kernel_basis"]]
        checks.projection(U, f, p, j, basis, r["kernel_dimension"], r["cokernel_divisors"])
    return "projection", {"matrix": matrix_doc(p, K, U), "j": j, "poly": poly_doc(p, K, f)}, verify


def _spectrum_table(src, size):
    p, K, n = size
    U = src.mixed(p, K, n)

    def verify(code, out):
        r = _ok("spectrum-table", code, out)
        rows = [(row["j"], row["orbit"], row["dimension"]) for row in r["rows"] if row["epsilon"] != "1-"]
        checks.spectrum_table(n, (1, K), rows, factor_shape(char_poly_mod_p(U, p), p))
    return "spectrum-table", {"matrix": matrix_doc(p, K, U), "j_list": ["1-", 1, K]}, verify


def _pair(src, size):
    p, K, n = size
    return p, K, *src.orthogonal_pair(p, K, n)


def _orthogonal(src, size):
    p, K, f, g = _pair(src, size)

    def verify(code, out):
        r = _ok("orthogonal", code, out)
        checks.orthogonality(f, g, p, K, r["orthogonal"], int(r["resultant"]),
                             dense(r.get("bezout_k", [])), dense(r.get("bezout_l", [])))
    return "orthogonal", {"f": poly_doc(p, K, f), "g": poly_doc(p, K, g), "j": K}, verify


def _idempotents_doc(src, size):
    p, K, f, g = _pair(src, size)

    def verify(code, out):
        r = _ok("idempotents", code, out)
        require(r["verified"] is True, "idempotents: not verified")
        checks.bezout(f, g, p, K, [int(c) for c in r["modulus"]], [int(c) for c in r["p1"]],
                      [int(c) for c in r["p2"]])
    return "idempotents", {"f": poly_doc(p, K, f), "g": poly_doc(p, K, g), "j": K}, verify


def _teich_factor(src, size):
    p, K, n = size
    f = src.unit_poly(p, K, n + 2)

    def verify(code, out):
        r = _ok("teich-factor", code, out)
        factors = [(fac["orbit"], [int(c) for c in fac["coeffs"]]) for fac in r["factors"]]
        checks.teich_factor(f, p, K, int(r["unit"]), r["shift"], factors)
    return "teich-factor", {"f": poly_doc(p, K, f), "j": K}, verify


def _principal_exponent(src, size):
    p, K, n = size
    U = src.mixed(p, K, n)
    j = src.rng.randint(1, K)

    def verify(code, out):
        r = _ok("principal-exponent", code, out)
        pj, N, l = p**j, _residue_order(U, p), r["l"]
        require(r["N"] == N, "principal-exponent: N differs from the residue order")
        require(r["n"] == p**l * N, "principal-exponent: n != p^l N")
        require(mat_pow(U, r["n"], pj) == identity(n), "principal-exponent: U^n != I mod p^j")
        require(l == 0 or mat_pow(U, p ** (l - 1) * N, pj) != identity(n),
                "principal-exponent: a smaller l works")
    return "principal-exponent", {"matrix": matrix_doc(p, K, U), "j": j}, verify


def _laurent(src, p, K):
    low = src.rng.randint(-3, 0)
    return low, [src.rng.randrange(p**K) for _ in range(6)]


def _shift_sum(src, size):
    p, K, _ = size
    low, coeffs = _laurent(src, p, K)
    c, d = src.rng.randint(-3, 3), src.rng.randint(1, 4)
    want = sum(a for e, a in enumerate(coeffs) if (low + e - c) % d == 0) % p**K

    def verify(code, out):
        require(int(_ok("shift-sum", code, out)["sum"]) == want, "shift-sum: wrong sum")
    return "shift-sum", {"f": poly_doc(p, K, coeffs, low), "c": c, "d": d}, verify


def _project_mod(src, size):
    p, K, _ = size
    low, coeffs = _laurent(src, p, K)
    d = src.rng.randint(1, 4)
    want = [sum(a for e, a in enumerate(coeffs) if (low + e - c) % d == 0) % p**K for c in range(d)]

    def verify(code, out):
        got = [int(v) for v in _ok("project-mod", code, out)["components"]]
        require(got == want, "project-mod: wrong components")
    return "project-mod", {"f": poly_doc(p, K, coeffs, low), "d": d}, verify


def _volume(src, size):
    c, d = src.rng.randint(-9, 9), src.rng.choice((-1, 1)) * src.rng.randint(1, 50)
    want = Fraction(1, abs(d))

    def verify(code, out):
        require(_ok("volume", code, out)["volume"] == f"{want.numerator}/{want.denominator}",
                "volume: not 1/|d|")
    return "volume", {"c": c, "d": d}, verify


def _decompose_fp(src, size):
    p, _, n = size
    A = src.mixed(p, 1, n)

    def verify(code, out):
        r = _ok("decompose-fp", code, out)
        t, nm = r["t"], r["n"]
        require(len(r["word"]) == n, "decompose-fp: word length != n")
        require(mat_mul(t, nm, p) == A, "decompose-fp: T N != A")
        require(all(nm[i][i] == 1 and not any(nm[i][:i]) for i in range(n)),
                "decompose-fp: N is not unitriangular")
    return "decompose-fp", {"p": p, "matrix": A}, verify


def _decompose_zp(src, size):
    p, K, n = size
    U = src.mixed(p, K, n)

    def verify(code, out):
        r = _ok("decompose-zp", code, out)
        t, nm = matrix_rows(r["t"]), matrix_rows(r["n"])
        require(mat_mul(t, nm, p**K) == U, "decompose-zp: T N != U")
        require(all(nm[i][i] % p == 1 and not any(v % p for v in nm[i][:i]) for i in range(n)),
                "decompose-zp: N is not unitriangular mod p")
    return "decompose-zp", {"matrix": matrix_doc(p, K, U)}, verify


def _psi(src, p, K, n):
    shift = p ** src.rng.randint(0, 1)
    return [src.rng.randrange(p**K) * shift % p**K for _ in range(n)]


def _probability(src, size):
    p, K, n = size
    Ps = _idempotents(src, p, K, n, n - 1)
    psi = _psi(src, p, K, n)
    pk = p**K

    def verify(code, out):
        r = _ok("probability", code, out)
        want = [min_valuation([mat_vec(P, psi, pk)], p, K) for P in Ps]
        total = Ps[0]
        for P in Ps[1:]:
            total = mat_add(total, P, pk)
        require([e["valuation"] for e in r["per_event"]] == want, "probability: wrong event norms")
        require(r["total"]["valuation"] == min_valuation([mat_vec(total, psi, pk)], p, K) == min(want),
                "probability: wrong total norm")
    return "probability", {"projectors": [matrix_doc(p, K, P) for P in Ps],
                           "psi": wave_doc(p, K, psi)}, verify


def _measure(src, size):
    p, K, n = size
    (P,) = _idempotents(src, p, K, n, 1)
    psi = _psi(src, p, K, n)
    want = mat_vec(P, psi, p**K)

    def verify(code, out):
        r = _ok("measure", code, out)
        require([int(v) for v in r["state"]["values"]] == want, "measure: state != P psi")
        require(r["norm"]["valuation"] == min_valuation([want], p, K), "measure: wrong norm")
    return "measure", {"projector": matrix_doc(p, K, P), "psi": wave_doc(p, K, psi)}, verify


def _evolution_pair(src, p, K, n):
    pk = p**K
    S = src.invertible(p, K, n)
    S_inv = mat_inv(S, p, pk)
    D_u = [[src.scalar_unit(p, K) if i == j else 0 for j in range(n)] for i in range(n)]
    D_h = [[src.rng.randrange(pk) if i == j else 0 for j in range(n)] for i in range(n)]
    return (mat_mul(mat_mul(S, D_h, pk), S_inv, pk), mat_mul(mat_mul(S, D_u, pk), S_inv, pk))


def _evolve(src, size):
    p, K, n = size
    H, U = _evolution_pair(src, p, K, n)
    psi = _psi(src, p, K, n)
    k, t = src.rng.randint(0, 5), p * src.rng.randrange(p ** (K - 1))
    pk = p**K

    def verify(code, out):
        r = _ok("evolve", code, out)
        want = mat_vec(mat_pow(U, k, pk), mat_vec(_exp_series(H, t, p, K), psi, pk), pk)
        require([int(v) for v in r["state"]["values"]] == want, "evolve: state != U^k exp(tH) psi")
    doc = {"h": matrix_doc(p, K, H), "u": matrix_doc(p, K, U), "psi": wave_doc(p, K, psi), "k": k, "t": t}
    return "evolve", doc, verify


def _shift_model(src, size):
    p, K, n = size
    size = n + 2
    pk = p**K
    # binom(x+1, k) = binom(x, k) + binom(x, k-1);  x binom(x, k) = k binom(x, k) + (k+1) binom(x, k+1)
    U = [[1 if c in (r, r + 1) else 0 for c in range(size)] for r in range(size)]
    X = [[r if r == c else (c + 1 if r == c + 1 else 0) for c in range(size)] for r in range(size)]

    def verify(code, out):
        r = _ok("shift-model", code, out)
        raising, lowering = matrix_rows(r["raising"]), matrix_rows(r["lowering"])
        require(matrix_rows(r["u"]) == U and matrix_rows(r["x"]) == X, "shift-model: wrong U or X")
        require(mat_mul(raising, U, pk) == X, "shift-model: raising U != X")
        require(lowering == mat_add(U, [[-v for v in row] for row in identity(size)], pk),
                "shift-model: lowering != U - I")
        require(matrix_rows(r["hamiltonian"]) == mat_mul(raising, lowering, pk),
                "shift-model: hamiltonian != raising lowering")
        require(r["checked_dimension"] == size - 1, "shift-model: checked dimension")
    return "shift-model", {"size": size, "p": p, "K": K}, verify


def _torus(src, size):
    p, K, _ = size
    pk = p**K
    d = p - 1
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in prime_factors(p - 1)))
    zeta = pow(_teich_unit(g, p, K), (p - 1) // d, pk)
    clock = [[pow(zeta, i, pk) if i == j else 0 for j in range(d)] for i in range(d)]
    shift = [[1 if i == (j + 1) % d else 0 for j in range(d)] for i in range(d)]
    S = src.invertible(p, K, d)
    S_inv = mat_inv(S, p, pk)
    U, V = (mat_mul(mat_mul(S, M, pk), S_inv, pk) for M in (clock, shift))

    def verify(code, out):
        r = _ok("torus", code, out)
        xi = int(r["xi"])
        require(mat_mul(U, V, pk) == [[xi * v % pk for v in row] for row in mat_mul(V, U, pk)],
                "torus: U V != xi V U")
        near = next(([a, b] for a in range(1, r["bound"] + 1) for b in range(1, r["bound"] + 1)
                     if valuation(pow(xi, a * b, pk) - 1, p, K) >= 2), None)
        require(r["near_commutative_at"] == near, "torus: wrong near-commutative exponents")
    return "torus", {"u": matrix_doc(p, K, U), "v": matrix_doc(p, K, V)}, verify


def _seminorm(src, size):
    p, K, n = size
    pk = p**K
    # strictly upper part plus a multiple of p: topologically nilpotent, often nilpotent
    A = [[src.rng.randrange(pk) * (1 if c > r else p * src.rng.randint(0, 1)) % pk
          for c in range(n)] for r in range(n)]
    k_max = 6

    def verify(code, out):
        r = _ok("seminorm", code, out)
        best_v, best_k, power, want = min_valuation(A, p, K), 1, A, None
        for k in range(1, k_max + 1):
            if k > 1:
                power = mat_mul(power, A, pk)
            if not any(any(row) for row in power):
                want = (True, k, k, K)
                break
            v = min_valuation(power, p, K)
            if v * best_k > best_v * k:
                best_v, best_k = v, k
        want = want or (False, None, best_k, best_v)
        require((r["zero"], r["nilpotency_k"], r["best_k"], r["valuation"]) == want,
                "seminorm: differs from min_k |A^k|^(1/k)")
    return "seminorm", {"matrix": matrix_doc(p, K, A), "k_max": k_max}, verify


def _audit(src, size):
    seed = src.rng.randrange(10**6)

    def verify(code, out):
        r = _ok("audit", code, out)
        require(r["passed"] is True and all(not s["failures"] for s in r["suites"]), "audit: failures")
    return "audit", {"suite": "scalars", "seed": seed}, verify


# -- documents whose correct answer is exit 3 --------------------------------------------


def _spectral_on_continuous(src, size):
    p, K, n = size
    return "spectral", {"matrix": matrix_doc(p, K, src.continuous(p, K, n))}, \
        _expect_error("spectral", "NotTeichmuller")


def _power_zp_on_teichmuller(src, size):
    p, K, n = size
    while True:
        T = src.teichmuller(p, K, n)
        if T != identity(n):
            break
    return "power-zp", {"matrix": matrix_doc(p, K, T), "t": 1}, _expect_error("power-zp", "NotContinuous")


def _idempotents_not_orthogonal(src, size):
    p, K, n = size
    f, g = src.nonorthogonal_pair(p, K, n)
    return "idempotents", {"f": poly_doc(p, K, f), "g": poly_doc(p, K, g), "j": K}, \
        _expect_error("idempotents", "NotOrthogonal")


def _evolve_outside_radius(src, size):
    p, K, n = size
    H, U = _evolution_pair(src, p, K, n)
    doc = {"h": matrix_doc(p, K, H), "u": matrix_doc(p, K, U), "psi": wave_doc(p, K, _psi(src, p, K, n)),
           "k": 1, "t": src.scalar_unit(p, K)}
    return "evolve", doc, _expect_error("evolve", "RadiusViolation")


ENTRIES = (
    _classify, _jordan, _spectral, _galois_act, _power_zp, _projection, _spectrum_table,
    _orthogonal, _idempotents_doc, _teich_factor, _principal_exponent, _shift_sum, _project_mod,
    _volume, _decompose_fp, _decompose_zp, _probability, _measure, _evolve, _shift_model, _torus,
    _seminorm, _audit,
    _spectral_on_continuous, _power_zp_on_teichmuller, _idempotents_not_orthogonal,
    _evolve_outside_radius,
)


def round_docs(src: Source):
    return [make(src, size_of(i)) for i, make in enumerate(ENTRIES)]


def warm_up_docs(src: Source):
    return [_classify(src, size_of(0)), _orthogonal(src, size_of(7))]
