"""Record the CLI golden corpus: input documents, exact stdout bytes, exit codes.

Usage: PYTHONPATH=src python tests/golden/record.py

The documents are generated from fixed seeds and every one is run in-process
through ``padicu.cli.main``; the result is written to ``corpus.jsonl`` next to
this script, one case per line.  ``tests/test_golden.py`` replays the corpus
and compares bytes, so the corpus is the behaviour contract for refactors:
re-record it only when a change to the output bytes is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile

from padicu import cli, fppoly, moduli
from padicu.matrices import PadicMatrix
from padicu.quantum import clock_shift_pair
from padicu.sampling import random_continuous, random_matrix, random_teichmuller, random_unitary
from padicu.scalars import UnramRing, Zp, teichmuller_lift
from padicu.unitary import jordan_decompose, teichmuller_spectral

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.jsonl")


def matrix_doc(M: PadicMatrix) -> dict:
    if isinstance(M.ring, UnramRing):
        return {"p": M.ring.p, "K": M.ring.K, "m": M.ring.m, "n": M.n,
                "entries": [[str(c) for c in v] for row in M.rows for v in row]}
    return {"p": M.ring.p, "K": M.ring.K, "n": M.n,
            "entries": [str(v) for row in M.rows for v in row]}


def poly_doc(p: int, K: int, coeffs: list[int], low: int = 0) -> dict:
    return {"p": p, "K": K, "terms": [[low + i, str(c)] for i, c in enumerate(coeffs) if c]}


def _unit_poly(rng, p, pk, d):
    """Degree-d coefficients mod p^K with unit extreme coefficients."""
    coeffs = [rng.randrange(pk) for _ in range(d + 1)]
    for i in (0, d):
        while coeffs[i] % p == 0:
            coeffs[i] = rng.randrange(pk)
    return coeffs


def _times(a, b, pk):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % pk
    return out


def polynomial_pairs(rng, p, K, dm, dn, orthogonal):
    """Unit polynomials of degrees dm, dn whose reductions are coprime or not."""
    pk = p**K
    while True:
        if orthogonal:
            f, g = _unit_poly(rng, p, pk, dm), _unit_poly(rng, p, pk, dn)
            if fppoly.gcd([c % p for c in f], [c % p for c in g], p) == [1]:
                return f, g
        else:
            h = _unit_poly(rng, p, pk, 1)
            f = _times(h, _unit_poly(rng, p, pk, dm - 1), pk)
            g = _times(h, _unit_poly(rng, p, pk, dn - 1), pk)
            # perturb by multiples of p: the common residue factor survives
            f = [(c + p * rng.randrange(pk)) % pk for c in f]
            g = [(c + p * rng.randrange(pk)) % pk for c in g]
            if all(c % p for c in (f[0], f[-1], g[0], g[-1])):
                return f, g


def formal_group_cases(rng):
    cases = []
    shapes = [(d, d) for d in range(1, 7)] + [(1, 3), (2, 5), (4, 2), (3, 1)]
    for dm, dn in shapes:
        for orth in (True, False):
            for p, K, j in ((5, 3, 3), (3, 4, 2), (7, 2, 2)):
                if dm + dn >= 10 and p != 5:
                    continue  # the largest shapes at one prime keep the corpus small
                f, g = polynomial_pairs(rng, p, K, dm, dn, orth)
                lf, lg = rng.choice((0, -1, 2)), rng.choice((0, 1, -2))
                doc = {"f": poly_doc(p, K, f, lf), "g": poly_doc(p, K, g, lg), "j": j}
                tag = f"{'orth' if orth else 'nonorth'}-{dm}+{dn}-p{p}K{K}j{j}"
                cases.append(("orthogonal", tag, doc))
                cases.append(("idempotents", tag, doc))
    # a constant side, unit and non-unit, on either argument
    for p, c in ((3, 2), (3, 6), (5, 7)):
        poly = poly_doc(p, 3, [1, 2, 1, 4])
        const = poly_doc(p, 3, [c])
        for name, doc in (("left", {"f": const, "g": poly, "j": 3}),
                          ("right", {"f": poly, "g": const, "j": 2})):
            cases.append(("orthogonal", f"const-{name}-p{p}c{c}", doc))
            cases.append(("idempotents", f"const-{name}-p{p}c{c}", doc))
    # a non-unit extreme coefficient: f*g has no unit leading coefficient
    lead = [({"p": 3, "K": 4, "terms": [[-2, "156"], [0, "-19"], [3, "152"]]},
             {"p": 3, "K": 4, "terms": [[-1, "-80"], [2, "-33"]]}, 4),
            ({"p": 7, "K": 4, "terms": [[2, "3960"], [3, "-693"]]},
             {"p": 7, "K": 4, "terms": [[-1, "4050"], [1, "3027"]]}, 4)]
    for i, (f, g, j) in enumerate(lead):
        cases.append(("orthogonal", f"nonunit-lead-{i}", {"f": f, "g": g, "j": j}))
        cases.append(("idempotents", f"nonunit-lead-{i}", {"f": f, "g": g, "j": j}))
    zero = {"f": {"p": 3, "K": 2, "terms": []}, "g": poly_doc(3, 2, [1, 1]), "j": 2}
    cases.append(("orthogonal", "zero-poly", zero))
    cases.append(("idempotents", "missing-j", {"f": poly_doc(3, 2, [1, 1]), "g": poly_doc(3, 2, [2, 1])}))
    return cases


def teich_factor_cases(rng):
    cases = []
    for p, K in ((3, 4), (5, 3), (7, 2)):
        for d in range(1, 7):
            pk = p**K
            coeffs = _unit_poly(rng, p, pk, d)
            j = rng.randint(1, K)
            low = rng.choice((-1, 0, 1))
            cases.append(("teich-factor", f"random-d{d}-p{p}K{K}",
                          {"f": poly_doc(p, K, coeffs, low), "j": j}))
        # repeated residue factors: (t - 1)^2 (t + 1) (t^2 + 1) mod p, perturbed by p
        base = _times(_times(_times([p**K - 1, 1], [p**K - 1, 1], p**K), [1, 1], p**K), [1, 0, 1], p**K)
        base = [(c + p * rng.randrange(p**K)) % p**K for c in base]
        base[0] = base[0] if base[0] % p else base[0] + 1
        cases.append(("teich-factor", f"repeated-p{p}K{K}",
                      {"f": poly_doc(p, K, base), "j": K, "seed": 5}))
    cases.append(("teich-factor", "not-unit", {"f": poly_doc(3, 2, [3, 1]), "j": 2}))
    return cases


def decompose_fp_cases(rng):
    cases = []
    for p, n, count in ((3, 2, 10), (3, 3, 5), (5, 2, 4), (5, 3, 2), (3, 4, 2)):
        made = 0
        while made < count:
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            if not PadicMatrix(Zp(p, 1), rows).is_unitary():
                continue
            made += 1
            cases.append(("decompose-fp", f"p{p}n{n}-{made}", {"p": p, "matrix": rows}))
    cases.append(("decompose-fp", "unreduced", {"p": 3, "matrix": [[4, -1], [2, 8]]}))
    cases.append(("decompose-fp", "identity-3", {"p": 3, "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    cases.append(("decompose-fp", "singular", {"p": 3, "matrix": [[1, 2], [2, 1]]}))
    return cases


def matrix_cases(rng):
    cases = []
    grid = ((3, 2, 2), (3, 3, 3), (3, 2, 4), (3, 2, 5), (5, 3, 2), (5, 2, 3), (7, 2, 2), (7, 3, 4))
    for p, K, n in grid:
        ring = Zp(p, K)
        samples = {
            "unitary": random_unitary(ring, n, rng),
            "continuous": random_continuous(ring, n, rng),
            "teichmuller": random_teichmuller(ring, n, rng),
        }
        for kind, M in samples.items():
            tag = f"{kind}-p{p}K{K}n{n}"
            cases.append(("classify", tag, {"matrix": matrix_doc(M)}))
            cases.append(("jordan", tag, {"matrix": matrix_doc(M)}))
            cases.append(("principal-exponent", tag, {"matrix": matrix_doc(M), "j": K}))
        if n <= 3:
            u = samples["unitary"]
            cases.append(("decompose-zp", f"unitary-p{p}K{K}n{n}", {"matrix": matrix_doc(u)}))
            u_s, _ = jordan_decompose(u)
            cases.append(("decompose-zp", f"jordan-part-p{p}K{K}n{n}", {"matrix": matrix_doc(u_s)}))
        if n <= 4:
            t = samples["teichmuller"]
            cases.append(("spectral", f"teichmuller-p{p}K{K}n{n}", {"matrix": matrix_doc(t)}))
            cases.append(("galois-act", f"teichmuller-p{p}K{K}n{n}", {"matrix": matrix_doc(t), "k": 1}))
            cases.append(("spectrum-table", f"teichmuller-p{p}K{K}n{n}",
                          {"matrix": matrix_doc(t), "j_list": [1, K, "1-"]}))
    # orbits of degree 2, 3 and 4 for certain: companions of the canonical moduli
    for p, K, d in ((3, 3, 2), (5, 2, 3), (7, 2, 2), (3, 2, 4)):
        comp = PadicMatrix.companion(Zp(p, K), list(moduli.canonical_modulus(p, d, K))[:-1])
        cases.append(("spectral", f"companion-p{p}K{K}d{d}", {"matrix": matrix_doc(comp)}))
        cases.append(("classify", f"companion-p{p}K{K}d{d}", {"matrix": matrix_doc(comp)}))
    cases.append(("spectral", "not-teichmuller", {"matrix": {"p": 3, "K": 3, "n": 2, "entries": ["1", "1", "0", "1"]}}))
    cases.append(("classify", "singular", {"matrix": {"p": 3, "K": 2, "n": 2, "entries": ["3", "0", "0", "1"]}}))
    cases.append(("decompose-zp", "identity", {"matrix": {"p": 3, "K": 2, "n": 2, "entries": ["1", "0", "0", "1"]}}))
    cases.append(("principal-exponent", "poly", {"poly": poly_doc(5, 3, [2, 3, 1]), "j": 2}))
    return cases


def power_zp_cases(rng):
    cases = []
    for p, K, n in ((3, 2, 2), (3, 4, 3), (5, 3, 2), (5, 2, 4), (7, 3, 3)):
        w = random_continuous(Zp(p, K), n, rng)
        for t in (0, 1, rng.randrange(p**K), str(rng.randrange(p**K))):
            cases.append(("power-zp", f"continuous-p{p}K{K}n{n}-t{t}", {"matrix": matrix_doc(w), "t": t}))
    teich = random_teichmuller(Zp(3, 3), 2, rng)
    cases.append(("power-zp", "not-continuous", {"matrix": matrix_doc(teich), "t": 2}))
    return cases


def shift_model_cases():
    grid = ((3, 3), (5, 2), (7, 4))
    return [("shift-model", f"size{size}-p{grid[size % 3][0]}K{grid[size % 3][1]}",
             {"size": size, "p": grid[size % 3][0], "K": grid[size % 3][1]})
            for size in range(2, 9)]


def audit_cases():
    return [("audit", f"{suite}-seed{seed}", {"suite": suite, "seed": seed})
            for suite in ("scalars", "unitary", "glnp") for seed in (0, 5)]


def unram_matrix_cases(rng):
    """classify and jordan over degree-2 and degree-3 unramified rings."""
    cases = []
    for p, K, m, n in ((3, 2, 2, 2), (3, 3, 2, 3), (5, 2, 2, 2), (3, 2, 3, 2), (5, 2, 3, 2), (7, 2, 2, 3)):
        ring = UnramRing(p, K, m)
        u = random_unitary(ring, n, rng)
        u_s, _ = jordan_decompose(u)
        noise = [[tuple(p * rng.randrange(p ** (K - 1)) for _ in range(m)) for _ in range(n)]
                 for _ in range(n)]
        continuous = PadicMatrix.identity(ring, n) + PadicMatrix(ring, noise)
        lam = teichmuller_lift(ring, tuple(rng.randrange(p) for _ in range(m - 1)) + (1,))
        mixed = continuous.scale(lam)
        samples = {"unitary": u, "teichmuller": u_s, "continuous": continuous, "mixed": mixed}
        for kind, M in samples.items():
            tag = f"{kind}-p{p}K{K}m{m}n{n}"
            cases.append(("classify", tag, {"matrix": matrix_doc(M)}))
            cases.append(("jordan", tag, {"matrix": matrix_doc(M)}))
    return cases


def decompose_zp_cases(rng):
    """Random unitaries on both branches of the tower lift, non-Teichmuller first."""
    cases = []
    for p, K, n, want in ((3, 2, 2, 6), (3, 3, 2, 4), (3, 2, 3, 3), (5, 2, 2, 3)):
        ring = Zp(p, K)
        made = {True: 0, False: 0}
        while min(made.values()) < want:
            u = random_unitary(ring, n, rng)
            raw = json.dumps({"matrix": matrix_doc(u)}, sort_keys=True)
            branch = json.loads(run_case("decompose-zp", raw)[1])["result"]["teichmuller"]
            if made[branch] < want:
                made[branch] += 1
                tag = f"{'teich' if branch else 'word'}-p{p}K{K}n{n}-{made[branch]}"
                cases.append(("decompose-zp", tag, {"matrix": matrix_doc(u)}))
    return cases


def _wave_doc(ring, values) -> dict:
    return {"p": ring.p, "K": ring.K, "values": [str(v) for v in values]}


def projection_cases(rng):
    """Kernels and cokernels of f(U) mod p^j: planted eigenvalues, random and error documents."""
    cases = []
    for p, K, n in ((3, 2, 2), (3, 3, 3), (5, 2, 2), (5, 3, 3), (7, 2, 4)):
        ring = Zp(p, K)
        pk = p**K
        diag = [rng.randrange(1, pk) for _ in range(n)]
        diag[1] = diag[0]  # a repeated eigenvalue: kernel dimension 2 at every level
        v = random_unitary(ring, n, rng)
        u = v @ PadicMatrix.diagonal(ring, diag) @ v.inverse()
        for j in range(1, K + 1):
            cases.append(("projection", f"planted-p{p}K{K}n{n}-j{j}",
                          {"matrix": matrix_doc(u), "j": j, "poly": poly_doc(p, K, [(-diag[0]) % pk, 1])}))
        near = (-diag[-1] + p) % pk  # the root is off by p: divisors below j
        cases.append(("projection", f"near-root-p{p}K{K}n{n}",
                      {"matrix": matrix_doc(u), "j": K, "poly": poly_doc(p, K, [near, 1])}))
        w = random_unitary(ring, n, rng)
        f = [rng.randrange(pk) for _ in range(3)]
        cases.append(("projection", f"random-p{p}K{K}n{n}",
                      {"matrix": matrix_doc(w), "j": rng.randint(1, K), "poly": poly_doc(p, K, f, -1)}))
    u = PadicMatrix(Zp(3, 2), [[1, 0], [0, 8]])
    cases.append(("projection", "j-zero", {"matrix": matrix_doc(u), "j": 0, "poly": poly_doc(3, 2, [8, 1])}))
    cases.append(("projection", "j-above-K", {"matrix": matrix_doc(u), "j": 3, "poly": poly_doc(3, 2, [8, 1])}))
    # over a degree-2 extension f(U) = U is invertible, so the kernel is empty
    for p, K in ((3, 2), (5, 3)):
        ext = random_unitary(UnramRing(p, K, 2), 2, rng)
        cases.append(("projection", f"unram-invertible-p{p}K{K}m2",
                      {"matrix": matrix_doc(ext), "j": K, "poly": poly_doc(p, K, [0, 1])}))
    return cases


def laurent_scalar_cases(rng):
    """shift-sum, project-mod and volume on sparse Laurent polynomials and small groups."""
    cases = []
    for p, K in ((3, 3), (5, 2), (7, 2)):
        for i in range(4):
            terms = {rng.randint(-6, 6): rng.randrange(1, p**K) for _ in range(rng.randint(1, 5))}
            f = {"p": p, "K": K, "terms": [[e, str(c)] for e, c in sorted(terms.items())]}
            d = rng.randint(1, 5)
            cases.append(("shift-sum", f"p{p}K{K}-{i}", {"f": f, "c": rng.randrange(d), "d": d}))
            cases.append(("project-mod", f"p{p}K{K}-{i}", {"f": f, "d": d}))
    f = poly_doc(3, 2, [1, 2, 0, 1])
    cases.append(("shift-sum", "d-zero", {"f": f, "c": 0, "d": 0}))
    cases.append(("project-mod", "d-zero", {"f": f, "d": 0}))
    for c, d in ((0, 1), (1, 6), (5, 12), (3, 3), (0, 0), (-1, 4)):
        cases.append(("volume", f"haar-c{c}-d{d}", {"c": c, "d": d}))
    for order in (1, 9, 48, 0):
        cases.append(("volume", f"profinite-{order}", {"quotient_order": order}))
    return cases


def quantum_cases(rng):
    """probability, measure, evolve and torus over Z_p, with their precondition failures."""
    cases = []
    for p, K, n in ((3, 3, 2), (5, 2, 3), (7, 2, 3)):
        ring = Zp(p, K)
        datum = teichmuller_spectral(random_teichmuller(ring, n, rng))
        projectors = [datum.orbit_projector(i) for i in range(len(datum.orbits))]
        psi = _wave_doc(ring, [rng.randrange(ring.pk) for _ in range(n)])
        tag = f"p{p}K{K}n{n}"
        cases.append(("probability", tag, {"projectors": [matrix_doc(P) for P in projectors], "psi": psi}))
        for i, P in enumerate(projectors):
            cases.append(("measure", f"{tag}-orbit{i}", {"projector": matrix_doc(P), "psi": psi}))
        v = random_unitary(ring, n, rng)
        idem = v @ PadicMatrix.diagonal(ring, [1] + [0] * (n - 1)) @ v.inverse()
        cases.append(("measure", f"{tag}-rank-one", {"projector": matrix_doc(idem), "psi": psi}))
        h = random_matrix(ring, n, rng)
        u = PadicMatrix.identity(ring, n).scale(rng.randrange(1, p)) + h.scale(p)  # commutes with h
        for k, t, allow in ((0, p, False), (3, p * rng.randrange(1, p), False), (2, 1, False), (1, 1, True)):
            cases.append(("evolve", f"{tag}-k{k}-t{t}-{'ext' if allow else 'plain'}",
                          {"h": matrix_doc(h), "u": matrix_doc(u), "psi": psi, "k": k, "t": t,
                           "allow_extended_radius": allow}))
        small_h = h.scale(p * p)  # |H| <= 1/p^2, so a unit t is inside the extended radius
        cases.append(("evolve", f"{tag}-extended-radius",
                      {"h": matrix_doc(small_h), "u": matrix_doc(u), "psi": psi, "k": 1, "t": 1,
                       "allow_extended_radius": True}))
        w = random_unitary(ring, n, rng)
        cases.append(("evolve", f"{tag}-noncommuting",
                      {"h": matrix_doc(h), "u": matrix_doc(w), "psi": psi, "k": 1, "t": p}))
    ring = Zp(3, 2)
    idem = PadicMatrix(ring, [[1, 0], [0, 0]])
    psi = _wave_doc(ring, [1, 3])
    cases.append(("probability", "not-orthogonal",
                  {"projectors": [matrix_doc(idem), matrix_doc(idem)], "psi": psi}))
    cases.append(("probability", "not-idempotent",
                  {"projectors": [matrix_doc(idem.scale(2))], "psi": psi}))
    cases.append(("probability", "empty", {"projectors": [], "psi": psi}))
    cases.append(("measure", "not-idempotent", {"projector": matrix_doc(idem.scale(2)), "psi": psi}))
    for p, K, d in ((3, 2, 2), (5, 2, 4), (5, 3, 2), (7, 2, 3), (7, 3, 6)):
        clock, shift, _ = clock_shift_pair(Zp(p, K), d)
        cases.append(("torus", f"clock-shift-p{p}K{K}d{d}", {"u": matrix_doc(clock), "v": matrix_doc(shift)}))
        cases.append(("torus", f"shift-clock-p{p}K{K}d{d}", {"u": matrix_doc(shift), "v": matrix_doc(clock)}))
    ring = Zp(5, 2)
    cases.append(("torus", "not-a-pair", {"u": matrix_doc(random_unitary(ring, 3, rng)),
                                          "v": matrix_doc(random_unitary(ring, 3, rng))}))
    cases.append(("torus", "not-unitary", {"u": matrix_doc(PadicMatrix(ring, [[5, 0], [0, 1]])),
                                           "v": matrix_doc(PadicMatrix.identity(ring, 2))}))
    return cases


def seminorm_cases(rng):
    """Spectral seminorms of random, nilpotent-plus-p and extension-ring matrices."""
    cases = []
    for p, K, n in ((3, 3, 2), (3, 4, 3), (5, 2, 3), (7, 3, 2)):
        ring = Zp(p, K)
        a = random_matrix(ring, n, rng)
        cases.append(("seminorm", f"random-p{p}K{K}n{n}", {"matrix": matrix_doc(a)}))
        rows = [[(rng.randrange(ring.pk) if j > i else p * rng.randrange(p ** (K - 1)) if j == i else 0)
                 for j in range(n)] for i in range(n)]
        m = PadicMatrix(ring, rows)
        cases.append(("seminorm", f"triangular-p{p}K{K}n{n}", {"matrix": matrix_doc(m), "k_max": rng.randint(1, 20)}))
    for p, K, m in ((3, 2, 2), (5, 2, 2), (3, 3, 3)):
        ring = UnramRing(p, K, m)
        a = random_matrix(ring, 2, rng).scale(p)
        cases.append(("seminorm", f"unram-p{p}K{K}m{m}", {"matrix": matrix_doc(a)}))
    return cases


def more_audit_cases():
    return [("audit", f"{suite}-seed{seed}", {"suite": suite, "seed": seed})
            for suite in ("linalg", "quantum", "gm") for seed in (0, 5)]


def empty_matrix_cases():
    """The 0 x 0 matrix through every command that reads one and needs no other size."""
    empty = {"p": 3, "K": 2, "n": 0, "entries": []}
    return [("classify", "empty", {"matrix": empty}), ("jordan", "empty", {"matrix": empty}),
            ("spectral", "empty", {"matrix": empty}), ("galois-act", "empty", {"matrix": empty, "k": 1}),
            ("power-zp", "empty", {"matrix": empty, "t": 2}), ("seminorm", "empty", {"matrix": empty})]


def orbit_ring_cases():
    """Orbit rings outside the modulus table, and the modulus_id of an m = 2 header."""
    pk = 11**4
    # t^2 + 1 at p = 11, and the Teichmuller part of the companion of t^5 + 2t + 1 at p = 3
    quadratic = {"p": 11, "K": 4, "n": 2, "entries": ["0", str(pk - 1), "1", "0"]}
    quintic = {"p": 3, "K": 3, "n": 5, "entries": [
        "12", "15", "3", "9", "23", "4", "15", "21", "21", "1", "18", "4", "15",
        "21", "21", "24", "18", "4", "15", "21", "12", "24", "18", "4", "15"]}
    cases = [("spectral", "quadratic-p11K4", {"matrix": quadratic}),
             ("spectral", "quintic-p3K3", {"matrix": quintic})]
    entries = [["1", "1"], ["1", "0"], ["0", "0"], ["4", "3"]]  # [[1 + X, 1], [0, 4 + 3X]]
    for tag, modulus_id in (("tl1", "tl1-p3-1.0.1"), ("bogus", "bogus"), ("null", None)):
        matrix = {"p": 3, "K": 2, "m": 2, "modulus_id": modulus_id, "n": 2, "entries": entries}
        cases.append(("classify", f"modulus-id-{tag}", {"matrix": matrix}))
    return cases


def build_cases():
    rng = random.Random(20231018)
    cases = (formal_group_cases(rng) + teich_factor_cases(rng)
             + decompose_fp_cases(rng) + matrix_cases(rng))
    # later additions draw from their own generator so earlier cases keep their inputs
    rng = random.Random(4)
    cases += (power_zp_cases(rng) + shift_model_cases() + audit_cases()
              + unram_matrix_cases(rng) + decompose_zp_cases(rng))
    rng = random.Random(5)
    return (cases + projection_cases(rng) + laurent_scalar_cases(rng) + quantum_cases(rng)
            + seminorm_cases(rng) + more_audit_cases() + empty_matrix_cases() + orbit_ring_cases())


def run_case(command: str, raw: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(raw)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([command, path])
    return code, out.getvalue()


def main() -> int:
    with open(CORPUS, "w", encoding="utf-8") as fh:
        for command, tag, doc in build_cases():
            raw = json.dumps(doc, sort_keys=True)
            code, stdout = run_case(command, raw)
            case = {"case": f"{command}/{tag}", "command": command, "input": raw,
                    "exit": code, "stdout": stdout}
            fh.write(json.dumps(case, sort_keys=True) + "\n")
            print(case["case"], code, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
