"""Deterministic property sweeps per module, used by the CLI audit command.

Each suite returns {"suite", "checks", "failures"}; a failure is a short
string naming the broken property.  Sweeps are sized to finish in seconds.
"""

from __future__ import annotations

import math
import random
from itertools import product

from . import glnp, gm, quantum, ringpoly, unitary
from .matrices import PadicMatrix, vector_norm
from .sampling import (
    random_continuous,
    random_matrix,
    random_teichmuller,
    random_unitary,
)
from .scalars import UnramRing, Zp, teichmuller_lift


class _Tally:
    def __init__(self):
        self.checks = 0
        self.failures: list[str] = []

    def check(self, ok: bool, label: str):
        self.checks += 1
        if not ok:
            self.failures.append(label)


def audit_scalars(seed: int = 0) -> dict:
    t = _Tally()
    for p, K in ((3, 3), (5, 2)):
        ring = Zp(p, K)
        for raw in range(1, ring.pk):
            if raw % p == 0:
                continue
            x = ring.scalar(raw)
            seq = [pow(raw, p**math.factorial(k), ring.pk) for k in range(1, 8)]
            t.check(seq[-1] == seq[-2], "factorial powers stabilize")
            limit = seq[-1]
            from .scalars import sigma_factorial_limit, unit_decompose

            t.check(sigma_factorial_limit(x).lift() == limit, "closed-form limit")
            t.check((limit == 1) == (raw % p == 1), "limit 1 iff principal unit")
            t.check((limit == raw) == (ring.rteichmuller(raw) == raw), "limit x iff Teichmuller")
            b1, tc = unit_decompose(x)
            t.check(b1 * tc == x and b1.lift() % p == 1, "unit splitting")
        for r in range(1, p):
            for s in range(1, p):
                lhs = teichmuller_lift(ring, r * s % p)
                t.check(
                    lhs == teichmuller_lift(ring, r) * teichmuller_lift(ring, s),
                    "Teichmuller multiplicativity",
                )
    return {"suite": "scalars", "checks": t.checks, "failures": t.failures}


def audit_linalg(seed: int = 0) -> dict:
    t = _Tally()
    rng = random.Random(seed or 12)
    ring = Zp(3, 3)
    for _ in range(8):
        A = random_matrix(ring, 2, rng)
        t.check(A.evaluate(A.char_poly_raw()).is_zero(), "Cayley-Hamilton")
        t.check(A.smith_form(2).verify(), "Smith profile")
        u, v = random_unitary(ring, 2, rng), random_unitary(ring, 2, rng)
        t.check((u @ v).is_unitary() and u.inverse().is_unitary(), "unitary closure")
    nilpotent = PadicMatrix.from_rows(ring, [[1, 1], [0, 1]]) - PadicMatrix.identity(ring, 2)
    result = nilpotent.spectral_seminorm()
    t.check(result.is_zero and result.nilpotency_k == 2, "seminorm nilpotency")
    return {"suite": "linalg", "checks": t.checks, "failures": t.failures}


def audit_unitary(seed: int = 0) -> dict:
    t = _Tally()
    rng = random.Random(seed or 23)
    ring = Zp(3, 3)
    for _ in range(10):
        u = random_unitary(ring, 2, rng)
        u_s, u_n = unitary.jordan_decompose(u)
        t.check(u_s @ u_n == u and u_n @ u_s == u, "Jordan product")
        t.check(unitary.classify(u_s).is_teichmuller, "Jordan semisimple part")
        t.check(unitary.classify(u_n).is_continuous, "Jordan unipotent part")
    for _ in range(4):
        u = random_teichmuller(ring, 3, rng)
        t.check(unitary.teichmuller_spectral(u).verify(expected=u), "spectral identities")
        w = random_continuous(ring, 2, rng)
        a, b = rng.randrange(ring.pk), rng.randrange(ring.pk)
        t.check(
            unitary.power_zp(w, (a + b) % ring.pk)
            == unitary.power_zp(w, a) @ unitary.power_zp(w, b),
            "one-parameter group law",
        )
        x = [rng.randrange(ring.pk) for _ in range(2)]
        t.check(vector_norm(ring, w.apply(x)) == vector_norm(ring, x), "norm preservation")
    return {"suite": "unitary", "checks": t.checks, "failures": t.failures}


def audit_gm(seed: int = 0) -> dict:
    t = _Tally()
    ring = Zp(3, 2)
    units = [u for u in range(9) if u % 3]
    polys = [gm.LaurentPoly.from_coeffs(ring, [(-a) % 9, 1]) for a in units]
    polys += [
        gm.LaurentPoly.from_coeffs(ring, [c, b, 1])
        for b in range(9)
        for c in units
    ]
    for i, f in enumerate(polys):
        for g in polys[i:]:
            cert = gm.orthogonality_test(f, g, 2)
            fr = [f.terms.get(0, 0) % 3, f.terms.get(1, 0) % 3, f.terms.get(2, 0) % 3]
            gr = [g.terms.get(0, 0) % 3, g.terms.get(1, 0) % 3, g.terms.get(2, 0) % 3]
            shares = _shares_root_in_f9(fr, gr)
            t.check(cert.orthogonal == (not shares), "resultant vs root predicate")
            if cert.orthogonal:
                t.check(gm.bezout_idempotents(f, g, 2).verify(), "idempotent audit")
    rng = random.Random(seed or 31)
    for _ in range(10):
        sparse = gm.LaurentPoly(
            ring, {rng.randint(-5, 5): rng.randint(1, 8) for _ in range(4)}
        )
        for d in range(1, 5):
            t.check(
                gm.shift_sum(sparse, 0, d) == gm.shift_sum(sparse.shift(d), 0, d),
                "shift invariance",
            )
            t.check(gm.additivity_check(sparse, 1, d, 3), "shift additivity")
    return {"suite": "gm", "checks": t.checks, "failures": t.failures}


def _shares_root_in_f9(fr, gr) -> bool:
    field = UnramRing(3, 1, 2)
    lifted = [[field.rfrom_int(c) for c in h] for h in (fr, gr)]
    return any(
        all(ringpoly.divide_linear(field, h, x)[1] == field.zero for h in lifted)
        for x in product(range(3), repeat=2)
    )


def audit_glnp(seed: int = 0) -> dict:
    t = _Tally()
    seen_t, seen_n = set(), set()
    f3 = Zp(3, 1)
    count = 0
    for entries in product(range(3), repeat=4):
        rows = (entries[0:2], entries[2:4])
        if (entries[0] * entries[3] - entries[1] * entries[2]) % 3 == 0:
            continue
        count += 1
        out = glnp.decompose_fp(3, rows)
        back = PadicMatrix(f3, out.t_matrix) @ PadicMatrix(f3, out.n_matrix)
        t.check(back.rows == rows, "multiply-back")
        seen_t.add(out.t_matrix)
        seen_n.add(out.n_matrix)
    t.check(count == 48, "group order")
    t.check(len(seen_t) == 16 and len(seen_n) == 3, "tower counting")
    ring = Zp(3, 2)
    rng = random.Random(seed or 43)
    for _ in range(8):
        u = random_unitary(ring, 2, rng)
        out = glnp.decompose_zp(u)
        t.check(out.t_matrix @ out.n_matrix == u, "lift multiply-back")
        t.check(glnp.b_membership(out.n_matrix), "congruence membership")
    return {"suite": "glnp", "checks": t.checks, "failures": t.failures}


def audit_quantum(seed: int = 0) -> dict:
    t = _Tally()
    rng = random.Random(seed or 57)
    ring = Zp(3, 3)
    for _ in range(5):
        u = random_teichmuller(ring, 2, rng)
        datum = unitary.teichmuller_spectral(u)
        projectors = [datum.orbit_projector(i) for i in range(len(datum.orbits))]
        psi = quantum.WaveFunction(ring, [rng.randrange(ring.pk) for _ in range(2)])
        report = quantum.probability(projectors, psi)
        t.check(report.total == max(report.per_event), "probability sup rule")
        h = random_matrix(ring, 2, rng)
        a = 3 * rng.randrange(9)
        b = 3 * rng.randrange(9)
        t.check(
            quantum.exp_matrix(h, (a + b) % ring.pk)
            == quantum.exp_matrix(h, a) @ quantum.exp_matrix(h, b),
            "exponential group law",
        )
        psi_u = quantum.WaveFunction(ring, [1, rng.randrange(ring.pk)])
        t.check(
            quantum._apply(quantum.exp_matrix(h, a), psi_u).norm() == psi_u.norm(),
            "evolution norm invariance",
        )
    model = quantum.spectrum_shift_model(4, 3, 3)
    t.check(model.checked_dimension == 3, "shift model range")
    clock, shift, zeta = quantum.clock_shift_pair(Zp(5, 2), 4)
    rel = quantum.torus_check(clock, shift)
    t.check(rel.xi == zeta, "torus detection")
    return {"suite": "quantum", "checks": t.checks, "failures": t.failures}


SUITES = {
    "scalars": audit_scalars,
    "linalg": audit_linalg,
    "unitary": audit_unitary,
    "gm": audit_gm,
    "glnp": audit_glnp,
    "quantum": audit_quantum,
}


def run_audits(suite: str = "all", seed: int = 0) -> dict:
    names = list(SUITES) if suite == "all" else [suite]
    results = [SUITES[name](seed) for name in names]
    return {
        "suites": results,
        "passed": all(not r["failures"] for r in results),
    }
