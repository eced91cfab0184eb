"""Batch command-line surface: one JSON document in, one JSON document out.

Usage: padicu COMMAND [INPUT.json]  (document on stdin when no file given)

Exit codes: 0 success; 2 an invalid document or argument (bad prime, non-unit
determinant where a unitary is required, malformed document); 3 a failed
precondition or a valid input the library does not support.  Both write a
machine-readable reason, and the exception class alone picks the code
(`errors`).  Any other exception is a bug: a traceback and exit 1.

Identical input yields byte-identical output: keys are sorted and every
randomized subroutine runs off one fixed seed.  Commands import their modules
when run.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .errors import MalformedDocument, PadicError
from .matrices import PadicMatrix
from .scalars import ONE_MINUS, Zp


def _matrix(doc, key="matrix") -> PadicMatrix:
    return serialize.matrix_from_doc(serialize._need(doc, key))


def _poly(doc, key):
    return serialize.laurent_from_doc(serialize._need(doc, key))


def cmd_classify(doc):
    from . import unitary
    result = unitary.classify(_matrix(doc))
    return {"class": result.kind, "witness": serialize.matrix_to_doc(result.witness)}


def cmd_jordan(doc):
    from . import unitary
    u_s, u_n = unitary.jordan_decompose(_matrix(doc))
    return {
        "teichmuller_part": serialize.matrix_to_doc(u_s),
        "continuous_part": serialize.matrix_to_doc(u_n),
    }


def cmd_spectral(doc):
    from . import unitary
    datum = unitary.teichmuller_spectral(_matrix(doc))
    return serialize.spectral_datum_to_doc(datum)


def cmd_galois_act(doc):
    from . import unitary
    u = _matrix(doc)
    k = serialize.int_field(doc, "k")
    return {"acted": serialize.matrix_to_doc(unitary.galois_act(u, k))}


def cmd_power_zp(doc):
    from . import unitary
    u = _matrix(doc)
    t = serialize.int_field(doc, "t")
    return {"power": serialize.matrix_to_doc(unitary.power_zp(u, t))}


def cmd_projection(doc):
    from . import unitary
    u = _matrix(doc)
    j = serialize.int_field(doc, "j")
    f = _poly(doc, "poly")
    result = unitary.projection_functors(u, j, f)
    return {
        "j": result.j,
        "kernel_dimension": result.kernel_dimension,
        "kernel_basis": [
            [serialize._entry_to_wire(s.ring, s.raw) for s in vec] for vec in result.kernel_basis
        ],
        "cokernel_divisors": list(result.cokernel_divisors),
    }


def cmd_spectrum_table(doc):
    from . import unitary
    u = _matrix(doc)
    j_list = [
        ONE_MINUS if j == "1-" else serialize.read_int(j, "j_list item")
        for j in serialize._need(doc, "j_list", list)
    ]
    table = unitary.spectrum_table(u, j_list)
    return serialize.spectrum_table_to_doc(table)


def cmd_orthogonal(doc):
    from . import gm
    f, g = _poly(doc, "f"), _poly(doc, "g")
    j = serialize.int_field(doc, "j")
    cert = gm.orthogonality_test(f, g, j)
    out = {
        "orthogonal": cert.orthogonal,
        "resultant": str(cert.res.lift()),
        "shifts": list(cert.shifts),
    }
    if cert.orthogonal:
        out["bezout_k"] = serialize.laurent_to_doc(cert.bezout_k)["terms"]
        out["bezout_l"] = serialize.laurent_to_doc(cert.bezout_l)["terms"]
    return out


def cmd_idempotents(doc):
    from . import gm
    f, g = _poly(doc, "f"), _poly(doc, "g")
    j = serialize.int_field(doc, "j")
    out = gm.bezout_idempotents(f, g, j)
    return {
        "modulus": [str(c) for c in out.modulus],
        "p1": [str(c) for c in out.p1],
        "p2": [str(c) for c in out.p2],
        "resultant": str(out.certificate.res.lift()),
        "verified": True,  # bezout_idempotents raises when its audit fails
    }


def cmd_teich_factor(doc):
    from . import gm
    f = _poly(doc, "f")
    j = serialize.int_field(doc, "j")
    out = gm.teich_factor(f, j)
    return {
        "unit": str(out.unit.lift()),
        "shift": out.shift,
        "factors": [
            {"orbit": list(label), "coeffs": [str(c) for c in coeffs]}
            for label, coeffs in sorted(out.factors.items())
        ],
    }


def cmd_principal_exponent(doc):
    from . import gm
    j = serialize.int_field(doc, "j")
    if "matrix" in doc:
        out = gm.principal_exponent(_matrix(doc), j)
    else:
        out = gm.principal_exponent(_poly(doc, "poly"), j)
    return {"n": out.n, "l": out.l, "N": out.N}


def cmd_shift_sum(doc):
    from . import gm
    f = _poly(doc, "f")
    value = gm.shift_sum(f, serialize.int_field(doc, "c"), serialize.int_field(doc, "d"))
    return {"sum": str(value.lift())}


def cmd_project_mod(doc):
    from . import gm
    f = _poly(doc, "f")
    d = serialize.int_field(doc, "d", cap=serialize.MAX_PROJECT_MOD_D)
    components = gm.project_mod(f, d)
    return {"components": [str(s.lift()) for s in components]}


def cmd_volume(doc):
    from . import gm
    if "quotient_order" in doc:
        vol = gm.profinite_volume(serialize.int_field(doc, "quotient_order"))
    else:
        vol = gm.haar_volume(serialize.int_field(doc, "c"), serialize.int_field(doc, "d"))
    return {"volume": f"{vol.numerator}/{vol.denominator}"}


def cmd_decompose_fp(doc):
    from . import glnp
    p = serialize.int_field(doc, "p")
    Zp(p, 1)  # validates the prime
    rows = serialize._need(doc, "matrix", list)
    if not all(isinstance(row, list) for row in rows):
        raise MalformedDocument("matrix rows must be JSON arrays")
    rows = [[serialize.read_int(v, "matrix entry") for v in row] for row in rows]
    out = glnp.decompose_fp(p, rows)
    return {
        "word": list(out.word.exponents),
        "t": [list(r) for r in out.t_matrix],
        "n": [list(r) for r in out.n_matrix],
    }


def cmd_decompose_zp(doc):
    from . import glnp
    out = glnp.decompose_zp(_matrix(doc))
    return {
        "word": list(out.word.exponents),
        "t": serialize.matrix_to_doc(out.t_matrix),
        "n": serialize.matrix_to_doc(out.n_matrix),
        "teichmuller": out.teichmuller,
    }


def cmd_probability(doc):
    from . import quantum
    projectors = [serialize.matrix_from_doc(d) for d in serialize._need(doc, "projectors", list)]
    psi = serialize.wave_from_doc(serialize._need(doc, "psi"))
    report = quantum.probability(projectors, psi)
    return {
        "per_event": [serialize.norm_to_doc(n) for n in report.per_event],
        "total": serialize.norm_to_doc(report.total),
    }


def cmd_measure(doc):
    from . import quantum
    pi = serialize.matrix_from_doc(serialize._need(doc, "projector"))
    psi = serialize.wave_from_doc(serialize._need(doc, "psi"))
    out = quantum.measure(psi, pi)
    return {
        "state": serialize.wave_to_doc(out.state),
        "norm": serialize.norm_to_doc(out.norm),
    }


def cmd_evolve(doc):
    from . import quantum
    pair = quantum.EvolutionPair(_matrix(doc, "h"), _matrix(doc, "u"))
    psi = serialize.wave_from_doc(serialize._need(doc, "psi"))
    allow = doc.get("allow_extended_radius", False)
    if not isinstance(allow, bool):
        raise MalformedDocument("allow_extended_radius must be a JSON boolean")
    out = quantum.evolve(
        pair,
        psi,
        serialize.int_field(doc, "k"),
        serialize.int_field(doc, "t"),
        allow_extended_radius=allow,
    )
    return {"state": serialize.wave_to_doc(out)}


def cmd_shift_model(doc):
    from . import quantum
    model = quantum.spectrum_shift_model(
        serialize.int_field(doc, "size", cap=serialize.MAX_SHIFT_MODEL_SIZE),
        serialize.int_field(doc, "p"),
        serialize.int_field(doc, "K", cap=serialize.MAX_PRECISION_K),
    )
    return {
        "u": serialize.matrix_to_doc(model.U),
        "x": serialize.matrix_to_doc(model.X),
        "raising": serialize.matrix_to_doc(model.raising),
        "lowering": serialize.matrix_to_doc(model.lowering),
        "hamiltonian": serialize.matrix_to_doc(model.hamiltonian),
        "checked_dimension": model.checked_dimension,
    }


def cmd_torus(doc):
    from . import quantum
    rel = quantum.torus_check(_matrix(doc, "u"), _matrix(doc, "v"))
    return {
        "xi": serialize._entry_to_wire(rel.xi.ring, rel.xi.raw),
        "bound": rel.bound,
        "near_commutative_at": list(rel.near_commutative_at)
        if rel.near_commutative_at
        else None,
    }


def cmd_seminorm(doc):
    u = _matrix(doc)
    result = u.spectral_seminorm(serialize.int_field(doc, "k_max", 16, serialize.MAX_SEMINORM_K))
    return serialize.seminorm_to_doc(result)


def cmd_audit(doc):
    from . import audits
    suite = serialize._need(doc, "suite", str) if "suite" in doc else "all"
    seed = serialize.int_field(doc, "seed", 0)
    if suite != "all" and suite not in audits.SUITES:
        raise MalformedDocument(f"unknown suite {suite!r}")
    return audits.run_audits(suite, seed)


COMMANDS = {
    "classify": cmd_classify,
    "jordan": cmd_jordan,
    "spectral": cmd_spectral,
    "galois-act": cmd_galois_act,
    "power-zp": cmd_power_zp,
    "projection": cmd_projection,
    "spectrum-table": cmd_spectrum_table,
    "orthogonal": cmd_orthogonal,
    "idempotents": cmd_idempotents,
    "teich-factor": cmd_teich_factor,
    "principal-exponent": cmd_principal_exponent,
    "shift-sum": cmd_shift_sum,
    "project-mod": cmd_project_mod,
    "volume": cmd_volume,
    "decompose-fp": cmd_decompose_fp,
    "decompose-zp": cmd_decompose_zp,
    "probability": cmd_probability,
    "measure": cmd_measure,
    "evolve": cmd_evolve,
    "shift-model": cmd_shift_model,
    "torus": cmd_torus,
    "seminorm": cmd_seminorm,
    "audit": cmd_audit,
}


def _emit(command: str, key: str, value) -> None:
    """Write the one output line: {"schema", "command", key: value}, keys sorted."""
    payload = {"schema": serialize.SCHEMA, "command": command, key: value}
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="padicu",
        description="exact spectral computations for p-adic unitary matrices",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument(
        "input",
        nargs="?",
        help="JSON input document (defaults to stdin)",
    )
    args = parser.parse_args(argv)
    try:
        try:
            raw = open(args.input, encoding="utf-8").read() if args.input else sys.stdin.read()
            doc = json.loads(raw) if raw.strip() else {}
        except OSError as exc:
            _emit(args.command, "error", {"code": "IOError", "reason": str(exc)})
            return 2
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, an int over 4,300 digits
            raise MalformedDocument(f"input is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise MalformedDocument("input document must be a JSON object")
        result = COMMANDS[args.command](doc)
    except PadicError as exc:
        _emit(args.command, "error", {"code": type(exc).__name__, "reason": str(exc)})
        return exc.exit_code
    _emit(args.command, "result", result)
    if args.command == "audit" and not result.get("passed", True):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
