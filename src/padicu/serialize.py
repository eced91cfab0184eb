"""Stable JSON-compatible encoding of every value the CLI exchanges.

Numbers cross the wire as decimal strings (no word-size assumptions); every
composite carries its (p, K, m, modulus_id) header.  Encoders and decoders
round-trip exactly; decoders validate and raise MalformedDocument on shape
errors so the CLI can map them to exit code 2.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .errors import MalformedDocument
from .matrices import Norm, PadicMatrix, SeminormResult
from .scalars import AnyRing, UnramRing, Zp

if TYPE_CHECKING:
    from .gm import LaurentPoly
    from .quantum import WaveFunction
    from .unitary import SpectralDatum, SpectrumTable

SCHEMA = "padicu/1"
_DECIMAL = re.compile(r"-?[0-9]+")


def _need(doc: dict, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise MalformedDocument(f"missing field {key!r}")
    return doc[key]


def read_int(value, what: str) -> int:
    """A document integer: a JSON integer that is not a boolean, or a decimal string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise MalformedDocument(f"{what} must be an integer or a decimal string, got {value!r}")


def int_field(doc: dict, key: str, default: int | None = None) -> int:
    """The integer field `key` of doc; required unless a default is given."""
    if default is not None and isinstance(doc, dict) and key not in doc:
        return default
    return read_int(_need(doc, key), key)


def ring_header(ring: AnyRing) -> dict:
    if isinstance(ring, Zp):
        return {"p": ring.p, "K": ring.K, "m": 1, "modulus_id": None}
    return {"p": ring.p, "K": ring.K, "m": ring.m, "modulus_id": ring.modulus_id}


def ring_from_header(doc: dict) -> AnyRing:
    p = int_field(doc, "p")
    K = int_field(doc, "K")
    m = int_field(doc, "m", 1)
    if m == 1:
        return Zp(p, K)
    return UnramRing(p, K, m)


def _entry_to_wire(ring: AnyRing, raw):
    if isinstance(ring, Zp):
        return str(raw)
    return [str(c) for c in raw]


def _entry_from_wire(ring: AnyRing, wire, what: str = "matrix entry"):
    if isinstance(ring, Zp) or not isinstance(wire, list):
        return ring.rfrom_int(read_int(wire, what))
    return ring.scalar(tuple(read_int(c, what) for c in wire)).raw


def matrix_to_doc(M: PadicMatrix) -> dict:
    return {
        **ring_header(M.ring),
        "n": M.n,
        "entries": [_entry_to_wire(M.ring, v) for row in M.rows for v in row],
    }


def matrix_from_doc(doc: dict) -> PadicMatrix:
    ring = ring_from_header(doc)
    n = int_field(doc, "n")
    entries = _need(doc, "entries")
    if len(entries) != n * n:
        raise MalformedDocument(f"expected {n * n} entries, got {len(entries)}")
    rows = [
        [_entry_from_wire(ring, entries[i * n + j]) for j in range(n)] for i in range(n)
    ]
    return PadicMatrix(ring, rows)


def laurent_to_doc(f: LaurentPoly) -> dict:
    return {
        **ring_header(f.ring),
        "terms": [[e, str(c)] for e, c in sorted(f.terms.items())],
    }


def laurent_from_doc(doc: dict) -> LaurentPoly:
    from .gm import LaurentPoly

    ring = ring_from_header(doc)
    if not isinstance(ring, Zp):
        raise MalformedDocument("polynomials carry base-ring coefficients")
    terms = {}
    for pair in _need(doc, "terms"):
        if len(pair) != 2:
            raise MalformedDocument("terms are [exponent, coefficient] pairs")
        terms[read_int(pair[0], "exponent")] = read_int(pair[1], "coefficient")
    return LaurentPoly(ring, terms)


def norm_to_doc(norm: Norm) -> dict:
    return {
        "valuation": norm.val,
        "floor": norm.at_floor,
        "display": str(norm),
    }


def seminorm_to_doc(result: SeminormResult) -> dict:
    return {
        "zero": result.is_zero,
        "nilpotency_k": result.nilpotency_k,
        "best_k": result.best_k,
        "valuation": result.val,
        "display": "0" if result.is_zero else f"{result.p}^(-{result.val}/{result.best_k})",
    }


def wave_to_doc(psi: WaveFunction) -> dict:
    return {
        **ring_header(psi.ring),
        "values": [_entry_to_wire(psi.ring, v) for v in psi.values],
        "norm": norm_to_doc(psi.norm()),
    }


def wave_from_doc(doc: dict) -> WaveFunction:
    from .quantum import WaveFunction

    ring = ring_from_header(doc)
    return WaveFunction(
        ring, [_entry_from_wire(ring, v, "wave value") for v in _need(doc, "values")]
    )


def spectral_datum_to_doc(datum: SpectralDatum) -> dict:
    orbits = []
    for orbit in datum.orbits:
        orbits.append(
            {
                **ring_header(orbit.ring),
                "degree": orbit.degree,
                "multiplicity": orbit.multiplicity,
                "factor": [str(c) for c in orbit.factor],
                "eigenvalues": [
                    _entry_to_wire(orbit.ring, lam) for lam in orbit.eigenvalues
                ],
                "projectors": [matrix_to_doc(proj) for proj in orbit.projectors],
            }
        )
    return {
        "n": datum.n,
        "orbits": orbits,
        "unipotent": matrix_to_doc(datum.unipotent),
    }


def spectrum_table_to_doc(table: SpectrumTable) -> dict:
    return {
        "n": table.n,
        "torsion_is_whole_module": table.torsion_is_whole_module,
        "completion_is_whole_module": table.completion_is_whole_module,
        "rows": [
            {
                "epsilon": row.epsilon,
                "j": row.j,
                "orbit": list(row.orbit),
                "dimension": row.dimension,
                "cokernel_divisors": list(row.cokernel_divisors),
            }
            for row in table.rows
        ],
    }
