"""Stable JSON-compatible encoding of every value the CLI exchanges.

Numbers cross the wire as decimal strings (no word-size assumptions); every
composite carries its (p, K, m, modulus_id) header.  Encoders and decoders
round-trip exactly; decoders check every JSON type they read and raise
MalformedDocument on shape errors, which the CLI reports as exit code 2.
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
# at most 4,300 digits, the longest decimal string int() converts by default
_DECIMAL = re.compile(r"-?[0-9]{1,4300}")
_JSON_NAMES = {list: "array", str: "string"}


def _need(doc: dict, key: str, kind: type | None = None):
    """doc[key], which must be present and, when kind is given, an instance of it."""
    if not isinstance(doc, dict) or key not in doc:
        raise MalformedDocument(f"missing field {key!r}")
    if kind is not None and not isinstance(doc[key], kind):
        raise MalformedDocument(f"field {key!r} must be a JSON {_JSON_NAMES[kind]}")
    return doc[key]


def read_int(value, what: str) -> int:
    """A document integer: a JSON integer that is not a boolean, or a decimal string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise MalformedDocument(f"{what} must be an integer or a decimal string, got {value!r}")


def int_field(doc: dict, key: str, default: int | None = None, cap: int | None = None) -> int:
    """The integer field `key` of doc, at most cap; required unless a default is given."""
    if default is not None and isinstance(doc, dict) and key not in doc:
        return default
    value = read_int(_need(doc, key), key)
    if cap is not None and value > cap:
        raise MalformedDocument(f"{key} = {value} is above the cap of {cap}")
    return value


# Largest K of a ring header (and of shift-model) and largest n of a matrix
# document.  A matrix command costs more as either grows: a classify process
# took 0.09-0.14 s on 8 x 8 unitaries at K = 128 (p = 3, 7) and 0.20-0.27 s
# on 32 x 32 ones at K = 2, 10, but 0.62 s (p = 3) and 1.22 s (p = 7) at
# n = 32 and K = 128 together (README, "CLI").
MAX_PRECISION_K = 128
MAX_MATRIX_N = 32


def ring_header(ring: AnyRing) -> dict:
    if isinstance(ring, Zp):
        return {"p": ring.p, "K": ring.K, "m": 1, "modulus_id": None}
    return {"p": ring.p, "K": ring.K, "m": ring.m, "modulus_id": ring.modulus_id}


def ring_from_header(doc: dict) -> AnyRing:
    p = int_field(doc, "p")
    K = int_field(doc, "K", cap=MAX_PRECISION_K)
    m = int_field(doc, "m", 1)
    if m == 1:
        return Zp(p, K)
    return UnramRing(p, K, m)


def _entry_to_wire(ring: AnyRing, raw):
    if isinstance(ring, Zp):
        return str(raw)
    return [str(c) for c in raw]


def _entry_from_wire(ring: AnyRing, wire, what: str = "matrix entry"):
    """An int, or a coefficient tuple over an extension ring, for a constructor to reduce."""
    if isinstance(ring, Zp) or not isinstance(wire, list):
        return read_int(wire, what)
    if len(wire) != ring.m:
        raise MalformedDocument(f"{what} has {len(wire)} coefficients, not m = {ring.m}")
    return tuple(read_int(c, what) for c in wire)


def matrix_to_doc(M: PadicMatrix) -> dict:
    return {
        **ring_header(M.ring),
        "n": M.n,
        "entries": [_entry_to_wire(M.ring, v) for row in M.rows for v in row],
    }


def matrix_from_doc(doc: dict) -> PadicMatrix:
    ring = ring_from_header(doc)
    n = int_field(doc, "n", cap=MAX_MATRIX_N)
    if n < 0:
        raise MalformedDocument(f"n = {n} must be >= 0")
    entries = _need(doc, "entries", list)
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


# Largest high - low over a polynomial document's terms nonzero mod p^K; the
# dense form allocates high - low + 1 coefficients.  At the cap orthogonal took
# 0.5-3.9 s and idempotents 0.6-4.8 s (README, "Polynomial documents").
MAX_EXPONENT_SPAN = 256

# Largest d for project-mod, which answers d components (all but at most 257
# of them zero).  At the cap a CLI process took 0.15-0.19 s and wrote 256 KB;
# at d = 10^6 it took 1.8-2.0 s and wrote 4 MB (README, "Polynomial documents").
MAX_PROJECT_MOD_D = 65536

# Largest k_max for seminorm, which takes up to k_max - 1 matrix products: 0.18 s
# on a 2 x 2 matrix and 1.1-1.3 s on an 8 x 8 one at the cap (README, "CLI").
MAX_SEMINORM_K = 4096

# Largest size for shift-model, which inverts the size x size shift by elimination
# over Z/p^K (`matrices._det_and_solve`, O(size^3) ring operations): a process took
# 0.08-0.14 s at p = 3, K = 2 and at p = 1000003, K = 8 at the cap (README, "CLI").
MAX_SHIFT_MODEL_SIZE = 32


def laurent_from_doc(doc: dict) -> LaurentPoly:
    """Read [exponent, coefficient] pairs; an exponent may appear once."""
    from .gm import LaurentPoly

    ring = ring_from_header(doc)
    if not isinstance(ring, Zp):
        raise MalformedDocument("polynomials carry base-ring coefficients")
    terms = {}
    for pair in _need(doc, "terms", list):
        if not isinstance(pair, list) or len(pair) != 2:
            raise MalformedDocument("terms are [exponent, coefficient] pairs")
        e = read_int(pair[0], "exponent")
        if e in terms:
            raise MalformedDocument(f"exponent {e} appears more than once in terms")
        terms[e] = read_int(pair[1], "coefficient") % ring.pk
    support = [e for e, c in terms.items() if c]
    span = max(support) - min(support) if support else 0
    if span > MAX_EXPONENT_SPAN:
        raise MalformedDocument(f"terms span {span} exponents, above the cap of {MAX_EXPONENT_SPAN}")
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
        ring, [_entry_from_wire(ring, v, "wave value") for v in _need(doc, "values", list)]
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
