"""Properties of the golden CLI corpus beyond its recorded bytes.

Metamorphic: a result depends only on the mathematical input, not on how the
document wrote it, so every case must give its recorded stdout bytes and exit
code after either rewrite of its input document:
(a) a seeded multiple of p^K, in [-3, 3] p^K, added to every matrix entry,
    wave value and polynomial coefficient under a {p, K} header, exponents
    left alone;
(b) every non-boolean JSON integer written as its decimal string, and the
    keys of every object in reverse order.

Round trip: every matrix, wave state and polynomial that a successful case
writes parses back through `serialize` and re-encodes to the same value, so
each is written at its header's precision with its entries reduced.
"""

import json
import random
import re
from pathlib import Path

import pytest

from padicu import cli, serialize

CASES = [
    json.loads(line)
    for line in (Path(__file__).parent / "golden" / "corpus.jsonl").read_text().splitlines()
]

COMMANDS = sorted({case["command"] for case in CASES})
_INTEGER = re.compile(r"-?[0-9]+")


def _is_integer(value) -> bool:
    if isinstance(value, str):
        return bool(_INTEGER.fullmatch(value))
    return isinstance(value, int) and not isinstance(value, bool)


def _header_modulus(doc: dict):
    """p^K for a valid {p, K} header of doc, else None."""
    p, K = doc.get("p"), doc.get("K")
    if not (_is_integer(p) and _is_integer(K)):
        return None
    p, K = int(p), int(K)
    return p**K if p >= 2 and 1 <= K <= serialize.MAX_PRECISION_K else None


def _add_multiples(node, rng: random.Random):
    """Rewrite (a): each residue under a {p, K} header moved by a multiple of p^K."""
    if isinstance(node, list):
        return [_add_multiples(item, rng) for item in node]
    if not isinstance(node, dict):
        return node
    out = {key: _add_multiples(value, rng) for key, value in node.items()}
    pk = _header_modulus(node)
    if pk is None:
        return out

    def moved(value):
        if isinstance(value, list):  # an extension-ring entry: one residue per coefficient
            return [moved(c) for c in value]
        if not _is_integer(value):
            return value
        shifted = int(value) + rng.randint(-3, 3) * pk
        return str(shifted) if isinstance(value, str) else shifted

    for key in ("entries", "values"):
        if isinstance(node.get(key), list):
            out[key] = [moved(value) for value in node[key]]
    if isinstance(node.get("terms"), list):
        out["terms"] = [
            [term[0], moved(term[1])] if isinstance(term, list) and len(term) == 2 else term
            for term in node["terms"]
        ]
    return out


def _restyle(node):
    """Rewrite (b): integers as decimal strings, every object's keys reversed."""
    if _is_integer(node):
        return str(node)
    if isinstance(node, list):
        return [_restyle(item) for item in node]
    if isinstance(node, dict):
        return {key: _restyle(node[key]) for key in reversed(node)}
    return node


def _run(command: str, text: str, path, capsys):
    path.write_text(text)
    code = cli.main([command, str(path)])
    return capsys.readouterr().out, code


@pytest.mark.parametrize("command", COMMANDS)
def test_rewritten_documents_give_the_recorded_bytes(command, tmp_path, capsys):
    rewrites = {
        "multiples of p^K": lambda doc, name: _add_multiples(doc, random.Random(name)),
        "strings and reversed keys": lambda doc, name: _restyle(doc),
    }
    cases = [case for case in CASES if case["command"] == command]
    differ = []
    for case in cases:
        doc = json.loads(case["input"])
        for label, rewrite in rewrites.items():
            text = json.dumps(rewrite(doc, case["case"]))
            out = _run(command, text, tmp_path / "input.json", capsys)
            if out != (case["stdout"], case["exit"]):
                differ.append((case["case"], label, out))
    assert cases and not differ


# -- round trip of every written value --------------------------------------------------


def _written(node, key: str):
    """Every object under node that has the field key: matrix or wave documents."""
    if isinstance(node, list):
        return [found for item in node for found in _written(item, key)]
    if not isinstance(node, dict):
        return []
    inner = [found for value in node.values() for found in _written(value, key)]
    return ([node] if key in node else []) + inner


def _dense_round_trip(p: int, j: int, coeffs: list) -> list:
    f = serialize.laurent_from_doc({"p": p, "K": j, "terms": [[i, c] for i, c in enumerate(coeffs)]})
    return [str(f.terms.get(i, 0)) for i in range(len(coeffs))]


def _polynomials(command: str, doc: dict, result: dict):
    """(written, re-encoded) for each polynomial the case writes, under (p, K = j)."""
    p = serialize.read_int(doc["f"]["p"], "p")
    j = serialize.read_int(doc["j"], "j")
    if command == "orthogonal":
        for key in ("bezout_k", "bezout_l") if result["orthogonal"] else ():
            f = serialize.laurent_from_doc({"p": p, "K": j, "terms": result[key]})
            yield result[key], serialize.laurent_to_doc(f)["terms"]
    elif command == "idempotents":
        for key in ("modulus", "p1", "p2"):
            yield result[key], _dense_round_trip(p, j, result[key])
    else:
        for factor in result["factors"]:
            yield factor["coeffs"], _dense_round_trip(p, j, factor["coeffs"])


_MATRIX_COMMANDS = [
    "classify", "decompose-zp", "galois-act", "jordan", "power-zp", "shift-model", "spectral",
]
_WAVE_COMMANDS = ["evolve", "measure"]
_POLYNOMIAL_COMMANDS = ["idempotents", "orthogonal", "teich-factor"]


@pytest.mark.parametrize("command", _MATRIX_COMMANDS + _WAVE_COMMANDS + _POLYNOMIAL_COMMANDS)
def test_every_written_value_parses_back_to_itself(command):
    cases = [case for case in CASES if case["command"] == command and case["exit"] == 0]
    checked, differ = 0, []  # checked counts the cases that write a value
    for case in cases:
        result = json.loads(case["stdout"])["result"]
        if command in _POLYNOMIAL_COMMANDS:
            pairs = list(_polynomials(command, json.loads(case["input"]), result))
        elif command in _WAVE_COMMANDS:
            pairs = [
                (w, serialize.wave_to_doc(serialize.wave_from_doc(w))) for w in _written(result, "values")
            ]
        else:
            pairs = [
                (m, serialize.matrix_to_doc(serialize.matrix_from_doc(m)))
                for m in _written(result, "entries")
            ]
        checked += bool(pairs)
        differ += [(case["case"], written) for written, again in pairs if written != again]
    assert checked and not differ
