"""CLI surface: dispatch, exit codes, determinism."""

import io
import json
import random
import time

import pytest

from padicu import cli, fppoly, serialize, unitary
from padicu.matrices import PadicMatrix
from padicu.scalars import Zp


def run_cli(command, doc, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code = cli.main([command, str(path)])
    out = capsys.readouterr().out
    return code, json.loads(out)


def matrix_doc(rows, p=3, K=3):
    n = len(rows)
    return {
        "p": p,
        "K": K,
        "m": 1,
        "n": n,
        "entries": [str(v % p**K) for row in rows for v in row],
    }


def test_classify_example(tmp_path, capsys):
    code, out = run_cli(
        "classify", {"matrix": matrix_doc([[1, 1], [0, 1]])}, tmp_path, capsys
    )
    assert code == 0
    assert out["result"]["class"] == "CONTINUOUS"
    assert out["schema"] == "padicu/1"


def test_jordan_identity(tmp_path, capsys):
    code, out = run_cli(
        "jordan", {"matrix": matrix_doc([[1, 0], [0, 1]])}, tmp_path, capsys
    )
    assert code == 0
    assert out["result"]["teichmuller_part"]["entries"] == ["1", "0", "0", "1"]
    assert out["result"]["continuous_part"]["entries"] == ["1", "0", "0", "1"]


def test_invalid_prime_is_exit_2(tmp_path, capsys):
    code, out = run_cli(
        "classify", {"matrix": matrix_doc([[1, 0], [0, 1]], p=2, K=3)}, tmp_path, capsys
    )
    assert code == 2
    assert out["error"]["code"] == "InvalidPrime"


def test_non_unit_determinant_is_exit_2(tmp_path, capsys):
    code, out = run_cli(
        "classify", {"matrix": matrix_doc([[3, 0], [0, 1]])}, tmp_path, capsys
    )
    assert code == 2
    assert out["error"]["code"] == "NotUnitary"


def test_malformed_document_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = cli.main(["classify", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["error"]["code"] == "MalformedDocument"


def test_spectral_precondition_is_exit_3(tmp_path, capsys):
    code, out = run_cli(
        "spectral", {"matrix": matrix_doc([[1, 1], [0, 1]])}, tmp_path, capsys
    )
    assert code == 3
    assert out["error"]["code"] == "NotTeichmuller"


def test_spectral_success(tmp_path, capsys):
    code, out = run_cli(
        "spectral", {"matrix": matrix_doc([[0, -1], [1, 0]], p=5, K=2)}, tmp_path, capsys
    )
    assert code == 0
    eigenvalues = sorted(
        orbit["eigenvalues"][0] for orbit in out["result"]["orbits"]
    )
    assert eigenvalues == ["18", "7"]


def test_decompose_fp_and_counts(tmp_path, capsys):
    code, out = run_cli(
        "decompose-fp", {"p": 3, "matrix": [[1, 1], [1, 0]]}, tmp_path, capsys
    )
    assert code == 0
    assert out["result"]["word"][1] >= 1
    t = out["result"]["t"]
    n = out["result"]["n"]
    prod = [
        [sum(t[i][k] * n[k][j] for k in range(2)) % 3 for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 1], [1, 0]]


def test_volume_and_shift_sum(tmp_path, capsys):
    code, out = run_cli("volume", {"c": 1, "d": 6}, tmp_path, capsys)
    assert code == 0 and out["result"]["volume"] == "1/6"
    poly = {"p": 5, "K": 2, "terms": [[0, "1"], [1, "1"], [2, "1"]]}
    code2, out2 = run_cli("shift-sum", {"f": poly, "c": 0, "d": 2}, tmp_path, capsys)
    assert code2 == 0 and out2["result"]["sum"] == "2"


def test_seminorm_paper_matrix(tmp_path, capsys):
    doc = {"matrix": matrix_doc([[0, 1], [0, 0]])}
    code, out = run_cli("seminorm", doc, tmp_path, capsys)
    assert code == 0
    assert out["result"]["zero"] is True
    assert out["result"]["nilpotency_k"] == 2


def test_stdin_input(capsys, monkeypatch):
    doc = json.dumps({"matrix": matrix_doc([[1, 0], [0, 1]])})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code = cli.main(["classify"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["result"]["class"] == "TEICHMULLER"


def test_byte_identical_determinism(tmp_path, capsys):
    doc = {"matrix": matrix_doc([[1, 1], [1, 0]])}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    cli.main(["jordan", str(path)])
    first = capsys.readouterr().out
    cli.main(["jordan", str(path)])
    second = capsys.readouterr().out
    assert first == second

    # seeded factorization: spectral output is stable across runs too
    doc2 = {"matrix": matrix_doc([[0, -1], [1, 0]], p=5, K=2)}
    path.write_text(json.dumps(doc2))
    cli.main(["spectral", str(path)])
    a = capsys.readouterr().out
    cli.main(["spectral", str(path)])
    assert a == capsys.readouterr().out


def test_unknown_suite_rejected(tmp_path, capsys, monkeypatch):
    from padicu import audits

    def must_not_run(seed):
        raise AssertionError("a suite ran before the suite name was checked")

    for name in audits.SUITES:
        monkeypatch.setitem(audits.SUITES, name, must_not_run)
    code, out = run_cli("audit", {"suite": "nope"}, tmp_path, capsys)
    assert code == 2
    assert out["error"] == {"code": "MalformedDocument", "reason": "unknown suite 'nope'"}


def test_audit_does_not_report_a_keyerror_inside_a_suite_as_unknown(tmp_path, capsys, monkeypatch):
    from padicu import audits

    def broken(seed):
        raise KeyError("raised inside the suite")

    monkeypatch.setitem(audits.SUITES, "glnp", broken)
    with pytest.raises(KeyError, match="raised inside the suite"):
        cli.cmd_audit({"suite": "glnp"})
    # a built-in exception is a bug: it escapes main as a traceback, not as exit 2
    with pytest.raises(KeyError, match="raised inside the suite"):
        run_cli("audit", {"suite": "glnp"}, tmp_path, capsys)


def test_audit_single_suite(tmp_path, capsys):
    code, out = run_cli("audit", {"suite": "glnp"}, tmp_path, capsys)
    assert code == 0
    assert out["result"]["passed"] is True
    assert out["result"]["suites"][0]["checks"] > 48


@pytest.mark.parametrize(
    "command,doc",
    [
        ("power-zp", {"matrix": {"p": 3, "K": 3, "n": 2, "entries": ["1", "1", "0", "1"]}, "t": "5"}),
        ("projection", {"matrix": {"p": 5, "K": 2, "n": 2, "entries": ["1", "0", "0", "24"]}, "j": 1, "poly": {"p": 5, "K": 2, "terms": [[0, "-1"], [1, "1"]]}}),
        ("teich-factor", {"f": {"p": 5, "K": 3, "terms": [[0, "2"], [1, "122"], [2, "1"]]}, "j": 2}),
        ("idempotents", {"f": {"p": 5, "K": 2, "terms": [[0, "-1"], [1, "1"]]}, "g": {"p": 5, "K": 2, "terms": [[0, "-2"], [1, "1"]]}, "j": 2}),
        ("principal-exponent", {"matrix": {"p": 3, "K": 2, "n": 2, "entries": ["1", "1", "0", "1"]}, "j": 2}),
        ("project-mod", {"f": {"p": 5, "K": 2, "terms": [[0, "1"], [2, "1"]]}, "d": 2}),
        ("orthogonal", {"f": {"p": 5, "K": 2, "terms": [[0, "-1"], [1, "1"]]}, "g": {"p": 5, "K": 2, "terms": [[0, "-2"], [1, "1"]]}, "j": 2}),
        ("spectrum-table", {"matrix": {"p": 5, "K": 2, "n": 2, "entries": ["1", "0", "0", "24"]}, "j_list": [1, "1-"]}),
        ("galois-act", {"matrix": {"p": 5, "K": 2, "n": 2, "entries": ["1", "0", "0", "24"]}, "k": 1}),
        ("decompose-zp", {"matrix": {"p": 3, "K": 2, "n": 2, "entries": ["1", "1", "1", "0"]}}),
        ("shift-model", {"size": 3, "p": 3, "K": 2}),
        ("measure", {"projector": {"p": 3, "K": 2, "n": 2, "entries": ["1", "0", "0", "0"]}, "psi": {"p": 3, "K": 2, "values": ["1", "1"]}}),
        ("probability", {"projectors": [{"p": 3, "K": 2, "n": 2, "entries": ["1", "0", "0", "0"]}, {"p": 3, "K": 2, "n": 2, "entries": ["0", "0", "0", "1"]}], "psi": {"p": 3, "K": 2, "values": ["1", "3"]}}),
        ("evolve", {"h": {"p": 3, "K": 3, "n": 2, "entries": ["0", "1", "0", "0"]}, "u": {"p": 3, "K": 3, "n": 2, "entries": ["1", "0", "0", "1"]}, "psi": {"p": 3, "K": 3, "values": ["1", "1"]}, "k": 2, "t": 3}),
        ("torus", {"u": {"p": 5, "K": 2, "n": 2, "entries": ["1", "0", "0", "24"]}, "v": {"p": 5, "K": 2, "n": 2, "entries": ["0", "1", "1", "0"]}}),
    ],
)
def test_every_command_runs_clean(command, doc, tmp_path, capsys):
    code, out = run_cli(command, doc, tmp_path, capsys)
    assert code == 0, out
    assert "result" in out


@pytest.mark.parametrize("entry", ["1", "4", "-2"])
def test_classify_reads_any_residue_representative(entry, tmp_path, capsys):
    doc = {"matrix": {"p": 3, "K": 1, "n": 2, "entries": [entry, "0", "0", "1"]}}
    code, out = run_cli("classify", doc, tmp_path, capsys)
    assert code == 0
    assert out["result"]["class"] == "TEICHMULLER"


def _integer_slots(doc, pk=None):
    """(container, index, p^K) for every integer an input document carries mod p^K."""
    if isinstance(doc, dict):
        if "p" in doc and "K" in doc:
            pk = doc["p"] ** doc["K"]
            for key in ("entries", "values"):
                for i in range(len(doc.get(key, []))):
                    yield doc[key], i, pk
            for term in doc.get("terms", []):
                yield term, 1, pk
        for value in doc.values():
            yield from _integer_slots(value, pk)
    elif isinstance(doc, list):
        for value in doc:
            if isinstance(value, dict):
                yield from _integer_slots(value, pk)


SHIFT_DOCS = [
    ("classify", {"matrix": matrix_doc([[1, 1], [0, 1]])}),
    ("classify", {"matrix": matrix_doc([[0, -1], [1, 0]], p=5, K=2)}),
    ("jordan", {"matrix": matrix_doc([[1, 1], [1, 0]])}),
    ("spectral", {"matrix": matrix_doc([[0, -1], [1, 0]], p=5, K=2)}),
    ("power-zp", {"matrix": matrix_doc([[1, 3], [0, 1]]), "t": "5"}),
    ("seminorm", {"matrix": matrix_doc([[3, 1], [0, 9]])}),
    ("decompose-zp", {"matrix": matrix_doc([[1, 1], [1, 0]], K=2)}),
    ("principal-exponent", {"matrix": matrix_doc([[2, 1], [0, 1]], K=2), "j": 2}),
    ("projection", {"matrix": matrix_doc([[1, 0], [0, 24]], p=5, K=2), "j": 1,
                    "poly": {"p": 5, "K": 2, "terms": [[0, "-1"], [1, "1"]]}}),
    ("orthogonal", {"f": {"p": 5, "K": 2, "terms": [[0, "-1"], [1, "1"]]},
                    "g": {"p": 5, "K": 2, "terms": [[0, "-2"], [1, "1"]]}, "j": 2}),
    ("measure", {"projector": matrix_doc([[1, 0], [0, 0]], K=2),
                 "psi": {"p": 3, "K": 2, "values": ["1", "1"]}}),
    ("torus", {"u": matrix_doc([[1, 0], [0, 24]], p=5, K=2),
               "v": matrix_doc([[0, 1], [1, 0]], p=5, K=2)}),
]


@pytest.mark.parametrize("command,doc", SHIFT_DOCS, ids=[c for c, _ in SHIFT_DOCS])
def test_output_ignores_multiples_of_pk(command, doc, tmp_path, capsys):
    """Adding a multiple of p^K to any entry never changes the output bytes."""
    path = tmp_path / "in.json"

    def run(d):
        path.write_text(json.dumps(d))
        code = cli.main([command, str(path)])
        return code, capsys.readouterr().out

    expected = run(doc)
    rng = random.Random(command)
    for _ in range(6):
        shifted = json.loads(json.dumps(doc))
        for container, i, pk in _integer_slots(shifted):
            if rng.random() < 0.5:
                container[i] = str(int(container[i]) + pk * rng.choice([-3, -1, 1, 2, 5]))
        assert run(shifted) == expected


def _evolve_doc(allow):
    nine = matrix_doc([[9, 0], [0, 9]])
    return {"h": nine, "u": matrix_doc([[1, 0], [0, 1]]),
            "psi": {"p": 3, "K": 3, "values": ["1", "1"]}, "k": 1, "t": 1,
            "allow_extended_radius": allow}


def test_evolve_override_must_be_a_json_boolean(tmp_path, capsys):
    code, out = run_cli("evolve", _evolve_doc("false"), tmp_path, capsys)
    assert code == 2
    assert out["error"]["code"] == "MalformedDocument"
    code, out = run_cli("evolve", _evolve_doc(False), tmp_path, capsys)
    assert code == 3
    assert out["error"]["code"] == "RadiusViolation"
    code, out = run_cli("evolve", _evolve_doc(True), tmp_path, capsys)
    assert code == 0


_POLY = {"p": 5, "K": 2, "terms": [[0, "-1"], [1, "1"]]}
_UNRAM = {"p": 3, "K": 2, "m": 2, "n": 2, "entries": [["1", "1"], ["0", "0"], ["0", "0"], "1"]}
_WAVE = {"projector": matrix_doc([[1, 0], [0, 0]], K=2), "psi": {"p": 3, "K": 2, "values": ["1", "1"]}}

# (command, document, path to one integer field)
INTEGER_FIELDS = [
    ("classify", {"matrix": matrix_doc([[1, 1], [0, 1]])}, ["matrix", "p"]),
    ("classify", {"matrix": matrix_doc([[1, 1], [0, 1]])}, ["matrix", "K"]),
    ("classify", {"matrix": matrix_doc([[1, 1], [0, 1]])}, ["matrix", "m"]),
    ("classify", {"matrix": matrix_doc([[1, 1], [0, 1]])}, ["matrix", "n"]),
    ("classify", {"matrix": matrix_doc([[1, 1], [0, 1]])}, ["matrix", "entries", 1]),
    ("classify", {"matrix": _UNRAM}, ["matrix", "entries", 0, 1]),
    ("classify", {"matrix": _UNRAM}, ["matrix", "entries", 3]),
    ("power-zp", {"matrix": matrix_doc([[1, 3], [0, 1]]), "t": "5"}, ["t"]),
    ("galois-act", {"matrix": matrix_doc([[1, 0], [0, 24]], p=5, K=2), "k": 1}, ["k"]),
    ("projection", {"matrix": matrix_doc([[1, 0], [0, 24]], p=5, K=2), "j": 1, "poly": _POLY}, ["j"]),
    ("orthogonal", {"f": _POLY, "g": {"p": 5, "K": 2, "terms": [[0, "-2"], [1, "1"]]}, "j": 2},
     ["f", "terms", 1, 0]),
    ("orthogonal", {"f": _POLY, "g": {"p": 5, "K": 2, "terms": [[0, "-2"], [1, "1"]]}, "j": 2},
     ["g", "terms", 0, 1]),
    ("spectrum-table", {"matrix": matrix_doc([[1, 0], [0, 24]], p=5, K=2), "j_list": [1, "1-"]},
     ["j_list", 0]),
    ("teich-factor", {"f": {"p": 5, "K": 3, "terms": [[0, "2"], [1, "122"], [2, "1"]]}, "j": 2}, ["j"]),
    ("shift-sum", {"f": _POLY, "c": 0, "d": 2}, ["c"]),
    ("shift-sum", {"f": _POLY, "c": 0, "d": 2}, ["d"]),
    ("project-mod", {"f": _POLY, "d": 2}, ["d"]),
    ("volume", {"quotient_order": 6}, ["quotient_order"]),
    ("volume", {"c": 1, "d": 3}, ["d"]),
    ("decompose-fp", {"p": 3, "matrix": [[1, 1], [1, 0]]}, ["p"]),
    ("decompose-fp", {"p": 3, "matrix": [[1, 1], [1, 0]]}, ["matrix", 1, 0]),
    ("measure", _WAVE, ["psi", "values", 1]),
    ("evolve", _evolve_doc(True), ["k"]),
    ("evolve", _evolve_doc(True), ["t"]),
    ("shift-model", {"size": 3, "p": 3, "K": 2}, ["size"]),
    ("shift-model", {"size": 3, "p": 3, "K": 2}, ["K"]),
    ("seminorm", {"matrix": matrix_doc([[3, 1], [0, 9]]), "k_max": 8}, ["k_max"]),
    ("audit", {"suite": "linalg", "seed": 3}, ["seed"]),
]


@pytest.mark.parametrize(
    "command,doc,path", INTEGER_FIELDS,
    ids=[f"{c}-{'.'.join(map(str, p))}" for c, _, p in INTEGER_FIELDS])
def test_integer_fields_accept_only_integers_and_digit_strings(command, doc, path, tmp_path, capsys):
    """A JSON integer and its decimal string read alike; anything else is exit 2."""
    file = tmp_path / "in.json"

    def run(value):
        edited = json.loads(json.dumps(doc))
        slot = edited
        for key in path[:-1]:
            slot = slot[key]
        slot[path[-1]] = value
        file.write_text(json.dumps(edited))
        code = cli.main([command, str(file)])
        return code, capsys.readouterr().out

    slot = doc
    for key in path:
        slot = slot[key]
    value = int(slot)
    expected = run(value)
    assert expected[0] == 0, expected
    assert run(str(value)) == expected
    for bad in (value + 0.9, float(value), True, False, None, [value], f"{value}.0", f" {value}",
                f"+{value}", "1e3", "0x1", "", "٣"):
        code, out = run(bad)
        assert code == 2, (bad, out)
        assert json.loads(out)["error"]["code"] == "MalformedDocument", (bad, out)


def unram_doc(entries, p=3, K=2, m=2):
    """An n x n matrix over the degree-m unramified ring; entries are coefficient lists."""
    n = int(len(entries) ** 0.5)
    return {"p": p, "K": K, "m": m, "n": n, "entries": [[str(c) for c in e] for e in entries]}


def run_one_line(command, doc, tmp_path, capsys):
    """Exit code and the one JSON document the CLI must print."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code = cli.main([command, str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1, lines
    return code, json.loads(lines[0])


def test_torus_over_extension_ring(tmp_path, capsys):
    """u = diag(1, -1), v = swap over UnramRing(3, 2, 2): uv = xi vu with xi = -1."""
    doc = {"u": unram_doc([(1, 0), (0, 0), (0, 0), (8, 0)]),
           "v": unram_doc([(0, 0), (1, 0), (1, 0), (0, 0)])}
    code, out = run_one_line("torus", doc, tmp_path, capsys)
    assert code == 0, out
    assert out["result"] == {"xi": ["8", "0"], "bound": 4, "near_commutative_at": [1, 2]}


def test_torus_with_a_fourth_root_of_unity_outside_zp(tmp_path, capsys):
    """Z_3 has no primitive 4th root of unity; its degree-2 extension does: xi = i.

    At K = 1 the shipped modulus is w^2 + 2w + 2, so w^2 = w + 1 and i = w^2
    satisfies i^2 = -1.  The clock diag(i^r) and the cyclic shift give xi = i.
    """
    zero, one = (0, 0), (1, 0)
    powers = [one, (1, 1), (2, 0), (2, 2)]  # i^0, ..., i^3
    clock = [powers[r] if r == c else zero for r in range(4) for c in range(4)]
    shift = [one if r == (c + 1) % 4 else zero for r in range(4) for c in range(4)]
    doc = {"u": unram_doc(clock, K=1), "v": unram_doc(shift, K=1)}
    code, out = run_one_line("torus", doc, tmp_path, capsys)
    assert code == 0, out
    assert out["result"]["xi"] == ["1", "1"]


def test_measure_over_extension_ring(tmp_path, capsys):
    doc = {"projector": unram_doc([(1, 0), (0, 0), (0, 0), (0, 0)]),
           "psi": {"p": 3, "K": 2, "m": 2, "values": ["1", "1"]}}
    code, out = run_one_line("measure", doc, tmp_path, capsys)
    assert code == 0, out
    assert out["result"]["state"]["values"] == [["1", "0"], ["0", "0"]]
    assert out["result"]["state"]["m"] == 2
    assert out["result"]["norm"]["valuation"] == 0


def test_probability_over_extension_ring(tmp_path, capsys):
    doc = {"projectors": [unram_doc([(1, 0), (0, 0), (0, 0), (0, 0)]),
                          unram_doc([(0, 0), (0, 0), (0, 0), (1, 0)])],
           "psi": {"p": 3, "K": 2, "m": 2, "values": ["1", "3"]}}
    code, out = run_one_line("probability", doc, tmp_path, capsys)
    assert code == 0, out
    assert [e["valuation"] for e in out["result"]["per_event"]] == [0, 1]
    assert out["result"]["total"]["valuation"] == 0


def test_projection_kernel_over_extension_ring(tmp_path, capsys):
    """ker(U - I) mod 3 for U = diag(1, -1) over UnramRing(3, 2, 2) is spanned by e_1."""
    doc = {"matrix": unram_doc([(1, 0), (0, 0), (0, 0), (8, 0)]), "j": 1,
           "poly": {"p": 3, "K": 2, "terms": [[0, "-1"], [1, "1"]]}}
    code, out = run_one_line("projection", doc, tmp_path, capsys)
    assert code == 0, out
    assert out["result"]["kernel_basis"] == [[["1", "0"], ["0", "0"]]]
    assert out["result"]["cokernel_divisors"] == [0, 1]


@pytest.mark.parametrize("t,upper", [(2, "2"), (10, "1"), (-1, "8")])
def test_power_zp_over_extension_ring(t, upper, tmp_path, capsys):
    """[[1, 1], [0, 1]]^t = [[1, t], [0, 1]] over UnramRing(3, 2, 2)."""
    doc = {"matrix": unram_doc([(1, 0), (1, 0), (0, 0), (1, 0)]), "t": t}
    code, out = run_one_line("power-zp", doc, tmp_path, capsys)
    assert code == 0, out
    assert out["result"]["power"]["entries"] == [["1", "0"], [upper, "0"], ["0", "0"], ["1", "0"]]


@pytest.mark.parametrize("t", [3, -1])
def test_power_zp_on_a_jordan_block_longer_than_p(t, tmp_path, capsys):
    """(I + N)^3 = I + N^3 != I for the 4 x 4 block over Z/3, and t = -1 is the inverse."""
    rows = [[1 if j in (i, i + 1) else 0 for j in range(4)] for i in range(4)]
    doc = {"matrix": matrix_doc(rows, 3, 1), "t": t}
    code, out = run_one_line("power-zp", doc, tmp_path, capsys)
    assert code == 0, out
    expected = PadicMatrix(Zp(3, 1), rows).matrix_power(t)
    assert out["result"]["power"]["entries"] == [str(v) for row in expected.rows for v in row]
    if t == 3:
        assert expected != PadicMatrix.identity(Zp(3, 1), 4)


def test_idempotents_of_a_unit_product_split_the_zero_ring(tmp_path, capsys):
    """f = -t, g = -t^2 - 3t at p = 3, j = 1: both shifted forms are constants,
    so fg is a unit and the quotient by (p^j, fg) is the zero ring."""
    doc = {"f": {"p": 3, "K": 1, "terms": [[1, "-1"]]},
           "g": {"p": 3, "K": 1, "terms": [[1, "-3"], [2, "-1"]]}, "j": 1}
    code, out = run_one_line("idempotents", doc, tmp_path, capsys)
    assert code == 0, out
    assert out["result"]["p1"] == [] and out["result"]["p2"] == []


@pytest.mark.parametrize("m", [1, 2, 3])
def test_measured_state_reads_back_as_psi(m, tmp_path, capsys):
    """The state that measure writes parses as the psi of the next document."""
    def value(*coeffs):
        return str(coeffs[0]) if m == 1 else [str(c) for c in (coeffs + (0,) * m)[:m]]

    projector = {"p": 3, "K": 2, "m": m, "n": 2,
                 "entries": [value(1), value(0), value(0), value(0)]}
    psi = {"p": 3, "K": 2, "m": m, "values": [value(4, 1, 2), value(5, 7, 1)]}
    code, first = run_one_line("measure", {"projector": projector, "psi": psi}, tmp_path, capsys)
    assert code == 0, first
    state = first["result"]["state"]
    code, second = run_one_line("measure", {"projector": projector, "psi": state}, tmp_path, capsys)
    assert code == 0, second
    assert second["result"]["state"] == state


def test_galois_act_on_a_degree_five_residue_factor(tmp_path, capsys):
    """x^5 + 2x + 1 is irreducible mod 3: no shipped modulus, yet sigma is the cube."""
    assert fppoly.is_irreducible([1, 2, 0, 0, 0, 1], 3)
    ring = Zp(3, 3)
    u, _ = unitary.jordan_decompose(PadicMatrix.companion(ring, [1, 2, 0, 0, 0]))
    doc = {"matrix": matrix_doc([list(row) for row in u.rows]), "k": 1}
    code, out = run_one_line("galois-act", doc, tmp_path, capsys)
    assert code == 0, out
    acted = out["result"]["acted"]["entries"]
    assert acted == [str(v) for row in (u @ u @ u).rows for v in row]
    code, out = run_one_line("galois-act", dict(doc, k=5), tmp_path, capsys)
    assert code == 0, out
    assert out["result"]["acted"]["entries"] == [str(v) for row in u.rows for v in row]


def _poly_doc(terms, p=3, K=2):
    return {"p": p, "K": K, "terms": [[e, str(c)] for e, c in terms]}


@pytest.mark.parametrize("command", ["orthogonal", "idempotents", "teich-factor", "shift-sum", "project-mod"])
@pytest.mark.parametrize("high", [serialize.MAX_EXPONENT_SPAN + 1, 100_000_000])
def test_a_polynomial_wider_than_the_span_cap_is_exit_2_at_once(command, high, tmp_path, capsys):
    wide = _poly_doc([(0, 1), (high, 1)])
    doc = {"f": wide, "g": _poly_doc([(0, 1), (1, 1)]), "j": 2, "c": 0, "d": 3}
    start = time.perf_counter()
    code, out = run_one_line(command, doc, tmp_path, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out["error"]["code"] == "MalformedDocument"
    assert f"cap of {serialize.MAX_EXPONENT_SPAN}" in out["error"]["reason"]


@pytest.mark.parametrize("command", ["shift-sum", "project-mod"])
def test_a_polynomial_at_the_span_cap_is_read(command, tmp_path, capsys):
    """The span counts terms that are nonzero mod p^K; a zero term far out does not widen it."""
    cap = serialize.MAX_EXPONENT_SPAN
    f = _poly_doc([(-3, 1), (cap - 3, 2), (10**9, 9)])
    code, out = run_one_line(command, {"f": f, "c": 0, "d": 3}, tmp_path, capsys)
    assert code == 0, out


@pytest.mark.parametrize("above", [0, 1, 100_000_000])
def test_project_mod_answers_d_up_to_its_cap(above, tmp_path, capsys):
    cap = serialize.MAX_PROJECT_MOD_D
    doc = {"f": _poly_doc([(-1, 4), (5, 2)]), "d": str(cap + above)}
    start = time.perf_counter()
    code, out = run_one_line("project-mod", doc, tmp_path, capsys)
    assert time.perf_counter() - start < 1.0
    if above == 0:
        components = out["result"]["components"]
        assert code == 0 and len(components) == cap
        assert components[5] == "2" and components[-1] == "4"
        assert components.count("0") == cap - 2
    else:
        assert code == 2
        assert out["error"] == {"code": "MalformedDocument",
                                "reason": f"d = {cap + above} is above the cap of {cap}"}


def test_a_repeated_exponent_is_exit_2_in_either_order(tmp_path, capsys):
    outs = []
    for terms in ([(0, 1), (0, 2), (1, 1)], [(0, 2), (0, 1), (1, 1)]):
        doc = {"f": _poly_doc(terms), "c": 0, "d": 1}
        code, out = run_one_line("shift-sum", doc, tmp_path, capsys)
        assert code == 2
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0]["error"] == {"code": "MalformedDocument",
                                "reason": "exponent 0 appears more than once in terms"}


def test_idempotents_with_a_non_unit_lead_of_fg_is_exit_3(tmp_path, capsys):
    """f = 3t + 1 and g = t + 1 are orthogonal mod 9, but fg has lead 3."""
    doc = {"f": _poly_doc([(0, 1), (1, 3)]), "g": _poly_doc([(0, 1), (1, 1)]), "j": 2}
    code, out = run_one_line("orthogonal", doc, tmp_path, capsys)
    assert code == 0 and out["result"]["orthogonal"] is True
    code, out = run_one_line("idempotents", doc, tmp_path, capsys)
    assert code == 3
    assert out["error"]["code"] == "NonUnitLead"


@pytest.mark.parametrize("k_max", [-5, 0, serialize.MAX_SEMINORM_K, serialize.MAX_SEMINORM_K + 1, 10**8])
def test_seminorm_answers_k_max_from_1_up_to_its_cap(k_max, tmp_path, capsys):
    doc = {"matrix": matrix_doc([[1, 1], [0, 1]]), "k_max": k_max}
    start = time.perf_counter()
    code, out = run_one_line("seminorm", doc, tmp_path, capsys)
    assert time.perf_counter() - start < 1.0
    if k_max == serialize.MAX_SEMINORM_K:
        assert code == 0 and out["result"]["best_k"] == 1 and out["result"]["valuation"] == 0
    elif k_max < 1:
        assert code == 2
        assert out["error"] == {"code": "InputError", "reason": f"k_max = {k_max} must be >= 1"}
    else:
        assert code == 2
        assert out["error"] == {"code": "MalformedDocument",
                                "reason": f"k_max = {k_max} is above the cap of {serialize.MAX_SEMINORM_K}"}


@pytest.mark.parametrize("size", [serialize.MAX_SHIFT_MODEL_SIZE, serialize.MAX_SHIFT_MODEL_SIZE + 1, 100_000])
def test_shift_model_answers_sizes_up_to_its_cap(size, tmp_path, capsys):
    start = time.perf_counter()
    code, out = run_one_line("shift-model", {"size": size, "p": 3, "K": 2}, tmp_path, capsys)
    assert time.perf_counter() - start < 1.0
    if size == serialize.MAX_SHIFT_MODEL_SIZE:
        assert code == 0 and out["result"]["checked_dimension"] == size - 1
    else:
        assert code == 2
        assert out["error"] == {"code": "MalformedDocument",
                                "reason": f"size = {size} is above the cap of {serialize.MAX_SHIFT_MODEL_SIZE}"}


def _matrix_docs(value):
    """Every matrix document inside a CLI result, in document order."""
    if isinstance(value, dict):
        if "entries" in value and "n" in value:
            yield value
        else:
            for v in value.values():
                yield from _matrix_docs(v)
    elif isinstance(value, list):
        for v in value:
            yield from _matrix_docs(v)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_every_matrix_the_cli_writes_reads_back(m, tmp_path, capsys):
    """classify, jordan, power-zp, galois-act and spectral: each matrix document
    in the result parses through `matrix_from_doc` to the library's own matrix.

    `spectral` and `galois-act` take base-ring operators only (over an extension
    ring they are exit 3 `Unsupported`), so they run on a Teichmuller operator over Z_p with
    residue factors of degrees m and 1, whose projectors lie over those rings.
    """
    from padicu import moduli
    from padicu.sampling import random_matrix, random_unitary
    from padicu.scalars import unram

    rng = random.Random(m)
    ring = Zp(3, 3) if m == 1 else unram(3, 3, m)
    U, R = random_unitary(ring, 3, rng), random_matrix(ring, 3, rng)
    upper = [[v if j > i else ring.zero for j, v in enumerate(row)] for i, row in enumerate(R.rows)]
    noise = random_matrix(ring, 3, rng).scale(3)
    C = PadicMatrix.identity(ring, 3) + PadicMatrix(ring, upper) + noise  # unipotent residue
    block = PadicMatrix.companion(Zp(3, 3), list(moduli.canonical_modulus(3, m, 3))[:-1])
    T = PadicMatrix(block.ring, [list(row) + [0] for row in block.rows] + [[0] * m + [1]])
    datum = unitary.teichmuller_spectral(T)
    cases = [
        ("classify", {}, U, [unitary.classify(U).witness]),
        ("jordan", {}, U, list(unitary.jordan_decompose(U))[::-1]),  # keys sorted: U_n first
        ("power-zp", {"t": 7}, C, [unitary.power_zp(C, 7)]),
        ("galois-act", {"k": 1}, T, [unitary.galois_act(T, 1)]),
        ("spectral", {}, T, [P for o in datum.orbits for P in o.projectors] + [datum.unipotent]),
    ]
    for command, extra, A, expected in cases:
        doc = {"matrix": serialize.matrix_to_doc(A), **extra}
        code, out = run_one_line(command, doc, tmp_path, capsys)
        assert code == 0, (command, out)
        written = list(_matrix_docs(out["result"]))
        assert [serialize.matrix_from_doc(d) for d in written] == expected, command
    assert {d["m"] for d in written[:-1]} == {1, m}


@pytest.mark.parametrize("terms,shift,unit", [([[2, "56"]], 2, "2"), ([[0, "5"]], 0, "5")])
def test_teich_factor_of_a_unit_monomial_is_exit_0(terms, shift, unit, tmp_path, capsys):
    doc = {"f": {"p": 3, "K": 4, "terms": terms}, "j": 3}
    code, out = run_one_line("teich-factor", doc, tmp_path, capsys)
    assert code == 0
    assert out["result"] == {"factors": [], "shift": shift, "unit": unit}


@pytest.mark.parametrize("raw", [b"\xff", b'{"matrix": "\xff"}', b"\xef\xbb\xbf\x80{}"])
def test_a_file_that_is_not_utf8_is_exit_2(raw, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code = cli.main(["classify", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2 and len(lines) == 1
    assert json.loads(lines[0])["error"]["code"] == "MalformedDocument"


@pytest.mark.parametrize("digits", [4301, 10_000])
@pytest.mark.parametrize("as_string", [False, True])
def test_an_integer_over_4300_digits_is_exit_2(digits, as_string, tmp_path, capsys):
    """json.loads refuses such a literal and read_int such a string: both are exit 2."""
    entry = "1" * digits
    raw = '{"matrix": {"p": 3, "K": 2, "n": 1, "entries": [%s]}}' % (f'"{entry}"' if as_string else entry)
    path = tmp_path / "big.json"
    path.write_text(raw)
    code = cli.main(["classify", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error"]["code"] == "MalformedDocument"


@pytest.mark.parametrize("as_string", [False, True])
def test_an_integer_of_4300_digits_is_read(as_string, tmp_path, capsys):
    entry = "1" * 4300  # 7 mod 9, so the 1 x 1 matrix is 1 mod 3: continuous
    doc = {"matrix": {"p": 3, "K": 2, "n": 1, "entries": [entry if as_string else int(entry)]}}
    code, out = run_one_line("classify", doc, tmp_path, capsys)
    assert code == 0 and out["result"]["class"] == "CONTINUOUS"


_WAVE_2 = {"p": 3, "K": 2, "values": ["1", "2"]}
_IDEM_2 = {"p": 3, "K": 2, "n": 2, "entries": ["1", "0", "0", "0"]}
# strings, objects and scalars where a reader needs a JSON array (or a string)
SHAPE_DOCS = [
    ("classify", {"matrix": {"p": 3, "K": 2, "n": 2, "entries": "1101"}}),
    ("teich-factor", {"f": {"p": 3, "K": 2, "terms": {"13": "x"}}, "j": 1}),
    ("teich-factor", {"f": {"p": 3, "K": 2, "terms": ["13", "24"]}, "j": 1}),
    ("teich-factor", {"f": {"p": 3, "K": 2, "terms": [{"1": 3}]}, "j": 1}),
    ("decompose-fp", {"p": 3, "matrix": ["11", "10"]}),
    ("decompose-fp", {"p": 3, "matrix": "1110"}),
    ("measure", {"projector": _IDEM_2, "psi": {"p": 3, "K": 2, "values": "12"}}),
    ("spectrum-table", {"matrix": matrix_doc([[1, 0], [0, 8]], K=2), "j_list": "12"}),
    ("probability", {"projectors": {"p": 3, "K": 2, "n": 2, "entries": []}, "psi": _WAVE_2}),
    ("audit", {"suite": ["glnp"]}),
    ("audit", {"suite": 3}),
]


@pytest.mark.parametrize("command,doc", SHAPE_DOCS,
                         ids=[f"{c}-{i}" for i, (c, _) in enumerate(SHAPE_DOCS)])
def test_a_string_or_object_where_a_list_is_needed_is_exit_2(command, doc, tmp_path, capsys):
    code, out = run_one_line(command, doc, tmp_path, capsys)
    assert code == 2
    assert out["error"]["code"] == "MalformedDocument"


@pytest.mark.parametrize("K", [serialize.MAX_PRECISION_K, serialize.MAX_PRECISION_K + 1, 10**6])
@pytest.mark.parametrize("command", ["classify", "shift-model"])
def test_ring_headers_answer_K_up_to_its_cap(command, K, tmp_path, capsys):
    if command == "classify":
        doc = {"matrix": matrix_doc([[1, 1], [0, 1]], p=7, K=K)}
    else:
        doc = {"size": 3, "p": 7, "K": K}
    start = time.perf_counter()
    code, out = run_one_line(command, doc, tmp_path, capsys)
    assert time.perf_counter() - start < 1.0
    if K == serialize.MAX_PRECISION_K:
        assert code == 0
    else:
        assert code == 2
        assert out["error"] == {"code": "MalformedDocument",
                                "reason": f"K = {K} is above the cap of {serialize.MAX_PRECISION_K}"}


@pytest.mark.parametrize("n", [serialize.MAX_MATRIX_N, serialize.MAX_MATRIX_N + 1, 10**6])
def test_matrix_documents_answer_n_up_to_its_cap(n, tmp_path, capsys):
    side = min(n, serialize.MAX_MATRIX_N)
    rows = [[int(i == j or j == i + 1) for j in range(side)] for i in range(side)]
    doc = {"matrix": {**matrix_doc(rows, K=2), "n": n}}
    start = time.perf_counter()
    code, out = run_one_line("classify", doc, tmp_path, capsys)
    assert time.perf_counter() - start < 1.0
    if n == serialize.MAX_MATRIX_N:
        assert code == 0 and out["result"]["class"] == "CONTINUOUS"
    else:
        assert code == 2
        assert out["error"] == {"code": "MalformedDocument",
                                "reason": f"n = {n} is above the cap of {serialize.MAX_MATRIX_N}"}


def test_a_negative_n_is_exit_2_and_n_zero_is_read(tmp_path, capsys):
    doc = {"matrix": {"p": 3, "K": 2, "n": -2, "entries": ["1", "0", "0", "1"]}}
    code, out = run_one_line("classify", doc, tmp_path, capsys)
    assert code == 2
    assert out["error"] == {"code": "MalformedDocument", "reason": "n = -2 must be >= 0"}
    code, out = run_one_line("classify", {"matrix": {"p": 3, "K": 2, "n": 0, "entries": []}},
                             tmp_path, capsys)
    assert code == 0 and out["result"]["class"] == "TEICHMULLER"


_UNRAM_ID = unram_doc([(1, 0), (0, 0), (0, 0), (1, 0)])
_UNRAM_H = unram_doc([(3, 0), (0, 0), (0, 0), (0, 0)])
UNSUPPORTED_DOCS = [
    ("spectral", {"matrix": _UNRAM_ID}),
    ("galois-act", {"matrix": _UNRAM_ID, "k": 1}),
    ("spectrum-table", {"matrix": _UNRAM_ID, "j_list": [1]}),
    ("decompose-zp", {"matrix": _UNRAM_ID}),
    ("decompose-zp", {"matrix": matrix_doc([[0, 1], [1, 0]], p=11, K=2)}),
    ("decompose-fp", {"p": 11, "matrix": [[0, 1], [1, 0]]}),
    ("classify", {"matrix": {"p": 3, "K": 2, "m": 5, "n": 1, "entries": ["1"]}}),
    ("evolve", {"h": _UNRAM_H, "u": _UNRAM_ID, "psi": {"p": 3, "K": 2, "m": 2, "values": ["1", "0"]},
                "k": 1, "t": 3}),
]


@pytest.mark.parametrize("command,doc", UNSUPPORTED_DOCS,
                         ids=[f"{c}-{i}" for i, (c, _) in enumerate(UNSUPPORTED_DOCS)])
def test_a_valid_input_the_library_does_not_support_is_exit_3(command, doc, tmp_path, capsys):
    code, out = run_one_line(command, doc, tmp_path, capsys)
    assert code == 3
    assert out["error"]["code"] == "Unsupported"


@pytest.mark.parametrize("values", [["1"], ["1", "2", "0"]])
@pytest.mark.parametrize("command", ["measure", "probability", "evolve"])
def test_a_wave_of_the_wrong_length_is_exit_2(command, values, tmp_path, capsys):
    psi = {"p": 3, "K": 2, "values": values}
    doc = {
        "measure": {"projector": _IDEM_2, "psi": psi},
        "probability": {"projectors": [_IDEM_2], "psi": psi},
        "evolve": {"h": matrix_doc([[3, 0], [0, 3]], K=2), "u": matrix_doc([[1, 0], [0, 1]], K=2),
                   "psi": psi, "k": 1, "t": 3},
    }[command]
    code, out = run_one_line(command, doc, tmp_path, capsys)
    assert code == 2
    assert out["error"] == {"code": "InputError",
                            "reason": f"a 2 x 2 matrix applied to a vector of length {len(values)}"}


def test_torus_of_two_empty_operators_is_exit_2(tmp_path, capsys):
    empty = {"p": 3, "K": 2, "n": 0, "entries": []}
    code, out = run_one_line("torus", {"u": empty, "v": empty}, tmp_path, capsys)
    assert code == 2
    assert out["error"] == {"code": "InputError", "reason": "torus relations need n >= 1"}
