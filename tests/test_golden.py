"""Replay the golden CLI corpus in-process and compare stdout bytes and exit codes.

The corpus (tests/golden/corpus.jsonl, written by tests/golden/record.py) holds
input documents for every CLI command together with
the exact output each produced when it was recorded.
"""

import json
from pathlib import Path

import pytest

from padicu import cli

CASES = [
    json.loads(line)
    for line in (Path(__file__).parent / "golden" / "corpus.jsonl").read_text().splitlines()
]


@pytest.mark.parametrize("case", CASES, ids=[c["case"] for c in CASES])
def test_golden_bytes(case, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(case["input"])
    code = cli.main([case["command"], str(path)])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]


def test_every_command_has_a_golden_case():
    covered = {case["command"] for case in CASES}
    assert sorted(set(cli.COMMANDS) - covered) == []
