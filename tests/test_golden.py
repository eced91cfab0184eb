"""Replay the golden CLI corpus and compare stdout bytes and exit codes.

The corpus (tests/golden/corpus.jsonl, written by tests/golden/record.py) holds
input documents for every CLI command together with
the exact output each produced when it was recorded.  Every case replays
in-process; the first case of each command also replays as its own
`python -m padicu.cli` process, where only that command's modules are loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicu
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


_FIRST = {}
for _case in CASES:
    _FIRST.setdefault(_case["command"], _case)
FIRST_PER_COMMAND = list(_FIRST.values())


@pytest.mark.parametrize("case", FIRST_PER_COMMAND, ids=[c["case"] for c in FIRST_PER_COMMAND])
def test_golden_bytes_in_a_fresh_process(case):
    src = Path(padicu.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-m", "padicu.cli", case["command"]],
        input=case["input"].encode(),
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert child.stdout.decode() == case["stdout"], child.stderr.decode()[-2000:]
    assert child.returncode == case["exit"]


def test_every_command_has_a_golden_case():
    covered = {case["command"] for case in CASES}
    assert sorted(set(cli.COMMANDS) - covered) == []
    assert sorted(c["command"] for c in FIRST_PER_COMMAND) == sorted(cli.COMMANDS)
