"""Shape fuzz of the CLI readers: golden documents with one or two JSON nodes changed.

Each mutated document replaces a node (a field value or a list item) with
null, a boolean, an integer, a string, a list or an object, or deletes it.
Whatever the change, `cli.main` must write exactly one JSON line and exit 0,
2 or 3; an exception escaping it is a bug.  p and K keep their corpus values,
because the cost of the residue order and of the primality test grows with
them, and `audit` documents are left out, because each runs a property suite.
"""

import contextlib
import io
import json
import random
from pathlib import Path

from padicu import cli

CASES = [
    json.loads(line)
    for line in (Path(__file__).parent / "golden" / "corpus.jsonl").read_text().splitlines()
]
DOCUMENTS = [(c["command"], c["input"]) for c in CASES if c["command"] != "audit"]
REPLACEMENTS = [None, True, False, -2, -1, 0, 1, 2, 3, 7, "", "x", "1-", "12", "-1",
                [], [1], ["1", "2"], {}, {"a": 1}]
KEPT = {"p", "K"}


def _slots(node):
    """(container, key) for every field value and list item below node, p and K excepted."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if key not in KEPT:
            yield node, key
            yield from _slots(value)


def mutate(doc, rng):
    for _ in range(rng.randint(1, 2)):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = rng.choice(slots)
        if rng.random() < 1 / 7:
            del container[key]
        else:
            container[key] = json.loads(json.dumps(rng.choice(REPLACEMENTS)))
    return doc


def test_every_mutated_document_gets_one_json_line_and_exit_0_2_or_3(tmp_path):
    rng = random.Random(2)
    path = tmp_path / "input.json"
    failures = []
    for _ in range(2000):
        command, text = rng.choice(DOCUMENTS)
        raw = json.dumps(mutate(json.loads(text), rng), sort_keys=True)
        path.write_text(raw)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main([command, str(path)])
        except Exception as exc:  # any escape is the failure being looked for
            failures.append((command, raw, repr(exc)))
            continue
        lines = out.getvalue().splitlines()
        if code not in (0, 2, 3) or len(lines) != 1 or set(json.loads(lines[0])) != {
            "schema", "command", "result" if code == 0 else "error"
        }:
            failures.append((command, raw, code, lines))
    assert failures == []
