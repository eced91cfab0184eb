"""Traced stand-in for `python -m padicu.cli COMMAND`, used by the traced run.

It times the import of padicu.cli, wraps the traced layers and the
serialize encoders and decoders, runs the CLI's own main() and writes its
totals as one line to standard error before exiting with the CLI's code.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main() -> int:
    recorder = tracing.Recorder()
    start = time.perf_counter_ns()
    from padicu import cli

    imported = time.perf_counter_ns()
    tracing.install(recorder)
    begun = time.perf_counter_ns()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        ended = time.perf_counter_ns()
        sys.stdout.flush()
        totals = recorder.as_totals()
        totals["cli.import_ms"] = (imported - start) / 1e6
        totals["cli.command_ms"] = (ended - begun) / 1e6
        sys.stderr.write(tracing.CHILD_MARKER + json.dumps(totals) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
