"""Every binding the benchmark's traced run wraps must exist in padicu.

perfbench/tracing.py names its traced functions as (module, owner,
attribute) triples; a rename in the library would otherwise surface only
when the traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "name,module,owner,attribute",
    tracing.TRACED + tracing.COUNTED,
    ids=[entry[0] for entry in tracing.TRACED + tracing.COUNTED],
)
def test_traced_binding_resolves(name, module, owner, attribute):
    target = importlib.import_module(f"padicu.{module}")
    if owner is not None:
        target = getattr(target, owner)
    assert callable(getattr(target, attribute))
