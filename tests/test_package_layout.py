"""Package layout: lazy exports, what a CLI process imports, and records as tuples.

`padicu/__init__.py` resolves its exports on first access, and each CLI
command imports only the modules it runs.  Import-time facts are checked in
fresh interpreters, since this test process has long since loaded everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicu
from padicu import errors, glnp, gm, matrices, quantum, scalars, unitary

SRC = Path(padicu.__file__).resolve().parents[1]

# the names the package exported when __init__ imported every module eagerly,
# plus the error classes NonUnitLead and Unsupported
EXPORTS = [
    "InputError", "InvalidPrime", "LiftAuditError", "MalformedDocument", "NonCommuting",
    "NonUnitLead", "NotATorusPair", "NotAUnit", "NotContinuous", "NotInvertible",
    "NotOrthogonal", "NotTeichmuller", "NotUnitary", "PadicError", "PrecisionMismatch",
    "RadiusViolation", "Unsupported", "ZeroPolynomial",
    "LaurentPoly", "PrincipalIdealIndex", "UnitPolynomial", "additivity_check",
    "bezout_idempotents", "haar_volume", "ideal_lattice", "orthogonality_test",
    "principal_exponent", "profinite_volume", "project_mod", "resultant", "shift_sum",
    "teich_factor",
    "PhiWord", "b_membership", "build_generators", "decompose_fp", "decompose_zp",
    "Norm", "PadicMatrix", "SeminormResult", "SmithProfile", "vector_norm",
    "EvolutionPair", "WaveFunction", "clock_shift_pair", "evolve", "exp_matrix", "measure",
    "probability", "spectrum_shift_model", "torus_check",
    "ONE_MINUS", "PadicScalar", "UnramRing", "Zp", "frobenius", "reduce_precision",
    "teichmuller_lift", "unit_decompose", "unit_inverse", "valuation",
    "SpectralDatum", "SpectrumTable", "UnitaryClass", "classify", "galois_act",
    "jordan_decompose", "power_zp", "projection_functors", "residual_order",
    "spectral_decompose", "spectrum_table", "teichmuller_spectral", "zp_unit_action",
]
DEFINING = (errors, gm, glnp, matrices, quantum, scalars, unitary)
RECORDS = [
    glnp.PhiWord, glnp.GeneratorSet, glnp.FpDecomposition, glnp.ZpDecomposition,
    gm.OrthogonalityCertificate, gm.BezoutIdempotents, gm.TeichFactorization,
    gm.PrincipalIdealIndex, gm.PrincipalExponent,
    matrices.Norm, matrices.SeminormResult, matrices.SmithProfile,
    quantum.ProbabilityReport, quantum.MeasurementResult, quantum.EvolutionPair,
    quantum.ShiftModel, quantum.TorusRelation,
    unitary.UnitaryClass, unitary.SpectralOrbit, unitary.SpectralDatum,
    unitary.ProjectionResult, unitary.SpectrumRow, unitary.SpectrumTable,
]


def _child(code: str, stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60, check=True,
    )


def test_all_is_the_former_eager_export_list():
    assert padicu.__all__ == EXPORTS
    assert set(EXPORTS) <= set(dir(padicu))


@pytest.mark.parametrize("name", EXPORTS)
def test_every_export_resolves_to_its_definition(name):
    value = getattr(padicu, name)
    assert value.__module__ in {m.__name__ for m in DEFINING}
    assert vars(sys.modules[value.__module__])[name] is value


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        padicu.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from padicu import no_such_name  # noqa: F401


def test_exports_and_submodules_load_on_first_access():
    out = _child(
        "import sys, padicu\n"
        "before = sorted(m for m in sys.modules if m.startswith('padicu.'))\n"
        "gm = padicu.gm\n"
        "from padicu import classify\n"
        "print(before, padicu.gm.__name__, classify.__module__, 'classify' in vars(padicu))\n"
        "print(sum(getattr(padicu, name) is not None for name in padicu.__all__))\n"
    ).stdout
    assert out.split() == ["[]", "padicu.gm", "padicu.unitary", "True", str(len(EXPORTS))]


def test_a_classify_process_loads_only_its_command():
    """`python -m padicu.cli classify` as runpy runs it, then the loaded modules."""
    code = (
        "import json, runpy, sys\n"
        "sys.argv = ['padicu', 'classify']\n"
        "try:\n"
        "    runpy.run_module('padicu.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    sys.stderr.write(json.dumps([exc.code, sorted(sys.modules)]))\n"
    )
    doc = {"matrix": {"p": 3, "K": 2, "n": 2, "entries": ["1", "1", "0", "1"]}}
    child = _child(code, json.dumps(doc))
    exit_code, loaded = json.loads(child.stderr)
    assert exit_code == 0 and json.loads(child.stdout)["result"]["class"] == "CONTINUOUS"
    absent = {"dataclasses", "fractions", "padicu.glnp", "padicu.quantum", "padicu.audits"}
    assert absent.isdisjoint(loaded)
    assert "padicu.unitary" in loaded


@pytest.mark.parametrize("record", RECORDS, ids=[r.__name__ for r in RECORDS])
def test_records_are_named_tuples(record):
    assert issubclass(record, tuple) and record._fields
    assert not hasattr(record, "__dataclass_fields__")
    assert "__dict__" not in dir(record)  # no instance attributes beyond the fields


def test_validators_run_on_construction_and_replace():
    word = glnp.PhiWord(p=3, exponents=(2, 8))
    assert repr(word) == "PhiWord(p=3, exponents=(2, 8))" and word.n == 2
    index = gm.PrincipalIdealIndex(1, 2)
    ring = scalars.Zp(3, 2)
    identity = matrices.PadicMatrix.identity(ring, 2)
    pair = quantum.EvolutionPair(H=identity, U=identity)
    singular = matrices.PadicMatrix(ring, [[3, 0], [0, 1]])
    for build in (
        lambda: glnp.PhiWord(3, (3,)),
        lambda: word._replace(exponents=(2, 9)),
        lambda: gm.PrincipalIdealIndex(0, 1),
        lambda: index._replace(n=0),
        lambda: quantum.EvolutionPair(identity, singular),
        lambda: pair._replace(U=singular),
    ):
        with pytest.raises((errors.PadicError, ValueError)):
            build()
    with pytest.raises(AttributeError):
        word.p = 5
