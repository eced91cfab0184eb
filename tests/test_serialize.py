"""Round-trip checks on the wire format."""

import pytest

from padicu import serialize, unitary
from padicu.errors import MalformedDocument
from padicu.gm import LaurentPoly
from padicu.matrices import PadicMatrix
from padicu.quantum import WaveFunction
from padicu.scalars import UnramRing, Zp


def test_matrix_round_trip():
    ring = Zp(5, 3)
    m = PadicMatrix(ring, [[1, 2], [3, 4]])
    doc = serialize.matrix_to_doc(m)
    assert serialize.matrix_from_doc(doc) == m

    ext = UnramRing(3, 2, 2)
    m2 = PadicMatrix.diagonal(ext, [ext.generator, ext.one])
    assert serialize.matrix_from_doc(serialize.matrix_to_doc(m2)) == m2


def test_laurent_round_trip():
    ring = Zp(3, 3)
    f = LaurentPoly(ring, {-2: 4, 0: 1, 5: 26})
    doc = serialize.laurent_to_doc(f)
    assert serialize.laurent_from_doc(doc) == f


def test_wave_round_trip():
    ring = Zp(3, 3)
    psi = WaveFunction(ring, [1, 3, 9])
    doc = serialize.wave_to_doc(psi)
    assert doc["norm"]["display"] == "1"
    assert serialize.wave_from_doc(doc) == psi


def test_spectral_datum_doc_shape():
    ring = Zp(5, 2)
    datum = unitary.teichmuller_spectral(
        PadicMatrix(ring, [[0, -1], [1, 0]])
    )
    doc = serialize.spectral_datum_to_doc(datum)
    assert doc["n"] == 2
    assert len(doc["orbits"]) == 2
    for orbit in doc["orbits"]:
        assert set(orbit) >= {"degree", "eigenvalues", "projectors", "factor"}


def test_malformed_documents_rejected():
    with pytest.raises(MalformedDocument):
        serialize.matrix_from_doc({"p": 3, "K": 2, "n": 2, "entries": ["1"]})
    with pytest.raises(MalformedDocument):
        serialize.laurent_from_doc({"p": 3, "K": 2, "terms": [[1]]})
