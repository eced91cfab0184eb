"""Exact spectral theory of p-adic unitary matrices at finite precision.

Scalars live in Z_p or its unramified extensions, known exactly modulo p^K;
matrices over them classify into Teichmuller / continuous / pro-finite types,
split multiplicatively into semisimple and unipotent parts, and carry exact
spectral data indexed by Teichmuller representatives with a Frobenius action.

Importing the package loads no submodule.  A name in `__all__`, or a submodule
name, resolves on first access (PEP 562 `__getattr__`) by importing the module
that defines it, and is then kept in this module's globals as a plain attribute.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("arith audits cli errors fppoly glnp gm matrices moduli quantum sampling scalars"
               " serialize unitary").split()
# exported name -> the submodule that defines it, in the order of __all__
_MODULE_OF = {
    name: module
    for module, names in (
        ("errors", "InputError InvalidPrime LiftAuditError MalformedDocument NonCommuting"
         " NonUnitLead NotATorusPair NotAUnit NotContinuous NotInvertible NotOrthogonal"
         " NotTeichmuller NotUnitary PadicError PrecisionMismatch RadiusViolation Unsupported"
         " ZeroPolynomial"),
        ("gm", "LaurentPoly PrincipalIdealIndex UnitPolynomial additivity_check bezout_idempotents"
         " haar_volume ideal_lattice orthogonality_test principal_exponent profinite_volume"
         " project_mod resultant shift_sum teich_factor"),
        ("glnp", "PhiWord b_membership build_generators decompose_fp decompose_zp"),
        ("matrices", "Norm PadicMatrix SeminormResult SmithProfile vector_norm"),
        ("quantum", "EvolutionPair WaveFunction clock_shift_pair evolve exp_matrix measure"
         " probability spectrum_shift_model torus_check"),
        ("scalars", "ONE_MINUS PadicScalar UnramRing Zp frobenius reduce_precision"
         " teichmuller_lift unit_decompose unit_inverse valuation"),
        ("unitary", "SpectralDatum SpectrumTable UnitaryClass classify galois_act jordan_decompose"
         " power_zp projection_functors residual_order spectral_decompose spectrum_table"
         " teichmuller_spectral zp_unit_action"),
    )
    for name in names.split()
}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
