"""Exact spectral theory of p-adic unitary matrices at finite precision.

Scalars live in Z_p or its unramified extensions, known exactly modulo p^K;
matrices over them classify into Teichmuller / continuous / pro-finite types,
split multiplicatively into semisimple and unipotent parts, and carry exact
spectral data indexed by Teichmuller representatives with a Frobenius action.
"""

from .errors import (
    InputError,
    InvalidPrime,
    LiftAuditError,
    MalformedDocument,
    NonCommuting,
    NotATorusPair,
    NotAUnit,
    NotContinuous,
    NotInvertible,
    NotOrthogonal,
    NotTeichmuller,
    NotUnitary,
    PadicError,
    PrecisionMismatch,
    RadiusViolation,
    ZeroPolynomial,
)
from .gm import (
    LaurentPoly,
    PrincipalIdealIndex,
    UnitPolynomial,
    additivity_check,
    bezout_idempotents,
    haar_volume,
    ideal_lattice,
    orthogonality_test,
    principal_exponent,
    profinite_volume,
    project_mod,
    resultant,
    shift_sum,
    teich_factor,
)
from .glnp import PhiWord, b_membership, build_generators, decompose_fp, decompose_zp
from .matrices import Norm, PadicMatrix, SeminormResult, SmithProfile, vector_norm
from .quantum import (
    EvolutionPair,
    WaveFunction,
    clock_shift_pair,
    evolve,
    exp_matrix,
    measure,
    probability,
    spectrum_shift_model,
    torus_check,
)
from .scalars import (
    ONE_MINUS,
    PadicScalar,
    UnramRing,
    Zp,
    frobenius,
    reduce_precision,
    teichmuller_lift,
    unit_decompose,
    unit_inverse,
    valuation,
)
from .unitary import (
    SpectralDatum,
    SpectrumTable,
    UnitaryClass,
    classify,
    galois_act,
    jordan_decompose,
    power_zp,
    projection_functors,
    residual_order,
    spectral_decompose,
    spectrum_table,
    teichmuller_spectral,
    zp_unit_action,
)

__version__ = "0.1.0"
