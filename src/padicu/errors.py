"""Exception hierarchy shared by all modules.

``exit_code`` is what the CLI reports: 2 for invalid input documents,
3 for operation preconditions that fail on otherwise well-formed input.
"""


class PadicError(Exception):
    exit_code = 3


class InputError(PadicError):
    exit_code = 2


class InvalidPrime(InputError):
    """p is not a prime >= 3."""


class PrecisionMismatch(InputError):
    """Operands live in different rings (p, K, m, modulus)."""


class MalformedDocument(InputError):
    """CLI input document failed to parse or validate."""


class NotUnitary(InputError):
    """A command requiring a unitary (unit-determinant integral) matrix got something else."""


class NotAUnit(PadicError):
    """Inversion of a scalar with positive valuation."""


class NotInvertible(PadicError):
    """Matrix determinant is not a unit."""


class NotTeichmuller(PadicError):
    """Operator is not of Teichmuller type."""


class NotContinuous(PadicError):
    """Operator is not of continuous type."""


class NotOrthogonal(PadicError):
    """Resultant is not a unit, so no splitting idempotents exist."""


class NotATorusPair(PadicError):
    """Commutator of the two unitaries is not scalar."""


class RadiusViolation(PadicError):
    """Time parameter lies outside the convergence domain."""


class NonCommuting(PadicError):
    """Evolution pair (H, U) does not commute."""


class LiftAuditError(PadicError):
    """A lifted decomposition failed its membership audit."""


class ZeroPolynomial(PadicError):
    """Operation undefined for the zero polynomial."""


class NonUnitLead(PadicError):
    """The product f*g has a non-unit leading coefficient, so nothing can divide by it."""
