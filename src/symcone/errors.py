"""Exception types shared across the package."""


class SymconeError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatchError(SymconeError):
    """Operands do not have the dimensions the operation requires."""


class NotInteriorError(SymconeError):
    """A point required to lie strictly inside a cone does not."""


class SingularMatrixError(SymconeError):
    """Linear solve or inverse requested for a (near-)singular matrix."""


class NotInvertibleError(SymconeError):
    """Algebra element whose quadratic representation is singular."""


class DerivativeDomainError(SymconeError):
    """Directional-derivative arguments violate the admissibility condition."""


class AssemblyError(SymconeError):
    """Assembled derivative failed its internal consistency residual."""


class PipelineInconsistencyError(SymconeError):
    """Two independent evaluation routes disagreed beyond tolerance."""


class ExtractionError(SymconeError):
    """Recovered product tensor violated the unit law."""


class UnsupportedConeError(SymconeError):
    """Requested operation has no rule for this cone kind."""
