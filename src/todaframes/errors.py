"""Exception types shared across the package."""


class TodaframesError(Exception):
    """Base class for all package specific errors."""


class GaussDecompositionFailed(TodaframesError):
    """A leading principal block of the matrix is singular or too ill
    conditioned for the block Gauss decomposition to proceed.

    The ``block`` attribute records the index of the offending diagonal
    block, so the failure localizes.
    """

    def __init__(self, block: int, detail: str = ""):
        self.block = block
        msg = f"block Gauss decomposition failed at diagonal block {block}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class SingularBeta(TodaframesError):
    """A Gram block is singular or numerically unusable at the given point."""


class ZeroFunction(TodaframesError):
    """An operation received an identically zero column or matrix."""


class AlreadyFull(TodaframesError):
    """A constant rank set already spans the ambient space."""


class NotConstantRank(TodaframesError):
    """A set of polynomial columns fails the exact constant rank certificate."""


class IntegrationDiverged(TodaframesError):
    """Path transport failed: a leg stayed unresolved within the allowed
    pieces, met a singular seed, or exceeded the norm guard."""


class ConfigError(TodaframesError):
    """A job configuration is malformed.  ``field`` holds the offending path."""

    def __init__(self, field: str, detail: str):
        self.field = field
        super().__init__(f"config field '{field}': {detail}")
