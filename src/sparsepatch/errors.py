"""Exception types shared across the package.

Every error a caller is expected to handle derives from SparsepatchError,
so CLI code can map categories onto exit codes without string matching.
"""


class SparsepatchError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(SparsepatchError):
    """An array argument has the wrong shape, dtype, or dimensionality."""


class NumericalError(SparsepatchError):
    """A numeric routine produced non-finite values or failed to converge."""


class ValidationError(SparsepatchError):
    """Inputs are structurally valid but violate a documented contract."""


class ParseError(SparsepatchError):
    """A serialized file is malformed.

    ``offset`` is the byte position at which the problem was detected,
    included in the message so tooling can point at the corrupt region.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UsageError(SparsepatchError):
    """Command-line arguments or config keys are unacceptable."""
