"""Exception types shared across the package.

Every type survives a pickle round trip with its message and attribute, so
an error raised in the sweep's worker process reaches the caller intact."""


class NotPositiveDefiniteError(ValueError):
    """Cholesky factorization hit a non-positive pivot.

    ``pivot`` is the 0-based index of the offending leading minor, or -1
    when the underlying routine did not report one.
    """

    def __init__(self, message, pivot=-1):
        super().__init__(message)
        self.pivot = pivot


class RankDeficientError(ValueError):
    """A column collapsed (numerically) during orthogonalization."""

    def __init__(self, message, column=-1):
        super().__init__(message)
        self.column = column


class InvalidInputError(ValueError):
    """Non-finite or otherwise malformed numerical input."""


class FormatError(ValueError):
    """Bad magic, version, or structure in a data file."""


class CorruptStreamError(FormatError):
    """Snapshot stream cut mid-record or overlong. ``offset`` is the byte position."""

    def __init__(self, message, offset):
        super().__init__(message)
        self.offset = offset

    def __reduce__(self):  # pickle calls cls(*args): offset has no default
        return type(self), (*self.args, self.offset), self.__dict__


class CorruptCheckpointError(FormatError):
    """Checkpoint payload fails its CRC."""


class IntegrationFailureError(RuntimeError):
    """Time stepper gave up. ``t_reached`` is the last accepted time."""

    def __init__(self, message, t_reached):
        super().__init__(message)
        self.t_reached = t_reached

    def __reduce__(self):  # pickle calls cls(*args): t_reached has no default
        return type(self), (*self.args, self.t_reached), self.__dict__


class PreconditionViolationError(ValueError):
    """Input violates a documented mathematical precondition."""


class AmbiguousAlignmentError(ValueError):
    """Singular vector pair is exactly orthogonal to the reference pair."""


class LapackUnavailableError(ImportError):
    """numpy's OpenBLAS does not export a LAPACK routine that incpod calls."""
