"""Exception types shared across the package."""


class OrdprotoError(Exception):
    """Base class for all ordproto errors."""


class EmptyInputError(OrdprotoError):
    """An operation received an empty vector, batch, or sample list."""


class DimMismatchError(OrdprotoError):
    """Two arguments that must share a shape or dimension do not."""


class ZeroVectorError(OrdprotoError):
    """A (near-)zero vector was passed where a direction is required."""


class NonFiniteError(OrdprotoError):
    """An input contains NaN or infinite entries."""


class UntrainedStoreError(OrdprotoError):
    """The global prototype store still holds its zero-vector initialization."""


class BadConfigError(OrdprotoError):
    """A config value, argument (dims, fold count, batch size), label or scalar is invalid."""


class DatasetIOError(OrdprotoError):
    """Reading or writing a dataset or artifact file failed."""


class DatasetParseError(OrdprotoError):
    """A dataset file is syntactically invalid.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegenerateInputError(OrdprotoError):
    """The input lacks a required class, or the variation a computation needs."""


class ArtifactMismatchError(OrdprotoError):
    """Saved artifacts (checkpoint, store, data) are mutually incompatible."""


class TrainingError(OrdprotoError):
    """Training aborted; message includes the failing iteration index."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration
