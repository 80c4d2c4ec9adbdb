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


class DegenerateBatchError(OrdprotoError):
    """A batch is missing classes required by the requested computation."""


class LabelOutOfRangeError(OrdprotoError):
    """A class or truth label falls outside its declared range."""


class OutOfRangeError(OrdprotoError):
    """A scalar argument falls outside its documented interval."""


class UntrainedStoreError(OrdprotoError):
    """The global prototype store still holds its zero-vector initialization."""


class BadDimsError(OrdprotoError):
    """A layer-dimension list is malformed."""


class BadConfigError(OrdprotoError):
    """A configuration value or config-file entry is invalid."""


class BatchTooSmallError(OrdprotoError):
    """Requested batch size cannot hold one sample of every class."""


class BadKError(OrdprotoError):
    """Invalid fold count for cross-validation."""


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


class OneClassOnlyError(OrdprotoError):
    """Binary metrics require both classes to be present."""


class DegenerateInputError(OrdprotoError):
    """A constant vector was passed where variation is required."""


class ArtifactMismatchError(OrdprotoError):
    """Saved artifacts (checkpoint, store, data) are mutually incompatible."""


class TrainingError(OrdprotoError):
    """Training aborted; message includes the failing iteration index."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration
