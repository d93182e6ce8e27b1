"""Exception hierarchy shared across the package."""


class SpangecError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SpangecError):
    """Malformed or unusable input data (bad TSV/JSONL lines, empty corpora)."""


class OverlapError(SpangecError):
    """A span list violates the sorted / non-overlapping contract."""


class MalformedMarkersError(DataError):
    """Span markers are unbalanced, nested, or numbered inconsistently."""


class ReservedTokenError(DataError):
    """Input text contains a reserved span-marker token."""


class EmptyCorpusError(DataError):
    """Training was attempted on an empty corpus."""


class LengthMismatchError(DataError):
    """Paired tag sequences have different lengths."""


class ModelError(SpangecError):
    """Problems loading or using a serialized model."""


class ModelFormatError(ModelError):
    """Model file is malformed: bad magic number, unsupported version,
    truncated or out-of-range data, or a bad record."""
