"""Exception hierarchy for the EMN library.

Each error class carries the CLI exit code it maps to:
  2 -> usage / configuration errors
  3 -> data errors (parsing, dimensions, labels)
  4 -> model / schema errors
"""


class EmnError(Exception):
    """Base class for all library errors; ``exit_code`` is the CLI's status."""
    exit_code: int


class ConfigError(EmnError):
    """Invalid configuration value or combination."""
    exit_code = 2


class UsageError(EmnError):
    """Invalid invocation of a command or operation."""
    exit_code = 2


class DimensionError(EmnError):
    """Array shape does not match the declared dimension."""
    exit_code = 3


class LabelRangeError(EmnError):
    """A label is not an integer (a float with a fraction, a bool, a string),
    or lies outside [0, class_count)."""
    exit_code = 3


class NotTrainedError(EmnError):
    """Memory retrieval attempted before every class was initialized."""
    exit_code = 4


class MissingLabelsError(EmnError):
    """Labeled data required but labels are absent."""
    exit_code = 3


class ParseError(EmnError):
    """Malformed text input; message names the offending line."""
    exit_code = 3


class NonFiniteError(EmnError):
    """A feature value is NaN or infinite (the message names the first bad
    row), a memory update overflows (the store is left as it was), or a
    model to be saved holds a NaN or infinite value."""
    exit_code = 3


class MagicError(EmnError):
    """Binary file does not start with the expected magic bytes."""
    exit_code = 3


class VersionError(EmnError):
    """Binary file carries an unsupported format version or flag bits."""
    exit_code = 3


class TruncationError(EmnError):
    """Binary file's payload is not the size its header declares: the file
    ends early, or holds bytes past the declared payload."""
    exit_code = 3


class SchemaVersionError(EmnError):
    """Model document carries an unknown schema version."""
    exit_code = 4


class IntegrityError(EmnError):
    """Model document is not a sound model: a checksum mismatch, a malformed
    payload, or memory mu that overflow retrieval on moderate signals."""
    exit_code = 4
