"""Exception hierarchy for the EMN library.

Exit-code mapping used by the CLI:
  2 -> usage / configuration errors
  3 -> data errors (parsing, dimensions, labels)
  4 -> model / schema errors
"""


class EmnError(Exception):
    """Base class for all library errors."""


class ConfigError(EmnError):
    """Invalid configuration value or combination."""


class UsageError(EmnError):
    """Invalid invocation of a command or operation."""


class DimensionError(EmnError):
    """Array shape does not match the declared dimension."""


class LabelRangeError(EmnError):
    """A label lies outside [0, class_count)."""


class NotTrainedError(EmnError):
    """Memory retrieval attempted before every class was initialized."""


class MissingLabelsError(EmnError):
    """Labeled data required but labels are absent."""


class ClassCountMismatch(EmnError):
    """Dataset class count differs from the model's."""


class ParseError(EmnError):
    """Malformed text input; message names the offending line."""


class NonFiniteError(EmnError):
    """A feature value is NaN or infinite; message names the first bad row."""


class MagicError(EmnError):
    """Binary file does not start with the expected magic bytes."""


class VersionError(EmnError):
    """Binary file carries an unsupported format version."""


class TruncationError(EmnError):
    """Binary file ended before the declared payload was read."""


class SchemaVersionError(EmnError):
    """Model document carries an unknown schema version."""


class IntegrityError(EmnError):
    """Model document checksum does not match its payload."""
