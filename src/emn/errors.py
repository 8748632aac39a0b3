"""Exception hierarchy for the EMN library, and the value rules that every
layer shares.

Each error class carries the CLI exit code it maps to:
  2 -> usage / configuration errors
  3 -> data errors (parsing, dimensions, labels)
  4 -> model / schema errors

``JSON_KINDS`` is the one statement of the JSON kinds a value may be:
``is_json_kind`` decides it for a type, ``check_kind`` for one value
(``ConfigError``), and ``check_field_kinds`` for each field of a config
dataclass, first thing in its ``__post_init__``, so a config holds only
values that a model document can write and read back. The loader applies
the same table to the values a document holds. ``as_array`` is the one
conversion of a caller's nested lists to an array: a ragged one is a
``DimensionError``. Both live here because every layer imports this module.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np


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


# The Python types that may stand for each JSON kind: an integer may stand
# for a float (so may a float subclass such as ``np.float64``), and a bool,
# though Python makes it an int, stands only for a bool.
JSON_KINDS = {
    "int": (int,), "float": (int, float), "bool": (bool,), "str": (str,), "object": (dict,)
}


def is_json_kind(cls: type, kind: str) -> bool:
    """Whether values of type ``cls`` are JSON ``kind``."""
    return issubclass(cls, JSON_KINDS[kind]) and (kind == "bool" or cls is not bool)


def check_kind(name: str, value, kind: str) -> None:
    """``ConfigError`` naming ``name`` unless ``value`` is a JSON ``kind``."""
    if not is_json_kind(type(value), kind):
        raise ConfigError(f"{name} must be a JSON {kind}, got {value!r}")


def check_field_kinds(config) -> None:
    """``check_kind`` on each field of the dataclass ``config``; annotations
    are postponed, so a field's type is the name of its kind."""
    for f in fields(config):
        check_kind(f.name, getattr(config, f.name), f.type)


def as_array(values, what: str, dtype=None) -> np.ndarray:
    """``np.asarray(values, dtype)``, except that nested sequences of unequal
    lengths, which have no array shape, raise ``DimensionError``."""
    try:
        return np.asarray(values, dtype=dtype)
    except ValueError:
        try:  # without a dtype, only a ragged sequence fails
            np.asarray(values)
        except ValueError:
            raise DimensionError(f"{what} must be rectangular, not ragged") from None
        raise
