"""Exception hierarchy shared by all pgclab modules.

Each error type carries a short machine-readable ``category`` string; the
command-line front end prints it as part of its one-line diagnostics.
check_type is the one type rule of every config and manifest value.
"""

import math
from dataclasses import fields


class PgcError(Exception):
    """Base class for every error raised by this package."""

    category = "error"


class DimensionError(PgcError):
    """Array or image dimensions do not match what the operation needs."""

    category = "dimension"


class ParameterError(PgcError):
    """A parameter value is outside its legal range."""

    category = "parameter"


class DomainError(PgcError):
    """Pixel values do not belong to the declared value domain."""

    category = "domain"


class UnknownIdError(PgcError):
    """Lookup of a named preset or printer id failed."""

    category = "lookup"


class FormatError(PgcError):
    """A file on disk does not follow the expected binary/text format."""

    category = "format"


class StateError(PgcError):
    """Operation called before its required state was established."""

    category = "state"


class ConfigError(PgcError):
    """Experiment configuration violates one of its invariants."""

    category = "config"


class MissingInputError(PgcError):
    """An on-disk input (dataset, model, estimates) is absent."""

    category = "missing-input"


class DegenerateInputError(PgcError):
    """Statistic undefined for the given input (e.g. constant vectors)."""

    category = "degenerate"


# What check_type's kinds are called in its messages.
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
               list: "a list"}


def check_type(name: str, value, kind: type):
    """value, unchanged, if it has the type kind (int, float, str, bool or
    list); else ParameterError naming name.  A bool stands only for bool,
    an int may stand for a float, and a float must be finite."""
    allowed = (int, float) if kind is float else kind
    if not isinstance(value, allowed) or isinstance(value, bool) != (kind is bool):
        raise ParameterError(f"{name} must be {_KIND_NAMES[kind]}, not {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ParameterError(f"{name} must be a finite number, not {value!r}")
    return value


def check_field_types(obj, prefix: str = "") -> None:
    """check_type on every field of the dataclass obj, against its
    default's type, each named prefix + its field name."""
    for f in fields(obj):
        check_type(prefix + f.name, getattr(obj, f.name), type(f.default))
