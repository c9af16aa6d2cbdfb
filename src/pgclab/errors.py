"""Exception hierarchy shared by all pgclab modules.

Each error type carries a short machine-readable ``category`` string; the
command-line front end prints it as part of its one-line diagnostics.
check_field_types is the field-type rule the parameter types share.
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


def check_field_types(obj) -> None:
    """Raise ParameterError unless every field of the dataclass obj has its
    default's type (an int may stand for a float; a bool stands for
    neither) and every float is finite."""
    for f in fields(obj):
        value, kind = getattr(obj, f.name), type(f.default)
        allowed = (int, float) if kind is float else kind
        if not isinstance(value, allowed) or isinstance(value, bool):
            raise ParameterError(f"{f.name} must be {kind.__name__}, not {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"{f.name} must be finite, not {value!r}")
