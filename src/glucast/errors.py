"""Exception types shared across the package, and the check of config fields."""

import math
import numbers
from dataclasses import field, fields


class GlucastError(Exception):
    """Base class for package errors; the CLI exits with its ``exit_code``."""

    exit_code = 4  # a numeric failure, unless a subclass says otherwise


class DimensionError(GlucastError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class IngestionError(GlucastError, ValueError):
    """Raw input data violates the expected format or invariants."""

    exit_code = 3


class ConfigError(GlucastError, ValueError):
    """A configuration value or combination is invalid."""

    exit_code = 2


class CapabilityError(GlucastError):
    """The model cannot do what the command asks of it."""

    exit_code = 5


# domains: (test, description) of the values a field takes beyond its type
AT_LEAST_0 = (lambda v: v >= 0, "at least 0")
AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
AT_LEAST_2 = (lambda v: v >= 2, "at least 2")
POSITIVE = (lambda v: 0 < v < math.inf, "a finite number > 0")
NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "a finite number >= 0")


def tunable(default, domain, key=""):
    """A field of this default (MISSING for none), checked by check_fields, set
    by the config key ``key`` ("" for its own name; None for none: the inputs)."""
    return field(default=default, metadata={"domain": domain, "key": key})


def config_key(f):
    """The config key that sets the dataclass field ``f``, or None."""
    key = f.metadata.get("key")
    return f.name if key == "" else key


_TYPES = {"bool": (bool, "true or false"), "int": (numbers.Integral, "an integer"),
          "float": (numbers.Real, "a real number")}


def check_fields(obj) -> None:
    """ConfigError naming the first ``tunable`` field of the dataclass ``obj``
    not of its type (only a bool field takes a bool) or outside its domain."""
    for f in (f for f in fields(obj) if "domain" in f.metadata):
        value = getattr(obj, f.name)
        types, kind = _TYPES[getattr(f.type, "__name__", f.type)]
        test, description = f.metadata["domain"]
        if not isinstance(value, types) or isinstance(value, bool) != (types is bool):
            raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
        if not test(value):
            raise ConfigError(f"{f.name} must be {description}, got {value!r}")


class ConsistencyError(GlucastError, ValueError):
    """Pieces of state that must agree (e.g. a trace and its params) do not."""


class DegenerateAttributionError(GlucastError, ValueError):
    """Attribution cannot be normalized because every contribution is zero."""


class EvaluationError(GlucastError, ArithmeticError):
    """A numeric evaluation produced a non-finite result."""


class TrainingError(GlucastError, RuntimeError):
    """Training failed (divergence, non-finite gradients, bad data)."""
