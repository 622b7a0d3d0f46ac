"""Shared exception types.

ConfigError signals a bad knob (budget, strata count, delta, CLI flags) and
maps to exit code 2; DataError signals malformed or inconsistent input data
and maps to exit code 3.
"""

import operator


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


def require_integer(name: str, value) -> None:
    """Raise ConfigError unless value is an integer: an int or a numpy
    integer passes, 2.5 does not (``operator.index``)."""
    try:
        operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
