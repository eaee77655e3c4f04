"""Shared exception types for the eralign package."""


class ParameterError(ValueError):
    """An argument violates a documented precondition (sizes, ranges, modes)."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class CapExceededError(RuntimeError):
    """An exhaustive enumeration would exceed the configured size cap."""


class ConfigError(ValueError):
    """A sweep configuration or input file is malformed."""


#: the errors a caller reports as bad input or an exceeded limit (exit 2)
USAGE_ERRORS = (ParameterError, DomainError, CapExceededError, ConfigError)
