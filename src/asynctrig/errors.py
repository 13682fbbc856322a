"""Exception types shared across the package.

Each maps to one CLI exit code: ConfigError -> 2, InfeasibleError -> 3,
ResourceCapError -> 4.
"""


class ConfigError(ValueError):
    """Invalid configuration input (bad dimensions, unknown mode, bad JSON)."""


class InfeasibleError(RuntimeError):
    """A certificate or scaling search failed; carries the offending numbers."""


class ResourceCapError(RuntimeError):
    """An enumeration exceeded its configured cap; message names the count."""
