"""Error types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value or cross-field combination."""


class OracleUnavailableError(RuntimeError):
    """Exact enumeration oracle requested on an instance too large to enumerate."""


class UnreachableTransitionError(ValueError):
    """A discrete transition outside the reverse process support (carry-over violated)."""


class RunAbortedError(RuntimeError):
    """Training state went non-finite; the last good checkpoint is retained."""
