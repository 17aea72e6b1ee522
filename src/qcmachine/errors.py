"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid machine configuration or malformed config input (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """Numerical failure: non-convergence, degenerate kernel (CLI exit code 3)."""
