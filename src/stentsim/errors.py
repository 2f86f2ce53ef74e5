"""Exception taxonomy.

Two families matter to callers: configuration/input problems (exit code 1
in the CLI) and numerical failures discovered while solving (exit code 2).
"""


class ValidationError(ValueError):
    """Bad user input: parameters, config files, mesh sizes, dimensions.

    ``key`` names the offending field when the check belongs to one.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class ParameterError(ValidationError):
    """A model parameter is missing or outside its admissible range."""


class ConfigError(ValidationError):
    """A run-configuration file failed to parse or violates the schema."""


class CflError(ValidationError):
    """Requested time step violates the explicit-stepping stability bound."""


class AllocationError(ValidationError):
    """A run's arrays are too large for numpy to allocate."""


class NumericsError(RuntimeError):
    """Numerical failure during a run (blow-up, singular solve)."""


class SingularMatrixError(NumericsError):
    """Tridiagonal elimination hit a vanishing pivot."""


class InstabilityError(NumericsError):
    """A time-stepping run produced non-finite values or runaway energy."""
