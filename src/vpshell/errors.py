"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """Time integration failed.  Carries the simulation time of the failure."""

    def __init__(self, message, time=None):
        if time is not None:
            message = f"{message} (at t = {time:g})"
        super().__init__(message)
        self.time = time


class StiffnessError(NumericalError):
    """Step-size control collapsed below the minimum admissible step."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ClassifyInputError(ValueError):
    """A diagnostics file handed to the classifier is malformed."""

    def __init__(self, message, row=None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row
