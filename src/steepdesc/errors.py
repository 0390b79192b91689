"""Exception types shared across the package."""


class SteepdescError(Exception):
    """Base class for structured package errors."""


class ShapeMismatchError(SteepdescError, ValueError):
    """Block structure of an operand does not match what an operation expects."""


class ZeroVectorError(SteepdescError, ValueError):
    """An operation that is undefined at zero received the zero vector."""


class NonFiniteError(SteepdescError, ValueError):
    """An input contained NaN or infinity."""


class NotSeparatedError(SteepdescError, ValueError):
    """A post-separation diagnostic was requested with min-margin <= 0."""


class DivergenceError(SteepdescError, RuntimeError):
    """Training produced non-finite loss or parameters."""

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        super().__init__(f"run diverged at step {step}" + (f": {detail}" if detail else ""))


class DataFormatError(SteepdescError, ValueError):
    """A dataset container or IDX file is malformed."""


class ConfigError(SteepdescError, ValueError):
    """A run configuration file or value is invalid."""


class StaleEvaluationError(SteepdescError, RuntimeError):
    """An evaluation's workspace was overwritten before its subgradient was read."""


class InvariantViolation(SteepdescError, RuntimeError):
    """A strict-mode trajectory invariant failed on a logged row."""
