"""Exception types shared across the package."""

import math


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """An input violates a documented precondition (range, normalization, ...)."""


class DegenerateInputError(ValueError):
    """Input is numerically degenerate, e.g. a zero-norm row fed to a normalizer."""


class BatchTooSmallError(ValueError):
    """Batch holds too few samples for a pairwise loss."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


def require_finite(**values) -> None:
    """Raise ConfigError naming the first value that is NaN or infinite.

    Range checks such as ``x < 0`` are false for NaN, so config classes
    call this before them.
    """
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")


class PlanMismatchError(ValueError):
    """Dataset contents and split plan disagree."""


class CsvFormatError(ValueError):
    """Malformed dataset file; carries the offending 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonFiniteLossError(RuntimeError):
    """Training produced a non-finite loss; carries the step and component values."""

    def __init__(self, step: int, components: dict):
        super().__init__(f"non-finite loss at step {step}: {components}")
        self.step = step
        self.components = components

    def __reduce__(self):
        # ``args`` holds only the message; a ``--jobs`` worker's error
        # reaches the parent through pickle, which calls ``__init__`` again
        return type(self), (self.step, self.components)
