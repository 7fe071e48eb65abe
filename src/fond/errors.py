"""Exception types shared across the package."""

import json
import math
import os


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
    """Raise ConfigError naming the first value that is NaN, infinite or
    an integer too large for a float (where math.isfinite overflows).

    Range checks such as ``x < 0`` are false for NaN, so config classes
    call this before them.
    """
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ConfigError(f"{name} must be finite, got an int too large for a float") from None
        if not finite:
            raise ConfigError(f"{name} must be finite, got {value!r}")


def strict_json(text, error: type[ValueError]):
    """The value of JSON document ``text``, except that an object that repeats
    a key raises ``error`` naming the key (plain ``json`` keeps the last copy)."""
    def unique(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            raise error(f"JSON object repeats key {next(k for k in keys if keys.count(k) > 1)!r}")
        return obj
    return json.loads(text, object_pairs_hook=unique)


def write_output(path, chunks) -> None:
    """Write the byte chunks of the iterable ``chunks`` to ``path``, the one
    way every output file is written. Any exception, from a write or from
    the code that yields the chunks, removes the file and propagates: the
    rows written so far would read as a valid but shorter file."""
    fh = open(path, "wb")
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException:
        os.remove(path)
        raise


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
