"""Exception types shared across the package.

Builtins are reused where Python already has the right word for it
(FileNotFoundError for missing files, IndexError for bad layer indices);
everything domain-specific gets a named class so callers can catch
precisely. ``at_least`` and ``in_range`` are the bound checks of settings.
"""

import operator


class ImbenchError(Exception):
    """Base class for all package-specific errors."""


class MissingColumnError(ImbenchError, KeyError):
    """A named column is absent from a CSV header, or named twice in one."""

    # KeyError's str() is the repr of its argument; print the message as is
    __str__ = Exception.__str__


class NonNumericCellError(ImbenchError, ValueError):
    """A numeric CSV cell failed to parse as a finite real.

    Attributes:
        row: 1-based CSV line number (header is line 1).
        col: column name.
    """

    def __init__(self, row, col, value):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"non-numeric value {value!r} at line {row}, column {col!r}")


class EmptyDatasetError(ImbenchError, ValueError):
    """The input contains no data rows."""


class NonBinaryLabelsError(ImbenchError, ValueError):
    """The label column does not hold exactly two distinct values."""


class DimensionMismatchError(ImbenchError, ValueError):
    """Array shapes are incompatible with what an operation expects."""


class SingleClassError(ImbenchError, ValueError):
    """An operation needs both classes but the data holds only one."""


class TooFewRowsError(ImbenchError, ValueError):
    """Too few rows per class for the requested split."""


class MinorityTooSmallError(ImbenchError, ValueError):
    """An interpolating sampler needs at least two minority rows."""


class ConfigInvalidError(ImbenchError, ValueError):
    """A training or experiment configuration violates its invariants."""


def _require(rule: str, holds, values: dict) -> None:
    for name, value in values.items():
        try:
            ok = holds(value)
        except TypeError:
            ok = False
        if not ok:
            raise ConfigInvalidError(f"{name} must be {rule}, got {value}")


def at_least(low, **values) -> None:
    """Raise ConfigInvalidError naming the first of ``values`` that is not an
    integer >= ``low``: one below it, a float such as 2.5 or NaN, a bool or None."""
    _require(f"an integer >= {low}", lambda v: not isinstance(v, bool) and operator.index(v) >= low, values)


def in_range(low, high, **values) -> None:
    """at_least's real-valued companion: the open range (low, high), which rejects its ends."""
    _require(f"in ({low},{high})", lambda v: low < v < high, values)


class CacheMismatchError(ImbenchError, ValueError):
    """A backward pass got a cache that does not match the network."""


class IncompleteTableError(ImbenchError, ValueError):
    """The F1 table is missing cells needed for ranking."""


class GanDivergenceError(ImbenchError, RuntimeError):
    """GAN training produced non-finite losses even after a retry."""
