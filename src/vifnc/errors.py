"""Exception hierarchy for the vifnc package.

Every library error derives from :class:`VifncError` so callers can catch
one base class. An exact relation is deliberately *not* an exception: a
column the kernel reads with RSS 0 gets ``math.inf`` for its ratios
instead, so that one such column never aborts a whole report.
"""


class VifncError(Exception):
    """Base class for all vifnc errors."""


class NonFiniteInput(VifncError):
    """An input array contains NaN or infinite entries."""


class DimensionMismatch(VifncError):
    """Operands have incompatible shapes."""


class TooFewObservations(VifncError):
    """Fewer observations than design columns."""


class UnknownColumn(VifncError):
    """A referenced column name does not exist in the data matrix."""


class ZeroTotalSumOfSquares(VifncError):
    """The relevant total sum of squares is zero, so R-squared is undefined."""


class NotCenteredModel(VifncError):
    """Centered R-squared requested for a fit without intercept."""


class ConstantRegressor(VifncError):
    """Centered diagnostics are undefined for an exactly constant column."""


class ZeroColumn(VifncError):
    """Non-centered diagnostics are undefined for an identically zero column."""


class RankDeficient(VifncError):
    """A design or cross-product matrix is numerically singular."""


class NoConstantColumn(VifncError):
    """The intercept trick requires an explicit all-ones regressor."""


class ParseError(VifncError):
    """Malformed CSV input; carries 1-based row/column location when known."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {col})" if col is not None else ")")
        super().__init__(message + loc)
        self.row = row
        self.col = col


class DuplicateHeader(ParseError):
    """The CSV header repeats a column name."""


class RaggedRow(ParseError):
    """A CSV row has a different cell count than the header."""


class NonFiniteValue(ParseError):
    """A CSV cell parsed to NaN or infinity."""


class ConfigError(VifncError):
    """A scenario configuration file is invalid; names the offending key."""
