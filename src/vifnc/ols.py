"""OLS fits for centered (intercept) and non-centered (through-origin) models.

A fit carries both sum-of-squares decompositions at once:

* uncentered:  sum(y_i^2)        = sum(yhat_i^2)          + RSS, any fit;
* centered:    sum((y_i-ybar)^2) = sum((yhat_i-ybar)^2)   + RSS, intercept fits.

The two coincide exactly when the dependent variable has zero mean, and the
corresponding R-squared variants disagree otherwise; that disagreement is
the whole point of the diagnostics built on top of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import NonFiniteInput, NotCenteredModel, UnknownColumn, ZeroTotalSumOfSquares
from .linalg import _TooLarge, _centered, _column_xtx, solve_least_squares

INTERCEPT_NAME = "intercept"


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """Labeled numeric observation matrix with immutable float64 storage.

    ``values`` has one column per entry of ``names``. Column names must be
    unique and every value finite. A constant column is legal: the
    intercept trick depends on passing an explicit all-ones regressor.
    A read-only C-ordered float64 array is kept as it is; any other
    ``values`` is copied, so later writes to the caller's array do not
    reach the matrix. :mod:`vifnc.diagnostics` keeps on the instance one
    factor of all its columns, which every diagnostic on it reads.
    Equality is identity, as for every result that holds arrays (an array
    comparison has no single truth value), so a matrix hashes and can key
    a dict.
    """

    names: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        names = tuple(str(n) for n in self.names)
        if len(names) == 0:
            raise ValueError("data matrix needs at least one column")
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")
        values = np.asarray(self.values, dtype=float, order="C")
        if values.flags.writeable:  # the caller may still write to it
            values = values.copy()
        if values.ndim != 2 or values.shape[1] != len(names):
            raise ValueError(
                f"values must be 2-d with {len(names)} columns, got shape {values.shape}"
            )
        if values.shape[0] < 1:
            raise ValueError("data matrix needs at least one observation")
        if not np.all(np.isfinite(values)):
            raise NonFiniteInput("data matrix contains NaN or infinite entries")
        values.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_columns(cls, columns: Mapping[str, Iterable[float]]) -> "DataMatrix":
        """Build from an ordered name -> column mapping."""
        names = tuple(columns)
        if not names:
            raise ValueError("data matrix needs at least one column")
        values = np.column_stack([np.asarray(columns[n], dtype=float) for n in names])
        values.setflags(write=False)  # a fresh array nobody else holds: kept, not copied
        return cls(names, values)

    @property
    def n(self) -> int:
        """Number of observations."""
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one column."""
        try:
            idx = self.names.index(name)
        except ValueError:
            raise UnknownColumn(f"no column named {name!r}") from None
        return self.values[:, idx]

    def matrix(self, names: Iterable[str], intercept: bool = False) -> np.ndarray:
        """Columns stacked in the given order as an (n, k) array.

        With ``intercept`` a ones column comes first, as in a fitted design.
        """
        cols = [self.column(n) for n in names]
        if intercept:
            cols.insert(0, np.ones(self.n))
        return np.column_stack(cols)


@dataclass(frozen=True)
class ModelSpec:
    """Dependent column, ordered regressors, and the intercept flag."""

    dependent: str
    regressors: tuple[str, ...]
    intercept: bool = True

    def __post_init__(self):
        regressors = tuple(self.regressors)
        if not regressors:
            raise ValueError("model needs at least one regressor")
        object.__setattr__(self, "regressors", _distinct(regressors, self.dependent))


def _distinct(regressors: Iterable[str], dependent: str | None = None) -> tuple[str, ...]:
    """``regressors`` as a tuple; ``ValueError`` for a name given twice or named ``dependent``."""
    regressors = tuple(regressors)
    if len(set(regressors)) != len(regressors):
        raise ValueError("duplicate regressor names")
    if dependent in regressors:
        raise ValueError("dependent variable cannot also be a regressor")
    return regressors


@dataclass(frozen=True, eq=False)
class FitResult:
    """OLS output plus both sum-of-squares decompositions.

    ``coefficients`` follows ``coefficient_names``; when the model has an
    intercept it comes first. ``rank_deficient`` is carried through from
    the solver rather than raised, so degenerate designs still report.
    Equality is identity, as for :class:`DataMatrix`.
    """

    coefficients: np.ndarray
    coefficient_names: tuple[str, ...]
    fitted: np.ndarray
    residuals: np.ndarray
    rss: float
    tss_uncentered: float
    tss_centered: float
    ess_uncentered: float
    ess_centered: float
    dependent_mean: float
    intercept: bool
    rank: int
    rank_deficient: bool

    @property
    def n(self) -> int:
        return self.fitted.shape[0]


def fit(data: DataMatrix, spec: ModelSpec) -> FitResult:
    """Fit ``spec`` on ``data`` by QR least squares (:func:`vifnc.linalg.solve_least_squares`).

    Parameters
    ----------
    data : DataMatrix
    spec : ModelSpec
        When ``spec.intercept`` is true a ones column is prepended
        internally; user data never needs to contain one except for the
        intercept-trick path, which passes it as a named regressor.

    Raises
    ------
    UnknownColumn
        If the spec names a column the data does not have.
    TooFewObservations
        If the design has more columns than rows (raised by the solver).
    ValueError
        Naming the first column, the dependent one included, whose sum of
        squares exceeds half the float64 range.
    """
    y = data.column(spec.dependent)
    X = data.matrix(spec.regressors, spec.intercept)
    names = ((INTERCEPT_NAME,) if spec.intercept else ()) + spec.regressors
    try:
        sol = solve_least_squares(X, y)
    except _TooLarge as exc:  # a position in [X, y]
        raise _TooLarge(exc.position, (names + (spec.dependent,))[exc.position]) from None
    fitted = X @ sol.coefficients
    residuals = y - fitted
    _, ybar, tss_centered = _centered(y.copy())
    return FitResult(
        coefficients=sol.coefficients,
        coefficient_names=names,
        fitted=fitted,
        residuals=residuals,
        rss=float(residuals @ residuals),
        tss_uncentered=float(_column_xtx(y[:, None])[0]),
        tss_centered=float(tss_centered),
        ess_uncentered=float(fitted @ fitted),
        ess_centered=float(((fitted - ybar) ** 2).sum()),
        dependent_mean=float(ybar),
        intercept=spec.intercept,
        rank=sol.rank,
        rank_deficient=sol.rank_deficient,
    )


def r2_noncentered(result: FitResult) -> float:
    """Non-centered coefficient of determination, sum(yhat^2)/sum(y^2).

    Defined for any fit with a nonzero dependent column; equals
    ``1 - rss/tss_uncentered``.
    """
    if result.tss_uncentered == 0.0:
        raise ZeroTotalSumOfSquares("dependent column is identically zero")
    return 1.0 - result.rss / result.tss_uncentered


def r2_centered(result: FitResult) -> float:
    """Classical R-squared, ``1 - rss/tss_centered``; intercept fits only.

    Requesting it for a through-origin fit raises instead of silently
    falling back, because the two definitions genuinely disagree.
    """
    if not result.intercept:
        raise NotCenteredModel("centered R-squared needs an intercept fit")
    if result.tss_centered == 0.0:
        raise ZeroTotalSumOfSquares("dependent column is constant")
    return 1.0 - result.rss / result.tss_centered
