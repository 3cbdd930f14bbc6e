"""Collinearity diagnostics: VIF, VIFnc, Stewart's index, and reports.

The centered auxiliary regression (with intercept) yields the classical
VIF and detects near-linear relations among the regressors themselves
("essential" collinearity). The non-centered one (through the origin)
yields VIFnc, which reacts to relations among low-variability columns, the
constant included once it is passed explicitly ("non-essential").

No auxiliary regression is refitted. Each RSS is a closed form of one
Householder factor ``A = QR``: ``RSS(x | Z) = R[-1, -1]^2`` for
``A = [Z, x]``, and for every column at once ``RSS_j = 1 / [(A'A)^-1]_jj``,
the inverse squared norm of row j of ``R^-1``. A factor that fails the
R-diagonal rank test is not used: its values come from the per-column
:func:`auxiliary_regression` fit and, for ``stewart_k2``, the Gram route
of :func:`stewart_index`, so degenerate designs report exactly as those
routes do, ``RankDeficient`` included.

Conventions: ``vifnc(j, regressors)`` regresses j on exactly the named
regressors and never adds a ones column; passing an explicit all-ones
regressor is the intercept trick. ``stewart_k2`` in a report row is
Stewart's index of the fitted design minus column j, so it includes the
intercept whenever the model has one: it equals ``vif + n*mean^2/RSS``
exactly for intercept models and ``vifnc`` for through-origin ones.
Perfect collinearity returns ``math.inf``, never raises.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConstantRegressor, NoConstantColumn, RankDeficient, ZeroColumn
from .linalg import DEFAULT_RANK_RTOL, qr_rank
from .ols import INTERCEPT_NAME, DataMatrix, FitResult, ModelSpec, fit

#: Auxiliary R-squared at or above 1 - PERFECT_TOL triggers the infinity
#: sentinel for VIF/VIFnc.
DEFAULT_PERFECT_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


class AuxiliaryMode(enum.Enum):
    """Whether an auxiliary regression carries an intercept."""

    CENTERED = "centered"
    NONCENTERED = "noncentered"


@dataclass(frozen=True)
class Thresholds:
    """Flagging thresholds for the report.

    The conventional VIF cutoff of 10 is the default for both; no
    canonical VIFnc threshold exists, which is why both stay configurable
    and the report carries a caveat saying so.
    """

    vif: float = 10.0
    vifnc: float = 10.0


@dataclass(frozen=True)
class CollinearityRow:
    """Per-regressor diagnostics.

    ``vif`` is None for an exactly constant column (centered VIF is
    undefined there), and ``nonessential_term`` / ``rss_aux_centered``
    are None with it. ``coef_variation`` is sd/|mean| of the column,
    reported as supporting evidence for the low-variability reading of
    non-essential collinearity; it takes no part in the flags.
    """

    variable: str
    mean: float
    vif: float | None
    vifnc: float
    stewart_k2: float
    nonessential_term: float | None
    rss_aux_centered: float | None
    rss_aux_noncentered: float
    coef_variation: float
    essential_suspect: bool
    nonessential_suspect: bool


@dataclass(frozen=True)
class VarianceFactor:
    """Variance of one coefficient as a multiple of sigma^2.

    ``ratio`` compares against the orthogonal-design reference variance
    and equals VIFnc of the column within its design. ``intercept_position``
    marks the constant column, whose variance factor falls outside the
    j = 2..k decomposition the centered theory covers.
    """

    variable: str
    var_over_sigma2: float
    var_orthogonal_over_sigma2: float
    ratio: float
    intercept_position: bool = False


@dataclass(frozen=True)
class CollinearityReport:
    rows: tuple[CollinearityRow, ...]
    thresholds: Thresholds


def _others(data: DataMatrix, j: str, regressors: Sequence[str] | None) -> tuple[str, ...]:
    if regressors is None:
        data.column(j)  # surface UnknownColumn for j itself
        return tuple(n for n in data.names if n != j)
    return tuple(regressors)


def auxiliary_regression(
    data: DataMatrix,
    j: str,
    regressors: Sequence[str] | None,
    mode: AuxiliaryMode,
    rank_rtol: float = DEFAULT_RANK_RTOL,
) -> FitResult:
    """Regress column ``j`` on ``regressors`` (default: every other column).

    The fit has an intercept exactly when ``mode`` is CENTERED.
    """
    spec = ModelSpec(j, _others(data, j, regressors), mode is AuxiliaryMode.CENTERED)
    return fit(data, spec, rank_rtol=rank_rtol)


def _is_constant(x: np.ndarray) -> bool:
    return float(x.min()) == float(x.max())


def _ratio_or_inf(tss: float, rss: float, perfect_tol: float) -> float:
    """``tss / rss``, or ``math.inf`` once rss is at most ``perfect_tol * tss``."""
    return math.inf if rss <= perfect_tol * tss else tss / rss


def _vif_and_term(x: np.ndarray, rss: float, perfect_tol: float) -> tuple[float, float]:
    """VIF and ``n*mean^2/RSS`` of ``x``; the term is inf with the VIF unless the mean is 0."""
    mean = float(x.mean())
    value = _ratio_or_inf(float(((x - mean) ** 2).sum()), rss, perfect_tol)
    if math.isinf(value):
        return value, math.inf if mean != 0.0 else 0.0
    return value, x.shape[0] * mean * mean / rss


def _factor(design: np.ndarray, rank_rtol: float = DEFAULT_RANK_RTOL) -> np.ndarray | None:
    """Triangular factor R of ``design``, or None when it fails the rank test."""
    r = np.linalg.qr(design, mode="r")
    return r if qr_rank(r, rank_rtol) == design.shape[1] else None


def _inverse_gram_diagonal(r: np.ndarray) -> np.ndarray:
    """``diag((A'A)^-1)`` as the squared row norms of ``R^-1``, for ``A = QR``."""
    r_inv = np.linalg.inv(r)  # LU of a triangular R is R: a triangular inverse
    return np.einsum("ij,ij->i", r_inv, r_inv)


def _aux_rss(data: DataMatrix, j: str, regressors: Sequence[str] | None, intercept: bool) -> float:
    """RSS of the auxiliary regression of ``j``, as ``R[-1, -1]^2`` of ``[design, x_j]``."""
    spec = ModelSpec(j, _others(data, j, regressors), intercept)
    r = _factor(data.matrix(spec.regressors + (j,), spec.intercept))
    return fit(data, spec).rss if r is None else float(r[-1, -1]) ** 2


def vif(
    data: DataMatrix,
    j: str,
    regressors: Sequence[str] | None = None,
    *,
    perfect_tol: float = DEFAULT_PERFECT_TOL,
) -> float:
    """Classical variance inflation factor of column ``j``.

    Computed as 1/(1 - R2) of the centered auxiliary regression of j on
    the given regressors, evaluated as TSS_centered/RSS for stability.

    Returns ``math.inf`` when the auxiliary R2 reaches 1 within
    ``perfect_tol``; raises :class:`ConstantRegressor` when column j is
    exactly constant.
    """
    x = data.column(j)
    if _is_constant(x):
        raise ConstantRegressor(f"column {j!r} is constant; centered VIF is undefined")
    return _vif_and_term(x, _aux_rss(data, j, regressors, intercept=True), perfect_tol)[0]


def vifnc(
    data: DataMatrix,
    j: str,
    regressors: Sequence[str] | None = None,
    *,
    perfect_tol: float = DEFAULT_PERFECT_TOL,
) -> float:
    """Non-centered variance inflation factor of column ``j``.

    1/(1 - R2nc) of the through-origin auxiliary regression of j on the
    given regressors, evaluated as sum(x^2)/RSS. No ones column is ever
    added here; include one in ``regressors`` explicitly to expose
    non-essential collinearity (the intercept trick).
    """
    x = data.column(j)
    tss = float(x @ x)
    if tss == 0.0:
        raise ZeroColumn(f"column {j!r} is identically zero")
    return _ratio_or_inf(tss, _aux_rss(data, j, regressors, intercept=False), perfect_tol)


def _stewart_from_arrays(x: np.ndarray, others: np.ndarray, perfect_tol: float) -> float:
    """Stewart's index from cross products: x'x / (x'x - x'Z (Z'Z)^-1 Z'x)."""
    gram = others.T @ others
    q = others.T @ x
    if np.linalg.matrix_rank(gram, hermitian=True) < gram.shape[0]:
        raise RankDeficient("cross-product matrix of the remaining columns is singular")
    sol = np.linalg.solve(gram, q)
    tss = float(x @ x)
    return _ratio_or_inf(tss, tss - float(q @ sol), perfect_tol)


def stewart_index(
    data: DataMatrix,
    j: str,
    regressors: Sequence[str] | None = None,
    *,
    perfect_tol: float = DEFAULT_PERFECT_TOL,
) -> float:
    """Stewart's collinearity index k_j^2 from cross products.

    Numerically independent route to the same quantity as
    :func:`vifnc`: the one goes through a QR factor, this one through the
    Gram system of the remaining columns.
    """
    others = _others(data, j, regressors)
    x = data.column(j)
    if float(x @ x) == 0.0:
        raise ZeroColumn(f"column {j!r} is identically zero")
    return _stewart_from_arrays(x, data.matrix(others), perfect_tol)


def stewart_decomposition(
    data: DataMatrix,
    j: str,
    regressors: Sequence[str] | None = None,
    *,
    perfect_tol: float = DEFAULT_PERFECT_TOL,
) -> tuple[float, float]:
    """Split Stewart's index into its VIF part and the mean-driven part.

    Returns ``(vif(j), n * mean(x_j)^2 / RSS_j)`` with RSS_j taken from
    the *centered* auxiliary regression. The parts sum exactly to
    Stewart's index of the design that augments ``regressors`` with the
    constant column, i.e. to ``vifnc`` computed with an explicit ones
    column among the regressors; the sum matches plain
    ``vifnc(data, j, regressors)`` only when the regressors already span
    the constant.
    """
    x = data.column(j)
    if _is_constant(x):
        raise ConstantRegressor(f"column {j!r} is constant; the decomposition is undefined")
    return _vif_and_term(x, _aux_rss(data, j, regressors, intercept=True), perfect_tol)


def variance_factors(
    data: DataMatrix,
    spec: ModelSpec,
    *,
    rank_rtol: float = DEFAULT_RANK_RTOL,
) -> list[VarianceFactor]:
    """Coefficient variances of the model as multiples of sigma^2.

    For each design column j: ``var_over_sigma2 = [(A'A)^-1]_jj = 1/RSS_j``
    where RSS_j comes from regressing that column on every other design
    column (the ones column included when the model has an intercept),
    and ``var_orthogonal_over_sigma2 = 1/(x_j'x_j)`` is the
    orthogonal-design reference. Their ratio is the variance inflation
    relative to that reference and, for through-origin models, equals
    VIFnc of the column within the design.
    """
    design = data.matrix(spec.regressors, spec.intercept)
    names = ((INTERCEPT_NAME,) if spec.intercept else ()) + spec.regressors
    r = _factor(design, rank_rtol)
    if r is None:
        raise RankDeficient("model design is numerically rank deficient")
    return [
        VarianceFactor(
            variable=name,
            var_over_sigma2=float(var),
            var_orthogonal_over_sigma2=1.0 / float(x @ x),
            ratio=float(var) * float(x @ x),
            intercept_position=(spec.intercept and idx == 0) or _is_constant(x),
        )
        for idx, (name, var, x) in enumerate(zip(names, _inverse_gram_diagonal(r), design.T))
    ]


def intercept_trick(
    data: DataMatrix,
    regressors: Sequence[str],
    *,
    perfect_tol: float = DEFAULT_PERFECT_TOL,
) -> list[tuple[str, float]]:
    """VIFnc of every regressor in a set containing an explicit ones column.

    This is the procedure that makes VIFnc see non-essential
    collinearity: treat the model as non-centered but keep the constant
    as an ordinary regressor, then run the through-origin auxiliary
    regressions within the set. The ones column must be present and
    unique; it is never synthesized here.
    """
    regressors = tuple(regressors)
    ones = [name for name in regressors if np.all(data.column(name) == 1.0)]
    if not ones:
        raise NoConstantColumn("the intercept trick needs an explicit all-ones regressor")
    if len(ones) > 1:
        raise ValueError(f"more than one all-ones regressor: {ones}")
    return [
        (j, vifnc(data, j, [o for o in regressors if o != j], perfect_tol=perfect_tol))
        for j in regressors
    ]


def full_report(
    data: DataMatrix,
    spec: ModelSpec,
    thresholds: Thresholds = Thresholds(),
    *,
    perfect_tol: float = DEFAULT_PERFECT_TOL,
) -> CollinearityReport:
    """One diagnostics row per regressor of ``spec``, in spec order.

    Auxiliary regressions for a row use the model's other regressors;
    ``stewart_k2`` uses the fitted design with the row's column removed
    (see the module docstring for how that interacts with the intercept).
    Flags are pure functions of the numbers and the thresholds:
    ``essential_suspect`` when vif >= thresholds.vif, and
    ``nonessential_suspect`` when vifnc >= thresholds.vifnc while vif
    stayed below its threshold (or was undefined).
    """
    if len(spec.regressors) < 2:
        raise ValueError("a collinearity report needs at least two regressors")
    data.column(spec.dependent)
    r_nc, r_c = (_factor(data.matrix(spec.regressors, c)) for c in (False, True))
    g_nc, g_c = (None if r is None else _inverse_gram_diagonal(r) for r in (r_nc, r_c))
    r_model = r_c if spec.intercept else r_nc
    # Near the Gram route's singularity line (cond^2 * k * eps ~ 1), rows still
    # run that route so its RankDeficient verdict stands; values use the factor.
    gram_route = r_model is None or np.linalg.cond(r_model) ** 2 * len(r_model) * _EPS > 1e-2

    rows = []
    for i, j in enumerate(spec.regressors):
        others = tuple(o for o in spec.regressors if o != j)
        x = data.column(j)
        mean = float(x.mean())
        cv = math.inf if mean == 0.0 else float(x.std(ddof=1)) / abs(mean)

        tss_unc = float(x @ x)
        if tss_unc == 0.0:
            raise ZeroColumn(f"column {j!r} is identically zero")
        rss_nc = (
            auxiliary_regression(data, j, others, AuxiliaryMode.NONCENTERED).rss
            if g_nc is None else 1.0 / float(g_nc[i])
        )
        value_nc = _ratio_or_inf(tss_unc, rss_nc, perfect_tol)

        value_vif = rss_c = term = None
        if not _is_constant(x):
            rss_c = (
                auxiliary_regression(data, j, others, AuxiliaryMode.CENTERED).rss
                if g_c is None else 1.0 / float(g_c[i + 1])
            )
            value_vif, term = _vif_and_term(x, rss_c, perfect_tol)

        if gram_route:
            k2 = _stewart_from_arrays(x, data.matrix(others, spec.intercept), perfect_tol)
        if r_model is not None:
            k2 = _ratio_or_inf(tss_unc, rss_c if spec.intercept else rss_nc, perfect_tol)

        essential = value_vif is not None and value_vif >= thresholds.vif
        nonessential = value_nc >= thresholds.vifnc and not essential
        rows.append(
            CollinearityRow(
                variable=j,
                mean=mean,
                vif=value_vif,
                vifnc=value_nc,
                stewart_k2=k2,
                nonessential_term=term,
                rss_aux_centered=rss_c,
                rss_aux_noncentered=rss_nc,
                coef_variation=cv,
                essential_suspect=essential,
                nonessential_suspect=nonessential,
            )
        )
    return CollinearityReport(rows=tuple(rows), thresholds=thresholds)
