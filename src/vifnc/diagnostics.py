"""Collinearity diagnostics: VIF, VIFnc, Stewart's index, and reports.

The centered auxiliary regression (with intercept) yields the classical
VIF and detects near-linear relations among the regressors themselves
("essential" collinearity). The non-centered one (through the origin)
yields VIFnc, which reacts to relations among low-variability columns, the
constant included once it is passed explicitly ("non-essential").

No auxiliary regression is refitted. Every auxiliary RSS comes from one
kernel, :mod:`vifnc.linalg`: one Householder factor of the design, and
``RSS_j = 1 / [(A'A)^-1]_jj`` read off the inverse of that factor with
unit-length columns. Only where that factor's Frobenius condition reaches
``1e-3 / SCALED_RANK_RTOL``, which bounds its spectral condition, does the
kernel take its SVD and read ``1 / [(A'A)^+]_jj`` over the numerically
nonzero singular values; below it the SVD would find full rank too.

Every diagnostic reads one factor of its DataMatrix: R of ``[D, 1] = QR``
with D every column of the matrix and the ones column last, and each
column's mean, ``x'x``, centered TSS and constant flag. A column set S is
read at its positions in D, in D's order, with the ones column: R of
``[D_S, 1]`` (a QR of ``R[:, S + [ones]]``, or R itself when S is every
column) gives both halves from one back-substitution,
:func:`vifnc.linalg._halves`. Its leading block is R of ``D_S``, so the
through-origin RSS sum row j of the inverse up to the ones column,
``g_nc,j``, and the centered ones add that row's ones entry,
``g_c,j = g_nc,j + t_j^2``: the paper's two regressions differ by one
column, and the code by one term. Each half keeps its own guard and
SVD route. Each VIF and VIFnc comes with its RSS from one read,
``_Factor.read``, as ``(TSS / RSS, RSS)``: the centered TSS and RSS for
the VIF, ``x'x`` and the through-origin RSS for the VIFnc, ``math.inf``
exactly where the kernel read RSS 0 (null-space weight, or a constant
column's centered read), in that row only. So ``full_report``,
``variance_factors``, ``intercept_trick``, ``vif``, ``vifnc``,
``stewart_decomposition`` and, on its stack of replications,
:func:`vifnc.montecarlo.run_scenario` share one factor per matrix, and a
value depends on the data and the column set alone: a per-column call
equals the report row of a model on the same columns, and a replication
the calls on its own matrix, bit for bit. The factor costs n*K^2 for K
columns, so a caller pays for every column of the matrix it passes.
``stewart_index`` (the Gram system) and ``auxiliary_regression`` (a refit)
keep routes of their own.

Conventions: ``vifnc(j, regressors)`` regresses j on exactly the named
regressors and never adds a ones column; passing an explicit all-ones
regressor is the intercept trick. ``stewart_k2`` in a report row is
Stewart's index of the fitted design minus column j, so it includes the
intercept whenever the model has one: it equals ``vif + n*mean^2/RSS``
exactly for intercept models and ``vifnc`` for through-origin ones.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConstantRegressor,
    NoConstantColumn,
    RankDeficient,
    TooFewObservations,
    ZeroColumn,
)
from .linalg import _guarded, _halves
from .ols import INTERCEPT_NAME, DataMatrix, FitResult, ModelSpec, _distinct, fit

#: Bytes of one design's ``[D, 1]`` that the factor takes at a time (see ``_Factor``).
_FACTOR_BYTES = 1 << 20
#: The largest ``x'x`` the factor takes: its column norms, rounded, must square to a finite value.
_XTX_MAX = np.finfo(float).max / 2
#: The Gram route's floor: :func:`stewart_index` reads ``inf`` at an RSS of at most this times x'x.
_GRAM_FLOOR = 1e-12


class AuxiliaryMode(enum.Enum):
    """Whether an auxiliary regression carries an intercept."""

    CENTERED = "centered"
    NONCENTERED = "noncentered"


@dataclass(frozen=True)
class Thresholds:
    """Flagging thresholds for the report.

    The conventional VIF cutoff of 10 is the default for both; no
    canonical VIFnc threshold exists, which is why both stay configurable
    and the report carries a caveat saying so. An infinite threshold never
    flags, not even an infinite value; NaN raises ``ValueError``, since every
    comparison with it is false and it would silently never flag either.
    """

    vif: float = 10.0
    vifnc: float = 10.0

    def __post_init__(self) -> None:
        for name in ("vif", "vifnc"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name}_threshold must be a number or inf, got nan")


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
    """The regressors of column ``j``: every other column, or those named.

    Named ones must be distinct and exclude ``j``, as in a :class:`ModelSpec`.
    """
    data.column(j)  # surface UnknownColumn for j itself first
    if regressors is None:
        return tuple(n for n in data.names if n != j)
    return _distinct(regressors, j)


def auxiliary_regression(
    data: DataMatrix,
    j: str,
    regressors: Sequence[str] | None,
    mode: AuxiliaryMode,
) -> FitResult:
    """Regress column ``j`` on ``regressors`` (default: every other column).

    The fit has an intercept exactly when ``mode`` is CENTERED.
    """
    spec = ModelSpec(j, _others(data, j, regressors), mode is AuxiliaryMode.CENTERED)
    return fit(data, spec)


def _ratio_or_inf(tss, rss) -> np.ndarray:
    """``tss / rss`` elementwise; ``inf`` where RSS is 0, or so small that the ratio overflows."""
    tss, rss = np.asarray(tss, dtype=float), np.asarray(rss, dtype=float)
    with np.errstate(over="ignore"):
        return np.where(rss == 0.0, np.inf, tss / np.where(rss == 0.0, 1.0, rss))


def _term(vif, mean, n: int, rss) -> np.ndarray:
    """``n*mean^2/rss``, Stewart's index minus the VIF; inf with the VIF unless the mean is 0."""
    with np.errstate(over="ignore"):
        term = n * mean * mean / np.where(np.isinf(vif), 1.0, rss)
    return np.where(np.isinf(vif), np.where(mean != 0.0, np.inf, 0.0), term)


class _TooLarge(ValueError):
    """A column whose ``x'x`` exceeds :data:`_XTX_MAX`, at ``position`` in the design."""

    def __init__(self, position: int, name: str | None = None):
        super().__init__(
            f"column {position if name is None else repr(name)} is too large:"
            " its sum of squares exceeds half the float64 range"
        )
        self.position = position


class _Factor:
    """One Householder factor of ``[D, 1]`` and its column sums, D of shape ``(..., n, K)``.

    D is one design or a stack of them, each read alone: a stack's fields
    equal each design's to the bit. ``r`` is R of ``[D, 1] = QR``, the
    ones column last, taken in blocks of rows of about
    :data:`_FACTOR_BYTES` per design: R of the rows so far, stacked on the
    next block, is factored again, which is as backward stable as one
    pass, keeps the block in cache and never copies the whole matrix.

    Arrays over ``(..., K)``, per column of D: ``mean``, ``xtx`` (``x'x``),
    ``tss_c`` (the centered TSS) and ``constant`` (every entry equal), each
    in the floating-point order of ``x.mean()``, ``x @ x`` and
    ``((x - mean) ** 2).sum()`` on the column, so the values do not depend
    on the route that read them. A constant column's mean is its value, so
    its ``tss_c`` is exactly 0.

    A column set S is read at its positions in D, in D's order, so a value
    depends on the data and the set alone. Since ``R[:, S]'R[:, S]`` is
    ``D_S'D_S``, a QR of the (K+1)-row ``R[:, S + [ones]]`` is R of
    ``[D_S, 1]``, and :func:`vifnc.linalg._halves` reads its centered and
    through-origin RSS off one back-substitution, kept per S; each half is
    routed (:func:`vifnc.linalg._guarded`) when first read. Each read runs
    the kernel on first use only, so a report names a zero column before
    the kernel can object to the design's shape.
    """

    def __init__(self, values: np.ndarray):
        *stack, n, k = values.shape
        # on each strided column: BLAS sums a contiguous copy in another order
        with np.errstate(over="ignore"):
            xtx = [(v[..., None, :] @ v[..., :, None])[..., 0, 0] for v in np.moveaxis(values, -1, 0)]
        self.xtx = np.stack(xtx, axis=-1)
        too_large = ~(self.xtx <= _XTX_MAX).reshape(-1, k).all(axis=0)
        if too_large.any():
            raise _TooLarge(int(np.argmax(too_large)))
        # allocated first: a buffer taken after the QR's temporaries sits above
        # them on the heap and keeps it from shrinking once they are freed
        x = np.empty((*stack, n))  # contiguous, as the sums' floating-point order needs
        self.mean, self.tss_c = np.empty((*stack, k)), np.empty((*stack, k))
        self.constant = np.empty((*stack, k), dtype=bool)
        self.r = np.empty((*stack, 0, k + 1))
        block = max(1, _FACTOR_BYTES // (8 * (k + 1)))
        for start in range(0, n, block):
            rows = values[..., start : start + block, :]
            # each design in Fortran order, as LAPACK takes it
            design = np.empty((*stack, k + 1, self.r.shape[-2] + rows.shape[-2])).swapaxes(-1, -2)
            design[..., : self.r.shape[-2], :] = self.r
            design[..., self.r.shape[-2] :, :k] = rows
            design[..., self.r.shape[-2] :, k] = 1.0
            self.r = np.linalg.qr(design, mode="r")
        for c in range(k):
            x[...] = values[..., c]
            self.constant[..., c] = constant = x.min(axis=-1) == x.max(axis=-1)
            self.mean[..., c] = mean = np.where(constant, x[..., 0], x.mean(axis=-1))
            x -= mean[..., None]
            self.tss_c[..., c] = np.multiply(x, x, out=x).sum(axis=-1)
        self._halves, self._rss = {}, {}

    def rss(self, positions: Sequence[int], centered: bool) -> tuple[np.ndarray, np.ndarray]:
        """Each column's RSS on the others at ``positions``, in their given order, and the rank.

        ``centered`` adds the ones column, its RSS last, for :meth:`read` and
        ``variance_factors``. Both halves of a column set come from one read of
        the factor, kept for the next call on the same set.
        """
        # an auxiliary regression of a design of `columns` needs `columns - 1` rows (see linalg)
        rows, columns = self.r.shape[-2], len(positions) + centered
        if rows < columns - 1:
            message = f"{rows} observations cannot support {columns - 1} design columns"
            raise TooFewObservations(message)
        canonical = tuple(sorted(positions))
        if canonical not in self._halves:
            # R of [D_S, 1]: a QR of R's columns S and the ones column, unless they are all of R
            r = self.r[..., [*canonical, self.r.shape[-1] - 1]]
            if len(canonical) + 1 < self.r.shape[-1]:
                r = np.linalg.qr(r, mode="r")
            if r.shape[-2] < r.shape[-1]:
                # zero rows leave R'R, and so every RSS, unchanged and make R square
                pad = np.zeros((*r.shape[:-2], r.shape[-1] - r.shape[-2], r.shape[-1]))
                r = np.concatenate([r, pad], axis=-2)
            self._halves[canonical] = _halves(r)
        if (centered, canonical) not in self._rss:
            # a half the guard sends to the SVD takes it when first read, not before
            half = self._halves[canonical][0 if centered else 1]
            self._rss[centered, canonical] = _guarded(*half)
        rss, rank = self._rss[centered, canonical]
        out = rss.copy()
        out[..., np.argsort(positions, kind="stable")] = rss[..., : len(positions)]
        return out, rank

    def read(self, positions: Sequence[int], centered: bool) -> tuple[np.ndarray, np.ndarray]:
        """Each column's ``TSS / RSS`` on the others at ``positions``, and that RSS, in their order.

        ``centered``: with an intercept, over the centered TSS (the VIF); else through the
        origin, over ``x'x`` (the VIFnc). ``inf`` exactly where the kernel read RSS 0.
        A lone column has nothing to regress on: its RSS is its TSS, so its ratio is
        exactly 1, or ``inf`` at a TSS of 0.
        """
        tss = (self.tss_c if centered else self.xtx)[..., positions]
        if len(positions) == 1:
            return _ratio_or_inf(tss, tss), tss
        rss = self.rss(positions, centered)[0][..., : len(positions)]
        return _ratio_or_inf(tss, rss), rss


def _factor(data: DataMatrix) -> _Factor:
    """The factor of every column of ``data``, built once and kept on ``data``."""
    factor = data.__dict__.get("_factor")
    if factor is None:
        try:
            factor = _Factor(data.values)
        except _TooLarge as exc:
            raise _TooLarge(exc.position, data.names[exc.position]) from None
        object.__setattr__(data, "_factor", factor)  # frozen, but its values never change
    return factor


def _factor_at(data: DataMatrix, names: Sequence[str]) -> tuple[_Factor, list[int]]:
    """:func:`_factor` and each name's position; :class:`UnknownColumn` for the first it lacks."""
    for name in names:
        data.column(name)
    return _factor(data), [data.names.index(name) for name in names]


def _nonzero_xtx(factor: _Factor, names: Sequence[str], positions: list[int]) -> np.ndarray:
    """``x'x`` of the columns at ``positions``; :class:`ZeroColumn` names the first all-zero one."""
    xtx = factor.xtx[positions]
    for name, value in zip(names, xtx):
        if value == 0.0:
            raise ZeroColumn(f"column {name!r} is identically zero")
    return xtx


def _centered_on_others(
    data: DataMatrix, j: str, regressors: Sequence[str] | None, undefined: str
) -> tuple[float, float]:
    """VIF and :func:`_term` of column ``j`` regressed on ``regressors`` with an intercept.

    Raises :class:`ConstantRegressor`, saying that ``undefined`` is undefined,
    when column j is exactly constant.
    """
    factor, positions = _factor_at(data, _others(data, j, regressors) + (j,))
    i = positions[-1]
    if factor.constant[i]:
        raise ConstantRegressor(f"column {j!r} is constant; {undefined} is undefined")
    value, rss = (v[-1] for v in factor.read(positions, centered=True))
    return float(value), float(_term(value, factor.mean[i], data.n, rss))


def vif(
    data: DataMatrix,
    j: str,
    regressors: Sequence[str] | None = None,
) -> float:
    """Classical variance inflation factor of column ``j``.

    Computed as 1/(1 - R2) of the centered auxiliary regression of j on
    the given regressors, evaluated as TSS_centered/RSS for stability.

    Returns ``math.inf`` exactly where the kernel reads RSS 0 (j is an
    exact combination of the regressors); raises
    :class:`ConstantRegressor` when column j is exactly constant.
    """
    return _centered_on_others(data, j, regressors, "centered VIF")[0]


def vifnc(
    data: DataMatrix,
    j: str,
    regressors: Sequence[str] | None = None,
) -> float:
    """Non-centered variance inflation factor of column ``j``.

    1/(1 - R2nc) of the through-origin auxiliary regression of j on the
    given regressors, evaluated as sum(x^2)/RSS. No ones column is ever
    added here; include one in ``regressors`` explicitly to expose
    non-essential collinearity (the intercept trick).
    """
    factor, positions = _factor_at(data, _others(data, j, regressors) + (j,))
    _nonzero_xtx(factor, (j,), positions[-1:])
    return float(factor.read(positions, centered=False)[0][-1])


def stewart_index(
    data: DataMatrix,
    j: str,
    regressors: Sequence[str] | None = None,
) -> float:
    """Stewart's collinearity index k_j^2 from cross products.

    ``x'x / (x'x - x'Z (Z'Z)^-1 Z'x)`` with Z the remaining columns: a
    numerically independent route to the same quantity as :func:`vifnc`,
    which goes through the spectral kernel instead of the Gram system.
    ``Z'Z`` is scaled to unit diagonal before its rank is tested and the
    system solved, so a column's units do not decide either. Raises
    :class:`RankDeficient` when the scaled ``Z'Z`` is numerically singular.

    The Gram system squares the condition number, so digits go as VIFnc
    grows: against a 50-digit reference the relative error is about
    3e-15 times VIFnc (2e-11 at VIFnc 1.3e4, 3.5e-5 at 1.2e10), where
    :func:`vifnc` stays within 3e-11 up to VIFnc 2e10. An exact relation cancels
    the RSS, a difference, to rounding noise rather than to 0 (``x = 2 z1 - 3 z2``
    read 1.5e15 to 9e15 on 120 of 300 draws), hence the floor :data:`_GRAM_FLOOR`.
    With no regressors there is nothing to project on, and the index is 1.
    """
    names = _others(data, j, regressors)
    others = data.matrix(names) if names else None
    x = data.column(j)
    tss = float(x @ x)
    if tss == 0.0:
        raise ZeroColumn(f"column {j!r} is identically zero")
    if others is None:
        return 1.0  # nothing to project on: x'x / x'x
    gram = others.T @ others
    d = np.sqrt(np.diag(gram))
    d[d == 0.0] = 1.0  # a zero column keeps its zero row, and so the singular verdict
    gram /= np.outer(d, d)
    q = (others.T @ x) / d
    if np.linalg.matrix_rank(gram, hermitian=True) < gram.shape[0]:
        raise RankDeficient("cross-product matrix of the remaining columns is singular")
    rss = tss - float(q @ np.linalg.solve(gram, q))
    return math.inf if rss <= _GRAM_FLOOR * tss else tss / rss


def stewart_decomposition(
    data: DataMatrix,
    j: str,
    regressors: Sequence[str] | None = None,
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
    return _centered_on_others(data, j, regressors, "the decomposition")


def variance_factors(
    data: DataMatrix,
    spec: ModelSpec,
) -> list[VarianceFactor]:
    """Coefficient variances of the model as multiples of sigma^2.

    For each design column j: ``var_over_sigma2 = [(A'A)^-1]_jj = 1/RSS_j``
    where RSS_j comes from regressing that column on every other design
    column (the ones column included when the model has an intercept),
    and ``var_orthogonal_over_sigma2 = 1/(x_j'x_j)`` is the
    orthogonal-design reference. Their ratio is the variance inflation
    relative to that reference and, for through-origin models, equals
    VIFnc of the column within the design.

    Raises :class:`RankDeficient` when the design's numerical rank is
    below its column count: with unit-length columns, a singular value
    below :data:`vifnc.linalg.SCALED_RANK_RTOL` times the largest counts
    as zero, whatever the columns' units.
    """
    factor, positions = _factor_at(data, spec.regressors)
    rss, rank = factor.rss(positions, spec.intercept)
    if rank < rss.shape[0]:
        raise RankDeficient("model design is numerically rank deficient")
    # the ones column: x'x = n, and it is the intercept; its RSS comes last, but it leads the design
    lead = [(INTERCEPT_NAME, float(data.n), True)] if spec.intercept else []
    xtx, constant = factor.xtx[positions].tolist(), factor.constant[positions].tolist()
    columns = lead + list(zip(spec.regressors, xtx, constant))
    return [
        VarianceFactor(
            variable=name,
            var_over_sigma2=float(var),
            var_orthogonal_over_sigma2=1.0 / xtx,
            ratio=float(var) * xtx,
            intercept_position=constant,
        )
        for (name, xtx, constant), var in zip(columns, np.roll(1.0 / rss, int(spec.intercept)))
    ]


def intercept_trick(
    data: DataMatrix,
    regressors: Sequence[str],
) -> list[tuple[str, float]]:
    """VIFnc of every regressor in a set containing an explicit ones column.

    This is the procedure that makes VIFnc see non-essential
    collinearity: treat the model as non-centered but keep the constant
    as an ordinary regressor, then run the through-origin auxiliary
    regressions within the set. The ones column must be present and
    unique; it is never synthesized here. A regressor named twice raises
    ``ValueError``, as in a :class:`ModelSpec`.
    """
    regressors = _distinct(regressors)
    factor, positions = _factor_at(data, regressors)
    is_ones = factor.constant[positions] & (factor.mean[positions] == 1.0)
    ones = [name for name, one in zip(regressors, is_ones) if one]
    if not ones:
        raise NoConstantColumn("the intercept trick needs an explicit all-ones regressor")
    if len(ones) > 1:
        raise ValueError(f"more than one all-ones regressor: {ones}")
    _nonzero_xtx(factor, regressors, positions)
    return list(zip(regressors, factor.read(positions, centered=False)[0].tolist()))


def full_report(
    data: DataMatrix,
    spec: ModelSpec,
    thresholds: Thresholds = Thresholds(),
) -> CollinearityReport:
    """One diagnostics row per regressor of ``spec``, in spec order.

    Auxiliary regressions for a row use the model's other regressors;
    ``stewart_k2`` uses the fitted design with the row's column removed
    (see the module docstring for how that interacts with the intercept).
    Flags are pure functions of the numbers and the thresholds:
    ``essential_suspect`` when vif >= thresholds.vif, and
    ``nonessential_suspect`` when vifnc >= thresholds.vifnc while vif
    stayed below its threshold (or was undefined); an infinite threshold
    never fires its flag.

    Every row comes from the matrix's one factor (see the module
    docstring), which ``variance_factors`` and the per-column functions
    read as well. A singular design gives ``inf`` rows, never an
    exception: a column the kernel reads with RSS 0 reads ``inf``, and
    the others keep their values.

    Raises :class:`ZeroColumn` for an identically zero regressor, and
    :class:`TooFewObservations` when a centered auxiliary regression has
    more columns than there are rows.
    """
    if len(spec.regressors) < 2:
        raise ValueError("a collinearity report needs at least two regressors")
    data.column(spec.dependent)
    factor, positions = _factor_at(data, spec.regressors)
    xtx = _nonzero_xtx(factor, spec.regressors, positions)
    mean, constant = factor.mean[positions], factor.constant[positions]
    values_nc, rss_nc = factor.read(positions, centered=False)
    values_c, rss_c = factor.read(positions, centered=True)
    stewart = _ratio_or_inf(xtx, rss_c) if spec.intercept else values_nc
    term = _term(values_c, mean, data.n, rss_c)
    # sd/|mean|, inf at mean 0; sd = sqrt(tss_c / (n - 1)) is x.std(ddof=1) to the bit
    cv = _ratio_or_inf(np.sqrt(factor.tss_c[positions] / (data.n - 1)), np.abs(mean))
    # an infinite threshold never flags, not even an infinite value
    essential = ~constant & (values_c >= thresholds.vif) & (thresholds.vif < math.inf)
    nonessential = ~essential & (values_nc >= thresholds.vifnc) & (thresholds.vifnc < math.inf)
    # a constant column's centered values are undefined: None in its row
    values_c, term, rss_c = (np.where(constant, None, v).tolist() for v in (values_c, term, rss_c))
    mean, values_nc, stewart, rss_nc, cv, essential, nonessential = (
        v.tolist() for v in (mean, values_nc, stewart, rss_nc, cv, essential, nonessential)
    )
    rows = tuple(
        CollinearityRow(
            variable=j,
            mean=mean[i],
            vif=values_c[i],
            vifnc=values_nc[i],
            stewart_k2=stewart[i],
            nonessential_term=term[i],
            rss_aux_centered=rss_c[i],
            rss_aux_noncentered=rss_nc[i],
            coef_variation=cv[i],
            essential_suspect=essential[i],
            nonessential_suspect=nonessential[i],
        )
        for i, j in enumerate(spec.regressors)
    )
    return CollinearityReport(rows=rows, thresholds=thresholds)
