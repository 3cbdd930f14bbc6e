"""Metamorphic checks over the conditioning sweep of ``test_aux_rss.py``.

Each check changes a design in a way whose effect on the diagnostics is
known exactly, and needs no reference value:

* Scaling a column by a power of two scales its R column and its norm
  exactly, so the unit-column factor, and with it ``vif``, ``vifnc``,
  ``stewart_k2`` and the numerical rank, keep every bit. Scaling by a
  power of ten rounds the column once, which moves a value by about
  eps * cond.
* Permuting a model's regressors permutes its report rows bit for bit:
  the factor reads a column set in the matrix's order, whatever order
  the spec gives.
* Adding a regressor never lowers an RSS-based VIF or VIFnc, since an
  auxiliary RSS can only fall when its regression gains a column.
* The intercept trick's VIFnc of a column is ``x'x / RSS`` over the same
  centered RSS as its VIF, ``TSS_c / RSS``, and ``x'x >= TSS_c``.

The sweep holds designs on both of the kernel's routes: near relations up
to condition 1e8 read off the inverse, the rest off the SVD. Where two
values come from different roundings, they may differ by the kernel's
error, bounded as in ``test_aux_rss.py`` by TOL_FACTOR * eps * cond with
cond the kept condition of the design with its ones column, at the rank
that the diagnostics' own path (``factor_route`` there) reads.
"""

import functools
import itertools
import math
import zlib

import numpy as np
import pytest

from test_aux_rss import EPS, TOL_FACTOR, factor_route, kept_condition, mixed_design, sweep_design
from vifnc import DataMatrix, ModelSpec, full_report, intercept_trick, vif, vifnc
from vifnc.diagnostics import _factor

SWEEP = (
    [("near", seed, log_cond) for log_cond in (2, 4, 6, 8, 10, 12, 14) for seed in range(5)]
    + [("exact", seed, 0) for seed in range(10)]
    + [("mixed", seed, log_cond) for log_cond in (2, 4, 6, 8, 10, 12) for seed in range(3)]
)
CASES = pytest.mark.parametrize("case", SWEEP, ids=lambda case: "-".join(map(str, case)))


@functools.lru_cache(maxsize=None)
def sweep_matrix(case):
    """The design of a ``test_aux_rss.py`` sweep case, as that file draws it."""
    kind, seed, log_cond = case
    if kind == "mixed":
        X = mixed_design(7 * seed + log_cond, log_cond)[0]
    elif kind == "exact":
        X = sweep_design(1000 + seed, 0, "exact")[0]
    else:
        X = sweep_design(100 * seed + log_cond, log_cond, "near")[0]
    X.setflags(write=False)
    return X


def names_of(X):
    return tuple(f"x{i}" for i in range(X.shape[1]))


def as_data(X, *extra):
    """X's columns, any ``(name, column)`` extras, and a dependent ``y`` last."""
    names = names_of(X) + tuple(name for name, _ in extra) + ("y",)
    columns = [X] + [column for _, column in extra] + [np.arange(len(X), dtype=float)]
    return DataMatrix(names, np.column_stack(columns))


def bound(X):
    """TOL_FACTOR * eps * the kept condition of ``[1, X]`` with unit-length columns."""
    design = np.column_stack([np.ones(len(X)), X])
    return TOL_FACTOR * EPS * kept_condition(design, factor_route(design)[1])


def readings(X, intercept):
    """Each row's vif, vifnc and stewart_k2, and the centered and through-origin ranks."""
    data = as_data(X)
    rows = full_report(data, ModelSpec("y", names_of(X), intercept)).rows
    factor, columns = _factor(data), range(X.shape[1])
    ranks = tuple(int(factor.rss(columns, centered)[1]) for centered in (True, False))
    return [(row.vif, row.vifnc, row.stewart_k2) for row in rows], ranks


def assert_close(got, expected, rel):
    if expected is None or math.isinf(expected):
        assert got == expected
    else:
        assert got == pytest.approx(expected, rel=rel)


@CASES
def test_scaling_a_column_by_a_power_of_two_keeps_every_bit(case):
    X = sweep_matrix(case)
    for intercept in (True, False):
        expected = readings(X, intercept)
        for j, p in itertools.product(range(X.shape[1]), (-60, -7, 1, 13, 50)):
            scaled = X.copy()
            scaled[:, j] *= 2.0**p
            assert readings(scaled, intercept) == expected, f"column {j}, intercept {intercept}"


@CASES
def test_scaling_a_column_by_a_power_of_ten_moves_values_by_rounding(case):
    X = sweep_matrix(case)
    rel = bound(X)
    for intercept in (True, False):
        expected, ranks = readings(X, intercept)
        for j, p in itertools.product(range(X.shape[1]), (-9, 5)):
            scaled = X.copy()
            scaled[:, j] *= 10.0**p
            got, got_ranks = readings(scaled, intercept)
            assert got_ranks == ranks, f"column {j}, intercept {intercept}"
            for got_row, row in zip(got, expected):
                for value, reference in zip(got_row, row):
                    assert_close(value, reference, rel)


@CASES
def test_permuting_the_regressors_permutes_the_rows(case):
    X = sweep_matrix(case)
    data, names = as_data(X), names_of(X)
    order = np.random.default_rng(zlib.crc32(repr(case).encode())).permutation(len(names))
    for intercept in (True, False):
        rows = full_report(data, ModelSpec("y", names, intercept)).rows
        permuted = full_report(data, ModelSpec("y", tuple(names[i] for i in order), intercept))
        assert list(permuted.rows) == [rows[i] for i in order]


@CASES
def test_adding_a_regressor_never_lowers_vif_or_vifnc(case):
    X = sweep_matrix(case)
    rng = np.random.default_rng(zlib.crc32(repr(case).encode()))
    extra = rng.normal(rng.uniform(-3, 3), 1.0, len(X)) * 10.0 ** rng.uniform(-6, 6)
    data, names = as_data(X, ("extra", extra)), names_of(X)
    rel = bound(np.column_stack([X, extra]))
    for j in names:
        others = tuple(name for name in names if name != j)
        for diagnostic in (vif, vifnc):
            before = diagnostic(data, j, others)
            after = diagnostic(data, j, others + ("extra",))
            assert after >= before * (1.0 - rel), f"{diagnostic.__name__} of {j}"


@CASES
def test_intercept_trick_vifnc_is_never_below_vif(case):
    X = sweep_matrix(case)
    data, names = as_data(X, ("one", np.ones(len(X)))), names_of(X)
    trick = dict(intercept_trick(data, ("one",) + names))
    rel = bound(X)
    for j in names:
        centered = vif(data, j, tuple(name for name in names if name != j))
        assert trick[j] >= centered * (1.0 - rel), j
