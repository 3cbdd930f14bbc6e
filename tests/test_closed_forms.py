"""Closed-form diagnostics against per-column refits, across a conditioning sweep.

``full_report``, ``variance_factors``, ``vif`` and ``vifnc`` read every
auxiliary RSS off one QR factor of the matrix. ``auxiliary_regression`` refits each
column on its own and forms the residual explicitly. The twice-iterated
Gram-Schmidt projection in ``oracles.py`` is a third route that does not
touch ``numpy.linalg``. The sweep plants near-dependencies with noise from
1e-1 down to 1e-6, near-constant columns, and exactly zero-mean columns,
under intercept and through-origin specs.

Tolerance. Both NumPy routes are backward stable, and their disagreement
on an RSS grows roughly like eps * sqrt(tss / rss), i.e. with the
condition number and not with its square. A 3,000-design run of this
sweep (n up to 60, k up to 6) gave at most 4e-9 at noise 1e-6 and 4e-14
at noise 1e-1. RTOL =
1e-6 leaves a 250x margin at the worst level. A real defect, such as a
wrong offset into the inverse diagonal or a missing intercept, moves the
values by O(1).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vifnc import (
    AuxiliaryMode,
    DataMatrix,
    ModelSpec,
    auxiliary_regression,
    full_report,
    intercept_trick,
    stewart_decomposition,
    variance_factors,
    vif,
    vifnc,
)
from vifnc.diagnostics import _Factor

from oracles import project_residual_rss

RTOL = 1e-6
EPS = np.finfo(float).eps
KINDS = ("planted", "near_constant", "zero_mean")


def sweep_data(seed, n, k, noise, kind):
    """Regressors x0..x{k-1} with the requested structure, plus a dependent y."""
    rng = np.random.default_rng(seed)
    X = rng.normal(rng.uniform(-3.0, 3.0, k), rng.uniform(0.5, 3.0, k), (n, k))
    if kind == "planted":
        X[:, -1] = X[:, :-1] @ rng.normal(size=k - 1) + noise * rng.normal(size=n)
    elif kind == "near_constant":
        X[:, -1] = rng.uniform(0.5, 5.0) + noise * rng.normal(size=n)
    else:
        X -= X.mean(axis=0)
    names = tuple(f"x{i}" for i in range(k))
    columns = {"y": rng.normal(size=n), "one": np.ones(n)}
    columns.update(zip(names, X.T))
    return DataMatrix.from_columns(columns), names


def assert_stewart_relation(report, n):
    """The paper's relation ``k_j^2 = VIF_j (1 + n / ((n - 1) CV_j^2))`` on every intercept row.

    ``k_j^2 = x'x / RSS_c`` and ``VIF_j = TSS_c / RSS_c`` share the centered
    RSS, which cancels, so the bound does not grow with the conditioning:
    ``(n - 1) CV^2 = TSS_c / mean^2`` turns the right side into
    ``(TSS_c + n mean^2) / RSS_c``. 1,500 designs of the sweep below
    (5,010 finite rows) met at most 5.4 eps, Belsley's data 3.8e-16; on
    the factor of ``[D, 1]``, 1,500 designs (5,237 finite rows) met 4.3 eps.
    """
    for row in report.rows:
        if row.vif is None or not (math.isfinite(row.vif) and math.isfinite(row.stewart_k2)):
            continue
        relation = row.vif * (1.0 + n / ((n - 1) * row.coef_variation**2))
        assert abs(row.stewart_k2 - relation) <= 16 * EPS * row.stewart_k2


def assert_ratio(value, tss, rss, rtol=RTOL):
    """``value`` from the factor against ``tss / rss`` from another route: ``inf`` exactly at RSS 0."""
    if rss == 0.0:
        assert math.isinf(value)
    else:
        assert value == pytest.approx(tss / rss, rel=rtol)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=8, max_value=40),
    k=st.integers(min_value=2, max_value=5),
    noise_exponent=st.integers(min_value=1, max_value=6),
    kind=st.sampled_from(KINDS),
    intercept=st.booleans(),
)
def test_closed_forms_match_per_column_fits(seed, n, k, noise_exponent, kind, intercept):
    data, names = sweep_data(seed, n, k, 10.0 ** -noise_exponent, kind)
    spec = ModelSpec("y", names, intercept=intercept)
    report = full_report(data, spec)
    factors = variance_factors(data, spec)

    for i, j in enumerate(names):
        others = [o for o in names if o != j]
        x = data.column(j)
        tss = float(x @ x)
        aux_nc = auxiliary_regression(data, j, others, AuxiliaryMode.NONCENTERED)
        aux_c = auxiliary_regression(data, j, others, AuxiliaryMode.CENTERED)
        assert_ratio(vifnc(data, j, others), tss, aux_nc.rss)
        assert_ratio(vif(data, j, others), aux_c.tss_centered, aux_c.rss)
        # a per-column call reads the report's factor on the same column set: its row's bits
        row = report.rows[i]
        assert vifnc(data, j, others) == row.vifnc
        assert vif(data, j, others) == row.vif
        assert stewart_decomposition(data, j, others) == (row.vif, row.nonessential_term)

        rss_model = aux_c.rss if intercept else aux_nc.rss
        factor = factors[i + 1 if intercept else i]
        assert factor.var_over_sigma2 == pytest.approx(1.0 / rss_model, rel=RTOL)
        assert factor.ratio == pytest.approx(tss / rss_model, rel=RTOL)

        assert row.rss_aux_noncentered == pytest.approx(aux_nc.rss, rel=RTOL)
        assert row.rss_aux_centered == pytest.approx(aux_c.rss, rel=RTOL)
        assert_ratio(row.vifnc, tss, aux_nc.rss)
        assert_ratio(row.vif, aux_c.tss_centered, aux_c.rss)
        assert_ratio(row.stewart_k2, tss, rss_model)
        if kind == "zero_mean":
            assert row.vif == pytest.approx(row.vifnc, rel=RTOL)
            assert row.nonessential_term == pytest.approx(0.0, abs=1e-20)

    if intercept:
        assert_stewart_relation(report, data.n)
        # the intercept's variance factor is 1/RSS of the ones column on X
        aux_one = auxiliary_regression(data, "one", names, AuxiliaryMode.NONCENTERED)
        assert factors[0].var_over_sigma2 == pytest.approx(1.0 / aux_one.rss, rel=RTOL)


@pytest.mark.parametrize(
    "regressors", [("X2", "X3", "X4"), ("X2", "X3"), ("X3", "X4")], ids="-".join
)
def test_stewart_relation_on_belsley(belsley_data, regressors):
    report = full_report(belsley_data, ModelSpec("y", regressors, intercept=True))
    assert_stewart_relation(report, belsley_data.n)


@pytest.mark.parametrize("noise_exponent", [1, 3, 5])
@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_rss_matches_gram_schmidt_oracle(kind, noise_exponent):
    data, names = sweep_data(noise_exponent, 25, 4, 10.0 ** -noise_exponent, kind)
    report = full_report(data, ModelSpec("y", names, intercept=True))
    for row in report.rows:
        others = [data.column(o) for o in names if o != row.variable]
        x = data.column(row.variable)
        oracle_nc = project_residual_rss(others, x)
        oracle_c = project_residual_rss([np.ones(data.n)] + others, x)
        assert row.rss_aux_noncentered == pytest.approx(oracle_nc, rel=RTOL)
        assert row.rss_aux_centered == pytest.approx(oracle_c, rel=RTOL)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=8, max_value=40),
    k=st.integers(min_value=2, max_value=5),
    noise_exponent=st.integers(min_value=1, max_value=6),
    kind=st.sampled_from(KINDS),
)
def test_through_origin_variance_factors_match_the_kernel_on_x(seed, n, k, noise_exponent, kind):
    """Through-origin values read a factor of [D, 1], not X itself.

    ``variance_factors``, ``vifnc`` and ``intercept_trick`` read the
    leading block of R of ``[D_S, 1]``, taken from R of ``[D, 1]`` at the
    columns S, with D every column of the matrix (y and the ones column
    among them). That block is a backward-stable factor of X, so it agrees
    with the kernel on X alone, the through-origin half of R of ``[X, 1]``
    (``_Factor(X).rss``), to a few eps times the condition of X with
    unit-length columns: 6,000 designs of this sweep gave at most 4.9 eps
    * cond on zero-mean columns (cond below 10) and 4.5 eps * cond on the
    others (5.3 and 4.5 against a factor of X itself, 39 and 11 while S
    was read off R of ``[1, D]`` by a QR of ``R[:, S]``), and a value reads
    ``inf`` exactly where the kernel on X alone reads RSS 0.
    The gap is within 1e-10 up to cond 4.5e3; above that (planted
    relations at noise 1e-3 and below, cond up to 6e7) the bound
    100 eps * cond takes over.
    """
    data, names = sweep_data(seed, n, k, 10.0 ** -noise_exponent, kind)

    def kernel_on(regressors):
        X = data.matrix(regressors)
        cond = np.linalg.cond(X / np.linalg.norm(X, axis=0))
        rss = _Factor(X).rss(range(X.shape[1]), centered=False)[0]
        return X, rss, max(1e-10, 100.0 * np.finfo(float).eps * cond)

    X, rss, rtol = kernel_on(names)
    factors = variance_factors(data, ModelSpec("y", names, intercept=False))
    for factor, expected in zip(factors, 1.0 / rss):
        assert factor.var_over_sigma2 == pytest.approx(expected, rel=rtol)
    for j, x, expected in zip(names, X.T, rss):
        assert_ratio(vifnc(data, j, [o for o in names if o != j]), float(x @ x), expected, rtol)

    trick = ("one",) + names
    X, rss, rtol = kernel_on(trick)
    for (_, value), x, expected in zip(intercept_trick(data, trick), X.T, rss):
        assert_ratio(value, float(x @ x), expected, rtol)
