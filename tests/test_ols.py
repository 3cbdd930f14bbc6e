import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vifnc import (
    DataMatrix,
    ModelSpec,
    fit,
    r2_centered,
    r2_noncentered,
)
from vifnc.errors import (
    NonFiniteInput,
    NotCenteredModel,
    TooFewObservations,
    UnknownColumn,
    ZeroTotalSumOfSquares,
)


def make_data(seed=0, n=25):
    rng = np.random.default_rng(seed)
    return DataMatrix.from_columns(
        {
            "y": rng.normal(2.0, 1.0, n),
            "a": rng.normal(0.0, 1.0, n),
            "b": rng.normal(5.0, 2.0, n),
        }
    )


class TestDataMatrix:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            DataMatrix(("a", "a"), np.ones((3, 2)))

    def test_malformed_shapes_rejected(self):
        for names, values, message in (
            ((), np.ones((3, 0)), "at least one column"),
            (("a",), np.ones(3), "2-d with 1 columns"),
            (("a",), np.ones((0, 1)), "at least one observation"),
        ):
            with pytest.raises(ValueError, match=message):
                DataMatrix(names, values)
        with pytest.raises(ValueError, match="at least one column"):
            DataMatrix.from_columns({})

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            DataMatrix.from_columns({"a": [1.0, np.nan]})

    def test_unknown_column(self):
        data = make_data()
        with pytest.raises(UnknownColumn):
            data.column("zzz")

    def test_values_immutable(self):
        data = make_data()
        with pytest.raises(ValueError):
            data.values[0, 0] = 99.0

    def test_later_writes_to_a_writable_source_do_not_reach_it(self):
        values = np.ones((3, 2))
        data = DataMatrix(("a", "b"), values)
        values[0, 0] = 99.0
        assert data.values[0, 0] == 1.0

    def test_from_columns_holds_one_copy(self):
        rng = np.random.default_rng(2)
        columns = {name: rng.normal(size=100_000) for name in "abcdefghi"}
        tracemalloc.start()
        try:
            data = DataMatrix.from_columns(columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * data.values.nbytes
        # and later writes to the source columns do not reach it
        columns["a"][0] += 1.0
        assert data.column("a")[0] != columns["a"][0]

    def test_constant_column_is_legal(self):
        data = DataMatrix.from_columns({"ones": [1.0, 1.0, 1.0], "x": [1.0, 2.0, 3.0]})
        assert np.all(data.column("ones") == 1.0)


class TestModelSpec:
    def test_dependent_cannot_be_regressor(self):
        with pytest.raises(ValueError):
            ModelSpec("y", ("y", "a"))

    def test_needs_regressors(self):
        with pytest.raises(ValueError):
            ModelSpec("y", ())

    def test_duplicate_regressors(self):
        with pytest.raises(ValueError):
            ModelSpec("y", ("a", "a"))


class TestFit:
    def test_belsley_residual_orthogonality(self, belsley_data):
        result = fit(belsley_data, ModelSpec("y", ("X2", "X3"), intercept=True))
        assert result.rss > 0
        design = np.column_stack(
            [np.ones(belsley_data.n), belsley_data.column("X2"), belsley_data.column("X3")]
        )
        assert np.all(np.abs(design.T @ result.residuals) < 1e-8)

    def test_perfect_fit_through_origin(self):
        x = np.linspace(1.0, 3.0, 10)
        data = DataMatrix.from_columns({"y": x, "x": x})
        result = fit(data, ModelSpec("y", ("x",), intercept=False))
        assert result.rss == pytest.approx(0.0, abs=1e-25)
        assert r2_noncentered(result) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_column_raises(self, belsley_data):
        with pytest.raises(UnknownColumn):
            fit(belsley_data, ModelSpec("y", ("Z",)))

    def test_too_few_observations(self):
        data = DataMatrix.from_columns({"y": [1.0, 2.0], "a": [0.5, 1.5], "b": [3.0, 1.0]})
        with pytest.raises(TooFewObservations):
            fit(data, ModelSpec("y", ("a", "b"), intercept=True))

    def test_refit_is_bitwise_deterministic(self):
        data = make_data(7)
        spec = ModelSpec("y", ("a", "b"), intercept=True)
        first = fit(data, spec)
        second = fit(data, spec)
        assert np.array_equal(first.coefficients, second.coefficients)
        assert first.rss == second.rss

    def test_intercept_residuals_sum_to_zero(self):
        data = make_data(11)
        result = fit(data, ModelSpec("y", ("a", "b"), intercept=True))
        assert abs(result.residuals.sum()) < 1e-8 * data.n


class TestR2:
    def test_noncentered_consistent_with_vifnc_target(self, belsley_data):
        aux = fit(belsley_data, ModelSpec("X3", ("X2",), intercept=False))
        r2 = r2_noncentered(aux)
        assert 1.0 / (1.0 - r2) == pytest.approx(100032.1, rel=5e-3)

    def test_noncentered_zero_for_orthogonal(self):
        data = DataMatrix.from_columns({"y": [1.0, 1.0], "x": [1.0, -1.0]})
        result = fit(data, ModelSpec("y", ("x",), intercept=False))
        assert r2_noncentered(result) == pytest.approx(0.0, abs=1e-15)

    def test_noncentered_needs_nonzero_dependent(self):
        data = DataMatrix.from_columns({"y": [0.0, 0.0, 0.0], "x": [1.0, 2.0, 3.0]})
        result = fit(data, ModelSpec("y", ("x",), intercept=False))
        with pytest.raises(ZeroTotalSumOfSquares):
            r2_noncentered(result)

    def test_centered_near_one_at_vif_floor(self, belsley_data):
        aux = fit(belsley_data, ModelSpec("X3", ("X2",), intercept=True))
        value = r2_centered(aux)
        assert 1.0 / (1.0 - value) == pytest.approx(1.0, abs=1e-2)

    def test_centered_exact_affine_fit(self):
        x = np.arange(1.0, 9.0)
        data = DataMatrix.from_columns({"y": 2.0 * x + 5.0, "x": x})
        result = fit(data, ModelSpec("y", ("x",), intercept=True))
        assert r2_centered(result) == pytest.approx(1.0, abs=1e-12)

    def test_centered_equals_noncentered_for_zero_mean_dependent(self):
        rng = np.random.default_rng(23)
        y = rng.normal(size=30)
        y -= y.mean()
        data = DataMatrix.from_columns({"y": y, "x": rng.normal(size=30)})
        result = fit(data, ModelSpec("y", ("x",), intercept=True))
        assert r2_centered(result) == pytest.approx(r2_noncentered(result), abs=1e-10)

    def test_centered_requires_intercept_fit(self):
        data = make_data(2)
        result = fit(data, ModelSpec("y", ("a",), intercept=False))
        with pytest.raises(NotCenteredModel):
            r2_centered(result)

    def test_centered_rejects_constant_dependent(self):
        data = DataMatrix.from_columns({"y": [3.0, 3.0, 3.0], "x": [1.0, 2.0, 3.0]})
        result = fit(data, ModelSpec("y", ("x",), intercept=True))
        with pytest.raises(ZeroTotalSumOfSquares):
            r2_centered(result)

    def test_centered_rejects_constant_dependent_with_inexact_mean(self):
        # twenty copies of 0.1 do not average to exactly 0.1 in floating point
        y = np.full(20, 0.1)
        data = DataMatrix.from_columns({"y": y, "x": np.arange(20.0)})
        result = fit(data, ModelSpec("y", ("x",), intercept=True))
        assert result.tss_centered == 0.0
        assert result.dependent_mean == 0.1
        with pytest.raises(ZeroTotalSumOfSquares):
            r2_centered(result)

    def test_bounds(self):
        for seed in range(10):
            data = make_data(seed)
            result = fit(data, ModelSpec("y", ("a", "b"), intercept=True))
            for value in (r2_centered(result), r2_noncentered(result)):
                assert -1e-12 <= value <= 1.0 + 1e-12


class TestSumOfSquares:
    def test_uncentered_identity_no_intercept(self):
        data = make_data(3)
        ss = fit(data, ModelSpec("y", ("a", "b"), intercept=False))
        assert ss.tss_uncentered - ss.ess_uncentered - ss.rss == pytest.approx(
            0.0, abs=1e-10 * ss.tss_uncentered
        )

    def test_centered_identity_with_intercept(self):
        data = make_data(4)
        ss = fit(data, ModelSpec("y", ("a", "b"), intercept=True))
        assert ss.tss_centered - ss.ess_centered - ss.rss == pytest.approx(
            0.0, abs=1e-10 * ss.tss_centered
        )

    def test_zero_mean_dependent_equates_tss(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=20)
        y -= y.mean()
        data = DataMatrix.from_columns({"y": y, "x": rng.normal(size=20)})
        ss = fit(data, ModelSpec("y", ("x",), intercept=True))
        assert ss.tss_centered == pytest.approx(ss.tss_uncentered, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
        st.integers(min_value=1, max_value=3),
    )
    def test_decomposition_identities_property(self, seed, intercept, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(k + 2, 40))
        columns = {"y": rng.normal(rng.uniform(-5, 5), 2.0, n)}
        for i in range(k):
            columns[f"x{i}"] = rng.normal(rng.uniform(-5, 5), 2.0, n)
        data = DataMatrix.from_columns(columns)
        spec = ModelSpec("y", tuple(f"x{i}" for i in range(k)), intercept=intercept)
        ss = fit(data, spec)
        assert abs(ss.tss_uncentered - ss.ess_uncentered - ss.rss) <= 1e-10 * ss.tss_uncentered
        if intercept:
            scale = max(ss.tss_centered, 1e-30)
            assert abs(ss.tss_centered - ss.ess_centered - ss.rss) <= 1e-10 * scale

