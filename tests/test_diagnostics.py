import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vifnc import (
    AuxiliaryMode,
    DataMatrix,
    ModelSpec,
    ScenarioSpec,
    Thresholds,
    auxiliary_regression,
    fit,
    full_report,
    intercept_trick,
    replication_table,
    run_scenario,
    stewart_decomposition,
    stewart_index,
    variance_factors,
    vif,
    vifnc,
)
from vifnc import diagnostics, linalg, montecarlo
from vifnc.diagnostics import _ratio_or_inf
from vifnc.errors import (
    ConstantRegressor,
    NoConstantColumn,
    RankDeficient,
    TooFewObservations,
    ZeroColumn,
)

from oracles import inverse_diagonal, mean, project_residual_rss, sum_of_squares

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"


def orthogonal_data():
    # two exactly orthogonal zero-mean columns plus a dependent
    return DataMatrix.from_columns(
        {
            "y": [1.0, 2.0, 3.0, 4.0],
            "u": [1.0, -1.0, 1.0, -1.0],
            "v": [1.0, 1.0, -1.0, -1.0],
        }
    )


def random_data(seed, n=20, k=3, mean_=4.0, sd=4.0):
    rng = np.random.default_rng(seed)
    cols = {f"x{i}": rng.normal(mean_, sd, n) for i in range(k)}
    return DataMatrix.from_columns(cols)


class TestAuxiliaryRegression:
    def test_noncentered_matches_vifnc_target(self, belsley_data):
        aux = auxiliary_regression(belsley_data, "X3", ["X2"], AuxiliaryMode.NONCENTERED)
        tss = sum_of_squares(belsley_data.column("X3"))
        assert tss / aux.rss == pytest.approx(100032.1, rel=5e-3)

    def test_self_copy_gives_zero_rss(self):
        x = np.linspace(0.5, 2.0, 8)
        data = DataMatrix.from_columns({"x": x, "copy": x.copy()})
        aux = auxiliary_regression(data, "x", ["copy"], AuxiliaryMode.NONCENTERED)
        assert aux.rss < 1e-25 * aux.tss_uncentered

    def test_centered_rss_matches_projection_oracle(self, belsley_data):
        aux = auxiliary_regression(belsley_data, "X3", ["X2"], AuxiliaryMode.CENTERED)
        oracle = project_residual_rss(
            [np.ones(belsley_data.n), belsley_data.column("X2")],
            belsley_data.column("X3"),
        )
        assert aux.rss == pytest.approx(oracle, rel=1e-8)

    def test_default_regressors_are_all_other_columns(self):
        data = random_data(1, k=3)
        full = auxiliary_regression(data, "x0", None, AuxiliaryMode.CENTERED)
        explicit = auxiliary_regression(data, "x0", ["x1", "x2"], AuxiliaryMode.CENTERED)
        assert np.array_equal(full.coefficients, explicit.coefficients)


class TestVif:
    def test_belsley_three_var(self, belsley_data):
        assert vif(belsley_data, "X2", ["X3", "X4"]) == pytest.approx(1.155364, rel=1e-3)

    def test_belsley_pair(self, belsley_data):
        assert vif(belsley_data, "X2", ["X4"]) == pytest.approx(1.143328, rel=1e-3)

    def test_orthogonal_design_floor(self):
        data = orthogonal_data()
        assert vif(data, "u", ["v"]) == pytest.approx(1.0, abs=1e-10)

    def test_constant_regressor_rejected(self, belsley_data):
        with pytest.raises(ConstantRegressor):
            vif(belsley_data, "X1", ["X2", "X3"])

    def test_perfect_collinearity_sentinel(self):
        x = np.linspace(1.0, 2.0, 10)
        data = DataMatrix.from_columns({"x": x, "double": 2.0 * x, "z": np.sin(x)})
        assert math.isinf(vif(data, "x", ["double", "z"]))

    def test_inf_exactly_where_rss_is_zero(self):
        tss, subnormal, normal = 3.0, np.nextafter(0.0, 1.0), np.finfo(float).tiny
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isinf(_ratio_or_inf(tss, 0.0))
            assert math.isinf(_ratio_or_inf(0.0, 0.0))  # a constant column's centered read
            # tss / subnormal overflows: inf as well, without a warning
            assert math.isinf(_ratio_or_inf(tss, subnormal))
            assert _ratio_or_inf(tss, normal) == tss / normal < math.inf


class TestVifnc:
    def test_belsley_values(self, belsley_data):
        assert vifnc(belsley_data, "X3", ["X2"]) == pytest.approx(100032.1, rel=5e-3)
        assert vifnc(belsley_data, "X2", ["X3", "X4"]) == pytest.approx(100453.8, rel=5e-3)
        assert vifnc(belsley_data, "X4", ["X2", "X3"]) == pytest.approx(1.773768, rel=1e-3)

    def test_zero_column_rejected(self):
        data = DataMatrix.from_columns({"zero": [0.0, 0.0, 0.0], "x": [1.0, 2.0, 3.0]})
        with pytest.raises(ZeroColumn):
            vifnc(data, "zero", ["x"])

    def test_at_least_one(self):
        for seed in range(20):
            data = random_data(seed)
            for j in data.names:
                others = [o for o in data.names if o != j]
                assert vif(data, j, others) >= 1.0 - 1e-10
                assert vifnc(data, j, others) >= 1.0 - 1e-10


class TestStewartIndex:
    def test_belsley_matches_vifnc(self, belsley_data):
        assert stewart_index(belsley_data, "X2", ["X3", "X4"]) == pytest.approx(
            100453.8, rel=5e-3
        )

    def test_orthogonal_pair_is_one(self):
        data = orthogonal_data()
        assert stewart_index(data, "u", ["v"]) == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_vifnc_on_random_data(self):
        for seed in range(30):
            data = random_data(seed, n=20, k=3)
            for j in data.names:
                others = [o for o in data.names if o != j]
                lhs = stewart_index(data, j, others)
                rhs = vifnc(data, j, others)
                assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_zero_target_column_raises(self):
        data = DataMatrix.from_columns({"z": np.zeros(5), "a": np.arange(5.0)})
        with pytest.raises(ZeroColumn, match="'z'"):
            stewart_index(data, "z", ["a"])

    def test_singular_gram_raises(self):
        x = np.linspace(1.0, 2.0, 10)
        data = DataMatrix.from_columns({"a": np.cos(x), "b": x, "c": x.copy()})
        with pytest.raises(RankDeficient):
            stewart_index(data, "a", ["b", "c"])

    def test_rank_test_ignores_the_units_of_a_column(self):
        # unscaled, the Gram matrix of [a, 1e8 b] spans 16 decades and its rank test failed
        rng = np.random.default_rng(3)
        a, b, c = rng.normal(size=(3, 30))
        for scale in (1e-8, 1.0, 1e4, 1e8):
            data = DataMatrix.from_columns({"a": a, "b": scale * b, "c": c})
            assert stewart_index(data, "c") == pytest.approx(vifnc(data, "c"), rel=1e-13)
            assert stewart_index(data, "c") == pytest.approx(1.049209, rel=1e-6)
        data = DataMatrix.from_columns({"a": a, "zero": np.zeros(30), "c": c})
        with pytest.raises(RankDeficient):
            stewart_index(data, "c")


class TestStewartDecomposition:
    def test_belsley_vif_part(self, belsley_data):
        vif_part, term = stewart_decomposition(belsley_data, "X2", ["X3", "X4"])
        assert vif_part == pytest.approx(1.155364, rel=1e-3)
        # the parts sum to Stewart's index of the ones-augmented design,
        # which the intercept-including vifnc reproduces exactly
        augmented = vifnc(belsley_data, "X2", ["X1", "X3", "X4"])
        assert vif_part + term == pytest.approx(augmented, rel=1e-8)

    def test_zero_mean_column_kills_second_term(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=15)
        x -= x.mean()
        data = DataMatrix.from_columns({"x": x, "z": rng.normal(4.0, 2.0, 15)})
        vif_part, term = stewart_decomposition(data, "x", ["z"])
        assert term == pytest.approx(0.0, abs=1e-20)
        assert vif_part == pytest.approx(vif(data, "x", ["z"]), rel=1e-12)

    def test_parts_match_summation_oracle(self):
        for seed in range(10):
            data = random_data(seed, n=25, k=3)
            x = data.column("x0")
            vif_part, term = stewart_decomposition(data, "x0", ["x1", "x2"])
            rss_oracle = project_residual_rss(
                [np.ones(data.n), data.column("x1"), data.column("x2")], x
            )
            xbar = mean(x)
            tss_oracle = sum_of_squares([v - xbar for v in x])
            assert vif_part == pytest.approx(tss_oracle / rss_oracle, rel=1e-10)
            assert term == pytest.approx(data.n * xbar * xbar / rss_oracle, rel=1e-10)

    def test_constant_column_rejected(self, belsley_data):
        with pytest.raises(ConstantRegressor):
            stewart_decomposition(belsley_data, "X1", ["X2"])


class TestColumnSets:
    """A named column set is checked as a ModelSpec checks its regressors, and may be empty."""

    PER_COLUMN = (vif, vifnc, stewart_index, stewart_decomposition)

    @pytest.mark.parametrize("function", PER_COLUMN)
    def test_target_among_its_own_regressors_raises(self, belsley_data, function):
        for regressors in (["X2"], ["X3", "X2"]):
            with pytest.raises(ValueError, match="dependent variable cannot also be a regressor"):
                function(belsley_data, "X2", regressors)

    @pytest.mark.parametrize("function", PER_COLUMN)
    def test_repeated_regressor_raises(self, belsley_data, function):
        with pytest.raises(ValueError, match="duplicate regressor names"):
            function(belsley_data, "X2", ["X3", "X3"])

    def test_auxiliary_regression_raises_the_same(self, belsley_data):
        for regressors, message in ((["X2"], "dependent variable"), (["X3", "X3"], "duplicate")):
            with pytest.raises(ValueError, match=message):
                auxiliary_regression(belsley_data, "X2", regressors, AuxiliaryMode.CENTERED)

    def test_intercept_trick_rejects_a_repeated_regressor(self, belsley_data):
        with pytest.raises(ValueError, match="duplicate regressor names"):
            intercept_trick(belsley_data, ["X1", "X2", "X2"])

    def test_no_regressors_leave_nothing_to_project_on(self, belsley_data):
        # the RSS is the TSS itself, so x'x / x'x and TSS_c / TSS_c are exactly 1
        for j in ("X2", "X3", "X4"):
            assert stewart_index(belsley_data, j, []) == 1.0
            assert vifnc(belsley_data, j, []) == 1.0
            assert vif(belsley_data, j, []) == 1.0
            x = belsley_data.column(j)
            mean = x.mean()
            vif_part, term = stewart_decomposition(belsley_data, j, [])
            assert vif_part == 1.0
            assert term == belsley_data.n * mean * mean / ((x - mean) ** 2).sum()
        assert intercept_trick(belsley_data, ["X1"]) == [("X1", 1.0)]



class TestIdentityChain:
    def test_chain_on_belsley(self, belsley_data):
        regressors = ("X1", "X2", "X3", "X4")
        for j in regressors:
            x = belsley_data.column(j)
            if x.min() == x.max():
                continue
            others = [o for o in regressors if o != j]
            others_no_ones = [o for o in others if o != "X1"]
            lhs = vifnc(belsley_data, j, others)
            middle = stewart_index(belsley_data, j, others)
            aux = auxiliary_regression(
                belsley_data, j, others_no_ones, AuxiliaryMode.CENTERED
            )
            rhs = vif(belsley_data, j, others_no_ones) + (
                belsley_data.n * float(x.mean()) ** 2 / aux.rss
            )
            assert middle == pytest.approx(lhs, rel=1e-8)
            assert rhs == pytest.approx(lhs, rel=1e-8)

    def test_chain_on_random_designs(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(10, 60))
            k = int(rng.integers(2, 6))
            cols = {"ones": np.ones(n)}
            for i in range(k):
                cols[f"x{i}"] = rng.normal(4.0, 4.0, n)
            data = DataMatrix.from_columns(cols)
            for j in (f"x{i}" for i in range(k)):
                others = ["ones"] + [f"x{i}" for i in range(k) if f"x{i}" != j]
                plain = [o for o in others if o != "ones"]
                x = data.column(j)
                aux = auxiliary_regression(data, j, plain, AuxiliaryMode.CENTERED)
                lhs = vifnc(data, j, others)
                assert stewart_index(data, j, others) == pytest.approx(lhs, rel=1e-8)
                rhs = vif(data, j, plain) + data.n * float(x.mean()) ** 2 / aux.rss
                assert rhs == pytest.approx(lhs, rel=1e-8)


class TestVarianceFactors:
    def test_orthogonal_design_ratio_one(self):
        data = orthogonal_data()
        factors = variance_factors(data, ModelSpec("y", ("u", "v"), intercept=False))
        for factor in factors:
            assert factor.ratio == pytest.approx(1.0, abs=1e-12)

    def test_belsley_noncentered_trick_values(self, belsley_data):
        spec = ModelSpec("y", ("X1", "X2", "X3"), intercept=False)
        factors = {f.variable: f for f in variance_factors(belsley_data, spec)}
        assert factors["X1"].ratio == pytest.approx(400031.4, rel=5e-3)
        assert factors["X2"].ratio == pytest.approx(199921.7, rel=5e-3)
        assert factors["X3"].ratio == pytest.approx(200158.3, rel=5e-3)
        assert factors["X1"].intercept_position
        assert not factors["X2"].intercept_position

    def test_var_matches_inverse_diagonal_oracle(self):
        data = random_data(31, n=30, k=3)
        spec = ModelSpec("x0", ("x1", "x2"), intercept=True)
        factors = variance_factors(data, spec)
        design = np.column_stack(
            [np.ones(data.n), data.column("x1"), data.column("x2")]
        )
        gram = [
            [float(sum(design[r, i] * design[r, j] for r in range(data.n))) for j in range(3)]
            for i in range(3)
        ]
        oracle = inverse_diagonal(gram)
        for factor, expected in zip(factors, oracle):
            assert factor.var_over_sigma2 == pytest.approx(expected, rel=1e-8)

    def test_ratio_equals_vifnc_for_noncentered_model(self):
        data = random_data(12, n=25, k=3)
        spec = ModelSpec("x0", ("x1", "x2"), intercept=False)
        factors = variance_factors(data, spec)
        for factor in factors:
            others = [r for r in spec.regressors if r != factor.variable]
            assert factor.ratio == pytest.approx(
                vifnc(data, factor.variable, others), rel=1e-8
            )

    def test_rank_deficient_design_rejected(self):
        x = np.linspace(0.0, 1.0, 12)
        data = DataMatrix.from_columns({"y": np.cos(x), "a": x, "b": x.copy()})
        with pytest.raises(RankDeficient):
            variance_factors(data, ModelSpec("y", ("a", "b"), intercept=False))

    def test_relation_at_rounding_level_rejected(self):
        rng = np.random.default_rng(4)
        a, c = rng.normal(size=20), rng.normal(size=20)
        data = DataMatrix.from_columns(
            {"y": rng.normal(size=20), "one": np.ones(20), "a": a, "b": 5.0 + 1e-8 * c, "c": c}
        )
        with pytest.raises(RankDeficient):
            variance_factors(data, ModelSpec("y", ("one", "a", "b", "c"), intercept=False))


class TestInterceptTrick:
    def test_belsley_triple(self, belsley_data):
        result = dict(intercept_trick(belsley_data, ["X1", "X2", "X3"]))
        assert result["X1"] == pytest.approx(400031.4, rel=5e-3)
        assert result["X2"] == pytest.approx(199921.7, rel=5e-3)
        assert result["X3"] == pytest.approx(200158.3, rel=5e-3)

    def test_belsley_pairs(self, belsley_data):
        assert dict(intercept_trick(belsley_data, ["X1", "X2"]))["X2"] == pytest.approx(
            199921.7, rel=5e-3
        )
        assert dict(intercept_trick(belsley_data, ["X1", "X3"]))["X3"] == pytest.approx(
            200158.3, rel=5e-3
        )

    def test_requires_ones_column(self, belsley_data):
        with pytest.raises(NoConstantColumn):
            intercept_trick(belsley_data, ["X2", "X3"])

    def test_rejects_multiple_ones_columns(self):
        data = DataMatrix.from_columns(
            {"c1": [1.0, 1.0, 1.0], "c2": [1.0, 1.0, 1.0], "x": [1.0, 2.0, 3.0]}
        )
        with pytest.raises(ValueError):
            intercept_trick(data, ["c1", "c2", "x"])

    def test_ones_column_is_every_entry_one(self):
        # the factor's constant flag and mean find it: one ulp off is no ones column
        near = np.ones(20)
        near[7] = np.nextafter(1.0, 2.0)
        data = DataMatrix.from_columns(
            {"near": near, "half": np.full(20, 0.5), "x": np.arange(20.0)}
        )
        with pytest.raises(NoConstantColumn):
            intercept_trick(data, ["near", "half", "x"])


class TestFullReport:
    def test_belsley_three_var_rows(self, belsley_data):
        spec = ModelSpec("y", ("X2", "X3", "X4"), intercept=True)
        report = full_report(belsley_data, spec)
        rows = {row.variable: row for row in report.rows}
        assert rows["X2"].vif == pytest.approx(1.155364, rel=1e-3)
        assert rows["X2"].vifnc == pytest.approx(100453.8, rel=5e-3)
        assert rows["X3"].vif == pytest.approx(1.084168, rel=1e-3)
        assert rows["X3"].vifnc == pytest.approx(100490.6, rel=5e-3)
        assert rows["X4"].vif == pytest.approx(1.239559, rel=1e-3)
        assert rows["X4"].vifnc == pytest.approx(1.773768, rel=1e-3)
        # default thresholds: the huge VIFnc values are non-essential suspects
        assert not rows["X2"].essential_suspect and rows["X2"].nonessential_suspect
        assert not rows["X4"].essential_suspect and not rows["X4"].nonessential_suspect

    def test_belsley_pair_model_rows(self, belsley_data):
        spec = ModelSpec("y", ("X3", "X4"), intercept=True)
        report = full_report(belsley_data, spec)
        row = next(r for r in report.rows if r.variable == "X3")
        assert row.vif == pytest.approx(1.072873, rel=1e-3)
        assert row.vifnc == pytest.approx(1.766323, rel=1e-3)

    def test_row_order_follows_spec(self, belsley_data):
        spec = ModelSpec("y", ("X4", "X2", "X3"), intercept=True)
        report = full_report(belsley_data, spec)
        assert tuple(row.variable for row in report.rows) == ("X4", "X2", "X3")

    def test_orthogonal_design_all_floor_no_flags(self):
        data = orthogonal_data()
        report = full_report(data, ModelSpec("y", ("u", "v"), intercept=True))
        for row in report.rows:
            assert row.vif == pytest.approx(1.0, abs=1e-10)
            assert row.vifnc == pytest.approx(1.0, abs=1e-10)
            assert not row.essential_suspect
            assert not row.nonessential_suspect

    def test_stewart_decomposition_exact_for_intercept_models(self, belsley_data):
        spec = ModelSpec("y", ("X2", "X3", "X4"), intercept=True)
        for row in full_report(belsley_data, spec).rows:
            assert row.stewart_k2 == pytest.approx(
                row.vif + row.nonessential_term, rel=1e-8
            )

    def test_stewart_equals_vifnc_for_noncentered_models(self, belsley_data):
        spec = ModelSpec("y", ("X1", "X2", "X3"), intercept=False)
        for row in full_report(belsley_data, spec).rows:
            assert row.stewart_k2 == pytest.approx(row.vifnc, rel=1e-8)

    def test_constant_column_row_has_undefined_vif(self, belsley_data):
        spec = ModelSpec("y", ("X1", "X2", "X3"), intercept=False)
        rows = {row.variable: row for row in full_report(belsley_data, spec).rows}
        ones_row = rows["X1"]
        assert ones_row.vif is None
        assert ones_row.nonessential_term is None
        assert ones_row.vifnc == pytest.approx(400031.4, rel=5e-3)
        assert ones_row.nonessential_suspect

    def test_constant_column_reads_its_own_value(self):
        # x.mean() of twenty 0.1 entries is 0.10000000000000002, which would give a
        # centered TSS of ~1e-33 and a CV of 1.4e-16; the column's value gives 0 exactly
        rng = np.random.default_rng(0)
        data = DataMatrix.from_columns(
            {"y": rng.normal(size=20), "a": rng.normal(size=20), "c": np.full(20, 0.1)}
        )
        row = full_report(data, ModelSpec("y", ("a", "c"), intercept=False)).rows[1]
        assert (row.mean, row.coef_variation, row.vif) == (0.1, 0.0, None)

    def test_needs_two_regressors(self, belsley_data):
        with pytest.raises(ValueError):
            full_report(belsley_data, ModelSpec("y", ("X2",), intercept=True))

    def test_custom_thresholds_change_flags(self, belsley_data):
        spec = ModelSpec("y", ("X2", "X3", "X4"), intercept=True)
        strict = full_report(belsley_data, spec, Thresholds(vif=1.1, vifnc=1.5))
        rows = {row.variable: row for row in strict.rows}
        assert rows["X2"].essential_suspect  # 1.155 >= 1.1
        assert not rows["X2"].nonessential_suspect  # vif already fired
        assert rows["X4"].essential_suspect

    @pytest.mark.parametrize(
        "field, flag", [("vif", "essential_suspect"), ("vifnc", "nonessential_suspect")]
    )
    def test_nan_threshold_rejected_inf_never_flags(self, belsley_data, field, flag):
        with pytest.raises(ValueError, match=f"{field}_threshold"):
            Thresholds(**{field: math.nan})
        spec = ModelSpec("y", ("X1", "X2", "X3"), intercept=False)
        rows = full_report(belsley_data, spec, Thresholds(vif=0.0, vifnc=0.0)).rows
        assert any(getattr(row, flag) for row in rows)
        rows = full_report(belsley_data, spec, Thresholds(**{field: math.inf})).rows
        assert not any(getattr(row, flag) for row in rows)
        # not even an inf row: on [a, b, a+b] the other flag takes every row, and with
        # both thresholds inf no flag fires
        rng = np.random.default_rng(4)
        a, b = rng.normal(3.0, 1.0, 12), rng.normal(-2.0, 1.0, 12)
        data = DataMatrix.from_columns({"y": rng.normal(size=12), "a": a, "b": b, "c": a + b})
        spec = ModelSpec("y", ("a", "b", "c"))
        rows = full_report(data, spec, Thresholds(**{field: math.inf})).rows
        assert all(math.isinf(row.vif) and math.isinf(row.vifnc) for row in rows)
        other = ({"essential_suspect", "nonessential_suspect"} - {flag}).pop()
        assert not any(getattr(row, flag) for row in rows)
        assert all(getattr(row, other) for row in rows)
        rows = full_report(data, spec, Thresholds(vif=math.inf, vifnc=math.inf)).rows
        assert not any(row.essential_suspect or row.nonessential_suspect for row in rows)

    def test_two_dimensional_null_space_spares_the_column_outside_it(self):
        rng = np.random.default_rng(8)
        a, d = rng.normal(2.0, 1.0, 15), rng.normal(-1.0, 1.0, 15)
        data = DataMatrix.from_columns(
            {"y": rng.normal(size=15), "a": a, "b": 2.0 * a, "c": 4.0 * a, "d": d}
        )
        rows = {r.variable: r for r in full_report(data, ModelSpec("y", ("a", "b", "c", "d"))).rows}
        for name in "abc":
            assert math.isinf(rows[name].vif) and math.isinf(rows[name].vifnc)
        assert rows["d"].vif == pytest.approx(vif(data, "d", ["a"]), rel=1e-10)
        assert rows["d"].vifnc == pytest.approx(vifnc(data, "d", ["a"]), rel=1e-10)
        # with every regressor in the null space every row reads inf, and nothing raises
        rows = full_report(data, ModelSpec("y", ("a", "b", "c"))).rows
        assert all(math.isinf(row.vif) and math.isinf(row.vifnc) for row in rows)

    def test_zero_column_named_before_any_singular_verdict(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=10)
        data = DataMatrix.from_columns(
            {"y": rng.normal(size=10), "a": a, "z": np.zeros(10), "b": 2 * a}
        )
        with pytest.raises(ZeroColumn, match="'z'"):
            full_report(data, ModelSpec("y", ("a", "z", "b")))

    def test_column_whose_squares_overflow_named_before_the_factor(self):
        # x2's draws are finite, but its x'x is not: no diagnostic reads it as inf
        rng = np.random.default_rng(7)
        columns = {"y": rng.normal(size=20), "x1": rng.normal(size=20)}
        columns["x2"] = 1e200 * (1.0 + rng.normal(size=20))
        data = DataMatrix.from_columns(columns)
        spec = ModelSpec("y", ("x1", "x2"))
        for call in (
            lambda: full_report(data, spec),
            lambda: variance_factors(data, spec),
            lambda: vif(data, "x1", ["x2"]),
            lambda: vifnc(data, "x1", ["x2"]),
            # the routes that read no factor keep its rule, x2 the target or a regressor
            lambda: fit(data, spec),
            lambda: fit(data, ModelSpec("x2", ("y", "x1"))),
            lambda: auxiliary_regression(data, "x2", None, AuxiliaryMode.CENTERED),
            lambda: auxiliary_regression(data, "x1", None, AuxiliaryMode.NONCENTERED),
            lambda: stewart_index(data, "x2"),
            lambda: stewart_index(data, "x1"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^column 'x2' is too large"):
                    call()

    def test_too_few_observations(self):
        data = random_data(3, n=3, k=5)
        # each centered auxiliary regression has 1 + 2 columns: square, so a perfect fit
        rows = full_report(data, ModelSpec("x0", ("x1", "x2", "x3"))).rows
        assert all(math.isinf(row.vif) for row in rows)
        with pytest.raises(TooFewObservations):
            full_report(data, ModelSpec("x0", ("x1", "x2", "x3", "x4")))


class TestSharedFactor:
    """Every diagnostic reads one factor of [D, 1], D every column of the DataMatrix."""

    NAMES = ("x0", "x1", "x2", "near", "sum")

    @staticmethod
    def tall_data(seed=5, n=2_000):
        rng = np.random.default_rng(seed)
        columns = {"y": rng.normal(size=n), "one": np.ones(n)}
        columns.update((f"x{i}", rng.normal(rng.uniform(-3, 3), 2.0, n)) for i in range(5))
        columns["near"] = 7.0 + 1e-4 * rng.normal(size=n)
        columns["sum"] = columns["x0"] + columns["x1"] + 1e-3 * rng.normal(size=n)
        return DataMatrix.from_columns(columns)

    @staticmethod
    def qr_shapes(monkeypatch):
        """The shapes that ``np.linalg.qr`` is called on from now on."""
        qr, shapes = np.linalg.qr, []

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        return shapes

    @staticmethod
    def kernel_calls(monkeypatch):
        """How often the factor's ``_halves`` and the back-substitution in it run from now on."""
        calls = {}
        for module, name in ((diagnostics, "_halves"), (linalg, "_unit_inverse")):
            calls[name], original = 0, getattr(module, name)

            def counting(r, name=name, original=original):
                calls[name] += 1
                return original(r)

            monkeypatch.setattr(module, name, counting)
        return calls

    def test_report_then_factors_take_one_qr_of_the_n_row_design(self, monkeypatch):
        shapes = self.qr_shapes(monkeypatch)
        for intercept in (True, False):
            data = self.tall_data()
            shapes.clear()
            spec = ModelSpec("y", self.NAMES, intercept=intercept)
            full_report(data, spec)
            variance_factors(data, spec)
            # one QR of [D, 1] (D has 9 columns), then one of R's 5 columns and ones column
            assert shapes == [(data.n, 10), (10, 6)]

    @pytest.mark.parametrize("config", ["essential", "independent", "nonessential"])
    def test_run_scenario_takes_one_qr_of_the_stack(self, config, monkeypatch):
        spec, _ = montecarlo.load_scenario_config(CONFIG_DIR / f"{config}.cfg")
        shapes = self.qr_shapes(monkeypatch)
        calls = self.kernel_calls(monkeypatch)
        run_scenario(spec)
        # every column is read, so both halves come off the factor of the stack itself
        assert shapes == [(spec.replications, spec.n, montecarlo._KINDS[spec.kind][0] + 1)]
        # and off one back-substitution of it
        assert calls == {"_halves": 1, "_unit_inverse": 1}

    def test_every_diagnostic_on_every_target_takes_one_qr_of_the_n_row_design(
        self, monkeypatch
    ):
        data = self.tall_data()
        shapes = self.qr_shapes(monkeypatch)
        calls = self.kernel_calls(monkeypatch)
        for intercept in (True, False):
            spec = ModelSpec("y", self.NAMES, intercept=intercept)
            full_report(data, spec)
            variance_factors(data, spec)
        intercept_trick(data, ("one",) + self.NAMES)
        for j in data.names:
            others = [o for o in data.names if o != j]
            vifnc(data, j, others)
            if j != "one":
                vif(data, j, others)
                stewart_decomposition(data, j, others)
        assert [shape for shape in shapes if shape[0] == data.n] == [(data.n, 10)]
        # one back-substitution per column set, read for both halves and every call on it:
        # the model's regressors, the trick's, and every column of the matrix
        column_sets = {frozenset(cols) for cols in (self.NAMES, ("one",) + self.NAMES, data.names)}
        assert calls["_halves"] == len(column_sets)
        assert calls["_unit_inverse"] == calls["_halves"]

    def test_per_column_calls_on_the_last_regressor_read_the_report_factor(self, monkeypatch):
        # and so do the calls on every other target: each equals its report row to the bit
        for intercept in (True, False):
            data = self.tall_data()
            rows = full_report(data, ModelSpec("y", self.NAMES, intercept=intercept)).rows
            shapes = self.qr_shapes(monkeypatch)
            for j, row in zip(self.NAMES, rows):
                others = [o for o in self.NAMES if o != j]
                assert vif(data, j, others) == row.vif
                assert vifnc(data, j, others) == row.vifnc
                parts = stewart_decomposition(data, j, others)
                assert parts == (row.vif, row.nonessential_term)
                # naming order does not reach the bits
                assert vifnc(data, j, others[::-1]) == row.vifnc
            assert all(shape[0] < data.n for shape in shapes), shapes
            monkeypatch.undo()

    def test_a_half_takes_the_svd_route_only_when_read(self, monkeypatch):
        data = self.tall_data()
        spectral, shapes = linalg._spectral_rss, []
        monkeypatch.setattr(linalg, "_spectral_rss", lambda r: shapes.append(r.shape) or spectral(r))
        names = ("one",) + self.NAMES
        # with an explicit ones column the centered half is singular, but the trick never reads it
        intercept_trick(data, names)
        assert shapes == []
        full_report(data, ModelSpec("y", names, intercept=False))
        assert shapes == [(1, 7, 7)]

    def test_replication_table_builds_one_factor(self, monkeypatch):
        built = []

        class Counting(diagnostics._Factor):
            def __init__(self, values):
                built.append(values.shape[-2])
                super().__init__(values)

        monkeypatch.setattr(diagnostics, "_Factor", Counting)
        monkeypatch.setattr(montecarlo, "_Factor", Counting)
        assert all(entry.passed for entry in replication_table())
        assert built == [20]
        run_scenario(ScenarioSpec(kind="independent", n=30, replications=7, master_seed=1))
        assert built == [20, 30]

    @pytest.mark.parametrize("n, k", [(2, 2), (5, 3), (20, 4), (257, 6), (3_000, 5)])
    def test_fit_and_stewart_read_the_factors_column_sums(self, n, k, monkeypatch):
        # x'x, mean and centered TSS have one path each: fit's dependent column and
        # stewart_index's x'x carry the factor's bits
        rng = np.random.default_rng(100 * n + k)
        stack = rng.normal(rng.uniform(-3, 3, k), 2.0, (3, n, k))
        stack[..., 0] = 0.1  # exactly constant; its float mean misses 0.1 by an ulp at n = 20
        stack[..., -1] += 1e8
        # the designs of the stack are strided slices of a larger array
        stack = np.repeat(stack, 2, axis=-1)[..., ::2]
        names = tuple(f"c{i}" for i in range(k))
        xtx_reads, column_xtx = [], diagnostics._column_xtx
        monkeypatch.setattr(
            diagnostics, "_column_xtx", lambda *a: xtx_reads.append(column_xtx(*a)) or xtx_reads[-1]
        )
        whole = diagnostics._Factor(stack)

        def bits(*values):
            return np.array(values, dtype=float).view(np.uint64).tolist()

        for i, design in enumerate(stack):
            data = DataMatrix(names, design)
            for c, name in enumerate(names):
                others = names[:c] + names[c + 1 :]
                result = fit(data, ModelSpec(name, others))
                sums = bits(result.tss_uncentered, result.dependent_mean, result.tss_centered)
                assert sums == bits(whole.xtx[i, c], whole.mean[i, c], whole.tss_c[i, c])
                try:
                    stewart_index(data, name)
                except RankDeficient:  # the constant and the offset column, read after x'x
                    pass
                assert bits(*xtx_reads[-1]) == bits(*whole.xtx[i, [*map(names.index, others), c]])

    @pytest.mark.parametrize("n", [4, 20, 500])
    def test_a_stack_factors_each_design_as_its_slice_alone(self, n):
        rng = np.random.default_rng(n)
        stack = rng.normal(rng.uniform(-3, 3, 3), 2.0, (6, n, 3))
        stack[..., 1] = 7.0 + 1e-7 * rng.normal(size=(6, n))
        # an exactly constant column: the centered half of any set holding it
        # fails the guard and takes the SVD route, the through-origin half does not
        stack[3, :, 1] = 7.0
        whole = diagnostics._Factor(stack)
        sets = ([0, 1, 2], [2, 0], [1, 2])
        reads = [(cols, centered) for cols in sets for centered in (True, False)]
        for i, design in enumerate(stack):
            alone = diagnostics._Factor(design)
            for field in ("r", "xtx", "mean", "tss_c", "constant"):
                assert np.array_equal(getattr(whole, field)[i], getattr(alone, field)), field
            for cols, centered in reads:
                rss, rank = whole.rss(cols, centered)
                rss_alone, rank_alone = alone.rss(cols, centered)
                assert np.array_equal(rss[i], rss_alone) and rank[i] == rank_alone
        for cols in sets:
            rss_c, rank_c = whole.rss(cols, centered=True)
            rss_nc, rank_nc = whole.rss(cols, centered=False)
            # the constant column lies in the span of the ones column: its centered RSS is 0
            assert rank_c.tolist() == [len(cols) + 1 - (i == 3 and 1 in cols) for i in range(6)]
            assert rank_nc.tolist() == [len(cols)] * 6
            assert (rss_c[3, cols.index(1)] == 0.0) if 1 in cols else np.all(rss_c[3] > 0.0)
            for design, rss in zip(stack, rss_nc):
                # the leading block of the factor against the kernel on the columns alone,
                # within the bound the 50-digit sweep of test_aux_rss.py holds both to:
                # 100 eps times the condition with unit-length columns
                X = design[:, cols]
                cond = np.linalg.cond(X / np.linalg.norm(X, axis=0))
                kernel = diagnostics._Factor(X).rss(range(len(cols)), centered=False)[0]
                assert rss == pytest.approx(kernel, rel=100 * np.finfo(float).eps * cond)

    def test_a_stack_names_the_first_column_too_large_in_any_design(self):
        # half the float64 range over 20 rows: a constant column of this value fills it
        edge = math.sqrt(np.finfo(float).max / 40)
        stack = np.random.default_rng(8).normal(size=(4, 20, 3))
        stack[..., 1] = edge * (1 - 1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor = diagnostics._Factor(stack)
            assert np.all(factor.xtx[:, 1] <= linalg._XTX_MAX)
            for bad in (2, 1):
                wide = stack.copy()
                wide[3, 0, bad] = edge * 5
                with pytest.raises(ValueError, match=f"^column {bad} is too large"):
                    diagnostics._Factor(wide)

    @staticmethod
    def mean_zero_designs(count=300):
        """Designs whose centered and through-origin RSS nearly agree: every column has mean 0."""
        rng = np.random.default_rng(0)
        for _ in range(count):
            n, k = int(rng.integers(12, 60)), int(rng.integers(2, 8))
            X = rng.normal(size=(n, k))
            yield X - X.mean(axis=0)

    def test_centered_rss_never_exceeds_the_through_origin_one(self):
        # g_c = g_nc + t^2 after rounding too, so the order holds to the bit on the
        # inverse route; separate reads can break it by rounding where the means are 0
        columns = 0
        for X in self.mean_zero_designs():
            k = X.shape[1]
            names = ("y",) + tuple(f"x{i}" for i in range(k))
            data = DataMatrix(names, np.column_stack([np.arange(len(X), dtype=float), X]))
            for row in full_report(data, ModelSpec("y", names[1:])).rows:
                assert row.rss_aux_centered <= row.rss_aux_noncentered
                assert row.stewart_k2 >= row.vifnc
            columns += k
        assert columns == 1323

    @pytest.mark.parametrize("config", ["essential", "independent", "nonessential"])
    def test_centered_rss_never_exceeds_the_through_origin_one_on_a_stack(self, config):
        spec, _ = montecarlo.load_scenario_config(CONFIG_DIR / f"{config}.cfg")
        width = montecarlo._KINDS[spec.kind][0]
        x = np.empty((spec.replications, spec.n, width))
        indices = np.arange(spec.replications, dtype=np.uint64)
        seeds = montecarlo._derive_seeds(spec.master_seed, indices)
        montecarlo._generate(spec, seeds, x)
        factor = diagnostics._Factor(x)
        # every design of these stacks takes the inverse route in both halves
        for _, _, kappa in linalg._halves(factor.r):
            assert np.all(kappa < linalg._INVERSE_KAPPA)
        rss_c = factor.rss(range(width), centered=True)[0][:, :width]
        rss_nc = factor.rss(range(width), centered=False)[0]
        assert np.all(rss_c <= rss_nc)

    def test_alternating_specs_match_a_fresh_matrix_bit_for_bit(self):
        data = self.tall_data()
        specs = [
            ModelSpec("y", self.NAMES),
            ModelSpec("y", self.NAMES, intercept=False),
            ModelSpec("y", ("x3", "x4", "near")),
            ModelSpec("y", ("one", "x3", "x4", "near"), intercept=False),
            # a per-column call reads the same factor, here on the next spec's columns
            ("sum", ("near", "x3")),
            ModelSpec("x2", ("near", "x3", "sum")),
        ]
        for spec in specs + specs[::-1] + specs:
            fresh = DataMatrix(data.names, data.values.copy())
            if not isinstance(spec, ModelSpec):
                assert vifnc(data, *spec) == vifnc(fresh, *spec)
                continue
            assert full_report(data, spec) == full_report(fresh, spec)
            fresh = DataMatrix(data.names, data.values.copy())
            assert variance_factors(data, spec) == variance_factors(fresh, spec)

    def test_more_columns_than_rows_still_reports_a_small_model(self):
        rng = np.random.default_rng(8)
        data = DataMatrix(tuple(f"x{i}" for i in range(8)), rng.normal(2.0, 1.0, (4, 8)))
        report = full_report(data, ModelSpec("x0", ("x1", "x2")))
        # the same model on a matrix of its own columns, whose factor is square
        alone = DataMatrix(data.names[:3], data.values[:, :3])
        alone = full_report(alone, ModelSpec("x0", ("x1", "x2")))
        for row, expected in zip(report.rows, alone.rows):
            assert math.isfinite(row.vif) and math.isfinite(row.vifnc)
            assert row.vif == pytest.approx(expected.vif, rel=1e-12)
            assert row.vifnc == pytest.approx(expected.vifnc, rel=1e-12)
        # a centered auxiliary regression of 1 + 3 columns on 4 rows is square: a perfect fit
        rows = full_report(data, ModelSpec("x0", ("x1", "x2", "x3", "x4"))).rows
        assert all(math.isinf(row.vif) for row in rows)
        for regressors in (("x1", "x2", "x3", "x4", "x5"), ("x1", "x2", "x3", "x4", "x5", "x6")):
            with pytest.raises(TooFewObservations):
                full_report(data, ModelSpec("x0", regressors))
        with pytest.raises(TooFewObservations):
            vif(data, "x1", ["x2", "x3", "x4", "x5"])
        assert math.isinf(vifnc(data, "x1", ["x2", "x3", "x4", "x5"]))

    def test_row_blocks_give_the_one_pass_values(self, monkeypatch):
        data = self.tall_data()
        spec = ModelSpec("y", self.NAMES)
        one_pass = full_report(data, spec)
        monkeypatch.setattr(diagnostics, "_FACTOR_BYTES", 64 * 10 * 8)  # 64 rows of [D, 1]
        blocked = full_report(DataMatrix(data.names, data.values.copy()), spec)
        # both are backward stable: they differ by rounding, eps * cond with cond 2e5 here
        A = data.matrix(self.NAMES, intercept=True)
        rtol = 100 * np.finfo(float).eps * np.linalg.cond(A / np.linalg.norm(A, axis=0))
        for row, expected in zip(blocked.rows, one_pass.rows):
            assert (row.mean, row.coef_variation) == (expected.mean, expected.coef_variation)
            for key in ("vif", "vifnc", "stewart_k2", "nonessential_term"):
                assert getattr(row, key) == pytest.approx(getattr(expected, key), rel=rtol)

    def test_rows_keep_the_column_arithmetic_to_the_bit(self):
        # the factor's sums follow the floating-point order of the per-column
        # expressions that the report has always printed
        data = self.tall_data(n=20_000)
        names = ("x0", "x1", "x2", "x3", "near", "sum")
        report = full_report(data, ModelSpec("y", names))
        for row in report.rows:
            x = data.column(row.variable)
            mean = float(x.mean())
            assert row.mean == mean
            assert row.coef_variation == float(x.std(ddof=1)) / abs(mean)
            assert row.vifnc == float(x @ x) / row.rss_aux_noncentered
            assert row.vif == float(((x - mean) ** 2).sum()) / row.rss_aux_centered
            assert row.nonessential_term == data.n * mean * mean / row.rss_aux_centered


class TestZeroMeanCollapse:
    def test_exact_centering_collapses_vifnc_to_vif(self):
        for seed in range(10):
            data = random_data(seed, n=30, k=3)
            x = data.column("x0") - data.column("x0").mean()
            shifted = DataMatrix.from_columns(
                {
                    "xc": x,
                    "ones": np.ones(data.n),
                    "x1": data.column("x1"),
                    "x2": data.column("x2"),
                }
            )
            collapsed = vifnc(shifted, "xc", ["ones", "x1", "x2"])
            centered = vif(shifted, "xc", ["x1", "x2"])
            assert collapsed == pytest.approx(centered, rel=1e-8)

    def test_vif_translation_invariant_vifnc_not(self, belsley_data):
        shifted_col = belsley_data.column("X4") + 100.0
        shifted = DataMatrix.from_columns(
            {
                "X4s": shifted_col,
                "X2": belsley_data.column("X2"),
                "X3": belsley_data.column("X3"),
            }
        )
        assert vif(shifted, "X4s", ["X2", "X3"]) == pytest.approx(
            vif(belsley_data, "X4", ["X2", "X3"]), rel=1e-8
        )
        assert vifnc(shifted, "X4s", ["X2", "X3"]) != pytest.approx(
            vifnc(belsley_data, "X4", ["X2", "X3"]), rel=1e-3
        )


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_vif_scale_invariance_property(scale, column_index, seed):
    data = random_data(seed, n=18, k=3)
    scaled_cols = {}
    for i, name in enumerate(data.names):
        col = data.column(name).copy()
        if i == column_index:
            col *= scale
        scaled_cols[name] = col
    scaled = DataMatrix.from_columns(scaled_cols)
    baseline = vif(data, "x0", ["x1", "x2"])
    assert vif(scaled, "x0", ["x1", "x2"]) == pytest.approx(baseline, rel=1e-10)
