import math
import warnings

import numpy as np
import pytest

from vifnc import (
    DataMatrix,
    GeneratorSpec,
    ScenarioSpec,
    Thresholds,
    derive_seed,
    generate_normal_column,
    parse_scenario_config,
    run_scenario,
    vif,
    vifnc,
)
from vifnc.errors import ConfigError
from vifnc.montecarlo import DiagnosticStats, _stats


def nonessential(replications=100, seed=42, noise_sd=0.002):
    return ScenarioSpec(
        kind="nonessential",
        n=20,
        replications=replications,
        master_seed=seed,
        base=1.0,
        noise_sd=noise_sd,
    )


class TestScenarioSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ScenarioSpec(kind="bogus", n=20, replications=5, master_seed=1)

    def test_essential_requires_parameters(self):
        with pytest.raises(ValueError):
            ScenarioSpec(kind="essential", n=20, replications=5, master_seed=1)

    def test_nonessential_requires_parameters(self):
        with pytest.raises(ValueError):
            ScenarioSpec(kind="nonessential", n=20, replications=5, master_seed=1, base=1.0)

    def test_noise_sd_positive(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                kind="essential", n=20, replications=5, master_seed=1, lam=1.0, noise_sd=0.0
            )

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            ScenarioSpec(kind="independent", n=3, replications=5, master_seed=1)
        with pytest.raises(ValueError):
            ScenarioSpec(kind="independent", n=20, replications=0, master_seed=1)

    @pytest.mark.parametrize("field", ["n", "replications"])
    @pytest.mark.parametrize("value", [20.5, 20.0, "20"])
    def test_sizes_must_be_integers(self, field, value):
        sizes = {"n": 20, "replications": 5, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            ScenarioSpec(kind="independent", master_seed=1, **sizes)

    @pytest.mark.parametrize("value", [1.5, 1.0, "1", True])
    def test_master_seed_must_be_an_integer(self, value):
        # 1.5 used to run seed 1 while the summary reported master_seed 1.5
        with pytest.raises(ValueError, match="^master_seed must be an integer, got "):
            ScenarioSpec(kind="independent", n=20, replications=5, master_seed=value)

    def test_bool_sizes_are_not_integers(self):
        # replications=True passed the check and failed in run_scenario's np.empty
        with pytest.raises(ValueError, match="^replications must be an integer, got True"):
            ScenarioSpec(kind="independent", n=20, replications=True, master_seed=1)

    def test_numpy_integer_master_seed_is_accepted(self):
        spec = ScenarioSpec(kind="independent", n=20, replications=3, master_seed=7)
        numpy_seed = ScenarioSpec(
            kind="independent", n=20, replications=3, master_seed=np.uint64(7)
        )
        assert run_scenario(numpy_seed).vif_stats == run_scenario(spec).vif_stats

    def test_numpy_integer_sizes_are_accepted(self):
        spec = ScenarioSpec(kind="independent", n=20, replications=3, master_seed=1)
        numpy_sizes = ScenarioSpec(
            kind="independent", n=np.int64(20), replications=np.int32(3), master_seed=1
        )
        assert run_scenario(numpy_sizes) == run_scenario(spec)


class TestRunScenario:
    def test_bitwise_deterministic(self):
        first = run_scenario(nonessential())
        second = run_scenario(nonessential())
        assert first == second

    def test_single_replication_deterministic(self):
        spec = ScenarioSpec(kind="independent", n=20, replications=1, master_seed=8)
        assert run_scenario(spec) == run_scenario(spec)

    def test_percentiles_monotone(self):
        for spec in (
            nonessential(),
            ScenarioSpec(kind="independent", n=25, replications=150, master_seed=3),
            ScenarioSpec(
                kind="essential", n=20, replications=150, master_seed=5, lam=1.0, noise_sd=0.05
            ),
        ):
            summary = run_scenario(spec)
            for stats in (summary.vif_stats, summary.vifnc_stats):
                assert stats.median <= stats.p90 <= stats.p95 <= stats.p99 <= stats.max

    def test_nonessential_separates_the_diagnostics(self):
        summary = run_scenario(nonessential(replications=200))
        assert summary.vifnc_exceedance > summary.vif_exceedance
        assert summary.vifnc_stats.median > 1e4
        assert summary.vif_stats.median < 2.0

    def test_essential_fires_both(self):
        spec = ScenarioSpec(
            kind="essential", n=20, replications=200, master_seed=5, lam=1.0, noise_sd=0.05
        )
        summary = run_scenario(spec)
        assert summary.vif_exceedance == 1.0
        assert summary.vifnc_exceedance == 1.0

    def test_independent_baseline_is_quiet(self):
        spec = ScenarioSpec(kind="independent", n=20, replications=200, master_seed=11)
        summary = run_scenario(spec)
        # self-golden values from the first run of this implementation
        assert summary.vif_stats.p95 == pytest.approx(1.4310186950035997, rel=1e-12)
        assert summary.vif_stats.median < 1.5
        assert summary.vif_exceedance == 0.0

    def test_degenerate_draws_counted_not_dropped(self):
        # noise this small falls under the kernel's rank cut: it reads the
        # pair as an exact relation, so every replication reads inf and
        # must be disclosed as failed
        summary = run_scenario(nonessential(replications=10, noise_sd=1e-13))
        assert summary.n_failed == 10
        assert summary.n_success == 0
        assert math.isnan(summary.vif_stats.median)
        # VIFnc near 1e18 is still far inside full rank: every value is finite
        summary = run_scenario(nonessential(replications=10, noise_sd=1e-9))
        assert (summary.n_success, summary.n_failed) == (10, 0)
        for stats in (summary.vif_stats, summary.vifnc_stats):
            assert all(math.isfinite(value) for value in vars(stats).values())

    def test_custom_thresholds_move_exceedance(self):
        summary = run_scenario(nonessential(), Thresholds(vif=1.0, vifnc=1.0))
        assert summary.vif_exceedance == 1.0


#: Half the float64 range over 20 rows: a constant column of this value fills it exactly.
EDGE = math.sqrt(np.finfo(float).max / 40)


class TestDrawsTooLargeForFloat64:
    """Finite parameters whose draws a column's sum of squares cannot hold."""

    @pytest.mark.parametrize(
        "kind, parameters, key",
        [
            ("essential", {"lam": 1e308, "noise_sd": 1.0}, "lambda"),
            ("essential", {"lam": -1e200, "noise_sd": 1.0}, "lambda"),
            ("essential", {"lam": 1.0, "noise_sd": 1e154}, "noise_sd"),
            ("nonessential", {"base": 1.7e308, "noise_sd": 1e150}, "base"),
            ("nonessential", {"base": 1e200, "noise_sd": 1.0}, "base"),
            ("nonessential", {"base": 1.0, "noise_sd": 1e154}, "noise_sd"),
            ("nonessential", {"base": EDGE * (1 + 1e-12), "noise_sd": 1e-150}, "base"),
        ],
    )
    def test_named_before_the_factor_without_a_warning(self, kind, parameters, key):
        spec = ScenarioSpec(kind=kind, n=20, replications=5, master_seed=1, **parameters)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{key} = .* is too large"):
                run_scenario(spec)

    @pytest.mark.parametrize(
        "kind, parameters, failed",
        [
            # the widest draws the factor reads: every column stays a valid design
            ("essential", {"lam": 1e152, "noise_sd": 1e150}, 0),
            # a constant column just inside half the range: the kernel reads RSS 0
            ("nonessential", {"base": EDGE * (1 - 1e-12), "noise_sd": 1e-150}, 5),
        ],
    )
    def test_draws_inside_the_range_run_without_a_warning(self, kind, parameters, failed):
        spec = ScenarioSpec(kind=kind, n=20, replications=5, master_seed=1, **parameters)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_scenario(spec)
        assert (summary.n_success, summary.n_failed) == (5 - failed, failed)

    def test_wide_draws_read_as_unit_scale_ones(self):
        # the essential kind's VIF and VIFnc do not depend on the common scale of
        # lambda and noise_sd, so a run near the edge reads what a unit-scale run reads
        def summary(scale):
            spec = ScenarioSpec(
                kind="essential", n=20, replications=50, master_seed=1, lam=scale, noise_sd=scale
            )
            return run_scenario(spec)

        unit, wide = summary(1.0), summary(1e152)
        for label in ("vif_stats", "vifnc_stats"):
            assert vars(getattr(wide, label)) == pytest.approx(vars(getattr(unit, label)), rel=1e-12)


def one_replication(spec, r):
    """Replication r of ``spec`` as a DataMatrix, and the column diagnosed by default."""
    seed = derive_seed(spec.master_seed, r)

    def column(index, mean, variance):
        return generate_normal_column(
            GeneratorSpec(n=spec.n, mean=mean, variance=variance, seed=derive_seed(seed, index))
        )

    if spec.kind == "independent":
        return DataMatrix.from_columns({f"x{i + 1}": column(i, 4.0, 16.0) for i in range(3)}), "x1"
    if spec.kind == "essential":
        z = column(0, 4.0, 16.0)
        x = spec.lam * z + column(1, 0.0, spec.noise_sd**2)
        return DataMatrix.from_columns({"z": z, "x": x}), "x"
    noise = spec.noise_sd**2
    return DataMatrix.from_columns(
        {"a": spec.base + column(0, 0.0, noise), "b": spec.base + column(1, 0.0, noise)}
    ), "a"


@pytest.mark.parametrize(
    "spec",
    [
        ScenarioSpec(kind="independent", n=20, replications=40, master_seed=3),
        ScenarioSpec(
            kind="essential", n=20, replications=40, master_seed=5, lam=1.0, noise_sd=0.05
        ),
        nonessential(replications=40, seed=9),
        nonessential(replications=40, seed=9, noise_sd=1e-5),
        nonessential(replications=10, noise_sd=1e-9),
        # draws under the rank cut beside full-rank ones: 5 succeed, 5 fail
        nonessential(replications=10, noise_sd=2e-13),
    ],
    ids=["independent", "essential", "nonessential", "nonessential-tight", "degenerate", "mixed"],
)
def test_stacked_run_matches_one_replication_at_a_time(spec):
    thresholds = Thresholds()
    vifs, vifncs, failed = [], [], 0
    for r in range(spec.replications):
        data, designated = one_replication(spec, r)
        rest = [o for o in data.names if o != designated]
        v, w = vif(data, designated, rest), vifnc(data, designated, rest)
        if math.isinf(v) or math.isinf(w):
            failed += 1
            continue
        vifs.append(v)
        vifncs.append(w)

    summary = run_scenario(spec, thresholds)
    assert (summary.n_success, summary.n_failed) == (spec.replications - failed, failed)
    for label, values, threshold in (
        ("vif", vifs, thresholds.vif),
        ("vifnc", vifncs, thresholds.vifnc),
    ):
        stats = getattr(summary, f"{label}_stats")
        if not values:
            assert math.isnan(stats.median) and math.isnan(getattr(summary, f"{label}_exceedance"))
            continue
        values = np.array(values)
        assert getattr(summary, f"{label}_exceedance") == float((values >= threshold).mean())
        # both routes read one factor, of the stack or of its slice: equal to the bit
        assert stats == row_stats(values)


def row_stats(values):
    """The statistics of one 1-D array, each from its own call on it."""
    median, p90, p95, p99 = np.percentile(values, [50, 90, 95, 99]).tolist()
    return DiagnosticStats(float(values.mean()), median, p90, p95, p99, float(values.max()))


@pytest.mark.parametrize("m", [0, 1, 2, 7, 500])
def test_stacked_stats_equal_each_row_alone(m):
    rng = np.random.default_rng(m)
    values = np.stack([1.0 + rng.random(m), 1e6 * rng.lognormal(size=m)])
    # a column-major stack too: its strided rows must still sum in the 1-D order
    for stack in (values, np.asfortranarray(values)):
        got = _stats(stack)
        assert len(got) == 2
        if m == 0:
            assert all(math.isnan(value) for stats in got for value in vars(stats).values())
        else:
            assert got == [row_stats(row) for row in values]


class TestConfigParsing:
    GOOD = """
# scenario: near-constant pair
kind = nonessential
n = 20
replications = 50
master_seed = 42
base = 1
noise_sd = 0.002
vifnc_threshold = 30
"""

    def test_good_config(self):
        spec, thresholds = parse_scenario_config(self.GOOD)
        assert spec.kind == "nonessential"
        assert spec.replications == 50
        assert thresholds.vifnc == 30.0
        assert thresholds.vif == 10.0

    def test_missing_master_seed_names_key(self):
        text = "kind = independent\nn = 20\nreplications = 5\n"
        with pytest.raises(ConfigError, match="master_seed"):
            parse_scenario_config(text)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="replication_count"):
            parse_scenario_config(self.GOOD + "replication_count = 3\n")

    def test_bad_value_named(self):
        text = "kind = independent\nn = lots\nreplications = 5\nmaster_seed = 1\n"
        with pytest.raises(ConfigError, match="'n'"):
            parse_scenario_config(text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_scenario_config(self.GOOD + "kind = independent\n")

    @pytest.mark.parametrize("key", ["vif_threshold", "vifnc_threshold"])
    def test_nan_threshold_named(self, key):
        with pytest.raises(ConfigError, match=key):
            parse_scenario_config(self.GOOD.replace("vifnc_threshold = 30", f"{key} = nan"))

    def test_infinite_threshold_kept(self):
        _, thresholds = parse_scenario_config(self.GOOD + "vif_threshold = inf\n")
        assert thresholds.vif == math.inf

    def test_lambda_key_maps_to_slope(self):
        text = (
            "kind = essential\nn = 20\nreplications = 5\nmaster_seed = 1\n"
            "lambda = 1.5\nnoise_sd = 0.1\n"
        )
        spec, _ = parse_scenario_config(text)
        assert spec.lam == 1.5

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_scenario_config("this is not a key value pair\n")

    INDEPENDENT = "kind = independent\nn = 20\nreplications = 5\nmaster_seed = 1\n"
    ESSENTIAL = "kind = essential\nn = 20\nreplications = 5\nmaster_seed = 1\n"
    NONESSENTIAL = "kind = nonessential\nn = 20\nreplications = 5\nmaster_seed = 1\n"

    @pytest.mark.parametrize(
        "text, key",
        [
            (ESSENTIAL + "lambda = nan\nnoise_sd = 0.5\n", "lambda"),
            (ESSENTIAL + "lambda = -inf\nnoise_sd = 0.5\n", "lambda"),
            (ESSENTIAL + "lambda = 1\nnoise_sd = inf\n", "noise_sd"),
            (NONESSENTIAL + "base = inf\nnoise_sd = 0.5\n", "base"),
        ],
    )
    def test_nonfinite_parameter_named(self, text, key):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_scenario_config(text)

    @pytest.mark.parametrize("noise_sd", ["1e200", "1e-200"])
    def test_noise_variance_out_of_range_named(self, noise_sd):
        with pytest.raises(ConfigError, match="noise_sd"):
            parse_scenario_config(self.ESSENTIAL + f"lambda = 1\nnoise_sd = {noise_sd}\n")

    #: The parameters each kind's recipe reads; a kind takes no other.
    READS = {
        "independent": (),
        "essential": ("lambda", "noise_sd"),
        "nonessential": ("base", "noise_sd"),
    }

    @pytest.mark.parametrize(
        "kind, key",
        [
            (kind, key)
            for kind, reads in READS.items()
            for key in ("lambda", "noise_sd", "base")
            if key not in reads
        ],
    )
    def test_parameter_the_kind_does_not_read_named(self, kind, key):
        text = self.INDEPENDENT.replace("independent", kind)
        text += "".join(f"{read} = 1\n" for read in self.READS[kind])
        parse_scenario_config(text)
        with pytest.raises(ConfigError, match=f"^{kind} scenario takes no {key}$"):
            parse_scenario_config(text + f"{key} = 2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (INDEPENDENT.replace("master_seed = 1\n", ""), "missing key 'master_seed'"),
            (GOOD + "replication_count = 3\n", "unknown key 'replication_count'"),
            (GOOD + "kind = independent\n", "duplicate key 'kind'"),
            ("x\n", "line 1: expected 'key = value', got 'x'"),
            (INDEPENDENT.replace("n = 20", "n = lots"), "key 'n' must be an integer, got 'lots'"),
            (GOOD.replace("30", "high"), "key 'vifnc_threshold' must be a number, got 'high'"),
            (ESSENTIAL + "lambda = 1\n", "essential scenario needs lambda and noise_sd"),
            (NONESSENTIAL + "noise_sd = 1\n", "nonessential scenario needs base and noise_sd"),
            (
                INDEPENDENT.replace("independent", "bogus"),
                "kind must be one of ('independent', 'essential', 'nonessential'), got 'bogus'",
            ),
            (INDEPENDENT.replace("n = 20", "n = 3"), "need n >= 4"),
            (ESSENTIAL + "lambda = 1\nnoise_sd = -1\n", "noise_sd must be positive"),
            (GOOD.replace("30", "nan"), "vifnc_threshold must be a number or inf, got nan"),
        ],
        ids=[
            "missing", "unknown", "duplicate", "malformed", "integer", "number",
            "essential-needs", "nonessential-needs", "kind", "n", "noise_sd", "threshold",
        ],
    )
    def test_single_fault_message(self, text, message):
        with pytest.raises(ConfigError) as error:
            parse_scenario_config(text)
        assert str(error.value) == message
