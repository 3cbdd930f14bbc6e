"""Collinearity diagnostics from centered and non-centered auxiliary regressions.

The classical variance inflation factor (VIF) comes from an auxiliary
regression with intercept and reacts to near-linear relations among the
regressors. Its non-centered counterpart (VIFnc) drops the intercept and
instead reacts to relations among low-variability columns, the constant
included once it is passed explicitly. This package computes both, their
Stewart-index connection, and ships the Belsley dataset on which the
contrast is starkest, plus a seeded Monte Carlo harness for exploring
what thresholds on VIFnc would mean in practice.
"""

from . import errors
from .datasets import (
    GeneratorSpec,
    SplitMix64,
    belsley,
    belsley_csv_path,
    derive_seed,
    generate_normal_column,
    load_csv,
    save_csv,
    to_csv,
)
from .diagnostics import (
    AuxiliaryMode,
    CollinearityReport,
    CollinearityRow,
    Thresholds,
    VarianceFactor,
    auxiliary_regression,
    full_report,
    intercept_trick,
    stewart_decomposition,
    stewart_index,
    variance_factors,
    vif,
    vifnc,
)
from .linalg import LeastSquaresSolution, solve_least_squares
from .montecarlo import (
    MonteCarloSummary,
    ScenarioSpec,
    load_scenario_config,
    parse_scenario_config,
    run_scenario,
)
from .ols import (
    DataMatrix,
    FitResult,
    ModelSpec,
    fit,
    r2_centered,
    r2_noncentered,
)
from .replication import ReplicationEntry, replication_table

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryMode",
    "CollinearityReport",
    "CollinearityRow",
    "DataMatrix",
    "FitResult",
    "GeneratorSpec",
    "LeastSquaresSolution",
    "ModelSpec",
    "MonteCarloSummary",
    "ReplicationEntry",
    "ScenarioSpec",
    "SplitMix64",
    "Thresholds",
    "VarianceFactor",
    "auxiliary_regression",
    "belsley",
    "belsley_csv_path",
    "derive_seed",
    "errors",
    "fit",
    "full_report",
    "generate_normal_column",
    "intercept_trick",
    "load_csv",
    "load_scenario_config",
    "parse_scenario_config",
    "r2_centered",
    "r2_noncentered",
    "replication_table",
    "run_scenario",
    "save_csv",
    "solve_least_squares",
    "stewart_decomposition",
    "stewart_index",
    "to_csv",
    "variance_factors",
    "vif",
    "vifnc",
]
