"""The public surface: what the package exports, and which knobs its functions take."""

import inspect

import pytest

import vifnc
from vifnc import cli, datasets, diagnostics, linalg, montecarlo, ols, replication, report

PUBLIC_NAMES = [
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

#: Tolerances and switches that are module constants in every module, the
#: linalg kernel included: no public function takes one as a parameter.
KNOBS = {"perfect_tol", "rank_rtol", "full_sweep"}


def test_exported_names():
    assert sorted(vifnc.__all__) == PUBLIC_NAMES


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            for attr, method in vars(obj).items():
                method = getattr(method, "__func__", method)  # classmethod, staticmethod
                if inspect.isfunction(method) and (attr == "__init__" or not attr.startswith("_")):
                    yield f"{module.__name__}.{name}.{attr}", method


@pytest.mark.parametrize(
    "module", [cli, datasets, diagnostics, linalg, montecarlo, ols, replication, report]
)
def test_no_tolerance_knob(module):
    functions = dict(_public_functions(module))
    assert functions
    for name, function in functions.items():
        assert not KNOBS & set(inspect.signature(function).parameters), name
