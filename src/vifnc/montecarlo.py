"""Seeded Monte Carlo harness for VIF/VIFnc threshold exploration.

No canonical VIFnc cutoff exists, so this module does the only honest
thing: generate designs whose collinearity structure is controlled,
collect the induced VIF and VIFnc distributions, and report percentiles
and threshold exceedance rates. Interpretation stays with the user.

Three design recipes:

* ``independent`` - three i.i.d. Normal(4, 16) columns, no built-in
  relation; the baseline noise floor of both diagnostics.
* ``essential`` - a proportional near-relation between two columns,
  ``x = lambda * z + noise``; both diagnostics should fire.
* ``nonessential`` - two near-constant columns ``base + noise``; VIFnc
  should fire while VIF stays quiet.

``_KINDS`` declares each kind's width, diagnosed column and parameters
(a scenario needs exactly those), ``_KEYS`` each config key's field and type.

Each replication derives its own child seed from (master_seed, index), so
results never depend on execution order. The replications' designs go into
one stacked array: each column index is drawn for every replication in one
call of the array generator, bit-equal to drawing each replication's
columns one at a time. Both diagnostics of every replication come from one
factor of that stack, the one :mod:`vifnc.diagnostics` takes of a DataMatrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import Thresholds, _Factor, _TooLarge
from .errors import ConfigError
from .datasets import _check_integers, _derive_seeds, _normal_columns

#: Per kind: regressor columns, the column diagnosed, and the config keys its recipe reads.
_KINDS = {
    "independent": (3, 0, ()),
    "essential": (2, 1, ("lambda", "noise_sd")),
    "nonessential": (2, 0, ("base", "noise_sd")),
}
KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class ScenarioSpec:
    """A simulation scenario; a kind needs the parameters ``_KINDS`` lists and takes no other.

    ``n``, ``replications`` and ``master_seed`` are integers (int or NumPy);
    anything else raises ``ValueError`` naming the field.

    ``lam`` is the slope of the essential near-relation (config key
    ``lambda``), ``noise_sd`` the disturbance scale of either structured
    kind, ``base`` the common level of the non-essential columns.
    """

    kind: str
    n: int
    replications: int
    master_seed: int
    lam: float | None = None
    noise_sd: float | None = None
    base: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        _check_integers(n=self.n, replications=self.replications, master_seed=self.master_seed)
        if self.n < 4:
            raise ValueError("need n >= 4")
        if self.replications < 1:
            raise ValueError("need replications >= 1")
        # named by their config keys, so a ConfigError points at the line to fix
        parameters = {"lambda": self.lam, "noise_sd": self.noise_sd, "base": self.base}
        reads = _KINDS[self.kind][2]
        if any(parameters[key] is None for key in reads):
            raise ValueError(f"{self.kind} scenario needs {' and '.join(reads)}")
        for key, value in parameters.items():
            if value is not None and key not in reads:
                raise ValueError(f"{self.kind} scenario takes no {key}")
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if self.noise_sd is not None and not self.noise_sd > 0:
            raise ValueError("noise_sd must be positive")
        if self.noise_sd is not None and not 0 < self.noise_sd * self.noise_sd < math.inf:
            raise ValueError(f"noise_sd must have a positive finite square, got {self.noise_sd!r}")


@dataclass(frozen=True)
class DiagnosticStats:
    mean: float
    median: float
    p90: float
    p95: float
    p99: float
    max: float


@dataclass(frozen=True)
class MonteCarloSummary:
    """Distribution of both diagnostics over the successful replications.

    ``n_failed`` counts replications whose diagnostics read ``inf``: a
    draw whose diagnosed column the kernel reads with RSS 0. They are disclosed,
    never silently dropped from the denominator story: percentiles and
    exceedance rates are over the ``n_success`` successes.
    """

    scenario: ScenarioSpec
    thresholds: Thresholds
    n_success: int
    n_failed: int
    vif_stats: DiagnosticStats
    vifnc_stats: DiagnosticStats
    vif_exceedance: float
    vifnc_exceedance: float


def _generate(spec: ScenarioSpec, seeds: np.ndarray, out: np.ndarray) -> None:
    """Write every replication's regressors into the ``(replications, n, width)`` array ``out``.

    Replication r's column ``index`` is the normal column of seed
    ``derive_seed(seeds[r], index)``. independent: x1, x2, x3; essential:
    z, x = lambda*z + noise; nonessential: a, b = base + noise.
    """
    def column(index: int, mean: float, variance: float) -> np.ndarray:
        return _normal_columns(_derive_seeds(seeds, index), spec.n, mean, variance)

    if spec.kind == "independent":
        for index in range(3):
            out[:, :, index] = column(index, 4.0, 16.0)
    elif spec.kind == "essential":
        z = column(0, 4.0, 16.0)
        out[:, :, 0] = z
        out[:, :, 1] = spec.lam * z + column(1, 0.0, spec.noise_sd**2)
    else:
        out[:, :, 0] = spec.base + column(0, 0.0, spec.noise_sd**2)
        out[:, :, 1] = spec.base + column(1, 0.0, spec.noise_sd**2)


def _stats(values: np.ndarray) -> list[DiagnosticStats]:
    """The statistics of each row of a ``(rows, m)`` array, NaN throughout when m is 0.

    One percentile, mean and max call reads every row, each bit-equal to
    the same call on that row alone once the rows are contiguous: NumPy sums
    a strided row in another order.
    """
    values = np.ascontiguousarray(values)
    if values.shape[-1] == 0:
        return [DiagnosticStats(*[float("nan")] * 6) for _ in values]
    percentiles = np.percentile(values, [50, 90, 95, 99], axis=-1).T.tolist()
    return [
        DiagnosticStats(mean, median, p90, p95, p99, largest)
        for mean, (median, p90, p95, p99), largest in zip(
            values.mean(axis=-1).tolist(), percentiles, values.max(axis=-1).tolist()
        )
    ]


def run_scenario(spec: ScenarioSpec, thresholds: Thresholds = Thresholds()) -> MonteCarloSummary:
    """Run all replications and aggregate.

    Replication r uses child seed ``derive_seed(master_seed, r)``; the
    designs of all replications are drawn together, one generator call
    per column index, and summarized at the end, so the summary is a
    function of the seed alone. VIF and VIFnc are read off one factor of
    the stacked designs, so each replication's values equal ``vif`` and
    ``vifnc`` of its own DataMatrix, bit for bit.

    Only the structurally collinear column is diagnosed, which keeps the
    summary interpretable. A replication counts as failed when either
    diagnostic reads ``inf``: a draw whose diagnosed column the kernel
    reads with RSS 0 (an exact relation, or a constant or zero column).
    Failures are disclosed in ``n_failed`` and excluded from the percentiles.

    Raises ``ValueError`` naming the kind's largest parameter when a drawn
    column's sum of squares exceeds half the float64 range: the factor's
    column norms, rounded, must square to a finite value.
    """
    width, j, reads = _KINDS[spec.kind]
    x = np.empty((spec.replications, spec.n, width))
    seeds = _derive_seeds(spec.master_seed, np.arange(spec.replications, dtype=np.uint64))
    with np.errstate(over="ignore"):
        _generate(spec, seeds, x)
    try:
        factor = _Factor(x)
    except _TooLarge:
        key = max(reads, key=lambda key: abs(getattr(spec, _KEYS[key][1])))
        raise ValueError(
            f"{key} = {getattr(spec, _KEYS[key][1])!r} is too large: a drawn column's"
            " sum of squares exceeds half the float64 range"
        ) from None
    values = np.stack([factor.read(range(width), centered)[0][:, j] for centered in (True, False)])
    ok = np.isfinite(values).all(axis=0)
    values = values[:, ok]
    vif_stats, vifnc_stats = _stats(values)
    varr, warr = values
    return MonteCarloSummary(
        scenario=spec,
        thresholds=thresholds,
        n_success=int(ok.sum()),
        n_failed=int((~ok).sum()),
        vif_stats=vif_stats,
        vifnc_stats=vifnc_stats,
        vif_exceedance=float((varr >= thresholds.vif).mean()) if varr.size else float("nan"),
        vifnc_exceedance=float((warr >= thresholds.vifnc).mean()) if warr.size else float("nan"),
    )


# ---------------------------------------------------------------------------
# Scenario configuration files: flat "key = value" lines, '#' comments.

#: Each config key: the class it configures, the field it sets there, and its type.
_KEYS = {
    "kind": (ScenarioSpec, "kind", str),
    "n": (ScenarioSpec, "n", int),
    "replications": (ScenarioSpec, "replications", int),
    "master_seed": (ScenarioSpec, "master_seed", int),
    "lambda": (ScenarioSpec, "lam", float),
    "noise_sd": (ScenarioSpec, "noise_sd", float),
    "base": (ScenarioSpec, "base", float),
    "vif_threshold": (Thresholds, "vif", float),
    "vifnc_threshold": (Thresholds, "vifnc", float),
}
_REQUIRED_KEYS = ("kind", "n", "replications", "master_seed")
_EXPECTED = {int: "an integer", float: "a number"}


def parse_scenario_config(text: str) -> tuple[ScenarioSpec, Thresholds]:
    """Parse the flat key-value scenario format.

    Recognized keys: those of ``_KEYS``, each read as the type it has
    there; a threshold not given keeps its ``Thresholds`` default. An
    unknown, duplicate or missing required key, an unparseable value, or a
    parameter the kind does not read raises :class:`ConfigError` naming
    the key.
    """
    given: dict[type, dict[str, object]] = {ScenarioSpec: {}, Thresholds: {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
        cls, field, convert = _KEYS[key]
        if field in given[cls]:
            raise ConfigError(f"duplicate key {key!r}")
        try:
            given[cls][field] = convert(value)
        except ValueError:
            raise ConfigError(f"key {key!r} must be {_EXPECTED[convert]}, got {value!r}") from None

    for key in _REQUIRED_KEYS:
        if _KEYS[key][1] not in given[ScenarioSpec]:
            raise ConfigError(f"missing key {key!r}")
    try:
        return ScenarioSpec(**given[ScenarioSpec]), Thresholds(**given[Thresholds])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_scenario_config(path: str | Path) -> tuple[ScenarioSpec, Thresholds]:
    return parse_scenario_config(Path(path).read_text(encoding="utf-8"))
