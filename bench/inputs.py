"""Seeded benchmark inputs and the independent reference values they are checked against.

Nothing here imports ``vifnc``: the inputs come from NumPy's own generator
and the references from SVD least squares (``np.linalg.lstsq``) and a
separate port of the SplitMix64 + Box-Muller stream, so a change to the
library can change neither the data it is fed nor the values it must match.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

import numpy as np

# Shapes are (rows, regressors); every CSV also carries the dependent y.
DIAGNOSE_SHAPES = {"diagnose-tall": (100_000, 8), "diagnose-wide": (4_000, 60)}

# Planted structure: x0/x1 are an essential pair (x1 = 0.9*x0 + N(0, 0.1^2),
# VIF ~ 82) and x2/x3 a near-constant pair (1 + N(0, 0.002^2), VIFnc ~ 1.3e5
# with VIF ~ 1). The remaining columns are N(m_j, 1) with m_j in [-1, 1], so
# their VIF and VIFnc stay below 2: both flags fire on exactly these rows.
ESSENTIAL = ("x0", "x1")
NONESSENTIAL = ("x2", "x3")
PERFECT_TOL = 1e-12  # the library's default sentinel for a perfect fit


def diagnose_matrix(rows: int, regressors: int, seed: int) -> tuple[list[str], np.ndarray]:
    """Column names and the (rows, 1 + regressors) matrix [y, x0, ...]."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, regressors)) + rng.uniform(-1.0, 1.0, regressors)
    X[:, 0] = rng.standard_normal(rows)
    X[:, 1] = 0.9 * X[:, 0] + rng.normal(0.0, 0.1, rows)
    X[:, 2] = 1.0 + rng.normal(0.0, 0.002, rows)
    X[:, 3] = 1.0 + rng.normal(0.0, 0.002, rows)
    y = X @ rng.standard_normal(regressors) + rng.standard_normal(rows)
    names = ["y"] + [f"x{j}" for j in range(regressors)]
    return names, np.column_stack([y, X])


def csv_text(names: list[str], matrix: np.ndarray) -> str:
    """Shortest round-trip decimals, so the loaded values equal ``matrix`` bit for bit."""
    lines = [",".join(names)]
    lines.extend(",".join(map(repr, row)) for row in matrix.tolist())
    return "\n".join(lines) + "\n"


def _rss(target: np.ndarray, design: np.ndarray) -> float:
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    return float(resid @ resid)


def diagnose_reference(names: list[str], matrix: np.ndarray) -> dict:
    """Per-regressor vif, vifnc, stewart_k2 and flags, plus variance-factor ratios.

    Model: y on every other column, with intercept. For regressor j with
    the others Z: vifnc = x'x / RSS(x | Z), vif = TSS_c / RSS(x | [1, Z]),
    stewart_k2 = x'x / RSS(x | [1, Z]), which is also the variance-factor
    ratio of j; the intercept's ratio is n / RSS(1 | X).
    """
    X = matrix[:, 1:]
    n = X.shape[0]
    ones = np.ones((n, 1))
    rows = []
    for j, name in enumerate(names[1:]):
        x = X[:, j]
        others = np.delete(X, j, axis=1)
        tss = float(x @ x)
        tss_c = float(((x - x.mean()) ** 2).sum())
        rss_nc = _rss(x, others)
        rss_c = _rss(x, np.hstack([ones, others]))
        rows.append({
            "variable": name,
            "vif": tss_c / rss_c,
            "vifnc": tss / rss_nc,
            "stewart_k2": tss / rss_c,
            "essential": name in ESSENTIAL,
            "nonessential": name in NONESSENTIAL,
        })
    ratios = [n / _rss(ones[:, 0], X)] + [row["stewart_k2"] for row in rows]
    return {"rows": rows, "variance_ratios": ratios}


# ---------------------------------------------------------------------------
# Monte Carlo: the shipped configs with a seed-derived master_seed.

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(state: int) -> int:
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def child_seed(master: int, index: int) -> int:
    return _mix((master + (index + 1) * _GOLDEN) & _MASK64)


def normal_column(n: int, mean: float, variance: float, seed: int) -> np.ndarray:
    """SplitMix64 uniforms on (0, 1] through Box-Muller, cosine variate first."""
    state = seed & _MASK64
    sd = math.sqrt(variance)
    out = np.empty(n)
    for i in range(0, n, 2):
        state = (state + _GOLDEN) & _MASK64
        u1 = ((_mix(state) >> 11) + 1) * 2.0**-53
        state = (state + _GOLDEN) & _MASK64
        u2 = ((_mix(state) >> 11) + 1) * 2.0**-53
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        out[i] = mean + sd * radius * math.cos(theta)
        if i + 1 < n:
            out[i + 1] = mean + sd * radius * math.sin(theta)
    return out


def scenario_configs(config_dir: Path, seed: int) -> list[dict]:
    """Shipped configs in name order, each with ``master_seed`` drawn from ``seed``."""
    paths = sorted(config_dir.glob("*.cfg"))
    masters = np.random.default_rng(seed).integers(0, 2**32, size=len(paths))
    configs = []
    for path, master in zip(paths, masters):
        text, count = re.subn(r"(?m)^master_seed\s*=.*$", f"master_seed = {int(master)}",
                              path.read_text(encoding="utf-8"))
        if count != 1:
            raise ValueError(f"{path.name}: expected one master_seed line")
        configs.append({"name": path.stem, "text": text, "keys": _parse_keys(text)})
    return configs


def _parse_keys(text: str) -> dict[str, str]:
    keys = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            keys[key] = value
    return keys


def _replication(keys: dict[str, str], seed: int) -> tuple[np.ndarray, int]:
    """Design columns of one replication and the index of the diagnosed column."""
    n = int(keys["n"])

    def column(index: int, mean: float, variance: float) -> np.ndarray:
        return normal_column(n, mean, variance, child_seed(seed, index))

    kind = keys["kind"]
    if kind == "independent":
        return np.column_stack([column(i, 4.0, 16.0) for i in range(3)]), 0
    noise_var = float(keys["noise_sd"]) ** 2
    if kind == "essential":
        z = column(0, 4.0, 16.0)
        return np.column_stack([z, float(keys["lambda"]) * z + column(1, 0.0, noise_var)]), 1
    base = float(keys["base"])
    return np.column_stack([base + column(0, 0.0, noise_var), base + column(1, 0.0, noise_var)]), 0


def montecarlo_reference(keys: dict[str, str]) -> dict:
    """n_success, n_failed, the six statistics and exceedance rates of VIF and VIFnc.

    Also the number of design columns, for the benchmark's cell count.
    """
    master = int(keys["master_seed"])
    reps = int(keys["replications"])
    vifs, vifncs = [], []
    for r in range(reps):
        design, j = _replication(keys, child_seed(master, r))
        columns = design.shape[1]
        x = design[:, j]
        others = np.delete(design, j, axis=1)
        if x.min() == x.max():
            continue
        tss = float(x @ x)
        tss_c = float(((x - x.mean()) ** 2).sum())
        rss_c = _rss(x, np.hstack([np.ones((x.size, 1)), others]))
        rss_nc = _rss(x, others)
        if rss_c <= PERFECT_TOL * tss_c or rss_nc <= PERFECT_TOL * tss:
            continue
        vifs.append(tss_c / rss_c)
        vifncs.append(tss / rss_nc)
    out = {"n_success": len(vifs), "n_failed": reps - len(vifs), "columns": columns}
    for label, values, threshold in (("vif", vifs, keys.get("vif_threshold", "10")),
                                     ("vifnc", vifncs, keys.get("vifnc_threshold", "10"))):
        arr = np.asarray(values)
        median, p90, p95, p99 = (float(v) for v in np.percentile(arr, [50, 90, 95, 99]))
        out[label] = {"mean": float(arr.mean()), "median": median, "p90": p90, "p95": p95,
                      "p99": p99, "max": float(arr.max()),
                      "exceedance": float((arr >= float(threshold)).mean())}
    return out


# Seed->bits contract of ``generate_normal_column``: SHA-256 of the float64
# little-endian bytes for fixed (n, mean, variance, seed). A faster generator
# must reproduce these exactly.
GENERATOR_GOLDENS = (
    ((20, 4.0, 16.0, 7), "e2dbc3f65508cebe38b1f3b9c3fed8e17a3c5c13221997085b57e1686e1556be"),
    ((1001, 0.0, 1.0, 2**64 - 1), "90707af5bf59f7d192ea8cc960572d37110390c56dfba8b82c83c6c29da93478"),
    ((3, -2.5, 0.25, 0), "7dbc06bc8dfbcdb278a60f3794345acc02dc1457e683051c534f56e9b4a697f9"),
)


def column_digest(column: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(column, dtype="<f8").tobytes()).hexdigest()
