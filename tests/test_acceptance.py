"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here and nowhere else.
"""

import numpy as np

from vifnc import (
    AuxiliaryMode,
    DataMatrix,
    ModelSpec,
    ScenarioSpec,
    auxiliary_regression,
    belsley,
    fit,
    run_scenario,
    solve_least_squares,
    stewart_index,
    variance_factors,
    vif,
    vifnc,
)
from vifnc.cli import main

from oracles import normal_equations_solve

REL_TIGHT = 1e-3  # 0.1 %
REL_LOOSE = 5e-3  # 0.5 %, for the 1e5-scale near-singular targets
IDENTITY_RTOL = 1e-8  # stewart_index is good to about 3e-15 * VIFnc, so up to VIFnc 3e6
DECOMP_RTOL = 1e-10


def _conclude(label, checks):
    ok = all(flag for _, flag in checks)
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    failed = [name for name, flag in checks if not flag]
    assert ok, f"{label}: failed checks: {failed}"


def _rel(computed, expected):
    return abs(computed - expected) / abs(expected)


def test_criterion_1_two_regressor_model():
    data = belsley()
    checks = [
        ("VIFnc(X3|X2) = 100032.1 within 0.5%",
         _rel(vifnc(data, "X3", ["X2"]), 100032.1) <= REL_LOOSE),
        ("VIF(X3|1,X2) = 1.00 within 0.01",
         abs(vif(data, "X3", ["X2"]) - 1.00) <= 1e-2),
    ]
    _conclude("criterion 1: two-regressor Belsley model", checks)


def test_criterion_2_three_regressor_model():
    data = belsley()
    vif_targets = {"X2": 1.155364, "X3": 1.084168, "X4": 1.239559}
    vifnc_targets = {"X2": (100453.8, REL_LOOSE), "X3": (100490.6, REL_LOOSE),
                     "X4": (1.773768, REL_TIGHT)}
    checks = []
    for j, target in vif_targets.items():
        others = [o for o in ("X2", "X3", "X4") if o != j]
        checks.append(
            (f"VIF({j}) = {target} within 0.1%",
             _rel(vif(data, j, others), target) <= REL_TIGHT)
        )
    for j, (target, tol) in vifnc_targets.items():
        others = [o for o in ("X2", "X3", "X4") if o != j]
        checks.append(
            (f"VIFnc({j}) = {target}",
             _rel(vifnc(data, j, others), target) <= tol)
        )
    _conclude("criterion 2: three-regressor VIF/VIFnc values", checks)


def test_criterion_3_pairwise_models():
    data = belsley()
    checks = [
        ("VIF(X2|X4) = 1.143328", _rel(vif(data, "X2", ["X4"]), 1.143328) <= REL_TIGHT),
        ("VIFnc(X2|X4) = 1.765676", _rel(vifnc(data, "X2", ["X4"]), 1.765676) <= REL_TIGHT),
        ("VIF(X3|X4) = 1.072873", _rel(vif(data, "X3", ["X4"]), 1.072873) <= REL_TIGHT),
        ("VIFnc(X3|X4) = 1.766323", _rel(vifnc(data, "X3", ["X4"]), 1.766323) <= REL_TIGHT),
    ]
    _conclude("criterion 3: pairwise models with X4", checks)


def test_criterion_4_intercept_trick():
    data = belsley()
    targets = {"X1": 400031.4, "X2": 199921.7, "X3": 200158.3}
    checks = []
    for j, target in targets.items():
        others = [o for o in ("X1", "X2", "X3") if o != j]
        checks.append(
            (f"trick VIFnc({j}) = {target} within 0.5%",
             _rel(vifnc(data, j, others), target) <= REL_LOOSE)
        )
    checks.append(
        ("subset {X1,X2} -> 199921.7",
         _rel(vifnc(data, "X2", ["X1"]), 199921.7) <= REL_LOOSE)
    )
    checks.append(
        ("subset {X1,X3} -> 200158.3",
         _rel(vifnc(data, "X3", ["X1"]), 200158.3) <= REL_LOOSE)
    )
    _conclude("criterion 4: intercept trick values", checks)


def _stewart_identity_checks(data, regressor_names, ones_name, checks, tag):
    """vifnc = stewart = vif + n*mean^2/RSS over the ones-including design."""
    n = data.n
    for j in regressor_names:
        x = data.column(j)
        if x.min() == x.max():
            continue
        others = [o for o in regressor_names if o != j]
        plain = [o for o in others if o != ones_name]
        lhs = vifnc(data, j, others)
        middle = stewart_index(data, j, others)
        aux = auxiliary_regression(data, j, plain, AuxiliaryMode.CENTERED)
        rhs = vif(data, j, plain) + n * float(x.mean()) ** 2 / aux.rss
        checks.append((f"{tag}: vifnc({j}) = stewart({j})", _rel(middle, lhs) <= IDENTITY_RTOL))
        checks.append((f"{tag}: vifnc({j}) = vif + term", _rel(rhs, lhs) <= IDENTITY_RTOL))


def test_criterion_5_stewart_identity():
    checks = []
    _stewart_identity_checks(belsley(), ("X1", "X2", "X3", "X4"), "X1", checks, "belsley")
    rng = np.random.default_rng(501)
    for trial in range(100):
        n = int(rng.integers(10, 101))
        k = int(rng.integers(2, 6))
        cols = {"ones": np.ones(n)}
        for i in range(k):
            cols[f"x{i}"] = rng.normal(4.0, 4.0, n)
        data = DataMatrix.from_columns(cols)
        _stewart_identity_checks(
            data, tuple(cols), "ones", checks, f"seeded[{trial}]"
        )
    _conclude("criterion 5: Stewart identity chain at 1e-8", checks)


def test_criterion_6_decomposition_identities():
    rng = np.random.default_rng(601)
    checks = []
    for trial in range(200):
        n = int(rng.integers(6, 50))
        k = int(rng.integers(1, 5))
        if n <= k + 1:
            n = k + 2
        cols = {"y": rng.normal(rng.uniform(-5, 5), 2.0, n)}
        for i in range(k):
            cols[f"x{i}"] = rng.normal(rng.uniform(-5, 5), 2.0, n)
        data = DataMatrix.from_columns(cols)
        intercept = bool(trial % 2)
        spec = ModelSpec("y", tuple(f"x{i}" for i in range(k)), intercept=intercept)
        ss = fit(data, spec)
        gap4 = abs(ss.tss_uncentered - ss.ess_uncentered - ss.rss)
        checks.append((f"uncentered identity trial {trial}",
                       gap4 <= DECOMP_RTOL * ss.tss_uncentered))
        if intercept:
            gap6 = abs(ss.tss_centered - ss.ess_centered - ss.rss)
            checks.append((f"centered identity trial {trial}",
                           gap6 <= DECOMP_RTOL * max(ss.tss_centered, 1e-300)))
    _conclude("criterion 6: sum-of-squares identities at 1e-10 (200 fits)", checks)


def test_criterion_7_variance_ratio_identity():
    checks = []
    data = belsley()
    spec = ModelSpec("y", ("X1", "X2", "X3"), intercept=False)
    for factor in variance_factors(data, spec):
        others = [r for r in spec.regressors if r != factor.variable]
        target = vifnc(data, factor.variable, others)
        checks.append(
            (f"belsley ratio({factor.variable}) = vifnc",
             _rel(factor.ratio, target) <= IDENTITY_RTOL)
        )
    rng = np.random.default_rng(701)
    for trial in range(30):
        n = int(rng.integers(10, 60))
        k = int(rng.integers(2, 5))
        cols = {"y": rng.normal(0.0, 1.0, n)}
        for i in range(k):
            cols[f"x{i}"] = rng.normal(4.0, 4.0, n)
        data = DataMatrix.from_columns(cols)
        spec = ModelSpec("y", tuple(f"x{i}" for i in range(k)), intercept=False)
        for factor in variance_factors(data, spec):
            others = [r for r in spec.regressors if r != factor.variable]
            target = vifnc(data, factor.variable, others)
            checks.append(
                (f"seeded[{trial}] ratio({factor.variable}) = vifnc",
                 _rel(factor.ratio, target) <= IDENTITY_RTOL)
            )
    _conclude("criterion 7: variance-ratio identity at 1e-8", checks)


def test_criterion_8_zero_mean_collapse():
    checks = []
    rng = np.random.default_rng(801)
    # Belsley columns, exactly centered, diagnosed within the ones-including set
    data = belsley()
    for j in ("X2", "X3", "X4"):
        others = [o for o in ("X1", "X2", "X3", "X4") if o != j]
        plain = [o for o in others if o != "X1"]
        col = data.column(j)
        centered = col - col.mean()
        cols = {name: data.column(name) for name in others}
        cols[j] = centered
        shifted = DataMatrix.from_columns(cols)
        lhs = vifnc(shifted, j, others)
        rhs = vif(shifted, j, plain)
        checks.append((f"belsley {j} centered: vifnc = vif", _rel(lhs, rhs) <= IDENTITY_RTOL))
    for trial in range(50):
        n = int(rng.integers(10, 60))
        k = int(rng.integers(2, 5))
        cols = {"ones": np.ones(n)}
        for i in range(k):
            cols[f"x{i}"] = rng.normal(rng.uniform(-4, 4), 3.0, n)
        target = f"x{int(rng.integers(0, k))}"
        cols[target] = cols[target] - cols[target].mean()
        data = DataMatrix.from_columns(cols)
        others = [name for name in cols if name != target]
        plain = [name for name in others if name != "ones"]
        lhs = vifnc(data, target, others)
        rhs = vif(data, target, plain)
        checks.append((f"seeded[{trial}] {target}: vifnc = vif", _rel(lhs, rhs) <= IDENTITY_RTOL))
    _conclude("criterion 8: zero-mean collapse at 1e-8", checks)


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(901)
    checks = []
    for trial in range(100):
        n = int(rng.integers(8, 60))
        k = int(rng.integers(1, 7))
        A = rng.normal(size=(n, k))
        b = rng.normal(size=n)
        solved = solve_least_squares(A, b).coefficients
        oracle = np.asarray(normal_equations_solve(A.tolist(), b.tolist()))
        rel = np.linalg.norm(solved - oracle) / np.linalg.norm(oracle)
        checks.append((f"system {trial} ({n}x{k})", rel <= 1e-8))
    _conclude("criterion 9: QR solver vs normal-equations oracle at 1e-8", checks)


def test_criterion_10_montecarlo_separation():
    spec = ScenarioSpec(
        kind="nonessential", n=20, replications=500, master_seed=1234,
        base=1.0, noise_sd=0.002,
    )
    summary = run_scenario(spec)
    repeat = run_scenario(spec)
    checks = [
        ("median VIFnc > 1e3", summary.vifnc_stats.median > 1e3),
        ("median VIF < 2", summary.vif_stats.median < 2.0),
        ("identical master_seed gives bitwise-identical summary", summary == repeat),
    ]
    _conclude("criterion 10: Monte Carlo qualitative separation", checks)


def test_criterion_11_replicate_cli_exits_zero(capsys):
    code = main(["replicate"])
    out = capsys.readouterr().out
    with capsys.disabled():
        _conclude(
            "criterion 11: replicate CLI end-to-end",
            [("exit code 0", code == 0), ("all rows PASS", "FAIL" not in out)],
        )
