"""Benchmark of the vifnc library: three closed-loop workloads, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload diagnose-tall --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with the library untouched;
``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. See
bench/README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads. With the default pool a 2-core
# machine showed sporadic 20x stalls in full_report: two threads measure
# the scheduler, not the program. One thread is also the plain
# single-threaded baseline.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({name: BLAS_THREADS for name in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from probe import INTERPRETER, PROBES  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("diagnose-tall", "diagnose-wide", "montecarlo")
SETUP_RUNS = 12  # fresh interpreters timed for setup_s, after one untimed per CPU
SETUP_CODE = "import vifnc, vifnc.cli; vifnc.cli.build_parser()"
CHILD_GRACE_S = 90  # time beyond --seconds for the child's import, checks and last op

# Module layers present on every workload: result-line name -> traced spans.
LAYERS = {
    "datasets": ("datasets.load_csv", "datasets.generate_normal_column"),
    "diagnostics": ("diagnostics.full_report", "diagnostics.variance_factors",
                    "diagnostics.vif", "diagnostics.vifnc"),
    "ols.fit": ("ols.fit",),
    "linalg.solve_least_squares": ("linalg.solve_least_squares",),
    "kernel": ("kernel.qr", "kernel.solve", "kernel.lstsq", "kernel.matrix_rank"),
    "report.render": ("report.render",),
}
# Rows of the share summary: (label, spans whose self time it sums).
SHARE_LAYERS = (
    ("datasets.load_csv", ("datasets.load_csv",)),
    ("datasets.generate_normal_column", ("datasets.generate_normal_column",)),
    *((label, names) for label, names in LAYERS.items() if label != "datasets"),
    ("montecarlo", ("montecarlo.run_scenario", "montecarlo.parse_scenario_config")),
    ("benchmark glue", ("op",)),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup() -> list[tuple[float, float]]:
    """(wall time, time at the reference speed) of fresh interpreters that
    import the package and build the CLI parser.

    The interpreters take turns on the allowed CPUs, as the workload's ops
    do; the first one on each CPU is untimed. Probe samples (probe.py) run
    on the same CPU right before and right after each one.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for run in range(SETUP_RUNS + len(cpus)):
            os.sched_setaffinity(0, {cpus[run % len(cpus)]})
            before = INTERPRETER.after(0.0)
            start = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
            elapsed = time.perf_counter() - start
            if done.returncode != 0:
                raise BenchError(f"importing vifnc failed:\n{done.stderr.decode(errors='replace')}")
            behind = INTERPRETER.after(elapsed)
            if run >= len(cpus):
                times.append((elapsed, INTERPRETER.scale(elapsed, before, behind)))
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def prepare(workload: str, seed: int, workdir: Path) -> tuple[dict, dict]:
    """Write the workload's input; return the job fields and the input description."""
    if workload == "montecarlo":
        configs = inputs.scenario_configs(ROOT / "demos" / "configs", seed)
        if len(configs) != 3:
            raise BenchError(f"expected the 3 shipped configs in demos/configs, found {len(configs)}")
        for config in configs:
            config["reference"] = inputs.montecarlo_reference(config["keys"])
        shapes = {c["name"]: {"n": int(c["keys"]["n"]), "columns": c["reference"]["columns"],
                              "replications": int(c["keys"]["replications"]),
                              "master_seed": int(c["keys"]["master_seed"])} for c in configs}
        return {"configs": configs}, {"configs": shapes, "csv_bytes": None}
    rows, regressors = inputs.DIAGNOSE_SHAPES[workload]
    names, matrix = inputs.diagnose_matrix(rows, regressors, seed)
    path = workdir / f"{workload}.csv"
    path.write_text(inputs.csv_text(names, matrix), encoding="utf-8", newline="\n")
    job = {"csv": str(path), "reference": inputs.diagnose_reference(names, matrix)}
    return job, {"rows": rows, "columns": len(names), "csv_bytes": path.stat().st_size}


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with ten samples beyond it: (value, percentile, samples beyond).

    Below 20 samples that percentile falls under the median, which is no
    tail, so the median is reported with the samples beyond it.
    """
    ordered = sorted(times)
    if len(ordered) < 20:
        return statistics.median(ordered), 50.0, len(ordered) // 2
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered), 10


def end_to_end(workload: str, ops: list[dict], input_info: dict,
               setup: list[tuple[float, float]], rss: float) -> dict:
    """Metrics from op times at the reference speed, and the same from wall times.

    The result line carries the times at the reference speed (probe.py);
    the wall-time twins are printed beside them with a ``_wall`` suffix.
    """
    if input_info["csv_bytes"] is None:
        shapes = list(input_info["configs"].values())
        cells = {c: s["n"] * s["columns"] * s["replications"] for c, s in enumerate(shapes)}
        replications = {c: float(s["replications"]) for c, s in enumerate(shapes)}
    else:
        cells = {0: float(input_info["rows"] * input_info["columns"])}
        replications = None
    metrics, extra, notes = {}, {}, {}
    for key, suffix, target in (("scaled_s", "", metrics), ("seconds", "_wall", extra)):
        # One pass through every op class, from per-class medians: the mean
        # of the classes' medians, not the median of a mix of classes.
        cycle = sum(statistics.median(op[key] for op in ops if op["class"] == c) for c in cells)
        value, pct, beyond = tail([op[key] for op in ops])
        target[f"op_s_p50{suffix}"] = (cycle / len(cells), "s")
        target[f"op_s_tail{suffix}"] = (value, "s")
        target[f"cells_per_s{suffix}"] = (sum(cells.values()) / cycle, "1/s")
        if replications:
            extra[f"replications_per_s{suffix}"] = (sum(replications.values()) / cycle, "1/s")
        notes[f"op_s_tail{suffix}"] = f"p{pct:.1f}, {beyond} of {len(ops)} samples beyond"
        notes[f"cells_per_s{suffix}"] = ("generated design cells (n x columns x replications)"
                                         if replications else "input cells (rows x columns)")
    metrics["setup_s"] = (statistics.median(scaled for _, scaled in setup), "s")
    extra["setup_s_wall"] = (statistics.median(wall for wall, _ in setup), "s")
    notes["setup_s"] = f"median of {len(setup)} fresh interpreters"
    metrics["peak_rss_mb"] = (rss, "MB")
    extra["probe_s_p50"] = (statistics.median(op["probe_s"] for op in ops), "s")
    notes["probe_s_p50"] = f"{PROBES[workload]}; interpreter set-up probe {INTERPRETER}"
    return {"metrics": metrics, "notes": notes, "extra": extra}


def per_layer(ops: list[dict], layers: dict, input_info: dict) -> dict:
    """Per-op layer metrics; ``metrics`` go into the result line, ``extra`` is printed only.

    The result line carries counts and the self time of each module layer,
    which every workload exercises. Function-level times of a layer that a
    workload never calls would read exactly 0 on every run, so they are
    printed but kept out of the result line.
    """
    def get(key: str) -> float:
        return layers.get(key, 0.0)

    def self_s(names) -> float:
        return sum(get(f"{name}.self_s") for name in names)

    untraced = statistics.median(op["seconds"] for op in ops if not op["traced"])
    traced = statistics.median(op["seconds"] for op in ops if op["traced"])
    counts = ("diagnostics.vif.calls", "diagnostics.vifnc.calls", "ols.fit.calls",
              "linalg.solve_least_squares.calls", "linalg.rank_deficient_solves",
              "kernel.qr.calls", "kernel.gram_solves", "kernel.lstsq.calls",
              "datasets.generate_normal_column.calls")
    metrics = {name: (get(name), "count") for name in counts}
    metrics["kernel.qr.flops_computed"] = (get("kernel.qr.flops_computed"), "flop")
    metrics["montecarlo.success_ratio"] = (get("montecarlo.success_ratio"), "ratio")
    for label, names in LAYERS.items():
        metrics[f"{label}.self_s"] = (self_s(names), "s")
    metrics["tracing.overhead_s"] = (traced - untraced, "s")

    load_total = get("datasets.load_csv.total_s")
    extra = {name: (get(name), "s") for name in (
        "datasets.load_csv.self_s", "diagnostics.full_report.self_s",
        "diagnostics.variance_factors.self_s", "datasets.generate_normal_column.self_s",
        "montecarlo.run_scenario.self_s")}
    extra["datasets.load_csv.mb_per_s"] = (
        input_info["csv_bytes"] / 1e6 / load_total if load_total else 0.0, "MB/s")
    extra["diagnostics.aux.self_s"] = (self_s(("diagnostics.vif", "diagnostics.vifnc")), "s")
    # (share of the traced op, self time over the untraced op_s_p50); the
    # first column sums to 100%, the second also carries the tracing overhead.
    shares = {label: (self_s(names) / get("op.total_s"), self_s(names) / untraced)
              for label, names in SHARE_LAYERS}
    return {"metrics": metrics, "extra": extra, "shares": shares,
            "untraced_op_s_p50": untraced, "traced_op_s_p50": traced}


def predictions(workload: str, layers: dict, shares: dict) -> list[tuple[str, bool]]:
    """The share predictions of bench/README.md, from inclusive span times of the traced op."""
    def share(*names: str) -> float:
        return sum(layers.get(f"{name}.total_s", 0.0) for name in names) / layers["op.total_s"]

    diagnostics = share("diagnostics.full_report", "diagnostics.variance_factors")
    load = share("datasets.load_csv")
    if workload == "diagnose-tall":
        largest = max(shares, key=lambda label: shares[label][0])
        return [(f"load_csv is the largest layer by self time (largest: {largest})",
                 largest == "datasets.load_csv"),
                (f"load_csv is about half of the op, 0.35 to 0.65 (measured {load:.2f}; "
                 f"diagnostics with the layers under it {diagnostics:.2f})", 0.35 <= load <= 0.65)]
    if workload == "diagnose-wide":
        return [(f"diagnostics with the layers under it is about 0.9 of the op, over 0.75 "
                 f"(measured {diagnostics:.2f})", diagnostics > 0.75),
                (f"load_csv is about 0.1 of the op, under 0.2 (measured {load:.2f})", load < 0.2)]
    generator = share("datasets.generate_normal_column")
    # run_scenario's inclusive time less the vif/vifnc fits: generator plus loop
    inputs_side = share("montecarlo.run_scenario") - share("diagnostics.vif", "diagnostics.vifnc")
    return [(f"generator alone is about 1/5 of the op, 0.12 to 0.30 (measured {generator:.2f})",
             0.12 <= generator <= 0.30),
            (f"generator plus replication loop is about 1/3 of the op, 0.25 to 0.45 "
             f"(measured {inputs_side:.2f})", 0.25 <= inputs_side <= 0.45)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}-{workload}"
    workdir.mkdir()
    try:
        job, input_info = prepare(workload, seed, workdir)
        setup = [] if trace else measure_setup()
        tag = f"{workload}-seed{seed}-trace{int(trace)}"
        job.update(root=str(ROOT), workload=workload, seconds=seconds, trace=trace,
                   result=str(workdir / "result.json"), spans=str(WORK / f"spans-{tag}.csv"))
        (workdir / "job.json").write_text(json.dumps(job), encoding="utf-8")
        try:
            done = subprocess.run([sys.executable, str(BENCH / "child.py"), str(workdir / "job.json")],
                                  cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                                  timeout=seconds + CHILD_GRACE_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: the worker did not finish in time") from None
        if done.returncode != 0:
            raise BenchError(f"{workload}: the worker exited with code {done.returncode}")
        child = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = child["ops"]
    good = [op for op in ops if op["error"] is None]
    if not ops:
        raise BenchError(f"{workload}: no op completed")
    run_failed = bool(child["run_errors"])
    failed = len(ops) if run_failed else len(ops) - len(good)
    summary = {
        "workload": workload, "trace": trace, "seconds": seconds,
        "environment": environment(seed), "input": input_info,
        "attempted": len(ops), "failed": failed, "error_rate": failed / len(ops),
        "errors": child["run_errors"] + sorted({op["error"] for op in ops if op["error"]})[:5],
        "ops": ops,
    }
    timed = good or ops
    if trace:
        layer = per_layer(timed, child["layers"], input_info)
        summary.update(layer)
        summary["predictions"] = predictions(workload, child["layers"], layer["shares"])
    else:
        summary.update(end_to_end(workload, timed, input_info, setup, child["peak_rss_mb"]))
    (WORK / f"result-{tag}.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    return summary


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_summary(s: dict) -> None:
    print(f"== {s['workload']}  seed {s['environment']['seed']}  seconds {s['seconds']}  "
          f"trace {int(s['trace'])}")
    print("environment: " + json.dumps(s["environment"]))
    print("input: " + json.dumps(s["input"]))
    for name, (value, unit) in {**s["metrics"], **s.get("extra", {})}.items():
        note = s.get("notes", {}).get(name)
        print(f"  {name:<40} {_fmt(value):>14} {unit:<6}" + (f"  ({note})" if note else ""))
    print(f"  {'error_rate':<40} {_fmt(s['error_rate']):>14} {'ratio':<6}  "
          f"({s['failed']} failed of {s['attempted']} attempted)")
    for error in s["errors"]:
        print(f"  error: {error}")
    if s["trace"]:
        print(f"  untraced op_s_p50 {_fmt(s['untraced_op_s_p50'])} s, traced {_fmt(s['traced_op_s_p50'])} s")
        print(f"    {'self time as a share of':<36} {'traced op':>10} {'untraced op_s_p50':>18}")
        for label, (traced, untraced) in s["shares"].items():
            print(f"    {label:<36} {traced:10.1%} {untraced:18.1%}")
        for text, holds in s["predictions"]:
            print(f"  prediction: {text}: {'holds' if holds else 'DOES NOT HOLD'}")


def result_line(summary: dict) -> dict:
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in summary["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    missing = [p for p in (ROOT / "src" / "vifnc" / "__init__.py", ROOT / "demos" / "configs")
               if not p.exists()]
    if missing:
        print(f"error: not a vifnc checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            print_summary(summaries[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({s["workload"]: result_line(s) for s in summaries}))
    else:
        print(json.dumps(result_line(summaries[0])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
