"""Closed-loop worker: one client runs ops back to back for a fixed time.

Run by ``run.py`` as ``python child.py <job.json>`` in a fresh interpreter
whose BLAS is pinned to one thread. The job names the workload, its input
and the reference values; the worker writes per-op timings, the outcome of
every correctness check and, when tracing, the per-layer summary to the
job's result file. Checks run outside the timed region.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import inputs
from probe import PROBES
from tracing import Tracer

# Relative tolerance of every library value against its reference. The
# QR and SVD routes agree to ~1e-14 on these inputs; stewart_k2 goes
# through the Gram system, whose error grows with the squared condition
# number of the design times the cancellation in x'x - x'Z(Z'Z)^-1 Z'x,
# and lands near 4e-9 on the near-constant rows. 1e-6 leaves a 250x
# margin there while any real defect moves these values by far more.
RTOL = 1e-6
STATS = ("mean", "median", "p90", "p95", "p99", "max")

def _close(value, reference: float) -> bool:
    return value is not None and abs(value - reference) <= RTOL * abs(reference)


class Diagnose:
    """load_csv -> full_report -> variance_factors -> render_report(JSON)."""

    classes = 1

    def __init__(self, vifnc, job: dict):
        self.vifnc = vifnc
        self.path = job["csv"]
        self.reference = job["reference"]

    def op(self, index: int):
        vifnc = self.vifnc
        data = vifnc.load_csv(self.path)
        spec = vifnc.ModelSpec("y", tuple(name for name in data.names if name != "y"))
        report = vifnc.full_report(data, spec)
        factors = vifnc.variance_factors(data, spec)
        text = vifnc.report.render_report(report, spec, self.path, vifnc.report.OutputFormat.JSON)
        return report, factors, text

    def check(self, output) -> list[str]:
        report, factors, text = output
        ref_rows = self.reference["rows"]
        if [row.variable for row in report.rows] != [row["variable"] for row in ref_rows]:
            return ["report rows do not follow the regressors"]
        errors = []
        for row, ref in zip(report.rows, ref_rows):
            for key in ("vif", "vifnc", "stewart_k2"):
                if not _close(getattr(row, key), ref[key]):
                    errors.append(f"{row.variable}.{key} = {getattr(row, key)!r}, reference {ref[key]!r}")
            if (row.essential_suspect, row.nonessential_suspect) != (ref["essential"], ref["nonessential"]):
                errors.append(f"{row.variable}: flags do not match the planted structure")
        ratios = self.reference["variance_ratios"]
        if len(factors) != len(ratios):
            errors.append(f"{len(factors)} variance factors, expected {len(ratios)}")
        for factor, ref in zip(factors, ratios):
            if not _close(factor.ratio, ref):
                errors.append(f"variance ratio of {factor.variable} = {factor.ratio!r}, reference {ref!r}")
        rendered = json.loads(text)["rows"]
        if [(r["variable"], r["vifnc"]) for r in rendered] != [(r.variable, r.vifnc) for r in report.rows]:
            errors.append("rendered JSON disagrees with the report")
        return errors


class MonteCarlo:
    """parse_scenario_config -> run_scenario -> render_montecarlo(JSON), cycling the configs."""

    def __init__(self, vifnc, job: dict):
        self.vifnc = vifnc
        self.configs = job["configs"]
        self.classes = len(self.configs)

    def op(self, index: int):
        vifnc = self.vifnc
        which = index % self.classes
        spec, thresholds = vifnc.parse_scenario_config(self.configs[which]["text"])
        summary = vifnc.run_scenario(spec, thresholds)
        text = vifnc.report.render_montecarlo(summary, vifnc.report.OutputFormat.JSON)
        return which, summary, text

    def check(self, output) -> list[str]:
        which, summary, text = output
        ref = self.configs[which]["reference"]
        name = self.configs[which]["name"]
        errors = []
        if (summary.n_success, summary.n_failed) != (ref["n_success"], ref["n_failed"]):
            errors.append(f"{name}: {summary.n_success}/{summary.n_failed} succeeded/failed, "
                          f"reference {ref['n_success']}/{ref['n_failed']}")
        for label in ("vif", "vifnc"):
            stats = getattr(summary, f"{label}_stats")
            for key in STATS:
                if not _close(getattr(stats, key), ref[label][key]):
                    errors.append(f"{name}: {label}.{key} = {getattr(stats, key)!r}, "
                                  f"reference {ref[label][key]!r}")
            if getattr(summary, f"{label}_exceedance") != ref[label]["exceedance"]:
                errors.append(f"{name}: {label} exceedance differs from the reference")
        if json.loads(text)["n_success"] != summary.n_success:
            errors.append(f"{name}: rendered JSON disagrees with the summary")
        return errors

    def success_ratio(self, output) -> float:
        _, summary, _ = output
        return summary.n_success / summary.scenario.replications


def run_checks(vifnc) -> list[str]:
    """Once per run: the generator's seed->bits goldens and the Belsley replication table."""
    errors = []
    for (n, mean, variance, seed), digest in inputs.GENERATOR_GOLDENS:
        column = vifnc.generate_normal_column(vifnc.GeneratorSpec(n=n, mean=mean, variance=variance, seed=seed))
        if inputs.column_digest(column) != digest:
            errors.append(f"generate_normal_column(n={n}, seed={seed}) changed its output bits")
    failed = [entry.label for entry in vifnc.replication_table() if not entry.passed]
    if failed:
        errors.append(f"replication targets failed: {failed}")
    return errors


def class_means(per_op: dict[int, dict[str, float]], classes: dict[int, int]) -> dict[str, float]:
    """Mean over op classes of each class's median per-op value.

    Ops of one class (one Monte Carlo config, or the single diagnose input)
    do identical work, so a count is the same on every op of a class and
    its median is that count exactly; the mean over classes in a fixed
    order then does not depend on how many ops of each a timed run fitted in.
    """
    by_class: dict[int, list[dict[str, float]]] = defaultdict(list)
    for op, row in per_op.items():
        by_class[classes[op]].append(row)
    keys = {key for rows in by_class.values() for row in rows for key in row}
    return {key: statistics.fmean(statistics.median(row.get(key, 0.0) for row in by_class[c])
                                  for c in sorted(by_class))
            for key in sorted(keys)}


def peak_rss_mb() -> float:
    """This process's peak resident set since exec.

    ``ru_maxrss`` would also count the parent's resident set at fork time,
    which on Linux carries over into the child's figure; VmHWM does not.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import vifnc
    import vifnc.cli  # noqa: F401  (the CLI imports every layer; tracing patches them all)
    import vifnc.report

    if Path(vifnc.__file__).resolve().parent != (src / "vifnc").resolve():
        raise SystemExit(f"imported vifnc from {vifnc.__file__}, not from {src}")

    workload = MonteCarlo(vifnc, job) if job["workload"] == "montecarlo" else Diagnose(vifnc, job)
    tracer = Tracer() if job["trace"] else None
    run_errors = run_checks(vifnc)
    # Pairs of ops take turns on the allowed CPUs: the speed of one vCPU
    # can drift by 20% over tens of seconds, and a run left on one of them
    # by chance would inherit that.
    # Each pair (untraced, traced) shares a CPU, so the tracing overhead
    # compares like with like. One untimed warm-up op per CPU first:
    # lazy imports, allocator, page cache, and a first op on an idle CPU.
    probe = PROBES[job["workload"]]
    cpus = sorted(os.sched_getaffinity(0))
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        output = workload.op(0)
        before = probe.after(time.perf_counter() - start)
        run_errors += [f"warm-up: {e}" for e in workload.check(output)]

    ops = []
    ratios: dict[int, float] = {}
    # every op class at least once, traced and untraced when tracing
    min_ops = workload.classes * (2 if tracer else 1)
    deadline = time.perf_counter() + job["seconds"]
    index = 0
    while time.perf_counter() < deadline or index < min_ops:
        os.sched_setaffinity(0, {cpus[index // 2 % len(cpus)]})
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            if traced:
                output = tracer.run_op(index, lambda: workload.op(index))
            else:
                output = workload.op(index)
            error = None
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            output, error = None, repr(exc)
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        # Probe samples on the op's CPU (probe.py); the op's time at the
        # reference speed uses the samples right before and right after it.
        behind = probe.after(elapsed)
        probe_s = statistics.median(before + behind)
        scaled = probe.scale(elapsed, before, behind)
        before = behind
        if error is None:
            problems = workload.check(output)
            error = "; ".join(problems[:3]) if problems else None
        if error is None and isinstance(workload, MonteCarlo):
            ratios[index % workload.classes] = workload.success_ratio(output)
        ops.append({"class": index % workload.classes, "seconds": elapsed, "scaled_s": scaled,
                    "probe_s": probe_s, "traced": traced, "error": error})
        index += 1

    result = {
        "ops": ops,
        "run_errors": run_errors,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        classes = {op: row["class"] for op, row in enumerate(ops)}
        result["layers"] = class_means(tracer.per_op(), classes)
        result["layers"]["montecarlo.success_ratio"] = (
            statistics.fmean(ratios.values()) if ratios else 0.0)
        tracer.write(job["spans"])
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
