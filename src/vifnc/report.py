"""Text/JSON/CSV renderers for reports, fits, and simulation summaries.

Each renderer lists its fields once, as ``key -> value`` records (nested
where the JSON nests), and hands them to three emitters that own every
formatting rule. ``_emit_json`` keeps full round-trip precision, writes an
undefined value (``None`` or NaN: the VIF of a constant column, a
statistic over zero successes) as ``null``, ``inf`` as
``{"value": null, "infinite": true}`` and ``-inf`` as the same object
with ``"negative": true``, because JSON has no infinity literal, and
dumps with ``allow_nan=False``. ``_emit_csv`` quotes a cell
only when it needs it (a name with a comma) and writes shortest
round-trip decimals, ``0``/``1`` flags, ``NA`` and ``inf``. ``_emit_table``
lays out ``(title, template)`` text columns to 7 significant digits, the
precision the replication targets were published at, so values can be
compared by eye; ``NA`` and ``inf`` read as in CSV.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math

from .diagnostics import CollinearityReport, Thresholds
from .montecarlo import MonteCarloSummary
from .ols import FitResult, ModelSpec, r2_centered, r2_noncentered
from .replication import ReplicationEntry

VIFNC_THRESHOLD_CAVEAT = (
    "No established threshold exists for VIFnc; the configured cutoff is "
    "provisional and the flags are annotations, not verdicts."
)
FLAG_CAVEAT = (
    "essential_suspect compares VIF against its threshold; "
    "nonessential_suspect flags rows whose VIFnc exceeds its threshold "
    "while VIF stayed quiet."
)

#: Record keys, which are also the attribute names they are read from.
_ROW_FIELDS = (
    "variable", "mean", "vif", "vifnc", "stewart_k2", "nonessential_term", "coef_variation",
)
_FLAG_FIELDS = ("essential_suspect", "nonessential_suspect")
_STAT_FIELDS = ("mean", "median", "p90", "p95", "p99", "max")
_ENTRY_FIELDS = ("label", "expected", "computed", "tolerance", "tolerance_kind", "error", "passed")

#: Text column titles that differ from their record key.
_SHORT_TITLES = {"nonessential_term": "noness_term", "coef_variation": "cv"}


class OutputFormat(enum.Enum):
    TEXT = "text"
    JSON = "json"
    CSV = "csv"


def _undefined(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def _json_value(value):
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            infinite = {"value": None, "infinite": True}
            return {**infinite, "negative": True} if value < 0 else infinite
        return float(value)
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    return value


def _emit_json(payload) -> str:
    return json.dumps(_json_value(payload), indent=2, allow_nan=False)


def _cell(value) -> str:
    if _undefined(value):
        return "NA"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _emit_csv(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(value) for value in row] for row in rows)
    return out.getvalue()


def _text(value) -> str:
    if _undefined(value):
        return "NA"
    if isinstance(value, str):
        return value
    return format(value, ".7g")


def _emit_table(columns, rows) -> list[str]:
    """A title line plus one line per row; ``columns`` are ``(title, template)`` pairs."""
    lines = ["".join(template.format(title) for title, template in columns)]
    for row in rows:
        lines.append("".join(template.format(_text(v)) for (_, template), v in zip(columns, row)))
    return lines


def _fields(obj, names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _thresholds(thresholds: Thresholds) -> dict:
    return {"vif": thresholds.vif, "vifnc": thresholds.vifnc}


def _thresholds_line(thresholds: Thresholds) -> str:
    return ", ".join(f"{key} >= {_text(value)}" for key, value in _thresholds(thresholds).items())


def render_report(
    report: CollinearityReport,
    spec: ModelSpec,
    dataset: str,
    fmt: OutputFormat = OutputFormat.TEXT,
) -> str:
    rows = [_fields(row, _ROW_FIELDS) for row in report.rows]
    flags = [_fields(row, _FLAG_FIELDS) for row in report.rows]

    if fmt is OutputFormat.JSON:
        model = {"dependent": spec.dependent, "regressors": spec.regressors,
                 "intercept": spec.intercept}
        return _emit_json({
            "dataset": dataset,
            "model": model,
            "rows": [{**row, "flags": flag} for row, flag in zip(rows, flags)],
            "thresholds": _thresholds(report.thresholds),
            "caveats": [VIFNC_THRESHOLD_CAVEAT, FLAG_CAVEAT],
        })

    if fmt is OutputFormat.CSV:
        return _emit_csv(
            _ROW_FIELDS + _FLAG_FIELDS,
            ([*row.values(), *flag.values()] for row, flag in zip(rows, flags)),
        )

    intercept = "intercept" if spec.intercept else "no intercept"
    columns = [("variable", "{:<10}")]
    columns += [(_SHORT_TITLES.get(key, key), " {:>12}") for key in _ROW_FIELDS[1:]]
    columns.append(("flags", "  {}"))
    lines = [
        f"dataset: {dataset}",
        f"model: {spec.dependent} ~ {' + '.join(spec.regressors)} ({intercept})",
        f"thresholds: {_thresholds_line(report.thresholds)}",
        "",
    ]
    lines += _emit_table(columns, (
        [*row.values(), ",".join(k.removesuffix("_suspect") for k, on in flag.items() if on) or "-"]
        for row, flag in zip(rows, flags)
    ))
    lines += ["", "caveats:", f"  - {VIFNC_THRESHOLD_CAVEAT}", f"  - {FLAG_CAVEAT}"]
    return "\n".join(lines) + "\n"


def render_fit(fit: FitResult, label: str, fmt: OutputFormat = OutputFormat.TEXT) -> str:
    """Render an auxiliary-regression fit summary.

    ``r2_centered`` is shown only for a fit with an intercept, i.e. for
    centered mode; it raises for a constant dependent column.
    """
    coefficients = dict(zip(fit.coefficient_names, fit.coefficients))
    scalars = {
        "rss": fit.rss,
        "tss_uncentered": fit.tss_uncentered,
        "tss_centered": fit.tss_centered,
        "ess_uncentered": fit.ess_uncentered,
        "ess_centered": fit.ess_centered,
        "r2_noncentered": r2_noncentered(fit),
    }
    if fit.intercept:
        scalars["r2_centered"] = r2_centered(fit)

    if fmt is OutputFormat.JSON:
        return _emit_json({"model": label, "coefficients": coefficients, **scalars})

    if fmt is OutputFormat.CSV:
        header = [f"coef_{name}" for name in coefficients] + list(scalars)
        return _emit_csv(header, [[*coefficients.values(), *scalars.values()]])

    lines = [f"auxiliary regression: {label}", "coefficients:"]
    lines += [f"  {name:<14} {_text(value)}" for name, value in coefficients.items()]
    lines += [f"{key:<16} {_text(value)}" for key, value in scalars.items()]
    return "\n".join(lines) + "\n"


def render_montecarlo(summary: MonteCarloSummary, fmt: OutputFormat = OutputFormat.TEXT) -> str:
    spec = summary.scenario
    run = {"kind": spec.kind, "n": spec.n, "replications": spec.replications,
           "master_seed": spec.master_seed}
    params = {"lambda": spec.lam, "noise_sd": spec.noise_sd, "base": spec.base}
    counts = {"n_success": summary.n_success, "n_failed": summary.n_failed}
    stats = {
        name: {**_fields(values, _STAT_FIELDS), "exceedance": rate}
        for name, values, rate in (
            ("vif", summary.vif_stats, summary.vif_exceedance),
            ("vifnc", summary.vifnc_stats, summary.vifnc_exceedance),
        )
    }

    if fmt is OutputFormat.JSON:
        return _emit_json({
            "scenario": {**run, **params},
            "thresholds": _thresholds(summary.thresholds),
            **counts,
            **stats,
        })

    if fmt is OutputFormat.CSV:
        cells = {**run, **counts}
        cells.update((f"{name}_{key}", v) for name, d in stats.items() for key, v in d.items())
        return _emit_csv(cells, [cells.values()])

    sizes = ", ".join(f"{key}={value}" for key, value in run.items() if key != "kind")
    lines = [f"scenario: {spec.kind} ({sizes})"]
    given = [f"{key}={_text(value)}" for key, value in params.items() if value is not None]
    if given:
        lines.append("parameters: " + ", ".join(given))
    lines += [
        f"replications: {summary.n_success} succeeded, {summary.n_failed} failed",
        f"thresholds: {_thresholds_line(summary.thresholds)}",
        "",
    ]
    columns = [("", "{:<8}")] + [(key, " {:>12}") for key in stats["vif"]]
    lines += _emit_table(columns, ([name, *d.values()] for name, d in stats.items()))
    return "\n".join(lines) + "\n"


def render_replication(entries: list[ReplicationEntry], fmt: OutputFormat = OutputFormat.TEXT) -> str:
    records = [_fields(e, _ENTRY_FIELDS) for e in entries]
    if fmt is OutputFormat.JSON:
        return _emit_json({"entries": records, "all_passed": all(e.passed for e in entries)})

    if fmt is OutputFormat.CSV:
        return _emit_csv(_ENTRY_FIELDS, (record.values() for record in records))

    columns = [("target", "{:<28}"), ("expected", " {:>12}"), ("computed", " {:>12}"),
               ("tolerance", " {:>16}"), ("result", " {:>8}")]
    lines = _emit_table(columns, (
        [e.label, e.expected, e.computed, f"{_text(e.tolerance)} {e.tolerance_kind[:3]}",
         "PASS" if e.passed else "FAIL"]
        for e in entries
    ))
    lines.append(f"{sum(e.passed for e in entries)}/{len(entries)} replication targets matched")
    return "\n".join(lines) + "\n"
