import csv
import hashlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from vifnc import DataMatrix, belsley, diagnostics, linalg, load_csv, montecarlo, ols, save_csv, to_csv
from vifnc.cli import main
from vifnc.replication import ReplicationEntry
from vifnc.report import OutputFormat, render_replication

from test_datasets import AWKWARD_NAMES

BELSLEY_CSV = to_csv(belsley())

NE_CONFIG = """kind = nonessential
n = 20
replications = 60
master_seed = 42
base = 1
noise_sd = 0.002
"""


@pytest.fixture()
def belsley_csv(tmp_path):
    path = tmp_path / "belsley.csv"
    path.write_text(BELSLEY_CSV, encoding="utf-8")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse JSON, rejecting the NaN/Infinity tokens RFC 8259 does not allow."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def comma_csv(tmp_path):
    """The Belsley data with X4 renamed ``X,4``."""
    path = tmp_path / "comma.csv"
    header, body = BELSLEY_CSV.split("\n", 1)
    assert header == "y,X1,X2,X3,X4"
    path.write_text('y,X1,X2,X3,"X,4"\n' + body, encoding="utf-8")
    return path


class TestDiagnose:
    def test_json_report_carries_published_values(self, belsley_csv, capsys):
        code, out, _ = run_cli(
            capsys,
            "diagnose", str(belsley_csv),
            "--dependent", "y", "--intercept", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"dataset", "model", "rows", "thresholds", "caveats"}
        rows = {row["variable"]: row for row in payload["rows"]}
        assert rows["X2"]["vif"] == pytest.approx(1.155364, rel=1e-3)
        assert rows["X2"]["vifnc"] == pytest.approx(100453.8, rel=5e-3)
        assert rows["X2"]["flags"]["nonessential_suspect"] is True
        assert payload["model"]["intercept"] is True
        assert payload["caveats"]

    def test_text_and_json_numbers_agree_to_seven_digits(self, belsley_csv, capsys):
        args = ["diagnose", str(belsley_csv), "--dependent", "y", "--regressors", "X2,X3,X4"]
        _, text_out, _ = run_cli(capsys, *args)
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        rows = {row["variable"]: row for row in json.loads(json_out)["rows"]}
        for line in text_out.splitlines():
            cells = line.split()
            if cells and cells[0] in rows:
                row = rows[cells[0]]
                for printed, key in zip(
                    cells[1:7],
                    ("mean", "vif", "vifnc", "stewart_k2", "nonessential_term", "coef_variation"),
                ):
                    assert printed == format(row[key], ".7g")

    def test_missing_file_exit_2_names_path(self, capsys):
        code, _, err = run_cli(capsys, "diagnose", "nowhere.csv", "--dependent", "y")
        assert code == 2
        assert "nowhere.csv" in err

    def test_single_regressor_usage_error(self, belsley_csv, capsys):
        code, _, err = run_cli(
            capsys, "diagnose", str(belsley_csv), "--dependent", "y", "--regressors", "X2"
        )
        assert code == 2
        assert "two regressors" in err

    def test_unknown_column_exit_2(self, belsley_csv, capsys):
        code, _, err = run_cli(capsys, "diagnose", str(belsley_csv), "--dependent", "nope")
        assert code == 2
        assert "nope" in err

    def test_duplicate_columns_exit_3(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text(
            "y,a,b,c\n" + "\n".join(f"{i},{i * 0.5},{i * 2.0},{i * 2.0}" for i in range(1, 9)),
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "diagnose", str(path), "--dependent", "y")
        assert code == 3
        assert "singular" in err

    @pytest.mark.parametrize(
        "relations, code",
        [
            ({"a2": lambda a, b: 2.0 * a, "b3": lambda a, b: 3.0 * b}, 3),  # [a, 2a, b, 3b]
            ({"c": lambda a, b: a + b}, 3),  # [a, b, a + b]
            ({"a2": lambda a, b: 2.0 * a}, 0),  # [a, b, 2a]: b's row is finite
        ],
    )
    def test_exit_3_exactly_when_no_row_is_finite(self, tmp_path, capsys, relations, code):
        rng = np.random.default_rng(21)
        a, b = rng.normal(3.0, 1.0, 30), rng.normal(-2.0, 1.0, 30)
        columns = {"y": rng.normal(size=30), "a": a, "b": b}
        columns.update((name, relation(a, b)) for name, relation in relations.items())
        path = tmp_path / "singular.csv"
        save_csv(DataMatrix.from_columns(columns), path)
        got, out, err = run_cli(
            capsys, "diagnose", str(path), "--dependent", "y", "--format", "json"
        )
        assert got == code
        assert ("singular" in err) == (code == 3)
        # the report is printed in full either way
        rows = {row["variable"]: row for row in json.loads(out)["rows"]}
        assert list(rows) == list(columns)[1:]
        infinite = {"value": None, "infinite": True}
        for name, row in rows.items():
            assert (row["vif"] == row["vifnc"] == infinite) == (name != "b" or code == 3)

    def test_csv_format(self, belsley_csv, capsys):
        code, out, _ = run_cli(
            capsys, "diagnose", str(belsley_csv), "--dependent", "y", "--format", "csv"
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[:4] == ["variable", "mean", "vif", "vifnc"]
        # default regressors skip the all-ones X1 because --intercept is on
        assert len(out.splitlines()) == 1 + 3

    def test_perfectly_collinear_rows_serialize_inf(self, tmp_path, capsys):
        rows = ["y,a,b,c"]
        for i in range(1, 11):
            a, b = float(i), float(i * i % 7)
            rows.append(f"{i * 0.3},{a},{b},{a + b}")  # c = a + b exactly
        path = tmp_path / "collinear.csv"
        path.write_text("\n".join(rows), encoding="utf-8")
        # every row lies in the relation, so the full report is printed and exits 3
        code, out, _ = run_cli(capsys, "diagnose", str(path), "--dependent", "y")
        assert code == 3
        assert " inf " in out or "inf\n" in out or "inf  " in out
        code, out, _ = run_cli(
            capsys, "diagnose", str(path), "--dependent", "y", "--format", "json"
        )
        assert code == 3
        row_c = next(r for r in json.loads(out)["rows"] if r["variable"] == "c")
        assert row_c["vifnc"] == {"value": None, "infinite": True}
        assert row_c["flags"]["essential_suspect"] is True

    def test_csv_quotes_a_name_with_a_comma(self, tmp_path, capsys):
        path = tmp_path / "comma.csv"
        header, body = BELSLEY_CSV.split("\n", 1)
        assert header == "y,X1,X2,X3,X4"
        path.write_text('y,X1,X2,X3,"X,4"\n' + body, encoding="utf-8")
        code, out, _ = run_cli(capsys, "diagnose", str(path), "--dependent", "y", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [row[0] for row in rows[1:]] == ["X2", "X3", "X,4"]
        assert {len(row) for row in rows} == {len(rows[0])}
        code, out, _ = run_cli(capsys, "aux", str(path), "--column", "X3", "--format", "csv")
        assert code == 0
        header, values = csv.reader(io.StringIO(out))
        assert "coef_X,4" in header
        assert len(values) == len(header)

    def test_regressors_take_a_name_with_a_comma_whole(self, tmp_path, capsys):
        # a token that names a column whole is that column; any other is split on commas
        path = comma_csv(tmp_path)
        cases = ((["X,4", "X2"], ["X,4", "X2"]), (["X2,X3", "X,4"], ["X2", "X3", "X,4"]))
        for tokens, variables in cases:
            code, out, err = run_cli(
                capsys, "diagnose", str(path), "--dependent", "y", "--regressors", *tokens,
                "--format", "csv",
            )
            assert (code, err) == (0, "")
            assert [row[0] for row in csv.reader(io.StringIO(out))][1:] == variables

    def test_nan_threshold_exit_2_names_it(self, belsley_csv, capsys):
        code, _, err = run_cli(
            capsys, "diagnose", str(belsley_csv), "--dependent", "y", "--vifnc-threshold", "nan"
        )
        assert code == 2
        assert "vifnc_threshold" in err

    def test_infinite_threshold_never_flags_and_stays_standard_json(self, belsley_csv, capsys):
        code, out, _ = run_cli(
            capsys,
            "diagnose", str(belsley_csv), "--dependent", "y",
            "--vifnc-threshold", "inf", "--format", "json",
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["thresholds"]["vifnc"] == {"value": None, "infinite": True}
        assert not any(row["flags"]["nonessential_suspect"] for row in payload["rows"])
        _, out, _ = run_cli(
            capsys, "diagnose", str(belsley_csv), "--dependent", "y", "--vifnc-threshold", "inf"
        )
        assert "thresholds: vif >= 10, vifnc >= inf\n" in out

    def test_negative_infinite_threshold_keeps_its_sign_in_json(self, belsley_csv, capsys):
        # argparse takes "--vifnc-threshold -inf" for two options; the "=" form passes the value
        code, out, _ = run_cli(
            capsys,
            "diagnose", str(belsley_csv), "--dependent", "y",
            "--vif-threshold", "inf", "--vifnc-threshold=-inf", "--format", "json",
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["thresholds"] == {
            "vif": {"value": None, "infinite": True},
            "vifnc": {"value": None, "infinite": True, "negative": True},
        }
        assert all(row["flags"]["nonessential_suspect"] for row in payload["rows"])

    def test_byte_order_mark_and_trailing_blank_lines(self, belsley_csv, tmp_path, capsys):
        code, plain, _ = run_cli(capsys, "diagnose", str(belsley_csv), "--dependent", "y")
        assert code == 0
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbf" + BELSLEY_CSV.encode("utf-8") + b"\n\n")
        code, out, err = run_cli(capsys, "diagnose", str(path), "--dependent", "y")
        assert (code, err) == (0, "")
        assert out == plain.replace(str(belsley_csv), str(path))

    def test_interior_blank_line_exit_2(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        lines = BELSLEY_CSV.splitlines()
        path.write_text("\n".join(lines[:5] + [""] + lines[5:]) + "\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "diagnose", str(path), "--dependent", "y")
        assert code == 2
        assert "blank line" in err and "row 6" in err

    def test_no_intercept_with_explicit_ones(self, belsley_csv, capsys):
        code, out, _ = run_cli(
            capsys,
            "diagnose", str(belsley_csv),
            "--dependent", "y", "--regressors", "X1,X2,X3", "--no-intercept",
            "--format", "json",
        )
        assert code == 0
        rows = {row["variable"]: row for row in json.loads(out)["rows"]}
        assert rows["X1"]["vif"] is None
        assert rows["X1"]["vifnc"] == pytest.approx(400031.4, rel=5e-3)


    def test_partial_duplicate_keeps_the_computable_row(self, tmp_path, capsys):
        rng = np.random.default_rng(21)
        x1, x3 = rng.normal(3.0, 1.0, 20), rng.normal(-1.0, 2.0, 20)
        path = tmp_path / "partial.csv"
        columns = {"y": rng.normal(size=20), "x1": x1, "x2": 2.0 * x1, "x3": x3}
        save_csv(DataMatrix.from_columns(columns), path)
        code, out, err = run_cli(
            capsys, "diagnose", str(path), "--dependent", "y", "--intercept", "--format", "json"
        )
        assert (code, err) == (0, "")
        rows = {row["variable"]: row for row in json.loads(out)["rows"]}
        for name in ("x1", "x2"):
            for key in ("vif", "vifnc", "stewart_k2"):
                assert rows[name][key] == {"value": None, "infinite": True}

        def rss(*columns):
            A = np.column_stack(columns)
            residual = x3 - A @ np.linalg.lstsq(A, x3, rcond=None)[0]
            return float(residual @ residual)

        centered = float(((x3 - x3.mean()) ** 2).sum())
        vif_x3 = centered / rss(np.ones(20), x1, 2.0 * x1)
        assert rows["x3"]["vif"] == pytest.approx(vif_x3, rel=1e-10)
        assert rows["x3"]["vifnc"] == pytest.approx(float(x3 @ x3) / rss(x1, 2.0 * x1), rel=1e-10)

    def test_relation_at_rounding_level_reads_inf(self, tmp_path, capsys):
        # b = 5 + 1e-8 c carries c in its last eight digits; cond(design) ~ 4e16
        rng = np.random.default_rng(4)
        a, c = rng.normal(size=20), rng.normal(size=20)
        b = 5.0 + 1e-8 * c
        columns = {"y": rng.normal(size=20), "one": np.ones(20), "a": a, "b": b, "c": c}
        path = tmp_path / "rounding.csv"
        save_csv(DataMatrix.from_columns(columns), path)
        code, out, _ = run_cli(
            capsys, "diagnose", str(path), "--dependent", "y", "--no-intercept", "--format", "json"
        )
        assert code == 0
        rows = {row["variable"]: row for row in json.loads(out)["rows"]}
        for name in ("one", "b", "c"):
            assert rows[name]["vifnc"] == {"value": None, "infinite": True}
            assert rows[name]["stewart_k2"] == {"value": None, "infinite": True}
        for key in ("vif", "vifnc", "stewart_k2"):
            assert isinstance(rows["a"][key], float) and rows["a"][key] < 2.0

    def test_column_whose_squares_overflow_exit_2_names_it(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        columns = {"y": rng.normal(size=20), "x1": rng.normal(size=20)}
        columns["x2"] = 1e200 * (1.0 + rng.normal(size=20))
        path = tmp_path / "wide.csv"
        save_csv(DataMatrix.from_columns(columns), path)
        for extra in ((), ("--no-intercept",)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, "diagnose", str(path), "--dependent", "y", *extra)
            assert (code, out) == (2, "")
            assert err.startswith("error: column 'x2' is too large") and err.count("\n") == 1


class TestReplicate:
    def test_exit_zero_and_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "replicate")
        assert code == 0
        assert "FAIL" not in out
        assert "100032.1" in out
        assert "400031.4" in out and "199921.7" in out and "200158.3" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "replicate", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert len(payload["entries"]) == 17


class TestAux:
    def test_noncentered_r2(self, belsley_csv, capsys):
        code, out, _ = run_cli(
            capsys,
            "aux", str(belsley_csv), "--column", "X3", "--regressors", "X2",
            "--mode", "noncentered",
        )
        assert code == 0
        match = re.search(r"r2_noncentered\s+(\S+)", out)
        assert match and float(match.group(1)) == pytest.approx(0.99999, abs=1e-5)
        assert "r2_centered" not in out

    def test_centered_mode_shows_both_r2(self, belsley_csv, capsys):
        code, out, _ = run_cli(
            capsys,
            "aux", str(belsley_csv), "--column", "X3", "--regressors", "X2",
            "--mode", "centered",
        )
        assert code == 0
        assert "r2_centered" in out

    def test_centered_on_constant_column_exit_2(self, belsley_csv, capsys):
        code, _, err = run_cli(
            capsys, "aux", str(belsley_csv), "--column", "X1", "--mode", "centered"
        )
        assert code == 2
        assert "constant" in err

    def test_centered_on_constant_column_with_inexact_mean_exit_2(self, tmp_path, capsys):
        # twenty copies of 0.1 do not average to exactly 0.1 in floating point
        assert float(np.full(20, 0.1).mean()) != 0.1
        rng = np.random.default_rng(3)
        path = tmp_path / "constant.csv"
        columns = {"c": np.full(20, 0.1), "a": rng.normal(size=20), "b": rng.normal(size=20)}
        save_csv(DataMatrix.from_columns(columns), path)
        code, out, err = run_cli(capsys, "aux", str(path), "--column", "c", "--mode", "centered")
        assert (code, out) == (2, "")
        assert "constant" in err

    @pytest.mark.parametrize("column", ["x2", "x1"])
    def test_column_whose_squares_overflow_exit_2_names_it(self, column, tmp_path, capsys):
        # x2 as the target or as a regressor: the diagnose line, with no warning or traceback
        rng = np.random.default_rng(5)
        columns = {"y": rng.normal(size=20), "x1": rng.normal(size=20)}
        columns["x2"] = 1e200 * (1.0 + rng.normal(size=20))
        path = tmp_path / "wide.csv"
        save_csv(DataMatrix.from_columns(columns), path)
        for mode in ("noncentered", "centered"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, "aux", str(path), "--column", column, "--mode", mode)
            assert (code, out) == (2, "")
            assert err == (
                "error: column 'x2' is too large: its sum of squares exceeds half the float64 range\n"
            )

    def test_csv_output_roundtrips_through_load_csv(self, belsley_csv, capsys):
        code, out, _ = run_cli(
            capsys,
            "aux", str(belsley_csv), "--column", "X3", "--regressors", "X2",
            "--mode", "noncentered", "--format", "csv",
        )
        assert code == 0
        assert len(out.splitlines()) == 2
        parsed = load_csv(io.StringIO(out))
        assert parsed.n == 1
        assert math.isclose(
            1.0 / (1.0 - parsed.column("r2_noncentered")[0]), 100032.1, rel_tol=5e-3
        )

    def test_regressors_take_a_name_with_a_comma_whole(self, tmp_path, capsys):
        path = comma_csv(tmp_path)
        for tokens, names in ((["X,4"], ["X,4"]), (["X,4", "X2,y"], ["X,4", "X2", "y"])):
            code, out, err = run_cli(
                capsys, "aux", str(path), "--column", "X3", "--regressors", *tokens,
                "--format", "csv",
            )
            assert (code, err) == (0, "")
            assert next(csv.reader(io.StringIO(out)))[: len(names)] == [f"coef_{n}" for n in names]
        code, _, err = run_cli(capsys, "aux", str(path), "--column", "X3", "--regressors", "X2,X,4")
        assert (code, err) == (2, "error: no column named 'X'\n")


def test_csv_renderers_quote_every_name_that_needs_it(tmp_path, capsys):
    # a lone CR too, which the csv module before Python 3.13 leaves bare under an LF terminator
    rng = np.random.default_rng(8)
    columns = {"y": rng.normal(size=30), **{name: rng.normal(size=30) for name in AWKWARD_NAMES}}
    path = tmp_path / "awkward.csv"
    save_csv(DataMatrix.from_columns(columns), path)

    def read(text):
        return list(csv.reader(io.StringIO(text, newline="")))

    code, out, _ = run_cli(capsys, "diagnose", str(path), "--dependent", "y", "--format", "csv")
    assert code == 0
    assert [row[0] for row in read(out)[1:]] == list(AWKWARD_NAMES)
    code, out, _ = run_cli(
        capsys, "aux", str(path), "--column", "y", "--mode", "centered", "--format", "csv"
    )
    assert code == 0
    assert read(out)[0][: len(columns)] == ["coef_intercept", *(f"coef_{n}" for n in AWKWARD_NAMES)]
    entries = [ReplicationEntry(name, 1.0, 1.0, 1e-6, "relative") for name in AWKWARD_NAMES]
    rows = read(render_replication(entries, OutputFormat.CSV))
    assert [row[0] for row in rows[1:]] == list(AWKWARD_NAMES)


class TestMontecarlo:
    def test_summary_has_monotone_percentiles(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(NE_CONFIG, encoding="utf-8")
        code, out, _ = run_cli(capsys, "montecarlo", str(config), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        stats = payload["vifnc"]
        assert stats["median"] <= stats["p90"] <= stats["p95"] <= stats["p99"] <= stats["max"]

    def test_same_config_byte_identical(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(NE_CONFIG, encoding="utf-8")
        _, first, _ = run_cli(capsys, "montecarlo", str(config))
        _, second, _ = run_cli(capsys, "montecarlo", str(config))
        assert first == second

    def test_zero_successes_render_null_and_na(self, tmp_path, capsys):
        # lambda * z swamps the noise: x falls under the kernel's rank cut, so every
        # replication reads x with RSS 0 and fails
        config = tmp_path / "degenerate.cfg"
        config.write_text(
            "kind = essential\nn = 20\nreplications = 5\nmaster_seed = 1\n"
            "lambda = 1e140\nnoise_sd = 0.5\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "montecarlo", str(config), "--format", "json")
        assert code == 0
        payload = strict_json(out)
        assert (payload["n_success"], payload["n_failed"]) == (0, 5)
        for name in ("vif", "vifnc"):
            assert set(payload[name].values()) == {None}
        _, out, _ = run_cli(capsys, "montecarlo", str(config), "--format", "csv")
        header, values = csv.reader(io.StringIO(out))
        cells = dict(zip(header, values))
        assert cells["n_success"] == "0"
        assert {v for k, v in cells.items() if k.startswith("vif")} == {"NA"}
        _, out, _ = run_cli(capsys, "montecarlo", str(config))
        for line in out.splitlines()[-2:]:
            assert line.split()[1:] == ["NA"] * 7

    def test_wide_statistics_stay_separate_columns(self, tmp_path, capsys):
        # VIF and VIFnc pass 1e7 here, where a 7-digit value fills its whole 12-character cell
        config = tmp_path / "tight.cfg"
        config.write_text(
            "kind = essential\nn = 20\nreplications = 20\nmaster_seed = 7\n"
            "lambda = 1\nnoise_sd = 1e-3\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "montecarlo", str(config))
        assert code == 0
        for line in out.splitlines()[-2:]:
            assert len(line.split()) == 8, line
            assert float(line.split()[-2]) >= 1e7

    def test_infinite_config_threshold_stays_standard_json(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(NE_CONFIG + "vif_threshold = inf\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "montecarlo", str(config), "--format", "json")
        assert code == 0
        payload = strict_json(out)
        assert payload["thresholds"]["vif"] == {"value": None, "infinite": True}
        assert payload["vif"]["exceedance"] == 0.0

    def test_negative_infinite_config_threshold_keeps_its_sign(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(NE_CONFIG + "vifnc_threshold = -inf\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "montecarlo", str(config), "--format", "json")
        assert code == 0
        payload = strict_json(out)
        assert payload["thresholds"]["vifnc"] == {"value": None, "infinite": True, "negative": True}
        assert payload["vifnc"]["exceedance"] == 1.0

    def test_missing_master_seed_exit_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("kind = independent\nn = 20\nreplications = 5\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "montecarlo", str(config))
        assert code == 2
        assert "master_seed" in err

    @pytest.mark.parametrize(
        "parameters, key",
        [("lambda = 1e308\nnoise_sd = 1", "lambda"), ("lambda = 1e200\nnoise_sd = 1", "lambda")],
    )
    def test_draws_too_large_for_float64_exit_2_name_the_parameter(
        self, parameters, key, tmp_path, capsys
    ):
        config = tmp_path / "wide.cfg"
        text = f"kind = essential\nn = 20\nreplications = 5\nmaster_seed = 1\n{parameters}\n"
        config.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "montecarlo", str(config))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {key} = ") and err.count("\n") == 1


# SHA-256 of `vifnc montecarlo` stdout for the shipped configs. The text
# digests come from the per-replication scalar generator, taken again once
# a space separated the table's columns (the same whitespace-split tokens).
# The JSON and CSV ones were taken again once `run_scenario` read the
# diagnostics' factor (counts and exceedances stayed, VIF moved at most
# 2.5e-16 and VIFnc 4.2e-14 relative), once the kernel read full-rank
# designs off the inverse of its factor (every value moved at most 1.4e-15
# relative), and once the factor put the ones column last (counts and
# exceedances stayed, every value moved at most 2.3e-13 relative).
CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"
MONTECARLO_GOLDENS = [
    ("essential", "text", "0afdabcc19aee8fc593b081b81caad50c27864cb0ca1ca85520ad4e68259456c"),
    ("essential", "json", "2d619bd8f8fe705ad338346a4cc5b42f5b344a1bd462f17b64d504cece05f16b"),
    ("essential", "csv", "35e93f4d581c97a2b1439560398f9cbe2ffde057eceac88168bec74d97d1b375"),
    ("independent", "text", "c413d579e6af3fdca3aaa36ccaae5682033fd6f7c1d86d0f5d4654106ea107db"),
    ("independent", "json", "0a6fc5c1ee2546985cc62c456224973558d8dcc074a975632ee147ccae18aac8"),
    ("independent", "csv", "da5b96f6dd26a0224b079f1eeae4ab1ed7fd8223a1dc72dfab35d1288b9599ed"),
    ("nonessential", "text", "049eef4e2bf5dbf2d27cf464aed3e4cd29e488ef4206ea347203c4b2be22c9a8"),
    ("nonessential", "json", "0721e6c409cb8d31e2c148fe26ec982441fbe34f2f10c2f5e45cb366947ec04c"),
    ("nonessential", "csv", "3ff05bf9965013641bc45970253ce449e129e0391f332d09f8b18c0b509759d0"),
]
# The JSON and CSV digests with the kernel's guard shut, so that every
# design takes the SVD route.
MONTECARLO_SVD_GOLDENS = [
    ("essential", "json", "1e2ee26e759e5c1e571b0aa5f8dd4e742d8baba48f1b8bed23053a35be76a289"),
    ("essential", "csv", "7689305eb89cb7e0bc72ba307663db5daba8ff653e796dda1698ed8313610c98"),
    ("independent", "json", "a10a1bf3578e588720e54f00d06394d643c093f75eddefe23a8df6c7dfd66cac"),
    ("independent", "csv", "c0c9e2af2fe47771416df91fcc71cc82586f2c9c83fee5f5101ba17f1a076594"),
    ("nonessential", "json", "bcd6d84644f940c4757068351beac1fc0f5b0ac6b879da302fa713a79d890b88"),
    ("nonessential", "csv", "6cf2e04d9f7fbd4d2c5873ff91ab711870549a44230b6a9923f96a52fed82f41"),
]
# The JSON and CSV digests pinned while the factor was R of `[1, D]`, under
# the guard open and shut. `OnesFirstFactor` reads each half as every
# diagnostic read it then, with a kernel call of its own on R's columns, and
# must still print those bytes: nothing but the factor's layout moved them.
MONTECARLO_ONES_FIRST_GOLDENS = [
    ("essential", "json", "f587e5993f8707db25975d545c970bfbb67d9714c9e2f91015c7fc3b75da2e9c"),
    ("essential", "csv", "7a819ec937694e1c6ad066c39ccd74a1bf8b6286a87c5d21ef3e5201c5dac043"),
    ("independent", "json", "01defe3a3aff8bae6b35fbddc8c22dfe68f5fbd4539c4fbe9e539f06ae832792"),
    ("independent", "csv", "6a7bc0cb9de012ba099ec84736a7a801e92e7cf050aa7725352b972e94cf2f07"),
    ("nonessential", "json", "ab5d28255aa3124e8f40aa290fb52276eb81ab5fdf5657647307d5840bfa5805"),
    ("nonessential", "csv", "9e82da1996448530dae2071c797be6c432528bc7b5e78f15dc5166cc0539152e"),
]
MONTECARLO_ONES_FIRST_SVD_GOLDENS = [
    ("essential", "json", "f57d2081f4bfc3a01755736455aca2f28d77541afa5559e282832ff5e8befa23"),
    ("essential", "csv", "94785aa0a3a9910b75e3bbfbdb8e3d95eba295ba2d85b5b6195dc63d9409a44a"),
    ("independent", "json", "854ca09b848e98cf8aa7adbaa7238c440ffc894b03159e874f4c12e830e59b1d"),
    ("independent", "csv", "818fe992275f568ab143c48b8bb3ed97ad7e80f7bb5261e2daf2506b2a922adc"),
    ("nonessential", "json", "aeaa6ec3104ada1f2f69c8bd33b527ffbf5fbef75dc6219165e7e9beb47cc7d1"),
    ("nonessential", "csv", "00386e5b5e101796fbe38369785d15308e8f20054e0230e37a82cc77bb269700"),
]


class OnesFirstFactor(diagnostics._Factor):
    """The factor as laid out before the ones column went last, for designs of one row block.

    ``r`` is R of ``[1, D]``, and a column set S is read off ``R[:, [0] + S]``
    (centered) or ``R[:, S]`` (through the origin), each with its own QR,
    back-substitution and guard. The full half of ``_halves`` on R of those
    columns is that read to the bit: its sums run in the old order below
    8 columns, and these designs have at most 6.
    """

    def __init__(self, values):
        super().__init__(values)
        ones = np.ones((*values.shape[:-1], 1))
        self.r = np.linalg.qr(np.concatenate([ones, values], axis=-1), mode="r")

    def rss(self, positions, centered):
        lead = int(centered)
        cols = self.r[..., [0] * lead + [p + 1 for p in sorted(positions)]]
        rss, rank = linalg._guarded(*linalg._halves(np.linalg.qr(cols, mode="r"))[0])
        rss = np.roll(rss, -lead, axis=-1)  # the ones column last, as `_Factor.rss` puts it
        out = rss.copy()
        out[..., np.argsort(positions, kind="stable")] = rss[..., : len(positions)]
        return out, rank


def reduced_q_solve(A, b):
    """The solver as it was before one QR of ``[A, b]`` served every rank, at full rank.

    Q and R of A, the rank off the SVD of R with unit-length columns, then an
    LU solve of ``R x = Q'b``. The aux goldens' designs are all of full rank.
    """
    Q, R = np.linalg.qr(A, mode="reduced")
    rank = linalg._scaled_spectrum(R)[-1]
    assert rank == A.shape[1]
    coef = np.linalg.solve(R, Q.T @ b)
    return linalg.LeastSquaresSolution(coef, int(rank), float(np.linalg.norm(b - A @ coef)), False)


ROUTES = ("open", "svd", "ones-first", "ones-first-svd", "reduced-q")


def golden_params(*tables):
    """Each golden of each table as a case, on the route of ``ROUTES`` its table is pinned for."""
    return [
        pytest.param(*golden, route, id="-".join(golden))
        for route, goldens in zip(ROUTES, tables)
        for golden in goldens
    ]


def take_route(monkeypatch, route):
    """Shut the kernel's guard on the SVD routes; lay the factor out as `[1, D]` on the old ones;
    refit through `reduced_q_solve` on the reduced-Q one."""
    if route.endswith("svd"):
        monkeypatch.setattr(linalg, "_INVERSE_KAPPA", 0.0)  # no condition is below 0
    if route.startswith("ones-first"):
        monkeypatch.setattr(diagnostics, "_Factor", OnesFirstFactor)
        monkeypatch.setattr(montecarlo, "_Factor", OnesFirstFactor)
    if route == "reduced-q":
        monkeypatch.setattr(ols, "solve_least_squares", reduced_q_solve)


@pytest.mark.parametrize(
    "config, fmt, digest, route",
    golden_params(
        MONTECARLO_GOLDENS,
        MONTECARLO_SVD_GOLDENS,
        MONTECARLO_ONES_FIRST_GOLDENS,
        MONTECARLO_ONES_FIRST_SVD_GOLDENS,
    ),
)
def test_shipped_config_output_is_byte_identical(config, fmt, digest, route, capsys, monkeypatch):
    take_route(monkeypatch, route)
    code, out, _ = run_cli(capsys, "montecarlo", str(CONFIG_DIR / f"{config}.cfg"), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# SHA-256 of stdout for `diagnose`, `aux` and `replicate` in every format,
# covering inf rows, NA rows and flags on both sides of a threshold. The
# inputs are written into the working directory and named relatively,
# because `diagnose` prints the path it was given. The JSON and CSV digests
# of belsley*, constant and replicate were taken again once the kernel read
# full-rank designs off the inverse of its factor (flags and verdicts
# stayed, every diagnostic moved at most 1.3e-13 relative), and with
# collinear's once the factor put the ones column last (flags and verdicts
# stayed, every diagnostic moved at most 6.7e-14 relative, 2.5e-13 with the
# guard shut). The aux JSON and CSV digests were taken again once the solver
# read every rank off one QR of `[A, b]` and its SVD (both text digests
# stayed, every printed value moved at most 9.1e-13 relative).
CLI_CASES = {
    "belsley": ["diagnose", "belsley.csv", "--dependent", "y"],
    "belsley-no-intercept": ["diagnose", "belsley.csv", "--dependent", "y", "--no-intercept"],
    "belsley-threshold": [
        "diagnose", "belsley.csv", "--dependent", "y",
        "--regressors", "X2,X3,X4", "--vif-threshold", "1.1",
    ],
    "collinear": ["diagnose", "collinear.csv", "--dependent", "y"],
    "constant": ["diagnose", "constant.csv", "--dependent", "y", "--no-intercept"],
    "aux-noncentered": ["aux", "belsley.csv", "--column", "X3", "--mode", "noncentered"],
    "aux-centered": [
        "aux", "belsley.csv", "--column", "X3", "--regressors", "X2", "X4", "--mode", "centered",
    ],
    "replicate": ["replicate"],
}
CLI_GOLDENS = [
    ("belsley", "text", "f4860e6ac3f5ed5a05f4ff71236ad3573d509f881ae662fadbaef35563092097"),
    ("belsley", "json", "3de5e0aef17127d7a83c5eb6e204fc7e63f397849a6aae7257c630508705e0c4"),
    ("belsley", "csv", "755f4ade6b46996e8f8c9b8dbf6647af5e79f777752a9a384690f7d32f56dc00"),
    ("belsley-no-intercept", "text", "7df4bc17ed8f15dad5b133c5e058618c4e2415811c77d0ae96acf8445e3f4a76"),
    ("belsley-no-intercept", "json", "adbd31729892b12f63f62416da855b73d68cac68dd6bfe002e71f7aa265fe0c6"),
    ("belsley-no-intercept", "csv", "de3f9d7555b28a1b13928a9be31d5277b8d7a6b6a603a3d342db1ab55241a1a6"),
    ("belsley-threshold", "text", "e6979810ff80ad727c7ba9fe4f0ec8a7c45f08c62ab865bae4dd2f8206591df5"),
    ("belsley-threshold", "json", "eb5339962d31cd64203d3165e3eeda0d62a9618a29d6b1e5e75d7574c711ff2f"),
    ("belsley-threshold", "csv", "4d8cfe31704bb91cc450e93662c018ba90c605e80f8c6ea5d8f857b59307ba8b"),
    ("collinear", "text", "b1b1951119d9b920d423a3229a315b8fd43d55a25acc1b4063d665d7ad39cf17"),
    ("collinear", "json", "791c27fbdd35fd1103de2241b32ba85a2e0dcefc4a1d2e4cd9584aeefdad424b"),
    ("collinear", "csv", "8525ea79f285e9d30b14094a997f9b089293a11974464125ce061332c292f918"),
    ("constant", "text", "d719faf3c7660617b3d6dbca3d5b28ba114a0f0aec06b9ce274190b948c65d44"),
    ("constant", "json", "3b88b0571b88872f1daf010f55eb6cc2c541cde01d50f144fde91bafa56d0c97"),
    ("constant", "csv", "f5f9bad6e4f4485d2b86af67dbbeac27028f9bd0577a60e422457510ca586e5c"),
    ("aux-noncentered", "text", "261ed13024f618bffc5355c41177486e14a8b3f5e8ecc58c30d34ea351508d98"),
    ("aux-noncentered", "json", "e412a754949f7cdea2fbf936747c09b674787c1d771ae2ad8a336e1d9fb57cbc"),
    ("aux-noncentered", "csv", "91ffd2ca83eb3d694ee6041a8c9541948c6e188e70289a04858a3d1bd20ab709"),
    ("aux-centered", "text", "f5b93a4053f0cfb63a039dc69d59be2370445de8ef4dc63012a023a4dd59d1f0"),
    ("aux-centered", "json", "ab386f85329e405a2b48ab570bc48d05b662a9756d9ef5caa37f7790064a9311"),
    ("aux-centered", "csv", "5083b7754079d181a0a7984a79ea766c9b3df306aa3eeebd4c01d2ab2a309382"),
    ("replicate", "text", "19f2226c0d7fb36c5ad1145056a0de2943859493e766d14ff150521b010f9e4a"),
    ("replicate", "json", "a3cfd39ebe036e795eeeac1a4cdc5414a6235894b24373667015d165d90b8e1b"),
    ("replicate", "csv", "dca0ee386f74d5e51daabc4989d30c4f3068a29f17f876a951c49b08955fbecc"),
]
# The JSON and CSV digests that moved with the inverse route, checked with
# the guard shut.
CLI_SVD_GOLDENS = [
    ("belsley", "json", "eedd5d81f9b977dfe006fe6f294e9166ae505e41d4689251a7a951d422c7723a"),
    ("belsley", "csv", "306e90cc5bc3e290523d5eb00412de08e847946d43ffa743f48d9ce26907045d"),
    ("belsley-no-intercept", "json", "ad94bac58048cfb54145decb69b153b126a02ad6434f2baf5bdf5c8778444a65"),
    ("belsley-no-intercept", "csv", "dfe35e6b56f05cd6c65b43547a48ea92c4f0e67e5296fa2758a63e63a43ff09f"),
    ("belsley-threshold", "json", "fe9ccde14a072a3a5c3e5dbb51f69025915af2641ba831fc341791c66629b8ce"),
    ("belsley-threshold", "csv", "5cda0aa8291708f31cbcc4f37af9a0def405ccb26144e140161cfba6d1cdb311"),
    ("constant", "json", "47daa1a775b00320783f6c662d75d9cf944812afc9d967387b29649d3ee103b1"),
    ("constant", "csv", "2b6d92113f4acecf23997caf46db032fee8f378b2f04add2d92d7abfc4c1fd83"),
    ("replicate", "json", "b7bdcea90b583cab75e060cde5dd4ad0120e952ce6933817f2e56e1c7d9b6fe2"),
    ("replicate", "csv", "b13c8d7b29481a9f017c5dad570f36d62228f523514c69bba00f7c2645e6a2cd"),
]
# The JSON and CSV digests pinned while the factor was R of `[1, D]` (see
# `MONTECARLO_ONES_FIRST_GOLDENS`), under the guard open and shut.
CLI_ONES_FIRST_GOLDENS = [
    ("belsley", "json", "2f898eabc64d70872108c864b8099aee121fe60775696b6badedc9837892c1ae"),
    ("belsley", "csv", "c1b10d4aec5b5e4bf2d631d2d8e933d561b86322a91e8fe2f252594d2273c5c1"),
    ("belsley-no-intercept", "json", "52e0c714804f12dc9ced8361aaa14f57b740d4ed41c1a8e657e6701d426829c8"),
    ("belsley-no-intercept", "csv", "3e707ef257d5aa1f12604dbf51683efab87739869e8651236a107f7a2dc086cb"),
    ("belsley-threshold", "json", "b11e27e973a070ed2b01354b6a201190acc680d9d4e8f05405ba8717b6e0d6cf"),
    ("belsley-threshold", "csv", "ddc1bbf5224be6d3340356ecc8473d31633f9d7061090603fdddea9f28377f43"),
    ("collinear", "json", "4fc19e172f74aaaceeac5af92483a82f7ef1fd39dd2879be9f25ea6709baaca2"),
    ("collinear", "csv", "61b256b6f1b262e2198b1cab2dc080d13635fe640223ddf6ee110fa585d95a01"),
    ("constant", "json", "064746eb7ddfa914f850ca0acf446e52eb381f193be04211d1f4e35146c75dbd"),
    ("constant", "csv", "79eac52ff18daf09570c3bed5e39dddc1e766cfae17590e232debfdd367a9f22"),
    ("replicate", "json", "0a850bc6d14d85527f97ec80e1679e761a5d750511803080d095fc667d5614f6"),
    ("replicate", "csv", "b3ca881296686ea075ba1da8e179fb13ad3dc013b42d6020d601815ef91a54b5"),
]
CLI_ONES_FIRST_SVD_GOLDENS = [
    ("belsley", "json", "fa13b8061b2d1e524b04f3f251130268bb1d5e1c79cfdfc5b95810448bfdb578"),
    ("belsley", "csv", "6aab10bb81c386b5358a249233233c9bca5d1f17e0d1aa8fde4ef7bc3aa06cad"),
    ("belsley-no-intercept", "json", "33ec0730a5ac4f2705cd5fe1a6a1037584c96bfbec4575dc7de04af187ec6be4"),
    ("belsley-no-intercept", "csv", "c17597402a748dcf0194c3f7bd702b58a85ee2b8df1c2baf0cea5d6c0d6d00ad"),
    ("belsley-threshold", "json", "1005aff8e2c1784b168d0db3e8cbdf83053dcfa53b547e3485631a147838778f"),
    ("belsley-threshold", "csv", "769e121e45a5dd4b5edf0296602d38891e93aff11edee4153e429cef3278954a"),
    ("constant", "json", "c3d415bf739bbf2be24e05084d8f91ed7778866ff351ca41b4057f2f7afa630e"),
    ("constant", "csv", "2c38419dfcd5856499b0b02e8bda11a8877a6c37848679412fe53618644174b0"),
    ("replicate", "json", "30cdc50a2eb0554130ad0767edb1a88ab201be78c26d1b9a2ca90b8b7c598c13"),
    ("replicate", "csv", "7275d6dbcb0c3e591374cdb95ae07eb1596585cc0eebecc65bde75ec6918cd29"),
]

# The aux JSON and CSV digests pinned while the solver formed Q of A and
# solved a full-rank R by LU: `reduced_q_solve` must still print them.
CLI_REDUCED_Q_GOLDENS = [
    ("aux-noncentered", "json", "03a60eda64a189ed39272f6b5c0623edabeb4bc9384787a524010e98737bac7a"),
    ("aux-noncentered", "csv", "9b93f419f58ae871fa0549f9fc99b89001c3684f64934d42a2a3a22db0c68ad7"),
    ("aux-centered", "json", "15a98d9e175334968c679a2a150c6216e4456a4dddbea7fe3ac94d0d48b60a9b"),
    ("aux-centered", "csv", "6c8af126f15745c03da265a13b7952f9cfd4eeb84be7aca98f10f93348bf9254"),
]


@pytest.fixture()
def golden_inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "belsley.csv").write_text(BELSLEY_CSV, encoding="utf-8")
    rng = np.random.default_rng(2024)
    x1, x3 = rng.normal(3.0, 1.0, 20), rng.normal(-1.0, 2.0, 20)
    columns = {"y": rng.normal(size=20), "x1": x1, "x2": 2.0 * x1, "x3": x3}
    save_csv(DataMatrix.from_columns(columns), tmp_path / "collinear.csv")
    columns = {
        "y": rng.normal(size=20),
        "a": rng.normal(2.0, 1.0, 20),
        "b": rng.normal(size=20),
        "c": np.full(20, 3.0),
    }
    save_csv(DataMatrix.from_columns(columns), tmp_path / "constant.csv")


@pytest.mark.parametrize(
    "case, fmt, digest, route",
    golden_params(
        CLI_GOLDENS,
        CLI_SVD_GOLDENS,
        CLI_ONES_FIRST_GOLDENS,
        CLI_ONES_FIRST_SVD_GOLDENS,
        CLI_REDUCED_Q_GOLDENS,
    ),
)
def test_cli_output_is_byte_identical(case, fmt, digest, route, golden_inputs, capsys, monkeypatch):
    take_route(monkeypatch, route)
    code, out, _ = run_cli(capsys, *CLI_CASES[case], "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_save_csv_roundtrip(tmp_path):
    path = tmp_path / "data.csv"
    save_csv(belsley(), path)
    assert load_csv(path).values.tolist() == belsley().values.tolist()
