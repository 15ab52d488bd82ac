import argparse
import bz2
import csv
import gzip
import io
import json
import lzma
import math
import os
import subprocess
import sys
import urllib.request
from functools import partial
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mwclust import cli
from mwclust.cli import DataError, _floats, _read_clustered, _read_table, main
from mwclust.clusters import ClusterScheme, NeighborhoodIndex
from mwclust.regression import Z_CRIT_95

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "additive_re_m10.csv"
SCHEMA = json.loads((ROOT / "schema" / "v1.json").read_text())


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_report(text):
    doc = json.loads(text)
    jsonschema.validate(doc, SCHEMA)
    return doc


def reference_read_table(path, columns):
    """The row-at-a-time ``csv.DictReader`` loop that ``_read_table`` must match.

    A column requested twice is read once (it used to be appended twice).
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: missing header row")
        for col in columns:
            if col not in reader.fieldnames:
                raise DataError(f"{path}: missing required column {col!r}")
        rows = {col: [] for col in columns}
        for lineno, row in enumerate(reader, start=2):
            for col in rows:
                val = row.get(col)
                if val is None or val == "":
                    raise DataError(f"{path}: row {lineno}: missing value in column {col!r}")
                rows[col].append(val)
    if not rows[columns[0]]:
        raise DataError(f"{path}: no data rows")
    return rows


def reference_floats(path, col, values):
    """The one-``float``-per-cell loop that ``_floats`` must match."""
    out = np.empty(len(values))
    for k, v in enumerate(values):
        try:
            out[k] = float(v)
        except ValueError:
            raise DataError(f"{path}: row {k + 2}: column {col!r}: not a number: {v!r}") from None
    if not np.isfinite(out).all():
        k = int(np.flatnonzero(~np.isfinite(out))[0])
        raise DataError(f"{path}: row {k + 2}: column {col!r}: not finite: {values[k]!r}")
    return out


def outcome(fn, *args):
    """The value ``fn`` returns, or the message of the ``DataError`` it raises."""
    try:
        return fn(*args)
    except DataError as exc:
        return f"DataError: {exc}"


# cell tokens: Python-float edge cases, non-numbers, empty cells, quoted
# fields holding the delimiter, quotes and line breaks, non-ASCII labels
CELLS = st.sampled_from(
    ["1", "-2.5", "1_0", " 1.5 ", "1e5", "nan", "inf", "abc", "", "0", "a,b",
     'say "hi"', "x\ny", "r\r\ns", "é", "3"]
)
RECORDS = st.lists(
    st.one_of(
        st.lists(CELLS, min_size=4, max_size=4),
        st.lists(CELLS, min_size=0, max_size=6),  # blank, short and long records
    ),
    max_size=8,
)
HEADERS = st.sampled_from([["y", "d", "g", "h"], ["d", "y", "h", "g", "x"], ["y", "g", "h"], ["y"]])


def clustered_outcome(path, columns, weight):
    """What ``_read_clustered`` returns for clusters ``g,h``, as bytes, or its error message."""
    args = argparse.Namespace(data=str(path), cluster="g,h", weight=weight)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            w, values, scheme = _read_clustered(args, columns)
    except DataError as exc:
        return f"DataError: {exc}"
    return (
        None if w is None else w.tobytes(),
        {c: (v.dtype.str, v.tobytes()) for c, v in values.items()},
        scheme.dims,
        [lab.tobytes() for lab in scheme.labels],
        scheme.label_values,
    )


def without_c_pass(monkeypatch, fn, *args):
    """``fn(*args)`` with the C-parser pass stepping aside, so the csv path reads every file."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_read_clean", lambda *a: None)
        return fn(*args)


def reference_line_count(path):
    """The whole-file scan that the streaming ``_line_count`` must match."""
    with open(path, "rb") as fh:
        data = fh.read()
    step = csv.field_size_limit() // 2 + 1
    if any(c in data for c in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")) or any(
        data.find(b"\n", k, k + step) < 0 for k in range(0, len(data) - step + 1, step)
    ):
        return None
    return len(data.split(b"\n")) - (data[-1:] in (b"", b"\n"))


# labels a quote-free CSV holds as one field: no delimiter, quote, line break, NUL or 0x1C-0x1F
LABEL = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n\x00\x1c\x1d\x1e\x1f'),
    min_size=1, max_size=4,
)
LABEL_LISTS = st.one_of(
    st.lists(LABEL, min_size=1, max_size=30),
    st.tuples(LABEL, st.integers(1, 30)).map(lambda t: [t[0]] * t[1]),  # single-valued
    st.lists(LABEL, min_size=1, max_size=30, unique=True),  # all distinct
)


def csv_text(header, records, lineterminator):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=lineterminator)
    writer.writerow(header)
    writer.writerows(records)
    return buf.getvalue()


class TestEstimate:
    def test_basic_run_validates_schema(self, capsys):
        code, out, _ = run_cli(
            ["estimate", "--data", str(DATA), "--y", "y", "--d", "d", "--cluster", "g,h"],
            capsys,
        )
        assert code == 0
        doc = check_report(out)
        assert doc["command"] == "estimate"
        res = doc["results"]
        assert res["n"] == 100
        # the shipped dataset was generated with a unit slope
        assert abs(res["theta_hat"] - 1.0) <= 3 * res["sigma_hat"]
        assert res["ci_95"][0] < res["theta_hat"] < res["ci_95"][1]

    def test_one_fit_and_one_score_pair_sum(self, monkeypatch, capsys):
        # one estimate fits once (one QR of the design) and sums over clusters
        # 3 times (the stacked scores, the leverage and the ratio diagnostics)
        calls = {"qr": 0, "cluster_sums": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
        monkeypatch.setattr(
            NeighborhoodIndex, "cluster_sums", counted("cluster_sums", NeighborhoodIndex.cluster_sums)
        )
        code, _, _ = run_cli(
            ["estimate", "--data", str(DATA), "--y", "y", "--d", "d", "--cluster", "g,h"], capsys
        )
        assert code == 0
        assert calls["qr"] == 1 and calls["cluster_sums"] <= 3

    @staticmethod
    def small_random_estimate(tmp_path, seed):
        """The estimate argv of a small random two-way dataset, whose estimated V may be indefinite."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 20))
        g, h = rng.integers(0, int(rng.integers(2, 5)), n), rng.integers(0, int(rng.integers(2, 8)), n)
        y, d = np.round(rng.normal(size=n), 2), np.round(rng.normal(size=n), 2)
        p = tmp_path / f"random-{seed}.csv"
        cells = zip(*(a.tolist() for a in (y, d, g, h)))
        p.write_text("y,d,g,h\n" + "".join(f"{a!r},{b!r},{c},{e}\n" for a, b, c, e in cells))
        return ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h"]

    def test_psd_project_takes_sigma_from_the_projected_matrix(self, tmp_path, capsys):
        # a design whose estimated V is indefinite with a positive (1,1) entry
        argv = self.small_random_estimate(tmp_path, 4)
        plain = check_report(run_cli(argv, capsys)[1])["results"]
        code, out, _ = run_cli([*argv, "--psd-project"], capsys)
        res = check_report(out)["results"]
        assert code == 0 and plain["sigma_sq"] > 0 and not res["negative_variance"]
        # clipping the negative eigenvalue adds |lambda| v_1^2 to the (1,1) entry, far above rounding
        assert res["sigma_sq"] == res["V_hat_diag"][0] > plain["sigma_sq"] * (1 + 1e-6)
        sigma = math.sqrt(res["sigma_sq"])
        assert res["sigma_hat"] == sigma and res["t_stat"] == res["theta_hat"] / sigma
        assert res["ci_95"] == [res["theta_hat"] - Z_CRIT_95 * sigma, res["theta_hat"] + Z_CRIT_95 * sigma]

    def test_psd_project_warnings_describe_the_reported_variance(self, tmp_path, capsys):
        # a design whose raw sigma_sq is negative and whose projected sigma_sq is positive
        negative = "estimated variance is negative; confidence interval suppressed"
        argv = self.small_random_estimate(tmp_path, 1)
        code, out, _ = run_cli(argv, capsys)
        plain = check_report(out)
        assert code == 0 and plain["results"]["sigma_sq"] < 0 and plain["results"]["ci_95"] is None
        assert plain["warnings"][0] == negative
        code, out, _ = run_cli([*argv, "--psd-project"], capsys)
        projected = check_report(out)
        assert code == 0 and projected["results"]["sigma_sq"] > 0 and projected["results"]["ci_95"]
        # the interval is reported, and no warning says it is suppressed; the diagnostics' stay
        assert projected["warnings"] == plain["warnings"][1:]

    def test_missing_column_is_data_error(self, capsys):
        code, _, err = run_cli(
            ["estimate", "--data", str(DATA), "--y", "nope", "--d", "d", "--cluster", "g,h"],
            capsys,
        )
        assert code == 2
        assert "nope" in err

    def test_missing_value_names_row(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("y,d,g,h\n1.0,2.0,0,0\n,2.0,0,1\n")
        code, _, err = run_cli(
            ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h"],
            capsys,
        )
        assert code == 2
        assert "row 3" in err and "'y'" in err

    def test_non_numeric_value_names_cell(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("y,d,g,h\n1.0,x,0,0\n2.0,2.0,0,1\n")
        code, _, err = run_cli(
            ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h"],
            capsys,
        )
        assert code == 2
        assert "'d'" in err and "row 2" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_cell(self, tmp_path, capsys, value):
        p = tmp_path / "bad.csv"
        p.write_text(f"y,d,g,h\n1.0,2.0,0,0\n{value},1.0,0,1\n3.0,0.5,1,1\n")
        code, _, err = run_cli(
            ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h"],
            capsys,
        )
        assert code == 2
        assert "row 3" in err and "'y'" in err and str(p) in err

    def test_duplicate_required_header_rejected(self, tmp_path, capsys):
        p = tmp_path / "dup.csv"
        p.write_text("y,d,g,h,y\n1.0,2.0,0,0,5.0\n2.0,1.0,1,1,6.0\n3.0,0.5,0,1,7.0\n")
        code, out, err = run_cli(
            ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == f"error: {p}: column 'y' appears more than once in the header\n"

    @pytest.mark.parametrize(
        "seed, eps, message",
        [
            (0, 1e-4, "residualized variance and sandwich (1,1) element disagree beyond tolerance"),
            (4, 1e-10, "regressor of interest has no residual variation after partialling out controls"),
        ],
    )
    def test_failed_cross_check_exit_3(self, tmp_path, capsys, seed, eps, message):
        # a control equal to d up to eps: at 1e-4 the fit passes the rank test
        # and the sandwich cross-check fails; at 1e-10 the rank test stops it
        rng = np.random.default_rng(seed)
        n = 60
        g, h = rng.integers(0, 6, n), rng.integers(0, 5, n)
        d = rng.normal(size=n)
        x = d + eps * rng.normal(size=n)
        y = d + rng.normal(size=n)
        p = tmp_path / "near_collinear.csv"
        rows = ["y,d,x,g,h"] + [
            ",".join(map(repr, r)) for r in zip(y.tolist(), d.tolist(), x.tolist(), g.tolist(), h.tolist())
        ]
        p.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(
            ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--controls", "x", "--cluster", "g,h"],
            capsys,
        )
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"

    def test_zero_clustered_variance_exit_0(self, tmp_path, capsys):
        # each G cluster's scores sum to zero: both variance routes are rounding, and they agree
        p = tmp_path / "zero_variance.csv"
        p.write_text("y,d,g,h\n1,1,a,b\n2,3,a,b\n3,2,b,c\n")
        code, out, err = run_cli(["estimate", "--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h"], capsys)
        assert (code, err) == (0, "")
        results = json.loads(out)["results"]
        assert results["theta_hat"] == pytest.approx(0.5, rel=1e-12) and abs(results["sigma_sq"]) < 1e-29

    @pytest.mark.parametrize("flags", [[], ["--dof-correction"], ["--psd-project"], ["--dof-correction", "--psd-project"]])
    def test_rounding_level_variance_withholds_the_interval(self, tmp_path, capsys, flags):
        # sigma_sq is 8e-31 against the squared scores' variance of 0.125 (the projected one, the sandwich's
        # V[0, 0], 2e-16): at most 1e-8 of it is rounding, so it is reported as a negative one is, with a
        # warning and no standard error, t or interval, whatever the dof factor or the projection
        p = tmp_path / "zero_variance.csv"
        p.write_text("y,d,g,h\n1,1,a,b\n2,3,a,b\n3,2,b,c\n")
        code, out, err = run_cli(
            ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h", *flags], capsys
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        results = doc["results"]
        assert 0 < results["sigma_sq"] < 1e-8 * 0.125
        assert (results["sigma_hat"], results["t_stat"], results["ci_95"]) == (None, None, None)
        assert results["negative_variance"] is False
        assert doc["warnings"][0] == (
            "estimated variance is within the rounding of its scores; confidence interval suppressed"
        )
        # nor are regularity ratios formed from a score pair sum that is rounding alone
        assert results["diagnostics"]["L_per_dim"] == {"g": 1.0, "h": 1.0}
        assert not any(key.startswith("ratio") for key in results["diagnostics"])
        assert doc["warnings"][1:] == [
            "leverage on dimension g is 1, above threshold 0.03333",
            "leverage on dimension h is 1, above threshold 0.03333",
            "estimated score variance is within the rounding of its scores; regularity ratios omitted",
        ]
        check_report(out)

    def test_fewer_rows_than_regressors_exit_3(self, tmp_path, capsys):
        p = tmp_path / "short.csv"
        p.write_text("y,d,g,h\n1.0,2.0,0,0\n")
        code, _, err = run_cli(
            ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h"],
            capsys,
        )
        assert code == 3
        assert "no residual variation" in err

    def test_collinear_design_exit_code(self, tmp_path, capsys):
        p = tmp_path / "collinear.csv"
        rows = ["y,d,c,g,h"]
        for i in range(12):
            rows.append(f"{float(i)},{float(i % 3)},{float(2 * (i % 3))},{i % 3},{i % 4}")
        p.write_text("\n".join(rows) + "\n")
        code, _, err = run_cli(
            [
                "estimate",
                "--data", str(p),
                "--y", "y",
                "--d", "d",
                "--controls", "c",
                "--cluster", "g,h",
            ],
            capsys,
        )
        assert code == 3
        assert "rank deficient" in err or "residual variation" in err

    def test_duplicated_control_column_exit_3(self, tmp_path, capsys):
        p = tmp_path / "dup.csv"
        rng = np.random.default_rng(5)
        rows = ["y,d,c1,c2,g,h"]
        for i in range(20):
            c = rng.normal()
            rows.append(
                ",".join([repr(rng.normal()), repr(rng.normal()), repr(c), repr(c), str(i % 4), str(i % 5)])
            )
        p.write_text("\n".join(rows) + "\n")
        code, _, err = run_cli(
            [
                "estimate",
                "--data", str(p),
                "--y", "y",
                "--d", "d",
                "--controls", "c1,c2",
                "--cluster", "g,h",
            ],
            capsys,
        )
        assert code == 3
        assert "c1" in err or "c2" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weighted_value_overflow_names_cell(self, tmp_path, capsys):
        p = tmp_path / "huge.csv"
        p.write_text("y,d,g,h,w\n1,2,a,b,1\n1e300,2,a,c,1e300\n3,1,b,b,2\n5,7,b,c,1\n")
        code, out, err = run_cli(
            ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h", "--weight", "w"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == f"error: {p}: row 3: column 'y': not finite after weighting: '1e300'\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_overflow_exit_3(self, tmp_path, capsys):
        # every weighted cell is finite, but (sum of squared residualized
        # regressor)^2 and the score cross-products are not
        p = tmp_path / "huge.csv"
        p.write_text(
            "y,d,g,h,w\n0.25,0.25,1e300,0.25,1e300\n1e300,1,2e0,1,0.25\n-0.5,1,3,2e0,1e300\n"
            "7,2e0,2e0,2e0,2e0\n-1e-300,-0.5,-1e-300,2e0,3\n3,7,-1e-300,0.25,1\n0.25,0.25,3,0.25,1e300\n"
        )
        code, out, err = run_cli(
            ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h", "--weight", "w"],
            capsys,
        )
        assert code == 3 and out == ""
        assert "overflow double precision" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "text, extra, message",
        [
            (
                "1e300,3,1,2e0,1\n7,2e0,7,1e300,1\n0.25,-0.5,1,-0.5,1\n2e0,2e0,0.25,3,1\n",
                [],
                "overflow double precision",
            ),
            ("1e300,-1e-300,0.25,7,1\n1,3,-1e-300,7,1\n", [], "overflow double precision"),
            ("1e300,2e0,0.25,-1e-300,1\n3,-1e-300,0.25,1,0.25\n", ["--weight", "w"], "overflow double precision"),
        ],
        ids=["scores", "nan-variance", "nan-variance-weighted"],
    )
    def test_overflowing_variance_exit_3(self, tmp_path, capsys, text, extra, message):
        # finite cells whose products overflow: exit 3, not a NaN or Infinity report
        p = tmp_path / "huge.csv"
        p.write_text("y,d,g,h,w\n" + text)
        code, out, err = run_cli(
            ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h", *extra], capsys
        )
        assert (code, out) == (3, "")
        assert message in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e154, 1e200, 1e300])
    def test_large_control_reports_null_rank_lambda(self, tmp_path, capsys, c):
        # X'X/n overflows in the units of the data: the run goes on, with
        # rank_lambda null and a warning naming it
        def estimate(c):
            p = tmp_path / "large.csv"
            rows = zip([1, 3, 2, 5, 4], [0.5, 2, 1, 3, 7], [1, 2, 0, 5, 3], range(5))
            p.write_text("y,d,x,g,h\n" + "".join(f"{y},{d},{x * c!r},{i % 2},{i % 3}\n" for y, d, x, i in rows))
            code, out, err = run_cli(
                ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--controls", "x", "--cluster", "g,h"],
                capsys,
            )
            assert (code, err) == (0, "")
            return check_report(out)

        base, doc = estimate(1.0), estimate(c)
        assert doc["results"]["diagnostics"]["rank_lambda"] is None
        assert [w for w in doc["warnings"] if "rank_lambda" in w] == [
            "rank_lambda unavailable: X'X/n overflows double precision in the units of the data"
        ]
        for key in ("theta_hat", "sigma_sq"):
            assert doc["results"][key] == pytest.approx(base["results"][key], rel=1e-12)

    @pytest.mark.parametrize("c", [1e12, 1e-6, 1e-8])
    def test_rescaled_regressor_keeps_the_estimate(self, tmp_path, capsys, c):
        # the rank decision is unit-free: theta_hat scales as 1/c, t is unchanged
        base = ["--y", "y", "--d", "d", "--cluster", "g,h"]
        code, out, _ = run_cli(["estimate", "--data", str(DATA), *base], capsys)
        ref = check_report(out)["results"]
        with open(DATA, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        p = tmp_path / "scaled.csv"
        with open(p, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({**row, "d": repr(float(row["d"]) * c)} for row in rows)
        code, out, err = run_cli(["estimate", "--data", str(p), *base], capsys)
        assert (code, err) == (0, "")
        res = check_report(out)["results"]
        assert res["theta_hat"] * c == pytest.approx(ref["theta_hat"], rel=1e-12)
        assert res["sigma_hat"] * c == pytest.approx(ref["sigma_hat"], rel=1e-12)
        assert res["t_stat"] == pytest.approx(ref["t_stat"], rel=1e-12)

    @pytest.mark.parametrize(
        "text, controls, message",
        [
            ("y,d,g,h\n1,2,a,b\n", [], "regressor of interest has no residual variation"),
            ("y,d,c,g,h\n1,2,4,a,b\n2,3,6,a,c\n4,1,2,b,b\n3,5,10,b,c\n", ["--controls", "c"],
             "regressor of interest has no residual variation"),
            ("y,d,c,e,g,h\n1,2,1,2,a,b\n2,3,0,0,a,c\n4,1,3,6,b,b\n3,5,2,4,b,c\n", ["--controls", "c,e"],
             "design matrix is rank deficient at column 'e'"),
        ],
        ids=["one-row", "collinear-d", "collinear-controls"],
    )
    def test_estimate_and_diagnose_agree_on_singular_input(self, tmp_path, capsys, text, controls, message):
        p = tmp_path / "singular.csv"
        p.write_text(text)
        base = ["--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h", *controls]
        estimate, diagnose = run_cli(["estimate", *base], capsys), run_cli(["diagnose", *base], capsys)
        assert estimate == diagnose
        code, out, err = estimate
        assert (code, out) == (3, "") and err.startswith(f"error: {message}")

    def test_string_cluster_labels_accepted(self, tmp_path, capsys):
        p = tmp_path / "strings.csv"
        rng = np.random.default_rng(0)
        rows = ["y,d,g,h"]
        for i in range(40):
            rows.append(
                f"{rng.normal()!r},{rng.normal()!r},site-{i % 4},wave_{i % 5}"
            )
        p.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h"],
            capsys,
        )
        assert code == 0
        check_report(out)

    def test_weight_column(self, tmp_path, capsys):
        p = tmp_path / "weighted.csv"
        rows = ["y,d,g,h,w"]
        rng = np.random.default_rng(1)
        for i in range(40):
            rows.append(
                ",".join(
                    [repr(rng.normal()), repr(rng.normal()), str(i % 4), str(i % 5), repr(rng.uniform(0.5, 2.0))]
                )
            )
        p.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h", "--weight", "w"],
            capsys,
        )
        assert code == 0
        check_report(out)


class TestIngest:
    """The columnar reader against the row-at-a-time reference loops."""

    FUZZ = settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )

    @FUZZ
    @given(
        header=HEADERS,
        records=RECORDS,
        columns=st.sampled_from([["y", "d", "g", "h"], ["g", "h"], ["h", "y", "h"], ["g", "h", "y"]]),
        lineterminator=st.sampled_from(["\n", "\r\n"]),
        raw=st.none() | st.text(alphabet='yd,"\n\r 1.5e_an', max_size=60),  # any quoting, well formed or not
    )
    def test_read_table_and_floats_match_reference(
        self, tmp_path, header, records, columns, lineterminator, raw
    ):
        p = tmp_path / "fuzz.csv"
        text = csv_text(header, records, lineterminator) if raw is None else "y,d,g,h\n" + raw
        p.write_text(text, encoding="utf-8", newline="")
        got = outcome(_read_table, str(p), columns)
        assert got == outcome(reference_read_table, str(p), columns)
        if isinstance(got, dict):
            for col in columns:
                new = outcome(_floats, str(p), col, got[col])
                ref = outcome(reference_floats, str(p), col, got[col])
                if isinstance(new, str):
                    assert new == ref
                else:
                    np.testing.assert_array_equal(new, ref)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "missing header row"),
            ("y,d,g\n1,2,3\n", "missing required column 'h'"),
            ("y,d,g,h\n\n\n", "no data rows"),
            ("y,d,g,h\n1,2,3\n", "row 2: missing value in column 'h'"),
            ("y,d,g,h\n1,2,3,4\n\n1,,3\n", "row 3: missing value in column 'd'"),
            ('y,d,g,h\n"1\n2",2,3,4,5\n,2,3,4\n', "row 3: missing value in column 'y'"),
        ],
    )
    def test_rejections_match_reference(self, tmp_path, text, message):
        p = tmp_path / "bad.csv"
        p.write_text(text, encoding="utf-8", newline="")
        columns = ["y", "d", "g", "h"]
        got = outcome(_read_table, str(p), columns)
        assert got == outcome(reference_read_table, str(p), columns) == f"DataError: {p}: {message}"

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"y,d,g,h\n1,2,a,b\n3,4,a,c\n5,\xff6,b,b\n", "line 4: not valid UTF-8"),
            (
                b"y,d,g,h\n1,2,a,b\n3,4,a," + b"x" * 140_000 + b"\n",
                "line 3: field larger than field limit (131072)",
            ),
            # the first problem in file order, though text decodes the bad byte's block first
            (b"y,d,g,h\n1,2,,b\n" + b"3,4,a,c\n" * 2000 + b"5,\xff6,b,b\n", "row 2: missing value in column 'g'"),
        ],
        ids=["undecodable", "oversized", "empty-before-undecodable"],
    )
    @pytest.mark.parametrize("command", [["estimate", "--y", "y", "--d", "d"], ["diagnose"]])
    def test_unreadable_record_names_line(self, tmp_path, capsys, content, message, command):
        p = tmp_path / "bad.csv"
        p.write_bytes(content)
        code, out, err = run_cli([*command, "--data", str(p), "--cluster", "g,h"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {p}: {message}\n"

    def test_undecodable_line_past_the_first_block(self, tmp_path, capsys):
        # text files decode in blocks; the line named is the bad byte's own
        p = tmp_path / "bad.csv"
        p.write_bytes(b"g,h\n" + b"a,b\n" * 5000 + b"a,\xe9\n" + b"a,b\n" * 5000)
        code, _, err = run_cli(["diagnose", "--data", str(p), "--cluster", "g,h"], capsys)
        assert code == 2
        assert err == f"error: {p}: line 5002: not valid UTF-8\n"

    # well-formed numeric records, extreme magnitudes included, or arbitrary cells
    FUZZ_FILES = dict(
        header=st.sampled_from([["y", "d", "g", "h"], ["h", "g", "d", "y", "w"]]),
        records=st.lists(
            st.one_of(
                st.lists(
                    st.sampled_from(["1", "-0.5", "2e0", "0.25", "3", "7", "1e300", "-1e-300"]),
                    min_size=5,
                    max_size=5,
                ),
                st.lists(CELLS, max_size=6),
            ),
            max_size=12,
        ),
    )

    @staticmethod
    def check_exit_codes(tmp_path, capsys, header, records, variants):
        p = tmp_path / "fuzz.csv"
        p.write_text(csv_text(header, records, "\n"), encoding="utf-8", newline="")
        for argv in variants:
            code = main([argv[0], "--data", str(p), "--cluster", "g,h", *argv[1:]])
            out, err = capsys.readouterr()
            assert code in (0, 2, 3)
            if code == 0:
                check_report(out)
                json.loads(out, parse_constant=pytest.fail)  # no NaN or Infinity
            else:
                assert out == "" and err.startswith("error: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @FUZZ
    @given(**FUZZ_FILES)
    def test_estimate_exit_codes_on_fuzzed_files(self, tmp_path, capsys, header, records):
        model = ["estimate", "--y", "y", "--d", "d"]
        self.check_exit_codes(
            tmp_path, capsys, header, records,
            [model, [*model, "--weight", "w"], [*model, "--weight", "w", "--controls", "w"]],
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @FUZZ
    @given(**FUZZ_FILES)
    def test_diagnose_exit_codes_on_fuzzed_files(self, tmp_path, capsys, header, records):
        model = ["diagnose", "--y", "y", "--d", "d"]
        self.check_exit_codes(
            tmp_path, capsys, header, records,
            [["diagnose"], ["diagnose", "--weight", "w"], model, [*model, "--weight", "w", "--controls", "w"]],
        )

    @FUZZ
    @given(
        header=HEADERS | FUZZ_FILES["header"],
        records=RECORDS | FUZZ_FILES["records"],
        lineterminator=st.sampled_from(["\n", "\r\n", "\r"]),
        raw=st.none() | st.text(alphabet='yd,"\n\r 1.5e_an', max_size=60),
        model=st.sampled_from([([], ""), ([], "w"), (["y", "d"], ""), (["y", "d"], "w"), (["d", "y", "w"], "w")]),
    )
    def test_c_pass_matches_csv_path(self, tmp_path, monkeypatch, header, records, lineterminator, raw, model):
        p = tmp_path / "fuzz.csv"
        text = csv_text(header, records, lineterminator) if raw is None else "y,d,g,h,w\n" + raw
        p.write_text(text, encoding="utf-8", newline="")
        columns, weight = model
        got = clustered_outcome(p, columns, weight)
        assert got == without_c_pass(monkeypatch, clustered_outcome, p, columns, weight)

    # files as csv.writer quotes them: labels holding delimiters and quotes, a column not
    # read (long enough to pass a low field size limit), quoted headers; at most one odd
    # record per file (blank, or with line breaks in a label or in the note) and sometimes
    # a header over two lines or CR line ends, so that many files stay on the C pass
    @staticmethod
    def quoted_record(label_chars, note_parts):
        return st.fixed_dictionaries({
            **dict.fromkeys(["y", "d"], st.sampled_from(["1", "-0.5", "2e0", "0.25", " 3", "7"])),
            "w": st.sampled_from(["1", "0.25", "2e0", " 3"]),
            **dict.fromkeys(["g", "h"], st.text(st.sampled_from(label_chars), min_size=1, max_size=5)),
            "note": st.lists(st.sampled_from(note_parts), max_size=45).map("".join),
        })

    @pytest.mark.parametrize("limit", [None, 40])
    @FUZZ
    @given(
        header=st.tuples(
            st.permutations(["y", "d", "g", "h", "w", "note"]), st.sampled_from(["note", "note", "note", "no\nte"])
        ).map(lambda t: [t[1] if n == "note" else n for n in t[0]]),
        records=st.lists(quoted_record('ab,"é ', ["x", ",", '"']), max_size=10),
        odd=st.tuples(
            st.one_of(st.none(), st.none(), st.just({}), quoted_record('ab\n\r"', ["x", ",", "\n", "\r\n", '"'])),
            st.integers(0, 10),
        ),
        lineterminator=st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r"]),
        quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
        model=st.sampled_from([([], ""), ([], "w"), (["y", "d"], ""), (["d", "y", "w"], "w")]),
    )
    @example(  # text mode would read the label a\rb as a\nb
        header=["y", "d", "g", "h", "w", "note"],
        records=[dict(y="1", d="2", g="a\rb", h="a", w="1", note=""), dict(y="3", d="1", g="b", h="b", w="1", note="")],
        odd=(None, 0), lineterminator="\n", quoting=csv.QUOTE_MINIMAL, model=(["y", "d"], ""),
    )
    def test_c_pass_matches_csv_path_on_quoted_files(
        self, tmp_path, monkeypatch, limit, header, records, odd, lineterminator, quoting, model
    ):
        if odd[0] is not None:
            records.insert(odd[1], odd[0])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator=lineterminator, quoting=quoting)
        writer.writerow(header)
        names = [n.replace("\n", "") for n in header]
        writer.writerows([row[n] for n in names] if row else [] for row in records)
        p = tmp_path / "quoted.csv"
        p.write_text(buf.getvalue(), encoding="utf-8", newline="")
        columns, weight = model
        old = csv.field_size_limit(limit or csv.field_size_limit())
        try:
            got = clustered_outcome(p, columns, weight)
            assert got == without_c_pass(monkeypatch, clustered_outcome, p, columns, weight)
        finally:
            csv.field_size_limit(old)

    def test_r_style_quoted_file_takes_the_c_pass(self, tmp_path, monkeypatch, capsys):
        # R's write.csv quotes the header, the row names and every string, not the numbers
        plain = tmp_path / "plain.csv"
        plain.write_text(self.CLEAN, encoding="utf-8", newline="")
        rows = list(csv.reader(io.StringIO(self.CLEAN)))
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
        writer.writerow(["", *rows[0]])
        writer.writerows([str(k), *map(float, row[:4]), *row[4:6], float(row[6])] for k, row in enumerate(rows[1:], 1))
        quoted = tmp_path / "quoted.csv"
        quoted.write_text(buf.getvalue(), encoding="utf-8", newline="")
        assert quoted.read_text().startswith('"","y","d","x","x2","g","h","w"\n"1",1.5,0.5,1.0,0.5,"f0","m0",1.0\n')
        calls = []
        read_table = cli._read_table
        monkeypatch.setattr(cli, "_read_table", lambda *a: calls.append(a) or read_table(*a))
        reports = []
        for p in (quoted, plain):
            code, out, err = run_cli(
                ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--controls", "x,x2", "--weight", "w",
                 "--cluster", "g,h"],
                capsys,
            )
            assert (code, err) == (0, "")
            reports.append(check_report(out)["results"])
        assert calls == [] and reports[0] == reports[1]

    # shaped like the benchmark's file: quote-free, string labels, a weight and two controls
    CLEAN = "\n".join([
        "y,d,x,x2,g,h,w",
        "1.5,0.5,1,0.5,f0,m0,1", "-0.25,1,0,1.5,f0,m1,2", "3,-2,2,0.5,f1,m2,0.5",
        "2,3.25,1,-1,f1,m0,1", "7.5,4,3,2,f2,m1,1.5", "0.125,0,5,0.25,f2,m2,2",
        "-4,1.5,8,1,f3,m0,1", "6,-1,0.5,3,f3,m1,0.25", "2.5,2,2,0,f4,m2,1", "1,5,1,1,f4,m0,3",
    ]) + "\n"

    @pytest.mark.parametrize(
        "edits, code",
        [
            ([], 0),
            ([(",f1,m2,", ",#f1,m2,")], 0),  # not a comment
            ([("\n2.5,", "\n#2.5,")], 2),
            ([(",f2,m1,", ',"f2\r\nx",m1,')], 0),  # quoted CRLF: one label
            ([("\n", "\r")], 0),
            ([("\n", "\r\n")], 0),
            ([("w\n", "w,note\n"), ("m2,0.5\n", "m2,0.5," + "z" * 140_000 + "\n")], 2),
            ([("\n2.5,", "\n2_5,")], 0),  # float reads 25.0, numpy refuses
            ([("\n0.125,", "\n\x1c0.125,")], 2),  # numpy strips 0x1C, float does not
            ([(",f3,m1,", ",,m1,")], 2),
            ([("\n6,", "\n1e300,"), ("m1,0.25\n", "m1,1e300\n")], 2),  # not finite after weighting
            ([("m1,0.25\n", "m1,0\n")], 2),
            ([(CLEAN.split("\n", 1)[1], "")], 2),  # the header only
            ([("\n2,3.25,", "\n   \n2,3.25,")], 2),
            ([("\n2,3.25,", "\n\n\n2,3.25,")], 0),
            ([("m2", "m2\x00")], 0),
            ([("\n7.5,", "\n7.5\n")], 2),
            ([(",f2,m2,", ",f2,m2\x00,")], 0),  # m2 and m2\0 are two clusters
            ([(",f2,m1,", ',"f2\nx",m1,')], 0),  # a record over two lines
            ([(",f2,m1,", ',"f2\rx",m1,')], 0),  # numpy would read f2\nx
            ([("w\n", 'w,"n\n1.5,0.5,1,0.5,f9,m9,1,x"\n')], 0),  # numpy would skip one line of the header
            ([("\n2.5,", '\n"' + " \n" * 70_000 + '2.5",')], 2),  # over the field size limit
            ([(",0.5,f0,m0,", ',"' + "a,\n" * 50_000 + '",f0,m0,')], 2),  # the same in a column not read
        ],
        ids=["clean", "hash-label", "hash-number", "quoted-crlf", "bare-cr", "crlf", "oversized-ignored-field",
             "underscore", "separator-0x1c", "empty-label", "weighted-overflow", "zero-weight",
             "header-only", "whitespace-row", "blank-lines", "nul-label", "short-row",
             "nul-suffix-label", "quoted-lf-label", "quoted-cr-label", "multiline-header",
             "oversized-multiline-number", "oversized-multiline-ignored-field"],
    )
    @pytest.mark.parametrize("command", [["estimate", "--y", "y", "--d", "d", "--controls", "x"], ["diagnose"]])
    def test_c_pass_hazards_match_csv_path(self, tmp_path, monkeypatch, capsys, edits, code, command):
        text = self.CLEAN
        for old, new in edits:
            text = text.replace(old, new)
        p = tmp_path / "hazard.csv"
        p.write_text(text, encoding="utf-8", newline="")
        argv = [*command, "--data", str(p), "--cluster", "g,h", "--weight", "w"]
        got = run_cli(argv, capsys)
        assert got == without_c_pass(monkeypatch, run_cli, argv, capsys)
        if command[0] == "estimate":
            assert got[0] == code

    def test_labels_differing_by_trailing_nul_are_distinct_clusters(self, tmp_path, monkeypatch, capsys):
        # G labels a, a\0, b and c; the second file renames a\0 to a2, which keeps every cluster
        rng = np.random.default_rng(5)
        rows = [(rng.normal(), rng.normal(), k % 10 == 1, "abc"[k % 10 % 3], k % 4) for k in range(40)]
        results = []
        for name in ("a\0", "a2"):
            p = tmp_path / f"{len(results)}.csv"
            text = "".join(f"{y!r},{d!r},{name if nul else g},{h}\n" for y, d, nul, g, h in rows)
            p.write_text("y,d,g,h\n" + text, encoding="utf-8", newline="")
            argv = ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h"]
            for route in (run_cli(argv, capsys), without_c_pass(monkeypatch, run_cli, argv, capsys)):
                code, out, err = route
                assert (code, err) == (0, "")
                results.append(check_report(out)["results"])
        assert all(res == results[0] for res in results)

    @pytest.mark.parametrize(
        "edit, reads",
        [((), 0), ((",m1,", ',"m1",'), 0), (("y,d,x,x2,g,h,w", '"y","d","x","x2","g","h","w"'), 0),
         (("\n2,", "\n2_0,"), 1)],
        ids=["clean", "quoted-label", "quoted-header", "underscore"],
    )
    def test_clean_file_takes_the_c_pass(self, tmp_path, monkeypatch, capsys, edit, reads):
        p = tmp_path / "bench.csv"
        p.write_text(self.CLEAN.replace(*edit) if edit else self.CLEAN, encoding="utf-8", newline="")
        calls = []
        read_table = cli._read_table
        monkeypatch.setattr(cli, "_read_table", lambda *a: calls.append(a) or read_table(*a))
        code, out, err = run_cli(
            ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--controls", "x,x2", "--weight", "w",
             "--cluster", "g,h", "--dof-correction", "--psd-project"],
            capsys,
        )
        assert (code, err, len(calls)) == (0, "", reads)
        check_report(out)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        limit=st.sampled_from([2, 3, 6, 16]),
        body=st.binary(max_size=80) | st.lists(st.sampled_from([b"x", b"\n"]), max_size=80).map(b"".join),
        edges=st.lists(st.tuples(st.integers(0, 40), st.integers(-1, 1)), max_size=12),
    )
    def test_needs_csv_streams_the_whole_file_decision(self, tmp_path, limit, body, edges):
        # blocks of limit // 2 + 1 bytes, with newlines put just before, at and just after block edges
        old = csv.field_size_limit(limit)
        try:
            step = csv.field_size_limit() // 2 + 1
            data = bytearray(body)
            for block, offset in edges:
                if 0 <= block * step + offset < len(data):
                    data[block * step + offset] = ord("\n")
            p = tmp_path / "bytes.csv"
            p.write_bytes(bytes(data))
            assert cli._line_count(str(p)) == reference_line_count(p)
        finally:
            csv.field_size_limit(old)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(labels=LABEL_LISTS.flatmap(lambda g: st.tuples(
        st.just(g), st.lists(LABEL, min_size=len(g), max_size=len(g)) | st.just(g[::-1])
    )))
    @example(labels=(["01", "1", " a ", "a", "é", "日本", " a ", "1"], ["x"] * 8))
    @example(labels=(["1.0", "1", "nan", "-0", "0", "1e3"], ["z", "Z", "ż", "z ", " z", "zz"]))
    def test_labels_coded_in_the_parse_match_np_unique(self, tmp_path, labels):
        p = tmp_path / "labels.csv"
        p.write_text("y,g,h\n" + "".join(f"1,{a},{b}\n" for a, b in zip(*labels)), encoding="utf-8", newline="")
        clean = cli._read_clean(str(p), ["y"], ["g", "h"], "")
        assert clean is not None
        scheme = clean[2]
        ref = ClusterScheme.from_labels(*labels, dims=("g", "h"))
        assert scheme.dims == ref.dims and scheme.label_values == ref.label_values
        for raw, ids, ref_ids, values in zip(labels, scheme.labels, ref.labels, scheme.label_values):
            uniq, inv = np.unique(raw, return_inverse=True)
            assert ids.dtype == np.int64 and ids.tobytes() == ref_ids.tobytes() == inv.astype(np.int64).tobytes()
            assert values == tuple(uniq.tolist())

    @pytest.mark.parametrize("stored", ["compressed", "plain"])
    @pytest.mark.parametrize(
        "suffix, compress",
        [(".gz", partial(gzip.compress, mtime=0)), (".bz2", bz2.compress), (".xz", lzma.compress),
         (".lzma", partial(lzma.compress, format=lzma.FORMAT_ALONE))],
    )
    @pytest.mark.parametrize("command", [["estimate", "--y", "y", "--d", "d", "--controls", "x"], ["diagnose"]])
    def test_compressed_suffix_is_read_as_stored(self, tmp_path, monkeypatch, capsys, stored, suffix, compress, command):
        # numpy would open a path with this suffix through a decompressor, which fails on a plain file
        # (lzma with an error that is no OSError); the csv route reads the bytes as they are stored
        text = self.CLEAN.encode()
        p = tmp_path / f"data.csv{suffix}"
        p.write_bytes(compress(text) if stored == "compressed" else text)
        argv = [*command, "--data", str(p), "--cluster", "g,h", "--weight", "w"]
        got = run_cli(argv, capsys)
        assert got == without_c_pass(monkeypatch, run_cli, argv, capsys)
        if stored == "compressed":
            assert got[:2] == (2, "") and got[2].startswith("error: ")
        else:
            assert got[0] == 0

    @pytest.mark.parametrize("command", [["estimate", "--y", "y", "--d", "d", "--controls", "x"], ["diagnose"]])
    def test_url_shaped_path_is_never_fetched(self, tmp_path, monkeypatch, capsys, command):
        # numpy fetches a path that reads as a URL, even when a local file has that name
        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **k: pytest.fail("urlopen called"))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "example.org").mkdir(parents=True)
        (tmp_path / "http:" / "example.org" / "data.csv").write_text(self.CLEAN, encoding="utf-8")
        argv = [*command, "--data", "http://example.org/data.csv", "--cluster", "g,h", "--weight", "w"]
        got = run_cli(argv, capsys)
        assert got == without_c_pass(monkeypatch, run_cli, argv, capsys)
        assert got[0] == 0


def inclusion_exclusion_scale(X, Y, g, h):
    """Diagonal of the one-way sandwiches on g, on h and on their cells, added.

    The two-way variance is their signed sum, so this is the size of the
    terms whose rounding it carries when it nearly cancels.
    """
    bread = np.linalg.inv(X.T @ X)
    scores = X * (Y - X @ (bread @ (X.T @ Y)))[:, None]
    scale = np.zeros(X.shape[1])
    for labels in (g, h, g * (h.max() + 1) + h):
        sums = np.zeros((labels.max() + 1, X.shape[1]))
        np.add.at(sums, labels, scores)
        scale += np.diag(bread @ sums.T @ sums @ bread)
    return scale


class TestInvariance:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 40), weighted=st.booleans())
    def test_estimate_ignores_row_order_and_cluster_names(self, tmp_path, capsys, seed, n, weighted):
        # rows permuted and labels renamed by a bijection, read through the CSV ingest
        rng = np.random.default_rng(seed)
        g, h = rng.integers(0, 4, n), rng.integers(0, 5, n)
        d = rng.normal(size=n) + rng.normal(size=4)[g]
        x = rng.normal(size=n)
        y = d + 0.5 * x + rng.normal(size=4)[g] + rng.normal(size=5)[h] + rng.normal(size=n)
        w = rng.uniform(0.5, 2.0, n) if weighted else np.ones(n)
        renamed_g = [f"firm {k}" for k in rng.permutation(4)]
        renamed_h = [f"m-{k * 7 % 5}x" for k in range(5)]
        p = tmp_path / "data.csv"
        argv = ["estimate", "--data", str(p), "--y", "y", "--d", "d", "--controls", "x", "--cluster", "g,h",
                *(["--weight", "w"] if weighted else [])]
        cells = list(zip(y.tolist(), d.tolist(), x.tolist(), w.tolist()))  # Python floats repr in full

        def estimate(rows, g_names, h_names):
            p.write_text("y,d,x,w,g,h\n" + "".join(
                "{!r},{!r},{!r},{!r},".format(*cells[i]) + f"{g_names[g[i]]},{h_names[h[i]]}\n" for i in rows
            ))
            code, out, err = run_cli(argv, capsys)
            return code, err, check_report(out)["results"] if code == 0 else None

        base = estimate(np.arange(n), [f"g{k}" for k in range(4)], [f"h{k}" for k in range(5)])
        moved = estimate(rng.permutation(n), renamed_g, renamed_h)
        assert base[:2] == moved[:2]
        if base[0] == 0:
            # a variance may nearly cancel; its rounding is relative to the terms it adds up
            root = np.sqrt(w)
            scale = inclusion_exclusion_scale(np.column_stack([d, np.ones(n), x]) * root[:, None], y * root, g, h)
            assert moved[2]["theta_hat"] == pytest.approx(base[2]["theta_hat"], rel=1e-12)
            assert abs(moved[2]["sigma_sq"] - base[2]["sigma_sq"]) <= 1e-12 * scale[0]
            assert (np.abs(np.subtract(moved[2]["V_hat_diag"], base[2]["V_hat_diag"])) <= 1e-12 * scale).all()


class TestSimulate:
    def test_coverage_config_round(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "dgp": {"variant": "additive-re", "M": 5},
                    "mode": "coverage",
                    "target": "mean",
                    "reps": 50,
                    "seed": 0,
                }
            )
        )
        code, out, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 0
        doc = check_report(out)
        assert doc["results"]["reps"] == 50
        assert 0.0 <= doc["results"]["coverage_95"] <= 1.0

    def test_unknown_config_key_rejected_with_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dgp": {"variant": "additive-re", "bogus": 1}}))
        code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert "dgp.bogus" in err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "dgp": {"variant": "additive-re", "M": 4},
                    "mode": "coverage",
                    "reps": 30,
                    "seed": 7,
                }
            )
        )
        outs = []
        for k in range(2):
            out = tmp_path / f"r{k}.json"
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_consistency_csv_trace(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "dgp": {"variant": "additive-re"},
                    "mode": "consistency",
                    "sweep": [3, 5],
                    "reps": 20,
                    "seed": 0,
                }
            )
        )
        code, out, _ = run_cli(
            ["simulate", "--config", str(cfg), "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "M,n,mean_var_ratio,var_ratio_sd,mc_se"
        assert len(lines) == 3

    def test_dgp_seed_is_the_default_study_seed(self, tmp_path, capsys):
        # the study's seed is --seed, else 'seed', else 'dgp.seed', else 0
        dgp = {"variant": "additive-re", "M": 3}

        def run(cfg, *argv):
            code, out, err = run_cli(["simulate", "--config", write_config(tmp_path, {**cfg, "reps": 20}), *argv], capsys)
            assert (code, err) == (0, "")
            return out

        from_dgp = run({"dgp": {**dgp, "seed": 5}})
        assert from_dgp == run({"dgp": {**dgp, "seed": 5}, "seed": 5})
        results = json.loads(from_dgp)["results"]
        assert json.loads(run({"dgp": dgp, "seed": 5}))["results"] == results
        assert json.loads(run({"dgp": {**dgp, "seed": 9}, "seed": 5}))["results"] == results
        assert json.loads(run({"dgp": {**dgp, "seed": 9}, "seed": 7}, "--seed", "5"))["results"] == results
        assert json.loads(run({"dgp": {**dgp, "seed": 9}}))["results"] != results

    def test_write_data_round_trip_full_precision(self, tmp_path, capsys):
        csv_path = tmp_path / "rep0.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "dgp": {"variant": "additive-re", "M": 6},
                    "mode": "coverage",
                    "target": "regression-theta",
                    "reps": 5,
                    "seed": 3,
                    "write_data": str(csv_path),
                }
            )
        )
        code, out, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 0
        first = json.loads(out)["results"]["first_replication"]
        code, out, _ = run_cli(
            ["estimate", "--data", str(csv_path), "--y", "y", "--d", "d", "--cluster", "g,h"],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert res["theta_hat"] == first["theta_hat"]
        assert res["sigma_hat"] == first["sigma_hat"]


class TestShippedConfigs:
    def test_triple_demo_reports_bias_minus_one(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--config", str(ROOT / "configs" / "triple_demo.json")],
            capsys,
        )
        assert code == 0
        doc = check_report(out)
        assert doc["results"]["bias_term"] == -1.0


class TestBound:
    def test_sweep(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--config", str(ROOT / "configs" / "bound_sweep.json")], capsys
        )
        assert code == 0
        doc = check_report(out)
        bounds = doc["results"]["bounds"]
        assert [b["M"] for b in bounds] == [8, 16, 32]
        dws = [b["d_W_bound"] for b in bounds]
        assert dws[0] > dws[1] > dws[2]


def write_config(tmp_path, cfg) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def assert_config_error(code, out, err, *names):
    """Exit 2, nothing on stdout, and a message naming each of ``names``."""
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and "Traceback" not in err
    for name in names:
        assert name in err, err


COVERAGE = {"dgp": {"variant": "additive-re", "M": 3}, "mode": "coverage", "reps": 5}
CONSISTENCY = {"dgp": {"variant": "additive-re"}, "mode": "consistency", "sweep": [2, 3], "reps": 5}
MC_BOUND = {"dgp": {"variant": "additive-re", "M": 3}, "method": "monte-carlo", "reps": 5}


class TestStudySettings:
    """Bad study settings exit 2 with the key or option named, never with a traceback or NaN."""

    @pytest.mark.parametrize(
        "command,cfg,reps",
        [("simulate", COVERAGE, r) for r in (0, -3, "x", 2.5, True, None)]
        + [("simulate", CONSISTENCY, r) for r in (0, 1, -3, "x")]
        + [("bound", MC_BOUND, r) for r in (0, 1, -3, "x")],
    )
    def test_bad_reps_in_config(self, tmp_path, capsys, command, cfg, reps):
        path = write_config(tmp_path, {**cfg, "reps": reps})
        assert_config_error(*run_cli([command, "--config", path], capsys), "'reps'")

    @pytest.mark.parametrize("command,cfg,reps", [("simulate", COVERAGE, "0"), ("simulate", CONSISTENCY, "1"),
                                                  ("bound", MC_BOUND, "1"), ("bound", MC_BOUND, "-2")])
    def test_bad_reps_option(self, tmp_path, capsys, command, cfg, reps):
        path = write_config(tmp_path, cfg)
        assert_config_error(*run_cli([command, "--config", path, "--reps", reps], capsys), "--reps")

    @pytest.mark.parametrize("command,cfg", [("simulate", COVERAGE), ("simulate", CONSISTENCY), ("bound", MC_BOUND)])
    def test_fewest_reps_give_strict_json(self, tmp_path, capsys, command, cfg):
        fewest = 1 if cfg is COVERAGE else 2
        code, out, err = run_cli([command, "--config", write_config(tmp_path, {**cfg, "reps": fewest})], capsys)
        assert code == 0, err
        json.loads(out, parse_constant=pytest.fail)

    @pytest.mark.parametrize("key,value", [("target", "median"), ("mode", "bootstrap"), ("seed", -1), ("seed", "x")])
    def test_bad_study_key(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, {**COVERAGE, key: value})
        assert_config_error(*run_cli(["simulate", "--config", path], capsys), f"'{key}'", repr(value))

    @pytest.mark.parametrize("sweep", [[], [0], ["x"], [2.5], 3])
    def test_bad_sweep(self, tmp_path, capsys, sweep):
        path = write_config(tmp_path, {**CONSISTENCY, "sweep": sweep})
        assert_config_error(*run_cli(["simulate", "--config", path], capsys), "error: config key 'sweep'")
        if sweep:  # an empty sweep means the design's own M in a bound
            path = write_config(tmp_path, {**MC_BOUND, "sweep": sweep})
            assert_config_error(*run_cli(["bound", "--config", path], capsys), "error: config key 'sweep'")

    def test_zero_variance_sweep(self, tmp_path, capsys):
        dgp = {"variant": "interactive-chaos", "sigma_alpha": 0.0}
        path = write_config(tmp_path, {**CONSISTENCY, "dgp": dgp})
        assert_config_error(*run_cli(["simulate", "--config", path], capsys), "'dgp'", "'sweep'", "M=2")

    def test_zero_variance_design_in_oracle_diagnose(self, tmp_path, capsys):
        cfg = {"dgp": {"variant": "additive-re", "M": 3, "sigma_alpha": 0, "sigma_gamma": 0, "sigma_eps": 0}}
        path = write_config(tmp_path, cfg)
        assert_config_error(*run_cli(["diagnose", "--config", path], capsys), "'dgp'", "zero variance")

    def test_one_observation_slope(self, tmp_path, capsys):
        path = write_config(tmp_path, {**COVERAGE, "dgp": {"variant": "additive-re", "M": 1}, "target": "regression-theta"})
        assert_config_error(*run_cli(["simulate", "--config", path], capsys), "'dgp'")

    @pytest.mark.parametrize(
        "cfg,names",
        [
            ({"dgp": json.loads((ROOT / "configs" / "diagnose_chaos.json").read_text())["dgp"], "method": "analytic"},
             ["'method'", "Gaussian"]),
            ({**MC_BOUND, "method": "exact"}, ["'method'", "'exact'"]),
            ({"dgp": {"variant": "additive-re", "sigma_alpha": 0, "sigma_gamma": 0, "sigma_eps": 0}, "method": "analytic"},
             ["'dgp'", "zero variance"]),
            ({**MC_BOUND, "dgp": {"variant": "iid-conservative", "sigma_eps": 0}}, ["'dgp'", "zero variance"]),
        ],
    )
    def test_bound_errors(self, tmp_path, capsys, cfg, names):
        assert_config_error(*run_cli(["bound", "--config", write_config(tmp_path, cfg)], capsys), *names)

    @pytest.mark.parametrize("key,value", [("M", 2.5), ("M", True), ("cell_size", "2"), ("seed", -1),
                                           ("sigma_eps", float("nan")), ("sigma_eps", float("inf"))])
    def test_bad_dgp_value(self, tmp_path, capsys, key, value):
        for command, cfg in (("simulate", COVERAGE), ("bound", MC_BOUND)):
            path = write_config(tmp_path, {**cfg, "dgp": {**cfg["dgp"], key: value}})
            assert_config_error(*run_cli([command, "--config", path], capsys), "invalid dgp spec", key)


    @pytest.mark.parametrize("value", ["no", 1, None, float("nan")], ids=["no", "1", "null", "NaN"])
    @pytest.mark.parametrize("key", ["hetero_alpha", "hetero_gamma", "hetero_eps", "triple_one_way"])
    def test_dgp_flag_must_be_true_or_false(self, tmp_path, capsys, key, value):
        for command, cfg in (("simulate", COVERAGE), ("bound", MC_BOUND), ("diagnose", ORACLE_DIAGNOSE)):
            path = write_config(tmp_path, {**cfg, "dgp": {**cfg["dgp"], key: value}})
            assert_config_error(*run_cli([command, "--config", path], capsys), f"dgp.{key}", repr(value))


ANALYTIC_BOUND = {"dgp": MC_BOUND["dgp"], "method": "analytic"}
ORACLE_DIAGNOSE = {"dgp": {"variant": "additive-re", "M": 3}}


class TestHugeScales:
    """Finite but huge dgp scales exit 0, 2 naming 'dgp', or 3 naming the report value; no NaN, Infinity or traceback.

    A bound is computed for x / sigma, so it exits 0 whenever the design's variance is finite.
    """

    @pytest.mark.parametrize(
        "command,cfg,scale,expected,names",
        [
            ("simulate", COVERAGE, 1e200, 2, ["'dgp'", "overflows"]),
            ("simulate", {**COVERAGE, "target": "regression-theta"}, 1e200, 2, ["'dgp'", "overflows"]),
            ("simulate", CONSISTENCY, 1e200, 2, ["'dgp'", "'sweep'", "M=2", "finite"]),
            ("simulate", {**CONSISTENCY, "format": "csv"}, 1e200, 2, ["'dgp'", "'sweep'", "M=2"]),
            ("diagnose", ORACLE_DIAGNOSE, 1e200, 2, ["'dgp'", "overflows"]),
            *(("bound", cfg, scale, 0, []) if scale < 1e200 else ("bound", cfg, scale, 2, ["'dgp'", "overflows"])
              for cfg in (MC_BOUND, ANALYTIC_BOUND) for scale in (1e120, 1e150, 1e200, 1e300)),
            ("bound", MC_BOUND, 1e40, 0, []),
            ("bound", ANALYTIC_BOUND, 1e100, 0, []),
        ],
    )
    def test_exit_code_and_strict_output(self, tmp_path, capsys, command, cfg, scale, expected, names):
        cfg = {**cfg, "dgp": {**cfg["dgp"], "sigma_eps": scale}}
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)], capsys)
        if expected == 0:
            assert (code, err) == (0, "")
            json.loads(out, parse_constant=pytest.fail)  # no NaN or Infinity
            return
        assert (code, out) == (expected, ""), err
        assert err.startswith("error: ") and "Traceback" not in err
        for name in names:
            assert name in err, err

    def test_report_writer_names_the_first_non_finite_key_path(self):
        bounds = [{"term_var": 1.0, "mc_se": None}, {"term_var": float("-inf"), "mc_se": float("nan")}]
        with pytest.raises(FloatingPointError, match=r"^report value results\.bounds\[1\]\.mc_se is not finite"):
            cli._report("bound", {}, {"bounds": bounds}, [])
        with pytest.raises(FloatingPointError, match=r"results\.V_hat_diag\[2\] is not finite"):
            cli._report("estimate", {}, {"V_hat_diag": np.array([1.0, 0.0, np.inf])}, [])

    def test_csv_writer_names_the_key_path(self):
        trace = [{"M": 2, "n": 4, "mean_var_ratio": 1.0, "var_ratio_sd": 0.5, "mc_se": 0.1},
                 {"M": 3, "n": 9, "mean_var_ratio": float("nan"), "var_ratio_sd": float("inf"), "mc_se": 0.1}]
        with pytest.raises(FloatingPointError, match=r"results\.trace\[1\]\.mean_var_ratio is not finite"):
            cli._trace_csv(trace)


class TestScaleFreeBounds:
    """A bound is a ratio: one factor c on every dgp sigma exits 0 and leaves each bound field within 1e-12."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        variant=st.sampled_from(["additive-re", "iid-conservative"]),
        method=st.sampled_from(["analytic", "monte-carlo"]),
        M=st.integers(1, 3),
        sigmas=st.tuples(*[st.floats(0.1, 10.0)] * 3),
        hetero=st.tuples(*[st.booleans()] * 3),
        exponent=st.floats(-100.0, 100.0),
    )
    def test_fields_do_not_depend_on_a_common_scale(self, tmp_path, capsys, variant, method, M, sigmas, hetero, exponent):
        effects = ("alpha", "gamma", "eps")
        dgp = {"variant": variant, "M": M, "seed": 4, **{f"hetero_{k}": v for k, v in zip(effects, hetero)}}
        settings = {"method": method}
        if method == "monte-carlo":
            dgp["dist_alpha"] = "centered-exponential"
            settings["reps"] = 20
        bounds = []
        for c in (1.0, 10.0**exponent):
            cfg = {"dgp": {**dgp, **{f"sigma_{k}": s * c for k, s in zip(effects, sigmas)}}, **settings}
            code, out, err = run_cli(["bound", "--config", write_config(tmp_path, cfg)], capsys)
            assert (code, err) == (0, "")
            bounds.append(json.loads(out, parse_constant=pytest.fail)["results"]["bounds"][0])
        unit, scaled = bounds
        for key in ("term_third", "term_var", "d_W_bound", "d_K_bound", "mc_se"):
            if unit[key] is None:
                assert scaled[key] is None
            else:
                assert abs(scaled[key] - unit[key]) <= 1e-12 * abs(unit[key]), key


class TestOutputSettings:
    """Bad output keys and unwritable paths exit 2 naming the key or the path, never with a traceback."""

    @pytest.mark.parametrize(
        "command,cfg,key,value",
        [
            ("simulate", CONSISTENCY, "demean", "no"),
            ("simulate", CONSISTENCY, "demean", 1),
            ("simulate", CONSISTENCY, "format", "xml"),
            ("simulate", CONSISTENCY, "out", 7),
            ("simulate", COVERAGE, "write_data", 5),
            ("simulate", {**COVERAGE, "target": "regression-theta"}, "write_data", 5),
            ("bound", MC_BOUND, "out", 7),
            ("bound", MC_BOUND, "format", "xml"),
            ("diagnose", ORACLE_DIAGNOSE, "out", 7),
            ("diagnose", ORACLE_DIAGNOSE, "format", "xml"),
        ],
    )
    def test_bad_output_key(self, tmp_path, capsys, command, cfg, key, value):
        # no bound or diagnose config reads 'format', so there it is an unknown key, whatever its value
        unknown = key == "format" and command != "simulate"
        names = [f"unknown key '{key}'"] if unknown else [f"config key '{key}'", repr(value)]
        path = write_config(tmp_path, {**cfg, key: value})
        assert_config_error(*run_cli([command, "--config", path], capsys), *names)

    @pytest.mark.parametrize("command,cfg", [("simulate", COVERAGE), ("bound", MC_BOUND), ("diagnose", ORACLE_DIAGNOSE)])
    def test_csv_only_for_the_consistency_trace(self, tmp_path, capsys, command, cfg):
        # the consistency mode alone reads 'format'; a bound or diagnose config knows no such key
        path = write_config(tmp_path, {**cfg, "format": "csv"})
        refused = "key 'format' is read only in mode 'consistency', not in 'coverage'"
        assert_config_error(*run_cli([command, "--config", path], capsys),
                            refused if command == "simulate" else "unknown key 'format'")

    @pytest.mark.parametrize("where", ["option", "out", "write_data"])
    @pytest.mark.parametrize("missing", ["no/such/dir/r.txt", "."])
    def test_unwritable_simulate_path(self, tmp_path, capsys, where, missing):
        target = str(tmp_path / missing)
        cfg = {**COVERAGE, "target": "regression-theta"}
        argv = ["--out", target] if where == "option" else []
        if where != "option":
            cfg[where] = target
        path = write_config(tmp_path, cfg)
        assert_config_error(*run_cli(["simulate", "--config", path, *argv], capsys), f"cannot write {target}")

    @pytest.mark.parametrize("missing", ["no/such/dir/r.json", "."])
    def test_unwritable_estimate_out(self, tmp_path, capsys, missing):
        target = str(tmp_path / missing)
        argv = ["estimate", "--data", str(DATA), "--y", "y", "--d", "d", "--cluster", "g,h", "--out", target]
        assert_config_error(*run_cli(argv, capsys), f"cannot write {target}")


MODEL = ["--y", "y", "--d", "d"]
# (argv, config text or None for no file, what the message names); "{tmp}" is the test's directory
ERROR_EXITS = [
    *(
        pytest.param([command, "--config", "{tmp}/cfg.json"], text, message, id=f"{command}-{case}")
        for command in ("simulate", "bound", "diagnose")
        for case, text, message in (
            ("missing-config", None, "cannot read config {tmp}/cfg.json"),
            ("invalid-json", "{", "config {tmp}/cfg.json is not valid JSON"),
            ("top-level-array", "[]", "config {tmp}/cfg.json: top level must be an object"),
            ("dgp-not-an-object", '{"dgp": 3}', "config {tmp}/cfg.json: 'dgp' must be an object"),
            ("no-dgp", "{}", "config {tmp}/cfg.json: missing required key 'dgp'"),
            ("invalid-dgp", '{"dgp": {"variant": "x"}}', "config {tmp}/cfg.json: invalid dgp spec"),
        )
    ),
    pytest.param(["estimate", "--data", "{tmp}/no.csv", *MODEL, "--cluster", "g,h"], None, "cannot read {tmp}/no.csv",
                 id="estimate-missing-data"),
    pytest.param(["diagnose", "--data", "{tmp}/no.csv", "--cluster", "g,h"], None, "cannot read {tmp}/no.csv",
                 id="diagnose-missing-data"),
    pytest.param(["estimate", "--data", str(DATA), *MODEL, "--cluster", "g"], None, "--cluster", id="estimate-one-cluster"),
    pytest.param(["diagnose", "--data", str(DATA), "--cluster", "g"], None, "--cluster", id="diagnose-one-cluster"),
    pytest.param(["simulate", "--config", "{tmp}/cfg.json"], json.dumps({**COVERAGE, "write_data": "{tmp}/rep.csv"}),
                 "config key 'write_data' requires target 'regression-theta'", id="write-data-mean-target"),
    # a key or option that the config's mode does not read, named with the mode that does
    *(
        pytest.param(["simulate", "--config", "{tmp}/cfg.json"], json.dumps({**COVERAGE, key: value}),
                     f"config {{tmp}}/cfg.json: key '{key}' is read only in mode 'consistency', not in 'coverage'",
                     id=f"coverage-{key}")
        for key, value in (("sweep", [2, 3]), ("demean", False), ("format", "json"))
    ),
    *(
        pytest.param(["simulate", "--config", "{tmp}/cfg.json"], json.dumps({**CONSISTENCY, key: value}),
                     f"config {{tmp}}/cfg.json: key '{key}' is read only in mode 'coverage', not in 'consistency'",
                     id=f"consistency-{key}")
        for key, value in (("target", "mean"), ("write_data", "{tmp}/rep.csv"))
    ),
    pytest.param(["simulate", "--config", "{tmp}/cfg.json", "--format", "json"], json.dumps(COVERAGE),
                 "option --format is read only in mode 'consistency', not in 'coverage'", id="coverage-format-option"),
    pytest.param(["bound", "--config", "{tmp}/cfg.json"], json.dumps({**ANALYTIC_BOUND, "reps": 5}),
                 "config {tmp}/cfg.json: key 'reps' is read only in method 'monte-carlo', not in 'analytic'",
                 id="analytic-reps"),
    pytest.param(["bound", "--config", "{tmp}/cfg.json", "--reps", "5"], json.dumps(ANALYTIC_BOUND),
                 "option --reps is read only in method 'monte-carlo', not in 'analytic'", id="analytic-reps-option"),
    *(
        pytest.param([command, "--config", "{tmp}/cfg.json"], json.dumps({**cfg, "format": "json"}),
                     "config {tmp}/cfg.json: unknown key 'format'", id=f"{command}-format")
        for command, cfg in (("bound", MC_BOUND), ("diagnose", ORACLE_DIAGNOSE))
    ),
    # the data options, even a weight column that the file lacks, are not read beside a config
    *(
        pytest.param(["diagnose", "--config", "{tmp}/cfg.json", f"--{option}", value], json.dumps(ORACLE_DIAGNOSE),
                     f"option --{option} is not read with --config", id=f"diagnose-config-{option}")
        for option, value in (("data", str(DATA)), ("cluster", "g,h"), ("y", "y"), ("d", "d"), ("controls", "x1"),
                              ("weight", "no_such_column"))
    ),
]


class TestErrorExits:
    """An error found before any work runs exits 2 with one ``error:`` line naming the file or the key."""

    @pytest.mark.parametrize("argv, config, message", ERROR_EXITS)
    def test_exit_2_names_the_file_or_key(self, tmp_path, capsys, monkeypatch, argv, config, message):
        for study in ("run_coverage", "run_consistency", "wasserstein_bound", "assumption_ratios"):
            monkeypatch.setattr(cli, study, lambda *a, **k: pytest.fail("study ran"))
        if config is not None:
            (tmp_path / "cfg.json").write_text(config.replace("{tmp}", str(tmp_path)))
        code, out, err = run_cli([arg.replace("{tmp}", str(tmp_path)) for arg in argv], capsys)
        assert_config_error(code, out, err, message.replace("{tmp}", str(tmp_path)))
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if config is None else ["cfg.json"])


def optional(strategy):
    """A value drawn from ``strategy``, or None for a key left out."""
    return st.none() | strategy


# valid study settings, of which at most one is then replaced by a bad value
STUDY_VALUES = dict(
    mode=optional(st.sampled_from(["coverage", "consistency"])),
    target=optional(st.sampled_from(["mean", "regression-theta"])),
    reps=st.integers(1, 5),
    method=optional(st.sampled_from(["analytic", "monte-carlo"])),
    sweep=optional(st.sampled_from([[1, 2], [3], [2, 1, 3], []])),
    dgp=st.fixed_dictionaries(
        {"variant": st.sampled_from(["additive-re", "iid-conservative", "interactive-chaos", "nonzero-mean-triple"])},
        optional={
            "M": st.integers(1, 3),
            "cell_size": st.integers(1, 2),
            **{key: st.sampled_from(["gaussian", "centered-exponential", "rademacher"])
               for key in ("dist_alpha", "dist_gamma", "dist_eps")},
            **{key: st.sampled_from([0.0, 0.5, 1, 2.0, 1e100, 1e120, 1e150, 1e200, 1e300])
               for key in ("sigma_alpha", "sigma_gamma", "sigma_eps")},
            **{key: st.booleans() for key in ("hetero_alpha", "hetero_gamma", "hetero_eps", "triple_one_way")},
            "seed": st.integers(0, 2**64 - 1),
        },
    ),
)
BAD_VALUES = optional(st.sampled_from([
    ("reps", 0), ("reps", -3), ("reps", "x"), ("reps", 2.5), ("reps", True),
    ("mode", "bootstrap"), ("mode", 1), ("target", "median"), ("target", None), ("method", "exact"),
    ("sweep", [0]), ("sweep", ["x"]), ("sweep", [1.5]), ("sweep", 2), ("sweep", "12"),
    ("dgp.variant", "x"), ("dgp.M", 0), ("dgp.M", 2.5), ("dgp.M", "3"), ("dgp.M", True), ("dgp.cell_size", 1.5),
    ("dgp.dist_alpha", "cauchy"), ("dgp.sigma_alpha", -1.0), ("dgp.sigma_alpha", float("nan")),
    ("dgp.sigma_gamma", float("inf")), ("dgp.sigma_eps", None), ("dgp.sigma_eps", "1"),
    ("dgp.seed", -1), ("dgp.seed", 2**64), ("dgp.seed", 2.5), ("dgp.hetero_eps", "no"),
    ("demean", "no"), ("format", "xml"), ("out", 7), ("write_data", 5),
]))


class TestStudyFuzz:
    """Random ``simulate`` and ``bound`` configs exit 0 with a strict JSON report, or exit 2 or 3 with a message."""

    @staticmethod
    def check(tmp_path, capsys, command, cfg, bad, reps_option):
        cfg = {k: v for k, v in cfg.items() if v is not None}
        if bad is not None:
            key, value = bad
            (cfg["dgp"] if key.startswith("dgp.") else cfg)[key.removeprefix("dgp.")] = value
        argv = [command, "--config", write_config(tmp_path, cfg)]
        if reps_option is not None:
            argv += ["--reps", str(reps_option)]
        code, out, err = run_cli(argv, capsys)
        assert code in (0, 2, 3), err
        if code == 0:
            check_report(out)
            json.loads(out, parse_constant=pytest.fail)  # no NaN or Infinity
        else:
            assert out == "" and err.startswith("error: ")

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(**{k: STUDY_VALUES[k] for k in ("mode", "target", "reps", "sweep", "dgp")},
           seed=optional(st.sampled_from([0, 3, -1, "x"])), bad=BAD_VALUES,
           reps_option=optional(st.sampled_from([0, 1, 2, 4])))
    def test_simulate(self, tmp_path, capsys, mode, target, reps, sweep, dgp, seed, bad, reps_option):
        # the keys the drawn mode reads; a bad value may still fall on a key it does not
        read = {"sweep": sweep} if mode == "consistency" else {"target": target}
        cfg = {"dgp": dgp, "mode": mode, "reps": reps, "seed": seed, **read}
        self.check(tmp_path, capsys, "simulate", cfg, bad, reps_option)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(**{k: STUDY_VALUES[k] for k in ("method", "reps", "sweep", "dgp")}, bad=BAD_VALUES,
           reps_option=optional(st.sampled_from([0, 1, 2, 4])))
    def test_bound(self, tmp_path, capsys, method, reps, sweep, dgp, bad, reps_option):
        # the analytic bound reads neither 'reps' nor --reps
        replicated = method != "analytic"
        cfg = {"dgp": dgp, "method": method, "reps": reps if replicated else None, "sweep": sweep}
        self.check(tmp_path, capsys, "bound", cfg, bad, reps_option if replicated else None)


class TestDiagnose:
    def test_oracle_mode_chaos_ratio(self, capsys):
        code, out, _ = run_cli(
            ["diagnose", "--config", str(ROOT / "configs" / "diagnose_chaos.json")],
            capsys,
        )
        assert code == 0
        doc = check_report(out)
        assert doc["results"]["ratio_23_upper"]["G"] == 20.0

    def test_data_mode_singletons(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        rows = ["g,h"] + [f"{i},{i}" for i in range(30)]
        p.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            ["diagnose", "--data", str(p), "--cluster", "g,h"], capsys
        )
        assert code == 0
        doc = check_report(out)
        assert doc["results"]["L_per_dim"]["g"] == pytest.approx(1.0 / 30.0)

    @pytest.mark.parametrize("weight", ["0", "-1"])
    @pytest.mark.parametrize("model", [[], ["--y", "y", "--d", "d"]])
    def test_nonpositive_weight_rejected(self, tmp_path, capsys, weight, model):
        p = tmp_path / "w.csv"
        rows = ["y,d,g,h,w"] + [f"{i % 3}.5,{i % 5}.0,{i % 3},{i % 4},1.0" for i in range(11)]
        rows.append(f"1.0,2.0,0,1,{weight}")
        p.write_text("\n".join(rows) + "\n")
        code, _, err = run_cli(
            ["diagnose", "--data", str(p), "--cluster", "g,h", "--weight", "w", *model], capsys
        )
        assert code == 2
        assert "row 13" in err and "'w'" in err

    def test_no_residual_variation_exit_3(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text("y,d,g,h\n1,2,a,b\n")
        base = ["--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h"]
        code, out, err = run_cli(["diagnose", *base], capsys)
        assert (code, out) == (3, "")
        assert err == "error: regressor of interest has no residual variation after partialling out controls\n"
        assert run_cli(["estimate", *base], capsys)[0] == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_residual_ssd_exit_3(self, tmp_path, capsys):
        # d varies hugely; its sum of squares overflows, which is not "no residual variation"
        p = tmp_path / "huge.csv"
        p.write_text("y,d,g,h\n1,1e300,a,b\n2,-1e300,a,c\n3,2e300,b,b\n4,5,b,c\n")
        code, out, err = run_cli(
            ["diagnose", "--data", str(p), "--y", "y", "--d", "d", "--cluster", "g,h"], capsys
        )
        assert (code, out) == (3, "")
        assert "overflows double precision" in err and "residual variation" not in err

    def test_column_requested_twice_is_read_once(self, capsys):
        code, out, _ = run_cli(["diagnose", "--data", str(DATA), "--cluster", "g,g"], capsys)
        assert code == 0
        assert check_report(out)["results"]["n"] == 100

    def test_requires_some_input(self, capsys):
        code, _, err = run_cli(["diagnose"], capsys)
        assert code == 2

    def test_regressor_requires_outcome(self, monkeypatch, capsys):
        # named before the file is read
        monkeypatch.setattr(cli, "_read_clustered", lambda *a: pytest.fail("file read"))
        code, out, err = run_cli(["diagnose", "--data", str(DATA), "--cluster", "g,h", "--d", "d"], capsys)
        assert (code, out, err) == (2, "", "error: diagnose --d requires --y, the outcome column\n")

    @pytest.mark.parametrize("model", [["--y", "y"], ["--controls", "x1"], ["--y", "y", "--controls", "x1"]])
    def test_outcome_or_controls_require_regressor(self, monkeypatch, capsys, model):
        # they would change L_per_dim, so they are not dropped in silence; named before the file is read
        monkeypatch.setattr(cli, "_read_clustered", lambda *a: pytest.fail("file read"))
        code, out, err = run_cli(["diagnose", "--data", str(DATA), "--cluster", "g,h", *model], capsys)
        flag = model[0]
        assert (code, out, err) == (2, "", f"error: diagnose {flag} requires --d, the regressor-of-interest column\n")

    def test_echo_holds_the_model(self, capsys):
        data = ROOT / "data" / "firm_market_n400.csv"
        base = ["diagnose", "--data", str(data), "--cluster", "firm,market"]
        plain = check_report(run_cli(base, capsys)[1])
        model = check_report(run_cli([*base, "--y", "y", "--d", "d", "--controls", "x1"], capsys)[1])
        assert plain["config_echo"] == {
            "data": str(data), "y": "", "d": "", "controls": "", "cluster": "firm,market", "weight": "",
        }
        assert model["config_echo"] == {**plain["config_echo"], "y": "y", "d": "d", "controls": "x1"}
        assert model["results"]["L_per_dim"] != plain["results"]["L_per_dim"]


class TestConsoleEntry:
    def test_module_invocation(self):
        # the child imports the package from this checkout, installed or not
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mwclust.cli", "diagnose"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 2
