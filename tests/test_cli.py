import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mwclust import cli
from mwclust.cli import DataError, _floats, _read_clustered, _read_table, main
from mwclust.clusters import NeighborhoodIndex

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
        ],
        ids=["undecodable", "oversized"],
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
        ],
        ids=["clean", "hash-label", "hash-number", "quoted-crlf", "bare-cr", "crlf", "oversized-ignored-field",
             "underscore", "separator-0x1c", "empty-label", "weighted-overflow", "zero-weight",
             "header-only", "whitespace-row", "blank-lines", "nul-label", "short-row"],
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

    @pytest.mark.parametrize(
        "edit, reads",
        [((), 0), ((",m1,", ',"m1",'), 1), (("\n2,", "\n2_0,"), 1)],
        ids=["clean", "quoted-label", "underscore"],
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
