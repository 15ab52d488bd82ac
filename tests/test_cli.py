import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from mwclust.cli import main

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

    def test_requires_some_input(self, capsys):
        code, _, err = run_cli(["diagnose"], capsys)
        assert code == 2


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mwclust.cli", "diagnose"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
