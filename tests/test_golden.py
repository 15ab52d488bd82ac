"""The reports of the shipped configs and dataset, byte for byte.

Each case runs ``mwclust.cli.main`` in-process from the repository root, so
the paths it echoes are the relative ones below, and compares stdout, stderr
and the exit code with ``tests/golden/<case>.out``, ``<case>.err`` and
``exit_codes.json``. After an intended change of output, regenerate the
files with ``PYTHONPATH=src python tests/test_golden.py`` and name the
change in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from mwclust.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DATA = ["--data", "data/additive_re_m10.csv", "--cluster", "g,h"]
MODEL = ["--y", "y", "--d", "d"]
# 400 rows from bench/gen.py's estimate_arrays(5, n=400, firms=40, markets=12):
# weighted, with two controls and string labels, as the benchmark's estimate
WEIGHTED = [
    "--data", "data/firm_market_n400.csv", *MODEL, "--controls", "x1,x2", "--weight", "w",
    "--cluster", "firm,market",
]
# the same file with the header and both label columns quoted, as R's write.csv writes them
QUOTED = [*WEIGHTED[:1], "data/firm_market_n400_quoted.csv", *WEIGHTED[2:]]

CASES = {
    **{
        f"{command}-{config.stem}": [command, "--config", f"configs/{config.name}"]
        for config in sorted((ROOT / "configs").glob("*.json"))
        for command in ("simulate", "bound", "diagnose")
    },
    "estimate": ["estimate", *MODEL, *DATA],
    "estimate-psd-project": ["estimate", *MODEL, *DATA, "--psd-project"],
    "estimate-dof-correction-psd-project": ["estimate", *MODEL, *DATA, "--dof-correction", "--psd-project"],
    "diagnose-data": ["diagnose", *MODEL, *DATA],
    "estimate-weighted-controls": ["estimate", *WEIGHTED],
    "estimate-weighted-controls-dof-correction-psd-project": [
        "estimate", *WEIGHTED, "--dof-correction", "--psd-project",
    ],
    "estimate-weighted-controls-quoted": ["estimate", *QUOTED],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(CASES[case])
    out, err = capsys.readouterr()
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[case]
    assert out.encode() == (GOLDEN / f"{case}.out").read_bytes()
    assert err.encode() == (GOLDEN / f"{case}.err").read_bytes()


if __name__ == "__main__":
    import contextlib
    import io
    import os

    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case, argv in sorted(CASES.items()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes[case] = main(argv)
        (GOLDEN / f"{case}.out").write_bytes(out.getvalue().encode())
        (GOLDEN / f"{case}.err").write_bytes(err.getvalue().encode())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
