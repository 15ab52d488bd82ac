import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import mwclust

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_resolves():
    assert len(set(mwclust.__all__)) == len(mwclust.__all__)
    missing = [name for name in mwclust.__all__ if not hasattr(mwclust, name)]
    assert missing == []


def test_removed_names_are_not_exported():
    removed = ("generate", "rank_condition", "ols_fit", "fwl_residualize", "fixed_design_inference", "psd_project")
    for name in removed:
        assert name not in mwclust.__all__
        assert not hasattr(mwclust, name)
    for attr in ("third_moment", "cov", "cov_factor"):
        assert not hasattr(mwclust.MomentOracle, attr)
    assert "psd_projected" not in {f.name for f in fields(mwclust.VarianceEstimate)}
    assert "bias_term" not in {f.name for f in fields(mwclust.McReport)}


def test_cli_import_leaves_scipy_unloaded():
    # scipy is loaded on first use by the KS statistic only
    code = "import sys, mwclust.cli; assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert proc.returncode == 0, proc.stderr
