"""Tests of the benchmark's own machinery: generators, tracer arithmetic and output checks."""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

SCALE = 0.008  # 2000-row CSV, 20-replication studies, M <= 16 bounds
WORKLOADS = ("estimate-csv", "sim-studies")


def _inputs(directory: Path) -> dict:
    """Every generated file except the manifest, which names its own directory."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.name != "manifest.json"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(tmp_path, workload):
    a = gen.build(workload, 3, tmp_path / "a", scale=SCALE)
    b = gen.build(workload, 3, tmp_path / "b", scale=SCALE)
    c = gen.build(workload, 4, tmp_path / "c", scale=SCALE)
    assert _inputs(tmp_path / "a") == _inputs(tmp_path / "b")
    assert a["reference"] == b["reference"] and a["properties"] == b["properties"]
    assert _inputs(tmp_path / "a") != _inputs(tmp_path / "c")
    assert a["reference"] != c["reference"]


def test_estimate_csv_parses_back_to_the_reference_values(tmp_path):
    arr = gen.estimate_arrays(5, n=500, firms=30, markets=12)
    path = tmp_path / "data.csv"
    gen.write_estimate_csv(path, arr)
    rows = path.read_text().splitlines()
    assert rows[0] == "y,d,x1,x2,w,firm,market" and len(rows) == 501
    parsed = np.array([[float(v) for v in r.split(",")[:5]] for r in rows[1:]])
    for k, col in enumerate(("y", "d", "x1", "x2", "w")):
        assert np.array_equal(parsed[:, k], arr[col])
    assert (arr["w"] > 0).all()


def test_tracer_self_time_on_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("variance.inner", lambda: None)

    def outer_body():
        inner()
        inner()

    tracer.wrap("cli.outer", outer_body)()
    assert [s[0] for s in tracer.spans] == ["cli.outer", "variance.inner", "variance.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    # outer spans 10, its children cover 2 + 3
    assert self_times(tracer.spans) == [5.0, 2.0, 3.0]
    m = layers.round_metrics(tracer.spans, 0, 0, None)
    assert m["cli.self_s"] == 5.0
    # self times of a suffix ignore parents before the suffix
    assert self_times(tracer.spans, 1) == [2.0, 3.0]


def test_tracer_wraps_every_namespace_and_restores_them():
    import mwclust.cli  # noqa: F401
    import mwclust.clusters as clusters
    import mwclust.regression as regression
    import mwclust.variance as variance

    original = variance.cgm_raw
    tracer = Tracer()
    tracer.install()
    try:
        assert variance.cgm_raw is not original
        assert regression.cgm_raw is variance.cgm_raw
        assert clusters.NeighborhoodIndex.neighborhood.__wrapped__ is not None
        scheme = clusters.ClusterScheme.from_labels(["a", "b", "a"], [1, 1, 2])
        index = mwclust.cli.build_index(scheme)
        index.neighborhood(0)
    finally:
        tracer.uninstall()
    assert variance.cgm_raw is original and regression.cgm_raw is original
    assert not hasattr(clusters.NeighborhoodIndex.neighborhood, "__wrapped__")
    names = [s[0] for s in tracer.spans]
    assert names == ["clusters.ClusterScheme.from_labels", "clusters.build_index",
                     "clusters.NeighborhoodIndex.neighborhood"]


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, (*path, k))
    elif isinstance(obj, list):
        for k, v in enumerate(obj):
            yield from _leaves(v, (*path, k))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool) and obj != 0:
        yield path


def _perturbed(doc, path):
    out = copy.deepcopy(doc)
    node = out["results"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = node[path[-1]] * (1.0 + 1e-6)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_accept_the_report_and_reject_it_perturbed_by_1e_6(tmp_path, monkeypatch, workload):
    from mwclust.cli import main

    manifest = gen.build(workload, 11, tmp_path / "in", scale=SCALE)
    monkeypatch.chdir(tmp_path / "in")
    for op in manifest["ops"]:
        out = tmp_path / f"{op['name']}.json"
        assert main([*op["argv"], "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        reference = manifest["reference"][op["name"]]
        command = op["argv"][0]
        assert checks.check_report(command, doc, reference) == []
        paths = list(_leaves(reference))
        assert paths
        for path in paths:
            errors = checks.check_report(command, _perturbed(doc, path), reference)
            assert errors, f"{op['name']}: perturbing {path} went unnoticed"


def test_bound_without_dense_reference_is_checked_for_consistency():
    term_var = 0.37
    entry = {"M": 64, "term_third": 0.0, "term_var": term_var, "d_W_bound": term_var,
             "d_K_bound": (2.0 / np.pi) ** 0.25 * np.sqrt(term_var), "method": "analytic", "mc_se": None}
    doc = {"results": {"bounds": [entry]}}
    reference = {"bounds": [None]}
    assert checks.check_report("bound", doc, reference) == []
    for key in ("term_var", "d_W_bound", "d_K_bound"):
        perturbed = _perturbed(doc, ("bounds", 0, key))
        assert checks.check_report("bound", perturbed, reference)


def test_every_derived_metric_is_declared_in_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    derived = {*layers.INCLUSIVE, *layers.SELF, *layers.CALLS}
    assert derived <= declared
