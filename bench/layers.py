"""Per-layer metrics derived from the spans of one traced round.

The metric names and units are declared in ``BENCHMARK.json``.

Function timings are inclusive span time, except the ``regression``
functions and the ``<layer>.self_s`` totals, which are self time (span minus
child spans). Metrics whose name ends in ``_computed`` are derived from
array shapes, not measured.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import self_times

# per_layer metric -> span whose inclusive time it reports
INCLUSIVE = {
    "clusters.from_labels_s": "clusters.ClusterScheme.from_labels",
    "clusters.build_index_s": "clusters.build_index",
    "variance.cgm_raw_s": "variance.cgm_raw",
    "variance.cgm_demeaned_s": "variance.cgm_demeaned",
    "variance.smallest_eigenvalue_s": "variance.smallest_eigenvalue",
    "diagnostics.assumption_ratios_s": "diagnostics.assumption_ratios",
    "diagnostics.rank_condition_s": "diagnostics.rank_condition",
    "diagnostics.leverage_L_s": "diagnostics.leverage_L",
    "dgp.draw_s": "dgp.draw",
    "dgp.structure_s": "dgp.structure",
    "dgp.true_bias_term_s": "dgp.true_bias_term",
    "stein.analytic_s": "stein._analytic",
    "stein.monte_carlo_s": "stein._monte_carlo",
}
SELF = {
    "regression.theta_inference_s": "regression.theta_inference",
    "regression.fixed_design_inference_s": "regression.fixed_design_inference",
    "regression.ols_fit_s": "regression.ols_fit",
    "regression.fwl_residualize_s": "regression.fwl_residualize",
}
CALLS = {
    "clusters.build_index_calls": "clusters.build_index",
    "clusters.neighborhood_calls": "clusters.NeighborhoodIndex.neighborhood",
    "variance.cgm_raw_calls": "variance.cgm_raw",
    "regression.fixed_design_inference_calls": "regression.fixed_design_inference",
    "dgp.draw_calls": "dgp.draw",
}
# n-by-n float64/int64 arrays the analytic bound materializes: the two
# meshgrid index arrays of the adjacency, B, C and the product BC
DENSE_ARRAYS_PER_ANALYTIC = 5


def round_metrics(spans: list[list], start: int, input_bytes: int, index_counts: dict | None) -> dict:
    """Per-layer values of one round whose spans begin at ``spans[start]``.

    A metric whose source never ran in the round is left out (absent), except
    call counts, which are reported as counted.
    """
    own = spans[start:]
    selfs = self_times(spans, start)
    incl: dict[str, float] = defaultdict(float)
    excl: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    for s, st in zip(own, selfs):
        incl[s[0]] += s[2] - s[1]
        excl[s[0]] += st
        calls[s[0]] += 1
        layer_self[s[0].split(".", 1)[0]] += st
    out: dict[str, float] = {}
    for metric, name in INCLUSIVE.items():
        if calls[name]:
            out[metric] = incl[name]
    for metric, name in SELF.items():
        if calls[name]:
            out[metric] = excl[name]
    for metric, name in CALLS.items():
        out[metric] = calls[name]
    for layer in ("cli", "harness"):
        if layer_self[layer]:
            out[f"{layer}.self_s"] = layer_self[layer]
    ingest = incl["cli._read_table"] + incl["cli._floats"]
    if input_bytes and ingest > 0:
        out["cli.input_mb"] = input_bytes / 1e6
        out["cli.ingest_mb_per_s"] = input_bytes / 1e6 / ingest
    if index_counts:
        out.update(index_counts)

    cgm = [s for s in own if s[0] == "variance.cgm_raw"]
    if cgm:
        out["variance.cgm_raw_us_per_call"] = incl["variance.cgm_raw"] / len(cgm) * 1e6
        out["variance.bytes_computed"] = sum(8 * n * K for n, K in (s[4] for s in cgm))
        for K in (1, 4):
            if any(s[4][1] == K for s in cgm):
                out[f"variance.cgm_raw_K{K}_s"] = sum(s[2] - s[1] for s in cgm if s[4][1] == K)
    if calls["dgp.draw"]:
        out["dgp.draw_us_per_call"] = incl["dgp.draw"] / calls["dgp.draw"] * 1e6
    reps = sum(s[4] for s in own if s[0] in ("harness.run_coverage", "harness.run_consistency"))
    if reps:
        study = incl["harness.run_coverage"] + incl["harness.run_consistency"]
        out["harness.reps"] = reps
        out["harness.us_per_rep"] = study / reps * 1e6
    sizes = [s[4] for s in own if s[0] == "stein._analytic"]
    if sizes:
        out["stein.dense_mb_computed"] = sum(DENSE_ARRAYS_PER_ANALYTIC * 8 * n * n for n in sizes) / 1e6
        out["stein.flops_computed"] = sum(2 * n**3 for n in sizes)
    return out


def index_counts(index) -> dict:
    """Structure counts of a built index; ``dependent_pairs`` is the sum of N_i."""
    return {
        "clusters.n": int(index.n),
        "clusters.n_cells": int(index.n_cells),
        "clusters.dependent_pairs": int(index.neighborhood_sizes().sum()),
    }
