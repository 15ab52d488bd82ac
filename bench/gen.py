"""Seeded input generators for the benchmark workloads.

Every input is a pure function of ``(workload, seed)``. Generation runs in
the parent benchmark process, before any timed region, and its outputs are
cached on disk per (workload, seed) together with their independent
reference values (see ``checks.py``), so a repeated seed skips both.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

# estimate-csv: the applied user's dataset. At 2.5e5 rows a round takes about
# 2-3 s on a 2-vCPU shared VM, so a run's median is taken over some 15 rounds;
# a 1e6-row round took 10-14 s there, and the median of the 4 that fit in a
# run followed the host's speed, which drifted by 30% within a minute.
ESTIMATE_ROWS = 250_000
ESTIMATE_FIRMS = 5_000
ESTIMATE_MARKETS = 500
ZIPF_EXPONENT = 1.0
# every float is written as k / 10**6 with integer k, so "%.6f" text parses
# back to exactly the value the reference used
QUANTUM = 1e6

# sim-studies: the methodologist's replication studies, bounds and oracle diagnostics
COVERAGE_MEAN_M = 48
COVERAGE_MEAN_REPS = 1000
COVERAGE_THETA_M = 32
COVERAGE_THETA_REPS = 500
CONSISTENCY_SWEEP = (8, 16, 32, 64)
CONSISTENCY_REPS = 250

ANALYTIC_SWEEP = (8, 16, 32, 64)
MC_BOUND_M = 16
MC_BOUND_REPS = 2000
DIAGNOSE_M = 48

CACHE_KEEP = 3  # cached seeds kept per workload
_SOURCES = ("gen.py", "checks.py")


@dataclass
class Inputs:
    """Paths and metadata for one prepared (workload, seed)."""

    directory: Path
    manifest: dict
    generated: bool

    @property
    def properties(self) -> dict:
        return self.manifest["properties"]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, stream]))


def _quantize(x: np.ndarray) -> np.ndarray:
    return np.rint(x * QUANTUM) / QUANTUM


def zipf_sizes(n: int, count: int, exponent: float) -> np.ndarray:
    """Deterministic cluster sizes proportional to rank**-exponent, summing to n."""
    w = np.arange(1, count + 1, dtype=float) ** -exponent
    sizes = np.floor(n * w / w.sum()).astype(np.int64)
    sizes[: n - int(sizes.sum())] += 1
    return sizes[sizes > 0]


def estimate_arrays(
    seed: int,
    n: int = ESTIMATE_ROWS,
    firms: int = ESTIMATE_FIRMS,
    markets: int = ESTIMATE_MARKETS,
) -> dict:
    """Columns of the estimate-csv dataset.

    Firm sizes follow a fixed Zipf law, so the structure is nearly the same
    for every seed; the seed shuffles rows, firm names and market draws and
    sets every numeric value.
    """
    sizes = zipf_sizes(n, firms, ZIPF_EXPONENT)
    firm = np.repeat(np.arange(sizes.size), sizes)
    rng = _rng(seed, 0)
    firm = firm[rng.permutation(n)]
    p = 1.0 / (np.arange(markets) + 50.0)
    market = rng.choice(markets, size=n, p=p / p.sum())
    firm_ids = rng.permutation(10 * sizes.size)[: sizes.size]
    market_ids = rng.permutation(10 * markets)[:markets]
    a, a_d = rng.standard_normal((2, sizes.size))
    b, b_d = rng.standard_normal((2, markets))
    x1 = rng.standard_normal(n) + 0.3 * a[firm]
    x2 = rng.uniform(-1.0, 1.0, n)
    d = 0.5 * (a_d[firm] + b_d[market]) + rng.standard_normal(n) + 0.2 * x1
    eps = rng.standard_normal(n) * (1.0 + 0.5 * np.abs(x2))
    y = 1.0 * d + 0.5 + 0.3 * x1 - 0.2 * x2 + 0.5 * (a[firm] + b[market]) + eps
    w = np.exp(rng.uniform(-0.7, 0.7, n))
    return {
        "y": _quantize(y),
        "d": _quantize(d),
        "x1": _quantize(x1),
        "x2": _quantize(x2),
        "w": _quantize(w),
        "firm": firm,
        "market": market,
        "firm_names": [f"firm-{k:06d}" for k in firm_ids.tolist()],
        "market_names": [f"mkt-{k:04d}" for k in market_ids.tolist()],
    }


def write_estimate_csv(path: Path, arr: dict, chunk: int = 100_000) -> None:
    """Write the dataset in chunks of joined rows.

    Values go through ``tolist()``: Python floats format as plain numbers,
    whereas numpy 2 scalars would print as ``np.float64(...)``.
    """
    fnames = np.asarray(arr["firm_names"], dtype=object)
    mnames = np.asarray(arr["market_names"], dtype=object)
    fmt = "%.6f,%.6f,%.6f,%.6f,%.6f,%s,%s".__mod__
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("y,d,x1,x2,w,firm,market\n")
        for lo in range(0, arr["y"].size, chunk):
            part = slice(lo, lo + chunk)
            cols = [arr[c][part].tolist() for c in ("y", "d", "x1", "x2", "w")]
            cols += [fnames[arr["firm"][part]].tolist(), mnames[arr["market"][part]].tolist()]
            fh.write("\n".join(map(fmt, zip(*cols))) + "\n")


def structure_properties(g: np.ndarray, h: np.ndarray) -> dict:
    """n, clusters per dimension, cells, sum and max of N_i, from dense labels."""
    cg = np.bincount(g)
    ch = np.bincount(h)
    cell = g.astype(np.int64) * (int(h.max()) + 1) + h
    _, inv, cc = np.unique(cell, return_inverse=True, return_counts=True)
    N = cg[g] + ch[h] - cc[inv]
    return {
        "n": int(g.size),
        "clusters": [int((cg > 0).sum()), int((ch > 0).sum())],
        "cells": int(cc.size),
        "sum_N": int(N.sum()),
        "max_N": int(N.max()),
    }


def grid_properties(M: int) -> dict:
    g = np.repeat(np.arange(M), M)
    h = np.tile(np.arange(M), M)
    return structure_properties(g, h)


def _scales(rng: np.random.Generator) -> dict:
    s = np.round(rng.uniform(0.5, 2.0, 3), 2).tolist()
    return {"sigma_alpha": s[0], "sigma_gamma": s[1], "sigma_eps": s[2]}


def _reps(base: int, scale: float) -> int:
    return max(20, int(base * scale))


def sim_configs(seed: int, scale: float = 1.0) -> list[tuple[str, str, dict]]:
    """(name, subcommand, config) for the coverage (mean and slope) and consistency studies."""
    rng = _rng(seed, 1)
    hetero = {"hetero_alpha": True, "hetero_gamma": True, "hetero_eps": True}
    return [
        ("coverage-mean", "simulate", {
            "dgp": {"variant": "additive-re", "M": COVERAGE_MEAN_M, **hetero, **_scales(rng)},
            "mode": "coverage", "target": "mean",
            "reps": _reps(COVERAGE_MEAN_REPS, scale), "seed": int(rng.integers(1 << 30)),
        }),
        ("coverage-theta", "simulate", {
            "dgp": {"variant": "additive-re", "M": COVERAGE_THETA_M, **hetero, **_scales(rng)},
            "mode": "coverage", "target": "regression-theta",
            "reps": _reps(COVERAGE_THETA_REPS, scale), "seed": int(rng.integers(1 << 30)),
        }),
        ("consistency", "simulate", {
            "dgp": {"variant": "additive-re", **hetero, **_scales(rng)},
            "mode": "consistency", "sweep": list(CONSISTENCY_SWEEP),
            "reps": _reps(CONSISTENCY_REPS, scale), "seed": int(rng.integers(1 << 30)),
        }),
    ]


def bound_configs(seed: int, scale: float = 1.0) -> list[tuple[str, str, dict]]:
    """(name, subcommand, config) for the analytic and Monte Carlo bounds and oracle diagnostics."""
    rng = _rng(seed, 2)
    hetero = {"hetero_alpha": True, "hetero_gamma": True, "hetero_eps": True}
    sweep = [M for M in ANALYTIC_SWEEP if scale >= 1.0 or M <= 16]
    return [
        ("bound-analytic", "bound", {
            "dgp": {"variant": "additive-re", **hetero, **_scales(rng)},
            "method": "analytic", "sweep": sweep,
        }),
        ("bound-mc", "bound", {
            "dgp": {
                "variant": "additive-re", "M": MC_BOUND_M, **hetero, **_scales(rng),
                "dist_alpha": "centered-exponential", "dist_gamma": "rademacher",
                "dist_eps": "centered-exponential", "seed": int(rng.integers(1 << 30)),
            },
            "method": "monte-carlo", "reps": _reps(MC_BOUND_REPS, scale),
        }),
        ("diagnose-oracle", "diagnose", {
            "dgp": {
                "variant": "interactive-chaos", "M": DIAGNOSE_M,
                "hetero_alpha": True, "hetero_gamma": True, **_scales(rng),
            },
        }),
    ]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def build(workload: str, seed: int, directory: Path, scale: float = 1.0) -> dict:
    """Write the inputs of one workload into ``directory``; return its manifest.

    Command lines name their files relative to ``directory``, where the
    worker runs them. ``scale`` < 1 shrinks every size, for the benchmark's
    own tests.
    """
    directory.mkdir(parents=True, exist_ok=True)
    ops: list[dict] = []
    props: dict = {}
    reference: dict = {}
    if workload == "estimate-csv":
        n = max(200, int(ESTIMATE_ROWS * scale))
        markets = min(ESTIMATE_MARKETS, max(10, int(ESTIMATE_MARKETS * 20 * scale)))
        arr = estimate_arrays(seed, n=n, firms=max(20, int(ESTIMATE_FIRMS * scale)), markets=markets)
        write_estimate_csv(directory / "data.csv", arr)
        argv = [
            "estimate", "--data", "data.csv", "--y", "y", "--d", "d",
            "--controls", "x1,x2", "--weight", "w", "--cluster", "firm,market",
            "--dof-correction", "--psd-project",
        ]
        ops.append({"name": "estimate", "argv": argv, "rows": n, "reps": 0,
                    "input_bytes": (directory / "data.csv").stat().st_size})
        props["estimate"] = structure_properties(arr["firm"], arr["market"])
        reference["estimate"] = checks.reference_estimate(arr)
    elif workload == "sim-studies":
        for name, command, cfg in [*sim_configs(seed, scale), *bound_configs(seed, scale)]:
            _write_json(directory / f"{name}.json", cfg)
            sweep = cfg.get("sweep") or [cfg["dgp"]["M"]]
            replicated = command == "simulate" or cfg.get("method") == "monte-carlo"
            ops.append({"name": name, "argv": [command, "--config", f"{name}.json"], "rows": 0,
                        "reps": cfg["reps"] * len(sweep) if replicated else 0})
            props[name] = grid_properties(max(sweep))
            if command == "simulate":
                reference[name] = checks.reference_simulate(cfg)
            elif command == "bound":
                reference[name] = checks.reference_bound(cfg)
            else:
                reference[name] = checks.reference_diagnose(cfg)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "scale": scale,
                "ops": ops, "properties": props, "reference": reference}
    _write_json(directory / "manifest.json", manifest)
    return manifest


def _source_digest() -> str:
    here = Path(__file__).resolve().parent
    h = hashlib.sha256()
    for name in _SOURCES:
        h.update((here / name).read_bytes())
    return h.hexdigest()[:16]


def prepare(workload: str, seed: int, cache_root: Path) -> tuple[Inputs, float]:
    """Inputs for (workload, seed), generated on a cache miss. Returns (inputs, seconds spent)."""
    t0 = time.perf_counter()
    base = cache_root / workload
    target = base / f"seed-{seed}-{_source_digest()}"
    manifest_path = target / "manifest.json"
    generated = not manifest_path.exists()
    if generated:
        tmp = base / f".tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        build(workload, seed, tmp)
        _flush(tmp)
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
        _evict(base, keep=target)
    os.utime(target)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    return Inputs(target, manifest, generated), time.perf_counter() - t0


def _flush(directory: Path) -> None:
    """Write the new files to disk now, so their write-back does not fall in a timed round."""
    for path in directory.iterdir():
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())


def _evict(base: Path, keep: Path) -> None:
    entries = sorted(
        (p for p in base.iterdir() if p.is_dir() and p.name.startswith("seed-") and p != keep),
        key=lambda p: p.stat().st_mtime,
    )
    for p in entries[: max(0, len(entries) - (CACHE_KEEP - 1))]:
        shutil.rmtree(p, ignore_errors=True)
