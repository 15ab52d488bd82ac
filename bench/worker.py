"""One measured benchmark run, in a fresh process started by ``run.py``.

Runs the workload's ``mwclust.cli.main`` commands in rounds while another
round still fits in the time budget, checks every report after its round (outside the timed
region), and writes a JSON result file. With ``--trace 1`` the rounds
alternate untraced and traced, so the tracing overhead is measured in the
same process; spans are written as JSON lines when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import checks

def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _peak_rss_mb() -> float:
    """High-water resident set size of this process so far (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_round(cli, ops: list[dict], reports: Path) -> tuple[list[float], list]:
    """Call ``cli.main`` once per op; return (seconds per op, exit code or exception per op)."""
    outcomes, times = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            outcomes.append(cli.main([*op["argv"], "--out", str(reports / f"{op['name']}.json")]))
        except Exception as exc:  # a crash is a failed operation, not a failed benchmark
            outcomes.append(f"{type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
    return times, outcomes


def check_round(ops: list[dict], outcomes: list, reports: Path, reference: dict, validate) -> list[str]:
    """One error string per failed operation."""
    failures = []
    for op, outcome in zip(ops, outcomes):
        if outcome != 0:
            failures.append(f"{op['name']}: exit {outcome}")
            continue
        try:
            doc = json.loads((reports / f"{op['name']}.json").read_text(encoding="utf-8"))
            validate(doc)
        except (OSError, ValueError) as exc:
            failures.append(f"{op['name']}: invalid report: {exc}")
            continue
        errors = checks.check_report(op["argv"][0], doc, reference[op["name"]])
        if errors:
            failures.append(f"{op['name']}: " + "; ".join(errors[:3]))
    return failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--schema", type=Path, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reports", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--spans", type=Path, default=None)
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import mwclust.cli as cli
    import_s = time.perf_counter() - t0

    import jsonschema
    import layers
    from tracer import Tracer

    schema = json.loads(args.schema.read_text(encoding="utf-8"))
    validator = jsonschema.Draft7Validator(schema)

    def validate(doc):
        err = jsonschema.exceptions.best_match(validator.iter_errors(doc))
        if err is not None:
            raise ValueError(f"schema: {err.message}")

    manifest = json.loads(args.manifest.read_text(encoding="utf-8"))
    os.chdir(args.manifest.parent)  # command lines name their inputs relative to it
    ops = manifest["ops"]
    input_bytes = sum(op.get("input_bytes", 0) for op in ops)
    args.reports.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    min_rounds = 3  # for a median; in a traced run, traced rounds sit between untraced ones
    rounds = []
    start = time.perf_counter()
    longest = 0.0  # longest round so far, checks included; no round starts that would overrun
    while len(rounds) < min_rounds or time.perf_counter() - start + longest < args.seconds:
        round_start = time.perf_counter()
        traced = bool(args.trace) and len(rounds) % 2 == 1
        for op in ops:
            (args.reports / f"{op['name']}.json").unlink(missing_ok=True)
        gc.collect()
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
        try:
            op_s, outcomes = run_round(cli, ops, args.reports)
        finally:
            if traced:
                tracer.uninstall()
        failures = check_round(ops, outcomes, args.reports, manifest["reference"], validate)
        wall = sum(op_s)
        entry = {"wall_s": wall, "op_s": op_s, "traced": traced, "ops": len(ops), "failures": failures,
                 "rows": sum(op["rows"] for op in ops), "reps": sum(op["reps"] for op in ops),
                 "rss_mb": _peak_rss_mb()}
        if traced:
            built = tracer.results.pop("clusters.build_index", [])
            biggest = max(built, key=lambda ix: ix.n, default=None)
            counts = layers.index_counts(biggest) if biggest is not None else None
            del built, biggest
            entry["layers"] = layers.round_metrics(tracer.spans, first_span, input_bytes, counts)
        rounds.append(entry)
        longest = max(longest, time.perf_counter() - round_start)
        print(f"round {len(rounds)}: {wall:.3f} s{' traced' if traced else ''}"
              f"{' FAILED ' + str(failures) if failures else ''}", file=sys.stderr, flush=True)

    if tracer is not None and args.spans is not None:
        tracer.write_jsonl(args.spans)
    result = {
        "rounds": rounds,
        "import_s": import_s,
        "peak_rss_mb": _peak_rss_mb(),
        "machine": machine_record(),
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
