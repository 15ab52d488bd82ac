"""mwclust benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload estimate-csv --seed 1 --seconds 40 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``. Inputs are
generated from the seed (and cached per workload and seed under
``.bench_cache/``), the set-up time of a fresh interpreter is sampled, and one
worker process runs the workload through ``mwclust.cli.main`` for the given
number of seconds, checking every report against an independent reference.
A summary goes to stdout; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Run records and, with
``--trace 1``, the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = ROOT / ".bench_cache"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """Environment for every child: the checkout's sources and one BLAS thread.

    With a BLAS thread per CPU, a product waits for its slowest thread: on a
    2-vCPU shared VM, the median round of sim-studies moved by 10-18% from
    one run to the next with two threads, and by 2-3% with one.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(dict.fromkeys(BLAS_VARS, "1"))
    return env


def measure_setup(env: dict, samples: int) -> list[float]:
    """Seconds from starting a fresh interpreter until ``mwclust.cli`` is imported.

    The wait blocks until the child exits; a wait with a timeout polls every
    50 ms and would round each sample up to the next poll. A watchdog kills a
    child that hangs.
    """
    cmd = [sys.executable, "-c", "import mwclust.cli"]
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times


def _median(values):
    """Median, or None for no values; a median of counts stays a count."""
    if not values:
        return None
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def end_to_end(spec: dict, rounds: list, setup: list) -> dict:
    """End-to-end metrics of the untraced rounds; prints them with the derived rates."""
    walls = [r["wall_s"] for r in rounds]
    wall = statistics.median(walls)
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    values = {
        "wall_s": (wall, f"median of {len(walls)} rounds, range {min(walls):.4f}-{max(walls):.4f}"),
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters"),
        # later rounds only add allocator fragmentation, which varies from run to run
        "peak_rss_mb": (rounds[0]["rss_mb"], "ru_maxrss of the worker after its first round"),
    }
    for m in spec["end_to_end"]:
        value, note = values[m["name"]]
        print(f"  {m['name']:<14} {value:>14.6g} {m['unit']:<5} {note}")
    # rates over a fixed amount of work per round; wall_s carries the same information
    print(f"  {'fail_rate':<14} {failed / attempted:>14.6g} {'1':<5} {failed} of {attempted} operations")
    if rounds[0]["rows"]:
        print(f"  {'rows_per_s':<14} {rounds[0]['rows'] / wall:>14.6g} {'1/s':<5} {rounds[0]['rows']} rows")
    if rounds[0]["reps"]:
        print(f"  {'reps_per_s':<14} {rounds[0]['reps'] / wall:>14.6g} {'1/s':<5} "
              f"{rounds[0]['reps']} replications per round")
    return {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}


def per_layer(spec: dict, rounds: list) -> dict:
    """Median over traced rounds of each per-layer metric.

    A metric the workload never exercises is printed as absent; the JSON line
    must carry every declared metric, so there it reads 0.
    """
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    overhead = _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] for r in plain])
    metrics, absent = {}, []
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            value = overhead
        else:
            value = _median([r["layers"][name] for r in traced if name in r["layers"]])
        if value is None:
            absent.append(name)
        metrics[name] = {"value": value or 0, "unit": m["unit"]}
        print(f"  {name:<40} {'absent' if value is None else f'{value:.6g}':>14} {m['unit']}")
    if absent:
        print("absent (not exercised by this workload): " + ", ".join(absent))
    return metrics


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    schema = ROOT / "schema" / "v1.json"
    if not (ROOT / "src" / "mwclust" / "cli.py").is_file() or not schema.is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks the mwclust sources, schema/v1.json or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(why))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.perf_counter()

    env = child_env()
    os.environ.update({k: env[k] for k in BLAS_VARS})  # before numpy loads in gen
    sys.path.insert(0, str(BENCH))
    import gen

    inputs, gen_s = gen.prepare(args.workload, args.seed, CACHE)
    setup = measure_setup(env, SETUP_SAMPLES)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"{tag}.json"
    reports = OUT / f"reports-{os.getpid()}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--manifest", str(inputs.directory / "manifest.json"),
           "--schema", str(schema), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reports", str(reports), "--out", str(result_path)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"{tag}.spans.jsonl")]
    try:
        subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=max(DEADLINE_S - (time.perf_counter() - started), 1.0))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(reports, ignore_errors=True)
    record = json.loads(result_path.read_text(encoding="utf-8"))
    record.update(setup_samples_s=setup, input_seconds=gen_s, inputs=inputs.properties)
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    rounds = record["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(rounds) - len(plain)} traced rounds; inputs "
          f"{'generated' if inputs.generated else 'cached'} in {gen_s:.2f} s")
    print("why: " + why[args.workload])
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print("inputs: " + json.dumps(inputs.properties, sort_keys=True))
    for r in rounds:
        for failure in r["failures"]:
            print("FAILED: " + failure)
    metrics = per_layer(spec, rounds) if args.trace else end_to_end(spec, plain, setup)
    failed = sum(len(r["failures"]) for r in rounds)
    attempted = sum(r["ops"] for r in rounds)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
