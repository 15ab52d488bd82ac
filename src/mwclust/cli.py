"""Command-line front end.

Subcommands: ``estimate`` (regression inference on a CSV dataset),
``simulate`` (coverage / consistency studies), ``bound`` (normal
approximation bounds), ``diagnose`` (assumption diagnostics). All reports
are JSON with a fixed, versioned field layout; output is byte-stable for a
given config and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import operator
import sys
import warnings
from dataclasses import fields as dc_fields, replace
from itertools import chain

import numpy as np

from mwclust.clusters import ClusterScheme, build_index
from mwclust.dgp import DgpSpec, structure, true_bias_term
from mwclust.diagnostics import assumption_ratios, leverage_L
from mwclust.harness import regression_replication, run_consistency, run_coverage
from mwclust.regression import (
    RegressionData,
    SingularDesignError,
    _finish_scalar,
    _fit,
    theta_inference,
)
from mwclust.stein import wasserstein_bound
from mwclust.variance import dof_factor, psd_clip

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DATA = 2
EXIT_SINGULAR = 3

_DGP_KEYS = {f.name for f in dc_fields(DgpSpec)}
_SIMULATE_KEYS = {
    "dgp",
    "mode",
    "target",
    "reps",
    "seed",
    "sweep",
    "demean",
    "write_data",
    "out",
    "format",
}
_BOUND_KEYS = {"dgp", "method", "reps", "sweep", "out", "format"}
_DIAGNOSE_KEYS = {"dgp", "out", "format"}


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _report(command: str, config_echo: dict, results: dict, warnings: list[str]) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config_echo": config_echo,
        "results": results,
        "warnings": warnings,
    }
    return json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str, allowed: set[str]) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"config {path}: unknown key {key!r}")
    if "dgp" in cfg:
        if not isinstance(cfg["dgp"], dict):
            raise ConfigError(f"config {path}: 'dgp' must be an object")
        for key in cfg["dgp"]:
            if key not in _DGP_KEYS:
                raise ConfigError(f"config {path}: unknown key 'dgp.{key}'")
    return cfg


def _dgp_from_config(cfg: dict) -> DgpSpec:
    if "dgp" not in cfg:
        raise ConfigError("config is missing required key 'dgp'")
    try:
        return DgpSpec(**cfg["dgp"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid dgp spec: {exc}") from exc


def _read_table(path: str, columns: list[str]) -> dict[str, list[str]]:
    """Read required columns from a comma-delimited UTF-8 file with a header.

    Blank records are skipped and fields past the header are ignored. One
    pass of ``csv.reader`` flattens the requested fields of every record into
    a single list of strings; only when a record is short or a cell is empty
    is the file read again, to name the first such cell.
    """
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: missing header row")
            for col in columns:
                if col not in header:
                    raise DataError(f"{path}: missing required column {col!r}")
            for col in columns:
                if header.count(col) > 1:
                    raise DataError(f"{path}: column {col!r} appears more than once in the header")
            names = list(dict.fromkeys(columns))
            k = len(names)
            get = operator.itemgetter(*(header.index(c) for c in names))
            records = filter(None, reader)
            try:
                flat = list(map(get, records) if k == 1 else chain.from_iterable(map(get, records)))
            except IndexError:
                flat = None
        except UnicodeDecodeError:
            raise DataError(f"{path}: line {_undecodable_line(path)}: not valid UTF-8") from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
        if flat is None or "" in flat:
            fh.seek(0)
            _raise_first_missing(path, csv.reader(fh), columns)
    if not flat:
        raise DataError(f"{path}: no data rows")
    return {col: flat[j::k] for j, col in enumerate(names)}


def _undecodable_line(path: str) -> int:
    """Line of the first byte that is not UTF-8; text decodes in blocks, ahead of ``line_num``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    raise DataError(f"{path}: changed while being read")


def _raise_first_missing(path: str, reader, columns: list[str]):
    """Name the first short or empty required cell, rows first, then ``columns`` order.

    Rows count non-blank records from 2, the header being row 1.
    """
    header = next(reader)
    where = [(col, header.index(col)) for col in columns]
    for lineno, row in enumerate(filter(None, reader), start=2):
        for col, j in where:
            if j >= len(row) or row[j] == "":
                raise DataError(f"{path}: row {lineno}: missing value in column {col!r}")
    raise DataError(f"{path}: changed while being read")


def _floats(path: str, col: str, values: list[str], scale=None) -> np.ndarray:
    """Parse a column with Python ``float`` semantics, times ``scale``; each result must be finite."""
    try:
        out = np.fromiter(map(float, values), float, count=len(values))
    except ValueError:
        for k, v in enumerate(values):
            try:
                float(v)
            except ValueError:
                raise DataError(
                    f"{path}: row {k + 2}: column {col!r}: not a number: {v!r}"
                ) from None
        raise
    if scale is not None:
        out = out * scale
    if not np.isfinite(out).all():
        k = int(np.flatnonzero(~np.isfinite(out))[0])
        weighted = "" if scale is None else " after weighting"
        raise DataError(f"{path}: row {k + 2}: column {col!r}: not finite{weighted}: {values[k]!r}")
    return out


def _weights(path: str, col: str, values: list[str]) -> np.ndarray:
    """Analytic weights: finite and strictly positive."""
    out = _floats(path, col, values)
    if (out <= 0).any():
        k = int(np.flatnonzero(out <= 0)[0])
        raise DataError(
            f"{path}: row {k + 2}: weight column {col!r} must be positive: {values[k]!r}"
        )
    return out


def _needs_csv(path: str) -> bool:
    """Whether a file may read differently in numpy's C parser than in ``csv`` and ``float``.

    That is a file with a quote, with a byte 0x1C-0x1F (``float`` keeps these
    around a number, numpy strips them) or with a line that may be longer than
    ``csv.field_size_limit()``, which ``csv`` rejects even in a column not
    read. Such a line covers a whole block of limit // 2 + 1 bytes starting
    at a multiple of that size, so a newline in every such block rules it out.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    step = csv.field_size_limit() // 2 + 1
    return any(c in data for c in (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")) or any(
        data.find(b"\n", k, k + step) < 0 for k in range(0, len(data) - step + 1, step)
    )


def _read_clean(path: str, columns: list[str], cluster_cols: list[str], weight: str):
    """What ``_read_clustered`` reads, from one pass of numpy's C parser, or None.

    ``np.loadtxt`` reads the same lines as ``csv.reader``, header excepted,
    and on a file that ``_needs_csv`` passes it splits them into the same
    fields. Any error or warning, a short row, an empty label, a weight that
    is not positive or a value that is not finite before or after weighting
    returns None: the ``csv`` path then reads the file again and names the
    first bad cell.
    """
    numeric = list(dict.fromkeys([*columns, *([weight] if weight else [])]))
    labels = list(dict.fromkeys(cluster_cols))
    names = [*numeric, *labels]
    if len(set(names)) < len(names):  # a column read both as a number and as a label
        return None
    try:
        if _needs_csv(path):
            return None
        with open(path, encoding="utf-8", newline="") as fh, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # "input contained no data" among others
            header = next(csv.reader(fh), [])
            if any(header.count(c) != 1 for c in names):
                return None
            table = np.loadtxt(
                fh, delimiter=",", comments=None, ndmin=1,
                dtype=[(str(j), float if j < len(numeric) else object) for j in range(len(names))],
                usecols=[header.index(c) for c in names],
            )
    except (OSError, ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        return None
    if caught:
        return None
    cells = {c: table[str(j)] for j, c in enumerate(names)}
    w = cells[weight].copy() if weight else None
    if w is not None and not (np.isfinite(w).all() and (w > 0).all()):
        return None
    root = None if w is None else np.sqrt(w)
    values = {c: cells[c] * root if weight else cells[c].copy() for c in columns}
    if not all(np.isfinite(v).all() for v in values.values()):
        return None
    label_lists = [cells[c].tolist() for c in cluster_cols]
    if any("" in lab for lab in label_lists):
        return None
    return w, values, label_lists


def _read_clustered(args, columns: list[str]):
    """Weights (or None), each numeric column times the weights' square root, and the scheme.

    Reads ``columns``, the two ``--cluster`` columns and any ``--weight``:
    with ``_read_clean`` when it can, else with ``_read_table``, whose
    parsers check the weights first, then ``columns`` in order.
    """
    cluster_cols = args.cluster.split(",")
    if len(cluster_cols) != 2:
        raise DataError("--cluster requires exactly two comma-separated columns")
    clean = _read_clean(args.data, columns, cluster_cols, args.weight)
    if clean is None:
        table = _read_table(args.data, [*columns, *cluster_cols, *([args.weight] if args.weight else [])])
        w = _weights(args.data, args.weight, table[args.weight]) if args.weight else None
        # analytic weights: rescale rows, clusters untouched
        root = None if w is None else np.sqrt(w)
        values = {c: _floats(args.data, c, table[c], root) for c in columns}
        clean = w, values, [table[c] for c in cluster_cols]
    w, values, label_lists = clean
    scheme = ClusterScheme.from_labels(*label_lists, dims=tuple(cluster_cols))
    return w, values, scheme


def _build_regression(args) -> RegressionData:
    control_cols = [c for c in (args.controls.split(",") if args.controls else []) if c]
    w, values, scheme = _read_clustered(args, [args.y, args.d, *control_cols])
    Y = values[args.y]
    controls = np.column_stack(
        [np.ones(Y.size) if w is None else np.sqrt(w)] + [values[c] for c in control_cols]
    )
    names = (args.d, "(intercept)", *control_cols)
    return RegressionData(Y=Y, D=values[args.d], controls=controls, scheme=scheme, column_names=names)


def cmd_estimate(args) -> int:
    data = _build_regression(args)
    index = build_index(data.scheme)
    res = theta_inference(data, index)
    warnings = list(res.warnings)  # those of the raw variance
    sigma_sq = res.sigma_sq
    V = res.V_hat
    if args.dof_correction:
        factor = dof_factor(index)
        sigma_sq *= factor
        V = V * factor
    if args.psd_project:
        V = psd_clip(V)
        sigma_sq = max(sigma_sq, 0.0)
    fin = _finish_scalar(res.beta_hat, res.theta_hat, sigma_sq, res.residuals, res.D_tilde, V)
    diag = _data_diagnostics(index, res, warnings)
    results = {
        "n": data.n,
        "theta_hat": res.theta_hat,
        "sigma_hat": fin.sigma_hat,
        "sigma_sq": sigma_sq,
        "t_stat": fin.t_stat,
        "ci_95": fin.ci_95,
        "beta_hat": res.beta_hat,
        "V_hat_diag": np.diag(V),
        "negative_variance": fin.negative_variance,
        "diagnostics": diag,
    }
    echo = {
        "data": args.data,
        "y": args.y,
        "d": args.d,
        "controls": args.controls or "",
        "cluster": args.cluster,
        "weight": args.weight or "",
        "psd_project": bool(args.psd_project),
        "dof_correction": bool(args.dof_correction),
    }
    _emit(_report("estimate", echo, results, warnings), args.out)
    return EXIT_OK


def _data_diagnostics(index, res, warnings: list[str]) -> dict | None:
    """Data-mode diagnostics from the pass's score pair sum and X'X/n eigenvalue."""
    try:
        if res.score_pair_sum > 0:
            report = assumption_ratios(index, res.D_tilde, res.score_pair_sum).to_dict()
        else:
            report = {"L_per_dim": leverage_L(index, res.D_tilde)}
            warnings.append(
                "estimated score variance not positive definite; regularity ratios omitted"
            )
    except ValueError as exc:
        warnings.append(f"diagnostics unavailable: {exc}")
        return None
    report["rank_lambda"] = res.rank_lambda
    warnings.extend(w for w in report.pop("warnings", []) if w not in warnings)
    return report


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, _SIMULATE_KEYS)
    spec = _dgp_from_config(cfg)
    mode = cfg.get("mode", "coverage")
    reps = int(args.reps if args.reps is not None else cfg.get("reps", 1000))
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
    out = args.out or cfg.get("out")
    fmt = args.format or cfg.get("format", "json")
    warnings: list[str] = []
    scheme, oracle = structure(spec)
    if mode == "coverage":
        target = cfg.get("target", "mean")
        report = run_coverage(spec, target=target, reps=reps, seed=seed)
        results = report.to_dict()
        if cfg.get("write_data"):
            if target != "regression-theta":
                raise ConfigError("write_data requires target 'regression-theta'")
            results["first_replication"] = _write_replication(
                cfg["write_data"], spec, seed
            )
    elif mode == "consistency":
        sweep = cfg.get("sweep")
        if not sweep:
            raise ConfigError("consistency mode requires a nonempty 'sweep' list")
        report = run_consistency(
            spec, sweep, reps=reps, seed=seed, demean=bool(cfg.get("demean", False))
        )
        results = report.to_dict()
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    results["true_Q"] = oracle.true_Q
    results["bias_term"] = true_bias_term(oracle)
    results["n"] = scheme.n
    warnings.extend(results.pop("warnings", []))
    echo = dict(cfg)
    echo.update({"reps": reps, "seed": seed, "mode": mode})
    if fmt == "csv":
        if mode != "consistency":
            raise ConfigError("csv format is only available for the consistency trace")
        _emit(_trace_csv(results["trace"]), out)
    else:
        _emit(_report("simulate", echo, results, warnings), out)
    return EXIT_OK


def _trace_csv(trace: list[dict]) -> str:
    cols = ["M", "n", "mean_var_ratio", "var_ratio_sd", "mc_se"]
    lines = [",".join(cols)]
    for row in trace:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _write_replication(path: str, spec: DgpSpec, seed: int) -> dict:
    """Write replication 0 as a dataset and return its in-memory estimates."""
    scheme, _ = structure(spec)
    data = regression_replication(replace(spec, seed=seed), scheme, 0)
    g, h = scheme.labels
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("y,d,g,h\n")
        for k in range(scheme.n):
            fh.write(f"{float(data.Y[k])!r},{float(data.D[k])!r},{g[k]},{h[k]}\n")
    res = theta_inference(data, build_index(scheme))
    return {"path": path, "theta_hat": res.theta_hat, "sigma_hat": res.sigma_hat}


def cmd_bound(args) -> int:
    cfg = _load_config(args.config, _BOUND_KEYS)
    spec = _dgp_from_config(cfg)
    method = cfg.get("method", "monte-carlo")
    reps = int(args.reps if args.reps is not None else cfg.get("reps", 10_000))
    sweep = cfg.get("sweep") or [spec.M]
    results = {"bounds": []}
    for M in sweep:
        spec_m = replace(spec, M=int(M))
        rep = wasserstein_bound(spec_m, method=method, reps=reps)
        entry = rep.to_dict()
        entry["M"] = int(M)
        results["bounds"].append(entry)
    echo = dict(cfg)
    echo.update({"method": method, "reps": reps, "sweep": list(sweep)})
    _emit(_report("bound", echo, results, []), args.out or cfg.get("out"))
    return EXIT_OK


def cmd_diagnose(args) -> int:
    warnings: list[str] = []
    if args.config:
        cfg = _load_config(args.config, _DIAGNOSE_KEYS)
        spec = _dgp_from_config(cfg)
        scheme, oracle = structure(spec)
        index = build_index(scheme)
        report = assumption_ratios(
            index,
            np.ones(scheme.n),
            oracle.true_Q,
            dependent=oracle.dependent,
        )
        results = report.to_dict()
        results["true_Q"] = oracle.true_Q
        warnings.extend(results.pop("warnings", []))
        echo = dict(cfg)
        _emit(_report("diagnose", echo, results, warnings), args.out or cfg.get("out"))
        return EXIT_OK
    if not args.data or not args.cluster:
        raise ConfigError("diagnose requires either --config or --data with --cluster")
    if args.d:
        data = _build_regression(args)
        index = build_index(data.scheme)
        _, weights, _, _ = _fit(data)
    else:
        w, _, scheme = _read_clustered(args, [])
        index = build_index(scheme)
        weights = np.ones(scheme.n) if w is None else w
    results = {"L_per_dim": leverage_L(index, weights), "n": index.n}
    warnings.append(
        "data mode: dependence indicator unobservable; only leverage reported"
    )
    echo = {
        "data": args.data,
        "cluster": args.cluster,
        "d": args.d or "",
        "weight": args.weight or "",
    }
    _emit(_report("diagnose", echo, results, warnings), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwclust",
        description="Inference under multi-way cluster dependence",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_data_flags(p, require_model: bool):
        p.add_argument("--data", required=require_model, help="CSV dataset path")
        p.add_argument("--y", required=require_model, help="outcome column")
        p.add_argument("--d", required=require_model, help="regressor-of-interest column")
        p.add_argument("--controls", default="", help="comma-separated control columns")
        p.add_argument("--cluster", required=require_model, help="two cluster columns, comma-separated")
        p.add_argument("--weight", default="", help="optional weight column")

    est = sub.add_parser("estimate", help="regression inference on a dataset")
    add_data_flags(est, require_model=True)
    est.add_argument("--out", default=None)
    est.add_argument("--format", choices=["json"], default="json")
    est.add_argument("--psd-project", action="store_true")
    est.add_argument("--dof-correction", action="store_true")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="run a replication study from a config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=None)
    sim.add_argument("--format", choices=["json", "csv"], default=None)
    sim.add_argument("--reps", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)

    bnd = sub.add_parser("bound", help="normal-approximation bound for a design")
    bnd.add_argument("--config", required=True)
    bnd.add_argument("--out", default=None)
    bnd.add_argument("--reps", type=int, default=None)
    bnd.set_defaults(func=cmd_bound)

    diag = sub.add_parser("diagnose", help="assumption diagnostics")
    diag.add_argument("--config", default=None)
    add_data_flags(diag, require_model=False)
    diag.add_argument("--out", default=None)
    diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow surfaces through the explicit finiteness checks, as exit 2 or 3
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SingularDesignError, FloatingPointError) as exc:
        # FloatingPointError: a runtime cross-check of the fit failed, which
        # happens on numerically ill-conditioned designs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
