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
import math
import sys
import warnings
from collections import defaultdict
from dataclasses import fields as dc_fields, replace
from itertools import count
from urllib.parse import urlparse

import numpy as np

from mwclust.clusters import ClusterScheme, _ranked, build_index
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


def _require_finite(obj, path: str = "") -> None:
    """Raise FloatingPointError naming the key path of the first NaN or infinity in ``obj``.

    No report holds one; the path reads like ``results.bounds[0].term_third``.
    """
    if isinstance(obj, dict):
        for k, v in sorted(obj.items()):
            _require_finite(v, f"{path}.{k}" if path else k)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        for k, v in enumerate(obj):
            _require_finite(v, f"{path}[{k}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise FloatingPointError(f"report value {path} is not finite in double precision")


def _report(command: str, config_echo: dict, results: dict, warnings: list[str]) -> str:
    """The report as strict JSON: a NaN or an infinity exits 3, it is never a token."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config_echo": config_echo,
        "results": results,
        "warnings": warnings,
    }
    _require_finite(doc)
    return json.dumps(doc, sort_keys=True, indent=2, default=_json_default, allow_nan=False) + "\n"


def _emit(text: str, out_path: str | None):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _load_config(path: str, allowed: set[str]) -> tuple[dict, DgpSpec]:
    """The config at ``path``, of keys in ``allowed``, and its design; each error names the file."""
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
    if "dgp" not in cfg:
        raise ConfigError(f"config {path}: missing required key 'dgp'")
    if not isinstance(cfg["dgp"], dict):
        raise ConfigError(f"config {path}: 'dgp' must be an object")
    for key in cfg["dgp"]:
        if key not in _DGP_KEYS:
            raise ConfigError(f"config {path}: unknown key 'dgp.{key}'")
    try:
        return cfg, DgpSpec(**cfg["dgp"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config {path}: invalid dgp spec: {exc}") from exc


def _read_table(path: str, columns: list[str]) -> dict[str, list[str]]:
    """Read required columns from a comma-delimited UTF-8 file with a header.

    Blank records are skipped and fields past the header are ignored. The
    first short record or empty required cell is named as it is met, rows
    counting non-blank records from 2 and columns in ``columns`` order.
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
            table = {col: [] for col in columns}
            where = [(col, header.index(col), table[col].append) for col in table]
            for lineno, row in enumerate(filter(None, reader), start=2):
                for col, j, append in where:
                    if j >= len(row) or row[j] == "":
                        raise DataError(f"{path}: row {lineno}: missing value in column {col!r}")
                    append(row[j])
        except UnicodeDecodeError:
            raise DataError(f"{path}: line {_undecodable_line(path)}: not valid UTF-8") from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not table[columns[0]]:
        raise DataError(f"{path}: no data rows")
    return table


def _undecodable_line(path: str) -> int:
    """Line of the first byte that is not UTF-8; text decodes in blocks, ahead of ``line_num``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    raise DataError(f"{path}: changed while being read")


def _floats(path: str, col: str, values: list[str], scale=None) -> np.ndarray:
    """Parse a column with Python ``float`` semantics, times ``scale``; each result must be finite."""
    out = np.empty(len(values))
    for k, v in enumerate(values):
        try:
            out[k] = float(v)
        except ValueError:
            raise DataError(f"{path}: row {k + 2}: column {col!r}: not a number: {v!r}") from None
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
        raise DataError(f"{path}: row {k + 2}: weight column {col!r} must be positive: {values[k]!r}")
    return out


def _line_count(path: str) -> int | None:
    """Lines in a file (newlines, and a last line without one); None if numpy and ``csv`` may read it apart.

    That is a file with a byte 0x1C-0x1F (``float`` keeps these around a
    number, numpy strips them) or with a field that may be longer than
    ``csv.field_size_limit()``, which ``csv`` rejects even in a column not
    read. Such a field covers a whole block of limit // 2 + 1 bytes starting
    at a multiple of that size: a newline in every such block rules out one
    on a single line, and the caller's check of this count against numpy's
    records one over lines. The file is read one such block at a time.
    """
    step = csv.field_size_limit() // 2 + 1
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        while block := fh.read(step):
            long_line = len(block) == step and b"\n" not in block
            if long_line or any(c in block for c in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
                return None
            lines += int(np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n")))
            last = block[-1:]
    return lines + (last != b"\n")


def _numpy_would_resolve(path: str) -> bool:
    """Whether numpy, given ``path``, may decompress it (by suffix) or fetch it (a URL, even naming a file)."""
    scheme, netloc = urlparse(path)[:2]
    return bool(scheme and netloc) or path.lower().endswith((".gz", ".bz2", ".xz", ".lzma"))


def _read_clean(path: str, columns: list[str], cluster_cols: list[str], weight: str):
    """What ``_read_clustered`` reads, from one pass of numpy's C parser, or None.

    ``np.loadtxt`` reads the file in chunks and splits the lines of a file
    that ``_line_count`` passes into the fields ``csv.reader`` reads, quotes
    included; a C-level converter codes each label in order of first
    appearance. It skips one line as the header and reads in text mode, a CR
    in quotes becoming a newline. A header or record over two lines, a blank
    record, a label holding a newline, any error or warning, a short row, an
    empty label, a weight that is not positive or a value that is not finite
    before or after weighting returns None: the ``csv`` path then reads the
    file again and names the first bad cell.
    """
    numeric = list(dict.fromkeys([*columns, *([weight] if weight else [])]))
    labels = list(dict.fromkeys(cluster_cols))
    names = [*numeric, *labels]
    # a column read both as a number and as a label, or a path numpy opens its own way
    if len(set(names)) < len(names) or _numpy_would_resolve(path):
        return None
    try:
        lines = _line_count(path)
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
        if lines is None or reader.line_num != 1 or any(header.count(c) != 1 for c in names):
            return None
        first = {c: defaultdict(count().__next__) for c in labels}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # "input contained no data" among others
            table = np.loadtxt(
                path, delimiter=",", quotechar='"', comments=None, ndmin=1, skiprows=1, encoding="utf-8",
                dtype=[(str(j), float if j < len(numeric) else np.int64) for j in range(len(names))],
                usecols=[header.index(c) for c in names],
                converters={header.index(c): first[c].__getitem__ for c in labels},
            )
    except (OSError, ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        return None
    if caught or len(table) + 1 != lines:
        return None
    cells = {c: table[str(j)] for j, c in enumerate(names)}
    w = cells[weight].copy() if weight else None
    if w is not None and not (np.isfinite(w).all() and (w > 0).all()):
        return None
    root = None if w is None else np.sqrt(w)
    values = {c: cells[c] * root if weight else cells[c].copy() for c in columns}
    if not all(np.isfinite(v).all() for v in values.values()):
        return None
    if any("" in first[c] or "\n" in "".join(first[c]) for c in labels):
        return None
    ids, uniq = zip(*(_ranked(cells[c], list(first[c])) for c in cluster_cols))  # every key is a str
    return w, values, ClusterScheme(dims=tuple(cluster_cols), labels=ids, label_values=uniq)


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
    if clean is not None:
        return clean
    table = _read_table(args.data, [*columns, *cluster_cols, *([args.weight] if args.weight else [])])
    w = _weights(args.data, args.weight, table[args.weight]) if args.weight else None
    # analytic weights: rescale rows, clusters untouched
    root = None if w is None else np.sqrt(w)
    values = {c: _floats(args.data, c, table[c], root) for c in columns}
    return w, values, ClusterScheme.from_labels(*(table[c] for c in cluster_cols), dims=tuple(cluster_cols))


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
    sigma_sq = res.sigma_sq
    V = res.V_hat
    if args.dof_correction:
        factor = dof_factor(index)
        sigma_sq *= factor
        V = V * factor
    if args.psd_project:  # one projection: sigma_sq is the (1,1) entry of the clipped V
        V = psd_clip(V)
        sigma_sq = float(V[0, 0])
    fin = _finish_scalar(  # unresolved as theta_inference found it, before the dof factor and the projection
        res.beta_hat, res.theta_hat, sigma_sq, res.residuals, res.D_tilde, V,
        unresolved=res.unresolved_variance, rank_lambda=res.rank_lambda,
    )
    warnings = fin.warnings  # those of the variance reported
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
        if res.score_pair_sum > 0 and not res.unresolved_variance:
            report = assumption_ratios(index, res.D_tilde, res.score_pair_sum).to_dict()
        else:
            report = {"L_per_dim": leverage_L(index, res.D_tilde)}
            state = "is within the rounding of its scores" if res.unresolved_variance else "not positive definite"
            warnings.append(f"estimated score variance {state}; regularity ratios omitted")
    except ValueError as exc:
        warnings.append(f"diagnostics unavailable: {exc}")
        return None
    report["rank_lambda"] = res.rank_lambda
    warnings.extend(w for w in report.pop("warnings", []) if w not in warnings)
    return report


def _integer(value, source: str, least: int, below: int | None = None) -> int:
    """``value`` if it is an integer of at least ``least`` (and below ``below``), else ConfigError.

    ``source`` names the config key or the option that gave the value.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < least or (below and value >= below):
        bounds = f">= {least}" + (f" and < {below}" if below else "")
        raise ConfigError(f"{source} must be an integer {bounds}, got {value!r}")
    return value


def _setting(args, cfg: dict, key: str, default, least: int, below: int | None = None) -> int:
    """The integer setting ``key``: the ``--key`` option when given, else the config's or the default."""
    if getattr(args, key) is not None:
        return _integer(getattr(args, key), f"--{key}", least, below)
    return _integer(cfg.get(key, default), f"config key {key!r}", least, below)


def _output(args, cfg: dict, csv_ok: bool = False) -> tuple[str | None, str]:
    """The report's path (None for stdout) and format, options first; also checks ``write_data``."""
    for key in ("out", "write_data"):
        if not isinstance(cfg.get(key, ""), str):
            raise ConfigError(f"config key {key!r} must be a path string, got {cfg[key]!r}")
    fmt = cfg.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"config key 'format': unknown format {fmt!r}; use 'json' or 'csv'")
    fmt = getattr(args, "format", None) or fmt
    if fmt == "csv" and not csv_ok:
        raise ConfigError("csv format is only available for the consistency trace")
    return args.out or cfg.get("out"), fmt


def _sweep(sweep) -> list[int]:
    """A nonempty list of grid sizes M >= 1."""
    if not isinstance(sweep, list) or not sweep:
        raise ConfigError(f"config key 'sweep' must be a nonempty list, got {sweep!r}")
    return [_integer(M, "config key 'sweep'", 1) for M in sweep]


def cmd_simulate(args) -> int:
    cfg, spec = _load_config(args.config, _SIMULATE_KEYS)
    mode = cfg.get("mode", "coverage")
    if mode not in ("coverage", "consistency"):
        raise ConfigError(f"config key 'mode': unknown mode {mode!r}; use 'coverage' or 'consistency'")
    # a sample standard deviation needs two replications
    reps = _setting(args, cfg, "reps", 1000, 1 if mode == "coverage" else 2)
    seed = _setting(args, cfg, "seed", 0, 0, 2**64)
    out, fmt = _output(args, cfg, csv_ok=mode == "consistency")
    scheme, oracle = structure(spec)
    if mode == "coverage":
        if not oracle.true_Q < math.inf:
            raise ConfigError("config key 'dgp': design variance overflows double precision")
        target = cfg.get("target", "mean")
        if target not in ("mean", "regression-theta"):
            raise ConfigError(
                f"config key 'target': unknown target {target!r}; use 'mean' or 'regression-theta'"
            )
        if target == "regression-theta" and scheme.n < 2:
            raise ConfigError("config key 'dgp': a slope needs a design of at least 2 observations")
        if cfg.get("write_data") and target != "regression-theta":
            raise ConfigError("config key 'write_data' requires target 'regression-theta'")
        report = run_coverage(spec, target=target, reps=reps, seed=seed)
        results = report.to_dict()
        if cfg.get("write_data"):
            results["first_replication"] = _write_replication(
                cfg["write_data"], spec, seed
            )
    else:
        sweep = _sweep(cfg.get("sweep"))
        demean = cfg.get("demean", False)
        if not isinstance(demean, bool):
            raise ConfigError(f"config key 'demean' must be true or false, got {demean!r}")
        try:
            report = run_consistency(spec, sweep, reps=reps, seed=seed, demean=demean)
        except ValueError as exc:  # a design of zero or overflowing variance at some M
            raise ConfigError(f"config keys 'dgp' and 'sweep': {exc}") from None
        results = report.to_dict()
    results["true_Q"] = oracle.true_Q
    results["bias_term"] = true_bias_term(oracle)
    results["n"] = scheme.n
    warnings = results.pop("warnings")
    echo = {**cfg, "reps": reps, "seed": seed, "mode": mode}
    if fmt == "csv":
        _emit(_trace_csv(results["trace"]), out)
    else:
        _emit(_report("simulate", echo, results, warnings), out)
    return EXIT_OK


def _trace_csv(trace: list[dict]) -> str:
    _require_finite(trace, "results.trace")
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
    rows = (f"{float(data.Y[k])!r},{float(data.D[k])!r},{g[k]},{h[k]}\n" for k in range(scheme.n))
    _emit("".join(["y,d,g,h\n", *rows]), path)
    res = theta_inference(data, build_index(scheme))
    return {"path": path, "theta_hat": res.theta_hat, "sigma_hat": res.sigma_hat}


def cmd_bound(args) -> int:
    cfg, spec = _load_config(args.config, _BOUND_KEYS)
    method = cfg.get("method", "monte-carlo")
    if method not in ("analytic", "monte-carlo"):
        raise ConfigError(f"config key 'method': unknown method {method!r}; use 'analytic' or 'monte-carlo'")
    # the Monte Carlo variance term is a sample variance
    reps = _setting(args, cfg, "reps", 10_000, 2 if method == "monte-carlo" else 1)
    sweep = _sweep(cfg.get("sweep") or [spec.M])
    out, _ = _output(args, cfg)
    results = {"bounds": []}
    for M in sweep:
        try:
            rep = wasserstein_bound(replace(spec, M=M), method=method, reps=reps)
        except ValueError as exc:  # a design of zero or overflowing variance, or not Gaussian for 'analytic'
            raise ConfigError(f"config keys 'dgp' and 'method' at M={M}: {exc}") from None
        results["bounds"].append({**rep.to_dict(), "M": M})
    echo = {**cfg, "method": method, "reps": reps, "sweep": list(sweep)}
    _emit(_report("bound", echo, results, []), out)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    if args.config:
        cfg, spec = _load_config(args.config, _DIAGNOSE_KEYS)
        out, _ = _output(args, cfg)
        scheme, oracle = structure(spec)
        if not oracle.true_Q > 0:
            raise ConfigError("config key 'dgp': design has zero variance; the ratios are undefined")
        if not oracle.true_Q < math.inf:
            raise ConfigError("config key 'dgp': design variance overflows double precision")
        index = build_index(scheme)
        results = assumption_ratios(index, np.ones(scheme.n), oracle.true_Q, dependent=oracle.dependent).to_dict()
        results["true_Q"] = oracle.true_Q
        warnings = results.pop("warnings")
        _emit(_report("diagnose", dict(cfg), results, warnings), out)
        return EXIT_OK
    if not args.data or not args.cluster:
        raise ConfigError("diagnose requires either --config or --data with --cluster")
    if args.d:
        if not args.y:
            raise ConfigError("diagnose --d requires --y, the outcome column")
        data = _build_regression(args)
        index = build_index(data.scheme)
        _, weights, _, _ = _fit(data)
    elif args.y or args.controls:
        flag = "--y" if args.y else "--controls"
        raise ConfigError(f"diagnose {flag} requires --d, the regressor-of-interest column")
    else:
        w, _, scheme = _read_clustered(args, [])
        index = build_index(scheme)
        weights = np.ones(scheme.n) if w is None else w
    results = {"L_per_dim": leverage_L(index, weights), "n": index.n}
    warnings = ["data mode: dependence indicator unobservable; only leverage reported"]
    echo = {
        "data": args.data,
        "y": args.y or "",
        "d": args.d or "",
        "controls": args.controls or "",
        "cluster": args.cluster,
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
