"""Independent numpy references for the benchmark's output checks.

Every reference is computed from the generated inputs alone: it never
imports ``mwclust``. The simulation references re-derive the replication
draws from the documented counter-based stream layout (Philox keyed by the
seed, counter ``[0, 0, rep, component]``) and evaluate every replication at
once on the M-by-M grid, so they share no code path with the per-replication
loops they check.

A report passes when every checked number is within the tolerance below of
its reference. Each tolerance is far tighter than one part in 1e6, the
perturbation the benchmark's own tests require a check to reject.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

# relative tolerances, by subcommand
TOLERANCES = {
    "estimate": 1e-8,
    "simulate": 1e-9,
    "bound": 1e-9,
    "diagnose": 1e-9,
}
ABS_FLOOR = 1e-300  # below this a reference value counts as zero

Z_CRIT_95 = 1.959964
THETA_TRUE = 1.0
INTERCEPT_TRUE = 0.5
D_CLUSTER_SHARE = 0.5
DENSE_REF_MAX_M = 32  # analytic sweep points checked against a dense reference
_VAR_COEF = math.sqrt(2.0 / math.pi)
_DK_COEF = (2.0 / math.pi) ** 0.25


# ---------------------------------------------------------------- pair sums

def pair_sum(g: np.ndarray, h: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Sum of V_i V_j' over pairs sharing a cluster, by bincount inclusion-exclusion."""
    V = V.reshape(V.shape[0], -1)
    cell = np.unique(g.astype(np.int64) * (int(h.max()) + 1) + h, return_inverse=True)[1]
    Q = np.zeros((V.shape[1], V.shape[1]))
    for lab, sign in ((g, 1.0), (h, 1.0), (cell, -1.0)):
        S = np.column_stack([np.bincount(lab, weights=V[:, k]) for k in range(V.shape[1])])
        Q += sign * (S.T @ S)
    return Q


def grid_pair_sum(X: np.ndarray) -> np.ndarray:
    """Per-replication pair sums for a batch X of shape (reps, M, M) on a unit-cell grid."""
    return (X.sum(axis=2) ** 2).sum(axis=1) + (X.sum(axis=1) ** 2).sum(axis=1) - (X * X).sum(axis=(1, 2))


# ----------------------------------------------------------- estimate-csv

def _lstsq(A, b):
    return np.linalg.lstsq(A, b, rcond=None)[0]


def reference_estimate(arr: dict) -> dict:
    """Weighted least squares, FWL and the two-way pair-sum variance, with the
    dof factor and the PSD clip that ``--dof-correction --psd-project`` ask for."""
    g, h = arr["firm"], arr["market"]
    root = np.sqrt(arr["w"])
    n = root.size
    y = arr["y"] * root
    X = np.column_stack([arr["d"], np.ones(n), arr["x1"], arr["x2"]]) * root[:, None]
    Wc = X[:, 1:]
    Dt = X[:, 0] - Wc @ _lstsq(Wc, X[:, 0])
    Yt = y - Wc @ _lstsq(Wc, y)
    ssd = float(Dt @ Dt)
    theta = float(Dt @ Yt) / ssd
    u = Yt - theta * Dt
    factor = 1.0
    for lab in (g, h):
        C = np.unique(lab).size
        factor *= C / (C - 1.0)
    sigma_sq = float(pair_sum(g, h, u * Dt)[0, 0]) / ssd**2 * factor
    beta = _lstsq(X, y)
    resid = y - X @ beta
    S_inv = np.linalg.inv(X.T @ X)
    V = S_inv @ pair_sum(g, h, X * resid[:, None]) @ S_inv * factor
    vals, vecs = np.linalg.eigh(0.5 * (V + V.T))
    V = vecs @ np.diag(np.clip(vals, 0.0, None)) @ vecs.T
    sigma_sq = max(sigma_sq, 0.0)
    return {
        "n": n,
        "theta_hat": theta,
        "sigma_sq": sigma_sq,
        "sigma_hat": math.sqrt(sigma_sq),
        "beta_hat": beta.tolist(),
        "V_hat_diag": np.diag(V).tolist(),
    }


# ------------------------------------------------------------- simulation

def _stream(seed: int, rep: int, comp: int) -> np.random.Generator:
    counter = np.array([0, 0, rep, comp], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=counter))


def _component(rng: np.random.Generator, dist: str, size: int) -> np.ndarray:
    if dist == "gaussian":
        return rng.standard_normal(size)
    if dist == "centered-exponential":
        return rng.standard_exponential(size) - 1.0
    return rng.integers(0, 2, size=size) * 2.0 - 1.0


def _schedule(base: float, count: int, hetero: bool) -> np.ndarray:
    return base * (1.0 + np.arange(count) / count) if hetero else np.full(count, float(base))


class Grid:
    """Scales of the additive random-effects design on an M-by-M unit-cell grid."""

    def __init__(self, dgp: dict, M: int):
        self.M = M
        self.n = M * M
        self.dist = (dgp.get("dist_alpha", "gaussian"), dgp.get("dist_gamma", "gaussian"),
                     dgp.get("dist_eps", "gaussian"))
        self.sa = _schedule(dgp.get("sigma_alpha", 1.0), M, dgp.get("hetero_alpha", False))
        self.sg = _schedule(dgp.get("sigma_gamma", 1.0), M, dgp.get("hetero_gamma", False))
        self.se = _schedule(dgp.get("sigma_eps", 1.0), self.n, dgp.get("hetero_eps", False))

    @property
    def true_Q(self) -> float:
        M = float(self.M)
        return float((M * M * self.sa**2).sum() + (M * M * self.sg**2).sum() + (self.se**2).sum())

    def draws(self, seed: int, reps: int) -> np.ndarray:
        """Outcome replications as an array of shape (reps, M, M)."""
        M = self.M
        out = np.empty((reps, M, M))
        se = self.se.reshape(M, M)
        for r in range(reps):
            a = self.sa * _component(_stream(seed, r, 0), self.dist[0], M)
            c = self.sg * _component(_stream(seed, r, 1), self.dist[1], M)
            e = se * _component(_stream(seed, r, 2), self.dist[2], self.n).reshape(M, M)
            out[r] = a[:, None] + c[None, :] + e
        return out

    def regressors(self, seed: int, reps: int) -> np.ndarray:
        M = self.M
        out = np.empty((reps, M, M))
        for r in range(reps):
            da = _stream(seed, r, 4).standard_normal(M)
            dg = _stream(seed, r, 5).standard_normal(M)
            nu = _stream(seed, r, 6).standard_normal(self.n).reshape(M, M)
            out[r] = D_CLUSTER_SHARE * (da[:, None] + dg[None, :]) + nu
        return out


def ks_statistic(x) -> float:
    x = np.sort(np.asarray(x, dtype=float))
    m = x.size
    cdf = ndtr(x)
    return float(max((np.arange(1, m + 1) / m - cdf).max(), (cdf - np.arange(m) / m).max()))


def reference_simulate(cfg: dict) -> dict:
    """Batched reference for the coverage and consistency studies."""
    dgp, seed, reps = cfg["dgp"], int(cfg["seed"]), int(cfg["reps"])
    base = Grid(dgp, int(dgp.get("M", 4)))
    out = {"true_Q": base.true_Q, "bias_term": 0.0, "n": base.n, "reps": reps, "seed": seed}
    if cfg["mode"] == "consistency":
        trace = []
        for M in cfg["sweep"]:
            grid = Grid(dgp, int(M))
            ratios = grid_pair_sum(grid.draws(seed, reps)) / grid.true_Q
            sd = float(ratios.std(ddof=1))
            trace.append({"M": int(M), "n": grid.n, "mean_var_ratio": float(ratios.mean()),
                          "var_ratio_sd": sd, "mc_se": sd / math.sqrt(reps)})
        out.update(trace=trace, mean_var_ratio=trace[-1]["mean_var_ratio"],
                   var_ratio_sd=trace[-1]["var_ratio_sd"])
        return out
    n = base.n
    W = base.draws(seed, reps)
    if cfg["target"] == "mean":
        mean = W.sum(axis=(1, 2)) / n
        q = grid_pair_sum(W - mean[:, None, None])
        ok = q >= 0
        half = Z_CRIT_95 * np.sqrt(np.where(ok, q, 0.0)) / n
        ratios = q / base.true_Q
        out.update(
            coverage_95=float((ok & (np.abs(mean) <= half)).sum()) / reps,
            rejection_flags=int((~ok).sum()),
            ks_pivot=ks_statistic(W.sum(axis=(1, 2)) / math.sqrt(base.true_Q)),
            mean_var_ratio=float(ratios.mean()),
            var_ratio_sd=float(ratios.std(ddof=1)),
        )
        return out
    D = base.regressors(seed, reps)
    Y = THETA_TRUE * D + INTERCEPT_TRUE + W
    Dt = D - D.mean(axis=(1, 2))[:, None, None]
    Yt = Y - Y.mean(axis=(1, 2))[:, None, None]
    ssd = (Dt * Dt).sum(axis=(1, 2))
    theta = (Dt * Yt).sum(axis=(1, 2)) / ssd
    u = Yt - theta[:, None, None] * Dt
    sigma_sq = grid_pair_sum(u * Dt) / ssd**2
    ok = sigma_sq >= 0
    sigma = np.sqrt(np.where(ok, sigma_sq, 1.0))
    covered = ok & (theta - Z_CRIT_95 * sigma <= THETA_TRUE) & (THETA_TRUE <= theta + Z_CRIT_95 * sigma)
    out.update(
        coverage_95=float(covered.sum()) / reps,
        rejection_flags=int((~ok).sum()),
        ks_pivot=ks_statistic(((theta - THETA_TRUE) / sigma)[ok]),
        mean_var_ratio=None,
        var_ratio_sd=None,
    )
    return out


# ---------------------------------------------------------- oracle bounds

def _dense_analytic(grid: Grid) -> dict:
    M, n = grid.M, grid.n
    g = np.repeat(np.arange(M), M)
    h = np.tile(np.arange(M), M)
    same_g = g[:, None] == g[None, :]
    same_h = h[:, None] == h[None, :]
    B = (same_g | same_h).astype(float)
    C = np.where(same_g, np.outer(grid.sa[g], grid.sa[g]), 0.0)
    C += np.where(same_h, np.outer(grid.sg[h], grid.sg[h]), 0.0)
    C[np.diag_indices(n)] += grid.se**2
    BC = B @ C
    term_var = _VAR_COEF * math.sqrt(2.0 * float((BC * BC.T).sum())) / grid.true_Q
    return {"M": M, "term_third": 0.0, "term_var": term_var, "d_W_bound": term_var,
            "d_K_bound": _DK_COEF * math.sqrt(term_var), "method": "analytic", "mc_se": None}


def _batched_monte_carlo(grid: Grid, seed: int, reps: int) -> dict:
    x = grid.draws(seed, reps)
    t = x.sum(axis=2)[:, :, None] + x.sum(axis=1)[:, None, :] - x
    T = (x * t).sum(axis=(1, 2))
    u = (x * t * t).reshape(reps, -1)
    s2 = grid.true_Q
    e = u.mean(axis=0)
    term_third = float(np.abs(e).sum()) / s2**1.5
    var_u = np.maximum((u * u).mean(axis=0) - e * e, 0.0)
    se_third = math.sqrt(float(var_u.sum()) / reps) / s2**1.5
    var_T = float(np.var(T, ddof=1))
    m4 = float(np.mean((T - T.mean()) ** 4))
    se_var_T = math.sqrt(max(m4 - var_T**2, 0.0) / reps)
    term_var = _VAR_COEF * math.sqrt(var_T) / s2
    se_var = _VAR_COEF * se_var_T / (2.0 * math.sqrt(var_T)) / s2
    d_W = term_third + term_var
    return {"M": grid.M, "term_third": term_third, "term_var": term_var, "d_W_bound": d_W,
            "d_K_bound": _DK_COEF * math.sqrt(d_W), "method": "monte-carlo",
            "mc_se": math.sqrt(se_third**2 + se_var**2)}


def reference_bound(cfg: dict) -> dict:
    """Dense analytic terms for the small sweep points, or a batched Monte Carlo reference.

    Analytic sweep points above ``DENSE_REF_MAX_M`` get ``None`` and are only
    checked for internal consistency.
    """
    dgp = cfg["dgp"]
    sweep = cfg.get("sweep") or [dgp["M"]]
    bounds = []
    for M in sweep:
        grid = Grid(dgp, int(M))
        if cfg["method"] == "analytic":
            bounds.append(_dense_analytic(grid) if M <= DENSE_REF_MAX_M else None)
        else:
            bounds.append(_batched_monte_carlo(grid, int(dgp.get("seed", 0)), int(cfg["reps"])))
    return {"bounds": bounds}


def reference_diagnose(cfg: dict) -> dict:
    """Oracle-mode diagnostics of the interactive design with unit weights."""
    dgp = cfg["dgp"]
    grid = Grid(dgp, int(dgp["M"]))
    M = grid.M
    true_Q = float(np.outer(grid.sa**2, grid.sg**2).sum())
    L = {"G": 1.0 / M, "H": 1.0 / M}
    return {
        "L_per_dim": L,
        "ratio_22": dict(L),
        "ratio_23_upper": {"G": M**3 / true_Q, "H": M**3 / true_Q},
        "oracle_mode": True,
        "rank_lambda": None,
        "true_Q": true_Q,
    }


# ----------------------------------------------------------------- checks

def _compare(path: str, got, want, rtol: float, errors: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            errors.append(f"{path}: expected an object, got {got!r}")
            return
        for key, val in want.items():
            _compare(f"{path}.{key}", got.get(key), val, rtol, errors)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            errors.append(f"{path}: expected a list of {len(want)}, got {got!r}")
            return
        for k, (a, b) in enumerate(zip(got, want)):
            _compare(f"{path}[{k}]", a, b, rtol, errors)
    elif want is None or isinstance(want, (bool, int, str)):
        if got != want or type(got) is not type(want):
            errors.append(f"{path}: {got!r} != {want!r}")
    elif not isinstance(got, (int, float)) or isinstance(got, bool):
        errors.append(f"{path}: expected a number, got {got!r}")
    elif not abs(got - want) <= rtol * max(abs(want), ABS_FLOOR):
        errors.append(f"{path}: {got!r} differs from reference {want!r} beyond rtol {rtol:g}")


def _bound_consistency(entries, errors: list[str]) -> None:
    for k, e in enumerate(entries):
        if not abs(e["d_W_bound"] - (e["term_third"] + e["term_var"])) <= 1e-12 * abs(e["d_W_bound"]):
            errors.append(f"bounds[{k}]: d_W_bound is not term_third + term_var")
        if not abs(e["d_K_bound"] - _DK_COEF * math.sqrt(e["d_W_bound"])) <= 1e-12 * e["d_K_bound"]:
            errors.append(f"bounds[{k}]: d_K_bound is not the Kolmogorov conversion of d_W_bound")


def check_report(command: str, doc: dict, reference: dict) -> list[str]:
    """Differences between one report's results and its reference; empty when correct."""
    rtol = TOLERANCES[command]
    errors: list[str] = []
    res = doc.get("results", {})
    if command != "bound":
        _compare("results", res, reference, rtol, errors)
        return errors
    got = res.get("bounds", [])
    want = reference["bounds"]
    if len(got) != len(want):
        errors.append(f"results.bounds: {len(got)} entries, expected {len(want)}")
        return errors
    _bound_consistency(got, errors)
    for k, (a, b) in enumerate(zip(got, want)):
        if b is not None:
            _compare(f"results.bounds[{k}]", a, b, rtol, errors)
    return errors
