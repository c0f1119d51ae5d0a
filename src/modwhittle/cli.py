"""Command-line front end.

Verbs: simulate, fit, mc, drifter-fit, drifter-batch, diagnose.  Every
command reads a JSON config, is deterministic given (config, seed), writes
outputs atomically (temp file + rename), and drops a machine-readable
manifest (config hash, seed, package versions, BLAS thread settings, peak
memory) next to the outputs.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import resource
import sys

import numpy as np

from . import __version__
from .core import Series
from .drifter import (
    batch_compare,
    fit_drifter,
    inertial_frequency,
    simulate_drifter_velocities,
    trajectory_from_csv,
    velocities_from_positions,
)
from .likelihood import Objective
from .models import model_from_json
from .modulation import (
    linear_beta,
    modulator_from_json,
    significant_correlation_diagnostic,
    stationarity_check,
)
from .optimize import FitFailure, fit
from .simulate import (
    McStudy,
    SimulationError,
    bounded_random_walk_beta,
    run_study,
    simulate_ar,
    simulate_complex_ar1,
)

__all__ = ["main"]


class UsageError(Exception):
    pass


def _from_config(build, *args, **kwargs):
    """build(*args, **kwargs), whose ValueError means the config is wrong."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _atomic_write(path: str, payload: str | bytes):
    mode = "wb" if isinstance(payload, bytes) else "w"
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, mode) as fh:
        fh.write(payload)
    os.replace(tmp, path)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _manifest(verb: str, config_text: str, seed, outputs) -> str:
    import scipy  # only for its version: a pool worker imports this module too

    usage = {who: resource.getrusage(which) for who, which in
             (("self", resource.RUSAGE_SELF), ("workers", resource.RUSAGE_CHILDREN))}
    return json.dumps({
        "verb": verb,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "seed": seed,
        "versions": {
            "modwhittle": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        # the BLAS/OpenMP pool sizes, which set the speed of every timing field
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        # host-dependent, like every timing field: the peak resident memory
        # (ru_maxrss, KiB on Linux) of this process and of its largest
        # finished worker (0 without one), and the minor page faults of this
        # process and of its finished workers together
        "peak_rss_mb": {who: u.ru_maxrss / 1024.0 for who, u in usage.items()},
        "minor_faults": {who: u.ru_minflt for who, u in usage.items()},
        "outputs": sorted(outputs),
    }, indent=2)


def _load_config(path: str) -> tuple[dict, str]:
    try:
        with open(path) as fh:
            text = fh.read()
        return json.loads(text), text
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc


def _beta_from_spec(spec, n: int, seed) -> np.ndarray:
    if isinstance(spec, list):
        if len(spec) not in (n - 1, n):
            raise UsageError(f"a beta list takes n - 1 or n rotations, not {len(spec)}")
        return np.asarray(spec, dtype=float)
    kind = spec["kind"]
    if kind == "bounded-walk":
        return bounded_random_walk_beta(spec["gamma"], spec["span"],
                                        spec["amp"], n, seed)[1:]
    if kind == "linear":
        return linear_beta(spec["gamma"], spec["span"], n)
    if kind == "constant":
        return np.full(n - 1, float(spec["value"]))
    raise UsageError(f"unknown beta spec kind {kind!r}")


def _simulate_from_config(cfg: dict, seed) -> tuple[np.ndarray, Series]:
    n = int(cfg["n"])
    kind = cfg.get("kind", "model")
    if kind == "car1":
        beta = _beta_from_spec(cfg.get("beta", {"kind": "constant", "value": 0.0}),
                               n, np.random.default_rng((seed, 1)))
        series = simulate_complex_ar1(cfg["r"], cfg["sigma"], beta, n,
                                      np.random.default_rng((seed, 2)))
        return beta, series
    if kind == "model":
        model = _from_config(model_from_json, cfg["model"])
        series = _from_config(simulate_ar, model, n, np.random.default_rng((seed, 2)))
        if cfg.get("modulator"):
            mod = _from_config(modulator_from_json, cfg["modulator"])
            if mod.n != n:
                raise UsageError(f"the modulator has N = {mod.n}, the series n = {n}")
            series = Series(mod.g * series.values, delta=series.delta,
                            kind="complex" if mod.is_complex else "real")
        return None, series
    if kind == "drifter":
        wf = _omega_f_from_config(cfg, n)
        series = simulate_drifter_velocities(
            cfg["A"], cfg["lam"], cfg.get("B", 0.0), cfg.get("h", 1.0),
            cfg.get("alpha", 1.0), wf, cfg.get("delta", 1.0 / 12.0),
            np.random.default_rng((seed, 2)))
        return wf, series
    raise UsageError(f"unknown simulation kind {kind!r}")


def _omega_f_from_config(cfg: dict, n: int) -> np.ndarray:
    if "omega_f" in cfg:
        wf = np.asarray(cfg["omega_f"], dtype=float)
        if wf.size == 1:
            wf = np.full(n, wf.item())  # a 0-d or a 1-element array
        return wf
    lat = cfg["latitudes"]
    if isinstance(lat, dict):
        lats = np.linspace(lat["start"], lat["stop"], n)
    else:
        lats = np.asarray(lat, dtype=float)
    return np.asarray(inertial_frequency(lats))


def _series_from_config(cfg: dict, seed) -> tuple:
    if "csv" in cfg:
        rows = np.genfromtxt(cfg["csv"], delimiter=",", names=True)
        re_col = rows["re"]
        im_col = rows["im"] if "im" in (rows.dtype.names or ()) else np.zeros_like(re_col)
        kind = "complex" if np.any(im_col) else "real"
        vals = re_col + 1j * im_col if kind == "complex" else re_col
        return None, Series(vals, delta=cfg.get("delta", 1.0), kind=kind)
    if "synthetic" in cfg:
        return _simulate_from_config(cfg["synthetic"], seed)
    raise UsageError("data section needs either 'csv' or 'synthetic'")


# ----------------------------------------------------------------------
# verb implementations; each returns {filename: payload}
# ----------------------------------------------------------------------

def _cmd_simulate(cfg: dict, out: str, seed, threads: int) -> dict:
    _, series = _simulate_from_config(cfg, seed)
    rows = [[t, repr(float(np.real(v))), repr(float(np.imag(v)))]
            for t, v in enumerate(np.asarray(series.values))]
    return {f"{out}.csv": _csv_text([["t", "re", "im"], *rows])}


def _cmd_fit(cfg: dict, out: str, seed, threads: int) -> dict:
    kind = cfg.get("objective", "modulated-whittle")
    aux, data = _series_from_config(cfg["data"], seed)
    opts = dict(cfg.get("fit_options", {}))
    if kind == "drifter":
        wf = aux if aux is not None else _omega_f_from_config(cfg, len(data))
        result = fit_drifter(data, wf, mode=cfg.get("mode", "modulated"),
                             freq_range=tuple(cfg.get("freq_range", (0.0, 0.8))),
                             include_background=cfg.get("include_background", True),
                             fit_options=opts)
        return {f"{out}.json": json.dumps(_drifter_report(result), indent=2)}
    model = _from_config(model_from_json, cfg["model"])
    modulator = (_from_config(modulator_from_json, cfg["modulator"])
                 if cfg.get("modulator") else None)
    objective = _from_config(Objective, kind, data, model, modulator=modulator)
    result = fit(objective, objective.init_params, **opts)
    return {f"{out}.json": json.dumps(result.asdict(), indent=2)}


def _cmd_mc(cfg: dict, out: str, seed, threads: int) -> dict:
    study = _from_config(McStudy.from_json_dict, cfg)
    if seed is not None:
        study.seed = int(seed)
    report = run_study(study, threads=threads)
    return {f"{out}.csv": _csv_text(report.as_csv_rows()),
            f"{out}.failures.json": json.dumps(report.failures, indent=2),
            f"{out}.nonconverged.json": json.dumps(report.nonconverged, indent=2),
            f"{out}.abnormal.json": json.dumps(report.abnormal, indent=2),
            f"{out}.cost.json": json.dumps(report.cost, indent=2)}


def _cmd_drifter_fit(cfg: dict, out: str, seed, threads: int) -> dict:
    data, wf, delta = _drifter_series(cfg, seed)
    freq_range = tuple(cfg.get("freq_range", (0.0, 0.8)))
    opts = dict(cfg.get("fit_options", {}))
    include_b = cfg.get("include_background", True)
    mode = cfg.get("mode", "both")
    fits = {}
    for m in (("stationary", "modulated") if mode == "both" else (mode,)):
        fits[m] = fit_drifter(data, wf, mode=m, freq_range=freq_range,
                              include_background=include_b, fit_options=opts)
    report = {m: _drifter_report(f) for m, f in fits.items()}
    if len(fits) == 2:
        report["difference"] = fits["stationary"].nll - fits["modulated"].nll
    any_fit = next(iter(fits.values()))
    rows = [["omega_cpd", "periodogram", "stationary_fit", "modulated_fit", "in_band"]]
    stat_curve = fits.get("stationary", any_fit).fitted
    mod_curve = fits.get("modulated", any_fit).fitted
    for i, wcpd in enumerate(any_fit.freq_cpd):
        rows.append([repr(float(wcpd)), repr(float(any_fit.observed[i])),
                     repr(float(stat_curve[i])), repr(float(mod_curve[i])),
                     int(any_fit.mask[i])])
    return {f"{out}.json": json.dumps(report, indent=2),
            f"{out}.spectrum.csv": _csv_text(rows)}


def _drifter_report(f) -> dict:
    return {
        "theta_hat": f.params,
        "objective": f.nll,
        "iterations": f.fit_result.iterations,
        "n_evals": f.fit_result.n_evals,
        "n_grad_evals": f.fit_result.n_grad_evals,
        "converged": f.fit_result.converged,
        "n_rejected": f.fit_result.n_rejected,
        "profiled": list(f.fit_result.profiled),
        "at_bound": f.at_bound,
        "start_results": [dict(r) for r in f.fit_result.start_results],
        "best_start": f.fit_result.best_start,
        "damping_time_days": f.damping_time,
    }


def _drifter_series(cfg: dict, seed):
    delta = cfg.get("delta", 1.0 / 12.0)
    if "trajectory" in cfg:
        traj = trajectory_from_csv(cfg["trajectory"])
        delta = traj.delta
        if traj.velocities is not None and traj.velocities.size == traj.n:
            vel = traj.velocities
            lats = traj.latitudes
        else:
            vel = velocities_from_positions(traj)
            lats = traj.latitudes[:-1]
        data = Series(vel, delta=delta, kind="complex")
        wf = np.asarray(inertial_frequency(lats))
        return data, wf, delta
    aux, data = _series_from_config(cfg["data"], seed)
    wf = aux if aux is not None else _omega_f_from_config(cfg, len(data))
    return Series(np.asarray(data.values, complex), delta=delta, kind="complex"), wf, delta


def _cmd_drifter_batch(cfg: dict, out: str, seed, threads: int) -> dict:
    cases = []
    if "trajectories" in cfg:
        for path in cfg["trajectories"]:
            sub = {"trajectory": path}
            data, wf, _ = _drifter_series(sub, seed)
            cases.append((data, wf))
    else:
        syn = cfg["synthetic"]
        n_cases = int(syn["n_cases"])
        n = int(syn["n"])
        delta = syn.get("delta", 1.0 / 12.0)
        true = syn["true"]
        rng = np.random.default_rng(syn.get("seed", seed or 0))
        for _ in range(n_cases):
            lat0 = rng.uniform(*syn.get("lat_start", (3.0, 6.0)))
            lat1 = rng.uniform(*syn.get("lat_end", (17.0, 20.0)))
            lats = rng.choice([-1.0, 1.0]) * np.linspace(lat0, lat1, n)
            if rng.random() < 0.5:
                lats = lats[::-1].copy()
            wf = np.asarray(inertial_frequency(lats))
            data = simulate_drifter_velocities(true["A"], true["lam"], true["B"],
                                               true["h"], true["alpha"], wf,
                                               delta, rng)
            cases.append((data, wf))
    rows = batch_compare(cases, freq_range=tuple(cfg.get("freq_range", (0.0, 0.8))),
                         include_background=cfg.get("include_background", True),
                         fit_options=dict(cfg.get("fit_options", {})))
    header = ["case", "inv_lambda_stationary", "inv_lambda_modulated",
              "nll_stationary", "nll_modulated", "difference", "error"]
    table = [header]
    for row in rows:
        table.append([row.get(k, "") for k in header])
    return {f"{out}.csv": _csv_text(table)}


def _cmd_diagnose(cfg: dict, out: str, seed, threads: int) -> dict:
    mod = _from_config(modulator_from_json, cfg["modulator"])
    report = {}
    if "lags" in cfg:
        diag = _from_config(significant_correlation_diagnostic,
                            mod, cfg["lags"], cfg.get("n_grid", [mod.n // 2, mod.n]),
                            tol=cfg.get("tol", 1e-3))
        report["significant_correlation"] = {
            "min_abs_cg": {str(k): v for k, v in diag["min_abs_cg"].items()},
            "flagged": diag["flagged"],
            "tol": diag["tol"],
        }
    if "mu" in cfg:
        ok, witness = _from_config(stationarity_check, mod, mu=cfg["mu"],
                                   tol=cfg.get("stationarity_tol", 1e-8))
        report["stationary"] = {"is_stationary": ok, "witness": witness}
    return {f"{out}.json": json.dumps(report, indent=2)}


_VERBS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "mc": _cmd_mc,
    "drifter-fit": _cmd_drifter_fit,
    "drifter-batch": _cmd_drifter_batch,
    "diagnose": _cmd_diagnose,
}


def main(argv=None) -> int:
    parser = _Parser(prog="modwhittle",
                     description="modulated-series spectral inference")
    parser.add_argument("verb", choices=sorted(_VERBS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--output", "-o", default="out", help="output path prefix")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker pool size (or MODWHITTLE_THREADS)")
    parser.add_argument("--verbose", action="store_true")
    try:
        args = parser.parse_args(argv)
        cfg, cfg_text = _load_config(args.config)
        threads = args.threads
        if threads is None:
            text = os.environ.get("MODWHITTLE_THREADS")
            try:
                threads = (os.cpu_count() or 1) if text is None else int(text)
            except ValueError:
                raise UsageError(f"MODWHITTLE_THREADS={text!r} is not an integer") from None
        if threads < 1:
            raise UsageError(f"the thread count must be at least 1, not {threads}")
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        outputs = _VERBS[args.verb](cfg, args.output, seed, threads)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, TypeError) as exc:
        print(f"config error: {exc!r}", file=sys.stderr)
        return 1
    except (FitFailure, SimulationError, ValueError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    outputs[f"{args.output}.manifest.json"] = _manifest(
        args.verb, cfg_text, seed, outputs)
    for path, payload in outputs.items():
        _atomic_write(path, payload)
    if args.verbose:
        for path in sorted(outputs):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
