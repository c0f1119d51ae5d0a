"""Exact simulation of latent and modulated processes, plus the Monte Carlo
study harness producing bias/variance/MSE tables.

Simulation notes
----------------
* Complex normal N_C(0, s^2) means independent real and imaginary parts each
  of variance s^2/2.
* The frequency-modulated complex AR(1) is generated through its modulated
  representation: a stationary complex AR(1) driven by fresh proper noise,
  multiplied by the unit-modulus modulator.  This is identical in law to the
  literal rotation recursion (and identical path-wise when the innovations
  are rotated accordingly, which the tests exercise).
* Per-replicate RNG streams come from SeedSequence spawn keys of the master
  seed, so parallel execution order can never change results.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from functools import partial

import numpy as np

from .core import ParameterVector, Series
from .likelihood import Objective
from .models import LatentModel, ar_model, autocov_sequence, car1_model
from .modulation import (
    LinearRampKernel,
    cosine_bernoulli_mask,
    frequency_modulator,
    linear_beta,
    linear_ramp,
)
from .optimize import FitFailure, FitResult, fit, mom_ar1, mom_car1

__all__ = [
    "SimulationError",
    "simulate_ar",
    "simulate_complex_ar1",
    "simulate_from_acv",
    "bounded_random_walk_beta",
    "McStudy",
    "McReport",
    "run_study",
    "worker_pool",
]

# thread-count variables of OpenMP, OpenBLAS and MKL, set to 1 in pool workers
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# a bounded random walk takes this many scalar steps after each clamp, and
# sums at most WALK_WINDOW steps per cumsum, so a clamp costs O(WALK_WINDOW)
WALL_STEPS = 32
WALK_WINDOW = 512


class SimulationError(RuntimeError):
    pass


def _rng_of(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def complex_normal(rng: np.random.Generator, size, variance: float = 1.0) -> np.ndarray:
    """Proper complex Gaussian draws with E|z|^2 = variance."""
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def simulate_ar(model: LatentModel, n: int, seed) -> Series:
    """Exact draw of a real AR(p) or MA(q) sample with stationary start."""
    from scipy.signal import lfilter, lfiltic  # a slow import, needed only here

    if model.family not in ("ar", "ma"):
        raise ValueError("simulate_ar handles the real ar/ma families")
    rng = _rng_of(seed)
    coefs = model.params.values[:-1]
    sigma = float(model.params.values[-1])
    if model.family == "ma":
        q = coefs.size
        eps = rng.standard_normal(n + q)
        psi = sigma * np.concatenate(([1.0], coefs))
        x = np.convolve(eps, psi, mode="full")[q: q + n]
        return Series(x, delta=model.delta, kind="real")
    p = coefs.size
    if sigma == 0.0:
        return Series(np.zeros(n), delta=model.delta, kind="real")
    if p == 0:
        return Series(sigma * rng.standard_normal(n), delta=model.delta, kind="real")
    # first p values from the exact stationary covariance, then the recursion
    head_cov = np.asarray(autocov_sequence(model, p))
    cov = head_cov[np.abs(np.subtract.outer(np.arange(p), np.arange(p)))]
    head = np.linalg.cholesky(cov) @ rng.standard_normal(p)
    if n <= p:
        return Series(head[:n], delta=model.delta, kind="real")
    eps = sigma * rng.standard_normal(n - p)
    b = [1.0]
    a = np.concatenate(([1.0], -coefs))
    zi = lfiltic(b, a, y=head[::-1])
    tail, _ = lfilter(b, a, eps, zi=zi)
    return Series(np.concatenate((head, tail)), delta=model.delta, kind="real")


def simulate_complex_ar1(r: float, sigma: float, beta, n: int, seed) -> Series:
    """Draw z_t = r e^{i beta_t} z_{t-1} + eps_t with stationary start.

    beta supplies the rotations for transitions t = 1..n-1 (length n-1, or
    length n in which case beta[0] is ignored); eps_t is proper complex with
    variance sigma^2 and z_0 ~ N_C(0, sigma^2/(1-r^2)).
    """
    from scipy.signal import lfilter

    if not (0.0 <= r < 1.0):
        raise ValueError("requires 0 <= r < 1")
    if sigma <= 0:
        raise ValueError("requires sigma > 0")
    beta = np.asarray(beta, dtype=float)
    if beta.size == n:
        beta = beta[1:]
    if beta.size != n - 1:
        raise ValueError("need one rotation per transition (length n-1)")
    rng = _rng_of(seed)
    z0 = complex_normal(rng, (), sigma * sigma / (1.0 - r * r))
    eps = complex_normal(rng, n - 1, sigma * sigma)
    x = np.concatenate(([z0], eps))
    latent = lfilter([1.0], [1.0, -r], x)
    g = frequency_modulator(beta).g
    return Series(g * latent, delta=1.0, kind="complex")


def simulate_from_acv(acv, n: int, seed, kind: str = "real") -> Series:
    """Exact Gaussian draw with a given autocovariance via circulant embedding.

    kind "real" needs a real acv; kind "complex" draws a proper complex
    process with E{z_t conj(z_{t+tau})} = conj(acv(tau)).  Falls back to a
    dense Cholesky (n <= 2048) when the minimal embedding is not PSD.
    """
    acv = np.asarray(acv)
    if acv.size < n:
        raise ValueError("need autocovariances at lags 0..n-1")
    if kind == "real" and np.iscomplexobj(acv) and np.any(acv.imag != 0):
        raise ValueError("real simulation needs a real autocovariance")
    rng = _rng_of(seed)
    c = np.asarray(acv[:n], dtype=complex)
    if n == 1:
        val = complex_normal(rng, (), float(c[0].real))
        return (Series(np.array([np.sqrt(2.0) * val.real]), kind="real")
                if kind == "real" else Series(np.array([val]), kind="complex"))
    ring = np.concatenate((c, np.conj(c[-2:0:-1])))
    lam = np.fft.fft(ring).real
    m = ring.size
    if np.min(lam) >= -1e-10 * max(np.max(lam), 1.0):
        lam = np.maximum(lam, 0.0)
        w = complex_normal(rng, m, 1.0)
        x = np.sqrt(m) * np.fft.ifft(np.sqrt(lam) * w)
        z = x[:n]
    else:
        if n > 2048:
            raise SimulationError("embedding not PSD and n too large for Cholesky")
        lagmat = np.subtract.outer(np.arange(n), np.arange(n))
        cmat = np.where(lagmat >= 0, c[np.abs(lagmat)], np.conj(c[np.abs(lagmat)]))
        try:
            chol = np.linalg.cholesky(cmat)
        except np.linalg.LinAlgError as exc:
            raise SimulationError("autocovariance is not positive definite") from exc
        z = chol @ complex_normal(rng, n, 1.0)
    if kind == "real":
        return Series(np.sqrt(2.0) * z.real, kind="real")
    return Series(z, kind="complex")


def bounded_random_walk_beta(gamma: float, span: float, amp: float, n: int, seed) -> np.ndarray:
    """Random-walk frequencies clamped to [gamma-span, gamma+span].

    beta_0 = clamp(gamma + amp*e_0), beta_t = clamp(beta_{t-1} + amp*e_t)
    with standard normal e_t.  Between clamps the walk is a sequential
    cumsum from the last value (over at most WALK_WINDOW steps at a time),
    which adds in the recursion's order, so the result is bit-identical to
    the recursion.  Clamps come in clusters at a bound, so after each one
    the next WALL_STEPS values take the scalar recursion before the cumsum
    restarts.
    """
    if span <= 0 or amp < 0:
        raise ValueError("requires span > 0 and amp >= 0")
    rng = _rng_of(seed)
    steps = amp * rng.standard_normal(n)
    lo, hi = gamma - span, gamma + span
    out = np.empty(n)
    t, prev = 0, gamma
    while t < n:
        walk = steps[t:t + WALK_WINDOW].copy()
        walk[0] += prev  # (prev + s_t) + s_{t+1} + ..., the recursion's order
        walk = np.cumsum(walk)
        outside = np.flatnonzero((walk < lo) | (walk > hi))
        stop = outside[0] if outside.size else walk.size
        out[t:t + stop] = walk[:stop]
        if stop:
            prev = walk[stop - 1]
        t += stop
        if not outside.size:
            continue
        near = steps[t:t + WALL_STEPS].tolist()
        for i, step in enumerate(near):
            prev = near[i] = min(max(prev + step, lo), hi)
        out[t:t + len(near)] = near
        t += len(near)
    return out


# ----------------------------------------------------------------------
# Monte Carlo studies
# ----------------------------------------------------------------------

@dataclass
class McStudy:
    """Specification of one bias/variance/MSE simulation study.

    kind selects the generating process and the meaning of `process`:
      ar1-bernoulli-mask : real AR(1) observed through a random cosine-
                           Bernoulli mask; process = {mean_p, amp_p, omega_p}
      car1-bounded-walk  : complex AR(1) with bounded-random-walk rotations;
                           process = {gamma, span, amp}
      car1-linear-beta   : complex AR(1) with a linear rotation ramp whose
                           (gamma, span) are estimated alongside (r, sigma)
    """

    kind: str
    true_params: dict
    process: dict
    estimators: list
    n_grid: list
    replicates: int
    seed: int = 0
    fit_options: dict = field(default_factory=dict)

    def __post_init__(self):
        known = sorted(est for kind, est in ESTIMATORS if kind == self.kind)
        unknown = sorted(set(self.estimators) - set(known))
        if unknown or not known:
            raise ValueError(f"unknown estimator(s) {unknown} for study kind "
                             f"{self.kind!r}, whose estimators are {known}")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_dict(obj: dict) -> "McStudy":
        fields = {k: obj[k] for k in ("kind", "true_params", "process",
                                      "estimators", "n_grid", "replicates")}
        return McStudy(seed=int(obj.get("seed", 0)),
                       fit_options=dict(obj.get("fit_options", {})), **fields)


@dataclass
class McReport:
    """Aggregated study output: one row per (estimator, N, parameter).

    failures, nonconverged and abnormal count, per 'estimator@N', the fits
    that raised, the fits that ended without the optimizer reporting
    convergence, and the fits whose final message is L-BFGS-B's abnormal
    line-search stop ("ABNORMAL...", which may still count as converged;
    see :func:`~modwhittle.optimize.fit`).
    """

    rows: list
    failures: dict
    replicates: int
    nonconverged: dict
    abnormal: dict

    def as_csv_rows(self) -> list:
        head = ["estimator", "N", "param", "bias", "var", "mse", "cpu"]
        out = [head]
        for r in self.rows:
            out.append([r["estimator"], r["N"], r["param"], r["bias"],
                        r["var"], r["mse"], r["cpu"]])
        return out

    def row(self, estimator: str, n: int, param: str) -> dict:
        for r in self.rows:
            if r["estimator"] == estimator and r["N"] == n and r["param"] == param:
                return r
        raise KeyError((estimator, n, param))


def _rep_seed(master: int, n: int, rep: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master, spawn_key=(n, rep))


def _simulate_case(study: McStudy, n: int, rep: int):
    """Returns (data, aux) for one replicate; aux carries the known modulator."""
    ss = _rep_seed(study.seed, n, rep)
    child_mod, child_noise = ss.spawn(2)
    p = study.true_params
    if study.kind == "ar1-bernoulli-mask":
        pr = study.process
        mask_seed = int(child_mod.generate_state(1, np.uint64)[0])
        mask = cosine_bernoulli_mask(pr["mean_p"], pr["amp_p"], pr["omega_p"],
                                     n, seed=mask_seed)
        latent = simulate_ar(ar_model([p["a"]], p["sigma"]), n,
                             np.random.default_rng(child_noise))
        data = Series(mask.g * latent.values, kind="real")
        return data, {"modulator": mask}
    if study.kind == "car1-bounded-walk":
        pr = study.process
        beta = bounded_random_walk_beta(pr["gamma"], pr["span"], pr["amp"], n,
                                        np.random.default_rng(child_mod))[1:]
    else:  # car1-linear-beta: McStudy admits no other kind
        beta = linear_beta(p["gamma"], p["span"], n)
    data = simulate_complex_ar1(p["r"], p["sigma"], beta, n,
                                np.random.default_rng(child_noise))
    return data, {"beta": beta}


# Table 2's (gamma, span) start scans span over this many points in (0, pi)
SPAN_GRID = 128


def _ar1_init(data: Series, cg) -> ParameterVector:
    # both ar1-bernoulli-mask estimators report the study's (a, sigma), a in (-1, 1)
    return ParameterVector(["a", "sigma"], mom_ar1(data, cg),
                           lower=[-1.0, 0.0], upper=[1.0, np.inf])


def _mask_modulated(data: Series, aux: dict):
    obj = Objective("modulated-whittle", data, ar_model([0.5], 1.0),
                    modulator=aux["modulator"], check_significance=False)
    return obj, _ar1_init(data, obj.cgs[0])


def _mask_stationary(data: Series, aux: dict):
    return Objective("whittle", data, ar_model([0.5], 1.0)), _ar1_init(data, None)


def _walk_modulated(data: Series, aux: dict):
    obj = Objective("modulated-whittle", data, car1_model(0.5, 1.0),
                    modulator=frequency_modulator(aux["beta"]),
                    check_significance=False)
    return obj, obj.init_params.replace(mom_car1(data, obj.cgs[0]))


def _walk_stationary(data: Series, aux: dict):
    obj = Objective("whittle", data,
                    car1_model(0.5, 1.0, rotation=float(np.mean(aux["beta"]))))
    return obj, obj.init_params.replace(mom_car1(data))


def _car1_start(y: np.ndarray, lag1: complex, shrink: float) -> tuple[float, float]:
    """(r, sigma) starts from the lag-0 moment and a lag-1 one, |lag1| / shrink."""
    c0 = float(np.mean(np.abs(y) ** 2))
    r0 = float(np.clip(np.abs(lag1) / (shrink * c0), 0.05, 0.99))
    return r0, float(np.sqrt(max(c0 * (1.0 - r0 * r0), 1e-10)))


def _ramp_start(data: Series) -> np.ndarray:
    """(r, sigma, gamma, span) start of a car1 under a linear rotation ramp.

    z_t conj(z_{t-1}) turns by about gamma + span ramp_t (see
    :func:`~modwhittle.modulation.linear_ramp`); so the lag-1 moment (1/N)
    sum_t conj(z_{t-1}) z_t e^{-i s ramp_t} peaks in modulus near s = span,
    at about r c(0) e^{i gamma}.  s is scanned over SPAN_GRID midpoints of
    (0, pi); gamma is the phase of the moment at the best s, and r its
    modulus over c(0).
    """
    y = np.asarray(data.values)
    n = y.size
    ramp = linear_ramp(n)
    spans = (np.arange(SPAN_GRID) + 0.5) * np.pi / SPAN_GRID
    # the terms at span s_k, by one rotation per grid step from s_0
    term = np.exp(-1j * spans[0] * ramp) * np.conj(y[:-1]) * y[1:]
    step = np.exp(-1j * (spans[1] - spans[0]) * ramp)
    sums = np.empty(SPAN_GRID, dtype=complex)
    for k in range(SPAN_GRID):
        sums[k] = term.sum()
        term *= step
    best = int(np.argmax(np.abs(sums)))
    return np.array([*_car1_start(y, sums[best] / n, 1.0),
                     np.angle(sums[best]), spans[best]])


def _ramp_kernel(kind: str, data: Series, aux: dict):
    """Table 2's exact or modulated-Whittle estimator: the objective of kind
    over a car1 latent under a :class:`LinearRampKernel`."""
    r0, sigma0, gamma0, span0 = _ramp_start(data)
    obj = Objective(kind, data, car1_model(r0, sigma0),
                    modulator=LinearRampKernel(len(data), gamma0, span0))
    return obj, obj.init_params


def _ramp_stationary(data: Series, aux: dict):
    y = np.asarray(data.values)
    lag1 = np.sum(np.conj(y[:-1]) * y[1:]) / y.size
    obj = Objective("whittle", data,
                    car1_model(*_car1_start(y, lag1, 0.95), gamma=float(np.angle(lag1))))
    return obj, obj.init_params


# (study kind, estimator) -> factory (data, aux) -> (objective, init)
ESTIMATORS = {
    ("ar1-bernoulli-mask", "modulated"): _mask_modulated,
    ("ar1-bernoulli-mask", "stationary"): _mask_stationary,
    ("car1-bounded-walk", "modulated"): _walk_modulated,
    ("car1-bounded-walk", "stationary"): _walk_stationary,
    ("car1-linear-beta", "modulated"): partial(_ramp_kernel, "modulated-whittle"),
    ("car1-linear-beta", "exact"): partial(_ramp_kernel, "exact"),
    ("car1-linear-beta", "stationary"): _ramp_stationary,
}


def _fit_estimator(study: McStudy, estimator: str, data: Series, aux: dict) -> FitResult:
    """Fit one estimator to one replicate."""
    objective, init = ESTIMATORS[(study.kind, estimator)](data, aux)
    return fit(objective, init, **study.fit_options)


def _run_chunk(study_dict: dict, n: int, reps: list) -> list:
    """Worker: run a chunk of replicates, return raw per-fit records."""
    study = McStudy.from_json_dict(study_dict)
    out = []
    for rep in reps:
        data, aux = _simulate_case(study, n, rep)
        rec = {}
        for est in study.estimators:
            t0 = time.perf_counter()
            try:
                res = _fit_estimator(study, est, data, aux)
                rec[est] = {"names": list(res.theta_hat.names),
                            "values": [float(v) for v in res.theta_hat.values],
                            "cpu": res.wall_time,
                            "converged": res.converged,
                            "abnormal": res.message.startswith("ABNORMAL")}
            except (FitFailure, ValueError, np.linalg.LinAlgError) as exc:
                rec[est] = {"error": f"{type(exc).__name__}: {exc}",
                            "cpu": time.perf_counter() - t0}
        out.append((rep, rec))
    return out


@contextmanager
def worker_pool(workers: int):
    """A process pool whose workers run BLAS and OpenMP on one thread each.

    Workers are started with ``spawn`` while the BLAS_THREAD_VARS are set to
    1, so their BLAS pools start single-threaded: L-BFGS-B makes a BLAS call
    on every iteration, and with several fitting processes on the cores an
    unpinned BLAS spends more time handing work between its threads than
    fitting.  The caller's environment is restored when the pool closes.
    """
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def run_study(study: McStudy, threads: int = 1) -> McReport:
    """Run all replicates of a study and aggregate bias/variance/MSE/CPU.

    Deterministic for a fixed master seed regardless of `threads`; individual
    fit failures are excluded and counted, and more than 1% of failures for
    any estimator fails the study.  Fits that end without convergence are
    kept and counted in ``McReport.nonconverged``.
    """
    if study.replicates < 1:
        raise ValueError("need at least one replicate")
    study_dict = study.to_json_dict()
    reps = list(range(study.replicates))
    records = {}
    if threads > 1:
        chunks = [c for c in (reps[i::threads] for i in range(threads)) if c]
        with worker_pool(len(chunks)) as pool:
            for n in study.n_grid:
                parts = pool.map(_run_chunk, [study_dict] * len(chunks),
                                 [n] * len(chunks), chunks)
                records[n] = [item for part in parts for item in part]
    else:
        for n in study.n_grid:
            records[n] = _run_chunk(study_dict, n, reps)
    for merged in records.values():
        merged.sort(key=lambda item: item[0])

    rows = []
    failures = {}
    nonconverged = {}
    abnormal = {}
    for n in study.n_grid:
        for est in study.estimators:
            fits = [rec[est] for _, rec in records[n]]
            good = [f for f in fits if "error" not in f]
            bad = [f for f in fits if "error" in f]
            failures[f"{est}@{n}"] = len(bad)
            nonconverged[f"{est}@{n}"] = sum(not f["converged"] for f in good)
            abnormal[f"{est}@{n}"] = sum(f["abnormal"] for f in good)
            if len(bad) / study.replicates >= 0.01 and len(bad) > 0:
                raise RuntimeError(
                    f"estimator {est!r} failed on {len(bad)}/{study.replicates} "
                    f"replicates at N={n}; first error: {bad[0]['error']}")
            if not good:
                raise RuntimeError(f"estimator {est!r} produced no fits at N={n}")
            names = good[0]["names"]
            cpu = float(np.mean([g["cpu"] for g in good]))
            values = np.array([g["values"] for g in good])
            for j, name in enumerate(names):
                if name not in study.true_params:
                    continue
                est_vals = values[:, j]
                truth = float(study.true_params[name])
                bias = float(np.mean(est_vals) - truth)
                var = float(np.var(est_vals))
                mse = float(np.mean((est_vals - truth) ** 2))
                rows.append({"estimator": est, "N": n, "param": name,
                             "bias": bias, "var": var, "mse": mse, "cpu": cpu})
    return McReport(rows=rows, failures=failures, replicates=study.replicates,
                    nonconverged=nonconverged, abnormal=abnormal)
