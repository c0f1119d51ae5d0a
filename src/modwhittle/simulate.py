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

import math
import multiprocessing
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .core import ParameterVector, Series
from .likelihood import Objective
from .models import LatentModel, ar_model, autocov_sequence, car1_model
from .modulation import (
    LinearRampKernel,
    Modulator,
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
    """Exact draw of a real AR(1) or white-noise sample with stationary start:
    x_0 = sqrt(c(0)) e_0, then x_t = phi_1 x_{t-1} + sigma e_t."""
    # scipy.signal costs about 0.4 s and 49 MB to import, so it is imported
    # here, where the Table 3 paths need lfilter's literal recursion bit for
    # bit (the doubling scan of _ar1_scan rounds differently)
    from scipy.signal import lfilter

    if model.family != "ar":
        raise ValueError("simulate_ar handles the real ar family")
    rng = _rng_of(seed)
    sigma = model.value("sigma")
    if sigma == 0.0:
        return Series(np.zeros(n), delta=model.delta, kind="real")
    if len(model.params) == 1:
        return Series(sigma * rng.standard_normal(n), delta=model.delta, kind="real")
    phi = model.value("phi1")
    head = math.sqrt(autocov_sequence(model, 1)[0]) * rng.standard_normal(1)
    if n <= 1:
        return Series(head[:n], delta=model.delta, kind="real")
    eps = sigma * rng.standard_normal(n - 1)
    tail, _ = lfilter([1.0], [1.0, -phi], eps, zi=[phi * head[0]])
    return Series(np.concatenate((head, tail)), delta=model.delta, kind="real")


def _ar1_scan(x: np.ndarray, r: float) -> np.ndarray:
    """y_t = r y_{t-1} + x_t from y_0 = x_0, for real r, by doubling.

    After the pass with stride k, y_t sums r^j x_{t-j} over j < 2k: each
    pass adds p = r^k times the sums k steps back, then squares p, so
    log2(N) whole-array passes replace the N-step loop.  The scan stops
    early once |p| <= 2^-60, where what it leaves out is below rounding.
    """
    y = np.array(x)
    k, p = 1, r
    while k < y.size and abs(p) > 2.0 ** -60:
        y[k:] += p * y[:-k]
        k, p = 2 * k, p * p
    return y


def simulate_complex_ar1(r: float, sigma: float, beta, n: int, seed) -> Series:
    """Draw z_t = r e^{i beta_t} z_{t-1} + eps_t with stationary start.

    beta supplies the rotations for transitions t = 1..n-1 (length n-1, or
    length n in which case beta[0] is ignored), or their length-n
    :func:`~modwhittle.modulation.frequency_modulator`, which a caller that
    fits under it builds once for both; eps_t is proper complex with
    variance sigma^2 and z_0 ~ N_C(0, sigma^2/(1-r^2)).
    """
    if not (0.0 <= r < 1.0):
        raise ValueError("requires 0 <= r < 1")
    if sigma <= 0:
        raise ValueError("requires sigma > 0")
    mod = beta
    if not isinstance(mod, Modulator):
        beta = np.asarray(beta, dtype=float)
        mod = frequency_modulator(beta[1:] if beta.size == n else beta)
    if mod.n != n:
        raise ValueError("need one rotation per transition (length n-1), "
                         "or a modulator of length n")
    rng = _rng_of(seed)
    z0 = complex_normal(rng, (), sigma * sigma / (1.0 - r * r))
    eps = complex_normal(rng, n - 1, sigma * sigma)
    latent = _ar1_scan(np.concatenate(([z0], eps)), r)
    return Series(mod.g * latent, delta=1.0, kind="complex")


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
        for name, items in (("estimators", self.estimators), ("n_grid", self.n_grid)):
            if not items or len(set(items)) < len(items):
                raise ValueError(f"{name} must be non-empty and free of repeats, not {items!r}")
        for name, v, least in [*(("each N", n, 2) for n in self.n_grid),
                               ("replicates", self.replicates, 1)]:
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < least:
                raise ValueError(f"{name} must be an integer >= {least}, not {v!r}")

    @staticmethod
    def from_json_dict(obj: dict) -> "McStudy":
        """The study of a JSON config; a key that is not a field raises ValueError."""
        names = [f.name for f in fields(McStudy)]
        if set(obj) - set(names):
            raise ValueError(f"unknown study key(s) {sorted(set(obj) - set(names))}")
        given = {k: obj[k] for k in ("kind", "true_params", "process",
                                     "estimators", "n_grid", "replicates")}
        return McStudy(seed=int(obj.get("seed", 0)),
                       fit_options=dict(obj.get("fit_options", {})), **given)


@dataclass
class McReport:
    """Aggregated study output: one row per (estimator, N, parameter).

    failures, nonconverged and abnormal count, per 'estimator@N', the fits
    that raised, the fits that ended without the optimizer reporting
    convergence, and the fits whose final message is L-BFGS-B's abnormal
    line-search stop ("ABNORMAL...", which may still count as converged;
    see :func:`~modwhittle.optimize.fit`).  cost gives, per 'estimator@N',
    the mean objective evaluations (``evals_per_fit``) and
    :attr:`~modwhittle.optimize.FitResult.starts` (``starts_per_fit``) of the
    fits that did not raise: counts that, unlike ``cpu``, do not depend on
    the host.
    """

    rows: list
    failures: dict
    replicates: int
    nonconverged: dict
    abnormal: dict
    cost: dict = field(default_factory=dict)

    def as_csv_rows(self) -> list:
        head = ["estimator", "N", "param", "bias", "var", "mse", "cpu"]
        return [head] + [[r[k] for k in head] for r in self.rows]

    def row(self, estimator: str, n: int, param: str) -> dict:
        for r in self.rows:
            if r["estimator"] == estimator and r["N"] == n and r["param"] == param:
                return r
        raise KeyError((estimator, n, param))


def _rep_seed(master: int, n: int, rep: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master, spawn_key=(n, rep))


def _simulate_case(study: McStudy, n: int, rep: int):
    """Returns (data, aux) for one replicate; aux carries the known modulator
    (a car1 study's frequency modulator, built once for the draw and the
    fit, beside its rotations beta)."""
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
    mod = frequency_modulator(beta)
    data = simulate_complex_ar1(p["r"], p["sigma"], mod, n,
                                np.random.default_rng(child_noise))
    return data, {"beta": beta, "modulator": mod}


# Table 2's (gamma, span) start scans span over this many points in (0, pi)
SPAN_GRID = 128


def _ar1_init(values) -> ParameterVector:
    # both ar1-bernoulli-mask estimators report the study's (a, sigma), a in (-1, 1)
    return ParameterVector(["a", "sigma"], values, lower=[-1.0, 0.0], upper=[1.0, np.inf])


def _mask_modulated(data: Series, aux: dict):
    obj = Objective("modulated-whittle", data, ar_model([0.5], 1.0),
                    modulator=aux["modulator"], check_significance=False)
    return obj, _ar1_init(mom_ar1(data, obj.cgs[0]))


def _mask_stationary(data: Series, aux: dict):
    # the pole is a, clipped as mom_ar1 clips it
    obj = Objective("whittle", data, ar_model([0.5], 1.0))
    return obj, _ar1_init(obj.whittle_start(-0.985, 0.985))


def _walk_modulated(data: Series, aux: dict):
    obj = Objective("modulated-whittle", data, car1_model(0.5, 1.0),
                    modulator=aux["modulator"], check_significance=False)
    return obj, obj.init_params.replace(mom_car1(data, obj.cgs[0]))


def _walk_stationary(data: Series, aux: dict):
    # the pole is r e^{-i rho} at the walk's mean rotation rho, r clipped as
    # mom_car1 clips it
    obj = Objective("whittle", data,
                    car1_model(0.5, 1.0, rotation=float(np.mean(aux["beta"]))))
    return obj, obj.init_params.replace(obj.whittle_start(1e-3, 0.995))


def _car1_start(y: np.ndarray, lag1: complex) -> tuple[float, float]:
    """(r, sigma) starts from the lag-0 moment and a lag-1 one."""
    c0 = float(np.mean(np.abs(y) ** 2))
    r0 = float(np.clip(np.abs(lag1) / c0, 0.05, 0.99))
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
    return np.array([*_car1_start(y, sums[best] / n),
                     np.angle(sums[best]), spans[best]])


def _ramp_kernel(kind: str, data: Series, aux: dict):
    """Table 2's exact or modulated-Whittle estimator: the objective of kind
    over a car1 latent under a :class:`LinearRampKernel`."""
    r0, sigma0, gamma0, span0 = _ramp_start(data)
    obj = Objective(kind, data, car1_model(r0, sigma0),
                    modulator=LinearRampKernel(len(data), gamma0, span0))
    return obj, obj.init_params


def _ramp_stationary(data: Series, aux: dict):
    obj = Objective("whittle", data, car1_model(0.5, 1.0, gamma=0.0))
    return obj, obj.init_params.replace(obj.whittle_start(1e-3, 0.995))


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


def _run_chunk(study: McStudy, n: int, reps: list) -> list:
    """Worker: run a chunk of replicates, return raw per-fit records."""
    out = []
    for rep in reps:
        data, aux = _simulate_case(study, n, rep)
        rec = {}
        for est in study.estimators:
            t0 = time.perf_counter()
            try:
                res = _fit_estimator(study, est, data, aux)
                rec[est] = {"names": res.theta_hat.names,
                            "values": res.theta_hat.values.tolist(),
                            "cpu": res.wall_time,
                            "converged": res.converged,
                            "abnormal": res.message.startswith("ABNORMAL"),
                            "n_evals": res.n_evals,
                            "n_starts": res.starts}
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

    Deterministic for a fixed master seed regardless of `threads` (spawned
    workers get the study pickled); individual fit failures are excluded and
    counted, and more than 1% of failures for any estimator fails the study.
    Fits that end without convergence are kept and counted in
    ``McReport.nonconverged``.  Each estimator@N is reduced along the rows of
    one C-contiguous (parameters x replicates) array, bit for bit numpy's
    ``mean``/``var`` of each column (a transposed view sums in another order).
    """
    reps = list(range(study.replicates))
    records = {}
    if threads > 1:
        chunks = [c for c in (reps[i::threads] for i in range(threads)) if c]
        with worker_pool(len(chunks)) as pool:
            for n in study.n_grid:
                parts = pool.map(_run_chunk, [study] * len(chunks),
                                 [n] * len(chunks), chunks)
                records[n] = sorted((item for part in parts for item in part),
                                    key=lambda item: item[0])
    else:
        for n in study.n_grid:
            records[n] = _run_chunk(study, n, reps)

    rows = []
    failures = {}
    nonconverged = {}
    abnormal = {}
    cost = {}
    for n in study.n_grid:
        for est in study.estimators:
            key = f"{est}@{n}"
            fits = [rec[est] for _, rec in records[n]]
            good = [f for f in fits if "error" not in f]
            bad = [f for f in fits if "error" in f]
            failures[key] = len(bad)
            nonconverged[key] = sum(not f["converged"] for f in good)
            abnormal[key] = sum(f["abnormal"] for f in good)
            if len(bad) / study.replicates >= 0.01 and len(bad) > 0:
                raise RuntimeError(
                    f"estimator {est!r} failed on {len(bad)}/{study.replicates} "
                    f"replicates at N={n}; first error: {bad[0]['error']}")
            if not good:
                raise RuntimeError(f"estimator {est!r} produced no fits at N={n}")
            # plain sums: over a few fits numpy's call overhead would dominate
            cost[key] = {
                "evals_per_fit": sum(f["n_evals"] for f in good) / len(good),
                "starts_per_fit": sum(f["n_starts"] for f in good) / len(good)}
            kept = [(j, name) for j, name in enumerate(good[0]["names"])
                    if name in study.true_params]
            # the parameters' rows, then the CPU times; np.mean and np.var's
            # own steps, a sum along the row over R, for all rows at once
            table = np.array([[g["values"][j] for g in good] for j, _ in kept]
                             + [[g["cpu"] for g in good]])
            truth = np.array([float(study.true_params[name]) for _, name in kept])
            mean = np.add.reduce(table, axis=1) / len(good)
            dev = np.concatenate((table[:-1] - mean[:-1, None], table[:-1] - truth[:, None]))
            var_mse = (np.add.reduce(dev ** 2, axis=1) / len(good)).tolist()
            for (_, name), b, v, e in zip(kept, (mean[:-1] - truth).tolist(),
                                          var_mse, var_mse[len(kept):]):
                rows.append({"estimator": est, "N": n, "param": name, "bias": b,
                             "var": v, "mse": e, "cpu": float(mean[-1])})
    return McReport(rows=rows, failures=failures, replicates=study.replicates,
                    nonconverged=nonconverged, abnormal=abnormal, cost=cost)
