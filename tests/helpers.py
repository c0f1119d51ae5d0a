"""Helpers shared by the test modules: random models and modulators for
property-style tests, the closed-form sdf of an ar or car1, the first
replicate of a bundled study, a count of numpy.fft calls, a
central-difference check of an objective's score, and a Nelder-Mead
reference fit."""

import json
import os

import numpy as np

import modwhittle
from modwhittle import (
    ar_model,
    bernoulli_mask,
    car1_model,
    frequency_modulator,
    periodic_missing_mask,
)
from modwhittle.simulate import McStudy, _simulate_case


def random_model(rng, families=("ar", "car1")):
    kind = rng.choice(families)
    if kind == "ar":
        return ar_model([rng.uniform(-0.9, 0.9)], rng.uniform(0.5, 2.0))
    return car1_model(rng.uniform(0.0, 0.95), rng.uniform(0.5, 2.0))


def random_modulator(rng, n, kinds=("constant", "periodic", "bernoulli", "frequency")):
    kind = rng.choice(kinds)
    if kind == "constant":
        from modwhittle import constant_modulator
        return constant_modulator(n, rng.uniform(0.5, 2.0))
    if kind == "periodic":
        return periodic_missing_mask(int(rng.integers(1, 5)), int(rng.integers(0, 3)), n)
    if kind == "bernoulli":
        mod = bernoulli_mask(rng.uniform(0.4, 1.0), seed=int(rng.integers(1 << 31)), n=n)
        if mod.g.sum() == 0:
            return periodic_missing_mask(1, 1, n)
        return mod
    return frequency_modulator(rng.uniform(-0.8, 0.8, size=n - 1))


def sdf(model, omega, grad=False):
    """f_X(omega) = sigma^2 / D, D = |1 - z e^{i omega}|^2, of an ar or car1
    model, with z = r e^{-i rho}: r = phi and rho = 0 for an ar, rho a
    car1's free rotation gamma or else its fixed one.  z is formed from the
    model's own parameters, not through ``models.pole_entry``.  With grad it
    returns (f, rows), the rows in the model's parameters and their order:
    df/dsigma = 2 f / sigma, df/dr = 2 f (cos(omega - rho) - r) / D and
    df/dgamma = 2 r f sin(omega - rho) / D."""
    p = dict(zip(model.params.names, model.params.values))
    r = p.get("phi1", p.get("r", 0.0))
    rho = p.get("gamma", model.rotation if model.family == "car1" else 0.0)
    turn = np.asarray(omega, dtype=float) - rho
    denom = np.abs(1.0 - r * np.exp(1j * turn)) ** 2
    f = p["sigma"] ** 2 / denom
    if not grad:
        return f
    rows = {"sigma": 2.0 * f / p["sigma"], "gamma": 2.0 * r * f * np.sin(turn) / denom}
    rows["phi1"] = rows["r"] = 2.0 * f * (np.cos(turn) - r) / denom
    return f, np.array([rows[name] for name in model.params.names])


def first_replicate(config: str, n: int):
    """(study, data, aux) of replicate 0 at N = n of the bundled study config."""
    path = os.path.join(os.path.dirname(modwhittle.__file__), "configs", config + ".json")
    with open(path) as fh:
        study = McStudy.from_json_dict(json.load(fh))
    return (study, *_simulate_case(study, n, 0))


def counted_transforms(monkeypatch) -> list:
    """The list that each later numpy.fft call appends its (function, length)
    to, or for a batch of transforms along the last axis of a 2-D array its
    (function, length, rows)."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(a, n=None, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            shape = np.shape(a)
            call = (_name, shape[-1] if n is None else n)
            calls.append(call + shape[:1] if len(shape) == 2 else call)
            return _fn(a, n, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def central_difference(f, theta, j):
    """Richardson-extrapolated central difference of f along theta_j."""
    def cd(e):
        up = np.array(theta, dtype=float)
        dn = np.array(theta, dtype=float)
        up[j] += e
        dn[j] -= e
        return (f(up) - f(dn)) / (2.0 * e)

    e = 1e-4 * max(1.0, abs(theta[j]))
    return (4.0 * cd(e / 2.0) - cd(e)) / 3.0


def assert_gradient_matches(obj, theta, rtol=1e-6):
    value, grad = obj.value_and_grad(theta)
    assert value == obj(theta)
    fd = np.array([central_difference(obj, theta, j) for j in range(len(theta))])
    assert np.all(np.abs(grad - fd) <= rtol * np.abs(fd)), (grad, fd)


def simplex_fit(objective, init, lower=None, upper=None, *, n_starts=2,
                max_iter=None, seed=0):
    """A reference fit by scipy's Nelder-Mead alone, with
    :func:`modwhittle.optimize.fit`'s signature and result, for tests that
    check a fit ends no higher than a simplex on the same objective.

    It searches both of the starts ``fit`` may search (the init and, with
    n_starts >= 2, its seeded perturbation in ``optimize.transform`` space,
    which ``fit`` searches only as a retry after a failed first start), so
    it is the stricter reference, and runs in that space,
    from a first simplex that moves each coordinate by 5% (by 0.05 where it
    is 0), to an objective spread of 1e-10 and a parameter spread of 1e-7.
    An objective with a ``scale_index`` whose bounds are (<= 0, inf) is
    searched with that scale concentrated out by ``Objective.profile``.
    """
    from scipy.optimize import minimize

    from modwhittle.core import ParameterVector
    from modwhittle.optimize import FitResult, _bounds_of, inverse_transform, transform

    names, values, fit_lo, fit_hi = _bounds_of(objective, init, lower, upper)
    k = getattr(objective, "scale_index", None)
    lo, hi, f = fit_lo, fit_hi, objective
    if k is not None and lo[k] <= 0.0 and hi[k] == np.inf:
        values, lo, hi = (np.delete(a, k) for a in (values, lo, hi))
        def f(theta):
            return objective.profile(theta, False)[0]
    else:
        k = None
    d = values.size
    max_iter = max_iter or 2000 * d
    starts = [values]
    if n_starts >= 2 and d:
        x0 = transform(values, lo, hi)
        noise = np.random.default_rng(seed).normal(scale=0.5, size=d)
        starts.append(inverse_transform(x0 + noise, lo, hi))

    def wrapped(x):
        val = f(inverse_transform(x, lo, hi))
        return float(val) if np.isfinite(val) else np.inf

    best = None
    for start in starts:
        try:
            x0 = transform(start, lo, hi)
        except ValueError:  # a start on a bound
            continue
        if not np.isfinite(wrapped(x0)):
            continue
        simplex = np.tile(x0, (d + 1, 1))
        simplex[1:][np.diag_indices(d)] = np.where(x0 != 0, 1.05 * x0, 0.05)
        res = minimize(wrapped, x0, method="Nelder-Mead",
                       options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": max_iter,
                                "maxfev": 4 * max_iter, "initial_simplex": simplex})
        if best is None or res.fun < best.fun:
            best = res
    theta = inverse_transform(best.x, lo, hi)
    if k is not None:
        theta = np.insert(theta, k, objective.profile(theta, False)[2])
    return FitResult(theta_hat=ParameterVector(names, theta, lower=fit_lo, upper=fit_hi),
                     objective_value=float(best.fun), iterations=int(best.nit),
                     converged=bool(best.success), wall_time=0.0, starts=len(starts),
                     n_evals=int(best.nfev), message=str(best.message))
