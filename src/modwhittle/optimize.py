"""Bounded minimization for the pseudo-likelihood objectives.

Parameters are mapped to an unconstrained space (logit for two-sided bounds,
log for one-sided), so every evaluated point respects its open bounds by
construction.  Objectives without a gradient are minimized with a
Nelder-Mead simplex in that space.  Objectives that offer one
(``has_gradient`` and ``value_and_grad``: a modulated-Whittle
:class:`Objective` over AR(1), car1, ou and matern components, a Whittle one
over an AR(1) or car1 latent, and the exact one of a car1 latent under a
linear-ramp kernel, the Markov likelihood) take two phases per start:
Nelder-Mead until the simplex's objective spread is at most BASIN_FATOL,
which chooses the basin, then L-BFGS-B from its best vertex in bounded
polish coordinates (see :func:`_polish_coordinates`): log theta for a
parameter with a finite lower bound >= 0, theta itself otherwise, boxed by
L-BFGS-B's own bounds moved POLISH_EDGE inside the fit bounds.  In the logit
space a coordinate pinned at a bound has a gradient that decays like
e^{-|x|}, so a quasi-Newton method creeps towards infinity; in the box it
stops at the edge.  A polish has converged when its projected gradient (in
the polish coordinates) is at most POLISH_PGTOL * max(1, |f|), whatever
L-BFGS-B reports; a stop that fails this test, other than at the iteration
limit, is restarted once from where it ended.  Multi-start keeps the better
of the given initialization and a seeded perturbation of it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .core import ParameterVector, Series
from .modulation import (
    cg_sequence,  # noqa: F401  (the benchmark tracer wraps this name)
    component_cg,
)

__all__ = [
    "FitResult",
    "FitFailure",
    "transform",
    "inverse_transform",
    "fit",
    "mom_ar1",
    "mom_car1",
]


# Nelder-Mead-only convergence tolerances (objective and parameter spread)
NM_TOL_F = 1e-10
NM_TOL_X = 1e-7
# phase 1 of a gradient fit stops once the simplex's objective spread is this
BASIN_FATOL = 1e-4
# phase 2 (L-BFGS-B) stops at this projected gradient or relative reduction
GRAD_GTOL = 1e-10
GRAD_FTOL = np.finfo(float).eps
# L-BFGS-B's box edges sit this far inside finite fit bounds: relative,
# POLISH_EDGE * max(1, |b|), for plain coordinates, absolute for log ones
POLISH_EDGE = 1e-10
# a polish has converged at this projected gradient * max(1, |f|)
POLISH_PGTOL = 1e-6
# an estimate within AT_BOUND_EPS * max(1, |b|) of a finite bound b is flagged
AT_BOUND_EPS = 1e-6


class FitFailure(RuntimeError):
    """Raised when no start produces a finite, converged objective."""


def transform(values, lower, upper) -> np.ndarray:
    """Map bounded values to the unconstrained optimizer space.

    logit for two-sided open bounds, log distance for one-sided, identity when
    unbounded.  Values sitting on a finite bound are invalid (the maps are
    defined on open intervals).
    """
    v = np.asarray(values, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    out = np.empty_like(v)
    for i in range(v.size):
        if np.isfinite(lo[i]) and np.isfinite(hi[i]):
            if not (lo[i] < v[i] < hi[i]):
                raise ValueError(f"value {v[i]} not strictly inside ({lo[i]}, {hi[i]})")
            p = (v[i] - lo[i]) / (hi[i] - lo[i])
            out[i] = np.log(p / (1.0 - p))
        elif np.isfinite(lo[i]):
            if v[i] <= lo[i]:
                raise ValueError(f"value {v[i]} not above lower bound {lo[i]}")
            out[i] = np.log(v[i] - lo[i])
        elif np.isfinite(hi[i]):
            if v[i] >= hi[i]:
                raise ValueError(f"value {v[i]} not below upper bound {hi[i]}")
            out[i] = -np.log(hi[i] - v[i])
        else:
            out[i] = v[i]
    return out


def inverse_transform(x, lower, upper) -> np.ndarray:
    """Inverse of :func:`transform`; maps all of R^d strictly inside bounds."""
    x = np.asarray(x, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        if np.isfinite(lo[i]) and np.isfinite(hi[i]):
            # numerically stable sigmoid
            if x[i] >= 0:
                p = 1.0 / (1.0 + np.exp(-x[i]))
            else:
                e = np.exp(x[i])
                p = e / (1.0 + e)
            out[i] = lo[i] + (hi[i] - lo[i]) * p
        elif np.isfinite(lo[i]):
            out[i] = lo[i] + np.exp(x[i])
        elif np.isfinite(hi[i]):
            out[i] = hi[i] - np.exp(-x[i])
        else:
            out[i] = x[i]
    return out


def _polish_coordinates(lower, upper):
    """The bounded coordinates y of the L-BFGS-B phase.

    Returns ``(log_mask, box_lo, box_hi)``: y = log theta where log_mask is
    true (a finite lower bound >= 0), y = theta elsewhere, and the L-BFGS-B
    bounds on y.  Each finite edge sits POLISH_EDGE inside the fit bound
    (relative for plain coordinates, absolute in log ones), so every
    evaluated theta stays strictly inside the open bounds; an infinite side,
    and a lower bound of 0 in log coordinates, stays open (+-inf).
    """
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    log_mask = np.isfinite(lo) & (lo >= 0)
    box_lo = np.full(lo.size, -np.inf)
    box_hi = np.full(lo.size, np.inf)
    for i in range(lo.size):
        if log_mask[i]:
            if lo[i] > 0:
                box_lo[i] = np.log(lo[i]) + POLISH_EDGE
            if np.isfinite(hi[i]):
                box_hi[i] = np.log(hi[i]) - POLISH_EDGE
            continue
        if np.isfinite(lo[i]):
            box_lo[i] = lo[i] + POLISH_EDGE * max(1.0, abs(lo[i]))
        if np.isfinite(hi[i]):
            box_hi[i] = hi[i] - POLISH_EDGE * max(1.0, abs(hi[i]))
    return log_mask, box_lo, box_hi


def _polish_theta(y, log_mask) -> np.ndarray:
    """theta from the polish coordinates y (see :func:`_polish_coordinates`)."""
    with np.errstate(over="ignore"):  # an overflow to inf scores +inf
        return np.where(log_mask, np.exp(y), y)


def _polish_value_and_grad(y, objective, log_mask):
    """The objective and its gradient in the polish coordinates y.

    A line-search step can reach a theta so large (or small) that theta
    itself or the objective's intermediate values overflow (or divide by an
    underflowed 0); that scores +inf without a warning, like any other
    non-finite value.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        theta = np.where(log_mask, np.exp(y), y)
        val, grad = objective.value_and_grad(theta)
    if not np.isfinite(val):
        return np.inf, np.zeros_like(y)
    return float(val), grad * np.where(log_mask, theta, 1.0)  # dtheta/dy


def at_bound(pv: ParameterVector) -> list:
    """Names of the values within AT_BOUND_EPS * max(1, |b|) of a finite bound b."""
    out = []
    for name, v, lo, hi in zip(pv.names, pv.values, pv.lower, pv.upper):
        if any(np.isfinite(b) and abs(v - b) <= AT_BOUND_EPS * max(1.0, abs(b))
               for b in (lo, hi)):
            out.append(name)
    return out


@dataclass
class FitResult:
    theta_hat: ParameterVector
    objective_value: float
    iterations: int
    converged: bool
    wall_time: float
    starts: int
    n_evals: int = 0
    message: str = ""
    n_grad_evals: int = 0
    at_bound: list = field(default_factory=list)

    def asdict(self) -> dict:
        return {
            "theta_hat": self.theta_hat.asdict(),
            "objective": self.objective_value,
            "iterations": self.iterations,
            "converged": self.converged,
            "wall_time": self.wall_time,
            "starts": self.starts,
            "n_evals": self.n_evals,
            "n_grad_evals": self.n_grad_evals,
            "at_bound": list(self.at_bound),
        }


def _bounds_of(objective, init, lower, upper):
    if isinstance(init, ParameterVector):
        return (list(init.names), np.asarray(init.values, dtype=float),
                init.lower, init.upper)
    values = np.asarray(init, dtype=float)
    if lower is None:
        lower = getattr(objective, "lower", np.full(values.size, -np.inf))
    if upper is None:
        upper = getattr(objective, "upper", np.full(values.size, np.inf))
    names = list(getattr(objective, "names", [f"theta{i}" for i in range(values.size)]))
    return names, values, np.asarray(lower, float), np.asarray(upper, float)


def _polish(objective, y0, log_mask, box_lo, box_hi, max_iter):
    """L-BFGS-B from y0 in the polish coordinates, restarted once from its
    stop when that is not converged, unless it stopped at the iteration or
    evaluation limit.  Converged means a projected gradient of at most
    POLISH_PGTOL * max(1, |f|).  Returns (result, converged, evaluations,
    iterations), the counts summed over both runs."""
    n_evals = n_iters = 0
    for _ in range(2):
        res = minimize(_polish_value_and_grad, y0, args=(objective, log_mask),
                       jac=True, method="L-BFGS-B", bounds=list(zip(box_lo, box_hi)),
                       options={"gtol": GRAD_GTOL, "ftol": GRAD_FTOL,
                                "maxiter": max_iter, "maxfun": 4 * max_iter})
        n_evals += int(res.nfev)
        n_iters += int(res.nit)
        pg = np.clip(res.x - res.jac, box_lo, box_hi) - res.x
        converged = bool(np.max(np.abs(pg)) <= POLISH_PGTOL * max(1.0, abs(res.fun)))
        if converged or res.status == 1:  # status 1: a limit was hit
            break
        y0 = res.x  # L-BFGS-B never ends above its start
    return res, converged, n_evals, n_iters


def fit(objective, init, lower=None, upper=None, *, n_starts: int = 2,
        max_iter: int | None = None, seed: int = 0) -> FitResult:
    """Minimize a bounded objective (see the module docstring for the method).

    objective : callable theta -> scalar (finite at init); with a true
                ``has_gradient`` attribute it must also provide
                ``value_and_grad(theta) -> (value, gradient)``
    init      : ParameterVector, or plain values when the objective carries
                names/lower/upper attributes
    n_starts  : 1 tries the given init alone, 2 (or more) also a seeded
                log-space perturbation of it; the best final value wins.

    Nelder-Mead alone converges on transformed-scale tolerances (objective
    spread NM_TOL_F, parameter spread NM_TOL_X), which keep optimizer error
    below 1e-6, well under the statistical error at any tested sample size.
    On the gradient path the simplex stops at BASIN_FATOL, and L-BFGS-B, run
    in the bounded coordinates of :func:`_polish_coordinates` from the best
    vertex clipped into the box, stops at GRAD_GTOL / GRAD_FTOL.  The polish
    has converged when its projected gradient is at most POLISH_PGTOL *
    max(1, |f|), whatever L-BFGS-B's own verdict; a stop that fails this
    test, except at the iteration or evaluation limit, is restarted once
    from where it ended.  max_iter (default 2000*d) caps the iterations of
    every phase.  Estimates within AT_BOUND_EPS of a finite bound are listed
    in ``at_bound``.
    """
    t0 = time.perf_counter()
    names, values, lo, hi = _bounds_of(objective, init, lower, upper)
    d = values.size
    if max_iter is None:
        max_iter = 2000 * d
    rng = np.random.default_rng(seed)

    starts = [values]
    if n_starts >= 2:
        x0 = transform(values, lo, hi)
        starts.append(inverse_transform(x0 + rng.normal(scale=0.5, size=d), lo, hi))

    def wrapped(x):
        val = objective(inverse_transform(x, lo, hi))
        return float(val) if np.isfinite(val) else np.inf

    gradient = bool(getattr(objective, "has_gradient", False))
    if gradient:
        simplex_tol = {"xatol": np.inf, "fatol": BASIN_FATOL}
        log_mask, box_lo, box_hi = _polish_coordinates(lo, hi)
    else:
        simplex_tol = {"xatol": NM_TOL_X, "fatol": NM_TOL_F}

    best = None
    attempts = 0
    total_evals = 0
    total_iters = 0
    grad_evals = 0
    for start in starts:
        try:
            x0 = transform(start, lo, hi)
        except ValueError:
            continue
        if not np.isfinite(wrapped(x0)):
            continue
        attempts += 1
        res = minimize(wrapped, x0, method="Nelder-Mead",
                       options={**simplex_tol, "maxiter": max_iter,
                                "maxfev": 4 * max_iter, "disp": False})
        total_evals += int(res.nfev)
        total_iters += int(res.nit)
        if not np.isfinite(res.fun):
            continue
        fun, theta = float(res.fun), inverse_transform(res.x, lo, hi)
        success, message = bool(res.success), str(res.message)
        if gradient:
            with np.errstate(invalid="ignore", divide="ignore"):  # log of the plain coordinates
                y0 = np.where(log_mask, np.log(theta), theta)
            y0 = np.clip(y0, box_lo, box_hi)
            polished, converged, n_evals, n_iters = _polish(
                objective, y0, log_mask, box_lo, box_hi, max_iter)
            total_evals += n_evals
            grad_evals += n_evals
            total_iters += n_iters
            if polished.fun <= fun:
                fun = float(polished.fun)
                theta = _polish_theta(polished.x, log_mask)
                success, message = converged, str(polished.message)
        if best is None or fun < best[0]:
            best = (fun, theta, success, message)
    if best is None:
        raise FitFailure(
            f"no finite objective from {len(starts)} start(s); last init {values}")
    fun, theta, success, message = best
    pv = ParameterVector(names, theta, lower=lo, upper=hi)
    return FitResult(theta_hat=pv, objective_value=fun, iterations=total_iters,
                     converged=success, wall_time=time.perf_counter() - t0,
                     starts=attempts, n_evals=total_evals, message=message,
                     n_grad_evals=grad_evals, at_bound=at_bound(pv))


# ----------------------------------------------------------------------
# method-of-moments initializations (demodulated sample autocovariances)
# ----------------------------------------------------------------------

def _mom_latent_acv(data: Series, cg):
    """chat_X(tau) = chat_Y(tau) / c_g(tau) at lags 0 and 1, the naive
    latent-acv estimates."""
    y = np.asarray(data.values)
    n = y.size
    if cg is None:
        cg = component_cg(None, n)
    out = []
    for tau in (0, 1):
        cy = np.sum(np.conj(y[: n - tau]) * y[tau:]) / n
        denom = cg[tau]
        out.append(cy / denom if np.abs(denom) > 1e-12 else np.nan)
    return out


def mom_ar1(data: Series, cg=None) -> np.ndarray:
    """(a, sigma) start values for a real AR(1) latent, |a| <= 0.985.

    cg is the modulator's c_g at lags 0..N-1 (e.g. an :class:`Objective`'s
    ``cgs[0]``), or None for an unmodulated series, whose c_g is 1 - tau/N.
    """
    c0, c1 = _mom_latent_acv(data, cg)
    c0 = float(np.real(c0))
    if not np.isfinite(c0) or c0 <= 0:
        return np.array([0.0, 1.0])
    a = float(np.real(c1)) / c0 if np.isfinite(np.real(c1)) else 0.0
    a = float(np.clip(a, -0.985, 0.985))
    sigma2 = max(c0 * (1.0 - a * a), 1e-12)
    return np.array([a, np.sqrt(sigma2)])


def mom_car1(data: Series, cg=None) -> np.ndarray:
    """(r, sigma) start values for a complex AR(1) latent, r in [1e-3, 0.995];
    cg as in :func:`mom_ar1`."""
    c0, c1 = _mom_latent_acv(data, cg)
    c0 = float(np.real(c0))
    if not np.isfinite(c0) or c0 <= 0:
        return np.array([0.5, 1.0])
    r = np.abs(c1) / c0 if np.isfinite(np.abs(c1)) else 0.5
    r = float(np.clip(r, 1e-3, 0.995))
    sigma2 = max(c0 * (1.0 - r * r), 1e-12)
    return np.array([r, np.sqrt(sigma2)])
