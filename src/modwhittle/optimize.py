"""Bounded minimization for the pseudo-likelihood objectives.

Every fit searches each start in bounded polish coordinates
(:func:`_polish_coordinates`: log theta where the lower bound is finite and
>= 0, theta elsewhere, in a box POLISH_EDGE inside the fit bounds): by
L-BFGS-B (:func:`_polish`) with two or more searched coordinates, by the
bracketed derivative search :func:`_search_1d` with one.  (In a logit
space a coordinate pinned at a bound has a gradient that decays like
e^{-|x|}, so a quasi-Newton method creeps towards infinity; in the box it
stops at the edge.)  The gradient is the objective's score where it has
one (``value_and_grad``: every :class:`Objective`),
else central differences in the polish coordinates
(:func:`_polish_value_and_grad`: ``Car1WhittleObjective``, the benchmark
tracer's proxies and plain callables).  A fit keeps its bounds,
starts and result as Python floats, and the 1-D search runs on them, with
numpy's exp and log of one float for the coordinate map (their bits are an
array's): a one-parameter fit, as every Table 1 and 3 estimator is, makes
no numpy call on a one-element array.  A search has
converged at a projected gradient of at most POLISH_PGTOL * max(1, |f|),
whatever L-BFGS-B reports; an unconverged L-BFGS-B stop is rerun once, or
with ever shorter first steps while its runs meet +inf (a step out of the
model class, which L-BFGS-B cannot step back from).  The given
initialization, clipped into the box, is always searched; a seeded
perturbation of it is searched only when that start failed (it scored +inf
or did not converge), and the lower final value wins.  scipy.optimize is
imported by the first L-BFGS-B run (:func:`minimize`), so a process whose
fits each search one coordinate never loads it.

An :class:`Objective` (it has a ``scale_index``) is fitted concentrated: its
scale (sigma, A or B of one latent model, or the tied scale of an aggregate
such as the drifter's OU + Matern) has a closed-form optimum at the other
parameters, :meth:`Objective.profile`, so the search runs over the other
parameters only and the scale is filled in at the end.  A plain callable,
``Car1WhittleObjective`` and a scale whose fit bounds are tighter than
(<= 0, inf) keep the joint search.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import ParameterVector, Series
from .modulation import cg_sequence  # noqa: F401  (the benchmark tracer wraps this name)

__all__ = [
    "FitResult",
    "FitFailure",
    "transform",
    "inverse_transform",
    "fit",
    "mom_ar1",
    "mom_car1",
]


# L-BFGS-B stops at this projected gradient or relative reduction
GRAD_GTOL = 1e-10
GRAD_FTOL = np.finfo(float).eps
# L-BFGS-B's box edges sit this far inside finite fit bounds: relative,
# POLISH_EDGE * max(1, |b|), for plain coordinates, absolute for log ones
POLISH_EDGE = 1e-10
# a polish has converged at this projected gradient * max(1, |f|)
POLISH_PGTOL = 1e-6
# an unconverged L-BFGS-B run that met +inf reruns with a first step this
# many times shorter (a power of 2, so the scaling is exact)
RESCALE = 8.0
# central differences step y_i by FD_STEP * max(1, |y_i|), about eps^(1/3)
FD_STEP = float(np.cbrt(np.finfo(float).eps))
# an estimate within AT_BOUND_EPS * max(1, |b|) of a finite bound b is flagged
AT_BOUND_EPS = 1e-6
# the 1-D search's first step is FIRST_STEP * max(1, |y|), and a later
# bracketing step at most STEP_GROWTH times the one before it
FIRST_STEP = 0.05
STEP_GROWTH = 4.0
# it stops once its bracket is narrower than BRACKET_XTOL * max(1, |y|), or
# once two trials in a row end within FLAT_ULPS ulp of the best value
BRACKET_XTOL = 1e-10
FLAT_ULPS = 4


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call: the import takes
    about 0.5 s, and a fit with one searched parameter never needs it."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


class _Stop(NamedTuple):
    """Where a search of one start stopped: the searched parameters theta
    there (a list of floats), its value fun (+inf when the start scored
    +inf), the iterations nit, ``converged`` by the projected-gradient test
    of :func:`_polish`, and the stopping rule as message."""
    theta: list
    fun: float
    nit: int
    converged: bool
    message: str


class FitFailure(RuntimeError):
    """Raised when the init lies outside the closed bounds (or at a lower
    bound of 0), or when no start produces a finite objective."""


def transform(values, lower, upper) -> np.ndarray:
    """Map bounded values to the unconstrained optimizer space.

    logit for two-sided open bounds, log distance for one-sided, identity when
    unbounded.  Values sitting on a finite bound are invalid (the maps are
    defined on open intervals).
    """
    v = np.asarray(values, dtype=float)
    both, lo_only, hi_only = _bound_kinds(lower, upper)
    out = v.copy()
    if both is not None:
        i, lo, hi = both
        vb = v[i]
        _check(~((lo < vb) & (vb < hi)), vb, lo, hi, "not strictly inside")
        p = (vb - lo) / (hi - lo)
        out[i] = np.log(p / (1.0 - p))
    if lo_only is not None:
        i, lo, _ = lo_only
        _check(v[i] <= lo, v[i], lo, None, "not above lower bound")
        out[i] = np.log(v[i] - lo)
    if hi_only is not None:
        i, _, hi = hi_only
        _check(v[i] >= hi, v[i], None, hi, "not below upper bound")
        out[i] = -np.log(hi - v[i])
    return out


def _check(bad, v, lo, hi, what):
    """Raise ValueError naming the first value flagged in bad."""
    if np.count_nonzero(bad):
        j = int(np.argmax(bad))
        bounds = [f"{b[j]}" for b in (lo, hi) if b is not None]
        raise ValueError(f"value {v[j]} {what} ({', '.join(bounds)})")


def inverse_transform(x, lower, upper) -> np.ndarray:
    """Inverse of :func:`transform`; maps all of R^d strictly inside bounds."""
    x = np.asarray(x, dtype=float)
    both, lo_only, hi_only = _bound_kinds(lower, upper)
    out = x.copy()
    if both is not None:
        # numerically stable sigmoid: e = exp(-|x|) never overflows
        i, lo, hi = both
        xb = x[i]
        e = np.exp(-np.abs(xb))
        out[i] = lo + (hi - lo) * (np.where(xb >= 0, 1.0, e) / (1.0 + e))
    if lo_only is not None:
        i, lo, _ = lo_only
        out[i] = lo + np.exp(x[i])
    if hi_only is not None:
        i, _, hi = hi_only
        out[i] = hi - np.exp(-x[i])
    return out


def _bound_kinds(lower, upper):
    """(two-sided, lower-only, upper-only) coordinates of the bounds.

    Each kind is None when no coordinate has it, else (index, lower, upper):
    the index of its coordinates (a slice when that is all of them) and
    their bounds.
    """
    lo, hi = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    kinds = []
    for mask in (has_lo & has_hi, has_lo > has_hi, has_hi > has_lo):
        i = np.flatnonzero(mask)
        index = slice(None) if i.size == lo.size else i
        kinds.append((index, lo[index], hi[index]) if i.size else None)
    return tuple(kinds)


def _polish_coordinates(lower, upper):
    """The bounded coordinates y of the search.

    Returns ``(log_mask, box_lo, box_hi)``, lists of one entry per
    coordinate: y = log theta where log_mask is true (a finite lower bound
    >= 0), y = theta elsewhere, and the bounds of the box on y.  Each
    finite edge sits POLISH_EDGE inside the fit bound
    (relative for plain coordinates, absolute in log ones), so every
    evaluated theta stays strictly inside the open bounds; an infinite side,
    and a lower bound of 0 in log coordinates, stays open (+-inf).
    """
    log_mask, box_lo, box_hi = [], [], []
    for lo, hi in zip(map(float, lower), map(float, upper)):
        log = math.isfinite(lo) and lo >= 0.0
        if log:
            edges = (float(np.log(lo)) + POLISH_EDGE if lo > 0.0 else -math.inf,
                     float(np.log(hi)) - POLISH_EDGE if math.isfinite(hi) else math.inf)
        else:
            edges = (lo + POLISH_EDGE * max(1.0, abs(lo)) if math.isfinite(lo) else -math.inf,
                     hi - POLISH_EDGE * max(1.0, abs(hi)) if math.isfinite(hi) else math.inf)
        log_mask.append(log)
        box_lo.append(edges[0])
        box_hi.append(edges[1])
    return log_mask, box_lo, box_hi


def _polish_theta(y, log_mask) -> list:
    """theta from the polish coordinates y (see :func:`_polish_coordinates`),
    as floats: numpy's exp of one float, whose bits are an array's."""
    return [float(np.exp(v)) if log else v for v, log in zip(y, log_mask)]


def _polish_value_and_grad(y, objective, log_mask, box_lo, box_hi):
    """The objective and its gradient (a list) in the polish coordinates y,
    a list of floats, for both searches.

    The one place that knows whether the objective has a score: with a true
    ``has_gradient`` (:class:`_Searched`'s) the gradient is the score times
    dtheta/dy, else central differences in y (:func:`_central_differences`).
    A non-finite value or probe scores +inf, with a zero gradient.  A step
    can reach a theta so large (or small) that theta itself or the
    objective's intermediate values overflow (or divide by an underflowed
    0); :func:`fit` runs every search under ``np.errstate``, so that is
    silent.
    """
    theta = _polish_theta(y, log_mask)
    if objective.has_gradient:
        val, grad = objective.value_and_grad(theta)
        grad = [float(g) * t if log else float(g)  # dtheta/dy
                for g, t, log in zip(grad, theta, log_mask)]
    else:
        val = objective(theta)
        grad = (_central_differences(y, objective, log_mask, box_lo, box_hi)
                if math.isfinite(val) else None)
    if not math.isfinite(val) or grad is None:
        return math.inf, [0.0] * len(y)
    return float(val), grad


def _central_differences(y, objective, log_mask, box_lo, box_hi):
    """The objective's gradient in y by central differences, each probe
    y_i +- FD_STEP * max(1, |y_i|) clipped into the box (box_lo, box_hi), or
    None when a probe is not finite."""
    grad = []
    for i, (yi, lo, hi) in enumerate(zip(y, box_lo, box_hi)):
        step = FD_STEP * max(1.0, abs(yi))
        up, down = min(yi + step, hi), max(yi - step, lo)
        f_up, f_down = (float(objective(_polish_theta([*y[:i], edge, *y[i + 1:]], log_mask)))
                        for edge in (up, down))
        if not (math.isfinite(f_up) and math.isfinite(f_down)):
            return None
        grad.append((f_up - f_down) / (up - down))
    return grad


def at_bound(names, values, lower, upper) -> list:
    """Names of the values (floats) within AT_BOUND_EPS * max(1, |b|) of a finite bound b."""
    out = []
    for name, v, lo, hi in zip(names, values, lower, upper):
        for b in (lo, hi):
            if math.isfinite(b) and abs(v - b) <= AT_BOUND_EPS * max(1.0, abs(b)):
                out.append(name)
                break
    return out


@dataclass
class FitResult:
    theta_hat: ParameterVector
    objective_value: float
    iterations: int
    converged: bool
    wall_time: float
    starts: int  # the searched starts that ended with a finite objective
    n_evals: int = 0
    message: str = ""
    n_grad_evals: int = 0
    at_bound: list = field(default_factory=list)
    n_rejected: int = 0
    profiled: list = field(default_factory=list)
    # per searched start, in order (the given init first): its init, final
    # objective (None when it scored +inf), evaluations, converged
    start_results: list = field(default_factory=list)
    best_start: int = 0

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
            "n_rejected": self.n_rejected,
            "profiled": list(self.profiled),
            "start_results": [dict(r) for r in self.start_results],
            "best_start": self.best_start,
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
    """L-BFGS-B from y0 in the polish coordinates y, rerun from its stop
    while that is not converged (a projected gradient of at most
    POLISH_PGTOL * max(1, |f|)) and not at a limit or at +inf: once, or,
    while its runs meet a trial that scores +inf, in u = y / s with s
    RESCALE times smaller each time (its first step, of length 1 in u, that
    much shorter) down to BRACKET_XTOL.  The first run has s = 1.  Returns
    the last run's stop as a :class:`_Stop`, with nit summed over the
    runs."""
    lo, hi = np.array(box_lo), np.array(box_hi)
    y0 = np.array(y0)
    n_iters = 0
    s, restarted = 1.0, False
    while True:
        met_inf = False

        def value_and_grad(u):
            nonlocal met_inf
            f, g = _polish_value_and_grad((u * s).tolist(), objective, log_mask,
                                          box_lo, box_hi)
            met_inf = met_inf or f == math.inf
            return f, np.array(g) * s

        res = minimize(value_and_grad, y0 / s, jac=True, method="L-BFGS-B",
                       bounds=list(zip(lo / s, hi / s)),
                       options={"gtol": GRAD_GTOL, "ftol": GRAD_FTOL,
                                "maxiter": max_iter, "maxfun": 4 * max_iter})
        n_iters += int(res.nit)
        y, g = res.x * s, res.jac / s
        pg = np.clip(y - g, lo, hi) - y
        converged = bool(np.max(np.abs(pg)) <= POLISH_PGTOL * max(1.0, abs(res.fun)))
        if converged or res.status == 1 or not np.isfinite(res.fun):  # status 1: a limit
            break
        if met_inf and s / RESCALE >= BRACKET_XTOL:
            s /= RESCALE
        elif met_inf or restarted:
            break
        else:
            restarted = True
        y0 = y  # L-BFGS-B never ends above its start
    return _Stop(_polish_theta(y.tolist(), log_mask), res.fun, n_iters, converged,
                 str(res.message))


def _search_1d(objective, y0, log_mask, box_lo, box_hi, max_iter):
    """Minimize a one-parameter objective from y0 in its polish coordinate,
    boxed by (box_lo, box_hi), by a bracketed derivative search.

    y0, log_mask, box_lo and box_hi are one-element lists, and the search
    runs on Python floats.  Each trial's value and derivative in y are
    :func:`_polish_value_and_grad`'s, as for L-BFGS-B: the score times
    dtheta/dy, else a central difference in y; a trial that is not finite
    scores +inf.

    Bracket: step downhill from y0, first by FIRST_STEP * max(1, |y0|),
    then by the secant step to the derivative's root, capped at STEP_GROWTH
    times the step before, until the objective rises or the derivative
    changes sign; a walk that reaches the box edge still going downhill
    stops there.  A trial that scores +inf is halved back toward the last
    finite point, and no later step goes more than halfway to it.  Shrink:
    the bracket's trial is the minimizer of the Hermite cubic through its
    ends, else the secant root of the derivative, else the midpoint
    (:func:`_shrink_trial`); the midpoint also when the
    bracket shrank by less than half over the last two trials.  Stops at
    |g| <= GRAD_GTOL, a bracket narrower than BRACKET_XTOL * max(1, |y|),
    two trials in a row within FLAT_ULPS ulp of the best value, or after
    max_iter evaluations.  Rounding noise in the gradient (the AR(1) acv
    table's lag cap makes it jump by about 5e-9) can keep |g| above
    GRAD_GTOL, which is why the last two rules exist.  Between two values
    within FLAT_ULPS ulp of each other the smaller |g| is the better point:
    there the values are rounding noise and the gradient is not.

    Returns a :class:`_Stop` at the best point, with nit one less than the
    evaluations; fun is +inf when y0 scores +inf.
    """
    (lo,), (hi,) = box_lo, box_hi
    nfev = 0

    def evaluate(y):
        nonlocal nfev
        nfev += 1
        f, (g,) = _polish_value_and_grad([y], objective, log_mask, box_lo, box_hi)
        return y, f, g

    a = evaluate(y0[0])  # the best point, (y, f, g)
    b = None  # the bracket's other end, once there is a bracket
    wall = None  # the nearest trial ahead that scored +inf
    step = FIRST_STEP * max(1.0, abs(a[0]))
    widths, flat = [], 0
    message = "start scores +inf"
    while a[1] < math.inf:
        y, f, g = a
        if abs(g) <= GRAD_GTOL:
            message = "gradient at most GRAD_GTOL"
            break
        if nfev >= max_iter:
            message = "evaluation limit"
            break
        if flat >= 2:
            message = f"objective flat to {FLAT_ULPS} ulp"
            break
        if b is None:
            edge = hi if g < 0 else lo
            if y == edge:
                message = "minimum on the box edge"
                break
            if wall is not None:  # no further than halfway to it
                step = min(step, 0.5 * abs(wall - y))
            trial = min(y + step, edge) if g < 0 else max(y - step, edge)
        else:
            widths.append(abs(b[0] - y))
            if widths[-1] <= BRACKET_XTOL * max(1.0, abs(y)):
                message = "bracket below BRACKET_XTOL"
                break
            trial = (0.5 * (y + b[0]) if len(widths) >= 3 and widths[-1] > 0.5 * widths[-3]
                     else _shrink_trial(a, b))
        t = evaluate(trial)
        tie = abs(t[1] - f) <= FLAT_ULPS * math.ulp(abs(f))
        flat = flat + 1 if tie else 0
        if b is None:
            taken = abs(t[0] - y)
            if t[1] == math.inf:
                wall, step = t[0], 0.5 * taken
                if step <= BRACKET_XTOL * max(1.0, abs(y)):
                    message = "+inf beside the best point"
                    break
                continue
            if t[1] <= f and t[2] * g > 0:  # still downhill: step on
                step = STEP_GROWTH * taken
                if abs(t[2]) < abs(g):  # the derivative's secant has a root ahead
                    step = min(step, taken * abs(t[2]) / (abs(g) - abs(t[2])))
                a = t
                continue
        if abs(t[2]) < abs(g) if tie else t[1] < f:
            if b is None or t[2] * (b[0] - t[0]) >= 0:
                b = a
            a = t
        else:
            b = t
    y, f, g = a
    pg = min(max(y - g, lo), hi) - y
    return _Stop(_polish_theta([y], log_mask), f, nfev - 1,
                 abs(pg) <= POLISH_PGTOL * max(1.0, abs(f)), message)


def _shrink_trial(a, b) -> float:
    """The next trial inside the bracket of ends a and b, each (y, f, g) of
    floats, y distinct: the minimizer of the Hermite cubic through both
    ends, else the root of the derivative's secant, else the midpoint,
    whichever first lies strictly inside.  The arithmetic is IEEE's, as
    numpy's: an end at +inf, no real minimizer (a negative discriminant) or
    a zero denominator (equal end derivatives) gives a nan or inf candidate,
    which is not inside."""
    (ya, fa, ga), (yb, fb, gb) = a, b
    d1 = ga + gb - 3.0 * (fa - fb) / (ya - yb)
    disc = d1 * d1 - ga * gb
    d2 = (1.0 if yb > ya else -1.0) * math.sqrt(disc) if disc >= 0.0 else math.nan
    den = gb - ga + 2.0 * d2
    cubic = yb - (yb - ya) * (gb + d2 - d1) / den if den != 0.0 else math.nan
    secant = ya - ga * (yb - ya) / (gb - ga) if gb != ga else math.nan
    for y in (cubic, secant):
        if min(ya, yb) < y < max(ya, yb):
            return y
    return 0.5 * (ya + yb)


class _Searched:
    """The objective as the search calls it, counting its calls
    (``n_evals``) and the calls of its score among them (``n_grad_evals``).

    With a scale index k (``scale_index`` and ``profile``, see
    :meth:`~modwhittle.likelihood.Objective.profile`) it is concentrated: a
    callable over theta without that scale, which remembers the scale
    estimate of every theta it evaluates, so the fit fills in the scale of
    its optimum without evaluating it again.  Without one, the objective
    gets theta as an array, whatever sequence the search passes."""

    def __init__(self, objective, k):
        self._objective, self._k = objective, k
        self.has_gradient = hasattr(objective, "value_and_grad")
        self.n_evals = self.n_grad_evals = 0
        self._scales = {}

    def __call__(self, theta) -> float:
        self.n_evals += 1
        return self.value(theta, False)[0]

    def value_and_grad(self, theta):
        self.n_evals += 1
        self.n_grad_evals += 1
        return self.value(theta, True)

    def value(self, theta, grad):
        """(value, gradient or None) without counting the call."""
        if self._k is None:
            theta = np.asarray(theta, dtype=float)
            if grad:
                return self._objective.value_and_grad(theta)
            return self._objective(theta), None
        value, gradient, scale = self._objective.profile(theta, grad)
        if scale is not None:  # None: rejected, maybe only for its gradient
            self._scales[tuple(theta)] = scale
        return value, gradient

    def scale(self, theta) -> float:
        key = tuple(theta)
        if key not in self._scales:
            self.value(theta, False)
        return self._scales[key]


def _retry_starts(init, lower, upper, seed):
    """The seeded perturbations of init in :func:`transform` space, one per
    ``next``, as lists.  The transform and the random stream are built at
    the first ``next``, so a fit whose first start converges builds
    neither."""
    x0 = transform(init, lower, upper)
    rng = np.random.default_rng(seed)
    while True:
        yield inverse_transform(x0 + rng.normal(scale=0.5, size=x0.size),
                                lower, upper).tolist()


def fit(objective, init, lower=None, upper=None, *, n_starts: int = 2,
        max_iter: int | None = None, seed: int = 0) -> FitResult:
    """Minimize a bounded objective (see the module docstring for the method).

    objective : callable theta -> scalar (finite at init), searched on its
                ``value_and_grad(theta) -> (value, gradient)`` if it has one
    init      : ParameterVector, or plain values when the objective carries
                names/lower/upper attributes
    n_starts  : the most starts searched.  Start 0 is the given init,
                clipped into the polish box (so an init on a finite bound is
                searched from just inside it; one beyond a bound raises
                FitFailure, as does 0 under a lower bound of 0); each later
                start is a seeded perturbation of it in :func:`transform`
                space, drawn and searched only when no start before it
                converged.  The lowest final value wins.

    An objective with one scale parameter (``scale_index`` not None and
    ``profile``: an :class:`~modwhittle.likelihood.Objective`, over one
    latent model or an aggregate) whose fit bounds on the scale are
    (<= 0, inf) is fitted concentrated: the search runs over the other
    parameters only, on the objective minimised over the scale in closed
    form, and the scale at the optimum is filled into ``theta_hat`` and
    named in ``profiled``.  Every other objective (a plain callable, a
    bounded scale) is searched jointly.

    Each start runs :func:`_polish` or, with one searched coordinate
    (counted after the scale is concentrated), :func:`_search_1d`, on the
    objective's score or on central differences.  The bounds, the starts
    and the result are kept as Python floats, so a fit of one searched
    coordinate runs on floats from its init to its result.  max_iter
    (default 2000 per searched parameter) caps the iterations of each
    L-BFGS-B run and the evaluations of the 1-D search.  ``n_evals``
    counts every call of the objective in the search, difference probes
    included, and ``n_grad_evals`` the calls of its ``value_and_grad``.
    Estimates within AT_BOUND_EPS of a finite bound are listed in
    ``at_bound``; ``n_rejected`` counts the evaluations that scored +inf,
    for objectives that count them (as
    :class:`~modwhittle.likelihood.Objective` does).  ``start_results``
    gives each searched start's init (name -> value, the concentrated scale
    left out), final objective, evaluations and convergence, and
    ``best_start`` the index of the one that won.
    """
    t0 = time.perf_counter()
    names, values, fit_lo, fit_hi = _bounds_of(objective, init, lower, upper)
    rejected = getattr(objective, "n_rejected", 0)
    values, all_lo, all_hi = values.tolist(), fit_lo.tolist(), fit_hi.tolist()
    k = getattr(objective, "scale_index", None)
    if k is not None and not (all_lo[k] <= 0.0 and all_hi[k] == math.inf):
        k = None
    searched_names, lo, hi = names, all_lo, all_hi
    if k is not None:
        searched_names, values, lo, hi = ([*a[:k], *a[k + 1:]]
                                          for a in (names, values, lo, hi))
    searched = _Searched(objective, k)
    d = len(values)
    if max_iter is None:
        max_iter = 2000 * d
    log_mask, box_lo, box_hi = _polish_coordinates(lo, hi)
    for name, v, l, h in zip(searched_names, values, lo, hi):
        if not l <= v <= h:  # NaN fails both
            raise FitFailure(f"init {name} = {v} lies outside the bounds [{l}, {h}]")
    # an init on a finite bound is clipped into the box and searched from
    # there, but the log box stays open at a lower bound of 0
    init = [min(max(v, tl), th) for v, tl, th in
            zip(values, _polish_theta(box_lo, log_mask), _polish_theta(box_hi, log_mask))]
    for name, v, t, log, l in zip(searched_names, values, init, log_mask, lo):
        if log and t <= 0.0:
            raise FitFailure(f"init {name} = {v} lies on a bound it cannot leave ({l})")
    retries = _retry_starts(init, lo, hi, seed)
    search = _search_1d if d == 1 else _polish

    best = None
    records = []
    total_iters = 0
    for i in range(max(1, n_starts) if d else 1):
        if any(r["converged"] for r in records):
            break  # a retry only follows starts that failed
        start = init if i == 0 else next(retries)
        record = {"init": dict(zip(searched_names, start)),
                  "objective": None, "n_evals": 0, "converged": False}
        records.append(record)
        calls = searched.n_evals
        if d:
            # a step can reach a theta, or values inside the objective, that
            # overflow (or divide by an underflowed 0): those score +inf,
            # without a warning
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                y0 = [min(max(float(np.log(t)) if log else t, bl), bh)
                      for t, log, bl, bh in zip(start, log_mask, box_lo, box_hi)]
                res = search(searched, y0, log_mask, box_lo, box_hi, max_iter)
        else:  # only the concentrated scale is free: its closed form is the fit
            res = _Stop(start, searched.value(start, False)[0], 0, True, "closed form")
        total_iters += int(res.nit)
        record["n_evals"] = searched.n_evals - calls
        if not math.isfinite(res.fun):
            continue
        fun = float(res.fun)
        record.update(objective=fun, converged=res.converged)
        if best is None or fun < best[0]:
            best = (fun, res.theta, res.converged, res.message, len(records) - 1)
    if best is None:
        raise FitFailure(
            f"no finite objective from {len(records)} start(s); last init {values}")
    fun, theta, success, message, best_start = best
    if k is not None:
        theta = [*theta[:k], searched.scale(theta), *theta[k:]]
    return FitResult(theta_hat=ParameterVector(names, theta, lower=fit_lo, upper=fit_hi),
                     objective_value=fun, iterations=total_iters,
                     converged=success, wall_time=time.perf_counter() - t0,
                     starts=sum(r["objective"] is not None for r in records),
                     n_evals=searched.n_evals, message=message,
                     n_grad_evals=searched.n_grad_evals,
                     at_bound=at_bound(names, theta, all_lo, all_hi),
                     n_rejected=getattr(objective, "n_rejected", 0) - rejected,
                     profiled=[] if k is None else [names[k]],
                     start_results=records, best_start=best_start)


# ----------------------------------------------------------------------
# method-of-moments initializations (demodulated sample autocovariances)
# ----------------------------------------------------------------------

def _mom_latent_acv(data: Series, cg):
    """chat_X(tau) = chat_Y(tau) / c_g(tau) at lags 0 and 1, the naive
    latent-acv estimates; c_g(0) = 1 and c_g(1) = 1 - 1/N without cg."""
    y = np.asarray(data.values)
    n = y.size
    out = []
    for tau in (0, 1):
        cy = np.sum(np.conj(y[: n - tau]) * y[tau:]) / n
        denom = (1.0 - tau / n) if cg is None else cg[tau]
        out.append(cy / denom if abs(denom) > 1e-12 else math.nan)
    return out


def mom_ar1(data: Series, cg=None) -> tuple[float, float]:
    """(a, sigma) start values for a real AR(1) latent, |a| <= 0.985.

    cg is the modulator's c_g at lags 0 and 1 at least (e.g. an
    :class:`Objective`'s ``cgs[0]``), or None for an unmodulated series,
    whose c_g is 1 - tau/N.
    """
    c0, c1 = _mom_latent_acv(data, cg)
    c0 = float(np.real(c0))
    if not math.isfinite(c0) or c0 <= 0:
        return 0.0, 1.0
    c1 = float(np.real(c1))
    a = min(max(c1 / c0 if math.isfinite(c1) else 0.0, -0.985), 0.985)
    return a, math.sqrt(max(c0 * (1.0 - a * a), 1e-12))


def mom_car1(data: Series, cg=None) -> tuple[float, float]:
    """(r, sigma) start values for a complex AR(1) latent, r in [1e-3, 0.995];
    cg as in :func:`mom_ar1`."""
    c0, c1 = _mom_latent_acv(data, cg)
    c0 = float(np.real(c0))
    if not math.isfinite(c0) or c0 <= 0:
        return 0.5, 1.0
    mod = float(np.abs(c1))  # numpy's modulus: Python's abs differs in the last bit
    r = min(max(mod / c0 if math.isfinite(mod) else 0.5, 1e-3), 0.995)
    return r, math.sqrt(max(c0 * (1.0 - r * r), 1e-12))
