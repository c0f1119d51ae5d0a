import numpy as np
import pytest

from modwhittle import Modulator, Objective, Series, ar_model
from modwhittle.core import ParameterVector
from modwhittle.optimize import (
    FitFailure,
    _polish_coordinates,
    _polish_value_and_grad,
    _shrink_trial,
    fit,
    inverse_transform,
    mom_ar1,
    mom_car1,
    transform,
)
from modwhittle.simulate import simulate_ar, simulate_complex_ar1


def test_transform_examples():
    assert abs(transform([0.5], [0.0], [1.0])[0]) < 1e-15
    assert abs(transform([1.0], [0.0], [np.inf])[0]) < 1e-15
    assert abs(inverse_transform([0.0], [0.0], [1.0])[0] - 0.5) < 1e-15


def test_transform_round_trip(rng):
    lo = np.array([0.0, 0.0, -np.inf, -np.pi, -np.inf])
    hi = np.array([1.0, np.inf, np.inf, np.pi, 3.0])
    for _ in range(100):
        v = np.array([
            rng.uniform(1e-6, 1 - 1e-6),
            rng.lognormal(),
            rng.normal() * 5,
            rng.uniform(-np.pi + 1e-9, np.pi - 1e-9),
            3.0 - rng.lognormal(),
        ])
        w = inverse_transform(transform(v, lo, hi), lo, hi)
        assert np.max(np.abs(w - v)) < 1e-10


def test_transform_boundary_rejected():
    with pytest.raises(ValueError):
        transform([0.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        transform([1.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        transform([0.0], [0.0], [np.inf])


def _scalar_transform(v, lo, hi):
    """transform one coordinate at a time, as the formulas read."""
    if np.isfinite(lo) and np.isfinite(hi):
        p = (v - lo) / (hi - lo)
        return np.log(p / (1.0 - p))
    if np.isfinite(lo):
        return np.log(v - lo)
    if np.isfinite(hi):
        return -np.log(hi - v)
    return v


def _scalar_inverse(x, lo, hi):
    if np.isfinite(lo) and np.isfinite(hi):
        if x >= 0:
            p = 1.0 / (1.0 + np.exp(-x))
        else:
            e = np.exp(x)
            p = e / (1.0 + e)
        return lo + (hi - lo) * p
    if np.isfinite(lo):
        return lo + np.exp(x)
    if np.isfinite(hi):
        return hi - np.exp(-x)
    return x


def test_transforms_equal_the_scalar_formulas_bit_for_bit(rng):
    lo = np.array([0.0, 0.0, -np.inf, -np.pi, -np.inf, 1e-3, 0.51, -1.0])
    hi = np.array([1.0, np.inf, np.inf, np.pi, 3.0, 30.0, 4.0, np.inf])
    for _ in range(200):
        keep = rng.random(lo.size) < 0.7  # every mix of bound kinds
        keep[rng.integers(lo.size)] = True
        lo_k, hi_k = lo[keep], hi[keep]
        v = np.array([_scalar_inverse(t, a, b) for t, a, b in
                      zip(rng.normal(0, 5, lo_k.size), lo_k, hi_k)])
        # up to |x| = 700, short of exp's overflow on a one-sided bound
        x = np.clip(rng.normal(0, 1, lo_k.size) * rng.choice([1e-3, 1.0, 30.0, 700.0]),
                    -700.0, 700.0)
        got = transform(v, lo_k, hi_k)
        want = [_scalar_transform(*a) for a in zip(v, lo_k, hi_k)]
        assert np.array_equal(got, want)
        got = inverse_transform(x, lo_k, hi_k)
        want = [_scalar_inverse(*a) for a in zip(x, lo_k, hi_k)]
        assert np.array_equal(got, want)


def test_transform_rejects_every_value_on_a_finite_bound():
    lo = np.array([0.0, 0.0, -np.inf, -np.inf])
    hi = np.array([1.0, np.inf, 3.0, np.inf])
    inside = np.array([0.5, 1.0, 2.0, 7.0])
    np.testing.assert_array_equal(transform(inside, lo, hi),
                                  [0.0, 0.0, 0.0, 7.0])
    for i, bound in ((0, 0.0), (0, 1.0), (1, 0.0), (2, 3.0), (0, 1.5), (1, -1.0)):
        v = inside.copy()
        v[i] = bound
        with pytest.raises(ValueError):
            transform(v, lo, hi)


def test_quadratic_recovery():
    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    tstar = np.array([0.4, -1.2])
    res = fit(lambda th: float((th - tstar) @ a @ (th - tstar)),
              np.array([0.0, 0.0]), lower=[-10, -10], upper=[10, 10], n_starts=1)
    assert np.max(np.abs(res.theta_hat.values - tstar)) < 1e-6
    assert res.converged


def test_bound_respect_and_reported_minimum():
    evals = []

    def objective(theta):
        evals.append(np.array(theta))
        return float((theta[0] - 0.9) ** 2 + (theta[1] - 1.0) ** 2)

    res = fit(objective, np.array([0.5, 0.5]), lower=[0.0, 0.0], upper=[1.0, 2.0],
              n_starts=2, seed=1)
    evals_arr = np.array(evals)
    assert np.all(evals_arr[:, 0] > 0.0) and np.all(evals_arr[:, 0] < 1.0)
    assert np.all(evals_arr[:, 1] > 0.0) and np.all(evals_arr[:, 1] < 2.0)
    # reported value equals the best value ever evaluated (monotone best)
    best_seen = min(float((e[0] - 0.9) ** 2 + (e[1] - 1.0) ** 2) for e in evals)
    assert abs(res.objective_value - best_seen) < 1e-15


def test_determinism(rng):
    z = simulate_complex_ar1(0.8, 1.0, np.full(255, 0.5), 256, rng)
    from modwhittle.likelihood import Car1WhittleObjective
    obj = Car1WhittleObjective(z, rotation=0.5)
    r1 = fit(obj, np.array([0.5, 0.8]), lower=obj.lower, upper=obj.upper, seed=42)
    r2 = fit(obj, np.array([0.5, 0.8]), lower=obj.lower, upper=obj.upper, seed=42)
    assert np.array_equal(r1.theta_hat.values, r2.theta_hat.values)
    assert r1.objective_value == r2.objective_value
    assert r1.n_evals == r2.n_evals


def test_fit_failure():
    with pytest.raises(FitFailure):
        fit(lambda th: np.inf, np.array([0.5]), lower=[0.0], upper=[1.0], n_starts=2)


def test_parameter_vector_init():
    pv = ParameterVector(["r", "sigma"], [0.6, 1.0], lower=[0.0, 0.0],
                         upper=[1.0, np.inf])
    res = fit(lambda th: (th[0] - 0.3) ** 2 + (np.log(th[1])) ** 2, pv, n_starts=1)
    assert res.theta_hat.names == ["r", "sigma"]
    assert abs(res.theta_hat.values[0] - 0.3) < 1e-5


def test_mom_inits(rng):
    from modwhittle import ar_model, cg_sequence, frequency_modulator, periodic_missing_mask
    model = ar_model([0.8], 1.0)
    x = simulate_ar(model, 4096, rng)
    mod = periodic_missing_mask(3, 1, 4096)
    data = Series(mod.g * x.values)
    a, sigma = mom_ar1(data, cg_sequence(mod))
    assert abs(a - 0.8) < 0.1 and abs(sigma - 1.0) < 0.2

    beta = np.full(4095, 0.7)
    z = simulate_complex_ar1(0.9, 1.0, beta, 4096, rng)
    r, s = mom_car1(z, cg_sequence(frequency_modulator(beta)))
    assert abs(r - 0.9) < 0.05 and abs(s - 1.0) < 0.2


class _Quadratic:
    """A bounded quadratic that supplies its gradient."""

    has_gradient = True

    def __init__(self, a, tstar):
        self.a, self.tstar = a, tstar
        self.grad_calls = 0

    def __call__(self, theta):
        d = np.asarray(theta) - self.tstar
        return float(d @ self.a @ d)

    def value_and_grad(self, theta):
        self.grad_calls += 1
        d = np.asarray(theta) - self.tstar
        return float(d @ self.a @ d), 2.0 * self.a @ d


def test_gradient_path_polishes_the_simplex_result():
    obj = _Quadratic(np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([0.4, 1.7]))
    res = fit(obj, np.array([0.0, 1.0]), lower=[-10, 0], upper=[10, np.inf],
              n_starts=2)
    assert np.max(np.abs(res.theta_hat.values - obj.tstar)) < 1e-9
    assert res.n_grad_evals == obj.grad_calls > 0
    assert res.n_evals == res.n_grad_evals
    assert res.converged and res.at_bound == []
    assert res.asdict()["n_grad_evals"] == res.n_grad_evals


def test_at_bound_flags_pinned_estimates():
    res = fit(lambda th: float((th[0] - 2.0) ** 2 + (th[1] - 0.5) ** 2),
              np.array([0.5, 0.2]), lower=[0.0, -np.inf], upper=[1.0, np.inf],
              n_starts=1)
    assert res.at_bound == ["theta0"]
    assert res.asdict()["at_bound"] == ["theta0"]
    assert res.n_grad_evals == 0


def test_gradient_path_stops_at_a_binding_bound():
    obj = _Quadratic(np.eye(2), np.array([2.0, 0.5]))
    res = fit(obj, np.array([0.5, 0.2]), lower=[0.0, 0.0], upper=[1.0, 1.0],
              n_starts=1)
    assert 0 < res.n_evals == res.n_grad_evals <= 12
    assert res.at_bound == ["theta0"]
    assert res.converged
    assert np.all(res.theta_hat.values < 1.0)
    assert abs(res.objective_value - 1.0) < 1e-9
    assert abs(res.theta_hat.values[1] - 0.5) < 1e-6


def test_polish_coordinates_box():
    lower = [0.0, 0.5, -1.0, -np.inf, 0.0, -np.inf]
    upper = [1.0, 3.0, 2.0, 5.0, np.inf, np.inf]
    log_mask, box_lo, box_hi = _polish_coordinates(lower, upper)
    assert list(log_mask) == [True, True, False, False, True, False]
    assert box_lo[0] == -np.inf and box_hi[0] == -1e-10
    assert np.isclose(box_lo[1], np.log(0.5) + 1e-10, rtol=0, atol=1e-15)
    assert np.isclose(box_hi[1], np.log(3.0) - 1e-10, rtol=0, atol=1e-15)
    assert box_lo[2] == -1.0 + 1e-10 and box_hi[2] == 2.0 - 1e-10 * 2.0
    assert box_lo[3] == -np.inf and box_hi[3] == 5.0 - 1e-10 * 5.0
    assert box_lo[4] == -np.inf and box_hi[4] == np.inf
    assert box_lo[5] == -np.inf and box_hi[5] == np.inf


class _Smooth:
    """A smooth non-quadratic objective with its gradient."""

    has_gradient = True
    c = np.array([0.7, 1.3, -0.4, 2.1])

    def __call__(self, theta):
        return self.value_and_grad(theta)[0]

    def value_and_grad(self, theta):
        t = np.asarray(theta, dtype=float)
        val = float(np.sum(self.c * np.sin(t) + t ** 2) + t[0] * t[2] ** 3)
        grad = self.c * np.cos(t) + 2.0 * t
        grad[0] += t[2] ** 3
        grad[2] += 3.0 * t[0] * t[2] ** 2
        return val, grad


def test_polish_gradient_matches_central_differences(rng):
    # log-boxed, plain-boxed, log half-open and plain half-open parameters
    lower = np.array([0.5, -1.0, 0.0, -np.inf])
    upper = np.array([3.0, 2.0, np.inf, 5.0])
    log_mask, box_lo, box_hi = _polish_coordinates(lower, upper)
    assert list(log_mask) == [True, False, True, False]
    obj = _Smooth()
    for _ in range(10):
        theta = np.array([rng.uniform(0.6, 2.9), rng.uniform(-0.9, 1.9),
                          rng.lognormal(), 5.0 - rng.lognormal()])
        y = np.where(log_mask, np.log(np.abs(theta)), theta)
        _, grad = _polish_value_and_grad(y.tolist(), obj, log_mask, box_lo, box_hi)
        e = 1e-6
        fd = np.array([
            (_polish_value_and_grad((y + e * u).tolist(), obj, log_mask, box_lo, box_hi)[0]
             - _polish_value_and_grad((y - e * u).tolist(), obj, log_mask, box_lo, box_hi)[0])
            / (2 * e) for u in np.eye(4)])
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)


class _Flat:
    """A constant objective that reports a nonzero gradient."""

    has_gradient = True

    def __call__(self, theta):
        return 1.0

    def value_and_grad(self, theta):
        return 1.0, np.ones(len(theta))


def _count_polishes(monkeypatch):
    """Record the status of every L-BFGS-B run that fit starts."""
    import modwhittle.optimize as optimize
    statuses = []
    real = optimize.minimize

    def counting(*args, **kwargs):
        res = real(*args, **kwargs)
        if kwargs.get("method") == "L-BFGS-B":
            statuses.append(int(res.status))
        return res

    monkeypatch.setattr(optimize, "minimize", counting)
    return statuses


def test_polish_that_fails_the_gradient_test_is_restarted_once(monkeypatch):
    statuses = _count_polishes(monkeypatch)
    res = fit(_Flat(), np.array([0.5, 1.0]), lower=[0.0, 0.0], upper=[1.0, np.inf],
              n_starts=1)
    assert len(statuses) == 2 and 1 not in statuses
    assert not res.converged
    assert res.n_grad_evals >= 2


def test_polish_at_the_iteration_limit_is_not_restarted(monkeypatch):
    statuses = _count_polishes(monkeypatch)
    res = fit(_Smooth(), np.array([1.0, 0.5, 1.0, 0.0]), n_starts=1, max_iter=1)
    assert statuses == [1]
    assert not res.converged


@pytest.mark.parametrize("start, tstar", [(1.0, 1.3), (1.0, 0.7), (-2.0, -1.8)])
def test_one_parameter_quadratic_takes_at_most_four_evaluations(start, tstar):
    obj = _Quadratic(np.eye(1), np.array([tstar]))
    res = fit(obj, np.array([start]), lower=[-np.inf], upper=[np.inf], n_starts=1)
    assert res.n_evals == res.n_grad_evals == obj.grad_calls <= 4
    assert abs(res.theta_hat.values[0] - tstar) < 1e-12
    assert res.converged and res.at_bound == []


def test_one_parameter_search_stops_at_the_box_edge():
    for lower, start in ((0.0, 0.5), (-1.0, 0.5)):  # log and plain coordinates
        obj = _Quadratic(np.eye(1), np.array([2.0]))
        res = fit(obj, np.array([start]), lower=[lower], upper=[1.0], n_starts=1)
        assert res.at_bound == ["theta0"] and res.converged
        assert 1.0 - 1e-9 < res.theta_hat.values[0] < 1.0
        assert obj.grad_calls <= 5


class _Wall:
    """-theta until a steep rise at 0.95 (minimum at 0.9505), +inf at
    |theta| >= 1: a constant derivative lets the bracket's steps grow past
    the wall."""

    has_gradient = True

    def __init__(self):
        self.rejected = 0

    def __call__(self, theta):
        return self.value_and_grad(theta)[0]

    def value_and_grad(self, theta):
        t = float(theta[0])
        if abs(t) >= 1.0:
            self.rejected += 1
            return np.inf, np.zeros(1)
        rise = max(0.0, t - 0.95)
        return -t + 1e3 * rise ** 2, np.array([-1.0 + 2e3 * rise])


def test_one_parameter_search_halves_back_from_inf():
    obj = _Wall()
    res = fit(obj, np.array([0.0]), lower=[-np.inf], upper=[np.inf], n_starts=1)
    assert 0 < obj.rejected <= 3  # no step goes back past a +inf trial
    assert abs(res.theta_hat.values[0] - 0.9505) < 1e-9
    assert res.converged and res.n_evals <= 12


def test_one_parameter_search_is_deterministic():
    fits = [fit(_Wall(), np.array([0.2]), lower=[-np.inf], upper=[np.inf], n_starts=2)
            for _ in range(2)]
    assert fits[0].starts == 1  # the first start converged: no retry
    assert np.array_equal(fits[0].theta_hat.values, fits[1].theta_hat.values)
    assert fits[0].objective_value == fits[1].objective_value
    assert fits[0].n_evals == fits[1].n_evals


def test_bracket_trial_with_equal_end_derivatives():
    # the secant of equal derivatives has no root; the cubic still does
    trial = _shrink_trial((0.0, 1.0, -1.0), (1.0, 1.0, -1.0))
    assert abs(trial - (3.0 - np.sqrt(3.0)) / 6.0) < 1e-15
    # a modulated AR(1) fit at N = 3 whose bracket met equal derivatives
    # (found by tests/test_properties.py)
    data = Series(np.array([-3.0, 2.624139567885234, 0.948987829777313]))
    obj = Objective("modulated-whittle", data, ar_model([0.5], 1.0),
                    modulator=Modulator(np.ones(3)), check_significance=False)
    assert np.isfinite(fit(obj, obj.init_params).objective_value)


def _numpy_shrink_trial(a, b):
    """The bracket trial in numpy floats, the reference for the Python float
    arithmetic of _shrink_trial: nan and inf where a float would raise."""
    (ya, fa, ga), (yb, fb, gb) = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(all="ignore"):
        d1 = ga + gb - 3.0 * (fa - fb) / (ya - yb)
        d2 = np.sign(yb - ya) * np.sqrt(d1 * d1 - ga * gb)
        cubic = yb - (yb - ya) * (gb + d2 - d1) / (gb - ga + 2.0 * d2)
        secant = ya - ga * (yb - ya) / (gb - ga)
    for y in (cubic, secant):
        if min(ya, yb) < y < max(ya, yb):
            return float(y)
    return float(0.5 * (ya + yb))


def test_bracket_trial_is_the_numpy_formula_bit_for_bit():
    rng = np.random.default_rng(23)
    kinds = ("plain", "end at +inf", "equal derivatives", "tiny bracket")
    seen = dict.fromkeys(kinds + ("negative discriminant",), 0)
    for i in range(10_000):
        kind = kinds[i % len(kinds)]
        ya = float(rng.normal(scale=10.0 ** rng.integers(-3, 3)))
        width = float(rng.exponential(10.0 ** rng.integers(-3, 2)))
        if kind == "tiny bracket":
            width = 2e-10 * max(1.0, abs(ya)) * float(rng.uniform(1.0, 4.0))
        yb = ya + (width if rng.random() < 0.5 else -width)
        fa, fb, ga, gb = (float(v) for v in rng.normal(scale=2.0, size=4))
        if kind == "end at +inf":
            fb = np.inf
        elif kind == "equal derivatives":
            gb = ga
        a, b = (ya, fa, ga), (yb, fb, gb)
        d1 = ga + gb - 3.0 * (fa - fb) / (ya - yb)
        seen[kind] += 1
        seen["negative discriminant"] += d1 * d1 - ga * gb < 0.0
        want = _numpy_shrink_trial(a, b)
        got = _shrink_trial(a, b)
        assert type(got) is float and got.hex() == want.hex(), (kind, a, b)
    assert min(seen.values()) >= 100


@pytest.mark.parametrize("seed", [0, 1, 3, 6])
def test_whittle_ar1_with_phi_unbounded_reaches_the_bounded_fit(seed):
    # phi without bounds scores +inf at |phi| >= 1; the fit must step back
    # to the optimum that a fit with phi in (-0.99, 0.99) finds
    from modwhittle import Objective, ar_model
    from modwhittle.models import model_from_json

    data = simulate_ar(ar_model([0.7], 1.0), 256, seed)
    spec = {"family": "ar", "params": {"phi1": 0.5, "sigma": 1.0}}
    free = Objective("whittle", data, model_from_json(
        {**spec, "bounds": {"phi1": [None, None]}}))
    boxed = Objective("whittle", data, model_from_json(
        {**spec, "bounds": {"phi1": [-0.99, 0.99], "sigma": [0, None]}}))
    got, want = (fit(o, o.init_params) for o in (free, boxed))
    assert got.converged and got.profiled == ["sigma"]
    assert abs(got.theta_hat.values[0] - want.theta_hat.values[0]) < 1e-6
    assert got.objective_value <= want.objective_value + 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_car1_config_without_bounds_reaches_the_bounded_fit(seed):
    # r and gamma take the bounds of car1_model, so L-BFGS-B's first trial
    # cannot leave the model class with r >= 1
    from modwhittle import Objective
    from modwhittle.models import model_from_json

    z = simulate_complex_ar1(0.95, 1.0, np.full(255, 0.6), 256, seed)
    spec = {"family": "car1", "params": {"r": 0.5, "sigma": 1.0, "gamma": 0.0}}
    free = Objective("whittle", z, model_from_json(spec))
    boxed = Objective("whittle", z, model_from_json(
        {**spec, "bounds": {"r": [0.0, 0.999], "sigma": [0.0, None],
                            "gamma": [-np.pi, np.pi]}}))
    got, want = (fit(o, o.init_params) for o in (free, boxed))
    assert got.converged and got.profiled == ["sigma"]
    assert got.n_evals == got.n_grad_evals > 0
    np.testing.assert_allclose(got.theta_hat.values, want.theta_hat.values,
                               rtol=1e-6, atol=1e-6)
    assert got.objective_value <= want.objective_value + 1e-12


def test_fit_records_every_start():
    obj = _Quadratic(np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([0.4, 1.7]))
    res = fit(obj, np.array([0.0, 1.0]), lower=[-10, 0], upper=[10, np.inf],
              n_starts=2, seed=5)
    # the first start converged, so the retry was not searched
    assert len(res.start_results) == 1 and res.starts == 1
    assert sum(r["n_evals"] for r in res.start_results) == res.n_evals
    assert all(r["converged"] for r in res.start_results)
    best = res.start_results[res.best_start]
    assert best["objective"] == res.objective_value
    assert best["objective"] == min(r["objective"] for r in res.start_results)
    assert best["init"] == {"theta0": 0.0, "theta1": 1.0}
    out = res.asdict()
    assert out["start_results"] == res.start_results and out["best_start"] == res.best_start
    # a start that scores +inf is recorded and loses to the perturbed one,
    # 1.2 + 0.5 N(0, 1) = 0.33 with seed 8
    res = fit(_Wall(), np.array([1.2]), lower=[-np.inf], upper=[np.inf], seed=8)
    assert res.starts == 1 and res.best_start == 1
    assert res.start_results[0] == {"init": {"theta0": 1.2}, "objective": None,
                                    "n_evals": 1, "converged": False}
    assert abs(res.start_results[1]["init"]["theta0"] - 0.33) < 0.005
    assert abs(res.theta_hat.values[0] - 0.9505) < 1e-9


def test_retry_follows_an_unconverged_start():
    res = fit(_Smooth(), np.array([1.0, 0.5, 1.0, 0.0]), n_starts=2, max_iter=1)
    first, retry = res.start_results
    assert not first["converged"] and first["objective"] is not None
    assert first["init"] == {f"theta{i}": v for i, v in enumerate([1.0, 0.5, 1.0, 0.0])}
    assert retry["init"] != first["init"]
    assert first["n_evals"] + retry["n_evals"] == res.n_evals
    assert res.objective_value == min(first["objective"], retry["objective"])


@pytest.mark.parametrize("n_starts", [1, 2])
def test_init_on_a_finite_bound_is_searched_from_inside_the_box(n_starts):
    res = fit(lambda th: (th[0] - 2) ** 2 + (th[1] - 0.5) ** 2, [1.0, 0.2],
              lower=[0, 0], upper=[1, 1], n_starts=n_starts)
    assert res.converged and res.at_bound == ["theta0"]
    assert len(res.start_results) == 1
    assert 1.0 - 1e-9 < res.start_results[0]["init"]["theta0"] < 1.0
    np.testing.assert_allclose(res.theta_hat.values, [1.0, 0.5], atol=1e-6)
    # a retry's perturbation is drawn from the clipped init
    res = fit(lambda th: (th[0] - 2) ** 2 + (th[1] - 0.5) ** 2, [1.0, 0.2],
              lower=[0, 0], upper=[1, 1], n_starts=n_starts, max_iter=1)
    assert len(res.start_results) == n_starts
    assert all(0.0 < v < 1.0 for r in res.start_results for v in r["init"].values())
    # an init beyond a bound is no start: it is not clipped
    for bad in ([np.nan, 0.2], [1.5, 0.2], [0.5, -0.5]):
        with pytest.raises(FitFailure, match="outside the bounds"):
            fit(lambda th: 0.0, bad, lower=[0, 0], upper=[1, 1], n_starts=n_starts)
    with pytest.raises(FitFailure, match="outside the bounds"):
        fit(lambda th: 0.0, [0.1, 0.2], lower=[0.51, 0], upper=[4, 1], n_starts=n_starts)
    # 0 under a lower bound of 0 has no log coordinate to start from
    with pytest.raises(FitFailure, match="cannot leave"):
        fit(lambda th: 0.0, [0.0, 0.2], lower=[0, 0], upper=[1, 1], n_starts=n_starts)


def test_plain_callable_reaches_the_optimum_beside_a_bound():
    # the coordinate pinned at its bound must not stop the other one
    res = fit(lambda th: (th[0] - 2) ** 2 + (th[1] - 0.5) ** 2, [0.5, 0.2],
              lower=[0, 0], upper=[1, 1])
    assert res.converged and res.at_bound == ["theta0"]
    assert abs(res.objective_value - 1.0) < 1e-9
    np.testing.assert_allclose(res.theta_hat.values, [1.0, 0.5], atol=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_car1_with_r_and_gamma_unbounded_reaches_the_bounded_fit(seed):
    # L-BFGS-B's first unit step leaves the model class (r >= 1 scores
    # +inf); the reruns with shorter first steps must reach the optimum
    from modwhittle import Objective
    from modwhittle.models import model_from_json

    z = simulate_complex_ar1(0.95, 1.0, np.full(255, 0.6), 256, seed)
    spec = {"family": "car1", "params": {"r": 0.5, "sigma": 1.0, "gamma": 0.0}}
    free = Objective("whittle", z, model_from_json(
        {**spec, "bounds": {"r": [None, None], "gamma": [None, None]}}))
    boxed = Objective("whittle", z, model_from_json(spec))
    got, want = (fit(o, o.init_params) for o in (free, boxed))
    f = want.objective_value
    assert got.converged and got.n_rejected > 0
    assert got.objective_value <= f + 1e-9 * max(1.0, abs(f))


def test_n_evals_counts_every_call_of_an_objective_without_a_score():
    calls = []

    def objective(theta):
        calls.append(theta)
        return float((theta[0] - 0.3) ** 2 + (theta[1] + 0.2) ** 4 + theta[0] * theta[1])

    res = fit(objective, np.array([0.5, 0.5]), lower=[0.0, -1.0], upper=[1.0, 1.0])
    assert res.n_evals == len(calls) > 0
    assert res.n_grad_evals == 0
    assert sum(r["n_evals"] for r in res.start_results) == res.n_evals


def _without_a_score(case, seed):
    """(objective, init, profiled) of an objective without an analytic score:
    the dense exact kind and Car1WhittleObjective."""
    from modwhittle import Objective, ar_model, car1_model
    from modwhittle.likelihood import Car1WhittleObjective

    n = 256
    if case == "ar1-exact":
        x = simulate_ar(ar_model([0.7], 1.0), n, seed)
        obj = Objective("exact", x, ar_model([0.1], 1.0))
        return obj, obj.init_params, ["sigma"]
    z = simulate_complex_ar1(0.8, 1.0, np.full(n - 1, 0.6), n, seed)
    if case == "car1-free-exact":  # d = 2: r and gamma
        obj = Objective("exact", z, car1_model(0.5, 1.0, gamma=0.0))
        return obj, obj.init_params, ["sigma"]
    return Car1WhittleObjective(z, rotation=None), np.array([0.5, 1.0, 0.0]), []


def _log_barrier(theta):
    t = float(theta[0])
    return t - 0.3 * np.log(t) + 0.05 * np.sin(3.0 * t)


# theta-hat (as float.hex), evaluations and convergence of one-parameter
# fits without a score in a log coordinate (a lower bound of 0), as the
# array-based 1-D search gave them: the central difference is already a
# derivative in log theta, so the search must take it as it is
NO_SCORE_LOG_PINS = {
    ("plain", 2.0, np.inf): (["0x1.169322cf2b64bp-2"], 33),
    ("plain", 0.9, 1.0): (["0x1.169322cebeb4dp-2"], 27),
    ("plain", 0.001, np.inf): (["0x1.169322cebcdc1p-2"], 27),
    ("car1-exact", 0): (["0x1.8de7bc7681711p-1", "0x1.026c111457e81p+0"], 30),
    ("car1-exact", 1): (["0x1.795abe11cf456p-1", "0x1.d54572c03f789p-1"], 24),
    ("car1-exact", 2): (["0x1.8d55cf39c81d4p-1", "0x1.01ab55d5949b5p+0"], 30),
}


@pytest.mark.parametrize("case", list(NO_SCORE_LOG_PINS),
                         ids=lambda case: "-".join(map(str, case)))
def test_one_parameter_fit_without_a_score_in_a_log_coordinate(case):
    from modwhittle import car1_model

    if case[0] == "plain":
        _, init, upper = case
        res = fit(_log_barrier, np.array([init]), lower=[0.0], upper=[upper])
    else:  # the dense exact kind, r in [0, 1) with the scale profiled
        z = simulate_complex_ar1(0.8, 1.0, np.full(255, 0.6), 256, case[1])
        obj = Objective("exact", z, car1_model(0.5, 1.0, rotation=0.6))
        assert not obj.has_gradient
        res = fit(obj, obj.init_params)
        assert res.profiled == ["sigma"]
    got = ([float(v).hex() for v in res.theta_hat.values], res.n_evals)
    assert got == NO_SCORE_LOG_PINS[case]
    assert res.converged and res.message == "gradient at most GRAD_GTOL"


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", ["car1-free-exact", "car1-whittle", "ar1-exact"])
def test_objective_without_a_score_ends_no_higher_than_the_simplex(case, seed):
    from helpers import simplex_fit

    obj, init, profiled = _without_a_score(case, seed)
    assert not getattr(obj, "has_gradient", False)
    got = fit(obj, init)
    want = simplex_fit(obj, init)
    f = want.objective_value
    assert got.converged and got.profiled == profiled
    assert got.n_evals > 0 and got.n_grad_evals == 0
    assert got.objective_value <= f + 1e-9 * max(1.0, abs(f))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", ["ou", "matern"])
def test_ou_and_matern_fit_on_the_score_of_the_modulated_kind(family, seed):
    # the Whittle kind takes no ou or matern latent; the modulated kind with
    # g = 1 (the debiased Whittle likelihood) fits them on their acv score
    from helpers import simplex_fit

    from modwhittle import constant_modulator, matern_model, ou_model
    from modwhittle.models import autocov_sequence
    from modwhittle.simulate import simulate_from_acv

    n = 256
    truth, start = ((ou_model(1.2, 0.5, rotation_cpd=1.0), ou_model(1.0, 1.0, rotation_cpd=1.0))
                    if family == "ou" else
                    (matern_model(1.2, 0.7, 1.4), matern_model(1.0, 1.0, 1.0)))
    x = simulate_from_acv(autocov_sequence(truth, n), n, seed, kind="complex")
    obj = Objective("modulated-whittle", x, start, modulator=constant_modulator(n))
    assert obj.has_gradient
    got = fit(obj, obj.init_params)
    want = simplex_fit(obj, obj.init_params)
    f = want.objective_value
    assert got.converged and got.profiled == [start.params.names[0]]
    assert got.n_evals > 0 and got.n_grad_evals == got.n_evals
    assert got.objective_value <= f + 1e-9 * max(1.0, abs(f))
