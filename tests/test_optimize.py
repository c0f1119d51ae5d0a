import numpy as np
import pytest

from modwhittle import Series
from modwhittle.core import ParameterVector
from modwhittle.optimize import (
    FitFailure,
    _polish_coordinates,
    _polish_value_and_grad,
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
    assert log_mask.tolist() == [True, True, False, False, True, False]
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
    assert log_mask.tolist() == [True, False, True, False]
    obj = _Smooth()
    for _ in range(10):
        theta = np.array([rng.uniform(0.6, 2.9), rng.uniform(-0.9, 1.9),
                          rng.lognormal(), 5.0 - rng.lognormal()])
        y = np.where(log_mask, np.log(np.abs(theta)), theta)
        _, grad = _polish_value_and_grad(y, obj, log_mask, box_lo, box_hi)
        e = 1e-6
        fd = np.array([
            (_polish_value_and_grad(y + e * u, obj, log_mask, box_lo, box_hi)[0]
             - _polish_value_and_grad(y - e * u, obj, log_mask, box_lo, box_hi)[0]) / (2 * e)
            for u in np.eye(4)])
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
    assert fits[0].starts == 2
    assert np.array_equal(fits[0].theta_hat.values, fits[1].theta_hat.values)
    assert fits[0].objective_value == fits[1].objective_value
    assert fits[0].n_evals == fits[1].n_evals


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
    assert len(res.start_results) == 2 and res.starts == 2
    assert sum(r["n_evals"] for r in res.start_results) == res.n_evals
    assert all(r["converged"] for r in res.start_results)
    best = res.start_results[res.best_start]
    assert best["objective"] == res.objective_value
    assert best["objective"] == min(r["objective"] for r in res.start_results)
    out = res.asdict()
    assert out["start_results"] == res.start_results and out["best_start"] == res.best_start
    # a start that scores +inf is recorded and loses to the perturbed one,
    # 1.2 + 0.5 N(0, 1) = 0.33 with seed 8
    res = fit(_Wall(), np.array([1.2]), lower=[-np.inf], upper=[np.inf], seed=8)
    assert res.starts == 1 and res.best_start == 1
    assert res.start_results[0] == {"objective": None, "n_evals": 1, "converged": False}
    assert abs(res.theta_hat.values[0] - 0.9505) < 1e-9


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
    """An Objective of a model whose family has no analytic score."""
    from modwhittle import Objective, ar_model, bernoulli_mask, ma_model
    from modwhittle.models import autocov_sequence
    from modwhittle.simulate import simulate_from_acv

    n = 256
    if case.startswith("ar2"):
        x = simulate_ar(ar_model([1.2, -0.5], 1.0), n, seed)
        if case == "ar2-whittle":
            return Objective("whittle", x, ar_model([0.1, 0.1], 1.0))
        mod = bernoulli_mask(0.7, seed=seed, n=n)
        return Objective("modulated-whittle", Series(mod.g * x.values),
                         ar_model([0.1, 0.1], 1.0), modulator=mod)
    if case == "ar1-exact":
        x = simulate_ar(ar_model([0.7], 1.0), n, seed)
        return Objective("exact", x, ar_model([0.1], 1.0))
    q = int(case[2])
    truth = ma_model([0.6, 0.3][:q], 1.0)
    x = simulate_from_acv(autocov_sequence(truth, n), n, seed)
    return Objective("whittle", x, ma_model([0.1] * q, 1.0))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", ["ar2-whittle", "ar2-masked-modulated", "ma2-whittle",
                                  "ma1-whittle", "ar1-exact"])
def test_objective_without_a_score_ends_no_higher_than_the_simplex(case, seed):
    from helpers import simplex_fit

    obj = _without_a_score(case, seed)
    assert not obj.has_gradient
    got = fit(obj, obj.init_params)
    want = simplex_fit(obj, obj.init_params)
    f = want.objective_value
    assert got.converged and got.profiled == ["sigma"]
    assert got.n_evals > 0 and got.n_grad_evals == 0
    assert got.objective_value <= f + 1e-9 * max(1.0, abs(f))
