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
    assert res.n_evals > res.n_grad_evals
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
    assert 0 < res.n_grad_evals <= 10
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
        _, grad = _polish_value_and_grad(y, obj, log_mask)
        e = 1e-6
        fd = np.array([
            (_polish_value_and_grad(y + e * u, obj, log_mask)[0]
             - _polish_value_and_grad(y - e * u, obj, log_mask)[0]) / (2 * e)
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
