"""The concentrated (scale-profiled) likelihood of every single-latent objective.

Each kind is fitted twice: concentrated, as :func:`fit` does by default, and
jointly, through a wrapper that hides the objective's scale.  The two must
agree, the profile must be the joint objective at a scale where it is flat,
and data that are zero where the objective looks must score +inf.
"""

import warnings

import numpy as np
import pytest

from modwhittle import (
    Modulator,
    Objective,
    Series,
    ar_model,
    bernoulli_mask,
    car1_model,
    fit,
    fourier_grid,
    frequency_modulator,
    periodic_missing_mask,
)
from modwhittle.core import ParameterVector
from modwhittle.likelihood import exact_gaussian_nll, resolve_mask, spectral_nll
from modwhittle.models import sdf_entry
from modwhittle.modulation import LinearRampKernel, cg_sequence, linear_beta
from modwhittle.optimize import FitFailure
from modwhittle.simulate import (
    ESTIMATORS,
    bounded_random_walk_beta,
    simulate_ar,
    simulate_complex_ar1,
)
from modwhittle.spectra import expected_periodogram, periodogram


class _Joint:
    """An objective without ``scale_index``: fit searches every parameter."""

    def __init__(self, objective):
        self.objective = objective

    def __call__(self, theta):
        return self.objective(theta)

    def value_and_grad(self, theta):
        return self.objective.value_and_grad(theta)


def _whittle_ar1(rng, mask=None):
    x = simulate_ar(ar_model([0.7], 1.3), 256, rng)
    obj = Objective("whittle", x, ar_model([0.5], 1.0), mask=mask)
    return obj, obj.init_params


def _whittle_car1(rng, free):
    beta = np.full(255, 0.4)
    z = simulate_complex_ar1(0.8, 1.2, beta, 256, rng)
    model = (car1_model(0.5, 1.0, gamma=0.2) if free
             else car1_model(0.5, 1.0, rotation=0.4))
    obj = Objective("whittle", z, model)
    return obj, obj.init_params


def _modulated_car1(rng):
    beta = bounded_random_walk_beta(np.pi / 2, 1.0, 0.05, 256, rng)[1:]
    z = simulate_complex_ar1(0.8, 1.0, beta, 256, rng)
    obj = Objective("modulated-whittle", z, car1_model(0.5, 1.0),
                    modulator=frequency_modulator(beta), check_significance=False)
    return obj, obj.init_params


def _ramp(kind):
    def make(rng):
        z = simulate_complex_ar1(0.9, 10.0, linear_beta(0.8, 2.0, 256), 256, rng)
        return ESTIMATORS[("car1-linear-beta", kind)](z, {})
    return make


def _modulated_exact(rng):
    mod = periodic_missing_mask(3, 1, 96)
    x = simulate_ar(ar_model([0.6], 0.8), 96, rng)
    obj = Objective("exact", Series(mod.g * x.values), ar_model([0.5], 1.0),
                    modulator=mod)
    return obj, obj.init_params


CASES = {
    "whittle-ar1": _whittle_ar1,
    "whittle-ar1-band": lambda rng: _whittle_ar1(
        rng, mask=np.abs(fourier_grid(256).frequencies) < 1.5),
    "whittle-car1-fixed": lambda rng: _whittle_car1(rng, free=False),
    "whittle-car1-free": lambda rng: _whittle_car1(rng, free=True),
    "modulated-modulator": _modulated_car1,
    "modulated-ramp-kernel": _ramp("modulated"),
    "exact-modulator": _modulated_exact,
    "exact-markov": _ramp("exact"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_concentrated_fit_matches_the_joint_fit(case):
    obj, init = CASES[case](np.random.default_rng(11))
    k = obj.scale_index
    conc = fit(obj, init, n_starts=1)
    joint = fit(_Joint(obj), init, n_starts=1)
    assert conc.profiled == [init.names[k]] and joint.profiled == []
    assert conc.asdict()["profiled"] == conc.profiled
    np.testing.assert_allclose(conc.theta_hat.values, joint.theta_hat.values,
                               rtol=1e-7, atol=0)
    f = joint.objective_value
    assert conc.objective_value <= f + 1e-12 * max(1.0, abs(f))
    # objective_value is still the objective at theta_hat, scale included
    assert abs(obj(conc.theta_hat.values) - conc.objective_value) \
        <= 1e-12 * max(1.0, abs(f))


@pytest.mark.parametrize("case", list(CASES))
def test_profile_is_the_joint_objective_where_it_is_flat_in_the_scale(case):
    obj, init = CASES[case](np.random.default_rng(12))
    k = obj.scale_index
    rest = np.delete(init.values, k)
    value, grad, scale = obj.profile(rest, True)
    theta = np.insert(rest, k, scale)
    assert abs(obj(theta) - value) <= 1e-12 * max(1.0, abs(value))
    # dl/dscale = 0 at the concentrated scale, by central differences ...
    h = 1e-5
    lo, hi = (obj(np.insert(rest, k, scale * (1.0 + e))) for e in (-h, h))
    assert abs(hi - lo) / (2.0 * h * scale) <= 1e-8
    assert min(lo, hi) >= value
    # ... and in the joint score, whose other entries are the profile's
    joint_value, joint_grad = obj.value_and_grad(theta)
    assert abs(joint_grad[k]) * scale <= 1e-10 * max(1.0, abs(value))
    np.testing.assert_allclose(grad, np.delete(joint_grad, k),
                               rtol=1e-8, atol=1e-12)


def _reference(obj, theta):
    """The objective at theta from the spectrum or covariance at theta's own
    scale: spectral_nll on scale^2 S_1, or the dense exact likelihood."""
    n, k = len(obj.data), obj.scale_index
    if isinstance(obj.modulator, LinearRampKernel):  # theta = (r, sigma, gamma, span)
        model = car1_model(theta[0], theta[1])
        mod = frequency_modulator(linear_beta(theta[2], theta[3], n))
    else:
        model, mod = obj.model.with_values(theta), obj.modulator
    if obj.kind == "exact":
        return exact_gaussian_nll(obj.data, mod, model)
    unit = model.params.values.copy()
    unit[k] = 1.0
    unit = model.with_values(unit)
    s1 = (sdf_entry(unit, fourier_grid(n).frequencies)(unit.params.values, False)[0]
          if obj.kind == "whittle" else expected_periodogram(cg_sequence(mod), unit))
    return spectral_nll(periodogram(obj.data), theta[k] ** 2 * s1, resolve_mask(n, obj.mask))


@pytest.mark.parametrize("case", list(CASES))
def test_every_kind_takes_its_scale_in_one_closed_form(case):
    obj, init = CASES[case](np.random.default_rng(13))
    k = obj.scale_index
    for scale in (0.3, 4.0):
        theta = init.values.copy()
        theta[k] = scale
        f = _reference(obj, theta)
        assert abs(obj(theta) - f) <= 1e-12 * max(1.0, abs(f))
    for scale in (0.0, -1.0):
        theta[k] = scale
        before = obj.n_rejected
        assert obj(theta) == np.inf
        assert obj.n_rejected == before + 1


def _zero_objectives():
    n = 32
    zeros = Series(np.zeros(n))
    zeros_c = Series(np.zeros(n, dtype=complex), kind="complex")
    band = np.abs(fourier_grid(n).frequencies) < 1.0
    mod = bernoulli_mask(0.7, seed=3, n=n)
    return [
        Objective("whittle", zeros, ar_model([0.5], 1.0), mask=band),
        Objective("whittle", zeros_c, car1_model(0.5, 1.0, gamma=0.1)),
        Objective("modulated-whittle", zeros, ar_model([0.5], 1.0), modulator=mod,
                  check_significance=False),
        Objective("modulated-whittle", zeros_c, car1_model(0.5, 1.0),
                  modulator=LinearRampKernel(n)),
        Objective("exact", zeros, ar_model([0.5], 1.0), modulator=Modulator(mod.g)),
        Objective("exact", zeros_c, car1_model(0.5, 1.0), modulator=LinearRampKernel(n)),
    ]


def test_zero_data_on_the_mask_scores_inf_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for obj in _zero_objectives():
            rest = np.delete(obj.init_params.values, obj.scale_index)
            assert obj.profile(rest) == (np.inf, None, None)
            value, grad, scale = obj.profile(rest, True)
            assert value == np.inf and scale is None
            assert np.array_equal(grad, np.zeros(rest.size))
            assert obj.n_rejected == 2
            with pytest.raises(FitFailure):
                fit(obj, obj.init_params)


def test_reject_counter_counts_every_inf_score():
    rng = np.random.default_rng(4)
    x = simulate_ar(ar_model([0.5], 1.0), 64, rng)
    obj = Objective("whittle", x, ar_model([0.5], 1.0))
    assert obj.n_rejected == 0
    assert obj([1.5, 1.0]) == np.inf
    assert obj.value_and_grad([np.nan, 1.0])[0] == np.inf
    assert obj.profile([1.5])[0] == np.inf
    assert np.isfinite(obj([0.5, 1.0]))
    assert obj.n_rejected == 3
    res = fit(obj, obj.init_params)
    assert res.n_rejected >= 0 and obj.n_rejected == 3 + res.n_rejected
    assert res.asdict()["n_rejected"] == res.n_rejected


def test_scale_alone_has_a_closed_form_fit():
    x = Series(np.random.default_rng(6).normal(size=128))
    obj = Objective("whittle", x, ar_model([], 1.0))
    res = fit(obj, obj.init_params)
    assert res.profiled == ["sigma"] and res.message == "closed form"
    assert res.n_evals == 0 and res.converged
    shat = np.fft.fft(x.values)
    assert abs(res.theta_hat.values[0] ** 2 - np.mean(np.abs(shat) ** 2) / 128) < 1e-12


def test_a_bounded_scale_keeps_the_joint_fit():
    obj, init = _whittle_ar1(np.random.default_rng(7))
    bounded = ParameterVector(init.names, init.values, lower=[-np.inf, 0.5],
                              upper=[np.inf, 1.2])
    res = fit(obj, bounded, n_starts=1)
    assert res.profiled == []
    assert 0.5 < res.theta_hat.values[1] < 1.2
