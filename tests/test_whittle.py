"""The Whittle kind by periodogram moments: its closed-form sums against the
direct sum over the grid, where they cancel, what an evaluation costs, and
the stationary fits' starts at the minimiser of its quadratic form."""

import numpy as np
import pytest

from helpers import assert_gradient_matches, counted_transforms, first_replicate
from modwhittle import Objective, Series, ar_model, car1_model
from modwhittle import models
from modwhittle.core import fourier_grid
from modwhittle.likelihood import resolve_mask
from modwhittle.modulation import constant_modulator
from modwhittle.models import scale_index, sdf_entry, with_scale_row
from modwhittle.optimize import fit
from modwhittle.simulate import ESTIMATORS
from modwhittle.spectra import periodogram

MODELS = {
    "ar-0.6": (ar_model([-0.6], 1.3), False),
    "ar0.99": (ar_model([0.99], 0.7), False),
    "white": (ar_model([], 1.2), False),
    "car1": (car1_model(0.5, 0.9), False),  # real acv: a real series keeps the half grid
    "car1-fixed": (car1_model(0.7, 1.1, rotation=0.4), True),
    "car1-free": (car1_model(0.6, 0.9, gamma=-1.1), True),
}


def _masks(n):
    """Every distinct mask of the grid of n to test, in grid order: none, two
    symmetric bands, and the one +-w pair of k = 1 and N - 1."""
    w = fourier_grid(n).frequencies
    out = {"none": None}
    for name, mask in (("low", np.abs(w) <= 2.0), ("high", np.abs(w) >= 1.0),
                       ("pair", np.isclose(np.abs(w), 2.0 * np.pi / n))):
        if mask.any() and not mask.all():
            out[name] = mask
    return out


# phi = 0.99 at N = 16, where |z|^N = 0.85 is not negligible; not at N <= 3,
# where all of a random periodogram can sit at the pole's frequency w = 0 and Q
# cancels (see the next test but one)
CASES = [(n, name, band) for n in (1, 2, 3, 16, 37, 64) for name in MODELS
         for band in _masks(n) if name != "ar0.99" or n == 16]


def _direct(obj, theta):
    """The Whittle value and score at theta by the direct sum over the mask
    of c_k (log f_k + Shat_k / f_k), c_k = 1 on the whole grid, with f from
    the sdf entry, and the sums of the absolute values of their two parts
    (log f_k and Shat_k / f_k, and their derivatives): the scale of their
    rounding."""
    n, k, model = len(obj.data), obj.scale_index, obj.model
    mask = resolve_mask(n, obj.mask)
    f, jac = sdf_entry(model, fourier_grid(n).frequencies)(theta, True)
    jac = with_scale_row(model.family, jac, k, f, theta[k])
    shat = periodogram(obj.data)
    f, jac, ratio = f[mask], jac[:, mask], shat[mask] / f[mask]
    value = (np.log(f) + ratio).sum() / n
    score = (jac * ((1.0 - ratio) / f)).sum(axis=1) / n
    return (value, score, (np.abs(np.log(f)) + ratio).sum() / n,
            (np.abs(jac) * ((1.0 + ratio) / f)).sum(axis=1) / n)


def _case(n, name, band, seed=0):
    model, complex_data = MODELS[name]
    rng = np.random.default_rng([n, seed])
    x = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_data else 0.0)
    data = Series(x, kind="complex" if complex_data else "real")
    obj = Objective("whittle", data, model, mask=_masks(n)[band])
    theta = model.params.values.copy()
    theta[scale_index(model)] *= 1.3
    return obj, theta


@pytest.mark.parametrize("n, name, band", CASES)
def test_whittle_moments_give_the_direct_sum_and_its_score(n, name, band):
    obj, theta = _case(n, name, band)
    value, grad = obj.value_and_grad(theta)
    want, want_grad, scale, grad_scale = _direct(obj, theta)
    assert value == obj(theta)
    assert abs(value - want) <= 1e-13 * scale, (value, want)
    assert np.all(np.abs(grad - want_grad) <= 1e-13 * grad_scale), (grad, want_grad)
    # the profiled value is the direct one at its own scale
    k = obj.scale_index
    rest = np.delete(theta, k)
    best, rest_grad, at = obj.profile(rest, True)
    want, want_grad, scale, grad_scale = _direct(obj, np.insert(rest, k, at))
    assert abs(best - want) <= 1e-13 * scale
    assert np.all(np.abs(rest_grad - np.delete(want_grad, k))
                  <= 1e-13 * np.delete(grad_scale, k))


@pytest.mark.parametrize("n, name, band", [c for c in CASES if c[0] >= 16])
def test_whittle_score_matches_central_differences(n, name, band):
    obj, theta = _case(n, name, band, seed=1)
    assert_gradient_matches(obj, theta)


@pytest.mark.parametrize("rotation", [None, 0.7])
def test_a_cancelling_quadratic_form_scores_finite_or_is_rejected(rotation):
    # all the power in one bin, w0 = 2 pi 3 / N, and the pole's frequency on
    # it: Q = (1 + r^2) A - 2 r Re(e^{-i w0} C) is A (1 - r)^2, a difference
    # of moments that cancels as r -> 1
    n = 64
    w0 = 2.0 * np.pi * 3 / n
    data = Series(np.exp(1j * w0 * np.arange(n)), kind="complex")
    model = (car1_model(0.5, 1.0, gamma=w0) if rotation is None
             else car1_model(0.5, 1.0, rotation=w0))
    obj = Objective("whittle", data, model)
    for r in (0.9, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, np.nextafter(1.0, 0.0)):
        rest = [r] if rotation is not None else [r, w0]
        unit = [r, 1.0, *rest[1:]]
        for evaluate in (lambda: obj.profile(rest, True)[:2], lambda: obj.value_and_grad(unit)):
            before = obj.n_rejected
            value, grad = evaluate()
            if value == np.inf:
                assert obj.n_rejected == before + 1 and not grad.any()
            else:
                assert np.isfinite(value) and np.isfinite(grad).all()
                assert obj.n_rejected == before
        # the quadratic form it scores with is positive, or it is rejected
        try:
            _, quad, *_ = obj._chain(unit, False)
        except ValueError:
            continue
        assert quad > 0.0


def _counted_sdf_entries(monkeypatch) -> list:
    """The list that each later call of an sdf entry (built after this)
    appends its family to."""
    calls = []
    for family, fn in list(models._SDF.items()):
        def counted(*args, _family=family, _fn=fn, **kwargs):
            calls.append(_family)
            return _fn(*args, **kwargs)
        monkeypatch.setitem(models._SDF, family, counted)
    return calls


@pytest.mark.parametrize("config", ["table1_ci", "table2_ci"])
def test_an_unmasked_whittle_evaluation_makes_no_transform_and_no_sdf_call(config, monkeypatch):
    study, data, aux = first_replicate(config, 512)
    sdf_calls = _counted_sdf_entries(monkeypatch)
    objective, init = ESTIMATORS[study.kind, "stationary"](data, aux)
    transforms = counted_transforms(monkeypatch)  # after the build's periodogram
    theta = init.values
    objective(theta)
    objective.value_and_grad(theta)
    objective.profile(np.delete(theta, objective.scale_index), True)
    assert (transforms, sdf_calls) == ([], [])
    # under a mask its dropped bins take the sdf entry, once per evaluation
    masked = Objective("whittle", data, objective.model,
                       mask=np.abs(fourier_grid(512).frequencies) < 2.0)
    masked.value_and_grad(theta)
    masked(theta)
    assert sdf_calls == ["car1", "car1"]


@pytest.mark.parametrize("kind", sorted(kind for kind, est in ESTIMATORS if est == "stationary"))
def test_stationary_fits_start_at_the_minimiser_of_the_quadratic_form(kind):
    # the start zeroes Q's gradient, so at N = 512, where the pull of log|1 -
    # z^N| is O(N |z|^N), the fit ends at its first evaluation
    config = {"ar1-bernoulli-mask": "table3_ci", "car1-bounded-walk": "table1_ci",
              "car1-linear-beta": "table2_ci"}[kind]
    study, data, aux = first_replicate(config, 512)
    objective, init = ESTIMATORS[kind, "stationary"](data, aux)
    rest = np.delete(init.values, objective.scale_index)
    _, grad, _ = objective.profile(rest, True)
    assert np.all(np.abs(grad) <= 1e-10), grad
    res = fit(objective, init, n_starts=1)
    assert res.converged and res.n_evals == 1
    assert np.array_equal(np.delete(res.theta_hat.values, objective.scale_index), rest)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("band", ["none", "low", "pair"])
def test_whittle_start_minimises_the_quadratic_form_at_its_profiled_scale(name, band):
    obj, _ = _case(64, name, band)
    theta = obj.whittle_start(-0.999 if obj.model.family == "ar" else 1e-3, 0.999)
    k = obj.scale_index
    rest = np.delete(theta, k)
    assert len(theta) == len(obj.model.params)
    # the scale is sqrt(Q / M) at the start's pole, as profile takes it
    assert obj.profile(rest)[2] == pytest.approx(theta[k], rel=1e-13)

    def quad(rest):
        return obj._chain(list(np.insert(rest, k, 1.0)), False)[1]

    # no step in the pole's modulus or free rotation lowers Q
    for j in range(rest.size):
        for step in (-1e-4, 1e-4):
            moved = rest.copy()
            moved[j] += step
            assert quad(moved) >= quad(rest)
    with pytest.raises(ValueError, match="only the whittle kind"):
        Objective("modulated-whittle", obj.data, ar_model([0.5], 1.0),
                  modulator=constant_modulator(64)).whittle_start(-0.9, 0.9)
