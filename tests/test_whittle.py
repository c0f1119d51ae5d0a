"""The Whittle kind by periodogram moments: its closed-form sums against the
direct sum over the grid, where they cancel, what an evaluation costs, that
it takes no frequency mask, and the stationary fits' starts at the
minimiser of its quadratic form; and the masked modulated-whittle kind,
which takes the bands the Whittle kind does not, against its direct sum
over the mask."""

import numpy as np
import pytest

from helpers import assert_gradient_matches, counted_transforms, first_replicate, sdf
from modwhittle import Objective, Series, ar_model, car1_model
from modwhittle.core import fourier_grid
from modwhittle.likelihood import resolve_mask
from modwhittle.modulation import constant_modulator
from modwhittle.models import acv_entry, scale_index, with_scale_row
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


# phi = 0.99 at N = 16, where |z|^N = 0.85 is not negligible, and at N <= 3,
# where all of a random periodogram can sit at the pole's frequency w = 0 and
# Q as a difference of moments would cancel (see the next test but one)
CASES = [(n, name) for n in (1, 2, 3, 16, 37, 64) for name in MODELS
         if name != "ar0.99" or n <= 16]


def _direct(obj, theta):
    """The Whittle value and score at theta by the direct sum over the grid
    of log f_k + Shat_k / f_k, with f the closed-form sdf, and the sums of
    the absolute values of their two parts (log f_k and Shat_k / f_k, and
    their derivatives): the scale of their rounding."""
    n = len(obj.data)
    f, jac = sdf(obj.model.with_values(theta), fourier_grid(n).frequencies, True)
    ratio = periodogram(obj.data) / f
    value = (np.log(f) + ratio).sum() / n
    score = (jac * ((1.0 - ratio) / f)).sum(axis=1) / n
    return (value, score, (np.abs(np.log(f)) + ratio).sum() / n,
            (np.abs(jac) * ((1.0 + ratio) / f)).sum(axis=1) / n)


def _case(n, name, seed=0):
    model, complex_data = MODELS[name]
    rng = np.random.default_rng([n, seed])
    x = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_data else 0.0)
    data = Series(x, kind="complex" if complex_data else "real")
    obj = Objective("whittle", data, model)
    theta = model.params.values.copy()
    theta[scale_index(model)] *= 1.3
    return obj, theta


@pytest.mark.parametrize("n, name", CASES)
def test_whittle_moments_give_the_direct_sum_and_its_score(n, name):
    obj, theta = _case(n, name)
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


@pytest.mark.parametrize("n, name", [c for c in CASES if c[0] >= 16])
def test_whittle_score_matches_central_differences(n, name):
    obj, theta = _case(n, name, seed=1)
    assert_gradient_matches(obj, theta)


def _masks(n):
    """Every distinct band of the grid of n to test, in grid order: two
    symmetric bands, and the one +-w pair of k = 1 and N - 1."""
    w = fourier_grid(n).frequencies
    out = {}
    for name, mask in (("low", np.abs(w) <= 2.0), ("high", np.abs(w) >= 1.0),
                       ("pair", np.isclose(np.abs(w), 2.0 * np.pi / n))):
        if mask.any() and not mask.all():
            out[name] = mask
    return out


BANDED = [(n, name, band) for n, name in CASES for band in _masks(n)]


def _banded(n, name, band, seed=0):
    """_case's data and model under the modulated-whittle kind with a
    constant modulator on a band, the drifter's shape."""
    obj, theta = _case(n, name, seed)
    return Objective("modulated-whittle", obj.data, obj.model,
                     modulator=constant_modulator(n), mask=_masks(n)[band]), theta


def _direct_banded(obj, theta):
    """The masked modulated-whittle value and score at theta by the direct
    sum over the mask of log Sbar_k + Shat_k / Sbar_k, over N, with Sbar_k =
    e_k^H C e_k / N of the dense covariance C[t, s] = c_X(t - s) (g = 1) and
    e_k[t] = e^{i w_k t}, and the scales of their rounding.  Sbar and its
    derivatives are sums over the lags that cancel where Sbar is small (at
    an ar's pole near 1, say), so each rounds on the scale of its sum of
    |c_X| (|dc_X|), which a rounded Sbar carries into log Sbar and Shat /
    Sbar, and into the score's weights (1 - Shat / Sbar) / Sbar."""
    n, model, k = len(obj.data), obj.model, obj.scale_index
    acv, jac = acv_entry(model)(theta, n, True)
    rows = np.zeros((len(theta), n), dtype=complex)
    rows[:, :acv.size] = with_scale_row(model.family, jac, k, acv, theta[k])
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    e = np.exp(1j * np.outer(np.arange(n), fourier_grid(n).frequencies))
    mask = resolve_mask(n, obj.mask)

    def sbar(c):
        c = np.where(lag >= 0, c[np.abs(lag)], np.conj(c[np.abs(lag)]))
        return np.real(np.sum(np.conj(e) * (c @ e), axis=0))[mask] / n, np.abs(c).sum() / n

    s, s_abs = sbar(np.pad(acv, (0, n - acv.size)).astype(complex))
    ds, ds_abs = map(np.array, zip(*(sbar(row) for row in rows)))
    ratio = periodogram(obj.data)[mask] / s
    value = (np.log(s) + ratio).sum() / n
    score = (ds * ((1.0 - ratio) / s)).sum(axis=1) / n
    scale = (np.abs(np.log(s)) + ratio + (1.0 + ratio) * s_abs / s).sum() / n
    grad_scale = ((ds_abs[:, None] + np.abs(ds) * s_abs / s)
                  * ((1.0 + 2.0 * ratio) / s)).sum(axis=1) / n
    return value, score, scale, grad_scale


@pytest.mark.parametrize("n, name, band", BANDED)
def test_a_banded_modulated_whittle_gives_the_direct_sum_and_its_score(n, name, band):
    # the band keeps M = N (the 1/N of the full grid) and drops the other
    # bins' terms, on the half grid for the real acvs
    obj, theta = _banded(n, name, band)
    value, grad = obj.value_and_grad(theta)
    want, want_grad, scale, grad_scale = _direct_banded(obj, theta)
    assert value == obj(theta)
    assert abs(value - want) <= 1e-13 * scale, (value, want)
    assert np.all(np.abs(grad - want_grad) <= 1e-13 * grad_scale), (grad, want_grad)
    k = obj.scale_index
    rest = np.delete(theta, k)
    best, rest_grad, at = obj.profile(rest, True)
    want, want_grad, scale, grad_scale = _direct_banded(obj, np.insert(rest, k, at))
    assert abs(best - want) <= 1e-13 * scale
    assert np.all(np.abs(rest_grad - np.delete(want_grad, k))
                  <= 1e-13 * np.delete(grad_scale, k))


@pytest.mark.parametrize("n, name, band", [c for c in BANDED if c[0] >= 16])
def test_a_banded_modulated_whittle_score_matches_central_differences(n, name, band):
    obj, theta = _banded(n, name, band, seed=1)
    assert_gradient_matches(obj, theta)


@pytest.mark.parametrize("rotation", [None, 0.7])
def test_a_cancelling_quadratic_form_scores_finite_or_is_rejected(rotation):
    # all the power in one bin, w0 = 2 pi 3 / N, and the pole's frequency on
    # it: Q is A (1 - r)^2, plus the power that the sinusoid's rounding
    # leaves in the other bins (about 1e-30 each).  A fixed rotation takes Q
    # as a sum of terms of one sign, (1 - r)^2 A + 2 r P, which keeps its
    # relative precision at every r; a free one as the difference of moments
    # (1 + r^2) A - 2 r Re(e^{-i w0} C), which cancels as r -> 1: it scores
    # finite or is rejected.  rotation None frees it, 0.7 fixes it (at w0)
    free = rotation is None
    n = 64
    w0 = 2.0 * np.pi * 3 / n
    data = Series(np.exp(1j * w0 * np.arange(n)), kind="complex")
    model = (car1_model(0.5, 1.0, gamma=w0) if free
             else car1_model(0.5, 1.0, rotation=w0))
    obj = Objective("whittle", data, model)
    shat, w = periodogram(data), fourier_grid(n).frequencies
    for r in (0.9, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, np.nextafter(1.0, 0.0)):
        rest = [r, w0] if free else [r]
        unit = [r, 1.0, *rest[1:]]
        for evaluate in (lambda: obj.profile(rest, True)[:2], lambda: obj.value_and_grad(unit)):
            before = obj.n_rejected
            value, grad = evaluate()
            if value == np.inf:
                assert free and obj.n_rejected == before + 1 and not grad.any()
            else:
                assert np.isfinite(value) and np.isfinite(grad).all()
                assert obj.n_rejected == before
        # the quadratic form it scores with is positive, or it is rejected
        try:
            _, quad, *_ = obj._chain(unit, False)
        except ValueError:
            assert free
            continue
        assert quad > 0.0
        if not free:
            terms = shat * ((1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * (w - w0)) ** 2)
            assert abs(quad - terms.sum()) <= 1e-12 * terms.sum()
            pure = shat.sum() * (1.0 - r) ** 2
            assert abs(quad - pure) <= 1e-12 * pure + 4.0 * np.delete(shat, w == w0).sum()


@pytest.mark.parametrize("n", [37, 64])
@pytest.mark.parametrize("model, rho", [
    (ar_model([0.99], 1.0), 0.0), (ar_model([-0.999999], 1.0), np.pi),
    (car1_model(1.0 - 1e-9, 1.0), 0.0), (car1_model(0.9999, 1.0, rotation=0.3), 0.3),
    (car1_model(1.0 - 1e-7, 1.0, rotation=-2.5), -2.5)])
def test_a_fixed_pole_quadratic_form_keeps_its_relative_precision_at_the_pole(model, rho, n):
    # the periodogram sits at the pole's frequency rho, where 1 + r^2 - 2 r
    # cos(w - rho) cancels as |r| -> 1; the fixed pole's Q, (1 - r)^2 A + 2 r
    # P or an ar's (1 + r)^2 A - 2 r P' for r < 0, sums terms of one sign
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(n)
    x = np.exp(1j * rho * np.arange(n)) + 1e-3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    data = (Series(x.real) if model.family == "ar" or model.rotation == 0.0
            else Series(x, kind="complex"))
    obj = Objective("whittle", data, model)
    unit = list(model.params.values)
    unit[obj.scale_index] = 1.0
    quad = obj._chain(unit, False)[1]
    # sum_k Shat_k |1 - z e^{i w_k}|^2 of the exact z = r e^{-i rotation} (the floats')
    rotation = mpmath.mpf(model.rotation if model.family == "car1" else 0.0)
    with mpmath.workdps(40):
        r = mpmath.mpf(float(unit[0]))
        want = sum(mpmath.mpf(float(s))
                   * abs(1 - r * mpmath.expj(mpmath.mpf(float(w)) - rotation)) ** 2
                   for s, w in zip(periodogram(data), fourier_grid(n).frequencies))
    assert abs(quad - want) <= 1e-13 * want, (quad, want)


@pytest.mark.parametrize("config", ["table1_ci", "table2_ci", "table3_ci"])
def test_a_whittle_evaluation_makes_no_transform(config, monkeypatch):
    study, data, aux = first_replicate(config, 512)
    objective, init = ESTIMATORS[study.kind, "stationary"](data, aux)
    transforms = counted_transforms(monkeypatch)  # after the build's periodogram
    theta = init.values
    objective(theta)
    objective.value_and_grad(theta)
    objective.profile(np.delete(theta, objective.scale_index), True)
    assert transforms == []


@pytest.mark.parametrize("name", sorted(MODELS))
def test_only_the_modulated_whittle_kind_takes_a_frequency_mask(name):
    obj, _ = _case(16, name)
    w = fourier_grid(16).frequencies
    for mask in (np.ones(16, dtype=bool), np.abs(w) <= 2.0, [0, 1, 15]):
        for kind, modulator in (("whittle", None), ("exact", None),
                                ("exact", constant_modulator(16))):
            with pytest.raises(ValueError, match=f"the {kind} kind takes no frequency "
                                                 "mask: only the modulated-whittle kind"):
                Objective(kind, obj.data, obj.model, modulator=modulator, mask=mask)
    if obj.model.family == "ar":  # a real series' mask, kept on the half grid
        band = Objective("modulated-whittle", obj.data, obj.model,
                         modulator=constant_modulator(16), mask=np.abs(w) <= 2.0)
        assert band._size == np.count_nonzero(np.abs(w) <= 2.0) < 16


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
def test_whittle_start_minimises_the_quadratic_form_at_its_profiled_scale(name):
    obj, _ = _case(64, name)
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
