"""Property tests of the Sbar chain and of fits at the edges of the input space.

The edges are tiny N, masks that observe one sample, latent AR(1)/car1
models with r up to 1 - 1e-9, and masks at the significant-correlation limit,
whose c_g(1) is zero or about the diagnostic's tol.  The dense-covariance
oracle, the direct c_g sum and central differences are the references.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from modwhittle import (
    LinearRampKernel,
    Modulator,
    Objective,
    Series,
    ar_model,
    bernoulli_mask,
    car1_model,
    cg_sequence,
    expected_periodogram,
    fit,
    periodic_missing_mask,
    significant_correlation_diagnostic,
)
from modwhittle.modulation import cg_direct
from modwhittle.spectra import brute_force_expected_periodogram

from helpers import central_difference

R_MAX = 1.0 - 1e-9
FAST = settings(max_examples=25, deadline=None)


@st.composite
def modulators(draw, max_n=64, complex_ok=True):
    """A random real or complex modulator, or a mask observing one sample."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["real", "complex", "one-sample"] if complex_ok
                                else ["real", "one-sample"]))
    if kind == "one-sample":
        g = np.zeros(n)
        g[draw(st.integers(0, n - 1))] = 1.0
        return Modulator(g)
    if kind == "real":
        return Modulator(np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n,
                                                max_size=n))))
    mag = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
    phase = np.array(draw(st.lists(st.floats(-np.pi, np.pi), min_size=n, max_size=n)))
    return Modulator(mag * np.exp(1j * phase))


latents = st.one_of(
    st.builds(lambda phi, sigma: ar_model([phi], sigma),
              st.floats(-R_MAX, R_MAX), st.floats(0.1, 10.0)),
    st.builds(lambda r, sigma, rot: car1_model(r, sigma, rotation=rot),
              st.floats(0.0, R_MAX), st.floats(0.1, 10.0), st.floats(-np.pi, np.pi)),
)


@FAST
@given(modulators(), latents)
def test_sbar_is_nonnegative_and_equals_the_dense_oracle(mod, model):
    sbar = expected_periodogram(cg_sequence(mod), model)
    oracle = brute_force_expected_periodogram(mod, model)
    assert np.all(sbar >= 0.0)
    # Sbar clamps its zeros to 1e-300, the smallest value a log takes
    assert np.max(np.abs(sbar - oracle)) <= 1e-9 * np.max(np.abs(oracle)) + 1e-300


@FAST
@given(modulators())
def test_fft_cg_equals_direct_cg(mod):
    tol = 1e-12 * max(1.0, mod.gmax ** 2)
    assert np.max(np.abs(cg_sequence(mod) - cg_direct(mod.g))) <= tol


def _observations(draw, n: int) -> np.ndarray:
    # nonzero values: an all-zero series has an unbounded likelihood
    mags = np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)))
    signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    return mags * signs


@st.composite
def tiny_fits(draw):
    """An objective of each kind at N in {1, 2, 3}, or under a one-sample mask:
    the dense exact likelihood, the Markov one under a ramp kernel (N >= 2),
    Whittle, and modulated Whittle, with its significant-correlation
    diagnostic at N <= 3 (a one-sample mask fails it by design)."""
    kind = draw(st.sampled_from(["exact", "ramp-exact", "whittle", "modulated-whittle"]))
    one_sample = kind in ("exact", "modulated-whittle") and draw(st.booleans())
    n = draw(st.integers(4, 16) if one_sample else
             st.integers(2 if kind == "ramp-exact" else 1, 3))
    x = _observations(draw, n)
    if kind == "ramp-exact":
        z = Series(x * np.exp(1j * np.array(draw(st.lists(
            st.floats(-np.pi, np.pi), min_size=n, max_size=n)))), kind="complex")
        return Objective("exact", z, car1_model(0.5, 1.0), modulator=LinearRampKernel(n))
    model = ar_model([0.5], 1.0)
    if kind == "whittle":
        return Objective("whittle", Series(x), model)
    g = np.ones(n)
    if one_sample:
        g = np.zeros(n)
        g[draw(st.integers(0, n - 1))] = 1.0
    mod = Modulator(g)
    if kind == "exact":
        return Objective("exact", Series(g * x), model, modulator=mod)
    return Objective("modulated-whittle", Series(g * x), model, modulator=mod,
                     check_significance=not one_sample)


@settings(max_examples=40, deadline=None)
@given(tiny_fits())
def test_fit_never_raises_and_ends_finite(objective):
    result = fit(objective, objective.init_params)
    assert np.isfinite(result.objective_value)
    assert np.all(np.isfinite(result.theta_hat.values))


@FAST
@given(st.floats(0.51, 80.0), st.floats(0.05, 30.0))
def test_matern_table_is_finite_wherever_the_bessel_form_is(alpha, h):
    # the scipy kv form is the reference: S 2^{1-nu} x^nu K_nu(x), which
    # overflows in x^nu and K_nu at large alpha; the table must stay finite
    # (and raise no RuntimeWarning) at every lag where that form is finite
    from scipy.special import kv

    from modwhittle.models import _matern_scale, acv_entry, matern_model, with_scale_row

    delta, n = 1.0 / 12.0, 4096
    model = matern_model(1.3, h, alpha, delta=delta)
    c, jac = acv_entry(model)(model.params.values, n, True)
    jac = with_scale_row("matern", jac, 0, c, 1.3)
    nu = alpha - 0.5
    x = h * (np.arange(1, n) * delta)
    with np.errstate(all="ignore"):
        ref = _matern_scale(1.3, h, alpha) * 2.0 ** (1.0 - nu) * x ** nu * kv(nu, x)
    finite = np.concatenate(([True], np.isfinite(ref)))
    assert np.all(np.isfinite(c[finite[:c.size]]))
    assert np.all(np.isfinite(jac[:, finite[:jac.shape[1]]]))


# the significant-correlation diagnostic's tolerance on |c_g(tau)|
SIGNIFICANCE_TOL = 1e-3


@st.composite
def sparse_masks(draw, max_n=64):
    """A Bernoulli(p) mask with p in [0.01, 0.1], whose c_g(1), about p^2,
    straddles SIGNIFICANCE_TOL (a mask that observes nothing observes one
    drawn sample instead), or the alternating mask, whose c_g(1) is 0."""
    n = draw(st.integers(2, max_n))
    if draw(st.booleans()):
        return periodic_missing_mask(1, 1, n)
    mod = bernoulli_mask(draw(st.floats(0.01, 0.1)), seed=draw(st.integers(0, 2**31 - 1)),
                         n=n)
    if mod.g.any():
        return mod
    g = np.zeros(n)
    g[draw(st.integers(0, n - 1))] = 1.0
    return Modulator(g)


@FAST
@given(sparse_masks(), latents)
def test_sbar_at_the_significance_limit_equals_the_dense_oracle(mod, model):
    sbar = expected_periodogram(cg_sequence(mod), model)
    oracle = brute_force_expected_periodogram(mod, model)
    assert np.max(np.abs(sbar - oracle)) <= 1e-9 * np.max(np.abs(oracle)) + 1e-300


@FAST
@given(sparse_masks(), st.data())
def test_modulated_score_at_the_significance_limit_matches_central_differences(mod, data):
    n = mod.n
    x = Series(mod.g * _observations(data.draw, n))
    obj = Objective("modulated-whittle", x, ar_model([0.5], 1.0), modulator=mod,
                    check_significance=False)
    theta = np.array([data.draw(st.floats(-0.9, 0.9)), data.draw(st.floats(0.5, 2.0))])
    value, grad = obj.value_and_grad(theta)
    assert value == obj(theta) and np.isfinite(value)
    fd = np.array([central_difference(obj, theta, j) for j in range(theta.size)])
    # the floor is the differences' rounding: one observed sample, at the
    # optimal sigma, has a zero score
    assert np.all(np.abs(grad - fd) <= 1e-6 * np.max(np.abs(fd)) + 1e-9), (grad, fd)


@FAST
@given(sparse_masks())
def test_diagnostic_flags_exactly_the_lags_below_tol(mod):
    # the lags and prefix lengths the modulated-Whittle objective checks
    n = mod.n
    n_grid = [max(2, n // 2), n]
    diag = significant_correlation_diagnostic(mod, lags=[0, 1], n_grid=n_grid,
                                              tol=SIGNIFICANCE_TOL)
    lowest = [min(abs(cg_direct(mod.g[:m])[tau]) for m in n_grid) for tau in (0, 1)]
    want = [tau for tau in (0, 1) if lowest[tau] < SIGNIFICANCE_TOL]
    assert diag["flagged"] == want
    if np.array_equal(mod.g, periodic_missing_mask(1, 1, n).g):
        assert 1 in want
    # the objective warns exactly when the diagnostic flags a lag
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Objective("modulated-whittle", Series(mod.g * np.ones(n)), ar_model([0.5], 1.0),
                  modulator=mod)
    assert [w.category for w in caught] == ([RuntimeWarning] if want else [])
