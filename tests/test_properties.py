"""Property tests of the Sbar chain and of fits at the edges of the input space.

The edges are tiny N, masks that observe one sample, and latent AR(1)/car1
models with r up to 1 - 1e-9.  The dense-covariance oracle and the direct c_g
sum are the references.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from modwhittle import (
    LinearRampKernel,
    Modulator,
    Objective,
    Series,
    ar_model,
    car1_model,
    cg_sequence,
    expected_periodogram,
    fit,
)
from modwhittle.modulation import cg_direct
from modwhittle.spectra import brute_force_expected_periodogram

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
    Whittle, and modulated Whittle."""
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
                     check_significance=False)


@settings(max_examples=40, deadline=None)
@given(tiny_fits())
def test_fit_never_raises_and_ends_finite(objective):
    result = fit(objective, objective.init_params)
    assert np.isfinite(result.objective_value)
    assert np.all(np.isfinite(result.theta_hat.values))
