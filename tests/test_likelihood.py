import numpy as np
import pytest

from modwhittle import (
    Modulator,
    Series,
    ar_model,
    bernoulli_mask,
    car1_model,
    cg_sequence,
    constant_modulator,
    fourier_grid,
    frequency_modulator,
    matern_model,
    ou_model,
    periodic_missing_mask,
    periodogram,
)
from modwhittle.likelihood import (
    EXACT_CAP,
    AggregateModel,
    Car1WhittleObjective,
    Objective,
    aggregate_expected_periodogram,
    exact_car1_nll,
    exact_gaussian_nll,
    resolve_mask,
    spectral_nll,
)
from modwhittle.models import autocov_sequence
from modwhittle.modulation import (
    LinearRampKernel,
    component_cg,
    linear_beta,
    linear_frequency_modulator,
)
from modwhittle.optimize import fit
from modwhittle.simulate import (
    ESTIMATORS,
    bounded_random_walk_beta,
    simulate_ar,
    simulate_complex_ar1,
)
from modwhittle.spectra import brute_force_expected_periodogram, expected_periodogram

from helpers import (
    assert_gradient_matches,
    counted_transforms,
    first_replicate,
    random_modulator,
)


def whittle_value(data, model):
    return Objective("whittle", data, model)(model.params.values)


def modulated_value(data, mod, model, mask=None):
    return Objective("modulated-whittle", data, model, modulator=mod, mask=mask,
                     check_significance=False)(model.params.values)


def test_exact_scalar_and_white_noise(rng):
    v = exact_gaussian_nll(Series([1.7]), None, ar_model([], 1.3))
    assert abs(v - (np.log(1.69) + 1.7 ** 2 / 1.69)) < 1e-12
    x = Series(rng.normal(size=32))
    assert abs(exact_gaussian_nll(x, None, ar_model([], 1.0))
               - np.mean(x.values ** 2)) < 1e-12


def test_exact_dense_oracle(rng):
    model = ar_model([0.8], 1.0)
    x = simulate_ar(model, 64, rng)
    mod = periodic_missing_mask(3, 2, 64)
    data = Series(mod.g * x.values)
    keep = np.flatnonzero(mod.g != 0)
    cx = autocov_sequence(model, 64)
    cmat = cx[np.abs(np.subtract.outer(keep, keep))]
    _, logdet = np.linalg.slogdet(cmat)
    quad = data.values[keep] @ np.linalg.solve(cmat, data.values[keep])
    ref = (logdet + quad) / keep.size
    assert abs(exact_gaussian_nll(data, mod, model) - ref) < 1e-9


def test_exact_cap_and_domain_errors(rng):
    with pytest.raises(ValueError):
        exact_gaussian_nll(Series(rng.normal(size=EXACT_CAP + 1)), None,
                           ar_model([0.5], 1.0))
    z = Series(np.zeros(4))
    with pytest.raises(ValueError):
        exact_gaussian_nll(z, Modulator(np.zeros(4)), ar_model([0.5], 1.0))


def test_exact_markov_matches_dense(rng):
    for n in (16, 96):
        beta = bounded_random_walk_beta(np.pi / 2, 1.0, 0.05, n, rng)[1:]
        z = simulate_complex_ar1(0.8, 1.0, beta, n, rng)
        mod = frequency_modulator(beta)
        for r, sigma in ((0.8, 1.0), (0.5, 2.0)):
            dense = exact_gaussian_nll(z, mod, car1_model(r, sigma))
            markov = exact_car1_nll(z.values, beta, r, sigma)
            assert abs(dense - markov) < 1e-9


def test_exact_markov_takes_rotations_as_a_list(rng):
    z = simulate_complex_ar1(0.5, 1.0, [0.1, 0.2, 0.3], 4, rng).values
    want = exact_car1_nll(z, np.array([0.1, 0.2, 0.3]), 0.5, 1.0)
    assert np.isfinite(want)
    assert exact_car1_nll(z, [0.1, 0.2, 0.3], 0.5, 1.0) == want
    with pytest.raises(ValueError):
        exact_car1_nll(z, [0.1, 0.2], 0.5, 1.0)


MARKOV_LATENTS = {
    "ar1": lambda rng: ar_model([rng.uniform(-0.95, 0.95)], rng.uniform(0.5, 2.0)),
    "white-noise": lambda rng: ar_model([], rng.uniform(0.5, 2.0)),
    "car1-fixed": lambda rng: car1_model(rng.uniform(0.0, 0.95), rng.uniform(0.5, 2.0),
                                         rotation=rng.uniform(-3.0, 3.0)),
    "car1-free": lambda rng: car1_model(rng.uniform(0.05, 0.95), rng.uniform(0.5, 2.0),
                                        gamma=rng.uniform(-3.0, 3.0)),
    "ou": lambda rng: ou_model(rng.uniform(0.5, 2.0), rng.uniform(0.1, 3.0),
                               rotation_cpd=rng.uniform(-2.0, 2.0)),
}


def _markov_modulator(rng, kind, n):
    """A periodic or Bernoulli mask times amplitudes of either sign, or a
    frequency modulator, with g = 0 at the first sample, the last or both."""
    if kind == "frequency":
        g = frequency_modulator(rng.uniform(-0.8, 0.8, size=n - 1)).g.copy()
    else:
        mask = (periodic_missing_mask(int(rng.integers(1, 4)), int(rng.integers(1, 3)), n)
                if kind == "periodic" else bernoulli_mask(0.6, seed=int(rng.integers(1 << 31)),
                                                          n=n))
        g = mask.g * rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n)
    g[[[0], [n - 1], [0, n - 1]][int(rng.integers(3))]] = 0.0
    if not g.any():
        g[n // 2] = 1.0
    return Modulator(g)


@pytest.mark.parametrize("mod_kind", ["periodic", "bernoulli", "frequency"])
@pytest.mark.parametrize("family", list(MARKOV_LATENTS))
def test_exact_markov_matches_the_dense_oracle_and_central_differences(rng, family, mod_kind):
    # the exact kind's O(N) recursion over the kept samples, against the
    # dense Cholesky and against central differences of itself
    for n in (*rng.integers(2, 65, size=4).tolist(), 2048):
        mod = _markov_modulator(rng, mod_kind, n)
        model = MARKOV_LATENTS[family](rng)
        complex_ = model.family != "ar" or mod.is_complex
        x = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_ else 0.0)
        data = Series(mod.g * x, kind="complex" if complex_ else "real")
        obj = Objective("exact", data, model, modulator=mod)
        theta = model.params.values
        want = exact_gaussian_nll(data, mod, model)
        assert abs(obj(theta) - want) <= 1e-10 * abs(want)
        assert_gradient_matches(obj, theta)


def test_exact_kind_fits_a_masked_ar1_at_n_16384():
    # the exact kind has no size cap: N = 16384 under a cosine-Bernoulli mask
    from modwhittle.simulate import cosine_bernoulli_mask

    n = 16384
    mod = cosine_bernoulli_mask(0.5, 0.25, 2 * np.pi / 10, n, 3)
    data = Series(mod.g * simulate_ar(ar_model([0.8], 1.0), n, 3).values)
    obj = Objective("exact", data, ar_model([0.5], 1.0), modulator=mod)
    res = fit(obj, obj.init_params)
    assert res.converged and res.n_grad_evals == res.n_evals
    assert np.allclose(res.theta_hat.values, [0.8, 1.0], atol=0.03)


def test_modulated_whittle_at_one_sample_skips_the_lag_1_diagnostic():
    # the lag-0/1 significant-correlation diagnostic needs N >= 2
    x = Series([0.7])
    obj = Objective("modulated-whittle", x, ar_model([0.5], 1.0),
                    modulator=constant_modulator(1))
    quiet = Objective("modulated-whittle", x, ar_model([0.5], 1.0),
                      modulator=constant_modulator(1), check_significance=False)
    assert obj([0.5, 1.0]) == quiet([0.5, 1.0]) and np.isfinite(obj([0.5, 1.0]))


def test_whittle_white_noise_minimizer(rng):
    from modwhittle.optimize import fit
    x = Series(rng.normal(size=256))
    obj = Objective("whittle", x, ar_model([], 1.0))
    res = fit(obj, obj.init_params, n_starts=1)
    assert abs(res.theta_hat.values[0] ** 2 - np.mean(periodogram(x))) < 1e-5


def test_whittle_direct_summation(rng):
    model = ar_model([0.8], 1.0)
    x = simulate_ar(model, 256, rng)
    shat = periodogram(x)
    f = np.array([1.0 / abs(1 - 0.8 * np.exp(-1j * w)) ** 2
                  for w in fourier_grid(256).frequencies])
    ref = np.sum(np.log(f) + shat / f) / 256
    assert abs(whittle_value(x, model) - ref) < 1e-10


def test_whittle_pointwise_inequality(rng):
    # x - log x >= 1: objective at the data's own spectrum is the floor
    model = ar_model([0.6], 1.0)
    x = simulate_ar(model, 128, rng)
    f = np.maximum(periodogram(x), 1e-12)
    floor = np.sum(np.log(f) + 1.0) / 128
    assert whittle_value(x, model) >= floor - 1e-12


def test_modulated_whittle_direct_summation(rng):
    n = 512
    beta = bounded_random_walk_beta(np.pi / 2, 1.0, 0.05, n, rng)[1:]
    z = simulate_complex_ar1(0.8, 1.0, beta, n, rng)
    mod = frequency_modulator(beta)
    model = car1_model(0.8, 1.0)
    got = modulated_value(z, mod, model)

    g = mod.g
    t = np.arange(n)
    cg = np.array([np.sum(np.conj(g[: n - k]) * g[k:]) for k in range(n)]) / n
    cbar = cg * (1.0 / 0.36) * 0.8 ** t
    ref = 0.0
    for w in fourier_grid(n).frequencies:
        sb = 2 * np.real(np.sum(cbar * np.exp(-1j * w * t))) - cbar[0].real
        sh = abs(np.sum(z.values * np.exp(-1j * w * t))) ** 2 / n
        ref += np.log(sb) + sh / sb
    assert abs(got - ref / n) < 1e-10


def test_modulated_whittle_reduces_to_whittle_for_white_noise(rng):
    x = Series(rng.normal(size=128))
    mod = constant_modulator(128)
    model = ar_model([], 1.2)
    assert abs(modulated_value(x, mod, model) - whittle_value(x, model)) < 1e-12


def test_global_phase_invariance(rng):
    n = 128
    beta = rng.uniform(-0.5, 0.5, size=n - 1)
    z = simulate_complex_ar1(0.7, 1.0, beta, n, rng)
    mod = frequency_modulator(beta)
    model = car1_model(0.7, 1.0)
    v1 = modulated_value(z, mod, model)
    v2 = modulated_value(z, Modulator(np.exp(1j * 0.9) * mod.g), model)
    assert abs(v1 - v2) < 1e-12


def test_objective_finite_on_inbounds(rng):
    n = 64
    mod = periodic_missing_mask(2, 1, n)
    x = simulate_ar(ar_model([0.5], 1.0), n, rng)
    data = Series(mod.g * x.values)
    obj = Objective("modulated-whittle", data, ar_model([0.5], 1.0), modulator=mod)
    for _ in range(50):
        theta = [rng.uniform(-0.95, 0.95), rng.uniform(0.05, 3.0)]
        assert np.isfinite(obj(theta))


def test_objective_scores_non_stationary_theta_as_inf(rng):
    x = simulate_ar(ar_model([0.5], 1.0), 32, rng)
    obj = Objective("whittle", x, ar_model([0.5], 1.0))
    assert obj([1.2, 1.0]) == np.inf
    assert np.isfinite(obj([0.5, 1.0]))


def test_exact_objective_callable(rng):
    model = ar_model([0.6], 1.0)
    x = simulate_ar(model, 48, rng)
    mod = periodic_missing_mask(2, 1, 48)
    data = Series(mod.g * x.values)
    obj = Objective("exact", data, model, modulator=mod)
    theta = [0.55, 1.1]
    assert abs(obj(theta)
               - exact_gaussian_nll(data, mod, model.with_values(theta))) < 1e-12


def test_objective_validation(rng):
    x = Series(rng.normal(size=16))
    with pytest.raises(ValueError):
        Objective("modulated-whittle", x, ar_model([0.5], 1.0))
    with pytest.raises(ValueError):
        Objective("nope", x, ar_model([0.5], 1.0))
    # the exact kind runs a Markov latent at any N and names the dense
    # oracle for any other
    assert np.isfinite(Objective("exact", Series(rng.normal(size=2049)),
                                 ar_model([0.5], 1.0))([0.5, 1.0]))
    with pytest.raises(ValueError, match="exact_gaussian_nll"):
        Objective("exact", x, matern_model(1.0, 0.5, 1.2))
    with pytest.raises(ValueError):
        Objective("modulated-whittle", x, ar_model([0.5], 1.0),
                  modulator=constant_modulator(8))


def test_significance_warning():
    x = Series(np.zeros(32) + 1.0)
    alternating = Modulator(np.tile([1.0, 0.0], 16))
    with pytest.warns(RuntimeWarning):
        Objective("modulated-whittle", x, ar_model([0.5], 1.0), modulator=alternating)


def test_mask_handling(rng):
    n = 64
    x = Series(rng.normal(size=n))
    model = ar_model([0.3], 1.0)
    mod = constant_modulator(n)
    m = resolve_mask(n, np.arange(10, 20))
    assert m.sum() == 10
    full = modulated_value(x, mod, model)
    with pytest.raises(ValueError, match="real series"):  # it keeps w < 0 alone
        modulated_value(x, mod, model, mask=m)
    part = modulated_value(x, mod, model, mask=np.r_[10:20, 43:53])  # and the mirror, k -> -k
    # 1/N normalization is kept over the full grid: masked sum is smaller
    assert part < full
    with pytest.raises(ValueError):
        resolve_mask(n, np.zeros(n, dtype=bool))


@pytest.mark.parametrize("indices, message", [
    ([], "frequency mask is empty"),
    ([0.0, 1.0], r"integers, not \[0\.0, 1\.0\]"),
    ([1, 5], r"indices \[5\] lie outside the grid's 0\.\.3"),
    ([-1, 2], r"indices \[-1\] lie outside the grid's 0\.\.3"),
])
def test_resolve_mask_rejects_indices_off_the_grid(indices, message):
    # none of these may index the grid: an IndexError, or a negative index
    # that keeps the last bin
    with pytest.raises(ValueError, match=message):
        resolve_mask(4, indices)
    assert resolve_mask(4, [3, 1]).tolist() == [False, True, False, True]


def test_score_at_truth(rng):
    # mean numerical gradient of the modulated objective at truth ~ 0
    n = 1024
    reps = 500
    r_true, sigma_true = 0.8, 1.0
    grads = np.empty((reps, 2))
    h = np.array([1e-4, 1e-4])
    for i in range(reps):
        beta = bounded_random_walk_beta(np.pi / 2, 1.0, 0.05, n, rng)[1:]
        z = simulate_complex_ar1(r_true, sigma_true, beta, n, rng)
        obj = Objective("modulated-whittle", z, car1_model(r_true, sigma_true),
                        modulator=frequency_modulator(beta), check_significance=False)
        for j, dv in enumerate(np.eye(2)):
            tp = np.array([r_true, sigma_true]) + h * dv
            tm = np.array([r_true, sigma_true]) - h * dv
            grads[i, j] = (obj(tp) - obj(tm)) / (2 * h[j])
    mean = grads.mean(axis=0)
    se = grads.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean) <= 3 * se), (mean, se)


def test_aggregate_single_component_matches_plain():
    n = 64
    model = car1_model(0.6, 1.0)
    agg = AggregateModel(components=((model, None),), n=n)
    sb_agg = aggregate_expected_periodogram(agg)
    sb = expected_periodogram(cg_sequence(constant_modulator(n)), model)
    assert np.max(np.abs(sb_agg - sb)) < 1e-12


def test_aggregate_vanishing_component():
    n = 64
    ou = ou_model(1e-9, 0.5, delta=1.0 / 12.0)
    mat = matern_model(1.0, 0.6, 1.2, delta=1.0 / 12.0)
    agg = AggregateModel(components=((ou, None), (mat, None)), n=n)
    sb = aggregate_expected_periodogram(agg)
    mat_only = AggregateModel(components=((mat, None),), n=n)
    assert np.max(np.abs(sb - aggregate_expected_periodogram(mat_only))) < 1e-8


def test_aggregate_matches_sum_of_oracles(rng):
    n = 128
    beta = rng.uniform(-0.4, -0.1, size=n - 1)
    mod = frequency_modulator(beta)
    ou = ou_model(1.0, 0.3, delta=1.0 / 12.0)
    mat = matern_model(0.8, 0.5, 1.2, delta=1.0 / 12.0)
    agg = AggregateModel(components=((ou, mod), (mat, None)), n=n)
    sb = aggregate_expected_periodogram(agg)
    ref = (brute_force_expected_periodogram(mod, ou)
           + brute_force_expected_periodogram(constant_modulator(n), mat))
    assert np.max(np.abs(sb - ref)) < 1e-9 * np.max(ref)


def test_aggregate_param_split():
    ou = ou_model(1.0, 0.3)
    mat = matern_model(0.8, 0.5, 1.2)
    agg = AggregateModel(components=((ou, None), (mat, None)), n=32)
    pv = agg.params
    assert pv.names == ["scale", "ou0.lam", "matern1.q", "matern1.h", "matern1.alpha"]
    assert agg.scale_index == 0
    # scale^2 = A^2 + B^2 and q = log(B^2 / A^2)
    np.testing.assert_allclose(pv.values, [np.sqrt(1.64), 0.3, np.log(0.64), 0.5, 1.2],
                               rtol=1e-15)
    assert pv.lower[[0, 2]].tolist() == [0.0, -np.inf] and np.all(pv.upper[[0, 2]] == np.inf)
    agg2 = agg.with_values([2.0, 0.4, np.log(3.0), 0.7, 1.5])
    assert abs(agg2.components[0][0].value("A") - 1.0) < 1e-15
    assert abs(agg2.components[1][0].value("B") - np.sqrt(3.0)) < 1e-15
    assert agg2.components[1][0].value("alpha") == 1.5
    np.testing.assert_allclose(agg2.params.values, [2.0, 0.4, np.log(3.0), 0.7, 1.5],
                               rtol=1e-15)
    # one component: the tied scale is its own
    solo = AggregateModel(components=((mat, None),), n=32)
    assert solo.params.names == ["scale", "matern0.h", "matern0.alpha"]
    assert solo.with_values([0.8, 0.5, 1.2]).components[0][0].value("B") == 0.8


def test_compare_likelihoods_white_noise(rng):
    # the Whittle and the modulated-Whittle (g = 1) fits of white noise agree
    x = Series(rng.normal(size=128))
    stationary = Objective("whittle", x, ar_model([], 1.0))
    modulated = Objective("modulated-whittle", x, ar_model([], 1.0),
                          modulator=constant_modulator(128), check_significance=False)
    difference = (fit(stationary, stationary.init_params, n_starts=1).objective_value
                  - fit(modulated, modulated.init_params, n_starts=1).objective_value)
    assert abs(difference) < 1e-6


def test_compare_likelihoods_modulated_vs_constant(rng):
    import warnings
    n = 256

    def difference(z, beta, rotation):
        # stationary car1 Whittle nll minus the modulated one: > 0 favours
        # the modulated model
        stationary = Objective("whittle", z, car1_model(0.5, 1.0, rotation=rotation))
        modulated = Objective("modulated-whittle", z, car1_model(0.5, 1.0),
                              modulator=frequency_modulator(beta), check_significance=False)
        return (fit(stationary, stationary.init_params, n_starts=1).objective_value
                - fit(modulated, modulated.init_params, n_starts=1).objective_value)

    diffs_mod, diffs_const = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(100):
            beta = bounded_random_walk_beta(np.pi / 2, 1.2, 0.15, n, rng)[1:]
            z = simulate_complex_ar1(0.8, 1.0, beta, n, rng)
            diffs_mod.append(difference(z, beta, float(np.mean(beta))))
        for _ in range(20):
            beta_c = np.full(n - 1, 0.7)
            zc = simulate_complex_ar1(0.8, 1.0, beta_c, n, rng)
            diffs_const.append(difference(zc, beta_c, 0.7))
    # strongly modulated data favor the nonstationary model almost always
    assert np.mean(np.array(diffs_mod) > 0) >= 0.90
    # with a constant rotation the two models are equivalent
    assert np.max(np.abs(diffs_const)) < 1e-3


@pytest.mark.parametrize("kind", ["whittle", "modulated-whittle"])
def test_fit_reports_the_objective_at_its_estimate(kind):
    # the profiled value is the direct form at the profiled scale, so the
    # value a fit reports is its objective at theta_hat to the last bit
    n = 256
    for seed in range(20):
        rng = np.random.default_rng(seed)
        beta = bounded_random_walk_beta(np.pi / 2, 1.0, 0.05, n, rng)[1:]
        z = simulate_complex_ar1(0.8, 1.0, beta, n, rng)
        if kind == "whittle":
            obj = Objective(kind, z, car1_model(0.5, 1.0, rotation=float(np.mean(beta))))
        else:
            obj = Objective(kind, z, car1_model(0.5, 1.0),
                            modulator=frequency_modulator(beta), check_significance=False)
        res = fit(obj, obj.init_params, n_starts=1)
        assert res.profiled == ["sigma"]
        assert res.objective_value == obj(res.theta_hat.values), seed
    if kind == "modulated-whittle":  # an aggregate profiles its tied scale
        agg = AggregateModel(((car1_model(0.5, 1.0), frequency_modulator(beta)),
                              (car1_model(0.5, 1.0), None)), n)
        obj = Objective(kind, z, agg, check_significance=False)
        res = fit(obj, obj.init_params, n_starts=1)
        assert res.profiled == ["scale"]
        assert res.objective_value == obj(res.theta_hat.values)


def test_linear_beta_objectives_agree_with_generic(rng):
    n = 128
    beta = linear_beta(0.8, 1.0, n)
    z = simulate_complex_ar1(0.9, 2.0, beta, n, rng)
    mod = linear_frequency_modulator(0.8, 1.0, n)
    theta = (0.85, 1.9, 0.8, 1.0)
    ramp = Objective("modulated-whittle", z, car1_model(0.5, 1.0),
                     modulator=LinearRampKernel(n))
    assert ramp.init_params.names == ["r", "sigma", "gamma", "span"]
    got = ramp(theta)
    ref = modulated_value(z, mod, car1_model(0.85, 1.9))
    assert abs(got - ref) < 1e-10
    got_exact = Objective("exact", z, car1_model(0.5, 1.0),
                          modulator=LinearRampKernel(n))(theta)
    ref_exact = exact_car1_nll(z.values, beta, 0.85, 1.9)
    assert abs(got_exact - ref_exact) < 1e-12


def test_car1_whittle_objective_matches_model(rng):
    n = 64
    z = simulate_complex_ar1(0.7, 1.0, np.full(n - 1, 0.4), n, rng)
    obj = Car1WhittleObjective(z, rotation=0.4)
    ref = whittle_value(z, car1_model(0.7, 1.0, rotation=0.4))
    assert abs(obj((0.7, 1.0)) - ref) < 1e-12
    free = Car1WhittleObjective(z, rotation=None)
    assert abs(free((0.7, 1.0, 0.4)) - ref) < 1e-12
    assert abs(whittle_value(z, car1_model(0.7, 1.0, gamma=0.4)) - ref) < 1e-12


# ----------------------------------------------------------------------
# analytic gradient of the modulated Whittle objective
# ----------------------------------------------------------------------

def _random_gradient_model(rng, family):
    if family == "ar":
        return ar_model([rng.uniform(-0.9, 0.9)], rng.uniform(0.5, 2.0))
    if family == "car1":
        return car1_model(rng.uniform(0.0, 0.95), rng.uniform(0.5, 2.0),
                          rotation=rng.uniform(-1.0, 1.0))
    if family == "ou":
        return ou_model(rng.uniform(0.5, 2.0), rng.uniform(0.1, 3.0),
                        rotation_cpd=rng.uniform(-2.0, 2.0))
    return matern_model(rng.uniform(0.5, 2.0), rng.uniform(0.3, 3.0),
                        rng.uniform(0.6, 3.5), delta=1.0)


@pytest.mark.parametrize("family", ["ar", "car1", "ou", "matern"])
def test_gradient_matches_central_differences(rng, family):
    for _ in range(25):
        n = int(rng.integers(16, 300))
        if family == "ar":  # a real latent under the real modulators
            mod = random_modulator(rng, n, kinds=("constant", "periodic", "bernoulli"))
            data = Series(mod.g * rng.normal(size=n))
        else:
            mod = random_modulator(rng, n)
            data = Series(mod.g * (rng.normal(size=n) + 1j * rng.normal(size=n)),
                          kind="complex")
        model = _random_gradient_model(rng, family)
        obj = Objective("modulated-whittle", data, model, modulator=mod,
                        check_significance=False)
        assert_gradient_matches(obj, model.params.values)


def _drifter_objective(rng, mode, n=1024):
    from modwhittle.drifter import (
        _drifter_aggregate,
        band_mask,
        inertial_frequency,
        simulate_drifter_velocities,
    )
    wf = np.asarray(inertial_frequency(np.linspace(5.0, 19.0, n)))
    data = simulate_drifter_velocities(1.2, 1 / 3, 1.2, 0.7, 1.1, wf, 1 / 12, rng)
    agg = _drifter_aggregate(n, 1 / 12, wf, mode, True)
    return Objective("modulated-whittle", data, agg,
                     mask=band_mask(n, 1 / 12, 0.0, 2.0, side=-1))


@pytest.mark.parametrize("mode", ["modulated", "stationary"])
def test_gradient_matches_central_differences_drifter(rng, mode):
    from modwhittle.drifter import _fit_bounds
    obj = _drifter_objective(rng, mode)
    bounds = _fit_bounds(obj.model)
    # (scale, lam, q, h, alpha), q = log(B^2 / A^2) of either sign
    assert bounds.names == ["scale", "ou0.lam", "matern1.q", "matern1.h", "matern1.alpha"]
    lo = np.where(np.isfinite(bounds.lower), bounds.lower, -4.0)
    hi = np.where(np.isfinite(bounds.upper), bounds.upper, 4.0)
    for _ in range(5):
        theta = rng.uniform(lo + 0.05 * (hi - lo), lo + 0.5 * (hi - lo))
        theta[2] = rng.uniform(-4.0, 4.0)
        assert_gradient_matches(obj, theta)


def test_gradient_matches_central_differences_three_tied_scales(rng):
    # softmax(0, q_2, q_3) ties three scales: sigma, A and B
    n = 200
    mod = random_modulator(rng, n, kinds=("periodic", "frequency"))
    agg = AggregateModel(((car1_model(0.6, 1.0), mod),
                          (ou_model(0.8, 0.5, delta=1.0), None),
                          (matern_model(0.7, 0.6, 1.3, delta=1.0), None)), n)
    assert agg.params.names == ["car10.r", "scale", "ou1.q", "ou1.lam",
                                "matern2.q", "matern2.h", "matern2.alpha"]
    data = Series(rng.normal(size=n) + 1j * rng.normal(size=n), kind="complex")
    obj = Objective("modulated-whittle", data, agg)
    assert obj.scale_index == 1
    for _ in range(5):
        theta = [rng.uniform(0.1, 0.9), rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0),
                 rng.uniform(0.2, 2.0), rng.uniform(-3.0, 3.0), rng.uniform(0.3, 2.0),
                 rng.uniform(0.7, 2.5)]
        assert_gradient_matches(obj, theta)
        a2 = [m.params.values[k] ** 2 for (m, _), k in
              zip(agg.with_values(theta).components, (1, 0, 0))]
        assert abs(sum(a2) / theta[1] ** 2 - 1.0) < 1e-14


def test_drifter_profile_is_the_joint_objective_at_the_profiled_scale(rng):
    obj = _drifter_objective(rng, "modulated")
    assert obj.scale_index == 0
    for rest in ([0.4, 1.5, 0.8, 1.3], [1.2, -2.0, 0.3, 2.5]):  # lam, q, h, alpha
        value, grad, scale = obj.profile(rest, True)
        theta = np.insert(rest, 0, scale)
        joint_value, joint_grad = obj.value_and_grad(theta)
        assert abs(joint_value - value) <= 1e-12 * max(1.0, abs(value))
        assert abs(joint_grad[0]) * scale <= 1e-10 * max(1.0, abs(value))
        np.testing.assert_allclose(grad, joint_grad[1:], rtol=1e-8, atol=1e-12)
        # scale^2 = (1/M) sum_mask Ihat / Sbar_1, Sbar_1 the aggregate's at scale 1
        sbar_1 = aggregate_expected_periodogram(obj.model.with_values(np.insert(rest, 0, 1.0)))
        keep = obj.mask
        s2 = np.mean(periodogram(obj.data)[keep] / sbar_1[keep])
        assert abs(scale ** 2 / s2 - 1.0) < 1e-12


def _fixed_objective(case):
    """(objective built afresh on fixed data, theta_1, theta_2); each theta_1
    keeps lags past N/2, so the pullback mirrors its transform."""
    rng = np.random.default_rng(11)
    n = 256
    if case == "drifter":
        return (_drifter_objective(rng, "modulated", n=n),
                [1.0, 0.4, 1.5, 0.8, 1.3], [0.7, 1.2, -2.0, 0.3, 2.5])
    if case == "ar1-mask":  # real cbar: rfft
        mod = periodic_missing_mask(3, 1, n)
        data = Series(rng.normal(size=n) * mod.g)
        model, theta_1, theta_2 = ar_model([0.5], 1.0), [0.97, 1.0], [-0.3, 2.0]
    else:  # complex cbar: fft
        beta = rng.uniform(-0.5, 0.5, n - 1)
        mod = frequency_modulator(beta)
        data = simulate_complex_ar1(0.7, 1.0, beta, n, rng)
        model, theta_1, theta_2 = car1_model(0.6, 1.2), [0.95, 1.0], [0.3, 0.5]
    return Objective("modulated-whittle", data, model, modulator=mod), theta_1, theta_2


@pytest.mark.parametrize("case", ["ar1-mask", "car1-frequency", "drifter"])
def test_evaluations_keep_nothing_between_thetas(case):
    # theta_1's value, score and profile survive evaluations at theta_2 and
    # equal a fresh objective's: no evaluation writes into an earlier result
    obj, theta_1, theta_2 = _fixed_objective(case)
    k = obj.scale_index
    rest_1 = np.delete(theta_1, k)
    value, grad = obj.value_and_grad(theta_1)
    profiled = obj.profile(rest_1, grad=True)
    kept = grad.copy(), profiled[1].copy()
    for theta in (theta_2, theta_1):
        obj.value_and_grad(theta)
        obj.profile(np.delete(theta, k), grad=True)
    obj(theta_2)
    for got, copy in zip((grad, profiled[1]), kept):
        assert np.array_equal(got, copy)
    fresh = _fixed_objective(case)[0]
    fresh_value, fresh_grad = fresh.value_and_grad(theta_1)
    assert fresh_value == value and np.array_equal(fresh_grad, grad)
    fresh_profiled = fresh.profile(rest_1, grad=True)
    assert fresh_profiled[0] == profiled[0] and fresh_profiled[2] == profiled[2]
    assert np.array_equal(fresh_profiled[1], profiled[1])
    assert fresh(theta_1) == value


def _growth_case(case, n=1024):
    """(objective, thetas) of a Table 1 or 3 replicate's modulated estimator,
    or of a drifter aggregate, at N = n: the first theta's acv reaches a
    few lags, the second's all N, the third's few again."""
    if case == "drifter":  # (scale, lam, q, h, alpha)
        return (_drifter_objective(np.random.default_rng(5), "modulated", n=n),
                [[1.0, 3.0, 0.0, 3.0, 1.5], [1.0, 0.01, 0.0, 0.05, 1.3],
                 [1.0, 0.4, 1.5, 0.8, 1.3]])
    study, data, aux = first_replicate(case, n)
    obj, _ = ESTIMATORS[study.kind, "modulated"](data, aux)
    small = 0.3 if case == "table1_ci" else 0.5  # car1 r or AR(1) a
    return obj, [[small, 1.0], [0.9999, 1.0], [0.2, 1.0]]


@pytest.mark.parametrize("case", ["table1_ci", "table3_ci", "drifter"])
def test_grown_cg_tables_give_the_full_tables_value_and_score(case):
    # an objective grows each c_g table to twice its latent's acv reach on
    # demand; a twin holding every table at all N lags gives the same value
    # and score, and no table ever shrinks or passes N
    grown, thetas = _growth_case(case)
    full, _ = _growth_case(case)
    n = len(full.data)
    mods = ([mod for _, mod in full.model.components]
            if isinstance(full.model, AggregateModel) else [full.modulator])
    full.cgs[:] = [component_cg(mod, n) for mod in mods]
    assert [cg.size for cg in grown.cgs] == [min(n, 2)] * len(mods)
    sizes = [[cg.size for cg in grown.cgs]]
    for theta in thetas:
        value, grad = grown.value_and_grad(theta)
        want, want_grad = full.value_and_grad(theta)
        assert abs(value - want) <= 1e-12 * abs(want)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want_grad)))
        sizes.append([cg.size for cg in grown.cgs])
    assert max(sizes[1]) < n and sizes[2] == [n] * len(mods)
    for before, after in zip(sizes, sizes[1:]):
        assert all(b <= a <= n for b, a in zip(before, after))
    assert [cg.size for cg in full.cgs] == [n] * len(mods)


def test_tied_scales_take_any_finite_log_ratio_without_warnings(rng):
    import warnings
    obj = _drifter_objective(rng, "modulated", n=256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (-700.0, 700.0):
            value, grad = obj.value_and_grad([1.5, 0.4, q, 0.8, 1.3])
            assert np.isfinite(value) and np.isfinite(grad).all()
            value, grad, scale = obj.profile([0.4, q, 0.8, 1.3], True)
            assert np.isfinite(value) and np.isfinite(grad).all() and scale > 0
        # past exp's underflow one amplitude is 0: a zero Matern background
        # is in the model class, a zero OU amplitude is not
        assert np.isfinite(obj([1.5, 0.4, -1e4, 0.8, 1.3]))
        assert obj([1.5, 0.4, 1e4, 0.8, 1.3]) == np.inf


def test_out_of_class_values_score_inf_without_warnings(rng):
    import warnings

    from modwhittle.models import model_from_json
    n = 128
    mod = periodic_missing_mask(3, 1, n)
    z = Series(mod.g * (rng.normal(size=n) + 1j * rng.normal(size=n)), kind="complex")
    # a drifter-like aggregate whose box lets lam, h and alpha leave the class
    ou = model_from_json({"family": "ou", "params": {"A": 1.0, "lam": 0.5},
                          "bounds": {"lam": [None, None]}, "delta": 1 / 12})
    mat = model_from_json({"family": "matern", "params": {"B": 0.5, "h": 0.6, "alpha": 1.3},
                           "bounds": {"h": [None, None], "alpha": [None, None]},
                           "delta": 1 / 12})
    agg = AggregateModel(((ou, None), (mat, None)), n)
    assert np.all(np.isinf(agg.params.lower[[1, 3, 4]]))
    cases = [(Objective("modulated-whittle", z, agg),
              [[1.5, 0.4, 0.3, 0.8, 0.5], [1.5, 0.4, 0.3, 0.8, 0.2],
               [1.5, 0.4, 0.3, 0.0, 1.3], [1.5, 0.4, 0.3, -0.1, 1.3],
               [1.5, 0.0, 0.3, 0.8, 1.3], [1.5, -0.2, 0.3, 0.8, 1.3]]),
             (Objective("modulated-whittle", z, car1_model(0.5, 1.0), modulator=mod,
                        check_significance=False), [[1.0, 1.0], [1.3, 1.0]]),
             (Objective("whittle", z, car1_model(0.5, 1.0, gamma=0.2)),
              [[1.0, 1.0, 0.2], [1.3, 1.0, 0.2]])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for obj, thetas in cases:
            k = obj.scale_index
            for theta in thetas:
                before = obj.n_rejected
                assert obj(theta) == np.inf
                value, grad = obj.value_and_grad(theta)
                assert value == np.inf and np.array_equal(grad, np.zeros(len(theta)))
                value, grad, scale = obj.profile(np.delete(theta, k), True)
                assert value == np.inf and scale is None
                assert obj.n_rejected == before + 3


def test_evaluations_build_no_model_objects(rng, monkeypatch):
    # an objective binds its latents' raw-float entries when it is built, so
    # evaluating it constructs no LatentModel, ParameterVector or AggregateModel
    from collections import Counter

    import modwhittle.core as core
    import modwhittle.models as models
    n = 128
    mod = periodic_missing_mask(3, 1, n)
    z = Series(mod.g * (rng.normal(size=n) + 1j * rng.normal(size=n)), kind="complex")
    objectives = [
        Objective("modulated-whittle", z, car1_model(0.5, 1.0), modulator=mod,
                  check_significance=False),
        Objective("whittle", z, car1_model(0.5, 1.0, gamma=0.2)),
        Objective("exact", Series(z.values[:64], kind="complex"), car1_model(0.5, 1.0)),
        _drifter_objective(rng, "modulated", n=256),
        _drifter_objective(rng, "stationary", n=256),
    ]
    thetas = [obj.init_params.values for obj in objectives]
    counts = Counter()
    for cls in (models.LatentModel, core.ParameterVector, AggregateModel):
        def counting(self, _original=cls.__post_init__, _name=cls.__name__):
            counts[_name] += 1
            _original(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    for obj, theta in zip(objectives, thetas):
        rest = np.delete(theta, obj.scale_index)
        assert np.isfinite(obj(theta))
        assert np.isfinite(obj.profile(rest)[0])
        assert np.isfinite(obj.value_and_grad(theta)[0])
        assert np.isfinite(obj.profile(rest, True)[0])
    assert counts == Counter()
    car1_model(0.5, 1.0)  # the counters see a construction
    assert counts == Counter({"LatentModel": 1, "ParameterVector": 1})


def test_gradient_only_where_every_family_has_one(rng):
    # every latent acv and every sdf has a score, so every spectral
    # objective does (the Whittle kind takes ar and car1 alone), and so does
    # the Markov exact kind (ar, car1 and ou); central differences serve
    # Car1WhittleObjective alone
    n = 64
    data = Series(rng.normal(size=n))
    mod = periodic_missing_mask(3, 1, n)
    models = (ar_model([], 1.0), ar_model([0.5], 1.0), car1_model(0.5, 1.0),
              car1_model(0.5, 1.0, gamma=0.3), ou_model(1.0, 0.5),
              matern_model(1.0, 0.5, 1.2))
    def scored(obj):
        return np.isfinite(obj.value_and_grad(obj.init_params.values)[1]).all()

    for model in models:
        assert scored(Objective("modulated-whittle", data, model, modulator=mod))
        if model.family in ("ar", "car1"):
            assert scored(Objective("whittle", data, model))
        else:
            with pytest.raises(ValueError, match="modulated-whittle"):
                Objective("whittle", data, model)
        if model.family == "matern":
            with pytest.raises(ValueError, match="exact_gaussian_nll"):
                Objective("exact", data, model, modulator=mod)
        else:
            assert scored(Objective("exact", data, model, modulator=mod))
    mixed = AggregateModel(((car1_model(0.5, 1.0), mod), (ar_model([], 1.0), None),
                            (matern_model(1.0, 0.5, 1.2), mod)), n)
    assert scored(Objective("modulated-whittle", data, mixed))
    assert not hasattr(Car1WhittleObjective(data), "value_and_grad")
    obj = Objective("exact", data, ou_model(1.0, 0.5), modulator=mod)
    assert np.isfinite(obj.value_and_grad([1.0, 0.5])[0])
    assert np.isfinite(obj.profile([0.5], grad=True)[0])


def test_gradient_outside_model_class_scores_inf(rng):
    n = 64
    mod = periodic_missing_mask(3, 1, n)
    data = Series(mod.g * (rng.normal(size=n) + 1j * rng.normal(size=n)),
                  kind="complex")
    obj = Objective("modulated-whittle", data, car1_model(0.5, 1.0), modulator=mod)
    value, grad = obj.value_and_grad([1.0, 1.0])
    assert value == np.inf and np.array_equal(grad, np.zeros(2))


def test_non_finite_theta_scores_inf_without_warnings(rng):
    import warnings
    n = 128
    mod = periodic_missing_mask(3, 1, n)
    data = Series(mod.g * (rng.normal(size=n) + 1j * rng.normal(size=n)),
                  kind="complex")
    obj = Objective("modulated-whittle", data, matern_model(1.0, 0.7, 1.5, delta=1.0),
                    modulator=mod, check_significance=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in ([np.inf, 0.7, 1.5], [1.0, 0.7, np.inf], [1.0, np.nan, 1.5]):
            assert obj(theta) == np.inf
            value, grad = obj.value_and_grad(theta)
            assert value == np.inf and np.array_equal(grad, np.zeros(3))


def test_non_finite_gradient_scores_inf_without_warnings(rng, monkeypatch):
    import warnings

    import modwhittle.likelihood as likelihood
    n = 64
    mod = periodic_missing_mask(3, 1, n)
    data = Series(mod.g * (rng.normal(size=n) + 1j * rng.normal(size=n)),
                  kind="complex")
    def objective():
        return Objective("modulated-whittle", data, car1_model(0.5, 1.0), modulator=mod,
                         check_significance=False)

    value, _ = objective().value_and_grad([0.5, 1.0])
    assert np.isfinite(value)
    acv_entry = likelihood.acv_entry

    def nan_jacobian(model):
        entry = acv_entry(model)

        def patched(values, nlags, grad):
            acv, jac = entry(values, nlags, grad)
            if grad:
                jac = jac.copy()
                jac[0, 1] = np.nan
            return acv, jac
        return patched

    # the objective binds its latent's entry when it is built
    monkeypatch.setattr(likelihood, "acv_entry", nan_jacobian)
    obj = objective()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grad = obj.value_and_grad([0.5, 1.0])
    assert value == np.inf and np.array_equal(grad, np.zeros(2))


def test_modulated_objective_evaluates_in_fft_order(rng, monkeypatch):
    import modwhittle.spectra as spectra
    n = 96
    beta = rng.uniform(-0.5, 0.5, n - 1)
    mod = frequency_modulator(beta)
    z = simulate_complex_ar1(0.7, 1.0, beta, n, rng)
    mask = np.abs(fourier_grid(n).frequencies) < 2.0
    model = car1_model(0.6, 1.2)
    obj = Objective("modulated-whittle", z, model, modulator=mod, mask=mask)
    # the grid-order transform, reordered onto the grid before the patch
    ref = spectral_nll(periodogram(z),
                       expected_periodogram(cg_sequence(mod), model),
                       resolve_mask(n, mask))

    def no_reorder(values):
        raise AssertionError("an evaluation reordered onto the Fourier grid")

    monkeypatch.setattr(spectra, "_to_grid_order", no_reorder)
    assert abs(obj(model.params.values) - ref) <= 1e-13 * abs(ref)
    assert obj.value_and_grad(model.params.values)[0] == obj(model.params.values)


# ----------------------------------------------------------------------
# the half grid of a real series
# ----------------------------------------------------------------------

def _observed(n):
    """A cosine-Bernoulli mask of length n that observes some sample."""
    from modwhittle.simulate import cosine_bernoulli_mask
    seed = 0
    while not (mod := cosine_bernoulli_mask(0.5, 0.25, 2 * np.pi / 10, n, seed)).g.any():
        seed += 1
    return mod


def _half_grid_pair(n, case, mask):
    """The objective of a real series in case, and its oracle: the same
    objective of the complex-typed twin, which stays on the full grid."""
    rng = np.random.default_rng(n)
    x = simulate_ar(ar_model([0.7], 1.0), n, rng).values
    model = ar_model([0.6], 1.3)
    if case == "whittle":
        kind, mod = "whittle", None
    elif case == "constant":  # the band's kind, as the whittle kind takes none
        kind, mod = "modulated-whittle", constant_modulator(n)
    elif case in ("unmodulated", "ar+matern"):  # c_g = 1 - tau/N, or a mask's
        kind, mod = "modulated-whittle", None
        model = AggregateModel(((model, None),) if case == "unmodulated" else
                               ((model, periodic_missing_mask(2, 1, n)),
                                (matern_model(0.8, 0.5, 1.5), None)), n)
    else:
        kind = "modulated-whittle"
        mod = periodic_missing_mask(2, 1, n) if case == "periodic" else _observed(n)
        x = mod.g * x
    pair = [Objective(kind, data, model, modulator=mod, mask=mask, check_significance=False)
            for data in (Series(x), Series(x.astype(complex), kind="complex"))]
    return pair, model.params.values


@pytest.mark.parametrize("case, band", [
    (case, band) for band in (None, "low", "high")
    for case in ("whittle", "constant", "unmodulated", "periodic", "cosine-bernoulli",
                 "ar+matern")
    if case != "whittle" or band is None])  # the whittle kind takes no mask
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 128, 4095, 4096])
def test_real_series_on_the_half_grid_equals_its_complex_twin(n, case, band):
    # the real series keeps k = 0..N//2, its interior bins counted twice; a
    # symmetric frequency mask (|w| <= 2, or |w| >= 1) keeps w and -w alike
    freq = fourier_grid(n).frequencies
    mask = {None: None, "low": np.abs(freq) <= 2.0, "high": np.abs(freq) >= 1.0}[band]
    if mask is not None and not mask.any():
        pytest.skip("the band holds no frequency of this grid")
    (half, twin), theta = _half_grid_pair(n, case, mask)
    assert half._once is not None and twin._once is None
    for t in (theta, theta * 1.1):
        value, grad = half.value_and_grad(t)
        want, want_grad = twin.value_and_grad(t)
        assert np.isfinite(want) and value == half(t)
        assert abs(value - want) <= 1e-12 * abs(want)
        assert np.all(np.abs(grad - want_grad) <= 1e-9 * np.abs(want_grad).max()), grad


def test_a_real_series_takes_only_a_symmetric_mask(rng):
    n = 64
    x = rng.normal(size=n)
    one_sided = fourier_grid(n).frequencies >= 0.0
    mod = periodic_missing_mask(2, 1, n)
    with pytest.raises(ValueError, match="real series"):
        Objective("modulated-whittle", Series(x), ar_model([0.5], 1.0), modulator=mod,
                  mask=one_sided)
    Objective("modulated-whittle", Series(x.astype(complex), kind="complex"),
              ar_model([0.5], 1.0), modulator=mod, mask=one_sided)


def test_a_split_score_under_a_band_mask_matches_central_differences(monkeypatch):
    # at N = 4096 the AR(1) acv reaches 166 lags at a = 0.8, 104 at a = -0.7
    # and 54 at a = 0.5, so Sbar and the score's pullback take P/2 + 1 rows of
    # Q = 512, 256 and 128; the band leaves w zero off the mask
    n = 4096
    mod = _observed(n)
    data = Series(mod.g * simulate_ar(ar_model([0.8], 1.0), n, 5).values)
    freq = np.abs(fourier_grid(n).frequencies)
    obj = Objective("modulated-whittle", data, ar_model([0.8], 1.0), modulator=mod,
                    mask=(freq >= 0.3) & (freq <= 2.0))
    assert obj._once is not None and not isinstance(obj._mask, slice)
    obj([0.8, 1.0])  # grows c_g as far as the acv reaches
    calls = counted_transforms(monkeypatch)
    for theta, q in (([0.8, 1.0], 512), ([-0.7, 0.9], 256), ([0.5, 1.3], 128)):
        calls.clear()
        assert_gradient_matches(obj, theta)
        assert set(calls) == {("irfft", q, n // q // 2 + 1), ("rfft", q, n // q // 2 + 1)}


def test_a_real_series_under_a_complex_acv_stays_on_the_full_grid(rng):
    # a rotating car1's cbar is complex, so its Sbar is not even
    n = 96
    mod = periodic_missing_mask(3, 1, n)
    x = mod.g * rng.normal(size=n)
    for kind, model, m in (("modulated-whittle", car1_model(0.6, 1.2, rotation=0.4), mod),
                           ("whittle", car1_model(0.6, 1.2, gamma=0.4), None)):
        real, twin = (Objective(kind, data, model, modulator=m)
                      for data in (Series(x), Series(x.astype(complex), kind="complex")))
        assert real._once is None
        theta = model.params.values
        value, grad = real.value_and_grad(theta)
        want, want_grad = twin.value_and_grad(theta)
        assert abs(value - want) <= 1e-12 * abs(want)
        assert np.allclose(grad, want_grad, rtol=1e-12, atol=0.0)


# ----------------------------------------------------------------------
# Whittle, ramp-kernel and exact Markov scores
# ----------------------------------------------------------------------

@pytest.mark.parametrize("family", ["car1-fixed", "car1-free", "ar1"])
def test_whittle_gradient_matches_central_differences(rng, family):
    for _ in range(10):
        n = int(rng.integers(16, 300))
        if family == "ar1":
            data = Series(rng.normal(size=n))
            model = ar_model([rng.uniform(-0.9, 0.9)], rng.uniform(0.5, 2.0))
        else:
            data = Series(rng.normal(size=n) + 1j * rng.normal(size=n), kind="complex")
            r, sigma, rot = rng.uniform(0.05, 0.95), rng.uniform(0.5, 2.0), rng.uniform(-3, 3)
            model = (car1_model(r, sigma, rotation=rot) if family == "car1-fixed"
                     else car1_model(r, sigma, gamma=rot))
        obj = Objective("whittle", data, model)
        assert_gradient_matches(obj, model.params.values)


@pytest.mark.parametrize("family", ["car1-fixed", "car1-free", "ar1"])
def test_a_banded_modulated_gradient_matches_central_differences(rng, family):
    # the band the whittle kind does not take: a constant modulator's
    # modulated-whittle kind on a symmetric band, the drifter's shape
    for _ in range(10):
        n = int(rng.integers(16, 300))
        mask = np.abs(fourier_grid(n).frequencies) < rng.uniform(0.5, 3.0)
        if family == "ar1":
            data = Series(rng.normal(size=n))
            model = ar_model([rng.uniform(-0.9, 0.9)], rng.uniform(0.5, 2.0))
        else:
            data = Series(rng.normal(size=n) + 1j * rng.normal(size=n), kind="complex")
            r, sigma, rot = rng.uniform(0.05, 0.95), rng.uniform(0.5, 2.0), rng.uniform(-3, 3)
            model = (car1_model(r, sigma, rotation=rot) if family == "car1-fixed"
                     else car1_model(r, sigma, gamma=rot))
        obj = Objective("modulated-whittle", data, model, modulator=constant_modulator(n),
                        mask=mask)
        assert obj._size == np.count_nonzero(mask) < n
        assert_gradient_matches(obj, model.params.values)


def test_free_rotation_modulated_gradient_matches_central_differences(rng):
    for _ in range(10):
        n = int(rng.integers(16, 300))
        mod = random_modulator(rng, n)
        data = Series(mod.g * (rng.normal(size=n) + 1j * rng.normal(size=n)),
                      kind="complex")
        model = car1_model(rng.uniform(0.05, 0.95), rng.uniform(0.5, 2.0),
                           gamma=rng.uniform(-3.0, 3.0))
        obj = Objective("modulated-whittle", data, model, modulator=mod,
                        check_significance=False)
        assert_gradient_matches(obj, model.params.values)


@pytest.mark.parametrize("masked", [False, True])
def test_ramp_kernel_gradient_matches_central_differences(rng, masked):
    for _ in range(10):
        n = int(rng.integers(16, 600))
        beta = linear_beta(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0), n)
        z = simulate_complex_ar1(rng.uniform(0.1, 0.95), 2.0, beta, n, rng)
        mask = np.abs(fourier_grid(n).frequencies) < 2.0 if masked else None
        obj = Objective("modulated-whittle", z, car1_model(0.5, 1.0),
                        modulator=LinearRampKernel(n), mask=mask)
        theta = [rng.uniform(0.05, 0.95), rng.uniform(0.5, 3.0),
                 rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0)]
        assert_gradient_matches(obj, theta)


def test_ramp_kernel_objective_outside_bounds_scores_inf(rng):
    n = 64
    z = simulate_complex_ar1(0.7, 1.0, linear_beta(0.5, 1.0, n), n, rng)
    obj = Objective("modulated-whittle", z, car1_model(0.5, 1.0),
                    modulator=LinearRampKernel(n))
    for theta in ([0.7, 1.0, 0.5, 0.0], [0.7, 1.0, 0.5, np.pi], [1.0, 1.0, 0.5, 1.0]):
        assert obj(theta) == np.inf
        value, grad = obj.value_and_grad(theta)
        assert value == np.inf and np.array_equal(grad, np.zeros(4))
    with pytest.raises(ValueError):
        Objective("whittle", z, car1_model(0.5, 1.0), modulator=LinearRampKernel(n))
    with pytest.raises(ValueError):
        Objective("modulated-whittle", z, car1_model(0.5, 1.0),
                  modulator=LinearRampKernel(n + 1))


def test_exact_markov_gradient_matches_central_differences(rng):
    for _ in range(10):
        n = int(rng.integers(8, 600))
        beta = linear_beta(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0), n)
        z = simulate_complex_ar1(rng.uniform(0.1, 0.95), rng.uniform(0.5, 5.0),
                                 beta, n, rng)
        obj = Objective("exact", z, car1_model(0.5, 1.0), modulator=LinearRampKernel(n))
        theta = [rng.uniform(0.05, 0.95), rng.uniform(0.5, 5.0),
                 rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0)]
        assert_gradient_matches(obj, theta)
    for theta in ([1.0, 1.0, 0.5, 1.0], [0.5, 1.0, 0.5, 0.0], [0.5, np.nan, 0.5, 1.0]):
        value, grad = obj.value_and_grad(theta)
        assert value == np.inf and np.array_equal(grad, np.zeros(4))


def test_objective_rejects_shapes_no_kind_evaluates(rng):
    n = 32
    mod = periodic_missing_mask(3, 1, n)
    data = Series(rng.normal(size=n) + 1j * rng.normal(size=n), kind="complex")
    agg = AggregateModel(((car1_model(0.5, 1.0), mod), (car1_model(0.3, 1.0), None)), n)
    for kind in ("whittle", "exact"):
        with pytest.raises(ValueError):
            Objective(kind, data, agg)
    with pytest.raises(ValueError):  # the aggregate's own modulators would be ignored
        Objective("modulated-whittle", data, agg, modulator=mod)
    with pytest.raises(ValueError):
        Objective("whittle", data, car1_model(0.5, 1.0), modulator=mod)
    for latent in (ar_model([0.5], 1.0), car1_model(0.5, 1.0, rotation=0.3),
                   car1_model(0.5, 1.0, gamma=0.3)):
        with pytest.raises(ValueError):
            Objective("exact", data, latent, modulator=LinearRampKernel(n))
    keep = np.abs(fourier_grid(n).frequencies) < 0.5  # the exact kind has no frequencies
    for latent, modulator in ((ar_model([0.5], 1.0), None), (ar_model([0.5], 1.0), mod),
                              (car1_model(0.5, 1.0), LinearRampKernel(n))):
        with pytest.raises(ValueError, match="mask"):
            Objective("exact", data, latent, modulator=modulator, mask=keep)
