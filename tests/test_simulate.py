import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import modwhittle
from helpers import simplex_fit
from modwhittle import ar_model, ma_model, simulate
from modwhittle.models import autocov_sequence, matern_acv, ou_to_ar
from modwhittle.modulation import frequency_modulator
from modwhittle.simulate import (
    ESTIMATORS,
    McStudy,
    SimulationError,
    _fit_estimator,
    _simulate_case,
    bounded_random_walk_beta,
    run_study,
    simulate_ar,
    simulate_complex_ar1,
    simulate_from_acv,
)


def test_simulate_ar_zero_sigma():
    x = simulate_ar(ar_model([0.5], 0.0), 32, 0)
    assert np.all(x.values == 0.0)


def test_simulate_ar_iid_case(rng):
    x = simulate_ar(ar_model([], 1.4), 100_000, rng)
    v = np.var(x.values)
    se = 1.4 ** 2 * np.sqrt(2 / 100_000)
    assert abs(v - 1.96) < 3 * se


def test_simulate_ar1_lag1_autocorr(rng):
    x = simulate_ar(ar_model([0.8], 1.0), 100_000, rng).values
    rho = np.sum(x[:-1] * x[1:]) / np.sum(x * x)
    assert abs(rho - 0.8) < 3 * np.sqrt((1 - 0.64) / 100_000)


def test_simulate_ar2_matches_theoretical_acv(rng):
    model = ar_model([0.5, -0.3], 1.0)
    x = simulate_ar(model, 200_000, rng).values
    c = autocov_sequence(model, 3)
    for tau in range(3):
        chat = np.mean(x[: x.size - tau] * x[tau:])
        assert abs(chat - c[tau]) < 0.02 * c[0]


def test_simulate_ma_exact_stationary(rng):
    model = ma_model([0.4, -0.3], 1.2)
    x = simulate_ar(model, 200_000, rng).values
    c = autocov_sequence(model, 4)
    for tau in range(4):
        chat = np.mean(x[: x.size - tau] * x[tau:])
        assert abs(chat - c[tau]) < 0.02 * c[0]


def test_complex_ar1_variance_constant(rng):
    # E|z_t|^2 = sigma^2/(1-r^2) at every t, including t=0 (stationary start)
    reps, n = 10_000, 24
    r, sigma = 0.8, 1.0
    target = sigma ** 2 / (1 - r ** 2)
    acc = np.zeros(n)
    for i in range(reps):
        beta = rng.uniform(-1, 1, size=n - 1)
        z = simulate_complex_ar1(r, sigma, beta, n, rng)
        acc += np.abs(z.values) ** 2
    acc /= reps
    se = target * np.sqrt(2.0 / reps)  # |z|^2 has variance ~ target^2 (2 dof)
    assert np.all(np.abs(acc - target) < 4 * se), np.max(np.abs(acc - target))


def test_complex_ar1_propriety(rng):
    reps, n = 10_000, 16
    beta = rng.uniform(0.2, 0.7, size=n - 1)
    acc = np.zeros(n - 2, dtype=complex)
    var_acc = 0.0
    for i in range(reps):
        z = simulate_complex_ar1(0.8, 1.0, beta, n, rng).values
        acc += z[:-2] * z[2:][: n - 2]
        var_acc += np.mean(np.abs(z) ** 2)
    rel = np.abs(acc / reps)
    scale = var_acc / reps
    assert np.all(rel < 4 * scale / np.sqrt(reps))


def test_complex_ar1_matches_literal_recursion(rng):
    # the modulated-representation path equals the rotation recursion when
    # the innovations are rotated accordingly
    n = 64
    r, sigma = 0.7, 1.3
    beta = rng.uniform(-2, 2, size=n - 1)
    seed = 777
    z = simulate_complex_ar1(r, sigma, beta, n, seed).values
    # rebuild the same draws
    rng2 = np.random.default_rng(seed)
    scale = np.sqrt(sigma ** 2 / (1 - r ** 2) / 2)
    z0 = scale * (rng2.standard_normal() + 1j * rng2.standard_normal())
    eps = np.sqrt(sigma ** 2 / 2) * (rng2.standard_normal(n - 1)
                                     + 1j * rng2.standard_normal(n - 1))
    g = frequency_modulator(beta).g
    ref = np.empty(n, dtype=complex)
    ref[0] = z0
    for t in range(1, n):
        ref[t] = r * np.exp(1j * beta[t - 1]) * ref[t - 1] + g[t] * eps[t - 1]
    assert np.max(np.abs(z - ref)) < 1e-10 * np.max(np.abs(ref))


def test_demodulated_series_is_stationary_ar1(rng):
    n = 100_000
    beta = rng.uniform(-1.5, 1.5, size=n - 1)
    z = simulate_complex_ar1(0.8, 1.0, beta, n, rng)
    latent = np.conj(frequency_modulator(beta).g) * z.values
    c0 = np.mean(np.abs(latent) ** 2)
    c1 = np.mean(np.conj(latent[:-1]) * latent[1:])
    assert abs(c0 - 1 / 0.36) < 0.1
    assert abs(c1 / c0 - 0.8) < 0.01
    assert abs(np.imag(c1 / c0)) < 0.01


def test_simulate_from_acv_white_noise(rng):
    acv = np.zeros(64)
    acv[0] = 2.0
    x = simulate_from_acv(acv, 64, rng, kind="real")
    assert x.kind == "real"
    big = np.concatenate([simulate_from_acv(acv, 64, rng).values for _ in range(200)])
    assert abs(np.var(big) - 2.0) < 0.1


def test_simulate_from_acv_matches_ar_path(rng):
    # two-method agreement on marginal distribution (KS test)
    model = ar_model([0.6], 1.0)
    acv = autocov_sequence(model, 64)
    a = np.concatenate([simulate_from_acv(acv, 64, rng).values for _ in range(160)])
    b = np.concatenate([simulate_ar(model, 64, rng).values for _ in range(160)])
    assert stats.ks_2samp(a, b).pvalue > 0.01


def test_simulate_from_acv_matern_alpha1_matches_ou(rng):
    c_m = matern_acv(1.0, 0.5, 1.0, 1.0 / 12.0, 256)
    r, sig = ou_to_ar(1.0, 0.5, 1.0 / 12.0)
    z = np.concatenate([simulate_from_acv(c_m, 256, rng, kind="complex").values
                        for _ in range(60)])
    # matern(alpha=1) acv equals an exponential; compare lag-1 correlation with
    # the sampled-OU decay e^{-h delta}
    zmat = z.reshape(60, 256)
    c1 = np.mean(np.conj(zmat[:, :-1]) * zmat[:, 1:])
    c0 = np.mean(np.abs(zmat) ** 2)
    assert abs(c1 / c0 - np.exp(-0.5 / 12.0)) < 0.01
    assert abs(c0 - c_m[0]) < 0.1 * c_m[0]


def test_simulate_from_acv_rejects_bad_input(rng):
    with pytest.raises(ValueError):
        simulate_from_acv(np.ones(4), 8, rng)
    acv = np.zeros(8)
    acv[0] = 1.0
    acv[1] = 5.0  # wildly non-PSD
    with pytest.raises(SimulationError):
        simulate_from_acv(acv, 8, rng)


def test_bounded_walk_properties(rng):
    b = bounded_random_walk_beta(np.pi / 2, 1.0, 0.0, 100, rng)
    assert np.allclose(b, np.pi / 2)
    b = bounded_random_walk_beta(0.3, 0.5, 0.2, 1_000_000, rng)
    assert b.min() >= 0.3 - 0.5 - 1e-12 and b.max() <= 0.3 + 0.5 + 1e-12
    # the clamp is hit (the walk actually wanders)
    assert b.max() > 0.3 + 0.45 and b.min() < 0.3 - 0.45


def test_run_study_reproducible_and_identity():
    study = McStudy(kind="car1-bounded-walk",
                    true_params={"r": 0.8, "sigma": 1.0},
                    process={"gamma": np.pi / 2, "span": 1.0, "amp": 0.05},
                    estimators=["modulated"],
                    n_grid=[64], replicates=8, seed=5,
                    fit_options={"n_starts": 1})
    def stats(report):
        return [{k: v for k, v in row.items() if k != "cpu"} for row in report.rows]

    rep1 = run_study(study)
    rep2 = run_study(study)
    assert stats(rep1) == stats(rep2)
    rep3 = run_study(study, threads=2)
    assert stats(rep3) == stats(rep1)
    for row in rep1.rows:
        assert abs(row["mse"] - (row["var"] + row["bias"] ** 2)) < 1e-12 * max(row["mse"], 1e-30)


def test_run_study_single_replicate():
    study = McStudy(kind="ar1-bernoulli-mask",
                    true_params={"a": 0.8, "sigma": 1.0},
                    process={"mean_p": 0.5, "amp_p": 0.25, "omega_p": 2 * np.pi / 10},
                    estimators=["modulated"],
                    n_grid=[128], replicates=1, seed=2,
                    fit_options={"n_starts": 1})
    rep = run_study(study)
    for row in rep.rows:
        assert row["var"] == 0.0
        assert abs(row["mse"] - row["bias"] ** 2) < 1e-15


def test_ar1_mask_study_reports_a_for_every_estimator():
    study = McStudy(kind="ar1-bernoulli-mask",
                    true_params={"a": 0.8, "sigma": 1.0},
                    process={"mean_p": 0.5, "amp_p": 0.25, "omega_p": 2 * np.pi / 10},
                    estimators=["modulated", "stationary"],
                    n_grid=[128], replicates=3, seed=2,
                    fit_options={"n_starts": 1})
    rep = run_study(study)
    keys = {(row["estimator"], row["param"]) for row in rep.rows}
    assert keys == {(est, p) for est in ("modulated", "stationary")
                    for p in ("a", "sigma")}


def test_study_json_round_trip():
    study = McStudy(kind="car1-linear-beta",
                    true_params={"r": 0.9, "sigma": 10.0, "gamma": 0.8, "span": 2.0},
                    process={}, estimators=["modulated", "exact"],
                    n_grid=[512], replicates=10, seed=3)
    back = McStudy.from_json_dict(study.to_json_dict())
    assert back == study


MC_CASES = {
    "ar1-bernoulli-mask": ({"a": 0.8, "sigma": 1.0},
                           {"mean_p": 0.5, "amp_p": 0.25, "omega_p": 2 * np.pi / 10}),
    "car1-bounded-walk": ({"r": 0.8, "sigma": 1.0},
                          {"gamma": np.pi / 2, "span": 1.0, "amp": 0.05}),
    "car1-linear-beta": ({"r": 0.9, "sigma": 10.0, "gamma": 0.8, "span": 2.0}, {}),
}
# the parameter names of every fit, which key the McReport rows: the
# stationary Table 2 fit has no span
MC_NAMES = {(kind, est): list(MC_CASES[kind][0]) for kind, est in ESTIMATORS}
MC_NAMES["car1-linear-beta", "stationary"] = ["r", "sigma", "gamma"]


# every estimator of every study kind; a modulated case keeps the bare kind as its id
@pytest.mark.parametrize("kind, estimator", list(ESTIMATORS),
                         ids=[k if e == "modulated" else f"{k}-{e}" for k, e in ESTIMATORS])
def test_modulated_mc_fit_never_worse_than_simplex_alone(kind, estimator, monkeypatch):
    # fits on the gradient path, and ends no higher than Nelder-Mead alone
    # (the test-local reference) on the same objective
    truth, process = MC_CASES[kind]
    study = McStudy(kind=kind, true_params=truth, process=process,
                    estimators=[estimator], n_grid=[1024], replicates=1,
                    seed=11, fit_options={"n_starts": 1})
    data, aux = _simulate_case(study, 1024, 0)
    two_phase = _fit_estimator(study, estimator, data, aux)
    assert two_phase.n_grad_evals > 0
    assert two_phase.theta_hat.names == MC_NAMES[kind, estimator]
    monkeypatch.setattr(simulate, "fit", simplex_fit)
    simplex = _fit_estimator(study, estimator, data, aux)
    f1 = simplex.objective_value
    assert two_phase.objective_value <= f1 + 1e-9 * max(1.0, abs(f1))


def test_polish_restart_reaches_the_simplex_optimum(monkeypatch):
    # this replicate's first L-BFGS-B polish reports convergence with a
    # gradient of about 1, far from the optimum; the restart reaches it
    truth, process = MC_CASES["ar1-bernoulli-mask"]
    study = McStudy(kind="ar1-bernoulli-mask", true_params=truth, process=process,
                    estimators=["modulated"], n_grid=[128], replicates=1,
                    seed=77, fit_options={"n_starts": 1})
    data, aux = _simulate_case(study, 128, 0)
    two_phase = _fit_estimator(study, "modulated", data, aux)
    monkeypatch.setattr(simulate, "fit", simplex_fit)
    simplex = _fit_estimator(study, "modulated", data, aux)
    assert two_phase.converged
    assert abs(two_phase.objective_value - simplex.objective_value) <= 1e-9


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal is a slow import, made only by the simulators that filter
    src = os.path.dirname(os.path.dirname(modwhittle.__file__))
    code = "import sys, modwhittle; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def _walk_by_recursion(gamma, span, amp, n, seed):
    """The bounded random walk as its defining recursion, one step at a time."""
    eps = np.random.default_rng(seed).standard_normal(n)
    lo, hi = gamma - span, gamma + span
    out = np.empty(n)
    prev = min(max(gamma + amp * eps[0], lo), hi)
    out[0] = prev
    for t in range(1, n):
        prev = min(max(prev + amp * eps[t], lo), hi)
        out[t] = prev
    return out


@pytest.mark.parametrize("n", [1, 2, 128, 2048])
@pytest.mark.parametrize("amp", [0.0, 0.05, 0.6, 5.0])
def test_bounded_random_walk_is_its_recursion_bit_for_bit(n, amp):
    for seed in range(6):
        walk = bounded_random_walk_beta(np.pi / 2, 1.0, amp, n, seed)
        assert np.array_equal(walk, _walk_by_recursion(np.pi / 2, 1.0, amp, n, seed))
