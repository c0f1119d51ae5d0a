import ast
import dataclasses
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import modwhittle
from helpers import counted_transforms, first_replicate, simplex_fit
from modwhittle import ar_model, car1_model, simulate
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


@pytest.mark.parametrize("n", [1, 2, 257])
def test_simulate_ar1_is_the_literal_recursion(n):
    # x_0 = sqrt(c(0)) e_0, x_t = phi x_{t-1} + sigma e_t, bit for bit: the
    # Table 3 study and its benchmark pool draw their latent paths here
    phi, sigma = -0.83, 1.7
    x = simulate_ar(ar_model([phi], sigma), n, np.random.default_rng(5)).values
    e = np.random.default_rng(5).standard_normal(n)
    ref = [np.sqrt(sigma * sigma / (1.0 - phi * phi)) * e[0]]
    for t in range(1, n):
        ref.append(sigma * e[t] + phi * ref[-1])
    assert x.tobytes() == np.array(ref).tobytes()


def test_simulate_ar_takes_the_ar_family_alone():
    with pytest.raises(ValueError):
        simulate_ar(car1_model(0.5, 1.0), 8, 0)


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


@pytest.mark.parametrize("n", [1, 2, 3, 257, 4097])
@pytest.mark.parametrize("r", [0.0, -0.83, 0.5, 0.973, 0.995, 1 - 1e-6])
def test_ar1_scan_is_the_recursion(r, n):
    # the complex AR(1) simulator's doubling scan against y_t = r y_{t-1} + x_t
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
        ref = x.tolist()
        for t in range(1, n):
            ref[t] = r * ref[t - 1] + ref[t]
        ref = np.array(ref)
        got = simulate._ar1_scan(x, r)
        assert got.dtype == x.dtype
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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


def test_cost_counts_do_not_depend_on_threads():
    # two starts allowed, but every fit converges from its first
    study = McStudy(kind="car1-bounded-walk",
                    true_params={"r": 0.8, "sigma": 1.0},
                    process={"gamma": np.pi / 2, "span": 1.0, "amp": 0.05},
                    estimators=["modulated", "stationary"],
                    n_grid=[64], replicates=4, seed=5,
                    fit_options={"n_starts": 2})
    rep1 = run_study(study)
    assert rep1.nonconverged == {"modulated@64": 0, "stationary@64": 0}
    assert rep1.cost == run_study(study, threads=2).cost
    for key in ("modulated@64", "stationary@64"):
        assert rep1.cost[key]["starts_per_fit"] == 1.0
        assert rep1.cost[key]["evals_per_fit"] > 0


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
    assert McStudy.from_json_dict(json.loads(json.dumps(dataclasses.asdict(study)))) == study
    # spawned workers get the study pickled
    assert pickle.loads(pickle.dumps(study)) == study


TABLE1_STUDY = dict(kind="car1-bounded-walk", true_params={"r": 0.8, "sigma": 1.0},
                    process={"gamma": np.pi / 2, "span": 1.0, "amp": 0.05},
                    estimators=["modulated", "stationary"], n_grid=[64],
                    replicates=3, seed=5, fit_options={"n_starts": 1})


@pytest.mark.parametrize("change, message", [
    ({"n_grid": [1]}, "integer >= 2"),
    ({"n_grid": [64.0]}, "integer >= 2"),
    ({"n_grid": [True]}, "integer >= 2"),
    ({"n_grid": [64, 128, 64]}, "free of repeats"),
    ({"n_grid": []}, "non-empty"),
    ({"estimators": ["modulated", "modulated"]}, "free of repeats"),
    ({"estimators": []}, "non-empty"),
    ({"replicates": 0}, "replicates"),
    ({"replicates": 2.0}, "replicates"),
])
def test_mc_study_rejects_a_study_it_cannot_run(change, message):
    with pytest.raises(ValueError, match=message):
        McStudy(**{**TABLE1_STUDY, **change})


def test_study_config_rejects_an_unknown_key():
    cfg = {**TABLE1_STUDY, "fit_option": {"n_starts": 1}}
    with pytest.raises(ValueError, match="fit_option"):
        McStudy.from_json_dict(cfg)
    assert McStudy.from_json_dict(TABLE1_STUDY) == McStudy(**TABLE1_STUDY)


@pytest.mark.parametrize("replicates", [1, 7, 37])
def test_run_study_rows_are_the_per_column_numpy_statistics(replicates, monkeypatch):
    # run_study reduces each estimator@N along the rows of one array; each
    # statistic must equal the per-column numpy formula bit for bit
    chunks = []

    def recorded(*args):
        chunks.append(run_chunk(*args))
        return chunks[-1]

    run_chunk = simulate._run_chunk
    monkeypatch.setattr(simulate, "_run_chunk", recorded)
    study = McStudy(**{**TABLE1_STUDY, "n_grid": [128], "replicates": replicates})
    report = run_study(study)
    (records,) = chunks
    for est in study.estimators:
        fits = [rec[est] for _, rec in records]
        values = np.array([f["values"] for f in fits])
        for j, name in enumerate(fits[0]["names"]):
            col, truth = values[:, j], study.true_params[name]
            want = {"bias": float(np.mean(col) - truth), "var": float(np.var(col)),
                    "mse": float(np.mean((col - truth) ** 2)),
                    "cpu": float(np.mean([f["cpu"] for f in fits]))}
            row = report.row(est, 128, name)
            assert {k: row[k].hex() for k in want} == {k: v.hex() for k, v in want.items()}


# the numpy.fft calls (function, length) and Objective builds of one
# replicate's simulation and estimator builds at N = 512, without the fits:
# each periodogram's transform alone, since a build takes c_g at lags 0 and
# 1 by two direct sums
REPLICATE_COST_PINS = {
    "table1_ci": ([("fft", 512), ("fft", 512)], 2),
    "table3_ci": ([("rfft", 512)], 1),
}


@pytest.mark.parametrize("config", sorted(REPLICATE_COST_PINS))
def test_a_replicate_keeps_its_transform_and_build_counts(config, monkeypatch):
    from modwhittle import likelihood

    calls, builds = counted_transforms(monkeypatch), []
    post_init = likelihood.Objective.__post_init__

    def counted_build(self):
        builds.append(self.kind)
        post_init(self)

    monkeypatch.setattr(likelihood.Objective, "__post_init__", counted_build)
    study, data, aux = first_replicate(config, 512)
    for est in study.estimators:
        ESTIMATORS[study.kind, est](data, aux)
    assert (calls, len(builds)) == REPLICATE_COST_PINS[config]


# the numpy.fft calls of one modulated-Whittle evaluation at N = 512, value
# alone and with the score: Sbar's transform, and the score's of w.  Table
# 3's real series keeps k = 0..N/2, whose w, zero-padded to N, takes rfft too.
# The first evaluation grows the c_g table to twice the start's acv reach
# (179 lags on table1_ci, 120 on table3_ci): one autocorrelation of the
# least 2^a 3^b 5^c >= N + 2L - 1 (869 -> 900, 751 -> 768)
EVALUATION_COST_PINS = {
    "table1_ci": ([("fft", 900), ("ifft", 900), ("fft", 512)], [("fft", 512), ("rfft", 512)]),
    "table3_ci": ([("rfft", 768), ("irfft", 768), ("rfft", 512)],
                  [("rfft", 512), ("rfft", 512)]),
}


@pytest.mark.parametrize("config", sorted(EVALUATION_COST_PINS))
def test_an_evaluation_keeps_its_transforms(config, monkeypatch):
    study, data, aux = first_replicate(config, 512)
    objective, init = ESTIMATORS[study.kind, "modulated"](data, aux)
    calls = counted_transforms(monkeypatch)
    objective(init.values)
    value_only = list(calls)
    calls.clear()
    objective.value_and_grad(init.values)
    assert (value_only, calls) == EVALUATION_COST_PINS[config]


def test_a_table3_replicate_at_n_16384_makes_no_length_2n_transform(monkeypatch):
    # c_g grows only as far as the AR(1) acv reaches, a few hundred lags: one
    # regrowth, by transforms of length 16875 = 3^3 5^4, and no transform of
    # the replicate (simulation, build and fit) is of length 2N
    calls = counted_transforms(monkeypatch)
    study, data, aux = first_replicate("table3_ci", 16384)
    res = _fit_estimator(study, "modulated", data, aux)
    assert res.converged
    assert ("irfft", 16875) in calls
    assert max(length for _, length in calls) < 2 * 16384


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


# the scipy modules loaded by `import modwhittle`, then after a Table 1
# replicate with both estimators, then after an exact-kind fit of AR(1) data
# drawn with numpy alone under a cosine-Bernoulli mask, then after a
# four-parameter drifter fit
FOOTPRINT = """
import sys
import modwhittle

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

print(loaded())
import numpy as np
from modwhittle.drifter import fit_drifter, simulate_drifter_velocities
from modwhittle.simulate import McStudy, run_study

run_study(McStudy(kind="car1-bounded-walk", true_params={"r": 0.8, "sigma": 1.0},
                  process={"gamma": np.pi / 2, "span": 1.0, "amp": 0.05},
                  estimators=["modulated", "stationary"], n_grid=[128], replicates=1,
                  fit_options={"n_starts": 1}))
print(loaded())
from modwhittle import Objective, Series, ar_model, fit
from modwhittle.models import autocov_sequence
from modwhittle.simulate import cosine_bernoulli_mask, simulate_from_acv

x = simulate_from_acv(autocov_sequence(ar_model([0.8], 1.0), 4096), 4096, 5)
mask = cosine_bernoulli_mask(0.5, 0.25, 2 * np.pi / 10, 4096, 5)
obj = Objective("exact", Series(mask.g * x.values), ar_model([0.5], 1.0), modulator=mask)
assert fit(obj, obj.init_params).converged
print(loaded())
wf = np.full(256, 1.5)
data = simulate_drifter_velocities(1.0, 0.4, 1.2, 0.7, 1.1, wf, 1 / 12, 3)
fit_drifter(data, wf, freq_range=(0.0, 2.0), fit_options={"n_starts": 1})
print(loaded())
"""


def test_table1_study_and_drifter_fit_import_only_the_scipy_they_use():
    # numpy is the one import-time dependency: scipy.fft and scipy.special
    # cost about 0.12 s and 25 MB, and scipy.signal, scipy.optimize and
    # scipy.linalg about 0.9 s and 50 MB more.  A Table 1 study and an exact
    # fit need none of them (scipy.linalg serves the dense oracle alone), a
    # drifter fit scipy.special for its Matern table and scipy.optimize's
    # L-BFGS-B (which imports scipy.linalg itself)
    src = os.path.dirname(os.path.dirname(modwhittle.__file__))
    out = subprocess.run([sys.executable, "-c", FOOTPRINT], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    imported, study, exact, drifter = (ast.literal_eval(line)
                                       for line in out.stdout.splitlines())
    assert imported == []
    assert study == []
    assert exact == []
    assert "scipy.special" in drifter and "scipy.optimize" in drifter
    assert "scipy.signal" not in drifter


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


# theta-hat (as float.hex), evaluations and stopping message of the first
# three replicates of the bundled table1_ci and table3_ci studies at their
# smallest N, as the fit path gave them before its 1-D search ran on Python
# floats (table3_ci's as its real series' half grid gives them, table1_ci's
# stationary ones as a search from the Whittle minimiser of Q gives them, in
# one evaluation): a change to the fit path that moves any of them shows here
ESTIMATE_PINS = {
    ("table1_ci", 0, "modulated"): (["0x1.919ab2bdfc688p-1", "0x1.e1bce6a813f84p-1"], 5),
    ("table1_ci", 0, "stationary"): (["0x1.7f6a4f9f44312p-1", "0x1.0134a8140eabcp+0"], 1),
    ("table1_ci", 1, "modulated"): (["0x1.96d53e5e75baep-1", "0x1.e517b4d2f9227p-1"], 5),
    ("table1_ci", 1, "stationary"): (["0x1.8eb9ef9a239a6p-1", "0x1.f64746d4f3de2p-1"], 1),
    ("table1_ci", 2, "modulated"): (["0x1.b941f1167e339p-1", "0x1.c4e9912266fe6p-1"], 5),
    ("table1_ci", 2, "stationary"): (["0x1.9d5d806947c7ap-1", "0x1.f628da1831142p-1"], 1),
    ("table3_ci", 0, "modulated"): (["0x1.74e7fd2b17f00p-1", "0x1.0f5daa6075caap+0"], 5),
    ("table3_ci", 1, "modulated"): (["0x1.54a2c68756f7ap-1", "0x1.0fd15deba4f11p+0"], 8),
    ("table3_ci", 2, "modulated"): (["0x1.a074d646b3d38p-1", "0x1.1e06aa1ab61aap+0"], 7),
}


@pytest.mark.parametrize("config", ["table1_ci", "table3_ci"])
def test_first_replicates_of_the_ci_studies_keep_their_estimates(config):
    path = os.path.join(os.path.dirname(modwhittle.__file__), "configs", config + ".json")
    with open(path) as fh:
        study = McStudy.from_json_dict(json.load(fh))
    n = min(study.n_grid)
    for rep in range(3):
        data, aux = _simulate_case(study, n, rep)
        for est in study.estimators:
            res = _fit_estimator(study, est, data, aux)
            got = ([float(v).hex() for v in res.theta_hat.values], res.n_evals)
            assert got == ESTIMATE_PINS[(config, rep, est)], (rep, est)
            assert res.message == "gradient at most GRAD_GTOL"
