"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output).  The heavy Monte Carlo criteria reuse one study run where
their specifications overlap and respect the stated runtime caps.
"""

import os
import time
import warnings

import numpy as np
import pytest

from modwhittle import (
    Series,
    car1_model,
    cg_linear_closed_form,
    cg_sequence,
    frequency_modulator,
    linear_frequency_modulator,
    stationarity_check,
)
from modwhittle.drifter import fit_drifter, inertial_frequency, simulate_drifter_velocities
from modwhittle.likelihood import Objective
from modwhittle.modulation import Modulator, cg_direct
from modwhittle.simulate import (
    McStudy,
    bounded_random_walk_beta,
    run_study,
    simulate_complex_ar1,
    worker_pool,
)
from modwhittle.spectra import (
    brute_force_expected_periodogram,
    expected_periodogram,
    periodogram,
)
from helpers import random_model, random_modulator

THREADS = min(2, os.cpu_count() or 1)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} -- {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ----------------------------------------------------------------------
# criterion 1: fast expected periodogram vs dense-covariance oracle
# ----------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    pairs = 0
    while pairs < 50:
        model = random_model(rng)
        for n in (8, 16, 32, 64, 128):
            mod = random_modulator(rng, n)
            if np.all(np.abs(mod.g) == 0):
                continue
            sb = expected_periodogram(cg_sequence(mod), model)
            ref = brute_force_expected_periodogram(mod, model)
            rel = np.max(np.abs(sb - ref)) / max(np.max(np.abs(ref)), 1e-30)
            worst = max(worst, rel)
        pairs += 1
    elapsed = time.time() - t0
    report(1, worst < 1e-10 and elapsed < 30.0,
           f"50 random pairs, N in 8..128: worst rel err {worst:.2e}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# criterion 2: closed-form c_g for the linear ramp
# ----------------------------------------------------------------------

def test_criterion_2_closed_form_cg():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in (8, 64, 512):
        for _ in range(20):
            gamma = rng.uniform(-np.pi, np.pi)
            span = rng.uniform(0.02, np.pi - 0.02)
            mod = linear_frequency_modulator(gamma, span, n)
            direct = cg_direct(mod.g)
            closed = cg_linear_closed_form(gamma, span, n, np.arange(n))
            worst = max(worst, float(np.max(np.abs(direct - closed))))
    elapsed = time.time() - t0
    report(2, worst < 1e-10 and elapsed < 5.0,
           f"N in (8,64,512), 20 draws each: worst abs err {worst:.2e}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# criterion 3: Table-3 missing-data reproduction
# ----------------------------------------------------------------------

def _table3_study(replicates, seed):
    return McStudy(kind="ar1-bernoulli-mask",
                   true_params={"a": 0.8, "sigma": 1.0},
                   process={"mean_p": 0.5, "amp_p": 0.25,
                            "omega_p": 2 * np.pi / 10},
                   estimators=["modulated"],
                   n_grid=[1024], replicates=replicates, seed=seed,
                   fit_options={"n_starts": 1})


def test_criterion_3_table3_full():
    t0 = time.time()
    rep = run_study(_table3_study(2000, 20170303), threads=THREADS)
    row = rep.row("modulated", 1024, "a")
    elapsed = time.time() - t0
    bias_tol = 3.0 * np.sqrt(1.2795e-03 / 2000)
    ok_bias = abs(row["bias"] - (-3.0920e-04)) <= bias_tol
    ok_mse = 0.75 * 1.2796e-03 <= row["mse"] <= 1.25 * 1.2796e-03
    report(3, ok_bias and ok_mse and elapsed < 600.0,
           f"R=2000 N=1024: bias(a)={row['bias']:+.3e} (target -3.092e-4 "
           f"+- {bias_tol:.1e}), mse={row['mse']:.3e} (target 1.2796e-3 "
           f"+-25%), {elapsed:.0f}s")


def test_criterion_3_table3_scaled_ci():
    t0 = time.time()
    rep = run_study(_table3_study(200, 99), threads=THREADS)
    row = rep.row("modulated", 1024, "a")
    elapsed = time.time() - t0
    se = np.sqrt(row["var"] / 200)
    ok = abs(row["bias"] - (-3.0920e-04)) <= 3 * se and elapsed < 60.0
    report("3-scaled", ok,
           f"R=200: bias(a)={row['bias']:+.3e} within 3 se ({3 * se:.1e}), {elapsed:.0f}s")


# ----------------------------------------------------------------------
# criteria 4 & 6 share one bounded-random-walk study
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def bounded_walk_report():
    study = McStudy(kind="car1-bounded-walk",
                    true_params={"r": 0.8, "sigma": 1.0},
                    process={"gamma": np.pi / 2, "span": 1.0, "amp": 0.05},
                    estimators=["modulated", "stationary"],
                    n_grid=[128, 256, 512, 1024, 2048, 4096],
                    replicates=500, seed=20170301,
                    fit_options={"n_starts": 1})
    t0 = time.time()
    rep = run_study(study, threads=THREADS)
    return rep, time.time() - t0


def test_criterion_4_table1_contrast(bounded_walk_report):
    rep, elapsed = bounded_walk_report
    row_m = rep.row("modulated", 4096, "r")
    row_s = rep.row("stationary", 4096, "r")
    ok = (abs(row_m["bias"]) <= 2e-3
          and 0.7 * 5.3244e-05 <= row_m["mse"] <= 1.3 * 5.3244e-05
          and row_s["bias"] <= -0.09
          and elapsed < 1200.0)
    report(4, ok,
           f"N=4096 R=500: nonstat bias(r)={row_m['bias']:+.2e} (<=2e-3), "
           f"mse={row_m['mse']:.3e} (5.3244e-5 +-30%), stat bias(r)="
           f"{row_s['bias']:+.3f} (<=-0.09), {elapsed:.0f}s")


def test_criterion_6_convergence_rate(bounded_walk_report):
    rep, _ = bounded_walk_report
    ns = np.array([128, 256, 512, 1024, 2048])
    mses = np.array([rep.row("modulated", n, "r")["mse"] for n in ns])
    slope = np.polyfit(np.log(ns), np.log(mses), 1)[0]
    report(6, -1.25 <= slope <= -0.75,
           f"log-log slope of nonstationary MSE(r) over N=128..2048: {slope:.3f}")


def test_stationary_degradation_monotone(bounded_walk_report):
    rep, _ = bounded_walk_report
    ns = [128, 256, 512, 1024, 2048, 4096]
    biases = [abs(rep.row("stationary", n, "r")["bias"]) for n in ns]
    ok = all(biases[i] < biases[i + 1] for i in range(len(ns) - 1))
    report("4b-degradation", ok,
           f"stationary |bias(r)| over N: {['%.4f' % b for b in biases]}")


# ----------------------------------------------------------------------
# criterion 5: Table-2 three-way comparison
# ----------------------------------------------------------------------

def test_criterion_5_table2_three_way():
    t0 = time.time()
    study = McStudy(kind="car1-linear-beta",
                    true_params={"r": 0.9, "sigma": 10.0, "gamma": 0.8,
                                 "span": 2.0},
                    process={},
                    estimators=["exact", "stationary", "modulated"],
                    n_grid=[512], replicates=1000, seed=20170302,
                    fit_options={"n_starts": 2})
    rep = run_study(study, threads=THREADS)
    elapsed = time.time() - t0
    r_mod = rep.row("modulated", 512, "r")
    r_stat = rep.row("stationary", 512, "r")
    r_exact = rep.row("exact", 512, "r")
    se = np.sqrt(r_mod["var"] / 1000)
    ok_bias = abs(r_mod["bias"] - (-1.7074e-03)) <= 3 * se
    ok_stat = 0.7 * 2.4241e-02 <= r_stat["mse"] <= 1.3 * 2.4241e-02
    ok_exact = 0.7 * 1.8844e-04 <= r_exact["mse"] <= 1.3 * 1.8844e-04
    ok_order = r_exact["mse"] <= r_mod["mse"] * 1.05 and r_mod["mse"] < 0.1 * r_stat["mse"]
    report(5, ok_bias and ok_stat and ok_exact and ok_order and elapsed < 1800.0,
           f"R=1000 N=512: nonstat bias(r)={r_mod['bias']:+.3e} "
           f"(-1.707e-3 +-{3 * se:.1e}), stat mse={r_stat['mse']:.3e} "
           f"(2.424e-2 +-30%), exact mse={r_exact['mse']:.3e} "
           f"(1.884e-4 +-30%), order {r_exact['mse']:.2e} <= {r_mod['mse']:.2e} "
           f"<< {r_stat['mse']:.2e}, {elapsed:.0f}s")


# ----------------------------------------------------------------------
# criterion 7: property suites
# ----------------------------------------------------------------------

def test_criterion_7_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(707)
    checks = {}

    # Parseval
    worst = 0.0
    for n in (8, 64, 257, 1024):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        shat = periodogram(Series(x, kind="complex"))
        worst = max(worst, abs(np.sum(shat) - np.sum(np.abs(x) ** 2))
                    / np.sum(np.abs(x) ** 2))
    checks["parseval"] = worst < 1e-10

    # expected-periodogram positivity/upper bounds
    from modwhittle.models import sdf_entry
    ok = True
    wfine = np.linspace(-np.pi, np.pi, 2001)
    for _ in range(25):
        n = int(rng.integers(8, 128))
        model = random_model(rng)
        mod = random_modulator(rng, n)
        sb = expected_periodogram(cg_sequence(mod), model)
        fmax = float(np.max(sdf_entry(model, wfine)(model.params.values, False)[0]))
        ok &= np.min(sb) > 0.0 and np.max(sb) <= mod.gmax ** 2 * fmax + 1e-8
    checks["sbar-bounds"] = ok

    # distinct parameters give distinct expected periodograms
    ok = True
    for _ in range(100):
        mod = random_modulator(rng, 64, kinds=("constant", "periodic", "frequency"))
        t1 = (rng.uniform(0.05, 0.9), rng.uniform(0.5, 2.0))
        t2 = (t1[0] + rng.choice([-1, 1]) * rng.uniform(1e-2, 0.08),
              t1[1] + rng.choice([-1, 1]) * rng.uniform(1e-2, 0.3))
        if not (0 <= t2[0] < 1 and t2[1] > 0):
            continue
        cg = cg_sequence(mod)
        d = np.max(np.abs(expected_periodogram(cg, car1_model(*t1))
                          - expected_periodogram(cg, car1_model(*t2))))
        ok &= d > 0.0
    checks["separation"] = ok

    # stationarity predicate on constructed positive/negative cases
    g_rot = Modulator(np.exp(1j * 0.7 * np.arange(32)))
    ok = stationarity_check(g_rot, mu=1)[0]
    ok &= stationarity_check(Modulator(np.full(16, 2.0)), mu=None)[0]
    grow = Modulator((1.0 + np.arange(16)) * np.exp(1j * 0.2))
    ok &= not stationarity_check(grow, mu=1)[0]
    phases = np.cumsum(np.abs(rng.normal(size=31)))
    irregular = Modulator(np.exp(1j * np.concatenate(([0], phases))))
    ok &= not stationarity_check(irregular, mu=1)[0]
    checks["stationarity-predicate"] = ok

    # bounded-increment modulators keep |c_g| off zero
    ok = True
    for _ in range(20):
        n = int(rng.integers(16, 128))
        xi = rng.uniform(-1, 1)
        bound = rng.uniform(0.05, np.pi / 2)
        beta = xi + rng.uniform(-bound, bound, size=n - 1)
        cg = cg_sequence(frequency_modulator(beta))
        tau = 1
        while tau * bound < np.pi / 2 and tau < n:
            ok &= np.abs(cg[tau]) >= (1 - tau / n) * np.cos(tau * bound) - 1e-12
            tau += 1
    checks["cg-floor"] = ok

    # propriety and variance constancy of the complex AR(1) simulator
    reps, n = 4000, 16
    acc_var = np.zeros(n)
    acc_rel = 0.0 + 0.0j
    for _ in range(reps):
        beta = rng.uniform(-1, 1, size=n - 1)
        z = simulate_complex_ar1(0.8, 1.0, beta, n, rng).values
        acc_var += np.abs(z) ** 2
        acc_rel += np.mean(z[:-1] * z[1:])
    target = 1.0 / 0.36
    se_var = target * np.sqrt(2.0 / reps)
    checks["variance-constancy"] = bool(
        np.all(np.abs(acc_var / reps - target) < 4 * se_var))
    checks["propriety"] = abs(acc_rel / reps) < 4 * target / np.sqrt(reps)

    # score at truth (smaller replicate, full version in test_likelihood)
    grads = np.empty((300, 2))
    for i in range(300):
        beta = bounded_random_walk_beta(np.pi / 2, 1.0, 0.05, 1024, rng)[1:]
        z = simulate_complex_ar1(0.8, 1.0, beta, 1024, rng)
        obj = Objective("modulated-whittle", z, car1_model(0.8, 1.0),
                        modulator=frequency_modulator(beta), check_significance=False)
        for j in range(2):
            dv = np.zeros(2)
            dv[j] = 1e-4
            grads[i, j] = (obj(np.array([0.8, 1.0]) + dv)
                           - obj(np.array([0.8, 1.0]) - dv)) / 2e-4
    mean = grads.mean(axis=0)
    se = grads.std(axis=0, ddof=1) / np.sqrt(300)
    checks["score-at-truth"] = bool(np.all(np.abs(mean) <= 3 * se))

    elapsed = time.time() - t0
    bad = [k for k, v in checks.items() if not v]
    report(7, not bad and elapsed < 300.0,
           f"properties {sorted(checks)} all pass, {elapsed:.0f}s"
           if not bad else f"failing: {bad}")


# ----------------------------------------------------------------------
# criterion 8: synthetic drifter pipeline
# ----------------------------------------------------------------------

_C8_TRUE = {"A": 1.2, "lam": 1.0 / 3.0, "B": 1.2, "h": 0.7, "alpha": 1.1}
_C8_N = 4096


def _c8_case(idx):
    ss = np.random.SeedSequence(entropy=20170308, spawn_key=(idx,))
    rng = np.random.default_rng(ss)
    lat0 = rng.uniform(3, 6)
    lat1 = rng.uniform(17, 20)
    lats = rng.choice([-1.0, 1.0]) * np.linspace(lat0, lat1, _C8_N)
    if rng.random() < 0.5:
        lats = lats[::-1].copy()
    wf = np.asarray(inertial_frequency(lats))
    t = _C8_TRUE
    data = simulate_drifter_velocities(t["A"], t["lam"], t["B"], t["h"],
                                       t["alpha"], wf, 1.0 / 12.0, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fm = fit_drifter(data, wf, mode="modulated", freq_range=(0.0, 2.0))
        fs = fit_drifter(data, wf, mode="stationary", freq_range=(0.0, 2.0))
    return (fm.damping_time, fs.damping_time, fs.nll - fm.nll)


def test_criterion_8_drifter_synthetic():
    t0 = time.time()
    n_cases = 100
    if THREADS > 1:
        with worker_pool(THREADS) as pool:
            results = list(pool.map(_c8_case, range(n_cases)))
    else:
        results = [_c8_case(i) for i in range(n_cases)]
    inv_m = np.array([r[0] for r in results])
    inv_s = np.array([r[1] for r in results])
    diffs = np.array([r[2] for r in results])
    true_inv = 1.0 / _C8_TRUE["lam"]
    med_err_m = float(np.median(np.abs(inv_m / true_inv - 1.0)))
    med_bias_s = float(np.median(inv_s) / true_inv - 1.0)
    frac_favor = float(np.mean(diffs > 0))
    elapsed = time.time() - t0
    ok = (med_err_m <= 0.15 and med_bias_s <= -0.30 and frac_favor >= 0.80
          and elapsed < 900.0)
    report(8, ok,
           f"100 sweeps: modulated median |rel err| on 1/lam = {med_err_m:.3f} "
           f"(<=0.15), stationary median bias = {med_bias_s:+.2f} (<=-0.30), "
           f"modulated favored in {frac_favor:.0%} (>=80%), {elapsed:.0f}s")
