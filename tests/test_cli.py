import csv
import json
import os

import numpy as np
import pytest

from modwhittle.cli import main
from modwhittle.models import matern_acv
from modwhittle.simulate import simulate_from_acv

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "modwhittle", "configs")


def cfg_path(name):
    return os.path.join(CONFIG_DIR, name)


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_usage_errors(tmp_path, capsys):
    assert main(["frobnicate", "--config", "x.json"]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 1


@pytest.mark.parametrize("flag, env", [(None, "two"), (None, "1.5"), (None, "0"),
                                       ("0", None), ("-1", None), ("two", None)])
def test_a_bad_thread_count_is_a_usage_error(tmp_path, monkeypatch, flag, env):
    # K of --threads or MODWHITTLE_THREADS is an integer >= 1; anything else
    # exits 1 and writes nothing, before any study runs
    if env is None:
        monkeypatch.delenv("MODWHITTLE_THREADS", raising=False)
    else:
        monkeypatch.setenv("MODWHITTLE_THREADS", env)
    argv = ["mc", "--config", cfg_path("table3_ci.json"), "-o", str(tmp_path / "out")]
    assert main(argv + ([] if flag is None else ["--threads", flag])) == 1
    assert not list(tmp_path.iterdir())


def test_config_errors_exit_1_and_write_nothing(tmp_path):
    data_cfg = write_cfg(tmp_path, {
        "kind": "model", "n": 64,
        "model": {"family": "ar", "params": {"phi1": 0.5, "sigma": 1.0}}, "seed": 1,
    }, "sim.json")
    data = str(tmp_path / "data")
    assert main(["simulate", "--config", data_cfg, "-o", data]) == 0
    model = {"family": "ar", "params": {"phi1": 0.5, "sigma": 1.0}}
    fits = [
        {"objective": "whitle", "model": model},
        {"objective": "whittle", "model": model,
         "modulator": {"generator": "periodic-missing", "params": {"k": 2, "l": 1}, "N": 64}},
        {"objective": "whittle", "model": {**model, "family": "arr"}},
        # the whittle kind takes ar and car1 alone
        {"objective": "whittle",
         "model": {"family": "matern", "params": {"B": 1.0, "h": 0.5, "alpha": 1.5}}},
        {"objective": "whittle", "model": {"family": "ou", "params": {"A": 1.0, "lam": 0.5}}},
    ]
    configs = [("fit", {**cfg, "data": {"csv": data + ".csv"}}) for cfg in fits]
    # the exact kind takes ar, car1 and ou, and names the dense oracle for a
    # Matern latent
    configs.append(("fit", {"objective": "exact", "data": {"csv": data + ".csv"},
                            "model": {"family": "matern",
                                      "params": {"B": 1.0, "h": 0.5, "alpha": 1.5}}}))
    # simulate's "model" kind draws the real ar family alone, under a
    # modulator of its own length; a car1 beta list has n - 1 or n rotations
    configs.append(("simulate", {"kind": "model", "n": 64, "seed": 1,
                                 "model": {"family": "car1", "params": {"r": 0.5, "sigma": 1.0}}}))
    configs.append(("simulate", {"kind": "model", "n": 64, "seed": 1, "model": model,
                                 "modulator": {"generator": "periodic-missing",
                                               "params": {"k": 2, "l": 1}, "N": 32}}))
    configs.append(("simulate", {"kind": "car1", "n": 8, "r": 0.5, "sigma": 1.0,
                                 "beta": [0.1, 0.2, 0.3]}))
    study = {
        "kind": "ar1-bernoulli-mask", "true_params": {"a": 0.8, "sigma": 1.0},
        "process": {"mean_p": 0.5, "amp_p": 0.25, "omega_p": 0.6},
        "estimators": ["modulated"], "n_grid": [64, 128], "replicates": 2,
    }
    # mc: an unknown estimator, N < 2, a float N, a repeated N or estimator,
    # no estimators or N, no replicates, and a misspelt key
    configs += [("mc", {**study, **change}) for change in (
        {"estimators": ["modulated", "modulatd"]},
        {"n_grid": [1]},
        {"n_grid": [64.0]},
        {"n_grid": [64, 64]},
        {"estimators": ["modulated", "modulated"]},
        {"estimators": []},
        {"n_grid": []},
        {"replicates": 0},
        {"fit_option": {"n_starts": 1}})]
    # diagnose: a negative lag, a lag at the smallest grid length, the
    # default grid [0, 1] of a length-1 modulator, mu = 0 under a constant
    # modulus and under a mask, and a "custom" modulator, which no config builds
    mask = {"generator": "periodic-missing", "params": {"k": 3, "l": 1, "N": 64}}
    custom = {"generator": "custom", "g_re": [1.0, 0.0, 1.0, 1.0], "g_im": [0.0] * 4, "N": 4}
    configs += [("diagnose", cfg) for cfg in (
        {"modulator": mask, "lags": [-1, 1]},
        {"modulator": mask, "lags": [0, 32], "n_grid": [32, 64]},
        {"modulator": {"generator": "constant", "params": {"N": 1}}, "lags": [0]},
        {"modulator": {"generator": "constant", "params": {"N": 64}}, "mu": 0},
        {"modulator": mask, "mu": 0},
        {"modulator": custom, "lags": [0, 1]})]
    for i, (verb, cfg) in enumerate(configs):
        out = tmp_path / f"out{i}"
        assert main([verb, "--config", write_cfg(tmp_path, cfg, f"cfg{i}.json"),
                     "-o", str(out)]) == 1, cfg
        assert not list(tmp_path.glob(f"out{i}*"))


def test_retired_families_exit_1_before_anything_runs(tmp_path):
    # MA(q) and AR orders of 2 or more are not built: the config is wrong
    data_cfg = write_cfg(tmp_path, {
        "kind": "model", "n": 64,
        "model": {"family": "ar", "params": {"phi1": 0.5, "sigma": 1.0}}, "seed": 1,
    }, "sim.json")
    data = str(tmp_path / "data")
    assert main(["simulate", "--config", data_cfg, "-o", data]) == 0
    retired = [{"family": "ma", "params": {"theta1": 0.4, "sigma": 1.0}},
               {"family": "ar", "params": {"phi1": 0.5, "phi2": -0.2, "sigma": 1.0}}]
    for i, model in enumerate(retired):
        configs = [("simulate", {"kind": "model", "n": 64, "model": model, "seed": 1}),
                   ("fit", {"objective": "whittle", "model": model,
                            "data": {"csv": data + ".csv"}})]
        for verb, cfg in configs:
            out = tmp_path / f"out{i}{verb}"
            assert main([verb, "--config", write_cfg(tmp_path, cfg, f"cfg{i}{verb}.json"),
                         "-o", str(out)]) == 1, cfg
            assert not list(tmp_path.glob(f"out{i}{verb}*"))


def test_simulate_bundled_car1(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", cfg_path("car1.json"), "-o", out]) == 0
    rows = read_csv(out + ".csv")
    assert rows[0] == ["t", "re", "im"]
    assert len(rows) == 1 + 512
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["verb"] == "simulate"
    assert set(manifest["versions"]) == {"modwhittle", "numpy", "scipy", "python"}
    assert set(manifest["threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS"}
    assert manifest["threads"]["OPENBLAS_NUM_THREADS"] == "3"
    assert manifest["threads"]["MKL_NUM_THREADS"] is None
    assert len(manifest["config_sha256"]) == 64


def test_simulate_deterministic(tmp_path):
    cfg = cfg_path("car1.json")
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "-o", out1, "--seed", "5"]) == 0
    assert main(["simulate", "--config", cfg, "-o", out2, "--seed", "5"]) == 0
    assert open(out1 + ".csv").read() == open(out2 + ".csv").read()
    out3 = str(tmp_path / "c")
    assert main(["simulate", "--config", cfg, "-o", out3, "--seed", "6"]) == 0
    assert open(out1 + ".csv").read() != open(out3 + ".csv").read()


def test_simulate_real_model_with_mask(tmp_path):
    cfg = write_cfg(tmp_path, {
        "kind": "model",
        "n": 64,
        "model": {"family": "ar", "params": {"phi1": 0.8, "sigma": 1.0}},
        "modulator": {"generator": "periodic-missing", "params": {"k": 2, "l": 1}, "N": 64},
        "seed": 3,
    })
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", cfg, "-o", out]) == 0
    rows = read_csv(out + ".csv")
    re_vals = np.array([float(r[1]) for r in rows[1:]])
    assert np.sum(re_vals == 0.0) >= 64 // 3 - 2  # masked points are zeros


def test_simulate_model_under_a_complex_modulator_round_trips(tmp_path):
    # a complex modulator makes a complex series, which fit reads back
    cfg = write_cfg(tmp_path, {
        "kind": "model", "n": 256,
        "model": {"family": "ar", "params": {"phi1": 0.6, "sigma": 1.0}},
        "modulator": {"generator": "linear-frequency",
                      "params": {"gamma": 0.8, "span": 1.0}, "N": 256},
        "seed": 5,
    })
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", cfg, "-o", out]) == 0
    rows = read_csv(out + ".csv")
    assert len(rows) == 1 + 256 and any(float(r[2]) != 0.0 for r in rows[1:])
    fit_cfg = write_cfg(tmp_path, {
        "objective": "exact",
        "model": {"family": "ar", "params": {"phi1": 0.3, "sigma": 1.0}},
        "modulator": {"generator": "linear-frequency",
                      "params": {"gamma": 0.8, "span": 1.0}, "N": 256},
        "data": {"csv": out + ".csv"},
    }, "fit.json")
    assert main(["fit", "--config", fit_cfg, "-o", str(tmp_path / "fit")]) == 0
    report = json.loads(open(str(tmp_path / "fit") + ".json").read())
    assert report["converged"] and abs(report["theta_hat"]["phi1"] - 0.6) < 0.15


def test_fit_exact_kind_of_a_masked_ar1_at_n_4096(tmp_path):
    # the exact kind runs at any N, on its score
    mask = {"generator": "periodic-missing", "params": {"k": 3, "l": 1}, "N": 4096}
    sim = write_cfg(tmp_path, {
        "kind": "model", "n": 4096, "seed": 2, "modulator": mask,
        "model": {"family": "ar", "params": {"phi1": 0.8, "sigma": 1.0}}}, "sim.json")
    data = str(tmp_path / "data")
    assert main(["simulate", "--config", sim, "-o", data]) == 0
    cfg = write_cfg(tmp_path, {
        "objective": "exact", "modulator": mask, "data": {"csv": data + ".csv"},
        "model": {"family": "ar", "params": {"phi1": 0.5, "sigma": 1.0}}}, "fit.json")
    out = str(tmp_path / "fit")
    assert main(["fit", "--config", cfg, "-o", out]) == 0
    report = json.loads(open(out + ".json").read())
    assert report["converged"] and report["n_grad_evals"] == report["n_evals"] > 0
    assert abs(report["theta_hat"]["phi1"] - 0.8) < 0.05


def test_one_element_omega_f_list_is_the_scalar(tmp_path):
    data = {"synthetic": {"kind": "drifter", "n": 512, "delta": 1 / 12, "A": 1.0,
                          "lam": 0.4, "B": 0.0, "omega_f": -1.5}}
    reports = []
    for i, wf in enumerate((-1.5, [-1.5])):
        cfg = write_cfg(tmp_path, {
            "objective": "drifter", "mode": "modulated", "freq_range": [0.0, 2.0],
            "include_background": False, "fit_options": {"n_starts": 1}, "seed": 3,
            "data": {"synthetic": {**data["synthetic"], "omega_f": wf}}}, f"cfg{i}.json")
        out = str(tmp_path / f"fit{i}")
        assert main(["fit", "--config", cfg, "-o", out]) == 0
        reports.append(json.loads(open(out + ".json").read()))
    assert reports[0]["theta_hat"] == reports[1]["theta_hat"]


def test_mc_deterministic_modulo_timing(tmp_path):
    cfg = write_cfg(tmp_path, {
        "kind": "ar1-bernoulli-mask",
        "true_params": {"a": 0.8, "sigma": 1.0},
        "process": {"mean_p": 0.5, "amp_p": 0.25, "omega_p": 2 * np.pi / 10},
        "estimators": ["modulated"],
        "n_grid": [128],
        "replicates": 6,
        "seed": 1,
        "fit_options": {"n_starts": 1},
    })
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["mc", "--config", cfg, "-o", out1, "--seed", "42", "--threads", "1"]) == 0
    assert main(["mc", "--config", cfg, "-o", out2, "--seed", "42", "--threads", "2"]) == 0
    rows1, rows2 = read_csv(out1 + ".csv"), read_csv(out2 + ".csv")
    assert rows1[0] == ["estimator", "N", "param", "bias", "var", "mse", "cpu"]
    strip = lambda rows: [r[:-1] for r in rows]
    assert strip(rows1) == strip(rows2)
    nonconverged, abnormal = [], []
    for out in (out1, out2):
        assert json.loads(open(out + ".failures.json").read()) == {"modulated@128": 0}
        nonconverged.append(json.loads(open(out + ".nonconverged.json").read()))
        abnormal.append(json.loads(open(out + ".abnormal.json").read()))
        manifest = json.loads(open(out + ".manifest.json").read())
        assert out + ".failures.json" in manifest["outputs"]
        assert out + ".nonconverged.json" in manifest["outputs"]
        assert out + ".abnormal.json" in manifest["outputs"]
        assert out + ".cost.json" in manifest["outputs"]
    # peak memory and minor page faults are host-dependent like cpu: the
    # --threads 2 run reports its own and its workers'
    manifest = json.loads(open(out2 + ".manifest.json").read())
    for field in ("peak_rss_mb", "minor_faults"):
        assert set(manifest[field]) == {"self", "workers"} and min(manifest[field].values()) > 0
    assert all(isinstance(v, int) for v in manifest["minor_faults"].values())
    cost = [json.loads(open(out + ".cost.json").read()) for out in (out1, out2)]
    assert cost[0] == cost[1]
    assert list(cost[0]) == ["modulated@128"]
    assert cost[0]["modulated@128"]["starts_per_fit"] == 1.0
    assert cost[0]["modulated@128"]["evals_per_fit"] > 0
    assert nonconverged[0] == nonconverged[1]
    assert list(nonconverged[0]) == ["modulated@128"]
    assert 0 <= nonconverged[0]["modulated@128"] <= 6
    assert abnormal[0] == abnormal[1]
    assert list(abnormal[0]) == ["modulated@128"]
    assert 0 <= abnormal[0]["modulated@128"] <= 6


def test_fit_whittle_json(tmp_path, rng):
    sim_cfg = write_cfg(tmp_path, {
        "kind": "model", "n": 256,
        "model": {"family": "ar", "params": {"phi1": 0.7, "sigma": 1.0}},
        "seed": 8,
    }, "sim.json")
    out = str(tmp_path / "data")
    assert main(["simulate", "--config", sim_cfg, "-o", out]) == 0
    fit_cfg = write_cfg(tmp_path, {
        "objective": "whittle",
        "model": {"family": "ar", "params": {"phi1": 0.5, "sigma": 1.0},
                  "bounds": {"phi1": [-0.99, 0.99], "sigma": [0, None]}},
        "data": {"csv": out + ".csv"},
        "fit_options": {"n_starts": 1},
    }, "fit.json")
    fout = str(tmp_path / "fit")
    assert main(["fit", "--config", fit_cfg, "-o", fout]) == 0
    report = json.loads(open(fout + ".json").read())
    assert report["converged"] is True
    assert abs(report["theta_hat"]["phi1"] - 0.7) < 0.15
    assert report["n_evals"] == report["n_grad_evals"] > 0  # phi alone: the 1-D search
    assert report["at_bound"] == []
    assert report["profiled"] == ["sigma"] and report["n_rejected"] >= 0


def test_fit_config_with_an_init_on_its_bound(tmp_path):
    # alpha starts at its upper bound 4.0: the fit starts just inside it
    z = simulate_from_acv(matern_acv(1.0, 0.5, 1.5, 1.0, 256), 256, 3).values
    data = tmp_path / "matern.csv"
    data.write_text("re\n" + "".join(f"{float(v)!r}\n" for v in z))
    cfg = write_cfg(tmp_path, {
        "objective": "modulated-whittle",
        "model": {"family": "matern", "params": {"B": 1.0, "h": 0.5, "alpha": 4.0},
                  "bounds": {"alpha": [0.51, 4.0]}},
        "modulator": {"generator": "constant", "params": {"N": 256}},
        "data": {"csv": str(data)},
    })
    out = str(tmp_path / "fit")
    assert main(["fit", "--config", cfg, "-o", out]) == 0
    report = json.loads(open(out + ".json").read())
    assert report["converged"] and report["profiled"] == ["B"]
    init = report["start_results"][0]["init"]
    assert set(init) == {"h", "alpha"} and 4.0 - 1e-8 < init["alpha"] < 4.0
    # an init beyond its bound is not clipped: the fit fails
    cfg = write_cfg(tmp_path, {
        "objective": "modulated-whittle",
        "model": {"family": "matern", "params": {"B": 1.0, "h": 0.5, "alpha": 40.0},
                  "bounds": {"alpha": [0.51, 4.0]}},
        "modulator": {"generator": "constant", "params": {"N": 256}},
        "data": {"csv": str(data)},
    }, "beyond_cfg.json")
    assert main(["fit", "--config", cfg, "-o", str(tmp_path / "beyond")]) == 2
    assert not os.path.exists(str(tmp_path / "beyond") + ".json")


def test_fit_drifter_fixture_five_params(tmp_path):
    out = str(tmp_path / "dfit")
    assert main(["fit", "--config", cfg_path("drifter_seg.json"), "-o", out]) == 0
    report = json.loads(open(out + ".json").read())
    assert set(report["theta_hat"]) == {"A", "lam", "B", "h", "alpha"}
    assert report["damping_time_days"] > 0
    assert report["n_evals"] == report["n_grad_evals"] > 0
    assert set(report["at_bound"]) <= set(report["theta_hat"])
    assert report["profiled"] == ["scale"] and report["n_rejected"] >= 0
    starts = report["start_results"]
    assert len(starts) == 1 and sum(s["n_evals"] for s in starts) == report["n_evals"]
    assert set(starts[0]["init"]) == {"ou0.lam", "matern1.q", "matern1.h", "matern1.alpha"}
    assert starts[report["best_start"]]["objective"] == report["objective"]


def test_drifter_fit_reports_alpha_at_bound(tmp_path):
    # the stationary fit cannot place the background in the (0, 2) cpd band
    # and pins the Matern slope at its upper bound alpha = 4
    with open(cfg_path("drifter_seg.json")) as fh:
        cfg = json.load(fh)
    cfg["mode"] = "stationary"
    cfg["data"]["synthetic"]["n"] = 1024
    out = str(tmp_path / "pinned")
    assert main(["drifter-fit", "--config", write_cfg(tmp_path, cfg), "-o", out]) == 0
    report = json.loads(open(out + ".json").read())["stationary"]
    assert report["at_bound"] == ["alpha"]
    assert abs(report["theta_hat"]["alpha"] - 4.0) <= 4e-6
    assert report["n_evals"] == report["n_grad_evals"] > 0
    assert report["profiled"] == ["scale"] and report["n_rejected"] >= 0


def test_drifter_fit_spectrum_csv(tmp_path):
    cfg = write_cfg(tmp_path, {
        "mode": "both",
        "freq_range": [0.0, 2.0],
        "delta": 1 / 12,
        "data": {"synthetic": {
            "kind": "drifter", "n": 512, "delta": 1 / 12,
            "A": 1.0, "lam": 0.4, "B": 0.0, "h": 0.5, "alpha": 1.0,
            "latitudes": {"start": 10.0, "stop": 15.0}}},
        "include_background": False,
        "fit_options": {"n_starts": 1},
        "seed": 4,
    })
    out = str(tmp_path / "drift")
    assert main(["drifter-fit", "--config", cfg, "-o", out]) == 0
    report = json.loads(open(out + ".json").read())
    assert "stationary" in report and "modulated" in report and "difference" in report
    rows = read_csv(out + ".spectrum.csv")
    assert rows[0] == ["omega_cpd", "periodogram", "stationary_fit",
                       "modulated_fit", "in_band"]
    assert len(rows) == 1 + 512


def test_drifter_batch_synthetic(tmp_path):
    cfg = write_cfg(tmp_path, {
        "synthetic": {
            "n_cases": 2, "n": 512, "delta": 1 / 12,
            "true": {"A": 1.0, "lam": 0.4, "B": 0.0, "h": 0.5, "alpha": 1.0},
            "seed": 6,
        },
        "freq_range": [0.0, 2.0],
        "include_background": False,
        "fit_options": {"n_starts": 1},
    })
    out = str(tmp_path / "batch")
    assert main(["drifter-batch", "--config", cfg, "-o", out]) == 0
    rows = read_csv(out + ".csv")
    assert len(rows) == 3
    assert rows[0][0] == "case"


def test_drifter_fit_from_trajectory_csv(tmp_path):
    from modwhittle.drifter import inertial_frequency, simulate_drifter_velocities
    n = 512
    lats = np.linspace(12.0, 16.0, n)
    wf = np.asarray(inertial_frequency(lats))
    vel = simulate_drifter_velocities(1.0, 0.4, 0.0, 0.5, 1.0, wf, 1 / 12, 3).values
    lines = ["time,lat,lon,u,v"]
    for i in range(n):
        lines.append(f"{i / 12},{lats[i]},{30.0},{vel[i].real},{vel[i].imag}")
    traj_csv = tmp_path / "traj.csv"
    traj_csv.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, {
        "trajectory": str(traj_csv),
        "mode": "modulated",
        "freq_range": [0.0, 2.0],
        "include_background": False,
        "fit_options": {"n_starts": 1},
    })
    out = str(tmp_path / "tfit")
    assert main(["drifter-fit", "--config", cfg, "-o", out]) == 0
    report = json.loads(open(out + ".json").read())
    assert 0.0 < report["modulated"]["theta_hat"]["lam"] < 30.0


def test_diagnose(tmp_path):
    cfg = write_cfg(tmp_path, {
        "modulator": {"generator": "periodic-missing",
                      "params": {"k": 1, "l": 1}, "N": 64},
        "lags": [0, 1, 2],
        "n_grid": [32, 64],
        "mu": 1,
    })
    out = str(tmp_path / "diag")
    assert main(["diagnose", "--config", cfg, "-o", out]) == 0
    report = json.loads(open(out + ".json").read())
    assert report["significant_correlation"]["flagged"] == [1]
    assert report["stationary"]["is_stationary"] is False


def test_no_partial_output_on_failure(tmp_path):
    # config parses but the numerical run fails -> no output files at all
    cfg = write_cfg(tmp_path, {
        "kind": "car1", "n": 64, "r": 1.5, "sigma": 1.0, "seed": 0,
    })
    out = str(tmp_path / "boom")
    assert main(["simulate", "--config", cfg, "-o", out]) == 2
    assert not os.path.exists(out + ".csv")
    assert not os.path.exists(out + ".manifest.json")
