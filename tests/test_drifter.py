import numpy as np
import pytest

from helpers import simplex_fit
from modwhittle import Series
from modwhittle.drifter import (
    Trajectory,
    band_mask,
    batch_compare,
    drifter_modulator,
    fit_drifter,
    inertial_frequency,
    rank_segments,
    segment_trajectory,
    simulate_drifter_velocities,
    trajectory_from_csv,
    velocities_from_positions,
    SIDEREAL_DAY_S,
    SOLAR_DAY_S,
)


def test_inertial_frequency_values():
    assert inertial_frequency(0.0) == 0.0
    assert abs(inertial_frequency(90.0) - (-2 * SOLAR_DAY_S / SIDEREAL_DAY_S)) < 1e-12
    assert abs(inertial_frequency(90.0) + 2.00548) < 1e-4
    assert abs(inertial_frequency(-30.0) - 1.00274) < 1e-4
    with pytest.raises(ValueError):
        inertial_frequency(91.0)


def test_inertial_frequency_odd(rng):
    lats = rng.uniform(0, 90, size=50)
    assert np.array_equal(inertial_frequency(-lats), -np.asarray(inertial_frequency(lats)))


def test_latitude_band_phase_bound():
    lats = np.linspace(-20, 20, 5001)
    beta = 2 * np.pi * (1 / 12) * np.asarray(inertial_frequency(lats))
    assert np.max(np.abs(beta)) <= 0.3592


def test_velocities_from_positions():
    n = 10
    t = np.arange(n) / 12.0
    still = Trajectory(times=t, latitudes=np.full(n, 10.0), longitudes=np.full(n, 5.0))
    assert np.allclose(velocities_from_positions(still), 0.0)

    east = Trajectory(times=t, latitudes=np.zeros(n), longitudes=t * 1.0)
    v = velocities_from_positions(east)
    assert v.size == n - 1
    assert np.allclose(v.real, 111.32e5 / 86400.0, rtol=1e-12)
    assert np.allclose(v.imag, 0.0)

    # meridional motion independent of the longitude origin
    north1 = Trajectory(times=t, latitudes=t * 1.0, longitudes=np.zeros(n))
    north2 = Trajectory(times=t, latitudes=t * 1.0, longitudes=np.full(n, 123.0))
    assert np.allclose(velocities_from_positions(north1),
                       velocities_from_positions(north2))

    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), latitudes=np.zeros(2),
                   longitudes=np.zeros(2))


def test_velocities_across_the_antimeridian():
    t = np.arange(3) / 12.0
    lons = np.array([179.99, -179.99, -179.97])
    across = Trajectory(times=t, latitudes=np.full(3, 10.0), longitudes=lons)
    shifted = Trajectory(times=t, latitudes=np.full(3, 10.0),
                         longitudes=(lons + 90.0 + 180.0) % 360.0 - 180.0)
    v = velocities_from_positions(across)
    np.testing.assert_allclose(v, velocities_from_positions(shifted), rtol=1e-9)
    assert 25.0 < v.real.min() and v.real.max() < 35.0  # 0.02 deg per 2 h, east


def test_drifter_modulator_cases():
    g0 = drifter_modulator(np.zeros(16), 1 / 12).g
    assert np.allclose(g0, 1.0)

    wf = np.full(16, -1.5)
    g = drifter_modulator(wf, 1 / 12).g
    ref = np.exp(1j * 2 * np.pi / 12 * (-1.5) * np.arange(16))
    assert np.max(np.abs(g - ref)) < 1e-12
    assert np.max(np.abs(np.abs(g) - 1.0)) < 1e-12

    # equatorial crossing: phase is non-monotone
    lats = np.linspace(-10, 10, 64)
    wf = np.asarray(inertial_frequency(lats))
    phases = np.unwrap(np.angle(drifter_modulator(wf, 1 / 12).g))
    diffs = np.diff(phases)
    assert np.any(diffs > 0) and np.any(diffs < 0)

    with pytest.warns(RuntimeWarning):
        drifter_modulator(np.concatenate((np.zeros(8), np.full(8, 5.9))), 1 / 12)


def test_band_mask():
    m = band_mask(256, 1 / 12, 0.0, 0.8, side=-1)
    from modwhittle import fourier_grid
    freq = fourier_grid(256).cycles_per_unit(1 / 12)
    assert np.all(freq[m] <= 0.0) and np.all(np.abs(freq[m]) <= 0.8)
    assert m.sum() > 0
    both = band_mask(256, 1 / 12, 0.0, 0.8, side=0)
    assert both.sum() > m.sum()
    with pytest.raises(ValueError):
        band_mask(256, 1 / 12, 0.0, 7.0)  # beyond Nyquist


def test_simulated_velocity_variance(rng):
    wf = np.full(2048, -0.6)
    data = simulate_drifter_velocities(1.0, 0.4, 0.0, 0.5, 1.0, wf, 1 / 12, rng)
    from modwhittle.models import ou_to_ar
    r, sig = ou_to_ar(1.0, 0.4, 1 / 12)
    target = sig ** 2 / (1 - r * r)
    assert abs(np.mean(np.abs(data.values) ** 2) - target) < 0.25 * target


def test_stationary_and_modulated_objectives_coincide_for_constant_wf(rng):
    from modwhittle.drifter import _drifter_aggregate
    from modwhittle.likelihood import Objective
    n = 768
    wf = np.full(n, -0.5)
    data = simulate_drifter_velocities(1.0, 0.4, 0.8, 0.6, 1.1, wf, 1 / 12, rng)
    mask = band_mask(n, 1 / 12, 0.0, 0.8, side=-1)
    obj_m = Objective("modulated-whittle", data,
                      _drifter_aggregate(n, 1 / 12, wf, "modulated", True), mask=mask)
    obj_s = Objective("modulated-whittle", data,
                      _drifter_aggregate(n, 1 / 12, wf, "stationary", True), mask=mask)
    for _ in range(20):
        theta = [rng.uniform(0.3, 2.0), rng.uniform(0.1, 2.0),
                 rng.uniform(0.3, 2.0), rng.uniform(0.2, 2.0), rng.uniform(0.6, 2.0)]
        assert abs(obj_m(theta) - obj_s(theta)) < 1e-9

    # without the background ridge the two fits coincide exactly as well
    data2 = simulate_drifter_velocities(1.0, 0.4, 0.0, 0.5, 1.0, wf, 1 / 12, rng)
    fm = fit_drifter(data2, wf, mode="modulated", include_background=False,
                     fit_options={"n_starts": 1, "seed": 3})
    fs = fit_drifter(data2, wf, mode="stationary", include_background=False,
                     fit_options={"n_starts": 1, "seed": 3})
    assert abs(fs.nll - fm.nll) < 1e-9
    assert np.max(np.abs(fs.fit_result.theta_hat.values
                         - fm.fit_result.theta_hat.values)) < 1e-6


def test_fit_drifter_pure_ou_recovery(rng):
    # B=0 path: no background component, modulated fit recovers the damping
    n = 2048
    lats = np.linspace(8, 19, n)
    wf = np.asarray(inertial_frequency(lats))
    lam_true = 0.4
    errs = []
    for _ in range(3):
        data = simulate_drifter_velocities(1.0, lam_true, 0.0, 0.5, 1.0, wf, 1 / 12, rng)
        f = fit_drifter(data, wf, mode="modulated", include_background=False,
                        freq_range=(0.0, 2.0))
        assert set(f.params) == {"A", "lam"}
        errs.append(f.params["lam"] / lam_true - 1)
    assert np.median(np.abs(errs)) < 0.2, errs


def test_fit_drifter_validation(rng):
    data = Series(rng.normal(size=32) + 1j * rng.normal(size=32), delta=1 / 12,
                  kind="complex")
    with pytest.raises(ValueError):
        fit_drifter(data, np.zeros(16))
    with pytest.raises(ValueError):
        fit_drifter(data, np.zeros(32), mode="nope")


def test_batch_compare_constant_wf(rng):
    n = 512
    wf = np.full(n, -0.7)
    cases = [(simulate_drifter_velocities(1.0, 0.5, 0.0, 0.5, 1.0, wf, 1 / 12, rng), wf)
             for _ in range(2)]
    rows = batch_compare(cases, include_background=False,
                         fit_options={"n_starts": 1, "seed": 0})
    assert len(rows) == 2
    for row in rows:
        assert "error" not in row
        assert abs(row["difference"]) < 1e-9
    assert batch_compare([]) == []


def test_segment_and_rank():
    n = 4000
    t = np.arange(n) / 12.0
    lats = np.linspace(5, 20, n)
    traj = Trajectory(times=t, latitudes=lats, longitudes=np.zeros(n))
    segs = segment_trajectory(traj, n_periods=60, overlap=0.5)
    assert len(segs) >= 2
    for seg in segs:
        wf = np.abs(np.asarray(inertial_frequency(seg.latitudes[:-1])))
        cycles = np.sum(wf) * traj.delta
        assert abs(cycles - 60) < 3.0
    ranked = rank_segments(segs)
    scores = [np.std(inertial_frequency(s.latitudes))
              / abs(np.mean(inertial_frequency(s.latitudes))) for s in ranked]
    assert all(scores[i] >= scores[i + 1] - 1e-15 for i in range(len(scores) - 1))


def test_trajectory_csv(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("time,lat,lon,u,v\n0.0,10.0,5.0,1.0,2.0\n"
                    "0.083333333333,10.1,5.0,1.5,2.5\n")
    traj = trajectory_from_csv(path)
    assert traj.n == 2
    assert traj.velocities is not None
    assert traj.velocities[0] == 1.0 + 2.0j
    bad = tmp_path / "bad.csv"
    bad.write_text("time,latx,lon\n0,1,2\n")
    with pytest.raises(ValueError):
        trajectory_from_csv(bad)


def _synthetic_segment(rng, n=1024):
    """Velocities along a random 3-6 -> 17-20 degree latitude ramp."""
    lats = rng.choice([-1.0, 1.0]) * np.linspace(rng.uniform(3, 6), rng.uniform(17, 20), n)
    if rng.random() < 0.5:
        lats = lats[::-1].copy()
    wf = np.asarray(inertial_frequency(lats))
    return simulate_drifter_velocities(1.2, 1 / 3, 1.2, 0.7, 1.1, wf, 1 / 12, rng), wf


def test_two_phase_fit_never_worse_than_simplex_alone(rng, monkeypatch):
    # the reference is the test-local Nelder-Mead fit of the same objective
    import modwhittle.drifter as drifter
    segments = [_synthetic_segment(rng) for _ in range(6)]
    for mode in ("modulated", "stationary"):
        two_phase = [fit_drifter(d, wf, mode=mode, freq_range=(0.0, 2.0))
                     for d, wf in segments]
        assert all(f.fit_result.n_grad_evals > 0 for f in two_phase)
        with monkeypatch.context() as m:
            m.setattr(drifter, "fit", simplex_fit)
            simplex = [fit_drifter(d, wf, mode=mode, freq_range=(0.0, 2.0))
                       for d, wf in segments]
        for f2, f1 in zip(two_phase, simplex):
            assert f2.nll <= f1.nll + 1e-9 * max(1.0, abs(f1.nll)), (mode, f2.nll, f1.nll)


def test_drifter_fit_reports_the_five_drifter_names(rng):
    data, wf = _synthetic_segment(rng, n=512)
    f = fit_drifter(data, wf, mode="stationary", freq_range=(0.0, 2.0))
    assert list(f.params) == ["A", "lam", "B", "h", "alpha"]
    assert set(f.at_bound) <= {"lam", "h", "alpha"}
    res = f.fit_result
    assert res.profiled == ["scale"]
    assert res.n_evals == res.n_grad_evals > 0
    theta = res.theta_hat.asdict()
    a2, b2 = f.params["A"] ** 2, f.params["B"] ** 2
    assert abs(theta["scale"] ** 2 / (a2 + b2) - 1.0) < 1e-12
    assert abs(theta["matern1.q"] - np.log(b2 / a2)) < 1e-9
    assert (theta["ou0.lam"], theta["matern1.h"], theta["matern1.alpha"]) == \
        (f.params["lam"], f.params["h"], f.params["alpha"])


def test_gradient_path_fit_is_deterministic(rng):
    data, wf = _synthetic_segment(rng)
    fits = [fit_drifter(data, wf, mode="modulated", freq_range=(0.0, 2.0))
            for _ in range(2)]
    assert fits[0].fit_result.n_grad_evals > 0
    assert np.array_equal(fits[0].fit_result.theta_hat.values,
                          fits[1].fit_result.theta_hat.values)
    assert fits[0].nll == fits[1].nll


def test_batch_compare_isolates_only_numerical_failures(rng, monkeypatch):
    import modwhittle.drifter as drifter
    from modwhittle.optimize import FitFailure
    n = 64
    wf = np.full(n, -0.7)
    cases = [(simulate_drifter_velocities(1.0, 0.5, 0.0, 0.5, 1.0, wf, 1 / 12, rng), wf)]

    def failing(exc):
        def fit(*args, **kwargs):
            raise exc
        return fit

    for exc in (FitFailure("no finite start"), ValueError("bad band"),
                np.linalg.LinAlgError("singular")):
        monkeypatch.setattr(drifter, "fit_drifter", failing(exc))
        rows = batch_compare(cases)
        assert rows[0]["error"].startswith(type(exc).__name__)
    for exc in (KeyError("omega"), RuntimeError("bug"), ZeroDivisionError()):
        monkeypatch.setattr(drifter, "fit_drifter", failing(exc))
        with pytest.raises(type(exc)):
            batch_compare(cases)
