"""Drifter velocity analysis: inertial frequency, latitude-driven modulation,
and the inertial-OU + Matern spectral model in stationary and modulated forms.

Velocities are complex u + iv in cm/s on a uniform grid of delta days
(default 1/12 day = 2 h).  The inertial peak sits at the latitude-dependent
frequency

    omega_f = -(2 K / T) sin(latitude)   [cycles per day],

negative in the Northern hemisphere.  The modulated fit absorbs the known
time variation of omega_f into a unit-modulus modulator of the OU component;
the background Matern component stays stationary.  Fits are one-sided in
frequency over a configurable band (default 0 to 0.8 cycles/day on the side
of the inertial peak).  Sbar = A^2 Sbar_ou + B^2 Sbar_matern is linear in
(A^2, B^2), so a fit searches (lam, q, h, alpha) with q = log(B^2 / A^2)
and profiles the one scale sqrt(A^2 + B^2) out in closed form, as every
single-latent fit profiles its own.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ParameterVector, Series, fourier_grid
from .likelihood import AggregateModel, Objective, aggregate_expected_periodogram
from .models import ar_to_ou, matern_model, ou_model, ou_to_ar
from .modulation import Modulator, frequency_modulator
from .optimize import FitFailure, FitResult, fit
from .simulate import simulate_complex_ar1, simulate_from_acv
from .spectra import periodogram
from .models import matern_acv

__all__ = [
    "SIDEREAL_DAY_S",
    "SOLAR_DAY_S",
    "Trajectory",
    "DrifterFit",
    "inertial_frequency",
    "velocities_from_positions",
    "drifter_modulator",
    "band_mask",
    "fit_drifter",
    "batch_compare",
    "simulate_drifter_velocities",
    "trajectory_from_csv",
]

SIDEREAL_DAY_S = 86164.1
SOLAR_DAY_S = 86400.0
CM_PER_DEGREE = 111.32e5


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled drifter positions (and optionally velocities)."""

    times: np.ndarray          # days
    latitudes: np.ndarray      # degrees
    longitudes: np.ndarray     # degrees
    velocities: np.ndarray | None = None  # complex cm/s, len(times) or len-1

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        lat = np.asarray(self.latitudes, dtype=float)
        lon = np.asarray(self.longitudes, dtype=float)
        if t.size < 1 or t.size != lat.size or t.size != lon.size:
            raise ValueError("times, latitudes, longitudes must align")
        if t.size >= 2:
            dt = np.diff(t)
            if np.any(dt <= 0):
                raise ValueError("timestamps must be strictly increasing")
            if np.max(np.abs(dt - dt[0])) > 1e-9:
                raise ValueError("time grid must be uniform to 1e-9")
        if np.any(np.abs(lat) > 90.0):
            raise ValueError("latitudes must lie in [-90, 90] degrees")
        for name, arr in (("times", t), ("latitudes", lat), ("longitudes", lon)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.velocities is not None:
            v = np.asarray(self.velocities, dtype=complex)
            v.setflags(write=False)
            object.__setattr__(self, "velocities", v)

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def delta(self) -> float:
        return float(self.times[1] - self.times[0]) if self.n >= 2 else 1.0 / 12.0


def inertial_frequency(latitude_deg) -> np.ndarray | float:
    """Inertial frequency in cycles per day; odd in latitude, negative North.

    Coriolis frequency f = 2*Omega*sin(lat) with Omega = 2*pi/T (T one
    sidereal day in seconds); omega_f = -f*K/(2*pi) with K one solar day in
    seconds.
    """
    lat = np.asarray(latitude_deg, dtype=float)
    if np.any(np.abs(lat) > 90.0):
        raise ValueError("latitude out of range")
    out = -2.0 * (SOLAR_DAY_S / SIDEREAL_DAY_S) * np.sin(np.deg2rad(lat))
    return out if np.ndim(latitude_deg) else float(out)


def velocities_from_positions(traj: Trajectory) -> np.ndarray:
    """Forward-difference velocities u + iv in cm/s, length N-1.

    Longitude differences are wrapped into [-180, 180) degrees (across the
    antimeridian) and scaled by cos(latitude) at the left endpoint (local
    spherical metric, 111.32 km per degree of arc).
    """
    if traj.n < 2:
        raise ValueError("need at least two samples to difference")
    dt_s = traj.delta * SOLAR_DAY_S
    dlat = np.diff(traj.latitudes)
    dlon = np.diff(traj.longitudes)
    dlon -= 360.0 * np.floor((dlon + 180.0) / 360.0)  # in-range steps stay exact
    u = dlon * np.cos(np.deg2rad(traj.latitudes[:-1])) * CM_PER_DEGREE / dt_s
    v = dlat * CM_PER_DEGREE / dt_s
    return u + 1j * v


def drifter_modulator(omega_f, delta: float) -> Modulator:
    """Unit-modulus modulator absorbing the time-varying inertial rotation.

    g_t = exp(i sum_{u=1..t} 2*pi*delta*omega_f[u]); a warning is issued when
    the phase increments stray more than pi/2 from their mean, outside the
    band where the significant-correlation guarantee applies (estimation
    still proceeds).
    """
    wf = np.asarray(omega_f, dtype=float)
    if wf.ndim != 1 or wf.size < 1:
        raise ValueError("omega_f must be a non-empty 1-d sequence")
    beta = 2.0 * np.pi * delta * wf[1:]
    if beta.size and np.max(np.abs(beta - np.mean(beta))) > np.pi / 2:
        warnings.warn("inertial phase increments exceed the pi/2 band around "
                      "their mean; modulated fit may be unreliable",
                      RuntimeWarning)
    return frequency_modulator(beta)


def band_mask(n: int, delta: float, lo_cpd: float, hi_cpd: float,
              side: int = 0) -> np.ndarray:
    """Boolean mask selecting |freq| in [lo, hi] cycles/day, one side or both.

    side +1 keeps non-negative frequencies, -1 non-positive, 0 both; zero
    frequency is kept whenever lo == 0.
    """
    nyquist = 1.0 / (2.0 * delta)
    if not (0.0 <= lo_cpd < hi_cpd <= nyquist + 1e-12):
        raise ValueError(f"band must satisfy 0 <= lo < hi <= Nyquist ({nyquist} cpd)")
    freq = fourier_grid(n).cycles_per_unit(delta)
    mask = (np.abs(freq) >= lo_cpd) & (np.abs(freq) <= hi_cpd)
    if side > 0:
        mask &= freq >= 0
    elif side < 0:
        mask &= freq <= 0
    if not np.any(mask):
        raise ValueError("frequency band is empty on this grid")
    return mask


@dataclass
class DrifterFit:
    """One drifter model fit: parameters, objective, and plotting curves."""

    mode: str
    params: dict
    nll: float
    fit_result: FitResult
    freq_cpd: np.ndarray
    observed: np.ndarray
    fitted: np.ndarray
    mask: np.ndarray

    @property
    def damping_time(self) -> float:
        return 1.0 / self.params["lam"]

    @property
    def at_bound(self) -> list:
        """Names, as in ``params``, of the estimates that ended at a bound
        (the tied scale and q have no finite bounds)."""
        return [_param_name(name) for name in self.fit_result.at_bound]


def _param_name(aggregate_name: str) -> str:
    """``params`` key of an aggregate parameter name (component prefix dropped)."""
    return aggregate_name.split(".", 1)[1]


def _drifter_aggregate(n: int, delta: float, omega_f, mode: str,
                       include_background: bool,
                       init: dict | None = None) -> AggregateModel:
    wf = np.asarray(omega_f, dtype=float)
    init = init or {}
    amp0 = init.get("A", 1.0)
    lam0 = init.get("lam", 0.5)
    if mode == "stationary":
        ou = ou_model(amp0, lam0, delta=delta, rotation_cpd=float(wf.mean()))
        comps = [(ou, None)]
    elif mode == "modulated":
        ou = ou_model(amp0, lam0, delta=delta, rotation_cpd=0.0)
        comps = [(ou, drifter_modulator(wf, delta))]
    else:
        raise ValueError(f"unknown drifter fit mode {mode!r}")
    if include_background:
        comps.append((matern_model(init.get("B", 0.5), init.get("h", 0.5),
                                   init.get("alpha", 1.0), delta=delta), None))
    return AggregateModel(components=tuple(comps), n=n)


def _spectral_inits(data: Series, omega_f, delta: float,
                    include_background: bool) -> dict:
    """Crude spectral initializations: split the sample variance between the
    inertial peak and the background and seed moderate decay scales."""
    var_tot = float(np.mean(np.abs(np.asarray(data.values)) ** 2))
    frac = 0.7 if include_background else 1.0
    lam0 = 0.5
    r0, _ = ou_to_ar(1.0, lam0, delta)
    sigma0 = math.sqrt(max(var_tot * frac * (1.0 - r0 * r0), 1e-12))
    amp0, _ = ar_to_ou(r0, sigma0, delta)
    out = {"A": amp0, "lam": lam0}
    if include_background:
        h0, alpha0 = 0.5, 1.0
        c_m0 = float(matern_acv(1.0, h0, alpha0, delta, 1)[0])
        out.update({"B": math.sqrt(max(var_tot * (1 - frac), 1e-12) / c_m0),
                    "h": h0, "alpha": alpha0})
    return out


def _fit_bounds(agg: AggregateModel) -> ParameterVector:
    pv = agg.params
    lower = pv.lower.copy()
    upper = pv.upper.copy()
    for i, name in enumerate(pv.names):
        if name.endswith(".lam"):
            lower[i], upper[i] = 1e-3, 30.0
        elif name.endswith(".h"):
            lower[i], upper[i] = 5e-2, 30.0
        elif name.endswith(".alpha"):
            lower[i], upper[i] = 0.51, 4.0
    return ParameterVector(pv.names, pv.values, lower=lower, upper=upper)


def _peak_side(data: Series, omega_f, delta: float, hi_cpd: float) -> int:
    """Hemisphere by mean inertial frequency; observed peak side as fallback."""
    mean_wf = float(np.mean(np.asarray(omega_f)))
    if abs(mean_wf) > 1e-3:
        return 1 if mean_wf > 0 else -1
    shat = periodogram(data)
    freq = fourier_grid(len(data)).cycles_per_unit(delta)
    inband = np.abs(freq) <= hi_cpd
    pos = float(np.sum(shat[inband & (freq > 0)]))
    neg = float(np.sum(shat[inband & (freq < 0)]))
    return 1 if pos >= neg else -1


def fit_drifter(data: Series, omega_f, mode: str = "modulated",
                freq_range: tuple = (0.0, 0.8), side: int | None = None,
                include_background: bool = True,
                fit_options: dict | None = None) -> DrifterFit:
    """Fit the inertial-OU + Matern model to complex drifter velocities.

    data     : complex velocity series with delta in days
    omega_f  : per-sample inertial frequency in cycles/day (known)
    mode     : "stationary" (rotation fixed at the mean inertial frequency) or
               "modulated" (rotation follows omega_f through the modulator)
    freq_range : fitted band in cycles/day, one-sided; the side is chosen by
               hemisphere (falling back to the observed peak side near the
               equator) unless given explicitly.
    fit_options : keyword arguments of :func:`optimize.fit`.

    The fit runs on the aggregate's tied layout (:class:`AggregateModel`):
    one scale, profiled out in closed form, and q = log(B^2 / A^2), which
    starts from the spectral split of the sample variance.  ``params``
    reports A, lam, B, h and alpha.
    """
    if data.kind != "complex":
        data = Series(np.asarray(data.values, dtype=complex), delta=data.delta,
                      kind="complex")
    wf = np.asarray(omega_f, dtype=float)
    if wf.size != len(data):
        raise ValueError("omega_f must align with the velocity series")
    n = len(data)
    delta = data.delta
    if side is None:
        side = _peak_side(data, wf, delta, freq_range[1])
    mask = band_mask(n, delta, freq_range[0], freq_range[1], side)
    inits = _spectral_inits(data, wf, delta, include_background)
    agg = _drifter_aggregate(n, delta, wf, mode, include_background, inits)
    objective = Objective("modulated-whittle", data, agg, mask=mask)
    result = fit(objective, _fit_bounds(agg), **(fit_options or {}))
    fitted_agg = agg.with_values(result.theta_hat.values)
    fitted_curve = aggregate_expected_periodogram(fitted_agg)
    params = {name: float(val) for m, _ in fitted_agg.components
              for name, val in zip(m.params.names, m.params.values)}
    return DrifterFit(mode=mode, params=params, nll=result.objective_value,
                      fit_result=result,
                      freq_cpd=fourier_grid(n).cycles_per_unit(delta),
                      observed=periodogram(data),
                      fitted=fitted_curve, mask=mask)


def batch_compare(cases, freq_range=(0.0, 0.8), include_background: bool = True,
                  fit_options: dict | None = None) -> list:
    """Fit every (velocities, omega_f) case in both modes.

    Returns one dict per case with the damping timescales 1/lambda of both
    fits and the objective difference nll_stationary - nll_modulated
    (positive favors the modulated model).  Numerical per-case failures
    (FitFailure, ValueError, LinAlgError) are recorded, not fatal; any other
    exception propagates.
    """
    rows = []
    for i, (data, wf) in enumerate(cases):
        row = {"case": i}
        try:
            fs = fit_drifter(data, wf, mode="stationary", freq_range=freq_range,
                             include_background=include_background,
                             fit_options=fit_options)
            fm = fit_drifter(data, wf, mode="modulated", freq_range=freq_range,
                             include_background=include_background,
                             fit_options=fit_options)
            row.update({
                "inv_lambda_stationary": fs.damping_time,
                "inv_lambda_modulated": fm.damping_time,
                "nll_stationary": fs.nll,
                "nll_modulated": fm.nll,
                "difference": fs.nll - fm.nll,
            })
        except (FitFailure, ValueError, np.linalg.LinAlgError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def simulate_drifter_velocities(amp: float, lam: float, b: float, h: float,
                                alpha: float, omega_f, delta: float,
                                seed) -> Series:
    """Synthetic modulated-OU + Matern velocity draw along an omega_f path."""
    wf = np.asarray(omega_f, dtype=float)
    n = wf.size
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    r, sigma = ou_to_ar(amp, lam, delta)
    # the OU part is a complex AR(1) rotated by the drifter modulator's increments
    beta = 2.0 * np.pi * delta * wf[1:]
    ou_part = simulate_complex_ar1(r, sigma, beta, n, rng).values
    if b > 0:
        acv = matern_acv(b, h, alpha, delta, n)
        backg = simulate_from_acv(acv, n, rng, kind="complex").values
    else:
        backg = 0.0
    return Series(ou_part + backg, delta=delta, kind="complex")


def trajectory_from_csv(path) -> Trajectory:
    """Read a trajectory CSV with columns time, lat, lon[, u, v]."""
    times, lats, lons, us, vs = [], [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        cols = {c.lower().strip(): c for c in reader.fieldnames or []}
        for need in ("time", "lat", "lon"):
            if need not in cols:
                raise ValueError(f"trajectory CSV must have a {need!r} column")
        has_vel = "u" in cols and "v" in cols
        for row in reader:
            times.append(float(row[cols["time"]]))
            lats.append(float(row[cols["lat"]]))
            lons.append(float(row[cols["lon"]]))
            if has_vel:
                us.append(float(row[cols["u"]]))
                vs.append(float(row[cols["v"]]))
    vel = (np.asarray(us) + 1j * np.asarray(vs)) if has_vel else None
    return Trajectory(times=np.asarray(times), latitudes=np.asarray(lats),
                      longitudes=np.asarray(lons), velocities=vel)
