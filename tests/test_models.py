import json

import numpy as np
import pytest

from modwhittle import (
    ar_model,
    ar_to_ou,
    car1_model,
    matern_model,
    ou_model,
    ou_to_ar,
)
from modwhittle.models import (
    _geometric_lag_cap,
    _matern_bessel,
    _matern_lag_cap,
    _matern_table,
    acv_entry,
    autocov_sequence,
    matern_acv,
    model_from_json,
    pole_entry,
    scale_index,
    with_scale_row,
)

from helpers import sdf


def test_car1_white_noise_limit():
    m = car1_model(0.0, 1.0)
    assert autocov_sequence(m, 2).tolist() == [1.0, 0.0]


def test_white_noise_has_the_sigma_row_alone():
    m = ar_model([], 1.5)
    acv, jac = acv_entry(m)(m.params.values, 8, True)
    assert acv.tolist() == [2.25] and jac.shape == (0, 1)
    assert with_scale_row("ar", jac, 0, acv, 1.5).tolist() == [[3.0]]
    assert autocov_sequence(m, 8).tolist() == [2.25] + [0.0] * 7
    assert pole_entry(m)(m.params.values, True) == (0.0, ())


@pytest.mark.parametrize("r", [0.0, 1e-20, -1e-300])
def test_geometric_score_keeps_lag_1_at_tiny_r(r):
    # |r| < ACV_EPS truncates the table at lag 0, but dc(1)/dr = c(0) stays
    m = ar_model([r], 1.5)
    assert autocov_sequence(m, 8).tolist() == [2.25] + [0.0] * 7
    acv, jac = acv_entry(m)(m.params.values, 8, True)
    jac = with_scale_row("ar", jac, 1, acv, 1.5)
    assert acv.tolist() == [2.25, 0.0]
    assert jac.shape == (2, 2) and jac[0, 1] == 2.25 and jac[1, 1] == 0.0
    m = car1_model(abs(r), 1.5, gamma=0.7)
    acv, jac = acv_entry(m)(m.params.values, 8, True)
    jac = with_scale_row("car1", jac, 1, acv, 1.5)
    assert jac.shape == (3, 2) and jac[0, 1] == 2.25 * np.exp(0.7j)


def test_car1_direct_formula():
    m = car1_model(0.8, 1.0)
    assert abs(autocov_sequence(m, 3)[2] - (1 / 0.36) * 0.64) < 1e-12


def test_sdf_examples():
    m = ar_model([0.5], 1.0)
    z, _ = pole_entry(m)(m.params.values, False)
    assert abs(1.0 / abs(1.0 - z) ** 2 - 4.0) < 1e-12
    with pytest.raises(ValueError):
        matern_model(1.0, 1.0, 0.5)


def test_ou_ar_transform_examples():
    r, sig = ou_to_ar(1.0, np.log(2.0), 1.0)
    assert abs(r - 0.5) < 1e-15
    assert abs(sig ** 2 - 1.0 / (4.0 * np.log(2.0))) < 1e-15
    # lam*delta -> 0 limit: sigma^2 -> A^2/2
    r, sig = ou_to_ar(1.0, 1e-9, 1.0)
    assert abs(sig ** 2 - 0.5) < 1e-6
    amp, lam = ar_to_ou(*ou_to_ar(2.0, 0.3, 1.0 / 12.0), 1.0 / 12.0)
    assert abs(amp - 2.0) < 1e-12 and abs(lam - 0.3) < 1e-12


def test_positive_definiteness(rng):
    for _ in range(40):
        kind = rng.choice(["ar", "car1", "ou", "matern"])
        if kind == "ar":
            m = ar_model([rng.uniform(-0.9, 0.9)], rng.uniform(0.2, 2.0))
        elif kind == "car1":
            m = car1_model(rng.uniform(0, 0.97), rng.uniform(0.2, 2.0),
                           rotation=rng.uniform(-np.pi, np.pi))
        elif kind == "ou":
            m = ou_model(rng.uniform(0.2, 3.0), rng.uniform(0.05, 2.0),
                         rotation_cpd=rng.uniform(-2, 2))
        else:
            m = matern_model(rng.uniform(0.2, 3.0), rng.uniform(0.1, 2.0),
                             rng.uniform(0.55, 3.0))
        n = int(rng.integers(4, 64))
        c = np.asarray(autocov_sequence(m, n))
        lag = np.subtract.outer(np.arange(n), np.arange(n))
        mat = np.where(lag >= 0, c[np.abs(lag)], np.conj(c[np.abs(lag)]))
        eig = np.linalg.eigvalsh(mat)
        assert eig.min() >= -1e-10 * max(1.0, eig.max()), (kind, eig.min())


def test_sdf_autocov_consistency(rng):
    # sum_{|tau|<=T} c(tau) e^{-iw tau} converges to sdf for discrete families
    models = [ar_model([0.6], 1.3), ar_model([], 0.9),
              car1_model(0.7, 1.1, rotation=0.5)]
    for m in models:
        c = autocov_sequence(m, 4001)
        taus = np.arange(1, c.size)
        ws = rng.uniform(-np.pi, np.pi, size=8)
        for w, f in zip(ws, sdf(m, ws)):
            total = c[0] + np.sum(c[1:] * np.exp(-1j * w * taus)
                                  + np.conj(c[1:]) * np.exp(1j * w * taus))
            assert abs(total - f) < 1e-6


def test_yule_walker_identifiability(rng):
    # recover AR(0)/AR(1) coefficients from the autocovariances they
    # generate: phi_1 = c(1) / c(0), and white noise has c(1) = 0
    for _ in range(25):
        p = int(rng.integers(0, 2))
        phi = rng.uniform(-0.9, 0.9, size=p)
        m = ar_model(phi, rng.uniform(0.5, 1.5))
        c = autocov_sequence(m, 2)
        phi_rec = c[1:p + 1] / c[0]
        assert np.max(np.abs(phi_rec - phi), initial=0.0) < 1e-8
        assert p or c[1] == 0.0
        sigma2_rec = c[0] - phi_rec @ c[1: p + 1]
        assert abs(sigma2_rec - m.params.values[-1] ** 2) < 1e-8


def test_matern_alpha_one_is_exponential():
    taus = np.arange(20)
    c = matern_acv(1.3, 0.7, 1.0, 1.0 / 12.0, 20)
    ref = 1.3 ** 2 / (2 * 0.7) * np.exp(-0.7 * taus / 12.0)
    assert np.max(np.abs(c - ref)) < 1e-12


def test_matern_vs_aliased_dft_inversion():
    # oracle: discretize the analytic spectral density over many aliases and
    # invert on a fine grid
    b, h, alpha, delta = 1.1, 0.8, 1.7, 1.0 / 12.0
    n = 48
    m = 1 << 14
    j = np.arange(m)
    w = 2 * np.pi * np.where(j <= m // 2, j, j - m) / m  # radians/sample
    f = np.zeros(m)
    for alias in range(-60, 61):
        wd = (w + 2 * np.pi * alias) / delta  # radians/day
        f += b * b / (wd * wd + h * h) ** alpha / delta
    c_ref = np.fft.ifft(f).real[:n]
    c = matern_acv(b, h, alpha, delta, n)
    assert np.max(np.abs(c - c_ref)) < 1e-6 * c_ref[0]


def test_matern_vs_quadrature():
    from scipy.integrate import quad
    b, h, alpha = 0.9, 0.6, 0.8
    spec = lambda w: b * b / (w * w + h * h) ** alpha
    for tau_days in (0.0, 0.3, 2.0):
        if tau_days == 0.0:
            val, _ = quad(spec, 0, np.inf, limit=400)
            ref = float(matern_acv(b, h, alpha, 1.0, 1)[0])
        else:
            val, _ = quad(spec, 0, np.inf, weight="cos", wvar=tau_days, limit=400)
            ref = float(matern_acv(b, h, alpha, tau_days, 2)[1])
        val /= np.pi
        assert abs(ref - val) < 1e-6 * abs(val) + 1e-12


@pytest.mark.parametrize("alpha", np.linspace(0.51, 4.0, 12))
def test_matern_truncation_drops_only_negligible_lags(alpha):
    delta, n = 1.0 / 12.0, 4096
    for h in np.concatenate((np.geomspace(0.05, 30.0, 25), [0.134])):
        # the kernel's own table at every lag (the mpmath oracle below pins
        # its accuracy)
        full, _ = _matern_table(1.3, h, alpha, delta, n, n)
        c = matern_acv(1.3, h, alpha, delta, n)
        keep = _matern_lag_cap(h, alpha, delta, n)
        assert np.array_equal(c[:keep], full[:keep])
        assert np.all(c[keep:] == 0.0)
        assert np.all(np.abs(full[keep:]) <= 1e-16 * full[0])
    # the cap bites at drifter-like scales, and grows with the smoothness
    assert _matern_lag_cap(0.7, alpha, delta, n) < n
    assert _matern_lag_cap(0.7, alpha, delta, n) <= _matern_lag_cap(0.7, alpha + 0.5, delta, n)


def test_matern_bessel_matches_mpmath():
    # 30-digit oracle for the three rows of the trapezoid table; dK/dnu is
    # measured against K + |dK|, the scale of the alpha score's terms, since it
    # passes through 0 as nu -> 0
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    x = np.geomspace(0.004, 46.0, 23)
    for nu in (0.01, 0.2, 0.5, 0.6, 1.0, 1.7, 2.5, 3.5):
        rows = _matern_bessel(nu, x, grad=True)
        # value-only rows are the grad rows' first, bit for bit
        assert np.array_equal(_matern_bessel(nu, x, grad=False)[0], rows[0])
        for i, xi in enumerate(x):
            xm = mp.mpf(float(xi))
            scale = xm ** nu
            k_nu = mp.besselk(nu, xm)
            k_below = mp.besselk(nu - 1, xm)
            dk = mp.diff(lambda v: mp.besselk(v, xm), nu)
            assert abs(rows[0, i] / scale - k_nu) <= 1e-14 * k_nu, (nu, xi)
            assert abs(rows[1, i] / scale - k_below) <= 1e-14 * k_below, (nu, xi)
            assert abs(rows[2, i] / scale - dk) <= 1e-14 * (k_nu + abs(dk)), (nu, xi)


@pytest.mark.parametrize("b,h,alpha", [(1.3, 0.05, 0.52), (0.9, 0.39, 2.0),
                                       (1.1, 2.7, 3.0), (2.0, 5.1, 4.0)])
def test_matern_score_matches_five_point_difference(b, h, alpha):
    delta, n = 1.0 / 12.0, 2048
    c, jac = _matern_table(b, h, alpha, delta, n, n, grad=True)
    assert np.array_equal(c, _matern_table(b, h, alpha, delta, n, n)[0])
    jac = with_scale_row("matern", jac, 0, c, b)
    theta = np.array([b, h, alpha])
    # steps relative to B, h and nu = alpha - 1/2, where Gamma(nu) has its pole
    for j, size in enumerate((b, h, alpha - 0.5)):
        e = 3e-4 * size

        def at(k):
            shifted = theta.copy()
            shifted[j] += k * e
            return _matern_table(*shifted, delta, n, n)[0]

        fd = (at(-2) - 8.0 * at(-1) + 8.0 * at(1) - at(2)) / (12.0 * e)
        assert np.max(np.abs(jac[j] - fd)) <= 1e-9 * np.max(np.abs(jac[j])), j


@pytest.mark.parametrize("r", [0.0, 0.3, -0.3, 0.8, -0.8, 0.99, 1.0 - 1e-12])
def test_geometric_truncation_drops_only_negligible_lags(r):
    # the AR(1) table (|r| < 1 - 1e-12) and the car1 one (0 <= r < 1)
    n = 4096
    full = 1.7 ** 2 / (1.0 - r * r) * np.power(r, np.arange(n, dtype=float))
    keep = _geometric_lag_cap(r, n)
    models = [ar_model([r], 1.7)] if abs(r) < 1.0 - 1e-12 else []
    models += [car1_model(r, 1.7)] if r >= 0.0 else []
    for model in models:
        c = autocov_sequence(model, n)
        assert np.array_equal(c[:keep], full[:keep])
        assert np.all(c[keep:] == 0.0)
    assert np.all(np.abs(full[keep:]) <= 1e-16 * full[0])
    if r == 0.0 or r == 1.0 - 1e-12:  # white noise; no decay within n
        assert keep == (1 if r == 0.0 else n)
    if r >= 0.0:
        rot = autocov_sequence(car1_model(r, 1.7, rotation=0.4), n)
        assert np.allclose(rot, c * np.exp(0.4j * np.arange(n)), rtol=0, atol=1e-15 * c[0])


def test_geometric_acv_backs_car1_and_ou():
    # one geometric table: ar and car1 at the same r, and ou at r = e^{-lam delta}
    assert np.array_equal(autocov_sequence(car1_model(0.8, 1.2), 300),
                          autocov_sequence(ar_model([0.8], 1.2), 300))
    m = ou_model(1.5, 0.4, delta=1.0 / 12.0, rotation_cpd=-1.0)
    r, sig = ou_to_ar(1.5, 0.4, 1.0 / 12.0)
    assert np.array_equal(autocov_sequence(m, 300),
                          autocov_sequence(car1_model(r, sig, rotation=-2.0 * np.pi / 12.0), 300))
    assert np.count_nonzero(autocov_sequence(car1_model(0.8, 1.0), 16384)) == 166
    tau = np.arange(300, dtype=float)
    full = 1.2 ** 2 / (1.0 - 0.36) * np.power(-0.6, tau)
    assert np.array_equal(autocov_sequence(ar_model([-0.6], 1.2), 300),
                          np.where(tau < _geometric_lag_cap(-0.6, 300), full, 0.0))


def test_geometric_grad_at_zero_coefficient():
    # at r = 0 the table stops at lag 0, but dc(1)/dr = sigma^2 e^{i gamma}
    e = 1e-8
    for model in (ar_model([0.0], 1.3), car1_model(0.0, 1.3, rotation=0.4)):
        values = model.params.values
        c, jac = acv_entry(model)(values, 8, True)
        jac = with_scale_row(model.family, jac, 1, c, values[1])
        full = autocov_sequence(model, 8)
        assert np.array_equal(c, full[:c.size]) and not np.any(full[c.size:])
        for j in range(2):
            step = np.zeros(2)
            step[j] = e
            fd = (autocov_sequence(model.with_values(values + step), 8) - full) / e
            assert np.allclose(jac[j], fd[:jac.shape[1]], rtol=0, atol=1e-6)
            assert np.allclose(fd[jac.shape[1]:], 0.0, rtol=0, atol=1e-6)


def test_ou_discrete_acv_matches_transform():
    m = ou_model(1.5, 0.4, delta=1.0 / 12.0, rotation_cpd=-1.0)
    r, sig = ou_to_ar(1.5, 0.4, 1.0 / 12.0)
    taus = np.arange(5)
    ref = sig ** 2 / (1 - r * r) * r ** taus * np.exp(1j * 2 * np.pi / 12.0 * (-1.0) * taus)
    assert np.max(np.abs(autocov_sequence(m, 5) - ref)) < 1e-12


@pytest.mark.parametrize("model", [
    ar_model([0.6], 1.3), ar_model([], 1.1), ar_model([-0.4], 0.9),
    car1_model(0.7, 1.2, rotation=0.4), car1_model(0.7, 1.2, gamma=-1.1),
    car1_model(0.0, 1.3, rotation=0.4), ou_model(1.5, 0.4),
    ou_model(1.5, 0.4, delta=0.25, rotation_cpd=-1.0), matern_model(1.3, 0.6, 1.5)])
def test_raw_float_entry_matches_the_model_functions(model):
    # the entry bound to model, at values v, is bit for bit the one bound to
    # model.with_values(v) at its own values, and autocov_sequence of it;
    # the acv stops at its kept support
    n = 300
    v = model.params.values * 0.97
    other = model.with_values(v)

    def padded(acv):
        assert acv.size <= n
        return np.concatenate((acv, np.zeros(n - acv.size, dtype=acv.dtype)))

    acv, jac = acv_entry(model)(v, n, False)
    assert jac is None
    assert np.array_equal(padded(acv), autocov_sequence(other, n))
    # every family has its acv rows; the entry's leave out the scale's, and
    # with_scale_row puts back 2 c / scale
    acv, jac = acv_entry(model)(v, n, True)
    ref_acv, ref_jac = acv_entry(other)(other.params.values, n, True)
    assert np.array_equal(acv, ref_acv) and np.array_equal(jac, ref_jac)
    assert np.array_equal(padded(acv), autocov_sequence(other, n))
    assert jac.shape == (len(v) - 1, acv.size)
    k = scale_index(model)
    full = with_scale_row(model.family, jac, k, acv, v[k])
    assert np.allclose(full[k], 2.0 * acv / v[k], rtol=1e-15, atol=0)
    assert np.array_equal(np.delete(full, k, axis=0), jac)
    if model.family in ("ou", "matern"):  # no pole
        for m in (model, other):
            with pytest.raises(ValueError, match="no pole.*modulated-whittle"):
                pole_entry(m)
        return
    for grad in (False, True):
        assert pole_entry(model)(v, grad) == pole_entry(other)(other.params.values, grad)


def test_raw_float_entries_raise_outside_the_model_class():
    for model, bad in ((ar_model([0.5], 1.0), [1.0, 1.0]),
                       (ar_model([0.5], 1.0), [0.5, -1.0]),
                       (ar_model([], 1.0), [-1.0]),
                       (car1_model(0.5, 1.0), [1.0, 1.0]),
                       (car1_model(0.5, 1.0, gamma=0.1), [0.5, 0.0, 0.1]),
                       (ou_model(1.0, 0.5), [1.0, 0.0]),
                       (ou_model(1.0, 0.5), [0.0, 0.5]),
                       (matern_model(1.0, 0.5, 1.2), [1.0, 0.5, 0.5]),
                       (matern_model(1.0, 0.5, 1.2), [1.0, -0.1, 1.2])):
        for grad in (False, True):
            with pytest.raises(ValueError):
                acv_entry(model)(bad, 16, grad)
        if model.family in ("ar", "car1"):
            for grad in (False, True):
                with pytest.raises(ValueError):
                    pole_entry(model)(bad, grad)
        with pytest.raises(ValueError):
            model.with_values(bad)


def test_json_params_take_the_constructor_order():
    back = model_from_json({"family": "car1", "params": {"sigma": 1.2, "r": 0.5}})
    assert back.params.names == ["r", "sigma"]
    assert back.params.values.tolist() == [0.5, 1.2]
    assert np.array_equal(autocov_sequence(back, 8), autocov_sequence(car1_model(0.5, 1.2), 8))
    # JSON text as well as a dict, with the sampling interval and rotation
    back = model_from_json(json.dumps({"family": "matern", "delta": 1.0 / 12.0,
                                       "params": {"alpha": 1.4, "B": 1.2, "h": 0.5}}))
    assert back.family == "matern" and back.delta == 1.0 / 12.0
    assert back.params.values.tolist() == [1.2, 0.5, 1.4]
    back = model_from_json({"family": "car1", "params": {"r": 0.5, "sigma": 1.0},
                            "rotation": 0.3})
    assert back.rotation == 0.3 and back.delta == 1.0
    with pytest.raises(ValueError):
        model_from_json({"family": "ou", "params": {"A": 1.0, "lambda": 0.5}})


def test_stationarity_validation():
    with pytest.raises(ValueError):
        ar_model([1.01], 1.0)
    with pytest.raises(ValueError):
        car1_model(1.0, 1.0)
    with pytest.raises(ValueError):
        car1_model(0.5, -1.0)
    with pytest.raises(ValueError):
        ar_model([0.5], -0.1)
    with pytest.raises(ValueError):
        ou_model(1.0, 0.0)
    with pytest.raises(ValueError):  # AR orders of 2 or more are not built
        ar_model([0.5, -0.2], 1.0)


def test_json_without_bounds_takes_the_constructor_bounds():
    for model in (ar_model([0.3], 1.0), ar_model([], 1.0),
                  car1_model(0.5, 1.0), car1_model(0.5, 1.0, gamma=0.2),
                  ou_model(1.0, 0.5), matern_model(1.0, 0.5, 1.2)):
        back = model_from_json({"family": model.family, "params": model.params.asdict()})
        assert np.array_equal(back.params.lower, model.params.lower)
        assert np.array_equal(back.params.upper, model.params.upper)
    # a listed bound wins, and a listed null side stays unbounded
    spec = {"family": "car1", "params": {"r": 0.5, "sigma": 1.0},
            "bounds": {"r": [None, 0.9]}}
    back = model_from_json(spec)
    assert back.params.lower.tolist() == [-np.inf, 0.0]
    assert back.params.upper.tolist() == [0.9, np.inf]
    with pytest.raises(ValueError):
        model_from_json({"family": "arma", "params": {"sigma": 1.0}})
    # the retired families: MA(q) and AR orders of 2 or more
    with pytest.raises(ValueError):
        model_from_json({"family": "ma", "params": {"theta1": 0.5, "sigma": 1.0}})
    with pytest.raises(ValueError):
        model_from_json({"family": "ar", "params": {"phi1": 0.5, "phi2": -0.2, "sigma": 1.0}})


def test_car1_free_rotation_matches_fixed(rng):
    for _ in range(10):
        r, sigma, gamma = rng.uniform(0.0, 0.95), rng.uniform(0.5, 2.0), rng.uniform(-3, 3)
        fixed = car1_model(r, sigma, rotation=gamma)
        free = car1_model(r, sigma, gamma=gamma)
        assert free.params.names == ["r", "sigma", "gamma"]
        assert np.array_equal(autocov_sequence(free, 40), autocov_sequence(fixed, 40))
        assert (pole_entry(free)(free.params.values, False)[0]
                == pole_entry(fixed)(fixed.params.values, False)[0])
        # the entries' rows: (r, gamma) free, (r) fixed
        acv, jac = acv_entry(free)(free.params.values, 40, True)
        _, jac_fixed = acv_entry(fixed)(fixed.params.values, 40, True)
        assert np.array_equal(jac[:1], jac_fixed)
        assert np.allclose(jac[1], 1j * np.arange(acv.size) * acv)
    back = model_from_json({"family": "car1", "params": free.params.asdict()})
    assert back.params.names == free.params.names
    assert np.array_equal(back.params.upper, free.params.upper)
    assert np.array_equal(autocov_sequence(back, 8), autocov_sequence(free, 8))


@pytest.mark.parametrize("model", [
    ar_model([-0.7], 1.3), ar_model([0.4], 0.8), ar_model([], 1.3),
    car1_model(0.6, 1.1), car1_model(0.6, 1.1, rotation=0.9), car1_model(0.8, 0.7, gamma=-2.0)])
def test_pole_entry_gives_the_sdf_and_its_derivatives(model):
    # f_X = sigma^2 / |1 - z e^{iw}|^2, and dz in the parameters but the scale:
    # with D = |1 - z e^{iw}|^2, df = -f dD / D, dD = 2 Re((conj(z) - e^{iw}) dz),
    # against the closed form of the model's own parameters
    w = np.linspace(-np.pi, np.pi, 41)
    values, k = model.params.values, scale_index(model)
    entry = pole_entry(model)
    z, dz = entry(values, True)
    assert z == entry(values, False)[0] and entry(values, False)[1] is None
    assert isinstance(z, float) == (model.family == "ar" or model.rotation == 0.0
                                    and len(values) == 2)
    want, rows = sdf(model, w, True)
    denom = np.abs(1.0 - z * np.exp(1j * w)) ** 2
    f = values[k] ** 2 / denom
    assert np.allclose(f, want, rtol=1e-14, atol=0.0)
    rest = [j for j in range(len(values)) if j != k]
    assert len(dz) == len(rest)
    for d, j in zip(dz, rest):
        df = -f * 2.0 * ((np.conj(z) - np.exp(1j * w)) * d).real / denom
        assert np.allclose(df, rows[j], rtol=0.0, atol=1e-13 * np.abs(rows[j]).max())
        up, dn = values.copy(), values.copy()
        up[j] += 1e-6
        dn[j] -= 1e-6
        fd = (entry(up, False)[0] - entry(dn, False)[0]) / 2e-6
        assert abs(d - fd) <= 1e-8
