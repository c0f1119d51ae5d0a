import numpy as np
import pytest

from modwhittle import (
    Series,
    ar_model,
    car1_model,
    cg_sequence,
    constant_modulator,
    expected_acv,
    expected_periodogram,
    exponential_qq,
    fejer_kernel,
    fourier_grid,
    brute_force_expected_periodogram,
    periodic_missing_mask,
    periodogram,
)
from modwhittle.core import _from_grid_order
from modwhittle.simulate import simulate_ar
from modwhittle.spectra import (
    expected_periodogram_fft_order,
    expected_periodogram_half,
    expected_periodogram_values,
    lag_sums_half,
    periodogram_fft_order,
)
from helpers import counted_transforms, random_model, random_modulator, sdf


def test_periodogram_examples(rng):
    p = periodogram(Series(np.full(5, 2.0)))
    k0 = list(fourier_grid(5).multipliers).index(0)
    assert abs(p[k0] - 20.0) < 1e-12
    assert np.all(np.abs(np.delete(p, k0)) < 1e-12)

    assert np.allclose(periodogram(Series([1.0, -1.0])), [0.0, 2.0], atol=1e-14)

    p = periodogram(Series(np.exp(1j * np.pi / 2 * np.arange(4)), kind="complex"))
    k1 = list(fourier_grid(4).multipliers).index(1)
    assert abs(p[k1] - 4.0) < 1e-12

    # non-negative, symmetric for real input
    x = Series(rng.normal(size=33))
    vals = periodogram(x)
    assert np.all(vals >= 0)
    g = fourier_grid(33)
    for k in range(1, 17):
        i = list(g.multipliers).index(k)
        j = list(g.multipliers).index(-k)
        assert abs(vals[i] - vals[j]) < 1e-10 * max(vals.max(), 1.0)


def test_expected_acv_cases():
    wn = ar_model([], 1.3)
    cg = cg_sequence(periodic_missing_mask(2, 1, 8))
    cbar = expected_acv(cg, wn)
    assert abs(cbar[0] - 1.69 * cg[0]) < 1e-14
    assert np.all(cbar[1:] == 0.0)

    a1 = ar_model([0.5], 1.0)
    cbar = expected_acv(cg_sequence(Modulator_alt()), a1)
    # mask (1,0,1,0): c_g(2) = 1/4, c_X(2) = 0.25/0.75
    assert abs(cbar[2] - 0.25 * (0.25 / 0.75)) < 1e-14


def Modulator_alt():
    from modwhittle import Modulator
    return Modulator(np.array([1.0, 0.0, 1.0, 0.0]))


def test_expected_periodogram_white_noise():
    wn = ar_model([], 1.0)
    sb = expected_periodogram(cg_sequence(constant_modulator(16)), wn)
    assert np.allclose(sb, 1.0, atol=1e-12)


def test_expected_periodogram_matches_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(4, 128))
        model = random_model(rng)
        mod = random_modulator(rng, n)
        sb = expected_periodogram(cg_sequence(mod), model)
        ref = brute_force_expected_periodogram(mod, model)
        assert np.max(np.abs(sb - ref)) < 1e-10 * max(np.max(np.abs(ref)), 1.0)


def test_oracle_trivial_cases():
    wn = ar_model([], 1.5)
    ref = brute_force_expected_periodogram(constant_modulator(8), wn)
    assert np.allclose(ref, 2.25, atol=1e-12)
    one = brute_force_expected_periodogram(constant_modulator(1, 2.0), wn)
    assert np.allclose(one, 4.0 * 2.25, atol=1e-12)
    with pytest.raises(ValueError):
        brute_force_expected_periodogram(constant_modulator(512), wn)


def _padded_expected_periodogram(cbar):
    # the zero-padded length-2N form: grid values are the even bins
    from modwhittle.core import _to_grid_order
    cbar = np.asarray(cbar)
    big = np.fft.fft(cbar, 2 * cbar.size)
    return _to_grid_order(2.0 * big[::2].real - cbar[0].real)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 4096])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_length_n_fft_matches_padded_transform(rng, n, kind):
    for _ in range(5):
        model = random_model(rng) if kind == "complex" else \
            ar_model([rng.uniform(-0.9, 0.9)], rng.uniform(0.5, 2.0))
        mod = random_modulator(rng, n, kinds=("constant", "periodic", "bernoulli")) \
            if n > 1 else constant_modulator(1, rng.uniform(0.5, 2.0))
        cbar = expected_acv(cg_sequence(mod), model)
        if kind == "complex" and not np.iscomplexobj(cbar):
            cbar = cbar * np.exp(0.3j * np.arange(n))
        assert np.iscomplexobj(cbar) == (kind == "complex")
        ref = _padded_expected_periodogram(cbar)
        vals = expected_periodogram_values(cbar)
        assert np.max(np.abs(vals - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 7, 96, 128, 4096, 16384])
def test_transform_is_scipys_bit_for_bit(rng, n):
    # numpy.fft runs the same pocketfft as scipy.fft: Sbar through numpy
    # equals the scipy formula it replaced to the last bit
    import scipy.fft as scipy_fft
    for size in sorted({1, n // 3 + 1, n}):
        for kind in ("real", "complex"):
            cbar = rng.normal(size=size)
            if kind == "complex":
                cbar = cbar + 1j * rng.normal(size=size)
            cbar[0] = 1.0 + 2.0 * np.sum(np.abs(cbar[1:]))  # Sbar > 0
            if kind == "complex":
                ref = 2.0 * scipy_fft.fft(cbar, n).real - cbar[0].real
            else:
                half = scipy_fft.rfft(cbar, n).real
                ref = 2.0 * np.concatenate((half, half[n - half.size:0:-1])) - cbar[0]
            assert np.array_equal(expected_periodogram_fft_order(cbar, n), ref)


@pytest.mark.parametrize("n", [1, 2, 7, 96, 16384])
def test_fft_order_periodogram_is_the_grid_ones_reordered(rng, n):
    for kind in ("real", "complex"):
        x = rng.normal(size=n) + (1j * rng.normal(size=n) if kind == "complex" else 0.0)
        series = Series(x, kind=kind)
        got = periodogram_fft_order(series)
        assert np.array_equal(got, _from_grid_order(periodogram(series)))
        assert np.array_equal(got, np.abs(np.fft.fft(x)) ** 2 / n)


def test_expected_periodogram_negative_input_rejected():
    # a non-PSD "expected acv" must be caught
    bad = np.array([1.0, 0.0, 5.0, 0.0])
    with pytest.raises(ValueError):
        expected_periodogram_values(bad)


def test_fejer_kernel_values():
    assert abs(fejer_kernel(8, 0.0) - 8 / (2 * np.pi)) < 1e-14
    assert abs(fejer_kernel(2, np.pi / 2) - 1 / (2 * np.pi)) < 1e-14
    assert abs(fejer_kernel(8, 2 * np.pi / 8)) < 1e-12
    assert abs(fejer_kernel(5, 2 * np.pi)) - 5 / (2 * np.pi) < 1e-12
    lam = np.linspace(-np.pi, np.pi, 301)
    vals = fejer_kernel(16, lam)
    assert np.all(vals >= 0)
    # integrates to one over a period (trapezoid on a fine grid)
    fine = np.linspace(-np.pi, np.pi, 40001)
    assert abs(np.trapezoid(fejer_kernel(16, fine), fine) - 1.0) < 1e-4


def test_expected_periodogram_bounds(rng):
    # positivity and the gmax^2 * max f upper bound
    wfine = np.linspace(-np.pi, np.pi, 4001)
    for _ in range(20):
        n = int(rng.integers(8, 128))
        model = random_model(rng)
        mod = random_modulator(rng, n)
        sb = expected_periodogram(cg_sequence(mod), model)
        fmax = float(np.max(sdf(model, wfine)))
        assert np.min(sb) > 0.0
        assert np.max(sb) <= mod.gmax ** 2 * fmax + 1e-8


def test_parameter_separation(rng):
    n = 64
    for _ in range(100):
        mod = random_modulator(rng, n, kinds=("constant", "periodic", "frequency"))
        r1, s1 = rng.uniform(0.05, 0.9), rng.uniform(0.5, 2.0)
        while True:
            r2, s2 = rng.uniform(0.05, 0.9), rng.uniform(0.5, 2.0)
            if abs(r2 - r1) >= 1e-2 or abs(s2 - s1) >= 1e-2:
                break
        cg = cg_sequence(mod)
        sb1 = expected_periodogram(cg, car1_model(r1, s1))
        sb2 = expected_periodogram(cg, car1_model(r2, s2))
        assert np.max(np.abs(sb1 - sb2)) > 0.0


def test_convolution_form_quadrature():
    # Sbar equals the periodic convolution of f_X with the modulator window
    n = 32
    model = ar_model([0.6], 1.0)
    mod = periodic_missing_mask(3, 1, n)
    sb = expected_periodogram(cg_sequence(mod), model)
    m = 1 << 14
    lam = -np.pi + 2 * np.pi * np.arange(m) / m
    gdft = np.array([np.sum(mod.g * np.exp(-1j * lam_i * np.arange(n))) for lam_i in lam])
    window = np.abs(gdft) ** 2 / n
    for w in fourier_grid(n).frequencies[::5]:
        f = sdf(model, w - lam)
        ref = np.mean(f * window)
        k = np.argmin(np.abs(fourier_grid(n).frequencies - w))
        assert abs(sb[k] - ref) < 1e-4 * ref


def test_spectral_mean_variance_scaling(rng):
    # var over replicates of (1/N) sum_w Shat(w) drops ~4x when N quadruples
    model = ar_model([0.7], 1.0)
    reps = 500
    out = {}
    for n in (64, 256):
        mod = periodic_missing_mask(3, 2, n)
        stats = np.empty(reps)
        for i in range(reps):
            x = simulate_ar(model, n, rng)
            y = Series(mod.g * x.values)
            stats[i] = np.mean(periodogram(y))
        out[n] = np.var(stats)
    ratio = out[64] / out[256]
    assert 3.0 <= ratio <= 5.0, ratio


def test_exponential_qq(rng):
    sb = expected_periodogram(cg_sequence(constant_modulator(64)), ar_model([], 1.0))
    pairs = exponential_qq(periodogram(Series(rng.normal(size=64))), sb)
    assert pairs.shape == (64, 2)
    assert np.all(np.diff(pairs[:, 0]) > 0)
    # largest theoretical quantile is the harmonic number H_64
    assert abs(pairs[-1, 0] - np.sum(1.0 / np.arange(1, 65))) < 1e-12

    # ratios identically one -> flat sample column
    p = periodogram(Series(rng.normal(size=32) + 1j * rng.normal(size=32), kind="complex"))
    ones = exponential_qq(p, p)
    assert np.allclose(ones[:, 1], 1.0, atol=1e-12)

    with pytest.raises(ValueError):
        exponential_qq(periodogram(Series(np.ones(64))),
                       expected_periodogram(cg_sequence(constant_modulator(32)),
                                            ar_model([], 1.0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_exponential_qq_rejects_an_sbar_that_is_not_finite_and_positive(bad):
    p = np.ones(8)
    sbar = np.ones(8)
    sbar[3] = bad
    with pytest.raises(ValueError, match="finite and positive"):
        exponential_qq(p, sbar)


def test_exponential_qq_slope(rng):
    # simulated modulated AR(1): LS slope of ratios vs Exp(1) quantiles near 1
    from modwhittle.simulate import simulate_complex_ar1
    from modwhittle import frequency_modulator
    n = 1024
    beta = rng.uniform(0.2, 0.6, size=n - 1)
    z = simulate_complex_ar1(0.7, 1.0, beta, n, rng)
    mod = frequency_modulator(beta)
    sb = expected_periodogram(cg_sequence(mod), car1_model(0.7, 1.0))
    qq = exponential_qq(periodogram(z), sb)
    slope = np.sum(qq[:, 0] * qq[:, 1]) / np.sum(qq[:, 0] ** 2)
    assert 0.9 <= slope <= 1.1, slope


@pytest.mark.parametrize("n", [4096, 12288, 16384, 20480])
def test_split_half_grid_transforms_equal_the_length_n_rfft(n, monkeypatch):
    # Sbar of a cbar of L lags, and the score's lag sums W at tau < L, from
    # P/2 + 1 transforms of length Q (the least power of two >= 2L, P = N /
    # Q >= 4; 20480 = 5 x 4096 splits into an odd P = 5 at Q = 4096), against
    # the one length-N rfft; past the largest such Q it is that rfft, bit for
    # bit
    rng = np.random.default_rng(n)
    top = max(1 << j for j in range(1, n.bit_length()) if n % (1 << j) == 0
              and n >> j >= 4) // 2  # the longest L that splits: Q / 2
    calls = counted_transforms(monkeypatch)
    for lags in (1, 2, 3, 17, 166, 350, top // 2 + 1, top, top + 1):
        cbar = rng.standard_normal(lags)
        cbar[0] = 1.0 + 2.0 * np.abs(cbar[1:]).sum()  # a positive Sbar
        w = rng.standard_normal(n // 2 + 1)
        want = 2.0 * np.fft.rfft(cbar, n).real - cbar[0]
        want_w = np.fft.rfft(w, n).real[:lags]
        calls.clear()
        got = expected_periodogram_half(cbar, n)
        got_w = lag_sums_half(w, n, lags)[:lags]
        q = 1 << (2 * lags - 1).bit_length()
        if lags > top:
            assert calls == [("rfft", n), ("rfft", n)]
            assert np.array_equal(got, want) and np.array_equal(got_w, want_w)
            continue
        rows = n // q // 2 + 1
        assert calls == [("irfft", q, rows), ("rfft", q, rows)], lags
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), lags
        assert np.max(np.abs(got_w - want_w)) <= 1e-13 * np.max(np.abs(want_w)), lags
