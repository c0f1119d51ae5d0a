import numpy as np
import pytest

from modwhittle import Series, ParameterVector, fourier_grid, periodogram
from modwhittle.core import _from_grid_order, _to_grid_order


def test_grid_small_cases():
    assert np.allclose(fourier_grid(1).frequencies, [0.0])
    assert np.allclose(fourier_grid(2).frequencies, [0.0, np.pi])
    assert np.allclose(fourier_grid(4).frequencies,
                       [-np.pi / 2, 0.0, np.pi / 2, np.pi])


def test_grid_shape_and_monotone():
    for n in (1, 2, 3, 8, 17, 64, 255):
        g = fourier_grid(n)
        assert len(g) == n
        assert 0.0 in g.frequencies
        assert np.all(np.diff(g.frequencies) > 0)
        assert np.isclose(g.frequencies[-1], 2 * np.pi * (n // 2) / n)
        # frequencies reproducible bit-exactly from the integer multipliers
        assert np.array_equal(g.frequencies, 2.0 * np.pi * g.multipliers / n)


def test_grid_rejects_zero():
    with pytest.raises(ValueError):
        fourier_grid(0)


# the library's one transform of data is the periodogram's: Shat(w) =
# |J(w)|^2 with J(w) = N**-0.5 sum_t x_t e^{-iwt} on the Fourier grid

def test_dft_constant_and_impulse():
    g = fourier_grid(4)
    s = periodogram(Series(np.ones(4)))
    k0 = list(g.multipliers).index(0)
    assert abs(s[k0] - 4.0) < 1e-12
    assert np.all(np.delete(s, k0) < 1e-24)

    s = periodogram(Series([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(s, 0.25, atol=1e-12)


def test_dft_matches_direct_sum():
    x = np.array([1.0, 2.0, 3.0])
    s = periodogram(Series(x))
    w = 2 * np.pi / 3
    direct = np.sum(x * np.exp(-1j * w * np.arange(3))) / np.sqrt(3)
    k = list(fourier_grid(3).multipliers).index(1)
    assert abs(s[k] - abs(direct) ** 2) < 1e-12


def test_dft_direct_sum_random(rng):
    for n in (5, 12, 31):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        s = periodogram(Series(x, kind="complex"))
        t = np.arange(n)
        ref = np.array([np.sum(x * np.exp(-1j * w * t))
                        for w in fourier_grid(n).frequencies]) / np.sqrt(n)
        assert np.max(np.abs(s - np.abs(ref) ** 2)) < 1e-10 * max(1.0, np.max(s))


def test_parseval(rng):
    # sum_w Shat(w) = sum_t |x_t|^2
    for n in (1, 2, 7, 64, 513, 1024):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        lhs = np.sum(periodogram(Series(x, kind="complex")))
        rhs = np.sum(np.abs(x) ** 2)
        assert abs(lhs - rhs) < 1e-10 * rhs


def test_grid_order_round_trip(rng):
    for n in (2, 5, 8):
        v = rng.normal(size=n)
        assert np.array_equal(_from_grid_order(_to_grid_order(v)), v)


def test_series_validation():
    with pytest.raises(ValueError):
        Series(np.array([]))
    with pytest.raises(ValueError):
        Series([1.0], delta=0.0)
    with pytest.raises(ValueError):
        Series(np.array([1 + 1j]), kind="real")
    s = Series([1.0, 2.0], delta=0.5)
    assert s.n == 2 and s.kind == "real"


def test_parameter_vector_bounds():
    pv = ParameterVector(["r", "sigma"], [0.5, 1.0], lower=[0.0, 0.0], upper=[1.0, np.inf])
    pv.validate_interior()
    with pytest.raises(ValueError):
        ParameterVector(["x"], [1.0], lower=[2.0], upper=[1.0])
    bad = ParameterVector(["r"], [0.0], lower=[0.0], upper=[1.0])
    with pytest.raises(ValueError):
        bad.validate_interior()
    assert pv.replace([0.7, 2.0]).asdict() == {"r": 0.7, "sigma": 2.0}
