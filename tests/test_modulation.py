import json

import numpy as np
import pytest

from modwhittle import (
    Modulator,
    bernoulli_mask,
    cg_linear_closed_form,
    cg_sequence,
    constant_modulator,
    cosine_bernoulli_mask,
    frequency_modulator,
    linear_beta,
    linear_frequency_modulator,
    periodic_missing_mask,
    significant_correlation_diagnostic,
    stationarity_check,
)
from modwhittle.modulation import (
    LinearRampKernel,
    cg_direct,
    cosine_probabilities,
    modulator_from_json,
)
from helpers import random_modulator


def test_cg_constant():
    cg = cg_sequence(constant_modulator(4))
    assert np.allclose(cg, [1.0, 0.75, 0.5, 0.25], atol=1e-14)


def test_cg_alternating_mask():
    cg = cg_sequence(Modulator(np.array([1.0, 0.0, 1.0, 0.0])))
    assert np.allclose(cg, [0.5, 0.0, 0.25, 0.0], atol=1e-14)


def test_cg_complex_conjugation():
    cg = cg_sequence(Modulator(np.exp(1j * np.pi / 2 * np.arange(4))))
    assert abs(cg[1] - 0.75j) < 1e-14


def test_cg_fft_matches_direct(rng):
    for _ in range(100):
        n = int(rng.integers(2, 512))
        mod = random_modulator(rng, n)
        a = cg_sequence(mod)
        b = cg_direct(mod.g)
        scale = max(np.max(np.abs(b)), 1e-30)
        assert np.max(np.abs(a - b)) < 1e-12 * scale


def test_cg_cauchy_schwarz(rng):
    for _ in range(30):
        n = int(rng.integers(2, 256))
        mod = random_modulator(rng, n)
        cg = cg_sequence(mod)
        c0 = cg[0].real
        assert np.all(np.abs(cg) <= c0 + 1e-12 * max(c0, 1.0))
        assert 0.0 <= c0 <= mod.gmax ** 2 + 1e-12


def test_periodic_missing_mask_patterns():
    assert np.array_equal(periodic_missing_mask(2, 1, 5).g, [1, 1, 0, 1, 1])
    assert np.array_equal(periodic_missing_mask(1, 0, 3).g, [1, 1, 1])
    mk = periodic_missing_mask(1, 2, 6)
    assert np.array_equal(mk.g, [1, 0, 0, 1, 0, 0])
    # direct sum: only t=0 pairs ones at lag 3
    assert abs(cg_sequence(mk)[3] - 1.0 / 6.0) < 1e-14
    with pytest.raises(ValueError):
        periodic_missing_mask(0, 1, 4)


def test_bernoulli_mask_limits_and_reproducibility():
    assert np.all(bernoulli_mask(1.0, seed=1, n=64).g == 1.0)
    assert np.all(bernoulli_mask(0.0, seed=1, n=64).g == 0.0)
    a = bernoulli_mask(0.4, seed=99, n=256).g
    b = bernoulli_mask(0.4, seed=99, n=256).g
    assert np.array_equal(a, b)
    assert not np.array_equal(a, bernoulli_mask(0.4, seed=100, n=256).g)
    with pytest.raises(ValueError):
        bernoulli_mask(1.5, seed=0, n=4)


def test_cosine_probabilities_values():
    p = cosine_probabilities(0.5, 0.25, 2 * np.pi / 10, 20)
    assert abs(p[0] - 0.75) < 1e-14
    assert abs(p[5] - 0.25) < 1e-14
    mask = cosine_bernoulli_mask(0.5, 0.25, 2 * np.pi / 10, 128, seed=5)
    assert set(np.unique(mask.g)) <= {0.0, 1.0}


def test_frequency_modulator_basic():
    assert np.allclose(frequency_modulator(np.zeros(7)).g, 1.0)
    g = frequency_modulator(np.full(3, np.pi / 2)).g
    assert np.allclose(g, [1, 1j, -1, -1j], atol=1e-13)


def test_frequency_modulator_unit_modulus_large():
    rng = np.random.default_rng(3)
    beta = rng.uniform(-np.pi, np.pi, size=10 ** 6 - 1)
    g = frequency_modulator(beta).g
    assert np.max(np.abs(np.abs(g) - 1.0)) < 1e-12


def test_linear_beta_ramp():
    n = 9
    beta = linear_beta(0.3, 0.8, n)
    # endpoints of the printed ramp at t=1 and t=N-1
    assert abs(beta[0] - (0.3 + 0.8 * (2 - (n - 1)) / (2 * (n - 1)))) < 1e-14
    assert abs(beta[-1] - (0.3 + 0.4)) < 1e-14
    with pytest.raises(ValueError):
        linear_beta(0.3, np.pi, n)


def test_cg_linear_closed_form_examples():
    assert cg_linear_closed_form(0.5, 1.0, 32, 0) == 1.0
    # span -> 0 limit: (1 - tau/N) e^{i gamma tau}
    taus = np.arange(8)
    vals = cg_linear_closed_form(0.5, 1e-9, 8, taus)
    ref = (1 - taus / 8) * np.exp(1j * 0.5 * taus)
    assert np.max(np.abs(vals - ref)) < 1e-7
    with pytest.raises(ValueError):
        cg_linear_closed_form(0.5, np.pi, 8, 1)


def test_cg_linear_closed_form_matches_path(rng):
    for n in (8, 64, 512):
        for _ in range(20):
            gamma = rng.uniform(-np.pi, np.pi)
            span = rng.uniform(0.05, np.pi - 0.05)
            mod = linear_frequency_modulator(gamma, span, n)
            direct = cg_direct(mod.g)
            closed = cg_linear_closed_form(gamma, span, n, np.arange(n))
            assert np.max(np.abs(direct - closed)) < 1e-10


def test_ramp_kernel_matches_closed_form_and_path(rng):
    for n in (2, 3, 64, 513):
        gamma, span = rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.1)
        kernel = LinearRampKernel(n, gamma, span)
        assert kernel.params.names == ["gamma", "span"]
        cg = kernel.cg(kernel.params.values)
        ref = cg_linear_closed_form(gamma, span, n, np.arange(n))
        assert np.array_equal(cg, ref)
        path = cg_sequence(linear_frequency_modulator(gamma, span, n))
        assert np.max(np.abs(cg - path)) < 1e-10
        grad_cg, _ = kernel.cg_grad([gamma, span])
        assert np.array_equal(grad_cg, cg)
    with pytest.raises(ValueError):
        kernel.cg([0.0, np.pi])
    with pytest.raises(ValueError):
        LinearRampKernel(1)


def test_ramp_kernel_derivatives_match_central_differences(rng):
    for n in (2, 16, 200, 2048):
        kernel = LinearRampKernel(n)
        for _ in range(5):
            phi = np.array([rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0)])
            _, dcg = kernel.cg_grad(phi)
            assert dcg.shape == (2, n)
            for j in range(2):
                def diff(e):
                    up, dn = phi.copy(), phi.copy()
                    up[j] += e
                    dn[j] -= e
                    return (kernel.cg(up) - kernel.cg(dn)) / (2.0 * e)

                # c_g turns by about tau * step: keep that small at every lag
                e = 1e-4 * min(1.0, 64.0 / n)
                fd = (4.0 * diff(e / 2.0) - diff(e)) / 3.0
                scale = np.max(np.abs(fd))
                assert np.max(np.abs(dcg[j] - fd)) <= 1e-6 * scale, (n, j)
                assert dcg[j, 0] == 0.0


def test_bounded_increment_cg_floor(rng):
    # bounded increments |beta - Xi| <= D <= pi/2 imply
    # |c_g(tau)| >= (1 - tau/N) cos(tau*D) while tau*D < pi/2
    for _ in range(20):
        n = int(rng.integers(16, 200))
        xi = rng.uniform(-1.0, 1.0)
        bound = rng.uniform(0.05, np.pi / 2)
        beta = xi + rng.uniform(-bound, bound, size=n - 1)
        cg = cg_sequence(frequency_modulator(beta))
        lmax = int(np.floor(np.pi / 2 / bound))
        for tau in range(0, min(lmax, n) + 1):
            if tau * bound >= np.pi / 2 or tau >= n:
                break
            lower = (1 - tau / n) * np.cos(tau * bound)
            assert np.abs(cg[tau]) >= lower - 1e-12


def test_diagnostic_constant_and_alternating():
    diag = significant_correlation_diagnostic(constant_modulator(128), [0, 1], [32, 64, 128])
    assert abs(diag["min_abs_cg"][1] - (1 - 1 / 32)) < 1e-12
    assert diag["flagged"] == []
    alt = Modulator(np.tile([1.0, 0.0], 64))
    diag = significant_correlation_diagnostic(alt, [1, 2], [64, 128])
    assert 1 in diag["flagged"] and 2 not in diag["flagged"]
    with pytest.raises(ValueError):
        significant_correlation_diagnostic(alt, [70], [64, 128])


def test_diagnostic_rejects_a_negative_lag():
    # |c_g(-1)| = |c_g(1)|: a negative lag must not index c_g from its end
    mod = periodic_missing_mask(3, 1, 64)
    assert significant_correlation_diagnostic(mod, [1], [32, 64])["min_abs_cg"][1] == 0.5
    with pytest.raises(ValueError):
        significant_correlation_diagnostic(mod, [-1, 1], [32, 64])


def test_diagnostic_matches_cg_sequence(rng):
    # each O(m) sum agrees with the FFT c_g of the leading m samples
    for _ in range(200):
        n = int(rng.integers(2, 300))
        g = rng.normal(size=n) * rng.uniform(0.1, 10.0)
        if rng.random() < 0.5:
            g = g + 1j * rng.normal(size=n)
        mod = Modulator(g)
        n_grid = sorted({int(m) for m in rng.integers(1, n + 1, size=3)})
        lags = sorted({int(t) for t in rng.integers(0, n_grid[0], size=3)})
        got = significant_correlation_diagnostic(mod, lags, n_grid)["min_abs_cg"]
        tol = 1e-12 * max(1.0, mod.gmax ** 2)
        for tau in lags:
            ref = min(abs(cg_sequence(Modulator(g[:m]))[tau]) for m in n_grid)
            assert abs(got[tau] - ref) <= tol


def test_stationarity_check_cases():
    g = np.exp(1j * 0.7 * np.arange(30))
    ok, wit = stationarity_check(Modulator(g), mu=1)
    assert ok and abs(wit[0] - 1.0) < 1e-12 and abs(wit[1] - 0.7) < 1e-9

    ok, wit = stationarity_check(Modulator(np.full(10, 2.5)), mu=None)
    assert ok and wit == (2.5, 0.0)

    ok, _ = stationarity_check(Modulator((1.0 + np.arange(10)) * np.exp(1j * 0.1)), mu=1)
    assert not ok

    # period-2 structure: phases repeat with a common increment every 2 steps
    phi = np.array([0.1, 0.9])
    t = np.arange(20)
    g = np.exp(1j * (phi[t % 2] + 1.3 * (t // 2)))
    ok, wit = stationarity_check(Modulator(g), mu=2)
    assert ok and abs(wit[1] - 1.3) < 1e-9
    ok, _ = stationarity_check(Modulator(g), mu=1)
    assert not ok


def test_stationarity_check_rejects_mu_below_one_on_any_modulus():
    # mu is checked before |g|: a mask whose modulus varies must not let an
    # invalid mu through as "not stationary"
    for mod in (periodic_missing_mask(3, 1, 64), constant_modulator(64),
                Modulator(np.zeros(8))):
        for mu in (0, -1):
            with pytest.raises(ValueError, match="mu"):
                stationarity_check(mod, mu=mu)


def test_modulator_from_json_builds_each_generator():
    # each config gives its constructor's g bit for bit, from a dict or its text
    beta = np.linspace(-1, 1, 15)
    table = [
        ({"generator": "constant", "params": {"value": 1.5, "N": 16}},
         constant_modulator(16, 1.5)),
        ({"generator": "periodic-missing", "params": {"k": 3, "l": 2}, "N": 16},
         periodic_missing_mask(3, 2, 16)),
        ({"generator": "bernoulli", "params": {"p": 0.6}, "seed": 4, "N": 16},
         bernoulli_mask(0.6, seed=4, n=16)),
        ({"generator": "cosine-bernoulli", "seed": 9,
          "params": {"mean_p": 0.5, "amp_p": 0.25, "omega_p": 0.3, "N": 16}},
         cosine_bernoulli_mask(0.5, 0.25, 0.3, 16, seed=9)),
        ({"generator": "frequency", "params": {"beta": beta.tolist()}},
         frequency_modulator(beta)),
        ({"generator": "linear-frequency", "params": {"gamma": 0.4, "span": 1.0}, "N": 16},
         linear_frequency_modulator(0.4, 1.0, 16)),
    ]
    for cfg, mod in table:
        for spec in (cfg, json.dumps(cfg)):
            g = modulator_from_json(spec).g
            assert g.dtype == mod.g.dtype and np.array_equal(g, mod.g), cfg["generator"]
    # no other generator is built: the error names the one asked for
    for cfg in ({"generator": "custom", "g_re": [1.0, 0.0, 1.0], "g_im": [0.0] * 3, "N": 3},
                {"generator": "sawtooth", "N": 4}):
        with pytest.raises(ValueError, match=repr(cfg["generator"])):
            modulator_from_json(cfg)
