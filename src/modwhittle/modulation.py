"""Modulating sequences g_t and their sample autocovariance c_g.

A modulator is a known bounded deterministic sequence: a 0/1 missing-data
mask, a unit-modulus frequency modulator exp(i * cumulative phase), or any
user sequence.  The sample autocovariance

    c_g(tau) = (1/N) sum_{t=0}^{N-1-tau} conj(g_t) g_{t+tau},

is the kernel that multiplies the latent autocovariance in the expected
periodogram.  It is computed here at lags 0..L-1, L <= N, by zero-padded
FFT autocorrelation in O((N + L) log(N + L)), or by direct sums at L <= 2,
and returned as a plain read-only array; the direct O(N^2) sum is kept as a
test oracle.  An objective reads c_g only where the latent acv is nonzero,
so it asks for the prefix that reaches.  :func:`component_cg` gives the c_g
of one model component, 1 - tau/N (that of g = 1) when the component has no
modulator.  A parametric kernel (:class:`LinearRampKernel`) gives c_g in
closed form as a function of free modulation parameters, with its
derivatives in them.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .core import ParameterVector

__all__ = [
    "Modulator",
    "cg_sequence",
    "component_cg",
    "cg_direct",
    "constant_modulator",
    "periodic_missing_mask",
    "bernoulli_mask",
    "cosine_probabilities",
    "cosine_bernoulli_mask",
    "frequency_modulator",
    "linear_frequency_modulator",
    "linear_beta",
    "linear_ramp",
    "cg_linear_closed_form",
    "LinearRampKernel",
    "significant_correlation_diagnostic",
    "stationarity_check",
    "modulator_from_json",
]


@dataclass(frozen=True)
class Modulator:
    """A known modulating sequence g, bounded and read-only."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g)
        if g.ndim != 1 or g.size < 1:
            raise ValueError("modulating sequence must be non-empty and 1-d")
        if not np.all(np.isfinite(g)):
            raise ValueError("modulating sequence must be bounded (finite)")
        g = np.asarray(g, dtype=complex) if np.iscomplexobj(g) else np.asarray(g, dtype=float)
        g.setflags(write=False)
        object.__setattr__(self, "g", g)

    def __len__(self) -> int:
        return self.g.size

    @property
    def n(self) -> int:
        return self.g.size

    @property
    def gmax(self) -> float:
        return float(np.max(np.abs(self.g)))

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.g)


def cg_direct(g: np.ndarray) -> np.ndarray:
    """O(N^2) direct-sum c_g, the oracle for the FFT path."""
    g = np.asarray(g)
    n = g.size
    out = np.empty(n, dtype=complex)
    for tau in range(n):
        out[tau] = np.sum(np.conj(g[: n - tau]) * g[tau:]) / n
    return out


@functools.lru_cache(maxsize=1024)  # the loop costs about 7 us, a third of a short transform
def _fft_length(target: int) -> int:
    """The least 2^a 3^b 5^c >= target >= 1, a length whose transform
    numpy.fft runs in radix-2, 3 and 5 passes alone."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # the least power of 2 times p35 that reaches target
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def cg_sequence(mod: Modulator, lags: int | None = None) -> np.ndarray:
    """c_g(tau) for tau = 0..lags-1 (all N lags by default), read-only.

    At most two lags take the direct sums, one O(N) ``np.vdot`` each; more
    take a zero-padded FFT autocorrelation of length :func:`_fft_length`(N +
    lags - 1), the shortest whose wrap-around misses them (2N at lags = N
    and N = 2^k >= 16).  A real g takes the real-input transforms
    rfft/irfft, at half the cost.
    """
    n = mod.n
    lags = n if lags is None else lags
    if not 1 <= lags <= n:
        raise ValueError("lags must lie in [1, N]")
    g = mod.g
    if lags <= 2:
        acorr = np.array([np.vdot(g[:n - tau], g[tau:]) for tau in range(lags)]) / n
    else:
        m = _fft_length(n + lags - 1)
        if mod.is_complex:
            acorr = np.fft.ifft(np.abs(np.fft.fft(g, m)) ** 2)[:lags] / n
        else:
            acorr = np.fft.irfft(np.abs(np.fft.rfft(g, m)) ** 2, m)[:lags] / n
    acorr.setflags(write=False)
    return acorr


def component_cg(mod: Modulator | None, n: int, lags: int | None = None) -> np.ndarray:
    """c_g(0..lags-1) of one component of length n (all n lags by default),
    read-only: :func:`cg_sequence` of its modulator, or 1 - tau/N, the c_g
    of g = 1, when it has none."""
    lags = n if lags is None else lags
    if not 1 <= lags <= n:
        raise ValueError("lags must lie in [1, N]")
    if mod is not None:
        return cg_sequence(mod, lags)
    cg = 1.0 - np.arange(lags) / n
    cg.setflags(write=False)
    return cg


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def constant_modulator(n: int, value: float = 1.0) -> Modulator:
    if n < 1:
        raise ValueError("length must be positive")
    return Modulator(np.full(n, value, dtype=float))


def periodic_missing_mask(k: int, l: int, n: int) -> Modulator:
    """Mask observing k samples then missing l, repeated to length n."""
    if k < 1:
        raise ValueError("observe-run k must be >= 1 (nothing is ever observed)")
    if l < 0:
        raise ValueError("miss-run l must be >= 0")
    if n < 1:
        raise ValueError("length must be positive")
    period = np.concatenate((np.ones(k), np.zeros(l)))
    reps = int(np.ceil(n / period.size))
    mask = np.tile(period, reps)[:n]
    return Modulator(mask)


def bernoulli_mask(p, seed: int, n: int | None = None) -> Modulator:
    """Independent Bernoulli(p_t) 0/1 mask, reproducible from the seed.

    p may be a scalar probability or a sequence, of length n if n is given.
    The mask is drawn from a counter-based generator (Philox keyed by the
    seed), so g_t is a fixed function of (seed, t) regardless of how many
    values are consumed.
    """
    p_arr = np.asarray(p, dtype=float)
    if p_arr.ndim == 0:
        if n is None:
            raise ValueError("scalar probability needs an explicit length")
        p_arr = np.full(n, float(p_arr))
    elif n is not None and p_arr.size != n:
        raise ValueError(f"{p_arr.size} probabilities for a mask of length {n}")
    if np.any((p_arr < 0.0) | (p_arr > 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(p_arr.size)
    return Modulator((u < p_arr).astype(float))


@functools.lru_cache(maxsize=8)  # read-only: every Table 3 replicate of one N shares it
def cosine_probabilities(mean_p: float, amp_p: float, omega_p: float, n: int) -> np.ndarray:
    """p_t = P + A_p cos(omega_p t); requires 0 < P - A_p and P + A_p <= 1."""
    if not (0.0 < mean_p < 1.0):
        raise ValueError("mean probability must be in (0, 1)")
    if amp_p < 0 or amp_p >= min(mean_p, 1.0 - mean_p) + 1e-15:
        raise ValueError("amplitude must satisfy 0 <= A_p < min(P, 1-P)")
    t = np.arange(n)
    p = mean_p + amp_p * np.cos(omega_p * t)
    p.setflags(write=False)
    return p


def cosine_bernoulli_mask(mean_p: float, amp_p: float, omega_p: float,
                          n: int, seed: int) -> Modulator:
    """Bernoulli mask with periodically oscillating observation probability."""
    return bernoulli_mask(cosine_probabilities(mean_p, amp_p, omega_p, n), seed=seed)


def frequency_modulator(beta) -> Modulator:
    """Unit-modulus g with g_0 = 1 and g_t = exp(i sum_{u=1}^{t} beta_u).

    beta holds the per-step phase increments beta_1..beta_{N-1}; the output
    has length N = len(beta) + 1.  The running phase is reduced mod 2*pi at
    every step so |g_t| stays within 1e-12 of 1 even for N ~ 1e6.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1:
        raise ValueError("beta must be a 1-d sequence of phase increments")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta must be finite")
    # accumulate in blocks, reducing the carry mod 2*pi between blocks, so the
    # running phase never grows and precision is kept for N ~ 1e6
    phase = np.empty(beta.size)
    carry = 0.0
    block = 8192
    steps = np.mod(beta, 2.0 * np.pi)
    for start in range(0, beta.size, block):
        chunk = np.cumsum(steps[start:start + block]) + carry
        chunk = np.mod(chunk, 2.0 * np.pi)
        phase[start:start + block] = chunk
        carry = chunk[-1]
    return Modulator(np.exp(1j * np.concatenate(([0.0], phase))))


def linear_beta(gamma: float, span: float, n: int) -> np.ndarray:
    """beta_t = gamma + span ramp_t for t = 1..N-1 (see :func:`linear_ramp`).

    The increments ramp linearly from gamma - span/2 to gamma + span/2 over
    the sample; span must satisfy 0 < span < pi so the resulting modulated
    process keeps a significant correlation contribution.
    """
    if not (-np.pi <= gamma < np.pi):
        raise ValueError("gamma must lie in [-pi, pi)")
    if n < 2:
        raise ValueError("need at least two samples for a linear ramp")
    return gamma + _checked_span(span) * linear_ramp(n)


def linear_ramp(n: int) -> np.ndarray:
    """ramp_t = (2t - (N-1)) / (2(N-1)) for t = 1..N-1, from -1/2 + 1/(N-1)
    to 1/2: the shape of the linear rotation ramp of :func:`linear_beta`."""
    t = np.arange(1, n)
    return (2.0 * t - (n - 1)) / (2.0 * (n - 1))


def _checked_span(span: float) -> float:
    """span, which raises ValueError outside (0, pi)."""
    if not (0.0 < span < np.pi):
        raise ValueError("span must lie in (0, pi)")
    return span


def linear_frequency_modulator(gamma: float, span: float, n: int) -> Modulator:
    """Frequency modulator with the linear-ramp increments of :func:`linear_beta`."""
    return frequency_modulator(linear_beta(gamma, span, n))


def _linear_ramp_terms(span: float, n: int, tau: np.ndarray):
    """a = span tau / (2(N-1)) and |c_g| = sin(a (N - tau)) / (N sin a) of the
    linear ramp, |c_g| = 1 at tau = 0 (sin a > 0 at every other lag)."""
    a = span * tau / (2.0 * (n - 1))
    return a, np.divide(np.sin(a * (n - tau)), n * np.sin(a), out=np.ones_like(a),
                        where=tau > 0)


def cg_linear_closed_form(gamma: float, span: float, n: int, tau) -> np.ndarray | complex:
    """Closed-form c_g(tau) for the linear-ramp frequency modulator.

    c_g(tau) = sin[span*tau*(N-tau)/(2(N-1))] / (N sin[span*tau/(2(N-1))])
               * exp{i (gamma*tau + span*tau/(2(N-1)))},
    with c_g(0) = 1 by continuity.  O(1) per lag, O(N) for all lags.
    """
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    if np.any(tau_arr < 0) or np.any(tau_arr > n - 1):
        raise ValueError("lags must lie in [0, N-1]")
    a, mag = _linear_ramp_terms(_checked_span(span), n, tau_arr)
    out = mag * np.exp(1j * (gamma * tau_arr + a))
    if np.ndim(tau) == 0:
        return complex(out[0])
    return out


class LinearRampKernel:
    """c_g of the linear-ramp frequency modulator with (gamma, span) free.

    A parametric modulation kernel: ``params`` holds the free parameters phi
    = (gamma, span) with their open bounds (-pi, pi) x (0, pi) and start
    values, ``cg(phi)`` is :func:`cg_linear_closed_form` at lags 0..N-1, and
    ``cg_grad(phi)`` adds dc_g/dphi, one row per parameter.  With
    a = span u, u = tau / (2(N-1)), and m = sin(a (N - tau)) / (N sin a),

        dc_g/dgamma = i tau c_g,
        dc_g/dspan  = [dm/dspan + i u m] e^{i (gamma tau + a)},
        dm/dspan    = u [(N - tau) cos(a (N - tau)) / (N sin a) - m cot a],

    and both vanish at tau = 0.  ``rotations(phi)`` is the per-step rotation
    gamma + span ramp_t (``ramp``, :func:`linear_ramp`).  A span outside (0,
    pi) raises ValueError.
    """

    def __init__(self, n: int, gamma: float = 0.0, span: float = 1.0):
        if n < 2:
            raise ValueError("need at least two samples for a linear ramp")
        self.n = n
        self.params = ParameterVector(["gamma", "span"], [gamma, span],
                                      lower=[-np.pi, 0.0], upper=[np.pi, np.pi])
        self.ramp = linear_ramp(n)
        self._tau = np.arange(n, dtype=float)

    def rotations(self, phi) -> np.ndarray:
        gamma, span = phi
        return gamma + _checked_span(span) * self.ramp

    def _terms(self, phi):
        gamma, span = phi
        a, mag = _linear_ramp_terms(_checked_span(span), self.n, self._tau)
        return a, mag, np.exp(1j * (gamma * self._tau + a))

    def cg(self, phi) -> np.ndarray:
        _, mag, phase = self._terms(phi)
        return mag * phase

    def cg_grad(self, phi) -> tuple[np.ndarray, np.ndarray]:
        a, mag, phase = self._terms(phi)
        cg = mag * phase
        n, tau = self.n, self._tau
        u = tau / (2.0 * (n - 1))
        d_mag = np.zeros(n)
        d_mag[1:] = u[1:] * ((n - tau[1:]) * np.cos(a[1:] * (n - tau[1:]))
                             / (n * np.sin(a[1:])) - mag[1:] / np.tan(a[1:]))
        return cg, np.stack((1j * tau * cg, (d_mag + 1j * u * mag) * phase))


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------

def significant_correlation_diagnostic(mod: Modulator, lags, n_grid,
                                       tol: float = 1e-3) -> dict:
    """Empirical check of the significant-correlation condition.

    For each lag tau in `lags`, reports min over N in `n_grid` of
    |c_g^(N)(tau)| computed from the leading N samples of g, and flags lags
    whose minimum falls below tol.  A finite-N stand-in for the liminf
    condition: it certifies the lags the estimator actually leans on.  Each
    c_g^(N)(tau) is one O(N) sum.  A lag outside [0, min(n_grid)) raises.
    """
    lags = sorted(int(t) for t in lags)
    n_grid = sorted(int(m) for m in n_grid)
    if min(n_grid) < 1 or max(n_grid) > mod.n:
        raise ValueError("grid lengths must lie in [1, len(g)]")
    if lags and not 0 <= lags[0] <= lags[-1] < n_grid[0]:
        raise ValueError("lags must lie in [0, smallest grid length)")
    g = mod.g
    mins = {tau: min(float(abs(np.vdot(g[:m - tau], g[tau:m]))) / m for m in n_grid)
            for tau in lags}
    return {
        "min_abs_cg": mins,
        "flagged": [tau for tau in lags if mins[tau] < tol],
        "tol": tol,
    }


def stationarity_check(mod: Modulator, mu: int | None = None,
                       tol: float = 1e-8) -> tuple[bool, tuple[float, float] | None]:
    """Decide whether modulation by g leaves a latent process stationary.

    True iff |g_t| is constant and the phases satisfy
    phi_t = phi_{t mod mu} + gamma*floor(t/mu) (mod 2*pi) for some gamma,
    fitted from the first full period and verified at every t.  mu is the
    gcd of the latent model's nonzero-covariance lags; mu=None denotes the
    white-noise case where only constant modulus is required.

    Returns (flag, (a, gamma)) with the witness when the check passes.
    Raises ValueError for mu < 1, whatever g is.
    """
    if mu is not None and mu < 1:
        raise ValueError("mu must be a positive integer")
    g = np.asarray(mod.g, dtype=complex)
    mags = np.abs(g)
    a = float(mags[0])
    if np.max(np.abs(mags - a)) > tol * max(a, 1.0):
        return False, None
    if a <= tol:
        return True, (0.0, 0.0)
    if mu is None:
        return True, (a, 0.0)
    phi = np.angle(g)
    n = g.size
    if n <= mu:
        return True, (a, 0.0)
    gamma = float(np.angle(g[mu] / g[0]))
    t = np.arange(n)
    expected = phi[t % mu] + gamma * (t // mu)
    err = np.abs(np.exp(1j * (phi - expected)) - 1.0)
    if np.max(err) > tol:
        return False, None
    gamma = float(np.mod(gamma + np.pi, 2.0 * np.pi) - np.pi)
    return True, (a, gamma)


# ----------------------------------------------------------------------
# JSON config
# ----------------------------------------------------------------------

def modulator_from_json(text: str | dict) -> Modulator:
    """The modulator of a JSON config ``{"generator", "params", "seed", "N"}``
    (N may sit in params instead), built by the generator's constructor.  A
    generator other than constant, periodic-missing, bernoulli,
    cosine-bernoulli, frequency or linear-frequency raises ValueError."""
    obj = json.loads(text) if isinstance(text, str) else dict(text)
    gen = obj["generator"]
    params = obj.get("params", {})
    n = int(obj.get("N", params.get("N", 0)))
    if gen == "constant":
        return constant_modulator(n, params.get("value", 1.0))
    if gen == "periodic-missing":
        return periodic_missing_mask(params["k"], params["l"], n)
    if gen == "bernoulli":
        # without N a sequence p sets the length
        return bernoulli_mask(params.get("p", 0.5), seed=obj["seed"], n=n or None)
    if gen == "cosine-bernoulli":
        return cosine_bernoulli_mask(params["mean_p"], params["amp_p"],
                                     params["omega_p"], n, seed=obj["seed"])
    if gen == "frequency":
        return frequency_modulator(np.asarray(params["beta"], dtype=float))
    if gen == "linear-frequency":
        return linear_frequency_modulator(params["gamma"], params["span"], n)
    raise ValueError(f"unknown modulator generator {gen!r}")
