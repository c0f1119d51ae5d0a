"""Parametric stationary latent-process families.

Families
--------
ar      : real AR(p), params (phi_1..phi_p, sigma), unit sampling
ma      : real MA(q), X_t = sigma*(e_t + theta_1 e_{t-1} + ... ), params
          (theta_1..theta_q, sigma)
car1    : complex AR(1), Z_t = r e^{i gamma} Z_{t-1} + e_t with proper
          complex innovations of variance sigma^2; params (r, sigma), and
          gamma (radians/sample) when the rotation is free rather than fixed
ou      : complex Ornstein-Uhlenbeck sampled at interval delta (days);
          params (A, lam); optional fixed rotation in cycles/day
matern  : proper Matern background, spectral shape B^2/(w^2+h^2)^alpha;
          params (B, h, alpha); sampled at interval delta (days)

Spectral convention: the discrete-time spectral density is
``f_X(w) = sum_tau c_X(tau) exp(-i w tau)`` (w in radians per sample), so the
expected periodogram of an unmodulated sample tends to f_X.  Every likelihood
in this package works on the f_X scale.

For the continuous families the analytic spectral shapes
``A^2/((w - w_f)^2 + lam^2)`` and ``B^2/(w^2 + h^2)^alpha`` are interpreted
with their argument in radians per day, which makes them the exact Fourier
transforms of the autocovariances ``A^2/(2 lam) exp(-lam|t|) e^{i 2 pi w_f t}``
and the Bessel-form Matern autocovariance used below.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammaln, kv

from .core import ParameterVector

__all__ = [
    "LatentModel",
    "ar_model",
    "ma_model",
    "car1_model",
    "ou_model",
    "matern_model",
    "autocov",
    "autocov_grad",
    "geometric_acv",
    "sdf",
    "sdf_grad",
    "sdf_sampled",
    "ou_to_ar",
    "ar_to_ou",
    "model_to_json",
    "model_from_json",
]

_FAMILIES = ("ar", "ma", "car1", "ou", "matern")

# working precision of the latent acv tables: geometric_acv and matern_acv
# leave at zero every lag whose value is at most ACV_EPS * c(0)
ACV_EPS = 1e-16

# families whose autocovariance has an analytic parameter gradient; for "ar"
# only order 1, whose table is geometric
GRADIENT_FAMILIES = ("ar", "car1", "ou", "matern")
# relative step of the central difference that gives the Matern d/dalpha:
# its O(step^2) error and K_nu's rounding over 2 step both stay below about
# 1e-10 of c, where a 1e-6 step let rounding reach 1e-4 of the score when Sbar
# spans many decades
MATERN_ALPHA_STEP = 1e-5


@dataclass(frozen=True)
class LatentModel:
    """A stationary latent-process family with a concrete parameter vector."""

    family: str
    params: ParameterVector
    delta: float = 1.0
    # fixed rotation: radians/sample for car1, cycles/day for ou
    rotation: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        validate_stationary(self)

    def value(self, name: str) -> float:
        return float(self.params.values[self.params.names.index(name)])

    def with_values(self, values) -> "LatentModel":
        return LatentModel(
            family=self.family,
            params=self.params.replace(values),
            delta=self.delta,
            rotation=self.rotation,
        )


def _ar_coeffs(model: LatentModel):
    v = model.params.values
    return v[:-1], float(v[-1])


def validate_stationary(model: LatentModel):
    """Raise ValueError when the parameters leave the stationary region."""
    f = model.family
    if f == "ar":
        phi, sigma = _ar_coeffs(model)
        if sigma < 0:
            raise ValueError("innovation scale sigma must be non-negative")
        if phi.size == 1:
            if not abs(phi[0]) < 1.0 - 1e-12:
                raise ValueError("AR parameters are not stationary")
        elif phi.size:
            # roots of 1 - phi_1 z - ... - phi_p z^p must lie outside |z|=1
            roots = np.roots(np.concatenate(([1.0], -phi))[::-1])
            if roots.size and np.min(np.abs(roots)) <= 1.0 + 1e-12:
                raise ValueError("AR parameters are not stationary")
    elif f == "ma":
        _, sigma = _ar_coeffs(model)
        if sigma < 0:
            raise ValueError("innovation scale sigma must be non-negative")
    elif f == "car1":
        r, sigma = model.value("r"), model.value("sigma")
        if not (0.0 <= r < 1.0):
            raise ValueError("car1 requires 0 <= r < 1")
        if sigma <= 0:
            raise ValueError("car1 requires sigma > 0")
    elif f == "ou":
        if model.value("A") <= 0 or model.value("lam") <= 0:
            raise ValueError("ou requires A > 0 and lam > 0")
    elif f == "matern":
        if model.value("B") < 0 or model.value("h") <= 0:
            raise ValueError("matern requires B >= 0 and h > 0")
        if model.value("alpha") <= 0.5:
            raise ValueError("matern requires alpha > 1/2 (integrability)")


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def ar_model(phi, sigma: float) -> LatentModel:
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    names = [f"phi{j + 1}" for j in range(phi.size)] + ["sigma"]
    lower = np.concatenate((np.full(phi.size, -np.inf), [0.0]))
    pv = ParameterVector(names, np.concatenate((phi, [sigma])), lower=lower)
    return LatentModel("ar", pv)


def ma_model(theta, sigma: float) -> LatentModel:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    names = [f"theta{j + 1}" for j in range(theta.size)] + ["sigma"]
    lower = np.concatenate((np.full(theta.size, -np.inf), [0.0]))
    pv = ParameterVector(names, np.concatenate((theta, [sigma])), lower=lower)
    return LatentModel("ma", pv)


def car1_model(r: float, sigma: float, rotation: float = 0.0,
               gamma: float | None = None) -> LatentModel:
    """Complex AR(1) with a fixed rotation, or a free one when gamma is given.

    A given gamma is the start value of a third parameter "gamma" in
    (-pi, pi), which then replaces the fixed rotation.
    """
    if gamma is None:
        pv = ParameterVector(["r", "sigma"], [r, sigma], lower=[0.0, 0.0],
                             upper=[1.0, np.inf])
        return LatentModel("car1", pv, rotation=rotation)
    pv = ParameterVector(["r", "sigma", "gamma"], [r, sigma, gamma],
                         lower=[0.0, 0.0, -np.pi], upper=[1.0, np.inf, np.pi])
    return LatentModel("car1", pv)


def _car1_rotation(model: LatentModel) -> float:
    """The rotation of a car1 model: its free gamma, else the fixed one."""
    return model.value("gamma") if len(model.params) == 3 else model.rotation


def ou_model(amp: float, lam: float, delta: float = 1.0 / 12.0,
             rotation_cpd: float = 0.0) -> LatentModel:
    pv = ParameterVector(["A", "lam"], [amp, lam], lower=[0.0, 0.0])
    return LatentModel("ou", pv, delta=delta, rotation=rotation_cpd)


def matern_model(b: float, h: float, alpha: float, delta: float = 1.0 / 12.0) -> LatentModel:
    pv = ParameterVector(["B", "h", "alpha"], [b, h, alpha],
                         lower=[0.0, 0.0, 0.5])
    return LatentModel("matern", pv, delta=delta)


# ----------------------------------------------------------------------
# OU <-> AR(1) parameter transform
# ----------------------------------------------------------------------

def ou_to_ar(amp: float, lam: float, delta: float) -> tuple[float, float]:
    """Map OU (A, lam) at sampling interval delta to AR(1) (r, sigma).

    r = exp(-lam*delta), sigma^2 = A^2 (1 - exp(-lam*delta)) / (2 lam delta).
    """
    if lam <= 0 or delta <= 0 or amp <= 0:
        raise ValueError("ou_to_ar requires A > 0, lam > 0, delta > 0")
    r = math.exp(-lam * delta)
    sigma2 = amp * amp * (1.0 - r) / (2.0 * lam * delta)
    return r, math.sqrt(sigma2)


def ar_to_ou(r: float, sigma: float, delta: float) -> tuple[float, float]:
    """Inverse of :func:`ou_to_ar`."""
    if not (0.0 < r < 1.0) or sigma <= 0 or delta <= 0:
        raise ValueError("ar_to_ou requires 0 < r < 1, sigma > 0, delta > 0")
    lam = -math.log(r) / delta
    amp2 = sigma * sigma * 2.0 * lam * delta / (1.0 - r)
    return math.sqrt(amp2), lam


# ----------------------------------------------------------------------
# autocovariance
# ----------------------------------------------------------------------

def _ar_autocov(phi: np.ndarray, sigma: float, nlags: int) -> np.ndarray:
    """AR(p) autocovariance c(0..nlags-1) via Yule-Walker then recursion."""
    p = phi.size
    if p == 0:
        c = np.zeros(nlags)
        c[0] = sigma * sigma
        return c
    # linear system for c(0..p): c(k) - sum_j phi_j c(|k-j|) = sigma^2 * (k==0)
    a = np.zeros((p + 1, p + 1))
    for k in range(p + 1):
        a[k, k] += 1.0
        for j in range(1, p + 1):
            a[k, abs(k - j)] -= phi[j - 1]
    rhs = np.zeros(p + 1)
    rhs[0] = sigma * sigma
    c_head = np.linalg.solve(a, rhs)
    n = max(nlags, p + 1)
    c = np.zeros(n)
    c[: p + 1] = c_head
    for k in range(p + 1, n):
        c[k] = phi @ c[k - 1: k - 1 - p: -1]
    return c[:nlags]


def _ma_autocov(theta: np.ndarray, sigma: float, nlags: int) -> np.ndarray:
    psi = np.concatenate(([1.0], theta))
    c = np.zeros(nlags)
    q = theta.size
    for tau in range(min(nlags, q + 1)):
        c[tau] = sigma * sigma * np.dot(psi[: psi.size - tau], psi[tau:])
    return c


def _geometric_lag_cap(r: float, nlags: int) -> int:
    """Lags kept by :func:`geometric_acv`: |r|^tau <= ACV_EPS for tau >= cap."""
    ar = abs(r)
    if ar == 0.0:
        return min(nlags, 1)
    if not ar < 1.0:
        return nlags
    cap = math.floor(math.log(ACV_EPS) / math.log(ar)) + 1
    return int(min(nlags, cap))


def geometric_acv(r: float, sigma: float, nlags: int,
                  rotation: float = 0.0) -> np.ndarray:
    """sigma^2/(1-r^2) r^tau e^{i rotation tau} at lags 0..nlags-1.

    The autocovariance of an AR(1) with coefficient r (|r| < 1, real or the
    modulus of a complex AR(1)) and innovation variance sigma^2.  Truncated at
    working precision: lags from tau = floor(log eps / log|r|) + 1 on, where
    |r|^tau <= eps = ACV_EPS, are left at zero, so the dropped tail sums to
    at most eps c(0) / (1 - |r|).  r = 0 keeps lag 0 only.
    """
    keep = _geometric_lag_cap(r, nlags)
    tau = np.arange(keep, dtype=float)
    head = sigma * sigma / (1.0 - r * r) * np.power(r, tau)
    if rotation:
        head = head * np.exp(1j * rotation * tau)
    out = np.zeros(nlags, dtype=head.dtype)
    out[:keep] = head
    return out


def _matern_lag_cap(h: float, alpha: float, delta: float, nlags: int) -> int:
    """Lags kept by :func:`matern_acv`: c(tau) <= ACV_EPS c(0) for tau >= cap.

    With nu = alpha - 1/2 and x = h delta tau the Matern correlation is
    c(tau)/c(0) = 2^{1-nu}/Gamma(nu) x^nu K_nu(x), decreasing in x.  Bounding
    (1 + u/2x)^{nu-1/2} inside the integral form of K_nu gives the envelope

        K_nu(x) <= sqrt(pi/(2x)) e^{-x} (1 - m/(2x))^{-(nu+1/2)},
        m = max(nu - 1/2, 0),  2x > m,

    so the correlation is at most C x^{nu-1/2} e^{-x} (1 - m/(2x))^{-(nu+1/2)}
    with C = 2^{1/2-nu} sqrt(pi)/Gamma(nu).  The cap is the first lag past the
    x where that envelope reaches ACV_EPS: x = 36.8 at alpha = 1 (where the
    correlation is exactly e^{-x}), growing with nu to 45.7 at alpha = 4.
    """
    nu = alpha - 0.5
    m = max(nu - 0.5, 0.0)
    log_c = ((0.5 - nu) * math.log(2.0) + 0.5 * math.log(math.pi)
             - float(gammaln(nu)) - math.log(ACV_EPS))

    def log_excess(x):  # log(envelope / ACV_EPS)
        return log_c + (nu - 0.5) * math.log(x) - x \
            - (nu + 0.5) * math.log1p(-m / (2.0 * x))

    # on x >= 2m + 1 the slope of log_excess lies in (-7/6, -1/2), so the
    # steps x += log_excess(x) contract onto the root by a factor of at
    # least 2 each; a last 0.01 step covers the residual
    lo = 2.0 * m + 1.0
    x = max(log_c, lo)
    step = log_excess(x)
    while abs(step) > 1e-3 and x > lo:
        x = max(x + step, lo)
        step = log_excess(x)
    while step > 0.0:
        x += 0.01
        step = log_excess(x)
    lags = x / (h * delta)
    if not lags < nlags:  # also NaN parameters, which give a NaN table
        return nlags
    return min(nlags, math.ceil(lags) + 1)


def _matern_scale(b: float, h: float, alpha: float) -> float:
    return b * b / (2.0 * math.sqrt(math.pi) * gamma_fn(alpha) * h ** (2.0 * alpha - 1.0))


def _matern_table(b: float, h: float, alpha: float, delta: float, keep: int,
                  nlags: int) -> np.ndarray:
    """The Matern autocovariance at lags 0..keep-1, zero-padded to nlags."""
    nu = alpha - 0.5
    t = np.arange(keep) * delta
    scale = _matern_scale(b, h, alpha)
    c = np.zeros(nlags)
    c[0] = scale * gamma_fn(nu)
    if keep > 1:
        x = h * t[1:]
        c[1:keep] = scale * 2.0 ** (1.0 - nu) * x ** nu * kv(nu, x)
    return c


def matern_acv(b: float, h: float, alpha: float, delta: float, nlags: int) -> np.ndarray:
    """Exact sampled Matern autocovariance at lags 0..nlags-1.

    c(t) = B^2 * 2^{3/2-alpha} / (2 sqrt(pi) Gamma(alpha) h^{2alpha-1})
               * (h|t|)^{alpha-1/2} K_{alpha-1/2}(h|t|),  t = tau*delta,
    with the tau=0 limit B^2 Gamma(alpha-1/2) / (2 sqrt(pi) Gamma(alpha)
    h^{2alpha-1}).  Matches B^2/(2h) exp(-h|t|) at alpha=1.  Truncated at
    working precision: lags from :func:`_matern_lag_cap` on, all at most
    ACV_EPS c(0), are left at zero instead of paying for K_nu there.
    """
    keep = _matern_lag_cap(h, alpha, delta, nlags)
    return _matern_table(b, h, alpha, delta, keep, nlags)


def autocov_sequence(model: LatentModel, nlags: int) -> np.ndarray:
    """c_X(0..nlags-1) as one array (the hot path for expected periodograms).

    Geometric (AR(1), car1, ou) and Matern tables are zero past the lag where
    they have decayed below working precision; see :func:`geometric_acv` and
    :func:`matern_acv`.
    """
    f = model.family
    if f in ("ar", "ma"):
        coefs, sigma = _ar_coeffs(model)
        if f == "ar":
            if coefs.size == 1:
                return geometric_acv(float(coefs[0]), sigma, nlags)
            return _ar_autocov(coefs, sigma, nlags)
        return _ma_autocov(coefs, sigma, nlags)
    if f == "car1":
        return geometric_acv(model.value("r"), model.value("sigma"),
                             nlags, _car1_rotation(model))
    if f == "ou":
        r, sig = ou_to_ar(model.value("A"), model.value("lam"), model.delta)
        return geometric_acv(r, sig, nlags,
                             2.0 * np.pi * model.delta * model.rotation)
    if f == "matern":
        return matern_acv(model.value("B"), model.value("h"),
                          model.value("alpha"), model.delta, nlags)
    raise ValueError(f"unknown family {f!r}")  # pragma: no cover


def _matern_acv_grad(b: float, h: float, alpha: float, delta: float,
                     nlags: int) -> tuple[np.ndarray, np.ndarray]:
    """matern_acv and its (B, h, alpha) derivatives on the kept lags.

    B and h are closed form: c is proportional to B^2 h^{1-2alpha} x^nu
    K_nu(x) with x = h delta tau, and d/dx[x^nu K_nu(x)] = -x^nu K_{|nu-1|}(x).
    alpha is a central difference of the table alone, step
    MATERN_ALPHA_STEP max(1, alpha), on the lags kept at alpha (a forward
    difference where the backward point would leave alpha > 1/2).
    """
    keep = _matern_lag_cap(h, alpha, delta, nlags)
    c = _matern_table(b, h, alpha, delta, keep, nlags)
    head = c[:keep]
    jac = np.empty((3, keep))
    jac[0] = 2.0 * head / b if b > 0 else 0.0
    nu = alpha - 0.5
    jac[1] = head * (1.0 - 2.0 * alpha) / h
    if keep > 1:
        x = h * (np.arange(1, keep) * delta)
        jac[1, 1:] -= (_matern_scale(b, h, alpha) * 2.0 ** (1.0 - nu)
                       * x ** (nu + 1.0) * kv(abs(nu - 1.0), x) / h)
    step = MATERN_ALPHA_STEP * max(1.0, alpha)
    up = _matern_table(b, h, alpha + step, delta, keep, keep)
    if alpha - step > 0.5:
        down = _matern_table(b, h, alpha - step, delta, keep, keep)
        jac[2] = (up - down) / (2.0 * step)
    else:
        jac[2] = (up - head) / step
    return c, jac


def has_acv_grad(model: LatentModel) -> bool:
    """Whether :func:`autocov_grad` serves model: a GRADIENT_FAMILIES family,
    AR of order 1 only."""
    return model.family in GRADIENT_FAMILIES and (model.family != "ar"
                                                  or len(model.params) == 2)


def autocov_grad(model: LatentModel, nlags: int) -> tuple[np.ndarray, np.ndarray]:
    """c_X(0..nlags-1) with its derivatives in the free parameters.

    Returns (acv, jac): acv equals :func:`autocov_sequence`, and jac has one
    row per parameter over the lags 0..L-1 where acv is not truncated to
    zero, so callers sum derivatives over that support only.  The models of
    :func:`has_acv_grad` only: AR(1), car1 (with a fixed or a free rotation)
    and ou in closed form from the geometric table, matern from
    :func:`_matern_acv_grad`.
    """
    f = model.family
    if not has_acv_grad(model):
        raise ValueError(f"no autocovariance gradient for family {f!r} "
                         f"with {len(model.params)} parameters")
    if f == "matern":
        return _matern_acv_grad(model.value("B"), model.value("h"),
                                model.value("alpha"), model.delta, nlags)
    c = autocov_sequence(model, nlags)
    if f == "ou":
        r, _ = ou_to_ar(model.value("A"), model.value("lam"), model.delta)
    else:
        r, sigma = (float(v) for v in model.params.values[:2])
    head = c[:_geometric_lag_cap(r, nlags)]
    tau = np.arange(head.size)
    if f != "ou":
        # c = sigma^2 / (1 - r^2) r^tau e^{i gamma tau}, r in (-1, 1) for AR(1)
        if r == 0.0:
            # the table stops at lag 0, but dc(1)/dr = sigma^2 e^{i gamma}
            head = c[:min(nlags, 2)]
            tau = np.arange(head.size)
            rot = _car1_rotation(model) if f == "car1" else 0.0
            d_r = np.zeros_like(head)
            d_r[1:] = sigma * sigma * (np.exp(1j * rot) if rot else 1.0)
        else:
            d_r = head * (2.0 * r / (1.0 - r * r) + tau / r)
        rows = [d_r, 2.0 * head / sigma]
        if len(model.params) == 3:  # car1 with a free gamma
            rows.append(1j * tau * head)
        return c, np.stack(rows)
    # c = A^2 q(lam) e^{-lam delta tau} e^{i rho tau},
    # q = 1 / (2 lam delta (1 + e^{-lam delta})), and r = e^{-lam delta}
    amp, lam, delta = model.value("A"), model.value("lam"), model.delta
    d_lam = head * (-1.0 / lam + delta * r / (1.0 + r) - delta * tau)
    return c, np.stack((2.0 * head / amp, d_lam))


def autocov(model: LatentModel, tau) -> np.ndarray | float | complex:
    """c_X(tau; theta) at non-negative integer lags (scalar or array).

    The Hermitian extension c(-tau) = conj(c(tau)) is implied; callers that
    need negative lags conjugate.
    """
    tau_arr = np.atleast_1d(np.asarray(tau))
    if not np.issubdtype(tau_arr.dtype, np.integer):
        if np.any(tau_arr != np.round(tau_arr)):
            raise ValueError("lags must be non-negative integers")
        tau_arr = tau_arr.astype(int)
    if np.any(tau_arr < 0):
        raise ValueError("lags must be non-negative integers")
    out = autocov_sequence(model, int(tau_arr.max()) + 1)[tau_arr]
    if np.isscalar(tau) or np.ndim(tau) == 0:
        return out[0]
    return out


# ----------------------------------------------------------------------
# spectral densities
# ----------------------------------------------------------------------

def sdf(model: LatentModel, omega) -> np.ndarray | float:
    """Model spectral density.

    For the discrete families (ar, ma, car1) omega is in radians per sample
    and the value is f_X(w) = sum_tau c(tau) e^{-i w tau}.  For ou and matern
    omega is the continuous-model frequency argument (the inertial peak sits
    at the rotation frequency; see module docstring for the unit bookkeeping)
    and the analytic shapes A^2/((w-w_f)^2+lam^2), B^2/(w^2+h^2)^alpha are
    returned.
    """
    w = np.asarray(omega, dtype=float)
    f = model.family
    if f == "ar":
        phi, sigma = _ar_coeffs(model)
        z = np.exp(-1j * np.multiply.outer(w, np.arange(1, phi.size + 1)))
        denom = np.abs(1.0 - z @ phi) ** 2 if phi.size else np.ones_like(w)
        out = sigma * sigma / denom
    elif f == "ma":
        theta, sigma = _ar_coeffs(model)
        z = np.exp(-1j * np.multiply.outer(w, np.arange(1, theta.size + 1)))
        out = sigma * sigma * np.abs(1.0 + (z @ theta if theta.size else 0.0)) ** 2
    elif f == "car1":
        r, sigma = model.value("r"), model.value("sigma")
        out = sigma * sigma / (1.0 + r * r - 2.0 * r * np.cos(w - _car1_rotation(model)))
    elif f == "ou":
        amp, lam = model.value("A"), model.value("lam")
        out = amp * amp / ((w - model.rotation) ** 2 + lam * lam)
    elif f == "matern":
        b, h, alpha = model.value("B"), model.value("h"), model.value("alpha")
        out = b * b / (w * w + h * h) ** alpha
    else:  # pragma: no cover
        raise ValueError(f"unknown family {f!r}")
    return out if np.ndim(omega) else float(out)


def has_sdf_grad(model: LatentModel) -> bool:
    """Whether :func:`sdf_grad` serves model: AR(1), or car1 with a fixed or
    a free rotation."""
    return model.family == "car1" or (model.family == "ar" and len(model.params) == 2)


def sdf_grad(model: LatentModel, omega) -> np.ndarray:
    """Derivatives of sdf_sampled at the frequencies omega in the free parameters.

    Returns jac with jac[j] = df/dtheta_j at every omega, for the models of
    :func:`has_sdf_grad`: with f = sigma^2 / D and
    D = 1 + r^2 - 2 r cos(w - gamma) (gamma = 0 for an AR(1), r = phi_1),

        df/dr = f (2 cos(w - gamma) - 2 r) / D,   df/dsigma = 2 f / sigma,
        df/dgamma = 2 r f sin(w - gamma) / D      (car1 with a free gamma).
    """
    if not has_sdf_grad(model):
        raise ValueError(f"no sdf gradient for family {model.family!r} "
                         f"with {len(model.params)} parameters")
    w = np.asarray(omega, dtype=float)
    r, sigma = (float(v) for v in model.params.values[:2])
    shifted = w - _car1_rotation(model) if model.family == "car1" else w
    denom = 1.0 + r * r - 2.0 * r * np.cos(shifted)
    f = sigma * sigma / denom
    f_over_d = f / denom
    rows = [f_over_d * (2.0 * np.cos(shifted) - 2.0 * r), 2.0 * f / sigma]
    if len(model.params) == 3:
        rows.append(2.0 * r * f_over_d * np.sin(shifted))
    return np.stack(rows)


def sdf_sampled(model: LatentModel, omega) -> np.ndarray | float:
    """Discrete-time sdf f_X(w) = sum_tau c(tau) e^{-i w tau}, w rad/sample.

    Exact closed forms for ar/ma/car1/ou; for matern a Hermitian lag sum
    truncated where the autocovariance has decayed below working precision.
    """
    w = np.asarray(omega, dtype=float)
    f = model.family
    if f in ("ar", "ma", "car1"):
        out = sdf(model, w)
    elif f == "ou":
        r, sig = ou_to_ar(model.value("A"), model.value("lam"), model.delta)
        rot = 2.0 * np.pi * model.delta * model.rotation
        out = sig * sig / (1.0 + r * r - 2.0 * r * np.cos(w - rot))
    elif f == "matern":
        nlags = max(8, _matern_lag_cap(model.value("h"), model.value("alpha"),
                                       model.delta, 1 << 18))
        c = matern_acv(model.value("B"), model.value("h"), model.value("alpha"),
                       model.delta, nlags)
        taus = np.arange(1, nlags)
        out = c[0] + 2.0 * np.cos(np.multiply.outer(w, taus)) @ c[1:]
    else:  # pragma: no cover
        raise ValueError(f"unknown family {f!r}")
    return out if np.ndim(omega) else float(out)


# ----------------------------------------------------------------------
# JSON round trip
# ----------------------------------------------------------------------

def model_to_json(model: LatentModel) -> str:
    payload = {
        "family": model.family,
        "params": model.params.asdict(),
        "bounds": {
            n: [_num(lo), _num(hi)]
            for n, lo, hi in zip(model.params.names, model.params.lower,
                                 model.params.upper)
        },
        "delta": model.delta,
        "rotation": model.rotation,
    }
    return json.dumps(payload)


def _num(x: float):
    return None if not np.isfinite(x) else float(x)


def model_from_json(text: str | dict) -> LatentModel:
    obj = json.loads(text) if isinstance(text, str) else dict(text)
    family = obj["family"]
    params = obj["params"]
    names = list(params.keys())
    values = np.array([params[n] for n in names], dtype=float)
    bounds = obj.get("bounds", {})
    lower = np.array([
        -np.inf if bounds.get(n, [None, None])[0] is None else bounds[n][0]
        for n in names
    ])
    upper = np.array([
        np.inf if bounds.get(n, [None, None])[1] is None else bounds[n][1]
        for n in names
    ])
    pv = ParameterVector(names, values, lower=lower, upper=upper)
    return LatentModel(family, pv, delta=float(obj.get("delta", 1.0)),
                       rotation=float(obj.get("rotation", 0.0)))
