"""Parametric stationary latent-process families.

Families
--------
ar      : real AR(1), X_t = phi_1 X_{t-1} + sigma e_t, params (phi_1, sigma),
          or white noise (AR(0)), params (sigma); unit sampling
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

The Matern Bessel factor K_nu, its neighbour K_{nu-1} (for d/dh) and its
order derivative dK_nu/dnu (for d/dalpha) are trapezoid sums of
K_nu(x) = int_0^inf e^{-x cosh t} cosh(nu t) dt over one exponential table per
block of lags (:func:`_matern_bessel`), so every Matern derivative is closed
form.

Each family has one autocovariance implementation on raw float parameter
values (:func:`acv_entry`), and the discrete families ar and car1 one sdf
implementation (:func:`sdf_entry`) and one of their pole z (:func:`pole_entry`,
f_X = sigma^2 / |1 - z e^{iw}|^2); objectives call them directly, and
:func:`autocov_sequence` reads a :class:`LatentModel` through them.  Every
acv is closed form with a closed-form parameter derivative: the geometric
table of an AR(1), car1 or ou (white noise is its r = 0 case), and the
Matern table.  So are the sdf and the pole of ar and car1.  ou and matern
have no discrete-time sdf: the modulated Whittle likelihood with g = 1
(``constant_modulator(n)``), the debiased Whittle likelihood, fits them from
their acv.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import ParameterVector

__all__ = [
    "LatentModel",
    "ar_model",
    "car1_model",
    "ou_model",
    "matern_model",
    "scale_index",
    "ou_to_ar",
    "ar_to_ou",
    "model_from_json",
]

_FAMILIES = ("ar", "car1", "ou", "matern")

# working precision of the latent acv tables: the geometric and Matern tables
# leave at zero every lag whose value is at most ACV_EPS * c(0)
ACV_EPS = 1e-16

# the scale parameter of each family: its acv and sdf are proportional to
# scale^2, with every other parameter fixed
SCALE_PARAMS = {"ar": "sigma", "car1": "sigma", "ou": "A", "matern": "B"}
# the trapezoid rule behind every Matern table (see _matern_bessel): the node
# spacing in t, the drop (a log) past which a lag block's nodes stop, and the
# x = h delta tau where the lags split into blocks, so that the many large-x
# lags need only 15-40 nodes
MATERN_NODE_STEP = 0.1
MATERN_TAIL = 40.0
MATERN_BLOCK_EDGES = (1.0, 6.0)


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


def scale_index(model: LatentModel) -> int:
    """Position in the parameter vector of the model's SCALE_PARAMS entry."""
    return list(model.params.names).index(SCALE_PARAMS[model.family])


# Each family's parameters as raw floats: every check returns the values it
# reads, or raises ValueError outside the stationary region.

def _check_ar(values):
    """(phi or None, sigma) of AR(1) values, or of white noise (sigma)."""
    if not 1 <= len(values) <= 2:
        raise ValueError("an AR model has order 0 or 1")
    sigma = float(values[-1])
    if sigma < 0:
        raise ValueError("innovation scale sigma must be non-negative")
    if len(values) == 1:
        return None, sigma
    phi = float(values[0])
    if not abs(phi) < 1.0 - 1e-12:
        raise ValueError("AR parameters are not stationary")
    return phi, sigma


def _check_car1(values):
    """(r, sigma, gamma or None) of car1 values."""
    r, sigma = float(values[0]), float(values[1])
    if not (0.0 <= r < 1.0):
        raise ValueError("car1 requires 0 <= r < 1")
    if sigma <= 0:
        raise ValueError("car1 requires sigma > 0")
    return r, sigma, (float(values[2]) if len(values) == 3 else None)


def _check_ou(values):
    """(A, lam) of ou values."""
    amp, lam = float(values[0]), float(values[1])
    if amp <= 0 or lam <= 0:
        raise ValueError("ou requires A > 0 and lam > 0")
    return amp, lam


def _check_matern(values):
    """(B, h, alpha) of matern values."""
    b, h, alpha = float(values[0]), float(values[1]), float(values[2])
    if b < 0 or h <= 0:
        raise ValueError("matern requires B >= 0 and h > 0")
    if alpha <= 0.5:
        raise ValueError("matern requires alpha > 1/2 (integrability)")
    return b, h, alpha


_CHECKS = {"ar": _check_ar, "car1": _check_car1, "ou": _check_ou,
           "matern": _check_matern}


def validate_stationary(model: LatentModel):
    """Raise ValueError when the parameters leave the stationary region."""
    _CHECKS[model.family](model.params.values)


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def ar_model(phi, sigma: float) -> LatentModel:
    """Real AR(1) with coefficient phi = [phi_1], bounded to (-1, 1), its
    stationary region; an empty phi gives white noise.  Any other order
    raises ValueError."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    names = [f"phi{j + 1}" for j in range(phi.size)] + ["sigma"]
    pv = ParameterVector(names, np.concatenate((phi, [sigma])),
                         lower=[-1.0] * phi.size + [0.0],
                         upper=[1.0] * phi.size + [np.inf])
    return LatentModel("ar", pv)


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
    if r == 1.0:  # lam delta below 2^-54: sigma = 0, and c(0) would be 0 / 0
        raise ValueError("ou_to_ar requires lam delta above working precision")
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

def _geometric_lag_cap(r: float, nlags: int) -> int:
    """Lags kept by the geometric table of an AR(1), car1 or ou: |r|^tau <=
    ACV_EPS for tau >= cap.

    The table sigma^2/(1-r^2) r^tau e^{i rotation tau} stops at working
    precision: lags from tau = floor(log eps / log|r|) + 1 on, where
    |r|^tau <= eps = ACV_EPS, are left at zero, so the dropped tail sums to
    at most eps c(0) / (1 - |r|).  r = 0 keeps lag 0 only.
    """
    ar = abs(r)
    if ar == 0.0:
        return min(nlags, 1)
    if not ar < 1.0:
        return nlags
    cap = math.floor(math.log(ACV_EPS) / math.log(ar)) + 1
    return int(min(nlags, cap))


def _geometric_head(r: float, sigma: float, keep: int, rotation: float) -> np.ndarray:
    """sigma^2/(1-r^2) r^tau e^{i rotation tau} at lags 0..keep-1."""
    tau = np.arange(keep, dtype=float)
    head = sigma * sigma / (1.0 - r * r) * np.power(r, tau)
    if rotation:
        head = head * np.exp(1j * rotation * tau)
    return head


def _padded(head: np.ndarray, nlags: int) -> np.ndarray:
    """head followed by zeros up to nlags lags."""
    if head.size == nlags:
        return head
    out = np.zeros(nlags, dtype=head.dtype)
    out[:head.size] = head
    return out


def _geometric(r: float, sigma: float, nlags: int, rotation: float, grad: bool,
               free_rotation: bool):
    """The geometric acv at its kept lags and, with grad, its derivative rows
    in r, and in the rotation when it is free (the scale's is
    :func:`with_scale_row`'s).

    With c = sigma^2 / (1 - r^2) r^tau e^{i gamma tau}: dc/dr = c (2r / (1 -
    r^2) + tau / r) and dc/dgamma = i tau c.  At
    |r| < ACV_EPS (r = 0 included) the table stops at lag 0, but dc(1)/dr =
    c(0) e^{i gamma}, so with grad it keeps lag 1 (a zero) too.
    """
    keep = _geometric_lag_cap(r, nlags)
    head = _geometric_head(r, sigma, keep, rotation)
    if not grad:
        return head, None
    if keep > 1:
        d_r = head * (2.0 * r / (1.0 - r * r) + np.arange(keep) / r)
    else:
        head = _padded(head, min(nlags, 2))
        d_r = head * (2.0 * r / (1.0 - r * r))
        d_r[1:] = head[0] * (np.exp(1j * rotation) if rotation else 1.0)
    if not free_rotation:
        return head, d_r[None]
    return head, np.stack((d_r, 1j * np.arange(head.size) * head))


@functools.cache
def _special():
    """scipy.special, imported on the first Matern table or lag cap: no other
    family needs it, and its import costs about 0.12 s and 25 MB."""
    import scipy.special
    return scipy.special


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
             - float(_special().gammaln(nu)) - math.log(ACV_EPS))

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
    # two divisions, so a large alpha and h underflow to 0 rather than
    # overflowing the denominator
    gamma = _special().gamma(alpha)
    return b * b / (2.0 * math.sqrt(math.pi) * gamma) / h ** (2.0 * alpha - 1.0)


def _matern_node_count(nu: float, x: float) -> int:
    """Trapezoid nodes t_j = j MATERN_NODE_STEP, j < count, of a lag block
    whose smallest x is x.

    Every weight of :func:`_matern_bessel` is at most t e^{m t} with
    m = max(nu, |nu - 1|), so its integrands are bounded by e^{phi(t)},
    phi(t) = m t - x cosh t, which peaks at t_p = asinh(m/x).  The nodes stop
    at the first one past the t where phi has fallen MATERN_TAIL below
    phi(t_p): the root of the convex f(t) = x cosh t - m t - c on t > t_p,
    c = MATERN_TAIL + hypot(x, m) - m t_p.  Newton starts left of the root at
    cosh t = 1 + (MATERN_TAIL + hypot - x)/x (written with asinh, so a huge x
    keeps it past t_p), steps once past the root, and then descends onto it
    from above.  A larger x falls faster, so the block's other lags fall
    further by the last node.
    """
    m = max(nu, abs(nu - 1.0))
    t_p = math.asinh(m / x)
    hyp = math.hypot(x, m)
    c = MATERN_TAIL + hyp - m * t_p
    t = 2.0 * math.asinh(math.sqrt((MATERN_TAIL + m * m / (hyp + x)) / (2.0 * x)))
    step = math.inf
    while abs(step) >= 1e-3:  # NaN parameters stop at once
        step = (x * math.cosh(t) - m * t - c) / (x * math.sinh(t) - m)
        t -= step
    return math.ceil(t / MATERN_NODE_STEP) + 1 if math.isfinite(t) else 1


def _matern_bessel(nu: float, x: np.ndarray, grad: bool) -> np.ndarray:
    """Rows x^nu K_nu(x) and, with grad, x^nu K_{nu-1}(x) and
    x^nu dK_nu/dnu(x), at the ascending x > 0.

    All three are trapezoid sums of K_nu(x) = int_0^inf e^{-x cosh t}
    cosh(nu t) dt (DLMF 10.32.9), which converge exponentially in the node
    spacing (Trefethen & Weideman 2014, SIAM Review 56:385), read from one
    table per lag block,

        E_ij = exp(nu (log x_i + t_j) - x_i cosh t_j),

    with the weights cosh(nu t), cosh((nu - 1) t) and t sinh(nu t), each times
    e^{-nu t}.  Folding x^nu e^{nu t} into the exponent keeps E finite where
    x^nu and cosh(nu t) alone overflow (alpha up to 80 at h = 0.05).  The lags
    split into blocks at MATERN_BLOCK_EDGES, each with the nodes of
    :func:`_matern_node_count` at its smallest x, and each lag's sum over
    nodes is one dot product over the node axis, in an order set by the node
    count alone (einsum, not a BLAS product, whose order depends on the block
    width).  So a lag's value depends only on its block's first lag and the
    rows asked for do not change it: a truncated table equals the head of the
    untruncated one bit for bit, and the value rows equal the grad rows.
    """
    cuts = [0, *np.searchsorted(x, MATERN_BLOCK_EDGES), x.size]
    blocks = [(lo, hi, _matern_node_count(nu, float(x[lo])))
              for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    out = np.empty((x.size, 3 if grad else 1))
    if blocks:
        t = MATERN_NODE_STEP * np.arange(max(n for _, _, n in blocks))
        rate = -2.0 * nu * t
        decay = np.exp(rate)
        weights = np.empty((out.shape[1], t.size))
        np.add(1.0, decay, out=weights[0])
        if grad:  # e^{-t} + e^{(1-2nu)t} and t (1 - e^{-2nu t})
            e_t = np.exp(-t)
            np.add(e_t, decay / e_t, out=weights[1])
            np.multiply(-t, np.expm1(rate), out=weights[2])
        weights *= 0.5 * MATERN_NODE_STEP
        weights[:, 0] *= 0.5  # the trapezoid's end node; the integrands are even in t
        minus_cosh, nu_t = -np.cosh(t), nu * t
        nu_log_x = nu * np.log(x)
        for lo, hi, n in blocks:
            table = np.multiply.outer(x[lo:hi], minus_cosh[:n])
            table += nu_log_x[lo:hi, None]
            table += nu_t[:n]
            np.exp(table, out=table)
            # one dot product over the contiguous node axis per lag and row
            out[lo:hi] = np.einsum("ij,kj->ik", table, weights[:, :n])
    return out.T


def _matern_table(b: float, h: float, alpha: float, delta: float, keep: int,
                  nlags: int, grad: bool = False):
    """The Matern autocovariance at lags 0..keep-1, zero-padded to nlags, and,
    with grad, its (h, alpha) derivatives on those lags (else None); the B
    row is :func:`with_scale_row`'s.

    With nu = alpha - 1/2, x = h delta tau and the scale S of
    :func:`_matern_scale`, c(0) = S Gamma(nu) and c = S 2^{1-nu} x^nu K_nu(x)
    from :func:`_matern_bessel`.  Every derivative is closed form: h from
    d/dx[x^nu K_nu(x)] = -x^nu K_{nu-1}(x); alpha from
    d log S/d alpha = -psi(alpha) - 2 log h, which gives
    c(0) (psi(nu) - psi(alpha) - 2 log h) at lag 0 and
    c (-psi(alpha) - 2 log h - log 2 + log x) + S 2^{1-nu} x^nu dK_nu/dnu
    past it.
    """
    nu = alpha - 0.5
    scale = _matern_scale(b, h, alpha)
    x = h * (np.arange(1, keep) * delta)
    bessel = _matern_bessel(nu, x, grad)
    front = scale * 2.0 ** (1.0 - nu)
    c = np.zeros(nlags)
    c[0] = scale * _special().gamma(nu)
    c[1:keep] = front * bessel[0]
    if not grad:
        return c, None
    head = c[:keep]
    jac = np.empty((2, keep))
    jac[0] = head * ((1.0 - 2.0 * alpha) / h)
    jac[0, 1:] -= (front / h) * x * bessel[1]
    digamma = _special().digamma
    d_log_scale = -float(digamma(alpha)) - 2.0 * math.log(h)
    jac[1, 0] = head[0] * (float(digamma(nu)) + d_log_scale)
    jac[1, 1:] = (np.log(x) + (d_log_scale - math.log(2.0))) * head[1:] + front * bessel[2]
    return c, jac


def matern_acv(b: float, h: float, alpha: float, delta: float, nlags: int) -> np.ndarray:
    """Exact sampled Matern autocovariance at lags 0..nlags-1.

    c(t) = B^2 * 2^{3/2-alpha} / (2 sqrt(pi) Gamma(alpha) h^{2alpha-1})
               * (h|t|)^{alpha-1/2} K_{alpha-1/2}(h|t|),  t = tau*delta,
    with the tau=0 limit B^2 Gamma(alpha-1/2) / (2 sqrt(pi) Gamma(alpha)
    h^{2alpha-1}).  Matches B^2/(2h) exp(-h|t|) at alpha=1.  K_nu comes from
    the trapezoid table of :func:`_matern_bessel`.  Truncated at working
    precision: lags from :func:`_matern_lag_cap` on, all at most ACV_EPS c(0),
    are left at zero instead of paying for K_nu there.
    """
    return _padded(_acv_matern((b, h, alpha), nlags, False, delta, 0.0)[0], nlags)


# ----------------------------------------------------------------------
# raw-float entries
# ----------------------------------------------------------------------
#
# One autocovariance per family, and one spectral density and one pole per
# discrete family (ar, car1), on raw float parameter values (the layout of the
# family's ParameterVector), with the model's delta and fixed rotation as
# keywords:
#
#     acv entry (values, nlags, grad, delta, rotation) -> (c at lags 0..L-1, jac)
#     sdf entry (shifted, half, values, grad) -> (f_X at omega, jac)
#     pole entry (turn, values, grad) -> (z, dz)
#
# L <= nlags is the table's kept support (the lags past it are zero), and jac
# holds one derivative row per parameter but the scale (SCALE_PARAMS), in
# the order of the values (None without grad), over lags 0..L-1, or at each
# omega.  Every table and sdf is proportional to scale^2, so the scale's row
# is 2 c / scale: an objective evaluates at unit scale and never reads it,
# and :func:`with_scale_row` puts it back for the others.  An sdf takes
# omega - rotation for a fixed car1 rotation, and half, the sine and cosine
# of its half (see :func:`sdf_entry`).  The pole z of an ar or car1, f_X =
# sigma^2 / |1 - z e^{iw}|^2, is a Python float or complex, and dz a tuple of
# its derivatives in the same parameters as jac (None without grad).  Each
# raises the ValueError of validate_stationary outside the model class.
# autocov_sequence and Objective evaluations both run these, so every family
# has one implementation.

def _acv_ar(values, nlags, grad, delta, rotation):
    # the geometric table; white noise is its r = 0 case without the r row
    phi, sigma = _check_ar(values)
    if phi is not None:
        return _geometric(phi, sigma, nlags, 0.0, grad, False)
    head, jac = _geometric(0.0, sigma, min(nlags, 1), 0.0, grad, False)
    return head, (None if jac is None else jac[1:])


def _acv_car1(values, nlags, grad, delta, rotation):
    r, sigma, gamma = _check_car1(values)
    return _geometric(r, sigma, nlags, rotation if gamma is None else gamma, grad,
                      gamma is not None)


def _acv_ou(values, nlags, grad, delta, rotation):
    # c = A^2 q(lam) e^{-lam delta tau} e^{i rho tau},
    # q = 1 / (2 lam delta (1 + e^{-lam delta})), and r = e^{-lam delta}
    amp, lam = _check_ou(values)
    r, sig = ou_to_ar(amp, lam, delta)
    head, _ = _geometric(r, sig, nlags, 2.0 * np.pi * delta * rotation, False, False)
    if not grad:
        return head, None
    tau = np.arange(head.size)
    d_lam = head * (-1.0 / lam + delta * r / (1.0 + r) - delta * tau)
    return head, d_lam[None]


def _acv_matern(values, nlags, grad, delta, rotation):
    b, h, alpha = _check_matern(values)
    keep = _matern_lag_cap(h, alpha, delta, nlags)
    return _matern_table(b, h, alpha, delta, keep, keep, grad)


def _half_angle(shifted: np.ndarray) -> tuple:
    """(sin, cos) of shifted / 2."""
    return np.sin(0.5 * shifted), np.cos(0.5 * shifted)


def _car1_sdf(r: float, sigma: float, half: tuple, grad: bool, turned: bool = False):
    """f = sigma^2 / D, D = |1 - r e^{i shifted}|^2 = 1 + r^2 - 2 r
    cos(shifted), from half = (s, c), the sine and cosine of shifted / 2,
    and with grad its rows

        df/dr = f (2 cos(shifted) - 2 r) / D,
        df/dgamma = 2 r f sin(shifted) / D      (turned: a free rotation).

    D is taken as (1 - r)^2 + 4 r s^2, or (1 + r)^2 - 4 r c^2 for r < 0:
    sums of terms of one sign, which keep D's relative precision where 1 +
    r^2 - 2 r cos(shifted) cancels, near the pole's own frequency as |r| ->
    1.
    """
    s, c = half
    if r >= 0.0:
        denom = (1.0 - r) ** 2 + (4.0 * r) * (s * s)
    else:
        denom = (1.0 + r) ** 2 - (4.0 * r) * (c * c)
    f = sigma * sigma / denom
    if not grad:
        return f, None
    f_over_d = f / denom
    d_r = f_over_d * (2.0 * (c * c - s * s) - 2.0 * r)
    if not turned:
        return f, d_r[None]
    return f, np.stack((d_r, 4.0 * r * f_over_d * (s * c)))


def _sdf_ar(shifted, half, values, grad):
    # the car1 form without rotation; white noise is its r = 0 case without
    # the r row
    phi, sigma = _check_ar(values)
    f, jac = _car1_sdf(0.0 if phi is None else phi, sigma, half, grad)
    return f, (jac[1:] if grad and phi is None else jac)


def _sdf_car1(shifted, half, values, grad):
    # shifted is omega - rotation for a fixed rotation (see sdf_entry), omega
    # for a free one
    r, sigma, gamma = _check_car1(values)
    if gamma is None:
        return _car1_sdf(r, sigma, half, grad)
    return _car1_sdf(r, sigma, _half_angle(shifted - gamma), grad, True)


def _pole_ar(turn, values, grad):
    # z = phi; white noise is z = 0 without the phi row
    phi, _ = _check_ar(values)
    if phi is None:
        return 0.0, (() if grad else None)
    return phi, ((1.0,) if grad else None)


def _pole_car1(turn, values, grad):
    # z = r e^{-i rotation}: turn = e^{-i rotation} for a fixed rotation (1.0
    # without one, so z is a float), and dz/dgamma = -i z for a free one
    r, _, gamma = _check_car1(values)
    if gamma is not None:
        turn = cmath.exp(-1j * gamma)
        z = r * turn
        return z, ((turn, -1j * z) if grad else None)
    return r * turn, ((turn,) if grad else None)


_ACV = {"ar": _acv_ar, "car1": _acv_car1, "ou": _acv_ou, "matern": _acv_matern}
_SDF = {"ar": _sdf_ar, "car1": _sdf_car1}
_POLE = {"ar": _pole_ar, "car1": _pole_car1}


def with_scale_row(family: str, jac: np.ndarray, k: int, c: np.ndarray,
                   scale: float) -> np.ndarray:
    """jac of a raw-float entry of family, whose table or sdf is c, with
    the row of its scale (at k, of value scale) put back: 2 c / scale,
    Matern's formed as c (2 / B) and zero at B = 0."""
    if family == "matern":
        row = c * (2.0 / scale) if scale > 0 else np.zeros_like(c)
    else:
        row = 2.0 * c / scale
    # in C order, as the entries' rows: the score's row sums round by layout
    out = np.empty((len(jac) + 1, *row.shape), dtype=np.result_type(jac, row))
    out[:k], out[k], out[k + 1:] = jac[:k], row, jac[k:]
    return out


def acv_entry(model: LatentModel):
    """The raw-float autocovariance of model's family with its delta and
    rotation bound: (values, nlags, grad) -> (acv at its kept lags, jac or
    None); see the raw-float entries above."""
    return functools.partial(_ACV[model.family], delta=model.delta,
                             rotation=model.rotation)


def sdf_entry(model: LatentModel, omega):
    """The raw-float discrete-time sdf of model's family at the frequencies
    omega (radians per sample): (values, grad) -> (f_X at omega, jac or
    None); see the raw-float entries above.  A fixed car1 rotation shifts
    omega here, and the sine and cosine of half the shifted omega are taken
    here, once, not at every call.  ar and car1 only: ou and matern raise
    ValueError."""
    shifted = np.asarray(omega, dtype=float)
    rotation = _fixed_rotation(model)
    if rotation:
        shifted = shifted - rotation
    return functools.partial(_SDF[model.family], shifted, _half_angle(shifted))


def pole_entry(model: LatentModel):
    """The raw-float pole z of model's family, whose sdf is sigma^2 / |1 - z
    e^{iw}|^2 (z = phi, or r e^{-i rotation}): (values, grad) -> (z, dz or
    None); see the raw-float entries above.  e^{-i rotation} of a fixed car1
    rotation is taken here, once.  ar and car1 only: ou and matern raise
    ValueError."""
    rotation = _fixed_rotation(model)
    return functools.partial(_POLE[model.family],
                             cmath.exp(-1j * rotation) if rotation else 1.0)


def _fixed_rotation(model: LatentModel) -> float:
    """The fixed rotation of a car1 without a free one, else 0; ValueError for
    a family without a discrete-time sdf."""
    if model.family not in _SDF:
        raise ValueError(f"no discrete-time sdf for {model.family}: use the modulated-whittle "
                         "kind, with constant_modulator(n) for an unmodulated series")
    return model.rotation if model.family == "car1" and len(model.params) == 2 else 0.0


def autocov_sequence(model: LatentModel, nlags: int) -> np.ndarray:
    """c_X(0..nlags-1) as one array: the acv entry's table, zero-padded.

    Geometric (ar, car1, ou) and Matern tables are zero past the lag where
    they have decayed below working precision; see :func:`_geometric_lag_cap`
    and :func:`matern_acv`.
    """
    return _padded(acv_entry(model)(model.params.values, nlags, False)[0], nlags)


# ----------------------------------------------------------------------
# JSON config
# ----------------------------------------------------------------------

def model_from_json(text: str | dict) -> LatentModel:
    """The model of a JSON config ``{"family", "params", "bounds", "delta",
    "rotation"}``, of which the last three are optional.  The parameters may
    come in any order and are stored in the family constructor's order, the layout
    the raw-float entries read; a name the constructor does not give raises.
    A parameter that ``bounds`` does not list takes the bounds its family's
    constructor gives it (an AR(1) phi1 (-1, 1), a car1 r (0, 1), every
    scale (0, inf), ...); a listed null side is unbounded.  A family the
    constructors do not build (an AR order of 2 or more, say) raises
    ValueError."""
    obj = json.loads(text) if isinstance(text, str) else dict(text)
    family = obj["family"]
    params = obj["params"]
    default = _constructor_params(family, list(params))
    names = list(default.names)
    if sorted(names) != sorted(params):
        raise ValueError(f"a {family} model with {len(names)} parameters takes "
                         f"{names}, not {list(params)}")
    values = np.array([params[n] for n in names], dtype=float)
    bounds = obj.get("bounds", {})
    lower, upper = [], []
    for n, lo_0, hi_0 in zip(names, default.lower, default.upper):
        lo, hi = bounds.get(n, (lo_0, hi_0))
        lower.append(-np.inf if lo is None else lo)
        upper.append(np.inf if hi is None else hi)
    pv = ParameterVector(names, values, lower=lower, upper=upper)
    return LatentModel(family, pv, delta=float(obj.get("delta", 1.0)),
                       rotation=float(obj.get("rotation", 0.0)))


def _constructor_params(family: str, names) -> ParameterVector:
    """The parameters of the family's constructor for a model with these
    parameter names."""
    order = len(names) - 1  # AR: every name but sigma is a coefficient
    model = {"ar": lambda: ar_model(np.zeros(order), 1.0),
             "car1": lambda: car1_model(0.5, 1.0, gamma=0.0 if "gamma" in names else None),
             "ou": lambda: ou_model(1.0, 1.0),
             "matern": lambda: matern_model(1.0, 1.0, 1.0)}.get(family)
    if model is None:
        raise ValueError(f"unknown model family {family!r}")
    return model().params
