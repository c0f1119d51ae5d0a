"""Objective functions: exact Gaussian, stationary Whittle, modulated Whittle.

All three are negative log pseudo-likelihoods scaled by 1/N and are minimized
over the latent parameters.  The frequency-domain objectives share the form

    (1/N) sum_{w in mask} [ log s(w; theta) + Shat(w) / s(w; theta) ],

with s the stationary sdf f_X (Whittle) or the exact expected periodogram
Sbar (modulated Whittle).  The 1/N factor keeps the full grid size even under
a frequency mask, so masked and unmasked values stay on one scale.

Everything here is pure given immutable inputs; the objective classes only
precompute quantities that do not depend on theta (periodogram, c_g, grid
frequencies), which is what makes each evaluation O(N log N).  The c_g of
every component comes from :func:`~modwhittle.modulation.component_cg`, and
every expected autocovariance, of a plain or an aggregate model, is the one
component sum cbar = sum c_g c_X of :func:`_cbar`.  One :class:`Objective`
evaluates every kind.  It may take a parametric modulation kernel (e.g.
:class:`~modwhittle.modulation.LinearRampKernel`) whose free parameters
follow the latent ones; the exact kind of a car1 latent under that kernel is
the O(N) Markov likelihood :func:`exact_car1_nll`.  That likelihood, and the
Whittle and modulated-Whittle kinds where every latent has a score, have an
analytic gradient; :func:`~modwhittle.optimize.fit` searches every other one
(the dense exact kind, AR(p >= 2) and MA latents) on central differences.

Over one latent model every kind is proportional to its scale^2 (sigma, A
or B, :data:`~modwhittle.models.SCALE_PARAMS`) in Sbar, the sdf or the
covariance, so the scale minimising the objective at the other parameters is
closed form, and :meth:`Objective.profile` evaluates this concentrated
likelihood (Brockwell & Davis 1991, Time Series: Theory and Methods, 10.8)
within the chain of one evaluation.  An aggregate ties its component scales
into one scale and log ratios of their squares (:class:`AggregateModel`), so
its Sbar is proportional to that scale^2 too, and it has the same profile.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.linalg
from scipy.special import softmax

from .core import ParameterVector, Series, _from_grid_order, fourier_grid
from .models import (
    LatentModel,
    autocov_grad,
    autocov_sequence,
    car1_model,
    has_acv_grad,
    has_sdf_grad,
    scale_index,
    sdf_grad,
    sdf_sampled,
)
from .modulation import (
    LinearRampKernel,
    Modulator,
    cg_linear_closed_form,  # noqa: F401  (the benchmark tracer wraps this name)
    cg_sequence,  # noqa: F401  (and this one)
    component_cg,
    significant_correlation_diagnostic,
)
from .spectra import (
    expected_periodogram_fft_order,
    expected_periodogram_values,
    periodogram,
)

__all__ = [
    "EXACT_CAP",
    "AggregateModel",
    "Objective",
    "exact_gaussian_nll",
    "exact_car1_nll",
    "aggregate_expected_periodogram",
    "compare_likelihoods",
    "spectral_nll",
    "resolve_mask",
    "Car1WhittleObjective",
]

EXACT_CAP = 2048


def resolve_mask(n: int, mask=None) -> np.ndarray:
    """Normalize a frequency mask to a boolean array over the length-n grid."""
    if mask is None:
        out = np.ones(n, dtype=bool)
    else:
        mask = np.asarray(mask)
        if mask.dtype == bool:
            if mask.size != n:
                raise ValueError("boolean mask length must equal the grid size")
            out = mask.copy()
        else:
            out = np.zeros(n, dtype=bool)
            out[mask] = True
    if not np.any(out):
        raise ValueError("frequency mask is empty")
    return out


def spectral_nll(shat: np.ndarray, svals: np.ndarray, mask: np.ndarray | None = None) -> float:
    """(1/N) sum over the mask of log s + shat/s; N is the full grid size."""
    n = shat.size
    if mask is not None:
        shat = shat[mask]
        svals = svals[mask]
    if np.any(svals <= 0):
        raise ValueError("spectral values must be positive on the mask")
    return float(np.sum(np.log(svals) + shat / svals) / n)


# ----------------------------------------------------------------------
# exact Gaussian likelihood
# ----------------------------------------------------------------------

def exact_gaussian_nll(data: Series, mod: Modulator | None, model: LatentModel) -> float:
    """(1/N') [log|C_Y| + y* C_Y^{-1} y] over the N' points where g != 0.

    C_Y(t1,t2) = g_{t1} conj(g_{t2}) c_X(t1-t2), Cholesky-based; the complex
    case uses the proper-Gaussian density (equivalently the 2N-dimensional
    real Gaussian implied by propriety, up to an affine constant).  Capped at
    N <= EXACT_CAP.
    """
    if len(data) > EXACT_CAP:
        raise ValueError(f"exact likelihood capped at N <= {EXACT_CAP}")
    logdet, quad, kept = _exact_dense(data, mod, model)
    return (logdet + quad) / kept


def _exact_dense(data: Series, mod: Modulator | None, model: LatentModel):
    """(log|C_Y|, y* C_Y^{-1} y, N') of :func:`exact_gaussian_nll`, uncapped."""
    y = np.asarray(data.values)
    n = y.size
    g = np.ones(n) if mod is None else np.asarray(mod.g)
    if g.size != n:
        raise ValueError("modulator and data lengths differ")
    keep = np.flatnonzero(np.abs(g) > 0)
    if keep.size == 0:
        raise ValueError("all samples have zero modulation; nothing observed")
    t = keep
    yk = y[keep]
    gk = g[keep]
    cx = np.asarray(autocov_sequence(model, int(t[-1]) + 1))
    lag = np.subtract.outer(t, t)
    cmat = cx[np.abs(lag)]
    if np.iscomplexobj(cx):
        cmat = np.where(lag >= 0, cmat, np.conj(cmat))
    cy = np.outer(gk, np.conj(gk)) * cmat
    try:
        chol, low = scipy.linalg.cho_factor(cy, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError("covariance matrix is not positive definite "
                         "(parameters outside the model class)") from exc
    logdet = 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))
    alpha = scipy.linalg.cho_solve((chol, low), yk, check_finite=False)
    quad = float(np.real(np.vdot(yk, alpha)))
    return logdet, quad, keep.size


def _concentrated_scale2(s2: float) -> float:
    """s2, the optimal squared scale, checked to be finite and positive: an
    all-zero sample (or periodogram on the mask) has none."""
    if not 0.0 < s2 < math.inf:
        raise ValueError("no finite positive scale minimises the objective "
                         "(the data are zero where it looks)")
    return s2


def exact_car1_nll(z: np.ndarray, beta: np.ndarray, r: float, sigma: float) -> float:
    """Markov-factorized exact likelihood for z_t = r e^{i beta_t} z_{t-1} + e_t.

    beta holds the rotations for steps t = 1..N-1.  Equal to the dense
    :func:`exact_gaussian_nll` of the equivalent modulated representation and
    evaluated in O(N).
    """
    return _exact_car1(z, beta, r, sigma, score=False)[0]


def _exact_car1(z, beta, r, sigma, score: bool):
    """:func:`exact_car1_nll`, with score=True also its derivatives.

    With u_t = e^{i beta_t} z_{t-1}, e_t = z_t - r u_t, p_t = conj(e_t) u_t,
    Q = sum |e_t|^2, s2 = sigma^2 and
    N l = log(s2 / (1 - r^2)) + |z_0|^2 (1 - r^2) / s2 + (N-1) log s2 + Q / s2,

        N dl/dr      = 2r / (1 - r^2) - 2r |z_0|^2 / s2 - 2 sum Re p_t / s2,
        N dl/dsigma  = (2 / sigma) [N - (|z_0|^2 (1 - r^2) + Q) / s2],
        N dl/dbeta_t = 2r Im p_t / s2.

    sigma None concentrates it out: s2 = (|z_0|^2 (1 - r^2) + Q) / N, where
    dl/dsigma = 0.  Returns (l, sigma, derivatives), the derivatives
    (dl/dr, dl/dsigma, dl/dbeta) with score=True and None otherwise.
    """
    z = np.asarray(z, dtype=complex)
    n = z.size
    if beta.size != n - 1:
        raise ValueError("need one rotation per transition")
    if not (0.0 <= r < 1.0) or (sigma is not None and sigma <= 0):
        raise ValueError("requires 0 <= r < 1 and sigma > 0")
    u = np.exp(1j * beta) * z[:-1]
    resid = z[1:] - r * u
    z0sq = abs(z[0]) ** 2
    quad = float(np.sum(np.abs(resid) ** 2))
    if sigma is None:
        s2 = _concentrated_scale2((z0sq * (1.0 - r * r) + quad) / n)
        sigma = math.sqrt(s2)
    else:
        s2 = sigma * sigma
    nll = (np.log(s2 / (1.0 - r * r)) + z0sq * (1.0 - r * r) / s2
           + (n - 1) * np.log(s2) + quad / s2) / n
    if not score:
        return float(nll), sigma, None
    p = np.conj(resid) * u
    d_r = (2.0 * r / (1.0 - r * r) - 2.0 * r * z0sq / s2
           - 2.0 * float(np.sum(p.real)) / s2) / n
    d_sigma = 2.0 / sigma * (n - (z0sq * (1.0 - r * r) + quad) / s2) / n
    return float(nll), sigma, (d_r, d_sigma, 2.0 * r * p.imag / (s2 * n))


# ----------------------------------------------------------------------
# aggregates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AggregateModel:
    """Independent latent components observed in aggregation.

    Each component pairs a latent model with its modulator; None means the
    component is stationary and unmodulated, whose c_g is exactly 1 - tau/N.
    The free parameter vector is the concatenation of the component vectors,
    names prefixed by the component index/family, except that the component
    scales (:data:`~modwhittle.models.SCALE_PARAMS`: sigma, A or B) are tied.
    With a_k the scale of component k of K,

        (a_1^2, ..., a_K^2) = scale^2 softmax(0, q_2, ..., q_K),

    so scale^2 = sum_k a_k^2 and q_k = log(a_k^2 / a_1^2).  "scale" takes the
    first component's scale slot and ``{family}{k}.q`` component k's.  Sbar
    is linear in the a_k^2, hence proportional to scale^2: the aggregate has
    one scale (``scale_index``), like a single latent model, and the q_k
    shape it alongside the other parameters.  ``with_values`` maps tied
    values back to the component scales.
    """

    components: tuple
    n: int

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("aggregate needs at least one component")
        for _, mod in self.components:
            if mod is not None and mod.n != self.n:
                raise ValueError("component modulator length differs from N")

    @functools.cached_property
    def _scale_slots(self) -> np.ndarray:
        """Position of each component's scale in the parameter vector."""
        slots, pos = [], 0
        for m, _ in self.components:
            slots.append(pos + scale_index(m))
            pos += len(m.params)
        return np.array(slots)

    @property
    def scale_index(self) -> int:
        """Position of the tied scale in the parameter vector."""
        return int(self._scale_slots[0])

    @property
    def params(self) -> ParameterVector:
        names, values, lower, upper = [], [], [], []
        for i, (m, _) in enumerate(self.components):
            names.extend(f"{m.family}{i}.{nm}" for nm in m.params.names)
            values.extend(m.params.values)
            lower.extend(m.params.lower)
            upper.extend(m.params.upper)
        values, lower, upper = (np.array(a, dtype=float) for a in (values, lower, upper))
        slots = self._scale_slots
        a2 = values[slots] ** 2
        if not a2.min() > 0:
            raise ValueError("tying the component scales needs each to be positive")
        values[slots] = np.concatenate(([math.sqrt(a2.sum())], np.log(a2[1:] / a2[0])))
        lower[slots] = np.concatenate(([0.0], np.full(slots.size - 1, -np.inf)))
        upper[slots] = np.inf
        for i, k in enumerate(slots):
            names[k] = f"{self.components[i][0].family}{i}.q" if i else "scale"
        return ParameterVector(names, values, lower, upper)

    def _untie(self, values):
        """(component values, p): the tied values with each scale slot set to
        a_k = scale sqrt(p_k), and p = softmax(0, q_2, ..., q_K), which
        neither overflows nor divides by zero at any finite q."""
        values = np.array(values, dtype=float)
        slots = self._scale_slots
        if values.size != sum(len(m.params) for m, _ in self.components):
            raise ValueError("parameter vector length mismatch")
        p = softmax(np.concatenate(([0.0], values[slots[1:]])))
        values[slots] = values[slots[0]] * np.sqrt(p)
        return values, p

    def with_values(self, values) -> "AggregateModel":
        """The aggregate at tied values (the layout of ``params``)."""
        values, _ = self._untie(values)
        comps = []
        pos = 0
        for m, mod in self.components:
            d = len(m.params)
            comps.append((m.with_values(values[pos:pos + d]), mod))
            pos += d
        return AggregateModel(components=tuple(comps), n=self.n)

    def tied_gradient(self, values, grad) -> np.ndarray:
        """The gradient in the tied values, from grad, the one in the
        component values of ``with_values(values)``.

        With G_k = a_k dl/da_k / 2 = dl/d log a_k^2 and log a_k^2 =
        2 log scale + log p_k, where d log p_k / dq_j = [k = j] - p_j:

            dl/dscale = sum_k sqrt(p_k) dl/da_k,   dl/dq_j = G_j - p_j sum_k G_k.
        """
        untied, p = self._untie(values)
        slots = self._scale_slots
        out = np.array(grad, dtype=float)
        g = out[slots]
        big_g = 0.5 * untied[slots] * g
        out[slots[0]] = g @ np.sqrt(p)
        out[slots[1:]] = big_g[1:] - p[1:] * big_g.sum()
        return out


def _cbar(cgs, acvs) -> np.ndarray:
    """cbar = sum over components of c_g * c_X, at lags 0..N-1."""
    total = cgs[0] * acvs[0]
    for cg, acv in zip(cgs[1:], acvs[1:]):
        total = total + cg * acv
    return total


def aggregate_expected_periodogram(agg: AggregateModel) -> np.ndarray:
    """Expected periodogram of the aggregate: one transform of the summed acv."""
    cgs = [component_cg(mod, agg.n) for _, mod in agg.components]
    acvs = [autocov_sequence(m, agg.n) for m, _ in agg.components]
    return expected_periodogram_values(_cbar(cgs, acvs))


# ----------------------------------------------------------------------
# reusable objective wrappers (precompute everything theta-independent)
# ----------------------------------------------------------------------

@dataclass
class Objective:
    """A configured objective: kind exact | whittle | modulated-whittle.

    Instances are callables theta -> scalar nll.  Construction precomputes
    what does not depend on theta (periodogram, grid frequencies, c_g), so
    evaluations stay O(N log N), and normalises the model into one list of
    latent models, whose parameters lead theta, with either fixed c_g tables
    (``cgs``, one per latent, lags 0..N-1) or a parametric kernel
    (``params``, ``cg(phi)``, ``cg_grad(phi)``, e.g.
    :class:`~modwhittle.modulation.LinearRampKernel`), whose parameters phi
    follow.  exact takes a plain latent with a Modulator or none (the dense
    oracle, N <= EXACT_CAP), or a car1 latent without rotation under a
    LinearRampKernel (:func:`exact_car1_nll`, beta_t = gamma + span ramp_t);
    whittle a plain latent and no modulator; modulated-whittle a plain latent
    with a modulator or a kernel, or an :class:`AggregateModel`.  Only the
    spectral kinds take a frequency ``mask``.  Any other shape raises
    ValueError.  The modulated-whittle kind keeps the
    periodogram and the mask in numpy FFT order (k = 0..N-1), the order its
    expected periodogram comes out of the transform in.  For
    ``has_gradient`` see :meth:`value_and_grad`,
    :func:`~modwhittle.models.has_sdf_grad` (whittle) and
    :func:`~modwhittle.models.has_acv_grad` (modulated-whittle).

    Every kind is a concentrated likelihood in one scale: the latent
    model's (:data:`~modwhittle.models.SCALE_PARAMS`), or an aggregate's
    tied one (:class:`AggregateModel`).  ``scale_index`` is its position in
    theta, and :meth:`profile` evaluates the objective at the scale's
    closed-form optimum.
    ``n_rejected`` counts the evaluations that scored +inf.
    """

    kind: str
    data: Series
    model: LatentModel | AggregateModel
    modulator: Modulator | LinearRampKernel | None = None
    mask: np.ndarray | None = None
    check_significance: bool = True
    _mask: np.ndarray | slice = field(init=False, repr=False)  # slice: every frequency
    _shat: np.ndarray = field(init=False, repr=False, default=None)
    _freqs: np.ndarray = field(init=False, repr=False, default=None)
    _z: np.ndarray = field(init=False, repr=False, default=None)
    _kernel: LinearRampKernel | None = field(init=False, repr=False, default=None)
    _latent_models: list = field(init=False, repr=False, default=None)
    cgs: list = field(init=False, repr=False, default=None)
    has_gradient: bool = field(init=False, default=False)
    scale_index: int = field(init=False, default=None)
    n_rejected: int = field(init=False, default=0)

    def __post_init__(self):
        n = len(self.data)
        if self.kind not in ("exact", "whittle", "modulated-whittle"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        aggregate = isinstance(self.model, AggregateModel)
        if aggregate and (self.kind != "modulated-whittle" or self.modulator is not None):
            raise ValueError("an aggregate model takes the modulated-whittle kind "
                             "and no modulator (its components carry their own)")
        if self.kind == "whittle" and self.modulator is not None:
            raise ValueError("the whittle kind takes no modulator")
        if self.kind == "modulated-whittle" and self.modulator is None and not aggregate:
            raise ValueError("modulated-whittle requires a modulator")
        sized = self.model if aggregate else self.modulator
        if sized is not None and sized.n != n:
            raise ValueError("modulator and data lengths differ")
        components = (self.model.components if aggregate
                      else [(self.model, self.modulator)])
        self._latent_models = [m for m, _ in components]
        self.scale_index = (self.model.scale_index if aggregate
                            else scale_index(self.model))
        if self.modulator is not None and not isinstance(self.modulator, Modulator):
            self._kernel = self.modulator
        if self.kind == "exact" and self.mask is not None:
            raise ValueError("the exact kind takes no frequency mask")
        self._mask = resolve_mask(n, self.mask)
        if self.kind == "exact":
            if self._kernel is None and n > EXACT_CAP:
                raise ValueError(f"exact objective capped at N <= {EXACT_CAP}")
            if self._kernel is not None:
                m = self.model
                if not (isinstance(self._kernel, LinearRampKernel) and m.family == "car1"
                        and len(m.params) == 2 and m.rotation == 0.0):
                    raise ValueError("the exact kind takes a kernel only as a "
                                     "LinearRampKernel on a car1 latent without rotation")
                self._z = np.asarray(self.data.values, dtype=complex)
                self.has_gradient = True
            return
        self._shat = periodogram(self.data)
        if self._mask.all():  # the whole grid: index it by a view, not a copy
            self._mask = slice(None)
        if self.kind == "whittle":
            self._freqs = fourier_grid(n).frequencies
            self.has_gradient = has_sdf_grad(self.model)
            return
        self._shat = _from_grid_order(self._shat)
        if not isinstance(self._mask, slice):
            self._mask = _from_grid_order(self._mask)
        self.has_gradient = all(has_acv_grad(m) for m in self._latent_models)
        if self._kernel is None:
            self.cgs = [component_cg(mod, n) for _, mod in components]
        if self.check_significance and isinstance(self.modulator, Modulator):
            diag = significant_correlation_diagnostic(
                self.modulator, lags=[0, 1], n_grid=[max(2, n // 2), n])
            if diag["flagged"]:
                warnings.warn(
                    "modulator fails the significant-correlation diagnostic at "
                    f"lags {diag['flagged']}; estimates may be unreliable",
                    RuntimeWarning)

    @property
    def init_params(self) -> ParameterVector:
        if self._kernel is None:
            return self.model.params
        lat, ker = self.model.params, self._kernel.params
        return ParameterVector(list(lat.names) + list(ker.names),
                               np.concatenate((lat.values, ker.values)),
                               np.concatenate((lat.lower, ker.lower)),
                               np.concatenate((lat.upper, ker.upper)))

    def __call__(self, theta) -> float:
        return self._evaluate(theta, False, False)[0]

    def value_and_grad(self, theta) -> tuple[float, np.ndarray]:
        """The nll and its gradient in theta.

        exact (Markov): the score of :func:`_exact_car1`, through beta_t =
        gamma + span ramp_t.

        whittle: with f the sdf on the grid and w = dl/df (see
        :meth:`_whittle_sum`), dl/dtheta_j = sum_k w_k df_k/dtheta_j (see
        :func:`sdf_grad`).

        modulated-whittle: with S = Sbar, w = dl/dS and W = fft(w), the
        adjoint of S = 2 Re fft(cbar) - cbar(0) gives, for a component with
        kernel c_g,

            dl/dtheta_j = 2 Re sum_tau c_g(tau) dc_X(tau)/dtheta_j W(tau)
                          - Re[c_g(0) dc_X(0)/dtheta_j] sum_k w_k,

        summed over the lags where c_X is not truncated: one extra FFT per
        evaluation whatever the number of parameters.  The parameters phi of
        a parametric kernel take the same form with the roles swapped,
        dc_g/dphi_j times c_X, and need no further FFT.

        The value equals ``self(theta)``.
        """
        if not self.has_gradient:
            raise ValueError("objective has no analytic gradient")
        return self._evaluate(theta, True, False)[:2]

    def profile(self, rest, grad: bool = False):
        """The nll concentrated in the scale: its minimum over the scale.

        rest is theta without its ``scale_index`` entry.  Sbar, the sdf and
        the exact covariance all scale as scale^2, so the chain runs once at
        scale 1 and the optimal s2 = scale^2 is closed form: (1/M)
        sum_mask Shat / S_1 for the spectral kinds (M the mask size),
        y* C_1^{-1} y / N' for the dense exact one and (|z_0|^2 (1 - r^2) +
        Q) / N for the Markov one.  By the envelope theorem the gradient in
        rest is the joint one at that scale.  Returns (value, gradient in
        rest or None, scale), with +inf, a zero gradient and None where the
        objective rejects rest, or where the data are zero on the mask.
        """
        if grad and not self.has_gradient:
            raise ValueError("objective has no analytic gradient")
        k = self.scale_index
        rest = np.asarray(rest, dtype=float)
        theta = np.concatenate((rest[:k], [1.0], rest[k:]))
        value, gradient, scale = self._evaluate(theta, grad, True)
        if grad:
            gradient = np.concatenate((gradient[:k], gradient[k + 1:]))
        return value, gradient, scale

    def _evaluate(self, theta, grad: bool, profile: bool):
        """(value, gradient or None, concentrated scale or None) at theta,
        the one evaluation routine; with profile theta holds scale 1.

        Non-finite theta, theta outside the model class (a ValueError of the
        chain, e.g. a non-stationary AR: the optimizer steps back), and a
        non-finite value or gradient score +inf, with a zero gradient, and
        are counted in ``n_rejected``.
        """
        theta = np.asarray(theta, dtype=float)
        if np.isfinite(theta).all():
            try:
                value, gradient, scale = self._chain(theta, grad, profile)
            except ValueError:
                pass
            else:
                if math.isfinite(value) and (not grad or np.isfinite(gradient).all()):
                    return value, gradient, scale
        self.n_rejected += 1
        return np.inf, (np.zeros(theta.size) if grad else None), None

    def _chain(self, theta, grad, profile):
        if self._z is not None:  # the exact kind under a ramp kernel
            return self._exact_markov(theta, grad, profile)
        models, phi = self._split(theta)
        if self.kind == "exact":
            logdet, quad, kept = _exact_dense(self.data, self.modulator, models[0])
            s2 = _concentrated_scale2(quad / kept) if profile else 1.0
            value = (logdet + quad / s2) / kept + math.log(s2)
            return value, None, (math.sqrt(s2) if profile else None)
        if self.kind == "whittle":
            svals, pullback = self._whittle(models[0], grad)
        else:
            svals, pullback = self._modulated(models, phi, grad)
        value, w, scale = self._whittle_sum(svals, grad, profile)
        gradient = pullback(w) if grad else None
        if grad and isinstance(self.model, AggregateModel):
            gradient = self.model.tied_gradient(theta, gradient)
        return value, gradient, scale

    def _split(self, theta):
        """(latent models, kernel parameters phi) of theta; raises
        ValueError outside the model class."""
        if isinstance(self.model, AggregateModel):
            return [m for m, _ in self.model.with_values(theta).components], theta[:0]
        models, pos = [], 0
        for m in self._latent_models:
            d = len(m.params)
            models.append(m.with_values(theta[pos:pos + d]))
            pos += d
        if self._kernel is None and pos != theta.size:
            raise ValueError("parameter vector length mismatch")
        return models, theta[pos:]

    def _exact_markov(self, theta, grad, profile):
        # theta = (r, sigma, gamma, span) and no LatentModel: _exact_car1
        # rejects r and sigma outside the model, the kernel the span
        beta = self._kernel.rotations(theta[2:])
        if not (grad or profile):  # the name the benchmark tracer times
            return exact_car1_nll(self._z, beta, theta[0], theta[1]), None, None
        value, sigma, score = _exact_car1(self._z, beta, theta[0],
                                          None if profile else theta[1], score=grad)
        scale = sigma if profile else None
        if not grad:
            return value, None, scale
        d_r, d_sigma, d_beta = score
        return value, np.array([d_r, d_sigma, d_beta.sum(),
                                d_beta @ self._kernel.ramp]), scale

    def _whittle(self, model, grad):
        """The sdf on the grid and, with grad, the map from w = dl/df to the
        gradient."""
        f = np.asarray(sdf_sampled(model, self._freqs))
        if not grad:
            return f, None
        return f, lambda w: (sdf_grad(model, self._freqs) * w).sum(axis=1)

    def _whittle_sum(self, svals, grad: bool, profile: bool):
        """(value, w, scale) of the Whittle sum at the spectrum svals.

        w = dl/ds = (1/N)(1/s - Shat/s^2) on the mask and 0 elsewhere (None
        without grad).  With profile the spectrum is s2 svals at the s2 that
        minimises the sum, s2 = (1/M) sum_mask Shat/svals over the M masked
        frequencies, where the sum is (1/N)[sum_mask log svals +
        M (1 + log s2)] and w is the one at svals with Shat/s2; scale =
        sqrt(s2), None without profile.
        """
        n = svals.size
        if not profile:
            value = spectral_nll(self._shat, svals, self._mask)
            if not grad:
                return value, None, None
        s = svals[self._mask]
        if profile and not s.min() > 0:
            raise ValueError("spectral values must be positive on the mask")
        ratio = self._shat[self._mask] / s
        if profile:
            s2 = _concentrated_scale2(float(np.mean(ratio)))
            value = (float(np.sum(np.log(s))) + s.size * (1.0 + math.log(s2))) / n
        w = None
        if grad:
            if profile:
                ratio /= s2
            w = np.zeros(n)
            w[self._mask] = (1.0 - ratio) / s / n
        return value, w, (math.sqrt(s2) if profile else None)

    def _modulated(self, models, phi, grad):
        """Sbar in FFT order and, with grad, the map from w = dl/dSbar to the
        gradient."""
        n = len(self.data)
        if self._kernel is None:
            cgs, dcg = self.cgs, None
        else:
            cg, dcg = self._kernel.cg_grad(phi) if grad else (self._kernel.cg(phi), None)
            cgs = [cg]
        tables = [autocov_grad(m, n) if grad else (autocov_sequence(m, n), None)
                  for m in models]
        acvs = [acv for acv, _ in tables]
        sbar = expected_periodogram_fft_order(_cbar(cgs, acvs))
        if not grad:
            return sbar, None

        def pullback(w):
            # w is real, so fft(w)[N - k] = conj(fft(w)[k]): the lags up to
            # N/2 come from rfft, and the rest are mirrored only when some
            # acv support reaches past them
            big_w = scipy.fft.rfft(w)
            if max(jac.shape[1] for _, jac in tables) > big_w.size:
                big_w = np.concatenate((big_w, np.conj(big_w[n - big_w.size:0:-1])))
            w_sum = float(np.sum(w))

            def adjoint(jac, other):
                # jac: derivative rows of one factor of cbar, other: the other
                # factor; an elementwise sum, not jac @ ...: a threaded BLAS
                # call costs more than the product on these short rows
                keep = jac.shape[1]
                terms = np.real(jac * (other[:keep] * big_w[:keep]))
                return 2.0 * terms.sum(axis=1) - np.real(other[0] * jac[:, 0]) * w_sum

            grad = [adjoint(jac, cg) for cg, (_, jac) in zip(cgs, tables)]
            if dcg is not None:
                acv, jac = tables[0]
                grad.append(adjoint(dcg[:, :jac.shape[1]], acv))
            return np.concatenate(grad)

        return sbar, pullback


class Car1WhittleObjective:
    """Stationary Whittle objective for a rotating complex AR(1).

    theta = (r, sigma) when the rotation is fixed, or (r, sigma, gamma) when
    it is free: ``Objective("whittle", data, car1_model(...))`` with only
    ``names``, ``lower`` and ``upper`` exposed.  It has no ``has_gradient``,
    so :func:`~modwhittle.optimize.fit` searches it on central differences;
    it is the benchmark tracer tests' fixture for an objective without a score.
    """

    def __init__(self, data: Series, rotation: float | None = 0.0, mask=None):
        # rotation None -> gamma is the third free parameter
        model = (car1_model(0.5, 1.0, gamma=0.0) if rotation is None
                 else car1_model(0.5, 1.0, rotation=rotation))
        self._objective = Objective("whittle", data, model, mask=mask)
        self.names = tuple(model.params.names)
        self.lower, self.upper = model.params.lower, model.params.upper

    def __call__(self, theta) -> float:
        return self._objective(theta)


# ----------------------------------------------------------------------
# model comparison
# ----------------------------------------------------------------------

def compare_likelihoods(data: Series, mod: Modulator,
                        stationary_model: LatentModel,
                        nonstationary_model: LatentModel | AggregateModel,
                        mask_stationary=None, mask_modulated=None,
                        options: dict | None = None) -> dict:
    """Fit both models and report their objective values and difference.

    The difference is nll_stationary - nll_modulated, so positive values
    favor the nonstationary (modulated) model.
    """
    from .optimize import fit

    stat_obj = Objective("whittle", data, stationary_model, mask=mask_stationary)
    mod_obj = Objective("modulated-whittle", data, nonstationary_model,
                        modulator=mod, mask=mask_modulated,
                        check_significance=False)
    opts = options or {}
    fit_w = fit(stat_obj, stat_obj.init_params, **opts)
    fit_m = fit(mod_obj, mod_obj.init_params, **opts)
    return {
        "nll_stationary": fit_w.objective_value,
        "nll_modulated": fit_m.objective_value,
        "difference": fit_w.objective_value - fit_m.objective_value,
        "fit_stationary": fit_w,
        "fit_modulated": fit_m,
    }
