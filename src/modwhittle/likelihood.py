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
analytic gradient; the dense exact kind, AR(p >= 2) and MA latents, and
:class:`Car1WhittleObjective` are fitted by Nelder-Mead alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import ParameterVector, Series, _from_grid_order, fourier_grid
from .models import (
    LatentModel,
    autocov_grad,
    autocov_sequence,
    car1_model,
    has_acv_grad,
    has_sdf_grad,
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

def exact_gaussian_nll(data: Series, mod: Modulator | None, model: LatentModel,
                       cap: int = EXACT_CAP) -> float:
    """(1/N') [log|C_Y| + y* C_Y^{-1} y] over the points where g != 0.

    C_Y(t1,t2) = g_{t1} conj(g_{t2}) c_X(t1-t2), Cholesky-based; the complex
    case uses the proper-Gaussian density (equivalently the 2N-dimensional
    real Gaussian implied by propriety, up to an affine constant).
    """
    if len(data) > cap:
        raise ValueError(f"exact likelihood capped at N <= {cap}")
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
    return (logdet + quad) / keep.size


def exact_car1_nll(z: np.ndarray, beta: np.ndarray, r: float, sigma: float) -> float:
    """Markov-factorized exact likelihood for z_t = r e^{i beta_t} z_{t-1} + e_t.

    beta holds the rotations for steps t = 1..N-1.  Equal to the dense
    :func:`exact_gaussian_nll` of the equivalent modulated representation and
    evaluated in O(N).
    """
    return _exact_car1(z, beta, r, sigma, score=False)


def _exact_car1(z, beta, r, sigma, score: bool):
    """:func:`exact_car1_nll`, with score=True also its derivatives.

    With u_t = e^{i beta_t} z_{t-1}, e_t = z_t - r u_t, p_t = conj(e_t) u_t,
    Q = sum |e_t|^2, s2 = sigma^2 and
    N l = log(s2 / (1 - r^2)) + |z_0|^2 (1 - r^2) / s2 + (N-1) log s2 + Q / s2,

        N dl/dr      = 2r / (1 - r^2) - 2r |z_0|^2 / s2 - 2 sum Re p_t / s2,
        N dl/dsigma  = (2 / sigma) [N - (|z_0|^2 (1 - r^2) + Q) / s2],
        N dl/dbeta_t = 2r Im p_t / s2,

    returned as (l, dl/dr, dl/dsigma, dl/dbeta).
    """
    z = np.asarray(z, dtype=complex)
    n = z.size
    if beta.size != n - 1:
        raise ValueError("need one rotation per transition")
    if not (0.0 <= r < 1.0) or sigma <= 0:
        raise ValueError("requires 0 <= r < 1 and sigma > 0")
    s2 = sigma * sigma
    u = np.exp(1j * beta) * z[:-1]
    resid = z[1:] - r * u
    z0sq = abs(z[0]) ** 2
    quad = float(np.sum(np.abs(resid) ** 2))
    nll = (np.log(s2 / (1.0 - r * r)) + z0sq * (1.0 - r * r) / s2
           + (n - 1) * np.log(s2) + quad / s2) / n
    if not score:
        return float(nll)
    p = np.conj(resid) * u
    d_r = (2.0 * r / (1.0 - r * r) - 2.0 * r * z0sq / s2
           - 2.0 * float(np.sum(p.real)) / s2) / n
    d_sigma = 2.0 / sigma * (n - (z0sq * (1.0 - r * r) + quad) / s2) / n
    return float(nll), d_r, d_sigma, 2.0 * r * p.imag / (s2 * n)


# ----------------------------------------------------------------------
# aggregates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AggregateModel:
    """Independent latent components observed in aggregation.

    Each component pairs a latent model with its modulator; None means the
    component is stationary and unmodulated, whose c_g is exactly 1 - tau/N.
    The free parameter vector is the concatenation of the component vectors,
    names prefixed by the component index/family.
    """

    components: tuple
    n: int

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("aggregate needs at least one component")
        for _, mod in self.components:
            if mod is not None and mod.n != self.n:
                raise ValueError("component modulator length differs from N")

    @property
    def params(self) -> ParameterVector:
        names, values, lower, upper = [], [], [], []
        for i, (m, _) in enumerate(self.components):
            for j, nm in enumerate(m.params.names):
                names.append(f"{m.family}{i}.{nm}")
                values.append(m.params.values[j])
                lower.append(m.params.lower[j])
                upper.append(m.params.upper[j])
        return ParameterVector(names, np.array(values), np.array(lower), np.array(upper))

    def with_values(self, values) -> "AggregateModel":
        values = np.asarray(values, dtype=float)
        comps = []
        pos = 0
        for m, mod in self.components:
            d = len(m.params)
            comps.append((m.with_values(values[pos:pos + d]), mod))
            pos += d
        if pos != values.size:
            raise ValueError("parameter vector length mismatch")
        return AggregateModel(components=tuple(comps), n=self.n)


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
    with a modulator or a kernel, or an :class:`AggregateModel`.  Any other
    shape raises ValueError.  The modulated-whittle kind keeps the
    periodogram and the mask in numpy FFT order (k = 0..N-1), the order its
    expected periodogram comes out of the transform in.  For
    ``has_gradient`` see :meth:`value_and_grad`,
    :func:`~modwhittle.models.has_sdf_grad` (whittle) and
    :func:`~modwhittle.models.has_acv_grad` (modulated-whittle).
    """

    kind: str
    data: Series
    model: LatentModel | AggregateModel
    modulator: Modulator | LinearRampKernel | None = None
    mask: np.ndarray | None = None
    check_significance: bool = True
    _mask: np.ndarray = field(init=False, repr=False)
    _shat: np.ndarray = field(init=False, repr=False, default=None)
    _freqs: np.ndarray = field(init=False, repr=False, default=None)
    _z: np.ndarray = field(init=False, repr=False, default=None)
    _kernel: LinearRampKernel | None = field(init=False, repr=False, default=None)
    _latent_models: list = field(init=False, repr=False, default=None)
    cgs: list = field(init=False, repr=False, default=None)
    has_gradient: bool = field(init=False, default=False)

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
        if self.modulator is not None and not isinstance(self.modulator, Modulator):
            self._kernel = self.modulator
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
        if self.kind == "whittle":
            self._freqs = fourier_grid(n).frequencies
            self.has_gradient = has_sdf_grad(self.model)
            return
        self._shat = _from_grid_order(self._shat)
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
        return self._evaluate(theta, False)[0]

    def value_and_grad(self, theta) -> tuple[float, np.ndarray]:
        """The nll and its gradient in theta.

        exact (Markov): the score of :func:`_exact_car1`, through beta_t =
        gamma + span ramp_t.

        whittle: with f the sdf on the grid and w as in :meth:`_weights`,
        dl/dtheta_j = sum_k w_k df_k/dtheta_j (see :func:`sdf_grad`).

        modulated-whittle: with S = Sbar, w as above and W = fft(w), the
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
        return self._evaluate(theta, True)

    def _evaluate(self, theta, grad: bool):
        """(value, gradient or None) at theta, the one evaluation routine.

        Non-finite theta, theta outside the model class (a ValueError of the
        chain, e.g. a non-stationary AR: the optimizer steps back), and a
        non-finite value or gradient score +inf, with a zero gradient.
        """
        theta = np.asarray(theta, dtype=float)
        fail = np.inf, (np.zeros(theta.size) if grad else None)
        if not np.isfinite(theta).all():
            return fail
        try:
            if self._z is not None:  # the exact kind under a ramp kernel
                value, gradient = self._exact_markov(theta, grad)
            else:
                models, phi = self._split(theta)
                if self.kind == "exact":
                    value = exact_gaussian_nll(self.data, self.modulator, models[0])
                    gradient = None
                elif self.kind == "whittle":
                    value, gradient = self._whittle(models[0], grad)
                else:
                    value, gradient = self._modulated(models, phi, grad)
        except ValueError:
            return fail
        if not math.isfinite(value) or (grad and not np.isfinite(gradient).all()):
            return fail
        return value, gradient

    def _split(self, theta):
        """(latent models, kernel parameters phi) of theta; raises
        ValueError outside the model class."""
        models, pos = [], 0
        for m in self._latent_models:
            d = len(m.params)
            models.append(m.with_values(theta[pos:pos + d]))
            pos += d
        if self._kernel is None and pos != theta.size:
            raise ValueError("parameter vector length mismatch")
        return models, theta[pos:]

    def _exact_markov(self, theta, grad):
        # theta = (r, sigma, gamma, span) and no LatentModel: _exact_car1
        # rejects r and sigma outside the model, the kernel the span
        beta = self._kernel.rotations(theta[2:])
        if not grad:
            return exact_car1_nll(self._z, beta, theta[0], theta[1]), None
        value, d_r, d_sigma, d_beta = _exact_car1(self._z, beta, theta[0], theta[1],
                                                  score=True)
        return value, np.array([d_r, d_sigma, d_beta.sum(), d_beta @ self._kernel.ramp])

    def _whittle(self, model, grad):
        f = np.asarray(sdf_sampled(model, self._freqs))
        value = spectral_nll(self._shat, f, self._mask)
        if not grad:
            return value, None
        return value, (sdf_grad(model, self._freqs) * self._weights(f)).sum(axis=1)

    def _weights(self, svals) -> np.ndarray:
        """w = (1/N)(1/s - Shat/s^2) on the mask, 0 elsewhere: dl/ds."""
        n = svals.size
        s = svals[self._mask]
        w = np.zeros(n)
        w[self._mask] = (1.0 - self._shat[self._mask] / s) / s / n
        return w

    def _modulated(self, models, phi, grad):
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
        value = spectral_nll(self._shat, sbar, self._mask)
        if not grad:
            return value, None
        w = self._weights(sbar)
        # w is real, so fft(w)[N - k] = conj(fft(w)[k]): the lags up to N/2
        # come from rfft, and the rest are mirrored only when some acv
        # support reaches past them
        big_w = np.fft.rfft(w)
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
        return value, np.concatenate(grad)


class Car1WhittleObjective:
    """Stationary Whittle objective for a rotating complex AR(1).

    theta = (r, sigma) when the rotation is fixed, or (r, sigma, gamma) when
    it is free: ``Objective("whittle", data, car1_model(...))`` with only
    ``names``, ``lower`` and ``upper`` exposed.  It has no ``has_gradient``,
    so :func:`~modwhittle.optimize.fit` minimizes it by Nelder-Mead alone;
    the benchmark tracer's tests use it as that path's fixture.
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
