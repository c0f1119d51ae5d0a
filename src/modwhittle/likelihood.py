"""Objective functions: exact Gaussian, stationary Whittle, modulated Whittle.

All three are negative log pseudo-likelihoods scaled by 1/N and are minimized
over the latent parameters.  The frequency-domain objectives share the form

    (1/N) sum_{w in mask} [ log s(w; theta) + Shat(w) / s(w; theta) ],

with s the stationary sdf f_X (Whittle) or the exact expected periodogram
Sbar (modulated Whittle).  The 1/N factor keeps the full grid size even under
a frequency mask, so masked and unmasked values stay on one scale.

Everything here is pure given immutable inputs; the objective classes only
precompute quantities that do not depend on theta (periodogram, c_g, grid
trigonometry), which is what makes each evaluation O(N log N).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import ParameterVector, Series, _from_grid_order, fourier_grid
from .models import (
    GRADIENT_FAMILIES,
    LatentModel,
    autocov_grad,
    autocov_sequence,
    geometric_acv,
    sdf_sampled,
)
from .modulation import (
    CgSequence,
    Modulator,
    cg_linear_closed_form,
    cg_sequence,
    significant_correlation_diagnostic,
)
from .spectra import (
    expected_acv,
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
    "whittle_nll",
    "modulated_whittle_nll",
    "aggregate_expected_periodogram",
    "compare_likelihoods",
    "spectral_nll",
    "resolve_mask",
    "Car1WhittleObjective",
    "LinearBetaCar1Objective",
    "LinearBetaCar1ExactObjective",
]

EXACT_CAP = 2048


def resolve_mask(n: int, mask=None, drop_zero: bool = False) -> np.ndarray:
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
    if drop_zero:
        out[list(fourier_grid(n).multipliers).index(0)] = False
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
                       theta=None, cap: int = EXACT_CAP) -> float:
    """(1/N') [log|C_Y| + y* C_Y^{-1} y] over the points where g != 0.

    C_Y(t1,t2) = g_{t1} conj(g_{t2}) c_X(t1-t2), Cholesky-based; the complex
    case uses the proper-Gaussian density (equivalently the 2N-dimensional
    real Gaussian implied by propriety, up to an affine constant).
    """
    if len(data) > cap:
        raise ValueError(f"exact likelihood capped at N <= {cap}")
    if theta is not None:
        model = model.with_values(theta)
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
    z = np.asarray(z, dtype=complex)
    n = z.size
    if beta.size != n - 1:
        raise ValueError("need one rotation per transition")
    if not (0.0 <= r < 1.0) or sigma <= 0:
        raise ValueError("requires 0 <= r < 1 and sigma > 0")
    s2 = sigma * sigma
    resid = z[1:] - r * np.exp(1j * beta) * z[:-1]
    nll = np.log(s2 / (1.0 - r * r)) + np.abs(z[0]) ** 2 * (1.0 - r * r) / s2
    nll += (n - 1) * np.log(s2) + float(np.sum(np.abs(resid) ** 2)) / s2
    return float(nll) / n


# ----------------------------------------------------------------------
# Whittle objectives
# ----------------------------------------------------------------------

def whittle_nll(data: Series, model: LatentModel, theta=None, mask=None) -> float:
    """Stationary Whittle objective with the model sdf f_X on the grid."""
    if theta is not None:
        model = model.with_values(theta)
    n = len(data)
    shat = periodogram(data).values
    f = np.asarray(sdf_sampled(model, fourier_grid(n).frequencies))
    return spectral_nll(shat, f, resolve_mask(n, mask))


def modulated_whittle_nll(data: Series, mod: Modulator, model: LatentModel,
                          theta=None, mask=None,
                          cg: CgSequence | None = None) -> float:
    """Modulated Whittle objective with the exact expected periodogram."""
    if mod.n != len(data):
        raise ValueError("modulator and data lengths differ")
    if theta is not None:
        model = model.with_values(theta)
    n = len(data)
    shat = periodogram(data).values
    if cg is None:
        cg = cg_sequence(mod)
    sbar = expected_periodogram_values(expected_acv(cg, model))
    return spectral_nll(shat, sbar, resolve_mask(n, mask))


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


def _latents(model: LatentModel | AggregateModel) -> list:
    """The latent models of a plain or aggregate model, in parameter order."""
    if isinstance(model, AggregateModel):
        return [m for m, _ in model.components]
    return [model]


def _has_acv_grad(m: LatentModel) -> bool:
    """Whether :func:`autocov_grad` serves m: a GRADIENT_FAMILIES family,
    AR of order 1 only."""
    return m.family in GRADIENT_FAMILIES and (m.family != "ar" or len(m.params) == 2)


def _summed_acv(cgs, acvs) -> np.ndarray:
    """sum_c c_g,c * c_X,c, kept real when every term is."""
    total = np.zeros(len(cgs[0]), dtype=complex)
    for cg, acv in zip(cgs, acvs):
        total = total + cg * acv
    if not np.any(total.imag):
        total = total.real
    return total


def aggregate_expected_acv(agg: AggregateModel,
                           cgs: list[np.ndarray] | None = None) -> np.ndarray:
    """Sum of per-component expected autocovariances c_g * c_X at lags 0..N-1."""
    n = agg.n
    if cgs is None:
        cgs = [
            (cg_sequence(mod).values if mod is not None
             else 1.0 - np.arange(n) / n)
            for _, mod in agg.components
        ]
    return _summed_acv(cgs, [np.asarray(autocov_sequence(m, n)) for m in _latents(agg)])


def aggregate_expected_periodogram(agg: AggregateModel, theta=None) -> np.ndarray:
    """Expected periodogram of the aggregate: one transform of the summed acv."""
    if theta is not None:
        agg = agg.with_values(theta)
    return expected_periodogram_values(aggregate_expected_acv(agg))


# ----------------------------------------------------------------------
# reusable objective wrappers (precompute everything theta-independent)
# ----------------------------------------------------------------------

@dataclass
class Objective:
    """A configured objective: kind exact | whittle | modulated-whittle.

    Instances are callables theta -> scalar nll; construction precomputes the
    periodogram and c_g so repeated evaluations stay O(N log N).  The
    modulated-whittle kind keeps the periodogram and the frequency mask in
    numpy FFT order (k = 0..N-1), the order its expected periodogram comes
    out of the transform in, and ``cgs`` holds the c_g table (lags 0..N-1)
    of each component, computed once.  When every latent model has an
    autocovariance gradient (a GRADIENT_FAMILIES family, AR of order 1 only)
    it also has a gradient (``has_gradient``, see :meth:`value_and_grad`).
    """

    kind: str
    data: Series
    model: LatentModel | AggregateModel
    modulator: Modulator | None = None
    mask: np.ndarray | None = None
    drop_zero: bool = False
    exact_cap: int = EXACT_CAP
    check_significance: bool = True
    _mask: np.ndarray = field(init=False, repr=False)
    _shat: np.ndarray = field(init=False, repr=False, default=None)
    cgs: list = field(init=False, repr=False, default=None)
    has_gradient: bool = field(init=False, default=False)

    def __post_init__(self):
        n = len(self.data)
        if self.kind not in ("exact", "whittle", "modulated-whittle"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == "modulated-whittle" and self.modulator is None and \
                not isinstance(self.model, AggregateModel):
            raise ValueError("modulated-whittle requires a modulator")
        if self.kind == "exact" and n > self.exact_cap:
            raise ValueError(f"exact objective capped at N <= {self.exact_cap}")
        if self.modulator is not None and self.modulator.n != n:
            raise ValueError("modulator and data lengths differ")
        self._mask = resolve_mask(n, self.mask, self.drop_zero)
        if self.kind != "exact":
            self._shat = periodogram(self.data).values
        if self.kind == "modulated-whittle":
            self._shat = _from_grid_order(self._shat)
            self._mask = _from_grid_order(self._mask)
            self.has_gradient = all(_has_acv_grad(m) for m in _latents(self.model))
            if isinstance(self.model, AggregateModel):
                self.cgs = [
                    (cg_sequence(m).values if m is not None else 1.0 - np.arange(n) / n)
                    for _, m in self.model.components
                ]
            else:
                self.cgs = [cg_sequence(self.modulator).values]
                if self.check_significance:
                    diag = significant_correlation_diagnostic(
                        self.modulator, lags=[0, 1],
                        n_grid=[max(2, n // 2), n])
                    if diag["flagged"]:
                        warnings.warn(
                            "modulator fails the significant-correlation "
                            f"diagnostic at lags {diag['flagged']}; estimates "
                            "may be unreliable", RuntimeWarning)

    @property
    def init_params(self) -> ParameterVector:
        return self.model.params

    def __call__(self, theta) -> float:
        if not np.all(np.isfinite(theta)):
            return np.inf
        try:
            model = self.model.with_values(theta)
        except ValueError:  # theta outside the model class, e.g. a
            return np.inf   # non-stationary AR: the optimizer steps back
        n = len(self.data)
        if self.kind == "exact":
            return exact_gaussian_nll(self.data, self.modulator, model,
                                      cap=self.exact_cap)
        if self.kind == "whittle":
            f = np.asarray(sdf_sampled(model, fourier_grid(n).frequencies))
            return spectral_nll(self._shat, f, self._mask)
        acvs = [np.asarray(autocov_sequence(m, n)) for m in _latents(model)]
        sbar = expected_periodogram_fft_order(self._cbar(acvs))
        return spectral_nll(self._shat, sbar, self._mask)

    def _cbar(self, acvs) -> np.ndarray:
        if isinstance(self.model, AggregateModel):
            return _summed_acv(self.cgs, acvs)
        return self.cgs[0] * acvs[0]

    def value_and_grad(self, theta) -> tuple[float, np.ndarray]:
        """The modulated Whittle nll and its gradient in theta.

        With S = Sbar and w_k = (1/N)(1/S_k - Shat_k/S_k^2) on the mask, 0
        elsewhere, and W = fft(w), the adjoint of S = 2 Re fft(cbar) - cbar(0)
        gives, for a component with kernel c_g,

            dl/dtheta_j = 2 Re sum_tau c_g(tau) dc_X(tau)/dtheta_j W(tau)
                          - Re[c_g(0) dc_X(0)/dtheta_j] sum_k w_k,

        summed over the lags where c_X is not truncated: one extra FFT per
        evaluation whatever the number of parameters.  The value equals
        ``self(theta)``.  Theta outside the model class, non-finite theta,
        and a non-finite value or gradient score +inf with a zero gradient.
        """
        if not self.has_gradient:
            raise ValueError("objective has no analytic gradient")
        theta = np.asarray(theta, dtype=float)
        if not np.all(np.isfinite(theta)):
            return np.inf, np.zeros(theta.size)
        try:
            model = self.model.with_values(theta)
        except ValueError:
            return np.inf, np.zeros(theta.size)
        n = len(self.data)
        tables = [autocov_grad(m, n) for m in _latents(model)]
        sbar = expected_periodogram_fft_order(self._cbar([c for c, _ in tables]))
        value = spectral_nll(self._shat, sbar, self._mask)
        s = sbar[self._mask]
        w = np.zeros(n)
        w[self._mask] = (1.0 - self._shat[self._mask] / s) / s / n
        # w is real, so fft(w)[N - k] = conj(fft(w)[k]): the lags up to N/2
        # come from rfft, and the rest are mirrored only when some acv
        # support reaches past them
        big_w = np.fft.rfft(w)
        if max(jac.shape[1] for _, jac in tables) > big_w.size:
            big_w = np.concatenate((big_w, np.conj(big_w[n - big_w.size:0:-1])))
        w_sum = float(np.sum(w))
        grad = []
        for cg, (_, jac) in zip(self.cgs, tables):
            keep = jac.shape[1]
            # an elementwise sum, not jac @ ...: a threaded BLAS call costs
            # more than the product on these short rows
            terms = np.real(jac * (cg[:keep] * big_w[:keep]))
            grad.append(2.0 * terms.sum(axis=1) - np.real(cg[0] * jac[:, 0]) * w_sum)
        grad = np.concatenate(grad)
        if not (np.isfinite(value) and np.all(np.isfinite(grad))):
            return np.inf, np.zeros(theta.size)
        return value, grad


class Car1WhittleObjective:
    """Stationary Whittle objective for a rotating complex AR(1).

    theta = (r, sigma) when the rotation is fixed, or (r, sigma, gamma) when
    it is free; f(w) = sigma^2 / (1 + r^2 - 2 r cos(w - gamma)).
    """

    def __init__(self, data: Series, rotation: float | None = 0.0, mask=None):
        self.n = len(data)
        self.shat = periodogram(data).values
        self.rotation = rotation  # None -> gamma is the third free parameter
        w = fourier_grid(self.n).frequencies
        self.cosw = np.cos(w)
        self.sinw = np.sin(w)
        self.mask = resolve_mask(self.n, mask)
        if rotation is None:
            self.names = ("r", "sigma", "gamma")
            self.lower = np.array([0.0, 0.0, -np.pi])
            self.upper = np.array([1.0, np.inf, np.pi])
        else:
            self.names = ("r", "sigma")
            self.lower = np.array([0.0, 0.0])
            self.upper = np.array([1.0, np.inf])

    def __call__(self, theta) -> float:
        if self.rotation is None:
            r, sigma, gamma = theta
        else:
            (r, sigma), gamma = theta, self.rotation
        if not (0.0 <= r < 1.0) or sigma <= 0:
            return np.inf
        cosdiff = self.cosw * np.cos(gamma) + self.sinw * np.sin(gamma)
        f = sigma * sigma / (1.0 + r * r - 2.0 * r * cosdiff)
        return spectral_nll(self.shat, f, self.mask)


class LinearBetaCar1Objective:
    """Modulated Whittle for a complex AR(1) whose rotation ramps linearly.

    theta = (r, sigma, gamma, span); the modulator autocovariance comes from
    the closed form, so the kernel costs O(N) per evaluation instead of a
    fresh O(N^2) pass.
    """

    names = ("r", "sigma", "gamma", "span")

    def __init__(self, data: Series, mask=None):
        self.n = len(data)
        self.shat = periodogram(data).values
        self.taus = np.arange(self.n)
        self.mask = resolve_mask(self.n, mask)
        self.lower = np.array([0.0, 0.0, -np.pi, 0.0])
        self.upper = np.array([1.0, np.inf, np.pi, np.pi])

    def __call__(self, theta) -> float:
        r, sigma, gamma, span = theta
        if not (0.0 <= r < 1.0) or sigma <= 0 or not (0.0 < span < np.pi):
            return np.inf
        cg = cg_linear_closed_form(gamma, span, self.n, self.taus)
        sbar = expected_periodogram_values(cg * geometric_acv(r, sigma, self.n))
        return spectral_nll(self.shat, sbar, self.mask)


class LinearBetaCar1ExactObjective:
    """Markov exact likelihood mate of :class:`LinearBetaCar1Objective`."""

    names = ("r", "sigma", "gamma", "span")

    def __init__(self, data: Series):
        self.z = np.asarray(data.values, dtype=complex)
        self.n = self.z.size
        t = np.arange(1, self.n)
        self.ramp = (2.0 * t - (self.n - 1)) / (2.0 * (self.n - 1))
        self.lower = np.array([0.0, 0.0, -np.pi, 0.0])
        self.upper = np.array([1.0, np.inf, np.pi, np.pi])

    def __call__(self, theta) -> float:
        r, sigma, gamma, span = theta
        if not (0.0 <= r < 1.0) or sigma <= 0 or not (0.0 < span < np.pi):
            return np.inf
        beta = gamma + span * self.ramp
        return exact_car1_nll(self.z, beta, r, sigma)


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
