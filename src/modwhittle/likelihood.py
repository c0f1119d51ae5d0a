"""Objective functions: exact Gaussian, stationary Whittle, modulated Whittle.

All three are negative log (pseudo-)likelihoods, minimized over the latent
parameters.  Sbar, the sdf and the exact covariance are each proportional to
s2, the square of the latent scale (sigma, A or B,
:data:`~modwhittle.models.SCALE_PARAMS`), so every kind has one form

    l = (L + M log s2 + Q / s2) / n,

with L, Q and M taken at scale 1: L = sum_mask log S_1, Q = sum_mask Shat /
S_1, M the mask size and n = N for the frequency-domain kinds, S_1 the sdf
f_X (Whittle) or the exact expected periodogram Sbar (modulated Whittle);
L = log|C_1|, Q = y* C_1^{-1} y and M = n = N' for the dense exact kind; and
the Markov L and Q of :func:`_exact_car1` with M = n = N.  n is the full grid
size even under a frequency mask, so masked and unmasked values stay on one
scale.  The scale minimising l is s2 = Q / M, which gives the concentrated
likelihood (Brockwell & Davis 1991, Time Series: Theory and Methods, 10.8)
that :meth:`Objective.profile` evaluates.  An aggregate ties its component
scales into one scale and log ratios of their squares
(:class:`AggregateModel`), so its Sbar is proportional to that s2 too.

One :class:`Objective` evaluates every kind.  Construction precomputes what
does not depend on theta (periodogram, c_g, grid frequencies, each latent's
raw-float entry :func:`~modwhittle.models.acv_entry`), so each evaluation is
O(N log N), reads theta as floats and builds no model object; every expected
autocovariance is the one component sum cbar = sum c_g c_X of :func:`_cbar`,
taken over the longest lag support the latent acv tables keep (each stops
where it decays below working precision), which the length-N transform to
Sbar zero-pads.  An objective may take a parametric
modulation kernel (e.g. :class:`~modwhittle.modulation.LinearRampKernel`)
whose free parameters follow the latent ones; the exact kind of a car1
latent under that kernel is the O(N) Markov likelihood :func:`exact_car1_nll`.
That likelihood and every spectral objective have an analytic gradient (the
Whittle kind takes ar and car1 alone; an ou or matern latent takes the
modulated-Whittle kind, with ``constant_modulator(n)`` for an unmodulated
series); :func:`~modwhittle.optimize.fit` searches the dense exact kind on
central differences.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import ParameterVector, Series, _from_grid_order, fourier_grid
from .models import (
    LatentModel,
    acv_entry,
    autocov_sequence,
    car1_model,
    scale_index,
    sdf_entry,
    with_scale_row,
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
    periodogram_fft_order,
)

__all__ = [
    "EXACT_CAP",
    "AggregateModel",
    "Objective",
    "exact_gaussian_nll",
    "exact_car1_nll",
    "aggregate_expected_periodogram",
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
    """(1/N) sum over the mask of log s + shat/s; N is the full grid size.

    No fit calls it: the benchmark tracer names it, and ROADMAP item 1
    retires it.
    """
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
    logdet, quad, kept = _exact_dense(data, mod, lambda lags: autocov_sequence(model, lags))
    return (logdet + quad) / kept


def _exact_dense(data: Series, mod: Modulator | None, acv):
    """(log|C_Y|, y* C_Y^{-1} y, N') of :func:`exact_gaussian_nll`, uncapped;
    acv(L) gives the latent acv at lags 0..L-1, or at the head of them past
    which it is zero."""
    import scipy.linalg  # about 0.3 s to import, and only the dense kind needs it

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
    head = acv(int(t[-1]) + 1)
    cx = np.zeros(int(t[-1]) + 1, dtype=head.dtype)
    cx[:head.size] = head
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


def exact_car1_nll(z: np.ndarray, beta: np.ndarray, r: float, sigma: float) -> float:
    """Markov-factorized exact likelihood for z_t = r e^{i beta_t} z_{t-1} + e_t.

    beta holds the rotations for steps t = 1..N-1.  Equal to the dense
    :func:`exact_gaussian_nll` of the equivalent modulated representation and
    evaluated in O(N).  No fit calls it (an Objective runs :func:`_exact_car1`):
    the benchmark tracer names it, and ROADMAP item 1 retires it.
    """
    if not sigma > 0:
        raise ValueError("requires sigma > 0")
    big_l, quad, _ = _exact_car1(z, beta, r, score=False)
    n, s2 = len(z), sigma * sigma
    return (big_l + n * math.log(s2) + quad / s2) / n


def _exact_car1(z, beta, r, score: bool):
    """(L, Q, derivatives) of :func:`exact_car1_nll` at unit scale.

    With u_t = e^{i beta_t} z_{t-1}, e_t = z_t - r u_t and p_t = conj(e_t) u_t,
    N l = L + N log sigma^2 + Q / sigma^2, where

        L = -log(1 - r^2),   Q = |z_0|^2 (1 - r^2) + sum |e_t|^2,
        dL/dr = 2r / (1 - r^2),   dQ/dr = -2r |z_0|^2 - 2 sum Re p_t,
        dQ/dbeta_t = 2r Im p_t.

    The derivatives (dL/dr, dQ/dr, dQ/dbeta) come with score=True, None
    otherwise.
    """
    z = np.asarray(z, dtype=complex)
    beta = np.asarray(beta, dtype=float)
    if beta.size != z.size - 1:
        raise ValueError("need one rotation per transition")
    if not 0.0 <= r < 1.0:
        raise ValueError("requires 0 <= r < 1")
    u = np.exp(1j * beta) * z[:-1]
    resid = z[1:] - r * u
    z0sq = abs(z[0]) ** 2
    big_l = -math.log(1.0 - r * r)
    quad = z0sq * (1.0 - r * r) + float(np.sum(np.abs(resid) ** 2))
    if not score:
        return big_l, quad, None
    p = np.conj(resid) * u
    return big_l, quad, (2.0 * r / (1.0 - r * r),
                         -2.0 * r * z0sq - 2.0 * float(np.sum(p.real)),
                         2.0 * r * p.imag)


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
    shape it alongside the other parameters.  ``untie`` and ``with_values``
    map tied values back to the component scales.
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

    @functools.cached_property
    def _size(self) -> int:
        return sum(len(m.params) for m, _ in self.components)

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

    def untie(self, values):
        """(component values, p): the tied values with each scale slot set to
        a_k = scale sqrt(p_k), and p = softmax(0, q_2, ..., q_K) =
        exp(x - max x) / sum exp(x - max x), x = (0, q_2, ..., q_K), which
        neither overflows nor divides by zero at any finite q."""
        values = np.array(values, dtype=float)
        slots = self._scale_slots
        if values.size != self._size:
            raise ValueError("parameter vector length mismatch")
        x = np.concatenate(([0.0], values[slots[1:]]))
        p = np.exp(x - x.max())
        p /= p.sum()
        values[slots] = values[slots[0]] * np.sqrt(p)
        return values, p

    def with_values(self, values) -> "AggregateModel":
        """The aggregate at tied values (the layout of ``params``)."""
        values, _ = self.untie(values)
        comps = []
        pos = 0
        for m, mod in self.components:
            d = len(m.params)
            comps.append((m.with_values(values[pos:pos + d]), mod))
            pos += d
        return AggregateModel(components=tuple(comps), n=self.n)

    def tied_gradient(self, untied, p, grad) -> np.ndarray:
        """The gradient in the tied values, from grad, the one in the
        component values untied, where (untied, p) = ``untie(values)``.

        With G_k = a_k dl/da_k / 2 = dl/d log a_k^2 and log a_k^2 =
        2 log scale + log p_k, where d log p_k / dq_j = [k = j] - p_j:

            dl/dscale = sum_k sqrt(p_k) dl/da_k,   dl/dq_j = G_j - p_j sum_k G_k.
        """
        slots = self._scale_slots
        out = np.array(grad, dtype=float)
        g = out[slots]
        big_g = 0.5 * untied[slots] * g
        out[slots[0]] = g @ np.sqrt(p)
        out[slots[1:]] = big_g[1:] - p[1:] * big_g.sum()
        return out


def _cbar(cgs, acvs) -> np.ndarray:
    """cbar = sum over components of c_g * c_X, over the longest acv support
    (every acv is zero past its own); of one component, the product alone."""
    if len(acvs) == 1:
        return cgs[0][:acvs[0].size] * acvs[0]
    total = np.zeros(max(acv.size for acv in acvs), dtype=np.result_type(*cgs, *acvs))
    for cg, acv in zip(cgs, acvs):
        total[:acv.size] += cg[:acv.size] * acv
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
    whittle a plain ar or car1 latent and no modulator; modulated-whittle a
    plain latent with a modulator or a kernel, or an :class:`AggregateModel`.
    Only the spectral kinds take a frequency ``mask``.  Any other shape
    raises ValueError.  The modulated-whittle kind keeps the periodogram and
    the mask in numpy FFT order (k = 0..N-1), the order its expected
    periodogram comes out of the transform in.  For ``has_gradient`` see
    :meth:`value_and_grad`: always true for the spectral kinds, and true for
    exact only under a kernel (the Markov likelihood).

    ``scale_index`` is the position in theta of the one scale (the latent
    model's, or an aggregate's tied one), and :meth:`profile` evaluates the
    objective at its closed-form optimum.  ``n_rejected`` counts the
    evaluations that scored +inf.

    Construction binds each latent's raw-float entry
    (:func:`~modwhittle.models.acv_entry`, or
    :func:`~modwhittle.models.sdf_entry` on the Fourier grid for the
    whittle kind) to its slice of theta, so an evaluation reads theta as
    floats and builds no model object.
    """

    kind: str
    data: Series
    model: LatentModel | AggregateModel
    modulator: Modulator | LinearRampKernel | None = None
    mask: np.ndarray | None = None
    check_significance: bool = True
    _mask: np.ndarray | slice = field(init=False, repr=False)  # slice: every frequency
    _shat: np.ndarray = field(init=False, repr=False, default=None)  # on the mask
    _z: np.ndarray = field(init=False, repr=False, default=None)
    _kernel: LinearRampKernel | None = field(init=False, repr=False, default=None)
    # (raw-float entry, slice of the component values) per latent
    _entries: list = field(init=False, repr=False, default=None)
    _n_latent: int = field(init=False, repr=False, default=0)  # latent values
    _n_theta: int = field(init=False, repr=False, default=0)
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
        self.scale_index = (self.model.scale_index if aggregate
                            else scale_index(self.model))
        if self.modulator is not None and not isinstance(self.modulator, Modulator):
            self._kernel = self.modulator
        self._entries = []
        for m, _ in components:
            d = len(m.params)
            entry = (sdf_entry(m, fourier_grid(n).frequencies) if self.kind == "whittle"
                     else acv_entry(m))
            self._entries.append((entry, slice(self._n_latent, self._n_latent + d)))
            self._n_latent += d
        self._n_theta = self._n_latent + (0 if self._kernel is None
                                           else len(self._kernel.params))
        if self.kind == "exact" and self.mask is not None:
            raise ValueError("the exact kind takes no frequency mask")
        self._mask = slice(None)  # every frequency: the grid indexed by a view
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
        modulated = self.kind == "modulated-whittle"  # FFT order, as Sbar comes out
        if self.mask is not None:  # the mask's positions, unless it keeps them all
            mask = resolve_mask(n, self.mask)
            mask = _from_grid_order(mask) if modulated else mask
            self._mask = slice(None) if mask.all() else np.flatnonzero(mask)
        shat = periodogram_fft_order(self.data) if modulated else periodogram(self.data)
        self._shat = shat[self._mask]
        self.has_gradient = True
        if self.kind == "whittle":
            return
        if self._kernel is None:
            self.cgs = [component_cg(mod, n) for _, mod in components]
        # the lag-0/1 diagnostic needs two samples
        if (self.check_significance and isinstance(self.modulator, Modulator)
                and n >= 2):
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
        :meth:`_chain`), dl/dtheta_j = sum_k w_k df_k/dtheta_j, with df/dtheta
        the closed-form rows of :func:`~modwhittle.models.sdf_entry`.

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
        """The nll concentrated in the scale: its minimum over the scale, at
        scale^2 = Q / M (see the module docstring).

        rest is theta without its ``scale_index`` entry, any sequence of
        floats.  By the envelope theorem the gradient in rest is the joint
        one at that scale.  Returns (value, gradient in rest or None, scale),
        with +inf, a zero gradient and None where the objective rejects rest,
        or where the data are zero on the mask.
        """
        if grad and not self.has_gradient:
            raise ValueError("objective has no analytic gradient")
        return self._evaluate(rest, grad, True)

    def _evaluate(self, theta, grad: bool, profile: bool):
        """(value, gradient or None, concentrated scale or None) at theta, or
        with profile at rest = theta without its scale: the one evaluation
        routine, and the one place that knows the scale.

        The chain runs at scale 1, and its score leaves the scale out.  At
        s2 = scale^2, with profile at the minimiser scale = sqrt(Q / M),

            l = (L + M log s2 + Q / s2) / n,   dl/dscale = 2 (M - Q / s2) / (scale n),

        the latter only in the joint gradient.  Non-finite theta, a scale <=
        0, theta outside the model class (a ValueError of the chain, e.g. an
        AR(1) with |phi| >= 1: the optimizer steps back), data that are zero
        where the objective looks, and a non-finite value or gradient score
        +inf, with a zero gradient, and are counted in ``n_rejected``.
        """
        theta = [float(v) for v in theta]
        k = self.scale_index
        if all(map(math.isfinite, theta)) and (profile or theta[k] > 0.0):
            rest = theta if profile else theta[:k] + theta[k + 1:]
            unit = rest[:k] + [1.0] + rest[k:]
            try:
                big_l, quad, m, n, pull = self._chain(unit, grad)
                # Python floats: a huge scale gives inf, not a warning.  The
                # profiled value takes the direct form at its scale, so it
                # equals a direct evaluation there to the last bit
                scale = math.sqrt(quad / m) if profile else theta[k]
                s2 = scale * scale
                value = (big_l + m * math.log(s2) + quad / s2) / n
                gradient = None
                if grad:
                    gradient = pull(s2)
                    if not profile:
                        gradient = np.insert(gradient, k, 2.0 * (m - quad / s2) / (scale * n))
            except ValueError:
                pass
            else:
                if math.isfinite(value) and (not grad or np.isfinite(gradient).all()):
                    return value, gradient, (scale if profile else None)
        self.n_rejected += 1
        return np.inf, (np.zeros(len(theta)) if grad else None), None

    def _chain(self, theta, grad):
        """(L, Q, M, n, pull) of the module docstring at theta, a list of
        floats whose scale is 1.  With grad, pull(s2) maps the score at
        scale 1 to the gradient at scale^2 = s2 in every parameter but the
        scale, whose entry the caller forms in closed form (a latent's entry
        never forms its scale's row; an aggregate puts its amplitude rows
        back, for the q, and drops the scale's entry after
        ``tied_gradient``); the spectral kinds' is
        sum_k w_k dS_1/dtheta with w = (1 - Shat / (s2 S_1)) / (S_1 n) on the
        mask.  The dense exact kind has no score.  Raises ValueError outside
        the model class.
        """
        if len(theta) != self._n_theta:
            raise ValueError("parameter vector length mismatch")
        if self._z is not None:  # the exact kind under a ramp kernel
            return self._exact_markov(theta, grad)
        values, p = theta, None
        if isinstance(self.model, AggregateModel):
            values, p = self.model.untie(theta)
        if self.kind == "exact":
            (entry, part), = self._entries
            logdet, quad, kept = _exact_dense(
                self.data, self.modulator, lambda lags: entry(values[part], lags, False)[0])
            return logdet, quad, kept, kept, None
        if self.kind == "whittle":
            s, pullback = self._whittle(values, grad)
        else:
            s, pullback = self._modulated(values, theta[self._n_latent:], grad)
        n = len(self.data)
        ratio = self._shat / s

        def pull(s2):
            w = (1.0 - ratio / s2) / s / n
            if not isinstance(self._mask, slice):  # w is 0 off the mask
                w, on_mask = np.zeros(n), w
                w[self._mask] = on_mask
            gradient = pullback(w)
            if p is not None:
                gradient = self.model.tied_gradient(values, p, gradient)
                k = self.scale_index
                gradient = np.concatenate((gradient[:k], gradient[k + 1:]))
            return gradient

        return float(np.log(s).sum()), float(ratio.sum()), s.size, n, pull

    def _exact_markov(self, theta, grad):
        # theta = (r, 1, gamma, span) and no LatentModel: _exact_car1 rejects
        # r outside the model, the kernel the span
        beta = self._kernel.rotations(theta[2:])
        big_l, quad, score = _exact_car1(self._z, beta, theta[0], score=grad)
        n = self._z.size

        def pull(s2):
            dl_r, dq_r, dq_beta = score
            d_beta = dq_beta / (s2 * n)
            return np.array([(dl_r + dq_r / s2) / n, d_beta.sum(),
                             d_beta @ self._kernel.ramp])

        return big_l, quad, n, n, pull

    def _whittle(self, values, grad):
        """The sdf on the mask and, with grad, the map from w = dl/df to the
        gradient."""
        (entry, part), = self._entries
        f, jac = entry(values[part], grad)
        s = f[self._mask]
        if not s.min() > 0:
            raise ValueError("spectral values must be positive on the mask")
        return s, (lambda w: (jac * w).sum(axis=1)) if grad else None

    def _modulated(self, values, phi, grad):
        """Sbar on the mask (FFT order) and, with grad, the map from w =
        dl/dSbar to the gradient (in an aggregate's amplitudes too, which
        give its q)."""
        n = len(self.data)
        if self._kernel is None:
            cgs, dcg = self.cgs, None
        else:
            cg, dcg = self._kernel.cg_grad(phi) if grad else (self._kernel.cg(phi), None)
            cgs = [cg]
        tables = [entry(values[part], n, grad) for entry, part in self._entries]
        cbar = _cbar(cgs, [acv for acv, _ in tables])
        s = expected_periodogram_fft_order(cbar, n)[self._mask]
        if not grad:
            return s, None
        if isinstance(self.model, AggregateModel):
            tables = [(acv, with_scale_row(m.family, jac, k - part.start, acv, values[k]))
                      for (acv, jac), (m, _), (_, part), k in
                      zip(tables, self.model.components, self._entries,
                          self.model._scale_slots.tolist())]

        def pullback(w):
            # w is real, so fft(w)[N - k] = conj(fft(w)[k]): the lags up to
            # N/2 come from rfft, and the rest are mirrored only when some
            # acv support reaches past them
            big_w = np.fft.rfft(w)
            if max(jac.shape[1] for _, jac in tables) > big_w.size:
                big_w = np.concatenate((big_w, np.conj(big_w[n - big_w.size:0:-1])))
            w_sum = float(w.sum())

            def adjoint(jac, other):
                # jac: derivative rows of one factor of cbar, other: the other
                # factor; an elementwise sum, not jac @ ...: a threaded BLAS
                # call costs more than the product on these short rows
                keep = jac.shape[1]
                terms = (jac * (other[:keep] * big_w[:keep])).real
                return 2.0 * terms.sum(axis=1) - (other[0] * jac[:, 0]).real * w_sum

            grad = [adjoint(jac, cg) for cg, (_, jac) in zip(cgs, tables)]
            if dcg is not None:
                acv, jac = tables[0]
                grad.append(adjoint(dcg[:, :jac.shape[1]], acv))
            return grad[0] if len(grad) == 1 else np.concatenate(grad)

        return s, pullback


class Car1WhittleObjective:
    """Stationary Whittle objective for a rotating complex AR(1).

    theta = (r, sigma) when the rotation is fixed, or (r, sigma, gamma) when
    it is free: ``Objective("whittle", data, car1_model(...))`` with only
    ``names``, ``lower`` and ``upper`` exposed.  It has no ``has_gradient``,
    so :func:`~modwhittle.optimize.fit` searches it on central differences;
    it is the benchmark tracer tests' fixture for an objective without a
    score, and ROADMAP item 1 retires it.
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
