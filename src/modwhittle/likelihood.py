"""Objective functions: exact Gaussian, stationary Whittle, modulated Whittle.

All three are negative log (pseudo-)likelihoods, minimized over the latent
parameters.  Sbar, the sdf and the exact covariance are each proportional to
s2, the square of the latent scale (sigma, A or B,
:data:`~modwhittle.models.SCALE_PARAMS`), so every kind has one form

    l = (L + M log s2 + Q / s2) / n,

with L, Q and M taken at scale 1: L = sum_mask c_k log S_1, Q = sum_mask
c_k Shat / S_1, M the mask size and n = N for the frequency-domain kinds,
S_1 the sdf f_X (Whittle) or the exact expected periodogram Sbar (modulated
Whittle), and c_k = 1 but on the half grid (see :class:`Objective`);
L = log|C_1|, Q = y* C_1^{-1} y and M = n = N', the samples where g != 0,
for the exact kind.  n is the full grid size even under a frequency mask, so
masked and unmasked values stay on one scale.  The scale minimising l is s2
= Q / M, which gives the concentrated likelihood (Brockwell & Davis 1991,
Time Series: Theory and Methods, 10.8) that :meth:`Objective.profile`
evaluates.  An aggregate ties its component scales into one scale and log
ratios of their squares (:class:`AggregateModel`), so its Sbar is
proportional to that s2 too.

One :class:`Objective` evaluates every kind, each with an analytic score.
Construction precomputes what does not depend on theta (periodogram, c_g at
lags 0 and 1, grid frequencies, the kept samples, each latent's raw-float
entry :func:`~modwhittle.models.acv_entry`), so each evaluation is O(N log
N), reads theta as floats and builds no model object.  Every expected
autocovariance is the one component sum cbar = sum c_g c_X of :func:`_cbar`,
over the longest lag support the latent acv tables keep (each stops where it
decays below working precision), which the length-N transform to Sbar
zero-pads; c_g is read only there, so its tables grow to that support on
demand.  A parametric modulation kernel (e.g.
:class:`~modwhittle.modulation.LinearRampKernel`) adds its free parameters
after the latent ones.  The Whittle kind takes ar and car1 alone (an ou or
matern latent takes the modulated-Whittle kind, with ``constant_modulator(n)``
for an unmodulated series).  The exact kind is the O(N) Markov recursion
:func:`_markov` of an ar, car1 or ou latent, whose dense oracle, for any
latent, is :func:`exact_gaussian_nll`.
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
    cg_sequence,  # called through this name, which the benchmark tracer wraps
    component_cg,
    significant_correlation_diagnostic,
)
from .spectra import (
    expected_periodogram_fft_order,
    expected_periodogram_half,
    expected_periodogram_values,
    periodogram,
    periodogram_fft_order,
    periodogram_half,
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
    N <= EXACT_CAP: the dense oracle of the Markov exact :class:`Objective`.
    """
    if len(data) > EXACT_CAP:
        raise ValueError(f"exact likelihood capped at N <= {EXACT_CAP}")
    import scipy.linalg  # about 0.3 s to import, and only the oracle needs it

    y = np.asarray(data.values)
    g = np.ones(y.size) if mod is None else np.asarray(mod.g)
    if g.size != y.size:
        raise ValueError("modulator and data lengths differ")
    keep = np.flatnonzero(np.abs(g) > 0)
    if keep.size == 0:
        raise ValueError("all samples have zero modulation; nothing observed")
    yk, gk = y[keep], g[keep]
    cx = autocov_sequence(model, int(keep[-1]) + 1)
    lag = np.subtract.outer(keep, keep)
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
    return (logdet + float(np.real(np.vdot(yk, alpha)))) / keep.size


def exact_car1_nll(z: np.ndarray, beta: np.ndarray, r: float, sigma: float) -> float:
    """Markov-factorized exact likelihood for z_t = r e^{i beta_t} z_{t-1} + e_t,
    with beta the rotations of steps t = 1..N-1: the :func:`_markov` chain.
    No fit calls it: the benchmark tracer names it, and ROADMAP item 1
    retires it.
    """
    z = np.asarray(z, dtype=complex)
    beta = np.asarray(beta, dtype=float)
    if beta.size != z.size - 1:
        raise ValueError("need one rotation per transition")
    if not (0.0 <= r < 1.0 and sigma > 0):
        raise ValueError("requires 0 <= r < 1 and sigma > 0")
    big_l, quad, _ = _markov(z, np.exp(1j * beta) * z[:-1], r, None, 1.0 - r * r, False)
    n, s2 = z.size, sigma * sigma
    return (big_l + n * math.log(s2) + quad / s2) / n


def _markov(x, prev, a, v, p0, score: bool):
    """(L, Q, (q, h) or None) of the Gaussian Markov chain x_0 of precision
    p0, x_j = a_j prev_j + e_j, prev_j = x_{j-1} (turned by e^{i beta_j}
    under a ramp kernel, whose v is None: v_j = 1) and e_j independent (and
    proper complex where x or a is) of variance v_j: C_X's Cholesky factor.
    So L = sum log v_j - log p0 = log|C_X|, Q = |x_0|^2 p0 + sum h_j = x*
    C_X^{-1} x with h_j = |e_j|^2 / v_j, and with q_j = conj(e_j) prev_j /
    v_j, dQ = |x_0|^2 dp0 - sum h_j dv_j / v_j - 2 Re sum q_j da_j at fixed prev.
    """
    e = x[1:] - a * prev
    h, q, big_l = np.abs(e) ** 2, (np.conj(e) * prev if score else None), -math.log(p0)
    if v is not None:
        h, q, big_l = h / v, (q / v if score else None), float(np.log(v).sum()) + big_l
    quad = abs(x[0]) ** 2 * p0 + float(h.sum())
    return big_l, quad, ((q, h) if score else None)


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
    what does not depend on theta (periodogram, grid frequencies, c_g, the
    kept samples), so evaluations stay O(N log N), and normalises the model
    into one list of latent models, whose parameters lead theta, with either
    fixed c_g tables (``cgs``, one per latent: lags 0 and 1 at build, which
    the method-of-moments starts read, and regrown to min(N, 2L) lags when
    the latent's acv table reaches L lags past them, so they never shrink)
    or a parametric kernel (``params``, ``cg(phi)``, ``cg_grad(phi)``, e.g.
    :class:`~modwhittle.modulation.LinearRampKernel`), whose parameters phi
    follow.  exact takes an ar, car1 or ou latent with a Modulator or none,
    or a car1 latent without rotation under a LinearRampKernel (beta_t =
    gamma + span ramp_t), at any N: the Markov recursion of :meth:`_exact`;
    whittle a plain ar or car1 latent and no modulator; modulated-whittle a
    plain latent with a modulator or a kernel, or an :class:`AggregateModel`.
    Only the spectral kinds take a frequency ``mask``.  Any other shape
    raises ValueError.  The modulated-whittle kind keeps the periodogram and
    the mask in numpy FFT order (k = 0..N-1), the order its expected
    periodogram comes out of the transform in.  A real series whose every
    c_g (a real Modulator or none, no kernel) and latent acv (ar, matern, or
    car1 or ou without rotation) is real has an even periodogram and S_1, S_k
    = S_{N-k}: both spectral kinds keep it on the half grid k = 0..N//2 (the
    grid's w >= 0 for the Whittle kind), where the sums weight each bin by
    c_k = 2, but 1 at k = 0 and (N even) at k = N/2, and M stays the full
    grid's mask size.  Its mask must keep -w wherever it keeps w, or the
    build raises ValueError.  Every kind has a score (:meth:`value_and_grad`).

    ``scale_index`` is the position in theta of the one scale (the latent
    model's, or an aggregate's tied one), and :meth:`profile` evaluates the
    objective at its closed-form optimum.  ``n_rejected`` counts the
    evaluations that scored +inf.
    """

    kind: str
    data: Series
    model: LatentModel | AggregateModel
    modulator: Modulator | LinearRampKernel | None = None
    mask: np.ndarray | None = None
    check_significance: bool = True
    _mask: np.ndarray | slice = field(init=False, repr=False)  # slice: every frequency
    _shat: np.ndarray = field(init=False, repr=False, default=None)  # on the mask
    # on the half grid, the positions on the mask of k = 0 and N/2, the bins
    # that stand for themselves alone (every other one stands for k and N -
    # k too); None on the full grid
    _once: np.ndarray | None = field(init=False, repr=False, default=None)
    _size: int = field(init=False, repr=False, default=0)  # M: the full grid's mask size
    # the exact kind's kept samples y_t / g_t, the distinct gaps between them,
    # each step's gap among those, and sum log|g_t|^2; under a kernel z and no gaps
    _kept: tuple = field(init=False, repr=False, default=None)
    _kernel: LinearRampKernel | None = field(init=False, repr=False, default=None)
    # (raw-float entry, slice of the component values) per latent
    _entries: list = field(init=False, repr=False, default=None)
    _n_latent: int = field(init=False, repr=False, default=0)  # latent values
    _n_theta: int = field(init=False, repr=False, default=0)
    cgs: list = field(init=False, repr=False, default=None)
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
        # a real series whose every c_g and latent acv is real has an even
        # periodogram and Sbar: the spectral kinds keep k = 0..N//2 alone.
        # A car1 or ou acv is real when its fixed rotation is 0 and it has no
        # free one (gamma)
        half = (np.isrealobj(self.data.values) and self._kernel is None
                and all(mod is None or not mod.is_complex for _, mod in components)
                and all(m.family in ("ar", "matern")
                        or (m.rotation == 0.0 and "gamma" not in m.params.names)
                        for m, _ in components))
        omega = fourier_grid(n).frequencies
        if half:  # the grid's k >= 0
            omega = omega[(n - 1) // 2:]
        self._entries = []
        for m, _ in components:
            d = len(m.params)
            entry = sdf_entry(m, omega) if self.kind == "whittle" else acv_entry(m)
            self._entries.append((entry, slice(self._n_latent, self._n_latent + d)))
            self._n_latent += d
        self._n_theta = self._n_latent + (0 if self._kernel is None
                                           else len(self._kernel.params))
        self._mask = slice(None)  # every frequency: the grid indexed by a view
        if self.kind == "exact":
            m = self.model
            if self.mask is not None:
                raise ValueError("the exact kind takes no frequency mask")
            if m.family not in ("ar", "car1", "ou"):
                raise ValueError(f"the exact kind takes an ar, car1 or ou latent, not "
                                 f"{m.family}: exact_gaussian_nll evaluates it densely")
            if self._kernel is not None:  # the ramp's chain reads z alone
                if not (isinstance(self._kernel, LinearRampKernel) and m.family == "car1"
                        and len(m.params) == 2 and m.rotation == 0.0):
                    raise ValueError("the exact kind takes a kernel only as a "
                                     "LinearRampKernel on a car1 latent without rotation")
                self._kept = (np.asarray(self.data.values, dtype=complex), None, None, 0.0)
                return
            g = np.ones(n) if self.modulator is None else self.modulator.g
            keep = np.flatnonzero(g)
            if keep.size == 0:
                raise ValueError("all samples have zero modulation; nothing observed")
            gaps, index = np.unique(np.diff(keep), return_inverse=True)
            self._kept = (np.asarray(self.data.values)[keep] / g[keep], gaps, index,
                          2.0 * float(np.log(np.abs(g[keep])).sum()))
            return
        # FFT order, as Sbar comes out, and on the half grid
        fft_order = half or self.kind == "modulated-whittle"
        if self.mask is not None:  # the mask's positions, unless it keeps them all
            mask = resolve_mask(n, self.mask)
            mask = _from_grid_order(mask) if fft_order else mask
            if half:
                if not np.array_equal(mask[1:], mask[:0:-1]):
                    raise ValueError("a frequency mask on a real series must keep "
                                     "frequency -w where it keeps w")
                mask = mask[:n // 2 + 1]
            self._mask = slice(None) if mask.all() else np.flatnonzero(mask)
        if half:
            shat = periodogram_half(self.data)
        else:
            shat = periodogram_fft_order(self.data) if fft_order else periodogram(self.data)
        self._shat = shat[self._mask]
        self._size = self._shat.size
        if half:
            k = np.arange(shat.size)[self._mask]
            self._once = np.flatnonzero((k == 0) | (2 * k == n))
            self._size = 2 * k.size - self._once.size
        if self.kind == "whittle":
            return
        if self._kernel is None:
            self.cgs = [component_cg(mod, n, min(n, 2)) for _, mod in components]
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

        exact: the score of the Markov recursion (see :meth:`_exact`).

        whittle: with f the sdf on the grid and w = dl/df (see
        :meth:`_chain`), dl/dtheta_j = sum_k w_k df_k/dtheta_j, with df/dtheta
        the closed-form rows of :func:`~modwhittle.models.sdf_entry`.

        modulated-whittle: with S = Sbar, w = dl/dS and W = fft(w) over the
        full grid, the adjoint of S = 2 Re fft(cbar) - cbar(0) gives, for a
        component with kernel c_g,

            dl/dtheta_j = 2 Re sum_tau c_g(tau) dc_X(tau)/dtheta_j W(tau)
                          - Re[c_g(0) dc_X(0)/dtheta_j] sum_k w_k,

        summed over the lags where c_X is not truncated: one extra FFT per
        evaluation whatever the number of parameters.  The parameters phi of
        a parametric kernel take the same form with the roles swapped,
        dc_g/dphi_j times c_X, and need no further FFT.  On the half grid w is
        even, so W(tau) = Re sum_k c_k w_k e^{-2 pi i k tau / N} over k =
        0..N//2 and sum_k w_k = sum_k c_k w_k.

        The value equals ``self(theta)``.
        """
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
                    if not profile:  # concatenate costs a quarter of np.insert here
                        gradient = np.concatenate(
                            (gradient[:k], [2.0 * (m - quad / s2) / (scale * n)], gradient[k:]))
            except ValueError:
                pass
            else:
                if math.isfinite(value) and (not grad or np.isfinite(gradient).all()):
                    return value, gradient, (scale if profile else None)
        self.n_rejected += 1
        return np.inf, (np.zeros(len(theta)) if grad else None), None

    def _chain(self, theta, grad):
        """(L, Q, M, n, pull) of the module docstring at theta, a list of
        floats whose scale is 1.  With grad, pull(s2) maps the score at scale
        1 to the gradient at scale^2 = s2 in every parameter but the scale,
        whose entry the caller forms in closed form (a latent's entry never
        forms its scale's row; an aggregate puts its amplitude rows back, for
        the q, and drops the scale's entry after ``tied_gradient``); the
        spectral kinds' is sum_k w_k dS_1/dtheta with w = (1 - Shat / (s2
        S_1)) / (S_1 n) on the mask.  Raises ValueError outside the model class.
        """
        if len(theta) != self._n_theta:
            raise ValueError("parameter vector length mismatch")
        if self.kind == "exact":
            return self._exact(theta, grad)
        values, p = theta, None
        if isinstance(self.model, AggregateModel):
            values, p = self.model.untie(theta)
        if self.kind == "whittle":
            s, pullback = self._whittle(values, grad)
        else:
            s, pullback = self._modulated(values, theta[self._n_latent:], grad)
        n = len(self.data)
        log_s, ratio = np.log(s), self._shat / s
        big_l, quad = float(log_s.sum()), float(ratio.sum())
        if self._once is not None:  # sum_k c_k a_k = 2 sum_k a_k - sum_once a_k
            big_l = 2.0 * big_l - float(log_s[self._once].sum())
            quad = 2.0 * quad - float(ratio[self._once].sum())

        def pull(s2):
            # w = dl/dS_1 on the mask, times the bins each kept one stands for
            w = (1.0 - ratio / s2) / s / n
            if self._once is not None:
                w *= 2.0
                w[self._once] *= 0.5
            if not isinstance(self._mask, slice):  # w is 0 off the mask
                w, on_mask = np.zeros(n if self._once is None else n // 2 + 1), w
                w[self._mask] = on_mask
            gradient = pullback(w)
            if p is not None:
                gradient = self.model.tied_gradient(values, p, gradient)
                k = self.scale_index
                gradient = np.concatenate((gradient[:k], gradient[k + 1:]))
            return gradient

        return big_l, quad, self._size, n, pull

    def _exact(self, theta, grad):
        """(L, Q, N', N', pull) of the exact kind: the :func:`_markov` chain of
        the kept x_j = y_j / g_j, with sum log|g_j|^2 in L.  The acv gives c0
        = c(0) and rho = c(1) / c0 (0 where the table stops at lag 0): over a
        gap of k, a = rho^k, v = c0 (1 - m^k) with m = |rho|^2, and p0 = 1 /
        c0.  So dl/dc0 = (N' - Q / s2) / (c0 N'), with da/drho = k rho^{k-1},
        dv/dm = -c0 k m^{k-1}, drho = (dc(1) - rho dc(0)) / c0 and dm = 2
        Re(conj(rho) drho).  Under the ramp kernel a = r, prev_j = e^{i beta_j}
        z_{j-1}, v = 1 (None) and p0 = 1 - r^2, so dQ/dr = -2r |z_0|^2 - 2 sum Re q_j
        and dQ/dbeta_j = 2r Im q_j.
        """
        x, gaps, index, log_g2 = self._kept
        n = x.size
        if self._kernel is not None:
            r = theta[0]
            if not 0.0 <= r < 1.0:
                raise ValueError("requires 0 <= r < 1")
            prev = np.exp(1j * self._kernel.rotations(theta[2:])) * x[:-1]
            big_l, quad, pieces = _markov(x, prev, r, None, 1.0 - r * r, grad)

            def pull(s2):
                q, _ = pieces
                d_beta = 2.0 * r * q.imag / (s2 * n)
                dq_r = -2.0 * r * abs(x[0]) ** 2 - 2.0 * float(np.sum(q.real))
                return np.array([(2.0 * r / (1.0 - r * r) + dq_r / s2) / n, d_beta.sum(),
                                 d_beta @ self._kernel.ramp])

            return big_l, quad, n, n, pull
        (entry, part), = self._entries
        head, jac = entry(theta[part], 2, grad)
        c0 = float(head[0].real)
        rho = head[1] / c0 if head.size > 1 else 0.0
        mag2 = abs(rho) ** 2
        w = 1.0 - mag2 ** gaps
        big_l, quad, pieces = _markov(x, x[:-1], (rho ** gaps)[index], (c0 * w)[index],
                                      1.0 / c0, grad)

        def pull(s2):
            q, h = pieces
            t = (gaps * mag2 ** (gaps - 1) / w)[index]  # -(dv/dm) / v
            d_m = (float(h @ t) / s2 - float(t.sum())) / n
            d_rho = -2.0 * (q @ (gaps * rho ** (gaps - 1))[index]) / (s2 * n)
            dc0 = jac[:, 0].real
            drho = ((jac[:, 1] if jac.shape[1] > 1 else 0.0) - rho * dc0) / c0
            return ((n - quad / s2) / (c0 * n) * dc0 + 2.0 * d_m * (np.conj(rho) * drho).real
                    + (d_rho * drho).real)

        return big_l + log_g2, quad, n, n, pull

    def _whittle(self, values, grad):
        """The sdf on the mask and, with grad, the map from w = dl/df to the
        gradient."""
        (entry, part), = self._entries
        f, jac = entry(values[part], grad)
        s = f[self._mask]
        if not s.min() > 0:
            raise ValueError("spectral values must be positive on the mask")
        return s, (lambda w: (jac * w).sum(axis=1)) if grad else None

    def _cg_prefix(self, i, lags):
        """c_g(0..lags-1) of latent i: :func:`cg_sequence` of its modulator,
        or 1 - tau/N when it has none."""
        mod = (self.model.components[i][1] if isinstance(self.model, AggregateModel)
               else self.modulator)
        return (component_cg(None, len(self.data), lags) if mod is None
                else cg_sequence(mod, lags))

    def _modulated(self, values, phi, grad):
        """Sbar on the mask (FFT order) and, with grad, the map from w =
        dl/dSbar to the gradient (in an aggregate's amplitudes too, which
        give its q)."""
        n = len(self.data)
        tables = [entry(values[part], n, grad) for entry, part in self._entries]
        if self._kernel is None:
            cgs, dcg = self.cgs, None
            for i, (acv, _) in enumerate(tables):
                if acv.size > cgs[i].size:
                    cgs[i] = self._cg_prefix(i, min(n, 2 * acv.size))
        else:
            cg, dcg = self._kernel.cg_grad(phi) if grad else (self._kernel.cg(phi), None)
            cgs = [cg]
        cbar = _cbar(cgs, [acv for acv, _ in tables])
        sbar = expected_periodogram_fft_order if self._once is None else expected_periodogram_half
        s = sbar(cbar, n)[self._mask]
        if not grad:
            return s, None
        if isinstance(self.model, AggregateModel):
            tables = [(acv, with_scale_row(m.family, jac, k - part.start, acv, values[k]))
                      for (acv, jac), (m, _), (_, part), k in
                      zip(tables, self.model.components, self._entries,
                          self.model._scale_slots.tolist())]

        def pullback(w):
            # W = fft(w) over the full grid.  w is real, so fft(w)[N - k] =
            # conj(fft(w)[k]): the lags up to N/2 come from rfft, and the
            # rest are mirrored only when some acv support reaches past them.
            # On the half grid w holds c_k w_k at k = 0..N//2, which rfft
            # zero-pads to N: the real part of that transform is W, and it
            # is all the adjoint reads there, where cbar and jac are real
            big_w = np.fft.rfft(w, n)
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
    ``names``, ``lower`` and ``upper`` exposed.  It has no ``value_and_grad``,
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
