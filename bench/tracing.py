"""Span tracing for the traced benchmark run.

The traced run wraps the public functions each layer of ``modwhittle`` calls,
by replacing the name in the *calling* module's namespace (for example
``modwhittle.likelihood.expected_periodogram_values``), so that every call that
crosses a layer boundary records one span: name, start, end, parent span and
the id of the op it belongs to.  Counts (evaluations, rejected evaluations,
fits, iterations, computed FFT sizes) are recorded at the same boundaries.

Spans are kept in memory in flat typed arrays and written out when the run
ends.  Self time is a span's duration minus the union of its direct
children's intervals, clipped to the span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from array import array
from collections import defaultdict

import numpy as np

SETUP_OP = -1

# (calling module, attribute, span name).  Each entry is a layer boundary
# that the benchmark's workloads cross; calls inside one module are not
# boundaries and stay unwrapped.
SPAN_TARGETS = (
    ("modwhittle.models", "matern_acv", "models.matern"),
    ("modwhittle.drifter", "matern_acv", "models.matern"),
    ("modwhittle.likelihood", "autocov_sequence", "models.acv"),
    ("modwhittle.simulate", "autocov_sequence", "models.acv"),
    ("modwhittle.likelihood", "periodogram", "spectra.periodogram"),
    ("modwhittle.drifter", "periodogram", "spectra.periodogram"),
    ("modwhittle.likelihood", "cg_sequence", "modulation.cg"),
    ("modwhittle.optimize", "cg_sequence", "modulation.cg"),
    ("modwhittle.likelihood", "cg_linear_closed_form", "modulation.cg_closed"),
    ("modwhittle.likelihood", "significant_correlation_diagnostic", "modulation.diag"),
    ("modwhittle.likelihood", "spectral_nll", "likelihood.nll"),
    ("modwhittle.likelihood", "exact_car1_nll", "likelihood.exact"),
    ("modwhittle.optimize", "transform", "optimize.transform"),
    ("modwhittle.optimize", "inverse_transform", "optimize.transform"),
    ("modwhittle.simulate", "simulate_ar", "simulate.sim"),
    ("modwhittle.simulate", "simulate_complex_ar1", "simulate.sim"),
    ("modwhittle.simulate", "bounded_random_walk_beta", "simulate.sim"),
    ("modwhittle.simulate", "cosine_bernoulli_mask", "simulate.sim"),
    ("modwhittle.simulate", "linear_beta", "simulate.sim"),
    ("modwhittle.drifter", "simulate_drifter_velocities", "simulate.sim"),
    ("modwhittle.drifter", "fourier_grid", "core.grid"),
    ("modwhittle.likelihood", "fourier_grid", "core.grid"),
    # the benchmark's own calls into a layer, made through these names
    ("modwhittle.simulate", "run_study", "simulate.run_study"),
    ("modwhittle.drifter", "fit_drifter", "drifter.fit_drifter"),
)
# wrapped with computed FFT sizes, and with an objective proxy (Tracer.patches)
SBAR_TARGET = ("modwhittle.likelihood", "expected_periodogram_values")
FIT_TARGETS = (("modwhittle.simulate", "fit"), ("modwhittle.drifter", "fit"))

BOUND_EPS = 1e-6

# name -> (unit, better) of every metric layer_metrics reports; times and
# counts are per op unless the unit says otherwise
LAYER_METRICS = {
    "models.matern_s": ("s", "lower"),
    "models.matern_calls": ("count", "lower"),
    "models.matern_cache_hit_ratio": ("ratio", "higher"),
    "models.acv_s": ("s", "lower"),
    "models.acv_calls": ("count", "lower"),
    "spectra.sbar_s": ("s", "lower"),
    "spectra.sbar_calls": ("count", "lower"),
    "spectra.sbar_us.p50": ("us", "lower"),
    "spectra.periodogram_s": ("s", "lower"),
    "spectra.fft_len": ("count", "lower"),
    "spectra.sbar_flops_computed": ("flop", "lower"),
    "spectra.sbar_bytes_computed": ("B", "lower"),
    "spectra.sbar_gflops": ("GFLOP/s", "higher"),
    "modulation.cg_s": ("s", "lower"),
    "modulation.cg_calls": ("count", "lower"),
    "modulation.cg_closed_s": ("s", "lower"),
    "modulation.cg_closed_calls": ("count", "lower"),
    "modulation.diag_s": ("s", "lower"),
    "likelihood.evals": ("count", "lower"),
    "likelihood.eval_us.p50": ("us", "lower"),
    "likelihood.eval_us.p99": ("us", "lower"),
    "likelihood.self_s": ("s", "lower"),
    "likelihood.nll_s": ("s", "lower"),
    "likelihood.exact_s": ("s", "lower"),
    "likelihood.rejected_ratio": ("ratio", "lower"),
    "optimize.fits": ("count", "lower"),
    "optimize.evals_per_fit": ("count", "lower"),
    "optimize.iters_per_fit": ("count", "lower"),
    "optimize.starts_per_fit": ("count", "lower"),
    "optimize.self_s": ("s", "lower"),
    "optimize.transform_s": ("s", "lower"),
    "optimize.converged_ratio": ("ratio", "higher"),
    "optimize.at_bound_ratio": ("ratio", "lower"),
    "simulate.sim_s": ("s", "lower"),
    "simulate.study_self_s": ("s", "lower"),
    "drifter.self_s": ("s", "lower"),
    "core.grid_calls": ("count", "lower"),
    "trace.throughput_drop": ("ratio", "lower"),
}


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of its direct children's intervals.

    Children are clipped to their parent's interval first, and overlapping
    children are counted once.  Inputs are integer nanoseconds; parent is the
    index of the parent span or -1.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = (end - start).astype(float)
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return dur
    par = parent[kids]
    cs = np.maximum(start[kids], start[par])
    ce = np.maximum(np.minimum(end[kids], end[par]), cs)
    order = np.lexsort((cs, par))
    par, cs, ce = par[order], cs[order], ce[order]
    first = np.r_[True, par[1:] != par[:-1]]
    # running maximum of child ends within each parent group: shift each group
    # above the previous one so one global accumulate never crosses groups
    base = int(cs.min())
    width = int(ce.max()) - base + 1
    shift = (np.cumsum(first) - 1) * width
    reach = np.maximum.accumulate(ce - base + shift) - shift + base
    prev = np.r_[cs[0], reach[:-1]]
    prev[first] = cs[first]
    covered = np.maximum(ce - np.maximum(cs, prev), 0)
    return dur - np.bincount(par, weights=covered.astype(float),
                             minlength=dur.size)


def at_bound(values, lower, upper, eps: float = BOUND_EPS) -> bool:
    """True when any value lies within eps*max(1, |b|) of a finite bound b."""
    for v, lo, hi in zip(values, lower, upper):
        for b in (lo, hi):
            if math.isfinite(b) and abs(v - b) <= eps * max(1.0, abs(b)):
                return True
    return False


class TracedObjective:
    """Objective proxy recording one ``likelihood.eval`` span per call.

    Forwards the ``names``/``lower``/``upper`` attributes that ``fit`` reads
    from an objective, so the traced fit sees the same bounds.
    """

    def __init__(self, tracer: "Tracer", objective):
        self._tracer = tracer
        self._objective = objective
        for attr in ("names", "lower", "upper"):
            if hasattr(objective, attr):
                setattr(self, attr, getattr(objective, attr))

    def __call__(self, theta):
        tr = self._tracer
        tr.count("likelihood.evals")
        finite = False
        idx = tr.open("likelihood.eval")
        try:
            val = self._objective(theta)
            finite = bool(np.isfinite(val))
            return val
        finally:
            tr.close(idx)
            if not finite:  # +inf, nan, or raised
                tr.count("likelihood.rejected")


class Tracer:
    """In-memory span and count recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = SETUP_OP
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        if self.op_id != SETUP_OP:
            self.counts[key] += value

    def span(self, name: str, fn):
        """fn wrapped so each call records one span called name."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _sbar(self, fn):
        @functools.wraps(fn)
        def wrapper(cbar, *args, **kwargs):
            idx = self.open("spectra.sbar")
            try:
                return fn(cbar, *args, **kwargs)
            finally:
                self.close(idx)
                n = np.size(cbar)
                m = 2 * n
                # computed from array sizes, not measured: 5 M log2 M flops of
                # a length-M complex FFT; bytes = cbar read once, the length-M
                # complex spectrum written once, the length-N result written
                self.count("spectra.sbar_fft_len", m)
                self.count("spectra.sbar_flops", 5.0 * m * math.log2(m))
                self.count("spectra.sbar_bytes",
                           np.asarray(cbar).nbytes + 16 * m + 8 * n)
        return wrapper

    def _fit(self, fn):
        @functools.wraps(fn)
        def wrapper(objective, *args, **kwargs):
            proxy = TracedObjective(self, objective)
            idx = self.open("optimize.fit")
            try:
                res = fn(proxy, *args, **kwargs)
            finally:
                self.close(idx)
            self.count("optimize.fits")
            self.count("optimize.iters", res.iterations)
            self.count("optimize.starts", res.starts)
            self.count("optimize.converged", bool(res.converged))
            pv = res.theta_hat
            self.count("optimize.at_bound", at_bound(pv.values, pv.lower, pv.upper))
            return res
        return wrapper

    def patches(self) -> list:
        """(module, attribute, replacement) for every wrapped layer boundary."""
        out = []
        for mod_name, attr, name in SPAN_TARGETS:
            mod = importlib.import_module(mod_name)
            out.append((mod, attr, self.span(name, getattr(mod, attr))))
        mod = importlib.import_module(SBAR_TARGET[0])
        out.append((mod, SBAR_TARGET[1], self._sbar(getattr(mod, SBAR_TARGET[1]))))
        for mod_name, attr in FIT_TARGETS:
            mod = importlib.import_module(mod_name)
            out.append((mod, attr, self._fit(getattr(mod, attr))))
        return out

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }


@contextlib.contextmanager
def patched(replacements):
    """Install (module, attribute, value) replacements; restore all on exit."""
    saved = []
    try:
        for mod, attr, value in replacements:
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, ops: int, cache_hits: int, cache_misses: int) -> dict:
    """Per-op layer metrics from a finished traced window of `ops` ops.

    Spans of set-up (op -1) count only toward simulate.sim_s, which on the
    drifter workload is the trajectory generation done during set-up.
    """
    a = tracer.arrays()
    names = list(a["names"])
    dur = (a["end_ns"] - a["start_ns"]).astype(float) * 1e-9
    own = self_times(a["start_ns"], a["end_ns"], a["parent"]) * 1e-9
    in_op = a["op"] != SETUP_OP
    per = max(ops, 1)

    def sel(name, any_op=False):
        if name not in names:
            return np.zeros(dur.size, dtype=bool)
        m = a["name_id"] == names.index(name)
        return m if any_op else m & in_op

    def total(name, self_only=False, any_op=False):
        return float(np.sum((own if self_only else dur)[sel(name, any_op)])) / per

    def calls(name):
        return float(np.count_nonzero(sel(name))) / per

    c = tracer.counts
    evals = c["likelihood.evals"]
    fits = c["optimize.fits"]
    sbar_calls = np.count_nonzero(sel("spectra.sbar"))
    sbar_time = float(np.sum(dur[sel("spectra.sbar")]))
    matern_calls = cache_hits + cache_misses
    return {
        "models.matern_s": total("models.matern"),
        "models.matern_calls": calls("models.matern"),
        "models.matern_cache_hit_ratio": cache_hits / matern_calls if matern_calls else 0.0,
        "models.acv_s": total("models.acv", self_only=True),
        "models.acv_calls": calls("models.acv"),
        "spectra.sbar_s": total("spectra.sbar"),
        "spectra.sbar_calls": calls("spectra.sbar"),
        "spectra.sbar_us.p50": _pct(dur[sel("spectra.sbar")] * 1e6, 50),
        "spectra.periodogram_s": total("spectra.periodogram"),
        "spectra.fft_len": c["spectra.sbar_fft_len"] / sbar_calls if sbar_calls else 0.0,
        "spectra.sbar_flops_computed": c["spectra.sbar_flops"] / per,
        "spectra.sbar_bytes_computed": c["spectra.sbar_bytes"] / per,
        "spectra.sbar_gflops": c["spectra.sbar_flops"] / sbar_time * 1e-9 if sbar_time else 0.0,
        "modulation.cg_s": total("modulation.cg"),
        "modulation.cg_calls": calls("modulation.cg"),
        "modulation.cg_closed_s": total("modulation.cg_closed"),
        "modulation.cg_closed_calls": calls("modulation.cg_closed"),
        "modulation.diag_s": total("modulation.diag"),
        "likelihood.evals": evals / per,
        "likelihood.eval_us.p50": _pct(dur[sel("likelihood.eval")] * 1e6, 50),
        "likelihood.eval_us.p99": _pct(dur[sel("likelihood.eval")] * 1e6, 99),
        "likelihood.self_s": total("likelihood.eval", self_only=True),
        "likelihood.nll_s": total("likelihood.nll"),
        "likelihood.exact_s": total("likelihood.exact"),
        "likelihood.rejected_ratio": c["likelihood.rejected"] / evals if evals else 0.0,
        "optimize.fits": fits / per,
        "optimize.evals_per_fit": evals / fits if fits else 0.0,
        "optimize.iters_per_fit": c["optimize.iters"] / fits if fits else 0.0,
        "optimize.starts_per_fit": c["optimize.starts"] / fits if fits else 0.0,
        "optimize.self_s": total("optimize.fit", self_only=True),
        "optimize.transform_s": total("optimize.transform"),
        "optimize.converged_ratio": c["optimize.converged"] / fits if fits else 0.0,
        "optimize.at_bound_ratio": c["optimize.at_bound"] / fits if fits else 0.0,
        "simulate.sim_s": total("simulate.sim", any_op=True),
        "simulate.study_self_s": total("simulate.run_study", self_only=True),
        "drifter.self_s": total("drifter.fit_drifter", self_only=True),
        "core.grid_calls": calls("core.grid"),
    }
