"""Foundational types: sampled series, Fourier grids, parameter vectors.

The Fourier grid of a length-N sample is
``(2*pi/N) * (-ceil(N/2)+1, ..., -1, 0, 1, ..., floor(N/2))``
in radians per sample (monotone increasing, always contains 0); spectra on
it are numpy FFT outputs reordered by :func:`_to_grid_order`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Series",
    "FourierGrid",
    "ParameterVector",
    "fourier_grid",
]


@dataclass(frozen=True)
class Series:
    """A uniformly sampled real- or complex-valued sequence.

    values : 1-d array of samples
    delta  : sampling interval (days for drifter data, 1.0 for abstract units)
    kind   : "real" or "complex"
    """

    values: np.ndarray
    delta: float = 1.0
    kind: str = "real"

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("series must be a non-empty 1-d sequence")
        if self.delta <= 0:
            raise ValueError("sampling interval must be positive")
        if self.kind not in ("real", "complex"):
            raise ValueError(f"unknown series kind {self.kind!r}")
        if self.kind == "real":
            if np.iscomplexobj(v) and np.any(v.imag != 0):
                raise ValueError("real-kind series has nonzero imaginary parts")
            v = np.asarray(v, dtype=float)
        else:
            v = np.asarray(v, dtype=complex)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class FourierGrid:
    """The N Fourier frequencies of a length-N sample, radians per sample."""

    frequencies: np.ndarray
    multipliers: np.ndarray  # integer k with frequency = 2*pi*k/N

    def __post_init__(self):
        for name in ("frequencies", "multipliers"):
            a = np.asarray(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.frequencies.size

    @property
    def n(self) -> int:
        return self.frequencies.size

    def cycles_per_unit(self, delta: float) -> np.ndarray:
        """Grid frequencies in cycles per time unit for sampling interval delta."""
        return self.frequencies / (2.0 * np.pi * delta)


@functools.lru_cache(maxsize=8)  # read-only: one grid per N serves every objective
def fourier_grid(n: int) -> FourierGrid:
    """Fourier frequencies 2*pi*k/N for k = -ceil(N/2)+1, ..., floor(N/2)."""
    if n < 1:
        raise ValueError("grid length must be a positive integer")
    k = np.arange(-(int(np.ceil(n / 2)) - 1), int(np.floor(n / 2)) + 1)
    return FourierGrid(frequencies=2.0 * np.pi * k / n, multipliers=k)


def _to_grid_order(fft_out: np.ndarray) -> np.ndarray:
    """Reorder a numpy-order FFT output (k = 0..N-1) onto the Fourier grid."""
    cut = fft_out.shape[-1] // 2 + 1  # the first negative frequency
    return np.concatenate((fft_out[..., cut:], fft_out[..., :cut]), axis=-1)


def _from_grid_order(grid_vals: np.ndarray) -> np.ndarray:
    cut = (grid_vals.shape[-1] - 1) // 2  # the position of frequency 0
    return np.concatenate((grid_vals[..., cut:], grid_vals[..., :cut]), axis=-1)


@dataclass
class ParameterVector:
    """Named parameter values with per-parameter open-interval bounds.

    Bounds are (lower, upper) pairs; infinite endpoints mean unbounded.
    Finite endpoints are treated as open (values must be strictly inside),
    which is what the bound-respecting optimizer transform requires.
    """

    names: list[str]
    values: np.ndarray
    lower: np.ndarray = field(default=None)
    upper: np.ndarray = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        d = self.values.size
        if d < 1 or len(self.names) != d:
            raise ValueError("parameter names and values must align, length >= 1")
        if self.lower is None:
            self.lower = np.full(d, -np.inf)
        if self.upper is None:
            self.upper = np.full(d, np.inf)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.size != d or self.upper.size != d:
            raise ValueError("bounds must have one (lower, upper) pair per parameter")
        if (self.lower >= self.upper).any():
            raise ValueError("each lower bound must be below its upper bound")

    def __len__(self) -> int:
        return self.values.size

    def validate_interior(self):
        """Raise if any value sits on or outside a finite (open) bound."""
        inside = (self.values > self.lower) & (self.values < self.upper)
        if not np.all(inside):
            bad = [self.names[i] for i in np.flatnonzero(~inside)]
            raise ValueError(f"parameters not strictly inside bounds: {bad}")

    def asdict(self) -> dict:
        return dict(zip(self.names, (float(v) for v in self.values)))

    def replace(self, values) -> "ParameterVector":
        return ParameterVector(
            names=list(self.names),
            values=np.asarray(values, dtype=float),
            lower=self.lower.copy(),
            upper=self.upper.copy(),
        )
