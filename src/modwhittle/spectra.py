"""Periodograms and the exact expected periodogram of a modulated series.

The expected periodogram is the finite-N mean of the periodogram of the
modulated sample,

    Sbar(w) = 2 Re{ sum_{tau=0}^{N-1} cbar(tau) e^{-i w tau} } - cbar(0),
    cbar(tau) = c_g(tau) * c_X(tau),

evaluated on the Fourier grid w_k = 2 pi k / N by one length-N FFT.  On
that grid the lag sum is fft(cbar)[k] itself: bin 2k of the zero-padded
length-2N transform is sum_tau cbar(tau) e^{-2 pi i (2k) tau / 2N}, which is
bin k of the unpadded one, so padding only computes the odd bins nobody
reads.  A real series has an even periodogram, Shat(w_{N-k}) = Shat(w_k),
and a real cbar an even Sbar, so the half grid k = 0..N//2 holds either
whole: :func:`periodogram_half` and :func:`expected_periodogram_half` take
it by rfft.

A cbar that is zero past lag L makes this a pruned transform (Sorensen &
Burrus 1993, IEEE Trans. Signal Process. 41:1184).  Take Q, the least power
of two >= 2L, and, where Q divides N, P = N / Q.  Bin k = r + P c (r < P,
c < Q) splits each term exactly, e^{-2 pi i k tau / N} = e^{-2 pi i r tau /
N} e^{-2 pi i c tau / Q}, so row r of Sbar, its bins r + P c, takes one
length-Q transform of the twiddled lags.  cbar is real, so 2 Re is the same
with the conjugate twiddles cbar(tau) e^{2 pi i r tau / N}, and since tau
< L <= Q/2 their transform is an irfft: its Hermitian extension gives the
2 Re, and its real bin 0 the single cbar(0).  An even Sbar needs
the rows r <= P/2 alone, because for r > P/2 bin r + P c is the mirror of
bin (P - r) + P (Q - 1 - c).  So where P >= 4 a real cbar takes P/2 + 1
transforms of length Q in place of one of length N, and
:func:`lag_sums_half`, which pulls the score back, their transpose.  Every
other Sbar (P < 4, or a complex cbar) takes the one length-N transform.
Every transform is numpy.fft's, so the module needs numpy alone.
A dense-covariance quadratic form oracle is kept for ground truth on
small N, together with the Fejer kernel and the exponential QQ diagnostic.
Spectra pass between these functions as plain numpy arrays on the Fourier
grid; the periodogram and the expected periodograms come back read-only.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import Series, fourier_grid, _to_grid_order
from .models import LatentModel, autocov_sequence
from .modulation import Modulator

__all__ = [
    "periodogram",
    "periodogram_fft_order",
    "periodogram_half",
    "expected_acv",
    "expected_periodogram",
    "expected_periodogram_values",
    "expected_periodogram_fft_order",
    "expected_periodogram_half",
    "lag_sums_half",
    "brute_force_expected_periodogram",
    "fejer_kernel",
    "exponential_qq",
]

ORACLE_CAP = 256
_NEG_CLAMP = 1e-8
_TINY = 1e-300


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def periodogram(series: Series) -> np.ndarray:
    """Shat(w) = (1/N) |sum_t x_t e^{-iwt}|^2 on the Fourier grid, read-only."""
    return _readonly(_to_grid_order(periodogram_fft_order(series)))


def periodogram_fft_order(series: Series) -> np.ndarray:
    """:func:`periodogram` at w_k = 2 pi k / N for k = 0..N-1, numpy FFT
    order, as a new writable array."""
    x = np.asarray(series.values)
    return np.abs(np.fft.fft(x)) ** 2 / x.size


def periodogram_half(series: Series) -> np.ndarray:
    """:func:`periodogram` of a real series on the half grid, w_k = 2 pi k /
    N for k = 0..N//2, by rfft, as a new writable array: the rest is its
    mirror, Shat(w_{N-k}) = Shat(w_k)."""
    x = np.asarray(series.values)
    return np.abs(np.fft.rfft(x)) ** 2 / x.size


def expected_acv(cg: np.ndarray, model: LatentModel) -> np.ndarray:
    """cbar(tau) = c_g(tau) * c_X(tau) at lags 0..N-1.  N is cg's length, so
    cg must hold all N lags (``cg_sequence(mod)``): a prefix sets a wrong N."""
    cg = np.asarray(cg)
    return cg * autocov_sequence(model, cg.size)


def expected_periodogram_values(cbar: np.ndarray) -> np.ndarray:
    """Lag-to-frequency transform of an expected autocovariance sequence.

    :func:`expected_periodogram_fft_order` reordered onto the Fourier grid.
    """
    return _to_grid_order(expected_periodogram_fft_order(cbar))


def expected_periodogram_fft_order(cbar: np.ndarray, n: int | None = None) -> np.ndarray:
    """Sbar at w_k = 2 pi k / N for k = 0..N-1, numpy FFT order.

    Sbar(w_k) = 2 Re{fft(cbar)[k]} - cbar(0) with one length-N FFT (see the
    module docstring); a real cbar takes :func:`expected_periodogram_half`
    and mirrors it, Sbar(w_{N-k}) = Sbar(w_k).
    N is n when given (cbar then holds lags 0..L-1, L <= N, of a sequence
    that is zero past them, and the transform zero-pads it), else cbar's
    length.
    Raises when a value drops below -1e-8 (an invalid cbar, e.g. a non-PSD
    covariance snuck in) or is NaN; round-off negatives above that are
    clamped to a tiny positive number so downstream logs stay finite.  One
    min over the values decides: the check and the clamp run only when it is
    below that tiny number.
    """
    cbar = np.asarray(cbar)
    n = cbar.size if n is None else n
    if not np.iscomplexobj(cbar):
        half = expected_periodogram_half(cbar, n)
        return np.concatenate((half, half[n - half.size:0:-1]))
    _check_support(cbar, n)
    c0 = cbar[0]
    if abs(c0.imag) > 1e-10 * max(1.0, abs(c0.real)):
        raise ValueError("cbar(0) must be real")
    return _checked(2.0 * np.fft.fft(cbar, n).real - c0.real)


def expected_periodogram_half(cbar: np.ndarray, n: int) -> np.ndarray:
    """Sbar of a real cbar on the half grid, w_k for k = 0..N//2:
    2 rfft(cbar, N).real - cbar(0), checked and clamped as
    :func:`expected_periodogram_fft_order` says.  A real cbar has an even
    Sbar, Sbar(w_{N-k}) = Sbar(w_k), so these bins hold all of it.  Where
    the module docstring's split applies, one batched irfft of length Q
    computes it, equal to the rfft within rounding."""
    cbar = np.asarray(cbar)
    _check_support(cbar, n)
    split = _split(n, cbar.size)
    if split is None:
        return _checked(2.0 * np.fft.rfft(cbar, n).real - cbar[0])
    q, twiddles = split
    rows = np.fft.irfft(twiddles[:, :cbar.size] * cbar, q, norm="forward")
    half = np.empty(n // 2 + 1)
    for bins, on_rows in _same_bins(half, rows, n, q):
        bins[...] = on_rows
    return _checked(half)


def lag_sums_half(w: np.ndarray, n: int, lags: int) -> np.ndarray:
    """W(tau) = sum_k w_k cos(2 pi k tau / N) = Re rfft(w, N)[tau] over the
    half grid k = 0..N//2, at tau = 0..lags-1 at least (mirrored, W(N - tau)
    = W(tau), past N//2).  The map cbar -> Sbar of
    :func:`expected_periodogram_half` has the transpose w -> 2 W(tau) - [tau
    = 0] sum_k w_k, so the score pulls w = dl/dSbar back to cbar's lags
    through W.  Where the module docstring's split of a cbar of lags lags
    applies, W is its exact transpose: w scattered onto the P/2 + 1 rows,
    one batched rfft of length Q, and W(tau) = Re sum_r e^{-2 pi i r tau /
    N} R_r(tau), equal to the rfft within rounding."""
    split = _split(n, lags)
    if split is None:
        big_w = np.fft.rfft(w, n).real
        if lags > big_w.size:
            big_w = np.concatenate((big_w, big_w[n - big_w.size:0:-1]))
        return big_w
    q, twiddles = split
    rows = np.zeros((twiddles.shape[0], q))
    for bins, on_rows in _same_bins(np.asarray(w), rows, n, q):
        on_rows[...] = bins
    return (twiddles[:, :lags].conj() * np.fft.rfft(rows)[:, :lags]).real.sum(axis=0)


def _split(n: int, lags: int):
    """(Q, twiddles) of the module docstring's split of a cbar of lags
    lags, or None where it does not apply.  The split needs P >= 4: at P =
    2 (N = 4096, L = 719) it lost, Sbar 35 -> 41 us."""
    q = 1 << (2 * lags - 1).bit_length()
    if n % q or n // q < 4:
        return None
    return q, _twiddles(n, q)


def _same_bins(half: np.ndarray, rows: np.ndarray, n: int, q: int):
    """Pairs of views, of the half grid k = 0..N//2 and of the split's P//2
    + 1 rows of length Q, that hold the same bins: bin k = r + P c sits at
    row r, column c for r <= P/2, else (its mirror) at row P - r, column Q -
    1 - c.  Strided copies, no index table."""
    p, h = n // q, rows.shape[0]
    grid = half[:-1].reshape(q // 2, p)  # grid[c, r] is bin r + P c < N/2
    return ((grid[:, :h], rows[:, :q // 2].T),
            (grid[:, h:], rows[p - h:0:-1, :q // 2 - 1:-1].T),
            (half[-1:], rows[0, q // 2:q // 2 + 1]))


@functools.lru_cache(maxsize=4)
def _twiddles(n: int, q: int) -> np.ndarray:
    """e^{2 pi i r tau / N} at rows r = 0..P//2 and lags tau = 0..Q/2,
    read-only: the split's plan, (P/2 + 1) x (Q/2 + 1) values, about N/4
    (r tau < N, so the angles need no reduction)."""
    turns = np.outer(np.arange(n // q // 2 + 1), np.arange(q // 2 + 1))
    return _readonly(np.exp((2j * np.pi / n) * turns))


def _check_support(cbar: np.ndarray, n: int):
    if cbar.size < 1 or n < cbar.size:
        raise ValueError("expected autocovariance sequence is empty or longer than N")


def _checked(vals: np.ndarray) -> np.ndarray:
    """vals, or ValueError where one is below -1e-8 relative or NaN, with
    the round-off negatives clamped to a tiny positive number."""
    low = vals.min()
    if low >= _TINY:
        return vals
    if np.isnan(low) or low < -_NEG_CLAMP * max(1.0, float(np.max(np.abs(vals)))):
        raise ValueError("expected periodogram is significantly negative or NaN; "
                         "the expected autocovariance input is invalid")
    return np.maximum(vals, _TINY)


def expected_periodogram(cg: np.ndarray, model: LatentModel) -> np.ndarray:
    """Exact expected periodogram for a latent model and precomputed c_g,
    on the Fourier grid, read-only.  cg holds all N lags, as
    :func:`expected_acv` says."""
    return _readonly(expected_periodogram_values(expected_acv(cg, model)))


def brute_force_expected_periodogram(mod: Modulator, model: LatentModel,
                                     cap: int = ORACLE_CAP) -> np.ndarray:
    """Ground-truth expected periodogram from the dense covariance matrix.

    Sbar(w) = (1/N) e_w^H C_Y e_w with C_Y[t,s] = g_t conj(g_s) c_X(t-s) and
    e_w[t] = e^{iwt}.  O(N^2) per frequency; refuses N above `cap` to guard
    against accidental O(N^3) runs.
    """
    n = mod.n
    if n > cap:
        raise ValueError(f"oracle refuses N={n} > cap={cap}")
    g = np.asarray(mod.g, dtype=complex)
    cx = np.asarray(autocov_sequence(model, n), dtype=complex)
    idx = np.subtract.outer(np.arange(n), np.arange(n))
    cmat = np.where(idx >= 0, cx[np.abs(idx)], np.conj(cx[np.abs(idx)]))
    cy = np.outer(g, np.conj(g)) * cmat
    grid = fourier_grid(n)
    e = np.exp(1j * np.outer(np.arange(n), grid.frequencies))
    return _readonly(np.real(np.sum(np.conj(e) * (cy @ e), axis=0)) / n)


def fejer_kernel(n: int, lam) -> np.ndarray | float:
    """sin^2(N*lam/2) / (2*pi*N*sin^2(lam/2)); N/(2*pi) at lam = 0 (mod 2*pi)."""
    if n < 1:
        raise ValueError("kernel order must be positive")
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    half = np.mod(lam_arr / 2.0, np.pi)
    at_zero = np.isclose(np.minimum(half, np.pi - half), 0.0, atol=1e-14)
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = np.sin(n * lam_arr / 2.0) ** 2 / (2.0 * np.pi * n * np.sin(lam_arr / 2.0) ** 2)
    vals = np.where(at_zero, n / (2.0 * np.pi), vals)
    return vals if np.ndim(lam) else float(vals[0])


def exponential_qq(pgram: np.ndarray, sbar: np.ndarray) -> np.ndarray:
    """QQ pairs of sorted Shat/Sbar ratios against Exp(1) order statistics.

    pgram and sbar are a periodogram and an expected periodogram on one grid.
    Returns an (n, 2) array with theoretical quantiles
    E[X_(k)] = sum_{j<=k} 1/(n-j+1) in column 0 and sorted ratios in column 1.
    """
    pgram, sbar = np.asarray(pgram), np.asarray(sbar)
    if pgram.size != sbar.size:
        raise ValueError("periodogram and expected periodogram grids differ")
    if pgram.size == 0:
        raise ValueError("empty grid")
    if not (np.isfinite(sbar) & (sbar > 0)).all():  # NaN <= 0 is False
        raise ValueError("expected periodogram must be finite and positive for the QQ ratio")
    ratios = np.sort(pgram / sbar)
    n = ratios.size
    theo = np.cumsum(1.0 / (n - np.arange(n)))
    return np.column_stack((theo, ratios))
