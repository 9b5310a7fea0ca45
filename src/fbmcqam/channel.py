"""Quasi-static Rayleigh multipath channel and noise generation.

Taps are held constant over one transmitted block. The default power delay
profile is exponential over L = 8 taps with the last tap 20 dB below the
first, normalized to unit total power so that SNR = symbol_power / sigma^2
at the receiver input. A window's sample axis leads and a trailing axis, if
any, is the batch; taps are (L,), shared by every column, or (B, L), a row each.
The kernels compute in complex: real taps or windows are promoted.

``apply_taps`` is one real batched matrix product over the columns: each
column's window, cut into blocks of Q = L output samples, is its stack of
overlapping (Q+L-1)-sample input runs times its own (Q+L-1) x Q Toeplitz
matrix of taps. That is Q+L-1 = 2L-1 complex multiplications per output
sample, zeros included, where the textbook loop does L. Two rules hold for
it, as for the filter-bank kernels: it equals its dense lower-triangular
Toeplitz operator to rounding, and a column's bytes do not depend on how
many columns, or which, it is computed with, since every column is a
product of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

__all__ = [
    "PowerDelayProfile",
    "draw_taps",
    "freq_response",
    "apply_taps",
    "overlap_tail",
    "complex_noise",
]


@dataclass(frozen=True)
class PowerDelayProfile:
    """Per-tap average powers rho_l^2, summing to one."""

    powers: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.powers, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("profile must be a non-empty vector")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("tap powers must be finite and non-negative")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"tap powers sum to {p.sum()}, expected 1")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "powers", p)

    @property
    def n_taps(self) -> int:
        return self.powers.size

    @classmethod
    def exponential(cls, n_taps: int = 8, decay_db: float = 20.0) -> "PowerDelayProfile":
        """Exponential profile; ``decay_db`` is the first-to-last tap drop."""
        if n_taps < 1:
            raise ValueError("n_taps must be >= 1")
        if n_taps == 1 or decay_db == 0:
            p = np.ones(n_taps)
        else:
            rate = np.log(10.0) * decay_db / (10.0 * (n_taps - 1))
            p = np.exp(-rate * np.arange(n_taps))
        return cls(p / p.sum())

    @classmethod
    def from_file(cls, path) -> "PowerDelayProfile":
        """Load `l,rho2` CSV rows covering taps 0..L-1 once; normalized on load."""
        entries = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#") or line.lower().startswith("l,"):
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'l,rho2'")
                l, rho2 = int(parts[0]), float(parts[1])
                if l in entries:
                    raise ValueError(f"{path}:{lineno}: duplicate tap index {l}")
                entries[l] = rho2
        if sorted(entries) != list(range(len(entries))):
            raise ValueError(f"{path}: tap indices must be contiguous from 0")
        p = np.array([entries[l] for l in sorted(entries)])
        total = p.sum()
        if total <= 0:
            raise ValueError(f"{path}: total tap power must be positive")
        return cls(p / total)


def draw_taps(pdp: PowerDelayProfile, rng: np.random.Generator,
              size=()) -> np.ndarray:
    """Rayleigh-faded taps h_l = rho_l * CN(0,1), shape ``size + (L,)``."""
    shape = tuple(size) + (pdp.n_taps,)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return z * np.sqrt(pdp.powers)


def freq_response(h: np.ndarray, n: int) -> np.ndarray:
    """C_n = sum_l h_l exp(-2j pi n l / N) along the last axis."""
    return np.fft.fft(h, n=n, axis=-1)


def _toeplitz_pairs(h: np.ndarray) -> np.ndarray:
    """Each row of (B, L) taps as the real (2(2L-1), 2L) form of its Toeplitz
    matrix T[i, j] = h[j + L-1 - i] (zero off the band): complex entry c
    becomes the 2 x 2 block [[re c, im c], [-im c, re c]], which maps an
    interleaved (real, imaginary) input pair to the output pair."""
    b, taps = h.shape
    k = 2 * taps - 1
    # g[:, s, m] is row s of the block of tap m - (L-1), zero off [0, L)
    g = np.zeros((b, 2, k + taps - 1, 2))
    g[:, 0, taps - 1:k, 0] = g[:, 1, taps - 1:k, 1] = h.real
    g[:, 0, taps - 1:k, 1] = h.imag
    g[:, 1, taps - 1:k, 0] = -h.imag
    # block row i is the run of L blocks from tap L-1 - i on: a view that
    # steps back one block per row, copied out by the reshape
    st = g.strides
    rows = np.ndarray((b, k, 2, 2 * taps), float, g, (k - 1) * st[2],
                      (st[0], -st[2], st[1], st[3]))
    return rows.reshape(b, 2 * k, 2 * taps)


def _convolve(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y[t] = sum_l h[l] x[t-l], truncated to len(x), one product per column.

    The kernel of ``apply_taps``. ``overlap_tail`` calls it directly, so a
    wrapped ``apply_taps`` (``bench/tracing.py`` counts its products) sees
    only its own calls."""
    x = np.asarray(x)
    h = np.asarray(h)
    t_len, taps = x.shape[0], h.shape[-1]
    b = math.prod(x.shape[1:])
    pairs = -(-t_len // (2 * taps))      # pairs of L-sample output blocks
    # every column's window, trial-major, after L-1 zeros and zero-extended
    # to whole pairs; real input is promoted here
    pad = np.empty((b, taps - 1 + 2 * taps * pairs), dtype=complex)
    pad[:, :taps - 1] = 0
    pad[:, taps - 1:taps - 1 + t_len] = x.reshape(t_len, b).T
    pad[:, taps - 1 + t_len:] = 0
    # output block 2j + s reads the 2L-1 padded samples from (2j + s) L on.
    # All runs overlap, but the runs of one parity s are rows 2L apart, so
    # each parity is a strided view that BLAS takes as it is, with no copy
    flat = pad.view(float)
    f = flat.itemsize
    runs = np.ndarray((2, b, pairs, 2 * (2 * taps - 1)), float, flat, 0,
                      (2 * taps * f, flat.strides[0], 4 * taps * f, f))
    y = np.empty((b, pairs, 2, 2 * taps))
    np.matmul(runs, _toeplitz_pairs(np.broadcast_to(h.reshape(-1, taps), (b, taps))),
              out=y.transpose(2, 0, 1, 3))
    y = y.view(complex).reshape(b, 2 * taps * pairs)[:, :t_len]
    return np.ascontiguousarray(y.T).reshape(x.shape)


def apply_taps(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Convolve within the window: y[t] = sum_l h[l] x[t-l], truncated to len(x)."""
    return _convolve(h, x)


def overlap_tail(h: np.ndarray, prev: np.ndarray, out_len: int) -> np.ndarray:
    """Leakage of the previous block into the next window at zero guard.

    Returns the first ``out_len`` samples of sum_l h[l] * (prev delayed by l)
    that fall past the end of ``prev``'s own window.
    """
    prev = np.asarray(prev)
    t, span = prev.shape[0], np.shape(h)[-1] - 1
    # only prev's last L-1 samples reach past its end: convolve them, zero-
    # extended in front when prev is shorter, and then L-1 zeros
    z = np.zeros((2 * span,) + prev.shape[1:], dtype=complex)
    kept = min(t, span)
    z[span - kept:span] = prev[t - kept:]
    y = np.zeros((out_len,) + prev.shape[1:], dtype=complex)
    y[:span] = _convolve(h, z)[span:span + out_len]
    return y


def complex_noise(rng: np.random.Generator, shape, sigma2: float) -> np.ndarray:
    """Circular complex Gaussian noise with per-sample variance ``sigma2``."""
    if sigma2 < 0:
        raise ValueError("noise variance must be >= 0")
    scale = np.sqrt(sigma2 / 2.0)
    # draw straight into the two halves: real parts first, then imaginary
    out = np.empty(shape, dtype=complex)
    draw = rng.standard_normal(shape)
    np.multiply(draw, scale, out=out.real)
    rng.standard_normal(shape, out=draw)
    np.multiply(draw, scale, out=out.imag)
    return out
