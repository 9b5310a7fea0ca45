"""Quasi-static Rayleigh multipath channel and noise generation.

Taps are held constant over one transmitted block. The default power delay
profile is exponential over L = 8 taps with the last tap 20 dB below the
first, normalized to unit total power so that SNR = symbol_power / sigma^2
at the receiver input. A window's sample axis leads and a trailing axis, if
any, is the batch; taps are (L,), shared by every column, or (B, L), a row each.

Order contract of ``apply_taps``: every output sample starts at zero and
receives the products ``h[l] * x[t - l]`` in ascending ``l``, with the
multiply and the add rounded separately as two ufunc calls.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def apply_taps(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Convolve within the window: y[t] = sum_l h[l] x[t-l], truncated to len(x)."""
    x = np.asarray(x)
    h = np.asarray(h)
    y = np.zeros(x.shape, dtype=np.result_type(x, h))
    tmp = np.empty_like(y)
    t_len = x.shape[0]
    for l in range(min(h.shape[-1], t_len)):
        np.multiply(h[..., l], x[:t_len - l], out=tmp[l:])  # no tap-l term before row l
        np.add(y[l:], tmp[l:], out=y[l:])
    return y


def overlap_tail(h: np.ndarray, prev: np.ndarray, out_len: int) -> np.ndarray:
    """Leakage of the previous block into the next window at zero guard.

    Returns the first ``out_len`` samples of sum_l h[l] * (prev delayed by l)
    that fall past the end of ``prev``'s own window.
    """
    prev = np.asarray(prev)
    h = np.asarray(h)
    t = prev.shape[0]
    y = np.zeros((out_len,) + prev.shape[1:], dtype=np.result_type(prev, h))
    for l in range(1, h.shape[-1]):
        span = min(l, out_len)
        y[:span] += h[..., l] * prev[t - l:t - l + span]
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
