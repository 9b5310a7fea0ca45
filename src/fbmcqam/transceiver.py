"""End-to-end chains: filter-bank transmit/receive and the CP-OFDM baseline.

The filter-bank receiver is :func:`equalize` applied to the grid of
:func:`fbmc_demodulate`, the SNR-independent front end (matched filter,
optional inverse, per-symbol DFT), just as the OFDM receiver equalizes the
grid of :func:`ofdm_demodulate`.

Both receivers apply one-tap frequency-domain equalization with genie channel
knowledge. The OFDM baseline charges itself the cyclic-prefix energy overhead
by scaling its noise variance by (N + cp) / N, so the two systems compare at
equal transmit energy per information symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import dft_segments, idft_block
from .filterbank import apply_adjoint, apply_filter, apply_inverse

__all__ = [
    "Equalizer",
    "make_equalizer",
    "equalize",
    "fbmc_transmit",
    "fbmc_demodulate",
    "ofdm_modulate",
    "ofdm_demodulate",
]


@dataclass(frozen=True)
class Equalizer:
    """One-tap frequency-domain equalizer: estimates = E * observations."""

    coeffs: np.ndarray        # E, complex, the shape of C
    beta: np.ndarray          # E * C, real in [0, 1]; exactly 1 for ZF


def make_equalizer(c: np.ndarray, kind: str, sigma2: float,
                   delta2: float) -> Equalizer:
    """Build the per-subcarrier equalizer from the channel frequency response.

    ZF refuses exact spectral nulls rather than regularizing them.
    """
    c = np.asarray(c)
    if kind == "zf":
        zero = np.abs(c) == 0
        if np.any(zero):
            bad = int(np.argmax(zero))
            raise ValueError(f"zero-forcing impossible: C[{bad}] = 0")
        e = 1.0 / c
        beta = np.ones(c.shape)
    elif kind == "mmse":
        load = sigma2 / delta2
        denom = np.abs(c) ** 2 + load
        e = np.conj(c) / denom
        beta = np.abs(c) ** 2 / denom
    else:
        raise ValueError(f"unknown equalizer kind {kind!r}")
    return Equalizer(e, beta)


def fbmc_transmit(S: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Filter-bank modulate an N x M (x batch) symbol grid into (K+M-1)N samples."""
    if S.shape[0] != segs.shape[1]:
        raise ValueError(f"grid has {S.shape[0]} subcarriers, filter expects {segs.shape[1]}")
    return apply_filter(segs, idft_block(S))


def fbmc_demodulate(r: np.ndarray, segs: np.ndarray,
                    inv: np.ndarray | None = None) -> np.ndarray:
    """Matched filter, optional inverse filter, per-symbol DFT.

    Returns the unequalized N x M (x batch) grid. ``inv`` is the (N, M, M)
    inverse stack; passing None selects the matched-filter-only receiver.
    """
    x = apply_adjoint(segs, r)
    if inv is not None:
        x = apply_inverse(inv, x)
    return dft_segments(x, segs.shape[1])


def equalize(coeffs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Apply per-trial one-tap coefficients (N, B) to an N x M x B grid; a
    set shared by every trial is one column, (N, 1)."""
    return coeffs[:, None, :] * y


# ---------------------------------------------------------------------------
# CP-OFDM baseline
# ---------------------------------------------------------------------------

def ofdm_modulate(S: np.ndarray, cp_len: int) -> np.ndarray:
    """Serialize an N x nsym (x batch) grid into a CP-OFDM sample train."""
    if cp_len < 0:
        raise ValueError("cp_len must be >= 0")
    n, nsym = S.shape[0], S.shape[1]
    body = np.moveaxis(np.fft.ifft(S, axis=0, norm="ortho"), 1, 0)
    # one (nsym, N + cp, ...) write: the prefix, then the body
    out = np.empty((nsym, n + cp_len) + S.shape[2:], dtype=body.dtype)
    out[:, :cp_len] = body[:, n - cp_len:]
    out[:, cp_len:] = body
    return out.reshape((nsym * (n + cp_len),) + S.shape[2:])


def ofdm_demodulate(y: np.ndarray, n: int, cp_len: int) -> np.ndarray:
    """Strip prefixes and DFT each symbol; inverse of :func:`ofdm_modulate`
    over an ideal channel."""
    step = n + cp_len
    nsym = y.shape[0] // step
    if nsym * step != y.shape[0]:
        raise ValueError(f"stream length {y.shape[0]} not a multiple of {step}")
    sym = y.reshape((nsym, step) + y.shape[1:])
    return np.moveaxis(np.fft.fft(sym[:, cp_len:], axis=1, norm="ortho"), 0, 1)
