"""Banded filter-bank operators: P, G = P^H P and R = G^(-1).

The transmit matrix P is block-banded: block (i, j) is nonzero only for
0 <= i - j <= K-1 and equals a diagonal N x N block carrying tap segment
i - j. P is never materialized: ``apply_filter``/``apply_adjoint`` work on
the (K, N) tap segments, and G and R on per-subcarrier stacks. Samples lead
and trailing axes are a batch, so a lone vector is one column.

Per-subcarrier decoupling: because every block of G is diagonal, G splits
into N independent M x M symmetric banded Toeplitz systems, one per
subcarrier. ``gram_stack``/``inverse_stack`` work on that (N, M, M) stack.

All taps are at matrix scale (``PrototypeFilter.matrix_taps``), so the
matched-filter main band averages to exactly 1 per subcarrier and the K=1
rectangular filter gives G = I.

Order contract of ``apply_filter``, ``apply_adjoint`` and ``apply_inverse``:
every output element starts at zero and receives the same products as the
textbook sum, ``segs[i] * b[j - i]``, ``segs[i] * r[j + i]`` or
``R[:, a, i] * x[i]``, added in ascending ``i``, with the multiply and the
add rounded separately as two ufunc calls (so the inverse is bit-equal to
``einsum("nmi,inb->mnb")``, which a ``matmul`` is not).
"""

from __future__ import annotations

import numpy as np

from .core import PrototypeFilter

__all__ = [
    "tap_segments",
    "window_length",
    "apply_filter",
    "apply_adjoint",
    "apply_inverse",
    "autocorr_bands",
    "gram_stack",
    "inverse_stack",
    "kept_mask",
    "sparsify_inverse",
]


def tap_segments(filt: PrototypeFilter) -> np.ndarray:
    """Matrix-scale taps split into K rows of N: segs[i, v] = u[i*N + v]."""
    return filt.matrix_taps.reshape(filt.overlap, filt.n_subcarriers)


def window_length(n: int, m: int, k: int) -> int:
    """Samples in one transmitted block: (K + M - 1) * N."""
    return (k + m - 1) * n


def apply_filter(segs: np.ndarray, b: np.ndarray) -> np.ndarray:
    """o = P b for stacked time-domain segments b of M*N samples."""
    k, n = segs.shape
    b = np.asarray(b)
    m = b.shape[0] // n
    if m * n != b.shape[0]:
        raise ValueError(f"input length {b.shape[0]} not a multiple of N={n}")
    bb = b.reshape(m, n, -1)
    out = np.zeros((k + m - 1, n, bb.shape[2]), dtype=np.result_type(b, float))
    tmp = np.empty(bb.shape, dtype=out.dtype)
    for i in range(k):
        np.multiply(segs[i][:, None], bb, out=tmp)
        np.add(out[i:i + m], tmp, out=out[i:i + m])
    return out.reshape(((k + m - 1) * n,) + b.shape[1:])


def apply_adjoint(segs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """x = P^H r for a received window of (K+M-1)*N samples."""
    k, n = segs.shape
    r = np.asarray(r)
    km = r.shape[0] // n
    if km * n != r.shape[0] or km < k:
        raise ValueError(f"window length {r.shape[0]} inconsistent with N={n}, K={k}")
    m = km - k + 1
    rr = r.reshape(km, n, -1)
    out = np.zeros((m, n, rr.shape[2]), dtype=r.dtype)
    tmp = np.empty(out.shape, dtype=np.result_type(segs, r))
    for i in range(k):
        np.multiply(segs[i][:, None], rr[i:i + m], out=tmp)
        np.add(out, tmp, out=out)
    return out.reshape((m * n,) + r.shape[1:])


def autocorr_bands(segs: np.ndarray) -> np.ndarray:
    """Band vectors of G: g[d, v] = sum_i segs[i, v] * segs[i-d, v], d in [0, K)."""
    k, n = segs.shape
    g = np.zeros((k, n))
    for d in range(k):
        for i in range(d, k):
            g[d] += segs[i] * segs[i - d]
    return g


def gram_stack(bands: np.ndarray, m: int) -> np.ndarray:
    """Per-subcarrier M x M Toeplitz systems: out[v, a, b] = g[|a-b|, v]."""
    k, n = bands.shape
    out = np.zeros((n, m, m))
    idx = np.arange(m)
    dist = np.abs(idx[:, None] - idx[None, :])
    for d in range(min(k, m)):
        mask = dist == d
        out[:, mask] = bands[d][:, None]
    return out


def inverse_stack(gram: np.ndarray, max_cond: float = 1e12) -> np.ndarray:
    """Invert each per-subcarrier system; reject ill-conditioned ones."""
    conds = np.linalg.cond(gram)
    worst = int(np.argmax(conds))
    if not np.all(np.isfinite(conds)) or conds[worst] > max_cond:
        raise ValueError(
            f"autocorrelation system ill-conditioned at subcarrier {worst} "
            f"(condition number {conds[worst]:.3e})")
    return np.linalg.inv(gram)


def kept_mask(n: int, eta: float) -> np.ndarray:
    """Boolean keep-mask over subcarrier indices for off-diagonal blocks of R.

    The candidate region is the middle half [N/4, 3N/4); ceil(eta*N/2) of its
    entries are zeroed symmetrically from the region's edges inward, keeping a
    centered run (eta=0.5, N=64 keeps exactly [24, 40)). Half-open ranges.
    """
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"eta {eta} outside [0, 1]")
    mask = np.ones(n, dtype=bool)
    zeroed = int(np.ceil(eta * n / 2.0))
    lo, hi = n // 4, 3 * n // 4
    zl = (zeroed + 1) // 2
    zr = zeroed // 2
    mask[lo:lo + zl] = False
    mask[hi - zr:hi] = False
    return mask


def sparsify_inverse(inv: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero the masked subcarrier entries of every off-diagonal block of R."""
    n, m, _ = inv.shape
    out = inv.copy()
    off = ~np.eye(m, dtype=bool)
    out[~mask] = np.where(off, 0.0, out[~mask])
    return out


def apply_inverse(inv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v = R x on stacked matched-filter outputs x of M*N samples."""
    n, m, _ = inv.shape
    x = np.asarray(x)
    if x.shape[0] != m * n:
        raise ValueError(f"input length {x.shape[0]} != M*N = {m * n}")
    xb = x.reshape(m, n, -1)
    v = np.zeros(xb.shape, dtype=np.result_type(inv, xb))
    tmp = np.empty(xb.shape[1:], dtype=v.dtype)
    for a in range(m):
        for i in range(m):
            np.multiply(inv[:, a, i, None], xb[i], out=tmp)
            np.add(v[a], tmp, out=v[a])
    return v.reshape((m * n,) + x.shape[1:])
