"""Banded filter-bank operators: P, G = P^H P and R = G^(-1).

The transmit matrix P is block-banded: block (i, j) is nonzero only for
0 <= i - j <= K-1 and equals a diagonal N x N block carrying tap segment
i - j. So P never mixes samples: for each sample v of a segment it is one
(K+M-1) x M matrix P_v, with P_v[j+i, j] = segs[i, v] (``sample_matrices``).
Samples lead and trailing axes are a batch, so a lone vector is one column,
and real input is promoted: every output is complex.

Per-subcarrier decoupling: because every block of G is diagonal, G splits
into N independent M x M symmetric banded Toeplitz systems, one per
subcarrier. ``gram_stack``/``inverse_stack`` work on that (N, M, M) stack.

All taps are at matrix scale (``PrototypeFilter.matrix_taps``), so the
matched-filter main band averages to exactly 1 per subcarrier and the K=1
rectangular filter gives G = I.

``apply_filter``, ``apply_adjoint`` and ``apply_inverse`` are each one real
batched matrix product over the N per-sample matrices P_v, P_v^T and R_v.
Two rules hold for them: each equals its dense operator to rounding, and
each output column's bytes do not depend on how many columns, or which, it
is computed with, so a trial block gives the bytes of the whole batch.
"""

from __future__ import annotations

import numpy as np

from .core import PrototypeFilter

__all__ = [
    "tap_segments",
    "window_length",
    "sample_matrices",
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


def sample_matrices(segs: np.ndarray, m: int) -> np.ndarray:
    """P as one (K+M-1) x M matrix per sample: P[v, j+i, j] = segs[i, v]."""
    k, n = segs.shape
    p = np.zeros((n, k + m - 1, m), dtype=segs.dtype)
    i, j = np.ogrid[:k, :m]
    p[:, i + j, j] = segs.T[:, :, None]
    return p


def _per_sample(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_v = mats[v]^T x_v for every sample v, as one real batched product.

    ``mats`` is (N, rows_in, rows_out) and ``x`` stacks rows_in segments of N
    samples. The columns of x, as (real, imaginary) pairs, are the rows of the
    left operand, (N, 2B, rows_in) @ (N, rows_in, rows_out), which row-major
    BLAS runs with the trials on its gemm's column axis. There a column's sums
    do not depend on the other columns; with the trials on gemm's row axis
    (``W @ x``) they were seen to depend on the block width.
    """
    n, rows_in, rows_out = mats.shape
    # real input is promoted, pairing it with zeros, and the output is kept
    # at least two wide, so no product degenerates to a matrix-vector one:
    # numpy hands those to gemv, whose sums depend on the number of columns
    xr = np.ascontiguousarray(x.reshape(rows_in, n, -1), dtype=complex).view(float)
    if rows_out == 1:
        mats = np.concatenate((mats, np.zeros_like(mats)), axis=2)
    y = np.matmul(xr.transpose(1, 2, 0), mats)[:, :, :rows_out]
    y = np.ascontiguousarray(y.transpose(2, 0, 1)).view(complex)
    return y.reshape((rows_out * n,) + x.shape[1:])


def apply_filter(segs: np.ndarray, b: np.ndarray) -> np.ndarray:
    """o = P b for stacked time-domain segments b of M*N samples."""
    n = segs.shape[1]
    b = np.asarray(b)
    m = b.shape[0] // n
    if m * n != b.shape[0]:
        raise ValueError(f"input length {b.shape[0]} not a multiple of N={n}")
    return _per_sample(sample_matrices(segs, m).transpose(0, 2, 1), b)


def apply_adjoint(segs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """x = P^H r for a received window of (K+M-1)*N samples."""
    k, n = segs.shape
    r = np.asarray(r)
    km = r.shape[0] // n
    if km * n != r.shape[0] or km < k:
        raise ValueError(f"window length {r.shape[0]} inconsistent with N={n}, K={k}")
    return _per_sample(sample_matrices(segs, km - k + 1), r)


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
    return _per_sample(inv.transpose(0, 2, 1), x)
