"""Waveform fundamentals: unitary transforms, Gray QAM, prototype filters.

Conventions pinned here and relied on everywhere else:

* DFT/IDFT pairs are unitary (scaled by 1/sqrt(N)), so energy is preserved.
* QAM labels are per-axis Gray codes, MSB group = in-phase axis, and the
  all-zero label sits on the most positive level of each axis.
* Prototype filters are stored unit-energy; the filter-bank matrix layer
  rescales by sqrt(N) (see ``PrototypeFilter.matrix_taps``).
* A hard decision per axis is the argmin of the float distance |x - level|
  over the levels in label order: the nearest level, ties to the smallest
  label. ``qam_demap`` reaches it by slicing. The PAM levels are equally
  spaced, ``step`` apart, so ``u = (x - lowest) / step`` is the sample's
  place on the sorted grid and rint(u), clipped to the grid, names its
  level. Each float level is one rounding of an odd multiple of the scale,
  so it sits within eps*L/2 steps of the uniform grid (eps = 2^-53, L <= 8
  levels); the two roundings of u move it by at most 2*eps*(|u| + L) steps;
  and rounded distances keep the order of the exact ones except within
  eps*(|u| + L) steps of a midpoint. For |u| <= 2^21 all three stay below
  2^-29 steps. The guard therefore hands to the exact rule every sample
  with |u - rint(u)| > 1/2 - delta, delta = 2^-20 steps; every tie is one
  of them. Far from the grid the rounded distances to neighbouring levels can
  round equal (at 1e300 they all do, and the rule picks label 0), so a
  sample is first clipped to half a step beyond 2^20 steps past the end
  levels: far and infinite samples then land on a half-step and take the
  exact rule, as does NaN (its |u - rint(u)| fails the comparison). Only
  finite, moderate positions reach the integer cast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "idft_block",
    "dft_segments",
    "qam_map",
    "qam_demap",
    "qam_llrs",
    "qam_levels",
    "PrototypeFilter",
    "design_prototype",
    "load_prototype_file",
    "SUPPORTED_OVERLAPS",
]


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def idft_block(S: np.ndarray) -> np.ndarray:
    """Stack per-symbol unitary IDFTs of an N x M (x batch) symbol grid.

    Column m of ``S`` is one multicarrier symbol; the result concatenates the
    M time-domain segments into a length-MN vector (per trailing batch axis).
    """
    S = np.asarray(S)
    n, m = S.shape[0], S.shape[1]
    b = np.fft.ifft(S, axis=0, norm="ortho")
    # segment m occupies samples [m*N, (m+1)*N)
    return np.moveaxis(b, 1, 0).reshape((m * n,) + S.shape[2:])


def dft_segments(x: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`idft_block`: split into length-``n`` segments and DFT.

    Returns an ``n x M`` (x batch) array whose column m is the unitary DFT of
    segment m.
    """
    x = np.asarray(x)
    m = x.shape[0] // n
    if m * n != x.shape[0]:
        raise ValueError(f"length {x.shape[0]} is not a multiple of {n}")
    seg = x.reshape((m, n) + x.shape[1:])
    return np.moveaxis(np.fft.fft(seg, axis=1, norm="ortho"), 0, 1)


# ---------------------------------------------------------------------------
# Gray QAM
# ---------------------------------------------------------------------------

_QAM_ORDERS = (4, 16, 64)


def _gray_to_binary(g: np.ndarray, width: int) -> np.ndarray:
    b = g.copy()
    shift = width >> 1
    while shift:
        b ^= b >> shift
        shift >>= 1
    return b


def qam_levels(order: int, power: float = 1.0) -> np.ndarray:
    """Per-axis PAM levels indexed by axis label value (Gray label as int)."""
    if order not in _QAM_ORDERS:
        raise ValueError(f"unsupported QAM order {order}; choose from {_QAM_ORDERS}")
    bpa = int(np.log2(order)) // 2
    labels = np.arange(1 << bpa)
    binary = _gray_to_binary(labels, bpa)
    lmax = (1 << bpa) - 1
    levels = (lmax - 2 * binary).astype(float)
    # per-axis mean square is (4^bpa - 1)/3; two axes carry `power` together
    scale = np.sqrt(power / (2.0 * np.mean(levels**2)))
    return levels * scale


def qam_map(bits: np.ndarray, order: int, power: float = 1.0) -> np.ndarray:
    """Map a bit vector to Gray-labelled square QAM symbols of mean power ``power``.

    Each log2(order)-bit group is split MSB-first into the in-phase label then
    the quadrature label; the group, read as one integer, indexes the table
    of all ``order`` symbols.
    """
    bits = np.asarray(bits).astype(np.int64, copy=False).ravel()
    bps = int(np.log2(order))
    if bits.size % bps:
        raise ValueError(f"bit count {bits.size} not divisible by {bps}")
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("bits must be 0/1")
    bpa = bps // 2
    levels = qam_levels(order, power)
    group = np.arange(order)
    table = levels[group >> bpa] + 1j * levels[group & ((1 << bpa) - 1)]
    return table[bits.reshape(-1, bps) @ (1 << np.arange(bps - 1, -1, -1))]


# Slicer guard, in level steps: a sample within _TIE_MARGIN of a half-step,
# or beyond _FAR_STEPS steps of the grid, is decided by the exact rule.
_TIE_MARGIN = 2.0**-20
_FAR_STEPS = 2.0**20


def _axis_decide(x: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Nearest level per sample; ties resolve to the smallest label (argmin order).

    A slicer with an exactness guard (see the module docstring): samples
    within ``_TIE_MARGIN`` of a half-step, and far, infinite or NaN ones,
    are decided by argmin of ``|x - level|`` in label order, the rest by
    their rounded position on the grid of sorted levels.
    """
    order = np.argsort(levels)
    lowest, highest = levels[order[0]], levels[order[-1]]
    step = (highest - lowest) / (levels.size - 1)
    reach = (_FAR_STEPS + 0.5) * step
    u = np.clip(x, lowest - reach, highest + reach)
    u -= lowest
    u /= step
    nearest = np.rint(u)
    u -= nearest
    np.abs(u, out=u)
    unsure = ~(u <= 0.5 - _TIE_MARGIN)         # NaN included
    nearest[unsure] = 0.0                      # keeps NaN from the integer cast
    labels = order.take(nearest.astype(np.intp), mode="clip")
    labels[unsure] = np.argmin(np.abs(x[unsure][:, None] - levels), axis=1)
    return labels


def qam_demap(symbols: np.ndarray, order: int, power: float = 1.0) -> np.ndarray:
    """Hard minimum-distance demapping back to bits."""
    symbols = np.asarray(symbols).ravel()
    bps = int(np.log2(order))
    levels = qam_levels(order, power)
    label = _axis_decide(symbols.real, levels)
    label <<= bps // 2
    label |= _axis_decide(symbols.imag, levels)
    # row g holds the bits of label g, MSB first
    label_bits = (np.arange(order)[:, None] >> np.arange(bps - 1, -1, -1)) & 1
    return label_bits.take(label, axis=0).ravel()


def qam_llrs(symbols: np.ndarray, order: int, noise_var: np.ndarray | float,
             power: float = 1.0) -> np.ndarray:
    """Max-log per-bit LLRs, positive when bit 0 is the likelier hypothesis.

    ``noise_var`` is the post-equalization error variance per symbol
    (broadcastable against ``symbols``).
    """
    symbols = np.asarray(symbols).ravel()
    nv = np.broadcast_to(np.asarray(noise_var, dtype=float), symbols.shape).ravel()
    nv = np.maximum(nv, 1e-30)
    bps = int(np.log2(order))
    bpa = bps // 2
    levels = qam_levels(order, power)
    labels = np.arange(levels.size)
    llrs = np.empty((symbols.size, bps))
    for axis, x in ((0, symbols.real), (1, symbols.imag)):
        d2 = [(x - level) ** 2 for level in levels]       # one array per label
        for j in range(bpa):
            bit = (labels >> (bpa - 1 - j)) & 1
            m0 = _min_over(d2, labels[bit == 0])
            m1 = _min_over(d2, labels[bit == 1])
            llrs[:, axis * bpa + j] = (m1 - m0) / nv
    return llrs.ravel()


def _min_over(arrays: list[np.ndarray], labels: np.ndarray) -> np.ndarray:
    """Elementwise minimum of ``arrays[i]`` over the labels i."""
    best = arrays[labels[0]]
    for i in labels[1:]:
        best = np.minimum(best, arrays[i])
    return best


# ---------------------------------------------------------------------------
# Prototype filters
# ---------------------------------------------------------------------------

# Frequency-sampling magnitudes H_1..H_{K-1}; H_0 = 1 implied. The K=5 and K=7
# rows were derived by stopband-energy minimization over the
# power-complementary family (K=5 additionally constrained so the inverse
# filter's block-average noise enhancement at N=64, M=14 stays mid-range).
_FREQ_COEFFS: dict[int, tuple[float, ...]] = {
    1: (),
    2: (np.sqrt(2.0) / 2.0,),
    3: (0.91143783, 0.41143783),
    4: (0.97195983, np.sqrt(2.0) / 2.0, 0.23514695),
    5: (0.9986141, 0.89797041, 0.44005584, 0.05262969),
    6: (0.99722723, 0.94136732, np.sqrt(2.0) / 2.0, 0.33737537, 0.07441672),
    7: (0.999884442, 0.9878981981, 0.8594594986, 0.5112038442,
        0.1551036758, 0.0152020629),
    8: (0.99988389, 0.99315513, 0.92708081, np.sqrt(2.0) / 2.0,
        0.37486731, 0.11680273, 0.01523841),
}

SUPPORTED_OVERLAPS = tuple(sorted(_FREQ_COEFFS))


@dataclass(frozen=True)
class PrototypeFilter:
    """Real symmetric pulse of length K*N with unit energy.

    ``coeffs`` is the stored unit-energy tap vector. The filter-bank matrices
    absorb a sqrt(N) gain so that the matched-filter response has unit
    per-subcarrier gain; ``matrix_taps`` returns that rescaled vector.
    """

    coeffs: np.ndarray
    overlap: int
    n_subcarriers: int

    def __post_init__(self):
        w = np.asarray(self.coeffs, dtype=float)
        if w.ndim != 1 or w.size != self.overlap * self.n_subcarriers:
            raise ValueError(
                f"filter length {w.size} != K*N = {self.overlap * self.n_subcarriers}")
        if not np.all(np.isfinite(w)):
            raise ValueError("filter coefficients must be finite")
        energy = float(np.dot(w, w))
        if abs(energy - 1.0) > 1e-9:
            raise ValueError(f"filter energy {energy} != 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "coeffs", w)

    @property
    def matrix_taps(self) -> np.ndarray:
        """Taps at the scale used by the filter matrices: sqrt(N) * coeffs."""
        return self.coeffs * np.sqrt(self.n_subcarriers)


def _synthesize(hmag: tuple[float, ...], k: int, n: int) -> np.ndarray:
    m = np.arange(k * n)
    w = np.ones(k * n)
    for idx, h in enumerate(hmag, start=1):
        w += 2.0 * (-1) ** idx * h * np.cos(2.0 * np.pi * idx * (m + 0.5) / (k * n))
    return w / np.linalg.norm(w)


def design_prototype(overlap: int, n_subcarriers: int) -> PrototypeFilter:
    """Construct the frequency-sampling prototype for a given overlap factor.

    ``overlap`` = 1 returns the rectangular filter (every tap 1/sqrt(N)),
    which collapses the filter bank to plain CP-free OFDM.
    """
    k, n = int(overlap), int(n_subcarriers)
    if n < 2 or n & (n - 1):
        raise ValueError(f"subcarrier count {n} must be a power of two >= 2")
    if k not in _FREQ_COEFFS:
        raise ValueError(
            f"no tabulated design for overlap {k}; supported: {SUPPORTED_OVERLAPS}")
    return PrototypeFilter(_synthesize(_FREQ_COEFFS[k], k, n), k, n)


def load_prototype_file(path, overlap: int, n_subcarriers: int) -> PrototypeFilter:
    """Load one real coefficient per line; length must equal K*N.

    The vector is normalized to unit energy on load.
    """
    vals = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    vals.append(float(line))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
    w = np.asarray(vals, dtype=float)
    if w.size != overlap * n_subcarriers:
        raise ValueError(
            f"{path}: expected {overlap * n_subcarriers} coefficients, got {w.size}")
    norm = np.linalg.norm(w)
    if not np.isfinite(norm) or norm == 0:
        raise ValueError(f"{path}: coefficients must be finite and not all zero")
    return PrototypeFilter(w / norm, overlap, n_subcarriers)
