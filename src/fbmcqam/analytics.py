"""Closed-form MSE/SINR predictions, enhancement factors, complexity counts.

Component conventions
---------------------

Every breakdown carries six per-(m, n) linear-power components:

* ``resd``  equalizer bias on the desired symbol (zero for ZF),
* ``ici``   same-symbol leakage: cross-subcarrier, plus any error in the
            desired symbol's own gain,
* ``isi``   cross-symbol leakage within the block,
* ``fd``    delay-dispersion error: the gap between the true delayed filter
            response and its per-block circular equivalent,
* ``ibi``   previous-block leakage (zero when guards are long enough),
* ``noise`` thermal noise after the receiver.

One routine, :func:`averaged_breakdown`, gives both the conditional breakdown
of one channel realization and the average over a stack of draws, on one
path for both receivers. ici/isi are exact conditional second moments
given the channel realization (or its ensemble average): the leakage table
of the receiver's error operator weighted by the cross moment
E[|E_n|^2 |C_q|^2] of equalizer and channel. The matched-filter (``nif``)
fd/ibi come from structured covariance quadratic forms. The inverse-filter
(``if``) breakdown multiplies fd/ibi/noise by the link context's
``zeta_m``, the enhancement of the inverse R the receiver applies: exact
for white noise but understating the structured fd error;
``fd_exact``/``ibi_exact`` hold the values propagated through that R, which
for ``nif`` are ``fd``/``ibi`` themselves.

The channel enters a breakdown only through three moments of the one-tap
equalizer E and the channel response C, formed once per SNR point by
:func:`channel_moments` over the D channel draws (D = 1 for one
realization) and their equalizer: bias delta^2 E(1 - beta_n)^2, gain
E|E_n|^2, cross moment x[n, q] = E[|E_n|^2 |C_q|^2], an (N x D)(D x N) product.
Closed forms of these moments plug in at the same place.

The leakage closed form lives in one place for both receivers. A receiver
with per-sample matrix T_v leaves the error operator E_v = T_v - I: G - I
for the matched filter, (R - G^-1) G for the inverse filter, exactly zero
with the exact inverse and the part that sparsification drops at eta > 0.
In the transform domain block (a, b) of E is a circulant, and
:func:`leakage_table` gives the (M, M, N) lag power of its profiles, built
once per link in ``simulator.make_context``. :func:`leakage_sums` weights
any stack of lag profiles by an (N, N) cross-moment matrix x[n, q], the
weight of the path from donor subcarrier q to receiver subcarrier n, with
one gather of x by lag and one matrix product. The breakdown passes the
diagonal profiles (ici) and the off-diagonal row sums (isi) with the cross
moment of :class:`ChannelMoments`; the link validator passes the donor
symbol's diagonal profile and off-diagonal column sums with its fixed
|E|^2 broadcast over rows, the donor index, which the lag-symmetric
profiles allow.

The fd/ibi covariances never form a matrix of size MN x MN. For a delay of
l samples, block (j', j) of P^T B_l, with B_l the dispersion or the
previous-block operator, is a diagonal times a cyclic shift by l, and so is
its image under R, which is diagonal inside each block. The diagonal of
block (j', j) depends on j' and j only through the offset j' - j, so one
(L, 2M - 1, N) offset table holds the fd operators, and the tail operators
are one (L, N) block. For one realization (complex taps),
:func:`displaced_covariances` gathers that table into (L, M, M, N) tables,
R acts on a table as one batched (M, M) x (M, L M) product per sample, and
the cross-delay phases make the result vary over n. For the ensemble
(diagonal tap second moments) no cross-delay term survives, so every
component is the same on every subcarrier: a weighted sum of squares over
delays, donor blocks and samples, into which R enters through one (M, M)
Gram of the weighted operators per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import PowerDelayProfile, draw_taps
from .filterbank import kept_mask
from .transceiver import Equalizer

__all__ = [
    "leakage_table",
    "leakage_sums",
    "zeta_factors",
    "MseBreakdown",
    "DisplacedCovariances",
    "displaced_covariances",
    "ensemble_taps",
    "ChannelMoments",
    "channel_moments",
    "averaged_breakdown",
    "ComplexityReport",
    "complexity_report",
]


# ---------------------------------------------------------------------------
# Leakage of a receiver's error operator
# ---------------------------------------------------------------------------

def leakage_table(err: np.ndarray) -> np.ndarray:
    """The (M, M, N) lag power of an error operator E from its per-sample
    (N, M, M) stack E_v.

    Block (a, b) of E is diag(E_v[a, b]) in the sample domain, so in the
    transform domain it is a circulant: entry (n, q) is c_ab[(n - q) mod N]
    with c_ab = fft over v of E_v[a, b] / N. Entry [a, b, k] is |c_ab[k]|^2,
    the power that reaches receiver symbol a from donor symbol b at lag k.
    Real E_v make every profile symmetric in the lag.
    """
    n = err.shape[0]
    return np.abs(np.fft.fft(err, axis=0) / n).transpose(1, 2, 0) ** 2


def leakage_sums(profiles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Leakage of a stack of lag profiles (..., N) weighted by an (N, N)
    cross-moment matrix ``x``, where ``x[n, q]`` weights the path from
    donor subcarrier q to receiver subcarrier n:
    out[..., n] = sum_q profiles[..., (n - q) mod N] x[n, q].

    The lag-ordered gather ``xd[n, j] = x[n, (n - j) mod N]`` turns every
    sum into one (..., N) x (N, N) product.
    """
    n = x.shape[0]
    lag = (np.arange(n)[:, None] - np.arange(n)) % n
    return profiles @ np.take_along_axis(x, lag, axis=1).T


# ---------------------------------------------------------------------------
# Enhancement factor
# ---------------------------------------------------------------------------

def zeta_factors(inv: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Per-symbol noise enhancement zeta_m (constant over n by structure).

    zeta_{m,n} is the n-th transform-domain diagonal of block (m, m) of
    R G R^H; since that block is diagonal, every n sees its subcarrier mean.
    """
    z = np.einsum("nab,nbc,nac->na", inv, gram, inv)
    return z.mean(axis=0)


# ---------------------------------------------------------------------------
# Displaced-filter covariance forms
# ---------------------------------------------------------------------------

def _offset_tables(segs: np.ndarray, m: int, n_delay: int):
    """Per-sample entries of A_l = P^T B_l for the dispersion and tail
    operators B_l, delays l < ``n_delay`` <= N + 1.

    Block (j', j) of A_l is diag(d_l[j', j]) Pi_l, where Pi_l moves sample v
    to (v + l) mod N. With seg(i, v) = segs[i, v] for 0 <= i < K (0
    otherwise) and w = [v' < l] (``crossed``) the flag of a delayed sample
    that crossed a segment edge:

    * fd:   d_l[j', j][v'] = sum_i segs[i, v'] (seg(j'-j+i-w, (v'-l) mod N)
                                                - seg(j'-j+i, v')),
    * tail: only block (0, M-1) is nonzero,
            d_l[0, M-1][v'] = w segs[0, v'] segs[K-1, (v'-l) mod N].

    Both are exactly zero at l = 0. The fd entry depends on (j', j) only
    through the block offset j' - j, so it is returned as an (L, 2M - 1, N)
    table t with t[:, j' - j + M - 1] = d_l[j', j]; offsets outside
    [1 - K, K] are zero and the K-term sum skips them. Every entry goes
    through the same floating-point operations, in the same order, as a sum
    taken block by block. The tail is returned as its one (L, N) block.
    """
    k, n = segs.shape
    ext = np.zeros((2 * m + k, n))              # ext[x + m] = seg(x)
    ext[m:m + k] = segs
    v = np.arange(n)
    lag = np.arange(n_delay)[:, None]
    crossed = (v < lag).astype(int)              # (L, N)
    src = (v - lag) % n                          # (L, N)
    lo, hi = max(0, m - k), min(2 * m - 1, m + k)    # rows of offsets 1 - K .. K
    # flat index into ext of seg(r - M + 1 - w, src) for row r of t, at i = 0
    at = ((np.arange(lo + 1, hi + 1)[None, :, None] - crossed[:, None, :]) * n
          + src[:, None, :])
    t = np.zeros((n_delay, 2 * m - 1, n))
    part = t[:, lo:hi]
    for i in range(k):
        part += segs[i] * (np.take(ext, at + i * n) - ext[lo + 1 + i:hi + 1 + i])
    return t, crossed * segs[0] * segs[k - 1, src]


def _delay_tables(segs: np.ndarray, m: int, n_delay: int):
    """The (L, M, M, N) tables d of the fd and tail operators A_l of
    :func:`_offset_tables`, block (j', j) of A_l being diag(d_l[j', j]) Pi_l:
    the offset table gathered into the blocks, the tail put in block
    (0, M - 1)."""
    t, tail_block = _offset_tables(segs, m, n_delay)
    fd = np.take(t, np.arange(m)[:, None] - np.arange(m) + m - 1, axis=1)
    tail = np.zeros_like(fd)
    tail[:, 0, m - 1] = tail_block
    return fd, tail


def _diagonals(d: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Per-(m, n) transform-domain diagonals of block (m, m) of
    sum_{l,l'} moments[l, l'] A_l A_l'^H for a table d of the A_l.

    With E_l = d_l rolled back by l along v and C[m, l, l'] the sum of
    E_l E_l' over donor block and sample, entry n is
    (1/N) Re sum_{l,l'} moments[l, l'] C[m, l, l'] e^{-2 pi i n (l - l') / N}.
    """
    n_delay, m, _, n = d.shape
    # the summation order follows the layout, so E lands in C order whatever
    # the layout of d; each roll is two slice copies
    e = np.empty(d.shape, dtype=d.dtype)
    for l in range(n_delay):
        e[l, ..., :n - l] = d[l, ..., l:]
        e[l, ..., n - l:] = d[l, ..., :l]
    x = e.transpose(1, 0, 2, 3).reshape(m, n_delay, m * n)
    c = x @ x.transpose(0, 2, 1)                                # (M, L, L)
    phase = np.exp(-2j * np.pi * np.outer(np.arange(n_delay), np.arange(n)) / n)
    t = (moments * c) @ phase.conj()                             # (M, L, N)
    out = (phase * t).sum(axis=1).real / n
    return np.maximum(out, 0.0)


def _propagate(inv: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The table of R A_l from the table d of A_l. R is diagonal inside each
    block, so R A_l keeps the table form: at sample v, block row a of the
    result is sum_i inv[v, a, i] d[l, i, :, v], one (M, M) x (M, L M)
    product per sample."""
    n_delay, m, _, n = d.shape
    rows = d.transpose(3, 1, 0, 2).reshape(n, m, n_delay * m)     # [v, i, (l, j)]
    return (inv @ rows).reshape(n, m, n_delay, m).transpose(2, 1, 3, 0)


@dataclass(frozen=True)
class DisplacedCovariances:
    """Per-(m, n) delay-dispersion and previous-block error powers at unit
    symbol power, before equalization, for both receivers."""

    fd_nif: np.ndarray    # (M, N)
    fd_if: np.ndarray     # (M, N)
    ibi_nif: np.ndarray   # (M, N)
    ibi_if: np.ndarray    # (M, N)


def _ensemble_covariances(segs: np.ndarray, m: int, weights: np.ndarray,
                          inv: np.ndarray | None) -> DisplacedCovariances:
    """The covariances for diagonal tap second moments p_l = ``weights[l]``
    (the ensemble's rho_l^2).

    No cross-delay term survives, so every component is the same on every
    subcarrier n: a p-weighted sum of squares of the offset table of
    :func:`_offset_tables` over delays, donor blocks and samples. With
    D_{l,v}[i, j] = d_l[i, j][v], the per-sample Gram G_v = sum_l p_l
    D_{l,v} D_{l,v}^T and R_v the inverse at sample v:

    * fd_nif[m] = (1/N) sum_v G_v[m, m],
    * fd_if[a] = (1/N) sum_v (R_v G_v R_v^T)[a, a],
    * ibi_nif[0] = (1/N) sum_v tail2(v), exactly zero at every m > 0,
    * ibi_if[a] = (1/N) sum_v R_v[a, 0]^2 tail2(v),

    where tail2(v) = sum_l p_l tail_l(v)^2. D_{l,v} is Toeplitz in the block
    offset, so G_v is the sum of the M principal (M, M) windows of the
    offset Gram S_v[p, q] = sum_l p_l t[l, p, v] t[l, q, v], and no
    (L, M, M, N) table is formed.
    """
    n = segs.shape[1]
    t, tail = _offset_tables(segs, m, len(weights))
    tv = t.transpose(2, 1, 0)                                   # (N, 2M - 1, L)
    s = (tv * weights) @ tv.transpose(0, 2, 1)                  # (N, 2M - 1, 2M - 1)
    gram = np.zeros((n, m, m))
    for top in range(m):
        gram += s[:, top:top + m, top:top + m]
    tail2 = weights @ tail ** 2                                 # (N,)
    fd_nif = np.diagonal(gram, axis1=1, axis2=2).sum(axis=0) / n
    ibi_nif = np.zeros(m)
    ibi_nif[0] = tail2.sum() / n
    if inv is not None:
        fd_if = ((inv @ gram) * inv).sum(axis=2).sum(axis=0) / n
        ibi_if = tail2 @ inv[:, :, 0] ** 2 / n
    else:
        fd_if = ibi_if = np.zeros(m)
    return DisplacedCovariances(*(np.repeat(c[:, None], n, axis=1)
                                  for c in (fd_nif, fd_if, ibi_nif, ibi_if)))


def displaced_covariances(segs: np.ndarray, m: int,
                          weights: np.ndarray | None = None,
                          taps: np.ndarray | None = None,
                          inv: np.ndarray | None = None) -> DisplacedCovariances:
    """Exact quadratic forms for the delay-induced error covariances.

    Pass ``taps`` (complex h_l) for a fixed realization, or ``weights``
    (rho_l^2) for the channel-ensemble average, whose components are the
    same on every subcarrier. ``inv`` enables the inverse-filter variants;
    zeros are returned for them otherwise. Delays up to N samples (N + 1
    taps) are supported.
    """
    if (weights is None) == (taps is None):
        raise ValueError("exactly one of weights/taps must be given")
    n = segs.shape[1]
    n_taps = len(weights if taps is None else taps)
    if n_taps > n + 1:
        raise ValueError(f"channel of {n_taps} taps exceeds N + 1 = {n + 1}")
    if taps is None:
        return _ensemble_covariances(segs, m, weights, inv)
    moments = np.outer(taps, np.conj(taps))
    fd, tail = _delay_tables(segs, m, n_taps)
    fd_nif = _diagonals(fd, moments)
    ibi_nif = _diagonals(tail, moments)
    if inv is not None:
        fd_if = _diagonals(_propagate(inv, fd), moments)
        ibi_if = _diagonals(_propagate(inv, tail), moments)
    else:
        fd_if = np.zeros((m, n))
        ibi_if = np.zeros((m, n))
    return DisplacedCovariances(fd_nif, fd_if, ibi_nif, ibi_if)


# ---------------------------------------------------------------------------
# MSE breakdowns
# ---------------------------------------------------------------------------

_COMPONENTS = ("resd", "ici", "isi", "fd", "ibi", "noise")


@dataclass(frozen=True)
class MseBreakdown:
    """Per-(m, n) linear-power error components and their totals."""

    resd: np.ndarray
    ici: np.ndarray
    isi: np.ndarray
    fd: np.ndarray
    ibi: np.ndarray
    noise: np.ndarray
    fd_exact: np.ndarray
    ibi_exact: np.ndarray
    delta2: float = 1.0
    total: np.ndarray = field(default=None)
    sinr: np.ndarray = field(default=None)

    def __post_init__(self):
        total = self.resd + self.ici + self.isi + self.fd + self.ibi + self.noise
        object.__setattr__(self, "total", total)
        sinr = np.full(total.shape, np.inf)
        np.divide(self.delta2, total, out=sinr, where=total > 0)
        object.__setattr__(self, "sinr", sinr)

    def component(self, name: str) -> np.ndarray:
        if name not in _COMPONENTS + ("total", "sinr", "fd_exact", "ibi_exact"):
            raise KeyError(name)
        return getattr(self, name)


def ensemble_taps(pdp: PowerDelayProfile, draws: int, seed: int) -> np.ndarray:
    """The (draws, L) seeded Rayleigh realizations the ensemble average runs over."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA5E]))
    return draw_taps(pdp, rng, (draws,))


@dataclass(frozen=True)
class ChannelMoments:
    """Moments of the one-tap equalizer E and channel response C over the
    channel draws, for one SNR point; see :func:`channel_moments`."""

    resd: np.ndarray    # (N,) delta^2 E(1 - beta_n)^2, the equalizer bias
    abse2: np.ndarray   # (N,) E|E_n|^2
    cross: np.ndarray   # (N, N) E[|E_n|^2 |C_q|^2], receiver n, donor q


def channel_moments(eq: Equalizer, c: np.ndarray, delta2: float) -> ChannelMoments:
    """The moments a breakdown needs at one SNR point, over a (D, N) stack
    ``c`` of responses and ``eq = make_equalizer(c, ...)`` at that point:
    D = 1 for one realization, the ``freq_response`` of
    :func:`ensemble_taps` for the ensemble average."""
    absc2 = np.abs(c) ** 2
    abse2 = np.abs(eq.coeffs) ** 2
    return ChannelMoments(resd=delta2 * ((1.0 - eq.beta) ** 2).mean(axis=0),
                          abse2=abse2.mean(axis=0),
                          cross=abse2.T @ absc2 / len(absc2))


def averaged_breakdown(cfg, ctx, mode: str, moments: ChannelMoments, sigma2: float,
                       cov: DisplacedCovariances) -> MseBreakdown:
    """Per-(m, n) error powers of receiver ``mode`` ("nif" or "if"), averaged
    over channel realizations.

    ``moments`` are the :func:`channel_moments` at ``sigma2`` of one
    realization, which gives the exact conditional breakdown, or of a stack
    of draws, whose equalizer-dependent terms are then averaged. ``cov``
    holds the displaced covariances for the same channel: ``taps=`` for one
    realization, the ensemble ``weights=`` for a stack; the inverse-filter
    variants (through ``ctx.inv``) are needed for ``mode="if"``. ``ctx``
    supplies the receiver's ``leakage`` table and the ``zeta_m`` of the
    applied inverse; ``cfg`` the numerology and symbol power.
    """
    m = cfg.m
    delta2 = cfg.symbol_power
    abse2_bar = moments.abse2
    # equalizer bias delta^2 (1 - beta_n)^2; zero for ZF
    resd = np.repeat(moments.resd[None, :], m, axis=0)
    # receiver symbol a: its diagonal profile is same-symbol leakage, the
    # off-diagonal row sums gather every other donor symbol
    table = ctx.leakage[mode]
    own = np.diagonal(table).T                                  # (M, N)
    ici, isi = delta2 * leakage_sums(np.stack([own, table.sum(axis=1) - own]),
                                     moments.cross)
    fd = delta2 * abse2_bar * cov.fd_nif
    ibi = delta2 * abse2_bar * cov.ibi_nif
    noise = np.repeat((sigma2 * abse2_bar)[None, :], m, axis=0)
    if mode == "nif":
        return MseBreakdown(resd, ici, isi, fd, ibi, noise, fd, ibi, delta2=delta2)

    # inverse filter: fd/ibi/noise enhanced by zeta_m of the applied inverse
    zeta = ctx.zeta_m[:, None]
    return MseBreakdown(resd, ici, isi, zeta * fd, zeta * ibi, zeta * noise,
                        delta2 * abse2_bar * cov.fd_if,
                        delta2 * abse2_bar * cov.ibi_if, delta2=delta2)


# ---------------------------------------------------------------------------
# Complexity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexityReport:
    """Real multiplications per complex symbol, plus structural identities."""

    c_tx: int
    c_rx_nif: int
    c_r: int
    c_rx_if: int
    mask_count: int        # per-symbol count implied by the eta keep-mask
    filter_per_block: int  # P b for one block: 2 per nonzero of P
    big_o: str

    def rows(self):
        return [("c_tx", self.c_tx), ("c_rx_nif", self.c_rx_nif),
                ("c_r", self.c_r), ("c_rx_if", self.c_rx_if),
                ("mask_count", self.mask_count),
                ("filter_per_block", self.filter_per_block)]


def complexity_report(n: int, m: int, k: int, eta: float) -> ComplexityReport:
    """Evaluate the per-symbol multiplication counts.

    ``c_r`` follows the published linear-in-eta count; ``mask_count`` is what
    the keep-mask actually implies, 2 nnz(R) / M for the sparsified R (they
    agree whenever eta*N/2 is integral, e.g. at eta = 0 and eta = 1). At
    K = 1 the rectangular filter has G = R = I, whose only nonzeros are the
    diagonal, so both are 2N whatever eta is.
    """
    log2n = int(np.log2(n))
    c_tx = n * log2n + (2 * k - 3) * n + 4
    c_rx_nif = n * log2n + (2 * k + 1) * n + 4
    if k == 1:
        c_r = mask_count = 2 * n
    else:
        c_r = int(round(2 * m * n - eta * n * (m - 1)))
        mask_count = 2 * n + 2 * (m - 1) * int(kept_mask(n, eta).sum())
    return ComplexityReport(
        c_tx=c_tx, c_rx_nif=c_rx_nif, c_r=c_r, c_rx_if=c_rx_nif + c_r,
        mask_count=mask_count, filter_per_block=2 * m * n * k,
        big_o="O(N log N)")
