"""Closed-form MSE/SINR predictions, enhancement factors, complexity counts.

Component conventions
---------------------

Every breakdown carries six per-(m, n) linear-power components:

* ``resd``  equalizer bias on the desired symbol (zero for ZF),
* ``ici``   same-symbol cross-subcarrier leakage,
* ``isi``   cross-symbol leakage within the block,
* ``fd``    delay-dispersion error: the gap between the true delayed filter
            response and its per-block circular equivalent,
* ``ibi``   previous-block leakage (zero when guards are long enough),
* ``noise`` thermal noise after the receiver.

One routine, :func:`averaged_breakdown`, gives both the conditional breakdown
of one channel realization and the average over a stack of draws. The
matched-filter (``nif``) components are exact conditional second moments
given the channel realization (or its ensemble average): ici/isi from the
interference tables weighted by the cross moment E[|E_n|^2 |C_q|^2] of
equalizer and channel, fd/ibi from structured covariance quadratic forms.
The inverse-filter (``if``) breakdown multiplies fd/ibi/noise by the link
context's ``zeta_m``, the enhancement of the inverse R the receiver applies:
exact for white noise but understating the structured fd error;
``fd_exact``/``ibi_exact`` hold the values propagated through that R, which
for ``nif`` are ``fd``/``ibi`` themselves.

The channel enters a breakdown only through three moments of the one-tap
equalizer E and the channel response C, formed once per SNR point by
:func:`channel_moments` over the D channel draws (D = 1 for one
realization) and their equalizer: bias delta^2 E(1 - beta_n)^2, gain
E|E_n|^2, cross moment x[n, q] = E[|E_n|^2 |C_q|^2], an (N x D)(D x N) product.
Closed forms of these moments plug in at the same place.

The matched-filter leakage closed form lives in one place:
:func:`leakage_sums` weights the :class:`InterferenceTables` (built once per
link, in ``simulator.make_context``) by an (N, N) cross-moment matrix
x[n, q], the weight of the path from donor subcarrier q to receiver
subcarrier n. It gathers x by lag once and takes one matrix product with
the tables, and :func:`neighbor_counts` says how many symbols sit at each
band distance inside the block. The breakdown passes the cross moment of
:class:`ChannelMoments`; the link validator passes its fixed |E|^2
broadcast over rows, the donor index, which the lag-symmetric profiles
allow.

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
    "InterferenceTables",
    "interference_tables",
    "neighbor_counts",
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
# Interference coefficient tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterferenceTables:
    """Squared circulant profiles of the transformed autocorrelation blocks.

    ``power[d, k]`` is |c_d[k]|^2 where c_d is the circulant profile of the
    transformed band-d block: entry (n, q) of that block is c_d[(n - q) mod N].
    ``alpha_ici`` is the own-symbol leakage total (independent of n);
    ``alpha_isi[m]`` sums the valid neighbor bands for reference symbol m.
    """

    power: np.ndarray       # (K, N)
    alpha_ici: float
    alpha_isi: np.ndarray   # (M,)


def interference_tables(bands: np.ndarray, m: int) -> InterferenceTables:
    """Build the tables from the autocorrelation band vectors (K, N)."""
    k, n = bands.shape
    prof = np.fft.fft(bands, axis=1) / n
    power = np.abs(prof) ** 2
    # own band: main circulant diagonal is mean(g_0) = 1 exactly; leakage is
    # everything off it
    alpha_ici = float(power[0].sum() - power[0, 0] + (prof[0, 0].real - 1.0) ** 2)
    alpha_isi = neighbor_counts(m, k) @ power[1:].sum(axis=1)
    return InterferenceTables(power, alpha_ici, alpha_isi)


def neighbor_counts(m: int, k: int) -> np.ndarray:
    """(M, K - 1) counts: entry [ref, d - 1] is how many symbols of an M-symbol
    block sit at distance d from symbol ``ref`` (0, 1 or 2)."""
    ref = np.arange(m)[:, None]
    d = np.arange(1, k)[None, :]
    return (ref - d >= 0).astype(int) + (ref + d < m)


def leakage_sums(tables: InterferenceTables, x: np.ndarray):
    """Matched-filter leakage of the tables weighted by an (N, N)
    cross-moment matrix ``x``, where ``x[n, q]`` weights the path from
    donor subcarrier q to receiver subcarrier n.

    Returns ``own`` (N,), the same-symbol sums sum_q power[0, (n - q) mod N]
    x[n, q] without the desired term q = n (the main circulant diagonal),
    and ``per_d`` (N, K - 1), whose column d - 1 holds the cross-symbol sums
    sum_q power[d, (n - q) mod N] x[n, q] at band distance d.
    :func:`neighbor_counts` says how many symbols sit at each distance. The
    lag-ordered gather ``xd[n, j] = x[n, (n - j) mod N]`` turns all K sums
    into one (N, N) x (N, K) product.
    """
    n = x.shape[0]
    lag = (np.arange(n)[:, None] - np.arange(n)) % n
    sums = np.take_along_axis(x, lag, axis=1) @ tables.power.T      # (N, K)
    own = sums[:, 0] - tables.power[0, 0] * np.diagonal(x)
    return own, sums[:, 1:]


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

    mode: str               # "nif" or "if"
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
    supplies the interference ``tables`` and the ``zeta_m`` of the applied
    inverse; ``cfg`` the numerology and symbol power.
    """
    n, m = cfg.n, cfg.m
    delta2 = cfg.symbol_power
    abse2_bar = moments.abse2
    # equalizer bias delta^2 (1 - beta_n)^2; zero for ZF
    resd = np.repeat(moments.resd[None, :], m, axis=0)

    if mode == "nif":
        own, per_d = leakage_sums(ctx.tables, moments.cross)
        ici = np.repeat((delta2 * own)[None, :], m, axis=0)
        isi = delta2 * (neighbor_counts(m, cfg.k) @ per_d.T)
        fd = delta2 * abse2_bar * cov.fd_nif
        ibi = delta2 * abse2_bar * cov.ibi_nif
        noise = np.repeat((sigma2 * abse2_bar)[None, :], m, axis=0)
        return MseBreakdown("nif", resd, ici, isi, fd, ibi, noise, fd, ibi,
                            delta2=delta2)

    # inverse filter: self-interference cancelled; fd/ibi/noise enhanced
    zeta = ctx.zeta_m[:, None]
    fd = zeta * (delta2 * abse2_bar * cov.fd_nif)
    ibi = zeta * (delta2 * abse2_bar * cov.ibi_nif)
    noise = zeta * (sigma2 * abse2_bar)[None, :]
    fd_exact = delta2 * abse2_bar * cov.fd_if
    ibi_exact = delta2 * abse2_bar * cov.ibi_if
    return MseBreakdown("if", resd, np.zeros((m, n)), np.zeros((m, n)),
                        fd, ibi, noise, fd_exact, ibi_exact, delta2=delta2)


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
