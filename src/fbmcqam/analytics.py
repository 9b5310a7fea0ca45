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
The inverse-filter (``if``) breakdown multiplies fd/ibi/noise by the
enhancement factor zeta, which is exact for white noise but understates the
structured fd error; the exact R-transformed values are exposed separately
as ``fd_exact``/``ibi_exact`` diagnostics.

The channel enters a breakdown only through three moments of the one-tap
equalizer E and the channel response C, formed once per SNR point by
:func:`channel_moments` over the D channel draws (D = 1 for one
realization): the bias delta^2 E(1 - beta_n)^2, the gain E|E_n|^2 and the
cross moment x[n, q] = E[|E_n|^2 |C_q|^2], one (N x D)(D x N) product.
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
its image under R, which is diagonal inside each block.
:func:`displaced_covariances` therefore works on (L, M, M, N) tables of
those diagonals and on the channel's tap second moments; R acts on a table
as one batched (M, M) x (M, L M) product per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import PowerDelayProfile, draw_taps
from .filterbank import kept_mask
from .transceiver import Equalizer, make_equalizer

__all__ = [
    "InterferenceTables",
    "interference_tables",
    "neighbor_counts",
    "leakage_sums",
    "zeta_factors",
    "zeta_grid",
    "MseBreakdown",
    "DisplacedCovariances",
    "displaced_covariances",
    "ensemble_taps",
    "ChannelMoments",
    "channel_moments",
    "equalizer_moments",
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


def zeta_grid(inv: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """zeta as an (M, N) grid, matching the per-(m, n) breakdown shape."""
    n = inv.shape[0]
    return np.repeat(zeta_factors(inv, gram)[:, None], n, axis=1)


# ---------------------------------------------------------------------------
# Displaced-filter covariance forms
# ---------------------------------------------------------------------------

def _delay_tables(segs: np.ndarray, m: int, n_delay: int):
    """Per-subcarrier tables of A_l = P^T B_l for the dispersion and tail
    operators B_l, delays l < ``n_delay`` <= N + 1.

    Block (j', j) of A_l is diag(d_l[j', j]) Pi_l, where Pi_l moves sample v
    to (v + l) mod N, so each operator is an (L, M, M, N) table d. With
    seg(i, v) = segs[i, v] for 0 <= i < K (0 otherwise) and w = [v' < l]
    (``crossed``) the flag of a delayed sample that crossed a segment edge:

    * fd:   d_l[j', j][v'] = sum_i segs[i, v'] (seg(j'-j+i-w, (v'-l) mod N)
                                                - seg(j'-j+i, v')),
    * tail: only block (0, M-1) is nonzero,
            d_l[0, M-1][v'] = w segs[0, v'] segs[K-1, (v'-l) mod N].

    Both are exactly zero at l = 0. The fd entry depends on (j', j) only
    through the block offset j' - j, so the K-term sum is taken once per
    offset, into an (L, 2M - 1, N) table t with t[:, j' - j + M - 1] =
    d_l[j', j], and then gathered into the blocks. Every entry goes through
    the same floating-point operations, in the same order, as a sum taken
    block by block.
    """
    k, n = segs.shape
    ext = np.zeros((2 * m + k, n))              # ext[x + m] = seg(x)
    ext[m:m + k] = segs
    v = np.arange(n)
    lag = np.arange(n_delay)[:, None]
    crossed = (v < lag).astype(int)              # (L, N)
    src = (v - lag) % n                          # (L, N)
    row = np.arange(1, 2 * m)[None, :, None]     # offset j' - j, plus M
    t = np.zeros((n_delay, 2 * m - 1, n))
    for i in range(k):
        t += segs[i] * (ext[row + i - crossed[:, None, :], src[:, None, :]]
                        - ext[row + i, v])
    fd = np.take(t, np.arange(m)[:, None] - np.arange(m) + m - 1, axis=1)
    tail = np.zeros_like(fd)
    tail[:, 0, m - 1] = crossed * segs[0] * segs[k - 1, src]
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


def displaced_covariances(segs: np.ndarray, m: int,
                          weights: np.ndarray | None = None,
                          taps: np.ndarray | None = None,
                          inv: np.ndarray | None = None) -> DisplacedCovariances:
    """Exact quadratic forms for the delay-induced error covariances.

    Pass ``taps`` (complex h_l) for a fixed realization, or ``weights``
    (rho_l^2) for the channel-ensemble average. ``inv`` enables the
    inverse-filter variants; zeros are returned for them otherwise. Delays
    up to N samples (N + 1 taps) are supported.
    """
    if (weights is None) == (taps is None):
        raise ValueError("exactly one of weights/taps must be given")
    n = segs.shape[1]
    if taps is not None:
        moments = np.outer(taps, np.conj(taps))
    else:
        moments = np.diag(weights)
    if len(moments) > n + 1:
        raise ValueError(f"channel of {len(moments)} taps exceeds N + 1 = {n + 1}")
    fd, tail = _delay_tables(segs, m, len(moments))
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
    zeta: np.ndarray
    delta2: float = 1.0
    total: np.ndarray = field(default=None)
    sinr: np.ndarray = field(default=None)
    fd_exact: np.ndarray | None = None
    ibi_exact: np.ndarray | None = None

    def __post_init__(self):
        total = self.resd + self.ici + self.isi + self.fd + self.ibi + self.noise
        object.__setattr__(self, "total", total)
        sinr = np.full(total.shape, np.inf)
        np.divide(self.delta2, total, out=sinr, where=total > 0)
        object.__setattr__(self, "sinr", sinr)

    def component(self, name: str) -> np.ndarray:
        if name not in _COMPONENTS + ("total", "sinr", "zeta", "fd_exact", "ibi_exact"):
            raise KeyError(name)
        val = getattr(self, name)
        if val is None:
            raise KeyError(f"{name} not available in this breakdown")
        return val


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


def channel_moments(cfg, c: np.ndarray, sigma2: float) -> ChannelMoments:
    """The equalizer moments a breakdown needs at noise variance ``sigma2``.

    ``c`` is one frequency response (N,), which gives the conditional
    moments of that realization, or a (D, N) stack of them (the
    ``freq_response`` of :func:`ensemble_taps`), which gives the ensemble
    averages. ``cfg`` supplies the equalizer and the symbol power.
    """
    c = np.atleast_2d(c)
    eq = make_equalizer(c, cfg.equalizer, sigma2, cfg.symbol_power)
    return equalizer_moments(eq, c, cfg.symbol_power)


def equalizer_moments(eq: Equalizer, c: np.ndarray, delta2: float) -> ChannelMoments:
    """:func:`channel_moments` of an equalizer already built for the (D, N)
    responses ``c``, for a caller that applies the same equalizer too."""
    absc2 = np.abs(c) ** 2
    abse2 = np.abs(eq.coeffs) ** 2
    return ChannelMoments(resd=delta2 * ((1.0 - eq.beta) ** 2).mean(axis=0),
                          abse2=abse2.mean(axis=0),
                          cross=abse2.T @ absc2 / len(absc2))


def averaged_breakdown(cfg, ctx, mode: str, moments: ChannelMoments, sigma2: float,
                       cov: DisplacedCovariances,
                       with_ibi: bool = False) -> MseBreakdown:
    """Per-(m, n) error powers of receiver ``mode`` ("nif" or "if"), averaged
    over channel realizations.

    ``moments`` are the :func:`channel_moments` at ``sigma2`` of one
    realization, which gives the exact conditional breakdown, or of a stack
    of draws, whose equalizer-dependent terms are then averaged. ``cov``
    holds the displaced covariances for the same channel: ``taps=`` for one
    realization, the ensemble ``weights=`` for a stack; the inverse-filter
    variants are needed for ``mode="if"``. ``ctx`` supplies the filter bank
    (the interference ``tables``, ``gram`` and the exact inverse ``inv``);
    ``cfg`` the numerology and symbol power.
    """
    n, m = cfg.n, cfg.m
    delta2 = cfg.symbol_power
    abse2_bar = moments.abse2
    # equalizer bias delta^2 (1 - beta_n)^2; zero for ZF
    resd = np.repeat(moments.resd[None, :], m, axis=0)
    zgrid = zeta_grid(ctx.inv, ctx.gram)

    if mode == "nif":
        own, per_d = leakage_sums(ctx.tables, moments.cross)
        ici = np.repeat((delta2 * own)[None, :], m, axis=0)
        isi = delta2 * (neighbor_counts(m, cfg.k) @ per_d.T)
        fd = delta2 * abse2_bar * cov.fd_nif
        ibi = delta2 * abse2_bar * cov.ibi_nif if with_ibi else np.zeros((m, n))
        noise = np.repeat((sigma2 * abse2_bar)[None, :], m, axis=0)
        return MseBreakdown("nif", resd, ici, isi, fd, ibi, noise, zgrid,
                            delta2=delta2)

    # inverse filter: self-interference cancelled; fd/ibi/noise enhanced
    fd = zgrid * (delta2 * abse2_bar * cov.fd_nif)
    ibi = zgrid * (delta2 * abse2_bar * cov.ibi_nif) if with_ibi else np.zeros((m, n))
    noise = zgrid * (sigma2 * abse2_bar)[None, :]
    fd_exact = delta2 * abse2_bar * cov.fd_if
    ibi_exact = (delta2 * abse2_bar * cov.ibi_if) if with_ibi else np.zeros((m, n))
    return MseBreakdown("if", resd, np.zeros((m, n)), np.zeros((m, n)),
                        fd, ibi, noise, zgrid, delta2=delta2,
                        fd_exact=fd_exact, ibi_exact=ibi_exact)


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
