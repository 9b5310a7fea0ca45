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
given the channel realization (or its ensemble average): ici/isi from circular
correlations of the interference tables with |C|^2, fd/ibi from structured
covariance quadratic forms. The inverse-filter (``if``) breakdown multiplies
fd/ibi/noise by the enhancement factor zeta, which is exact for white noise
but understates the structured fd error; the exact R-transformed values are
exposed separately as ``fd_exact``/``ibi_exact`` diagnostics.

The fd/ibi covariances never form a matrix of size MN x MN. For a delay of
l samples, block (j', j) of P^T B_l, with B_l the dispersion or the
previous-block operator, is a diagonal times a cyclic shift by l, and so is
its image under R, which is diagonal inside each block.
:func:`displaced_covariances` therefore works on (L, M, M, N) tables of
those diagonals and on the channel's tap second moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import PowerDelayProfile, draw_taps, freq_response
from .filterbank import autocorr_bands, kept_mask
from .transceiver import make_equalizer

__all__ = [
    "InterferenceTables",
    "interference_tables",
    "zeta_factors",
    "MseBreakdown",
    "DisplacedCovariances",
    "displaced_covariances",
    "ensemble_taps",
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
    alpha_isi = np.zeros(m)
    for ref in range(m):
        for d in range(1, k):
            if ref - d >= 0:
                alpha_isi[ref] += power[d].sum()
            if ref + d < m:
                alpha_isi[ref] += power[d].sum()
    return InterferenceTables(power, alpha_ici, alpha_isi)


def _circconv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b)[n] = sum_q a[(n - q) mod N] b[q], vectorized over leading axes of b."""
    return np.fft.ifft(np.fft.fft(a) * np.fft.fft(b, axis=-1), axis=-1).real


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
    e = np.stack([np.roll(d[l], -l, axis=-1) for l in range(n_delay)])
    x = e.transpose(1, 0, 2, 3).reshape(m, n_delay, m * n)
    c = x @ x.transpose(0, 2, 1)                                # (M, L, L)
    phase = np.exp(-2j * np.pi * np.outer(np.arange(n_delay), np.arange(n)) / n)
    t = (moments * c) @ phase.conj()                             # (M, L, N)
    out = (phase * t).sum(axis=1).real / n
    return np.maximum(out, 0.0)


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
        # R is diagonal inside each block, so R A_l keeps the table form
        propagate = lambda d: np.einsum("vai,lijv->lajv", inv, d)
        fd_if = _diagonals(propagate(fd), moments)
        ibi_if = _diagonals(propagate(tail), moments)
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


def averaged_breakdown(cfg, ctx, mode: str, taps: np.ndarray, sigma2: float,
                       cov: DisplacedCovariances,
                       with_ibi: bool = False) -> MseBreakdown:
    """Per-(m, n) error powers of receiver ``mode`` ("nif" or "if"), averaged
    over channel realizations.

    ``taps`` is one realization (L,), which gives the exact conditional
    breakdown, or a (D, L) stack of draws (see :func:`ensemble_taps`) whose
    equalizer-dependent terms are averaged. ``cov`` holds the displaced
    covariances for the same channel: ``taps=`` for one realization, the
    ensemble ``weights=`` for a stack; the inverse-filter variants are needed
    for ``mode="if"``. ``ctx`` supplies the filter bank (``segs``, ``gram``
    and the exact inverse ``inv``); ``cfg`` the numerology, symbol power and
    equalizer.
    """
    n, m = cfg.n, cfg.m
    delta2 = cfg.symbol_power
    c = freq_response(np.atleast_2d(taps), n)    # (D, N)
    eq = make_equalizer(c, cfg.equalizer, sigma2, delta2)
    absc2 = np.abs(c) ** 2
    abse2 = np.abs(eq.coeffs) ** 2
    abse2_bar = abse2.mean(axis=0)

    k = ctx.segs.shape[0]
    tables = interference_tables(autocorr_bands(ctx.segs), m)
    # equalizer bias delta^2 (1 - beta_n)^2; zero for ZF
    resd = np.repeat((delta2 * ((1.0 - eq.beta) ** 2).mean(axis=0))[None, :], m, axis=0)
    zgrid = zeta_grid(ctx.inv, ctx.gram)

    if mode == "nif":
        ici_n = delta2 * (abse2 * (_circconv(tables.power[0], absc2)
                                   - tables.power[0, 0] * absc2)).mean(axis=0)
        ici = np.repeat(ici_n[None, :], m, axis=0)
        isi = np.zeros((m, n))
        conv_d = [None] + [(abse2 * _circconv(tables.power[d], absc2)).mean(axis=0)
                           for d in range(1, k)]
        for ref in range(m):
            acc = np.zeros(n)
            for d in range(1, k):
                count = (ref - d >= 0) + (ref + d < m)
                if count:
                    acc += count * conv_d[d]
            isi[ref] = delta2 * acc
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
    filter_per_block: int  # instrumented apply cost of P for one block
    big_o: str

    def rows(self):
        return [("c_tx", self.c_tx), ("c_rx_nif", self.c_rx_nif),
                ("c_r", self.c_r), ("c_rx_if", self.c_rx_if),
                ("mask_count", self.mask_count),
                ("filter_per_block", self.filter_per_block)]


def complexity_report(n: int, m: int, k: int, eta: float) -> ComplexityReport:
    """Evaluate the per-symbol multiplication counts.

    ``c_r`` follows the published linear-in-eta count; ``mask_count`` is what
    the keep-mask actually implies (they agree whenever eta*N/2 is integral,
    e.g. at eta = 0 and eta = 1).
    """
    log2n = int(np.log2(n))
    c_tx = n * log2n + (2 * k - 3) * n + 4
    c_rx_nif = n * log2n + (2 * k + 1) * n + 4
    c_r = int(round(2 * m * n - eta * n * (m - 1)))
    kept = int(kept_mask(n, eta).sum())
    mask_count = 2 * n + 2 * (m - 1) * kept
    return ComplexityReport(
        c_tx=c_tx, c_rx_nif=c_rx_nif, c_r=c_r, c_rx_if=c_rx_nif + c_r,
        mask_count=mask_count, filter_per_block=2 * m * n * k,
        big_o="O(N log N)")
