"""Monte-Carlo experiments: link validation and multi-service BER campaigns.

Everything is deterministic given (configuration, master seed): randomness
flows through a spawned seed tree, trial counts are set by staging rules
evaluated only at stage boundaries, and aggregation is a sum of per-chunk
sufficient statistics, so the worker count cannot change any result.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
import ctypes
from dataclasses import dataclass
import logging

import numpy as np

from .analytics import (averaged_breakdown, channel_moments, displaced_covariances,
                        leakage_sums, leakage_table, zeta_factors)
from .channel import (PowerDelayProfile, apply_taps, complex_noise, draw_taps,
                      freq_response, overlap_tail)
from .config import ConfigError, RunConfig, worker_count
from .core import (SUPPORTED_OVERLAPS, PrototypeFilter, design_prototype,
                   dft_segments, load_prototype_file, qam_demap, qam_llrs, qam_map)
from .fec import conv_encode, viterbi_decode
from .filterbank import (apply_adjoint, apply_inverse, autocorr_bands, gram_stack,
                         inverse_stack, kept_mask, sparsify_inverse, tap_segments,
                         window_length)
from .transceiver import (equalize, fbmc_demodulate, fbmc_transmit, make_equalizer,
                          ofdm_demodulate, ofdm_modulate)

__all__ = [
    "build_filter",
    "channel_profile",
    "Receiver",
    "LinkContext",
    "make_context",
    "ComponentCheck",
    "LinkValidationPoint",
    "run_link_validation",
    "BerPoint",
    "MultiserviceResult",
    "run_multiservice",
    "wilson_halfwidth",
]

log = logging.getLogger("fbmcqam")

_Z95 = 1.959963984540054
_CHUNK_TRIALS = 256          # trials per campaign chunk, each on its own spawned seed


def build_filter(cfg: RunConfig) -> PrototypeFilter:
    if cfg.filter_file:
        try:
            return load_prototype_file(cfg.filter_file, cfg.k, cfg.n)
        except ValueError as exc:      # the file's contents, e.g. a wrong length
            raise ConfigError(f"invalid configuration:\n  filter_file: {exc}") from exc
    if cfg.k not in SUPPORTED_OVERLAPS:
        raise ConfigError(f"invalid configuration:\n  k: no tabulated design for "
                          f"overlap {cfg.k}; supported: {SUPPORTED_OVERLAPS}")
    return design_prototype(cfg.k, cfg.n)


def channel_profile(cfg: RunConfig) -> PowerDelayProfile:
    """The configured power-delay profile: ``pdp_file`` if given, else the
    exponential default."""
    if cfg.pdp_file:
        try:
            pdp = PowerDelayProfile.from_file(cfg.pdp_file)
        except ValueError as exc:      # the file's contents, e.g. a negative power
            raise ConfigError(f"invalid configuration:\n  pdp_file: {exc}") from exc
        # the limit RunConfig.violations puts on channel_taps
        if pdp.n_taps * 2 > cfg.n:
            raise ConfigError(f"invalid configuration:\n  pdp_file: {cfg.pdp_file} "
                              f"has {pdp.n_taps} taps, exceeds n/2 = {cfg.n // 2}")
        return pdp
    return PowerDelayProfile.exponential(cfg.channel_taps, cfg.pdp_decay_db)


@dataclass(frozen=True)
class Receiver:
    """One receiver: the per-sample (N, M, M) stack R it applies after the
    matched filter (None for R = I), the per-symbol noise enhancement
    ``zeta`` of R, and the (M, M, N) ``leakage_table`` of its error R G - I."""

    label: str               # its scheme name in campaign results
    inv: np.ndarray | None
    zeta: np.ndarray         # (M,)
    leakage: np.ndarray


@dataclass(frozen=True)
class LinkContext:
    """Precomputed filter-bank state shared by every trial of a run.

    ``receivers`` maps a receiver mode to its :class:`Receiver`: "nif" the
    matched filter (R = I), "if" the inverse (R = G^-1, sparsified at eta > 0).
    """

    filt: PrototypeFilter
    segs: np.ndarray
    bands: np.ndarray        # (K, N) autocorrelation bands of the filter
    gram: np.ndarray
    receivers: dict[str, Receiver]


def make_context(cfg: RunConfig) -> LinkContext:
    filt = build_filter(cfg)
    segs = tap_segments(filt)
    bands = autocorr_bands(segs)
    gram = gram_stack(bands, cfg.m)
    exact = inverse_stack(gram)
    inv = sparsify_inverse(exact, kept_mask(cfg.n, cfg.eta)) if cfg.eta > 0 else exact
    label = "fbmc-if" if cfg.eta == 0 else f"fbmc-if+eta{cfg.eta:g}"
    receivers = {"nif": Receiver("fbmc-nif", None, np.ones(cfg.m),
                                 leakage_table(gram - np.eye(cfg.m))),
                 "if": Receiver(label, inv, zeta_factors(inv, gram),
                                leakage_table((inv - exact) @ gram))}
    return LinkContext(filt, segs, bands, gram, receivers)


def wilson_halfwidth(errors: int, n: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        return float("nan")
    p = errors / n
    denom = 1.0 + _Z95 * _Z95 / n
    return _Z95 * np.sqrt(p * (1.0 - p) / n + _Z95 * _Z95 / (4.0 * n * n)) / denom


# bytes of one trial block's received window (complex128): at the default
# N = 64 a block is 28 trials. apply_taps holds the most per block: the
# window, its trial-major copy, their product and the result: four
# window-sized arrays, about 2 MiB, the order of a core's L2. The blocks
# size the cache working set only; that freed block buffers come back
# without page faults is the allocator policy's job (_keep_heap). The
# kernels do no blocking of their own.
_WINDOW_BYTES = 1 << 19

# glibc's allocator policy for the Monte-Carlo entry points: arrays below
# 32 MiB come from the heap, and the heap is trimmed only past 64 MiB free
# at its top, the ceilings of glibc's own adaptive thresholds. Setting
# either one turns off the adaptation of both, so both are set. Under the
# adaptive defaults glibc handed block-sized arrays back to the kernel
# between blocks, and a sim_sync_coded invocation took ~30k minor page
# faults (getrusage); under this policy it takes about 20.
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


def _keep_heap() -> tuple[int, int] | None:
    """Apply the allocator policy above through glibc's ``mallopt``, for the
    rest of the process. Returns the two calls' results (1 on success), or
    None where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    # M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1 (malloc.h)
    return mallopt(-3, _MMAP_THRESHOLD_BYTES), mallopt(-1, _TRIM_THRESHOLD_BYTES)


def _trial_blocks(trials: int, t_len: int) -> list[slice]:
    """Contiguous column blocks covering ``range(trials)``, each one received
    window of at most ``_WINDOW_BYTES`` but at least two trials wide. The
    sample kernels are column-invariant, but numpy reduces the (N, M) axes of
    a lone (N, M, 1) grid pairwise, in another order than a column of a wider
    grid: the validator's per-trial means and sums would change with a
    one-trial block, so a one-trial remainder joins the block before it."""
    step = max(_WINDOW_BYTES // (16 * t_len), 2)
    starts = list(range(0, trials, step))
    if len(starts) > 1 and trials - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [trials])]


# ---------------------------------------------------------------------------
# Link validation: isolate error components against the closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentCheck:
    name: str
    measured: float       # linear power, block average
    predicted: float
    sigma: float          # standard error of the measured mean
    within_3sigma: bool


@dataclass(frozen=True)
class LinkValidationPoint:
    snr_db: float
    checks: tuple[ComponentCheck, ...]
    total_measured: float
    total_predicted: float
    total_gap_db: float
    sinr_db: float


def _check(name: str, samples: np.ndarray, predicted: float,
           atol: float = 0.0) -> ComponentCheck:
    measured = float(np.mean(samples))
    sigma = float(np.std(samples, ddof=1) / np.sqrt(len(samples)))
    ok = abs(measured - predicted) <= 3.0 * sigma + atol
    return ComponentCheck(name, measured, predicted, sigma, ok)


def run_link_validation(cfg: RunConfig) -> list[LinkValidationPoint]:
    """Single full-band user: pair measured error components with closed forms.

    One seeded channel realization is held fixed; every trial draws fresh data
    and noise. Components are isolated with controlled feeds: a noise-only
    run, a flat-faded (circular-channel) zero-noise run with one active symbol
    per trial (the active symbol's own error is the same-symbol leakage, the
    other symbols accumulate the cross-symbol leakage over one round-robin
    cycle of stimuli), a matching run with a single active subcarrier whose
    leakage sums are paired with the per-donor profiles, a dispersion-only
    feed (true channel output minus its circular equivalent), and a
    previous-block-only feed when block overlap is enabled. The predictions
    use the inverse the receiver applies, so every check is exact at any
    eta: the four leakage checks read the receiver's ``leakage`` table, which
    is zero for the exact inverse and holds what a sparsified inverse
    (eta > 0) leaves.

    Every draw comes first: the channel, the data grid, the previous-block
    grid, then one unit-power noise draw over all trials. Each point's
    breakdown and equalizer are built next, and the trials then run on the
    same ``_trial_blocks`` as a campaign chunk. The receiver is linear,
    ``demod(r + sigma w) = demod(r) + sigma demod(w)``, so each block
    demodulates every feed once: the four noise-free feeds (single active
    symbol, single active subcarrier, dispersion only and the previous-block
    tail), the noise-free full signal and the unit noise; each point scales
    the noise by its sigma and all grids by its coefficients. The points
    share the noise, so they are correlated, but each point's distribution
    is unchanged and its checks do not depend on the rest of the grid.
    Per-trial samples go into (points, trials) vectors, and the checks are
    formed from them after the last block, so no output depends on the block
    width.
    """
    cfg.validate()
    _keep_heap()
    ctx = make_context(cfg)
    rx = ctx.receivers[cfg.receiver_mode]
    n, m = cfg.n, cfg.m
    delta2 = cfg.symbol_power
    bps = int(np.log2(cfg.mod_order))
    t_len = window_length(n, m, cfg.k)
    with_ibi = cfg.overlap_blocks

    master = np.random.SeedSequence(cfg.seed)
    ss_channel, ss_data, ss_noise = master.spawn(3)
    h = draw_taps(channel_profile(cfg), np.random.default_rng(ss_channel))
    c = freq_response(h[None, :], n)                    # (1, N)

    trials = cfg.trials or max(int(np.ceil(1e5 / (n * m))), 16 * m)
    trials = max(int(np.ceil(trials / m)), 2) * m   # >= 2 whole round-robin cycles
    rng_data = np.random.default_rng(ss_data)
    rng_noise = np.random.default_rng(ss_noise)

    cov = displaced_covariances(ctx.segs, m, taps=h, inv=rx.inv)

    def draw_grid():
        bits = rng_data.integers(0, 2, size=trials * n * m * bps)
        S = qam_map(bits, cfg.mod_order, delta2).reshape(trials, m, n)
        return np.moveaxis(S, 0, 2).swapaxes(0, 1)          # (N, M, B)

    S = draw_grid()
    prev = draw_grid() if with_ibi else None    # the previous block, unfaded
    w = complex_noise(rng_noise, (t_len, trials), 1.0)    # scaled per point
    setups = []
    for snr_db in cfg.snr_db:
        sigma2 = cfg.sigma2(snr_db)
        # one (1, N) equalizer gives the moments and, transposed, the feeds' column
        eq = make_equalizer(c, cfg.equalizer, sigma2, delta2)
        setups.append((
            averaged_breakdown(cfg, rx, channel_moments(eq, c, delta2), sigma2, cov),
            eq.coeffs.T, eq.beta.T, np.sqrt(sigma2)))

    def demodulate(r):
        return fbmc_demodulate(r, ctx.segs, rx.inv)

    def transmit_circular(grid):
        return fbmc_transmit(c.T[:, :, None] * grid, ctx.segs)

    def power(coeffs, y):
        """Per-trial mean power of an equalized grid."""
        return np.mean(np.abs(equalize(coeffs, y)) ** 2, axis=(0, 1))

    # single active symbol, round robin over block positions; single active
    # subcarrier of the middle symbol, round robin over subcarriers, which
    # measures per-donor leakage sums
    stim_col = np.arange(trials) % m
    m0 = m // 2
    sub_q = np.arange(trials) % n
    names = ("noise", "ici", "cross", "fd", "ici_sub", "isi_sub", "ibi", "total")
    meas = {name: np.empty((len(setups), trials)) for name in names}
    for cols in _trial_blocks(trials, t_len):
        b = np.arange(cols.stop - cols.start)
        S_b = S[:, :, cols]
        r_lin = apply_taps(h, fbmc_transmit(S_b, ctx.segs))
        # dispersion only: the true channel output minus its circular equivalent
        y_fd = demodulate(r_lin - transmit_circular(S_b))
        tails = y_ibi = None
        if with_ibi:
            # overlap_tail applies the channel; feed it the unfaded previous block
            tails = overlap_tail(h, fbmc_transmit(prev[:, :, cols], ctx.segs), t_len)
            y_ibi = demodulate(tails)
        sel = (np.arange(n)[:, None], stim_col[cols][None, :], b[None, :])
        S_stim = np.zeros_like(S_b)
        S_stim[sel] = S_b[sel]
        y_stim = demodulate(transmit_circular(S_stim))
        q = sub_q[cols]
        sub_sel = (q, np.full(b.size, m0), b)
        S_sub = np.zeros_like(S_b)
        S_sub[sub_sel] = S_b[sub_sel]
        y_sub = demodulate(transmit_circular(S_sub))
        y_sig = demodulate(r_lin if tails is None else r_lin + tails)
        y_w = demodulate(w[:, cols])

        for p, (_, coeffs, beta, sigma) in enumerate(setups):
            y_noise = sigma * y_w
            meas["noise"][p, cols] = power(coeffs, y_noise)
            est_stim = equalize(coeffs, y_stim)
            own = np.abs((est_stim - beta[:, :, None] * S_stim)[sel]) ** 2
            meas["ici"][p, cols] = own.mean(axis=0)
            cross = np.abs(est_stim) ** 2
            cross[sel] = 0.0
            meas["cross"][p, cols] = cross.sum(axis=(0, 1))
            meas["fd"][p, cols] = power(coeffs, y_fd)
            est_sub = equalize(coeffs, y_sub)
            col = np.abs(est_sub[:, m0, :]) ** 2
            meas["ici_sub"][p, cols] = col.sum(axis=0) - col[q, b]
            rest = np.abs(est_sub) ** 2
            rest[:, m0, :] = 0.0
            meas["isi_sub"][p, cols] = rest.sum(axis=(0, 1))
            if with_ibi:
                meas["ibi"][p, cols] = power(coeffs, y_ibi)
            meas["total"][p, cols] = np.mean(
                np.abs(equalize(coeffs, y_sig + y_noise) - S_b) ** 2, axis=(0, 1))

    # per-donor-subcarrier leakage sums over receivers: donor (m0, q) reaches
    # receiver (a, n) through leakage[a, m0, (n - q) mod N], its own symbol
    # through the diagonal profile and the others through the off-diagonal
    # column sums
    own = rx.leakage[m0, m0]
    donor_profiles = np.stack([own, rx.leakage[:, m0].sum(axis=0) - own])
    cq2 = delta2 * np.abs(c[0]) ** 2
    points = []
    for p, (snr_db, (bd, coeffs, _, _)) in enumerate(zip(cfg.snr_db, setups)):
        got = {name: samples[p] for name, samples in meas.items()}
        # one stimulus cycle accumulates the full cross-symbol error per block
        meas_isi = got["cross"].reshape(-1, m).sum(axis=1) / (n * m)
        # the profiles are symmetric in the lag, so rows may index the
        # donor: x[q, n] = |E_n|^2 sums each donor's leakage over receivers
        gain2 = np.abs(coeffs[:, 0]) ** 2
        sums = leakage_sums(donor_profiles, np.broadcast_to(gain2, (n, n)))
        # the measurement leaves out the donor's own position
        pq_ici = cq2 * (sums[0] - own[0] * gain2)
        pq_isi = cq2 * sums[1]

        pred_ici_m = bd.ici.mean(axis=1)                     # per stimulus position
        atol = 1e-15 * delta2     # exactly-cancelled components measure as roundoff
        checks = [
            _check("noise", got["noise"], float(bd.noise.mean())),
            _check("ici", got["ici"] - pred_ici_m[stim_col] + pred_ici_m.mean(),
                   float(pred_ici_m.mean()), atol),
            _check("isi", meas_isi, float(bd.isi.mean()), atol),
            _check("fd", got["fd"], float(bd.fd_exact.mean()), atol),
            _check("ici_sub", got["ici_sub"] - pq_ici[sub_q] + pq_ici[sub_q].mean(),
                   float(pq_ici[sub_q].mean()), atol),
            _check("isi_sub", got["isi_sub"] - pq_isi[sub_q] + pq_isi[sub_q].mean(),
                   float(pq_isi[sub_q].mean()), atol),
        ]
        pred_total = float((bd.resd + bd.ici + bd.isi + bd.fd_exact + bd.noise).mean())
        if with_ibi:
            checks.append(_check("ibi", got["ibi"], float(bd.ibi_exact.mean()), atol))
            pred_total += float(bd.ibi_exact.mean())

        total_measured = float(got["total"].mean())
        gap_db = abs(10 * np.log10(total_measured / pred_total))
        points.append(LinkValidationPoint(
            snr_db=snr_db, checks=tuple(checks),
            total_measured=total_measured, total_predicted=pred_total,
            total_gap_db=gap_db,
            sinr_db=float(10 * np.log10(delta2 / total_measured))))
        log.info("validated snr=%g dB: total %.2f dB measured vs %.2f dB predicted",
                 snr_db, 10 * np.log10(total_measured), 10 * np.log10(pred_total))
    return points


# ---------------------------------------------------------------------------
# Multi-service BER campaigns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    scheme: str
    subband: int
    ber: float
    ci_halfwidth: float
    info_bits: int
    bit_errors: int


@dataclass(frozen=True)
class MultiserviceResult:
    points: tuple[BerPoint, ...]
    decision_snr_db: float | None
    schemes: tuple[str, ...]


@dataclass
class _Tally:
    errors: int = 0
    bits: int = 0

    def ber(self) -> float:
        return self.errors / self.bits if self.bits else float("nan")


def _band_grid(symbols: np.ndarray, n: int, start: int) -> np.ndarray:
    """Place per-band symbols (width, nsym, B) into a zeroed N-row grid."""
    grid = np.zeros((n,) + symbols.shape[1:], dtype=complex)
    grid[start:start + symbols.shape[0]] = symbols
    return grid


class _MultiserviceEngine:
    """One scenario's per-chunk trial machinery, vectorized over the batch.

    Three users occupy disjoint sub-bands; the receiver is aligned and
    equalized to the middle user, whose decoded info bits are scored. The
    guard between filter-bank blocks exceeds every configured time offset
    plus the channel memory, so windows do not interact and each chunk can
    synthesize windows independently. The CP-OFDM baseline has no guard
    between its symbols, so interferer trains get one dummy symbol of lead-in
    and tail to keep the measured symbols under steady-state interference.
    """

    def __init__(self, cfg: RunConfig, ctx: LinkContext, modes: tuple[str, ...]):
        self.cfg = cfg
        self.ctx = ctx
        for i, mode in enumerate(modes):
            if mode in modes[:i]:
                raise ValueError(f"receiver mode {mode!r} repeated in {modes}")
        self.receivers = tuple(ctx.receivers[mode] for mode in modes)
        self.schemes = tuple(rx.label for rx in self.receivers)
        self.n, self.m = cfg.n, cfg.m
        self.width = cfg.band_width()
        self.starts = cfg.band_starts()
        self.band = slice(self.starts[1], self.starts[1] + self.width)  # scored user
        self.offsets = cfg.band_offsets()
        self.cp = cfg.cp()
        self.bps = int(np.log2(cfg.mod_order))
        self.t_len = window_length(self.n, self.m, cfg.k)
        self.pdp = channel_profile(cfg)
        cap_bits = self.width * self.m * self.bps   # even: bps is 2, 4 or 6
        self.info_len = cap_bits // 2 - 6 if cfg.coded else cap_bits
        if self.info_len < 1:
            raise ConfigError("invalid configuration:\n  subband_width: sub-band too "
                              f"small for the zero-terminated code ({cap_bits} coded "
                              "bits per block, at least 14 needed)")

    def _band_symbols(self, rng: np.random.Generator, batch: int):
        """Fresh mapped symbol grids for all three users, and the info bits
        of the scored middle user; the others' bits are drawn in the same
        order but dropped once mapped."""
        grids = []
        for u in range(3):
            info = rng.integers(0, 2, size=(batch, self.info_len))
            coded = conv_encode(info) if self.cfg.coded else info
            sym = qam_map(coded.ravel(), self.cfg.mod_order, self.cfg.symbol_power)
            sym = sym.reshape(batch, self.m, self.width)
            if u == 1:
                scored = info
            grids.append(np.moveaxis(sym, 0, 2).swapaxes(0, 1))  # (width, M, B)
        return scored, grids

    def run_chunk(self, seed: np.random.SeedSequence, batch: int,
                  sigma2: float) -> dict[str, _Tally]:
        cfg, n, m = self.cfg, self.n, self.m
        rng = np.random.default_rng(seed)
        info, grids = self._band_symbols(rng, batch)
        taps = draw_taps(self.pdp, rng, (3, batch))          # per user, per trial
        mid_c = freq_response(taps[1], n)                    # (B, N)
        sigma2_ofdm = sigma2 * (n + self.cp) / n
        # every draw of the chunk up front, in the order of the full-width chain
        noise = complex_noise(rng, (self.t_len, batch), sigma2)
        dummies = [complex_noise(rng, (self.width, 2, batch), cfg.symbol_power)
                   for _ in range(3)]
        noise_ofdm = complex_noise(rng, ((m + 2) * (n + self.cp), batch), sigma2_ofdm)

        coeffs = make_equalizer(mid_c, cfg.equalizer, sigma2,
                                cfg.symbol_power).coeffs.T[self.band]    # (width, B)
        coeffs_ofdm = make_equalizer(mid_c, cfg.equalizer, sigma2_ofdm,
                                     cfg.symbol_power).coeffs.T[self.band]
        est = {s: np.empty((self.width, m, batch), dtype=complex)
               for s in self.schemes + ("ofdm",)}
        # trials are independent, so the chain runs on trial blocks whose
        # windows stay small; each block's filter-bank buffers are gone
        # before its OFDM buffers exist
        for cols in _trial_blocks(batch, self.t_len):
            self._fbmc_block(grids, taps, noise, coeffs, cols, est)
            self._ofdm_block(grids, taps, dummies, noise_ofdm, coeffs_ofdm, cols,
                             est["ofdm"])
        # the draws are spent: the decoders need only the estimates, the
        # coefficients and the info bits (12 of 21.5 MiB live at the first
        # decode of a default coded chunk were these)
        del grids, taps, mid_c, noise, dummies, noise_ofdm

        out: dict[str, _Tally] = {}
        for rx in self.receivers:
            nv = sigma2 * np.abs(coeffs[:, None, :]) ** 2 * rx.zeta[None, :, None]
            out[rx.label] = self._tally(est[rx.label], nv, info)
        nvo = sigma2_ofdm * np.abs(coeffs_ofdm[:, None, :]) ** 2 * np.ones((1, m, 1))
        out["ofdm"] = self._tally(est["ofdm"], nvo, info)
        return out

    def _superpose(self, modulate, bands, taps, noise) -> np.ndarray:
        """The received window: user u's grid from ``bands`` placed at its start
        and modulated, through ``taps[u]``, delayed by its offset and cut to the
        window, summed, plus ``noise``. One user's stream is alive at a time."""
        r = np.zeros(noise.shape, dtype=complex)
        for u, band in enumerate(bands):
            y = apply_taps(taps[u], modulate(_band_grid(band, self.n, self.starts[u])))
            r[self.offsets[u]:] += y[:r.shape[0] - self.offsets[u]]
        r += noise
        return r

    def _fbmc_block(self, grids, taps, noise, coeffs, cols: slice, est) -> None:
        """Filter-bank windows of all users on trials ``cols``, one matched
        filter, then the middle band of each receiver into ``est``."""
        ctx, n = self.ctx, self.n
        r = self._superpose(lambda grid: fbmc_transmit(grid, ctx.segs),
                            (g[:, :, cols] for g in grids), taps[:, cols], noise[:, cols])
        x = apply_adjoint(ctx.segs, r)
        for rx in self.receivers:
            y = x if rx.inv is None else apply_inverse(rx.inv, x)
            est[rx.label][:, :, cols] = equalize(
                coeffs[:, cols], dft_segments(y, n)[self.band])

    def _ofdm_block(self, grids, taps, dummies, noise, coeffs, cols: slice,
                    est: np.ndarray) -> None:
        """CP-OFDM baseline on trials ``cols`` under the same offsets and
        energy accounting, middle band into ``est``."""
        n, m = self.n, self.m
        trains = (np.concatenate([d[:, :1, cols], g[:, :, cols], d[:, 1:, cols]], axis=1)
                  for d, g in zip(dummies, grids))
        buf = self._superpose(lambda grid: ofdm_modulate(grid, self.cp), trains,
                              taps[:, cols], noise[:, cols])
        est[:, :, cols] = equalize(coeffs[:, cols],
                                   ofdm_demodulate(buf, n, self.cp)[self.band, 1:m + 1])

    def _tally(self, est: np.ndarray, nv: np.ndarray, info: np.ndarray) -> _Tally:
        """Demap the middle band (width, M, B), decode, count info-bit errors."""
        cfg = self.cfg
        batch = info.shape[0]

        def to_codeword_order(band):
            return np.moveaxis(band.swapaxes(0, 1), 2, 0).reshape(batch, -1)

        flat = to_codeword_order(est)
        if cfg.coded:
            nv_flat = to_codeword_order(np.broadcast_to(nv, est.shape))
            llrs = qam_llrs(flat.ravel(), cfg.mod_order, nv_flat.ravel(),
                            cfg.symbol_power).reshape(batch, -1)
            decoded = viterbi_decode(llrs)
        else:
            decoded = qam_demap(flat.ravel(), cfg.mod_order,
                                cfg.symbol_power).reshape(batch, -1)
        return _Tally(errors=int(np.count_nonzero(decoded != info)), bits=info.size)


def run_multiservice(cfg: RunConfig,
                     modes: tuple[str, ...] = ("nif", "if")) -> MultiserviceResult:
    """Three-band campaign measuring the middle band's BER for each scheme.

    Trials per SNR point are staged deterministically: a pilot stage, then up
    to two top-ups sized from the running estimates until every scheme with
    enough observed errors meets the confidence target and the point's
    info-bit floor, within a hard cap. ``cfg.trials`` overrides the staging
    with a fixed trial count.
    """
    cfg.validate()
    workers = worker_count()
    ctx = make_context(cfg)
    engine = _MultiserviceEngine(cfg, ctx, modes)
    _keep_heap()
    master = np.random.SeedSequence(cfg.seed)
    schemes = engine.schemes + ("ofdm",)
    pool = ThreadPoolExecutor(workers) if workers > 1 else None

    bits_per_trial = engine.info_len
    floor_bits = cfg.min_info_bits
    pilot_bits = max(floor_bits // 10, 50_000)
    cap_bits = 3 * floor_bits
    points: list[BerPoint] = []
    decision_snr: float | None = None

    try:
        for snr_db in cfg.snr_db:
            sigma2 = cfg.sigma2(snr_db)
            tallies = {s: _Tally() for s in schemes}

            def run_stage(target_bits: int) -> None:
                pending = target_bits - tallies["ofdm"].bits
                n_trials = max(0, -(-pending // bits_per_trial))
                sizes = [_CHUNK_TRIALS] * (n_trials // _CHUNK_TRIALS)
                if n_trials % _CHUNK_TRIALS:
                    sizes.append(n_trials % _CHUNK_TRIALS)
                seeds = master.spawn(len(sizes))
                jobs = list(zip(seeds, sizes))

                def one(job):
                    return engine.run_chunk(job[0], job[1], sigma2)

                results = pool.map(one, jobs) if pool is not None else map(one, jobs)
                for res in results:
                    for name, t in res.items():
                        tallies[name].errors += t.errors
                        tallies[name].bits += t.bits

            if cfg.trials:
                run_stage(cfg.trials * bits_per_trial)
            else:
                run_stage(pilot_bits)
                for _ in range(2):
                    target = pilot_bits
                    if tallies["ofdm"].ber() >= 1e-4:
                        target = max(target, floor_bits)
                    for t in tallies.values():
                        if t.errors >= 8:   # enough signal to size the interval
                            p = t.errors / t.bits
                            need = _Z95 ** 2 * (1 - p) / (cfg.ci_target ** 2 * p)
                            target = max(target, int(min(need, cap_bits)))
                    if target <= tallies["ofdm"].bits:
                        break
                    run_stage(min(target, cap_bits))

            if tallies["ofdm"].ber() >= 1e-4:
                decision_snr = snr_db if decision_snr is None else max(decision_snr, snr_db)
            for name, t in tallies.items():
                points.append(BerPoint(
                    snr_db=snr_db, scheme=name, subband=1, ber=t.ber(),
                    ci_halfwidth=wilson_halfwidth(t.errors, t.bits),
                    info_bits=t.bits, bit_errors=t.errors))
            log.info("snr=%g dB: %s", snr_db,
                     "  ".join(f"{s}={tallies[s].ber():.3e}" for s in schemes))
    finally:
        if pool is not None:
            pool.shutdown()
    return MultiserviceResult(tuple(points), decision_snr, schemes)
