"""Dense first-principles constructions shared by the structural tests, the
reference convolutional encoder and Viterbi decoder, the straightforward
forms of the delay tables, of the ``analyze`` CSV, of the whole-window
sample kernels and of one campaign chunk, and the BER-curve comparison used
by the acceptance suite.

The dense constructions are built by explicit loops from the definitions,
never from the package's banded/stacked representations, so agreement is
meaningful. The coding references are the straightforward shift-register
encoder and row-major (codeword, state) decoder that the package's
vectorized versions must match exactly, tie decisions included. The same
holds for the block-by-block delay tables and the row-by-row ``mse.csv``,
and for the whole-window OFDM and QAM kernels (map, decisions, demapped
bits and LLRs) that the blocked, sliced and per-level ones must match byte
for byte; the chunk reference runs the live tap and filter-bank kernels
over the whole batch, which pins their column invariance
(``column_invariant`` states it for one kernel at a time).
``reference_validation_samples`` keeps the validator's full-grid
per-point arithmetic (equalize, square, average), which its per-trial
samples from moments must match to 1e-12.
``dense_leakage_table`` builds a receiver's leakage table from the dense
transform-domain blocks of its error T - I. The
per-draw FFT leakage sums (for the matched filter on the band powers
|fft(g_d) / N|^2 with the neighbour counts of each band distance), the
einsum propagation and the roll-based covariance diagonals keep the
arithmetic the closed forms had before the cross-moment kernel, and
``reference_db`` formats one dB field at a time as a Python f-string:
``reference_mse_csv`` is built on them, so the live CSV must match it
byte for byte, and every breakdown component to 1e-12.
"""

from dataclasses import replace
import math

import numpy as np

from fbmcqam.analytics import (DisplacedCovariances, MseBreakdown, ensemble_taps,
                               zeta_factors)
from fbmcqam.channel import apply_taps, complex_noise, draw_taps, freq_response
from fbmcqam.cli import _csv_text
from fbmcqam.core import dft_segments, idft_block, qam_levels
from fbmcqam.filterbank import (apply_adjoint, apply_filter, apply_inverse, kept_mask,
                                sparsify_inverse)
from fbmcqam.simulator import _band_grid, channel_profile, make_context
from fbmcqam.transceiver import equalize, make_equalizer, ofdm_demodulate


def dense_filter_matrix(segs, m):
    """P from its definition: o[t] = sum_m u[t - mN] b[mN + (t mod N)]."""
    k, n = segs.shape
    taps = segs.reshape(-1)
    p = np.zeros(((k + m - 1) * n, m * n))
    for t in range(p.shape[0]):
        for mm in range(m):
            d = t - mm * n
            if 0 <= d < k * n:
                p[t, mm * n + (t % n)] = taps[d]
    return p


def dense_tap_matrix(h, t_len):
    """The channel's window operator from its definition: D[t, s] = h[t - s]
    for 0 <= t - s < L, so y = D x is the convolution truncated to t_len."""
    d = np.zeros((t_len, t_len), dtype=np.result_type(h, float))
    for t in range(t_len):
        for s in range(max(0, t - len(h) + 1), t + 1):
            d[t, s] = h[t - s]
    return d


def dense_gram_blocks(p, n, m):
    """G = P^T P regrouped as (N, M, M): block nu couples entries {mN + nu}."""
    g = p.T @ p
    out = np.zeros((n, m, m))
    for nu in range(n):
        idx = nu + n * np.arange(m)
        out[nu] = g[np.ix_(idx, idx)]
    return out


def stack_to_dense(blocks):
    """Expand an (N, M, M) per-subcarrier stack to the full MN x MN matrix."""
    n, m, _ = blocks.shape
    full = np.zeros((m * n, m * n), dtype=blocks.dtype)
    for nu in range(n):
        idx = nu + n * np.arange(m)
        full[np.ix_(idx, idx)] = blocks[nu]
    return full


def unitary_dft(n):
    grid = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(grid, grid) / n) / np.sqrt(n)


def dense_leakage_table(segs, m, mode, eta=0.0):
    """The (M, M, N) lag power of a receiver's error operator E = T - I from
    the dense transform-domain blocks F E_ab F^H, F the unitary DFT: entry
    [a, b, k] is the mean of |(F E_ab F^H)[(q + k) mod N, q]|^2 over q.
    T = G for ``mode="nif"``; T = R G for ``"if"``, R the inverse of the
    dense Gram blocks with eta's keep-mask applied."""
    n = segs.shape[1]
    gram = dense_gram_blocks(dense_filter_matrix(segs, m), n, m)
    if mode == "if":
        gram = sparsify_inverse(np.linalg.inv(gram), kept_mask(n, eta)) @ gram
    e = stack_to_dense(gram) - np.eye(m * n)
    f = unitary_dft(n)
    q = np.arange(n)
    rows = (q[:, None] + q) % n                     # rows[k, q] = (q + k) mod N
    out = np.zeros((m, m, n))
    for a in range(m):
        for b in range(m):
            blk = f @ e[a * n:(a + 1) * n, b * n:(b + 1) * n] @ f.conj().T
            out[a, b] = np.mean(np.abs(blk[rows, q]) ** 2, axis=1)
    return out


def reference_neighbor_counts(m, k):
    """(M, K - 1) counts: entry [ref, d - 1] is how many symbols of an M-symbol
    block sit at distance d from symbol ``ref`` (0, 1 or 2)."""
    ref = np.arange(m)[:, None]
    d = np.arange(1, k)[None, :]
    return (ref - d >= 0).astype(int) + (ref + d < m)


def reference_band_power(bands):
    """The matched filter's lag power by band distance, |fft(g_d) / N|^2
    (K, N): every block at distance d of G has the circulant profile
    fft(g_d) / N in the transform domain."""
    return np.abs(np.fft.fft(bands, axis=1) / bands.shape[1]) ** 2


def dense_displacement(p, n, l):
    """Delay-l perturbation: the true delayed response minus the response to
    per-segment circularly delayed inputs. Derived here from o[t] directly."""
    delayed = np.zeros_like(p)
    if l:
        delayed[l:] = p[:-l]
    else:
        delayed[:] = p
    circ = np.zeros_like(p)
    m = p.shape[1] // n
    cols = (np.arange(n) + l) % n
    for mm in range(m):
        circ[:, mm * n:(mm + 1) * n] = p[:, mm * n + cols]
    return delayed - circ


def dense_tail(p, l):
    """The previous block's last l output rows, landing at the window start."""
    out = np.zeros_like(p)
    if l:
        out[:l] = p[p.shape[0] - l:]
    return out


def reference_delay_tables(segs, m, n_delay):
    """The (L, M, M, N) fd and tail tables of ``analytics._delay_tables``,
    with the K-term fd sum gathered for every block (j', j) separately."""
    k, n = segs.shape
    ext = np.zeros((2 * m + k, n))              # ext[x + m] = seg(x)
    ext[m:m + k] = segs
    v = np.arange(n)
    lag = np.arange(n_delay)[:, None]
    crossed = (v < lag).astype(int)
    src = (v - lag) % n
    row = (np.arange(m)[:, None] - np.arange(m))[None, :, :, None] + m
    fd = np.zeros((n_delay, m, m, n))
    for i in range(k):
        fd += segs[i] * (ext[row + i - crossed[:, None, None, :], src[:, None, None, :]]
                         - ext[row + i, v])
    tail = np.zeros_like(fd)
    tail[:, 0, m - 1] = crossed * segs[0] * segs[k - 1, src]
    return fd, tail


def reference_leakage_sums(profiles, w):
    """The lag profiles (P, N) circularly convolved with each row of a
    weight ``w`` (D, N) by FFT, (p * w)[n] = sum_q p[(n - q) mod N] w[q]:
    a (P, D, N) array."""
    fw = np.fft.fft(w, axis=-1)
    return np.fft.ifft(np.fft.fft(profiles)[:, None, :] * fw, axis=-1).real


def reference_propagate(inv, d):
    """The table of R A_l as one einsum over the (N, M, M) inverse stack."""
    return np.einsum("vai,lijv->lajv", inv, d)


def reference_diagonals(d, moments):
    """``analytics._diagonals`` with the shifted tables stacked from one
    ``np.roll`` per delay."""
    d = np.ascontiguousarray(d)
    n_delay, m, _, n = d.shape
    e = np.stack([np.roll(d[l], -l, axis=-1) for l in range(n_delay)])
    x = e.transpose(1, 0, 2, 3).reshape(m, n_delay, m * n)
    c = x @ x.transpose(0, 2, 1)
    phase = np.exp(-2j * np.pi * np.outer(np.arange(n_delay), np.arange(n)) / n)
    t = (moments * c) @ phase.conj()
    out = (phase * t).sum(axis=1).real / n
    return np.maximum(out, 0.0)


def reference_displaced_covariances(segs, m, weights=None, taps=None, inv=None):
    """``analytics.displaced_covariances`` on the block-by-block delay
    tables, the einsum propagation and the roll-based diagonals; with
    ``inv=None`` (R = I) the propagated tables are the tables themselves."""
    moments = np.outer(taps, np.conj(taps)) if taps is not None else np.diag(weights)
    fd, tail = reference_delay_tables(segs, m, len(moments))
    after = (fd, tail) if inv is None else (reference_propagate(inv, fd),
                                            reference_propagate(inv, tail))
    return DisplacedCovariances(*(reference_diagonals(d, moments)
                                  for d in (fd, tail) + after))


def reference_averaged_breakdown(cfg, ctx, mode, taps, sigma2, cov):
    """``analytics.averaged_breakdown`` with the leakage taken per draw (FFT
    leakage sums weighted by that draw's |E|^2, then averaged): for the
    matched filter from the band powers, the same-symbol sum without the
    desired term and the cross-symbol sums accumulated per reference symbol
    by neighbour counts; for the inverse filter from the lag power of each
    block of the per-sample error (R - G^-1) G, summed over donor symbols."""
    n, m = cfg.n, cfg.m
    delta2 = cfg.symbol_power
    c = freq_response(np.atleast_2d(taps), n)
    eq = make_equalizer(c, cfg.equalizer, sigma2, delta2)
    absc2 = np.abs(c) ** 2
    abse2 = np.abs(eq.coeffs) ** 2
    abse2_bar = abse2.mean(axis=0)
    resd = np.repeat((delta2 * ((1.0 - eq.beta) ** 2).mean(axis=0))[None, :], m, axis=0)
    inv = ctx.receivers["if"].inv
    zgrid = np.repeat(zeta_factors(inv, ctx.gram)[:, None], n, axis=1)
    ici = np.zeros((m, n))
    isi = np.zeros((m, n))
    if mode == "nif":
        power = reference_band_power(ctx.bands)
        own, *per_d = reference_leakage_sums(power, absc2)
        own = own - power[0, 0] * absc2
        ici[:] = delta2 * (abse2 * own).mean(axis=0)
        conv_d = [(abse2 * conv).mean(axis=0) for conv in per_d]
        for ref, counts in enumerate(reference_neighbor_counts(m, cfg.k)):
            for count, conv in zip(counts, conv_d):
                if count:
                    isi[ref] += count * conv
        isi *= delta2
        fd = delta2 * abse2_bar * cov.fd
        ibi = delta2 * abse2_bar * cov.ibi
        noise = np.repeat((sigma2 * abse2_bar)[None, :], m, axis=0)
        return MseBreakdown(resd, ici, isi, fd, ibi, noise, fd, ibi, delta2=delta2)
    err = np.einsum("vab,vbc->vac", inv - np.linalg.inv(ctx.gram), ctx.gram)
    for a in range(m):
        power = np.abs(np.fft.fft(err[:, a].T) / n) ** 2        # blocks (a, b), (M, N)
        sums = delta2 * (abse2 * reference_leakage_sums(power, absc2)).mean(axis=1)
        ici[a] = sums[a]
        isi[a] = np.delete(sums, a, axis=0).sum(axis=0)
    fd = zgrid * (delta2 * abse2_bar * cov.fd)
    ibi = zgrid * (delta2 * abse2_bar * cov.ibi)
    noise = zgrid * (sigma2 * abse2_bar)[None, :]
    fd_exact = delta2 * abse2_bar * cov.fd_exact
    ibi_exact = delta2 * abse2_bar * cov.ibi_exact
    return MseBreakdown(resd, ici, isi, fd, ibi, noise, fd_exact, ibi_exact,
                        delta2=delta2)


def reference_db(value):
    """One dB field of the CSV as the per-row writer had it: six decimals of
    10 log10(value), ``-inf`` for a power of zero or below, ``inf`` for
    +inf; NaN raises ValueError."""
    if 0.0 < value < math.inf:
        return f"{10.0 * math.log10(value):.6f}"
    if value <= 0.0:
        return "-inf"
    if value == math.inf:
        return "inf"
    raise ValueError(f"cannot write {value!r} as a dB value")


def reference_mse_csv(cfg):
    """The text of ``fbmcqam analyze``'s CSV for ``cfg``, one row tuple per
    (SNR, mode, m, n, component), joined by ``cli._csv_text``, from the
    reference covariances and breakdowns above, on the exact inverse
    whatever ``cfg.eta`` is, as ``cmd_analyze`` builds its context."""
    ctx = make_context(replace(cfg, eta=0.0))
    pdp = channel_profile(cfg)
    taps = ensemble_taps(pdp, cfg.theory_draws, cfg.seed)
    mode_components = {"nif": ("resd", "ici", "isi", "fd", "ibi", "noise",
                               "total", "sinr"),
                       "if": ("resd", "fd", "ibi", "noise", "total", "sinr")}
    rows = []
    for snr_db in cfg.snr_db:
        sigma2 = cfg.symbol_power / 10.0 ** (snr_db / 10.0)
        for mode in ("nif", "if"):
            cov = reference_displaced_covariances(ctx.segs, cfg.m, weights=pdp.powers,
                                                  inv=ctx.receivers[mode].inv)
            bd = reference_averaged_breakdown(cfg, ctx, mode, taps, sigma2, cov)
            grids = {name: bd.component(name) for name in mode_components[mode]}
            for mm in range(cfg.m):
                for nu in range(cfg.n):
                    for name, grid in grids.items():
                        rows.append((f"{snr_db:g}", mode, mm, nu, name,
                                     reference_db(float(grid[mm, nu]))))
    return _csv_text(["snr_db", "mode", "m", "n", "component", "value_db"], rows)


# ---------------------------------------------------------------------------
# Whole-window sample kernels and one campaign chunk, as the package had them
# before they were blocked for cache, and the column-invariance rule
# ---------------------------------------------------------------------------

def same_array(a, b):
    """Equal shape, dtype and bytes."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def column_invariant(kernel, a, x, per_column=False, widths=None):
    """The column-invariance rule of a sample kernel ``kernel(a, x)``: a lone
    vector and every contiguous block of columns give the bytes of the same
    columns of the whole-width call. With ``per_column`` the rows of ``a``
    belong to the columns of x and are cut with them. ``widths`` limits the
    block widths checked (default: every width from 1 to B)."""
    x = x.reshape(x.shape[0], -1)
    whole, width = kernel(a, x), x.shape[1]
    lone = kernel(a[0] if per_column else a, x[:, 0])
    return same_array(lone, whole[:, 0]) and all(
        same_array(kernel(a[lo:lo + w] if per_column else a, x[:, lo:lo + w]),
                   whole[:, lo:lo + w])
        for w in (widths or range(1, width + 1)) for lo in range(width - w + 1))


def reference_ofdm_modulate(S, cp_len):
    """Prefix by concatenation, then serialize through moveaxis and reshape."""
    n, nsym = S.shape[0], S.shape[1]
    body = np.fft.ifft(S, axis=0, norm="ortho")
    sym = np.concatenate([body[n - cp_len:], body], axis=0) if cp_len else body
    return np.moveaxis(sym, 1, 0).reshape((nsym * (n + cp_len),) + S.shape[2:])


def reference_axis_decide(x, levels):
    """Nearest level by argmin over the (samples, levels) distance table."""
    return np.argmin(np.abs(x[..., None] - levels), axis=-1)


def reference_qam_demap(symbols, order, power=1.0):
    """Hard decisions as bits: each axis's label by ``reference_axis_decide``,
    read out MSB first by shifts, in-phase bits before quadrature bits."""
    symbols = np.asarray(symbols).ravel()
    bpa = int(np.log2(order)) // 2
    levels = qam_levels(order, power)
    shifts = np.arange(bpa - 1, -1, -1)
    return np.concatenate(
        [(reference_axis_decide(x, levels)[:, None] >> shifts) & 1
         for x in (symbols.real, symbols.imag)], axis=1).ravel()


def reference_qam_map(bits, order, power=1.0):
    """Gray QAM symbols from per-axis labels: each bit group split into an
    in-phase and a quadrature label, each read through the level table."""
    bits = np.asarray(bits).astype(np.int64).ravel()
    bpa = int(np.log2(order)) // 2
    levels = qam_levels(order, power)
    groups = bits.reshape(-1, 2 * bpa)
    weights = 1 << np.arange(bpa - 1, -1, -1)
    return levels[groups[:, :bpa] @ weights] + 1j * levels[groups[:, bpa:] @ weights]


def reference_qam_llrs(symbols, order, noise_var, power=1.0):
    """Max-log LLRs from one (samples, levels) squared-distance table per
    axis, minimized over each bit's label columns."""
    symbols = np.asarray(symbols).ravel()
    nv = np.broadcast_to(np.asarray(noise_var, dtype=float), symbols.shape).ravel()
    nv = np.maximum(nv, 1e-30)
    bpa = int(np.log2(order)) // 2
    levels = qam_levels(order, power)
    labels = np.arange(levels.size)
    llrs = np.empty((symbols.size, 2 * bpa))
    for axis, x in ((0, symbols.real), (1, symbols.imag)):
        d2 = (x[:, None] - levels) ** 2
        for j in range(bpa):
            bit = (labels >> (bpa - 1 - j)) & 1
            m0 = d2[:, bit == 0].min(axis=1)
            m1 = d2[:, bit == 1].min(axis=1)
            llrs[:, axis * bpa + j] = (m1 - m0) / nv
    return llrs.ravel()


def _reference_shift_window(x, offset):
    if offset == 0:
        return x
    out = np.zeros_like(x)
    out[offset:] = x[:-offset]
    return out


def reference_run_chunk(engine, seed, batch, sigma2):
    """``_MultiserviceEngine.run_chunk`` on the whole-window kernels over the
    full batch at once: each user's window shifted into a fresh zeroed copy,
    noise drawn as the chain reaches it, and the matched filter applied again
    for each receiver mode. The engine's symbol draws, its demap/decode tally
    of the middle band and the tap and filter-bank kernels, run here on the
    whole batch, are shared with the package."""
    cfg, ctx = engine.cfg, engine.ctx
    n, m = engine.n, engine.m
    rng = np.random.default_rng(seed)
    info, grids = engine._band_symbols(rng, batch)
    taps = draw_taps(engine.pdp, rng, (3, batch))
    mid_c = freq_response(taps[1], n)
    band = slice(engine.starts[1], engine.starts[1] + engine.width)
    out = {}

    r = np.zeros((engine.t_len, batch), dtype=complex)
    for u in range(3):
        grid = _band_grid(grids[u], n, engine.starts[u])
        tx = apply_filter(ctx.segs, idft_block(grid))
        r += _reference_shift_window(apply_taps(taps[u], tx), engine.offsets[u])
    r += complex_noise(rng, r.shape, sigma2)

    eq = make_equalizer(mid_c, cfg.equalizer, sigma2, cfg.symbol_power)
    coeffs = eq.coeffs.T
    for rx in engine.receivers:
        x = apply_adjoint(ctx.segs, r)
        if rx.inv is not None:
            x = apply_inverse(rx.inv, x)
        est = equalize(coeffs, dft_segments(x, n))
        nv = sigma2 * np.abs(coeffs[:, None, :]) ** 2 * rx.zeta[None, :, None]
        out[rx.label] = engine._tally(est[band], nv[band], info)

    step = n + engine.cp
    sigma2_ofdm = sigma2 * step / n
    buf = np.zeros(((m + 2) * step, batch), dtype=complex)
    for u in range(3):
        dummy = complex_noise(rng, (engine.width, 2, batch), cfg.symbol_power)
        train = np.concatenate([dummy[:, :1], grids[u], dummy[:, 1:]], axis=1)
        stream = reference_ofdm_modulate(_band_grid(train, n, engine.starts[u]),
                                         engine.cp)
        buf += _reference_shift_window(apply_taps(taps[u], stream), engine.offsets[u])
    buf += complex_noise(rng, buf.shape, sigma2_ofdm)
    grid_rx = ofdm_demodulate(buf, n, engine.cp)[:, 1:m + 1]
    eqo = make_equalizer(mid_c, cfg.equalizer, sigma2_ofdm, cfg.symbol_power)
    esto = equalize(eqo.coeffs.T, grid_rx)
    nvo = sigma2_ofdm * np.abs(eqo.coeffs.T[:, None, :]) ** 2 * np.ones((1, m, 1))
    out["ofdm"] = engine._tally(esto[band], nvo[band], info)
    return out


def reference_validation_samples(feeds, S, sel, m0, donor, coeffs, beta, sigma):
    """One SNR point's per-trial validation samples from one trial block's
    demodulated feeds, by the full-grid arithmetic the validator had before
    its moments: equalize each (N, M, B) grid with the point's (N, 1)
    ``coeffs``, square, then average or sum. ``feeds`` maps "fd", "ibi"
    (None without block overlap), "stim", "sub", "sig" and "w" to grids,
    ``S`` is the block's data, ``sel`` each trial's stimulus entries and
    ``donor`` each trial's active (q, b) entry in column ``m0`` of the sub
    feed."""
    def power(y):
        return np.mean(np.abs(equalize(coeffs, y)) ** 2, axis=(0, 1))

    S_stim = np.zeros_like(S)
    S_stim[sel] = S[sel]
    est_stim = equalize(coeffs, feeds["stim"])
    cross = np.abs(est_stim) ** 2
    cross[sel] = 0.0
    est_sub = equalize(coeffs, feeds["sub"])
    col = np.abs(est_sub[:, m0, :]) ** 2
    rest = np.abs(est_sub) ** 2
    rest[:, m0, :] = 0.0
    y_noise = sigma * feeds["w"]
    out = {"noise": power(y_noise),
           "ici": (np.abs((est_stim - beta[:, :, None] * S_stim)[sel]) ** 2).mean(axis=0),
           "cross": cross.sum(axis=(0, 1)),
           "fd": power(feeds["fd"]),
           "ici_sub": col.sum(axis=0) - col[donor],
           "isi_sub": rest.sum(axis=(0, 1)),
           "total": np.mean(np.abs(equalize(coeffs, feeds["sig"] + y_noise) - S) ** 2,
                            axis=(0, 1))}
    if feeds["ibi"] is not None:
        out["ibi"] = power(feeds["ibi"])
    return out


def ber_points(res):
    """A campaign's BER points keyed by (SNR, scheme)."""
    return {(p.snr_db, p.scheme): p for p in res.points}


def snr_offset_db(ref_snr, ref_ber, snr, ber):
    """SNR offset (dB) of BER points from a reference BER curve.

    For each point (snr, ber) this is snr minus the SNR at which the
    reference reaches the same BER, found by linear interpolation of
    log10(BER) between adjacent reference points; positive means the point
    needs more SNR than the reference. The reference BER must fall strictly
    with SNR. A BER outside the reference's range gives nan.
    """
    log_ref = np.log10(np.asarray(ref_ber, dtype=float))
    if not np.all(np.diff(log_ref) < 0):
        raise ValueError("reference BER must fall strictly with SNR")
    snr_ref = np.asarray(ref_snr, dtype=float)
    at_ref = np.interp(np.log10(np.asarray(ber, dtype=float)), log_ref[::-1],
                       snr_ref[::-1], left=np.nan, right=np.nan)
    return np.asarray(snr, dtype=float) - at_ref


# K=7 rate-1/2 code, generators octal 133 and 171, six flush bits
_MEMORY = 6
_NSTATES = 1 << _MEMORY
_GENERATORS = (0o133, 0o171)


def _parity(x):
    x = x ^ (x >> 4)
    x = x ^ (x >> 2)
    x = x ^ (x >> 1)
    return x & 1


def _transitions():
    """pred (64, 2) previous states of each next state s' and out0/out1
    (64, 2) the coded bits of the transition from pred[s', j] into s'."""
    nxt = np.arange(_NSTATES)
    inp = nxt >> (_MEMORY - 1)
    base = (nxt & ((_NSTATES >> 1) - 1)) << 1
    pred = np.stack([base, base + 1], axis=1)
    word = (inp[:, None] << _MEMORY) | pred
    return pred, _parity(word & _GENERATORS[0]), _parity(word & _GENERATORS[1])


def reference_conv_encode(bits):
    """Shift-register encoder: one step per input bit, (L,) or (B, L)."""
    bits = np.asarray(bits).astype(np.int64)
    squeeze = bits.ndim == 1
    if squeeze:
        bits = bits[None, :]
    b, length = bits.shape
    padded = np.concatenate([bits, np.zeros((b, _MEMORY), dtype=np.int64)], axis=1)
    out = np.empty((b, 2 * (length + _MEMORY)), dtype=np.int64)
    state = np.zeros(b, dtype=np.int64)
    for t in range(length + _MEMORY):
        word = (padded[:, t] << _MEMORY) | state
        out[:, 2 * t] = _parity(word & _GENERATORS[0])
        out[:, 2 * t + 1] = _parity(word & _GENERATORS[1])
        state = (padded[:, t] << (_MEMORY - 1)) | (state >> 1)
    return out[0] if squeeze else out


def reference_viterbi_decode(llrs_or_bits, mode="soft"):
    """Row-major (codeword, state) Viterbi decoder of zero-terminated
    codewords: a fancy-index gather of both predecessors per step, the
    strict ``cost1 < cost0`` comparison (the even predecessor wins ties) and
    ``np.where`` to keep the survivors."""
    pred, out0, out1 = _transitions()
    obs = np.asarray(llrs_or_bits, dtype=float)
    squeeze = obs.ndim == 1
    if squeeze:
        obs = obs[None, :]
    if mode == "hard":
        obs = 1.0 - 2.0 * obs
    b, total = obs.shape
    steps = total // 2
    metrics = np.full((b, _NSTATES), np.inf)
    metrics[:, 0] = 0.0
    choices = np.empty((steps, b, _NSTATES), dtype=np.uint8)
    for t in range(steps):
        lam0 = obs[:, 2 * t, None]
        lam1 = obs[:, 2 * t + 1, None]
        cost0 = metrics[:, pred[:, 0]] + lam0 * out0[:, 0] + lam1 * out1[:, 0]
        cost1 = metrics[:, pred[:, 1]] + lam0 * out0[:, 1] + lam1 * out1[:, 1]
        take1 = cost1 < cost0
        choices[t] = take1
        metrics = np.where(take1, cost1, cost0)
    decoded = np.empty((b, steps), dtype=np.int64)
    state = np.zeros(b, dtype=np.int64)
    rows = np.arange(b)
    for t in range(steps - 1, -1, -1):
        decoded[:, t] = state >> (_MEMORY - 1)
        state = pred[state, choices[t, rows, state]]
    out = decoded[:, :steps - _MEMORY]
    return out[0] if squeeze else out
