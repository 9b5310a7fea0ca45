"""Dense first-principles constructions shared by the structural tests, the
reference convolutional encoder and Viterbi decoder, the straightforward
forms of the delay tables and of the ``analyze`` CSV, and the BER-curve
comparison used by the acceptance suite.

The dense constructions are built by explicit loops from the definitions,
never from the package's banded/stacked representations, so agreement is
meaningful. The coding references are the straightforward shift-register
encoder and row-major (codeword, state) decoder that the package's
vectorized versions must match exactly, tie decisions included. The same
holds for the block-by-block delay tables and the row-by-row ``mse.csv``.
"""

import numpy as np

from fbmcqam.analytics import averaged_breakdown, displaced_covariances, ensemble_taps
from fbmcqam.cli import _csv_text, _db
from fbmcqam.simulator import _profile, make_context


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


def reference_mse_csv(cfg):
    """The text of ``fbmcqam analyze``'s CSV for ``cfg``, one row tuple per
    (SNR, mode, m, n, component), joined by ``cli._csv_text``."""
    ctx = make_context(cfg)
    pdp = _profile(cfg)
    taps = ensemble_taps(pdp, cfg.theory_draws, cfg.seed)
    mode_components = {"nif": ("resd", "ici", "isi", "fd", "ibi", "noise",
                               "total", "sinr"),
                       "if": ("resd", "fd", "ibi", "noise", "total", "sinr")}
    rows = []
    for snr_db in cfg.snr_db:
        sigma2 = cfg.symbol_power / 10.0 ** (snr_db / 10.0)
        for mode in ("nif", "if"):
            cov = displaced_covariances(ctx.segs, cfg.m, weights=pdp.powers,
                                        inv=ctx.inv if mode == "if" else None)
            bd = averaged_breakdown(cfg, ctx, mode, taps, sigma2, cov, with_ibi=True)
            grids = {name: bd.component(name) for name in mode_components[mode]}
            for mm in range(cfg.m):
                for nu in range(cfg.n):
                    for name, grid in grids.items():
                        rows.append((f"{snr_db:g}", mode, mm, nu, name,
                                     _db(float(grid[mm, nu]))))
    return _csv_text(["snr_db", "mode", "m", "n", "component", "value_db"], rows)


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
