"""Acceptance suite: one test per release criterion, tolerances stated inline.

Each test prints the numbers it judged so the log carries the evidence, and
asserts its runtime budget where one applies. Criteria 4 and 8 encode targets
that the pinned default channel and band layout do not meet; they are
asserted as stated and the failure text carries the measured values (see the
packaged README for the analysis). Criterion 7 checks that the inverse-filter
coded BER curve sits the SNR offset predicted from zeta and the cyclic prefix
to the right of the baseline's; a fast test beside it shows on synthetic
curves that the check rejects a curve misplaced by 0.5 dB. The coded
campaigns of criteria 7 and 8 carry the ``slow`` marker.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fbmcqam.analytics import (averaged_breakdown, channel_moments, complexity_report,
                               displaced_covariances, ensemble_taps, zeta_factors)
from fbmcqam.channel import PowerDelayProfile, apply_taps, freq_response
from fbmcqam.config import RunConfig
from fbmcqam.core import design_prototype, dft_segments, idft_block, qam_map
from fbmcqam.fec import conv_encode, viterbi_decode
from fbmcqam.filterbank import (apply_adjoint, apply_filter, apply_inverse,
                                autocorr_bands, gram_stack, inverse_stack,
                                tap_segments)
from fbmcqam.simulator import make_context, run_link_validation, run_multiservice
from fbmcqam.transceiver import make_equalizer, ofdm_modulate
from helpers import (ber_points, dense_filter_matrix, dense_gram_blocks, snr_offset_db,
                     unitary_dft)


def _stack(n, m, k):
    segs = tap_segments(design_prototype(k, n))
    gram = gram_stack(autocorr_bands(segs), m)
    return segs, gram, inverse_stack(gram)


def test_c01_inverse_exactness():
    t0 = time.monotonic()
    for n, m, k in ((16, 4, 4), (64, 14, 5)):
        _, gram, inv = _stack(n, m, k)
        err = np.max(np.abs(np.einsum("nab,nbc->nac", inv, gram) - np.eye(m)))
        print(f"(N={n}, M={m}, K={k}): max |RG - I| = {err:.3e}")
        assert err < 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"{elapsed:.1f} s"


def test_c02_self_interference_cancellation_ideal_channel():
    t0 = time.monotonic()
    n, m, k = 64, 14, 5
    segs, _, inv = _stack(n, m, k)
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, n * m * 32 * 4)
    S = np.moveaxis(qam_map(bits, 16, 1.0).reshape(32, m, n), 0, 2).swapaxes(0, 1)
    est = dft_segments(apply_inverse(inv, apply_adjoint(
        segs, apply_filter(segs, idft_block(S)))), n)
    mse_db = 10 * np.log10(np.mean(np.abs(est - S) ** 2))
    print(f"ideal-channel zero-noise MSE = {mse_db:.1f} dB (limit -150)")
    assert mse_db < -150.0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"{elapsed:.1f} s"


def test_c03_measured_components_match_closed_forms():
    # seeded L=8 channel, MMSE, 20 dB, >= 1e5 symbols, block-overlap leakage on
    t0 = time.monotonic()
    cfg = RunConfig(receiver_mode="nif", snr_db=(20.0,), overlap_blocks=True)
    pt = run_link_validation(cfg)[0]
    for c in pt.checks:
        dev = abs(c.measured - c.predicted) / c.sigma if c.sigma > 0 else 0.0
        print(f"{c.name:8s} measured={c.measured:.4e} predicted={c.predicted:.4e}"
              f"  {dev:.2f} sigma")
        assert c.within_3sigma, c.name
    print(f"total gap = {pt.total_gap_db:.3f} dB (limit 0.3)")
    assert pt.total_gap_db <= 0.3
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"{elapsed:.1f} s"


def test_c04_high_snr_interference_floor_gap():
    # ensemble-averaged closed-form totals at 50 dB; reference floors for the
    # same comparison elsewhere: nif -11.2 dB, if -31 dB
    cfg = RunConfig()
    ctx = make_context(cfg)
    pdp = PowerDelayProfile.exponential(cfg.channel_taps, cfg.pdp_decay_db)
    taps = ensemble_taps(pdp, 400, seed=1)
    sigma2 = cfg.symbol_power / 10.0 ** 5
    c = freq_response(taps, cfg.n)
    moments = channel_moments(make_equalizer(c, cfg.equalizer, sigma2, cfg.symbol_power),
                              c, cfg.symbol_power)
    totals = {}
    for mode in ("nif", "if"):
        rx = ctx.receivers[mode]
        cov = displaced_covariances(ctx.segs, cfg.m, weights=pdp.powers, inv=rx.inv)
        bd = averaged_breakdown(cfg, rx, moments, sigma2, cov)
        totals[mode] = float(bd.total.mean())
    gap_db = 10 * np.log10(totals["nif"] / totals["if"])
    print(f"50 dB floors: nif {10 * np.log10(totals['nif']):.2f} dB, "
          f"if {10 * np.log10(totals['if']):.2f} dB, gap {gap_db:.2f} dB "
          f"(required >= 15; reference floors -11.2 / -31)")
    assert gap_db >= 15.0, (
        f"floor gap {gap_db:.2f} dB < 15 dB: the L={cfg.channel_taps} default "
        f"channel leaves both receivers sharing a dispersion floor of "
        f"{10 * np.log10(totals['if']):.1f} dB that compresses the ratio")


def test_c05_noise_enhancement_profile():
    t0 = time.monotonic()
    _, gram, inv = _stack(64, 14, 5)
    z = zeta_factors(inv, gram)
    mean = float(z.mean())
    print(f"block-average zeta = {mean:.4f} (required within [1.15, 1.50])")
    assert 1.15 <= mean <= 1.50
    # the transform-domain diagonals of the (m, m) blocks of R G R^H, which
    # are diagonal per sample: constant across n
    f = np.fft.fft(np.eye(64), norm="ortho")
    per_sample = np.einsum("vab,vbc,vac->av", inv, gram, inv)
    grid = np.einsum("nv,av,nv->an", f, per_sample, f.conj()).real
    assert np.max(np.abs(grid - grid[:, :1])) < 1e-12   # constant across n
    np.testing.assert_allclose(grid[:, 0], z, atol=1e-12)
    assert np.argmax(z) in (6, 7) and z[0] < z[6]       # middle symbols worst
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"{elapsed:.1f} s"


def test_c06_multiplication_counts():
    r0 = complexity_report(64, 14, 5, eta=0.0)
    r1 = complexity_report(64, 14, 5, eta=1.0)
    print(f"c_tx={r0.c_tx} c_rx_nif={r0.c_rx_nif} "
          f"c_r(eta=0)={r0.c_r} c_r(eta=1)={r1.c_r}")
    assert (r0.c_tx, r0.c_rx_nif, r0.c_r, r1.c_r) == (836, 1092, 1792, 960)
    p = dense_filter_matrix(tap_segments(design_prototype(5, 64)), 14)
    dense = 2 * np.count_nonzero(p)
    print(f"dense P filter block: {dense} (2MNK = {2 * 14 * 64 * 5})")
    assert dense == 2 * 14 * 64 * 5


# At equal energy per symbol the inverse receiver's post-receiver noise is
# sigma^2 zeta_m |E|^2 and the baseline's is sigma^2 (N + cp) / N |E|^2, and
# criterion 5 keeps mean(zeta_m) above (N + cp) / N. So c07 checks that the
# inverse-filter curve sits the predicted SNR offset to the right of the
# baseline, not that it lies inside the baseline's confidence band.
#
# Tolerance: zeta_m spreads over 1.19 to 1.57 around its mean, so the curve is
# not a pure shift by the mean, and log-BER interpolation across the 5 dB grid
# adds a chord error; together they reach 0.14 dB at the defaults. 0.3 dB
# leaves room for that and still rejects a curve misplaced by 0.5 dB.
_C07_TOL_DB = 0.3
# Window on the baseline's BER: above 0.4 the coded BER saturates towards 0.5
# (0.486 vs 0.483 at 0 dB), so the offset cannot be resolved; below 1e-3 the
# inverse receiver's channel-dispersion floor (criterion 4's subject), not
# noise, sets its BER.
_C07_BER_WINDOW = (1e-3, 0.4)


def _c07_predicted_offset_db(cfg):
    """10 log10(mean zeta_m * N / (N + cp)): the inverse receiver's noise
    enhancement beyond the baseline's cyclic-prefix energy overhead."""
    zeta = make_context(cfg).receivers["if"].zeta.mean()
    return float(10 * np.log10(zeta * cfg.n / (cfg.n + cfg.cp())))


def _c07_offset_faults(snr, ofdm_ber, if_ber, delta_db):
    """SNRs inside the window, and a message for each of them where the
    inverse-filter curve's offset from the baseline misses delta_db."""
    snr, ofdm_ber = np.asarray(snr, dtype=float), np.asarray(ofdm_ber)
    lo, hi = _C07_BER_WINDOW
    inside = (ofdm_ber >= lo) & (ofdm_ber <= hi)
    offsets = snr_offset_db(snr, ofdm_ber, snr, if_ber)
    bad = [f"snr={s:g}: offset {o:.2f} dB, predicted {delta_db:.2f} "
           f"+- {_C07_TOL_DB} dB"
           for s, o in zip(snr[inside], offsets[inside])
           if not abs(o - delta_db) <= _C07_TOL_DB]
    return snr[inside].tolist(), bad


@pytest.mark.slow
def test_c07_synchronous_coded_ber_comparability():
    t0 = time.monotonic()
    cfg = RunConfig(coded=True, min_info_bits=2_000_000)
    res = run_multiservice(cfg)
    elapsed = time.monotonic() - t0
    for p in res.points:
        print(f"snr={p.snr_db:5.1f} {p.scheme:10s} ber={p.ber:.4e} "
              f"ci={p.ci_halfwidth:.2e} bits={p.info_bits}")
    print(f"elapsed {elapsed:.0f} s, decision snr {res.decision_snr_db}")
    assert elapsed < 900.0, f"{elapsed:.1f} s"

    at = ber_points(res)
    assert res.decision_snr_db is not None
    assert at[res.decision_snr_db, "ofdm"].info_bits >= 2_000_000

    high = [s for s in cfg.snr_db if s >= 20.0]
    for snr in high:
        nif = at[snr, "fbmc-nif"].ber
        assert nif > at[snr, "fbmc-if"].ber
        assert nif > at[snr, "ofdm"].ber

    delta_db = _c07_predicted_offset_db(cfg)
    ofdm = [p for p in res.points if p.scheme == "ofdm"]
    grid = [p.snr_db for p in ofdm]
    window, bad = _c07_offset_faults(
        grid, [p.ber for p in ofdm],
        [at[s, "fbmc-if"].ber for s in grid], delta_db)
    print(f"predicted offset {delta_db:.3f} dB, window snr {window}")
    assert len(window) >= 3, window
    assert not bad, (
        "inverse-filter BER curve not offset from the baseline by the noise "
        "enhancement beyond the prefix overhead:\n" + "\n".join(bad))


def test_c07_offset_criterion_on_synthetic_curves():
    # diversity-2 waterfall shaped like the default coded baseline; the fine
    # grid keeps the interpolation's chord error below 0.01 dB
    def ber(snr_db):
        return 0.5 * (1.0 + 10.0 ** (snr_db / 10.0) / 10.4) ** -2.0

    snr = np.arange(-5.0, 30.5, 0.5)
    delta_db = _c07_predicted_offset_db(RunConfig())
    offsets = snr_offset_db(snr, ber(snr), snr, ber(snr - delta_db))
    known = ~np.isnan(offsets)
    err = np.max(np.abs(offsets[known] - delta_db))
    print(f"recovered shift {delta_db:.3f} dB to within {err:.4f} dB "
          f"at {known.sum()} points")
    assert known.sum() >= 50 and err < 0.05

    window, bad = _c07_offset_faults(snr, ber(snr), ber(snr - delta_db), delta_db)
    assert len(window) >= 3 and not bad
    for shift in (delta_db - 0.5, delta_db + 0.5):
        window, bad = _c07_offset_faults(snr, ber(snr), ber(snr - shift), delta_db)
        assert len(window) >= 3 and len(bad) == len(window), shift


@pytest.mark.slow
def test_c08_asynchronous_coded_ber_ordering():
    t0 = time.monotonic()
    base = RunConfig(coded=True, min_info_bits=2_000_000)
    off = base.async_offset()
    runs = {}
    for eta in (0.0, 1.0):
        cfg = replace(base, subband_offsets=(off, 0, off), eta=eta)
        runs[eta] = run_multiservice(cfg, modes=("if",))
    elapsed = time.monotonic() - t0
    for eta, res in runs.items():
        for p in res.points:
            print(f"eta={eta:g} snr={p.snr_db:5.1f} {p.scheme:14s} "
                  f"ber={p.ber:.4e} ci={p.ci_halfwidth:.2e}")
    print(f"elapsed {elapsed:.0f} s, offset {off} samples")
    assert elapsed < 1200.0, f"{elapsed:.1f} s"

    # dense inverse beats the sparsified one, within joint confidence
    at0, at1 = ber_points(runs[0.0]), ber_points(runs[1.0])
    for p0 in (p for p in runs[0.0].points if p.scheme == "fbmc-if"):
        p1 = at1[p0.snr_db, "fbmc-if+eta1"]
        assert p0.ber <= p1.ber + p0.ci_halfwidth + p1.ci_halfwidth, p0.snr_db

    bad = []
    for p in runs[0.0].points:
        if p.scheme != "ofdm" or p.ber < 1e-3:
            continue
        q = at0[p.snr_db, "fbmc-if"]
        if not q.ber < p.ber:
            bad.append(f"snr={p.snr_db:g}: if {q.ber:.4e} >= ofdm {p.ber:.4e}")
    assert not bad, (
        "inverse-filter BER not below the baseline under offset interferers "
        "(the inverse stage spreads out-of-band interference into the "
        "measured band):\n" + "\n".join(bad))


def test_c09_rectangular_filter_collapses_to_ofdm():
    n, m = 64, 14
    segs, gram, inv = _stack(n, m, 1)
    eye = np.broadcast_to(np.eye(m), (n, m, m))
    assert np.max(np.abs(gram - eye)) < 1e-12
    assert np.max(np.abs(inv - eye)) < 1e-12
    assert np.max(np.abs(zeta_factors(inv, gram) - 1.0)) < 1e-12
    receivers = make_context(RunConfig(n=n, m=m, k=1)).receivers
    assert all(np.all(rx.leakage == 0.0) for rx in receivers.values())
    rng = np.random.default_rng(9)
    S = rng.normal(size=(n, m, 4)) + 1j * rng.normal(size=(n, m, 4))
    gap = np.max(np.abs(apply_filter(segs, idft_block(S)) - ofdm_modulate(S, 0)))
    print(f"transmit waveform gap vs prefix-free OFDM: {gap:.2e}")
    assert gap < 1e-12


def test_c10_dense_oracle_and_fec_suite():
    rng = np.random.default_rng(10)
    tol = 1e-10
    for n in (2, 4, 8):
        f = unitary_dft(n)
        idx = np.arange(n)
        for k in (1, 2, 3, 4):
            segs = tap_segments(design_prototype(k, n))
            bands = autocorr_bands(segs)
            prof = np.fft.fft(bands, axis=1) / n
            for d in range(k):
                circ = prof[d][(idx[:, None] - idx[None, :]) % n]
                t = f @ np.diag(bands[d]) @ f.conj().T
                assert np.max(np.abs(t - circ)) < tol
            for m in (1, 2, 3, 4):
                p = dense_filter_matrix(segs, m)
                b = rng.normal(size=(m * n, 3)) + 1j * rng.normal(size=(m * n, 3))
                assert np.max(np.abs(apply_filter(segs, b) - p @ b)) < tol
                r = rng.normal(size=(p.shape[0], 3))
                assert np.max(np.abs(apply_adjoint(segs, r) - p.T @ r)) < tol
                gram = gram_stack(bands, m)
                assert np.max(np.abs(gram - dense_gram_blocks(p, n, m))) < tol
                inv = inverse_stack(gram)
                dense_inv = np.linalg.inv(gram)
                assert np.max(np.abs(inv - dense_inv)) < tol

    for l in (1, 2, 4):
        h = rng.normal(size=l) + 1j * rng.normal(size=l)
        x = rng.normal(size=(24, 2)) + 1j * rng.normal(size=(24, 2))
        want = np.stack([np.convolve(h, x[:, j])[:24] for j in range(2)], axis=1)
        assert np.max(np.abs(apply_taps(h, x) - want)) < tol
        grid = np.exp(-2j * np.pi * np.outer(np.arange(8), np.arange(l)) / 8)
        assert np.max(np.abs(freq_response(h, 8) - grid @ h)) < tol

    msg = rng.integers(0, 2, 30)
    coded = conv_encode(msg)
    np.testing.assert_array_equal(viterbi_decode(1.0 - 2.0 * coded), msg)
    flipped = coded[None, :] ^ np.eye(coded.size, dtype=int)
    decoded = viterbi_decode(1.0 - 2.0 * flipped)
    np.testing.assert_array_equal(decoded, np.broadcast_to(msg, decoded.shape))
    print("dense oracles and code checks passed on the full small-size grid")
