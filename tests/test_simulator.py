"""Monte-Carlo harness: link validation, BER campaigns, determinism."""

from dataclasses import replace
import resource
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmcqam import simulator
from fbmcqam.analytics import displaced_covariances, zeta_factors
from fbmcqam.channel import draw_taps, freq_response
from fbmcqam.config import ConfigError, RunConfig
from fbmcqam.filterbank import kept_mask, sparsify_inverse, window_length
from fbmcqam.simulator import (channel_profile, make_context, run_link_validation,
                               run_multiservice, wilson_halfwidth)
from fbmcqam.transceiver import make_equalizer

from helpers import ber_points, dense_leakage_table, reference_run_chunk


def _val_cfg(**kw):
    base = dict(n=16, m=4, k=2, channel_taps=4, pdp_decay_db=10.0,
                trials=120, snr_db=(10.0,), seed=5150)
    base.update(kw)
    return RunConfig(**base)


def _ms_cfg(**kw):
    base = dict(n=32, m=4, k=2, channel_taps=4, pdp_decay_db=10.0,
                snr_db=(8.0,), trials=40, seed=902, coded=True)
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------

def test_wilson_interval_textbook_point():
    # the textbook 95% interval of 10 in 100 is (0.0552, 0.1744)
    assert wilson_halfwidth(10, 100) == pytest.approx((0.1744 - 0.0552) / 2, abs=5e-4)


def test_wilson_edge_cases():
    assert np.isnan(wilson_halfwidth(0, 0))
    # no errors still leaves an interval, one that narrows with n
    assert 0.0 < wilson_halfwidth(0, 500) < 0.01
    # shrinks with sample size at fixed rate
    assert wilson_halfwidth(50, 1000) < wilson_halfwidth(5, 100)


# ---------------------------------------------------------------------------
# link validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["nif", "if"])
def test_validation_components_match_closed_forms(mode):
    pts = run_link_validation(_val_cfg(receiver_mode=mode))
    assert len(pts) == 1
    pt = pts[0]
    names = [c.name for c in pt.checks]
    assert names == ["noise", "ici", "isi", "fd", "ici_sub", "isi_sub"]
    for c in pt.checks:
        assert c.within_3sigma, f"{c.name}: {c.measured} vs {c.predicted}"
    assert pt.total_gap_db < 0.5
    if mode == "if":
        # self-interference is cancelled, not merely small
        for c in pt.checks:
            if c.name in ("ici", "isi", "ici_sub", "isi_sub"):
                assert c.predicted == 0.0
                assert c.measured < 1e-12


def test_validation_with_block_overlap():
    cfg = _val_cfg(overlap_blocks=True)
    pt = run_link_validation(cfg)[0]
    names = [c.name for c in pt.checks]
    assert names[-1] == "ibi"
    assert all(c.within_3sigma for c in pt.checks)
    # the previous block reaches the ibi feed and the full feed only
    alone = run_link_validation(replace(cfg, overlap_blocks=False))[0]
    assert pt.checks[:-1] == alone.checks
    assert pt.total_measured != alone.total_measured


def test_validation_deterministic():
    a = run_link_validation(_val_cfg())[0]
    b = run_link_validation(_val_cfg())[0]
    assert a.total_measured == b.total_measured
    assert [c.measured for c in a.checks] == [c.measured for c in b.checks]
    c = run_link_validation(_val_cfg(seed=5151))[0]
    assert c.total_measured != a.total_measured


def test_validation_interference_floor():
    # with a non-invertible matched filter the residual interference caps the
    # SINR: raising SNR beyond the floor stops moving the total
    pts = run_link_validation(_val_cfg(receiver_mode="nif", snr_db=(50.0, 60.0)))
    flat = 10 * np.log10(pts[1].total_measured / pts[0].total_measured)
    assert abs(flat) < 0.3
    assert pts[0].sinr_db < 35.0


def test_validation_flat_channel_has_no_dispersion():
    pts = run_link_validation(_val_cfg(channel_taps=1, receiver_mode="nif"))
    pt = pts[0]
    fd = next(c for c in pt.checks if c.name == "fd")
    # every per-(m, n) fd is >= 0, so a zero mean means all of them are zero
    assert fd.predicted == 0.0 and fd.measured < 1e-12
    assert all(c.within_3sigma for c in pt.checks)


@pytest.mark.parametrize("eta", [0.5, 1.0])
def test_validation_predicts_with_the_sparsified_inverse(eta):
    # at eta > 0 the receiver applies the masked inverse; every prediction
    # comes from that same matrix, built here from the exact stack, and the
    # leakage ones from the dense oracle of its error (R - G^-1) G, and all
    # hold within 3 sigma (240 trials: the 3-sigma test judges the standard
    # error estimated from the samples)
    cfg = _val_cfg(receiver_mode="if", eta=eta, overlap_blocks=True, trials=240,
                   snr_db=(10.0, 30.0))
    n, m, m0 = cfg.n, cfg.m, cfg.m // 2
    exact = make_context(replace(cfg, eta=0.0))
    applied = sparsify_inverse(exact.receivers["if"].inv, kept_mask(cfg.n, eta))
    zeta = zeta_factors(applied, exact.gram)
    table = dense_leakage_table(exact.segs, m, "if", eta)
    lag = (np.arange(n)[:, None] - np.arange(n)) % n               # (n, q)
    ss_channel = np.random.SeedSequence(cfg.seed).spawn(3)[0]
    h = draw_taps(channel_profile(cfg), np.random.default_rng(ss_channel))
    cov = displaced_covariances(exact.segs, cfg.m, taps=h, inv=applied)
    c = freq_response(h[None, :], cfg.n)
    cq2 = cfg.symbol_power * np.abs(c[0]) ** 2
    off = ~np.eye(m, dtype=bool)
    for pt in run_link_validation(cfg):
        sigma2 = cfg.sigma2(pt.snr_db)
        abse2 = np.abs(make_equalizer(c, cfg.equalizer, sigma2,
                                      cfg.symbol_power).coeffs[0]) ** 2
        # donor (b, q) reaches receiver (a, n) with power
        # table[a, b, (n - q) mod N] |E_n|^2 delta^2 |C_q|^2
        reach = table[:, :, lag] * (abse2[:, None] * cq2)       # [a, b, n, q]
        received = reach.sum(axis=3)                             # [a, b, n]
        from_m0 = reach[:, m0].copy()                            # [a, n, q]
        from_m0[m0, np.arange(n), np.arange(n)] = 0.0            # the donor itself
        want = {"noise": (zeta[:, None] * (sigma2 * abse2)).mean(),
                "fd": (cfg.symbol_power * abse2 * cov.fd_exact).mean(),
                "ibi": (cfg.symbol_power * abse2 * cov.ibi_exact).mean(),
                "ici": np.diagonal(received).mean(),
                "isi": received[off].sum(axis=0).mean() / m,
                "ici_sub": from_m0[m0].sum(axis=0).mean(),
                "isi_sub": np.delete(from_m0, m0, axis=0).sum(axis=(0, 1)).mean()}
        checks = {check.name: check for check in pt.checks}
        for name, value in want.items():
            assert checks[name].predicted == pytest.approx(value, rel=1e-12, abs=0), name
            assert checks[name].within_3sigma, (name, checks[name])
        for name in ("ici", "isi", "ici_sub", "isi_sub"):
            assert checks[name].predicted > 0.0


def _same_points(got, want):
    """Equal checks, totals and SINRs, float for float."""
    assert len(got) == len(want)
    for pt, ref in zip(got, want):
        assert pt.snr_db == ref.snr_db
        assert pt.checks == ref.checks
        assert pt.total_measured == ref.total_measured
        assert pt.total_predicted == ref.total_predicted
        assert pt.sinr_db == ref.sinr_db


def _one_block(monkeypatch, cfg):
    """``cfg``'s validation with every trial in one block."""
    with monkeypatch.context() as mp:
        mp.setattr(simulator, "_WINDOW_BYTES", 1 << 40)
        return run_link_validation(cfg)


@pytest.mark.parametrize("equalizer", ["mmse", "zf"])
@pytest.mark.parametrize("eta", [0.0, 0.5])
@pytest.mark.parametrize("overlap", [True, False])
@pytest.mark.parametrize("mode", ["nif", "if"])
def test_validation_equals_per_point_reference(mode, overlap, eta, equalizer):
    # the reference for a point is the validator run on that point alone: its
    # checks are the same inside a grid and in any order of the grid
    cfg = _val_cfg(receiver_mode=mode, overlap_blocks=overlap, eta=eta,
                   equalizer=equalizer, snr_db=(10.0, 30.0))
    alone = [run_link_validation(replace(cfg, snr_db=(snr,)))[0] for snr in cfg.snr_db]
    _same_points(run_link_validation(cfg), alone)
    _same_points(run_link_validation(replace(cfg, snr_db=(30.0, 20.0, 10.0)))[::2],
                 alone[::-1])


@pytest.mark.parametrize("block_trials", [50, 7])
@pytest.mark.parametrize("eta", [0.0, 0.5])
@pytest.mark.parametrize("overlap", [True, False])
@pytest.mark.parametrize("mode", ["nif", "if"])
def test_validation_blocks_equal_whole_width_reference(monkeypatch, mode, overlap,
                                                       eta, block_trials):
    # 120 trials in blocks of 50, 50 and 20, or of 7 with the one-trial
    # remainder folded into the last block; every check is bit-equal to the
    # same validator run on all 120 trials in one block
    cfg = _val_cfg(receiver_mode=mode, overlap_blocks=overlap, eta=eta,
                   snr_db=(10.0, 30.0))
    whole = _one_block(monkeypatch, cfg)
    t_len = window_length(cfg.n, cfg.m, cfg.k)
    monkeypatch.setattr(simulator, "_WINDOW_BYTES", block_trials * 16 * t_len)
    assert len(simulator._trial_blocks(cfg.trials, t_len)) > 1
    _same_points(run_link_validation(cfg), whole)


@pytest.mark.parametrize("overlap, fixed", [(True, 4), (False, 3)])
@pytest.mark.parametrize("points", [1, 3])
def test_validation_demodulates_noise_free_feeds_once(monkeypatch, overlap, fixed,
                                                      points):
    # every trial column of every feed is demodulated once per run, whatever
    # the number of SNR points: the noise-free feeds, the noise-free full
    # signal and the unit noise. 16 trials run in one block, then in blocks
    # of 6, 6 and 4
    cfg = _val_cfg(overlap_blocks=overlap, trials=16,
                   snr_db=tuple(10.0 * (i + 1) for i in range(points)))
    t_len = window_length(cfg.n, cfg.m, cfg.k)
    demodulate = simulator.fbmc_demodulate
    for window_bytes, widths in [(simulator._WINDOW_BYTES, {16}),
                                 (6 * 16 * t_len, {6, 4})]:
        cols = []

        def counted(r, *args, **kwargs):
            cols.append(r.shape[1])
            return demodulate(r, *args, **kwargs)

        monkeypatch.setattr(simulator, "_WINDOW_BYTES", window_bytes)
        monkeypatch.setattr(simulator, "fbmc_demodulate", counted)
        run_link_validation(cfg)
        assert sum(cols) == 16 * (fixed + 2)
        assert set(cols) == widths


@pytest.mark.parametrize("points", [1, 3])
def test_validation_draws_unit_noise_once(monkeypatch, points):
    # one unit-power (t_len, trials) draw serves every SNR point
    calls = []
    draw = simulator.complex_noise

    def recording(rng, shape, sigma2):
        calls.append((shape, sigma2))
        return draw(rng, shape, sigma2)

    monkeypatch.setattr(simulator, "complex_noise", recording)
    cfg = _val_cfg(overlap_blocks=True, trials=16,
                   snr_db=tuple(10.0 * (i + 1) for i in range(points)))
    run_link_validation(cfg)
    assert calls == [((window_length(cfg.n, cfg.m, cfg.k), 16), 1.0)]


@pytest.mark.parametrize("trials, cycles", [(1, 2), (3, 2), (4, 2), (5, 2), (9, 3)])
def test_validation_runs_at_least_two_stimulus_cycles(monkeypatch, trials, cycles):
    # the isi check's spread is taken over per-cycle sums, so a run rounds up
    # to whole round-robin cycles of M trials, and to at least two of them:
    # over one cycle sigma is nan and the check fails without a message
    shapes = []
    draw = simulator.complex_noise

    def recording(rng, shape, sigma2):
        shapes.append(shape)
        return draw(rng, shape, sigma2)

    monkeypatch.setattr(simulator, "complex_noise", recording)
    cfg = RunConfig(n=16, m=4, k=3, trials=trials, snr_db=(20.0,))
    (point,) = run_link_validation(cfg)
    assert shapes == [(window_length(16, 4, 3), cycles * 4)]
    assert all(np.isfinite(c.sigma) and np.isfinite(c.measured) for c in point.checks)
    assert {c.name for c in point.checks} >= {"isi", "ici", "fd"}


@pytest.mark.parametrize("mode", ["nif", "if"])
def test_validation_builds_each_points_equalizer_once(monkeypatch, mode):
    # one equalizer per SNR point serves both the breakdown's moments and
    # the feeds
    calls = []
    make = simulator.make_equalizer

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return make(*args, **kwargs)

    monkeypatch.setattr(simulator, "make_equalizer", counted)
    cfg = _val_cfg(receiver_mode=mode, overlap_blocks=True, trials=16,
                   snr_db=(10.0, 20.0, 30.0))
    run_link_validation(cfg)
    assert calls == [(1, cfg.n)] * 3


@pytest.mark.parametrize("mode", ["nif", "if"])
def test_validation_working_set_below_whole_width_reference(monkeypatch, mode):
    # the feeds live one trial block at a time, so the traced peak of the
    # blocked validator stays well under that of the same validator run on
    # all trials in one block
    cfg = RunConfig(n=64, m=14, k=5, trials=224, overlap_blocks=True,
                    snr_db=(10.0, 20.0, 30.0), receiver_mode=mode)

    def traced_peak(validate):
        tracemalloc.start()
        try:
            validate()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    blocked = traced_peak(lambda: run_link_validation(cfg))
    assert blocked <= 0.7 * traced_peak(lambda: _one_block(monkeypatch, cfg))


# ---------------------------------------------------------------------------
# multi-service campaigns
# ---------------------------------------------------------------------------

def test_scheme_labels():
    for eta, label in ((0.0, "fbmc-if"), (0.5, "fbmc-if+eta0.5")):
        receivers = make_context(RunConfig(n=16, m=4, k=2, eta=eta)).receivers
        assert receivers["nif"].label == "fbmc-nif"
        assert receivers["if"].label == label
        # the matched filter applies no R, so its noise is not enhanced
        assert receivers["nif"].inv is None
        assert np.array_equal(receivers["nif"].zeta, np.ones(4))


def test_unknown_receiver_mode_raises_instead_of_running_another():
    # a mode is looked up among the link's receivers; "IF" is none of them,
    # so the campaign raises before any trial runs rather than scoring some
    # other receiver's estimates under a label of its own
    with pytest.raises(KeyError) as exc:
        run_multiservice(_ms_cfg(trials=4), modes=("IF",))
    assert exc.value.args == ("IF",)


def test_repeated_receiver_mode_raises_instead_of_running_twice():
    # the tallies are keyed by label, so a repeated mode would be equalized
    # and demapped twice per block for a single point per SNR
    with pytest.raises(ValueError, match="receiver mode 'nif' repeated"):
        run_multiservice(_ms_cfg(trials=8, coded=False), modes=("nif", "nif"))


def test_multiservice_structure(monkeypatch):
    monkeypatch.setattr(simulator, "_CHUNK_TRIALS", 16)
    res = run_multiservice(_ms_cfg())
    assert res.schemes == ("fbmc-nif", "fbmc-if", "ofdm")
    assert [(p.snr_db, p.scheme) for p in res.points] == [
        (8.0, "fbmc-nif"), (8.0, "fbmc-if"), (8.0, "ofdm")]
    for p in res.points:
        assert p.subband == 1
        assert p.info_bits > 0 and 0.0 <= p.ber <= 1.0
        assert p.ci_halfwidth > 0.0


def test_multiservice_deterministic_and_worker_independent(monkeypatch):
    monkeypatch.setattr(simulator, "_CHUNK_TRIALS", 16)
    cfg = _ms_cfg()
    a = run_multiservice(cfg)
    b = run_multiservice(cfg)
    assert a == b
    monkeypatch.setenv("FBMCQAM_WORKERS", "3")
    c = run_multiservice(cfg)
    assert a == c


def test_multiservice_decision_point_marking(monkeypatch):
    # errors at low SNR mark the decision point; a clean high-SNR flat
    # channel leaves it unset
    monkeypatch.setattr(simulator, "_CHUNK_TRIALS", 16)
    noisy = run_multiservice(_ms_cfg(coded=False, snr_db=(0.0,), trials=30))
    assert noisy.decision_snr_db == 0.0
    assert all(p.ber > 1e-3 for p in noisy.points)
    # the reference scheme decides the marking; a single Rayleigh tap at
    # 60 dB leaves it error-free even though the matched filter still floors
    clean = run_multiservice(
        _ms_cfg(coded=False, channel_taps=1, snr_db=(60.0,), trials=30))
    assert clean.decision_snr_db is None
    at = ber_points(clean)
    assert at[60.0, "ofdm"].bit_errors == 0
    assert at[60.0, "fbmc-nif"].ber > 0.01


def test_multiservice_ber_falls_with_snr(monkeypatch):
    monkeypatch.setattr(simulator, "_CHUNK_TRIALS", 32)
    res = run_multiservice(_ms_cfg(coded=False, snr_db=(5.0, 25.0), trials=60))
    at = ber_points(res)
    for scheme in res.schemes:
        lo, hi = at[5.0, scheme], at[25.0, scheme]
        assert hi.ber < lo.ber


def test_async_offsets_smoke(monkeypatch):
    monkeypatch.setattr(simulator, "_CHUNK_TRIALS", 16)
    cfg = _ms_cfg(subband_offsets=(18, 0, 18))
    res = run_multiservice(cfg)
    assert all(np.isfinite(p.ber) for p in res.points)
    assert res == run_multiservice(cfg)


def test_eta_label_and_run(monkeypatch):
    monkeypatch.setattr(simulator, "_CHUNK_TRIALS", 16)
    res = run_multiservice(_ms_cfg(eta=0.5), modes=("if",))
    assert res.schemes == ("fbmc-if+eta0.5", "ofdm")


def _engine(preset, coded, eta):
    cfg = RunConfig(n=16, coded=coded, eta=eta, seed=77)
    delta = cfg.async_offset() if preset == "async3band" else 0
    cfg = replace(cfg, subband_offsets=(delta, 0, delta))
    return simulator._MultiserviceEngine(cfg, make_context(cfg), ("nif", "if"))


def _window_trials(monkeypatch, engine, trials):
    """Cap the received window of one trial block at ``trials`` trials."""
    monkeypatch.setattr(simulator, "_WINDOW_BYTES", trials * 16 * engine.t_len)


def _assert_chunk_matches_reference(engine, batch):
    # both sides score through the engine's tally, which records what each
    # scheme hands it
    handed = []
    tally = engine._tally

    def recording(est, nv, info):
        handed.append((est.tobytes(), np.broadcast_to(nv, est.shape).tobytes()))
        return tally(est, nv, info)

    engine._tally = recording
    for snr_db in (0.0, 10.0):
        sigma2 = 10.0 ** (-snr_db / 10.0)
        seed = np.random.SeedSequence(31)
        handed.clear()
        got = engine.run_chunk(seed, batch, sigma2)
        blocked = handed[:]
        handed.clear()
        assert got == reference_run_chunk(engine, seed, batch, sigma2)
        assert blocked == handed            # estimates and noise variances, bit for bit
        assert sum(t.errors for t in got.values()) > 0


@pytest.mark.parametrize("preset, coded", [("sync3band", True), ("async3band", False)])
@pytest.mark.parametrize("eta", [0.0, 0.5])
@pytest.mark.parametrize("block_trials", [None, 10])
def test_chunk_equals_whole_window_reference(monkeypatch, preset, coded, eta,
                                             block_trials):
    # None keeps the default window (one block here); 10 splits a 24-trial
    # chunk into blocks of 10, 10 and 4 trials
    engine = _engine(preset, coded, eta)
    if block_trials:
        _window_trials(monkeypatch, engine, block_trials)
    _assert_chunk_matches_reference(engine, 24)


@pytest.mark.parametrize("preset, coded", [("sync3band", True), ("async3band", False)])
def test_chunk_with_one_trial_remainder_equals_reference(monkeypatch, preset, coded):
    # 21 trials at a 10-trial window run as blocks of 10 and 11
    engine = _engine(preset, coded, 0.0)
    _window_trials(monkeypatch, engine, 10)
    _assert_chunk_matches_reference(engine, 21)


@given(trials=st.integers(1, 400), window_trials=st.integers(0, 60))
def test_trial_blocks_cover_the_trials_in_order(trials, window_trials):
    # contiguous, in order, from 0 to trials; no block narrower than two
    # trials unless there is only one trial, none wider than the window
    # allows (or than three trials when the window holds fewer than two)
    t_len = 37
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_WINDOW_BYTES", window_trials * 16 * t_len)
        blocks = simulator._trial_blocks(trials, t_len)
    assert blocks[0].start == 0 and blocks[-1].stop == trials
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    widths = [b.stop - b.start for b in blocks]
    assert min(widths) >= min(trials, 2)
    assert max(widths) <= max(window_trials, 2) + 1


@pytest.mark.parametrize("coded", [True, False])
def test_band_symbols_return_the_scored_users_bits(coded):
    # the middle user's grid decodes without error to the bits handed back;
    # the neighbors' grids carry bits of their own
    engine = _engine("sync3band", coded, 0.0)
    info, grids = engine._band_symbols(np.random.default_rng(5), 6)
    nv = np.full(grids[1].shape, 1e-3)
    assert engine._tally(grids[1], nv, info).errors == 0
    assert engine._tally(grids[0], nv, info).errors > 0
    assert engine._tally(grids[2], nv, info).errors > 0


@pytest.mark.parametrize("batch, widths", [(8, [8]), (24, [10, 10, 4]), (21, [10, 11])])
def test_chunk_applies_matched_filter_once_per_trial(monkeypatch, batch, widths):
    # both receiver modes start from one matched-filter output; a chunk
    # wider than a trial block filters each block's window once
    widths_seen = []
    adjoint = simulator.apply_adjoint

    def counted(segs, r, *args, **kwargs):
        widths_seen.append(r.shape[1])
        return adjoint(segs, r, *args, **kwargs)

    monkeypatch.setattr(simulator, "apply_adjoint", counted)
    engine = _engine("async3band", False, 0.0)
    _window_trials(monkeypatch, engine, 10)
    engine.run_chunk(np.random.SeedSequence(3), batch, 0.1)
    assert widths_seen == widths


def test_band_count_and_capacity_errors():
    bad = _ms_cfg(subband_width=4, subband_starts=(0, 8),
                  subband_offsets=(0, 0))
    with pytest.raises(ValueError, match="exactly 3"):
        run_multiservice(bad)
    tiny = RunConfig(n=8, m=3, k=2, channel_taps=2, mod_order=4,
                     subband_width=1, subband_starts=(0, 3, 6),
                     snr_db=(10.0,), trials=4, coded=True)
    with pytest.raises(ValueError, match="too small"):
        run_multiservice(tiny)


@pytest.mark.parametrize("run", [run_multiservice, run_link_validation])
def test_invalid_config_reports_every_violation_before_building(run):
    # n = 12 would otherwise first reach the prototype design
    with pytest.raises(ConfigError, match=r"(?s)n: 12 is not a power of two.*"
                                          r"m: 0 must be >= 1"):
        run(_ms_cfg(n=12, m=0))


@pytest.mark.parametrize("coded", [True, False])
def test_chunk_draws_are_dead_before_decoding(monkeypatch, coded):
    # the last trial block spends every symbol grid, tap and noise draw of
    # the chunk, so none of them may stay alive into the decoder or the
    # demapper; 24 trials run in blocks of 10, 10 and 4
    engine = _engine("sync3band", coded, 0.0)
    _window_trials(monkeypatch, engine, 10)
    drawn = []

    def recording(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            drawn.append(weakref.ref(out))
            return out
        return wrapped

    band_symbols = engine._band_symbols

    def recording_symbols(rng, batch):
        info, grids = band_symbols(rng, batch)
        drawn.extend(weakref.ref(g) for g in grids)
        return info, grids

    alive = []

    def checking(fn):
        def wrapped(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in drawn))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(engine, "_band_symbols", recording_symbols)
    monkeypatch.setattr(simulator, "complex_noise", recording(simulator.complex_noise))
    monkeypatch.setattr(simulator, "draw_taps", recording(simulator.draw_taps))
    monkeypatch.setattr(simulator, "viterbi_decode", checking(simulator.viterbi_decode))
    monkeypatch.setattr(simulator, "qam_demap", checking(simulator.qam_demap))
    engine.run_chunk(np.random.SeedSequence(8), 24, 0.1)
    # three grids, the taps, the FBMC noise, three dummy trains, the OFDM noise
    assert len(drawn) == 9
    assert alive == [0, 0, 0]            # one decode or demap per scheme


def test_allocator_policy_keeps_block_buffers_resident():
    # under glibc's adaptive thresholds the trial blocks' freed buffers went
    # back to the kernel and returned as page faults, ~14k per default chunk
    # (N = 64, 256 trials); under the campaign's policy a warm chunk takes
    # almost none
    results = simulator._keep_heap()
    if results is None:
        pytest.skip("the C library has no mallopt")
    assert results == (1, 1)
    cfg = RunConfig(snr_db=(10.0,))
    engine = simulator._MultiserviceEngine(cfg, make_context(cfg), ("nif", "if"))
    sigma2 = cfg.sigma2(10.0)
    engine.run_chunk(np.random.SeedSequence(1), 256, sigma2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    engine.run_chunk(np.random.SeedSequence(2), 256, sigma2)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000
