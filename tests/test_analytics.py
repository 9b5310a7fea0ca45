"""Closed-form error components, enhancement factors, and complexity counts.

The covariance forms are checked against dense matrix evaluations built in
helpers.py straight from the definitions.
"""

import tracemalloc

import numpy as np
import pytest

from fbmcqam.analytics import (_delay_tables, _diagonals, _propagate, averaged_breakdown,
                               channel_moments, complexity_report, displaced_covariances,
                               ensemble_taps, leakage_sums, zeta_factors)
from fbmcqam.channel import PowerDelayProfile, draw_taps, freq_response
from fbmcqam.config import RunConfig
from fbmcqam.core import design_prototype
from fbmcqam.filterbank import autocorr_bands, gram_stack, inverse_stack, tap_segments
from fbmcqam.simulator import make_context
from fbmcqam.transceiver import make_equalizer
from helpers import (dense_displacement, dense_filter_matrix, dense_leakage_table,
                     dense_tail, reference_averaged_breakdown, reference_band_power,
                     reference_delay_tables, reference_diagonals,
                     reference_displaced_covariances, reference_leakage_sums,
                     reference_propagate, stack_to_dense, unitary_dft)


def _setup(n, m, k):
    segs = tap_segments(design_prototype(k, n))
    bands = autocorr_bands(segs)
    gram = gram_stack(bands, m)
    return segs, bands, gram, inverse_stack(gram)


def _dense_block_diags(w, n, m, r=None):
    """Per-(m, n) diagonals of F W_mm F^H, optionally after propagating
    through a dense inverse r."""
    if r is not None:
        w = r @ w @ r.conj().T
    f = unitary_dft(n)
    out = np.zeros((m, n))
    for mm in range(m):
        blk = w[mm * n:(mm + 1) * n, mm * n:(mm + 1) * n]
        out[mm] = np.real(np.diag(f @ blk @ f.conj().T))
    return out


# ---------------------------------------------------------------------------
# interference tables
# ---------------------------------------------------------------------------

def test_transformed_band_is_circulant():
    # the DFT turns each per-subcarrier band into a circulant with profile
    # c_d = fft(g_d)/N
    rng = np.random.default_rng(30)
    n = 8
    g = rng.normal(size=n)
    f = unitary_dft(n)
    t = f @ np.diag(g) @ f.conj().T
    c = np.fft.fft(g) / n
    idx = np.arange(n)
    np.testing.assert_allclose(t, c[(idx[:, None] - idx[None, :]) % n],
                               atol=1e-12)


def _profiles(table):
    """A leakage table's per-receiver-symbol lag profiles (2, M, N): the
    diagonal and the off-diagonal row sums, as the breakdown reads them."""
    own = np.diagonal(table).T
    return np.stack([own, table.sum(axis=1) - own])


def test_tables_match_dense_leakage_sums():
    # each table is the squared unitary DFT of the dense transform-domain
    # blocks of T - I; the exact inverse cancels every entry, not nearly
    n, m, k = 16, 4, 4
    segs = tap_segments(design_prototype(k, n))
    for mode, eta in (("nif", 0.0), ("if", 0.0), ("if", 0.5), ("if", 1.0)):
        table = make_context(RunConfig(n=n, m=m, k=k, eta=eta)).receivers[mode].leakage
        want = dense_leakage_table(segs, m, mode, eta)
        assert table.shape == (m, m, n)
        np.testing.assert_allclose(table, want, rtol=0, atol=1e-13,
                                   err_msg=f"{mode} at eta {eta}")
        if mode == "if" and eta == 0.0:
            assert np.all(table == 0.0)
        else:
            assert np.max(want) > 1e-4
            # real per-sample errors: every profile is symmetric in the lag
            np.testing.assert_allclose(table[..., 1:], table[..., :0:-1], rtol=0,
                                       atol=1e-16)


def test_default_design_leakage_anchors():
    # through leakage_sums with a flat weight each profile sums over lags:
    # the same-symbol total and the middle symbol's cross-symbol total; the
    # first symbol has neighbours on one side only
    cfg = RunConfig()
    ici, isi = leakage_sums(_profiles(make_context(cfg).receivers["nif"].leakage),
                            np.ones((cfg.n, cfg.n)))
    np.testing.assert_allclose(ici, 0.06414326779774537, rtol=0, atol=1e-12)
    np.testing.assert_allclose(isi[7], 0.06403449756338259, rtol=0, atol=1e-12)
    np.testing.assert_allclose(isi[0], isi[7] / 2, atol=1e-15)


def test_rectangular_filter_has_no_leakage():
    segs, bands, gram, inv = _setup(16, 4, 1)
    for eta in (0.0, 0.5):
        receivers = make_context(RunConfig(n=16, m=4, k=1, eta=eta)).receivers
        assert all(np.all(rx.leakage == 0.0) for rx in receivers.values())
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(4), (16, 4, 4)),
                               atol=1e-12)
    np.testing.assert_allclose(zeta_factors(inv, gram), 1.0, atol=1e-12)


def test_leakage_sums_match_explicit_sums():
    # random profiles, not symmetric in the lag, pin the lag's direction
    n, m = 8, 5
    rng = np.random.default_rng(33)
    profiles = rng.uniform(0.0, 1.0, size=(2, m, n))
    w = rng.uniform(0.5, 2.0, size=(2, n))
    lag = (np.arange(n)[:, None] - np.arange(n)) % n        # (n, q)
    # a general cross moment, one draw's outer product, and a weight
    # broadcast over rows (the link validator's form)
    for x in (rng.uniform(0.5, 2.0, size=(n, n)), np.outer(w[0], w[1]),
              np.broadcast_to(w[0], (n, n))):
        got = leakage_sums(profiles, x)
        assert got.shape == (2, m, n)
        for nu in range(n):
            want = np.sum(profiles[..., lag[nu]] * x[nu], axis=-1)
            np.testing.assert_allclose(got[..., nu], want, rtol=1e-12)
    # a flat weight collapses each profile onto its total over lags
    np.testing.assert_allclose(leakage_sums(profiles, np.ones((n, n))),
                               np.repeat(profiles.sum(axis=-1)[..., None], n, axis=-1),
                               rtol=1e-12)


def test_leakage_sums_match_fft_reference():
    # the cross-moment product against the per-draw FFT circular
    # convolutions it replaced, averaged over the same draws
    n, m, k = 16, 4, 4
    _, bands, _, _ = _setup(n, m, k)
    power = reference_band_power(bands)
    rng = np.random.default_rng(38)
    absc2, abse2 = rng.uniform(0.1, 3.0, size=(2, 50, n))
    got = leakage_sums(power, abse2.T @ absc2 / 50)
    ref = (abse2 * reference_leakage_sums(power, absc2)).mean(axis=1)
    np.testing.assert_allclose(got, ref, rtol=1e-12)


# ---------------------------------------------------------------------------
# noise enhancement
# ---------------------------------------------------------------------------

def test_zeta_anchor_and_shape():
    _, _, gram, inv = _setup(64, 14, 5)
    z = zeta_factors(inv, gram)
    assert z.shape == (14,)
    assert float(z.mean()) == pytest.approx(1.446172679001, abs=1e-9)
    np.testing.assert_allclose(z, z[::-1], atol=1e-12)      # symmetric in m
    assert np.argmax(z) in (6, 7)                           # largest mid-block
    assert np.all((z > 1.0) & (z < 1.6))


def test_zeta_grid_constant_across_subcarriers():
    # the per-(m, n) transform-domain diagonals of R G R^H do not depend on
    # n, so the breakdowns broadcast the (M,) zeta over subcarriers
    n, m, k = 32, 6, 4
    _, _, gram, inv = _setup(n, m, k)
    rd = stack_to_dense(inv)
    grid = _dense_block_diags(rd @ stack_to_dense(gram) @ rd.T, n, m)
    assert grid.shape == (m, n)
    assert np.max(np.abs(grid - grid[:, :1])) < 1e-12
    np.testing.assert_allclose(zeta_factors(inv, gram), grid[:, 0], atol=1e-12)


def test_zeta_is_transformed_diagonal():
    # zeta_m equals the (m, m) transform-domain diagonal of R G R^H
    n, m, k = 8, 3, 3
    _, _, gram, inv = _setup(n, m, k)
    rd = stack_to_dense(inv)
    gd = stack_to_dense(gram)
    w = rd @ gd @ rd.T
    np.testing.assert_allclose(np.broadcast_to(zeta_factors(inv, gram)[:, None], (m, n)),
                               _dense_block_diags(w, n, m), atol=1e-12)


# ---------------------------------------------------------------------------
# displaced covariances
# ---------------------------------------------------------------------------

def _dense_covariances(segs, m, taps=None, weights=None, r=None):
    n = segs.shape[1]
    p = dense_filter_matrix(segs, m)
    if taps is not None:
        zero = np.zeros_like(p, dtype=complex)
        b_fd = sum((taps[l] * dense_displacement(p, n, l)
                    for l in range(1, len(taps))), zero)
        b_ibi = sum((taps[l] * dense_tail(p, l) for l in range(1, len(taps))),
                    zero)
        w_fd = (p.T @ b_fd) @ (p.T @ b_fd).conj().T
        w_ibi = (p.T @ b_ibi) @ (p.T @ b_ibi).conj().T
    else:
        zero = np.zeros((m * n, m * n))
        w_fd = sum((weights[l] * (p.T @ dense_displacement(p, n, l))
                    @ (p.T @ dense_displacement(p, n, l)).T
                    for l in range(1, len(weights))), zero)
        w_ibi = sum((weights[l] * (p.T @ dense_tail(p, l))
                     @ (p.T @ dense_tail(p, l)).T
                     for l in range(1, len(weights))), zero)
    return (_dense_block_diags(w_fd, n, m, r), _dense_block_diags(w_ibi, n, m, r))


def test_conditional_covariances_match_dense():
    n, m, k = 8, 3, 3
    segs, _, _, inv = _setup(n, m, k)
    h = draw_taps(PowerDelayProfile.exponential(3, 15.0),
                  np.random.default_rng(31))
    cov = displaced_covariances(segs, m, taps=h, inv=inv)
    rd = stack_to_dense(inv)
    fd, ibi = _dense_covariances(segs, m, taps=h)
    fd_exact, ibi_exact = _dense_covariances(segs, m, taps=h, r=rd)
    np.testing.assert_allclose(cov.fd, fd, atol=1e-12)
    np.testing.assert_allclose(cov.ibi, ibi, atol=1e-12)
    np.testing.assert_allclose(cov.fd_exact, fd_exact, atol=1e-12)
    np.testing.assert_allclose(cov.ibi_exact, ibi_exact, atol=1e-12)


def test_averaged_covariances_match_dense():
    n, m, k = 8, 4, 2
    segs, _, _, inv = _setup(n, m, k)
    pdp = PowerDelayProfile.exponential(4, 10.0)
    cov = displaced_covariances(segs, m, weights=pdp.powers, inv=inv)
    fd, ibi = _dense_covariances(segs, m, weights=pdp.powers)
    np.testing.assert_allclose(cov.fd, fd, atol=1e-12)
    np.testing.assert_allclose(cov.ibi, ibi, atol=1e-12)
    fd_exact, ibi_exact = _dense_covariances(segs, m, weights=pdp.powers,
                                             r=stack_to_dense(inv))
    np.testing.assert_allclose(cov.fd_exact, fd_exact, atol=1e-12)
    np.testing.assert_allclose(cov.ibi_exact, ibi_exact, atol=1e-12)


_ORACLE_CASES = [(4, 1, 3, 2), (8, 2, 1, 4), (8, 3, 4, 4), (16, 2, 5, 8),
                 (8, 5, 2, 3), (16, 3, 3, 1), (4, 4, 8, 2), (4, 2, 2, 5)]


@pytest.mark.parametrize("spec", ["taps", "weights"])
@pytest.mark.parametrize("n,m,k,n_taps", _ORACLE_CASES)
def test_covariances_match_dense_oracle(n, m, k, n_taps, spec):
    # random tap segments and inverse stack: no symmetry of a designed
    # prototype can hide an index error; (4, 2, 2, 5) reaches a delay of N
    rng = np.random.default_rng(n * 1000 + m * 100 + k * 10 + n_taps)
    segs = rng.normal(size=(k, n))
    inv = rng.normal(size=(n, m, m))
    if spec == "taps":
        chan = {"taps": rng.normal(size=n_taps) + 1j * rng.normal(size=n_taps)}
    else:
        chan = {"weights": rng.random(n_taps)}
    cov = displaced_covariances(segs, m, inv=inv, **chan)
    fd, ibi = _dense_covariances(segs, m, **chan)
    fd_exact, ibi_exact = _dense_covariances(segs, m, r=stack_to_dense(inv), **chan)
    np.testing.assert_allclose(cov.fd, fd, atol=1e-12)
    np.testing.assert_allclose(cov.ibi, ibi, atol=1e-12)
    np.testing.assert_allclose(cov.fd_exact, fd_exact, atol=1e-12)
    np.testing.assert_allclose(cov.ibi_exact, ibi_exact, atol=1e-12)
    if spec == "weights":
        # diagonal tap moments leave no cross-delay phase: every component
        # is exactly the same on every subcarrier
        for name in ("fd", "ibi", "fd_exact", "ibi_exact"):
            grid = getattr(cov, name)
            assert grid.shape == (m, n)
            assert np.array_equal(grid, np.repeat(grid[:, :1], n, axis=1)), name


@pytest.mark.parametrize("n,m,k,n_taps",
                         _ORACLE_CASES + [(8, 1, 2, 9), (16, 14, 5, 17)])
def test_delay_tables_equal_blockwise_reference(n, m, k, n_taps):
    # one K-term sum per block offset, gathered into the blocks, must give
    # the block-by-block tables bit for bit: mse.csv is byte-identical only
    # if they are
    segs = np.random.default_rng(7 * n + m + k + n_taps).normal(size=(k, n))
    fd, tail = _delay_tables(segs, m, n_taps)
    ref_fd, ref_tail = reference_delay_tables(segs, m, n_taps)
    assert np.array_equal(fd, ref_fd)
    assert np.array_equal(tail, ref_tail)


@pytest.mark.parametrize("n,m,k,n_taps",
                         _ORACLE_CASES + [(8, 1, 2, 9), (16, 14, 5, 17)])
def test_diagonals_equal_roll_reference(n, m, k, n_taps):
    # the shifted tables are a pure data move, so the diagonals keep every
    # bit of the roll-based form, on plain and on propagated tables
    rng = np.random.default_rng(11 * n + m + k + n_taps)
    segs = rng.normal(size=(k, n))
    inv = rng.normal(size=(n, m, m))
    taps = rng.normal(size=(n_taps, 2)) @ [1, 1j]
    fd, tail = _delay_tables(segs, m, n_taps)
    for moments in (np.outer(taps, np.conj(taps)), np.diag(rng.random(n_taps))):
        for d in (fd, tail, _propagate(inv, fd), _propagate(inv, tail)):
            assert np.array_equal(_diagonals(d, moments),
                                  reference_diagonals(d, moments))


@pytest.mark.parametrize("n,m,k,n_taps", _ORACLE_CASES)
def test_propagation_matches_einsum_reference(n, m, k, n_taps):
    rng = np.random.default_rng(13 * n + m + k + n_taps)
    inv = rng.normal(size=(n, m, m))
    fd, tail = _delay_tables(rng.normal(size=(k, n)), m, n_taps)
    for d in (fd, tail):
        np.testing.assert_allclose(_propagate(inv, d), reference_propagate(inv, d),
                                   rtol=1e-12, atol=1e-15 * np.abs(d).max())


def test_diagonals_depend_on_values_not_layout():
    # the inverse-filter tables come out of a transposed matmul, so their
    # layout is numpy's choice; equal values must give equal bits whatever
    # the strides
    n, m, k, n_taps = 16, 6, 4, 5
    segs, _, _, inv = _setup(n, m, k)
    fd, tail = _delay_tables(segs, m, n_taps)
    taps = np.random.default_rng(34).normal(size=(n_taps, 2)) @ [1, 1j]
    moments = np.outer(taps, np.conj(taps))
    for d in (fd, tail):
        table = _propagate(inv, d)
        c_order = np.ascontiguousarray(table)
        wide = np.zeros(table.shape + (2,))
        wide[..., 1] = table
        for other in (table, np.asfortranarray(table), wide[..., 1]):
            assert np.array_equal(other, c_order)
            assert np.array_equal(_diagonals(other, moments),
                                  _diagonals(c_order, moments))
        assert not wide[..., 1].flags.c_contiguous


@pytest.mark.parametrize("with_inv,parent_peak", [(False, 2.78e6), (True, 3.60e6)])
def test_ensemble_covariances_stay_small_in_memory(with_inv, parent_peak):
    # the ensemble route sums per-delay squares and per-sample Grams
    # without the (L, M, M, N) delay tables; at the defaults its peak
    # allocation is at most half of what building those tables took
    cfg = RunConfig()
    ctx = make_context(cfg)
    weights = PowerDelayProfile.exponential(cfg.channel_taps, cfg.pdp_decay_db).powers
    inv = ctx.receivers["if"].inv if with_inv else None
    displaced_covariances(ctx.segs, cfg.m, weights=weights, inv=inv)
    tracemalloc.start()
    try:
        displaced_covariances(ctx.segs, cfg.m, weights=weights, inv=inv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= parent_peak / 2


def test_covariances_reject_channels_longer_than_a_segment():
    # delays beyond N samples reach two segments back, outside the tables
    segs, _, _, _ = _setup(4, 2, 2)
    with pytest.raises(ValueError, match="exceeds N"):
        displaced_covariances(segs, 2, taps=np.ones(6))
    with pytest.raises(ValueError, match="exceeds N"):
        displaced_covariances(segs, 2, weights=np.ones(7))
    displaced_covariances(segs, 2, taps=np.ones(5))


def test_averaged_covariance_is_expectation_of_conditional():
    # cross-tap terms cancel in expectation; check by direct Monte Carlo
    n, m, k = 8, 2, 2
    segs, _, _, _ = _setup(n, m, k)
    pdp = PowerDelayProfile.exponential(3, 10.0)
    rng = np.random.default_rng(32)
    draws = [displaced_covariances(segs, m, taps=draw_taps(pdp, rng)).fd
             for _ in range(4000)]
    avg = displaced_covariances(segs, m, weights=pdp.powers).fd
    err = np.mean(draws, axis=0) - avg
    assert np.max(np.abs(err)) < 0.05 * np.max(avg)


def test_covariances_require_exactly_one_channel_spec():
    segs, _, _, _ = _setup(8, 2, 2)
    with pytest.raises(ValueError):
        displaced_covariances(segs, 2)
    with pytest.raises(ValueError):
        displaced_covariances(segs, 2, weights=np.ones(2), taps=np.ones(2))


def test_single_tap_channel_has_no_dispersion():
    segs, _, _, _ = _setup(8, 3, 3)
    cov = displaced_covariances(segs, 3, taps=np.array([0.7 - 0.2j]))
    assert np.all(cov.fd == 0.0)
    assert np.all(cov.ibi == 0.0)


# ---------------------------------------------------------------------------
# breakdowns
# ---------------------------------------------------------------------------

def _system(**kw):
    return RunConfig(**{"n": 64, "m": 14, "k": 5, **kw})


def _moments(cfg, c, sigma2):
    """The channel moments of a (D, N) response stack under ``cfg``'s
    equalizer at noise variance ``sigma2``."""
    eq = make_equalizer(c, cfg.equalizer, sigma2, cfg.symbol_power)
    return channel_moments(eq, c, cfg.symbol_power)


def _conditional(cfg, taps, sigma2):
    """One realization's breakdown for ``cfg.receiver_mode``, with the
    displaced covariances of those taps."""
    ctx = make_context(cfg)
    rx = ctx.receivers[cfg.receiver_mode]
    cov = displaced_covariances(ctx.segs, cfg.m, taps=taps, inv=rx.inv)
    moments = _moments(cfg, freq_response(taps[None, :], cfg.n), sigma2)
    return averaged_breakdown(cfg, rx, moments, sigma2, cov)


def test_flat_channel_matches_published_forms():
    # single-tap channel: the conditional ICI/ISI collapse to the
    # |E|^2 |C|^2 alpha forms, with the leakage totals of
    # test_default_design_leakage_anchors, and dispersion vanishes
    sys_cfg = _system(receiver_mode="nif")
    h = np.array([0.8 + 0.3j])
    sigma2 = 0.05
    bd = _conditional(sys_cfg, h, sigma2)
    c2 = abs(h[0]) ** 2
    eq = make_equalizer(freq_response(h, 64), "mmse", sigma2, 1.0)
    e2 = np.abs(eq.coeffs) ** 2
    np.testing.assert_allclose(
        bd.ici, np.broadcast_to(e2 * c2 * 0.06414326779774537, (14, 64)),
        rtol=1e-10)
    np.testing.assert_allclose(bd.isi[7], e2 * c2 * 0.06403449756338259,
                               rtol=1e-10)
    np.testing.assert_allclose(bd.isi[0], bd.isi[7] / 2, rtol=1e-10)
    assert np.all(bd.fd == 0.0) and np.all(bd.ibi == 0.0)
    np.testing.assert_allclose(bd.noise, np.broadcast_to(sigma2 * e2, (14, 64)),
                               rtol=1e-12)
    np.testing.assert_allclose(bd.resd[0], (1.0 - eq.beta) ** 2, rtol=1e-12)


def test_breakdown_totals_and_accessor():
    sys_cfg = _system(receiver_mode="nif")
    h = draw_taps(PowerDelayProfile.exponential(8, 20.0),
                  np.random.default_rng(33))
    bd = _conditional(sys_cfg, h, 0.01)
    np.testing.assert_allclose(
        bd.total, bd.resd + bd.ici + bd.isi + bd.fd + bd.ibi + bd.noise,
        atol=1e-15)
    np.testing.assert_allclose(bd.sinr, 1.0 / bd.total, rtol=1e-12)
    assert bd.component("fd") is bd.fd
    with pytest.raises(KeyError):
        bd.component("phase_noise")


def test_if_mode_cancels_self_interference():
    sys_cfg = _system(receiver_mode="if")
    h = draw_taps(PowerDelayProfile.exponential(8, 20.0),
                  np.random.default_rng(34))
    bd = _conditional(sys_cfg, h, 0.01)
    assert np.all(bd.ici == 0.0) and np.all(bd.isi == 0.0)
    # noise enhancement by zeta, constant per symbol row
    nif = _conditional(_system(receiver_mode="nif"), h, 0.01)
    ctx = make_context(sys_cfg)
    np.testing.assert_allclose(bd.noise, zeta_factors(ctx.receivers["if"].inv,
                                                      ctx.gram)[:, None]
                               * nif.noise, rtol=1e-12)
    # the zeta-scaled dispersion form understates the exact propagated one
    assert bd.component("fd_exact").mean() > bd.fd.mean()


def test_nif_exact_fields_are_its_own_fd_and_ibi():
    # the matched filter's R = I propagates nothing, and its zeta of 1
    # scales nothing, so nif's exact fields are its fd and ibi bit for bit
    h = draw_taps(PowerDelayProfile.exponential(8, 20.0),
                  np.random.default_rng(34))
    bd = _conditional(_system(receiver_mode="nif"), h, 0.01)
    assert np.array_equal(bd.fd_exact, bd.fd) and np.array_equal(bd.ibi_exact, bd.ibi)
    assert bd.component("fd_exact") is bd.fd_exact
    assert np.any(bd.fd > 0) and np.any(bd.ibi > 0)


def test_zf_has_no_bias_error():
    sys_cfg = _system(receiver_mode="nif", equalizer="zf")
    h = draw_taps(PowerDelayProfile.exponential(8, 20.0),
                  np.random.default_rng(35))
    bd = _conditional(sys_cfg, h, 0.01)
    assert np.all(bd.resd == 0.0)


def test_symbol_power_scales_signal_terms():
    h = draw_taps(PowerDelayProfile.exponential(4, 20.0),
                  np.random.default_rng(36))
    a = _conditional(_system(n=32, k=4, receiver_mode="nif"), h, 1e-3)
    b = _conditional(_system(n=32, k=4, receiver_mode="nif", symbol_power=4.0),
                     h, 4e-3)
    # equal SNR: every term scales by delta^2, SINR is invariant
    np.testing.assert_allclose(b.total, 4.0 * a.total, rtol=1e-9)
    np.testing.assert_allclose(b.sinr, a.sinr, rtol=1e-9)


def test_averaged_breakdown_deterministic():
    cfg = _system()
    ctx = make_context(cfg)
    rx = ctx.receivers["if"]
    pdp = PowerDelayProfile.exponential(8, 20.0)
    cov = displaced_covariances(ctx.segs, cfg.m, weights=pdp.powers, inv=rx.inv)

    def averaged(seed):
        c = freq_response(ensemble_taps(pdp, 20, seed), cfg.n)
        return averaged_breakdown(cfg, rx, _moments(cfg, c, 0.01), 0.01, cov)

    a = averaged(3)
    b = averaged(3)
    c = averaged(4)
    np.testing.assert_array_equal(a.total, b.total)
    assert np.any(a.total != c.total)
    assert np.all(a.total > 0) and np.all(np.isfinite(a.sinr))


@pytest.mark.parametrize("equalizer", ["zf", "mmse"])
def test_channel_moments_are_means_over_draws(equalizer):
    # each moment is the mean of its one-draw value over the stack
    cfg = RunConfig(n=16, m=4, k=2, equalizer=equalizer, symbol_power=2.0)
    pdp = PowerDelayProfile.exponential(4, 10.0)
    c = freq_response(ensemble_taps(pdp, 30, seed=8), cfg.n)
    sigma2 = 0.05
    got = _moments(cfg, c, sigma2)
    assert got.resd.shape == got.abse2.shape == (16,) and got.cross.shape == (16, 16)
    e2 = []
    for row in c:
        eq = make_equalizer(row, equalizer, sigma2, cfg.symbol_power)
        e2.append(np.abs(eq.coeffs) ** 2)
        one = _moments(cfg, row[None, :], sigma2)
        np.testing.assert_allclose(one.resd, 2.0 * (1.0 - eq.beta) ** 2, rtol=1e-12)
        np.testing.assert_allclose(one.cross, np.outer(e2[-1], np.abs(row) ** 2),
                                   rtol=1e-12)
    e2 = np.array(e2)
    np.testing.assert_allclose(got.abse2, e2.mean(axis=0), rtol=1e-12)
    # bit for bit the stack arithmetic the breakdown had before the moments
    # were formed once per SNR point
    eq = make_equalizer(c, equalizer, sigma2, cfg.symbol_power)
    abse2 = np.abs(eq.coeffs) ** 2
    assert got.resd.tobytes() == (2.0 * ((1.0 - eq.beta) ** 2).mean(axis=0)).tobytes()
    assert got.abse2.tobytes() == abse2.mean(axis=0).tobytes()
    assert got.cross.tobytes() == (abse2.T @ np.abs(c) ** 2 / len(c)).tobytes()
    np.testing.assert_allclose(
        got.cross, np.mean([np.outer(e, np.abs(row) ** 2) for e, row in zip(e2, c)],
                           axis=0), rtol=1e-12)
    if equalizer == "zf":
        assert np.all(got.resd == 0.0)


_BREAKDOWN_NAMES = ("resd", "ici", "isi", "fd", "ibi", "noise", "total", "sinr",
                    "fd_exact", "ibi_exact")


@pytest.mark.parametrize("settings", [
    {},
    {"n": 16, "m": 4, "k": 2},
    {"equalizer": "zf"},
    {"eta": 0.5},
], ids=["default", "n16-m4-k2", "zf", "eta0.5"])
@pytest.mark.parametrize("spec", ["weights", "taps"])
def test_breakdowns_match_reference_arithmetic(settings, spec):
    # the cross-moment leakage, batched propagation and sliced shifts move
    # no component by more than 1e-12 relative from the per-draw FFT,
    # einsum and roll forms; weights= is analyze's ensemble path, taps= the
    # conditional path of one realization
    cfg = RunConfig(**settings)
    ctx = make_context(cfg)
    pdp = PowerDelayProfile.exponential(cfg.channel_taps, cfg.pdp_decay_db)
    if spec == "weights":
        taps = ensemble_taps(pdp, cfg.theory_draws, cfg.seed)
        chan = {"weights": pdp.powers}
    else:
        taps = draw_taps(pdp, np.random.default_rng(39))
        chan = {"taps": taps}
    covs = {}
    for mode, rx in ctx.receivers.items():
        cov = displaced_covariances(ctx.segs, cfg.m, inv=rx.inv, **chan)
        ref_cov = reference_displaced_covariances(ctx.segs, cfg.m, inv=rx.inv, **chan)
        for name in ("fd", "ibi", "fd_exact", "ibi_exact"):
            np.testing.assert_allclose(getattr(cov, name), getattr(ref_cov, name),
                                       rtol=1e-12, atol=0, err_msg=f"{mode} {name}")
        covs[mode] = cov, ref_cov
    for snr_db in (0.0, 30.0):
        sigma2 = cfg.symbol_power / 10.0 ** (snr_db / 10.0)
        moments = _moments(cfg, freq_response(np.atleast_2d(taps), cfg.n), sigma2)
        for mode, (cov, ref_cov) in covs.items():
            bd = averaged_breakdown(cfg, ctx.receivers[mode], moments, sigma2, cov)
            ref = reference_averaged_breakdown(cfg, ctx, mode, taps, sigma2, ref_cov)
            for name in _BREAKDOWN_NAMES:
                np.testing.assert_allclose(bd.component(name), ref.component(name),
                                           rtol=1e-12, atol=0,
                                           err_msg=f"{mode} {name} at {snr_db} dB")


# ---------------------------------------------------------------------------
# complexity
# ---------------------------------------------------------------------------

def test_complexity_anchors():
    r = complexity_report(64, 14, 5, eta=0.0)
    assert (r.c_tx, r.c_rx_nif, r.c_r, r.c_rx_if) == (836, 1092, 1792, 2884)
    assert r.mask_count == r.c_r
    assert r.filter_per_block == 2 * 14 * 64 * 5
    assert r.big_o == "O(N log N)"
    r1 = complexity_report(64, 14, 5, eta=1.0)
    assert (r1.c_r, r1.c_rx_if) == (960, 2052)
    assert r1.mask_count == r1.c_r
    assert r1.c_tx == r.c_tx and r1.c_rx_nif == r.c_rx_nif


def test_complexity_fractional_eta_documents_rounding():
    # the published count interpolates linearly; the mask is quantized by
    # ceil, so the two may differ between the exact endpoints
    r = complexity_report(64, 14, 5, eta=0.3)
    assert r.c_r == 1542
    assert r.mask_count == 1532


def test_complexity_rows_schema():
    rows = complexity_report(16, 4, 2, 0.0).rows()
    assert [name for name, _ in rows] == [
        "c_tx", "c_rx_nif", "c_r", "c_rx_if", "mask_count", "filter_per_block"]
    assert all(isinstance(v, int) for _, v in rows)
