"""Equalizers, the filter-bank chain, and the CP-OFDM baseline."""

import math

import numpy as np
import pytest

from fbmcqam.channel import apply_taps, complex_noise, freq_response
from fbmcqam.core import design_prototype, qam_demap, qam_map
from fbmcqam.filterbank import (autocorr_bands, gram_stack, inverse_stack, kept_mask,
                                sparsify_inverse, tap_segments)
from fbmcqam.transceiver import (equalize, fbmc_demodulate, fbmc_transmit,
                                 make_equalizer, ofdm_demodulate, ofdm_modulate)

from helpers import reference_ofdm_modulate


def _chain(n, m, k):
    segs = tap_segments(design_prototype(k, n))
    inv = inverse_stack(gram_stack(autocorr_bands(segs), m))
    return segs, inv


def _qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# equalizers
# ---------------------------------------------------------------------------

def test_zf_equalizer():
    eq = make_equalizer(np.array([0.5, 2.0j]), "zf", sigma2=0.1, delta2=1.0)
    np.testing.assert_allclose(eq.coeffs, [2.0, -0.5j])
    np.testing.assert_allclose(eq.beta, [1.0, 1.0])


def test_zf_refuses_spectral_null():
    with pytest.raises(ValueError, match=r"C\[1\] = 0"):
        make_equalizer(np.array([1.0, 0.0, 2.0]), "zf", sigma2=0.1, delta2=1.0)


def test_mmse_equalizer():
    # unit channel at sigma^2/delta^2 = 1: E = 1/2, beta = 1/2
    eq = make_equalizer(np.array([1.0 + 0j]), "mmse", sigma2=1.0, delta2=1.0)
    assert eq.coeffs[0] == pytest.approx(0.5)
    assert eq.beta[0] == pytest.approx(0.5)
    # residual own-symbol error of the biased estimate: delta^2 (1 - beta)^2
    assert (1.0 - eq.beta[0]) ** 2 == pytest.approx(0.25)


def test_mmse_approaches_zf_at_high_snr():
    c = np.array([0.7 - 0.4j, 1.3j])
    eq = make_equalizer(c, "mmse", sigma2=1e-12, delta2=1.0)
    np.testing.assert_allclose(eq.coeffs, 1.0 / c, rtol=1e-9)
    np.testing.assert_allclose(eq.beta, [1.0, 1.0], atol=1e-9)


def test_unknown_equalizer_kind():
    with pytest.raises(ValueError):
        make_equalizer(np.ones(2), "dfe", sigma2=0.1, delta2=1.0)


# ---------------------------------------------------------------------------
# filter-bank chain
# ---------------------------------------------------------------------------

def test_inverse_receiver_is_exact_without_channel():
    rng = np.random.default_rng(20)
    n, m, k = 16, 6, 4
    segs, inv = _chain(n, m, k)
    S = qam_map(rng.integers(0, 2, size=4 * n * m), 16).reshape(n, m, 1)
    eq = make_equalizer(np.ones(n), "zf", sigma2=0.0, delta2=1.0)
    est = equalize(eq.coeffs[:, None], fbmc_demodulate(fbmc_transmit(S, segs), segs, inv))
    np.testing.assert_allclose(est, S, atol=1e-12)


def test_matched_only_receiver_leaks_without_inverse():
    rng = np.random.default_rng(21)
    n, m, k = 16, 6, 4
    segs, _ = _chain(n, m, k)
    S = qam_map(rng.integers(0, 2, size=4 * n * m), 16).reshape(n, m, 1)
    eq = make_equalizer(np.ones(n), "zf", sigma2=0.0, delta2=1.0)
    est = equalize(eq.coeffs[:, None], fbmc_demodulate(fbmc_transmit(S, segs), segs))
    err = np.mean(np.abs(est - S) ** 2)
    assert err > 1e-3            # own-filter interference remains


def test_chain_batches_like_a_loop():
    rng = np.random.default_rng(22)
    n, m, k = 8, 3, 3
    segs, inv = _chain(n, m, k)
    S = rng.normal(size=(n, m, 4)) + 1j * rng.normal(size=(n, m, 4))
    # a shared set of coefficients is one (N, 1) column
    shared = make_equalizer(np.ones(n), "zf", sigma2=0.0, delta2=1.0).coeffs[:, None]
    est = equalize(shared, fbmc_demodulate(fbmc_transmit(S, segs), segs, inv))
    for b in range(4):
        single = equalize(shared, fbmc_demodulate(fbmc_transmit(S[..., b:b + 1], segs),
                                                  segs, inv))
        np.testing.assert_allclose(est[..., b:b + 1], single, atol=1e-12)
    # per-trial (N, B) equalizers act on their own trial's symbols only
    coeffs = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    est = equalize(coeffs, fbmc_demodulate(fbmc_transmit(S, segs), segs, inv))
    for b in range(4):
        single = equalize(coeffs[:, b:b + 1],
                          fbmc_demodulate(fbmc_transmit(S[..., b:b + 1], segs), segs, inv))
        np.testing.assert_allclose(est[..., b:b + 1], single, atol=1e-12)


@pytest.mark.parametrize("mode, eta", [("nif", 0.0), ("if", 0.0), ("if", 0.5)])
def test_demodulation_is_linear(mode, eta):
    # demod(r + s w) = demod(r) + s demod(w): the link validator forms every
    # SNR point's full feed from one signal and one unit-noise demodulation
    rng = np.random.default_rng(25)
    n, m, k, batch = 32, 6, 4, 5
    segs, inv = _chain(n, m, k)
    inv = None if mode == "nif" else (
        sparsify_inverse(inv, kept_mask(n, eta)) if eta > 0 else inv)
    S = qam_map(rng.integers(0, 2, size=4 * n * m * batch), 16).reshape(n, m, batch)
    r = apply_taps(np.array([0.9, 0.3 - 0.2j, 0.1j]), fbmc_transmit(S, segs))
    w = complex_noise(rng, r.shape, 1.0)
    for s in (0.3, 1e-3):
        got = fbmc_demodulate(r + s * w, segs, inv)
        want = fbmc_demodulate(r, segs, inv) + s * fbmc_demodulate(w, segs, inv)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_transmit_rejects_wrong_grid_height():
    segs, _ = _chain(8, 3, 2)
    with pytest.raises(ValueError, match="subcarriers"):
        fbmc_transmit(np.zeros((4, 3), dtype=complex), segs)


def test_rectangular_filter_collapses_to_serial_idft():
    # overlap 1 makes the transmit window the plain concatenation of IDFTs,
    # which is exactly CP-free OFDM
    rng = np.random.default_rng(23)
    n, m = 16, 5
    segs = tap_segments(design_prototype(1, n))
    S = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    np.testing.assert_allclose(fbmc_transmit(S, segs), ofdm_modulate(S, 0),
                               atol=1e-12)


# ---------------------------------------------------------------------------
# CP-OFDM baseline
# ---------------------------------------------------------------------------

def test_ofdm_modulate_roundtrip():
    rng = np.random.default_rng(24)
    S = rng.normal(size=(16, 4)) + 1j * rng.normal(size=(16, 4))
    y = ofdm_modulate(S, 4)
    assert y.shape == (4 * 20,)
    np.testing.assert_allclose(ofdm_demodulate(y, 16, 4), S, atol=1e-12)
    with pytest.raises(ValueError):
        ofdm_demodulate(y[:-1], 16, 4)
    with pytest.raises(ValueError):
        ofdm_modulate(S, -1)


@pytest.mark.parametrize("shape, cp", [((64, 16, 32), 8), ((16, 5), 2),
                                       ((16, 5, 3), 0), ((8, 1, 1), 8)])
def test_ofdm_modulate_bit_equal_to_concatenated_prefix(shape, cp):
    rng = np.random.default_rng(cp + len(shape))
    S = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert ofdm_modulate(S, cp).tobytes() == reference_ofdm_modulate(S, cp).tobytes()


def test_cp_absorbs_multipath():
    # with cp >= L-1 every demodulated symbol is exactly C_n * S_n
    rng = np.random.default_rng(25)
    n, nsym = 32, 6
    h = rng.normal(size=4) + 1j * rng.normal(size=4)
    S = rng.normal(size=(n, nsym)) + 1j * rng.normal(size=(n, nsym))
    rx = ofdm_demodulate(apply_taps(h, ofdm_modulate(S, 4)), n, 4)
    eq = make_equalizer(freq_response(h, n), "zf", sigma2=0.0, delta2=1.0)
    est = eq.coeffs[:, None] * rx
    np.testing.assert_allclose(est, S, atol=1e-10)
    grid = ofdm_demodulate(
        np.convolve(ofdm_modulate(S, 4), h)[:nsym * (n + 4)], n, 4)
    np.testing.assert_allclose(grid, freq_response(h, n)[:, None] * S,
                               atol=1e-10)


def test_ofdm_qpsk_awgn_ber_matches_qfunction():
    # Eb/N0 = 4 dB, no prefix: BER = Q(sqrt(2 Eb/N0))
    rng = np.random.default_rng(26)
    ebn0 = 10.0 ** 0.4
    sigma2 = 1.0 / (2.0 * ebn0)
    n, nsym = 64, 3200
    bits = rng.integers(0, 2, size=2 * n * nsym)
    S = qam_map(bits, 4).reshape(n, nsym)
    tx = ofdm_modulate(S, 0)
    est = ofdm_demodulate(tx + complex_noise(np.random.default_rng(27), tx.shape,
                                             sigma2), n, 0)
    ber = np.mean(qam_demap(est.ravel(), 4) != bits)
    assert ber == pytest.approx(_qfunc(math.sqrt(2.0 * ebn0)), rel=0.1)
