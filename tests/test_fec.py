"""Convolutional encoder and Viterbi decoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmcqam.fec import CONSTRAINT_LENGTH, GENERATORS, conv_encode, viterbi_decode

from helpers import reference_conv_encode, reference_viterbi_decode, same_array


def test_code_parameters():
    assert CONSTRAINT_LENGTH == 7
    assert GENERATORS == (0o133, 0o171)


def test_all_zero_message():
    out = conv_encode(np.zeros(10, dtype=int))
    assert out.shape == (32,)          # 2 * (10 + 6) with termination
    assert not out.any()
    # an empty message still carries the six flush bits
    assert same_array(conv_encode([]), np.zeros(12, dtype=np.int64))


def test_impulse_response():
    # the two generator polynomials read off the interleaved streams
    out = conv_encode(np.array([1, 0, 0, 0, 0, 0, 0]))
    assert list(out[0::2][:7]) == [1, 0, 1, 1, 0, 1, 1]   # 133 octal
    assert list(out[1::2][:7]) == [1, 1, 1, 1, 0, 0, 1]   # 171 octal
    assert not out[14:].any()


def test_encoder_is_linear_over_gf2():
    rng = np.random.default_rng(40)
    a = rng.integers(0, 2, 60)
    b = rng.integers(0, 2, 60)
    np.testing.assert_array_equal(conv_encode(a ^ b),
                                  conv_encode(a) ^ conv_encode(b))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=256))
def test_noiseless_roundtrip(bits):
    msg = np.array(bits)
    decoded = viterbi_decode(1.0 - 2.0 * conv_encode(msg))
    np.testing.assert_array_equal(decoded, msg)


def test_corrects_every_single_flip():
    rng = np.random.default_rng(41)
    msg = rng.integers(0, 2, 50)
    coded = conv_encode(msg)
    flipped = coded[None, :] ^ np.eye(coded.size, dtype=int)
    decoded = viterbi_decode(1.0 - 2.0 * flipped)
    np.testing.assert_array_equal(decoded, np.broadcast_to(msg, decoded.shape))


def test_soft_metric_scale_invariant():
    rng = np.random.default_rng(42)
    msg = rng.integers(0, 2, (8, 120))
    llrs = (1.0 - 2.0 * conv_encode(msg)) + rng.normal(0, 0.8, (8, 252))
    np.testing.assert_array_equal(viterbi_decode(llrs),
                                  viterbi_decode(3.7 * llrs))


def test_awgn_soft_beats_hard():
    rng = np.random.default_rng(43)
    msg = rng.integers(0, 2, (40, 200))
    coded = conv_encode(msg)
    sigma2 = 0.42                      # raw channel BER around 6 percent
    y = (1.0 - 2.0 * coded) + rng.normal(0, np.sqrt(sigma2), coded.shape)
    soft_err = int((viterbi_decode(2.0 * y / sigma2) != msg).sum())
    hard_err = int((viterbi_decode(1.0 - 2.0 * (y < 0)) != msg).sum())
    flips = int(((y < 0).astype(int) != coded).sum())
    assert soft_err <= hard_err < flips
    assert soft_err < 0.005 * msg.size


def test_batch_matches_per_row_decode():
    rng = np.random.default_rng(44)
    msg = rng.integers(0, 2, (5, 37))
    llrs = (1.0 - 2.0 * conv_encode(msg)) + rng.normal(0, 0.5, (5, 86))
    batch = viterbi_decode(llrs)
    for i in range(5):
        np.testing.assert_array_equal(viterbi_decode(llrs[i]), batch[i])
    # a lone codeword is a batch of one
    assert same_array(viterbi_decode(llrs[0]), viterbi_decode(llrs[:1])[0])


def test_malformed_inputs():
    with pytest.raises(ValueError, match="0/1"):
        conv_encode(np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="malformed"):
        viterbi_decode(np.zeros(15))
    with pytest.raises(ValueError, match="malformed"):
        viterbi_decode(np.zeros(12))
    with pytest.raises(ValueError, match="coded length 0 malformed"):
        viterbi_decode([])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_soft_rejects_non_finite_llrs(bad):
    llrs = np.zeros((2, 16))
    llrs[1, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        viterbi_decode(llrs)
    with pytest.raises(ValueError, match="finite"):
        viterbi_decode(llrs[1])


def _noisy_llrs(rng, batch, length, sd=1.0):
    coded = conv_encode(rng.integers(0, 2, (batch, length)))
    return (1.0 - 2.0 * coded) + rng.normal(0, sd, coded.shape)


@pytest.mark.parametrize("batch", [1, 3, 256, 768])
def test_decoder_matches_reference(batch):
    llrs = _noisy_llrs(np.random.default_rng(45 + batch), batch, 448)
    np.testing.assert_array_equal(viterbi_decode(llrs),
                                  reference_viterbi_decode(llrs))


def test_decoder_matches_reference_on_one_codeword():
    llrs = _noisy_llrs(np.random.default_rng(46), 1, 90)[0]
    decoded = viterbi_decode(llrs)
    assert decoded.shape == (90,)
    np.testing.assert_array_equal(decoded, reference_viterbi_decode(llrs))


def test_decoder_matches_reference_on_ties():
    # integer LLRs, many of them zero, make equal path costs common
    rng = np.random.default_rng(47)
    llrs = np.round(2.0 * _noisy_llrs(rng, 64, 200, sd=1.5))
    assert np.count_nonzero(llrs == 0) > 0.05 * llrs.size
    np.testing.assert_array_equal(viterbi_decode(llrs),
                                  reference_viterbi_decode(llrs))
    # with no information every path ties, and the even predecessor (input
    # bit 0) survives each tie
    flat = np.zeros((3, 40))
    np.testing.assert_array_equal(viterbi_decode(flat), np.zeros((3, 14), dtype=int))
    np.testing.assert_array_equal(reference_viterbi_decode(flat), np.zeros((3, 14)))


def test_decoder_matches_reference_under_rounding():
    # LLRs of mixed magnitude around 2**53 make (m + lam0) + lam1 round
    # differently from (m + lam1) + lam0, so the addition order shows
    rng = np.random.default_rng(50)
    mags = np.array([1.0, 3.0, 2.0**52, 2.0**53 + 2])
    llrs = rng.choice([-1.0, 1.0], (64, 240)) * rng.choice(mags, (64, 240))
    np.testing.assert_array_equal(viterbi_decode(llrs),
                                  reference_viterbi_decode(llrs))


def test_decoder_matches_reference_in_hard_mode():
    rng = np.random.default_rng(48)
    bits = (_noisy_llrs(rng, 40, 120, sd=0.8) < 0).astype(int)
    np.testing.assert_array_equal(viterbi_decode(1.0 - 2.0 * bits),
                                  reference_viterbi_decode(bits, mode="hard"))


def test_decoder_matches_reference_at_minimum_length():
    rng = np.random.default_rng(49)
    llrs = _noisy_llrs(rng, 50, 1, sd=1.2)
    assert llrs.shape == (50, 14)
    np.testing.assert_array_equal(viterbi_decode(llrs),
                                  reference_viterbi_decode(llrs))
    np.testing.assert_array_equal(viterbi_decode(np.round(llrs)),
                                  reference_viterbi_decode(np.round(llrs)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_encoder_matches_reference(batch, length, seed):
    msg = np.random.default_rng(seed).integers(0, 2, (batch, length))
    coded = conv_encode(msg)
    assert coded.dtype == np.int64
    np.testing.assert_array_equal(coded, reference_conv_encode(msg))
    np.testing.assert_array_equal(conv_encode(msg[0]), reference_conv_encode(msg[0]))
    # a lone message is a batch of one
    assert same_array(conv_encode(msg[0]), conv_encode(msg[:1])[0])
