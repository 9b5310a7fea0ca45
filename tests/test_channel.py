"""Multipath profile, tap draws, convolution, and block-tail leakage."""

import numpy as np
import pytest

from fbmcqam.channel import (PowerDelayProfile, apply_taps, complex_noise,
                             draw_taps, freq_response, overlap_tail)
from fbmcqam.core import design_prototype
from fbmcqam.filterbank import (apply_adjoint, apply_filter, apply_inverse,
                                autocorr_bands, gram_stack, inverse_stack,
                                tap_segments)

from helpers import column_invariant, dense_tap_matrix, same_array


def test_exponential_profile():
    pdp = PowerDelayProfile.exponential(8, 20.0)
    p = pdp.powers
    assert p.sum() == pytest.approx(1.0)
    assert np.all(np.diff(p) < 0)
    assert p[-1] / p[0] == pytest.approx(10.0 ** -2.0)
    # constant ratio between neighbors
    np.testing.assert_allclose(p[1:] / p[:-1], p[1] / p[0], atol=1e-12)


def test_single_tap_profile():
    assert PowerDelayProfile.exponential(1, 20.0).powers.tolist() == [1.0]
    assert PowerDelayProfile.exponential(4, 0.0).n_taps == 4


def test_profile_validation():
    with pytest.raises(ValueError):
        PowerDelayProfile(np.array([0.5, 0.4]))     # does not sum to one
    with pytest.raises(ValueError):
        PowerDelayProfile(np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        PowerDelayProfile.exponential(0)


def test_profile_from_file(tmp_path):
    path = tmp_path / "pdp.csv"
    path.write_text("l,rho2\n0,4.0\n1,2.0\n# comment\n2,2.0\n")
    pdp = PowerDelayProfile.from_file(path)
    np.testing.assert_allclose(pdp.powers, [0.5, 0.25, 0.25])

    strict = tmp_path / "strict.csv"
    strict.write_text("0,0.5\n1,0.5\n")
    np.testing.assert_array_equal(PowerDelayProfile.from_file(strict).powers, [0.5, 0.5])


def test_profile_file_errors(tmp_path):
    gap = tmp_path / "gap.csv"
    gap.write_text("0,0.5\n2,0.5\n")
    with pytest.raises(ValueError, match="contiguous"):
        PowerDelayProfile.from_file(gap)
    dup = tmp_path / "dup.csv"
    dup.write_text("0,0.5\n0,0.5\n")
    with pytest.raises(ValueError, match="duplicate"):
        PowerDelayProfile.from_file(dup)
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0.5,junk\n")
    with pytest.raises(ValueError, match="expected"):
        PowerDelayProfile.from_file(bad)
    silent = tmp_path / "silent.csv"
    silent.write_text("0,0\n1,0\n")
    with pytest.raises(ValueError, match="positive"):
        PowerDelayProfile.from_file(silent)


def test_draw_taps_statistics():
    pdp = PowerDelayProfile.exponential(4, 12.0)
    h = draw_taps(pdp, np.random.default_rng(5), size=(50_000,))
    assert h.shape == (50_000, 4)
    np.testing.assert_allclose(np.mean(np.abs(h) ** 2, axis=0), pdp.powers,
                               rtol=0.03)
    assert abs(np.mean(h)) < 0.01


def test_apply_taps_matches_convolution():
    rng = np.random.default_rng(6)
    h = rng.normal(size=3) + 1j * rng.normal(size=3)
    x = rng.normal(size=20) + 1j * rng.normal(size=20)
    np.testing.assert_allclose(apply_taps(h, x), np.convolve(x, h)[:20],
                               atol=1e-12)


def test_apply_taps_per_column():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    x = rng.normal(size=(15, 4)) + 1j * rng.normal(size=(15, 4))
    y = apply_taps(h, x)
    for b in range(4):
        np.testing.assert_allclose(y[:, b], apply_taps(h[b], x[:, b]), atol=1e-12)


def test_freq_response_is_tap_dft():
    h = np.array([1.0, 0.5j])
    n = 8
    expect = np.array([np.sum(h * np.exp(-2j * np.pi * nn * np.arange(2) / n))
                       for nn in range(n)])
    np.testing.assert_allclose(freq_response(h, n), expect, atol=1e-12)


def test_overlap_tail_matches_full_convolution():
    # the tail is exactly what a full convolution emits past the block end
    rng = np.random.default_rng(8)
    h = rng.normal(size=5) + 1j * rng.normal(size=5)
    prev = rng.normal(size=30) + 1j * rng.normal(size=30)
    full = np.convolve(prev, h)
    tail = overlap_tail(h, prev, 12)
    np.testing.assert_allclose(tail[:4], full[30:34], atol=1e-12)
    assert np.all(tail[4:] == 0)


def test_overlap_tail_shorter_window():
    h = np.arange(1.0, 5.0)
    prev = np.ones(10)
    t2 = overlap_tail(h, prev, 2)
    np.testing.assert_allclose(t2, overlap_tail(h, prev, 8)[:2], atol=1e-12)


def test_complex_noise_moments():
    rng = np.random.default_rng(9)
    z = complex_noise(rng, (200_000,), 0.3)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(0.3, rel=0.02)
    assert abs(np.mean(z**2)) < 0.005          # circular symmetry
    assert complex_noise(rng, (4,), 0.0).tolist() == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        complex_noise(rng, (4,), -1.0)


@pytest.mark.parametrize("shape", [(257,), (33, 7)])
def test_complex_noise_matches_two_draw_expression(shape):
    # same draws in the same order as scale * (real + 1j * imag), bit for bit
    sigma2 = 0.37
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    z = complex_noise(rng, shape, sigma2)
    scale = np.sqrt(sigma2 / 2.0)
    ref = scale * (ref_rng.standard_normal(shape) + 1j * ref_rng.standard_normal(shape))
    assert z.shape == ref.shape and z.dtype == ref.dtype
    assert z.tobytes() == ref.tobytes()
    assert rng.standard_normal() == ref_rng.standard_normal()


def _cplx(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("t, cols, per_column, taps", [
    pytest.param(1000, 256, True, 8, id="1000-256-True"),
    pytest.param(1000, 256, False, 8, id="1000-256-False"),
    # window shorter than the channel memory
    pytest.param(5, 3, True, 8, id="5-3-True"),
    # a single (T,) stream
    pytest.param(777, None, False, 8, id="777-None-False"),
    # one column
    pytest.param(300, 1, True, 8, id="300-1-True"),
    # a flat channel
    pytest.param(40, 6, True, 1, id="40-6-True-L1"),
    pytest.param(40, 6, False, 1, id="40-6-False-L1"),
])
@pytest.mark.parametrize("real_input", [False, True])
def test_apply_taps_bit_equal_to_whole_window_loop(t, cols, per_column, taps, real_input):
    # the two rules of the tap kernel: each column is its dense lower-
    # triangular Toeplitz operator applied to its window, to rounding, and a
    # column's bytes do not depend on which or how many columns are computed
    # with it, so a trial block gives the bytes of the whole-width call
    rng = np.random.default_rng(t * taps)
    x = _cplx(rng, (t,) if cols is None else (t, cols))
    if real_input:
        x = x.real.copy()
    h = _cplx(rng, (cols, taps) if per_column else (taps,))
    y = apply_taps(h, x)
    assert y.shape == x.shape and y.dtype == complex
    ys, xs = y.reshape(t, -1), x.reshape(t, -1)
    want = np.stack([dense_tap_matrix(h[c] if per_column else h, t) @ xs[:, c]
                     for c in range(xs.shape[1])], axis=1)
    assert np.max(np.abs(ys - want)) <= 1e-13 * np.max(np.abs(want))
    widths = (1, 2, 3, 7, 28, 255, 256) if xs.shape[1] > 64 else None
    assert column_invariant(apply_taps, h, x, per_column, widths)


@pytest.mark.parametrize("kernel", ["apply_taps", "overlap_tail", "apply_filter",
                                    "apply_adjoint", "apply_inverse"])
@pytest.mark.parametrize("cols", [None, 1, 3])
def test_sample_kernels_compute_in_complex(kernel, cols):
    # every sample kernel promotes real input and returns complex128, with
    # the bytes it gives for the same input as complex
    n, m, k = 8, 3, 2
    segs = tap_segments(design_prototype(k, n))
    inv = inverse_stack(gram_stack(autocorr_bands(segs), m))
    h = np.random.default_rng(12).standard_normal(3)
    calls = {"apply_taps": (lambda x: apply_taps(h, x), n),
             "overlap_tail": (lambda x: overlap_tail(h, x, 5), 4),
             "apply_filter": (lambda x: apply_filter(segs, x), m * n),
             "apply_adjoint": (lambda x: apply_adjoint(segs, x), (k + m - 1) * n),
             "apply_inverse": (lambda x: apply_inverse(inv, x), m * n)}
    run, rows = calls[kernel]
    x = np.random.default_rng(13).standard_normal((rows,) if cols is None else (rows, cols))
    y = run(x)
    assert y.dtype == np.complex128
    assert same_array(y, run(x.astype(complex)))
    if kernel == "apply_taps":
        assert same_array(y, apply_taps(h.astype(complex), x.astype(complex)))


@pytest.mark.parametrize("t", [1, 3, 4, 9])
@pytest.mark.parametrize("per_column", [False, True])
def test_overlap_tail_matches_convolution_for_short_and_long_blocks(t, per_column):
    # L = 5: blocks of 1 and 3 samples are shorter than the channel memory
    # (L - 1 = 4), 9 is longer; the tail is what np.convolve emits past the
    # block's end, up to out_len
    rng = np.random.default_rng(t)
    cols, taps, out_len = 3, 5, 6
    h = _cplx(rng, (cols, taps) if per_column else (taps,))
    prev = _cplx(rng, (t, cols))
    tail = overlap_tail(h, prev, out_len)
    assert tail.shape == (out_len, cols)
    for c in range(cols):
        full = np.convolve(prev[:, c], h[c] if per_column else h)
        want = np.zeros(out_len, dtype=complex)
        want[:len(full) - t] = full[t:]
        np.testing.assert_allclose(tail[:, c], want, atol=1e-13)


def test_overlap_tail_of_a_block_shorter_than_the_channel():
    # a negative slice start once wrapped round to the block's end here
    tail = overlap_tail(np.arange(1.0, 6.0), np.array([1.0, 10.0, 100.0]), 6)
    assert tail.tolist() == [234.0, 345.0, 450.0, 500.0, 0.0, 0.0]
