"""Multipath profile, tap draws, convolution, and block-tail leakage."""

import numpy as np
import pytest

from fbmcqam.channel import (PowerDelayProfile, apply_taps, complex_noise,
                             draw_taps, freq_response, overlap_tail)

from helpers import reference_apply_taps, same_array


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


@pytest.mark.parametrize("t, cols, per_column", [
    (1000, 256, True),
    (1000, 256, False),
    (5, 3, True),          # window shorter than the channel memory
    (777, None, False),    # a single (T,) stream
    (300, 1, True),        # one column
])
@pytest.mark.parametrize("real_input", [False, True])
def test_apply_taps_bit_equal_to_whole_window_loop(t, cols, per_column, real_input):
    rng = np.random.default_rng(t)
    x = _cplx(rng, (t,) if cols is None else (t, cols))
    if real_input:
        x = x.real.copy()
    h = _cplx(rng, (cols, 8) if per_column else (8,))
    assert apply_taps(h, x).tobytes() == reference_apply_taps(h, x).tobytes()
    # a lone stream is a batch of one column, under shared or per-column taps
    lone = x if x.ndim == 1 else x[:, 0]
    h_lone, h_col = (h[0], h[:1]) if per_column else (h, h)
    assert same_array(apply_taps(h_lone, lone), apply_taps(h_col, lone[:, None])[:, 0])
