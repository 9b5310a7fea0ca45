"""Transforms, QAM mapping, and the prototype filter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmcqam.core import (SUPPORTED_OVERLAPS, PrototypeFilter, _axis_decide,
                          design_prototype, dft_segments, idft_block,
                          load_prototype_file, qam_demap, qam_levels, qam_llrs,
                          qam_map)
from helpers import (reference_axis_decide, reference_qam_demap, reference_qam_llrs,
                     reference_qam_map, unitary_dft)


# ---------------------------------------------------------------------------
# unitary transforms
# ---------------------------------------------------------------------------

def test_dft_matches_naive_sum():
    # each segment's transform is the unitary DFT matrix applied to it
    rng = np.random.default_rng(0)
    n = 12
    x = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
    f = unitary_dft(n)
    np.testing.assert_allclose(dft_segments(x, n),
                               np.stack([f @ x[:n], f @ x[n:]], axis=1), atol=1e-12)


def test_dft_idft_unitary():
    rng = np.random.default_rng(1)
    S = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
    b = idft_block(S)
    np.testing.assert_allclose(dft_segments(b, 16), S, atol=1e-12)
    assert np.linalg.norm(b) == pytest.approx(np.linalg.norm(S))
    assert np.linalg.norm(dft_segments(S.ravel(), 16)) == pytest.approx(
        np.linalg.norm(S))


def test_idft_block_layout():
    # symbol m of the grid occupies samples [mN, (m+1)N) of the stacked block
    rng = np.random.default_rng(2)
    S = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    b = idft_block(S)
    assert b.shape == (24,)
    np.testing.assert_allclose(b[8:16], unitary_dft(8).conj().T @ S[:, 1],
                               atol=1e-12)
    np.testing.assert_allclose(dft_segments(b, 8), S, atol=1e-12)


def test_idft_block_batched():
    rng = np.random.default_rng(3)
    S = rng.normal(size=(4, 2, 5)) + 1j * rng.normal(size=(4, 2, 5))
    b = idft_block(S)
    assert b.shape == (8, 5)
    np.testing.assert_allclose(b[..., 2], idft_block(S[..., 2]), atol=1e-12)
    np.testing.assert_allclose(dft_segments(b, 4), S, atol=1e-12)


def test_dft_segments_rejects_ragged_length():
    with pytest.raises(ValueError):
        dft_segments(np.zeros(10, dtype=complex), 4)


# ---------------------------------------------------------------------------
# QAM
# ---------------------------------------------------------------------------

def test_qam_levels_pinned_16():
    # Gray labels per axis, label 0 on the most positive level, unit mean power
    expect = np.array([3.0, 1.0, -3.0, -1.0]) / np.sqrt(10.0)
    np.testing.assert_allclose(qam_levels(16), expect, atol=1e-15)


def test_qam_constellation_mean_power():
    for order in (4, 16, 64):
        bps = int(np.log2(order))
        labels = np.arange(order)
        bits = ((labels[:, None] >> np.arange(bps - 1, -1, -1)) & 1).ravel()
        pts = qam_map(bits, order, power=2.5)
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(2.5)


def test_qam_map_pinned_corners():
    s = qam_map(np.zeros(4, dtype=int), 16)
    assert s[0] == pytest.approx((3 + 3j) / np.sqrt(10))
    s = qam_map(np.array([1, 0, 1, 1]), 16)
    assert s[0] == pytest.approx((-3 - 1j) / np.sqrt(10))


def test_qam_roundtrip_all_labels():
    for order in (4, 16, 64):
        bps = int(np.log2(order))
        labels = np.arange(order)
        bits = ((labels[:, None] >> np.arange(bps - 1, -1, -1)) & 1).ravel()
        back = qam_demap(qam_map(bits, order), order)
        np.testing.assert_array_equal(back, bits)


def test_qam_demap_tie_prefers_smallest_label():
    # exact midpoint between the QPSK levels on both axes
    np.testing.assert_array_equal(qam_demap(np.array([0.0 + 0.0j]), 4), [0, 0])


def _slicer_edges(levels):
    """Samples where a slicer could part from the argmin rule: every level,
    every midpoint and the float neighbours on both sides of each, signed
    zeros, subnormals, far, huge and non-finite values."""
    srt = np.sort(levels)
    step = srt[1] - srt[0]
    mids = (srt[1:] + srt[:-1]) / 2
    tiny = np.finfo(float).smallest_subnormal
    return np.concatenate([
        levels, mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf),
        [0.0, -0.0, tiny, -tiny, 1e3 * tiny, -1e3 * tiny],
        [2.0**40 * step, -(2.0**40) * step, 1e300, -1e300, np.finfo(float).max,
         -np.finfo(float).max, np.inf, -np.inf, np.nan]])


def _slice(x, levels):
    # no floating-point exception may fire: NaN, inf and overflow must never
    # reach the integer cast
    with np.errstate(all="raise"):
        return _axis_decide(x, levels)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_axis_decision_equals_argmin_over_levels(order):
    # random samples and the slicer's edges: exact ties on every midpoint go
    # to the smaller label, their float neighbours to the nearer level
    rng = np.random.default_rng(order)
    for power in (1.0, 1.7):
        levels = qam_levels(order, power)
        x = np.concatenate([rng.standard_normal(4096) * levels.max(),
                            _slicer_edges(levels)])
        got, want = _slice(x, levels), reference_axis_decide(x, levels)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@given(st.lists(st.floats(allow_nan=False) | st.just(math.nan) | st.floats(-3.0, 3.0),
                min_size=1, max_size=64),
       st.sampled_from([4, 16, 64]), st.sampled_from([1.0, 1.7]))
@settings(max_examples=200, deadline=None)
def test_slicer_equals_argmin_on_arbitrary_floats(values, order, power):
    levels = qam_levels(order, power)
    x = np.array(values)
    np.testing.assert_array_equal(_slice(x, levels), reference_axis_decide(x, levels))


@pytest.mark.parametrize("order", [4, 16, 64])
def test_qam_demap_bit_equal_to_reference(order):
    # noisy random symbols, every pair of slicer edge values as one symbol
    # (levels, midpoints and their neighbours, zeros, huge and non-finite)
    rng = np.random.default_rng(order + 2)
    bps = int(np.log2(order))
    noise = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    edges = _slicer_edges(qam_levels(order, 1.7))
    pairs = np.empty((edges.size, edges.size), dtype=complex)
    pairs.real, pairs.imag = edges[:, None], edges      # 1j * inf would be NaN
    s = np.concatenate([qam_map(rng.integers(0, 2, bps * 4096), order, 1.7)
                        + 0.3 * noise, pairs.ravel()])
    with np.errstate(all="raise"):
        got = qam_demap(s, order, 1.7)
    want = reference_qam_demap(s, order, 1.7)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_qam_map_and_llrs_bit_equal_to_label_tables(order):
    # random symbols, symbols on every level and every midpoint of both axes
    # (exact ties), zero, and per-symbol, scalar and zero noise variances
    rng = np.random.default_rng(order + 1)
    bits = rng.integers(0, 2, size=int(np.log2(order)) * 4096)
    mapped = qam_map(bits, order, 2.5)
    assert mapped.tobytes() == reference_qam_map(bits, order, 2.5).tobytes()
    levels = qam_levels(order, 2.5)
    srt = np.sort(levels)
    grid = np.concatenate([levels, (srt[1:] + srt[:-1]) / 2, [0.0]])
    noise = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    s = np.concatenate([mapped + 0.4 * noise, (grid[:, None] + 1j * grid).ravel()])
    for nv in (rng.uniform(0.01, 1.0, size=s.size), 0.1, 0.0):
        assert (qam_llrs(s, order, nv, 2.5).tobytes()
                == reference_qam_llrs(s, order, nv, 2.5).tobytes())


def test_qam_llr_signs_match_hard_decisions():
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, size=400)
    s = qam_map(bits, 16) + 0.01 * (rng.normal(size=100) + 1j * rng.normal(size=100))
    llr = qam_llrs(s, 16, noise_var=1e-4)
    hard = qam_demap(s, 16)
    np.testing.assert_array_equal((llr < 0).astype(int), hard)


def test_qam_llr_noise_var_broadcast():
    s = qam_map(np.zeros(8, dtype=int), 16)
    per_symbol = np.array([1e-2, 1e-4])
    llr = qam_llrs(s, 16, per_symbol)
    # identical received symbols, smaller variance -> larger magnitude
    assert np.all(np.abs(llr[4:]) > np.abs(llr[:4]))


def test_qam_errors():
    with pytest.raises(ValueError):
        qam_map(np.zeros(3, dtype=int), 16)
    with pytest.raises(ValueError):
        qam_map(np.array([0, 2, 1, 0]), 16)
    with pytest.raises(ValueError):
        qam_levels(32)


@given(st.integers(0, 2**32 - 1), st.sampled_from([4, 16, 64]))
@settings(max_examples=25, deadline=None)
def test_qam_roundtrip_random(seed, order):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=30 * int(np.log2(order)))
    np.testing.assert_array_equal(qam_demap(qam_map(bits, order), order), bits)


# ---------------------------------------------------------------------------
# prototype filter
# ---------------------------------------------------------------------------

def test_rectangular_prototype():
    f = design_prototype(1, 4)
    np.testing.assert_allclose(f.coeffs, [0.5, 0.5, 0.5, 0.5])
    np.testing.assert_allclose(f.matrix_taps, [1.0, 1.0, 1.0, 1.0])
    # K = 1 is the general synthesis with no cosine terms: every tap is
    # 1/sqrt(N) to the last bit
    for n in 2 ** np.arange(1, 12):
        assert (design_prototype(1, n).coeffs.tobytes()
                == np.full(n, 1.0 / np.sqrt(n)).tobytes())


def test_designed_prototypes_unit_energy_and_symmetric():
    for k in SUPPORTED_OVERLAPS:
        f = design_prototype(k, 64)
        w = f.coeffs
        assert w.size == k * 64
        assert np.sum(w**2) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(w, w[::-1], atol=1e-12)
        if k > 1:
            assert np.argmax(w) in (k * 32 - 1, k * 32)


def test_prototype_validation():
    with pytest.raises(ValueError):
        design_prototype(9, 64)
    with pytest.raises(ValueError):
        design_prototype(4, 48)
    with pytest.raises(ValueError):
        PrototypeFilter(np.ones(8), 2, 4)      # energy 8, not 1
    with pytest.raises(ValueError):
        PrototypeFilter(np.ones(6) / np.sqrt(6), 2, 4)   # wrong length


def test_prototype_coeffs_read_only():
    f = design_prototype(3, 16)
    with pytest.raises(ValueError):
        f.coeffs[0] = 2.0


def test_load_prototype_file_roundtrip(tmp_path):
    f = design_prototype(4, 16)
    path = tmp_path / "proto.txt"
    path.write_text("".join(f"{w:.17g}\n" for w in f.coeffs))
    g = load_prototype_file(path, 4, 16)
    np.testing.assert_allclose(g.coeffs, f.coeffs, atol=1e-15)


def test_load_prototype_file_normalizes(tmp_path):
    path = tmp_path / "proto.txt"
    path.write_text("".join("2.0\n" for _ in range(8)))
    g = load_prototype_file(path, 2, 4)
    np.testing.assert_allclose(g.coeffs, np.full(8, 1.0 / np.sqrt(8)), atol=1e-15)


def test_load_prototype_file_errors(tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("1.0\n1.0\n")
    with pytest.raises(ValueError):
        load_prototype_file(short, 2, 4)
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("".join("0.0\n" for _ in range(8)))
    with pytest.raises(ValueError):
        load_prototype_file(zeros, 2, 4)
