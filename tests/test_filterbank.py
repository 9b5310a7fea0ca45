"""Banded filter matrix, per-subcarrier Gram systems, and their inverses,
checked against dense first-principles constructions."""

import numpy as np
import pytest

from fbmcqam.analytics import complexity_report
from fbmcqam.core import design_prototype
from fbmcqam.filterbank import (apply_adjoint, apply_filter, apply_inverse,
                                autocorr_bands, gram_stack, inverse_stack,
                                kept_mask, sample_matrices, sparsify_inverse,
                                tap_segments, window_length)
from helpers import (column_invariant, dense_filter_matrix, dense_gram_blocks,
                     stack_to_dense)

SMALL_SHAPES = [(4, 2, 2), (8, 3, 3), (8, 4, 4), (4, 1, 3), (8, 2, 1)]


def _segs(n, k):
    return tap_segments(design_prototype(k, n))


@pytest.mark.parametrize("n,m,k", SMALL_SHAPES)
def test_apply_filter_and_adjoint_match_dense(n, m, k):
    rng = np.random.default_rng(10)
    segs = _segs(n, k)
    p = dense_filter_matrix(segs, m)
    assert p.shape == (window_length(n, m, k), m * n)
    b = rng.normal(size=(m * n, 3)) + 1j * rng.normal(size=(m * n, 3))
    np.testing.assert_allclose(apply_filter(segs, b), p @ b, atol=1e-12)
    r = rng.normal(size=p.shape[0]) + 1j * rng.normal(size=p.shape[0])
    np.testing.assert_allclose(apply_adjoint(segs, r), p.T @ r, atol=1e-12)


@pytest.mark.parametrize("n,m,k", SMALL_SHAPES)
def test_gram_stack_matches_dense(n, m, k):
    segs = _segs(n, k)
    blocks = gram_stack(autocorr_bands(segs), m)
    np.testing.assert_allclose(
        blocks, dense_gram_blocks(dense_filter_matrix(segs, m), n, m),
        atol=1e-12)


def test_autocorr_band_zero_is_unit():
    # matched filter gain: mean of band 0 is exactly 1 per subcarrier sum rule
    for n, k in ((16, 3), (64, 5)):
        bands = autocorr_bands(_segs(n, k))
        assert np.mean(bands[0]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,m,k", SMALL_SHAPES)
def test_inverse_stack_inverts(n, m, k):
    segs = _segs(n, k)
    gram = gram_stack(autocorr_bands(segs), m)
    inv = inverse_stack(gram)
    eye = np.broadcast_to(np.eye(m), (n, m, m))
    assert np.max(np.abs(inv @ gram - eye)) < 1e-10


def test_adjoint_of_filter_is_gram():
    rng = np.random.default_rng(11)
    n, m, k = 8, 3, 3
    segs = _segs(n, k)
    g = stack_to_dense(gram_stack(autocorr_bands(segs), m))
    b = rng.normal(size=m * n) + 1j * rng.normal(size=m * n)
    np.testing.assert_allclose(apply_adjoint(segs, apply_filter(segs, b)),
                               g @ b, atol=1e-12)


def test_apply_inverse_matches_dense():
    rng = np.random.default_rng(12)
    n, m, k = 8, 4, 3
    segs = _segs(n, k)
    inv = inverse_stack(gram_stack(autocorr_bands(segs), m))
    x = rng.normal(size=(m * n, 2)) + 1j * rng.normal(size=(m * n, 2))
    np.testing.assert_allclose(apply_inverse(inv, x),
                               stack_to_dense(inv) @ x, atol=1e-12)


def test_inverse_undoes_gram_end_to_end():
    rng = np.random.default_rng(13)
    n, m, k = 16, 5, 4
    segs = _segs(n, k)
    inv = inverse_stack(gram_stack(autocorr_bands(segs), m))
    b = rng.normal(size=m * n) + 1j * rng.normal(size=m * n)
    v = apply_inverse(inv, apply_adjoint(segs, apply_filter(segs, b)))
    np.testing.assert_allclose(v, b, atol=1e-10)


def test_inverse_stack_rejects_singular():
    # equal bands make every 2x2 per-subcarrier system rank one
    gram = gram_stack(np.ones((2, 4)), 2)
    with pytest.raises(ValueError, match="ill-conditioned"):
        inverse_stack(gram)


def test_input_length_checks():
    segs = _segs(8, 2)
    with pytest.raises(ValueError):
        apply_filter(segs, np.zeros(12))
    with pytest.raises(ValueError):
        apply_adjoint(segs, np.zeros(20))
    inv = inverse_stack(gram_stack(autocorr_bands(segs), 3))
    with pytest.raises(ValueError):
        apply_inverse(inv, np.zeros(8))


# ---------------------------------------------------------------------------
# sparsification mask
# ---------------------------------------------------------------------------

def test_kept_mask_pinned_sets():
    np.testing.assert_array_equal(kept_mask(8, 0.0), np.ones(8, dtype=bool))
    m = kept_mask(8, 1.0)
    assert set(np.flatnonzero(~m)) == {2, 3, 4, 5}
    m = kept_mask(64, 0.5)
    assert set(np.flatnonzero(~m)) == set(range(16, 24)) | set(range(40, 48))
    m = kept_mask(64, 1.0)
    assert set(np.flatnonzero(~m)) == set(range(16, 48))


def test_kept_mask_monotone_in_eta():
    prev = kept_mask(32, 0.0)
    for eta in (0.25, 0.5, 0.75, 1.0):
        cur = kept_mask(32, eta)
        assert np.all(prev | ~cur)           # kept set shrinks
        prev = cur
    with pytest.raises(ValueError):
        kept_mask(32, 1.5)


def test_sparsify_inverse_zeroes_only_off_diagonal():
    n, m, k = 8, 3, 3
    inv = inverse_stack(gram_stack(autocorr_bands(_segs(n, k)), m))
    mask = kept_mask(n, 1.0)
    sparse = sparsify_inverse(inv, mask)
    np.testing.assert_array_equal(np.einsum("nmm->nm", sparse),
                                  np.einsum("nmm->nm", inv))
    off = ~np.eye(m, dtype=bool)
    assert np.all(sparse[~mask][:, off] == 0.0)
    np.testing.assert_array_equal(sparse[mask], inv[mask])
    assert np.count_nonzero(sparse) == n * m * m - 4 * (m * m - m)


def test_eta_one_drops_small_elements():
    # with the default design the masked middle carries a small share of the
    # off-diagonal energy
    n, m, k = 64, 14, 5
    inv = inverse_stack(gram_stack(autocorr_bands(_segs(n, k)), m))
    sparse = sparsify_inverse(inv, kept_mask(n, 1.0))
    off = ~np.eye(m, dtype=bool)
    dropped = np.sum((inv - sparse)[:, off] ** 2)
    total = np.sum(inv[:, off] ** 2)
    assert dropped / total < 0.02


# ---------------------------------------------------------------------------
# complexity report against the operators' nonzeros
# ---------------------------------------------------------------------------

# (N, M, K): the defaults, two small links, the K = 1 rectangular filter
# (R = I) and a filter longer than its block
COUNT_SHAPES = [(64, 14, 5), (16, 4, 3), (32, 7, 1), (8, 3, 8)]
COUNT_ETAS = (0.0, 0.25, 0.5, 1.0)


def test_filter_multiply_count():
    # real taps on complex symbols: two real multiplications per nonzero of P
    for n, m, k in COUNT_SHAPES:
        p = dense_filter_matrix(_segs(n, k), m)
        for eta in COUNT_ETAS:
            report = complexity_report(n, m, k, eta)
            assert 2 * np.count_nonzero(p) == report.filter_per_block, (n, m, k, eta)


def test_inverse_multiply_count_scales_with_nonzeros():
    # over a block of M symbols the keep-mask's count, M * mask_count, is two
    # real multiplications per nonzero of the sparsified R; at K = 1 R = I
    # has no off-diagonal entries, so the mask drops none and c_r agrees
    for n, m, k in COUNT_SHAPES:
        inv = inverse_stack(gram_stack(autocorr_bands(_segs(n, k)), m))
        for eta in COUNT_ETAS:
            sparse = sparsify_inverse(inv, kept_mask(n, eta))
            report = complexity_report(n, m, k, eta)
            assert 2 * np.count_nonzero(sparse) == m * report.mask_count, (n, m, k, eta)
            if k == 1:
                assert report.c_r == report.mask_count
            elif eta > 0:
                assert np.count_nonzero(sparse) < np.count_nonzero(inv)


@pytest.mark.parametrize("n, m, k, cols", [
    (64, 14, 4, 64),
    (16, 14, 5, 1),        # one column
    (16, 3, 1, 5),         # rectangular filter, K = 1
    (32, 2, 4, 7),         # fewer symbols than tap segments
    (16, 14, 4, None),     # (M*N,) input
    (16, 1, 3, 9),         # one symbol: the adjoint's output is one row
])
def test_blocked_kernels_bit_equal_to_whole_window_loops(n, m, k, cols):
    # the two rules of the per-sample kernels: P_v is the v-th per-sample
    # block of the dense P, and a column's bytes do not depend on which or how
    # many columns are computed with it
    p, dense = sample_matrices(_segs(16, k), m), dense_filter_matrix(_segs(16, k), m)
    for v in range(16):
        assert np.max(np.abs(p[v] - dense[v::16, v::16])) < 1e-13

    rng = np.random.default_rng(n * m + k)
    segs = _segs(n, k)

    def draw(rows):
        shape = (rows,) if cols is None else (rows, cols)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    b, r = draw(m * n), draw(window_length(n, m, k))
    for bb in (b, b.real.copy()):
        assert column_invariant(apply_filter, segs, bb)
    for rr in (r, r.real.copy()):
        assert column_invariant(apply_adjoint, segs, rr)
    inv = inverse_stack(gram_stack(autocorr_bands(segs), m))
    for eta in (0.0, 0.5):
        applied = sparsify_inverse(inv, kept_mask(n, eta)) if eta else inv
        assert column_invariant(apply_inverse, applied, b)
