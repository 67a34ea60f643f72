"""Codec round-trip, layout, and mask tests.

The latent channel layout is pinned by an index-arithmetic oracle that
never calls encode: for latent channel k at site (i, j), the pixel is
(i*p + k // (p*3), j*p + (k // 3) % p, color k % 3).
"""

import numpy as np
import pytest

from outpainter.codec import decode, downsample_mask, encode


def rand_video(rng, H, W, S):
    return rng.random((H, W, S, 3))


def test_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        H, W, S = 4 * rng.integers(1, 5), 4 * rng.integers(1, 5), rng.integers(1, 4)
        x = rand_video(rng, H, W, S)
        z = encode(x, p=4)
        assert z.shape == (H // 4, W // 4, S, 48)
        np.testing.assert_array_equal(decode(z, p=4), x)


def test_constant_video_constant_latents():
    x = np.full((8, 8, 2, 3), 0.5)
    z = encode(x, p=4)
    assert z.shape == (2, 2, 2, 48)
    np.testing.assert_array_equal(z, 0.5)


def test_p1_is_identity():
    rng = np.random.default_rng(1)
    x = rand_video(rng, 3, 5, 2)
    np.testing.assert_array_equal(encode(x, p=1), x)


def test_zero_latent_zero_pixels():
    np.testing.assert_array_equal(decode(np.zeros((2, 2, 1, 48))), np.zeros((8, 8, 1, 3)))


def test_channel_layout_oracle():
    # one-hot latents decode to the index-arithmetic position, exhaustively
    p, h, w, S = 2, 2, 3, 2
    d = 3 * p * p
    for k in range(d):
        z = np.zeros((h, w, S, d))
        i, j, s = 1, 2, 1
        z[i, j, s, k] = 7.0
        x = decode(z, p=p)
        expect_r = i * p + k // (p * 3)
        expect_c = j * p + (k // 3) % p
        expect_ch = k % 3
        assert x[expect_r, expect_c, s, expect_ch] == 7.0
        assert np.count_nonzero(x) == 1


def test_channel_layout_oracle_random_sites():
    rng = np.random.default_rng(2)
    p = 4
    d = 3 * p * p
    for _ in range(50):
        h, w, S = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 3)
        i, j, s, k = rng.integers(h), rng.integers(w), rng.integers(S), rng.integers(d)
        v = float(rng.random())
        z = np.zeros((h, w, S, d))
        z[i, j, s, k] = v
        x = decode(z, p=p)
        assert x[i * p + k // (p * 3), j * p + (k // 3) % p, s, k % 3] == v
        assert np.count_nonzero(x) == 1


def test_encode_shape_errors():
    with pytest.raises(ValueError):
        encode(np.zeros((6, 8, 1, 3)), p=4)  # H not divisible
    with pytest.raises(ValueError):
        encode(np.zeros((8, 8, 1, 4)), p=4)  # wrong channel count
    with pytest.raises(ValueError):
        decode(np.zeros((2, 2, 1, 47)), p=4)  # depth != 3p^2


def test_downsample_mask_constants():
    M1 = np.ones((8, 8, 3, 1))
    np.testing.assert_array_equal(downsample_mask(M1, p=4), np.ones((2, 2, 3, 1)))
    M0 = np.zeros((8, 8, 3, 1))
    np.testing.assert_array_equal(downsample_mask(M0, p=4), np.zeros((2, 2, 3, 1)))


def test_downsample_mask_fractional():
    M = np.ones((2, 2, 1, 1))
    M[0, 0, 0, 0] = 0.0  # 3 ones, 1 zero in the single 2x2 block
    m = downsample_mask(M, p=2)
    assert m.shape == (1, 1, 1, 1)
    assert m[0, 0, 0, 0] == 0.75


def test_downsample_mask_rejects_non_binary():
    with pytest.raises(ValueError):
        downsample_mask(np.full((4, 4, 1, 1), 0.5), p=2)


def test_downsample_mask_commutes_with_frame_permutation():
    rng = np.random.default_rng(3)
    M = (rng.random((8, 8, 5, 1)) < 0.5).astype(np.float64)
    perm = rng.permutation(5)
    np.testing.assert_array_equal(
        downsample_mask(M[:, :, perm], p=4), downsample_mask(M, p=4)[:, :, perm]
    )
