"""Exactly invertible pixel/latent codec and mask utilities.

The latent space is space-to-depth: every PATCH x PATCH x 3 pixel block
becomes one latent vector of length 3*PATCH^2, with no temporal
compression. Being a pure memory permutation, encode/decode round-trip
bit-exactly, so every downstream property can be tested without learned
weights.

Axis order everywhere: (height, width, time, channels). Pixel videos are
(H, W, S, 3) floats in [0,1]; pixel masks are (H, W, S, 1) binary with
1 = given region, 0 = region to generate. The axis order is not a promise
about memory order: frames loaded from disk are (H, W, S, 3) views of a
frame-major buffer.
"""

import numpy as np

PATCH = 4  # space-to-depth factor
LATENT_DEPTH = 3 * PATCH * PATCH


def latent_shape(H: int, W: int, S: int) -> tuple:
    """The (h, w, s, d) latent shape of an (H, W, S, 3) video."""
    if H % PATCH or W % PATCH:
        raise ValueError(f"spatial dims ({H},{W}) not divisible by patch factor {PATCH}")
    return H // PATCH, W // PATCH, S, LATENT_DEPTH


def encode(x: np.ndarray) -> np.ndarray:
    """(H, W, S, 3) pixels -> (H/p, W/p, S, 3p^2) latents, p = PATCH.

    Latent channel k at site (i, j) holds pixel (i*p + k // (p*3),
    j*p + (k // 3) % p, channel k % 3): block-row, then block-column,
    then color, fastest last.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[3] != 3:
        raise ValueError(f"expected (H, W, S, 3) video, got {x.shape}")
    H, W, S, C = x.shape
    h, w, _, d = latent_shape(H, W, S)
    z = x.reshape(h, PATCH, w, PATCH, S, C).transpose(0, 2, 4, 1, 3, 5)
    return np.ascontiguousarray(z.reshape(h, w, S, d))


def decode(z: np.ndarray) -> np.ndarray:
    """Exact inverse of encode. No clamping; callers clip at final output."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 4:
        raise ValueError(f"expected (h, w, s, d) latents, got {z.shape}")
    h, w, S, d = z.shape
    if d != LATENT_DEPTH:
        raise ValueError(f"latent depth {d} != 3*p^2 = {LATENT_DEPTH}")
    x = z.reshape(h, w, S, PATCH, PATCH, 3).transpose(0, 3, 1, 4, 2, 5)
    return np.ascontiguousarray(x.reshape(h * PATCH, w * PATCH, S, 3))


def downsample_mask(M: np.ndarray) -> np.ndarray:
    """Binary pixel mask (H, W, S, 1) -> fractional latent mask (h, w, s, 1).

    Each latent value is the mean of its PATCH x PATCH pixel block, so
    fully given blocks are exactly 1, fully masked blocks exactly 0, and
    boundary blocks keep their coverage fraction.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 4 or M.shape[3] != 1:
        raise ValueError(f"expected (H, W, S, 1) mask, got {M.shape}")
    if not np.isin(M, (0.0, 1.0)).all():
        raise ValueError("pixel mask must be binary")
    h, w, S, _ = latent_shape(*M.shape[:3])
    return M.reshape(h, PATCH, w, PATCH, S, 1).mean(axis=(1, 3))


def band_mask(H: int, W: int, S: int, horizontal: bool, first: int, second: int) -> np.ndarray:
    """Frame-constant (H, W, S, 1) mask of ones whose first `first` and
    last `second` columns (rows when not horizontal) are zero."""
    extent = W if horizontal else H
    if min(first, second) < 0 or first + second >= extent:
        raise ValueError(f"bands of {first} and {second} must be >= 0 and leave "
                         f"part of {extent} given")
    M = np.zeros((H, W, S, 1))
    if horizontal:
        M[:, first:W - second] = 1.0
    else:
        M[first:H - second] = 1.0
    return M


def masked_input(video: np.ndarray, M: np.ndarray, fill=0.5) -> np.ndarray:
    """Keep given pixels (M == 1) bit-exactly and take `fill` everywhere
    else: mid-gray by default, or any value or video of the same shape."""
    if M.shape != video.shape[:3] + (1,):
        raise ValueError(f"mask shape {M.shape} != {video.shape[:3] + (1,)}")
    return np.where(M == 1.0, video, fill)
