"""Exactly invertible pixel/latent codec and mask utilities.

The latent space is space-to-depth: every p x p x 3 pixel block becomes one
latent vector of length 3p^2, with no temporal compression. Being a pure
memory permutation, encode/decode round-trip bit-exactly, so every
downstream property can be tested without learned weights.

Array layout everywhere: (height, width, time, channels). Pixel videos are
(H, W, S, 3) floats in [0,1]; pixel masks are (H, W, S, 1) binary with
1 = given region, 0 = region to generate.
"""

import numpy as np

PATCH = 4  # default space-to-depth factor; latent depth is 3*PATCH**2


def _check_divisible(H: int, W: int, p: int) -> None:
    if p < 1:
        raise ValueError(f"patch factor must be positive, got {p}")
    if H % p or W % p:
        raise ValueError(f"spatial dims ({H},{W}) not divisible by patch factor {p}")


def encode(x: np.ndarray, p: int = PATCH) -> np.ndarray:
    """(H, W, S, 3) pixels -> (H/p, W/p, S, 3p^2) latents.

    Latent channel k at site (i, j) holds pixel (i*p + k // (p*3),
    j*p + (k // 3) % p, channel k % 3): block-row, then block-column,
    then color, fastest last.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[3] != 3:
        raise ValueError(f"expected (H, W, S, 3) video, got {x.shape}")
    H, W, S, C = x.shape
    _check_divisible(H, W, p)
    h, w = H // p, W // p
    z = x.reshape(h, p, w, p, S, C).transpose(0, 2, 4, 1, 3, 5)
    return np.ascontiguousarray(z.reshape(h, w, S, p * p * C))


def decode(z: np.ndarray, p: int = PATCH) -> np.ndarray:
    """Exact inverse of encode. No clamping; callers clip at final output."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 4:
        raise ValueError(f"expected (h, w, s, d) latents, got {z.shape}")
    h, w, S, d = z.shape
    if d != 3 * p * p:
        raise ValueError(f"latent depth {d} != 3*p^2 = {3 * p * p}")
    x = z.reshape(h, w, S, p, p, 3).transpose(0, 3, 1, 4, 2, 5)
    return np.ascontiguousarray(x.reshape(h * p, w * p, S, 3))


def downsample_mask(M: np.ndarray, p: int = PATCH) -> np.ndarray:
    """Binary pixel mask (H, W, S, 1) -> fractional latent mask (h, w, s, 1).

    Each latent value is the mean of its p x p pixel block, so fully given
    blocks are exactly 1, fully masked blocks exactly 0, and boundary
    blocks keep their coverage fraction.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 4 or M.shape[3] != 1:
        raise ValueError(f"expected (H, W, S, 1) mask, got {M.shape}")
    if not np.isin(M, (0.0, 1.0)).all():
        raise ValueError("pixel mask must be binary")
    H, W, S, _ = M.shape
    _check_divisible(H, W, p)
    h, w = H // p, W // p
    return M.reshape(h, p, w, p, S, 1).mean(axis=(1, 3))


def blend_given_region(generated: np.ndarray, original: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Copy original pixels wherever the mask is 1, bit-exactly."""
    if generated.shape != original.shape:
        raise ValueError(f"shape mismatch {generated.shape} vs {original.shape}")
    return np.where(M == 1.0, original, generated)
