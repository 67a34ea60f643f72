"""Lightweight condition branch: convolutional features from the masked
latents plus mask, standardized per channel. The denoiser scales them to
its live block-1 statistics and adds them after the first block.

The conv stack is spatial-only and per-frame; temporal structure reaches
the denoiser through the token layout, not through this branch.
"""

import functools

import numpy as np

from .backbone import BackboneConfig, tokenize, untokenize
from .nn import Linear, Module, Tensor


@functools.lru_cache(maxsize=32)
def _patch_indices(h: int, w: int, s: int, c: int) -> np.ndarray:
    """Flat gather indices for 3x3 same-padding patches per frame.

    Input is zero-padded to (h+2, w+2, s, c); row i of the result lists
    the 9*c source elements of token i (frame-major site order), patch
    element order (dy, dx, channel). Cached by shape, so the array is
    shared between callers and read-only.
    """
    idx = np.arange((h + 2) * (w + 2) * s * c).reshape(h + 2, w + 2, s, c)
    flat = np.concatenate([tokenize(idx[dy:dy + h, dx:dx + w])
                           for dy in range(3) for dx in range(3)], axis=1)
    flat.flags.writeable = False
    return flat


class Conv3x3(Linear):
    """3x3, stride 1, zero same-padding, applied independently per frame:
    a Linear map from each site's (9*c_in) patch to c_out channels."""

    def __init__(self, rng, c_in: int, c_out: int):
        super().__init__(rng, 9 * c_in, c_out)
        self.c_in = c_in

    def __call__(self, x: Tensor) -> Tensor:
        """(h, w, s, c_in) -> (h, w, s, c_out)."""
        h, w, s, c = x.shape
        if c != self.c_in:
            raise ValueError(f"expected {self.c_in} channels, got {c}")
        xp = x.pad(((1, 1), (1, 1), (0, 0), (0, 0)))
        cols = xp.take(_patch_indices(h, w, s, c))  # (h*w*s tokens, 9c)
        return untokenize(super().__call__(cols), (h, w, s))


class ControlBranch(Module):
    """Three bounded conv layers over (Z_masked, m), projected to tokens."""

    def __init__(self, rng, cfg: BackboneConfig):
        hidden = cfg.control_hidden
        self.conv1 = Conv3x3(rng, cfg.d_latent + 1, hidden)
        self.conv2 = Conv3x3(rng, hidden, hidden)
        self.conv3 = Conv3x3(rng, hidden, hidden)
        self.proj = Linear(rng, hidden, cfg.d_model)

    def extract(self, z_masked: np.ndarray, m: np.ndarray) -> Tensor:
        """(h, w, s, d), (h, w, s, 1) -> (h*w*s, d_model) in token order."""
        if z_masked.shape[:3] != m.shape[:3] or m.shape[3] != 1:
            raise ValueError(f"latents {z_masked.shape} and mask {m.shape} disagree")
        x = Tensor(np.concatenate([z_masked, m], axis=3))
        x = self.conv1(x).tanh()
        x = self.conv2(x).tanh()
        return self.proj(tokenize(self.conv3(x)))


def standardize(features: Tensor) -> Tensor:
    """Each channel of an (L, d) token sequence at zero mean and unit std.

    out = (x - mean(x)) / max(std(x), 1e-6), computed over tokens.
    Constant channels hit the 1e-6 guard and come out exactly zero.
    """
    mu = features.mean(axes=0)
    d = features - mu
    var = (d * d).mean(axes=0)
    # max(std, 1e-6) computed as sqrt(max(var, 1e-6^2)): same values, and the
    # sqrt stays differentiable when a channel is constant
    std = var.clamp(lo=1e-6 * 1e-6) ** 0.5
    return d / std
