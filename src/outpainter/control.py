"""Lightweight condition branch: convolutional features from the masked
latents plus mask, aligned to the denoiser's running statistics before
being added after the first block.

The conv stack is spatial-only and per-frame; temporal structure reaches
the denoiser through the token layout, not through this branch.
"""

import functools

import numpy as np

from .backbone import tokenize, untokenize
from .nn import Linear, Module, Tensor, param


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


class Conv3x3(Module):
    """3x3, stride 1, zero same-padding, applied independently per frame."""

    def __init__(self, rng, c_in: int, c_out: int):
        self.W = param(rng, (9 * c_in, c_out), scale=1.0 / np.sqrt(9 * c_in))
        self.b = Tensor(np.zeros(c_out), requires_grad=True)
        self.c_in = c_in

    def __call__(self, x: Tensor) -> Tensor:
        """(h, w, s, c_in) -> (h, w, s, c_out)."""
        h, w, s, c = x.shape
        if c != self.c_in:
            raise ValueError(f"expected {self.c_in} channels, got {c}")
        xp = x.pad(((1, 1), (1, 1), (0, 0), (0, 0)))
        cols = xp.take(_patch_indices(h, w, s, c))  # (h*w*s tokens, 9c)
        return untokenize(cols @ self.W + self.b, (h, w, s))


class ControlBranch(Module):
    """Three bounded conv layers over (Z_masked, m), projected to tokens."""

    def __init__(self, rng, d_latent: int = 48, d_model: int = 64, hidden: int = 16):
        self.conv1 = Conv3x3(rng, d_latent + 1, hidden)
        self.conv2 = Conv3x3(rng, hidden, hidden)
        self.conv3 = Conv3x3(rng, hidden, hidden)
        self.proj = Linear(rng, hidden, d_model)

    def extract(self, z_masked: np.ndarray, m: np.ndarray) -> Tensor:
        """(h, w, s, d), (h, w, s, 1) -> (h*w*s, d_model) in token order."""
        if z_masked.shape[:3] != m.shape[:3] or m.shape[3] != 1:
            raise ValueError(f"latents {z_masked.shape} and mask {m.shape} disagree")
        x = Tensor(np.concatenate([z_masked, m], axis=3))
        x = self.conv1(x).tanh()
        x = self.conv2(x).tanh()
        return self.proj(tokenize(self.conv3(x)))


def feature_stats(features: Tensor, flow_gradient: bool = False):
    """Per-channel mean/std of a token sequence, as plain arrays by default.

    The alignment target comes from the live block-1 output; blocking its
    gradient keeps the conditioning branch from steering the denoiser
    through the normalization constants. flow_gradient=True keeps the
    path differentiable end to end.
    """
    if flow_gradient:
        mu = features.mean(axes=0)
        d = features - mu
        # variance floor keeps sqrt differentiable on degenerate channels
        sigma = (d * d).mean(axes=0).clamp(lo=1e-12) ** 0.5
        return mu, sigma
    return Tensor(features.data.mean(axis=0)), Tensor(features.data.std(axis=0))


def align(features: Tensor, mu_m, sigma_m, eps_std: float = 1e-6) -> Tensor:
    """Renormalize each channel to the target mean/std.

    out = (x - mean(x)) / max(std(x), eps_std) * sigma_m + mu_m, computed
    over tokens. Constant channels hit the eps_std guard and land exactly
    on mu_m.
    """
    mu = features.mean(axes=0)
    d = features - mu
    var = (d * d).mean(axes=0)
    # max(std, eps) computed as sqrt(max(var, eps^2)): same values, and the
    # sqrt stays differentiable when a channel is constant
    std = var.clamp(lo=eps_std * eps_std) ** 0.5
    return d / std * sigma_m + mu_m
