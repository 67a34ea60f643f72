"""Lightweight condition branch: convolutional features from the masked
latents plus mask, aligned to the denoiser's running statistics before
being added after the first block.

The conv stack is spatial-only and per-frame; temporal structure reaches
the denoiser through the token layout, not through this branch.
"""

import functools

import numpy as np

from .nn import Linear, Module, Tensor, param


@functools.lru_cache(maxsize=32)
def _patch_indices(h: int, w: int, s: int, c: int) -> np.ndarray:
    """Flat gather indices for 3x3 same-padding patches per frame.

    Input is zero-padded to (h+2, w+2, s, c); row i of the result lists
    the 9*c source elements of token i (frame-major site order), patch
    element order (dy, dx, channel). Cached by shape, so the array is
    shared between callers and read-only.
    """
    hp, wp = h + 2, w + 2
    ff, ii, jj = (a.reshape(-1, 1) for a in np.meshgrid(
        np.arange(s), np.arange(h), np.arange(w), indexing="ij"))  # (L, 1) each
    dy, dx = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    dy, dx = dy.ravel(), dx.ravel()  # 9 offsets
    ch = np.arange(c)
    # flat index into (hp, wp, s, c)
    ii = ii + dy[None, :]  # (L, 9)
    jj = jj + dx[None, :]
    flat = ((ii * wp + jj) * s + ff)[:, :, None] * c + ch[None, None, :]
    flat = flat.reshape(h * w * s, 9 * c)
    flat.flags.writeable = False
    return flat


class Conv3x3(Module):
    """3x3, stride 1, zero same-padding, applied independently per frame."""

    def __init__(self, rng, c_in: int, c_out: int):
        self.W = param(rng, (9 * c_in, c_out), scale=1.0 / np.sqrt(9 * c_in))
        self.b = Tensor(np.zeros(c_out), requires_grad=True)
        self.c_in = c_in
        self.c_out = c_out

    def __call__(self, x: Tensor) -> Tensor:
        """(h, w, s, c_in) -> (h, w, s, c_out)."""
        h, w, s, c = x.shape
        if c != self.c_in:
            raise ValueError(f"expected {self.c_in} channels, got {c}")
        xp = x.pad(((1, 1), (1, 1), (0, 0), (0, 0)))
        cols = xp.take(_patch_indices(h, w, s, c))  # (h*w*s frame-major, 9c)
        out = cols @ self.W + self.b
        # frame-major rows -> (s, h, w, c_out) -> (h, w, s, c_out)
        return out.reshape((s, h, w, self.c_out)).transpose((1, 2, 0, 3))


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
        x = self.conv3(x)
        h, w, s, c = x.shape
        tok = x.transpose((2, 0, 1, 3)).reshape((h * w * s, c))
        return self.proj(tok)


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
    data = features.data if isinstance(features, Tensor) else np.asarray(features)
    return Tensor(data.mean(axis=0)), Tensor(data.std(axis=0))


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
