"""Denoising transformer over latent tokens with mask-driven self-attention.

One token per latent grid site, ordered frame-major: token index
f*(h*w) + r*w + c for latent coordinate (row r, col c, frame f). Each
block scales attention keys by a per-token multiplier 1 + gamma*F(m),
where F is a tiny bounded network of the token's mask value, so the
model can tell given regions from regions it must invent.
"""

from dataclasses import dataclass

import numpy as np

from .nn import Linear, Module, layer_norm, param, sinusoid_table, timestep_encoding
from .tensor import Tensor


@dataclass(frozen=True)
class BackboneConfig:
    n_blocks: int = 4
    d_model: int = 64
    n_heads: int = 4
    gamma: float = 0.5
    mlp_ratio: int = 4
    d_latent: int = 48
    t_dim: int = 128

    def __post_init__(self):
        if self.d_model % self.n_heads:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.n_heads} heads")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.n_blocks < 2:
            raise ValueError("need at least 2 blocks: conditions enter after the first")


def tokenize(z):
    """(h, w, s, d) -> (h*w*s, d) in frame-major token order."""
    h, w, s, d = z.shape
    return z.transpose((2, 0, 1, 3)).reshape((h * w * s, d))


def untokenize(tokens, grid: tuple):
    """Inverse of tokenize given the (h, w, s) grid."""
    h, w, s = grid
    d = tokens.shape[-1]
    return tokens.reshape((s, h, w, d)).transpose((1, 2, 0, 3))


def position_encoding(grid: tuple, d_model: int) -> np.ndarray:
    """Fixed 1-D sinusoids per axis, concatenated channel-wise.

    Row, column, and frame coordinates each own a channel chunk, so
    distinct latent sites always receive distinct encodings (a summed
    shared table would collide under coordinate swaps).
    """
    h, w, s = grid
    chunk = (d_model // 3) // 2 * 2
    d_r, d_c = chunk, chunk
    d_f = d_model - 2 * chunk
    rows = sinusoid_table(h, d_r)
    cols = sinusoid_table(w, d_c)
    frames = sinusoid_table(s, d_f)
    pe = np.zeros((s, h, w, d_model))
    pe[:, :, :, :d_r] = rows[None, :, None, :]
    pe[:, :, :, d_r:d_r + d_c] = cols[None, None, :, :]
    pe[:, :, :, d_r + d_c:] = frames[:, None, None, :]
    return pe.reshape(s * h * w, d_model)


class MaskScaler(Module):
    """Bounded per-token scalar feature of the mask value, in [-1, 1]."""

    def __init__(self, rng, hidden: int = 16):
        self.fc1 = Linear(rng, 1, hidden)
        self.fc2 = Linear(rng, hidden, 1)

    def __call__(self, m_tokens: Tensor) -> Tensor:
        return self.fc2(self.fc1(m_tokens).tanh()).tanh()


def mask_multipliers(scaler: MaskScaler, m_tokens: Tensor, gamma: float) -> Tensor:
    """Key multipliers 1 + gamma*F(m), one per token, in [1-gamma, 1+gamma]."""
    return scaler(m_tokens) * gamma + 1.0


class Attention(Module):
    def __init__(self, rng, d_model: int, n_heads: int):
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.wq = Linear(rng, d_model, d_model)
        self.wk = Linear(rng, d_model, d_model)
        self.wv = Linear(rng, d_model, d_model)
        self.wo = Linear(rng, d_model, d_model)

    def __call__(self, x: Tensor, multipliers: Tensor) -> Tensor:
        L, d = x.shape
        if multipliers.shape != (L, 1):
            raise ValueError(f"multipliers shape {multipliers.shape} != {(L, 1)}")
        q = self.wq(x)
        k = self.wk(x) * multipliers  # per-token key scaling, uniform over channels
        v = self.wv(x)

        def heads(y):
            return y.reshape((L, self.n_heads, self.d_head)).transpose((1, 0, 2))

        q, k, v = heads(q), heads(k), heads(v)
        attn = (q @ k.transpose((0, 2, 1))).softmax(axis=-1, scale=1.0 / np.sqrt(self.d_head))
        out = (attn @ v).transpose((1, 0, 2)).reshape((L, d))
        return self.wo(out)


class Block(Module):
    """Pre-norm residual block with adaptive scale/shift conditioning.

    The conditioning projection is zero-initialized, so a fresh block is
    exactly a plain pre-norm transformer block regardless of t.
    """

    def __init__(self, rng, cfg: BackboneConfig):
        d = cfg.d_model
        self.attn = Attention(rng, d, cfg.n_heads)
        self.mlp_fc1 = Linear(rng, d, cfg.mlp_ratio * d)
        self.mlp_fc2 = Linear(rng, cfg.mlp_ratio * d, d)
        self.ada = Linear(rng, d, 4 * d, zero_init=True)
        self.scaler = MaskScaler(rng)
        self.d_model = d

    def __call__(self, x: Tensor, cond: Tensor, multipliers: Tensor) -> Tensor:
        d = self.d_model
        mod = self.ada(cond.reshape((1, d)))
        shift1, scale1 = mod.take(np.arange(d)), mod.take(np.arange(d, 2 * d))
        shift2, scale2 = mod.take(np.arange(2 * d, 3 * d)), mod.take(np.arange(3 * d, 4 * d))

        h = layer_norm(x) * (scale1 + 1.0) + shift1
        x = x + self.attn(h, multipliers)
        h = layer_norm(x) * (scale2 + 1.0) + shift2
        return x + self.mlp_fc2(self.mlp_fc1(h).tanh())


class Backbone(Module):
    """Token embedding, N conditioned blocks, and the epsilon head."""

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.d_model
        self.embed = Linear(rng, cfg.d_latent, d)
        self.t_fc1 = Linear(rng, cfg.t_dim, d)
        self.t_fc2 = Linear(rng, d, d)
        self.text_embed = param(rng, (d,), scale=0.02)
        self.null_embed = param(rng, (d,), scale=0.02)
        self.blocks = [Block(rng, cfg) for _ in range(cfg.n_blocks)]
        self.head = Linear(rng, d, cfg.d_latent)

    def condition_vector(self, t: int, text_embed) -> Tensor:
        """Timestep features plus the text (or learned null) embedding."""
        tv = Tensor(timestep_encoding(t, self.cfg.t_dim).reshape(1, -1))
        c = self.t_fc2(self.t_fc1(tv).tanh()).reshape((self.cfg.d_model,))
        if text_embed is None:
            return c + self.null_embed
        return c + text_embed

    def patchify(self, z) -> Tensor:
        """Latents -> embedded tokens with position encoding added."""
        grid = z.shape[:3]
        tok = tokenize(z if isinstance(z, Tensor) else Tensor(z))
        return self.embed(tok) + Tensor(position_encoding(grid, self.cfg.d_model))

    def forward(self, z_t, t: int, injected, m_tokens, text_embed, inject_fn=None) -> Tensor:
        """Predict epsilon for z_t. Conditions enter once, after block 1:
        `injected` is added to the block-1 output; alternatively inject_fn
        receives that output and returns the sequence to add (used by the
        control branch, whose alignment needs the live block-1 stats)."""
        grid = z_t.shape[:3]
        L = grid[0] * grid[1] * grid[2]
        if not isinstance(m_tokens, Tensor):
            m_tokens = Tensor(np.asarray(m_tokens, dtype=np.float64).reshape(L, 1))
        cond = self.condition_vector(t, text_embed)
        mults = [mask_multipliers(b.scaler, m_tokens, self.cfg.gamma) for b in self.blocks]

        x = self.patchify(z_t)
        x = self.blocks[0](x, cond, mults[0])
        if injected is not None:
            inj = injected if isinstance(injected, Tensor) else Tensor(injected)
            if inj.shape != x.shape:
                raise ValueError(f"injected shape {inj.shape} != token shape {x.shape}")
            x = x + inj
        if inject_fn is not None:
            x = x + inject_fn(x)
        for i in range(1, len(self.blocks)):
            x = self.blocks[i](x, cond, mults[i])
        x = layer_norm(x)
        eps_tokens = self.head(x)
        return untokenize(eps_tokens, grid)
