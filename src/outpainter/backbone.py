"""Denoising transformer over latent tokens with mask-driven self-attention.

One token per latent grid site, ordered frame-major: token index
f*(h*w) + r*w + c for latent coordinate (row r, col c, frame f). Each
block scales attention keys by a per-token multiplier 1 + gamma*F(m),
where F is a tiny bounded network of the token's mask value, so the
model can tell given regions from regions it must invent.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .codec import LATENT_DEPTH
from .nn import Linear, Module, layer_norm, param, sinusoid_table
from .tensor import Tensor, attention, stack


@dataclass(frozen=True)
class BackboneConfig:
    """The whole architecture. Checkpoints store each field as
    meta/<name> in declaration order, so a new field goes last."""

    n_blocks: int = 4
    d_model: int = 64
    n_heads: int = 4
    gamma: float = 0.5
    mlp_ratio: int = 4
    d_latent: int = LATENT_DEPTH  # the codec's; no other depth runs
    t_dim: int = 128
    control_hidden: int = 16  # the control branch's conv width

    def __post_init__(self):
        for name in ("n_heads", "mlp_ratio", "t_dim", "control_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # so that position_encoding gives each axis 2 or more channels
        if self.d_model % 2 or self.d_model < 6:
            raise ValueError(f"d_model must be even and >= 6, got {self.d_model}")
        if self.t_dim % 2:
            raise ValueError(f"t_dim must be even, got {self.t_dim}")
        if self.d_latent != LATENT_DEPTH:
            raise ValueError(f"d_latent must be the codec's latent depth {LATENT_DEPTH}, "
                             f"got {self.d_latent}")
        _check_heads(self.d_model, self.n_heads)
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.n_blocks < 2:
            raise ValueError("need at least 2 blocks: conditions enter after the first")


def _check_heads(d_model: int, n_heads: int) -> None:
    if n_heads < 1 or d_model % n_heads:
        raise ValueError(f"d_model {d_model} not divisible by {n_heads} heads")


def tokenize(z):
    """(h, w, s, d) -> (h*w*s, d) in frame-major token order."""
    h, w, s, d = z.shape
    return z.transpose((2, 0, 1, 3)).reshape((h * w * s, d))


def untokenize(tokens, grid: tuple):
    """Inverse of tokenize given the (h, w, s) grid; leading axes of a
    (..., h*w*s, d) batch of sequences are kept in front."""
    h, w, s = grid
    *lead, _, d = tokens.shape
    n = len(lead)
    return tokens.reshape(tuple(lead) + (s, h, w, d)).transpose(
        tuple(range(n)) + (n + 1, n + 2, n, n + 3))


@functools.lru_cache(maxsize=32)
def position_encoding(grid: tuple, d_model: int) -> np.ndarray:
    """Fixed 1-D sinusoids per axis, concatenated channel-wise.

    Row, column, and frame coordinates each own a channel chunk, so
    distinct latent sites always receive distinct encodings (a summed
    shared table would collide under coordinate swaps). Cached by
    (grid, d_model), so the array is shared between callers and read-only.
    """
    h, w, s = grid
    chunk = (d_model // 3) // 2 * 2
    d_r, d_c = chunk, chunk
    d_f = d_model - 2 * chunk
    rows = sinusoid_table(np.arange(h), d_r)
    cols = sinusoid_table(np.arange(w), d_c)
    frames = sinusoid_table(np.arange(s), d_f)
    pe = np.zeros((s, h, w, d_model))
    pe[:, :, :, :d_r] = rows[None, :, None, :]
    pe[:, :, :, d_r:d_r + d_c] = cols[None, None, :, :]
    pe[:, :, :, d_r + d_c:] = frames[:, None, None, :]
    pe = pe.reshape(s * h * w, d_model)
    pe.flags.writeable = False
    return pe


class MaskScaler(Module):
    """Bounded per-token scalar feature of the mask value, in [-1, 1],
    through 16 hidden units."""

    def __init__(self, rng):
        self.fc1 = Linear(rng, 1, 16)
        self.fc2 = Linear(rng, 16, 1)

    def __call__(self, m_tokens: Tensor) -> Tensor:
        return self.fc2(self.fc1(m_tokens).tanh()).tanh()


def mask_multipliers(scaler: MaskScaler, m_tokens: Tensor, gamma: float) -> Tensor:
    """Key multipliers 1 + gamma*F(m), one per token, in [1-gamma, 1+gamma]."""
    return scaler(m_tokens) * gamma + 1.0


class Attention(Module):
    def __init__(self, rng, d_model: int, n_heads: int):
        _check_heads(d_model, n_heads)
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.wq = Linear(rng, d_model, d_model)
        self.wk = Linear(rng, d_model, d_model)
        self.wv = Linear(rng, d_model, d_model)
        self.wo = Linear(rng, d_model, d_model)

    def __call__(self, x: Tensor, multipliers: Tensor) -> Tensor:
        """(..., L, d) tokens and (L, 1) key multipliers -> (..., L, d).

        Leading axes hold independent sequences that share the multipliers.
        """
        L = x.shape[-2]
        if multipliers.shape != (L, 1):
            raise ValueError(f"multipliers shape {multipliers.shape} != {(L, 1)}")
        q = self.wq(x)
        k = self.wk(x) * multipliers  # per-token key scaling, uniform over channels
        v = self.wv(x)
        return self.wo(attention(q, k, v, self.n_heads, 1.0 / np.sqrt(self.d_head)))


class Block(Module):
    """Pre-norm residual block with adaptive scale/shift conditioning.

    The conditioning projection gives four d-wide chunks (shift and scale
    for attention, then for the MLP) and is zero-initialized, so a fresh
    block is exactly a plain pre-norm transformer block regardless of t.
    """

    def __init__(self, rng, cfg: BackboneConfig):
        d = cfg.d_model
        self.attn = Attention(rng, d, cfg.n_heads)
        self.mlp_fc1 = Linear(rng, d, cfg.mlp_ratio * d)
        self.mlp_fc2 = Linear(rng, cfg.mlp_ratio * d, d)
        self.ada = Linear(rng, d, 4 * d, zero_init=True)
        self.scaler = MaskScaler(rng)

    def __call__(self, x: Tensor, cond: Tensor, multipliers: Tensor) -> Tensor:
        """cond: (..., d), one conditioning vector per sequence; x: the
        (..., L, d) sequences, or one (L, d) sequence all of them share."""
        d = cond.shape[-1]
        # one row per matmul keeps each sequence's modulation bit-identical
        # to an unbatched call
        mod = self.ada(cond.reshape(cond.shape[:-1] + (1, d)))
        chunks = np.arange(mod.size).reshape(mod.shape[:-1] + (4, d))
        shift1, scale1, shift2, scale2 = (mod.take(chunks[..., k, :]) for k in range(4))

        h = layer_norm(x) * (scale1 + 1.0) + shift1
        x = x + self.attn(h, multipliers)
        h = layer_norm(x) * (scale2 + 1.0) + shift2
        return x + self.mlp_fc2(self.mlp_fc1(h).tanh())


def feature_stats(features: Tensor):
    """Per-channel mean/std over the token axis of (..., L, d) sequences,
    each (..., 1, d), as constants.

    The alignment target comes from the live block-1 output; blocking its
    gradient keeps the conditioning branch from steering the denoiser
    through the normalization constants.
    """
    return (Tensor(features.data.mean(axis=-2, keepdims=True)),
            Tensor(features.data.std(axis=-2, keepdims=True)))


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
        """Timestep features plus the text (or learned null) embedding.

        A list of embeddings gives one (len, d_model) row per entry.
        """
        tv = Tensor(sinusoid_table([t], self.cfg.t_dim))
        c = self.t_fc2(self.t_fc1(tv).tanh()).reshape((self.cfg.d_model,))
        if isinstance(text_embed, list):
            return c + stack([self.null_embed if e is None else e for e in text_embed])
        if text_embed is None:
            return c + self.null_embed
        return c + text_embed

    def patchify(self, z) -> Tensor:
        """Latents -> embedded tokens with position encoding added."""
        grid = z.shape[:3]
        return self.embed(tokenize(Tensor(z))) + Tensor(position_encoding(grid, self.cfg.d_model))

    def multipliers(self, m_tokens) -> list:
        """Each block's (h*w*s, 1) key multipliers 1 + gamma*F(m).

        m_tokens: the (h*w*s, 1) latent mask in token order. The multipliers
        depend on the mask alone, so one list serves every step of a
        trajectory.
        """
        m_tokens = Tensor(m_tokens)
        if m_tokens.ndim != 2 or m_tokens.shape[1] != 1:
            raise ValueError(f"token mask shape {m_tokens.shape} is not (h*w*s, 1)")
        return [mask_multipliers(b.scaler, m_tokens, self.cfg.gamma) for b in self.blocks]

    def forward(self, z_t, t: int, multipliers: list, text_embed, features: Tensor) -> Tensor:
        """Predict epsilon for z_t, an (h, w, s, d_latent) latent array.

        multipliers: this mask's multipliers(m_tokens). text_embed: one
        (d_model,) embedding, None for the learned null embedding, or a
        list of these; a list runs one sequence per entry over the same
        z_t in one pass and returns (len, h, w, s, d_latent). features: the
        (h*w*s, d_model) control features, standardized per channel.
        Conditions enter once, after block 1: each sequence adds
        features * sigma + mu at that block's live per-channel statistics.
        """
        if len(multipliers) != len(self.blocks):
            raise ValueError(f"{len(multipliers)} multiplier sets for {len(self.blocks)} blocks")
        grid = z_t.shape[:3]
        cond = self.condition_vector(t, text_embed)

        x = self.blocks[0](self.patchify(z_t), cond, multipliers[0])
        if features.shape != x.shape[-2:]:
            raise ValueError(f"features shape {features.shape} != token shape {x.shape[-2:]}")
        mu, sigma = feature_stats(x)
        x = x + (features * sigma + mu)
        for block, mult in zip(self.blocks[1:], multipliers[1:]):
            x = block(x, cond, mult)
        return untokenize(self.head(layer_norm(x)), grid)
