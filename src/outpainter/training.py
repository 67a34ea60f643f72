"""Losses, training masks, synthetic videos, and the optimization loop.

The objective is the noise-prediction MSE plus, for late denoising steps
only (small t), a weighted per-frame statistics alignment term computed on
the clean-latent estimate. The gate is sharp: at or above the threshold
timestep the total is bit-identical to the MSE alone.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .backbone import BackboneConfig
from .codec import band_mask, downsample_mask, encode, latent_shape, masked_input
from .diffusion import Schedule, predict_z0, q_sample
from .errors import NumericalError
from .model import OutpaintingModel
from .tensor import Tensor, reduce_stats
from .util import parse_shape, round_half_away


@dataclass(frozen=True)
class LossConfig:
    beta: float = 0.02
    t_latent: int = 200

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.t_latent < 0:
            raise ValueError(f"t_latent must be >= 0, got {self.t_latent}")


@dataclass
class TrainSample:
    video: np.ndarray  # (H, W, S, 3) in [0,1]
    mask: np.ndarray  # (H, W, S, 1) binary
    t: int
    eps: np.ndarray  # latent-shaped noise
    drop_text: bool = False


def diffusion_loss(eps: np.ndarray, eps_hat) -> Tensor:
    """Mean squared error over all elements."""
    if eps_hat.shape != eps.shape:
        raise ValueError(f"shape mismatch {eps_hat.shape} vs {eps.shape}")
    d = eps_hat - eps
    return (d * d).mean()


def latent_alignment_loss(z0_hat, z0) -> Tensor:
    """Mean over frames of |mean error| + |variance error|.

    Per frame, mean and population variance are taken over every latent
    element of that frame (all sites and channels).
    """
    if z0_hat.shape != z0.shape:
        raise ValueError(f"shape mismatch {z0_hat.shape} vs {z0.shape}")
    axes = (0, 1, 3)
    mu_hat, var_hat = reduce_stats(z0_hat, axes)
    mu, var = reduce_stats(Tensor(z0), axes)
    return ((mu_hat - mu).abs() + (var_hat - var).abs()).mean()


def total_loss(l_eps: Tensor, l_latent, t: int, cfg: LossConfig) -> Tensor:
    """Gated sum: l_eps alone at t >= t_latent, bit-identical."""
    if t < cfg.t_latent and l_latent is not None:
        return l_eps + l_latent * cfg.beta
    return l_eps


def sample_training_mask(H: int, W: int, S: int, rng: np.random.Generator) -> np.ndarray:
    """Frame-constant side-band mask with random ratio, axis, and split.

    Ratio r ~ U[0.1, 0.8] of one axis is masked out, split between the two
    sides by u ~ U[0, 1]: the left/top side gets round(u*r*extent), the
    remainder goes to the right/bottom.
    """
    r = rng.uniform(0.1, 0.8)
    horizontal = rng.random() < 0.5
    u = rng.random()
    extent = W if horizontal else H
    total = round_half_away(r * extent)
    first = min(round_half_away(u * r * extent), total)
    return band_mask(H, W, S, horizontal, first, total - first)


def synth_video(rng: np.random.Generator, H: int, W: int, S: int) -> np.ndarray:
    """Uniform background plus 1-3 rectangles sharing one integer velocity;
    frame k is frame 0 rolled k steps (wrap-around at borders)."""
    frame0 = np.empty((H, W, 3))
    frame0[:, :] = rng.uniform(0.0, 1.0, size=3)
    for _ in range(rng.integers(1, 4)):
        rh = int(rng.integers(max(1, H // 8), max(2, H // 2)))
        rw = int(rng.integers(max(1, W // 8), max(2, W // 2)))
        r0 = int(rng.integers(0, H - rh + 1))
        c0 = int(rng.integers(0, W - rw + 1))
        frame0[r0:r0 + rh, c0:c0 + rw] = rng.uniform(0.0, 1.0, size=3)
    vx, vy = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
    video = np.empty((H, W, S, 3))
    for k in range(S):
        video[:, :, k] = np.roll(frame0, shift=(k * vy, k * vx), axis=(0, 1))
    return video


class SGD:
    """Gradient descent with classical momentum; consumes and clears .grad."""

    def __init__(self, params, lr: float, momentum: float):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data -= self.lr * v
            p.grad = None


def training_losses(model: OutpaintingModel, sample: TrainSample, loss_cfg: LossConfig,
                    sched: Schedule):
    """Forward pass and the (total, mse, latent) loss tensors for one sample."""
    z0 = encode(sample.video)
    z_masked = encode(masked_input(sample.video, sample.mask))
    m = downsample_mask(sample.mask)
    z_t = q_sample(z0, sample.t, sample.eps, sched)

    text = None if sample.drop_text else model.text_vector()
    eps_hat = model.eps_tensor(z_t, sample.t, model.condition(z_masked, m), text)
    l_eps = diffusion_loss(sample.eps, eps_hat)
    l_latent = None
    if sample.t < loss_cfg.t_latent and loss_cfg.beta > 0:
        z0_hat = predict_z0(z_t, sample.t, eps_hat, sched)
        l_latent = latent_alignment_loss(z0_hat, z0)
    return total_loss(l_eps, l_latent, sample.t, loss_cfg), l_eps, l_latent


def train_step(model: OutpaintingModel, sample: TrainSample, loss_cfg: LossConfig,
               opt: SGD, sched: Schedule) -> dict:
    """One optimization step; aborts on non-finite losses."""
    total, l_eps, l_latent = training_losses(model, sample, loss_cfg, sched)
    # both terms are non-negative, so a non-finite term makes the total non-finite
    if not np.isfinite(total.data).all():
        raise NumericalError(f"total_loss is non-finite at t={sample.t}")
    total.backward()
    opt.step()
    return {
        "total": total.item(),
        "eps": l_eps.item(),
        "latent": 0.0 if l_latent is None else l_latent.item(),
    }


@dataclass
class TrainConfig:
    shape: tuple = (16, 16, 8)
    steps: int = 500
    lr: float = 1e-3
    seed: int = 0
    text_drop: float = 0.1
    momentum: float = 0.9
    restricted: bool = False
    model: BackboneConfig = BackboneConfig()
    loss: LossConfig = LossConfig()


# TrainConfig's records -> the keys a config file sets in each; the rest
# of BackboneConfig keeps its defaults
_RECORD_KEYS = {"model": ("n_blocks", "d_model", "n_heads", "gamma", "control_hidden"),
                "loss": ("beta", "t_latent")}
# ranges a run needs that no record checks itself; every float must also be finite
_VALID = {
    "seed": (lambda v: v >= 0, ">= 0"),
    "steps": (lambda v: v >= 1, ">= 1"),
    "lr": (lambda v: v > 0, "> 0"),
    "text_drop": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "momentum": (lambda v: 0 <= v <= 1, "in [0, 1]"),
}
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_value(key: str, kind: type, val: str):
    if kind is tuple:
        H, W, S = parse_shape(val)
        latent_shape(H, W, S)
        return H, W, S
    if kind is bool:
        if val.lower() not in _BOOLS:
            raise ValueError(f"must be one of {', '.join(_BOOLS)}")
        return _BOOLS[val.lower()]
    value = kind(val)
    if kind is float and not math.isfinite(value):
        raise ValueError("must be finite")
    if key in _VALID and not _VALID[key][0](value):
        raise ValueError(f"must be {_VALID[key][1]}")
    return value


def parse_train_config(text: str) -> TrainConfig:
    """key=value lines; '#' starts a comment. Unknown or repeated keys and
    values a run cannot use are rejected with the number of their line or
    lines. The architecture and loss keys set TrainConfig.model and .loss."""
    cfg = TrainConfig()
    owner = {key: name for name, keys in _RECORD_KEYS.items() for key in keys}
    kinds = {f.name: f.type for f in fields(TrainConfig) if f.name not in _RECORD_KEYS}
    kinds.update((f.name, f.type) for f in fields(BackboneConfig) + fields(LossConfig)
                 if f.name in owner)
    given = {name: {} for name in _RECORD_KEYS}
    seen = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"lines {seen[key]}, {lineno}: duplicate key {key!r}")
        seen[key] = lineno
        try:
            value = _parse_value(key, kinds[key], val)
        except ValueError as e:
            raise ValueError(f"line {lineno}: bad {key} value {val!r}: {e}") from None
        if key in owner:
            given[owner[key]][key] = lineno, value
        else:
            setattr(cfg, key, value)
    for name, pairs in given.items():  # each record checks its own values
        try:
            setattr(cfg, name, replace(getattr(cfg, name),
                                       **{key: value for key, (_, value) in pairs.items()}))
        except ValueError as e:
            lines = ", ".join(str(lineno) for lineno, _ in sorted(pairs.values()))
            raise ValueError(f"line{'s' if len(pairs) > 1 else ''} {lines}: {e}") from None
    return cfg


def train(model: OutpaintingModel, cfg: TrainConfig, log=None) -> list:
    """Run the loop on fresh synthetic draws under the model's noise
    schedule; returns per-step loss dicts. Deterministic under seed."""
    sched = model.sched
    rng = np.random.default_rng(cfg.seed)
    H, W, S = cfg.shape
    opt = SGD(model.trainable_params(cfg.restricted), lr=cfg.lr, momentum=cfg.momentum)
    history = []
    for step in range(cfg.steps):
        video = synth_video(rng, H, W, S)
        mask = sample_training_mask(H, W, S, rng)
        t = int(rng.integers(1, sched.T + 1))
        eps = rng.standard_normal(latent_shape(H, W, S))
        drop = rng.random() < cfg.text_drop
        losses = train_step(model, TrainSample(video, mask, t, eps, drop), cfg.loss, opt, sched)
        losses["step"] = step
        losses["t"] = t
        history.append(losses)
        if log is not None:
            log.write(f"{step}, {t}, {losses['eps']:.6f}, {losses['latent']:.6f}, "
                      f"{losses['total']:.6f}\n")
    return history
