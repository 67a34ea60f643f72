"""Noise schedule, forward noising, and the ancestral sampler.

Denoising uses epsilon parameterization throughout: the model predicts the
noise component of z_t, and the clean estimate is recovered by inverting
the closed-form forward process. Timesteps are 1-based: t runs over 1..T.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .tensor import no_grad


@dataclass(frozen=True)
class Schedule:
    """Variance schedule: alpha_bar[i] is the product of (1 - beta) over
    steps 1..i+1, the signal fraction left at t = i+1."""

    T: int
    alpha_bar: np.ndarray

    def alpha_bar_at(self, t: int) -> float:
        if not 1 <= t <= self.T:
            raise ValueError(f"timestep {t} outside [1, {self.T}]")
        return float(self.alpha_bar[t - 1])


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 100
    cfg_scale: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be positive, got {self.steps}")
        if not (np.isfinite(self.cfg_scale) and self.cfg_scale >= 0):
            raise ValueError(f"cfg_scale must be finite and >= 0, got {self.cfg_scale}")


def make_schedule(T: int = 1000, beta_start: float = 1e-4, beta_end: float = 0.02) -> Schedule:
    """Linear beta schedule with cumulative-product alpha_bar."""
    if T < 1:
        raise ValueError(f"T must be positive, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(f"need 0 < beta_start <= beta_end < 1, got [{beta_start}, {beta_end}]")
    return Schedule(T=T, alpha_bar=np.cumprod(1.0 - np.linspace(beta_start, beta_end, T)))


def q_sample(z0: np.ndarray, t: int, eps: np.ndarray, sched: Schedule) -> np.ndarray:
    """Forward process in closed form: sqrt(ab)*z0 + sqrt(1-ab)*eps."""
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != z0.shape:
        raise ValueError(f"noise shape {eps.shape} != latent shape {z0.shape}")
    ab = sched.alpha_bar_at(t)
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps


def predict_z0(z_t, t: int, eps_hat, sched: Schedule):
    """Invert the forward process: (z_t - sqrt(1-ab)*eps_hat) / sqrt(ab).

    Works on arrays or tape tensors; gradients flow through eps_hat, which
    the latent alignment loss relies on.
    """
    ab = sched.alpha_bar_at(t)
    root = np.sqrt(ab)
    return z_t * (1.0 / root) - eps_hat * (np.sqrt(1.0 - ab) / root)


def strided_timesteps(T: int, steps: int) -> np.ndarray:
    """Uniformly strided timestep subset of [1, T], largest first."""
    if steps > T:
        raise ValueError(f"steps {steps} exceeds schedule length {T}")
    stride = T // steps
    return stride * np.arange(steps, 0, -1)


def sample(model, z_masked: np.ndarray, m: np.ndarray, text_embed, config: SamplerConfig,
           sched: Schedule) -> np.ndarray:
    """Ancestral sampling with classifier-free guidance.

    The model protocol: cond = model.condition(z_masked, m) is built once
    per call, and model.predict_eps(z_t, t, z_masked, m, texts, cond=cond)
    once per step, where texts is a list of embeddings (None selects the
    model's learned null embedding) and the result stacks one epsilon per
    entry. At cfg_scale 1 texts is [text_embed]; otherwise it is
    [text_embed, None], so the guidance pair runs as one batched forward.
    Each strided step uses the effective alpha over the skipped range and
    adds noise with the matching variance; the smallest processed timestep
    returns the clean estimate, with no final stochastic step. At a fixed
    BLAS thread count the output is a pure function of (weights, inputs,
    seed). A non-finite result raises NumericalError.
    """
    rng = np.random.default_rng(config.seed)
    z = rng.standard_normal(z_masked.shape)
    ts = strided_timesteps(sched.T, config.steps)
    s = config.cfg_scale
    texts = [text_embed] if s == 1.0 else [text_embed, None]

    with no_grad():
        cond = model.condition(z_masked, m)
        for i, t in enumerate(ts):
            t = int(t)
            eps = np.asarray(model.predict_eps(z, t, z_masked, m, texts, cond=cond))
            if eps.shape != (len(texts),) + z.shape:
                raise ValueError(f"model output shape {eps.shape} != "
                                 f"{(len(texts),) + z.shape} for {len(texts)} embeddings")
            if s == 1.0:
                eps_hat = eps[0]
            else:
                eps_c, eps_u = eps
                eps_hat = eps_u + s * (eps_c - eps_u)

            if i == len(ts) - 1:
                z0 = predict_z0(z, t, eps_hat, sched)
                if not np.isfinite(z0).all():
                    raise NumericalError(f"sampled latent is non-finite (seed {config.seed})")
                return z0

            ab_t = sched.alpha_bar_at(t)
            ab_prev = sched.alpha_bar_at(int(ts[i + 1]))
            alpha_eff = ab_t / ab_prev
            beta_eff = 1.0 - alpha_eff
            mean = (z - beta_eff / np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(alpha_eff)
            z = mean + np.sqrt(beta_eff) * rng.standard_normal(z.shape)
    raise AssertionError("unreachable")
