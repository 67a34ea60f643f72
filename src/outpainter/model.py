"""The full outpainting denoiser: transformer backbone plus condition
branch, wired so condition features are aligned to the live block-1
statistics and added there."""

from dataclasses import dataclass

import numpy as np

from .backbone import Backbone, BackboneConfig, tokenize
from .control import ControlBranch, standardize
from .nn import Module
from .tensor import Tensor, no_grad


@dataclass(frozen=True)
class Condition:
    """Everything the denoiser takes from (z_masked, m); no part of it
    depends on the step, so one serves a whole trajectory.

    features: the control features, standardized per channel, (L, d_model)
    in token order; each forward scales and shifts them to its live
    block-1 statistics. multipliers: each block's (L, 1) key multipliers
    1 + gamma*F(m). shape: the (h, w, s, d_latent) latent shape.
    """

    features: Tensor
    multipliers: list
    shape: tuple


class OutpaintingModel(Module):
    """Backbone + control branch behind one epsilon-prediction interface.

    The model protocol the sampler uses: condition(z_masked, m) builds the
    step-invariant Condition once, and predict_eps(z_t, t, z_masked, m,
    text_embed, cond=...) predicts epsilon per step, one (h, w, s, d) array
    for one embedding or a stacked (len, h, w, s, d) array for a list.
    """

    def __init__(self, cfg: BackboneConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.backbone = Backbone(cfg, rng)
        self.control = ControlBranch(rng, cfg)
        self.cfg = cfg

    def condition(self, z_masked: np.ndarray, m: np.ndarray) -> Condition:
        """The step-invariant part of the denoiser's input, built once per
        (z_masked, m): latents and (h, w, s, 1) latent mask."""
        return Condition(standardize(self.control.extract(z_masked, m)),
                         self.backbone.multipliers(tokenize(m)), z_masked.shape)

    def eps_tensor(self, z_t, t: int, cond: Condition, text_embed) -> Tensor:
        """Tape-recorded epsilon prediction.

        cond: condition(z_masked, m). text_embed: None selects the learned
        null embedding; otherwise a (d_model,) vector (the learned caption
        stand-in or a custom one); a list of these gives one stacked
        prediction per entry.
        """
        if cond.shape != z_t.shape:
            raise ValueError(f"masked latents {cond.shape} != noisy latents {z_t.shape}")
        return self.backbone.forward(z_t, t, cond.multipliers, text_embed, cond.features)

    def predict_eps(self, z_t: np.ndarray, t: int, z_masked: np.ndarray, m: np.ndarray,
                    text_embed=None, cond: Condition | None = None) -> np.ndarray:
        """Inference-path prediction (no tape); the sampler's entry point.

        cond: condition(z_masked, m) when the caller already has it, built
        here otherwise.
        """
        with no_grad():
            if cond is None:
                cond = self.condition(z_masked, m)
            return self.eps_tensor(z_t, t, cond, text_embed).data

    def text_vector(self) -> Tensor:
        """The learned caption stand-in used for conditional sampling."""
        return self.backbone.text_embed

    def trainable_params(self, restricted: bool = False):
        """All parameters, or only attention/conditioning/control ones.

        The restricted set mirrors fine-tuning a pretrained denoiser where
        only attention, the adaptive normalization projections, and the
        condition branch move.
        """
        named = self.named_params()
        if not restricted:
            return [p for _, p in named]
        keep = (".attn.", ".scaler.", ".ada.")
        return [p for name, p in named
                if name.startswith("control.") or any(k in name for k in keep)]
