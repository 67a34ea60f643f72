"""The full outpainting denoiser: transformer backbone plus condition
branch, wired so condition features are aligned to the live block-1
statistics and added there."""

import numpy as np

from .backbone import Backbone, BackboneConfig, tokenize
from .control import ControlBranch, align, feature_stats
from .nn import Module
from .tensor import Tensor, no_grad


class OutpaintingModel(Module):
    """Backbone + control branch behind one epsilon-prediction interface.

    align_stats_grad controls whether gradients flow into the alignment
    target statistics (the block-1 mean/std); off by default, the target
    is treated as a constant each forward pass.
    """

    def __init__(self, cfg: BackboneConfig, seed: int = 0, control_hidden: int = 16,
                 align_stats_grad: bool = False):
        rng = np.random.default_rng(seed)
        self.backbone = Backbone(cfg, rng)
        self.control = ControlBranch(rng, d_latent=cfg.d_latent, d_model=cfg.d_model,
                                     hidden=control_hidden)
        self.cfg = cfg
        self.control_hidden = control_hidden
        self.align_stats_grad = align_stats_grad

    def eps_tensor(self, z_t, t: int, z_masked: np.ndarray, m: np.ndarray,
                   text_embed) -> Tensor:
        """Tape-recorded epsilon prediction.

        text_embed: None selects the learned null embedding; otherwise a
        (d_model,) vector (the learned caption stand-in or a custom one).
        """
        if z_masked.shape != z_t.shape:
            raise ValueError(f"masked latents {z_masked.shape} != noisy latents {z_t.shape}")
        if m.shape != z_t.shape[:3] + (1,):
            raise ValueError(f"latent mask shape {m.shape} != {z_t.shape[:3] + (1,)}")
        m_tokens = tokenize(m)
        cond_features = self.control.extract(z_masked, m)

        def inject_fn(block1_out: Tensor) -> Tensor:
            mu_m, sigma_m = feature_stats(block1_out, flow_gradient=self.align_stats_grad)
            return align(cond_features, mu_m, sigma_m)

        return self.backbone.forward(z_t, t, m_tokens, text_embed, inject_fn)

    def predict_eps(self, z_t: np.ndarray, t: int, z_masked: np.ndarray, m: np.ndarray,
                    text_embed=None) -> np.ndarray:
        """Inference-path prediction (no tape); the sampler's entry point."""
        with no_grad():
            return self.eps_tensor(z_t, t, z_masked, m, text_embed).data

    def text_vector(self) -> Tensor:
        """The learned caption stand-in used for conditional sampling."""
        return self.backbone.text_embed

    def control_param_fraction(self) -> float:
        return self.control.n_params() / self.backbone.n_params()

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
