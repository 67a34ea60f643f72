"""End-to-end outpainting drivers: evaluation masks, the single-clip
sampler round trip, and the iterative long-video loop that writes its
clips into one output video.

Masks here mark the GIVEN region with ones; the zeros are what the model
must invent. Evaluation masks keep a centered band and generate
symmetric bands on both sides, so scores are side-balanced.
"""

from dataclasses import dataclass, replace

import numpy as np

from .codec import band_mask, decode, downsample_mask, encode, masked_input
from .diffusion import Schedule, SamplerConfig, sample
from .longvideo import build_condition, plan_clips, refine_clip
from .util import from_u8, round_half_away, to_u8


@dataclass(frozen=True)
class EvalMaskSpec:
    ratio: float
    direction: str = "horizontal"

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"mask ratio must be in (0,1), got {self.ratio}")
        if self.direction not in ("horizontal", "vertical"):
            raise ValueError(f"direction must be horizontal or vertical, got {self.direction!r}")


def make_eval_mask(spec: EvalMaskSpec, H: int, W: int, S: int) -> np.ndarray:
    """Frame-constant symmetric band mask, ones marking the given region.

    The generated total is ratio*extent rounded to the nearest integer
    (half away from zero), split floor-half to the first side and the
    remainder to the second. Horizontal masks generate columns, vertical
    masks generate rows.
    """
    extent = W if spec.direction == "horizontal" else H
    total = int(round_half_away(spec.ratio * extent))
    first = total // 2
    if first < 1:
        raise ValueError(f"ratio {spec.ratio} leaves no generated band on one side")
    if total >= extent:
        raise ValueError(f"ratio {spec.ratio} leaves no given region")
    return band_mask(H, W, S, spec.direction == "horizontal", first, total - first)


def outpaint_video(model, video: np.ndarray, M: np.ndarray, config: SamplerConfig,
                   sched: Schedule) -> np.ndarray:
    """Outpaint one clip: mask, encode, sample, decode, blend.

    video: (H, W, S, 3) floats in [0,1]; M: (H, W, S, 1) binary given-region
    mask. The given region of the result is the input bit-exact.
    """
    video = np.asarray(video, dtype=np.float64)
    x_masked = masked_input(video, M)
    z0 = sample(model, encode(x_masked), downsample_mask(M),
                model.text_vector(), config, sched)
    return masked_input(video, M, np.clip(decode(z0), 0.0, 1.0))


def outpaint_long(model, video_u8: np.ndarray, M: np.ndarray, S_clip: int, K: int,
                  config: SamplerConfig, sched: Schedule, refine: bool = True) -> np.ndarray:
    """Outpaint a long video clip by clip into one output video.

    The output is allocated once, in the input's layout. Each clip after
    the first takes its first K frames verbatim from that output (all-ones
    masks), is sampled with seed offset by the clip index, is statistically
    matched to that overlap, and has the given pixels restored; it then
    writes only the frames no earlier clip wrote. Every planned clip starts
    inside the one before it, so overlapping frames keep the earliest
    clip's pixels. Returns a uint8 video of the full length.
    """
    if video_u8.dtype != np.uint8:
        raise ValueError(f"long-video input must be uint8, got {video_u8.dtype}")
    # the whole video's latents and latent mask, so every clip's mask is
    # checked before any clip is sampled
    z_given = encode(masked_input(from_u8(video_u8), M))
    m_given = downsample_mask(M)
    plan = plan_clips(video_u8.shape[2], S_clip, K)
    video = np.empty_like(video_u8)
    done = 0  # frames [0, done) of video are written

    for i, (a, b) in enumerate(plan.ranges):
        z_masked, m = z_given[:, :, a:b], m_given[:, :, a:b]
        if i > 0:
            overlap = video[:, :, a:a + K]
            z_masked, m = build_condition(encode(from_u8(overlap)), z_masked, m)
        cfg_i = replace(config, seed=config.seed + i)
        z0 = sample(model, z_masked, m, model.text_vector(), cfg_i, sched)
        out = to_u8(decode(z0))
        if i > 0 and refine:
            out = refine_clip(out, overlap)
        out = masked_input(video_u8[:, :, a:b], M[:, :, a:b], out)
        video[:, :, done:b] = out[:, :, done - a:]
        done = b

    return video
