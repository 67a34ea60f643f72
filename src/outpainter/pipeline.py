"""End-to-end outpainting drivers: evaluation masks, the single-clip
sampler round trip, and the iterative long-video loop.

Masks here mark the GIVEN region with ones; the zeros are what the model
must invent. Evaluation masks keep a centered band and generate
symmetric bands on both sides, so scores are side-balanced.
"""

from dataclasses import dataclass, replace

import numpy as np

from .codec import PATCH, blend_given_region, decode, downsample_mask, encode
from .diffusion import Schedule, SamplerConfig, make_schedule, sample
from .longvideo import assemble, build_condition, plan_clips, refine_clip
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
    second = total - first
    if first < 1:
        raise ValueError(f"ratio {spec.ratio} leaves no generated band on one side")
    if total >= extent:
        raise ValueError(f"ratio {spec.ratio} leaves no given region")
    M = np.zeros((H, W, S, 1), dtype=np.float64)
    if spec.direction == "horizontal":
        M[:, first:W - second] = 1.0
    else:
        M[first:H - second, :] = 1.0
    return M


def masked_input(video: np.ndarray, M: np.ndarray, fill: float = 0.5) -> np.ndarray:
    """Keep given pixels, mid-gray everywhere else."""
    if M.shape != video.shape[:3] + (1,):
        raise ValueError(f"mask shape {M.shape} != {video.shape[:3] + (1,)}")
    return np.where(M == 1.0, video, fill)


def _check_video(video: np.ndarray, M: np.ndarray) -> None:
    if video.ndim != 4 or video.shape[3] != 3:
        raise ValueError(f"expected (H, W, S, 3) video, got {video.shape}")
    H, W = video.shape[:2]
    if H % PATCH or W % PATCH:
        raise ValueError(f"frame size {H}x{W} not divisible by the patch size {PATCH}")
    if M.shape != video.shape[:3] + (1,):
        raise ValueError(f"mask shape {M.shape} != {video.shape[:3] + (1,)}")
    if not np.isin(M, (0.0, 1.0)).all():
        raise ValueError("pixel mask must be binary")


def outpaint_video(model, video: np.ndarray, M: np.ndarray,
                   config: SamplerConfig | None = None,
                   sched: Schedule | None = None) -> np.ndarray:
    """Outpaint one clip: mask, encode, sample, decode, blend.

    video: (H, W, S, 3) floats in [0,1]; M: (H, W, S, 1) binary given-region
    mask. The given region of the result is the input bit-exact.
    """
    config = config if config is not None else SamplerConfig()
    sched = sched if sched is not None else make_schedule()
    video = np.asarray(video, dtype=np.float64)
    _check_video(video, M)
    x_masked = masked_input(video, M)
    z0 = sample(model, encode(x_masked), downsample_mask(M),
                model.text_vector(), config, sched)
    gen = np.clip(decode(z0), 0.0, 1.0)
    return blend_given_region(gen, video, M)


def outpaint_long(model, video_u8: np.ndarray, M: np.ndarray, S_clip: int, K: int,
                  config: SamplerConfig | None = None,
                  sched: Schedule | None = None,
                  refine: bool = True) -> np.ndarray:
    """Outpaint a long video clip by clip, stitched with `assemble`.

    Each clip after the first takes its first K frames verbatim from the
    clips already generated (all-ones masks), is sampled with seed offset
    by the clip index, is statistically matched to that overlap, and then
    has the given pixels restored. Overlapping frames keep the earliest
    clip's pixels. Returns a uint8 video of the full length.
    """
    config = config if config is not None else SamplerConfig()
    sched = sched if sched is not None else make_schedule()
    if video_u8.dtype != np.uint8:
        raise ValueError(f"long-video input must be uint8, got {video_u8.dtype}")
    _check_video(video_u8, M)
    plan = plan_clips(video_u8.shape[2], S_clip, K)
    video = from_u8(video_u8)
    source_u8 = video_u8.astype(np.int64)
    outs = []

    for i, (a, b) in enumerate(plan.ranges):
        clip_mask = M[:, :, a:b]
        x_masked = masked_input(video[:, :, a:b], clip_mask)
        if i == 0:
            cond, cond_mask = x_masked, clip_mask
        else:
            overlap = assemble(outs, replace(plan, ranges=plan.ranges[:i]), (a, a + K))
            prev = from_u8(overlap.astype(np.uint8))
            cond, cond_mask = build_condition(prev, x_masked, clip_mask, K)
        cfg_i = replace(config, seed=config.seed + i)
        z0 = sample(model, encode(cond), downsample_mask(cond_mask),
                    model.text_vector(), cfg_i, sched)
        out = to_u8(decode(z0)).astype(np.int64)
        if i > 0 and refine:
            out = refine_clip(out, overlap, K)
        outs.append(np.where(clip_mask == 1.0, source_u8[:, :, a:b], out))

    return assemble(outs, plan).astype(np.uint8)
