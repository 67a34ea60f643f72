"""Long-video scheduling: overlapping clips, overlap conditioning, and the
statistical cross-clip refiner.

A long video is generated clip by clip. Each clip reuses the K frames it
shares with the already-generated output as fully-given condition frames,
and its colors are then matched to the previous clip through the shared
overlap: first a per-channel mean/variance alignment, then 256-bin
histogram matching. Both map each 8-bit level to one level, so the refiner
runs them on a table of the 256 levels and gathers its uint8 clip through it.
"""

from dataclasses import dataclass

import numpy as np

from .util import quantize_u8, round_half_away


@dataclass(frozen=True)
class ClipPlan:
    ranges: tuple  # ((start, end), ...) over [0, S_l)
    S: int
    K: int


def plan_clips(S_l: int, S: int, K: int) -> ClipPlan:
    """Stride S-K clip ranges covering [0, S_l).

    If the last stride would overrun, the final clip's start is pulled
    back so it ends exactly at S_l (enlarging its overlap) instead of
    padding past the end.
    """
    if not 0 < K < S:
        raise ValueError(f"need 0 < K < S, got K={K}, S={S}")
    if S_l < S:
        raise ValueError(f"total length {S_l} shorter than clip length {S}")
    starts = [0]
    while starts[-1] + S < S_l:
        nxt = starts[-1] + (S - K)
        if nxt + S > S_l:
            nxt = S_l - S
        starts.append(nxt)
    return ClipPlan(ranges=tuple((s, s + S) for s in starts), S=S, K=K)


def build_condition(prev_clip_out: np.ndarray, cur_masked: np.ndarray,
                    cur_masks: np.ndarray, K: int):
    """Compose a clip input whose first K frames are already outpainted.

    prev_clip_out supplies the condition frames (its last K frames; the
    pipeline passes exactly the frames generated at this clip's first K
    global positions). The rest of the clip keeps its masked input frames
    and outpainting masks; the condition frames get all-ones masks.
    """
    if K <= 0:
        raise ValueError(f"overlap K must be positive, got {K}")
    if prev_clip_out.shape[2] < K:
        raise ValueError(f"previous clip has {prev_clip_out.shape[2]} frames, need >= {K}")
    S = cur_masked.shape[2]
    if K >= S:
        raise ValueError(f"overlap K={K} must be smaller than clip length {S}")
    if cur_masks.shape != cur_masked.shape[:3] + (1,):
        raise ValueError(f"mask shape {cur_masks.shape} does not match clip")
    if prev_clip_out.shape[:2] != cur_masked.shape[:2]:
        raise ValueError("previous clip spatial shape differs from current clip")

    x_bar = cur_masked.copy()
    m_bar = cur_masks.copy()
    x_bar[:, :, :K] = prev_clip_out[:, :, -K:]
    m_bar[:, :, :K] = 1.0
    return x_bar, m_bar


def _check_u8_values(name: str, a: np.ndarray) -> np.ndarray:
    arr = np.asarray(a)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if arr.dtype != np.uint8:  # a uint8 array is bounded by its dtype
        vals = arr.astype(np.float64)
        if not ((vals >= 0) & (vals <= 255)).all() or not (vals == np.floor(vals)).all():
            raise ValueError(f"{name} must hold integers in [0, 255]")
    return arr.astype(np.uint8, copy=False)


def mean_variance_alignment(source: np.ndarray, template: np.ndarray, target: np.ndarray,
                            clip: bool = True) -> np.ndarray:
    """Affine-map target so source's per-channel stats become template's.

    Channels are the trailing axis; statistics pool every other axis of
    the K-frame source/template stacks. The same scale and shift apply to
    the whole target clip. A zero-variance source channel degrades to a
    pure shift. Returns floats; clipping to [0, 255] is on by default.
    """
    if source.shape[-1] != template.shape[-1] or source.shape[-1] != target.shape[-1]:
        raise ValueError("channel counts disagree")
    src = np.asarray(source, dtype=np.float64)
    tmpl = np.asarray(template, dtype=np.float64)
    out = np.asarray(target, dtype=np.float64).copy()
    C = src.shape[-1]
    axes = tuple(range(src.ndim - 1))
    mu_s, sd_s = src.mean(axis=axes), src.std(axis=axes)
    mu_t, sd_t = tmpl.mean(axis=axes), tmpl.std(axis=axes)
    for c in range(C):
        if sd_s[c] == 0.0:
            out[..., c] += mu_t[c] - mu_s[c]
        else:
            out[..., c] = (out[..., c] - mu_s[c]) * (sd_t[c] / sd_s[c]) + mu_t[c]
    if clip:
        out = np.clip(out, 0.0, 255.0)
    return out


def match_lut(source_channel: np.ndarray, template_channel: np.ndarray) -> np.ndarray:
    """256-entry lookup mapping source values onto the template distribution.

    Both histograms become normalized CDFs; a source value's quantile is
    located in the template CDF by leftmost exact hit, otherwise by
    piecewise-linear interpolation between the bracketing template
    quantiles (clamped at both ends). The result is monotone.
    """
    src = _check_u8_values("source", source_channel)
    tmpl = _check_u8_values("template", template_channel)
    q_s = np.cumsum(np.bincount(src.ravel(), minlength=256)) / src.size
    q_t = np.cumsum(np.bincount(tmpl.ravel(), minlength=256)) / tmpl.size

    lut = np.empty(256, dtype=np.int64)
    for v in range(256):
        q = q_s[v]
        j = int(np.searchsorted(q_t, q, side="left"))
        if j >= 256:
            lut[v] = 255
        elif q_t[j] == q:
            lut[v] = j
        elif j == 0:
            lut[v] = 0
        else:
            frac = (q - q_t[j - 1]) / (q_t[j] - q_t[j - 1])
            lut[v] = round_half_away(j - 1 + frac)
    return lut


def histogram_matching(source: np.ndarray, template: np.ndarray,
                       target: np.ndarray) -> np.ndarray:
    """Per-channel LUT from (source, template) applied to the whole target."""
    if source.shape[-1] != template.shape[-1] or source.shape[-1] != target.shape[-1]:
        raise ValueError("channel counts disagree")
    tgt = _check_u8_values("target", target)
    out = np.empty_like(tgt)
    for c in range(source.shape[-1]):
        lut = match_lut(source[..., c], template[..., c])
        out[..., c] = lut[tgt[..., c]]
    return out


def refine_clip(clip: np.ndarray, template: np.ndarray, K: int) -> np.ndarray:
    """Match a clip's colors to the previous clip via the K-frame overlap.

    clip and template hold 8-bit integer values; the source statistics come
    from the clip's own first K frames (recomputed after the first stage so
    the histogram step sees what it will actually transform). Both stages
    run on a (256, C) table of levels, which the clip is gathered through into uint8.
    """
    if K <= 0 or K >= clip.shape[2]:
        raise ValueError(f"overlap K={K} outside (0, {clip.shape[2]})")
    if template.shape[2] != K:
        raise ValueError(f"template has {template.shape[2]} frames, expected {K}")
    clip = _check_u8_values("clip", clip)
    tmpl = _check_u8_values("template", template)
    levels = np.repeat(np.arange(256.0)[:, None], clip.shape[-1], axis=1)
    lut = quantize_u8(mean_variance_alignment(clip[:, :, :K], tmpl, levels))
    lut = histogram_matching(lut[clip[:, :, :K], np.arange(clip.shape[-1])], tmpl, lut)
    out = np.empty_like(clip)
    for c in range(clip.shape[-1]):
        np.take(lut[:, c], clip[..., c], out=out[..., c])
    return out


def assemble(clips: list, plan: ClipPlan, window: tuple[int, int] | None = None) -> np.ndarray:
    """Stitch clips onto the S_l timeline; earlier clips win on overlaps
    (a later clip's overlap frames are conditioned copies).

    With `window=(start, end)` only frames [start, end) of the timeline
    are built and returned, each taken from the same clip as without it.
    """
    if len(clips) != len(plan.ranges):
        raise ValueError(f"{len(clips)} clips for {len(plan.ranges)} planned ranges")
    S_l = plan.ranges[-1][1]
    lo, hi = (0, S_l) if window is None else window
    if not 0 <= lo < hi <= S_l:
        raise ValueError(f"window [{lo},{hi}) is not inside the timeline [0,{S_l})")
    H, W, _, C = clips[0].shape
    out = np.empty((H, W, hi - lo, C), dtype=np.asarray(clips[0]).dtype)
    written = np.zeros(hi - lo, dtype=bool)
    for clip, (start, end) in zip(reversed(clips), reversed(plan.ranges)):
        if clip.shape[2] != end - start:
            raise ValueError(f"clip has {clip.shape[2]} frames for range [{start},{end})")
        a, b = max(start, lo), min(end, hi)
        if a < b:
            out[:, :, a - lo:b - lo] = clip[:, :, a - start:b - start]
            written[a - lo:b - lo] = True
    if not written.all():
        raise ValueError("plan does not cover every frame")
    return out
