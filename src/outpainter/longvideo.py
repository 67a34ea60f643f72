"""Long-video scheduling: overlapping clips, overlap conditioning, and the
statistical cross-clip refiner.

A long video is generated clip by clip into one output video. Each clip
reuses the K frames at its start, which earlier clips already wrote to
that output, as fully-given condition frames, and its colors are then
matched to the previous clip through the shared overlap: first a
per-channel mean/variance alignment, then 256-bin histogram matching.
Each stage takes the source and template overlaps as 256-bin Histograms
and maps each 8-bit level to one level, so the refiner runs both on a
table of the 256 levels, takes exact integer moments from the
histograms, and gathers its uint8 clip through the table.
"""

import math
from dataclasses import dataclass

import numpy as np

from .util import quantize_u8, round_half_away


@dataclass(frozen=True)
class ClipPlan:
    ranges: tuple  # ((start, end), ...) over [0, S_l)


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
    return ClipPlan(ranges=tuple((s, s + S) for s in starts))


def build_condition(overlap: np.ndarray, cur_masked: np.ndarray, cur_masks: np.ndarray):
    """Compose a clip input whose first K frames are already outpainted.

    overlap supplies the K condition frames, K being its frame count (the
    pipeline passes the frames generated at this clip's first K global
    positions). The rest of the clip keeps its masked input frames and
    outpainting masks; the condition frames get all-ones masks. The frames
    may be pixels or latents: only the (h, w, s) axes are read.
    """
    K, S = overlap.shape[2], cur_masked.shape[2]
    if not 0 < K < S:
        raise ValueError(f"overlap has {K} frames, need 0 < K < clip length {S}")
    if cur_masks.shape != cur_masked.shape[:3] + (1,):
        raise ValueError(f"mask shape {cur_masks.shape} does not match clip")
    if overlap.shape[:2] != cur_masked.shape[:2]:
        raise ValueError("overlap spatial shape differs from current clip")

    x_bar = cur_masked.copy()
    m_bar = cur_masks.copy()
    x_bar[:, :, :K] = overlap
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


@dataclass(frozen=True)
class Histogram:
    """Per-channel counts of 8-bit values: counts[v, c] is how often level
    v occurs in channel c (channels are the values' trailing axis)."""
    counts: np.ndarray  # (256, C) int64

    @classmethod
    def of(cls, name: str, values: np.ndarray) -> "Histogram":
        arr = _check_u8_values(name, values)
        return cls(np.stack([np.bincount(arr[..., c].ravel(order="K"), minlength=256)
                             for c in range(arr.shape[-1])], axis=1))

    def mapped(self, lut: np.ndarray) -> "Histogram":
        """The histogram of the same values after level v of channel c
        becomes lut[v, c]; no pass over the values."""
        counts = np.zeros_like(self.counts)
        np.add.at(counts, (lut, np.arange(lut.shape[1])), self.counts)
        return Histogram(counts)

    def moments(self, c: int) -> tuple:
        """Channel c's mean and standard deviation, each the float nearest
        the exact value: mean = S1/N, variance = (N*S2 - S1^2)/N^2 over the
        integer power sums, whatever the values' memory order."""
        counts = self.counts[:, c]
        levels = np.arange(256, dtype=np.int64)
        n, s1, s2 = (int(v) for v in (counts.sum(), counts @ levels, counts @ levels ** 2))
        return s1 / n, math.sqrt((n * s2 - s1 * s1) / (n * n))


def _check_channels(src: Histogram, tmpl: Histogram, channels: int) -> None:
    if src.counts.shape[1] != channels or tmpl.counts.shape[1] != channels:
        raise ValueError("channel counts disagree")


def mean_variance_alignment(src: Histogram, tmpl: Histogram, target: np.ndarray) -> np.ndarray:
    """Affine-map target so src's per-channel stats become tmpl's.

    src and tmpl are Histograms of 8-bit values (statistics pool every
    value of a channel). The same scale and shift apply to the whole
    target; a zero-variance source channel degrades to a pure shift.
    Returns unclipped floats.
    """
    out = np.asarray(target, dtype=np.float64).copy()
    _check_channels(src, tmpl, out.shape[-1])
    for c in range(out.shape[-1]):
        mu_s, sd_s = src.moments(c)
        mu_t, sd_t = tmpl.moments(c)
        if sd_s == 0.0:
            out[..., c] += mu_t - mu_s
        else:
            out[..., c] = (out[..., c] - mu_s) * (sd_t / sd_s) + mu_t
    return out


def _cdf_lut(counts_s: np.ndarray, counts_t: np.ndarray) -> np.ndarray:
    q_s = np.cumsum(counts_s) / counts_s.sum()
    q_t = np.cumsum(counts_t) / counts_t.sum()
    # per source level, the case that applies last wins: interpolation
    # between the bracketing template quantiles, the clamp below the first,
    # a leftmost exact hit, the clamp past the last
    j = np.searchsorted(q_t, q_s, side="left")
    hit = np.minimum(j, 255)
    below = q_t[np.maximum(hit - 1, 0)]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (q_s - below) / (q_t[hit] - below)
    lut = round_half_away(hit - 1 + frac)
    lut[j == 0] = 0
    exact = q_t[hit] == q_s
    lut[exact] = hit[exact]
    lut[j >= 256] = 255
    return lut.astype(np.int64)


def histogram_matching(src: Histogram, tmpl: Histogram, target: np.ndarray) -> np.ndarray:
    """Map each channel of the 8-bit target onto tmpl's distribution.

    Per channel, both histograms become normalized CDFs, and a 256-entry
    lookup sends each source level's quantile to the template CDF's
    leftmost exact hit, otherwise to the piecewise-linear interpolation
    between the bracketing template quantiles (clamped at both ends). The
    lookup is monotone and is applied to the whole target.
    """
    tgt = _check_u8_values("target", target)
    _check_channels(src, tmpl, tgt.shape[-1])
    out = np.empty_like(tgt)
    for c in range(tgt.shape[-1]):
        out[..., c] = _cdf_lut(src.counts[:, c], tmpl.counts[:, c])[tgt[..., c]]
    return out


def refine_clip(clip: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Match a clip's colors to the previous clip via the K-frame overlap.

    clip and template hold 8-bit integer values; K is the template's frame
    count. Both stages take Histograms: the template's, and as source the
    histogram of the clip's own first K frames, pushed through the first
    stage's table before the second so the histogram step sees what it
    will actually transform. Both run on a (256, C) table of levels; the
    clip is then gathered through the table one frame plane at a time into
    a frame-major uint8 buffer, whose (H, W, S, C) view is returned.
    """
    K = template.shape[2]
    if not 0 < K < clip.shape[2]:
        raise ValueError(f"template has {K} frames, need 0 < K < clip length {clip.shape[2]}")
    clip = _check_u8_values("clip", clip)
    src, tmpl = Histogram.of("clip", clip[:, :, :K]), Histogram.of("template", template)
    H, W, S, C = clip.shape
    levels = np.repeat(np.arange(256.0)[:, None], C, axis=1)
    lut = quantize_u8(mean_variance_alignment(src, tmpl, levels))
    lut = histogram_matching(src.mapped(lut), tmpl, lut)
    frames = np.empty((S, H, W, C), dtype=np.uint8)
    # uint8 indices cannot leave the table, and mode="wrap" lets take write
    # the strided channel plane directly instead of through a buffer
    for s in range(S):
        for c in range(C):
            np.take(lut[:, c], clip[:, :, s, c], out=frames[s, :, :, c], mode="wrap")
    return frames.transpose(1, 2, 0, 3)

