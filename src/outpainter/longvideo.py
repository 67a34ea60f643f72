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
histograms, and then maps the clip's bytes in the clip's own memory,
two bytes per lookup.
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


_HIST_CHUNK = 1 << 16  # values per bincount call in Histogram.of


@dataclass(frozen=True)
class Histogram:
    """Per-channel counts of 8-bit values: counts[v, c] is how often level
    v occurs in channel c (channels are the values' trailing axis)."""
    counts: np.ndarray  # (256, C) int64

    @classmethod
    def of(cls, name: str, values: np.ndarray) -> "Histogram":
        arr = _check_u8_values(name, values)
        counts = np.zeros((256, arr.shape[-1]), dtype=np.int64)
        for c in range(arr.shape[-1]):
            # bincount widens its input to intp, so it sees one bounded chunk
            # of the plane at a time, in any layout, not the whole plane
            for chunk in np.nditer(arr[..., c], flags=["external_loop", "buffered"],
                                   buffersize=_HIST_CHUNK):
                counts[:, c] += np.bincount(chunk, minlength=256)
        return cls(counts)

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


# byte pairs per lookup chunk: each chunk's intp index buffer is 256 KB
_CHUNK_PAIRS = 32768


def _byte_run(clip: np.ndarray) -> tuple:
    """(clip, run): run is the clip's memory as one flat writable uint8 view
    in which byte i belongs to channel i mod C, as in the C and the
    frame-major layout. A clip whose memory is not such a block (a slice,
    reversed or channel-major strides, read-only) is first copied into one."""
    # dense: the strides, sorted, step through one gapless block of bytes
    dense, step = True, 1
    for stride, n in sorted((s, n) for s, n in zip(clip.strides, clip.shape) if n > 1):
        dense, step = dense and stride == step, step * n
    if dense and clip.flags.writeable and (clip.shape[-1] == 1 or clip.strides[-1] == 1):
        return clip, np.ravel(clip, order="K")
    clip = clip.copy()  # C order, writable: a read-only C-ordered clip is copied too
    return clip, clip.ravel()


def _pair_tables(lut: np.ndarray) -> np.ndarray:
    """The (P, 65536) little-endian uint16 tables that map a byte pair to
    its two levels under the (256, C) uint8 table lut. Byte pairs repeat
    their channels every P = C (odd C) or C/2 (even C) pairs; pair phase p
    holds channels 2p and 2p+1 mod C, and its table is indexed by the pair's
    value, second byte * 256 + first byte."""
    C = lut.shape[1]
    P = C if C % 2 else C // 2
    col = lut.astype("<u2")
    tables = np.empty((P, 256, 256), dtype="<u2")
    for p in range(P):
        np.bitwise_or.outer(col[:, (2 * p + 1) % C] << 8, col[:, 2 * p % C], out=tables[p])
    return tables.reshape(P, 65536)


def _map_pairs(pairs: np.ndarray, tables: np.ndarray) -> None:
    """Send column p of the (n, P) byte-pair array through tables[p], in
    place, a chunk of rows at a time through two preallocated buffers."""
    idx = np.empty(min(len(pairs), _CHUNK_PAIRS), dtype=np.intp)
    out = np.empty(len(idx), dtype=tables.dtype)
    for r in range(0, len(pairs), _CHUNK_PAIRS):
        block = pairs[r:r + _CHUNK_PAIRS]
        i, o = idx[:len(block)], out[:len(block)]
        for p, table in enumerate(tables):
            np.copyto(i, block[:, p])
            # the indices cannot leave the table; mode="wrap" skips the check
            np.take(table, i, out=o, mode="wrap")
            block[:, p] = o


def refine_clip(clip: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Match a clip's colors to the previous clip via the K-frame overlap.

    clip and template hold 8-bit integer values; K is the template's frame
    count. Both stages take Histograms: the template's, and as source the
    histogram of the clip's own first K frames, pushed through the first
    stage's table before the second so the histogram step sees what it
    will actually transform. Both run on a (256, C) table of levels.

    The clip is then mapped in place: its memory, as one flat byte run,
    goes through per-phase byte-pair tables, and its last bytes short of a
    whole period go through the same tables from a zero-padded scratch.
    A uint8 clip in C or frame-major layout is overwritten and returned;
    any other clip is first copied (to uint8, or into one C-ordered block)
    and the refined copy is returned, the caller's array left as it was.
    """
    K = template.shape[2]
    if not 0 < K < clip.shape[2]:
        raise ValueError(f"template has {K} frames, need 0 < K < clip length {clip.shape[2]}")
    clip = _check_u8_values("clip", clip)
    src, tmpl = Histogram.of("clip", clip[:, :, :K]), Histogram.of("template", template)
    C = clip.shape[-1]
    levels = np.repeat(np.arange(256.0)[:, None], C, axis=1)
    lut = quantize_u8(mean_variance_alignment(src, tmpl, levels))
    lut = histogram_matching(src.mapped(lut), tmpl, lut)
    tables = _pair_tables(lut)
    P = len(tables)
    clip, run = _byte_run(clip)
    whole = run.size - run.size % (2 * P)
    _map_pairs(run[:whole].view("<u2").reshape(-1, P), tables)
    rest, scratch = run[whole:], np.zeros(2 * P, dtype=np.uint8)
    scratch[:rest.size] = rest
    _map_pairs(scratch.view("<u2").reshape(1, P), tables)
    rest[:] = scratch[:rest.size]
    return clip
