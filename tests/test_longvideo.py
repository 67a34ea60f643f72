"""Clip planning, overlap conditioning, and refiner tests.

The histogram-matching oracle here rebuilds the lookup by linear scan over
the template CDF (no searchsorted) and must agree with production exactly.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from outpainter.longvideo import (
    Histogram,
    build_condition,
    histogram_matching,
    mean_variance_alignment,
    plan_clips,
    refine_clip,
)
from outpainter.util import quantize_u8


def hists(src, tmpl):
    """The stage inputs: source and template values as Histograms."""
    return Histogram.of("source", src), Histogram.of("template", tmpl)


def level_map(source_vals, template_vals):
    """histogram_matching's 256-entry level map for one channel of values,
    as int64 so that np.diff cannot wrap."""
    levels = np.arange(256, dtype=np.uint8)[:, None]
    lut = histogram_matching(*hists(np.asarray(source_vals)[..., None],
                                    np.asarray(template_vals)[..., None]), levels)
    return lut[:, 0].astype(np.int64)


def brute_force_lut(source_vals, template_vals):
    """Independent CDF-matching: linear scan for the leftmost exact hit or
    the bracketing quantile pair, then the same linear interpolation."""
    counts_s = [0] * 256
    for v in np.asarray(source_vals).ravel():
        counts_s[int(v)] += 1
    counts_t = [0] * 256
    for v in np.asarray(template_vals).ravel():
        counts_t[int(v)] += 1
    n_s, n_t = sum(counts_s), sum(counts_t)
    q_s, acc = [], 0
    for c in counts_s:
        acc += c
        q_s.append(acc / n_s)
    q_t, acc = [], 0
    for c in counts_t:
        acc += c
        q_t.append(acc / n_t)

    lut = []
    for v in range(256):
        q = q_s[v]
        hit = None
        for j in range(256):
            if q_t[j] == q:
                hit = j
                break
            if q_t[j] > q:
                if j == 0:
                    hit = 0
                else:
                    frac = (q - q_t[j - 1]) / (q_t[j] - q_t[j - 1])
                    x = j - 1 + frac
                    hit = int(np.floor(x + 0.5))
                break
        lut.append(255 if hit is None else hit)
    return np.array(lut)


# ---- clip planning -------------------------------------------------------


def test_plan_single_clip():
    plan = plan_clips(29, 29, 3)
    assert plan.ranges == ((0, 29),)


def test_plan_315_frames_needs_12_clips():
    plan = plan_clips(315, 29, 3)
    assert len(plan.ranges) == 12
    starts = [s for s, _ in plan.ranges]
    assert starts == [26 * i for i in range(12)]
    assert plan.ranges[-1] == (286, 315)


def test_plan_two_clips():
    assert plan_clips(55, 29, 3).ranges == ((0, 29), (26, 55))


def test_plan_final_pullback():
    plan = plan_clips(30, 29, 3)
    assert plan.ranges == ((0, 29), (1, 30))


def test_plan_covers_and_overlaps():
    rng = np.random.default_rng(0)
    for _ in range(50):
        S = int(rng.integers(5, 40))
        K = int(rng.integers(1, S))
        S_l = int(rng.integers(S, 6 * S))
        plan = plan_clips(S_l, S, K)
        covered = np.zeros(S_l, dtype=bool)
        for s, e in plan.ranges:
            assert 0 <= s < e <= S_l and e - s == S
            covered[s:e] = True
        assert covered.all()
        assert plan.ranges[0][0] == 0 and plan.ranges[-1][1] == S_l
        for (s0, e0), (s1, e1) in zip(plan.ranges, plan.ranges[1:]):
            assert e0 - s1 >= K  # at least K-frame overlap (more on pull-back)
            if (s1, e1) != plan.ranges[-1]:
                assert s1 - s0 == S - K


def test_plan_errors():
    with pytest.raises(ValueError):
        plan_clips(20, 29, 3)
    with pytest.raises(ValueError):
        plan_clips(50, 29, 0)
    with pytest.raises(ValueError):
        plan_clips(50, 29, 29)


# ---- condition construction ------------------------------------------------


def test_build_condition_composition():
    rng = np.random.default_rng(1)
    prev = rng.random((4, 4, 29, 3))
    cur_masked = rng.random((4, 4, 29, 3))
    cur_masks = (rng.random((4, 4, 29, 1)) < 0.5).astype(float)
    x_bar, m_bar = build_condition(prev[:, :, -3:], cur_masked, cur_masks)
    np.testing.assert_array_equal(x_bar[:, :, :3], prev[:, :, -3:])
    np.testing.assert_array_equal(m_bar[:, :, :3], 1.0)
    np.testing.assert_array_equal(x_bar[:, :, 3:], cur_masked[:, :, 3:])
    np.testing.assert_array_equal(m_bar[:, :, 3:], cur_masks[:, :, 3:])
    assert (m_bar[:, :, :3] == 1.0).all() and m_bar[:, :, :3].size == 4 * 4 * 3


def test_build_condition_frame_k_bookkeeping():
    # frame K of the composed input must be the masked input frame at the
    # clip's global index start+K
    rng = np.random.default_rng(2)
    S, K = 8, 2
    long_masked = rng.random((4, 4, 20, 3))
    start = 6
    cur_masked = long_masked[:, :, start:start + S]
    prev = rng.random((4, 4, S, 3))
    masks = np.ones((4, 4, S, 1))
    x_bar, _ = build_condition(prev[:, :, -K:], cur_masked, masks)
    np.testing.assert_array_equal(x_bar[:, :, K], long_masked[:, :, start + K])


def test_build_condition_errors():
    cur = np.zeros((4, 4, 8, 3))
    masks = np.ones((4, 4, 8, 1))
    with pytest.raises(ValueError):
        build_condition(np.zeros((4, 4, 0, 3)), cur, masks)  # K=0 rejected
    with pytest.raises(ValueError):
        build_condition(np.zeros((4, 4, 8, 3)), cur, masks)  # K >= S
    with pytest.raises(ValueError):
        build_condition(np.zeros((5, 4, 2, 3)), cur, masks)  # spatial mismatch


# ---- mean/variance alignment -------------------------------------------------


def test_mv_alignment_identity_when_stats_match():
    rng = np.random.default_rng(3)
    src = rng.integers(0, 256, size=(4, 4, 3, 3)).astype(float)
    out = mean_variance_alignment(*hists(src, src.copy()), src)
    assert np.abs(out - src).max() <= 1e-10


def test_mv_alignment_constant_shift_path():
    src = np.full((2, 2, 3, 3), 100.0)
    tmpl = np.full((2, 2, 3, 3), 150.0)
    target = np.full((2, 2, 5, 3), 100.0)
    target[0, 0, 0, 0] = 220.0
    out = mean_variance_alignment(*hists(src, tmpl), target)
    assert out[1, 1, 1, 1] == 150.0
    assert out[0, 0, 0, 0] == 270.0  # 220 + 50, unclipped: quantize_u8 saturates


def test_mv_alignment_reproduces_template_stats():
    rng = np.random.default_rng(4)
    for _ in range(20):
        K = int(rng.integers(1, 4))
        src = rng.integers(0, 256, size=(2, 2, K, 3)).astype(float)
        tmpl = rng.integers(0, 256, size=(2, 2, K, 3)).astype(float)
        out = mean_variance_alignment(*hists(src, tmpl), src)
        for c in range(3):
            assert abs(out[..., c].mean() - tmpl[..., c].mean()) <= 1e-6
            assert abs(out[..., c].std() - tmpl[..., c].std()) <= 1e-6


def test_mv_alignment_same_transform_whole_clip():
    rng = np.random.default_rng(5)
    src = rng.integers(0, 256, size=(2, 2, 2, 3)).astype(float)
    tmpl = rng.integers(0, 256, size=(2, 2, 2, 3)).astype(float)
    target = rng.integers(0, 256, size=(2, 2, 6, 3)).astype(float)
    out = mean_variance_alignment(*hists(src, tmpl), target)
    # equal inputs in the same channel map to equal outputs
    flat_in = target[..., 0].ravel()
    flat_out = out[..., 0].ravel()
    for v in np.unique(flat_in):
        outs = flat_out[flat_in == v]
        assert np.ptp(outs) == 0.0


# ---- histogram matching ----------------------------------------------------


def test_lut_identity_for_occurring_values():
    rng = np.random.default_rng(6)
    vals = rng.integers(0, 256, size=500)
    lut = level_map(vals, vals.copy())
    for v in np.unique(vals):
        assert lut[v] == v


def test_lut_degenerate_all_zero_to_all_255():
    lut = level_map(np.zeros(10, dtype=int), np.full(10, 255, dtype=int))
    assert (lut == 255).all()


def test_lut_spec_example_four_pixels():
    src = np.array([0, 0, 128, 255])
    tmpl = np.array([64, 64, 64, 255])
    lut = level_map(src, tmpl)
    assert lut[0] == 64  # quantile 0.5 interpolated between (0@63) and (0.75@64)
    assert lut[128] == 64  # exact hit on 0.75, leftmost index of the run
    assert lut[255] == 255
    np.testing.assert_array_equal(lut, brute_force_lut(src, tmpl))


def test_lut_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n_s, n_t = int(rng.integers(1, 60)), int(rng.integers(1, 60))
        src = rng.integers(0, 256, size=n_s)
        tmpl = rng.integers(0, 256, size=n_t)
        np.testing.assert_array_equal(level_map(src, tmpl), brute_force_lut(src, tmpl))


def test_lut_monotone():
    rng = np.random.default_rng(8)
    for _ in range(30):
        src = rng.integers(0, 256, size=40)
        tmpl = rng.integers(0, 256, size=40)
        assert (np.diff(level_map(src, tmpl)) >= 0).all()


def test_histogram_matching_applies_lut_per_channel():
    rng = np.random.default_rng(9)
    src = rng.integers(0, 256, size=(2, 2, 2, 3))
    tmpl = rng.integers(0, 256, size=(2, 2, 2, 3))
    tgt = rng.integers(0, 256, size=(2, 2, 5, 3))
    out = histogram_matching(*hists(src, tmpl), tgt)
    for c in range(3):
        lut = brute_force_lut(src[..., c], tmpl[..., c])
        np.testing.assert_array_equal(out[..., c], lut[tgt[..., c]])


def test_histogram_matching_rejects_non_integers():
    ok = np.zeros((2, 2, 1, 3))
    with pytest.raises(ValueError):
        histogram_matching(*hists(ok + 0.5, ok), ok)
    with pytest.raises(ValueError):
        histogram_matching(*hists(ok, ok + 300), ok)
    with pytest.raises(ValueError):
        histogram_matching(*hists(ok, ok), ok + 0.5)
    with pytest.raises(ValueError):
        level_map(np.array([]), np.array([0]))


# ---- composed refiner ------------------------------------------------------


def test_refine_clip_identity_when_overlap_matches():
    # identity requires every clip value to occur in the overlap: values the
    # source histogram never saw legitimately snap to an occurring neighbor
    rng = np.random.default_rng(10)
    palette = np.array([7, 63, 130, 201, 255])
    clip = palette[rng.integers(0, 5, size=(4, 4, 6, 3))]
    clip[0, 0, 0] = palette[:3]  # make sure the overlap holds all values
    clip[1, 0, 0] = palette[3:][[0, 1, 0]]
    tmpl = clip[:, :, :2].copy()
    out = refine_clip(clip, tmpl)
    np.testing.assert_array_equal(out, clip)

    # on arbitrary data, values that occur in the overlap are exactly fixed
    clip2 = rng.integers(0, 256, size=(4, 4, 6, 3))
    tmpl2 = clip2[:, :, :2].copy()
    out2 = refine_clip(clip2, tmpl2)
    for c in range(3):
        occurring = np.unique(tmpl2[..., c])
        sel = np.isin(clip2[..., c], occurring)
        np.testing.assert_array_equal(out2[..., c][sel], clip2[..., c][sel])


def test_refine_clip_idempotent_up_to_rounding():
    rng = np.random.default_rng(11)
    for trial in range(10):
        clip = rng.integers(0, 256, size=(4, 4, 6, 3))
        tmpl = rng.integers(0, 256, size=(4, 4, 2, 3))
        once = refine_clip(clip, tmpl)
        twice = refine_clip(once.copy(), tmpl)  # refine_clip overwrites a uint8 clip
        assert np.abs(twice.astype(int) - once.astype(int)).max() <= 1, f"trial {trial}"


def test_refine_clip_overlap_mean_approaches_template():
    rng = np.random.default_rng(12)
    for _ in range(10):
        clip = rng.integers(30, 220, size=(6, 6, 8, 3))
        tmpl = rng.integers(30, 220, size=(6, 6, 3, 3))
        out = refine_clip(clip, tmpl)
        for c in range(3):
            assert abs(out[:, :, :3, ..., c].mean() - tmpl[..., c].mean()) <= 1.0


def test_refine_clip_stage_toggles():
    rng = np.random.default_rng(13)
    clip = rng.integers(0, 256, size=(4, 4, 5, 3))
    tmpl = rng.integers(0, 256, size=(4, 4, 2, 3))
    # mean/variance alignment quantized to 8 bits, then histogram matching
    # with the stage-one overlap frames as the source
    mv = quantize_u8(mean_variance_alignment(*hists(clip[:, :, :2], tmpl),
                                             clip.astype(float)))
    np.testing.assert_array_equal(refine_clip(clip, tmpl),
                                  histogram_matching(*hists(mv[:, :, :2], tmpl), mv))


@st.composite
def refine_cases(draw):
    """A uint8 clip, a K-frame template and K. Each channel's values lie in
    a drawn band, so a narrow clip band against a wide template band drives
    the alignment past 0 and 255, and a one-level band is a constant channel.
    C = 4 is an even channel count with two byte-pair phases."""
    H, W = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    S = draw(st.integers(2, 7))
    K = draw(st.integers(1, S - 1))
    C = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def banded(frames):
        out = np.empty((H, W, frames, C), dtype=np.uint8)
        for c in range(C):
            lo = draw(st.integers(0, 255))
            hi = draw(st.sampled_from([lo, min(lo + 3, 255), 255]))
            out[..., c] = rng.integers(lo, hi + 1, size=(H, W, frames))
        return out

    return banded(S), banded(K), K


def with_tail_examples(test):
    """test with an explicit refine case for every channel count 1..4 and
    every tail the refiner's byte pairs can leave. A clip's byte count is
    H*W*S*C and its pair period 2C (odd C) or C (even C), so the bytes left
    past the last whole period are 0, or C for odd C and odd H*W*S; the odd
    cases have odd H*W."""
    rng = np.random.default_rng(18)
    for C in range(1, 5):
        for H, W, S in ((2, 3, 4), (3, 5, 7)):
            test = example((rng.integers(0, 256, (H, W, S, C), dtype=np.uint8),
                            rng.integers(0, 256, (H, W, 2, C), dtype=np.uint8), 2))(test)
    return test


@given(refine_cases())
@with_tail_examples
@example((np.array([[[[0, 9, 250], [255, 9, 0], [128, 9, 3]]]], dtype=np.uint8),
          np.array([[[[90, 200, 0]]]], dtype=np.uint8), 1))
@example((np.array([[[[100, 7], [101, 7], [0, 7], [255, 8]]],
                    [[[102, 7], [103, 7], [40, 7], [200, 9]]]], dtype=np.uint8),
          np.array([[[[0, 0], [255, 30]]], [[[255, 60], [0, 90]]]], dtype=np.uint8), 2))
def test_refine_clip_equals_per_pixel_stages(case):
    # the 256-level tables give what running both stages on every pixel gives
    clip, tmpl, K = case
    mv = quantize_u8(mean_variance_alignment(*hists(clip[:, :, :K], tmpl),
                                             clip.astype(float)))
    want = histogram_matching(*hists(mv[:, :, :K], tmpl), mv)
    for dtype in (np.uint8, np.int64):
        got = refine_clip(clip.astype(dtype), tmpl.astype(dtype))
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want)


def frame_major(a):
    """The same values as a, in an (S, H, W, C)-ordered buffer."""
    return np.ascontiguousarray(a.transpose(2, 0, 1, 3)).transpose(1, 2, 0, 3)


@given(refine_cases())
@with_tail_examples
def test_refine_clip_same_bytes_for_any_layout(case):
    clip, tmpl, K = case
    want = refine_clip(clip.copy(), tmpl)
    got = refine_clip(frame_major(clip), frame_major(tmpl))
    assert got.tobytes(order="C") == want.tobytes(order="C")


@given(refine_cases())
def test_mv_alignment_same_for_any_layout(case):
    clip, tmpl, K = case
    levels = np.repeat(np.arange(256.0)[:, None], clip.shape[-1], axis=1)
    want = mean_variance_alignment(*hists(clip[:, :, :K], tmpl), levels)
    got = mean_variance_alignment(*hists(frame_major(clip)[:, :, :K], frame_major(tmpl)),
                                  levels)
    assert got.tobytes() == want.tobytes()


@given(refine_cases(), st.integers(0, 2**32 - 1))
def test_mapped_histogram_is_bincount_of_mapped_values(case, seed):
    clip, _, K = case
    C = clip.shape[-1]
    lut = np.random.default_rng(seed).integers(0, 256, (256, C), dtype=np.uint8)
    mapped = lut[clip[:, :, :K], np.arange(C)]
    want = np.stack([np.bincount(mapped[..., c].ravel(), minlength=256) for c in range(C)],
                    axis=1)
    np.testing.assert_array_equal(Histogram.of("clip", clip[:, :, :K]).mapped(lut).counts, want)


def test_histogram_moments_are_exact():
    # mean = S1/N and variance = (N*S2 - S1^2)/N^2, rounded once
    rng = np.random.default_rng(17)
    vals = rng.integers(0, 256, (9, 7, 3, 2))
    hist = Histogram.of("vals", vals)
    for c in range(2):
        x = [int(v) for v in vals[..., c].ravel()]
        n, s1, s2 = len(x), sum(x), sum(v * v for v in x)
        assert hist.moments(c) == (s1 / n, math.sqrt((n * s2 - s1 * s1) / (n * n)))


def test_refine_clip_memory_is_a_few_clips():
    # the stages run on (256, C) tables and the clip is mapped in place, so
    # only the K overlap frames' statistics scale with the clip; the byte-pair
    # tables and chunk buffers are a fixed 0.6 MB, which the small clip's
    # bound covers
    rng = np.random.default_rng(16)
    for H, W, bound in ((64, 64, 8.0), (240, 320, 0.5)):
        clip = rng.integers(0, 256, size=(H, W, 29, 3), dtype=np.uint8)
        tmpl = rng.integers(0, 256, size=(H, W, 3, 3), dtype=np.uint8)
        tracemalloc.start()
        try:
            refine_clip(clip, tmpl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * clip.nbytes, \
            f"{H}x{W}: peak {peak / clip.nbytes:.2f}x the clip's bytes"


def test_refine_clip_maps_a_uint8_clip_in_place():
    rng = np.random.default_rng(19)
    clip = rng.integers(0, 256, size=(5, 7, 6, 3), dtype=np.uint8)
    tmpl = rng.integers(0, 256, size=(5, 7, 2, 3), dtype=np.uint8)
    want = refine_clip(clip.astype(np.int64), tmpl)
    # the C and the frame-major layout are overwritten and returned
    for layout in (np.copy, frame_major):
        own = layout(clip)
        assert refine_clip(own, tmpl) is own
        np.testing.assert_array_equal(own, want)
    # any other clip is left as it was: another dtype, a slice, channel-major
    # strides, a read-only array
    doubled = np.repeat(clip, 2, axis=2)
    read_only = clip.copy()
    read_only.flags.writeable = False
    channel_major = np.ascontiguousarray(clip.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
    for other in (clip.astype(np.int64), doubled[:, :, ::2], channel_major, read_only):
        before = other.copy()
        got = refine_clip(other, tmpl)
        np.testing.assert_array_equal(other, before)
        np.testing.assert_array_equal(got, refine_clip(clip.copy(), tmpl))


def test_refine_clip_validation():
    # K is the template's frame count, and must lie in (0, S)
    clip = np.zeros((2, 2, 4, 3), dtype=int)
    for K in (0, 4):
        with pytest.raises(ValueError):
            refine_clip(clip, np.zeros((2, 2, K, 3), dtype=int))

