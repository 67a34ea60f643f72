"""Clip planning, overlap conditioning, and refiner tests.

The histogram-matching oracle here rebuilds the lookup by linear scan over
the template CDF (no searchsorted) and must agree with production exactly.
"""

import numpy as np
import pytest

from outpainter.longvideo import (
    assemble,
    build_condition,
    histogram_matching,
    match_lut,
    mean_variance_alignment,
    plan_clips,
    quantize_u8,
    refine_clip,
)


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
    x_bar, m_bar = build_condition(prev, cur_masked, cur_masks, 3)
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
    x_bar, _ = build_condition(prev, cur_masked, masks, K)
    np.testing.assert_array_equal(x_bar[:, :, K], long_masked[:, :, start + K])


def test_build_condition_errors():
    prev = np.zeros((4, 4, 1, 3))
    cur = np.zeros((4, 4, 8, 3))
    masks = np.ones((4, 4, 8, 1))
    with pytest.raises(ValueError):
        build_condition(prev, cur, masks, 2)  # prev too short
    with pytest.raises(ValueError):
        build_condition(np.zeros((4, 4, 8, 3)), cur, masks, 0)  # K=0 rejected
    with pytest.raises(ValueError):
        build_condition(np.zeros((4, 4, 8, 3)), cur, masks, 8)  # K >= S
    with pytest.raises(ValueError):
        build_condition(np.zeros((5, 4, 8, 3)), cur, masks, 2)  # spatial mismatch


# ---- mean/variance alignment -------------------------------------------------


def test_mv_alignment_identity_when_stats_match():
    rng = np.random.default_rng(3)
    src = rng.integers(0, 256, size=(4, 4, 3, 3)).astype(float)
    out = mean_variance_alignment(src, src.copy(), src, clip=False)
    assert np.abs(out - src).max() <= 1e-10


def test_mv_alignment_constant_shift_path():
    src = np.full((2, 2, 3, 3), 100.0)
    tmpl = np.full((2, 2, 3, 3), 150.0)
    target = np.full((2, 2, 5, 3), 100.0)
    target[0, 0, 0, 0] = 220.0
    out = mean_variance_alignment(src, tmpl, target)
    assert out[1, 1, 1, 1] == 150.0
    assert out[0, 0, 0, 0] == 255.0  # 220 + 50 clipped


def test_mv_alignment_reproduces_template_stats():
    rng = np.random.default_rng(4)
    for _ in range(20):
        K = int(rng.integers(1, 4))
        src = rng.integers(0, 256, size=(2, 2, K, 3)).astype(float)
        tmpl = rng.integers(0, 256, size=(2, 2, K, 3)).astype(float)
        out = mean_variance_alignment(src, tmpl, src, clip=False)
        for c in range(3):
            assert abs(out[..., c].mean() - tmpl[..., c].mean()) <= 1e-6
            assert abs(out[..., c].std() - tmpl[..., c].std()) <= 1e-6


def test_mv_alignment_same_transform_whole_clip():
    rng = np.random.default_rng(5)
    src = rng.integers(0, 256, size=(2, 2, 2, 3)).astype(float)
    tmpl = rng.integers(0, 256, size=(2, 2, 2, 3)).astype(float)
    target = rng.integers(0, 256, size=(2, 2, 6, 3)).astype(float)
    out = mean_variance_alignment(src, tmpl, target, clip=False)
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
    lut = match_lut(vals, vals.copy())
    for v in np.unique(vals):
        assert lut[v] == v


def test_lut_degenerate_all_zero_to_all_255():
    lut = match_lut(np.zeros(10, dtype=int), np.full(10, 255, dtype=int))
    assert (lut == 255).all()


def test_lut_spec_example_four_pixels():
    src = np.array([0, 0, 128, 255])
    tmpl = np.array([64, 64, 64, 255])
    lut = match_lut(src, tmpl)
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
        np.testing.assert_array_equal(match_lut(src, tmpl), brute_force_lut(src, tmpl))


def test_lut_monotone():
    rng = np.random.default_rng(8)
    for _ in range(30):
        src = rng.integers(0, 256, size=40)
        tmpl = rng.integers(0, 256, size=40)
        assert (np.diff(match_lut(src, tmpl)) >= 0).all()


def test_histogram_matching_applies_lut_per_channel():
    rng = np.random.default_rng(9)
    src = rng.integers(0, 256, size=(2, 2, 2, 3))
    tmpl = rng.integers(0, 256, size=(2, 2, 2, 3))
    tgt = rng.integers(0, 256, size=(2, 2, 5, 3))
    out = histogram_matching(src, tmpl, tgt)
    for c in range(3):
        lut = match_lut(src[..., c], tmpl[..., c])
        np.testing.assert_array_equal(out[..., c], lut[tgt[..., c]])


def test_histogram_matching_rejects_non_integers():
    ok = np.zeros((2, 2, 1, 3))
    with pytest.raises(ValueError):
        histogram_matching(ok + 0.5, ok, ok)
    with pytest.raises(ValueError):
        histogram_matching(ok, ok + 300, ok)
    with pytest.raises(ValueError):
        match_lut(np.array([]), np.array([0]))


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
    out = refine_clip(clip, tmpl, K=2)
    np.testing.assert_array_equal(out, clip)

    # on arbitrary data, values that occur in the overlap are exactly fixed
    clip2 = rng.integers(0, 256, size=(4, 4, 6, 3))
    tmpl2 = clip2[:, :, :2].copy()
    out2 = refine_clip(clip2, tmpl2, K=2)
    for c in range(3):
        occurring = np.unique(tmpl2[..., c])
        sel = np.isin(clip2[..., c], occurring)
        np.testing.assert_array_equal(out2[..., c][sel], clip2[..., c][sel])


def test_refine_clip_idempotent_up_to_rounding():
    rng = np.random.default_rng(11)
    for trial in range(10):
        clip = rng.integers(0, 256, size=(4, 4, 6, 3))
        tmpl = rng.integers(0, 256, size=(4, 4, 2, 3))
        once = refine_clip(clip, tmpl, K=2)
        twice = refine_clip(once, tmpl, K=2)
        assert np.abs(twice.astype(int) - once.astype(int)).max() <= 1, f"trial {trial}"


def test_refine_clip_overlap_mean_approaches_template():
    rng = np.random.default_rng(12)
    for _ in range(10):
        clip = rng.integers(30, 220, size=(6, 6, 8, 3))
        tmpl = rng.integers(30, 220, size=(6, 6, 3, 3))
        out = refine_clip(clip, tmpl, K=3)
        for c in range(3):
            assert abs(out[:, :, :3, ..., c].mean() - tmpl[..., c].mean()) <= 1.0


def test_refine_clip_stage_toggles():
    rng = np.random.default_rng(13)
    clip = rng.integers(0, 256, size=(4, 4, 5, 3))
    tmpl = rng.integers(0, 256, size=(4, 4, 2, 3))
    # mean/variance alignment quantized to 8 bits, then histogram matching
    # with the stage-one overlap frames as the source
    mv = quantize_u8(mean_variance_alignment(clip[:, :, :2].astype(float),
                                             tmpl.astype(float), clip.astype(float)))
    np.testing.assert_array_equal(refine_clip(clip, tmpl, K=2),
                                  histogram_matching(mv[:, :, :2], tmpl, mv))


def test_refine_clip_validation():
    clip = np.zeros((2, 2, 4, 3), dtype=int)
    tmpl = np.zeros((2, 2, 2, 3), dtype=int)
    with pytest.raises(ValueError):
        refine_clip(clip, tmpl, K=0)
    with pytest.raises(ValueError):
        refine_clip(clip, tmpl, K=4)
    with pytest.raises(ValueError):
        refine_clip(clip, np.zeros((2, 2, 3, 3), dtype=int), K=2)


# ---- assembly -----------------------------------------------------------------


def test_assemble_single_clip_identity():
    rng = np.random.default_rng(14)
    clip = rng.random((3, 3, 29, 3))
    plan = plan_clips(29, 29, 3)
    np.testing.assert_array_equal(assemble([clip], plan), clip)


def test_assemble_earlier_clip_wins_overlap():
    plan = plan_clips(55, 29, 3)
    clip0 = np.zeros((2, 2, 29, 3))
    clip1 = np.ones((2, 2, 29, 3))
    out = assemble([clip0, clip1], plan)
    assert out.shape == (2, 2, 55, 3)
    np.testing.assert_array_equal(out[:, :, :29], 0.0)  # includes overlap 26..28
    np.testing.assert_array_equal(out[:, :, 27], 0.0)  # frame 27 from clip 0
    np.testing.assert_array_equal(out[:, :, 29:], 1.0)


def test_assemble_window_matches_full_timeline():
    # (11, 5, 3): clips [0,5) [2,7) [4,9) [6,11); frame 4 lies in three clips
    rng = np.random.default_rng(15)
    plan = plan_clips(11, 5, 3)
    clips = [rng.random((2, 2, 5, 3)) for _ in plan.ranges]
    full = assemble(clips, plan)
    for window in ((0, 11), (4, 7), (3, 4), (6, 11), (10, 11)):
        np.testing.assert_array_equal(assemble(clips, plan, window), full[:, :, slice(*window)])


def test_assemble_validation():
    plan = plan_clips(55, 29, 3)
    with pytest.raises(ValueError):
        assemble([np.zeros((2, 2, 29, 3))], plan)
    with pytest.raises(ValueError):
        assemble([np.zeros((2, 2, 29, 3)), np.zeros((2, 2, 28, 3))], plan)
    clips = [np.zeros((2, 2, 29, 3))] * 2
    for window in ((-1, 3), (50, 56), (4, 4)):
        with pytest.raises(ValueError, match="window"):
            assemble(clips, plan, window)
