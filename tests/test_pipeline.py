"""Evaluation masks, blending, and the outpainting drivers."""

import numpy as np
import pytest

from outpainter.backbone import BackboneConfig
from outpainter.codec import decode, downsample_mask, encode
from outpainter.diffusion import SamplerConfig, make_schedule, sample
from outpainter.model import OutpaintingModel
from outpainter.pipeline import (EvalMaskSpec, make_eval_mask, masked_input,
                                 outpaint_long, outpaint_video)
from outpainter.util import from_u8, to_u8


def tiny_model(seed=0):
    cfg = BackboneConfig(n_blocks=2, d_model=16, n_heads=2, control_hidden=8)
    return OutpaintingModel(cfg, seed=seed)


def test_eval_mask_spec_validation():
    with pytest.raises(ValueError):
        EvalMaskSpec(ratio=0.0)
    with pytest.raises(ValueError):
        EvalMaskSpec(ratio=1.0)
    with pytest.raises(ValueError):
        EvalMaskSpec(ratio=0.5, direction="diagonal")


def test_eval_mask_quarter_width_100():
    """ratio 0.25 on width 100: generate 12 left + 13 right, given 12..86."""
    M = make_eval_mask(EvalMaskSpec(0.25), H=8, W=100, S=3)
    assert M.shape == (8, 100, 3, 1)
    cols = M[0, :, 0, 0]
    assert (cols[:12] == 0).all()
    assert (cols[12:87] == 1).all()
    assert cols.sum() == 75
    assert (cols[87:] == 0).all()


def test_eval_mask_two_thirds():
    M = make_eval_mask(EvalMaskSpec(0.66), H=4, W=100, S=2)
    cols = M[0, :, 0, 0]
    assert (cols == 0).sum() == 66
    assert (cols == 1).sum() == 34
    assert (cols[:33] == 0).all() and (cols[67:] == 0).all()


def test_eval_mask_frame_constant():
    M = make_eval_mask(EvalMaskSpec(0.4), H=8, W=20, S=5)
    for s in range(1, 5):
        np.testing.assert_array_equal(M[:, :, s], M[:, :, 0])


def test_eval_mask_vertical():
    M = make_eval_mask(EvalMaskSpec(0.25, "vertical"), H=16, W=8, S=2)
    rows = M[:, 0, 0, 0]
    # total 4, split 2/2
    assert (rows[:2] == 0).all() and (rows[2:14] == 1).all() and (rows[14:] == 0).all()


def test_eval_mask_rejects_empty_side():
    # total rounds to 1: nothing to generate on the left
    with pytest.raises(ValueError):
        make_eval_mask(EvalMaskSpec(0.1), H=4, W=10, S=1)


def test_eval_mask_rejects_no_given():
    with pytest.raises(ValueError):
        make_eval_mask(EvalMaskSpec(0.99), H=4, W=8, S=1)


def test_masked_input_fill():
    rng = np.random.default_rng(0)
    video = rng.random((4, 8, 2, 3))
    M = make_eval_mask(EvalMaskSpec(0.5), H=4, W=8, S=2)
    x = masked_input(video, M)
    np.testing.assert_array_equal(x[:, 2:6], video[:, 2:6])
    assert (x[:, :2] == 0.5).all() and (x[:, 6:] == 0.5).all()


def test_blend_checkerboard_oracle():
    rng = np.random.default_rng(1)
    gen = rng.random((4, 4, 2, 3))
    orig = rng.random((4, 4, 2, 3))
    M = np.zeros((4, 4, 2, 1))
    for i in range(4):
        for j in range(4):
            for s in range(2):
                M[i, j, s, 0] = (i + j + s) % 2
    out = masked_input(orig, M, gen)
    for i in range(4):
        for j in range(4):
            for s in range(2):
                want = orig[i, j, s] if M[i, j, s, 0] == 1 else gen[i, j, s]
                np.testing.assert_array_equal(out[i, j, s], want)


def test_outpaint_video_given_region_bit_exact():
    """Even an untrained model must leave the given region untouched."""
    model = tiny_model()
    rng = np.random.default_rng(2)
    video = rng.random((8, 8, 4, 3))
    M = make_eval_mask(EvalMaskSpec(0.5), 8, 8, 4)
    out = outpaint_video(model, video, M, SamplerConfig(steps=3, cfg_scale=1.0, seed=0))
    assert out.shape == video.shape
    assert (out >= 0).all() and (out <= 1).all()
    sel = np.broadcast_to(M == 1.0, video.shape)
    np.testing.assert_array_equal(out[sel], video[sel])
    # the generated region must actually be generated, not fill
    assert not np.array_equal(out, video)


def test_outpaint_video_deterministic():
    model = tiny_model()
    rng = np.random.default_rng(3)
    video = rng.random((8, 8, 2, 3))
    M = make_eval_mask(EvalMaskSpec(0.5), 8, 8, 2)
    a = outpaint_video(model, video, M, SamplerConfig(steps=2, cfg_scale=3.0, seed=7))
    b = outpaint_video(model, video, M, SamplerConfig(steps=2, cfg_scale=3.0, seed=7))
    c = outpaint_video(model, video, M, SamplerConfig(steps=2, cfg_scale=3.0, seed=8))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_outpaint_video_samples_on_the_model_schedule():
    """The sampler runs on model.sched: a T=50 model gives exactly the
    round trip through sample() on a T=50 schedule."""
    model = tiny_model()
    model.sched = make_schedule(T=50)
    video = np.random.default_rng(4).random((8, 8, 2, 3))
    M = make_eval_mask(EvalMaskSpec(0.5), 8, 8, 2)
    config = SamplerConfig(steps=5, cfg_scale=3.0, seed=2)
    z0 = sample(model, encode(masked_input(video, M)), downsample_mask(M),
                model.text_vector(), config, make_schedule(T=50))
    want = masked_input(video, M, np.clip(decode(z0), 0.0, 1.0))
    np.testing.assert_array_equal(outpaint_video(model, video, M, config), want)
    assert not np.array_equal(outpaint_video(tiny_model(), video, M, config), want)


def test_outpaint_long_samples_every_clip_on_the_model_schedule(monkeypatch):
    seen = []

    def spy_sample(model, z_masked, m, text_embed, config, sched):
        seen.append(sched)
        return sample(model, z_masked, m, text_embed, config, sched)

    monkeypatch.setattr("outpainter.pipeline.sample", spy_sample)
    model = tiny_model()
    model.sched = make_schedule(T=20)
    video_u8, M = make_long_inputs()
    outpaint_long(model, video_u8, M, 4, 2, config=SamplerConfig(steps=2, cfg_scale=1.0))
    assert len(seen) == 2 and all(sched is model.sched for sched in seen)


class CountingModel:
    """A model that counts the calls made to it."""

    def __init__(self, model):
        self.model, self.calls = model, 0

    def __getattr__(self, name):
        attr = getattr(self.model, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


def bad_inputs(video, M):
    """(video, mask) pairs the codec refuses: a height that is no multiple
    of the patch, a non-binary mask in the first and in the last frame
    (which only a long video's last clip covers), and masks with too few
    or too many frames."""
    bad, bad_last = M.copy(), M.copy()
    bad[0, 0, 0, 0] = 0.5
    bad_last[0, 0, -1, 0] = 0.5
    longer = np.concatenate([M, M[:, :, :1]], axis=2)
    return [(video[:6], M[:6]), (video, bad), (video, bad_last), (video, M[:, :, :1]),
            (video, longer)]


def test_outpaint_video_validation():
    model = CountingModel(tiny_model())
    M = np.zeros((8, 8, 2, 1))
    M[:, 2:6] = 1.0
    for video, mask in bad_inputs(np.zeros((8, 8, 2, 3)), M):
        with pytest.raises(ValueError):
            outpaint_video(model, video, mask, SamplerConfig(steps=2))
    assert model.calls == 0
    outpaint_video(model, np.zeros((8, 8, 2, 3)), M, SamplerConfig(steps=2))
    assert model.calls > 0  # the counter sees the calls a run makes


def make_long_inputs(S_l=6, seed=4):
    rng = np.random.default_rng(seed)
    video_u8 = rng.integers(0, 256, (8, 8, S_l, 3), dtype=np.uint8)
    M = make_eval_mask(EvalMaskSpec(0.5), 8, 8, S_l)
    return video_u8, M


def test_outpaint_long_shape_dtype_and_given_region():
    model = tiny_model()
    video_u8, M = make_long_inputs()
    cfg = SamplerConfig(steps=2, cfg_scale=1.0, seed=0)
    out = outpaint_long(model, video_u8, M, S_clip=4, K=2, config=cfg)
    assert out.shape == video_u8.shape
    assert out.dtype == np.uint8
    sel = np.broadcast_to(M == 1.0, video_u8.shape)
    np.testing.assert_array_equal(out[sel], video_u8[sel])


def test_outpaint_long_first_clip_matches_single_clip_call():
    """Frames covered by the first clip are exactly a single-clip outpaint."""
    model = tiny_model()
    video_u8, M = make_long_inputs()
    cfg = SamplerConfig(steps=2, cfg_scale=1.0, seed=5)
    long_out = outpaint_long(model, video_u8, M, S_clip=4, K=2, config=cfg)
    single = outpaint_video(model, from_u8(video_u8[:, :, :4]), M[:, :, :4], cfg)
    np.testing.assert_array_equal(long_out[:, :, :4], to_u8(single))


def test_outpaint_long_deterministic():
    model = tiny_model()
    video_u8, M = make_long_inputs()
    cfg = SamplerConfig(steps=2, cfg_scale=1.0, seed=1)
    a = outpaint_long(model, video_u8, M, 4, 2, config=cfg)
    b = outpaint_long(model, video_u8, M, 4, 2, config=cfg)
    np.testing.assert_array_equal(a, b)
    c = outpaint_long(model, video_u8, M, 4, 2,
                      config=SamplerConfig(steps=2, cfg_scale=1.0, seed=2))
    assert not np.array_equal(a, c)


class SpyModel:
    """Wraps a model and records every (z_masked, m) handed to it."""

    def __init__(self, inner):
        self.inner = inner
        self.sched = inner.sched
        self.calls = []

    def condition(self, z_masked, m):
        return self.inner.condition(z_masked, m)

    def predict_eps(self, z_t, t, z_masked, m, text_embed=None, cond=None):
        self.calls.append((z_masked.copy(), m.copy()))
        return self.inner.predict_eps(z_t, t, z_masked, m, text_embed, cond=cond)

    def text_vector(self):
        return self.inner.text_vector()


def test_outpaint_long_overlap_conditioning():
    """The second clip's first K frames arrive fully given: all-ones latent
    masks and latents encoding the returned video's overlap frames."""
    model = tiny_model()
    spy = SpyModel(model)
    video_u8, M = make_long_inputs()
    steps = 2
    cfg = SamplerConfig(steps=steps, cfg_scale=1.0, seed=0)
    out = outpaint_long(spy, video_u8, M, S_clip=4, K=2, config=cfg)
    # clips: [0,4) then [2,6); each samples `steps` times at cfg_scale 1
    assert len(spy.calls) == 2 * steps
    prev_frames = from_u8(out[:, :, 2:4])  # first clip's output at the overlap
    want_latents = encode(prev_frames)
    for z_masked, m in spy.calls[steps:]:
        assert (m[:, :, :2] == 1.0).all()
        np.testing.assert_array_equal(z_masked[:, :, :2], want_latents)
        # beyond the overlap the original outpainting mask survives
        np.testing.assert_array_equal(m[:, :, 2:], downsample_mask(M[:, :, 4:6]))


def test_outpaint_long_overlap_spans_earlier_clips():
    """Plan (7, 4, 3) gives clips [0,4) [1,5) [2,6) [3,7): the last clip's
    overlap frames 3, 4, 5 were first generated by three different clips.
    Every clip's condition latents encode the returned video's frames
    a..a+K, which keep the earliest clip's pixels."""
    model = tiny_model()
    spy = SpyModel(model)
    video_u8, M = make_long_inputs(S_l=7)
    steps, K = 2, 3
    cfg = SamplerConfig(steps=steps, cfg_scale=1.0, seed=3)
    out = outpaint_long(spy, video_u8, M, S_clip=4, K=K, config=cfg)
    assert len(spy.calls) == 4 * steps
    for i, a in enumerate((1, 2, 3), start=1):
        want_latents = encode(from_u8(out[:, :, a:a + K]))
        for z_masked, m in spy.calls[i * steps:(i + 1) * steps]:
            assert (m[:, :, :K] == 1.0).all()
            np.testing.assert_array_equal(z_masked[:, :, :K], want_latents)
            np.testing.assert_array_equal(m[:, :, K:], downsample_mask(M[:, :, a + K:a + 4]))


def test_outpaint_long_earliest_clip_wins(monkeypatch):
    """Plan (11, 5, 3) gives clips [0,5) [2,7) [4,9) [6,11), so frame 4
    lies in three clips. Clip i's sampled latents decode to the constant
    level seed + i; every generated pixel of frame f carries the level of
    the earliest clip covering f, and each clip's condition frames are the
    returned video's frames a..a+K."""
    K, seed = 3, 10
    starts = (0, 2, 4, 6)
    conditions = []

    def constant_sample(model, z_masked, m, text_embed, config, sched):
        conditions.append(z_masked[:, :, :K].copy())
        return encode(np.full(decode(z_masked).shape, config.seed / 255.0))

    monkeypatch.setattr("outpainter.pipeline.sample", constant_sample)
    video_u8, M = make_long_inputs(S_l=11)
    cfg = SamplerConfig(steps=2, cfg_scale=1.0, seed=seed)
    out = outpaint_long(tiny_model(), video_u8, M, S_clip=5, K=K, config=cfg,
                        refine=False)
    assert len(conditions) == len(starts)
    generated = M[..., 0] == 0.0
    for f in range(11):
        first = next(i for i, a in enumerate(starts) if a <= f < a + 5)
        np.testing.assert_array_equal(out[:, :, f][generated[:, :, f]], seed + first)
    for a, z_cond in zip(starts[1:], conditions[1:]):
        np.testing.assert_array_equal(z_cond, encode(from_u8(out[:, :, a:a + K])))


def test_outpaint_long_rejects_float_input():
    model = tiny_model()
    video_u8, M = make_long_inputs()
    with pytest.raises(ValueError):
        outpaint_long(model, video_u8.astype(np.float64), M, 4, 2,
                      config=SamplerConfig(steps=2))


def test_outpaint_long_validation():
    model = CountingModel(tiny_model())
    video_u8, M = make_long_inputs()
    for video, mask in bad_inputs(video_u8, M):
        with pytest.raises(ValueError):
            outpaint_long(model, video, mask, 4, 2, config=SamplerConfig(steps=2))
    assert model.calls == 0
