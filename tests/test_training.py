"""Loss definitions, masking policy, synthetic data, and the train loop."""

import io
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from outpainter.backbone import BackboneConfig
from outpainter.codec import PATCH
from outpainter.diffusion import make_schedule
from outpainter.errors import NumericalError
from outpainter.model import OutpaintingModel
from outpainter.tensor import Tensor
from outpainter.training import (
    LossConfig,
    SGD,
    TrainConfig,
    TrainSample,
    diffusion_loss,
    latent_alignment_loss,
    parse_train_config,
    sample_training_mask,
    synth_video,
    total_loss,
    train,
    train_step,
    training_losses,
)


def test_diffusion_loss_basics():
    eps = np.zeros((2, 2, 1, 4))
    assert diffusion_loss(eps, Tensor(eps)).item() == 0.0
    assert diffusion_loss(eps, Tensor(np.ones_like(eps))).item() == 1.0
    with pytest.raises(ValueError):
        diffusion_loss(eps, Tensor(np.zeros((2, 2, 1, 5))))


def test_diffusion_loss_gradient_closed_form():
    rng = np.random.default_rng(0)
    eps = rng.standard_normal((3, 2, 2, 4))
    eps_hat = Tensor(rng.standard_normal(eps.shape), requires_grad=True)
    diffusion_loss(eps, eps_hat).backward()
    np.testing.assert_allclose(eps_hat.grad, 2 * (eps_hat.data - eps) / eps.size, atol=1e-12)

    # and against central differences at one coordinate
    step = 1e-5
    arr = eps_hat.data.copy()
    arr[1, 1, 0, 2] += step
    hi = ((arr - eps) ** 2).mean()
    arr[1, 1, 0, 2] -= 2 * step
    lo = ((arr - eps) ** 2).mean()
    fd = (hi - lo) / (2 * step)
    assert abs(fd - eps_hat.grad[1, 1, 0, 2]) / max(abs(fd), 1e-6) < 1e-5


def test_latent_alignment_loss_zero_and_shift():
    rng = np.random.default_rng(1)
    z0 = rng.standard_normal((3, 3, 4, 6))
    assert latent_alignment_loss(Tensor(z0), z0).item() == 0.0

    shifts = np.array([0.5, -1.0, 2.0, 0.0])
    shifted = z0 + shifts[None, None, :, None]
    got = latent_alignment_loss(Tensor(shifted), z0).item()
    np.testing.assert_allclose(got, np.abs(shifts).mean(), atol=1e-12)


def test_latent_alignment_loss_hand_computed():
    # 2 frames, 2x1 sites, 1 channel: stats by hand
    z0 = np.array([[[[1.0], [3.0]]], [[[2.0], [2.0]]]])  # (2,1,2,1)
    # frame 0 holds {1,2}: mean 1.5, var 0.25; frame 1 holds {3,2}: mean 2.5, var 0.25
    zh = np.array([[[[2.0], [5.0]]], [[[4.0], [1.0]]]])
    # frame 0 of zh: {2,4}: mean 3, var 1; frame 1: {5,1}: mean 3, var 4
    expect = ((abs(3 - 1.5) + abs(1 - 0.25)) + (abs(3 - 2.5) + abs(4 - 0.25))) / 2
    got = latent_alignment_loss(Tensor(zh), z0).item()
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_latent_alignment_loss_permutation_invariant_within_frame():
    rng = np.random.default_rng(2)
    z0 = rng.standard_normal((4, 4, 3, 5))
    zh = rng.standard_normal((4, 4, 3, 5))
    base = latent_alignment_loss(Tensor(zh), z0).item()
    for f in range(3):
        flat = zh[:, :, f, :].reshape(-1)
        zh[:, :, f, :] = rng.permutation(flat).reshape(4, 4, 5)
    np.testing.assert_allclose(latent_alignment_loss(Tensor(zh), z0).item(), base, atol=1e-12)


def test_latent_alignment_zero_iff_stats_match():
    rng = np.random.default_rng(3)
    z0 = rng.standard_normal((3, 3, 2, 4))
    # different values, identical per-frame stats: permute within frames
    zh = z0.copy()
    for f in range(2):
        flat = zh[:, :, f, :].reshape(-1)
        zh[:, :, f, :] = rng.permutation(flat).reshape(3, 3, 4)
    assert latent_alignment_loss(Tensor(zh), z0).item() <= 1e-15
    # non-matching stats: strictly positive
    zh2 = z0 + 0.1
    assert latent_alignment_loss(Tensor(zh2), z0).item() > 0


def test_total_loss_gating():
    cfg = LossConfig(beta=0.02, t_latent=200)
    l_eps = Tensor(np.array(0.7))
    l_lat = Tensor(np.array(0.3))
    assert total_loss(l_eps, l_lat, 200, cfg) is l_eps
    assert total_loss(l_eps, l_lat, 1000, cfg) is l_eps
    np.testing.assert_allclose(total_loss(l_eps, l_lat, 199, cfg).item(), 0.7 + 0.02 * 0.3,
                               atol=1e-15)
    assert total_loss(l_eps, l_lat, 1, LossConfig(beta=0.0, t_latent=200)).item() == 0.7


def test_sample_training_mask_properties():
    rng = np.random.default_rng(4)
    for _ in range(50):
        M = sample_training_mask(12, 20, 3, rng)
        assert M.shape == (12, 20, 3, 1)
        assert np.isin(M, (0.0, 1.0)).all()
        # frame-constant
        for s in (1, 2):
            np.testing.assert_array_equal(M[:, :, s], M[:, :, 0])
        # masked fraction near the drawn ratio: in [0.1, 0.8] within rounding
        frac = 1.0 - M[:, :, 0, 0].mean()
        assert 0.1 - 0.5 / 12 <= frac <= 0.8 + 0.5 / 12
        # bands: the given region is one contiguous rectangle of full extent
        plane = M[:, :, 0, 0]
        rows = np.flatnonzero(plane.any(axis=1))
        cols = np.flatnonzero(plane.any(axis=0))
        assert plane[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1].all()


def test_sample_training_mask_split_boundaries():
    # u -> 0: everything on the second side
    class FakeRng:
        def __init__(self, vals):
            self.vals = list(vals)

        def uniform(self, a, b):
            return self.vals.pop(0)

        def random(self):
            return self.vals.pop(0)

    # r=0.5, horizontal (random()<0.5), u=0: left share 0, right share 10
    M = sample_training_mask(8, 20, 2, FakeRng([0.5, 0.3, 0.0]))
    plane = M[:, :, 0, 0]
    np.testing.assert_array_equal(plane[:, :10], 1.0)
    np.testing.assert_array_equal(plane[:, 10:], 0.0)


def _parent_training_mask(H, W, S, rng):
    """The hand-written band builder sample_training_mask replaced, kept
    as the reference for its draws and geometry."""
    r = rng.uniform(0.1, 0.8)
    horizontal = rng.random() < 0.5
    u = rng.random()
    extent = W if horizontal else H
    total = int(np.floor(r * extent + 0.5))
    first = min(int(np.floor(u * r * extent + 0.5)), total)
    second = total - first
    plane = np.ones((H, W))
    if horizontal:
        if first:
            plane[:, :first] = 0.0
        if second:
            plane[:, W - second:] = 0.0
    else:
        if first:
            plane[:first, :] = 0.0
        if second:
            plane[H - second:, :] = 0.0
    return np.repeat(plane[:, :, None, None], S, axis=2)


def test_sample_training_mask_matches_parent_formula():
    shapes = [(16, 16, 8), (8, 20, 3), (12, 4, 2), (4, 4, 1)]
    got_rng, ref_rng = np.random.default_rng(123), np.random.default_rng(123)
    cut_cols = cut_rows = 0
    for k in range(200):
        H, W, S = shapes[k % len(shapes)]
        got = sample_training_mask(H, W, S, got_rng)
        want = _parent_training_mask(H, W, S, ref_rng)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        cut = got[:, :, 0, 0] == 0
        cut_cols += cut.all(axis=0).any()
        cut_rows += cut.all(axis=1).any()
    assert cut_cols and cut_rows  # both axes were drawn
    assert got_rng.random() == ref_rng.random()  # and the same stream consumed


def test_synth_video_velocity_properties():
    rng = np.random.default_rng(5)
    candidates = [(vx, vy) for vx in range(-2, 3) for vy in range(-2, 3)]
    seen = set()
    for _ in range(12):
        vid = synth_video(rng, 16, 16, 5)
        # the clip's velocity, read off frame 1
        vx, vy = next(v for v in candidates if np.array_equal(
            vid[:, :, 1], np.roll(vid[:, :, 0], (v[1], v[0]), axis=(0, 1))))
        for k in range(5):
            np.testing.assert_array_equal(
                vid[:, :, k], np.roll(vid[:, :, 0], (k * vy, k * vx), axis=(0, 1)))
        assert vid.min() >= 0.0 and vid.max() <= 1.0
        seen.add((vx, vy))
    assert len(seen) > 1


def test_synth_video_deterministic():
    a = synth_video(np.random.default_rng(42), 16, 16, 4)
    b = synth_video(np.random.default_rng(42), 16, 16, 4)
    np.testing.assert_array_equal(a, b)


def _tiny_model():
    return OutpaintingModel(BackboneConfig(n_blocks=2, d_model=16, n_heads=2, gamma=0.5,
                                           control_hidden=8), seed=0)


def _tiny_sample(rng, t=100):
    video = synth_video(rng, 8, 8, 2)
    mask = sample_training_mask(8, 8, 2, rng)
    eps = rng.standard_normal((2, 2, 2, 48))
    return TrainSample(video, mask, t, eps)


def test_train_step_zero_lr_is_pure_evaluation():
    model = _tiny_model()
    sched = make_schedule(T=1000)
    rng = np.random.default_rng(6)
    before = {n: p.data.copy() for n, p in model.named_params()}
    opt = SGD(model.trainable_params(), lr=0.0, momentum=0.9)
    train_step(model, _tiny_sample(rng), LossConfig(), opt, sched)
    for n, p in model.named_params():
        np.testing.assert_array_equal(p.data, before[n], err_msg=n)


def test_train_step_updates_params_and_reports_losses():
    model = _tiny_model()
    sched = make_schedule(T=1000)
    rng = np.random.default_rng(7)
    opt = SGD(model.trainable_params(), lr=1e-3, momentum=0.9)
    out = train_step(model, _tiny_sample(rng, t=100), LossConfig(), opt, sched)
    assert out["total"] == pytest.approx(out["eps"] + 0.02 * out["latent"])
    assert out["latent"] > 0.0
    out2 = train_step(model, _tiny_sample(rng, t=500), LossConfig(), opt, sched)
    assert out2["total"] == out2["eps"]
    assert out2["latent"] == 0.0


def test_train_step_gate_is_bit_exact():
    model = _tiny_model()
    sched = make_schedule(T=1000)
    rng = np.random.default_rng(8)
    sample = _tiny_sample(rng, t=200)  # exactly at the threshold: gated off
    total, l_eps, l_latent = training_losses(model, sample, LossConfig(), sched)
    assert l_latent is None
    assert total is l_eps


def test_train_step_aborts_on_non_finite():
    model = _tiny_model()
    model.backbone.head.W.data[:] = np.nan
    sched = make_schedule(T=1000)
    rng = np.random.default_rng(9)
    opt = SGD(model.trainable_params(), lr=1e-3, momentum=0.9)
    with pytest.raises(NumericalError):
        train_step(model, _tiny_sample(rng), LossConfig(), opt, sched)


def test_sgd_momentum_matches_reference():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD([p], lr=0.1, momentum=0.9)
    # constant gradient of 1: v_k = 1, 1.9, 2.71; x -= lr*v
    x, v = 1.0, 0.0
    for _ in range(3):
        p.grad = np.array([1.0])
        opt.step()
        v = 0.9 * v + 1.0
        x -= 0.1 * v
        np.testing.assert_allclose(p.data, [x], atol=1e-15)
    assert p.grad is None


def test_restricted_param_set():
    model = _tiny_model()
    names_all = {n for n, _ in model.named_params()}
    restricted = model.trainable_params(restricted=True)
    ids = {id(p) for p in restricted}
    by_name = {n: id(p) in ids for n, p in model.named_params()}
    assert by_name["control.conv1.W"]
    assert by_name["backbone.blocks.0.attn.wq.W"]
    assert by_name["backbone.blocks.0.scaler.fc1.W"]
    assert by_name["backbone.blocks.1.ada.W"]
    assert not by_name["backbone.embed.W"]
    assert not by_name["backbone.head.W"]
    assert not by_name["backbone.text_embed"]
    assert "backbone.blocks.0.mlp_fc1.W" in names_all
    assert not by_name["backbone.blocks.0.mlp_fc1.W"]


def test_single_sample_overfit_descends():
    # fixed sample, 200 steps: the loss must drop by at least 80%
    # (measured 97% at this seed and learning rate)
    model = _tiny_model()
    sched = make_schedule(T=1000)
    rng = np.random.default_rng(0)
    sample = TrainSample(synth_video(rng, 8, 8, 2), sample_training_mask(8, 8, 2, rng),
                         100, rng.standard_normal((2, 2, 2, 48)))
    opt = SGD(model.trainable_params(), lr=3e-2, momentum=0.9)
    first = last = None
    for _ in range(200):
        out = train_step(model, sample, LossConfig(), opt, sched)
        first = first if first is not None else out["eps"]
        last = out["eps"]
    assert last <= 0.2 * first, f"only {1 - last / first:.1%} reduction"


def test_parse_train_config():
    cfg = parse_train_config(
        "shape = 16x16x8\nsteps=50\nlr=0.002\nbeta=0.02\nt_latent=200\n"
        "gamma=0.25\nseed=3\n# comment\n\nd_model=32\n"
    )
    assert cfg.shape == (16, 16, 8)
    assert cfg.steps == 50 and cfg.lr == 0.002 and cfg.seed == 3
    assert cfg.model == BackboneConfig(gamma=0.25, d_model=32)
    assert cfg.loss == LossConfig(beta=0.02, t_latent=200)
    with pytest.raises(ValueError):
        parse_train_config("bogus_key=1")
    with pytest.raises(ValueError):
        parse_train_config("steps")
    with pytest.raises(ValueError):
        parse_train_config("shape=16x16")


@pytest.mark.parametrize("line", ["restricted=on", "restricted=2", "restricted=maybe",
                                  "steps=-5", "steps=0", "lr=-1", "lr=0", "lr=inf",
                                  "text_drop=nan", "text_drop=1.5", "momentum=5",
                                  "beta=nan", "n_heads=0", "control_hidden=0",
                                  "shape=0x16x8", "shape=18x16x8", "steps=1e3"])
def test_parse_train_config_rejects_unusable_values(line):
    with pytest.raises(ValueError, match=r"^line 2: (bad \w+ value|\w+ must be >= 1, got 0$)"):
        parse_train_config("seed=1\n" + line + "\n")


@pytest.mark.parametrize("lines, message", [
    (["d_model = 0"], "line 2: d_model must be even and >= 6, got 0"),
    (["d_model = 4"], "line 2: d_model must be even and >= 6, got 4"),
    (["n_heads = 0"], "line 2: n_heads must be >= 1, got 0"),
    (["n_blocks = 1"], "line 2: need at least 2 blocks: conditions enter after the first"),
    (["gamma = -1"], "line 2: gamma must be >= 0, got -1.0"),
    (["beta = -1"], "line 2: beta must be >= 0, got -1.0"),
    (["t_latent = -1"], "line 2: t_latent must be >= 0, got -1"),
    (["d_model = 30", "n_heads = 4"], "lines 2, 3: d_model 30 not divisible by 4 heads"),
])
def test_parse_train_config_record_refusal_names_its_lines(lines, message):
    """A value BackboneConfig or LossConfig refuses is one line: the numbers
    of the lines that record took, then the record's own message."""
    with pytest.raises(ValueError) as info:
        parse_train_config("\n".join(["seed = 1", *lines]) + "\n")
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("steps = 5\nsteps = 7\n", "lines 1, 2: duplicate key 'steps'"),
    ("d_model = 32\n# comment\n\nlr = 0.1\nd_model=48\n", "lines 1, 5: duplicate key 'd_model'"),
    ("beta = 0.5\nseed = 1\nbeta = 0.5\n", "lines 1, 3: duplicate key 'beta'"),
])
def test_parse_train_config_refuses_repeated_key(text, message):
    """A repeated key is refused, even with the same value, rather than the
    last line silently winning."""
    with pytest.raises(ValueError) as info:
        parse_train_config(text)
    assert str(info.value) == message


_BOOL_SPELLINGS = {True: ("1", "true", "Yes", "TRUE"), False: ("0", "false", "No", "FALSE")}


MODEL_KEYS = ("n_blocks", "d_model", "n_heads", "gamma", "control_hidden")
# d_model = n_heads * head, drawn only where it is even and at least 6
heads = st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(
    lambda nh: nh[0] * nh[1] % 2 == 0 and nh[0] * nh[1] >= 6)


@st.composite
def train_configs(draw):
    """A valid TrainConfig and one text spelling of its 14 keys."""
    pos = st.integers(1, 64)
    unit = st.floats(0.0, 1.0)
    side = st.integers(1, 16).map(lambda n: n * PATCH)
    n_heads, head = draw(heads)
    cfg = TrainConfig(
        shape=(draw(side), draw(side), draw(pos)), steps=draw(pos),
        lr=draw(st.floats(1e-9, 1e3)), seed=draw(st.integers(0, 2**31)),
        text_drop=draw(unit), momentum=draw(unit), restricted=draw(st.booleans()),
        model=BackboneConfig(n_blocks=draw(st.integers(2, 8)), d_model=n_heads * head,
                             n_heads=n_heads, gamma=draw(st.floats(0.0, 2.0)),
                             control_hidden=draw(pos)),
        loss=LossConfig(beta=draw(st.floats(0.0, 10.0)), t_latent=draw(st.integers(0, 1000))))
    keys = {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)
            if f.name not in ("model", "loss")}
    keys.update({key: getattr(cfg.model, key) for key in MODEL_KEYS})
    keys.update({f.name: getattr(cfg.loss, f.name) for f in fields(LossConfig)})
    assert len(keys) == 14
    lines = []
    for key, val in draw(st.permutations(list(keys.items()))):
        if isinstance(val, tuple):
            text = draw(st.sampled_from("xX")).join(map(str, val))
        elif isinstance(val, bool):
            text = draw(st.sampled_from(_BOOL_SPELLINGS[val]))
        else:
            text = repr(val)
        pad = draw(st.sampled_from(["", " ", "\t"]))
        comment = draw(st.sampled_from(["", "  # note", "#"]))
        lines.append(f"{pad}{key}{pad}={pad}{text}{comment}")
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
    return cfg, "\n".join(lines)


@given(train_configs())
def test_parse_train_config_round_trip(case):
    cfg, text = case
    assert parse_train_config(text) == cfg


def test_train_loop_deterministic_and_logs():
    def run():
        model = _tiny_model()
        cfg = TrainConfig(shape=(8, 8, 2), steps=4, lr=1e-3, seed=11, model=model.cfg)
        log = io.StringIO()
        hist = train(model, cfg, log=log)
        return hist, log.getvalue()

    h1, log1 = run()
    h2, log2 = run()
    assert [x["total"] for x in h1] == [x["total"] for x in h2]
    assert log1 == log2
    lines = log1.strip().splitlines()
    assert len(lines) == 4
    parts = lines[0].split(", ")
    assert len(parts) == 5 and parts[0] == "0"
