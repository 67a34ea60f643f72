"""Acceptance suite: ten pinned end-to-end contracts, one test each.

Every test is self-contained, pins its tolerances inline, and prints a
summary line with the measured quantity; the per-test pass/fail status
line from pytest -v is the acceptance record. Nothing here depends on
pretrained weights or external data.
"""

import math
import os
import time

import numpy as np

from outpainter.backbone import (Attention, BackboneConfig, MaskScaler, feature_stats,
                                 mask_multipliers, tokenize)
from outpainter.checkpoint import save_model
from outpainter.cli import entry
from outpainter.codec import decode, downsample_mask, encode
from outpainter.control import standardize
from outpainter.diffusion import SamplerConfig, make_schedule, predict_z0, q_sample
from outpainter.frameio import load_frames, save_frames
from outpainter.longvideo import (Histogram, build_condition, histogram_matching,
                                  mean_variance_alignment, plan_clips)
from outpainter.metrics import psnr
from outpainter.model import OutpaintingModel
from outpainter.pipeline import EvalMaskSpec, make_eval_mask, masked_input, outpaint_video
from outpainter.tensor import Tensor, no_grad
from outpainter.training import (LossConfig, SGD, TrainConfig, TrainSample,
                                 diffusion_loss, latent_alignment_loss,
                                 synth_video, total_loss, train, train_step)


# --------------------------------------------------------------------------
# 1. Gradient integrity: every trainable scalar against central differences.
# --------------------------------------------------------------------------

def test_01_every_parameter_gradient_matches_finite_differences(stats_on_tape):
    """Toy model (2 blocks, d_model=16, 8 latent tokens), combined
    conditional+unconditional training loss at t=100: tape gradient of
    every one of the ~17.5k trainable scalars matches central finite
    differences (step 1e-5) with relative error <= 1e-4. Runtime < 2 min.

    The alignment statistics are computed on the tape here (the model
    treats them as constants) so the tape derivative is the full
    derivative of the evaluated function, and the loss sums the text and
    null conditioning branches so both embeddings (and every other
    parameter) participate.
    """
    started = time.monotonic()
    cfg = BackboneConfig(n_blocks=2, d_model=16, n_heads=2, control_hidden=8)
    model = OutpaintingModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    for _, p in model.named_params():
        p.data = p.data + rng.normal(0.0, 0.05, p.data.shape)

    sched = make_schedule()
    video = rng.random((8, 8, 2, 3))
    M = np.zeros((8, 8, 2, 1))
    M[:, 2:6] = 1.0
    z0 = encode(video)
    zm = encode(np.where(M == 1.0, video, 0.5))
    m = downsample_mask(M)
    t = 100
    eps = rng.standard_normal(z0.shape)
    zt = q_sample(z0, t, eps, sched)
    loss_cfg = LossConfig()

    def loss_value():
        total = None
        cond = model.condition(zm, m)
        for text in (model.text_vector(), None):
            eps_hat = model.eps_tensor(zt, t, cond, text)
            l_eps = diffusion_loss(eps, eps_hat)
            l_lat = latent_alignment_loss(predict_z0(zt, t, eps_hat, sched), z0)
            branch = total_loss(l_eps, l_lat, t, loss_cfg)
            total = branch if total is None else total + branch
        return total

    loss_value().backward()

    STEP = 1e-5
    TOL = 1e-4
    worst = 0.0
    worst_at = ""
    n_checked = 0
    for name, p in model.named_params():
        assert p.grad is not None, f"{name} received no gradient"
        flat = p.data.reshape(-1)
        grad = p.grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            with no_grad():
                flat[i] = keep + STEP
                lo_hi = loss_value().data
                flat[i] = keep - STEP
                lo_lo = loss_value().data
                flat[i] = keep
            fd = (lo_hi - lo_lo) / (2.0 * STEP)
            rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6)
            if rel > worst:
                worst, worst_at = rel, f"{name}[{i}]"
            n_checked += 1
    elapsed = time.monotonic() - started
    assert worst <= TOL, f"worst rel err {worst:.3e} at {worst_at}"
    assert elapsed < 120.0, f"took {elapsed:.0f}s"
    print(f"[1] PASS: {n_checked} scalars, worst rel err {worst:.2e} "
          f"at {worst_at}, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 2. Masked attention reductions.
# --------------------------------------------------------------------------

def _standard_attention(q, k, v, n_heads):
    L, d = q.shape
    dh = d // n_heads
    out = np.empty((L, d))
    for h in range(n_heads):
        qs, ks, vs = (a[:, h * dh:(h + 1) * dh] for a in (q, k, v))
        logits = (qs @ ks.T) * (1.0 / np.sqrt(dh))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        out[:, h * dh:(h + 1) * dh] = a @ vs
    return out


def test_02_masked_attention_reduces_to_standard_and_uniform_scaling():
    """gamma=0 equals standard attention within 1e-12 on 100 random
    instances; equal mask tokens with gamma>0 equal standard attention
    over uniformly scaled keys, verified against hand arithmetic on
    2-token cases."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(2, 13))
        n_heads = int(rng.choice([1, 2, 4]))
        attn = Attention(rng, d_model=16, n_heads=n_heads)
        scaler = MaskScaler(rng)
        x = Tensor(rng.standard_normal((L, 16)))
        m = Tensor(rng.random((L, 1)))
        mults = mask_multipliers(scaler, m, gamma=0.0)
        assert (mults.data == 1.0).all()
        got = attn(x, mults).data
        q, k, v = attn.wq(x).data, attn.wk(x).data, attn.wv(x).data
        want = _standard_attention(q, k, v, n_heads) @ attn.wo.W.data + attn.wo.b.data
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-12, f"gamma=0 deviation {worst:.3e}"

    # gamma > 0, all mask tokens equal: only a uniform key scaling remains
    worst_scaled = 0.0
    for trial in range(20):
        attn = Attention(rng, d_model=2, n_heads=1)
        scaler = MaskScaler(rng)
        x = Tensor(rng.standard_normal((2, 2)))
        m_val = float(rng.random())
        mults = mask_multipliers(scaler, Tensor(np.full((2, 1), m_val)), gamma=0.5)
        c = float(mults.data[0, 0])
        assert (mults.data == c).all()
        assert 0.5 <= c <= 1.5
        got = attn(x, mults).data
        q, k, v = attn.wq(x).data, attn.wk(x).data, attn.wv(x).data
        want = _standard_attention(q, k * c, v, 1) @ attn.wo.W.data + attn.wo.b.data
        worst_scaled = max(worst_scaled, float(np.abs(got - want).max()))

        if trial == 0:
            # fully hand-derived 2-token closed form, scalar arithmetic only
            hand = np.empty((2, 2))
            for i in range(2):
                l0 = (q[i, 0] * k[0, 0] * c + q[i, 1] * k[0, 1] * c) / math.sqrt(2)
                l1 = (q[i, 0] * k[1, 0] * c + q[i, 1] * k[1, 1] * c) / math.sqrt(2)
                z = max(l0, l1)
                e0, e1 = math.exp(l0 - z), math.exp(l1 - z)
                p0, p1 = e0 / (e0 + e1), e1 / (e0 + e1)
                mix = [p0 * v[0, 0] + p1 * v[1, 0], p0 * v[0, 1] + p1 * v[1, 1]]
                for j in range(2):
                    hand[i, j] = (mix[0] * attn.wo.W.data[0, j]
                                  + mix[1] * attn.wo.W.data[1, j]
                                  + attn.wo.b.data[j])
            assert np.abs(got - hand).max() <= 1e-12
    assert worst_scaled <= 1e-12, f"uniform-scaling deviation {worst_scaled:.3e}"
    print(f"[2] PASS: gamma=0 max dev {worst:.2e}, "
          f"uniform scaling max dev {worst_scaled:.2e}")


# --------------------------------------------------------------------------
# 3. Injected features land on the live block-1 statistics.
# --------------------------------------------------------------------------

def test_03_feature_alignment_reproduces_block1_stats():
    """After alignment, per-channel mean/std of the injected features
    equal the backbone's block-1 output stats within 1e-6 on 50 random
    forward passes; alignment is idempotent and affine-invariant to 1e-8."""
    model = OutpaintingModel(BackboneConfig(), seed=0)
    rng = np.random.default_rng(1)
    worst_mu, worst_sd = 0.0, 0.0
    for trial in range(50):
        z_t = rng.standard_normal((2, 2, 2, 48))
        video = rng.random((8, 8, 2, 3))
        M = np.zeros((8, 8, 2, 1))
        M[:, :4] = 1.0
        zm = encode(np.where(M == 1.0, video, 0.5))
        m = downsample_mask(M)
        t = int(rng.integers(1, 1001))
        feats = model.control.extract(zm, m)
        # block 1's output, built from the model's own pieces as its forward does
        bb = model.backbone
        block1_out = bb.blocks[0](bb.patchify(z_t), bb.condition_vector(t, None),
                                  bb.multipliers(tokenize(m))[0])
        mu, sigma = feature_stats(block1_out)
        once = standardize(feats) * sigma + mu
        a = once.data
        got_mu = a.mean(axis=0)
        got_sd = np.sqrt(((a - got_mu) ** 2).mean(axis=0))
        worst_mu = max(worst_mu, float(np.abs(got_mu - mu.data.ravel()).max()))
        worst_sd = max(worst_sd, float(np.abs(got_sd - sigma.data.ravel()).max()))

        if trial < 5:
            twice = standardize(once) * sigma + mu
            assert np.abs(twice.data - once.data).max() <= 1e-8
            scaled = standardize(feats * 3.7 + (-1.2)) * sigma + mu
            assert np.abs(scaled.data - once.data).max() <= 1e-8
    assert worst_mu <= 1e-6, f"mean deviation {worst_mu:.3e}"
    assert worst_sd <= 1e-6, f"std deviation {worst_sd:.3e}"
    print(f"[3] PASS: 50 passes, worst mean dev {worst_mu:.2e}, "
          f"worst std dev {worst_sd:.2e}")


# --------------------------------------------------------------------------
# 4. Loss gating is bit-exact; latent loss vanishes iff stats match.
# --------------------------------------------------------------------------

def test_04_loss_gate_bit_exact_and_latent_zero_iff_stats_match():
    rng = np.random.default_rng(2)
    cfg = LossConfig()  # beta 0.02, gate at t=200
    assert cfg.beta == 0.02 and cfg.t_latent == 200
    eps = rng.standard_normal((2, 2, 2, 48))
    eps_hat = Tensor(rng.standard_normal((2, 2, 2, 48)))
    z0 = rng.standard_normal((2, 2, 2, 48))
    z0_hat = Tensor(rng.standard_normal((2, 2, 2, 48)))
    l_eps = diffusion_loss(eps, eps_hat)
    l_lat = latent_alignment_loss(z0_hat, z0)
    assert l_lat.data > 0

    for t in (200, 201, 500, 1000):
        assert total_loss(l_eps, l_lat, t, cfg) is l_eps  # identity, bit-exact
    for t in (1, 100, 199):
        tot = total_loss(l_eps, l_lat, t, cfg)
        assert tot is not l_eps
        assert tot.data == (l_eps + l_lat * cfg.beta).data  # same op order

    # zero iff per-frame means and variances match:
    # channel swap within (1,1,S,2) frames keeps both stats bit-exact
    a = rng.standard_normal((1, 1, 4, 2))
    swapped = a[:, :, :, ::-1].copy()
    assert not np.array_equal(a, swapped)
    assert latent_alignment_loss(Tensor(swapped), a).data == 0.0
    # identical tensors: exactly zero
    b = rng.standard_normal((4, 4, 3, 48))
    assert latent_alignment_loss(Tensor(b.copy()), b).data == 0.0
    # same variance, shifted mean -> positive
    assert latent_alignment_loss(Tensor(b + 0.5), b).data > 1e-3
    # same mean, different variance -> positive
    mu = b.mean(axis=(0, 1, 3), keepdims=True)
    assert latent_alignment_loss(Tensor((b - mu) * 2.0 + mu), b).data > 1e-3
    print("[4] PASS: gate identity at t>=200, exact weighted sum below, "
          "latent loss zero iff stats match")


# --------------------------------------------------------------------------
# 5. Forward noising then inversion recovers the clean latents.
# --------------------------------------------------------------------------

def test_05_forward_then_inversion_recovers_latents():
    sched = make_schedule()
    rng = np.random.default_rng(3)
    worst = 0.0
    for t in (1, 100, 500, 999):
        z0 = rng.standard_normal((3, 2, 4, 48)) * 0.5 + 0.3
        eps = rng.standard_normal(z0.shape)
        z_t = q_sample(z0, t, eps, sched)
        back = predict_z0(z_t, t, eps, sched)
        worst = max(worst, float(np.abs(back - z0).max()))
    assert worst <= 1e-10, f"inversion error {worst:.3e}"
    print(f"[5] PASS: worst inversion error {worst:.2e} at t in {{1,100,500,999}}")


# --------------------------------------------------------------------------
# 6. Refiner oracles: exact LUT agreement, template stats reproduced.
# --------------------------------------------------------------------------

def _brute_force_lut(source_vals, template_vals):
    """Independent CDF matcher: linear scan, leftmost exact hit, same
    linear interpolation, floor(x+0.5) rounding."""
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
                    hit = int(np.floor(j - 1 + frac + 0.5))
                break
        lut.append(255 if hit is None else hit)
    return np.array(lut)


def _level_map(source_vals, template_vals):
    """histogram_matching's 256-entry level map for one channel of values."""
    levels = np.arange(256, dtype=np.uint8)[:, None]
    lut = histogram_matching(Histogram.of("source", np.asarray(source_vals)[..., None]),
                             Histogram.of("template", np.asarray(template_vals)[..., None]),
                             levels)
    return lut[:, 0].astype(np.int64)


def test_06_refiner_matches_brute_force_oracles():
    """All 256 LUT entries agree exactly with the brute-force CDF matcher
    on 200 random 8-bit clips; mean-variance alignment reproduces the
    template statistics within 1e-6 before clipping."""
    rng = np.random.default_rng(4)
    for case in range(200):
        h = int(rng.integers(2, 7))
        w = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        style = case % 4
        if style == 0:
            src = rng.integers(0, 256, (h, w, k))
            tmpl = rng.integers(0, 256, (h, w, k))
        elif style == 1:  # narrow palettes stress duplicate quantiles
            src = rng.choice([0, 7, 130, 255], size=(h, w, k))
            tmpl = rng.choice([3, 64, 200], size=(h, w, k))
        elif style == 2:  # constant template
            src = rng.integers(0, 256, (h, w, k))
            tmpl = np.full((h, w, k), int(rng.integers(0, 256)))
        else:  # tight ranges
            src = rng.integers(100, 110, (h, w, k))
            tmpl = rng.integers(90, 140, (h, w, k))
        got = _level_map(src, tmpl)
        want = _brute_force_lut(src, tmpl)
        np.testing.assert_array_equal(got, want)

    worst = 0.0
    for _ in range(50):
        src = rng.integers(0, 256, (4, 5, 2, 3)).astype(np.float64)
        tmpl = rng.integers(0, 256, (4, 5, 2, 3)).astype(np.float64)
        aligned_src = mean_variance_alignment(Histogram.of("source", src),
                                              Histogram.of("template", tmpl), src)
        for c in range(3):
            worst = max(worst,
                        abs(aligned_src[..., c].mean() - tmpl[..., c].mean()),
                        abs(aligned_src[..., c].std() - tmpl[..., c].std()))
    assert worst <= 1e-6, f"stat deviation {worst:.3e}"
    print(f"[6] PASS: 200 LUTs exact, mean/std reproduced to {worst:.2e}")


# --------------------------------------------------------------------------
# 7. Clip plan for the 29 -> 315 frame range.
# --------------------------------------------------------------------------

def test_07_clip_plan_315_frames():
    """S_l=315, S=29, K=3: exactly 12 clips at stride 26; the clips cover
    all 315 frames, each starting inside the one before it; conditioned
    overlap frames carry all-ones masks."""
    plan = plan_clips(315, 29, 3)
    assert len(plan.ranges) == 12
    starts = [a for a, _ in plan.ranges]
    strides = np.diff(starts)
    assert (strides == 26).all()
    assert plan.ranges[0] == (0, 29)
    assert plan.ranges[-1] == (286, 315)

    # the long-video loop writes each clip's frames past the previous
    # clip's end, so 29-frame clips from frame 0, each starting inside the
    # one before it, with the last ending at 315, cover every frame
    assert all(b - a == 29 for a, b in plan.ranges)
    for (_, prev_end), (start, end) in zip(plan.ranges, plan.ranges[1:]):
        assert start < prev_end < end

    rng = np.random.default_rng(5)
    for i in range(1, len(plan.ranges)):
        prev_out = rng.random((4, 4, 29, 3))
        cur = rng.random((4, 4, 29, 3))
        masks = (rng.random((4, 4, 29, 1)) < 0.5).astype(np.float64)
        x_bar, m_bar = build_condition(prev_out[:, :, -3:], cur, masks)
        assert (m_bar[:, :, :3] == 1.0).all()
        np.testing.assert_array_equal(x_bar[:, :, :3], prev_out[:, :, -3:])
        np.testing.assert_array_equal(m_bar[:, :, 3:], masks[:, :, 3:])
    print("[7] PASS: 12 clips, stride 26, last (286,315), 315 covered "
          "frames, all-ones condition masks")


# --------------------------------------------------------------------------
# 8. Training descends on the synthetic dataset.
# --------------------------------------------------------------------------

def test_08_training_descends_on_synthetic_data():
    """500 steps on 16x16x8 moving-rectangle videos cut the average
    noise-prediction loss of the last 10 steps to at most half of the
    first-10-step average; bit-identical under the same seed; < 10 min."""
    started = time.monotonic()
    cfg = TrainConfig(shape=(16, 16, 8), steps=500, lr=1e-2, seed=0)

    def run():
        model = OutpaintingModel(cfg.model, seed=cfg.seed)
        return train(model, cfg)

    history = run()
    eps_losses = [h["eps"] for h in history]
    first = float(np.mean(eps_losses[:10]))
    last = float(np.mean(eps_losses[-10:]))
    reduction = 1.0 - last / first
    assert reduction >= 0.5, f"only {reduction:.1%} reduction ({first:.4f} -> {last:.4f})"

    replay = [h["eps"] for h in run()]
    assert replay == eps_losses  # bit-identical under the seed
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    print(f"[8] PASS: {reduction:.1%} reduction ({first:.4f} -> {last:.4f}), "
          f"deterministic, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 9. End-to-end outpainting beats the mid-gray baseline.
# --------------------------------------------------------------------------

def test_09_outpainting_beats_mid_gray_baseline():
    """Mask ratio 0.25 on a synthetic sequence: blended given region is
    bit-exact, the shape is preserved, and the trained model's
    masked-region PSNR beats the mid-gray baseline by >= 3 dB.

    Desk-scale regime (pinned): 400-step noise schedule, default-size
    model overfit on the (video, mask) pair for 6000 SGD steps at
    lr 1e-2; 100 sampler steps, guidance 1, seed 0. A 1000-step schedule
    is not learnable at this scale: the sampler amplifies latents by
    sqrt(1/alpha_bar_T) ~ 158 over the trajectory, which an undertrained
    noise model cannot cancel, while T=400 needs only ~7.5.
    """
    started = time.monotonic()
    T = 400
    sched = make_schedule(T=T)
    video = synth_video(np.random.default_rng(0), 16, 16, 8)
    M = make_eval_mask(EvalMaskSpec(0.25), 16, 16, 8)

    model = OutpaintingModel(BackboneConfig(), seed=0)
    model.sched = sched
    opt = SGD(model.trainable_params(), lr=1e-2, momentum=0.9)
    loss_cfg = LossConfig(t_latent=80)
    rng = np.random.default_rng(1)
    for _ in range(6000):
        t = int(rng.integers(1, T + 1))
        eps = rng.standard_normal((4, 4, 8, 48))
        train_step(model, TrainSample(video, M, t, eps), loss_cfg, opt, sched)

    out = outpaint_video(model, video, M, SamplerConfig(steps=100, cfg_scale=1.0, seed=0))
    assert out.shape == video.shape
    sel = np.broadcast_to(M == 1.0, video.shape)
    np.testing.assert_array_equal(out[sel], video[sel])  # given region bit-exact

    region = 1.0 - M
    got = psnr(out, video, region=region)
    base = psnr(masked_input(video, M), video, region=region)
    margin = got - base
    elapsed = time.monotonic() - started
    assert margin >= 3.0, f"masked-region PSNR {got:.2f} vs gray {base:.2f} " \
                          f"(margin {margin:+.2f} dB)"
    print(f"[9] PASS: masked-region PSNR {got:.2f} dB vs mid-gray {base:.2f} dB "
          f"(margin {margin:+.2f} dB), given region bit-exact, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 10. Round trips and command-line determinism.
# --------------------------------------------------------------------------

def test_10_round_trips_and_cli_determinism(tmp_path):
    """Latent codec and P6 frame storage round-trip bit-exact on 100
    random videos each; two identical command-line invocations produce
    bit-identical output directories."""
    rng = np.random.default_rng(6)
    for _ in range(100):
        H = int(rng.choice([4, 8, 12, 16]))
        W = int(rng.choice([4, 8, 12]))
        S = int(rng.integers(1, 5))
        x = rng.random((H, W, S, 3))
        np.testing.assert_array_equal(decode(encode(x)), x)

    for i in range(100):
        video = rng.integers(0, 256, (int(rng.integers(1, 9)),
                                      int(rng.integers(1, 9)),
                                      int(rng.integers(1, 4)), 3), dtype=np.uint8)
        d = tmp_path / f"rt{i}"
        save_frames(str(d), video)
        np.testing.assert_array_equal(load_frames(str(d)), video)

    ckpt = tmp_path / "model.bin"
    save_model(str(ckpt), OutpaintingModel(
        BackboneConfig(n_blocks=2, d_model=16, n_heads=2, control_hidden=8), seed=0))
    seq = tmp_path / "seq"
    assert entry(["synth", "--out", str(seq), "--shape", "8x8x4", "--seed", "0"]) == 0
    flags = ["--model", str(ckpt), "--input", str(seq), "--mask-ratio", "0.25",
             "--steps", "2", "--cfg-scale", "1.0", "--seed", "0"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert entry(["outpaint", "--out", str(a)] + flags) == 0
    assert entry(["outpaint", "--out", str(b)] + flags) == 0
    bytes_a = {n: (a / n).read_bytes() for n in sorted(os.listdir(a))}
    bytes_b = {n: (b / n).read_bytes() for n in sorted(os.listdir(b))}
    assert bytes_a == bytes_b
    assert load_frames(str(a)).shape == (8, 8, 4, 3)
    print("[10] PASS: 100 codec + 100 frame-store round trips bit-exact, "
          "CLI reruns bit-identical")
