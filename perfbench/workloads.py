"""The four workloads: set-up, one round of operations, and the checks of
their outputs against the oracles.

Every operation is a CLI call through `outpainter.cli.entry`, except a
training step, which goes through `training.train_step`. Inputs come from
the workload seed; the model checkpoint comes from the program's own
`train` at a fixed seed, so every seed runs the same weights.
"""

import functools
import os

import numpy as np

import oracles as orc
from oracles import expect_reject, require
from outpainter import (backbone, checkpoint, cli, codec, control, diffusion, errors, frameio,
                        longvideo, metrics, model, nn, pipeline, tensor, training)
from spans import patch_everywhere, restore

# span name -> (module or class, attribute); see README.md for what each should move
SPANS = {
    "control.extract": (control.ControlBranch, "extract"),
    "backbone.mask_multipliers": (backbone, "mask_multipliers"),
    "backbone.patchify": (backbone.Backbone, "patchify"),
    "backbone.condition_vector": (backbone.Backbone, "condition_vector"),
    "model.predict_eps": (model.OutpaintingModel, "predict_eps"),
    "backbone.attention": (backbone.Attention, "__call__"),
    "tensor.softmax": (tensor.Tensor, "softmax"),
    "backbone.block": (backbone.Block, "__call__"),
    "nn.linear": (nn.Linear, "__call__"),
    "nn.layer_norm": (nn, "layer_norm"),
    "model.eps_tensor": (model.OutpaintingModel, "eps_tensor"),
    "tensor.backward": (tensor.Tensor, "backward"),
    "training.train_step": (training, "train_step"),
    "training.sgd_step": (training.SGD, "step"),
    "diffusion.sample": (diffusion, "sample"),
    "pipeline.outpaint_video": (pipeline, "outpaint_video"),
    "pipeline.outpaint_long": (pipeline, "outpaint_long"),
    "codec.encode": (codec, "encode"),
    "codec.decode": (codec, "decode"),
    "codec.downsample_mask": (codec, "downsample_mask"),
    "longvideo.build_condition": (longvideo, "build_condition"),
    "longvideo.refine_clip": (longvideo, "refine_clip"),
    "longvideo.mean_variance_alignment": (longvideo, "mean_variance_alignment"),
    "longvideo.histogram_matching": (longvideo, "histogram_matching"),
    "frameio.load_frames": (frameio, "load_frames"),
    "frameio.save_frames": (frameio, "save_frames"),
    "checkpoint.load_model": (checkpoint, "load_model"),
    "checkpoint.save_model": (checkpoint, "save_model"),
}

DENOISER_SPANS = ("control.extract", "backbone.mask_multipliers", "backbone.patchify",
                  "backbone.condition_vector", "backbone.attention", "tensor.softmax",
                  "backbone.block", "nn.linear", "nn.layer_norm", "model.eps_tensor",
                  "codec.encode", "codec.downsample_mask")
SAMPLER_SPANS = DENOISER_SPANS + ("model.predict_eps", "diffusion.sample", "codec.decode",
                                  "checkpoint.load_model", "frameio.load_frames",
                                  "frameio.save_frames")
REFINER_SPANS = ("longvideo.refine_clip", "longvideo.mean_variance_alignment",
                 "longvideo.histogram_matching")

# the weights every model workload uses: the CLI's own trainer at seed 0
SETUP_TRAIN_CONFIG = "shape = 16x16x8\nsteps = 12\nlr = 0.01\nseed = 0\n"
RATIO = 0.25
ORACLE_STEPS = 4


def train_checkpoint(root: str) -> str:
    os.makedirs(root, exist_ok=True)
    cfg, ckpt = os.path.join(root, "train.cfg"), os.path.join(root, "model.bin")
    with open(cfg, "w") as f:
        f.write(SETUP_TRAIN_CONFIG)
    code = cli.entry(["train", "--config", cfg, "--out", ckpt, "--quiet"])
    if code != 0:
        raise RuntimeError(f"set-up training exited {code}")
    return ckpt


def pooled_psnr(label: str, outs, truths, regions) -> float:
    """Region PSNR over all clips together, each clip's own figure checked
    against metrics.psnr, and the check shown to reject a 1-level change."""
    sq, n = 0.0, 0
    for k, (out, truth, region) in enumerate(zip(outs, truths, regions)):
        e, c = orc.region_sq_error(out, truth, region)
        theirs = metrics.psnr(out / 255.0, truth / 255.0, region=region)
        orc.check_psnr_agrees(f"{label} clip {k}", orc.psnr_db(e, c), theirs)
        sq, n = sq + e, n + c
    out, truth, region = outs[0], truths[0], regions[0]
    bad = out.copy()
    idx = tuple(np.argwhere(np.broadcast_to(region != 0, out.shape))[0])
    bad[idx] = bad[idx] + 1 if bad[idx] < 255 else bad[idx] - 1
    theirs = metrics.psnr(out / 255.0, truth / 255.0, region=region)
    expect_reject("psnr", lambda: orc.check_psnr_agrees(
        label, orc.psnr_db(*orc.region_sq_error(bad, truth, region)), theirs))
    return orc.psnr_db(sq, n)


def read_output(out_dir: str, scratch: str):
    """Read an output through the benchmark's P6 parser, and show that the
    parser rejects a copy of its first frame cut one byte short."""
    out = orc.read_sequence(out_dir)
    with open(os.path.join(out_dir, "frame_00000.ppm"), "rb") as f:
        data = f.read()
    truncated = os.path.join(scratch, "truncated.ppm")
    with open(truncated, "wb") as f:
        f.write(data[:-1])
    expect_reject("p6-parser", orc.read_ppm, truncated)
    return out


def check_given_region(label: str, out, source, M) -> None:
    """Given pixels equal the input bit for bit; one flipped bit is caught."""
    orc.check_given_region(label, out, source, M)
    bad = out.copy()
    idx = tuple(np.argwhere(np.broadcast_to(M == 1.0, out.shape))[0])
    bad[idx] ^= 1
    expect_reject("given-region", orc.check_given_region, label, bad, source, M)


def check_sampler(label: str, ckpt: str, video_u8, M, cfg: float, seed: int) -> None:
    """diffusion.sample against the benchmark's reference sampler, both
    calling the checkpoint's predict_eps, at a short step count."""
    net = checkpoint.load_model(ckpt)
    video = video_u8 / 255.0
    zm, m = orc.masked_latents(video, M), orc.latent_mask(M)
    text = net.text_vector()
    got = diffusion.sample(net, zm, m, text, diffusion.SamplerConfig(
        steps=ORACLE_STEPS, cfg_scale=cfg, seed=seed), diffusion.make_schedule())
    want = orc.reference_sample(net.predict_eps, zm, m, text, ORACLE_STEPS, cfg, seed,
                                orc.alpha_bar())
    orc.check_close(label, got, want, 1e-9)
    bad = got.copy()
    bad.flat[0] += 1e-6
    expect_reject("sampler", orc.check_close, label, bad, want, 1e-9)


class Train:
    """Closed-loop SGD steps from the set-up checkpoint. Every round
    restarts from the same weights with a fresh optimizer, so each round
    repeats the same steps and losses bit for bit."""

    name = "train"
    frames_per_op = 8
    STEPS = 10
    LATE_STEPS = 2
    LOSS_WINDOW = 5
    FD_STEPS = (0, 7)
    EVAL_CLIPS = 4
    EVAL_T = 100
    # The control features are aligned to block-1 statistics taken as
    # constants (no gradient flows into them), so the tape's gradient is
    # the loss's derivative only along parameters downstream of block 1.
    UPSTREAM = ("backbone.embed.", "backbone.t_fc", "backbone.text_embed",
                "backbone.null_embed", "backbone.blocks.0.")
    expected = DENOISER_SPANS + ("tensor.backward", "training.train_step", "training.sgd_step")
    absent = ("diffusion.sample", "model.predict_eps")

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, root: str) -> None:
        self.net = checkpoint.load_model(train_checkpoint(root))
        self.params = self.net.trainable_params()
        self.initial = [p.data.copy() for p in self.params]
        rng = np.random.default_rng([self.seed, 1])
        # Every seed gets the same mix of step kinds, since they cost
        # differently: LATE_STEPS with t below the loss gate (the latent
        # alignment term is computed) and one step with the text dropped.
        late = set(rng.permutation(self.STEPS)[:self.LATE_STEPS].tolist())
        drop = int(rng.integers(self.STEPS))
        t_gate = training.LossConfig().t_latent
        self.samples = []
        for k in range(self.STEPS):
            video = orc.texture_video(rng, 16, 16, 8, 2) / 255.0
            mask = orc.train_mask(rng, 16, 16, 8)
            t = int(rng.integers(1, t_gate) if k in late else rng.integers(t_gate, 1001))
            eps = rng.standard_normal((4, 4, 8, 48))
            self.samples.append(training.TrainSample(video, mask, t, eps, k == drop))
        self.eval_clips = [orc.texture_video(rng, 16, 16, 8, 2) for _ in range(self.EVAL_CLIPS)]
        self.eval_noise = [rng.standard_normal((4, 4, 8, 48)) for _ in range(self.EVAL_CLIPS)]
        self.sched = diffusion.make_schedule()
        self.loss_cfg = training.LossConfig()
        self.history = []

    def _reset(self) -> None:
        for p, a in zip(self.params, self.initial):
            p.data = a.copy()
            p.grad = None
        self.opt = training.SGD(self.params, lr=0.01, momentum=0.9)

    def start_round(self) -> list:
        self._reset()
        losses = []
        self.history.append(losses)
        return [functools.partial(self._step, s, losses) for s in self.samples]

    def _step(self, sample, losses) -> bool:
        try:
            losses.append(training.train_step(self.net, sample, self.loss_cfg, self.opt,
                                              self.sched))
        except (errors.NumericalError, ValueError):
            return False
        return True

    def _directional_check(self, k: int, sample) -> None:
        """Central difference of the total loss along a random direction
        against <grad, direction> from backward(); a sign-flipped gradient
        must be rejected."""
        rng = np.random.default_rng([self.seed, 100 + k])
        dirs = [rng.standard_normal(p.data.shape) * (not name.startswith(self.UPSTREAM))
                for name, p in self.net.named_params()]
        base = [p.data for p in self.params]
        total = training.training_losses(self.net, sample, self.loss_cfg, self.sched)[0]
        total.backward()
        analytic = sum(float((p.grad * d).sum()) for p, d in zip(self.params, dirs)
                       if p.grad is not None)
        for p in self.params:
            p.grad = None

        def loss_at(h):
            for p, b, d in zip(self.params, base, dirs):
                p.data = b + h * d
            return training.training_losses(self.net, sample, self.loss_cfg, self.sched)[0].item()

        h = 1e-6
        fd = (loss_at(h) - loss_at(-h)) / (2 * h)
        for p, b in zip(self.params, base):
            p.data = b
        label = f"gradient at step {k} (t={sample.t})"
        orc.check_directional_derivative(label, fd, analytic)
        self.gradient_rel_err.append(abs(fd - analytic) / abs(analytic))
        expect_reject("gradient", orc.check_directional_derivative, label, fd, -analytic)

    def verify(self) -> tuple:
        first = self.history[0]
        require(len(first) == self.STEPS, "a training step failed in the first round")
        for losses in self.history:
            require(all(np.isfinite(list(l.values())).all() for l in losses),
                    "non-finite training loss")
            require(losses == first[:len(losses)], "rounds from the same weights diverged")
        self._reset()
        self.gradient_rel_err = []
        for k, sample in enumerate(self.samples):
            if k in self.FD_STEPS:
                self._directional_check(k, sample)
            got = training.train_step(self.net, sample, self.loss_cfg, self.opt, self.sched)
            require(got == first[k], f"replayed step {k} differs from the timed run")
        train_loss = float(np.mean([l["eps"] for l in first[-self.LOSS_WINDOW:]]))
        return self._one_step_psnr(), {"train_loss": train_loss,
                                       "gradient_rel_err": self.gradient_rel_err}

    def _one_step_psnr(self) -> float:
        """Region PSNR of the trained model's one-step clean estimate at a
        fixed timestep, on held-out clips at the evaluation mask."""
        ab = orc.alpha_bar()[self.EVAL_T - 1]
        M = orc.band_mask(16, 16, 8, RATIO)
        outs = []
        for clip, eps in zip(self.eval_clips, self.eval_noise):
            video = clip / 255.0
            z_t = np.sqrt(ab) * orc.encode(video) + np.sqrt(1.0 - ab) * eps
            eps_hat = self.net.predict_eps(z_t, self.EVAL_T, orc.masked_latents(video, M),
                                           orc.latent_mask(M), self.net.text_vector())
            x0 = orc.decode((z_t - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(ab))
            outs.append(orc.round_half_away(np.clip(x0, 0.0, 1.0) * 255.0).astype(np.uint8))
        return pooled_psnr("one-step estimate", outs, self.eval_clips, [1.0 - M] * len(outs))


class OutpaintGuided:
    """CLI `outpaint` on held-out clips at 100 steps and cfg 3: two model
    evaluations per step, and a checkpoint load per call."""

    name = "outpaint-guided"
    frames_per_op = 8
    CLIPS = 3
    expected = SAMPLER_SPANS + ("pipeline.outpaint_video",)
    absent = ("tensor.backward", "training.sgd_step")

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, root: str) -> None:
        self.root = root
        self.ckpt = train_checkpoint(root)
        rng = np.random.default_rng([self.seed, 2])
        self.clips = [orc.texture_video(rng, 16, 16, 8, 1) for _ in range(self.CLIPS)]
        self.sampler_seeds = [int(s) for s in rng.integers(0, 2 ** 31, self.CLIPS)]
        self.inputs = [os.path.join(root, f"in{k}") for k in range(self.CLIPS)]
        self.outputs = [os.path.join(root, f"out{k}") for k in range(self.CLIPS)]
        for path, clip in zip(self.inputs, self.clips):
            orc.write_sequence(path, clip)

    def start_round(self) -> list:
        return [functools.partial(self._op, k) for k in range(self.CLIPS)]

    def _op(self, k: int) -> bool:
        return cli.entry(["outpaint", "--model", self.ckpt, "--input", self.inputs[k],
                          "--out", self.outputs[k], "--mask-ratio", str(RATIO),
                          "--steps", "100", "--cfg-scale", "3", "--seed",
                          str(self.sampler_seeds[k])]) == 0

    def verify(self) -> tuple:
        M = orc.band_mask(16, 16, 8, RATIO)
        outs = [read_output(path, self.root) for path in self.outputs]
        for k, (out, clip) in enumerate(zip(outs, self.clips)):
            check_given_region(f"clip {k}", out, clip, M)
        check_sampler("reference sampler, cfg 3", self.ckpt, self.clips[0], M, 3.0,
                      self.sampler_seeds[0])
        return pooled_psnr("outpaint", outs, self.clips, [1.0 - M] * len(outs)), {}


def _record_plans(store: list, fn):
    @functools.wraps(fn)
    def recorded(*args, **kwargs):
        plan = fn(*args, **kwargs)
        store.append(plan.ranges)
        return plan
    return recorded


class OutpaintLong:
    """CLI `outpaint-long` on a 40-frame video: 29-frame clips (464 tokens)
    overlapping by 3, so the second clip is pulled back to start at frame
    11; cfg 1 (one evaluation per step) with the refiner on."""

    name = "outpaint-long"
    FRAMES, CLIP, OVERLAP = 40, 29, 3
    frames_per_op = FRAMES
    expected = SAMPLER_SPANS + ("pipeline.outpaint_long", "longvideo.build_condition") \
        + REFINER_SPANS
    absent = ("tensor.backward", "training.sgd_step")

    def __init__(self, seed: int):
        self.seed = seed
        self.plans = []
        self.undo = []

    def setup(self, root: str) -> None:
        self.root = root
        self.ckpt = train_checkpoint(root)
        rng = np.random.default_rng([self.seed, 3])
        self.video = orc.texture_video(rng, 16, 16, self.FRAMES, 1)
        self.sampler_seed = int(rng.integers(0, 2 ** 31))
        self.input, self.output = os.path.join(root, "in"), os.path.join(root, "out")
        orc.write_sequence(self.input, self.video)
        if not self.undo:
            self.undo = patch_everywhere(longvideo, "plan_clips",
                                         _record_plans(self.plans, longvideo.plan_clips))

    def start_round(self) -> list:
        return [self._op]

    def _op(self) -> bool:
        return cli.entry(["outpaint-long", "--model", self.ckpt, "--input", self.input,
                          "--out", self.output, "--mask-ratio", str(RATIO),
                          "--steps", "10", "--cfg-scale", "1", "--seed",
                          str(self.sampler_seed)]) == 0

    def verify(self) -> tuple:
        restore(self.undo)
        want = orc.clip_plan(self.FRAMES, self.CLIP, self.OVERLAP)
        require(self.plans, "outpaint-long never planned its clips")
        for ranges in self.plans:
            orc.check_plan("clip plan", ranges, want)
        expect_reject("clip plan", orc.check_plan, "clip plan",
                      [(0, 29), (26, 55)], want)
        M = orc.band_mask(16, 16, self.FRAMES, RATIO)
        out = read_output(self.output, self.root)
        check_given_region("long video", out, self.video, M)
        check_sampler("reference sampler, cfg 1", self.ckpt, self.video[:, :, :self.CLIP],
                      M[:, :, :self.CLIP], 1.0, self.sampler_seed)
        return pooled_psnr("outpaint-long", [out], [self.video], [1.0 - M]), {}


class RefineIO:
    """CLI `refine` of a colour-shifted, noisy 29-frame 240x320 clip onto a
    3-frame template cut from the clean clip. No model."""

    name = "refine-io"
    H, W, S, K = 240, 320, 29, 3
    frames_per_op = S
    expected = REFINER_SPANS + ("frameio.load_frames", "frameio.save_frames")
    absent = ("model.predict_eps", "tensor.backward")

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, root: str) -> None:
        self.root = root
        rng = np.random.default_rng([self.seed, 4])
        # colours, gain and offset stay clear of 0 and 255, so no value clips
        # and the refined clip's error comes from the added noise alone
        self.truth = orc.texture_video(rng, self.H, self.W, self.S, 8, lo=48, hi=209)
        gain = rng.uniform(0.9, 1.1, 3)
        offset = rng.uniform(-10.0, 10.0, 3)
        shifted = self.truth * gain + offset + rng.normal(0.0, 3.0, self.truth.shape)
        self.clip = np.clip(orc.round_half_away(shifted), 0, 255).astype(np.uint8)
        self.template = np.ascontiguousarray(self.truth[:, :, :self.K])
        self.input, self.tmpl_dir = os.path.join(root, "clip"), os.path.join(root, "template")
        self.output = os.path.join(root, "out")
        orc.write_sequence(self.input, self.clip)
        orc.write_sequence(self.tmpl_dir, self.template)

    def start_round(self) -> list:
        return [self._op]

    def _op(self) -> bool:
        return cli.entry(["refine", "--input", self.input, "--template", self.tmpl_dir,
                          "--out", self.output]) == 0

    def verify(self) -> tuple:
        out = read_output(self.output, self.root)
        want, luts, aligned = orc.reference_refine(self.clip, self.template, self.K)
        orc.check_equal("refiner", out, want)
        v = int(np.bincount(aligned[..., 0].ravel()).argmax())
        bad = want.copy()
        bad[..., 0][aligned[..., 0] == v] = luts[0][v] + (1 if luts[0][v] < 255 else -1)
        expect_reject("refiner LUT", orc.check_equal, "refiner", out, bad)
        ones = np.ones(self.truth.shape[:3] + (1,))
        return pooled_psnr("refine", [out], [self.truth], [ones]), {}


WORKLOADS = {w.name: w for w in (Train, OutpaintGuided, OutpaintLong, RefineIO)}
