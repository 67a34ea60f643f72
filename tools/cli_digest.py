"""Run a fixed matrix of CLI commands and print a sha256 digest of every
file they write.

Run it from a checkout root, with no arguments:

    python tools/cli_digest.py > digest.txt

It imports the package from ./src, runs each command in-process in a fresh
temporary directory, and prints `sha256  relative/path` for every output
file (a command's stdout is kept as `<name>.stdout`). The CLI writes only
uint8 frames, so a last-bit change in the sampler's float path reaches no
file unless it flips a level; the tool therefore also loads two of the
checkpoints the matrix trained, runs `diffusion.sample` on SAMPLES, and
prints `sha256  sample/<name>.f64` over the float64 bytes of each returned
latent. These float lines hold at 1 BLAS thread; the 464-token one reads
differently at 2. One total line over the listing comes last. Two
checkouts whose listings are identical produce byte-identical CLI outputs
and sampled latents on this matrix, so `diff` of two listings is the
whole comparison.

tools/cli_digest.txt holds the listing of the current code, and
tests/test_cli_digest.py checks a fresh run against it. A change that
means to move an output regenerates that file with this tool.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

# one BLAS thread: the float lines hold only at a fixed thread count (see
# the docstring), and one thread is faster at these sizes
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, os.path.abspath("src"))

import numpy as np  # noqa: E402
from outpainter.checkpoint import load_model  # noqa: E402
from outpainter.cli import entry  # noqa: E402
from outpainter.codec import downsample_mask, encode, masked_input  # noqa: E402
from outpainter.diffusion import SamplerConfig, sample  # noqa: E402
from outpainter.frameio import load_frames  # noqa: E402
from outpainter.pipeline import EvalMaskSpec, make_eval_mask  # noqa: E402
from outpainter.util import from_u8  # noqa: E402

# config file -> contents; the second sets every architecture key away from
# its default and the third every loss and optimizer key, so a key the parser
# routes to the wrong record or the CLI fails to pass on changes the listing;
# the fourth has 12-wide heads, so attention's scale 1/sqrt(12) is not the
# power of two that every other config's 16-wide heads give
CONFIGS = {
    "train.cfg": "shape = 16x16x8\nsteps = 30\nlr = 0.01\nseed = 0\n",
    "arch.cfg": ("shape = 16x16x8\nsteps = 5\nlr = 0.01\nseed = 0\nn_blocks = 2\n"
                 "d_model = 32\nn_heads = 2\ngamma = 0.25\ncontrol_hidden = 8\n"),
    "loss.cfg": ("shape = 16x16x8\nsteps = 8\nlr = 0.01\nseed = 0\nbeta = 0.5\n"
                 "t_latent = 700\ntext_drop = 0.5\nmomentum = 0.5\nrestricted = 1\n"),
    "heads.cfg": "shape = 16x16x8\nsteps = 5\nlr = 0.01\nseed = 0\nd_model = 48\nn_heads = 4\n",
}

# (name, argv) in run order; later commands read earlier outputs
MATRIX = [
    ("synth-clip", ["synth", "--out", "clip", "--shape", "16x16x8", "--seed", "1"]),
    ("synth-long", ["synth", "--out", "long", "--shape", "16x16x40", "--seed", "2"]),
    ("synth-short", ["synth", "--out", "short", "--shape", "16x16x7", "--seed", "3"]),
    ("synth-mid", ["synth", "--out", "mid", "--shape", "64x96x12", "--seed", "8"]),
    ("synth-mid-template", ["synth", "--out", "mid-template", "--shape", "64x96x3",
                            "--seed", "9"]),
    ("synth-odd", ["synth", "--out", "odd", "--shape", "63x95x11", "--seed", "16"]),
    ("synth-odd-template", ["synth", "--out", "odd-template", "--shape", "63x95x3",
                            "--seed", "17"]),
    ("train", ["train", "--config", "train.cfg", "--out", "model.bin"]),
    ("outpaint-cfg3", ["outpaint", "--model", "model.bin", "--input", "clip",
                       "--out", "out-cfg3", "--mask-ratio", "0.25", "--steps", "20",
                       "--cfg-scale", "3", "--seed", "4"]),
    ("outpaint-vertical", ["outpaint", "--model", "model.bin", "--input", "clip",
                           "--out", "out-vertical", "--mask-ratio", "0.5",
                           "--direction", "vertical", "--steps", "20",
                           "--cfg-scale", "1", "--seed", "5"]),
    ("long-refine", ["outpaint-long", "--model", "model.bin", "--input", "long",
                     "--out", "long-refine", "--mask-ratio", "0.25", "--steps", "10",
                     "--cfg-scale", "1", "--seed", "6"]),
    ("long-no-refine", ["outpaint-long", "--model", "model.bin", "--input", "long",
                        "--out", "long-no-refine", "--mask-ratio", "0.25", "--steps", "10",
                        "--cfg-scale", "1", "--seed", "6", "--no-refine"]),
    ("long-short-clips", ["outpaint-long", "--model", "model.bin", "--input", "short",
                          "--out", "long-short", "--mask-ratio", "0.25", "--steps", "10",
                          "--cfg-scale", "3", "--clip-frames", "4", "--overlap", "3",
                          "--seed", "7"]),
    ("refine", ["refine", "--input", "long-no-refine", "--template", "short",
                "--out", "refined"]),
    # a mid-size refine over whole frame planes, so a layout or gather error
    # in the refiner shows in its output
    ("refine-mid", ["refine", "--input", "mid", "--template", "mid-template",
                    "--out", "refined-mid"]),
    # an odd H*W: the clip's byte count is not a whole number of byte pairs
    # per channel period, so the refiner's last bytes take its tail path
    ("refine-odd", ["refine", "--input", "odd", "--template", "odd-template",
                    "--out", "refined-odd"]),
    ("eval", ["eval", "clip", "out-cfg3"]),
    ("train-arch", ["train", "--config", "arch.cfg", "--out", "arch.bin"]),
    ("outpaint-arch", ["outpaint", "--model", "arch.bin", "--input", "clip",
                       "--out", "out-arch", "--mask-ratio", "0.25", "--steps", "10",
                       "--cfg-scale", "3", "--seed", "10"]),
    ("train-loss", ["train", "--config", "loss.cfg", "--out", "loss.bin"]),
    ("outpaint-loss", ["outpaint", "--model", "loss.bin", "--input", "clip",
                       "--out", "out-loss", "--mask-ratio", "0.25", "--steps", "10",
                       "--cfg-scale", "3", "--seed", "11"]),
    ("train-heads", ["train", "--config", "heads.cfg", "--out", "heads.bin"]),
    ("outpaint-heads", ["outpaint", "--model", "heads.bin", "--input", "clip",
                        "--out", "out-heads", "--mask-ratio", "0.25", "--steps", "10",
                        "--cfg-scale", "3", "--seed", "12"]),
    # 29-frame clips: 464 tokens per attention call
    ("long-heads", ["outpaint-long", "--model", "heads.bin", "--input", "long",
                    "--out", "long-heads", "--mask-ratio", "0.25", "--steps", "5",
                    "--cfg-scale", "1", "--seed", "13"]),
]

# name -> (checkpoint, input sequence, frames used, cfg scale, seed), each
# sampled for 3 steps at mask ratio 0.25 under no_grad; the second runs a
# 29-frame, 464-token clip through heads.bin's 12-wide heads
SAMPLES = {
    "clip-cfg3": ("model.bin", "clip", 8, 3.0, 14),
    "long-heads": ("heads.bin", "long", 29, 1.0, 15),
}


def _run(name: str, argv: list) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    if code != 0:
        raise SystemExit(f"{name}: exit {code}: {err.getvalue().strip()}")
    with open(f"{name}.stdout", "w") as f:
        f.write(out.getvalue())


def _sample_lines() -> list:
    lines = []
    for name, (ckpt, seq, frames, cfg_scale, seed) in SAMPLES.items():
        model = load_model(ckpt)
        video = from_u8(load_frames(seq)[:, :, :frames])
        M = make_eval_mask(EvalMaskSpec(0.25), *video.shape[:3])
        z0 = sample(model, encode(masked_input(video, M)), downsample_mask(M),
                    model.text_vector(), SamplerConfig(steps=3, cfg_scale=cfg_scale, seed=seed),
                    model.sched)
        digest = hashlib.sha256(np.ascontiguousarray(z0, dtype=np.float64).tobytes())
        lines.append(f"{digest.hexdigest()}  sample/{name}.f64")
    return lines


def main() -> None:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for fn, text in CONFIGS.items():
                with open(fn, "w") as f:
                    f.write(text)
            for name, argv in MATRIX:
                _run(name, argv)
            lines = []
            for root, dirs, files in os.walk("."):
                dirs.sort()
                for fn in sorted(files):
                    path = os.path.relpath(os.path.join(root, fn))
                    with open(path, "rb") as f:
                        lines.append(f"{hashlib.sha256(f.read()).hexdigest()}  {path}")
            samples = _sample_lines()
        finally:
            os.chdir(here)
    lines.sort(key=lambda line: line.split("  ", 1)[1])
    listing = "\n".join(lines + samples) + "\n"
    print(listing, end="")
    print(f"{hashlib.sha256(listing.encode()).hexdigest()}  "
          f"total ({len(lines)} files, {len(samples)} samples)")


if __name__ == "__main__":
    main()
