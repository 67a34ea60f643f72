"""Run a fixed matrix of CLI commands and print a sha256 digest of every
file they write.

Run it from a checkout root, with no arguments:

    python tools/cli_digest.py > digest.txt

It imports the package from ./src, runs each command in-process in a fresh
temporary directory, and prints `sha256  relative/path` for every output
file (a command's stdout is kept as `<name>.stdout`), then one total line
over the listing. Two checkouts whose listings are identical produce
byte-identical CLI outputs on this matrix, so `diff` of two listings is
the whole comparison.

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

# one BLAS thread: the same result on any machine, and faster at these sizes
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, os.path.abspath("src"))

from outpainter.cli import entry  # noqa: E402

# config file -> contents; the second sets every architecture key away from
# its default and the third every loss and optimizer key, so a key the parser
# routes to the wrong record or the CLI fails to pass on changes the listing
CONFIGS = {
    "train.cfg": "shape = 16x16x8\nsteps = 30\nlr = 0.01\nseed = 0\n",
    "arch.cfg": ("shape = 16x16x8\nsteps = 5\nlr = 0.01\nseed = 0\nn_blocks = 2\n"
                 "d_model = 32\nn_heads = 2\ngamma = 0.25\ncontrol_hidden = 8\n"),
    "loss.cfg": ("shape = 16x16x8\nsteps = 8\nlr = 0.01\nseed = 0\nbeta = 0.5\n"
                 "t_latent = 700\ntext_drop = 0.5\nmomentum = 0.5\nrestricted = 1\n"),
}

# (name, argv) in run order; later commands read earlier outputs
MATRIX = [
    ("synth-clip", ["synth", "--out", "clip", "--shape", "16x16x8", "--seed", "1"]),
    ("synth-long", ["synth", "--out", "long", "--shape", "16x16x40", "--seed", "2"]),
    ("synth-short", ["synth", "--out", "short", "--shape", "16x16x7", "--seed", "3"]),
    ("synth-mid", ["synth", "--out", "mid", "--shape", "64x96x12", "--seed", "8"]),
    ("synth-mid-template", ["synth", "--out", "mid-template", "--shape", "64x96x3",
                            "--seed", "9"]),
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
    ("eval", ["eval", "clip", "out-cfg3"]),
    ("train-arch", ["train", "--config", "arch.cfg", "--out", "arch.bin"]),
    ("outpaint-arch", ["outpaint", "--model", "arch.bin", "--input", "clip",
                       "--out", "out-arch", "--mask-ratio", "0.25", "--steps", "10",
                       "--cfg-scale", "3", "--seed", "10"]),
    ("train-loss", ["train", "--config", "loss.cfg", "--out", "loss.bin"]),
    ("outpaint-loss", ["outpaint", "--model", "loss.bin", "--input", "clip",
                       "--out", "out-loss", "--mask-ratio", "0.25", "--steps", "10",
                       "--cfg-scale", "3", "--seed", "11"]),
]


def _run(name: str, argv: list) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    if code != 0:
        raise SystemExit(f"{name}: exit {code}: {err.getvalue().strip()}")
    with open(f"{name}.stdout", "w") as f:
        f.write(out.getvalue())


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
        finally:
            os.chdir(here)
    lines.sort(key=lambda line: line.split("  ", 1)[1])
    listing = "\n".join(lines) + "\n"
    print(listing, end="")
    print(f"{hashlib.sha256(listing.encode()).hexdigest()}  total ({len(lines)} files)")


if __name__ == "__main__":
    main()
