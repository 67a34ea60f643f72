"""Command-line surface.

Commands: train, outpaint, outpaint-long, refine, eval, synth. Every
command is deterministic; train, outpaint, outpaint-long and synth take
--seed, and refine and eval draw nothing at random. Errors exit with a
single-line stderr diagnostic: 1 for usage errors, 2 for data errors,
3 for numerical failures.
"""

import argparse
import sys

import numpy as np

from .checkpoint import load_model, save_model
from .diffusion import SamplerConfig, make_schedule
from .errors import NumericalError
from .frameio import load_frames, save_frames
from .longvideo import refine_clip
from .metrics import SSIM_WINDOW, psnr, ssim
from .model import OutpaintingModel
from .pipeline import EvalMaskSpec, make_eval_mask, outpaint_long, outpaint_video
from .training import parse_train_config, synth_video, train
from .util import from_u8, parse_shape, to_u8


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_outpaint_flags(p):
    """The flags `outpaint` and `outpaint-long` share."""
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mask-ratio", type=float, required=True)
    p.add_argument("--direction", choices=("horizontal", "vertical"),
                   default=EvalMaskSpec.direction)
    p.add_argument("--seed", type=int, default=SamplerConfig.seed)
    p.add_argument("--steps", type=int, default=SamplerConfig.steps)
    p.add_argument("--cfg-scale", type=float, default=SamplerConfig.cfg_scale)


def _build_parser() -> _Parser:
    p = _Parser(prog="outpainter", description="Video outpainting toolkit")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    t = sub.add_parser("train", help="train a model from a key=value config")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--quiet", action="store_true")

    _add_outpaint_flags(sub.add_parser("outpaint", help="outpaint one clip"))

    g = sub.add_parser("outpaint-long", help="outpaint a long video clip by clip")
    _add_outpaint_flags(g)
    g.add_argument("--clip-frames", type=int, default=29)
    g.add_argument("--overlap", type=int, default=3)
    g.add_argument("--no-refine", action="store_true")

    r = sub.add_parser("refine", help="match a clip's colors to an overlap template")
    r.add_argument("--input", required=True)
    r.add_argument("--template", required=True)
    r.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="PSNR/SSIM between two frame sequences")
    e.add_argument("a")
    e.add_argument("b")

    s = sub.add_parser("synth", help="generate a synthetic moving-rectangle sequence")
    s.add_argument("--out", required=True)
    s.add_argument("--shape", default="16x16x8")
    s.add_argument("--seed", type=int, default=0)
    return p


def _cmd_train(args) -> None:
    with open(args.config) as f:
        cfg = parse_train_config(f.read())
    if args.seed is not None:
        cfg.seed = args.seed
    model = OutpaintingModel(cfg.model, seed=cfg.seed)
    train(model, cfg, log=None if args.quiet else sys.stdout)
    save_model(args.out, model)


def _load_model_and_mask(args):
    model = load_model(args.model)
    video_u8 = load_frames(args.input)
    H, W, S, _ = video_u8.shape
    M = make_eval_mask(EvalMaskSpec(args.mask_ratio, args.direction), H, W, S)
    config = SamplerConfig(steps=args.steps, cfg_scale=args.cfg_scale, seed=args.seed)
    return model, video_u8, M, config


def _cmd_outpaint(args) -> None:
    model, video_u8, M, config = _load_model_and_mask(args)
    out = outpaint_video(model, from_u8(video_u8), M, config, make_schedule())
    save_frames(args.out, to_u8(out))


def _cmd_outpaint_long(args) -> None:
    model, video_u8, M, config = _load_model_and_mask(args)
    out = outpaint_long(model, video_u8, M, args.clip_frames, args.overlap,
                        config, make_schedule(), refine=not args.no_refine)
    save_frames(args.out, out)


def _cmd_refine(args) -> None:
    template = load_frames(args.template)
    save_frames(args.out, refine_clip(load_frames(args.input), template))


def _cmd_eval(args) -> None:
    a = from_u8(load_frames(args.a))
    b = from_u8(load_frames(args.b))
    score = psnr(a, b)  # defined at any frame size, and checks the shapes
    structural = f"{ssim(a, b):.6f}" if min(a.shape[:2]) >= SSIM_WINDOW else "n/a"
    print(f"PSNR: {score:.4f}  SSIM: {structural}  LPIPS: n/a  FVD: n/a")


def _cmd_synth(args) -> None:
    try:
        H, W, S = parse_shape(args.shape)
    except ValueError as e:
        raise UsageError(str(e)) from None
    video = synth_video(np.random.default_rng(args.seed), H, W, S)
    save_frames(args.out, to_u8(video))


_COMMANDS = {
    "train": _cmd_train,
    "outpaint": _cmd_outpaint,
    "outpaint-long": _cmd_outpaint_long,
    "refine": _cmd_refine,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
}


def _one_line(e: BaseException) -> str:
    return " ".join(str(e).split()) or e.__class__.__name__


def entry(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # non-finite values are caught by explicit checks, not warnings
        with np.errstate(all="ignore"):
            _COMMANDS[args.command](args)
        return 0
    except UsageError as e:
        print(f"usage error: {_one_line(e)}", file=sys.stderr)
        return 1
    except NumericalError as e:
        print(f"numerical failure: {_one_line(e)}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {_one_line(e)}", file=sys.stderr)
        return 2
