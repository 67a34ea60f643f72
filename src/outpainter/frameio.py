"""Frame-sequence storage: binary P6 portable pixmaps plus a manifest.

A sequence directory holds frame_00000.ppm .. frame_{n-1:05d}.ppm and a
manifest.txt of the form `frames=<n> width=<w> height=<h>`, each key once
and no other. Pixels are 8-bit RGB; arrays are (H, W, S, 3) uint8.
`load_frames` returns that shape as a view of a frame-major (S, H, W, 3)
buffer, so each frame is one contiguous block that a file's pixel body is
copied into, and saving such a view writes each frame without gathering
it.

Saving replaces each frame file and the manifest rather than rewriting
them (`util.create_output`): a hard link to an old frame keeps the old
bytes, a symlink at a frame's name becomes a regular file and its target
is left alone, and a directory there is an error. Truncating and
rewriting a file makes ext4 write it back to disk when it closes, inside
the save; a new file is written back later by the kernel. On tmpfs the
unlink costs about 10 us per file.
"""

import os
import re

import numpy as np

from .util import create_output

MANIFEST = "manifest.txt"
# netpbm header: magic, then width, height and maxval, each after whitespace
# that may hold '#' comments running to the end of a line; exactly one
# whitespace byte separates maxval from the pixels
_SEP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_P6_HEADER = re.compile(rb"P6" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)\s")


def frame_name(i: int) -> str:
    return f"frame_{i:05d}.ppm"


def save_ppm(path: str, frame: np.ndarray) -> None:
    """(H, W, 3) uint8 -> binary P6 file."""
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) frame, got {frame.shape}")
    if frame.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got {frame.dtype}")
    H, W, _ = frame.shape
    with create_output(path) as f:
        f.write(f"P6\n{W} {H}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(frame))


def load_ppm(path: str, out: np.ndarray | None = None) -> np.ndarray:
    """Binary P6 file -> (H, W, 3) uint8.

    With `out`, the pixels are copied into it, and a file whose frame is
    not out's size is rejected; otherwise a new array is returned.
    """
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P6"):
        raise ValueError(f"{path}: not a binary P6 file")
    header = _P6_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path}: truncated or malformed P6 header")
    W, H, maxval = (int(v) for v in header.groups())
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    found = len(data) - header.end()
    if found != W * H * 3:
        raise ValueError(f"{path}: expected {W * H * 3} pixel bytes, found {found}")
    if out is None:
        out = np.empty((H, W, 3), dtype=np.uint8)
    elif out.shape != (H, W, 3):
        raise ValueError(f"{path}: frame is {W}x{H}, expected {out.shape[1]}x{out.shape[0]}")
    out[...] = np.frombuffer(data, dtype=np.uint8, offset=header.end()).reshape(H, W, 3)
    return out


def save_frames(directory: str, video: np.ndarray) -> None:
    """(H, W, S, 3) uint8 -> numbered P6 frames plus manifest."""
    if video.ndim != 4 or video.shape[3] != 3:
        raise ValueError(f"expected (H, W, S, 3) video, got {video.shape}")
    if video.dtype != np.uint8:
        raise ValueError(f"expected uint8 video, got {video.dtype}")
    H, W, S, _ = video.shape
    os.makedirs(directory, exist_ok=True)
    for s in range(S):
        save_ppm(os.path.join(directory, frame_name(s)), video[:, :, s])
    with create_output(os.path.join(directory, MANIFEST)) as f:
        f.write(f"frames={S} width={W} height={H}\n".encode("ascii"))


def load_frames(directory: str) -> np.ndarray:
    """Sequence directory -> (H, W, S, 3) uint8 view of a frame-major
    buffer; validates the manifest."""
    mpath = os.path.join(directory, MANIFEST)
    if not os.path.exists(mpath):
        raise ValueError(f"{directory}: missing {MANIFEST}")
    fields = {}
    with open(mpath) as f:
        for tok in f.read().split():
            if "=" not in tok:
                raise ValueError(f"{directory}: malformed manifest token {tok!r}")
            k, v = tok.split("=", 1)
            if k not in ("frames", "width", "height"):
                raise ValueError(f"{directory}: unknown manifest key {k!r}")
            if k in fields:
                raise ValueError(f"{directory}: duplicate manifest key {k!r}")
            fields[k] = v
    try:
        S, W, H = int(fields["frames"]), int(fields["width"]), int(fields["height"])
    except (KeyError, ValueError):
        raise ValueError(f"{directory}: manifest must define frames, width, height") from None
    if S < 1:
        raise ValueError(f"{directory}: manifest declares {S} frames")
    # every frame file and frame 0's size are checked before the video is
    # allocated, so a corrupt manifest cannot ask for an absurd array
    for s in range(S):
        if not os.path.exists(os.path.join(directory, frame_name(s))):
            raise ValueError(f"{directory}: missing frame index {s} ({frame_name(s)})")
    frame0 = load_ppm(os.path.join(directory, frame_name(0)))
    if frame0.shape != (H, W, 3):
        raise ValueError(f"{directory}: frame 0 is {frame0.shape[1]}x{frame0.shape[0]}, "
                         f"manifest says {W}x{H}")
    frames = np.empty((S, H, W, 3), dtype=np.uint8)
    frames[0] = frame0
    for s in range(1, S):
        load_ppm(os.path.join(directory, frame_name(s)), out=frames[s])
    return frames.transpose(1, 2, 0, 3)
