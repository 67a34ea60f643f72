"""Small shared helpers."""

import os

import numpy as np


def round_half_away(x):
    """Round to nearest integer, halves away from zero (unlike np.round)."""
    a = np.asarray(x)
    out = np.sign(a) * np.floor(np.abs(a) + 0.5)
    if np.isscalar(x) or a.ndim == 0:
        return int(out)
    return out


def quantize_u8(x: np.ndarray) -> np.ndarray:
    """[0,255] floats -> uint8, halves away from zero, clipped."""
    return np.clip(round_half_away(np.asarray(x, dtype=np.float64)), 0, 255).astype(np.uint8)


def to_u8(x: np.ndarray) -> np.ndarray:
    """[0,1] floats -> 0..255 uint8, rounding halves away from zero."""
    return quantize_u8(np.asarray(x) * 255.0)


def from_u8(u: np.ndarray) -> np.ndarray:
    """0..255 integers -> C-ordered [0,1] floats, whatever u's memory order,
    so float reductions downstream sum in the same order for any layout."""
    return np.asarray(u, dtype=np.float64, order="C") / 255.0


def parse_shape(text: str) -> tuple:
    """'HxWxS' -> (H, W, S), each a positive integer; ValueError otherwise."""
    try:
        dims = tuple(int(d) for d in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"shape must be HxWxS integers, got {text!r}") from None
    if len(dims) != 3 or min(dims) < 1:
        raise ValueError(f"shape must be HxWxS with positive sizes, got {text!r}")
    return dims


def create_output(path: str):
    """Open a new file at path for binary writing, in place of any file there.

    Whatever is at path is unlinked, then the file is created exclusively:
    an old file is never truncated and rewritten, which ext4 writes back to
    disk when it closes. A hard link to the old file keeps its bytes, a
    symlink at path is replaced rather than followed, and a directory there
    raises IsADirectoryError.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "xb")
