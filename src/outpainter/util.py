"""Small shared helpers."""

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
    """0..255 integers -> [0,1] floats."""
    return np.asarray(u, dtype=np.float64) / 255.0


def parse_shape(text: str) -> tuple:
    """'HxWxS' -> (H, W, S), each a positive integer; ValueError otherwise."""
    try:
        dims = tuple(int(d) for d in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"shape must be HxWxS integers, got {text!r}") from None
    if len(dims) != 3 or min(dims) < 1:
        raise ValueError(f"shape must be HxWxS with positive sizes, got {text!r}")
    return dims
