"""Small neural-net substrate on top of the tape: modules, linear maps,
layer normalization (one tape node each, built in tensor.py), and
sinusoidal encodings."""

import numpy as np

from .tensor import Tensor, layer_norm, linear  # noqa: F401 (layer_norm re-exported)


class Module:
    """Base with parameter discovery through attribute walking.

    Attributes that are requires_grad Tensors, Modules, or lists of
    Modules contribute to named_params in insertion order.
    """

    def named_params(self, prefix: str = ""):
        out = []
        for key, val in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(val, Tensor) and val.requires_grad:
                out.append((name, val))
            elif isinstance(val, Module):
                out.extend(val.named_params(f"{name}."))
            elif isinstance(val, list) and val and all(isinstance(v, Module) for v in val):
                for i, v in enumerate(val):
                    out.extend(v.named_params(f"{name}.{i}."))
        return out


def param(rng: np.random.Generator, shape, scale: float | None = None) -> Tensor:
    """Gaussian-initialized trainable tensor; default scale 1/sqrt(fan_in)."""
    if scale is None:
        scale = 1.0 / np.sqrt(shape[0])
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


class Linear(Module):
    def __init__(self, rng, d_in: int, d_out: int, zero_init: bool = False):
        if zero_init:
            self.W = Tensor(np.zeros((d_in, d_out)), requires_grad=True)
        else:
            self.W = param(rng, (d_in, d_out))
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.W, self.b)


def sinusoid_table(pos, dim: int) -> np.ndarray:
    """Classic fixed encoding, one row per position in `pos`: sin on even
    channels, cos on odd."""
    if dim % 2:
        raise ValueError(f"sinusoid dim must be even, got {dim}")
    pos = np.asarray(pos)[:, None]
    freq = np.exp(-np.log(10000.0) * np.arange(0, dim, 2) / dim)[None, :]
    table = np.zeros((len(pos), dim))
    table[:, 0::2] = np.sin(pos * freq)
    table[:, 1::2] = np.cos(pos * freq)
    return table
