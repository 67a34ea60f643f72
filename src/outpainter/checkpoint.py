"""Weight checkpoints: named float64 arrays behind a text manifest.

Layout: ASCII decimal byte length of the manifest plus newline, the
manifest itself (one `name shape offset` line per array, shape as
comma-joined dims or `-` for scalars, offset into the data section),
then the raw little-endian float64 blobs back to back. Loading requires
exactly that: each offset is the previous array's end, and the last
array ends where the file does.

Checkpoints are self-describing: model files start with one `meta/<field>`
scalar per BackboneConfig field, in declaration order, so loading needs no
side channel. Each must be a finite scalar, and an integral one where the
field is an integer.
"""

from dataclasses import fields

import numpy as np

from .backbone import BackboneConfig
from .model import OutpaintingModel


def save_arrays(path: str, named) -> None:
    """Write name -> array pairs (dict or pair iterable).

    Names must be non-empty ASCII without whitespace, and unique.
    """
    items = named.items() if isinstance(named, dict) else named
    seen = set()
    lines = []
    blobs = []
    offset = 0
    for name, arr in items:
        if not name or not name.isascii() or any(c.isspace() for c in name):
            raise ValueError(f"bad array name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate array name {name!r}")
        seen.add(name)
        a = np.asarray(arr, dtype="<f8")
        shape = ",".join(str(d) for d in a.shape) if a.ndim else "-"
        lines.append(f"{name} {shape} {offset}")
        blobs.append(a.tobytes())
        offset += a.nbytes
    manifest = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as f:
        f.write(f"{len(manifest)}\n".encode("ascii"))
        f.write(manifest)
        for b in blobs:
            f.write(b)


def load_arrays(path: str) -> dict:
    """Read a checkpoint back into an ordered name -> array dict."""
    with open(path, "rb") as f:
        head = f.readline()
        try:
            manifest_len = int(head.decode("ascii").strip())
        except (UnicodeDecodeError, ValueError):
            raise ValueError(f"{path}: malformed checkpoint header") from None
        manifest = f.read(manifest_len).decode("ascii")
        data = f.read()
    out = {}
    end = 0  # the arrays must tile the data section in manifest order
    for line in manifest.splitlines():
        if not line.strip():
            continue
        try:
            name, shape_s, offset_s = line.rsplit(" ", 2)
            shape = () if shape_s == "-" else tuple(int(d) for d in shape_s.split(","))
            offset = int(offset_s)
            if any(d < 0 for d in shape):
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}: malformed manifest line {line!r}") from None
        if offset != end:
            raise ValueError(f"{path}: array {name!r} at offset {offset}, expected {end} "
                             "(arrays must be stored back to back)")
        if name in out:
            raise ValueError(f"{path}: duplicate array name {name!r}")
        count = int(np.prod(shape)) if shape else 1
        end = offset + 8 * count
        if end > len(data):
            raise ValueError(f"{path}: array {name!r} overruns the data section")
        out[name] = np.frombuffer(data[offset:end], dtype="<f8").reshape(shape).copy()
    if end != len(data):
        raise ValueError(f"{path}: {len(data) - end} data bytes after the last array")
    return out


def save_model(path: str, model: OutpaintingModel) -> None:
    named = [(f"meta/{f.name}", np.float64(getattr(model.cfg, f.name)))
             for f in fields(BackboneConfig)]
    named.extend((name, p.data) for name, p in model.named_params())
    save_arrays(path, named)


def _pop_meta(arrays: dict, path: str, name: str, kind: type):
    """Remove meta/<name> from arrays and return it as a `kind` value."""
    key = f"meta/{name}"
    if key not in arrays:
        raise ValueError(f"{path}: missing checkpoint metadata {key!r}")
    a = arrays.pop(key)
    if a.shape != ():
        raise ValueError(f"{path}: {key} has shape {a.shape}, expected a scalar")
    value = float(a)
    if not np.isfinite(value) or (kind is int and not value.is_integer()):
        raise ValueError(f"{path}: {key} = {value!r} is not a finite {kind.__name__}")
    return kind(value)


def load_model(path: str) -> OutpaintingModel:
    arrays = load_arrays(path)
    kwargs = {f.name: _pop_meta(arrays, path, f.name, f.type) for f in fields(BackboneConfig)}
    try:
        cfg = BackboneConfig(**kwargs)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    # the modulation and MLP widths and every integer size but n_blocks are at
    # most the length of some stored array's axis (n_heads divides d_model),
    # so a larger one is refused before the model is allocated
    longest = max((d for a in arrays.values() for d in a.shape), default=0)
    sizes = [kwargs[f.name] for f in fields(BackboneConfig)
             if f.type is int and f.name != "n_blocks"]
    if (max(4, cfg.mlp_ratio) * cfg.d_model > longest or cfg.n_blocks > len(arrays)
            or max(sizes) > longest):
        raise ValueError(f"{path}: meta/ sizes exceed the stored arrays")
    model = OutpaintingModel(cfg, seed=0)
    params = dict(model.named_params())
    if set(params) != set(arrays):
        missing = set(params) ^ set(arrays)
        raise ValueError(f"{path}: parameter names do not match model ({sorted(missing)[:4]}...)")
    for name, arr in arrays.items():
        if params[name].data.shape != arr.shape:
            raise ValueError(f"{path}: {name} has shape {arr.shape}, "
                             f"expected {params[name].data.shape}")
        params[name].data = arr
    return model
