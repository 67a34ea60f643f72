"""Weight checkpoints: named float64 arrays behind a text manifest.

Layout: ASCII decimal byte length of the manifest plus newline, the
manifest itself (one `name shape offset` line per array, shape as
comma-joined dims or `-` for scalars, offset into the data section),
then the raw little-endian float64 blobs back to back. Loading requires
exactly that: each offset is the previous array's end, and the last
array ends where the file does.

Checkpoints are self-describing: model files carry `meta/...` scalar
entries holding the architecture so loading needs no side channel.
"""

import numpy as np

from .backbone import BackboneConfig
from .model import OutpaintingModel


def save_arrays(path: str, named) -> None:
    """Write name -> array pairs (dict or pair iterable).

    Names must be space-free and unique.
    """
    items = named.items() if isinstance(named, dict) else named
    seen = set()
    lines = []
    blobs = []
    offset = 0
    for name, arr in items:
        if " " in name or "\n" in name or not name:
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


_META_FIELDS = ("n_blocks", "d_model", "n_heads", "gamma", "mlp_ratio", "d_latent", "t_dim")


def save_model(path: str, model: OutpaintingModel) -> None:
    named = [(f"meta/{f}", np.float64(getattr(model.cfg, f))) for f in _META_FIELDS]
    named.append(("meta/control_hidden", np.float64(model.control_hidden)))
    named.extend((name, p.data) for name, p in model.named_params())
    save_arrays(path, named)


def load_model(path: str) -> OutpaintingModel:
    arrays = load_arrays(path)
    try:
        kwargs = {f: float(arrays.pop(f"meta/{f}")) for f in _META_FIELDS}
        control_hidden = int(arrays.pop("meta/control_hidden"))
    except KeyError as e:
        raise ValueError(f"{path}: missing checkpoint metadata {e}") from None
    for f in ("n_blocks", "d_model", "n_heads", "mlp_ratio", "d_latent", "t_dim"):
        kwargs[f] = int(kwargs[f])
    model = OutpaintingModel(BackboneConfig(**kwargs), seed=0, control_hidden=control_hidden)
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
