"""Checkpoint serialization round trips and error handling."""

import hashlib
import os
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from outpainter.backbone import BackboneConfig
from outpainter.checkpoint import load_arrays, load_model, save_arrays, save_model
from outpainter.cli import entry
from outpainter.diffusion import make_schedule
from outpainter.model import OutpaintingModel


def test_array_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a": rng.normal(size=(3, 4)),
        "b": rng.normal(size=(7,)),
        "nested/name.w": rng.normal(size=(2, 2, 2)),
    }
    path = tmp_path / "ck.bin"
    save_arrays(str(path), arrays)
    back = load_arrays(str(path))
    assert set(back) == set(arrays)
    for k in arrays:
        assert back[k].shape == arrays[k].shape
        assert back[k].dtype == np.float64
        np.testing.assert_array_equal(back[k], arrays[k])


def test_scalar_round_trip(tmp_path):
    path = tmp_path / "ck.bin"
    save_arrays(str(path), {"x": np.float64(3.5), "y": np.zeros(())})
    back = load_arrays(str(path))
    assert back["x"].shape == ()
    assert float(back["x"]) == 3.5
    assert back["y"].shape == ()


def test_values_bit_exact(tmp_path):
    """float64 payloads survive exactly, including awkward values."""
    vals = np.array([0.1, 1e-300, 1e300, -0.0, np.pi])
    path = tmp_path / "ck.bin"
    save_arrays(str(path), {"v": vals})
    back = load_arrays(str(path))["v"]
    assert all(a == b for a, b in zip(vals.tobytes(), back.tobytes()))


def test_model_round_trip(tmp_path):
    cfg = BackboneConfig(n_blocks=2, d_model=24, n_heads=2, control_hidden=8)
    model = OutpaintingModel(cfg, seed=3)
    path = tmp_path / "model.bin"
    save_model(str(path), model)
    loaded = load_model(str(path))
    assert loaded.cfg == cfg
    orig = dict(model.named_params())
    back = dict(loaded.named_params())
    assert set(orig) == set(back)
    for name in orig:
        np.testing.assert_array_equal(orig[name].data, back[name].data)


def test_model_round_trip_keeps_every_config_field(tmp_path):
    cfg = BackboneConfig(n_blocks=3, d_model=12, n_heads=3, gamma=0.25, mlp_ratio=2,
                         t_dim=10, control_hidden=6)
    model = OutpaintingModel(cfg, seed=4)
    path = tmp_path / "model.bin"
    save_model(str(path), model)
    loaded = load_model(str(path))
    assert loaded.cfg == cfg
    assert all(type(getattr(loaded.cfg, f)) is type(getattr(cfg, f)) for f in vars(cfg))
    for (name, p), (_, q) in zip(model.named_params(), loaded.named_params()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)


def test_model_manifest_starts_with_meta_in_field_order(tmp_path):
    # the layout of every checkpoint: reordering BackboneConfig's fields
    # would change each file's bytes
    path = tmp_path / "model.bin"
    tiny_checkpoint(path)
    names = list(load_arrays(str(path)))
    assert names[:8] == ["meta/n_blocks", "meta/d_model", "meta/n_heads", "meta/gamma",
                         "meta/mlp_ratio", "meta/d_latent", "meta/t_dim", "meta/control_hidden"]
    assert not any(name.startswith("meta/") for name in names[8:])


def test_default_parameter_manifest_is_pinned():
    """Checkpoints load only while parameter names, shapes and order hold."""
    named = OutpaintingModel(BackboneConfig()).named_params()
    assert len(named) == 90 and sum(p.size for _, p in named) == 297_268
    shapes = dict((name, p.shape) for name, p in named)
    assert shapes["control.conv1.W"] == (441, 16) and shapes["control.conv1.b"] == (16,)
    listing = "".join(f"{name} {','.join(map(str, p.shape))}\n" for name, p in named)
    assert hashlib.sha256(listing.encode()).hexdigest() == (
        "141ca18c0430ddaa5fb69b3188e559e2737918dc4365dc6a8531b931e3d280ce")


def test_save_writes_each_array_without_a_copy(tmp_path):
    model = OutpaintingModel(BackboneConfig())
    path = tmp_path / "model.bin"
    save_model(str(path), model)
    # the layout written by joining each array's bytes after the manifest
    named = [(f"meta/{f.name}", np.float64(getattr(model.cfg, f.name)))
             for f in fields(BackboneConfig)]
    named += [(name, p.data) for name, p in model.named_params()]
    lines, offset = [], 0
    for name, a in named:
        a = np.asarray(a, dtype="<f8")
        lines.append(f"{name} {','.join(map(str, a.shape)) if a.ndim else '-'} {offset}")
        offset += a.nbytes
    manifest = ("\n".join(lines) + "\n").encode("ascii")
    want = (f"{len(manifest)}\n".encode("ascii") + manifest
            + b"".join(np.asarray(a, dtype="<f8").tobytes() for _, a in named))
    assert path.read_bytes() == want
    tracemalloc.start()
    try:
        save_model(str(path), model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.2e6, f"save peak {peak / 1e6:.2f} MB"
    assert path.read_bytes() == want


def test_save_replaces_a_hard_linked_checkpoint(tmp_path):
    path = tmp_path / "model.bin"
    save_arrays(str(path), {"a": np.zeros(3)})
    old = path.read_bytes()
    os.link(path, tmp_path / "kept.bin")
    save_arrays(str(path), {"a": np.ones(3), "b": np.ones(2)})
    assert (tmp_path / "kept.bin").read_bytes() == old
    assert list(load_arrays(str(path))) == ["a", "b"]


def test_loaded_model_same_prediction(tmp_path):
    cfg = BackboneConfig(n_blocks=2, d_model=24, n_heads=2, control_hidden=8)
    model = OutpaintingModel(cfg, seed=5)
    path = tmp_path / "model.bin"
    save_model(str(path), model)
    loaded = load_model(str(path))
    rng = np.random.default_rng(1)
    z = rng.normal(size=(2, 2, 2, 48))
    zm = rng.normal(size=(2, 2, 2, 48))
    m = rng.random((2, 2, 2, 1))
    a = model.predict_eps(z, 100, zm, m, model.text_vector())
    b = loaded.predict_eps(z, 100, zm, m, loaded.text_vector())
    np.testing.assert_array_equal(a, b)


def test_loaded_model_samples_on_the_default_schedule(tmp_path):
    path = tmp_path / "model.bin"
    tiny_checkpoint(path)
    got = load_model(str(path)).sched
    assert got.T == make_schedule().T
    assert got.alpha_bar.tobytes() == make_schedule().alpha_bar.tobytes()


def with_weight(path, name, value):
    arrays = load_arrays(str(path))
    arrays[name].flat[0] = value
    save_arrays(str(path), arrays)


NON_FINITE = [np.inf, -np.inf, np.nan]
# a tanh saturates +-inf in the first two, so the forward stays finite and
# only the load can tell that the output is wrong
WEIGHTS = ["backbone.blocks.0.scaler.fc1.W", "backbone.blocks.1.mlp_fc1.W", "control.conv1.W"]


@pytest.mark.parametrize("name", WEIGHTS)
@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_weight_rejected(tmp_path, name, value):
    path = tmp_path / "model.bin"
    tiny_checkpoint(path)
    with_weight(path, name, value)
    with pytest.raises(ValueError) as info:
        load_model(str(path))
    assert str(info.value) == f"{path}: {name} holds non-finite values"


@pytest.mark.parametrize("name", WEIGHTS[:2])
def test_non_finite_weight_is_one_line_exit_2(tmp_path, capsys, name):
    path, seq, out = tmp_path / "model.bin", tmp_path / "seq", tmp_path / "o"
    tiny_checkpoint(path)
    with_weight(path, name, np.inf)
    assert entry(["synth", "--out", str(seq), "--shape", "8x8x2", "--seed", "0"]) == 0
    assert entry(["outpaint", "--model", str(path), "--input", str(seq),
                  "--out", str(out), "--mask-ratio", "0.5", "--steps", "2"]) == 2
    assert capsys.readouterr().err == f"error: {path}: {name} holds non-finite values\n"
    assert not out.exists()


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    save_arrays(str(path), {"a": np.ones((4, 4))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError):
        load_arrays(str(path))


def test_garbage_header_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        load_arrays(str(path))


def test_missing_param_rejected(tmp_path):
    cfg = BackboneConfig(n_blocks=2, d_model=24, n_heads=2, control_hidden=8)
    model = OutpaintingModel(cfg, seed=0)
    path = tmp_path / "model.bin"
    save_model(str(path), model)
    arrays = load_arrays(str(path))
    some_param = next(k for k in arrays if not k.startswith("meta/"))
    del arrays[some_param]
    save_arrays(str(path), arrays)
    with pytest.raises(ValueError):
        load_model(str(path))


def test_wrong_shape_rejected(tmp_path):
    cfg = BackboneConfig(n_blocks=2, d_model=24, n_heads=2, control_hidden=8)
    model = OutpaintingModel(cfg, seed=0)
    path = tmp_path / "model.bin"
    save_model(str(path), model)
    arrays = load_arrays(str(path))
    some_param = next(k for k in arrays if not k.startswith("meta/"))
    arrays[some_param] = np.zeros((1, 1))
    save_arrays(str(path), arrays)
    with pytest.raises(ValueError):
        load_model(str(path))


def write_manifest(path, lines, data: bytes):
    """A checkpoint written by hand: header, manifest lines, data section."""
    manifest = ("\n".join(lines) + "\n").encode("ascii")
    path.write_bytes(f"{len(manifest)}\n".encode("ascii") + manifest + data)


def test_bad_manifest_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    data = np.arange(4.0).astype("<f8").tobytes()
    write_manifest(path, ["a 2 0", "b 2 16"], data)
    loaded = load_arrays(str(path))
    np.testing.assert_array_equal(loaded["b"], [2.0, 3.0])
    # offset -24 would slice b's bytes out of the data section's tail
    write_manifest(path, ["a 2 -24", "b 2 16"], data)
    with pytest.raises(ValueError, match="at offset -24, expected 0"):
        load_arrays(str(path))
    write_manifest(path, ["a 2 0", "a 2 16"], data)
    with pytest.raises(ValueError, match="duplicate array name"):
        load_arrays(str(path))
    # a -1 dimension would let reshape infer a length from the bytes read
    write_manifest(path, ["a -1 0"], data)
    with pytest.raises(ValueError, match="malformed manifest line"):
        load_arrays(str(path))


def rejected_with(path, reason):
    """load_arrays(path) raises one ValueError that names the file first."""
    return pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {reason}")


@pytest.mark.parametrize("length", [-1, 10**18])
def test_header_length_outside_file_rejected(tmp_path, length):
    # -1 would read the whole file as the manifest; 10**18 would ask for
    # that many bytes before reading any
    path = tmp_path / "ck.bin"
    path.write_bytes(f"{length}\na 2 0\n".encode("ascii") + np.arange(2.0).tobytes())
    with rejected_with(path, "malformed checkpoint header"):
        load_arrays(str(path))


def test_non_ascii_manifest_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    manifest = "\u00e9 1 0\n".encode("utf-8")
    path.write_bytes(f"{len(manifest)}\n".encode("ascii") + manifest + bytes(8))
    with rejected_with(path, "malformed checkpoint manifest"):
        load_arrays(str(path))


@pytest.mark.parametrize("shape", ["8589934592,2147483648", "3,4611686018427387904"])
def test_shape_overflowing_int64_rejected(tmp_path, shape):
    # the element count wraps to 0 or a negative number in int64
    path = tmp_path / "ck.bin"
    write_manifest(path, [f"a {shape} 0"], bytes(8))
    with rejected_with(path, "array 'a' overruns the data section"):
        load_arrays(str(path))


def test_overlapping_or_out_of_order_ranges_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    data = np.arange(4.0).astype("<f8").tobytes()
    # overlap: both arrays would read [0, 1] and the last two values be ignored
    write_manifest(path, ["a 2 0", "b 2 0"], data)
    with pytest.raises(ValueError, match="'b' at offset 0, expected 16"):
        load_arrays(str(path))
    # out of order: each range lies inside the data, but b precedes a
    write_manifest(path, ["a 2 16", "b 2 0"], data)
    with pytest.raises(ValueError, match="'a' at offset 16, expected 0"):
        load_arrays(str(path))


def test_trailing_data_byte_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    save_arrays(str(path), {"a": np.arange(2.0), "b": np.arange(2.0, 4.0)})
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="1 data bytes after the last array"):
        load_arrays(str(path))


def tiny_checkpoint(path):
    save_model(str(path), OutpaintingModel(
        BackboneConfig(n_blocks=2, d_model=16, n_heads=2, control_hidden=8), seed=0))


def with_meta(path, name, value):
    arrays = load_arrays(str(path))
    arrays[f"meta/{name}"] = value
    save_arrays(str(path), arrays)


@pytest.mark.parametrize("name, value, message", [
    ("n_heads", 4.5, "meta/n_heads = 4.5 is not a finite int"),
    ("n_blocks", np.array([2.0, 2.0]), r"meta/n_blocks has shape \(2,\), expected a scalar"),
    ("gamma", np.nan, "meta/gamma = nan is not a finite float"),
    ("d_model", np.inf, "meta/d_model = inf is not a finite int"),
    ("control_hidden", 8.25, "meta/control_hidden = 8.25 is not a finite int"),
    ("n_heads", 0.0, "n_heads must be >= 1"),
    ("control_hidden", 0.0, "control_hidden must be >= 1"),
    ("control_hidden", 1e9, "meta/ sizes exceed the stored arrays"),
    ("d_model", 4.0, "d_model must be even and >= 6, got 4"),
    ("t_dim", 127.0, "t_dim must be even, got 127"),
    ("d_latent", 12.0, "d_latent must be the codec's latent depth 48, got 12"),
])
def test_bad_meta_value_rejected(tmp_path, name, value, message):
    path = tmp_path / "model.bin"
    tiny_checkpoint(path)
    with_meta(path, name, value)
    with pytest.raises(ValueError, match=message):
        load_model(str(path))


def test_bad_meta_value_is_one_line_exit_2(tmp_path, capsys):
    path = tmp_path / "model.bin"
    tiny_checkpoint(path)
    with_meta(path, "n_blocks", np.array([2.0, 2.0]))
    seq = tmp_path / "seq"
    assert entry(["synth", "--out", str(seq), "--shape", "8x8x2", "--seed", "0"]) == 0
    assert entry(["outpaint", "--model", str(path), "--input", str(seq),
                  "--out", str(tmp_path / "o"), "--mask-ratio", "0.5", "--steps", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "meta/n_blocks has shape (2,)" in err[0]


# ---- parser properties ----------------------------------------------------------

names = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12)
float_arrays = arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                      elements=st.floats(allow_nan=True, allow_infinity=True))


@given(st.dictionaries(names, float_arrays, max_size=5))
def test_array_round_trip_property(tmp_path_factory, named):
    path = tmp_path_factory.mktemp("ck") / "ck.bin"
    save_arrays(str(path), named)
    back = load_arrays(str(path))
    assert list(back) == list(named)
    for name, a in named.items():
        assert back[name].shape == a.shape
        assert back[name].tobytes() == a.tobytes()


@given(names.filter(lambda n: n != "x"), st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1d\x1e"))
def test_names_with_whitespace_rejected(tmp_path_factory, name, blank):
    path = tmp_path_factory.mktemp("ck") / "ck.bin"
    with pytest.raises(ValueError):
        save_arrays(str(path), {name[:1] + blank + name[1:]: np.zeros(1), "x": np.ones(1)})


# d_model = n_heads * head, drawn only where it is even and at least 6
heads = st.tuples(st.integers(1, 3), st.integers(1, 8)).filter(
    lambda nh: nh[0] * nh[1] % 2 == 0 and nh[0] * nh[1] >= 6)
configs = st.builds(
    lambda n_blocks, nh, gamma, ratio, half_t: BackboneConfig(
        n_blocks=n_blocks, d_model=nh[0] * nh[1], n_heads=nh[0], gamma=gamma,
        mlp_ratio=ratio, t_dim=2 * half_t),
    st.integers(2, 3), heads, st.floats(0.0, 2.0), st.integers(1, 3), st.integers(1, 8))


@given(configs, st.integers(1, 6))
def test_model_round_trip_property(tmp_path_factory, cfg, hidden):
    path = tmp_path_factory.mktemp("ck") / "model.bin"
    cfg = replace(cfg, control_hidden=hidden)
    model = OutpaintingModel(cfg, seed=0)
    save_model(str(path), model)
    loaded = load_model(str(path))
    assert loaded.cfg == cfg
    for (name, p), (name2, q) in zip(model.named_params(), loaded.named_params()):
        assert name == name2 and p.data.tobytes() == q.data.tobytes()


META = [f.name for f in fields(BackboneConfig)]
meta_values = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                        st.integers(-2, 80).map(float),
                        arrays(np.float64, st.integers(0, 2).map(lambda n: (n,))))


@given(st.sampled_from(META), meta_values)
def test_meta_value_loads_exactly_or_is_rejected(tmp_path_factory, name, value):
    """A changed meta/ value either loads as exactly that value or is a
    ValueError, never a rounded or truncated architecture."""
    path = tmp_path_factory.mktemp("ck") / "model.bin"
    tiny_checkpoint(path)
    with_meta(path, name, value)
    try:
        model = load_model(str(path))
    except ValueError:
        return
    got = getattr(model.cfg, name)
    assert np.shape(value) == () and got == value
