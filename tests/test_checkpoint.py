"""Checkpoint serialization round trips and error handling."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from outpainter.backbone import BackboneConfig
from outpainter.checkpoint import load_arrays, load_model, save_arrays, save_model
from outpainter.cli import entry
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


configs = st.builds(
    lambda n_blocks, n_heads, head, gamma, ratio, half_t: BackboneConfig(
        n_blocks=n_blocks, d_model=n_heads * head, n_heads=n_heads, gamma=gamma,
        mlp_ratio=ratio, t_dim=2 * half_t),
    st.integers(2, 3), st.integers(1, 3), st.integers(1, 4),
    st.floats(0.0, 2.0), st.integers(1, 3), st.integers(1, 8))


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
