"""Checkpoint serialization round trips and error handling."""

import numpy as np
import pytest

from outpainter.backbone import BackboneConfig
from outpainter.checkpoint import load_arrays, load_model, save_arrays, save_model
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
    cfg = BackboneConfig(n_blocks=2, d_model=24, n_heads=2)
    model = OutpaintingModel(cfg, seed=3, control_hidden=8)
    path = tmp_path / "model.bin"
    save_model(str(path), model)
    loaded = load_model(str(path))
    assert loaded.cfg == cfg
    assert loaded.control_hidden == 8
    orig = dict(model.named_params())
    back = dict(loaded.named_params())
    assert set(orig) == set(back)
    for name in orig:
        np.testing.assert_array_equal(orig[name].data, back[name].data)


def test_model_round_trip_keeps_every_config_field(tmp_path):
    cfg = BackboneConfig(n_blocks=3, d_model=12, n_heads=3, gamma=0.25, mlp_ratio=2,
                         t_dim=10)
    model = OutpaintingModel(cfg, seed=4, control_hidden=6)
    path = tmp_path / "model.bin"
    save_model(str(path), model)
    loaded = load_model(str(path))
    assert loaded.cfg == cfg
    assert all(type(getattr(loaded.cfg, f)) is type(getattr(cfg, f)) for f in vars(cfg))
    assert loaded.control_hidden == 6
    for (name, p), (_, q) in zip(model.named_params(), loaded.named_params()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)


def test_loaded_model_same_prediction(tmp_path):
    cfg = BackboneConfig(n_blocks=2, d_model=24, n_heads=2)
    model = OutpaintingModel(cfg, seed=5, control_hidden=8)
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
    cfg = BackboneConfig(n_blocks=2, d_model=24, n_heads=2)
    model = OutpaintingModel(cfg, seed=0, control_hidden=8)
    path = tmp_path / "model.bin"
    save_model(str(path), model)
    arrays = load_arrays(str(path))
    some_param = next(k for k in arrays if not k.startswith("meta/"))
    del arrays[some_param]
    save_arrays(str(path), arrays)
    with pytest.raises(ValueError):
        load_model(str(path))


def test_wrong_shape_rejected(tmp_path):
    cfg = BackboneConfig(n_blocks=2, d_model=24, n_heads=2)
    model = OutpaintingModel(cfg, seed=0, control_hidden=8)
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
