"""Command-line behavior: workflows, determinism, exit codes."""

import os

import numpy as np
import pytest

from outpainter import pipeline
from outpainter.backbone import BackboneConfig
from outpainter.checkpoint import load_model, save_model
from outpainter.cli import entry
from outpainter.frameio import load_frames, save_frames
from outpainter.longvideo import refine_clip
from outpainter.model import OutpaintingModel


def write_tiny_model(path):
    cfg = BackboneConfig(n_blocks=2, d_model=16, n_heads=2, control_hidden=8)
    save_model(str(path), OutpaintingModel(cfg, seed=0))


def dir_bytes(d):
    return {name: (d / name).read_bytes() for name in os.listdir(d)}


def test_synth_writes_sequence(tmp_path):
    out = tmp_path / "seq"
    assert entry(["synth", "--out", str(out), "--shape", "8x8x3", "--seed", "1"]) == 0
    video = load_frames(str(out))
    assert video.shape == (8, 8, 3, 3)
    assert video.dtype == np.uint8


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert entry(["synth", "--out", str(a), "--shape", "8x8x2", "--seed", "3"]) == 0
    assert entry(["synth", "--out", str(b), "--shape", "8x8x2", "--seed", "3"]) == 0
    assert dir_bytes(a) == dir_bytes(b)


def test_eval_identical_sequences(tmp_path, capsys):
    seq = tmp_path / "seq"
    entry(["synth", "--out", str(seq), "--shape", "8x8x2", "--seed", "0"])
    assert entry(["eval", str(seq), str(seq)]) == 0
    out = capsys.readouterr().out
    assert "PSNR: 99.0000" in out
    assert "SSIM: 1.000000" in out
    assert "LPIPS: n/a" in out and "FVD: n/a" in out


def test_eval_frames_smaller_than_ssim_window(tmp_path, capsys):
    # PSNR is defined at any size; SSIM needs a whole 8x8 window
    seq = tmp_path / "a"
    assert entry(["synth", "--out", str(seq), "--shape", "4x12x2", "--seed", "0"]) == 0
    assert entry(["eval", str(seq), str(seq)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "PSNR: 99.0000  SSIM: n/a  LPIPS: n/a  FVD: n/a\n"
    assert captured.err == ""


def test_outpaint_emits_same_length_sequence(tmp_path):
    model = tmp_path / "m.bin"
    write_tiny_model(model)
    seq = tmp_path / "seq"
    entry(["synth", "--out", str(seq), "--shape", "8x8x4", "--seed", "0"])
    out = tmp_path / "out"
    code = entry(["outpaint", "--model", str(model), "--input", str(seq),
                  "--out", str(out), "--mask-ratio", "0.5",
                  "--steps", "2", "--cfg-scale", "1.0", "--seed", "0"])
    assert code == 0
    result = load_frames(str(out))
    source = load_frames(str(seq))
    assert result.shape == source.shape
    # given region (center band) survives the u8 round trip bit-exact
    np.testing.assert_array_equal(result[:, 2:6], source[:, 2:6])
    assert not np.array_equal(result, source)


def test_outpaint_bit_identical_reruns(tmp_path):
    model = tmp_path / "m.bin"
    write_tiny_model(model)
    seq = tmp_path / "seq"
    entry(["synth", "--out", str(seq), "--shape", "8x8x2", "--seed", "0"])
    flags = ["--model", str(model), "--input", str(seq), "--mask-ratio", "0.5",
             "--steps", "2", "--cfg-scale", "3.0", "--seed", "9"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert entry(["outpaint", "--out", str(a)] + flags) == 0
    assert entry(["outpaint", "--out", str(b)] + flags) == 0
    assert dir_bytes(a) == dir_bytes(b)


def test_outpaint_long_covers_all_frames(tmp_path):
    model = tmp_path / "m.bin"
    write_tiny_model(model)
    seq = tmp_path / "seq"
    entry(["synth", "--out", str(seq), "--shape", "8x8x6", "--seed", "0"])
    out = tmp_path / "out"
    code = entry(["outpaint-long", "--model", str(model), "--input", str(seq),
                  "--out", str(out), "--mask-ratio", "0.5",
                  "--clip-frames", "4", "--overlap", "2",
                  "--steps", "2", "--cfg-scale", "1.0", "--seed", "0"])
    assert code == 0
    result = load_frames(str(out))
    source = load_frames(str(seq))
    assert result.shape == source.shape
    np.testing.assert_array_equal(result[:, 2:6], source[:, 2:6])


def test_refine_matches_library_call(tmp_path):
    rng = np.random.default_rng(0)
    clip = rng.integers(0, 256, (8, 8, 4, 3), dtype=np.uint8)
    template = rng.integers(0, 256, (8, 8, 2, 3), dtype=np.uint8)
    save_frames(str(tmp_path / "clip"), clip)
    save_frames(str(tmp_path / "tmpl"), template)
    out = tmp_path / "out"
    code = entry(["refine", "--input", str(tmp_path / "clip"),
                  "--template", str(tmp_path / "tmpl"), "--out", str(out)])
    assert code == 0
    want = refine_clip(clip.astype(np.int64), template.astype(np.int64))
    np.testing.assert_array_equal(load_frames(str(out)), want.astype(np.uint8))


def test_refine_onto_a_directory_at_a_frame_name_is_one_line_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(5)
    save_frames(str(tmp_path / "clip"), rng.integers(0, 256, (4, 4, 3, 3), dtype=np.uint8))
    save_frames(str(tmp_path / "tmpl"), rng.integers(0, 256, (4, 4, 1, 3), dtype=np.uint8))
    (tmp_path / "out" / "frame_00001.ppm").mkdir(parents=True)
    code = entry(["refine", "--input", str(tmp_path / "clip"),
                  "--template", str(tmp_path / "tmpl"), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "frame_00001.ppm" in err
    assert len(err.splitlines()) == 1


def test_train_writes_loadable_checkpoint(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("shape=8x8x2\nsteps=3\nlr=1e-3\n"
                   "n_blocks=2\nd_model=16\nn_heads=2\ncontrol_hidden=8\n")
    model_path = tmp_path / "m.bin"
    code = entry(["train", "--config", str(cfg), "--out", str(model_path)])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 3  # one log line per step
    model = load_model(str(model_path))
    assert model.cfg.d_model == 16


@pytest.mark.parametrize("line", ["restricted=on", "steps=-5", "lr=-1", "text_drop=nan",
                                  "beta=-1"])
def test_exit_code_unusable_train_config(tmp_path, capsys, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"shape=8x8x2\nseed=0\n{line}\n")  # line 2 sets a key no case repeats
    out = tmp_path / "m.bin"
    assert entry(["train", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ") and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_train_rejects_unrunnable_d_model_before_any_step(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("shape=8x8x2\nsteps=1\nd_model=4\nn_heads=1\n")
    out = tmp_path / "m.bin"
    assert entry(["train", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lines 3, 4: d_model must be even and >= 6, got 4\n"
    assert not out.exists()


def test_train_refuses_repeated_config_key_before_building_a_model(tmp_path, capsys,
                                                                  monkeypatch):
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr("outpainter.cli.OutpaintingModel", no_model)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("shape=8x8x2\nsteps=5\nsteps=7\n")
    out = tmp_path / "m.bin"
    assert entry(["train", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lines 2, 3: duplicate key 'steps'\n"
    assert not out.exists()


def test_exit_code_usage_errors(tmp_path, capsys):
    assert entry(["outpaint", "--bogus-flag"]) == 1
    assert entry(["no-such-command"]) == 1
    assert entry([]) == 1
    assert entry(["synth", "--out", str(tmp_path / "x"), "--shape", "8x8"]) == 1
    # refine and eval draw nothing at random, so they take no --seed
    assert entry(["refine", "--input", "a", "--template", "b", "--out", "c", "--seed", "1"]) == 1
    assert entry(["eval", "a", "b", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    for line in err.splitlines():
        assert line.strip()  # one-line diagnostics, no blank spill


def test_exit_code_data_errors(tmp_path, capsys):
    model = tmp_path / "m.bin"
    write_tiny_model(model)
    # missing input directory
    assert entry(["outpaint", "--model", str(model), "--input", str(tmp_path / "nope"),
                  "--out", str(tmp_path / "o"), "--mask-ratio", "0.5"]) == 2
    # mask ratio leaving no given region
    seq = tmp_path / "seq"
    entry(["synth", "--out", str(seq), "--shape", "8x8x2", "--seed", "0"])
    assert entry(["outpaint", "--model", str(model), "--input", str(seq),
                  "--out", str(tmp_path / "o"), "--mask-ratio", "0.99",
                  "--steps", "2"]) == 2
    # eval shape mismatch
    other = tmp_path / "other"
    entry(["synth", "--out", str(other), "--shape", "8x12x2", "--seed", "0"])
    assert entry(["eval", str(seq), str(other)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_exit_code_corrupt_frame_manifest(tmp_path, capsys):
    # the manifest claims a 2.66 PiB video; it must be refused before any
    # allocation, by the frame files on disk
    clip, tmpl = tmp_path / "clip", tmp_path / "tmpl"
    save_frames(str(clip), np.zeros((4, 4, 3, 3), dtype=np.uint8))
    save_frames(str(tmpl), np.zeros((4, 4, 2, 3), dtype=np.uint8))
    for manifest, reason in (("frames=100000 width=100000 height=100000", "missing frame index 3"),
                             ("frames=3 width=100000 height=100000", "frame 0 is 4x4"),
                             ("frames=3 width=4 height=4 frames=2", "duplicate manifest key"),
                             ("frames=3 width=4 height=4 colour=grey", "unknown manifest key")):
        (clip / "manifest.txt").write_text(manifest + "\n")
        assert entry(["refine", "--input", str(clip), "--template", str(tmpl),
                      "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert reason in err
        assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_exit_code_bad_checkpoint_manifest(tmp_path, capsys):
    model = tmp_path / "m.bin"
    write_tiny_model(model)
    blob = model.read_bytes()
    head, rest = blob.split(b"\n", 1)
    manifest = rest[:int(head)].replace(b" 0\n", b" -8\n", 1)
    model.write_bytes(head + b"\n" + manifest + rest[int(head):])
    seq = tmp_path / "seq"
    entry(["synth", "--out", str(seq), "--shape", "8x8x2", "--seed", "0"])
    assert entry(["outpaint", "--model", str(model), "--input", str(seq),
                  "--out", str(tmp_path / "o"), "--mask-ratio", "0.5", "--steps", "2"]) == 2
    err = capsys.readouterr().err
    assert "at offset -8, expected 0" in err
    assert len(err.strip().splitlines()) == 1


def outpaint_with_head_weights(tmp_path, value) -> int:
    net = OutpaintingModel(BackboneConfig(n_blocks=2, d_model=16, n_heads=2, control_hidden=8),
                           seed=0)
    net.backbone.head.W.data[:] = value
    model = tmp_path / "m.bin"
    save_model(str(model), net)
    seq, out = tmp_path / "seq", tmp_path / "o"
    entry(["synth", "--out", str(seq), "--shape", "8x8x2", "--seed", "7"])
    code = entry(["outpaint", "--model", str(model), "--input", str(seq),
                  "--out", str(out), "--mask-ratio", "0.25", "--steps", "5"])
    assert not out.exists()
    return code


def test_exit_code_non_finite_weights(tmp_path, capsys):
    """A checkpoint holding NaN is refused at load, before any sampling."""
    assert outpaint_with_head_weights(tmp_path, np.nan) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'm.bin'}: backbone.head.W holds non-finite values\n"


def test_exit_code_weights_that_overflow_while_sampling(tmp_path, capsys):
    """Finite weights whose prediction overflows: the sampler's own check exits 3."""
    assert outpaint_with_head_weights(tmp_path, 1e300) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["train", "--config", "c.txt", "--out", "m.bin"],
    ["outpaint", "--model", "m.bin", "--input", "seq", "--out", "o", "--mask-ratio", "0.5"],
    ["outpaint-long", "--model", "m.bin", "--input", "seq", "--out", "o",
     "--mask-ratio", "0.5"],
    ["synth", "--out", "o"],
])
def test_negative_seed_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert entry(argv + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err == "usage error: argument --seed: must be >= 0, got -1\n"
    assert entry(argv + ["--seed", "x"]) == 1
    assert capsys.readouterr().err == "usage error: argument --seed: invalid int value: 'x'\n"
    assert os.listdir(tmp_path) == []


def test_negative_seed_in_train_config_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("shape=8x8x2\nsteps=1\nseed = -3\n")
    out = tmp_path / "m.bin"
    assert entry(["train", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "error: line 3: bad seed value '-3': must be >= 0\n"
    assert not out.exists()


def test_exit_code_numerical_failure(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("shape=8x8x2\nsteps=6\nlr=1e12\n"
                   "n_blocks=2\nd_model=16\nn_heads=2\ncontrol_hidden=8\n")
    code = entry(["train", "--config", str(cfg), "--out", str(tmp_path / "m.bin"),
                  "--quiet"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["outpaint", "outpaint-long"])
@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_non_finite_cfg_scale_is_refused_before_sampling(tmp_path, capsys, monkeypatch,
                                                         command, scale):
    def never(*args, **kwargs):
        raise AssertionError("sampled with a non-finite guidance scale")

    monkeypatch.setattr(pipeline, "sample", never)
    model, seq, out = tmp_path / "m.bin", tmp_path / "seq", tmp_path / "o"
    write_tiny_model(model)
    entry(["synth", "--out", str(seq), "--shape", "8x8x4", "--seed", "0"])
    flags = ["--clip-frames", "3", "--overlap", "1"] if command == "outpaint-long" else []
    assert entry([command, "--model", str(model), "--input", str(seq), "--out", str(out),
                  "--mask-ratio", "0.5", "--steps", "2", "--cfg-scale", scale] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cfg_scale must be finite") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("shape", ["8x8", "8x8xa", "0x8x8", "8x8x8x8"])
def test_bad_shape_spellings_rejected_by_synth_and_config(tmp_path, capsys, shape):
    out = tmp_path / "seq"
    assert entry(["synth", "--out", str(out), "--shape", shape]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: shape must be HxWxS") and len(err.splitlines()) == 1
    assert not out.exists()

    cfg, ckpt = tmp_path / "cfg.txt", tmp_path / "m.bin"
    cfg.write_text(f"steps=1\nshape={shape}\n")
    assert entry(["train", "--config", str(cfg), "--out", str(ckpt), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 2: bad shape value '{shape}': shape must be HxWxS")
    assert not ckpt.exists()
