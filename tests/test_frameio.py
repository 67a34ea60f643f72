"""PPM frame directory round trips and malformed input handling."""

import os

import numpy as np
import pytest

from outpainter.frameio import frame_name, load_frames, load_ppm, save_frames, save_ppm


def test_frame_name_padding():
    assert frame_name(0) == "frame_00000.ppm"
    assert frame_name(123) == "frame_00123.ppm"


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
    path = tmp_path / "f.ppm"
    save_ppm(str(path), img)
    back = load_ppm(str(path))
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, img)


def test_ppm_header_layout(tmp_path):
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    path = tmp_path / "f.ppm"
    save_ppm(str(path), img)
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n3 2\n255\n")
    assert len(blob) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3


def test_video_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    video = rng.integers(0, 256, (6, 4, 3, 3), dtype=np.uint8)
    d = tmp_path / "out"
    save_frames(str(d), video)
    back = load_frames(str(d))
    np.testing.assert_array_equal(back, video)
    assert sorted(os.listdir(d)) == ["frame_00000.ppm", "frame_00001.ppm",
                                     "frame_00002.ppm", "manifest.txt"]


def test_manifest_contents(tmp_path):
    video = np.zeros((6, 4, 2, 3), dtype=np.uint8)
    d = tmp_path / "out"
    save_frames(str(d), video)
    text = (d / "manifest.txt").read_text()
    assert "frames=2" in text
    assert "width=4" in text
    assert "height=6" in text


def test_missing_frame_named_in_error(tmp_path):
    video = np.zeros((4, 4, 3, 3), dtype=np.uint8)
    d = tmp_path / "out"
    save_frames(str(d), video)
    os.remove(d / "frame_00001.ppm")
    with pytest.raises(ValueError, match="frame_00001.ppm"):
        load_frames(str(d))


def test_malformed_magic_rejected(tmp_path):
    path = tmp_path / "f.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError):
        load_ppm(str(path))


def test_wrong_maxval_rejected(tmp_path):
    path = tmp_path / "f.ppm"
    path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(ValueError):
        load_ppm(str(path))


def test_netpbm_header_with_comments_and_tabs_loads(tmp_path):
    img = np.random.default_rng(2).integers(0, 256, (2, 3, 3), dtype=np.uint8)
    path = tmp_path / "f.ppm"
    for header in (b"P6\n# made by hand\n3 2\n255\n",
                   b"P6 3\t 2 # width, height\n\n255\t",
                   b"P6\r\n3\r\n#\r\n  2\n# maxval next\n255\r"):
        # pixel bytes that look like whitespace or '#' belong to the body
        body = img.copy()
        body[0, 0] = (ord(" "), ord("#"), ord("\n"))
        path.write_bytes(header + body.tobytes())
        np.testing.assert_array_equal(load_ppm(str(path)), body)


def test_truncated_or_malformed_header_rejected(tmp_path):
    path = tmp_path / "f.ppm"
    full = b"P6\n# c\n2 2\n255\n" + bytes(12)
    for blob in (full[:3], full[:9], full[:13], full[:15], full[:-1],
                 b"P6\n2 2 # no newline ends this comment",
                 b"P62 2\n255\n" + bytes(12), b"P6\n2 x\n255\n" + bytes(12)):
        path.write_bytes(blob)
        with pytest.raises(ValueError):
            load_ppm(str(path))


def test_short_payload_rejected(tmp_path):
    path = tmp_path / "f.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(ValueError):
        load_ppm(str(path))


def test_manifest_dimension_mismatch_rejected(tmp_path):
    video = np.zeros((4, 4, 2, 3), dtype=np.uint8)
    d = tmp_path / "out"
    save_frames(str(d), video)
    (d / "manifest.txt").write_text("frames=2 width=8 height=4\n")
    with pytest.raises(ValueError):
        load_frames(str(d))


def test_manifest_missing_key_rejected(tmp_path):
    video = np.zeros((4, 4, 2, 3), dtype=np.uint8)
    d = tmp_path / "out"
    save_frames(str(d), video)
    (d / "manifest.txt").write_text("frames=2 width=4\n")
    with pytest.raises(ValueError):
        load_frames(str(d))


def test_non_uint8_save_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_frames(str(tmp_path / "x"), np.zeros((4, 4, 2, 3)))
