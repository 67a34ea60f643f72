"""PPM frame directory round trips and malformed input handling."""

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


def test_later_frame_size_mismatch_names_its_index(tmp_path):
    video = np.zeros((4, 4, 3, 3), dtype=np.uint8)
    d = tmp_path / "out"
    save_frames(str(d), video)
    save_ppm(str(d / "frame_00002.ppm"), np.zeros((4, 8, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match=r"frame_00002\.ppm: frame is 8x4, expected 4x4"):
        load_frames(str(d))


def test_load_frames_is_a_frame_major_view(tmp_path):
    video = np.random.default_rng(3).integers(0, 256, (4, 6, 5, 3), dtype=np.uint8)
    save_frames(str(tmp_path / "out"), video)
    back = load_frames(str(tmp_path / "out"))
    assert back.shape == video.shape
    assert back.transpose(2, 0, 1, 3).flags.c_contiguous
    np.testing.assert_array_equal(back, video)


def test_manifest_missing_key_rejected(tmp_path):
    video = np.zeros((4, 4, 2, 3), dtype=np.uint8)
    d = tmp_path / "out"
    save_frames(str(d), video)
    (d / "manifest.txt").write_text("frames=2 width=4\n")
    with pytest.raises(ValueError):
        load_frames(str(d))


@pytest.mark.parametrize("manifest, reason", [
    ("frames=3 width=4 height=4 frames=2 colour=grey", "duplicate manifest key 'frames'"),
    ("frames=3 width=4 height=4 width=4", "duplicate manifest key 'width'"),
    ("frames=3 width=4 height=4 colour=grey", "unknown manifest key 'colour'"),
    ("Frames=3 width=4 height=4", "unknown manifest key 'Frames'"),
])
def test_manifest_repeated_or_unknown_key_rejected(tmp_path, manifest, reason):
    # the last of a repeated key used to win, so the first manifest loaded
    # 2 of the sequence's 3 frames
    d = tmp_path / "out"
    save_frames(str(d), np.zeros((4, 4, 3, 3), dtype=np.uint8))
    (d / "manifest.txt").write_text(manifest + "\n")
    with pytest.raises(ValueError) as info:
        load_frames(str(d))
    assert str(info.value) == f"{d}: {reason}"


def test_non_uint8_save_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_frames(str(tmp_path / "x"), np.zeros((4, 4, 2, 3)))


def test_saving_replaces_a_hard_linked_frame(tmp_path):
    # a save makes a new file at the name; it does not rewrite the old one
    d = tmp_path / "seq"
    save_frames(str(d), np.zeros((4, 5, 2, 3), dtype=np.uint8))
    old = (d / "frame_00001.ppm").read_bytes()
    os.link(d / "frame_00001.ppm", tmp_path / "kept.ppm")
    save_frames(str(d), np.full((4, 5, 2, 3), 200, dtype=np.uint8))
    assert (tmp_path / "kept.ppm").read_bytes() == old
    assert load_frames(str(d)).min() == 200


def test_symlink_at_frame_name_is_replaced_and_its_target_kept(tmp_path):
    target = tmp_path / "target.ppm"
    target.write_bytes(b"not a frame")
    d = tmp_path / "seq"
    d.mkdir()
    (d / "frame_00000.ppm").symlink_to(target)
    video = np.arange(4 * 5 * 3, dtype=np.uint8).reshape(4, 5, 1, 3)
    save_frames(str(d), video)
    assert not (d / "frame_00000.ppm").is_symlink()
    assert target.read_bytes() == b"not a frame"
    np.testing.assert_array_equal(load_frames(str(d)), video)


def test_saving_over_a_longer_sequence_reads_back_like_a_fresh_one(tmp_path):
    rng = np.random.default_rng(4)
    save_frames(str(tmp_path / "seq"), rng.integers(0, 256, (6, 7, 9, 3), dtype=np.uint8))
    video = rng.integers(0, 256, (5, 4, 3, 3), dtype=np.uint8)
    save_frames(str(tmp_path / "seq"), video)
    save_frames(str(tmp_path / "fresh"), video)
    np.testing.assert_array_equal(load_frames(str(tmp_path / "seq")),
                                  load_frames(str(tmp_path / "fresh")))
    for name in os.listdir(tmp_path / "fresh"):
        assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


# ---- P6 parser properties ------------------------------------------------------

frames = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda hw: arrays(np.uint8, hw + (3,)))
blanks = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\v", b"\f"])
comments = st.builds(lambda text, end: b"#" + text.translate(None, b"\r\n") + end,
                     st.binary(max_size=8), st.sampled_from([b"\n", b"\r"]))
# what may separate two header fields: whitespace and comments, at least one
header_gaps = st.lists(st.one_of(blanks, comments), min_size=1, max_size=4).map(b"".join)


def ppm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ppm") / "f.ppm"


@given(frames)
def test_ppm_round_trip_property(tmp_path_factory, img):
    path = ppm_path(tmp_path_factory)
    save_ppm(str(path), img)
    back = load_ppm(str(path))
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, img)


videos = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4)).flatmap(
    lambda hws: arrays(np.uint8, hws + (3,)))


@given(videos, st.booleans())
def test_load_frames_returns_what_save_frames_wrote(tmp_path_factory, video, frame_major):
    # the same values saved from a C-ordered array or from a frame-major view
    if frame_major:
        video = np.ascontiguousarray(video.transpose(2, 0, 1, 3)).transpose(1, 2, 0, 3)
    d = tmp_path_factory.mktemp("seq")
    save_frames(str(d), video)
    back = load_frames(str(d))
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, video)


@given(frames, header_gaps, header_gaps, header_gaps, blanks)
def test_any_netpbm_header_spelling_loads_same_pixels(tmp_path_factory, img, g0, g1, g2, last):
    H, W, _ = img.shape
    path = ppm_path(tmp_path_factory)
    path.write_bytes(b"P6" + g0 + str(W).encode() + g1 + str(H).encode() + g2 + b"255" + last
                     + img.tobytes())
    np.testing.assert_array_equal(load_ppm(str(path)), img)


@given(frames, header_gaps)
def test_every_truncation_rejected(tmp_path_factory, img, gap):
    H, W, _ = img.shape
    blob = b"P6" + gap + f"{W} {H}\n255\n".encode() + img.tobytes()
    path = ppm_path(tmp_path_factory)
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError):
            load_ppm(str(path))
