import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semvid.video import VideoSequence, box_downsample, load_raw, save_raw, segment_gops

import pins


def _video(n, h=4, w=6, fps=8.0):
    rng = np.random.default_rng(n)
    arr = np.round(rng.random((n, h, w, 3)) * 255) / 255
    return VideoSequence(arr, fps)


class TestSegment:
    def test_exact_division(self):
        gops = segment_gops(_video(8, fps=12.0), 4)
        assert [len(g) for g in gops] == [4, 4]
        assert {g.fps for g in gops} == {12.0}

    def test_remainder(self):
        gops = segment_gops(_video(7), 4)
        assert [len(g) for g in gops] == [4, 3]

    def test_degenerate(self):
        gops = segment_gops(_video(5), 1)
        assert [len(g) for g in gops] == [1, 1, 1, 1, 1]

    def test_bad_gop_size(self):
        with pytest.raises(ValueError):
            segment_gops(_video(4), 0)

    def test_gops_share_the_clips_samples(self):
        video = _video(7)
        assert all(np.shares_memory(g.frames, video.frames) for g in segment_gops(video, 3))

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(n_frames=st.integers(1, 12), n=st.integers(1, 6))
    def test_segment_then_flatten_is_identity(self, n_frames, n):
        video = _video(n_frames)
        frames = [f for g in segment_gops(video, n) for f in g.frames]
        assert np.array_equal(np.stack(frames), video.frames)


class TestDownsample:
    def test_constant_invariance(self):
        out = box_downsample(np.full((8, 8, 3), 0.5), 2)
        assert np.array_equal(out, np.full((4, 4, 3), 0.5))

    def test_identity(self):
        data = _video(1).frames[0]
        out = box_downsample(data, 1)
        assert np.array_equal(out, data)
        out[0, 0, 0] = 0.3  # a writable copy, though the frame's samples are read-only
        assert not np.shares_memory(out, data)

    def test_hand_computed_box_filter(self):
        data = np.zeros((2, 2, 3))
        data[1, :, :] = 1.0
        out = box_downsample(data, 2)
        assert out.shape == (1, 1, 3)
        assert np.allclose(out, 0.5)

    def test_zero_factor_rejected(self):
        for factor in (0, -1):
            with pytest.raises(ValueError):
                box_downsample(np.zeros((2, 2, 3)), factor)

    def test_mean_preserved_when_factor_divides(self):
        data = _video(1, h=12, w=8).frames[0]
        out = box_downsample(data, 4)
        assert np.allclose(out.mean(axis=(0, 1)), data.mean(axis=(0, 1)), rtol=0, atol=1e-9)

    def test_ceil_output_dims(self):
        # odd sizes edge-pad: the last row and column repeat into the last cells
        data = np.arange(5 * 7, dtype=np.float64).reshape(5, 7)
        out = box_downsample(data, 2)
        assert out.shape == (3, 4)
        assert out[2, 0] == data[4, 0:2].mean()
        assert out[0, 3] == data[0:2, 6].mean()
        assert out[2, 3] == data[4, 6]


class TestRawFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        video = _video(6)
        path = tmp_path / "clip.rgb"
        save_raw(video, path)
        loaded = load_raw(path)
        assert np.array_equal(loaded.frames, video.frames)
        assert loaded.fps == video.fps
        # saving again produces identical bytes
        save_raw(loaded, tmp_path / "again.rgb")
        assert (tmp_path / "again.rgb").read_bytes() == path.read_bytes()

    def test_json_payload_path_refused_before_writing(self, tmp_path):
        # the sidecar would overwrite the payload it describes
        path = tmp_path / "clip.json"
        with pytest.raises(ValueError, match=re.escape(str(path))):
            save_raw(_video(3), path)
        assert not path.exists()

    def test_truncated_payload_rejected(self, tmp_path):
        video = _video(3)
        path = tmp_path / "clip.rgb"
        save_raw(video, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(IOError):
            load_raw(path)

    def test_header_mismatch_rejected(self, tmp_path):
        video = _video(3)
        path = tmp_path / "clip.rgb"
        save_raw(video, path)
        sidecar = path.with_suffix(".json")
        header = json.loads(sidecar.read_text())
        header["frames"] = 99
        sidecar.write_text(json.dumps(header))
        with pytest.raises(IOError):
            load_raw(path)

    def test_missing_sidecar_rejected(self, tmp_path):
        path = tmp_path / "clip.rgb"
        path.write_bytes(b"\x00" * 12)
        with pytest.raises(IOError):
            load_raw(path)

    @pytest.mark.parametrize("field, value", [
        ("frames", 1.7), ("frames", 0), ("frames", True), ("frames", "3"),
        ("width", -6), ("height", -4), ("width", 0), ("height", 4.0),
        ("fps", 0.0), ("fps", -8.0), ("fps", float("inf")), ("fps", float("nan")),
        ("fps", False), ("fps", "8.0"),
        # no field: the value is the whole sidecar, valid JSON but no object
        (None, 42), (None, None), (None, "width height fps frames"),
    ])
    def test_bad_sidecar_field_rejected(self, tmp_path, field, value):
        # the payload is left alone, so only the field's check can refuse it
        path = tmp_path / "clip.rgb"
        save_raw(_video(3), path)
        sidecar = path.with_suffix(".json")
        header = json.loads(sidecar.read_text())
        if field is None:
            header = value
        else:
            header[field] = value
        sidecar.write_text(json.dumps(header))
        match = f"field '{field}'" if field else re.escape(f"sidecar {sidecar} must")
        with pytest.raises(IOError, match=match):
            load_raw(path)

    @pytest.mark.parametrize("text", [b"{width", b"\xff\xfe"], ids=["not-json", "not-utf8"])
    def test_unreadable_sidecar_rejected(self, tmp_path, text):
        path = tmp_path / "clip.rgb"
        save_raw(_video(3), path)
        sidecar = path.with_suffix(".json")
        sidecar.write_bytes(text)
        with pytest.raises(IOError, match=re.escape(f"sidecar {sidecar} is not UTF-8 JSON")):
            load_raw(path)

    def test_integral_fps_read_as_float(self, tmp_path):
        path = tmp_path / "clip.rgb"
        save_raw(_video(2), path)
        sidecar = path.with_suffix(".json")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "fps": 8}))
        assert load_raw(path).fps == 8.0 and isinstance(load_raw(path).fps, float)

    def test_duration_from_header(self, tmp_path):
        video = _video(60, fps=30.0)
        path = tmp_path / "clip.rgb"
        save_raw(video, path)
        loaded = load_raw(path)
        assert len(loaded) / loaded.fps == pytest.approx(2.0)


class TestValidation:
    def test_frame_range_checked(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            VideoSequence(np.full((1, 2, 2, 3), 1.5), 8.0)

    def test_frame_shape_checked(self):
        with pytest.raises(ValueError, match=r"shape \(n, h, w, 3\)"):
            VideoSequence(np.zeros((1, 2, 2)), 8.0)

    @pytest.mark.parametrize("frames, message", [
        (np.zeros((1, 0, 2, 3)), "at least one pixel"),
        (np.full((1, 2, 2, 3), np.nan), "finite"),
        (np.full((1, 2, 2, 3), -np.inf), "finite"),
    ], ids=["no-pixel", "nan", "-inf"])
    def test_empty_or_non_finite_frames_refused(self, frames, message):
        with pytest.raises(ValueError, match=message):
            VideoSequence(frames, 8.0)

    def test_gop_needs_homogeneous_dims(self):
        with pytest.raises(ValueError):
            VideoSequence([np.zeros((2, 2, 3)), np.zeros((4, 4, 3))], 8.0)

    def test_size_is_the_frames_size(self):
        video = _video(2, h=4, w=6)
        assert (video.width, video.height) == (6, 4)

    def test_fps_positive(self):
        with pytest.raises(ValueError, match="fps"):
            VideoSequence(_video(1).frames, 0.0)

    def test_empty_clip_rejected(self):
        with pytest.raises(ValueError, match="at least one frame"):
            VideoSequence((), 8.0)

    def test_frames_immutable(self):
        frame = _video(1).frames[0]
        with pytest.raises(ValueError):
            frame[0, 0, 0] = 0.3

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_clip_holds_its_own_copy(self, read_only_view):
        # a Fortran-ordered input, or a read-only view of a writable one
        arr = np.random.default_rng(4).random((3, 4, 6, 3))
        if not read_only_view:
            arr = np.asfortranarray(arr)
        before = arr.copy()
        given = arr.view()
        given.setflags(write=not read_only_view)
        video = VideoSequence(given, 8.0)
        assert arr.flags.writeable
        arr[0, 0, 0, 0] = 1.0 - arr[0, 0, 0, 0]
        assert np.array_equal(video.frames, before)
        assert video.frames.flags.c_contiguous and not video.frames.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            video.frames[0, 0, 0, 0] = 0.5


def test_fixtures_pinned():
    pins.check("video.fixtures")
