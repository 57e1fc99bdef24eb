import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semvid.video import (
    Frame,
    Gop,
    VideoSequence,
    downsample,
    flatten_gops,
    load_raw,
    save_raw,
    segment_gops,
)


def _video(n, h=4, w=6, fps=8.0):
    rng = np.random.default_rng(n)
    arr = np.round(rng.random((n, h, w, 3)) * 255) / 255
    return VideoSequence.from_array(arr, fps)


class TestSegment:
    def test_exact_division(self):
        gops = segment_gops(_video(8), 4)
        assert [g.gop_size for g in gops] == [4, 4]

    def test_remainder(self):
        gops = segment_gops(_video(7), 4)
        assert [g.gop_size for g in gops] == [4, 3]

    def test_degenerate(self):
        gops = segment_gops(_video(5), 1)
        assert [g.gop_size for g in gops] == [1, 1, 1, 1, 1]

    def test_empty_video_rejected(self):
        with pytest.raises(ValueError):
            segment_gops(VideoSequence((), 8.0), 4)

    def test_bad_gop_size(self):
        with pytest.raises(ValueError):
            segment_gops(_video(4), 0)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(n_frames=st.integers(1, 12), n=st.integers(1, 6))
    def test_segment_then_flatten_is_identity(self, n_frames, n):
        video = _video(n_frames)
        flat = flatten_gops(segment_gops(video, n), video.fps)
        assert np.array_equal(flat.to_array(), video.to_array())


class TestDownsample:
    def test_constant_invariance(self):
        frame = Frame(np.full((8, 8, 3), 0.5))
        out = downsample(frame, 2)
        assert out.data.shape == (4, 4, 3)
        assert np.array_equal(out.data, np.full((4, 4, 3), 0.5))

    def test_identity(self):
        frame = _video(1).frames[0]
        assert np.array_equal(downsample(frame, 1).data, frame.data)

    def test_hand_computed_box_filter(self):
        data = np.zeros((2, 2, 3))
        data[1, :, :] = 1.0
        out = downsample(Frame(data), 2)
        assert out.data.shape == (1, 1, 3)
        assert np.allclose(out.data, 0.5)

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            downsample(_video(1).frames[0], 0)

    def test_mean_preserved_when_factor_divides(self):
        frame = _video(1, h=12, w=8).frames[0]
        out = downsample(frame, 4)
        for c in range(3):
            assert abs(out.data[..., c].mean() - frame.data[..., c].mean()) < 1e-9

    def test_ceil_output_dims(self):
        frame = _video(1, h=5, w=7).frames[0]
        out = downsample(frame, 2)
        assert (out.height, out.width) == (3, 4)


class TestRawFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        video = _video(6)
        path = tmp_path / "clip.rgb"
        save_raw(video, path)
        loaded = load_raw(path)
        assert np.array_equal(loaded.to_array(), video.to_array())
        assert loaded.fps == video.fps
        # saving again produces identical bytes
        save_raw(loaded, tmp_path / "again.rgb")
        assert (tmp_path / "again.rgb").read_bytes() == path.read_bytes()

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

    def test_duration_from_header(self, tmp_path):
        video = _video(60, fps=30.0)
        path = tmp_path / "clip.rgb"
        save_raw(video, path)
        loaded = load_raw(path)
        assert len(loaded) / loaded.fps == pytest.approx(2.0)


class TestValidation:
    def test_frame_range_checked(self):
        with pytest.raises(ValueError):
            Frame(np.full((2, 2, 3), 1.5))

    def test_frame_shape_checked(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((2, 2)))

    def test_gop_needs_homogeneous_dims(self):
        a = Frame(np.zeros((2, 2, 3)))
        b = Frame(np.zeros((4, 4, 3)))
        with pytest.raises(ValueError):
            Gop((a, b))

    def test_fps_positive(self):
        with pytest.raises(ValueError):
            VideoSequence((), 0.0)

    def test_frames_immutable(self):
        frame = _video(1).frames[0]
        with pytest.raises(ValueError):
            frame.data[0, 0, 0] = 0.3
