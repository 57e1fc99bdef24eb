"""Video data model: frames, clips, and raw-file round tripping.  A GOP
(group of pictures) is a slice of a clip, so it is a clip too.

Samples are floats in [0, 1] in memory and 8 bits on disk: ``save_raw``
quantizes with round(x * 255) and ``load_raw`` returns k / 255.0, so
save -> load -> save is byte identical and load(save(x)) == x whenever x
already sits on the 8-bit grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHANNELS = 3

SIDECAR_FIELDS = ("width", "height", "fps", "frames")


@dataclass(frozen=True)
class Frame:
    """One RGB raster, shape (height, width, 3), samples in [0, 1]."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != CHANNELS:
            raise ValueError(f"frame must have shape (h, w, {CHANNELS}), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("frame must have at least one pixel")
        if not np.all(np.isfinite(arr)):
            raise ValueError("frame samples must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("frame samples must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class VideoSequence:
    """An ordered run of same-sized frames with a playback rate."""

    frames: tuple
    fps: float

    def __post_init__(self) -> None:
        frames = tuple(self.frames)
        if not np.isfinite(self.fps) or self.fps <= 0:
            raise ValueError("fps must be positive and finite")
        if frames:
            w, h = frames[0].width, frames[0].height
            for f in frames:
                if (f.width, f.height) != (w, h):
                    raise ValueError("all frames in a sequence must share dimensions")
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height

    def to_array(self) -> np.ndarray:
        return np.stack([f.data for f in self.frames])

    @classmethod
    def from_array(cls, arr, fps: float) -> "VideoSequence":
        arr = np.asarray(arr, dtype=np.float64)
        return cls(tuple(Frame(a) for a in arr), fps)


def segment_gops(video: VideoSequence, n: int) -> list:
    """Split a video into GOPs of ``n`` frames at its rate; the last GOP may
    be shorter.  Concatenating the GOPs' frames reproduces the input's."""
    if n < 1:
        raise ValueError("GOP size must be >= 1")
    if len(video) == 0:
        raise ValueError("cannot segment an empty video")
    return [VideoSequence(video.frames[i : i + n], video.fps) for i in range(0, len(video), n)]


def pad_edge(arr: np.ndarray, multiple_h: int, multiple_w: int) -> np.ndarray:
    """Edge-replicate an (h, w, ...) array up to the given multiples."""
    h, w = arr.shape[:2]
    ph = (-h) % multiple_h
    pw = (-w) % multiple_w
    if ph == 0 and pw == 0:
        return arr
    pad = [(0, ph), (0, pw)] + [(0, 0)] * (arr.ndim - 2)
    return np.pad(arr, pad, mode="edge")


def box_downsample(arr: np.ndarray, factor: int) -> np.ndarray:
    """Box-filter average of an (h, w, ...) array; edge-pads first, so the
    output has shape (ceil(h/f), ceil(w/f), ...)."""
    if factor < 1:
        raise ValueError("downsample factor must be >= 1")
    if factor == 1:
        return np.array(arr)
    padded = pad_edge(np.asarray(arr, dtype=np.float64), factor, factor)
    h, w = padded.shape[:2]
    shaped = padded.reshape(h // factor, factor, w // factor, factor, *padded.shape[2:])
    return shaped.mean(axis=(1, 3))


def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(".json")


def save_raw(video: VideoSequence, path) -> None:
    """Write ``<name>.rgb`` (planar 8-bit payload) plus a ``<name>.json``
    sidecar with fields width, height, fps, frames.

    Planar layout: for each frame, the full R plane, then G, then B,
    row major, one byte per sample.
    """
    path = Path(path)
    if len(video) == 0:
        raise ValueError("refusing to save an empty video")
    arr = video.to_array()
    quantized = np.round(arr * 255.0).astype(np.uint8)
    planar = np.moveaxis(quantized, 3, 1)  # (n, 3, h, w)
    path.write_bytes(planar.tobytes())
    header = {
        "width": video.width,
        "height": video.height,
        "fps": video.fps,
        "frames": len(video),
    }
    _sidecar_path(path).write_text(json.dumps(header, sort_keys=True) + "\n")


def load_raw(path) -> VideoSequence:
    """Load a raw video written by :func:`save_raw`."""
    path = Path(path)
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise IOError(f"missing sidecar header {sidecar}")
    header = json.loads(sidecar.read_text())
    missing = [k for k in SIDECAR_FIELDS if k not in header]
    if missing:
        raise IOError(f"sidecar {sidecar} missing fields {missing}")
    for key in SIDECAR_FIELDS:
        value = header[key]
        kinds, what = ((int, float), "finite number") if key == "fps" else (int, "integer")
        if isinstance(value, bool) or not isinstance(value, kinds) or not 0 < value < np.inf:
            raise IOError(f"sidecar {sidecar} field {key!r} must be a positive {what}, "
                          f"got {value!r}")
    width, height, fps, n_frames = (header[k] for k in SIDECAR_FIELDS)
    payload = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    expected = n_frames * CHANNELS * height * width
    if payload.size != expected:
        raise IOError(
            f"payload size mismatch for {path}: header implies {expected} bytes, "
            f"found {payload.size}"
        )
    planar = payload.reshape(n_frames, CHANNELS, height, width)
    arr = np.moveaxis(planar, 1, 3).astype(np.float64) / 255.0
    return VideoSequence.from_array(arr, float(fps))
