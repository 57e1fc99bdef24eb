"""Video data model: clips and raw-file round tripping.  A GOP
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
class VideoSequence:
    """A nonempty clip of same-sized RGB frames with a playback rate.
    ``frames`` is a read-only, C-contiguous float64 (T, H, W, 3) array of
    samples in [0, 1]; frame ``i`` is ``frames[i]``.  An array that no one
    can write (read-only, as is the array that owns its memory) is kept as
    it is, so GOPs share their clip's samples; anything else is copied, so
    a later write to the caller's array cannot reach the clip."""

    frames: np.ndarray
    fps: float

    def __post_init__(self) -> None:
        frames = self.frames
        owner = frames if getattr(frames, "base", None) is None else frames.base
        if not (isinstance(owner, np.ndarray) and not owner.flags.writeable
                and frames.dtype == np.float64 and frames.flags.c_contiguous):
            frames = np.array(frames, dtype=np.float64, order="C")
        if frames.shape[:1] == (0,):
            raise ValueError("a clip needs at least one frame")
        if not np.isfinite(self.fps) or self.fps <= 0:
            raise ValueError("fps must be positive and finite")
        if frames.ndim != 4 or frames.shape[3] != CHANNELS:
            raise ValueError(f"a clip must have shape (n, h, w, {CHANNELS}), got {frames.shape}")
        if frames.shape[1] < 1 or frames.shape[2] < 1:
            raise ValueError("frame must have at least one pixel")
        if not np.all(np.isfinite(frames)):
            raise ValueError("frame samples must be finite")
        if frames.min() < 0.0 or frames.max() > 1.0:
            raise ValueError("frame samples must lie in [0, 1]")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    def to_array(self) -> np.ndarray:
        """A writable copy of ``frames``.  Only ``perfbench/`` calls it."""
        return np.array(self.frames)

    @classmethod
    def from_array(cls, arr, fps: float) -> "VideoSequence":
        """``VideoSequence(arr, fps)``.  Only ``perfbench/`` calls it."""
        return cls(arr, fps)


def segment_gops(video: VideoSequence, n: int) -> list:
    """Split a video into GOPs of ``n`` frames at its rate; the last GOP may
    be shorter.  Concatenating the GOPs' frames reproduces the input's."""
    if n < 1:
        raise ValueError("GOP size must be >= 1")
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
    if _sidecar_path(path) == path:
        raise ValueError(f"raw clip path {path} has the sidecar's suffix .json")
    quantized = np.round(video.frames * 255.0).astype(np.uint8)
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
    try:
        header = json.loads(sidecar.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise IOError(f"sidecar {sidecar} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise IOError(f"sidecar {sidecar} must hold a JSON object, got {header!r}")
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
    return VideoSequence(arr, float(fps))
