"""Run configuration: dataclasses mirroring the JSON config file, loaders,
and the shipped reference configuration.

Reference calibration, documented for auditability:

* wireless throughput 16,089.54 bps is back-derived from transmitting an
  11.5 MB (SI) payload in 5718 s: 11.5e6 * 8 / 5718;
* the semantic symbol budget (378) makes the semantic payload-equivalent
  bits (symbols x 32 + side information) about 4.0% of the classical
  source-coded bits on the reference clip, matching the ~25x payload
  compression implied by the delay table the throughput came from;
* node compute capacities sit inside the published ranges (end 1.2-1.5
  TFLOPS, edge 10-100 TFLOPS, cloud 13-4000 PFLOPS) and stage costs use
  the required-compute figures (video synthesis ~100 TFLOP, scene
  preprocessing ~53 PFLOP, rendering ~7 PFLOP).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .channel import SNR_DB_RANGE, snr_db_ok
from .ldpc import CHECK_DEGREE, VAR_DEGREE
from .metrics import MS_SSIM_WEIGHTS, ms_ssim_min_side
from .semantic import SemanticCodecConfig

REFERENCE_THROUGHPUT_BPS = 11.5e6 * 8 / 5718.0  # ~16.09 kbps


def _at_least(obj, low, *names) -> None:
    for name in names:
        if not getattr(obj, name) >= low:
            raise ValueError(f"{name} must be >= {low}")


def _positive(obj, *names) -> None:
    for name in names:
        if not getattr(obj, name) > 0:
            raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class VideoSource:
    """Where a clip comes from: a named synthetic generator or a raw file."""

    kind: str = "synthetic"        # "synthetic" | "raw"
    variant: str = "test"          # "test" | "matting" | "background"
    width: int = 112
    height: int = 112
    frames: int = 8
    fps: float = 8.0
    seed: int = 2024
    path: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "raw"):
            raise ValueError(f"unknown video source kind {self.kind!r}")
        if self.variant not in ("test", "matting", "background"):
            raise ValueError(f"unknown synthetic variant {self.variant!r}")
        if self.kind == "raw" and not self.path:
            raise ValueError("raw video source needs a path")
        _at_least(self, 1, "frames")
        _at_least(self, 0, "seed")
        _positive(self, "fps")


@dataclass(frozen=True)
class ClassicalSettings:
    qp: float = 5.0
    ldpc_k: int = 512
    ldpc_seed: int = 11
    max_iters: int = 50

    def __post_init__(self) -> None:
        if not self.qp / 255.0 > 0:  # the quantizer step
            raise ValueError("qp must be positive, and so must its step qp / 255")
        _at_least(self, VAR_DEGREE * CHECK_DEGREE, "ldpc_k")
        _at_least(self, 0, "ldpc_seed")
        _at_least(self, 1, "max_iters")


@dataclass(frozen=True)
class SynthesisSettings:
    threshold: float = 0.18
    softness: float = 0.1
    radius: int = 2
    downsample_factor: int = 4

    def __post_init__(self) -> None:
        _positive(self, "threshold", "softness")
        _at_least(self, 1, "radius", "downsample_factor")


@dataclass(frozen=True)
class ReconSettings:
    enabled: bool = True
    image_size: int = 48
    n_timesteps: int = 8
    n_bases: int = 20  # published default basis count
    iterations: int = 150
    n_tracks: int = 4
    perturb_seed: int = 5

    def __post_init__(self) -> None:
        _at_least(self, 1, "image_size", "n_bases", "n_tracks")
        _at_least(self, 2, "n_timesteps")  # the fit needs two frames
        _at_least(self, 0, "iterations", "perturb_seed")


@dataclass(frozen=True)
class NodeSettings:
    flops: float

    def __post_init__(self) -> None:
        _positive(self, "flops")


@dataclass(frozen=True)
class LinkSettings:
    throughput_bps: float

    def __post_init__(self) -> None:
        _positive(self, "throughput_bps")


@dataclass(frozen=True)
class Nodes:
    end: NodeSettings = NodeSettings(flops=1.35e12)
    edge: NodeSettings = NodeSettings(flops=5e13)
    cloud: NodeSettings = NodeSettings(flops=1e17)


@dataclass(frozen=True)
class Links:
    wireless: LinkSettings = LinkSettings(throughput_bps=REFERENCE_THROUGHPUT_BPS)
    fiber: LinkSettings = LinkSettings(throughput_bps=1e10)


@dataclass(frozen=True)
class ComputeSettings:
    video_synthesis_flops: float = 100e12
    scene_preprocess_flops: float = 53e15
    render_flops: float = 7e15

    def __post_init__(self) -> None:
        _at_least(self, 0.0, "video_synthesis_flops", "scene_preprocess_flops", "render_flops")


@dataclass(frozen=True)
class MetricsSettings:
    ms_ssim_scales: int = 3

    def __post_init__(self) -> None:
        if not 1 <= self.ms_ssim_scales <= len(MS_SSIM_WEIGHTS):
            raise ValueError(f"ms_ssim_scales must lie in [1, {len(MS_SSIM_WEIGHTS)}]")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 2024
    video: VideoSource = field(default_factory=VideoSource)
    user_video: VideoSource = field(
        default_factory=lambda: VideoSource(variant="matting", width=64, height=64, seed=77)
    )
    background_video: VideoSource = field(
        default_factory=lambda: VideoSource(variant="background", width=64, height=64, seed=55)
    )
    sweep_snrs_db: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
    snr_db: float = 15.0  # the service uploads' and `semvid transmit`'s SNR
    classical: ClassicalSettings = field(default_factory=ClassicalSettings)
    semantic: SemanticCodecConfig = field(default_factory=SemanticCodecConfig)
    synthesis: SynthesisSettings = field(default_factory=SynthesisSettings)
    reconstruction: ReconSettings = field(default_factory=ReconSettings)
    nodes: Nodes = field(default_factory=Nodes)
    links: Links = field(default_factory=Links)
    compute: ComputeSettings = field(default_factory=ComputeSettings)
    metrics: MetricsSettings = field(default_factory=MetricsSettings)

    def __post_init__(self) -> None:
        if not snr_db_ok(self.snr_db):
            raise ValueError(f"snr_db must be {SNR_DB_RANGE}")
        if not self.sweep_snrs_db or not all(map(snr_db_ok, self.sweep_snrs_db)):
            raise ValueError(f"sweep_snrs_db needs at least one SNR point, each {SNR_DB_RANGE}")
        # constraints across sections; a raw clip's size is known only once it is read
        user, plate = self.user_video, self.background_video
        if user.kind == plate.kind == "synthetic":
            if (plate.width, plate.height) != (user.width, user.height):
                raise ValueError(
                    f"background_video size {plate.width}x{plate.height} must equal "
                    f"user_video's {user.width}x{user.height}: the two are composited")
            if plate.frames < user.frames:
                raise ValueError(
                    f"background_video.frames is {plate.frames}, fewer than user_video's "
                    f"{user.frames}: each user frame is composited over its own background frame")
        needed = ms_ssim_min_side(self.metrics.ms_ssim_scales)
        scored = {}  # the key of each MS-SSIM-scored clip's shorter side -> px
        for name, src in (("video", self.video), ("user_video", user), ("background_video", plate)):
            if src.kind == "synthetic":
                side = "width" if src.width <= src.height else "height"
                scored[f"{name}.{side}"] = getattr(src, side)
        if self.reconstruction.enabled:
            scored["reconstruction.image_size"] = self.reconstruction.image_size
        for key, px in scored.items():
            if px < needed:
                raise ValueError(
                    f"{key} is {px} px, below the {needed} px per side "
                    f"that metrics.ms_ssim_scales = {self.metrics.ms_ssim_scales} needs")


def reference_config() -> RunConfig:
    """The shipped, calibrated configuration used by the acceptance runs."""
    return RunConfig()


def _leaf_type_ok(default, value) -> bool:
    """bool takes bool, int a non-bool int, float an int or float, and any
    other leaf a value of its default's type."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _merge(obj, value, path: tuple = ()):
    """``obj`` with ``value`` merged in.  Config objects merge key by key; a
    tuple leaf takes a list whose elements are float leaves; any other value
    replaces the old one and must have its type, and a float leaf must be
    finite.  A bad key or value raises
    ValueError naming it by its dotted path."""
    name = ".".join(path) or "config"
    if isinstance(obj, tuple):
        if not isinstance(value, list):
            raise ValueError(f"{name} must be list, not {type(value).__name__}")
        return tuple(_merge(0.0, v, path + (str(i),)) for i, v in enumerate(value))
    if not is_dataclass(obj):
        if not _leaf_type_ok(obj, value):
            raise ValueError(f"{name} must be {type(obj).__name__}, not {type(value).__name__}")
        if not isinstance(obj, float):
            return value
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
        raise ValueError(f"{name} must be finite")
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object")
    current = {f.name: getattr(obj, f.name) for f in fields(obj)}
    for key in value:
        if key not in current:
            raise ValueError(f"unknown config key {'.'.join(path + (key,))}")
    merged = {key: _merge(current[key], v, path + (key,)) for key, v in value.items()}
    try:
        return replace(obj, **merged)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    """The reference configuration with ``data`` merged into it."""
    return _merge(reference_config(), data)


def config_to_dict(cfg: RunConfig) -> dict:
    data = asdict(cfg)
    data["sweep_snrs_db"] = list(cfg.sweep_snrs_db)
    return data


def load_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"config file {path} is not UTF-8 JSON: {exc}") from exc
    return config_from_dict(data)


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), sort_keys=True, indent=1) + "\n")
