"""semvid: a deterministic desk-scale simulator of a semantic-communication
video service across a cloud-edge-end topology, with a classical
source/channel-coded baseline, video compositing, and dynamic 3D Gaussian
scene reconstruction."""

from .channel import TxStats, awgn
from .config import LinkSettings, NodeSettings, RunConfig, load_config, reference_config, save_config
from .metrics import average_jaccard, epe, mse, ms_ssim, pck, psnr
from .pipeline import ServiceReport, compare_baselines, run_service, stage_latency
from .video import VideoSequence, load_raw, save_raw, segment_gops

__version__ = "0.1.0"

__all__ = [
    "TxStats", "awgn",
    "LinkSettings", "NodeSettings", "RunConfig", "load_config", "reference_config",
    "save_config",
    "average_jaccard", "epe", "mse", "ms_ssim", "pck", "psnr",
    "ServiceReport", "compare_baselines", "run_service", "stage_latency",
    "VideoSequence", "load_raw", "save_raw", "segment_gops",
    "__version__",
]
