"""Service orchestration: the cloud-edge-end flow (semantic uploads, cloud
compositing, scene fitting, edge rendering, semantic download), latency
accounting against node/link budgets, SNR sweeps, and the baseline
comparison report.

Delay model: every stage costs payload_bits / link_throughput for its
transmission part plus flops / node_capacity for its compute part.
Wireless payloads count side information (masks, model parameters, and the
classical block map) so the delay ratios are auditable.  Reports are plain
dicts serialized with sorted keys, so identical configurations and seeds
produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import fixtures
from .channel import ChannelConfig, TxStats, derive_seed
from .classical import prepare_classical, transmit_prepared
from .config import LinkSettings, NodeSettings, ReconSettings, RunConfig, VideoSource
from .ldpc import make_ldpc_code
from .metrics import ClipMsSsim, epe, ms_ssim, pck, psnr
from .recon.fit import fit_scene
from .recon.render import render
from .recon.scene import pose_pipeline, scene_params
# semantic_transmit is unused here, but the benchmark tracer wraps it by this
# module's name, so it stays importable from semvid.pipeline
from .semantic import prepare_semantic, semantic_transmit, transmit_packet  # noqa: F401
from .synthesis import (
    AlphaMatte,
    composite,
    detail_loss,
    estimate_matte,
    fusion_loss,
    matte_iou,
    semantic_loss,
    transition_mask,
)
from .video import Frame, VideoSequence, box_downsample, load_raw, segment_gops

LPIPS_NOTE = "unavailable: requires a pretrained perceptual network (out of scope)"
CHAINS = ("semantic", "classical")


def stage_latency(payload_bits: float, link: LinkSettings, flops: float,
                  node: NodeSettings) -> float:
    """Transmission plus compute time for one stage."""
    if payload_bits < 0 or flops < 0:
        raise ValueError("payload and compute must be non-negative")
    return payload_bits / link.throughput_bps + flops / node.flops


@dataclass
class StageReport:
    name: str = ""                      # stamped by run_service from SERVICE_STAGES
    status: str = "ok"                  # ok | failed | skipped
    transmission_seconds: float = 0.0
    compute_seconds: float = 0.0
    tx: TxStats = None
    metrics: dict = field(default_factory=dict)
    error: str = ""

    @property
    def delay_seconds(self) -> float:
        return self.transmission_seconds + self.compute_seconds

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "status": self.status,
            "transmission_seconds": self.transmission_seconds,
            "compute_seconds": self.compute_seconds,
            "delay_seconds": self.delay_seconds,
            "metrics": self.metrics,
        }
        if self.tx is not None:
            data["tx"] = asdict(self.tx)
        if self.error:
            data["error"] = self.error
        return data


@dataclass
class ServiceReport:
    stages: list
    notes: dict = field(default_factory=dict)

    @property
    def total_delay_seconds(self) -> float:
        return sum(s.delay_seconds for s in self.stages)

    @property
    def wireless_delay_seconds(self) -> float:
        return sum(
            s.transmission_seconds for s in self.stages if s.metrics.get("link") == "wireless"
        )

    def to_dict(self) -> dict:
        return {
            "stages": [s.to_dict() for s in self.stages],
            "totals": {
                "total_delay_seconds": self.total_delay_seconds,
                "wireless_delay_seconds": self.wireless_delay_seconds,
            },
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"


def resolve_video(source: VideoSource) -> VideoSequence:
    if source.kind == "raw":
        return load_raw(source.path)
    args = (source.width, source.height, source.frames, source.fps, source.seed)
    if source.variant == "matting":
        return fixtures.make_matting_set(*args)[0]
    if source.variant == "background":
        return fixtures.make_background_clip(*args)
    return fixtures.make_test_clip(*args)


def user_clip(source: VideoSource):
    """The user clip, the clean plate it is matted against and its
    ground-truth mattes.  Only the synthetic matting set has mattes and a
    separate plate; any other clip is matted against its own first frame
    and its mattes are None."""
    if source.kind == "synthetic" and source.variant == "matting":
        return fixtures.make_matting_set(
            source.width, source.height, source.frames, source.fps, source.seed)
    video = resolve_video(source)
    return video, video.frames[0], None


def _quality(reference: VideoSequence, received: VideoSequence, ms_ssims: list) -> dict:
    """Mean per-frame PSNR and MS-SSIM, given every frame's MS-SSIM."""
    return {
        "psnr_db": float(np.mean([psnr(a, b) for a, b in zip(reference.frames, received.frames)])),
        "ms_ssim": float(np.mean(ms_ssims)),
    }


def video_quality(reference: VideoSequence, received: VideoSequence, scales: int) -> dict:
    """Mean per-frame PSNR and MS-SSIM of ``received`` against ``reference``,
    holding one frame's MS-SSIM terms at a time.  Empty clips, and clips of
    another length or frame size, raise ``ValueError``."""
    if not reference.frames or len(received) != len(reference):
        raise ValueError(f"clips need one nonzero length: reference has {len(reference)} "
                         f"frames, received has {len(received)}")
    ms_ssims = [ms_ssim(a, b, scales) for a, b in zip(reference.frames, received.frames)]
    return _quality(reference, received, ms_ssims)


def quality_scorer(reference: VideoSequence, scales: int):
    """``video_quality`` against ``reference`` as a function of the received
    clip, for scoring many: the reference side of MS-SSIM is computed once
    and kept, and a received clip equal to one scored before, frame bytes
    and all, reuses its scores."""
    ms_ssim_of = ClipMsSsim(reference.to_array(), scales)
    scored = {}

    def score(received: VideoSequence) -> dict:
        clip = received.to_array()
        key = (clip.shape, hashlib.sha1(clip).digest())
        if key not in scored:
            scored[key] = _quality(reference, received, ms_ssim_of.frame_scores(clip))
        return dict(scored[key])

    return score


@dataclass(frozen=True)
class PreparedClip:
    """A clip encoded once for one chain, ready to be sent at any SNR."""

    chain: str
    payloads: tuple       # per GOP: SemanticPacket or PreparedClassical
    fps: float
    wireless_bits: int    # payload plus side information, all GOPs


def prepare_clip(video: VideoSequence, chain: str, cfg: RunConfig,
                 symbol_budget: int = None) -> PreparedClip:
    """Segment a clip into GOPs and run one chain's encoder on each.  The
    semantic chain keeps ``symbol_budget`` symbols per GOP (default: the
    config's ``symbol_budget``)."""
    gops = segment_gops(video, cfg.semantic.gop_size)
    if chain == "semantic":
        budget = cfg.semantic.symbol_budget if symbol_budget is None else symbol_budget
        packets = tuple(prepare_semantic(g, budget, cfg.semantic) for g in gops)
        bits = sum(p.symbol_count * cfg.semantic.bits_per_symbol_eq + p.side_info_bits
                   for p in packets)
        return PreparedClip(chain, packets, video.fps, bits)
    if chain == "classical":
        code = make_ldpc_code(cfg.classical.ldpc_k, cfg.classical.ldpc_seed)
        preps = tuple(prepare_classical(g, cfg.classical.qp, code) for g in gops)
        bits = sum(p.bitstream.bit_length + p.bitstream.side_info_bits for p in preps)
        return PreparedClip(chain, preps, video.fps, bits)
    raise ValueError(f"unknown chain {chain!r}")


def send(clip: PreparedClip, cfg: RunConfig, snr_db: float, *labels):
    """Send a prepared clip GOP by GOP over the AWGN channel; returns the
    received video and summed accounting.  GOP ``i`` draws its noise from
    ``derive_seed(cfg.seed, *labels, i)``.  The classical chain conceals
    undecodable macroblocks from the previous GOP's last received frame."""
    frames = []
    total = TxStats(0, 0)
    prev = None
    for i, payload in enumerate(clip.payloads):
        ch = ChannelConfig(snr_db, derive_seed(cfg.seed, *labels, i))
        if clip.chain == "semantic":
            rec, st = transmit_packet(payload, ch, cfg.semantic)
        else:
            rec, st = transmit_prepared(payload, ch, prev, max_iters=cfg.classical.max_iters)
            prev = rec[-1]
        frames.extend(rec)
        total = total.merge(st)
    return VideoSequence(tuple(frames), clip.fps), total


def transmit_video(video: VideoSequence, chain: str, cfg: RunConfig, snr_db: float,
                   label: str):
    """Encode a whole clip for one chain and send it once; channel seeds
    derive from (config seed, chain, label, SNR, GOP index)."""
    return send(prepare_clip(video, chain, cfg), cfg, snr_db, chain, label, f"{snr_db:.3f}")


@dataclass
class CurveData:
    """Per-SNR, per-chain quality rows, CSV-serializable."""

    rows: list

    def to_csv(self) -> str:
        lines = ["snr_db,chain,psnr_db,ms_ssim"]
        for r in self.rows:
            lines.append(f"{r['snr_db']!r},{r['chain']},{r['psnr_db']!r},{r['ms_ssim']!r}")
        return "\n".join(lines) + "\n"

    def chain_series(self, chain: str):
        """The chain's (SNRs, PSNRs), in increasing SNR."""
        rows = sorted((r for r in self.rows if r["chain"] == chain), key=lambda r: r["snr_db"])
        return [r["snr_db"] for r in rows], [r["psnr_db"] for r in rows]

    def max_adjacent_drop(self, chain: str) -> float:
        _, vals = self.chain_series(chain)
        return max(prev - cur for prev, cur in zip(vals[1:], vals[:-1]))


def _prepare_reference(cfg: RunConfig):
    """The reference clip and its one encode per chain."""
    video = resolve_video(cfg.video)
    return video, {chain: prepare_clip(video, chain, cfg) for chain in CHAINS}


def _sweep(cfg: RunConfig, snrs, video: VideoSequence, clips: dict) -> CurveData:
    quality = quality_scorer(video, cfg.metrics.ms_ssim_scales)
    rows = []
    for snr in snrs:
        for chain in CHAINS:
            received, _ = send(clips[chain], cfg, snr, chain, "sweep", f"{snr:.3f}")
            q = quality(received)
            rows.append({"snr_db": float(snr), "chain": chain, **q})
    return CurveData(rows)


def snr_sweep(cfg: RunConfig, snr_list=None) -> CurveData:
    """Both chains over the SNR grid on the reference clip; each chain
    encodes the clip once and sends it at every SNR point."""
    snrs = list(cfg.sweep_snrs_db if snr_list is None else snr_list)
    if not snrs:
        raise ValueError("sweep needs at least one SNR point")
    return _sweep(cfg, snrs, *_prepare_reference(cfg))


@dataclass
class ComparisonReport:
    curve: CurveData
    semantic_payload_bits: int
    classical_payload_bits: int
    semantic_delay_seconds: float
    classical_delay_seconds: float
    delay_reduction_pct: float

    def to_dict(self) -> dict:
        return {
            "delays": {
                "semantic_payload_bits": self.semantic_payload_bits,
                "classical_payload_bits": self.classical_payload_bits,
                "semantic_delay_seconds": self.semantic_delay_seconds,
                "classical_delay_seconds": self.classical_delay_seconds,
                "delay_reduction_pct": self.delay_reduction_pct,
            },
            "curve": self.curve.rows,
            "notes": {"lpips": LPIPS_NOTE},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"


def compare_baselines(cfg: RunConfig) -> ComparisonReport:
    """Delay and quality comparison of the two chains on the reference clip
    at the reference wireless throughput."""
    video, clips = _prepare_reference(cfg)
    throughput = cfg.links.wireless.throughput_bps
    sem_bits = clips["semantic"].wireless_bits
    cls_bits = clips["classical"].wireless_bits
    sem_delay = sem_bits / throughput
    cls_delay = cls_bits / throughput
    return ComparisonReport(
        curve=_sweep(cfg, cfg.sweep_snrs_db, video, clips),
        semantic_payload_bits=sem_bits,
        classical_payload_bits=cls_bits,
        semantic_delay_seconds=sem_delay,
        classical_delay_seconds=cls_delay,
        delay_reduction_pct=100.0 * (1.0 - sem_delay / cls_delay),
    )


def _wireless_stage(video: VideoSequence, cfg: RunConfig, label: str):
    """One semantic hop over the wireless link at the configured SNR, with
    the service budget; returns the received video and its stage report."""
    clip = prepare_clip(video, "semantic", cfg, cfg.semantic.service_symbol_budget)
    received, st = send(clip, cfg, cfg.snr_db, "service", label)
    delay = stage_latency(clip.wireless_bits, cfg.links.wireless, 0.0, cfg.nodes.end)
    return received, StageReport(
        transmission_seconds=delay, tx=replace(st, wireless_delay_seconds=delay),
        metrics={"link": "wireless",
                 **video_quality(video, received, cfg.metrics.ms_ssim_scales)},
    )


def fit_reference_scene(rc: ReconSettings):
    """Fit the synthetic benchmark scene from a perturbed start.  Returns the
    fit result, the frames it was fitted to, and the fitted Gaussian centers
    scored against the ground truth."""
    gt = fixtures.make_benchmark_scene(rc.n_timesteps, rc.image_size, rc.n_bases)
    frames, depths, tracks = fixtures.make_fit_inputs(gt, rc.n_tracks)
    result = fit_scene(frames, depths, tracks, fixtures.perturb_scene(gt, rc.perturb_seed),
                       rc.iterations)
    gt_centers, fit_centers = (
        pose_pipeline(scene_params(s), range(s.n_timesteps))["mu_t"].reshape(-1, 3)
        for s in (gt, result.scene)
    )
    metrics = {
        "final_loss": result.final_loss,
        "center_epe": epe(fit_centers, gt_centers),
        "center_pck_0p1": pck(fit_centers, gt_centers, 0.1),
    }
    return result, frames, metrics


def matte_composite(user: VideoSequence, background: VideoSequence, plate: Frame, syn):
    """Matte each user frame against the clean plate and composite it over
    the matching background frame; returns the mattes and the composite."""
    if len(background) < len(user):
        raise ValueError(f"background has {len(background)} frames, fewer than the "
                         f"user clip's {len(user)}: each user frame needs a background frame")
    mattes = [estimate_matte(f, plate, syn.threshold, syn.softness) for f in user.frames]
    frames = tuple(composite(f, b, m) for f, b, m in zip(user.frames, background.frames, mattes))
    return mattes, VideoSequence(frames, user.fps)


def _upload_user(cfg: RunConfig):
    video, plate, mattes = user_clip(cfg.user_video)
    received, report = _wireless_stage(video, cfg, "upload_user")
    return report, {"user": received, "user_clean": video, "plate": plate, "gt_mattes": mattes}


def _upload_background(cfg: RunConfig):
    video = resolve_video(cfg.background_video)
    received, report = _wireless_stage(video, cfg, "upload_background")
    return report, {"background": received, "background_clean": video}


def _forward_to_cloud(cfg: RunConfig, user: VideoSequence, background: VideoSequence):
    bits = sum(len(v) * v.height * v.width * 3 * 8 for v in (user, background))
    delay = stage_latency(bits, cfg.links.fiber, 0.0, cfg.nodes.cloud)
    return StageReport(
        transmission_seconds=delay,
        tx=TxStats(payload_bits=bits, channel_symbols=0, wireless_delay_seconds=0.0),
        metrics={"link": "fiber"},
    ), {}


def _video_synthesis(cfg: RunConfig, user, background, user_clean, background_clean, plate,
                     gt_mattes):
    syn = cfg.synthesis
    mattes, comp = matte_composite(user, background, plate, syn)
    # channel-free reference composite for quality accounting
    _, ref = matte_composite(user_clean, background_clean, plate, syn)
    metrics = {"composite_vs_reference": video_quality(ref, comp, cfg.metrics.ms_ssim_scales)}
    if gt_mattes is not None:
        ious, sem_l, det_l, fus_l = [], [], [], []
        for i, (matte, gt) in enumerate(zip(mattes, gt_mattes)):
            ious.append(matte_iou(matte, gt))
            thumb = AlphaMatte(
                np.clip(box_downsample(matte.alpha, syn.downsample_factor), 0.0, 1.0)
            )
            sem_l.append(semantic_loss(thumb, gt, syn.downsample_factor))
            det_l.append(detail_loss(matte, gt, transition_mask(gt, syn.radius)))
            fus_l.append(
                fusion_loss(matte, gt, user_clean.frames[i], background_clean.frames[i])
            )
        metrics.update(
            matte_iou=float(np.mean(ious)),
            coarse_mask_loss=float(np.mean(sem_l)),
            boundary_loss=float(np.mean(det_l)),
            fusion_loss=float(np.mean(fus_l)),
        )
    delay = stage_latency(0.0, cfg.links.fiber, cfg.compute.video_synthesis_flops,
                          cfg.nodes.cloud)
    # the composite goes down to the user unless the edge renders a scene
    return StageReport(compute_seconds=delay, metrics=metrics), {"downlink": comp}


def _scene_preprocess(cfg: RunConfig):
    if not cfg.reconstruction.enabled:
        return StageReport(status="skipped", metrics={"reason": "disabled in config"}), {}
    result, frames, metrics = fit_reference_scene(cfg.reconstruction)
    delay = stage_latency(0.0, cfg.links.fiber, cfg.compute.scene_preprocess_flops,
                          cfg.nodes.cloud)
    return (StageReport(compute_seconds=delay, metrics=metrics),
            {"scene": result.scene, "scene_frames": frames})


def _edge_render(cfg: RunConfig, scene, scene_frames):
    fps = fixtures.SCENE_FPS
    rendered = VideoSequence(tuple(render(scene, t).image for t in range(scene.n_timesteps)), fps)
    quality = video_quality(VideoSequence(tuple(scene_frames), fps), rendered, scales=1)
    delay = stage_latency(0.0, cfg.links.fiber, cfg.compute.render_flops, cfg.nodes.edge)
    return (StageReport(compute_seconds=delay, metrics={"render_vs_observations": quality}),
            {"downlink": rendered})


def _download_3d_video(cfg: RunConfig, downlink: VideoSequence):
    return _wireless_stage(downlink, cfg, "download_3d")[1], {}


# The service in run order: (stage name, stage function, the keys of earlier
# stages' outputs it takes after cfg, the skip reason if one of them is missing)
SERVICE_STAGES = (
    ("upload_user_video", _upload_user, (), None),
    ("upload_background", _upload_background, (), None),
    ("forward_to_cloud", _forward_to_cloud, ("user", "background"), None),
    ("video_synthesis", _video_synthesis,
     ("user", "background", "user_clean", "background_clean", "plate", "gt_mattes"), None),
    ("scene_preprocess", _scene_preprocess, (), None),
    ("edge_render", _edge_render, ("scene", "scene_frames"), "scene preprocessing disabled"),
    ("download_3d_video", _download_3d_video, ("downlink",), None),
)


def run_service(cfg: RunConfig) -> ServiceReport:
    """Execute the full service flow.

    Stages (``SERVICE_STAGES``): semantic upload of the user video
    (end -> edge) and the background video (camera -> edge), lossless fiber
    forward to the cloud, compositing in the cloud, scene fitting in the
    cloud, rendering at the edge, and semantic download of the rendered
    video, or of the composite when no scene was rendered (edge -> end).  A
    stage is skipped once an earlier stage has failed or when one of its
    inputs is missing.  A stage that raises is recorded as failed; the
    exception is not raised out of ``run_service``."""
    stages, produced, failed = [], {}, False
    for name, fn, keys, missing_reason in SERVICE_STAGES:
        if failed:
            report = StageReport(status="skipped")
        elif not all(k in produced for k in keys):
            report = StageReport(status="skipped", metrics={"reason": missing_reason})
        else:
            try:
                report, outputs = fn(cfg, *(produced[k] for k in keys))
                produced.update(outputs)
            except Exception as exc:  # deliberate: any stage failure aborts downstream
                report = StageReport(status="failed", error=str(exc))
                failed = True
        report.name = name
        stages.append(report)
    return ServiceReport(stages=stages, notes={"lpips": LPIPS_NOTE})
