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

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import fixtures
from .channel import ChannelConfig, TxStats, derive_seed
from .classical import prepare_classical, transmit_prepared
from .config import LinkSettings, NodeSettings, ReconSettings, RunConfig, VideoSource
from .ldpc import LdpcCode, make_ldpc_code
from .metrics import epe, ms_ssim, pck, psnr
from .recon.fit import FitConfig, fit_scene
from .recon.render import render
from .recon.scene import scene_poses
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
from .video import Frame, VideoSequence, box_downsample, flatten_gops, load_raw, segment_gops

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
    name: str
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
            data["tx"] = {
                "payload_bits": self.tx.payload_bits,
                "channel_symbols": self.tx.channel_symbols,
                "wireless_delay_seconds": self.tx.wireless_delay_seconds,
                "decode_failures": self.tx.decode_failures,
                "side_info_bits": self.tx.side_info_bits,
            }
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


def build_ldpc(cfg: RunConfig):
    return make_ldpc_code(
        cfg.classical.ldpc_k,
        cfg.classical.ldpc_seed,
        var_degree=cfg.classical.ldpc_var_degree,
        check_degree=cfg.classical.ldpc_check_degree,
    )


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
    return video, Frame(video.frames[0].data), None


def video_quality(reference: VideoSequence, received: VideoSequence, scales: int) -> dict:
    pairs = list(zip(reference.frames, received.frames))
    return {
        "psnr_db": float(np.mean([psnr(a, b) for a, b in pairs])),
        "ms_ssim": float(np.mean([ms_ssim(a, b, scales=scales) for a, b in pairs])),
    }


@dataclass(frozen=True)
class PreparedClip:
    """A clip encoded once for one chain, ready to be sent at any SNR."""

    chain: str
    payloads: tuple       # per GOP: SemanticPacket or PreparedClassical
    fps: float
    wireless_bits: int    # payload plus side information, all GOPs
    code: LdpcCode = None  # the classical chain's channel code


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
        code = build_ldpc(cfg)
        preps = tuple(prepare_classical(g, cfg.classical.qp, code) for g in gops)
        bits = sum(p.bitstream.bit_length + p.bitstream.side_info_bits for p in preps)
        return PreparedClip(chain, preps, video.fps, bits, code)
    raise ValueError(f"unknown chain {chain!r}")


def send(clip: PreparedClip, cfg: RunConfig, snr_db: float, *labels):
    """Send a prepared clip GOP by GOP over the AWGN channel; returns the
    received video and summed accounting.  GOP ``i`` draws its noise from
    ``derive_seed(cfg.seed, *labels, i)``.  The classical chain conceals
    undecodable macroblocks from the previous GOP's last received frame."""
    out = []
    total = TxStats(0, 0)
    prev = None
    for i, payload in enumerate(clip.payloads):
        ch = ChannelConfig(snr_db, derive_seed(cfg.seed, *labels, i))
        if clip.chain == "semantic":
            rec, st = transmit_packet(payload, ch, cfg.semantic)
        else:
            rec, st = transmit_prepared(payload, ch, clip.code, prev_frame=prev,
                                        max_iters=cfg.classical.max_iters)
            prev = rec.frames[-1]
        out.append(rec)
        total = total.merge(st)
    return flatten_gops(out, clip.fps), total


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

    def chain_series(self, chain: str, key: str = "psnr_db"):
        rows = sorted((r for r in self.rows if r["chain"] == chain), key=lambda r: r["snr_db"])
        return [r["snr_db"] for r in rows], [r[key] for r in rows]

    def max_adjacent_drop(self, chain: str, key: str = "psnr_db") -> float:
        _, vals = self.chain_series(chain, key)
        return max(prev - cur for prev, cur in zip(vals[1:], vals[:-1]))


def _prepare_reference(cfg: RunConfig):
    """The reference clip and its one encode per chain."""
    video = resolve_video(cfg.video)
    return video, {chain: prepare_clip(video, chain, cfg) for chain in CHAINS}


def _sweep(cfg: RunConfig, snrs, video: VideoSequence, clips: dict) -> CurveData:
    rows = []
    for snr in snrs:
        for chain in CHAINS:
            received, _ = send(clips[chain], cfg, snr, chain, "sweep", f"{snr:.3f}")
            q = video_quality(video, received, cfg.metrics.ms_ssim_scales)
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
    throughput = cfg.links["wireless"].throughput_bps
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


def _wireless_stage(name: str, video: VideoSequence, cfg: RunConfig, label: str):
    """One semantic hop over the wireless link at the configured SNR, with
    the service budget; returns the received video and its stage report."""
    clip = prepare_clip(video, "semantic", cfg, cfg.semantic.service_symbol_budget)
    received, st = send(clip, cfg, cfg.channel.snr_db, "service", label)
    delay = stage_latency(clip.wireless_bits, cfg.links["wireless"], 0.0, cfg.nodes["end"])
    return received, StageReport(
        name=name, transmission_seconds=delay, tx=replace(st, wireless_delay_seconds=delay),
        metrics={"link": "wireless",
                 **video_quality(video, received, cfg.metrics.ms_ssim_scales)},
    )


def fit_reference_scene(rc: ReconSettings):
    """Fit the synthetic benchmark scene from a perturbed start.  Returns the
    fit result, the frames it was fitted to, and the fitted Gaussian centers
    scored against the ground truth."""
    gt = fixtures.make_benchmark_scene(rc.n_timesteps, rc.image_size, rc.n_bases)
    frames, depths, tracks, cameras = fixtures.make_fit_inputs(gt, rc.n_tracks)
    fit_cfg = FitConfig(initial_scene=fixtures.perturb_scene(gt, rc.perturb_seed),
                        iterations=rc.iterations, learning_rates={"means": 5e-3})
    result = fit_scene(frames, depths, tracks, cameras, fit_cfg)
    gt_centers = np.concatenate([scene_poses(gt, t)[0] for t in range(gt.n_timesteps)])
    fit_centers = np.concatenate(
        [scene_poses(result.scene, t)[0] for t in range(result.scene.n_timesteps)]
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
    n = min(len(user), len(background))
    mattes = [estimate_matte(user.frames[i], plate, syn.threshold, syn.softness)
              for i in range(n)]
    frames = tuple(composite(user.frames[i], background.frames[i], mattes[i]) for i in range(n))
    return mattes, VideoSequence(frames, user.fps)


def run_service(cfg: RunConfig) -> ServiceReport:
    """Execute the full service flow.

    Stages: semantic upload of the user video (end -> edge) and the
    background video (camera -> edge), lossless fiber forward to the cloud,
    compositing in the cloud, scene fitting in the cloud, rendering at the
    edge, and semantic download of the rendered video (edge -> end).  A
    failing stage is recorded as failed and everything downstream is
    skipped."""
    fiber = cfg.links["fiber"]
    cloud_node = cfg.nodes["cloud"]
    scales = cfg.metrics.ms_ssim_scales

    stage_names = [
        "upload_user_video", "upload_background", "forward_to_cloud",
        "video_synthesis", "scene_preprocess", "edge_render", "download_3d_video",
    ]
    stages = {}
    state = {}
    failed = False

    def run_stage(name, fn):
        nonlocal failed
        if failed:
            stages[name] = StageReport(name=name, status="skipped")
            return
        try:
            stages[name] = fn()
        except Exception as exc:  # deliberate: any stage failure aborts downstream
            stages[name] = StageReport(name=name, status="failed", error=str(exc))
            failed = True

    def upload_user():
        video, plate, mattes = user_clip(cfg.user_video)
        state.update(user_clean=video, plate=plate, gt_mattes=mattes)
        state["user_received"], report = _wireless_stage(
            "upload_user_video", video, cfg, "upload_user")
        return report

    def upload_background():
        video = resolve_video(cfg.background_video)
        state["bg_clean"] = video
        state["bg_received"], report = _wireless_stage(
            "upload_background", video, cfg, "upload_background")
        return report

    def forward_to_cloud():
        user, bg = state["user_received"], state["bg_received"]
        bits = sum(len(v) * v.frames[0].height * v.frames[0].width * 3 * 8 for v in (user, bg))
        delay = stage_latency(bits, fiber, 0.0, cloud_node)
        return StageReport(
            name="forward_to_cloud", transmission_seconds=delay,
            tx=TxStats(payload_bits=bits, channel_symbols=0, wireless_delay_seconds=0.0),
            metrics={"link": "fiber"},
        )

    def video_synthesis():
        syn = cfg.synthesis
        mattes, comp = matte_composite(
            state["user_received"], state["bg_received"], state["plate"], syn)
        state["composite"] = comp
        # channel-free reference composite for quality accounting
        user_c, bg_c = state["user_clean"], state["bg_clean"]
        _, ref = matte_composite(user_c, bg_c, state["plate"], syn)
        metrics = {"composite_vs_reference": video_quality(ref, comp, scales)}
        if state["gt_mattes"] is not None:
            gt = state["gt_mattes"]
            ious, sem_l, det_l, fus_l = [], [], [], []
            for i in range(len(mattes)):
                ious.append(matte_iou(mattes[i], gt[i]))
                thumb = AlphaMatte(
                    np.clip(box_downsample(mattes[i].alpha, syn.downsample_factor), 0.0, 1.0)
                )
                sem_l.append(semantic_loss(thumb, gt[i], syn.downsample_factor))
                band = transition_mask(gt[i], syn.radius)
                det_l.append(detail_loss(mattes[i], gt[i], band))
                fus_l.append(
                    fusion_loss(mattes[i], gt[i], user_c.frames[i], bg_c.frames[i])
                )
            metrics.update(
                matte_iou=float(np.mean(ious)),
                coarse_mask_loss=float(np.mean(sem_l)),
                boundary_loss=float(np.mean(det_l)),
                fusion_loss=float(np.mean(fus_l)),
            )
        delay = stage_latency(0.0, fiber, cfg.compute.video_synthesis_flops, cloud_node)
        return StageReport(name="video_synthesis", compute_seconds=delay, metrics=metrics)

    def scene_preprocess():
        if not cfg.reconstruction.enabled:
            return StageReport(
                name="scene_preprocess", status="skipped",
                metrics={"reason": "disabled in config"},
            )
        result, state["scene_frames"], metrics = fit_reference_scene(cfg.reconstruction)
        state["scene"] = result.scene
        delay = stage_latency(0.0, fiber, cfg.compute.scene_preprocess_flops, cloud_node)
        return StageReport(name="scene_preprocess", compute_seconds=delay, metrics=metrics)

    def edge_render():
        if "scene" not in state:
            return StageReport(
                name="edge_render", status="skipped",
                metrics={"reason": "scene preprocessing disabled"},
            )
        scene = state["scene"]
        rendered = VideoSequence(
            tuple(render(scene, t).image for t in range(scene.n_timesteps)), 10.0
        )
        state["rendered"] = rendered
        quality = video_quality(
            VideoSequence(tuple(state["scene_frames"]), 10.0), rendered, scales=1
        )
        delay = stage_latency(0.0, fiber, cfg.compute.render_flops, cfg.nodes["edge"])
        return StageReport(
            name="edge_render", compute_seconds=delay,
            metrics={"render_vs_observations": quality},
        )

    def download_3d():
        source = state.get("rendered", state.get("composite"))
        if source is None:
            return StageReport(
                name="download_3d_video", status="skipped",
                metrics={"reason": "nothing to download"},
            )
        return _wireless_stage("download_3d_video", source, cfg, "download_3d")[1]

    for name, fn in zip(
        stage_names,
        (upload_user, upload_background, forward_to_cloud, video_synthesis,
         scene_preprocess, edge_render, download_3d),
    ):
        run_stage(name, fn)

    return ServiceReport(
        stages=[stages[name] for name in stage_names],
        notes={"lpips": LPIPS_NOTE},
    )
