"""Command-line interface.

Subcommands: transmit (one chain, one clip), compare (delay/quality
comparison report and SNR curves), composite (local video synthesis),
reconstruct (desk-scale scene fit), pipeline (full service run), and
show-config (print the active configuration).  Without
--config, the shipped reference configuration is used.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from .channel import SNR_DB_RANGE, snr_db_ok
from .config import config_to_dict, load_config, reference_config
from .pipeline import (
    CHAINS,
    compare_baselines,
    fit_reference_scene,
    matte_composite,
    resolve_video,
    run_service,
    transmit_video,
    user_clip,
    video_quality,
)
from .recon.scene import save_scene
from .synthesis import matte_iou
from .video import save_raw


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def cmd_transmit(args, cfg, out: Path) -> int:
    snr = cfg.snr_db if args.snr is None else args.snr
    video = resolve_video(cfg.video)
    received, stats = transmit_video(video, args.chain, cfg, snr, "cli")
    save_raw(received, out / f"received_{args.chain}.rgb")
    quality = video_quality(video, received, cfg.metrics.ms_ssim_scales)
    payload = {
        "chain": args.chain,
        "snr_db": snr,
        "quality": quality,
        "tx": {
            "payload_bits": stats.payload_bits,
            "channel_symbols": stats.channel_symbols,
            "side_info_bits": stats.side_info_bits,
            "decode_failures": stats.decode_failures,
        },
    }
    _write_json(out / f"transmit_{args.chain}.json", payload)
    print(f"{args.chain} @ {snr:+.1f} dB: PSNR {quality['psnr_db']:.2f} dB, "
          f"MS-SSIM {quality['ms_ssim']:.4f}")
    return 0


def cmd_compare(args, cfg, out: Path) -> int:
    report = compare_baselines(cfg)
    (out / "comparison.json").write_text(report.to_json())
    (out / "curves.csv").write_text(report.curve.to_csv())
    print(f"semantic delay {report.semantic_delay_seconds:.1f} s, "
          f"classical delay {report.classical_delay_seconds:.1f} s, "
          f"reduction {report.delay_reduction_pct:.2f}%")
    return 0


def cmd_composite(args, cfg, out: Path) -> int:
    user, plate, gt = user_clip(cfg.user_video)
    mattes, fused = matte_composite(user, resolve_video(cfg.background_video), plate,
                                    cfg.synthesis)
    save_raw(fused, out / "composite.rgb")  # also writes the composite.json sidecar
    metrics = {"frames": len(mattes)}
    summary = f"composited {len(mattes)} frames"
    if gt is not None:
        metrics["matte_iou"] = float(np.mean([matte_iou(m, g) for m, g in zip(mattes, gt)]))
        summary += f", matte IoU {metrics['matte_iou']:.4f}"
    _write_json(out / "composite_metrics.json", metrics)
    print(summary)
    return 0


def cmd_reconstruct(args, cfg, out: Path) -> int:
    result, _, metrics = fit_reference_scene(cfg.reconstruction)
    save_scene(result.scene, out / "scene.json")
    metrics["iterations"] = result.iterations_run
    metrics["backtracks"] = result.backtracks
    metrics["evaluations"] = result.evaluations
    metrics["gradients"] = result.gradients
    metrics["rejected_steps"] = result.rejected_steps
    _write_json(out / "reconstruct.json", metrics)
    print(f"fit loss {result.losses[0]:.4f} -> {result.final_loss:.6f}, "
          f"center EPE {metrics['center_epe']:.4f}, PCK(0.1) {metrics['center_pck_0p1']:.2f}")
    return 0


def cmd_pipeline(args, cfg, out: Path) -> int:
    report = run_service(cfg)
    (out / "service_report.json").write_text(report.to_json())
    for stage in report.stages:
        print(f"{stage.name:20s} {stage.status:8s} {stage.delay_seconds:12.3f} s")
    print(f"total delay {report.total_delay_seconds:.3f} s "
          f"(wireless {report.wireless_delay_seconds:.3f} s)")
    return 0


def cmd_show_config(args, cfg, out: Path) -> int:
    print(json.dumps(config_to_dict(cfg), sort_keys=True, indent=1))
    return 0


def _snr_db(text: str) -> float:
    """argparse type for an SNR in dB; nan, infinities and values the
    channel refuses are refused before any work starts."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not snr_db_ok(value):
        raise argparse.ArgumentTypeError(f"must be {SNR_DB_RANGE}, got {text!r}")
    return value


# subcommand -> (function, help text), in the order --help lists them
COMMANDS = {
    "transmit": (cmd_transmit, "send the reference clip through one chain"),
    "compare": (cmd_compare, "delay and quality comparison of both chains"),
    "composite": (cmd_composite, "matting and compositing without a channel"),
    "reconstruct": (cmd_reconstruct, "fit the synthetic Gaussian scene"),
    "pipeline": (cmd_pipeline, "run the full service flow"),
    "show-config": (cmd_show_config, "print the active configuration"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semvid",
        description="Desk-scale simulator of a semantic vs classical video "
                    "transmission service with compositing and 3D scene fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (default: built-in reference)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory")
        if name == "transmit":
            p.add_argument("--chain", choices=CHAINS, default="semantic")
            p.add_argument("--snr", type=_snr_db, default=None, help="override channel SNR in dB")
    return parser


def main(argv=None) -> int:
    """Load the config (a bad one fails before anything is written), create
    the output directory unless the command only prints, then run it."""
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config) if args.config else reference_config()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out = Path(args.out)
    if args.command != "show-config":
        out.mkdir(parents=True, exist_ok=True)
    return COMMANDS[args.command][0](args, cfg, out)


if __name__ == "__main__":
    raise SystemExit(main())
