"""Command-line interface.

Subcommands: transmit (one chain, one clip), sweep (SNR curves), compare
(delay/quality comparison report), composite (local video synthesis),
reconstruct (desk-scale scene fit), pipeline (full service run), and
show-config (print the active configuration).  Without --config, the
shipped reference configuration is used.
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import config_to_dict, load_config, reference_config
from .pipeline import (
    CHAINS,
    compare_baselines,
    fit_reference_scene,
    matte_composite,
    resolve_video,
    run_service,
    snr_sweep,
    transmit_video,
    user_clip,
    video_quality,
)
from .recon.scene import save_scene
from .synthesis import matte_iou
from .video import save_raw


def _load(args):
    cfg = load_config(args.config) if args.config else reference_config()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def cmd_transmit(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    snr = cfg.channel.snr_db if args.snr is None else args.snr
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


def cmd_sweep(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    curve = snr_sweep(cfg)
    (out / "curves.csv").write_text(curve.to_csv())
    for chain in CHAINS:
        snrs, psnrs = curve.chain_series(chain)
        print(chain + ": " + "  ".join(f"{s:+.0f}dB:{p:.1f}" for s, p in zip(snrs, psnrs)))
    print(f"wrote {out / 'curves.csv'}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    report = compare_baselines(cfg)
    (out / "comparison.json").write_text(report.to_json())
    (out / "curves.csv").write_text(report.curve.to_csv())
    print(f"semantic delay {report.semantic_delay_seconds:.1f} s, "
          f"classical delay {report.classical_delay_seconds:.1f} s, "
          f"reduction {report.delay_reduction_pct:.2f}%")
    return 0


def cmd_composite(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
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


def cmd_reconstruct(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    result, _, metrics = fit_reference_scene(cfg.reconstruction)
    save_scene(result.scene, out / "scene.json")
    metrics["iterations"] = result.iterations_run
    metrics["backtracks"] = result.metrics["backtracks"]
    metrics["rejected_steps"] = result.metrics["rejected_steps"]
    _write_json(out / "reconstruct.json", metrics)
    print(f"fit loss {result.losses[0]:.4f} -> {result.final_loss:.6f}, "
          f"center EPE {metrics['center_epe']:.4f}, PCK(0.1) {metrics['center_pck_0p1']:.2f}")
    return 0


def cmd_pipeline(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    report = run_service(cfg)
    (out / "service_report.json").write_text(report.to_json())
    for stage in report.stages:
        print(f"{stage.name:20s} {stage.status:8s} {stage.delay_seconds:12.3f} s")
    print(f"total delay {report.total_delay_seconds:.3f} s "
          f"(wireless {report.wireless_delay_seconds:.3f} s)")
    return 0


def cmd_show_config(args) -> int:
    cfg = _load(args)
    print(json.dumps(config_to_dict(cfg), sort_keys=True, indent=1))
    return 0


def _finite_float(text: str) -> float:
    """argparse type for a real number; nan and infinities are refused
    before any work starts."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semvid",
        description="Desk-scale simulator of a semantic vs classical video "
                    "transmission service with compositing and 3D scene fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (default: built-in reference)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("transmit", help="send the reference clip through one chain")
    common(p)
    p.add_argument("--chain", choices=CHAINS, default="semantic")
    p.add_argument("--snr", type=_finite_float, default=None, help="override channel SNR in dB")
    p.set_defaults(fn=cmd_transmit)

    p = sub.add_parser("sweep", help="PSNR/MS-SSIM curves over the SNR grid")
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("compare", help="delay and quality comparison of both chains")
    common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("composite", help="matting and compositing without a channel")
    common(p)
    p.set_defaults(fn=cmd_composite)

    p = sub.add_parser("reconstruct", help="fit the synthetic Gaussian scene")
    common(p)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("pipeline", help="run the full service flow")
    common(p)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("show-config", help="print the active configuration")
    common(p)
    p.set_defaults(fn=cmd_show_config)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
