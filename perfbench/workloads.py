"""The benchmark's workloads: how each makes one batch of inputs from the
seed, what one op is, and how the outputs of a batch are checked.

Seed 0 reproduces the shipped reference configuration exactly.  For the
seeds in ``GOLDEN_SEEDS`` the outputs must equal the files in ``golden/``,
recorded at the commit that added the benchmark; every other seed is checked
against invariants only.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable
from unittest import mock

import numpy as np

import semvid.pipeline
from semvid import fixtures
from semvid.config import reference_config
from semvid.metrics import psnr
from semvid.pipeline import compare_baselines, run_service, transmit_video

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SEEDS = (0, 7)   # the default seed and one held-out seed
REF_SEED = reference_config().seed  # workload seed n runs with config seed REF_SEED + n

# Fit-derived floats may drift in the last bits (the fitter may reorder its
# arithmetic), so these service stages match the golden report to this
# relative tolerance; everything else must match exactly.
FIT_STAGES = ("scene_preprocess", "edge_render", "download_3d_video")
FIT_RTOL = 1e-6

TRANSMIT_SIDES = (64, 128)   # clip sizes of one transmit_clean batch
TRANSMIT_SNR_DB = (16.0, 25.0)   # high enough that no LDPC block needs BP iterations
TRANSMIT_LABEL = "bench"


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]  # seed -> one batch of op inputs
    op: Callable[[object], object]
    golden: Callable[[list], str]       # one batch's outputs -> text of its golden file
    check: Callable[[int, list, list], list]  # (seed, inputs, outputs) -> problem or None per op


def golden_path(workload: str, seed: int) -> Path:
    return GOLDEN_DIR / f"{workload}-seed{seed}.json"


def _golden(workload: str, seed: int):
    path = golden_path(workload, seed)
    return path.read_text() if path.is_file() else None


# compare_ref: semvid compare on the reference config -------------------

def _compare_inputs(seed: int) -> list:
    # The seed moves the channel noise only.  The clip stays the reference
    # clip: its LDPC block count follows the clip seed and swung the op time
    # by +-10 % across seeds, more than a third of the wall_s bound.
    return [replace(reference_config(), seed=REF_SEED + seed)]


def _compare_golden(outputs: list) -> str:
    return outputs[0].to_json()


def _compare_problem(seed: int, report):
    """Acceptance criteria 1-3, which hold for every seed."""
    if report is None:
        return None
    golden = _golden("compare_ref", seed)
    if golden is not None and report.to_json() != golden:
        return "comparison report differs from golden"
    curve = report.curve
    if len(curve.rows) != 2 * len(reference_config().sweep_snrs_db):
        return f"curve has {len(curve.rows)} rows"
    if not 90.0 <= report.delay_reduction_pct <= 99.0:
        return f"delay reduction {report.delay_reduction_pct:.2f}% outside [90, 99]"
    rows = {(r["chain"], r["snr_db"]): r["psnr_db"] for r in curve.rows}
    if not rows[("semantic", 0.0)] > rows[("classical", 0.0)]:
        return "semantic PSNR does not beat classical at 0 dB"
    sem_drop = curve.max_adjacent_drop("semantic")
    cls_drop = curve.max_adjacent_drop("classical")
    if not (sem_drop < cls_drop and cls_drop > 10.0):
        return f"no classical cliff (drops: semantic {sem_drop:.2f}, classical {cls_drop:.2f} dB)"
    return None


def _compare_check(seed: int, inputs: list, outputs: list) -> list:
    return [_compare_problem(seed, out) for out in outputs]


# service_ref: semvid pipeline, twice on the same input -----------------

def _service_inputs(seed: int) -> list:
    ref = reference_config()
    cfg = replace(
        ref,
        seed=REF_SEED + seed,
        user_video=replace(ref.user_video, seed=ref.user_video.seed + seed),
        background_video=replace(ref.background_video, seed=ref.background_video.seed + seed),
    )
    return [cfg, cfg]


def _service_op(cfg):
    """run_service, keeping each fit's loss trajectory for the check."""
    fit = semvid.pipeline.fit_scene
    losses = []

    def recording_fit(*args, **kwargs):
        result = fit(*args, **kwargs)
        losses.append(list(result.losses))
        return result

    with mock.patch.object(semvid.pipeline, "fit_scene", recording_fit):
        report = run_service(cfg)
    return report, losses


def _service_golden(outputs: list) -> str:
    return outputs[0][0].to_json()


def _close(a, b, rtol: float) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, rtol) for x, y in zip(a, b))
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers) and not isinstance(a, bool):
        return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-12)
    return a == b


def _matches_golden_service(got: dict, want: dict) -> bool:
    if got.keys() != want.keys() or len(got["stages"]) != len(want["stages"]):
        return False
    for g, w in zip(got["stages"], want["stages"]):
        if not _close(g, w, FIT_RTOL if w["name"] in FIT_STAGES else 0.0):
            return False
    # the totals sum fit-derived delays, so they get the fit tolerance
    return got["notes"] == want["notes"] and _close(got["totals"], want["totals"], FIT_RTOL)


def _service_problem(seed: int, output, first):
    if output is None:
        return None
    report, losses = output
    text = report.to_json()
    if first is not None and text != first[0].to_json():
        return "repeat report is not byte-identical to the first"
    golden = _golden("service_ref", seed)
    if golden is not None and not _matches_golden_service(json.loads(text), json.loads(golden)):
        return "service report differs from golden"
    failed = [s.name for s in report.stages if s.status != "ok"]
    if failed:
        return f"stages not ok: {failed}"
    if len(losses) != 1:
        return f"expected one scene fit, saw {len(losses)}"
    trajectory = losses[0]
    if any(b > a for a, b in zip(trajectory, trajectory[1:])):
        return "fit loss increased between accepted iterations"
    return None


def _service_check(seed: int, inputs: list, outputs: list) -> list:
    first = outputs[0]
    return [_service_problem(seed, out, first if i else None) for i, out in enumerate(outputs)]


# transmit_clean: one distinct clip per op, both chains, clean SNR ------

def _transmit_inputs(seed: int) -> list:
    rng = np.random.default_rng([REF_SEED, seed])
    cfg = replace(reference_config(), seed=REF_SEED + seed)
    batch = []
    for side in TRANSMIT_SIDES:
        clip_seed = int(rng.integers(2**31))
        snr_db = float(np.round(rng.uniform(*TRANSMIT_SNR_DB), 1))
        clip = fixtures.make_test_clip(side, side, 8, 8.0, clip_seed)
        batch.append((cfg, clip, snr_db))
    return batch


def _transmit_op(item):
    cfg, clip, snr_db = item
    return {
        chain: transmit_video(clip, chain, cfg, snr_db, TRANSMIT_LABEL)
        for chain in ("semantic", "classical")
    }


def _video_sha256(video) -> str:
    return hashlib.sha256(np.ascontiguousarray(video.to_array()).tobytes()).hexdigest()


def _transmit_summary(output) -> dict:
    return {
        chain: {"stats": asdict(stats), "frames_sha256": _video_sha256(video)}
        for chain, (video, stats) in output.items()
    }


def _transmit_golden(outputs: list) -> str:
    return json.dumps([_transmit_summary(o) for o in outputs], sort_keys=True, indent=1) + "\n"


def _mean_psnr(a, b) -> float:
    return float(np.mean([psnr(x, y) for x, y in zip(a.frames, b.frames)]))


def _transmit_problem(item, output):
    if output is None:
        return None
    _, clip, snr_db = item
    for chain, (video, stats) in output.items():
        if len(video) != len(clip) or video.frames[0].data.shape != clip.frames[0].data.shape:
            return f"{chain}: output shape differs from the input clip"
        if stats.payload_bits <= 0:
            return f"{chain}: empty payload"
    video, stats = output["classical"]
    if stats.decode_failures:
        return f"classical: {stats.decode_failures} LDPC blocks failed at {snr_db} dB"
    # quantisation alone leaves about 47 dB here; the semantic chain is lossy by design
    cls_psnr = _mean_psnr(clip, video)
    if cls_psnr < 40.0:
        return f"classical: PSNR {cls_psnr:.2f} dB below 40 dB"
    sem_psnr = _mean_psnr(clip, output["semantic"][0])
    if not 10.0 <= sem_psnr < 100.0:
        return f"semantic: PSNR {sem_psnr:.2f} dB outside [10, 100)"
    return None


def _transmit_check(seed: int, inputs: list, outputs: list) -> list:
    problems = [_transmit_problem(item, out) for item, out in zip(inputs, outputs)]
    golden = _golden("transmit_clean", seed)
    if golden is not None:
        want = json.loads(golden)
        for i, out in enumerate(outputs):
            if out is not None and problems[i] is None and _transmit_summary(out) != want[i]:
                problems[i] = "transmitted clip differs from golden"
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compare_ref", _compare_inputs, compare_baselines, _compare_golden,
                 _compare_check),
        Workload("service_ref", _service_inputs, _service_op, _service_golden,
                 _service_check),
        Workload("transmit_clean", _transmit_inputs, _transmit_op, _transmit_golden,
                 _transmit_check),
    )
}

