"""Acceptance suite: one test per shipped guarantee, each printing a
PASS line with the measured values (run with -s to see them inline)."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from semvid.channel import awgn, noise_variance
from semvid.config import reference_config
from semvid.fixtures import (
    make_benchmark_scene,
    make_fit_inputs,
    perturb_scene,
)
from semvid.ldpc import bpsk_demodulate, bpsk_modulate, ldpc_decode, ldpc_encode
from semvid.metrics import average_jaccard, epe, mse, ms_ssim, pck, psnr
from semvid.pipeline import compare_baselines, run_service
from semvid.recon.fit import (
    PARAM_KEYS,
    fit_scene,
    loss_and_grad,
)
from semvid.recon.render import render
from semvid.recon.scene import pose_pipeline, scene_params
from semvid.semantic import (
    SemanticCodecConfig,
    extract_common,
    jscc_encode,
    latent_transform,
)
from semvid.video import VideoSequence

from scenes import make_gradient_check_scene, mutable_params
from test_recon import TestRender as _RenderTests

# reports of the reference configuration, recorded with the benchmark
GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


@pytest.fixture(scope="module")
def reference_comparison():
    """Criteria 1-3 share one comparison run on the shipped configuration."""
    return compare_baselines(reference_config())


def test_reference_comparison_matches_golden(reference_comparison):
    golden = (GOLDEN / "compare_ref-seed0.json").read_text()
    assert reference_comparison.to_json() == golden


def test_criterion_1_delay_reduction(reference_comparison):
    reduction = reference_comparison.delay_reduction_pct
    assert 90.0 <= reduction <= 99.0
    print(
        f"\nPASS criterion 1: semantic-vs-classical wireless delay reduction "
        f"{reduction:.2f}% (target [90, 99]; semantic "
        f"{reference_comparison.semantic_delay_seconds:.1f} s vs classical "
        f"{reference_comparison.classical_delay_seconds:.1f} s)"
    )


def test_criterion_2_low_snr_quality_ordering(reference_comparison):
    rows = {(r["chain"], r["snr_db"]): r["psnr_db"] for r in reference_comparison.curve.rows}
    semantic = rows[("semantic", 0.0)]
    classical = rows[("classical", 0.0)]
    assert semantic > classical
    print(
        f"\nPASS criterion 2: at 0 dB semantic PSNR {semantic:.2f} dB strictly "
        f"exceeds classical {classical:.2f} dB (margin {semantic - classical:+.2f} dB)"
    )


def test_criterion_3_graceful_degradation(reference_comparison):
    curve = reference_comparison.curve
    sem_drop = curve.max_adjacent_drop("semantic")
    cls_drop = curve.max_adjacent_drop("classical")
    assert sem_drop < cls_drop
    assert cls_drop > 10.0
    print(
        f"\nPASS criterion 3: max adjacent PSNR drop semantic {sem_drop:.2f} dB "
        f"< classical {cls_drop:.2f} dB, classical cliff > 10 dB"
    )


def test_criterion_4_ldpc_coding_gain(ldpc_code, rng):
    snr_db = 3.0
    sigma2 = noise_variance(snr_db)  # per-symbol SNR convention: 1/sigma^2
    n_info = 1_000_448  # multiple of k=512, >= 1e6
    info = rng.integers(0, 2, n_info).astype(np.uint8)
    coded = ldpc_encode(info, ldpc_code)
    received = awgn(bpsk_modulate(coded), snr_db, 77)

    # oracle first: closed-form uncoded BER Q(sqrt(2*SNR)) with SNR taken as
    # Es/N0; for real baseband noise of variance sigma^2, N0 = 2 sigma^2, so
    # Es/N0 is half the per-symbol SNR and the formula reduces to Q(1/sigma)
    es_n0 = (1.0 / sigma2) / 2.0
    q_arg = math.sqrt(2.0 * es_n0)
    closed_form = 0.5 * math.erfc(q_arg / math.sqrt(2.0))
    hard = (received < 0).astype(np.uint8)
    uncoded_ber = float(np.mean(hard != coded))
    assert abs(uncoded_ber - closed_form) <= 0.05 * closed_form

    decoded, _ = ldpc_decode(bpsk_demodulate(received, sigma2), ldpc_code)
    coded_ber = float(np.mean(decoded != info))
    assert coded_ber <= uncoded_ber / 10.0
    print(
        f"\nPASS criterion 4: decoded BER {coded_ber:.2e} <= uncoded/10 "
        f"(uncoded {uncoded_ber:.4f}, closed form {closed_form:.4f}, "
        f"{n_info} info bits)"
    )


def test_criterion_5_metric_examples():
    def const(v, shape=(8, 8, 3)):
        return np.full(shape, float(v))

    # MSE
    assert mse(const(0.3), const(0.3)) == 0.0
    assert mse(const(0.0), const(1.0)) == 1.0
    assert mse(const(0.0), const(0.5)) == 0.25
    # PSNR
    assert abs(psnr(const(0.0), const(0.1)) - 20.0) < 1e-9
    assert psnr(const(0.7), const(0.7)) == 100.0
    assert abs(psnr(const(0.0), const(1.0)) - 0.0) < 1e-9
    # MS-SSIM
    rng = np.random.default_rng(0)
    a = rng.random((48, 48, 3))
    b = rng.random((48, 48, 3))
    assert ms_ssim(a, a, scales=2) == 1.0
    assert ms_ssim(a, b, scales=2) == ms_ssim(b, a, scales=2)
    # EPE
    pts = np.arange(9, dtype=float).reshape(3, 3)
    assert epe(pts, pts) == 0.0
    assert abs(epe(np.zeros((5, 3)) + [0.03, 0, 0], np.zeros((5, 3))) - 0.03) < 1e-9
    assert abs(epe([[0.1, 0, 0], [0.3, 0, 0]], np.zeros((2, 3))) - 0.2) < 1e-9
    # PCK
    assert pck(pts, pts, 0.01) == 1.0
    off = np.zeros((4, 3)) + [0.07, 0, 0]
    assert pck(off, np.zeros((4, 3)), 0.05) == 0.0
    assert pck(off, np.zeros((4, 3)), 0.10) == 1.0
    half = np.zeros((4, 3))
    half[:2, 0] = 1.0
    assert pck(half, np.zeros((4, 3)), 0.5) == 0.5
    # AJ
    boxes = np.array([[0.0, 0.0, 2.0, 1.0]])
    assert average_jaccard(boxes, boxes) == 1.0
    assert average_jaccard(boxes, boxes + 10.0) == 0.0
    shifted = boxes + [1.0, 0.0, 1.0, 0.0]
    assert abs(average_jaccard(boxes, shifted) - 1.0 / 3.0) < 1e-9
    print("\nPASS criterion 5: all metric unit examples exact")


def test_criterion_6_common_feature_identity():
    cfg = SemanticCodecConfig()
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        h = int(rng.integers(8, 17))
        w = int(rng.integers(8, 17))
        gop = VideoSequence(rng.random((n, h, w, 3)), 8.0)
        features = jscc_encode(latent_transform(gop, cfg), cfg)
        common, individual = extract_common(features)
        assert np.array_equal(common + individual, features)
        checked += 1
    print(f"\nPASS criterion 6: common/individual split bit-exact on {checked} random GOPs")


def test_criterion_7_renderer_correctness():
    # argmax pixel vs analytic projection
    from test_recon import _covariance, _single_gaussian_scene, project

    scene = _single_gaussian_scene()
    res = render(scene, 0)
    bright = res.image.sum(axis=2)
    peak_y, peak_x = np.unravel_index(np.argmax(bright), bright.shape)
    mu2d, _ = project(scene.means[0], _covariance(scene, 0), scene.cameras[0])
    assert abs(peak_x - mu2d[0]) <= 1.0 and abs(peak_y - mu2d[1]) <= 1.0

    # scene/camera rigid equivalence within 1e-6
    _RenderTests().test_rigid_equivalence()

    # analytic gradient vs central finite differences on the 2-Gaussian scene
    gt = make_gradient_check_scene()
    frames, depths, tracks = make_fit_inputs(gt, n_tracks=2)
    test_scene = perturb_scene(gt, seed=9, mean_sigma=0.03, color_sigma=0.04)
    params = mutable_params(test_scene)
    _, grads = loss_and_grad(params, frames, depths, tracks, test_scene)

    def loss_only(p):
        return loss_and_grad(p, frames, depths, tracks, test_scene, want_grad=False)

    worst = 0.0
    for key in PARAM_KEYS:
        arr = params[key]
        fd = np.zeros_like(arr)
        flat, fd_flat = arr.reshape(-1), fd.reshape(-1)
        for i in range(flat.size):
            h = 1e-5 * max(1.0, abs(flat[i]))
            orig = flat[i]
            flat[i] = orig + h
            up = loss_only(params)
            flat[i] = orig - h
            down = loss_only(params)
            flat[i] = orig
            fd_flat[i] = (up - down) / (2 * h)
        rel = np.linalg.norm(grads[key] - fd) / (np.linalg.norm(fd) + 1e-30)
        worst = max(worst, rel)
        assert rel < 1e-3, f"{key}: relative error {rel}"
    print(
        f"\nPASS criterion 7: argmax within 1 px, rigid equivalence < 1e-6, "
        f"gradient-vs-FD worst relative error {worst:.2e} < 1e-3"
    )


def test_criterion_8_desk_scale_fit():
    gt = make_benchmark_scene()
    frames, depths, tracks = make_fit_inputs(gt)
    init = perturb_scene(gt, seed=5)
    held_out = 5
    result = fit_scene(frames, depths, tracks, init, 400, exclude_frames=(held_out,))
    assert all(b <= a + 1e-15 for a, b in zip(result.losses, result.losses[1:]))

    held_out_psnr = psnr(frames[held_out], render(result.scene, held_out).image)
    gt_centers, fit_centers = (
        pose_pipeline(scene_params(s), range(s.n_timesteps))["mu_t"].reshape(-1, 3)
        for s in (gt, result.scene)
    )
    center_epe = epe(fit_centers, gt_centers)
    center_pck = pck(fit_centers, gt_centers, 0.1)
    assert held_out_psnr >= 30.0
    assert center_epe <= 0.05
    assert center_pck == 1.0
    print(
        f"\nPASS criterion 8: held-out render PSNR {held_out_psnr:.2f} dB >= 30, "
        f"center EPE {center_epe:.4f} <= 0.05, PCK(0.1) = {center_pck:.2f}"
    )


# the benchmark's FIT_RTOL (perfbench/workloads.py): the fit may reorder its
# arithmetic, so the floats it derives may drift in their last bits
FIT_RTOL = 1e-6


def _close_to_fit_rtol(a, b) -> bool:
    """Equal structure and strings; numbers equal to within FIT_RTOL."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close_to_fit_rtol(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=FIT_RTOL, abs_tol=1e-12)
    return a == b


def test_criterion_9_pipeline_determinism():
    cfg = reference_config()
    first = run_service(cfg).to_json().encode()
    second = run_service(cfg).to_json().encode()
    assert first == second
    # the stages the scene fit does not touch match the recorded report exactly
    golden = json.loads((GOLDEN / "service_ref-seed0.json").read_text())["stages"]
    got = json.loads(first)["stages"]
    unfit = ("upload_user_video", "upload_background", "forward_to_cloud", "video_synthesis")
    assert [s for s in got if s["name"] in unfit] == [s for s in golden if s["name"] in unfit]
    # the fit-derived stages match it to FIT_RTOL
    fit = ("scene_preprocess", "edge_render", "download_3d_video")
    assert [s["name"] for s in got] == [s["name"] for s in golden]
    for g, w in zip(got, golden):
        if g["name"] in fit:
            assert _close_to_fit_rtol(g, w), g["name"]
    print(
        f"\nPASS criterion 9: two pipeline runs with identical config and seeds "
        f"produced byte-identical reports ({len(first)} bytes)"
    )
