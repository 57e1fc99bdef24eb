"""Desk-scale scene fitting.

Objective: per-frame L1 image error + L1 depth error (both on the raw
rasterizer outputs) + L1 reprojection error of tracked points, averaged
over frames.  Gradients are analytic all the way through the rasterizer
(compositing, splatting, projection, covariance construction, quaternion
blending); the test suite validates them against central finite
differences.

The optimizer is Adam with per-parameter-group step sizes, wrapped in an
accept/reject rule: a step that does not decrease the objective is
backtracked with a halved scale, so the recorded objective is
non-increasing by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..video import Frame
from .render import ALPHA_MAX, rasterize, surface_lift
from .scene import PARAM_KEYS, GaussianScene, MotionBasisSet, quat_normalize, scene_params

DEFAULT_LEARNING_RATES = {
    "means": 2e-3,
    "quats": 2e-3,
    "scales": 2e-3,
    "opacities": 5e-3,
    "colors": 5e-3,
    "coeffs": 5e-3,
    "basis_quats": 1e-3,
    "basis_trans": 1e-3,
}

OPACITY_EPS = 1e-4
SCALE_FLOOR = 1e-5


class FitDivergenceError(RuntimeError):
    """Raised when the objective stops being finite."""


@dataclass(frozen=True)
class Tracks2D:
    """2D point tracks: pixels queried in frame 0 and their observed
    positions in every frame."""

    query_pixels: np.ndarray  # (K, 2)
    positions: np.ndarray     # (K, T, 2)


@dataclass
class FitConfig:
    initial_scene: GaussianScene
    iterations: int = 400
    image_weight: float = 1.0
    depth_weight: float = 0.5
    track_weight: float = 0.05
    learning_rates: dict = field(default_factory=dict)
    exclude_frames: tuple = ()
    max_backtracks: int = 12


@dataclass
class FitResult:
    scene: GaussianScene
    losses: list
    iterations_run: int
    metrics: dict

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def scene_to_params(scene: GaussianScene) -> dict:
    """Raw optimization variables; an exact copy of the scene arrays so a
    fit started at a scene reproduces its renders bit for bit."""
    return {k: v.copy() for k, v in scene_params(scene).items()}


def params_to_scene(params: dict, cameras, background) -> GaussianScene:
    return GaussianScene(
        means=params["means"],
        quaternions=quat_normalize(params["quats"]),
        scales=np.maximum(params["scales"], SCALE_FLOOR),
        opacities=np.clip(params["opacities"], OPACITY_EPS, 1 - OPACITY_EPS),
        colors=np.clip(params["colors"], 0.0, 1.0),
        motion_coeffs=params["coeffs"],
        bases=MotionBasisSet(
            quat_normalize(params["basis_quats"]), params["basis_trans"]
        ),
        cameras=tuple(cameras),
        background=background,
    )


def _project_params(params: dict) -> None:
    np.clip(params["opacities"], OPACITY_EPS, 1 - OPACITY_EPS, out=params["opacities"])
    np.clip(params["colors"], 0.0, 1.0, out=params["colors"])
    np.maximum(params["scales"], SCALE_FLOOR, out=params["scales"])


def track_assignments(scene: GaussianScene, query_pixels: np.ndarray) -> np.ndarray:
    """Frozen soft assignment of each tracked pixel to the Gaussians hit in
    frame 0 (normalized T*alpha weights); held constant during fitting."""
    weights = []
    for p in np.atleast_2d(query_pixels):
        full, _, _ = surface_lift(scene, p, 0)
        weights.append(full)
    return np.stack(weights)


def predict_track_positions(mu2d: np.ndarray, assignments: np.ndarray,
                            valid: np.ndarray) -> np.ndarray:
    """Predicted pixel position per track: assignment-weighted mean of the
    projected Gaussian centers (culled Gaussians contribute nothing)."""
    a = assignments * valid[None, :]
    return a @ mu2d


# --- quaternion / rotation backward helpers -------------------------------

def _normalize_backward(raw: np.ndarray, d_normalized: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(raw, axis=-1, keepdims=True)
    unit = raw / norm
    inner = np.sum(unit * d_normalized, axis=-1, keepdims=True)
    return (d_normalized - unit * inner) / norm


def _rotmat_backward(q: np.ndarray, d_r: np.ndarray) -> np.ndarray:
    """d(loss)/dq for R = quat_to_rotmat(q) with unit q, batched."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    zero = np.zeros_like(w)

    def mat(rows):
        return 2.0 * np.stack(rows, axis=-1).reshape(*q.shape[:-1], 3, 3)

    d_w = mat([zero, -z, y, z, zero, -x, -y, x, zero])
    d_x = mat([zero, y, z, y, -2 * x, -w, z, w, -2 * x])
    d_y = mat([-2 * y, x, w, x, zero, z, -w, z, -2 * y])
    d_z = mat([-2 * z, -w, x, w, -2 * z, y, x, y, zero])
    return np.stack(
        [np.sum(d_r * d, axis=(-2, -1)) for d in (d_w, d_x, d_y, d_z)], axis=-1
    )


def _quat_mul_left_matrix(a: np.ndarray) -> np.ndarray:
    """M with quat_multiply(a, b) == M @ b."""
    w, x, y, z = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    rows = [w, -x, -y, -z, x, w, -z, y, y, z, w, -x, z, -y, x, w]
    return np.stack(rows, axis=-1).reshape(*a.shape[:-1], 4, 4)


def _quat_mul_right_matrix(b: np.ndarray) -> np.ndarray:
    """M with quat_multiply(a, b) == M @ a."""
    w, x, y, z = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    rows = [w, -x, -y, -z, x, w, z, -y, y, -z, w, x, z, y, -x, w]
    return np.stack(rows, axis=-1).reshape(*b.shape[:-1], 4, 4)


def _softmax_backward(w: np.ndarray, d_w: np.ndarray) -> np.ndarray:
    inner = np.sum(w * d_w, axis=-1, keepdims=True)
    return w * (d_w - inner)


# --- objective -------------------------------------------------------------

def _backward_frame(params, camera, t, fwd, g_image, g_depth, d_mu2d_extra, grads,
                    background):
    """Accumulate d(loss)/d(params) for one frame given upstream gradients
    on the rendered image/depth and on the projected centers."""
    g = params["means"].shape[0]
    order = fwd["order"]
    n = order.size
    pp = fwd["pp"]

    d_mu2d = np.zeros((g, 2))
    d_cov2d = np.zeros((g, 2, 2))
    d_x_cam = np.zeros((g, 3))
    if d_mu2d_extra is not None:
        d_mu2d += d_mu2d_extra

    if n > 0:
        alphas = fwd["alphas"]
        weights = fwd["t_excl"] * alphas
        colors_sorted = params["colors"][order]
        z_sorted = fwd["x_cam"][order, 2]
        # suffix sums of everything behind each splat, background included
        # (the background term t_final * bg also depends on every alpha)
        contrib_img = weights[:, :, :, None] * colors_sorted[:, None, None, :]
        bg_term = fwd["t_final"][None, :, :, None] * background[None, None, None, :]
        tail_img = np.concatenate([contrib_img, bg_term], axis=0)
        suffix_img = np.cumsum(tail_img[::-1], axis=0)[::-1]
        s_after_img = suffix_img[1:]
        contrib_dep = weights * z_sorted[:, None, None]
        tail_dep = np.concatenate([contrib_dep, np.zeros((1, *contrib_dep.shape[1:]))])
        suffix_dep = np.cumsum(tail_dep[::-1], axis=0)[::-1]
        s_after_dep = suffix_dep[1:]

        one_minus = 1.0 - alphas
        d_alpha = (
            np.einsum(
                "hwc,ghwc->ghw",
                g_image,
                fwd["t_excl"][:, :, :, None] * colors_sorted[:, None, None, :]
                - s_after_img / one_minus[:, :, :, None],
            )
            + g_depth
            * (fwd["t_excl"] * z_sorted[:, None, None] - s_after_dep / one_minus)
        )
        d_colors_sorted = np.einsum("hwc,ghw->gc", g_image, weights)
        d_z_dep = np.einsum("hw,ghw->g", g_depth, weights)

        clip_mask = fwd["alpha_raw"] < ALPHA_MAX
        d_alpha_raw = d_alpha * clip_mask
        opac_sorted = params["opacities"][order][:, None, None]
        e = fwd["alpha_raw"] / opac_sorted
        d_opac_sorted = np.sum(d_alpha_raw * e, axis=(1, 2))
        d_qf = -0.5 * d_alpha_raw * fwd["alpha_raw"]
        d_inv = np.einsum("ghw,ghwi,ghwj->gij", d_qf, fwd["delta"], fwd["delta"])
        d_delta = 2.0 * np.einsum("ghw,ghwj,gji->ghwi", d_qf, fwd["delta"], fwd["inv"])
        d_mu2d_splat = -np.sum(d_delta, axis=(1, 2))
        d_cov2d_sorted = -np.einsum("gij,gjk,gkl->gil", fwd["inv"], d_inv, fwd["inv"])

        grads["colors"][order] += d_colors_sorted
        grads["opacities"][order] += d_opac_sorted
        d_mu2d[order] += d_mu2d_splat
        d_cov2d[order] += d_cov2d_sorted
        d_x_cam[order, 2] += d_z_dep

    # projection backward (full domain; culled rows carry zero gradients)
    m = fwd["j"] @ camera.rotation
    sym = d_cov2d + np.swapaxes(d_cov2d, 1, 2)
    d_m = np.einsum("gij,gjk,gkl->gil", sym, m, pp["cov"])
    d_sigma = np.einsum("gji,gjk,gkl->gil", m, d_cov2d, m)
    d_j = d_m @ camera.rotation.T
    fx, fy = camera.fx, camera.fy
    x, y = fwd["x_cam"][:, 0], fwd["x_cam"][:, 1]
    z = np.where(fwd["valid"], fwd["x_cam"][:, 2], 1.0)
    d_x_cam[:, 0] += d_j[:, 0, 2] * (-fx / z**2)
    d_x_cam[:, 1] += d_j[:, 1, 2] * (-fy / z**2)
    d_x_cam[:, 2] += (
        d_j[:, 0, 0] * (-fx / z**2)
        + d_j[:, 1, 1] * (-fy / z**2)
        + d_j[:, 0, 2] * (2 * fx * x / z**3)
        + d_j[:, 1, 2] * (2 * fy * y / z**3)
    )
    d_x_cam += np.einsum("gij,gi->gj", fwd["j"], d_mu2d)
    d_mu_t = d_x_cam @ camera.rotation

    # covariance backward: cov = R diag(s^2) R^T
    r_t = pp["r_t"]
    sym_sigma = d_sigma + np.swapaxes(d_sigma, 1, 2)
    rd = r_t * pp["s2"][:, None, :]
    d_r_t = np.einsum("gik,gkj->gij", sym_sigma, rd)
    d_s2 = np.einsum("gkj,gkl,glj->gj", r_t, d_sigma, r_t)
    grads["scales"] += d_s2 * 2.0 * params["scales"]

    # rotation chain: R_t = rotmat(normalize(qblend * q0n))
    d_qtn = _rotmat_backward(pp["qtn"], d_r_t)
    d_qt_raw = _normalize_backward(pp["qt_raw"], d_qtn)
    mr = _quat_mul_right_matrix(pp["q0n"])
    ml = _quat_mul_left_matrix(pp["qblend"])
    d_qblend = np.einsum("gkj,gk->gj", mr, d_qt_raw)
    d_q0n = np.einsum("gkj,gk->gj", ml, d_qt_raw)
    grads["quats"] += _normalize_backward(params["quats"], d_q0n)

    # mean chain: mu_t = Rblend @ means + tblend
    d_rblend = np.einsum("gi,gj->gij", d_mu_t, params["means"])
    grads["means"] += np.einsum("gi,gij->gj", d_mu_t, pp["rblend"])
    d_tblend = d_mu_t
    d_qblend += _rotmat_backward(pp["qblend"], d_rblend)
    d_qbar = _normalize_backward(pp["qbar"], d_qblend)

    # blend chain: qbar = w @ aligned, tblend = w @ basis_trans[:, t]
    d_w = d_qbar @ pp["aligned"].T + d_tblend @ params["basis_trans"][:, t].T
    d_aligned = pp["w"].T @ d_qbar
    grads["basis_trans"][:, t] += pp["w"].T @ d_tblend
    d_bqn = d_aligned * pp["sign"][:, None]
    grads["basis_quats"][:, t] += _normalize_backward(params["basis_quats"][:, t], d_bqn)
    grads["coeffs"] += _softmax_backward(pp["w"], d_w)


def loss_and_grad(params, frames, depth_maps, cameras, cfg,
                  assignments=None, track_positions=None, want_grad=True):
    """Objective and (optionally) its gradient over all non-excluded
    frames."""
    n_frames = len(frames)
    fit_frames = [t for t in range(n_frames) if t not in set(cfg.exclude_frames)]
    if not fit_frames:
        raise ValueError("no frames left to fit after exclusions")
    for key in PARAM_KEYS:
        if not np.all(np.isfinite(params[key])):
            raise FitDivergenceError(f"parameter group {key!r} became non-finite")
    background = cfg.initial_scene.background
    grads = {k: np.zeros_like(params[k]) for k in PARAM_KEYS} if want_grad else None
    total = 0.0
    denom = float(len(fit_frames))
    for t in fit_frames:
        fwd = rasterize(params, cameras[t], t, background)
        image_gt = frames[t].data if isinstance(frames[t], Frame) else np.asarray(frames[t])
        resid_img = fwd["image"] - image_gt
        resid_dep = fwd["depth"] - depth_maps[t]
        loss_t = cfg.image_weight * np.mean(np.abs(resid_img)) + cfg.depth_weight * np.mean(
            np.abs(resid_dep)
        )
        d_mu2d_extra = None
        if assignments is not None:
            pred = predict_track_positions(fwd["mu2d"], assignments, fwd["valid"])
            resid_tr = pred - track_positions[:, t]
            loss_t += cfg.track_weight * np.mean(np.abs(resid_tr))
            if want_grad:
                g_tr = (
                    cfg.track_weight
                    * np.sign(resid_tr)
                    / (resid_tr.size * denom)
                )
                d_mu2d_extra = (assignments * fwd["valid"][None, :]).T @ g_tr
        total += loss_t / denom
        if want_grad:
            g_image = cfg.image_weight * np.sign(resid_img) / (resid_img.size * denom)
            g_depth = cfg.depth_weight * np.sign(resid_dep) / (resid_dep.size * denom)
            _backward_frame(
                params, cameras[t], t, fwd, g_image, g_depth, d_mu2d_extra, grads,
                background,
            )
    if not np.isfinite(total):
        raise FitDivergenceError(f"objective became non-finite ({total})")
    return (total, grads) if want_grad else total


class _Adam:
    def __init__(self, params, learning_rates):
        self.lr = learning_rates
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8

    def direction(self, grads):
        """Update moments and return the unscaled parameter step."""
        self.t += 1
        step = {}
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for k, g in grads.items():
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            m_hat = self.m[k] / bias1
            v_hat = self.v[k] / bias2
            step[k] = self.lr[k] * m_hat / (np.sqrt(v_hat) + self.eps)
        return step


def fit_scene(frames, depth_maps, tracks_2d, cameras, config: FitConfig) -> FitResult:
    """Fit a Gaussian scene to rendered observations.

    ``frames`` are Frame objects (or arrays), ``depth_maps`` raw rasterizer
    depth maps, ``tracks_2d`` an optional :class:`Tracks2D`, and ``cameras``
    one Camera per frame.  The recorded objective is non-increasing across
    accepted iterations; a non-finite objective raises
    :class:`FitDivergenceError`.
    """
    if len(frames) < 2:
        raise ValueError("need at least two frames to fit")
    if not (len(frames) == len(depth_maps) == len(cameras)):
        raise ValueError("frames, depth maps and cameras must align")
    scene0 = config.initial_scene
    if scene0.bases.n_timesteps != len(frames):
        raise ValueError("initial scene timesteps must match the frame count")
    lrs = dict(DEFAULT_LEARNING_RATES)
    lrs.update(config.learning_rates)

    params = scene_to_params(scene0)
    assignments = None
    track_positions = None
    if tracks_2d is not None:
        assignments = track_assignments(scene0, tracks_2d.query_pixels)
        track_positions = np.asarray(tracks_2d.positions, dtype=np.float64)

    adam = _Adam(params, lrs)
    background = scene0.background

    def evaluate(p, want_grad):
        return loss_and_grad(
            p, frames, depth_maps, cameras, config,
            assignments=assignments, track_positions=track_positions,
            want_grad=want_grad,
        )

    loss, grads = evaluate(params, True)
    losses = [loss]
    scale = 1.0
    for _ in range(config.iterations):
        step = adam.direction(grads)
        accepted = False
        trial_scale = scale
        for _ in range(config.max_backtracks):
            candidate = {k: params[k] - trial_scale * step[k] for k in PARAM_KEYS}
            _project_params(candidate)
            cand_loss = evaluate(candidate, False)
            if cand_loss <= loss:
                params = candidate
                loss = cand_loss
                scale = min(1.0, trial_scale * 1.25)
                accepted = True
                break
            trial_scale *= 0.5
        losses.append(loss)
        if accepted:
            _, grads = evaluate(params, True)
        else:
            scale = trial_scale
            if scale < 1e-9:
                break

    scene = params_to_scene(params, cameras, background)
    metrics = {
        "final_loss": loss,
        "initial_loss": losses[0],
        "iterations": len(losses) - 1,
    }
    return FitResult(scene=scene, losses=losses, iterations_run=len(losses) - 1, metrics=metrics)
